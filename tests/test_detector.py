import json
import tracemalloc

import numpy as np
import pytest

from a429ids import bus, detector as det, features, lof, segmentation
from a429ids.bus import ReceiverLoad, TransmitterProfile
from a429ids.detector import SuspicionCounter, counter_step, run_labels
from a429ids.features import FeatureSet
from a429ids.segmentation import SegmentType
from a429ids.words import DEFAULT_WORD_SET

from oracles import counter_walk_alarm


@pytest.fixture(scope="module")
def trained(noisy_word_bank):
    _, bank = noisy_word_bank
    return det.train_detector(bank, FeatureSet.GENERIC, t_votes=100)


def test_training_covers_all_types(trained):
    assert set(trained.models) == set(SegmentType)


def test_normal_word_classification(trained, noisy_word_bank):
    _, bank = noisy_word_bank
    labels, votes = det.classify_words(trained, bank)
    # training-distribution words keep a clear majority of normal votes
    assert np.all(votes > 100)
    assert not labels.any()


def test_vote_threshold_is_inclusive(trained, noisy_word_bank):
    _, bank = noisy_word_bank
    labels, votes = det.classify_words(trained, bank[0:1])
    assert not labels[0]
    pinned = det.WordDetector(
        set_id=trained.set_id, t_votes=int(votes[0]), models=trained.models,
        sample_interval=trained.sample_interval,
    )
    assert det.classify_words(pinned, bank[0:1])[0][0]  # votes == t_votes -> anomaly


def test_vote_monotonicity(trained, noisy_word_bank):
    _, bank = noisy_word_bank
    _, votes = det.classify_words(trained, bank)
    previous = np.zeros(len(bank), dtype=bool)
    for t_votes in (0, 50, 100, 120, 127):
        labels = votes <= t_votes
        assert np.all(previous <= labels)  # raising t_votes never clears an anomaly
        previous = labels


def test_handcrafted_trains_eight_models(noisy_word_bank):
    _, bank = noisy_word_bank
    trained = det.train_detector(bank, FeatureSet.HANDCRAFTED, t_votes=90)
    assert len(trained.models) == 8
    assert SegmentType.NULL_LH not in trained.models
    assert SegmentType.NULL_HL not in trained.models


def test_handcrafted_alternating_word_vote_universe(noisy_word_bank):
    values, bank = noisy_word_bank
    trained = det.train_detector(bank, FeatureSet.HANDCRAFTED, t_votes=90)
    i = values.index(0x55555555)
    _, votes = det.classify_words(trained, bank[i : i + 1])
    assert 0 <= votes[0] <= 96  # 31 nulls are skipped, not voted


def test_training_is_deterministic(noisy_word_bank, tmp_path):
    _, bank = noisy_word_bank
    a = det.train_detector(bank, FeatureSet.GENERIC, t_votes=100)
    b = det.train_detector(bank, FeatureSet.GENERIC, t_votes=100)
    det.save_detector(a, tmp_path / "a.npz")
    det.save_detector(b, tmp_path / "b.npz")
    assert (tmp_path / "a.npz").read_bytes() == (tmp_path / "b.npz").read_bytes()


def test_missing_model_is_an_error():
    tx = TransmitterProfile()
    ones = bus.synthesize_stream(tx, [ReceiverLoad()], [0xFFFFFFFF] * 30, seed=1)
    trained = det.train_detector(
        segmentation.segment_stream(ones), FeatureSet.GENERIC, t_votes=100
    )
    assert set(trained.models) == {
        SegmentType.UP_FROM_NULL, SegmentType.HI,
        SegmentType.DOWN_FROM_HI, SegmentType.NULL_HH,
    }
    zeros = bus.synthesize_stream(tx, [ReceiverLoad()], [0x00000000], seed=2)
    with pytest.raises(ValueError, match="no model"):
        det.classify_words(trained, segmentation.segment_stream(zeros))


def test_insufficient_segments_is_an_error():
    tx = TransmitterProfile()
    trace = bus.synthesize_stream(tx, [ReceiverLoad()], [0x5A5A5A5A] * 3, seed=3)
    with pytest.raises(ValueError, match="training segments"):
        det.train_detector(segmentation.segment_stream(trace), FeatureSet.GENERIC, 100)


def test_t_votes_range():
    with pytest.raises(ValueError, match="t_votes"):
        det.train_detector([], FeatureSet.RAW, t_votes=128)


def test_words_must_be_a_segment_table(trained, noisy_word_bank):
    _, bank = noisy_word_bank
    with pytest.raises(TypeError, match="must be a SegmentTable, got list$"):
        det.classify_words(trained, list(bank))
    with pytest.raises(TypeError, match="must be a SegmentTable, got list$"):
        det.train_detector(list(bank), FeatureSet.GENERIC, t_votes=100)


# ---------------------------------------------------------------------------
# suspicion counter


def test_counter_floor_at_zero():
    c = SuspicionCounter(t_suspicion=3)
    c = counter_step(c, False)
    assert c.value == 0 and not c.alarmed


def test_counter_alarm_after_three():
    c = SuspicionCounter(t_suspicion=3)
    for _ in range(3):
        c = counter_step(c, True)
    assert c.alarmed and c.value == 3


def test_counter_hand_trace():
    c = SuspicionCounter(t_suspicion=3)
    seen = []
    for label in (True, False, True, True, True):
        c = counter_step(c, label)
        seen.append(c.value)
    assert seen == [1, 0, 1, 2, 3]
    assert c.alarmed


def test_alarmed_is_absorbing():
    c = SuspicionCounter(t_suspicion=1)
    c = counter_step(c, True)
    assert c.alarmed
    after = counter_step(c, False)
    assert after == c


def test_counter_invariants():
    with pytest.raises(ValueError):
        SuspicionCounter(t_suspicion=0)
    with pytest.raises(ValueError):
        SuspicionCounter(t_suspicion=3, value=4)


def test_run_labels():
    c = SuspicionCounter(t_suspicion=3)
    assert det.run_labels(c, [False] * 50) is None
    assert det.run_labels(c, [True] * 10) == 3
    labels = [True, False, True, True, True]
    assert det.run_labels(c, labels) == 5


def _stepped_alarm(counter, labels):
    """Alarm index of a word-by-word counter_step loop, or None."""
    for i, is_anomaly in enumerate(labels, start=1):
        counter = counter_step(counter, bool(is_anomaly))
        if counter.alarmed:
            return i
    return None


def test_run_labels_matches_oracle():
    rng = np.random.default_rng(44)
    for _ in range(50):
        labels = (rng.random(60) < 0.5).tolist()
        t = int(rng.integers(1, 8))
        assert det.run_labels(SuspicionCounter(t_suspicion=t), labels) == (
            counter_walk_alarm(labels, t)
        )
    # a counter that already stands at a non-zero value starts its walk there
    for t in range(1, 8):
        for value in range(t):
            counter = SuspicionCounter(t_suspicion=t, value=value)
            for _ in range(10):
                labels = rng.random(int(rng.integers(0, 60))) < rng.random()
                assert det.run_labels(counter, labels) == _stepped_alarm(counter, labels)
                assert det.run_labels(counter, labels.tolist()) == _stepped_alarm(counter, labels)
            assert det.run_labels(counter, []) is None
    alarmed = SuspicionCounter(t_suspicion=3, value=3)
    for labels in ([False], [False, True, False], [True] * 5):
        assert det.run_labels(alarmed, labels) == 1 == _stepped_alarm(alarmed, labels)
    assert det.run_labels(alarmed, []) is None and _stepped_alarm(alarmed, []) is None
    # a threshold beyond the stream's reach allocates no level table
    assert det.run_labels(SuspicionCounter(t_suspicion=10**12, value=3), [True] * 5) is None


def test_first_passage_matches_oracle_at_every_level():
    rng = np.random.default_rng(45)
    for _ in range(40):
        reps, n = int(rng.integers(1, 10)), int(rng.integers(0, 150))
        max_level = int(rng.integers(1, 30))
        labels = rng.random((reps, n)) < rng.random()
        hits = det.first_passage(labels, max_level)
        assert hits.shape == (reps, max_level + 1) and hits.dtype == np.int64
        for r in range(reps):
            for level in range(max_level + 1):
                assert hits[r, level] == (counter_walk_alarm(labels[r], level) or 0)


def test_first_passage_memory_is_bounded():
    labels = np.random.default_rng(46).random((1000, 500)) < 0.5
    tracemalloc.start()
    try:
        det.first_passage(labels, 50)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # at most three (reps, n) temporaries, none wider than int32
    assert peak <= 3 * labels.size * np.dtype(np.int32).itemsize


def test_label_shapes_are_checked():
    with pytest.raises(ValueError, match="1-d"):
        det.run_labels(SuspicionCounter(t_suspicion=3), np.zeros((2, 5), dtype=bool))
    with pytest.raises(ValueError, match="matrix"):
        det.first_passage(np.zeros(5, dtype=bool), 3)


def test_counter_over_classified_stream(trained, noisy_word_bank):
    _, bank = noisy_word_bank
    counter = SuspicionCounter(t_suspicion=5)
    assert det.run_labels(counter, det.classify_words(trained, bank)[0]) is None

    rogue_tx = TransmitterProfile(hi_volts=10.9, lo_volts=-9.1, rise_time=2.2e-6)
    rogue = bus.synthesize_stream(
        rogue_tx, [ReceiverLoad()], list(DEFAULT_WORD_SET) * 3, seed=5
    )
    labels, _ = det.classify_words(trained, segmentation.segment_stream(rogue))
    alarm = det.run_labels(counter, labels)
    assert alarm == 5  # every rogue word anomalous: alarm exactly at t_suspicion


def test_detector_serialization_roundtrip(tmp_path, trained, noisy_word_bank):
    _, bank = noisy_word_bank
    path = tmp_path / "detector.json"
    det.save_detector(trained, path)
    back = det.load_detector(path)
    assert back.set_id == trained.set_id
    assert back.t_votes == trained.t_votes
    l1, v1 = det.classify_words(trained, bank[:5])
    l2, v2 = det.classify_words(back, bank[:5])
    assert np.array_equal(v1, v2) and np.array_equal(l1, l2)


def test_bundle_is_independent_of_the_search_tree(tmp_path, noisy_word_bank, monkeypatch):
    _, bank = noisy_word_bank
    fitted = det.train_detector(bank, FeatureSet.RAW, t_votes=100)
    assert any(m.tree is not None for m in fitted.models.values())
    assert any(m.tree is None for m in fitted.models.values())  # 17- and 20-d raw types
    with_tree = tmp_path / "with_tree.json"
    det.save_detector(fitted, with_tree)
    with monkeypatch.context() as patch:
        patch.setattr(lof, "_TREE_MAX_DIM", 0)  # every model on the dense path
        dense = det.train_detector(bank, FeatureSet.RAW, t_votes=100)
    assert all(m.tree is None for m in dense.models.values())
    without_tree = tmp_path / "without_tree.json"
    det.save_detector(dense, without_tree)
    assert with_tree.read_bytes() == without_tree.read_bytes()

    back = det.load_detector(with_tree)
    for seg_type, model in fitted.models.items():
        loaded = back.models[seg_type]
        assert (loaded.tree is None) == (model.tree is None)
        vecs = np.asarray([
            features.extract(FeatureSet.RAW, seg) for word in bank for seg in word
            if seg.seg_type == seg_type
        ])
        assert np.array_equal(lof.score(loaded, vecs), lof.score(model, vecs))


def _npz(**changes):
    """Bundle writer: the record with ``changes`` applied, saved by np.savez."""
    return lambda path, record: np.savez(path, **{**record, **changes})


def _excluded_model(path, record):
    # a handcrafted bundle holding only a NULL_LH model, a type that set skips
    kept = {key: value for key, value in record.items() if key.startswith("NULL_LH/")}
    np.savez(path, feature_set="handcrafted", t_votes=100, sample_interval=1e-7, **kept)


def _json_bundle(path, record):
    # the JSON text bundles that earlier versions wrote
    path.write_text(json.dumps({"feature_set": "generic", "t_votes": 100, "models": {}}))


_BAD_BUNDLES = {
    "t_votes above 127": ("field 't_votes' is 500", _npz(t_votes=500)),
    "t_votes negative": ("field 't_votes' is -1", _npz(t_votes=-1)),
    "sample_interval negative": ("field 'sample_interval' is -1.0", _npz(sample_interval=-1.0)),
    "sample_interval nan": ("field 'sample_interval' is nan", _npz(sample_interval=np.nan)),
    "sample_interval inf": ("field 'sample_interval' is inf", _npz(sample_interval=np.inf)),
    "generic relabelled raw": (
        r"field '\w+/train' has dimension 8; raw gives", _npz(feature_set="raw")
    ),
    "excluded type": (
        "field 'NULL_LH/train' has dimension 8; handcrafted gives NULL_LH segments no features",
        _excluded_model,
    ),
    "unknown type": ("unknown member 'BOGUS/k'", _npz(**{"BOGUS/k": 20})),
    "unknown field": ("unknown member 'HI/extra'", _npz(**{"HI/extra": 1.0})),
    "unknown header": ("unknown member 'comment'", _npz(comment="edited by hand")),
    "json text": ("is not a detector bundle", _json_bundle),
    "object array": (
        "allow_pickle=False", _npz(feature_set=np.array(["generic"], dtype=object))
    ),
}


@pytest.mark.parametrize("case", sorted(_BAD_BUNDLES))
def test_load_rejects_bad_bundle(tmp_path, trained, case):
    message, write = _BAD_BUNDLES[case]
    path = tmp_path / "bad.npz"
    write(path, det.detector_to_dict(trained))
    with pytest.raises(ValueError, match=message):
        det.load_detector(path)
