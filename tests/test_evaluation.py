import json
import re
import tracemalloc

import numpy as np
import pytest

from a429ids import evaluation as ev
from a429ids.bus import ReceiverLoad, TransmitterProfile
from a429ids.features import FeatureSet
from a429ids.words import DEFAULT_WORD_SET

from conftest import write_scenario
from oracles import eer_bisect


def _scenario(rogue_tx=None, seed=50, **kwargs):
    guarded = ev.BusSetup(tx=TransmitterProfile(), loads=(ReceiverLoad(cutoff_freq=1.2e6),))
    rogue = ev.BusSetup(
        tx=rogue_tx if rogue_tx is not None else TransmitterProfile(),
        loads=(ReceiverLoad(cutoff_freq=1.2e6),),
    )
    return ev.Scenario(
        guarded=guarded, rogues=(rogue,), attack_kind="tx_switch",
        words_per_device=500, seed=seed, **kwargs,
    )


SEPARATED_TX = TransmitterProfile(
    hi_volts=10.4, lo_volts=-10.4, rise_time=1.85e-6, fall_time=1.85e-6,
    overshoot_frac=0.10,
)


@pytest.fixture(scope="module")
def separated_report():
    scenario = _scenario(rogue_tx=SEPARATED_TX, seed=51)
    return ev.build_report(
        scenario, FeatureSet.GENERIC, reps=200, t_suspicion_grid=range(1, 31)
    )


# ---------------------------------------------------------------------------
# EER and FA/sec arithmetic (no synthesis needed)


def test_fa_per_sec_values():
    assert ev.fa_per_sec(0.0012) == pytest.approx(3.33, abs=0.01)
    assert ev.fa_per_sec(0.0032) == pytest.approx(8.89, abs=0.01)
    assert ev.fa_per_sec(0.0) == 0.0
    with pytest.raises(ValueError):
        ev.fa_per_sec(1.5)


def test_eer_symmetric_crossing():
    curves = ev.ErrorCurves(far=np.array([0.0, 0.5]), mdr=np.array([0.5, 0.0]))
    assert ev.compute_eer(curves) == pytest.approx(0.25)


def test_eer_zero_plateau():
    far = np.array([0.0, 0.0, 0.0, 0.4, 1.0])
    mdr = np.array([0.9, 0.0, 0.0, 0.0, 0.0])
    assert ev.compute_eer(ev.ErrorCurves(far=far, mdr=mdr)) == 0.0


def test_eer_matches_bisection_oracle():
    rng = np.random.default_rng(60)
    for _ in range(50):
        far = np.sort(rng.uniform(0, 1, size=128))
        mdr = np.sort(rng.uniform(0, 1, size=128))[::-1].copy()
        far[0], mdr[-1] = 0.0, 0.0
        got = ev.compute_eer(ev.ErrorCurves(far=far, mdr=mdr))
        want = eer_bisect(far, mdr)
        assert got == pytest.approx(want, abs=1e-9)


# ---------------------------------------------------------------------------
# label-level protocol helpers


def test_counter_far_degenerate_threshold():
    rng = np.random.default_rng(61)
    labels = rng.random(400) < 0.01
    out = ev._counter_far_from_labels(labels, 500, range(1, 11), np.random.default_rng(5))
    # t_suspicion = 1 alarms iff the stream contains any anomaly at all
    expected = 1.0 if labels.any() else 0.0
    assert out[1] == expected
    values = [out[t] for t in range(1, 11)]
    assert all(a >= b for a, b in zip(values, values[1:]))


def test_counter_far_all_normal():
    labels = np.zeros(300, dtype=bool)
    out = ev._counter_far_from_labels(labels, 100, range(1, 6), np.random.default_rng(6))
    assert all(v == 0.0 for v in out.values())


def test_detection_time_perfect_detector():
    labels = np.ones(200, dtype=bool)
    out = ev._detection_time_from_labels(
        [labels], 50, range(1, 8), np.random.default_rng(7), 610.0
    )
    for ts, stat in out.items():
        assert stat.max_words == ts and stat.mean_words == ts  # lower bound attained
        assert stat.censored == 0
        assert stat.max_seconds == pytest.approx(ts / 610.0)


def test_detection_time_censoring_reported():
    labels = np.zeros(100, dtype=bool)
    out = ev._detection_time_from_labels(
        [labels], 20, [3], np.random.default_rng(8), 610.0
    )
    stat = out[3]
    assert stat.censored == 20 and stat.max_words is None and stat.mean_words is None


def test_protocol_tables_stop_at_the_stream_length():
    # no counter climbs above the stream length, so levels beyond it must not
    # be tabled: (1000, 200) labels at max_level 5000 peaked at 45.9 MB when
    # they were, against 2.0 MB at max_level 50
    labels = np.random.default_rng(62).random(200) < 0.55
    tracemalloc.start()
    try:
        far = ev._counter_far_from_labels(labels, 1000, range(1, 5001), np.random.default_rng(11))
        times = ev._detection_time_from_labels(
            [labels], 1000, range(1, 5001), np.random.default_rng(12), 610.0
        )
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 10e6
    # the reachable levels read as with a grid that stops at the stream length
    short_far = ev._counter_far_from_labels(labels, 1000, range(1, 201), np.random.default_rng(11))
    short_times = ev._detection_time_from_labels(
        [labels], 1000, range(1, 201), np.random.default_rng(12), 610.0
    )
    assert [far[ts] for ts in range(1, 201)] == [short_far[ts] for ts in range(1, 201)]
    assert [times[ts] for ts in range(1, 201)] == [short_times[ts] for ts in range(1, 201)]
    assert 0.0 < far[10] < 1.0 and 0 < times[10].censored < 1000
    for ts in (201, 5000):
        assert far[ts] == 0.0
        assert times[ts] == ev.DetectionTimeStat(None, None, censored=1000, reps=1000)


def test_detection_time_non_decreasing_in_threshold():
    rng = np.random.default_rng(9)
    labels = rng.random(5000) < 0.7
    out = ev._detection_time_from_labels(
        [labels], 300, range(1, 12), np.random.default_rng(10), 610.0
    )
    means = [out[t].mean_words for t in range(1, 12)]
    assert all(a <= b for a, b in zip(means, means[1:]))
    for t in range(1, 12):
        assert out[t].mean_words >= t  # transmission lower bound


def test_detection_time_mean_matches_chain_analysis():
    # i.i.d. per-word detection probability p: the empirical mean
    # words-to-alarm must sit within 3 standard errors of the exact
    # mean absorption time of the counter chain
    p, t_suspicion = 0.7, 5
    rng = np.random.default_rng(11)
    labels = rng.random(20000) < p
    out = ev._detection_time_from_labels(
        [labels], 1000, [t_suspicion], np.random.default_rng(12), 610.0
    )
    stat = out[t_suspicion]
    assert stat.censored == 0
    # climb-one-level expected times: h_0 = 1/p, h_i = 1/p + (q/p) h_{i-1}
    h, expected = 1.0 / p, 0.0
    for _ in range(t_suspicion):
        expected += h
        h = 1.0 / p + (1.0 - p) / p * h
    # empirical spread of the same walk, for the tolerance
    hits = []
    for _ in range(2000):
        value = steps = 0
        while value < t_suspicion:
            steps += 1
            value = value + 1 if rng.random() < p else max(value - 1, 0)
        hits.append(steps)
    tol = 3.0 * np.std(hits) / np.sqrt(stat.reps)
    assert abs(stat.mean_words - expected) <= tol


# ---------------------------------------------------------------------------
# full-pipeline scenarios


def test_indistinguishable_rogue_gives_chance_eer():
    scenario = _scenario(rogue_tx=None, seed=52)  # rogue profile == guarded
    eer = ev.build_report(scenario, FeatureSet.GENERIC).eer
    assert 0.35 <= eer <= 0.65


def test_separated_scenario_report(separated_report):
    report = separated_report
    assert report.eer == 0.0
    assert report.fa_per_sec == 0.0
    far, mdr = report.curves.far, report.curves.mdr
    assert np.all(np.diff(far) >= 0) and np.all(np.diff(mdr) <= 0)
    assert far[127] == 1.0 and mdr[127] == 0.0
    # counter stays silent on normal data and trips fast on rogue data
    assert all(v == 0.0 for v in report.counter_far.values())
    assert report.detection_time[20].max_words <= 30
    assert report.detection_time[20].censored == 0


def test_report_serialization(separated_report, tmp_path):
    path = tmp_path / "report.json"
    ev.save_report(separated_report, path)
    record = json.loads(path.read_text())
    assert record["eer"] == 0.0
    assert len(record["curves"]["far"]) == 128
    assert record["detection_time"]["20"]["max_words"] <= 30


def test_report_reproducibility():
    scenario = _scenario(rogue_tx=SEPARATED_TX, seed=53)
    a = ev.build_report(scenario, FeatureSet.GENERIC, reps=50, t_suspicion_grid=range(1, 11))
    b = ev.build_report(scenario, FeatureSet.GENERIC, reps=50, t_suspicion_grid=range(1, 11))
    assert json.dumps(ev.report_to_dict(a), sort_keys=True) == json.dumps(
        ev.report_to_dict(b), sort_keys=True
    )


# ---------------------------------------------------------------------------
# scenario plumbing


def test_scenario_census_default():
    scenario = ev.Scenario(guarded=_scenario().guarded, rogues=_scenario().rogues)
    assert scenario.words_per_device == 4920
    assert len(ev._word_list(scenario)) == 4920
    assert scenario.words == (0x0, 0xFFFFFFFF, 0x55555555, 0xAAAAAAAA, 0x5A5A5A5A, 0xA5A5A5A5)


def test_scenario_validation():
    good = _scenario()
    good.validate()
    with pytest.raises(ValueError):
        ev.Scenario(guarded=good.guarded, rogues=(), words_per_device=500).validate()
    with pytest.raises(ValueError):
        ev.Scenario(guarded=good.guarded, rogues=good.rogues, words_per_device=100).validate()
    with pytest.raises(ValueError):
        ev.Scenario(
            guarded=good.guarded, rogues=good.rogues,
            words_per_device=500, attack_kind="nonsense",
        ).validate()
    with pytest.raises(ValueError, match=re.escape("seed must be >= 0, got -3")):
        _scenario(seed=-3).validate()


def test_scenario_json_roundtrip(tmp_path):
    scenario = _scenario(rogue_tx=SEPARATED_TX, seed=54)
    path = write_scenario(scenario, tmp_path / "scenario.json")
    assert ev.load_scenario(path) == scenario
    # a scenario without "words" sends the default word set
    record = json.loads(path.read_text())
    del record["words"]
    assert ev.scenario_from_dict(record).words == DEFAULT_WORD_SET


def test_scenario_rejects_unknown_keys(tmp_path):
    path = write_scenario(_scenario(), tmp_path / "scenario.json")
    record = json.loads(path.read_text())
    record["typo_key"] = 1
    with pytest.raises(ValueError, match="unknown scenario"):
        ev.scenario_from_dict(record)
    record = json.loads(path.read_text())
    record["guarded"]["tx"]["bogus_field"] = 2.0
    with pytest.raises(ValueError, match="unknown"):
        ev.scenario_from_dict(record)


def test_rogue_variant_helpers():
    setup = ev.BusSetup(tx=TransmitterProfile(), loads=(ReceiverLoad(cutoff_freq=2e6),))
    switched = ev.rx_switch_variant(setup, cutoff_factor=0.5, gain_factor=0.99)
    assert switched.loads[0].cutoff_freq == pytest.approx(1e6)
    assert switched.loads[0].gain == pytest.approx(0.99)
    assert switched.tx == setup.tx
    added = ev.rx_addition_variant(setup)
    assert len(added.loads) == 2
    assert added.loads[0] == setup.loads[0]


@pytest.mark.parametrize("kwargs, message", [
    ({"reps": 0}, "reps must be >= 1, got 0"),
    ({"reps": -1}, "reps must be >= 1, got -1"),
    ({"t_suspicion_grid": []}, "t_suspicion_grid is empty"),
    ({"t_suspicion_grid": range(0, 5)}, "t_suspicion_grid values must be >= 1, got 0"),
    ({"test_words": 0}, "test_words must be >= 1, got 0"),
    ({"test_words": -5}, "test_words must be >= 1, got -5"),
    ({"test_words": 201}, "test set has 200 words, need 201"),
    ({"test_words": 1968}, "test set has 200 words, need 1968"),
    ({"words_per_s": 0.0}, "words_per_s must be finite and > 0, got 0.0"),
    ({"words_per_s": -1.0}, "words_per_s must be finite and > 0, got -1.0"),
    ({"words_per_s": float("nan")}, "words_per_s must be finite and > 0, got nan"),
    ({"words_per_s": float("inf")}, "words_per_s must be finite and > 0, got inf"),
    ({"t_votes": -1}, "t_votes must be in [0, 127], got -1"),
    ({"t_votes": 128}, "t_votes must be in [0, 127], got 128"),
    ({"k": 0}, "k must be >= 1, got 0"),
    ({"contamination": 0.0}, "contamination must be in (0, 1), got 0.0"),
    ({"contamination": 1.0}, "contamination must be in (0, 1), got 1.0"),
    ({"contamination": float("nan")}, "contamination must be in (0, 1), got nan"),
])
def test_build_report_checks_arguments_before_synthesis(kwargs, message, monkeypatch):
    def no_synthesis(*args, **kwargs):
        raise AssertionError("synthesis started before the arguments were checked")

    monkeypatch.setattr(ev.bus, "synthesize_stream", no_synthesis)
    with pytest.raises(ValueError, match=re.escape(message)):
        ev.build_report(_scenario(), FeatureSet.GENERIC, **kwargs)


def test_protocols_are_fields_of_one_report(monkeypatch):
    # _prepare's votes depend on its arguments other than t_votes, which only
    # sets the labels drawn from them later; one real pass serves every call
    scenario = _scenario(rogue_tx=None, seed=52)
    real_prepare, passes = ev._prepare, []

    def prepare_once(*args):
        key = args[:2] + args[3:]  # everything but t_votes
        if not passes:
            passes.append((key, real_prepare(*args)))
        assert key == passes[0][0]
        return passes[0][1]

    monkeypatch.setattr(ev, "_prepare", prepare_once)
    protocol = dict(t_votes=114, reps=100, t_suspicion_grid=range(1, 71))
    report = ev.build_report(
        scenario, FeatureSet.GENERIC, test_words=150, words_per_s=500.0, **protocol
    )
    # non-trivial fields: a counter FAR strictly between 0 and 1, and
    # detection times observed, partly censored and wholly censored
    assert any(0.0 < v < 1.0 for v in report.counter_far.values())
    assert report.detection_time[1].censored == 0
    assert 0 < report.detection_time[60].censored < 100
    assert report.detection_time[70].mean_words is None
