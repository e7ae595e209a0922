import math
import tracemalloc

import numpy as np
import pytest

from a429ids import bus, features, segmentation
from a429ids.bus import ReceiverLoad, TransmitterProfile
from a429ids.segmentation import MalformedSignal, SegmentType
from a429ids.words import DEFAULT_WORD_SET

from oracles import census, expected_segment_type_names
from test_bus import _plant_at_rises


def test_all_ones_census(clean_segment_bank):
    counts = census(clean_segment_bank[0xFFFFFFFF])
    assert counts == {
        SegmentType.UP_FROM_NULL: 32,
        SegmentType.HI: 32,
        SegmentType.DOWN_FROM_HI: 32,
        SegmentType.NULL_HH: 31,
    }
    assert sum(counts.values()) == 127


def test_all_zeros_census(clean_segment_bank):
    counts = census(clean_segment_bank[0x00000000])
    assert counts == {
        SegmentType.DOWN_FROM_NULL: 32,
        SegmentType.LO: 32,
        SegmentType.UP_FROM_LO: 32,
        SegmentType.NULL_LL: 31,
    }


def test_alternating_census(clean_segment_bank):
    counts = census(clean_segment_bank[0x55555555])
    assert counts[SegmentType.NULL_LH] == 16
    assert counts[SegmentType.NULL_HL] == 15
    for t in (SegmentType.HI, SegmentType.LO, SegmentType.UP_FROM_NULL,
              SegmentType.DOWN_FROM_NULL, SegmentType.DOWN_FROM_HI, SegmentType.UP_FROM_LO):
        assert counts[t] == 16


def test_every_clean_word_gives_127(clean_segment_bank):
    for segments in clean_segment_bank.values():
        assert len(segments) == 127


def test_type_grammar_matches_bit_pattern(clean_segment_bank):
    for value, segments in clean_segment_bank.items():
        assert [s.seg_type.value for s in segments] == expected_segment_type_names(value)


def test_random_words_grammar_and_count():
    rng = np.random.default_rng(12)
    values = [int(v) for v in rng.integers(0, 2**32, size=200)]
    trace = bus.synthesize_stream(TransmitterProfile(), [ReceiverLoad()], values, seed=13)
    for value, segments in zip(values, segmentation.segment_stream(trace)):
        assert [s.seg_type.value for s in segments] == expected_segment_type_names(value)


def test_segments_tile_the_word(clean_segment_bank):
    for segments in clean_segment_bank.values():
        for prev, cur in zip(segments, segments[1:]):
            assert cur.start_index == prev.start_index + len(prev.samples)
        assert all(len(s.samples) > 0 for s in segments)


def test_boundary_crossing_contract(clean_segment_bank):
    # spot-check the HI rule: starts strictly above V_H1, ends strictly
    # below V_H2, with the hysteresis sample just before each boundary
    v_h1, v_h2 = segmentation.V_H1, segmentation.V_H2
    trace = bus.synthesize_stream(
        TransmitterProfile(noise_sigma=0.0, timing_jitter=0.0), [], [0xFFFFFFFF], seed=0
    )
    segments = segmentation.segment_stream(trace)[0]
    x = trace.samples
    for seg in segments:
        if seg.seg_type is not SegmentType.HI:
            continue
        start, end = seg.start_index, seg.start_index + len(seg.samples)
        assert x[start] > v_h1 and x[start - 1] <= v_h1
        assert x[end] < v_h2 and x[end - 1] >= v_h2


def test_noise_robustness():
    tx = TransmitterProfile(noise_sigma=0.2)
    for seed in range(10):
        trace = bus.synthesize_stream(tx, [ReceiverLoad()], list(DEFAULT_WORD_SET), seed=seed)
        for value, segments in zip(DEFAULT_WORD_SET, segmentation.segment_stream(trace)):
            assert [s.seg_type.value for s in segments] == expected_segment_type_names(value)


def test_stream_of_six(clean_segment_bank):
    assert len(clean_segment_bank) == 6
    # built via segment_stream in the fixture; verify per-word lengths again
    assert all(len(v) == 127 for v in clean_segment_bank.values())


def test_empty_trace():
    trace = bus.synthesize_stream(TransmitterProfile(), [], [], seed=0)
    table = segmentation.segment_stream(trace)
    assert len(table) == 0 and list(table) == []
    assert table.types.shape == (0, 127)


def test_corrupted_middle_word_reports_index():
    tx = TransmitterProfile()
    trace = bus.synthesize_stream(tx, [], [0x5A5A5A5A] * 3, seed=2)
    # saturate the middle word half way through
    start = int(trace.word_starts[1])
    trace.samples[start + 400 : start + 1200] = 0.0
    with pytest.raises(MalformedSignal) as err:
        segmentation.segment_stream(trace)
    assert err.value.word_index == 1
    assert err.value.sample_index >= start


def test_saturated_signal_is_malformed():
    trace = bus.Trace(5e6, 1e5, np.full(36 * 50, 12.0), [0])
    with pytest.raises(MalformedSignal) as err:
        segmentation.segment_stream(trace)
    assert err.value.word_index == 0 and err.value.sample_index >= 0


def test_segment_type_enum():
    assert len(SegmentType) == 10


# ---------------------------------------------------------------------------
# the segment table against each word segmented alone


def _segment_word(trace, start):
    """The reference for the table's word at ``start``: ``segment_stream``
    on a trace cut to that word's window, in which it is the only word."""
    window = math.ceil(33 * trace.samples_per_bit)
    alone = bus.Trace(
        trace.sample_rate, trace.bit_rate, trace.samples[start : start + window], [0]
    )
    return segmentation.segment_stream(alone)


def _same_words(got, want):
    assert [s.seg_type for s in got] == [s.seg_type for s in want]
    assert [s.start_index for s in got] == [s.start_index for s in want]
    for a, b in zip(got, want):
        assert a.samples.dtype == b.samples.dtype and a.samples.tobytes() == b.samples.tobytes()


def test_table_words_equal_segment_word(noisy_trace):
    _, trace = noisy_trace
    table = segmentation.segment_stream(trace)
    assert isinstance(table, segmentation.SegmentTable)
    assert len(table) == len(trace.word_starts)
    assert table.samples is trace.samples  # columns over the trace, not a copy
    assert table.types.shape == table.starts.shape == table.lengths.shape == (len(table), 127)
    for wi, start in enumerate(trace.word_starts.tolist()):
        want = _segment_word(trace, start)[0]
        _same_words(table[wi], want)
        assert table.starts[wi].tolist() == [start + s.start_index for s in want]
        assert table.lengths[wi].tolist() == [len(s.samples) for s in want]
    # slices are tables over the same samples; indices count from either end
    part = table[3:7]
    assert isinstance(part, segmentation.SegmentTable) and len(part) == 4
    assert part.samples is trace.samples
    _same_words(part[0], table[3])
    _same_words(table[-1], table[len(table) - 1])
    with pytest.raises(IndexError):
        table[len(table)]


def test_crossing_on_a_words_first_sample_is_ignored():
    tx = TransmitterProfile(noise_sigma=0.0, timing_jitter=0.0)
    trace = bus.synthesize_stream(tx, [], [0xFFFFFFFF] * 3, seed=4)
    start = int(trace.word_starts[1])
    # the sample before the word is a quiet null, so the trace crosses
    # -v_l2 on the word's first sample; the word's own window starts there
    # and cannot see it. Were it parsed, the word would open a falling null
    # and never find the pulse that closes it.
    assert abs(trace.samples[start - 1]) < 1.0
    trace.samples[start] = -3.0
    table = segmentation.segment_stream(trace)
    _same_words(table[1], _segment_word(trace, start)[0])
    assert [s.seg_type.value for s in table[1]] == expected_segment_type_names(0xFFFFFFFF)


def test_last_word_window_past_the_end():
    tx = TransmitterProfile()
    full = bus.synthesize_stream(tx, [ReceiverLoad()], list(DEFAULT_WORD_SET), seed=9)
    last = int(full.word_starts[-1])
    # cut the trace a bit after the last pulse, short of the word's window
    end = last + int(32.5 * full.samples_per_bit)
    cut = bus.Trace(full.sample_rate, full.bit_rate, full.samples[:end].copy(), full.word_starts)
    assert last + math.ceil(33 * cut.samples_per_bit) > len(cut.samples)
    table = segmentation.segment_stream(cut)
    for wi, (value, start) in enumerate(zip(DEFAULT_WORD_SET, full.word_starts.tolist())):
        assert [s.seg_type.value for s in table[wi]] == expected_segment_type_names(value)
        _same_words(table[wi], _segment_word(cut, start)[0])
        _same_words(table[wi], _segment_word(full, start)[0])


def test_corrupted_middle_word_raises_as_segment_word():
    trace = bus.synthesize_stream(TransmitterProfile(), [], [0x5A5A5A5A] * 3, seed=2)
    start = int(trace.word_starts[1])
    trace.samples[start + 400 : start + 1200] = 0.0
    with pytest.raises(MalformedSignal) as want:
        _segment_word(trace, start)
    with pytest.raises(MalformedSignal) as got:
        segmentation.segment_stream(trace)
    # the cut trace counts words and samples from the word's start
    assert got.value.message == want.value.message
    assert got.value.sample_index == want.value.sample_index + start
    assert (got.value.word_index, want.value.word_index) == (1, 0)
    assert str(got.value) == f"{got.value.message} (word 1, sample {got.value.sample_index})"


def test_table_memory_per_segment():
    # the table holds an int8 type and an int32 start and length per segment
    # (9 B) beside the trace it references; a list of Segment objects with
    # copied samples held 303 B, and int64 starts and lengths 17 B
    values = [DEFAULT_WORD_SET[i % 6] for i in range(500)]
    trace = bus.synthesize_stream(TransmitterProfile(), [ReceiverLoad()], values, seed=5)
    # one small run first, so that first-call allocations are not counted
    segmentation.segment_stream(bus.synthesize_stream(TransmitterProfile(), [], [0x0], seed=0))
    tracemalloc.start()
    try:
        table = segmentation.segment_stream(trace)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(table) == 500
    assert table.types.dtype == np.int8
    assert table.starts.dtype == table.lengths.dtype == np.int32
    assert held / (500 * 127) < 10


@pytest.mark.parametrize("thresholds", [(), (-segmentation.V_H2,)])
def test_float32_samples_segment_as_their_float64_values(thresholds):
    """A float32 trace gives the table, segments and features of the same
    values held as float64, with and without samples planted at the given
    thresholds. Thresholds are compared in float64, so a sample equal to
    float32(-7.2) = -7.1999998 crosses -V_H2 = -7.2 where it lies; compared
    in float32, it would equal the threshold and not cross."""
    values = [DEFAULT_WORD_SET[i % 6] for i in range(24)]
    full = bus.synthesize_stream(TransmitterProfile(), [ReceiverLoad()], values, seed=12)
    samples = full.samples.astype(np.float32)
    for threshold in thresholds:
        assert _plant_at_rises(samples, threshold) > 0
    narrow = bus.Trace(full.sample_rate, full.bit_rate, samples, full.word_starts)
    wide = bus.Trace(full.sample_rate, full.bit_rate, samples.astype(np.float64), full.word_starts)
    assert narrow.samples.dtype == np.float32 and wide.samples.dtype == np.float64
    got = segmentation.segment_stream(narrow)
    want = segmentation.segment_stream(wide)
    for name in ("word_starts", "types", "starts", "lengths"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
    if thresholds:
        # each planted sample opens the rise out of a LO plateau: the
        # crossing fires on it
        hits = np.flatnonzero(samples == np.float32(-segmentation.V_H2))
        up_starts = got.starts[got.types == segmentation.TYPE_CODES[SegmentType.UP_FROM_LO]]
        assert np.isin(hits, up_starts).all()
    for wi in range(len(got)):
        _same_words(got[wi], want[wi])  # float64 samples, equal bytes
    for set_id in features.FeatureSet:
        a = features.extract_batch(set_id, got, dt=1.0 / full.sample_rate)
        b = features.extract_batch(set_id, want, dt=1.0 / full.sample_rate)
        assert a.keys() == b.keys()
        for key in a:
            assert np.array_equal(a[key][0], b[key][0])
            assert a[key][1].dtype == b[key][1].dtype == np.float64
            assert a[key][1].tobytes() == b[key][1].tobytes()
