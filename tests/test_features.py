import numpy as np
import pytest

from a429ids import features
from a429ids.features import (
    DEFAULT_SAMPLE_INTERVAL,
    FeatureSet,
    POLY_DEGREES,
    RAW_LENGTHS,
    SegmentTooShort,
    extract,
    extract_batch,
    feature_length,
)
from a429ids.segmentation import Segment, SegmentType, TRANSITION_TYPES

from conftest import segment_batch
from oracles import naive_generic, normal_equations_polyfit


def _seg(seg_type, samples, start=0):
    return Segment(seg_type, np.asarray(samples, dtype=float), start)


# ---------------------------------------------------------------------------
# raw


def test_raw_truncates_hi_to_20():
    seg = _seg(SegmentType.HI, np.linspace(9.0, 10.0, 23))
    out = extract(FeatureSet.RAW, seg)
    assert len(out) == 20
    assert np.array_equal(out, seg.samples[:20])


def test_raw_exact_length_identity():
    seg = _seg(SegmentType.NULL_HH, np.arange(17.0))
    assert np.array_equal(extract(FeatureSet.RAW, seg), seg.samples)


def test_raw_transition_takes_first_4():
    seg = _seg(SegmentType.UP_FROM_LO, [-7.0, -6.0, -5.0, -4.0, -3.0, -2.5])
    assert np.array_equal(extract(FeatureSet.RAW, seg), [-7.0, -6.0, -5.0, -4.0])


def test_raw_too_short():
    with pytest.raises(SegmentTooShort):
        extract(FeatureSet.RAW, _seg(SegmentType.HI, np.ones(19)))


def test_raw_is_prefix(noisy_word_bank):
    _, bank = noisy_word_bank
    for seg in bank[0]:
        out = extract(FeatureSet.RAW, seg)
        assert np.array_equal(out, seg.samples[: len(out)])


# ---------------------------------------------------------------------------
# generic


def test_generic_constant_segment():
    out = extract(FeatureSet.GENERIC, _seg(SegmentType.HI, [5.0, 5.0, 5.0, 5.0]))
    assert np.allclose(out, [5.0, 0.0, 0.0, 0.0, 0.0, 5.0, 5.0, 25.0], atol=1e-15)


def test_generic_alternating_segment():
    out = extract(FeatureSet.GENERIC, _seg(SegmentType.HI, [1.0, -1.0, 1.0, -1.0]))
    assert np.allclose(out, [0.0, 1.0, 1.0, 0.0, 1.0, 1.0, 1.0, 1.0], atol=1e-15)


def test_generic_identities():
    rng = np.random.default_rng(21)
    for _ in range(20):
        x = rng.normal(size=rng.integers(2, 30))
        mu, sd, var, skew, kurt, rms, mx, en = extract(
            FeatureSet.GENERIC, _seg(SegmentType.LO, x)
        )
        assert en == pytest.approx(rms**2, rel=1e-12)
        assert var == pytest.approx(sd * sd, rel=1e-12)
        assert mx == x.max()


def test_generic_matches_naive_oracle(noisy_word_bank):
    _, bank = noisy_word_bank
    for seg in bank[3]:
        got = extract(FeatureSet.GENERIC, seg)
        want = naive_generic(seg.samples)
        assert np.allclose(got, want, rtol=1e-12, atol=1e-12)


def test_generic_too_short():
    with pytest.raises(SegmentTooShort):
        extract(FeatureSet.GENERIC, _seg(SegmentType.HI, [1.0]))


# ---------------------------------------------------------------------------
# polynomial


def test_polynomial_recovers_parabola():
    t = np.linspace(0.0, 1.0, 6)
    seg = _seg(SegmentType.UP_FROM_NULL, t**2)
    out = extract(FeatureSet.POLYNOMIAL, seg)
    assert len(out) == 4  # 3 coefficients + residual
    assert np.allclose(out[:3], [0.0, 0.0, 1.0], atol=1e-9)
    assert out[3] < 1e-12


def test_polynomial_constant():
    seg = _seg(SegmentType.HI, np.full(21, 5.0))
    out = extract(FeatureSet.POLYNOMIAL, seg)
    assert np.allclose(out[:-1], [5.0] + [0.0] * 7, atol=1e-8)
    assert out[-1] < 1e-12


@pytest.mark.parametrize(
    "seg_type,degree",
    [
        (SegmentType.UP_FROM_LO, 2),
        (SegmentType.NULL_HH, 6),
        (SegmentType.NULL_LL, 6),
        (SegmentType.HI, 7),
        (SegmentType.NULL_HL, 7),
    ],
)
def test_polynomial_exactness_per_type(seg_type, degree):
    rng = np.random.default_rng(degree)
    n = max(degree + 2, 12)
    t = np.linspace(0.0, 1.0, n)
    coef = rng.uniform(-2, 2, size=degree + 1)
    y = sum(c * t**j for j, c in enumerate(coef))
    out = extract(FeatureSet.POLYNOMIAL, _seg(seg_type, y))
    assert len(out) == degree + 2
    assert np.allclose(out[:-1], coef, atol=1e-9)
    assert out[-1] < 1e-12


def test_polynomial_residual_matches_normal_equations():
    rng = np.random.default_rng(33)
    y = 10.0 + 0.3 * rng.normal(size=21)
    out = extract(FeatureSet.POLYNOMIAL, _seg(SegmentType.HI, y))
    _, want_resid = normal_equations_polyfit(y, 7)
    assert out[-1] == pytest.approx(want_resid, rel=1e-9)


def test_polynomial_underdetermined():
    with pytest.raises(SegmentTooShort):
        # 2 points, degree 2
        extract(FeatureSet.POLYNOMIAL, _seg(SegmentType.UP_FROM_LO, [1.0, 2.0]))


# ---------------------------------------------------------------------------
# hand-crafted


def test_handcrafted_scripted_ripple():
    dt = 2e-7
    samples = [9.0, 11.0, 10.6, 9.4, 9.8, 10.2, 10.0, 10.05, 10.0, 10.0]
    out = extract(FeatureSet.HANDCRAFTED, _seg(SegmentType.HI, samples), dt=dt)
    t1, v1, t2, v2, t3, v3, dt21, dv21, dt31, dv31 = out
    assert (t1, v1) == (pytest.approx(1 * dt), 11.0)
    assert (t2, v2) == (pytest.approx(3 * dt), 9.4)
    assert (t3, v3) == (pytest.approx(5 * dt), 10.2)
    assert dt21 == pytest.approx(2 * dt) and dv21 == pytest.approx(-1.6)
    assert dt31 == pytest.approx(4 * dt) and dv31 == pytest.approx(-0.8)


def test_handcrafted_lo_is_mirror():
    dt = 2e-7
    hi_samples = np.array([9.0, 11.0, 10.6, 9.4, 9.8, 10.2, 10.0, 10.0])
    lo_out = extract(FeatureSet.HANDCRAFTED, _seg(SegmentType.LO, -hi_samples), dt=dt)
    hi_out = extract(FeatureSet.HANDCRAFTED, _seg(SegmentType.HI, hi_samples), dt=dt)
    assert np.allclose(lo_out[0::2][:3], hi_out[0::2][:3])  # same times
    assert np.allclose(lo_out[1::2][:3], -hi_out[1::2][:3])  # mirrored voltages


def test_handcrafted_linear_transition():
    dt = 2e-7
    seg = _seg(SegmentType.UP_FROM_NULL, np.linspace(2.8, 8.0, 4))
    slope, chord_dev = extract(FeatureSet.HANDCRAFTED, seg, dt=dt)
    assert slope == pytest.approx((8.0 - 2.8) / (3 * dt), rel=1e-12)
    assert chord_dev == pytest.approx(0.0, abs=1e-12)


def test_handcrafted_monotone_fallback():
    dt = 2e-7
    seg = _seg(SegmentType.HI, np.linspace(9.0, 10.0, 12))
    out = extract(FeatureSet.HANDCRAFTED, seg, dt=dt)
    # no interior extremum: the global maximum stands in for all three points
    assert out[0] == pytest.approx(11 * dt) and out[1] == 10.0
    assert np.allclose(out[6:], 0.0)


def test_handcrafted_plateau_takes_first_index():
    dt = 1.0
    seg = _seg(SegmentType.HI, [9.0, 11.0, 11.0, 9.5, 10.0, 9.8, 9.0])
    out = extract(FeatureSet.HANDCRAFTED, seg, dt=dt)
    assert out[0] == 1.0 and out[1] == 11.0
    assert out[2] == 3.0 and out[3] == 9.5


def test_handcrafted_null_types(clean_segment_bank):
    hh = [s for s in clean_segment_bank[0xFFFFFFFF] if s.seg_type is SegmentType.NULL_HH]
    out = extract(FeatureSet.HANDCRAFTED, hh[3])
    assert len(out) == 2
    assert out[1] < 0.0  # the smile dips below the null level
    ll = [s for s in clean_segment_bank[0x00000000] if s.seg_type is SegmentType.NULL_LL]
    out = extract(FeatureSet.HANDCRAFTED, ll[3])
    assert out[1] > 0.0  # the frown peaks above it


def test_handcrafted_excluded_types():
    seg = _seg(SegmentType.NULL_LH, np.zeros(17))
    assert extract(FeatureSet.HANDCRAFTED, seg) is None
    assert extract(FeatureSet.HANDCRAFTED, _seg(SegmentType.NULL_HL, np.zeros(17))) is None


# ---------------------------------------------------------------------------
# dispatch and dimensions


def test_dispatch_lengths(clean_segment_bank):
    hi = next(s for s in clean_segment_bank[0xFFFFFFFF] if s.seg_type is SegmentType.HI)
    assert len(extract(FeatureSet.RAW, hi)) == 20
    assert len(extract(FeatureSet.GENERIC, hi)) == 8
    assert len(extract(FeatureSet.POLYNOMIAL, hi)) == 9
    assert len(extract(FeatureSet.HANDCRAFTED, hi)) == 10


def test_feature_length_table():
    assert feature_length(FeatureSet.RAW, SegmentType.HI) == 20
    assert feature_length(FeatureSet.RAW, SegmentType.NULL_LH) == 17
    assert feature_length(FeatureSet.RAW, SegmentType.DOWN_FROM_NULL) == 4
    assert all(feature_length(FeatureSet.GENERIC, t) == 8 for t in SegmentType)
    assert feature_length(FeatureSet.POLYNOMIAL, SegmentType.UP_FROM_LO) == 4
    assert feature_length(FeatureSet.POLYNOMIAL, SegmentType.NULL_HH) == 8
    assert feature_length(FeatureSet.POLYNOMIAL, SegmentType.NULL_HL) == 9
    assert feature_length(FeatureSet.HANDCRAFTED, SegmentType.LO) == 10
    assert feature_length(FeatureSet.HANDCRAFTED, SegmentType.NULL_HH) == 2
    assert feature_length(FeatureSet.HANDCRAFTED, SegmentType.NULL_LH) is None


def test_dimensional_consistency(noisy_word_bank):
    _, bank = noisy_word_bank
    seen: dict[tuple, set] = {}
    for word in bank:
        for seg in word:
            for set_id in FeatureSet:
                vec = extract(set_id, seg)
                if vec is None:
                    continue
                assert np.all(np.isfinite(vec))
                seen.setdefault((set_id, seg.seg_type), set()).add(len(vec))
    for (set_id, seg_type), lengths in seen.items():
        assert lengths == {feature_length(set_id, seg_type)}


# ---------------------------------------------------------------------------
# batch kernels against per-segment references, to the bit


def _ref_raw(seg, dt):
    return np.asarray(seg.samples, dtype=np.float64)[: RAW_LENGTHS[seg.seg_type]].copy()


def _ref_generic(seg, dt):
    x = np.asarray(seg.samples, dtype=np.float64)
    mu = x.mean()
    var = np.mean((x - mu) ** 2)
    sd = np.sqrt(var)
    if sd > 0.0:
        z = (x - mu) / sd
        skew = np.mean(z**3)
        kurt = np.mean(z**4)
    else:
        skew = 0.0
        kurt = 0.0
    mean_sq = np.mean(x**2)
    return np.array([mu, sd, var, skew, kurt, np.sqrt(mean_sq), x.max(), mean_sq])


def _ref_polynomial(seg):
    """Per-segment ``np.linalg.lstsq``: the reference within a tolerance."""
    x = np.asarray(seg.samples, dtype=np.float64)
    t = np.linspace(0.0, 1.0, len(x))
    vand = np.vander(t, POLY_DEGREES[seg.seg_type] + 1, increasing=True)
    coef, *_ = np.linalg.lstsq(vand, x, rcond=None)
    return np.append(coef, float(np.sum((vand @ coef - x) ** 2)))


def _ref_handcrafted(seg, dt):
    x = np.asarray(seg.samples, dtype=np.float64)
    if seg.seg_type in features.HANDCRAFTED_EXCLUDED:
        return None
    if seg.seg_type in TRANSITION_TYPES:
        slope = np.mean(np.diff(x)) / dt
        chord = np.linspace(x[0], x[-1], len(x))
        return np.array([slope, np.mean(x - chord)])
    if seg.seg_type is SegmentType.HI:
        return features._landmarks(x, dt, +1)
    if seg.seg_type is SegmentType.LO:
        return features._landmarks(x, dt, -1)
    sign = -1 if seg.seg_type is SegmentType.NULL_HH else +1
    idx = features._next_extremum(x, 1, sign)
    if idx is None:
        idx = int(np.argmin(x)) if sign < 0 else int(np.argmax(x))
    return np.array([idx * dt, x[idx]])


_REFERENCES = {
    FeatureSet.RAW: _ref_raw,
    FeatureSet.GENERIC: _ref_generic,
    # a batch of one: a row's bits do not depend on its group
    FeatureSet.POLYNOMIAL: lambda seg, dt: extract(FeatureSet.POLYNOMIAL, seg),
    FeatureSet.HANDCRAFTED: _ref_handcrafted,
}


def _same_bits(got, want):
    want = np.asarray(want)
    return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.fixture(scope="module")
def shuffled_segments(noisy_word_bank):
    """The noisy bank's segments in a fixed random order, so that segments
    of one type and length are scattered among the others."""
    _, bank = noisy_word_bank
    segments = [seg for word in bank for seg in word]
    order = np.random.default_rng(5).permutation(len(segments))
    return [segments[i] for i in order]


def test_batch_bank_covers_every_type_in_several_lengths(shuffled_segments):
    lengths: dict[SegmentType, set] = {}
    for seg in shuffled_segments:
        lengths.setdefault(seg.seg_type, set()).add(len(seg.samples))
    assert set(lengths) == set(SegmentType)
    assert sum(len(v) for v in lengths.values()) > 2 * len(SegmentType)


@pytest.mark.parametrize("set_id", list(FeatureSet), ids=lambda s: s.value)
@pytest.mark.parametrize("dt", [DEFAULT_SAMPLE_INTERVAL, 1.0 / 3.0])
def test_batch_matches_per_segment_reference_bitwise(shuffled_segments, set_id, dt):
    reference = _REFERENCES[set_id]
    out = extract_batch(set_id, segment_batch(shuffled_segments), dt=dt)
    want_order = []
    for seg in shuffled_segments:
        if feature_length(set_id, seg.seg_type) and seg.seg_type not in want_order:
            want_order.append(seg.seg_type)
    assert list(out) == want_order  # types in the order of their first segment
    for seg_type, (positions, matrix) in out.items():
        # rows of a type come back in input order
        want_pos = [i for i, seg in enumerate(shuffled_segments) if seg.seg_type is seg_type]
        assert positions.tolist() == want_pos
        assert matrix.dtype == np.float64 and matrix.flags.c_contiguous
        want = np.array([reference(shuffled_segments[i], dt) for i in want_pos])
        assert _same_bits(matrix, want), seg_type
        # the public per-segment functions give the same rows
        for i, row in zip(want_pos[:5], matrix):
            assert _same_bits(extract(set_id, shuffled_segments[i], dt=dt), row)


def test_batch_polynomial_matches_lstsq_within_tolerance(shuffled_segments):
    # the bank's groups, and a group of degree + 1 samples for each type,
    # where the fit interpolates and the residual is rounding alone
    rng = np.random.default_rng(7)
    square = [
        _seg(seg_type, 5.0 * rng.normal(size=(POLY_DEGREES[seg_type] + 1)))
        for seg_type in SegmentType for _ in range(3)
    ]
    segments = shuffled_segments + square
    out = extract_batch(FeatureSet.POLYNOMIAL, segment_batch(segments))
    for positions, matrix in out.values():
        want = np.array([_ref_polynomial(segments[i]) for i in positions])
        coef_err = np.abs(matrix[:, :-1] - want[:, :-1]).max(axis=1)
        assert np.all(coef_err <= 1e-9 * np.abs(want[:, :-1]).max(axis=1))
        energy = np.array([np.sum(segments[i].samples ** 2) for i in positions])
        assert np.all(np.abs(matrix[:, -1] - want[:, -1]) <= 1e-9 * energy)


def test_batch_handcrafted_transition_with_flat_chord():
    # a zero chord step in one row must not change the other rows' chords;
    # these endpoints give a chord that np.linspace draws differently when
    # another row of the same call has a zero step
    dt = 2e-7
    rising = np.linspace(2.6888506996347092, 7.832778819148955, 10)
    rising[1:-1] += 0.05 * np.sin(np.arange(1.0, 9.0))
    segs = [
        _seg(SegmentType.UP_FROM_NULL, rising),
        _seg(SegmentType.UP_FROM_NULL, [3.0, 4.0, 6.0, 7.0, 7.5, 7.0, 6.0, 5.0, 4.0, 3.0]),
        _seg(SegmentType.UP_FROM_NULL, rising[::-1]),
    ]
    out = extract_batch(FeatureSet.HANDCRAFTED, segment_batch(segs), dt=dt)
    (positions, matrix), = out.values()
    assert positions.tolist() == [0, 1, 2]
    assert _same_bits(matrix, np.array([_ref_handcrafted(s, dt) for s in segs]))


def test_batch_of_nothing_and_excluded_only():
    assert extract_batch(FeatureSet.POLYNOMIAL, segment_batch([])) == {}
    excluded = segment_batch([_seg(SegmentType.NULL_LH, np.zeros(17))])
    assert extract_batch(FeatureSet.HANDCRAFTED, excluded) == {}
    with pytest.raises(ValueError, match="unknown feature set"):
        extract_batch("raw", segment_batch([]))


def test_batch_takes_a_segment_table_only(monkeypatch):
    segments = [_seg(SegmentType.HI, np.linspace(9.0, 10.0, 22))] * 3

    def no_kernel(*args):
        raise AssertionError("a kernel ran before the input was checked")

    monkeypatch.setattr(features, "_group_rows", no_kernel)
    with pytest.raises(TypeError, match="must be a SegmentTable, got list$"):
        extract_batch(FeatureSet.RAW, segments)
    with pytest.raises(TypeError, match="must be a SegmentTable, got list$"):
        extract_batch("raw", [])  # before the feature set is checked


_GOOD_HI = np.linspace(9.0, 10.0, 22) + 0.01 * np.sin(np.arange(22.0))


@pytest.mark.parametrize(
    "set_id,first,second,message",
    [
        (FeatureSet.RAW, (SegmentType.UP_FROM_LO, 3), (SegmentType.HI, 19),
         "UP_FROM_LO segment of 3 samples is shorter than the raw length 4"),
        (FeatureSet.RAW, (SegmentType.HI, 19), (SegmentType.UP_FROM_LO, 3),
         "HI segment of 19 samples is shorter than the raw length 20"),
        (FeatureSet.POLYNOMIAL, (SegmentType.UP_FROM_LO, 2), (SegmentType.HI, 7),
         "cannot fit degree 2 through 2 samples (underdetermined)"),
        (FeatureSet.POLYNOMIAL, (SegmentType.HI, 7), (SegmentType.UP_FROM_LO, 2),
         "cannot fit degree 7 through 7 samples (underdetermined)"),
        (FeatureSet.GENERIC, (SegmentType.LO, 1), (SegmentType.HI, 0),
         "generic features need at least 2 samples"),
        (FeatureSet.HANDCRAFTED, (SegmentType.DOWN_FROM_HI, 1), (SegmentType.UP_FROM_NULL, 1),
         "transition features need at least 2 samples"),
    ],
)
def test_batch_raises_for_first_short_segment(monkeypatch, set_id, first, second, message):
    # a valid group first, then two short segments of other groups
    good = _seg(SegmentType.HI, _GOOD_HI)
    short = [_seg(t, np.linspace(1.0, 2.0, n)) for t, n in (first, second)]
    segments = [good, good, short[0], good, short[1], good]

    def no_kernel(*args):
        raise AssertionError("a kernel ran before the lengths were checked")

    monkeypatch.setattr(features, "_group_rows", no_kernel)
    with pytest.raises(SegmentTooShort) as exc:
        extract_batch(set_id, segment_batch(segments))
    assert str(exc.value) == message


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("set_id", list(FeatureSet), ids=lambda s: s.value)
def test_batch_rejects_non_finite_samples(monkeypatch, set_id, bad):
    # a segment is not checked by a Trace: extract names its first bad sample
    samples = _GOOD_HI.copy()
    samples[[7, 12]] = bad

    def no_kernel(*args):
        raise AssertionError("a kernel ran before the samples were checked")

    monkeypatch.setattr(features, "_group_rows", no_kernel)
    with pytest.raises(ValueError) as exc:
        extract(set_id, _seg(SegmentType.HI, samples))
    assert str(exc.value) == f"samples must be finite; sample 7 is {bad}"


@pytest.mark.parametrize("set_id", list(FeatureSet), ids=lambda s: s.value)
def test_batch_of_a_table_matches_its_segment_lists(noisy_word_bank, set_id):
    # a table is read word by word: the segment at (word, index) is at
    # position 127 * word + index
    _, table = noisy_word_bank
    segments = [seg for word in table for seg in word]
    got = extract_batch(set_id, table, dt=1.0 / 3.0)
    want = extract_batch(set_id, segment_batch(segments), dt=1.0 / 3.0)
    assert list(got) == list(want)
    for seg_type, (positions, matrix) in want.items():
        assert _same_bits(got[seg_type][0], positions)
        assert _same_bits(got[seg_type][1], matrix)
    part = table[4:9]
    for seg_type, (positions, matrix) in extract_batch(set_id, part).items():
        want_pos, want_matrix = extract_batch(
            set_id, segment_batch(segments[4 * 127 : 9 * 127])
        )[seg_type]
        assert _same_bits(positions, want_pos) and _same_bits(matrix, want_matrix)
