"""Per-segment feature extraction: raw samples, generic statistics,
polynomial fits and hand-picked shape landmarks.

``extract_batch`` is the one implementation of every feature set. It reads
a batch as columns (type code, start, length over one sample array): a
``SegmentTable``'s own, or those of a list of ``Segment`` objects over
their concatenated samples. One stable ``np.lexsort`` on (type, length)
groups the segments, each group's matrix, one row per segment, is gathered
straight from the samples as ``samples[start[:, None] + np.arange(length)]``,
and one kernel runs per group:

- raw: a slice of the first columns;
- generic: moments reduced along the rows;
- polynomial: one stacked LAPACK ``gelsd`` call per group, one right-hand
  side per segment, through ``numpy.linalg._umath_linalg.lstsq``, the
  private gufunc that ``np.linalg.lstsq`` itself calls (checked with numpy
  2.4.6), with the same ``rcond`` and error state. Every segment is solved
  by the same LAPACK call as alone, so the coefficients equal
  ``np.linalg.lstsq``'s to the bit; one solve with many right-hand sides per
  group would be faster but rounds differently. ``parallel.map_rows`` cuts
  the group into ``parallel.WORKERS`` contiguous row blocks, solved at once
  by the calling thread and a shared pool (the gufunc releases the GIL),
  and joins them in row order, so the split changes no bit. Each block
  enters the error state itself: numpy keeps it per thread;
- hand-crafted: transitions vectorized (mean slope, mean deviation from the
  chord), plateaus and like-bit nulls a loop over their landmarks.

Within each type the rows come back in input order, which LOF's results
depend on. ``extract`` and the ``extract_*`` functions are batches of one.
The other kernels run on the calling thread: hand-crafted landmarks are a
Python loop that holds the GIL, and raw and generic take a small share of
an extraction.
"""

from __future__ import annotations

import itertools
from enum import Enum

import numpy as np
from numpy.linalg import _umath_linalg

from . import parallel
from .bus import DEFAULT_BIT_RATE, DEFAULT_SAMPLES_PER_BIT
from .segmentation import (
    SEGMENT_TYPES, TYPE_CODES, TRANSITION_TYPES, Segment, SegmentTable, SegmentType,
)

DEFAULT_SAMPLE_INTERVAL = 1.0 / (DEFAULT_BIT_RATE * DEFAULT_SAMPLES_PER_BIT)


class FeatureSet(Enum):
    RAW = "raw"
    GENERIC = "generic"
    POLYNOMIAL = "polynomial"
    HANDCRAFTED = "handcrafted"


class SegmentTooShort(ValueError):
    pass


class ExcludedSegmentType(ValueError):
    pass


# Raw vectors truncate each segment to the shortest length its type can
# produce, so every vector of a type has one fixed dimension.
RAW_LENGTHS = {
    SegmentType.LO: 20,
    SegmentType.HI: 20,
    SegmentType.NULL_HH: 17,
    SegmentType.NULL_HL: 17,
    SegmentType.NULL_LL: 17,
    SegmentType.NULL_LH: 17,
    SegmentType.UP_FROM_LO: 4,
    SegmentType.UP_FROM_NULL: 4,
    SegmentType.DOWN_FROM_HI: 4,
    SegmentType.DOWN_FROM_NULL: 4,
}

# Fit degrees: transitions are near-linear, the like-bit nulls are even
# bumps, everything else gets the full degree.
POLY_DEGREES = {
    SegmentType.LO: 7,
    SegmentType.HI: 7,
    SegmentType.NULL_HH: 6,
    SegmentType.NULL_HL: 7,
    SegmentType.NULL_LL: 6,
    SegmentType.NULL_LH: 7,
    SegmentType.UP_FROM_LO: 2,
    SegmentType.UP_FROM_NULL: 2,
    SegmentType.DOWN_FROM_HI: 2,
    SegmentType.DOWN_FROM_NULL: 2,
}

# Mixed-polarity nulls have no reliable overshoot to take landmarks from.
HANDCRAFTED_EXCLUDED = frozenset({SegmentType.NULL_LH, SegmentType.NULL_HL})

_HANDCRAFTED_LENGTHS = {
    SegmentType.LO: 10,
    SegmentType.HI: 10,
    SegmentType.NULL_HH: 2,
    SegmentType.NULL_HL: 0,
    SegmentType.NULL_LL: 2,
    SegmentType.NULL_LH: 0,
    SegmentType.UP_FROM_LO: 2,
    SegmentType.UP_FROM_NULL: 2,
    SegmentType.DOWN_FROM_HI: 2,
    SegmentType.DOWN_FROM_NULL: 2,
}


def feature_length(set_id: FeatureSet, seg_type: SegmentType) -> int | None:
    """Vector length for (set, segment type); None when the type is excluded."""
    if set_id is FeatureSet.RAW:
        return RAW_LENGTHS[seg_type]
    if set_id is FeatureSet.GENERIC:
        return 8
    if set_id is FeatureSet.POLYNOMIAL:
        return POLY_DEGREES[seg_type] + 2
    if set_id is FeatureSet.HANDCRAFTED:
        return _HANDCRAFTED_LENGTHS[seg_type] or None
    raise ValueError(f"unknown feature set {set_id!r}")


def _too_short(set_id: FeatureSet, seg_type: SegmentType, n: int) -> str | None:
    """Why a segment of ``n`` samples is too short for the set, or None."""
    if set_id is FeatureSet.RAW:
        if n < RAW_LENGTHS[seg_type]:
            return (
                f"{seg_type.value} segment of {n} samples is shorter "
                f"than the raw length {RAW_LENGTHS[seg_type]}"
            )
    elif set_id is FeatureSet.GENERIC:
        if n < 2:
            return "generic features need at least 2 samples"
    elif set_id is FeatureSet.POLYNOMIAL:
        degree = POLY_DEGREES[seg_type]
        if n <= degree:
            return f"cannot fit degree {degree} through {n} samples (underdetermined)"
    elif seg_type in TRANSITION_TYPES and n < 2:
        return "transition features need at least 2 samples"
    return None


def _generic_rows(x: np.ndarray) -> np.ndarray:
    mu = x.mean(axis=1, keepdims=True)
    var = np.mean((x - mu) ** 2, axis=1)
    sd = np.sqrt(var)
    spread = sd > 0.0
    z = (x - mu) / np.where(spread, sd, 1.0)[:, None]
    skew = np.where(spread, np.mean(z**3, axis=1), 0.0)
    kurt = np.where(spread, np.mean(z**4, axis=1), 0.0)
    mean_sq = np.mean(x**2, axis=1)
    rms = np.sqrt(mean_sq)
    return np.column_stack([mu[:, 0], sd, var, skew, kurt, rms, x.max(axis=1), mean_sq])


def _raise_lstsq_error(err, flag):
    raise np.linalg.LinAlgError("SVD did not converge in Linear Least Squares")


def _polynomial_rows(x: np.ndarray, degree: int) -> np.ndarray:
    # an orthogonal decomposition rather than normal equations: the degree-7
    # Vandermonde is badly conditioned
    n = x.shape[1]
    t = np.linspace(0.0, 1.0, n)
    vand = np.vander(t, degree + 1, increasing=True)
    # what np.linalg.lstsq(vand, row, rcond=None) does for each row
    rcond = np.finfo(np.float64).eps * max(n, degree + 1)
    return parallel.map_rows(_polynomial_block, x, vand, rcond)


def _polynomial_block(x: np.ndarray, vand: np.ndarray, rcond: float) -> np.ndarray:
    # numpy's error state is per thread, so each block enters its own
    with np.errstate(
        call=_raise_lstsq_error, invalid="call", over="ignore", divide="ignore", under="ignore"
    ):
        coef, _, _, _ = _umath_linalg.lstsq(vand, x[:, :, None], rcond, signature="ddd->ddid")
    fitted = (vand @ coef)[:, :, 0]
    residual = np.sum((fitted - x) ** 2, axis=1)
    return np.column_stack([coef[:, :, 0], residual])


def _next_extremum(x: np.ndarray, begin: int, sign: int) -> int | None:
    """Index of the first interior extremum at or after ``begin``.

    ``sign`` +1 finds a maximum, -1 a minimum. A plateau of equal samples
    counts once, at its first index, and only if the far side drops away.
    """
    n = len(x)
    i = max(begin, 1)
    while i < n - 1:
        if sign * (x[i] - x[i - 1]) > 0:
            j = i
            while j + 1 < n and x[j + 1] == x[i]:
                j += 1
            if j + 1 < n and sign * (x[j + 1] - x[i]) < 0:
                return i
            i = j + 1
        else:
            i += 1
    return None


def _landmarks(x: np.ndarray, dt: float, first_sign: int) -> np.ndarray:
    """(t, v) of the overshoot, the rebound and the second ripple, plus the
    offsets of points 2 and 3 from the overshoot.

    Missing extrema fall back to the global extremum (for the overshoot) or
    to duplicating the last found point, so the vector length never varies.
    """
    points: list[int] = []
    begin, sign = 1, first_sign
    for _ in range(3):
        idx = _next_extremum(x, begin, sign)
        if idx is None:
            break
        points.append(idx)
        begin, sign = idx + 1, -sign
    if not points:
        points = [int(np.argmax(x)) if first_sign > 0 else int(np.argmin(x))]
    while len(points) < 3:
        points.append(points[-1])
    (i1, i2, i3) = points
    t1, t2, t3 = i1 * dt, i2 * dt, i3 * dt
    v1, v2, v3 = x[i1], x[i2], x[i3]
    return np.array([t1, v1, t2, v2, t3, v3, t2 - t1, v2 - v1, t3 - t1, v3 - v1])


def _null_overshoot(x: np.ndarray, dt: float, sign: int) -> np.ndarray:
    idx = _next_extremum(x, 1, sign)
    if idx is None:
        idx = int(np.argmin(x)) if sign < 0 else int(np.argmax(x))
    return np.array([idx * dt, x[idx]])


def _handcrafted_rows(seg_type: SegmentType, x: np.ndarray, dt: float) -> np.ndarray:
    if seg_type in TRANSITION_TYPES:
        n = x.shape[1]
        slope = np.mean(np.diff(x, axis=1), axis=1) / dt
        first, last = x[:, 0], x[:, -1]
        # np.linspace switches every row to another formula when any row's
        # step is zero, so those rows are drawn apart from the others
        flat = (last - first) / (n - 1) == 0.0
        chord = np.empty_like(x)
        for rows in (flat, ~flat):
            if rows.any():
                chord[rows] = np.linspace(first[rows], last[rows], n, axis=1)
        return np.column_stack([slope, np.mean(x - chord, axis=1)])
    if seg_type is SegmentType.HI:
        return np.array([_landmarks(row, dt, +1) for row in x])
    if seg_type is SegmentType.LO:
        return np.array([_landmarks(row, dt, -1) for row in x])
    # NULL_HH dips below the settling level ("smile"), NULL_LL peaks above
    # it ("frown"); the overshoot is the corresponding extremum.
    sign = -1 if seg_type is SegmentType.NULL_HH else +1
    return np.array([_null_overshoot(row, dt, sign) for row in x])


def _group_rows(set_id: FeatureSet, seg_type: SegmentType, x: np.ndarray, dt: float):
    if set_id is FeatureSet.RAW:
        return x[:, : RAW_LENGTHS[seg_type]]
    if set_id is FeatureSet.GENERIC:
        return _generic_rows(x)
    if set_id is FeatureSet.POLYNOMIAL:
        return _polynomial_rows(x, POLY_DEGREES[seg_type])
    return _handcrafted_rows(seg_type, x, dt)


def _columns(segments):
    """``(samples, types, starts, lengths)`` of a batch of segments, flat.

    A ``SegmentTable`` gives its own columns, read row-major; a sequence of
    ``Segment`` objects gives columns over its concatenated samples.
    """
    if isinstance(segments, SegmentTable):
        return (
            segments.samples, segments.types.ravel(),
            segments.starts.ravel(), segments.lengths.ravel(),
        )
    segments = list(segments)
    lengths = np.array([len(seg.samples) for seg in segments], dtype=np.int64)
    types = np.array([TYPE_CODES[seg.seg_type] for seg in segments], dtype=np.int8)
    samples = np.concatenate([seg.samples for seg in segments]) if segments else np.empty(0)
    return samples, types, np.cumsum(lengths) - lengths, lengths


def extract_batch(
    set_id: FeatureSet, segments, dt: float = DEFAULT_SAMPLE_INTERVAL
) -> dict[SegmentType, tuple[np.ndarray, np.ndarray]]:
    """Feature vectors of a batch of segments, by segment type.

    ``segments`` is a list of ``Segment`` objects or a ``SegmentTable``,
    whose segments count word by word (position ``127 * word + segment``).
    Returns ``{type: (positions, matrix)}``: row i of ``matrix`` is the
    vector of the segment at ``positions[i]``, and positions ascend, so each
    type's rows keep the input order. Types appear in the order of their
    first segment. Types the set excludes (the mixed-polarity nulls for
    hand-crafted features) are left out. A segment too short for its set
    raises ``SegmentTooShort`` before anything is computed, for the first
    such segment in input order.
    """
    if not isinstance(set_id, FeatureSet):
        raise ValueError(f"unknown feature set {set_id!r}")
    samples, types, starts, lengths = _columns(segments)
    if len(types) == 0:
        return {}
    # one stable sort by (type, length): each group's positions ascend
    order = np.lexsort((lengths, types))
    sorted_types, sorted_lengths = types[order], lengths[order]
    cuts = np.flatnonzero(
        (sorted_types[1:] != sorted_types[:-1]) | (sorted_lengths[1:] != sorted_lengths[:-1])
    ) + 1
    bounds = [0, *cuts.tolist(), len(order)]
    groups = [
        (SEGMENT_TYPES[sorted_types[a]], int(sorted_lengths[a]), order[a:b])
        for a, b in zip(bounds[:-1], bounds[1:])
    ]
    # a group's first position is its earliest, so the earliest failing
    # group holds the first segment that fails
    failing = [
        (positions[0], message) for seg_type, n, positions in groups
        if (message := _too_short(set_id, seg_type, n)) is not None
    ]
    if failing:
        raise SegmentTooShort(min(failing)[1])

    out = {}
    for seg_type, type_groups in itertools.groupby(groups, key=lambda group: group[0]):
        if set_id is FeatureSet.HANDCRAFTED and seg_type in HANDCRAFTED_EXCLUDED:
            continue
        type_groups = list(type_groups)
        rows = np.concatenate([
            _group_rows(set_id, seg_type, _gather(samples, starts[positions], n), dt)
            for _, n, positions in type_groups
        ])
        positions = np.concatenate([positions for _, _, positions in type_groups])
        order = np.argsort(positions, kind="stable")
        out[seg_type] = (positions[order], rows[order])
    # types in the order of their first segment
    return dict(sorted(out.items(), key=lambda item: item[1][0][0]))


def _gather(samples: np.ndarray, starts: np.ndarray, n: int) -> np.ndarray:
    """``(len(starts), n)`` float64 matrix of the samples from each start."""
    return samples[starts[:, None] + np.arange(n)].astype(np.float64, copy=False)


def _extract_one(set_id: FeatureSet, segment: Segment, dt: float) -> np.ndarray | None:
    for _, matrix in extract_batch(set_id, [segment], dt).values():
        return matrix[0]
    return None  # the set excludes the segment's type


def extract_raw(segment: Segment) -> np.ndarray:
    """First ``RAW_LENGTHS[type]`` samples of the segment, verbatim."""
    return _extract_one(FeatureSet.RAW, segment, DEFAULT_SAMPLE_INTERVAL)


def extract_generic(segment: Segment) -> np.ndarray:
    """Mean, std, variance, skewness, kurtosis, RMS, maximum and energy.

    All moments use the population form (divisor N). A constant segment has
    zero spread, so its skewness and kurtosis are defined as 0.
    """
    return _extract_one(FeatureSet.GENERIC, segment, DEFAULT_SAMPLE_INTERVAL)


def extract_polynomial(segment: Segment) -> np.ndarray:
    """Least-squares polynomial coefficients plus the fit residual.

    The degree is ``POLY_DEGREES[type]`` and the time axis is normalised to
    [0, 1]. Coefficients come back in ascending power order followed by the
    residual (sum of squared fit errors).
    """
    return _extract_one(FeatureSet.POLYNOMIAL, segment, DEFAULT_SAMPLE_INTERVAL)


def extract_handcrafted(
    segment: Segment, dt: float = DEFAULT_SAMPLE_INTERVAL
) -> np.ndarray:
    """Shape landmarks; ``dt`` converts sample offsets into seconds.

    HI: overshoot maximum, following minimum, following maximum (times from
    the segment start) and the offsets of the later points from the first.
    LO is the mirror image. Like-bit nulls take only their overshoot
    extremum. Transitions take the mean slope and the mean deviation from
    the chord joining the endpoints. The mixed-polarity nulls raise
    ``ExcludedSegmentType``.
    """
    if segment.seg_type in HANDCRAFTED_EXCLUDED:
        raise ExcludedSegmentType(
            f"{segment.seg_type.value} segments have no hand-crafted features"
        )
    return _extract_one(FeatureSet.HANDCRAFTED, segment, dt)


def extract(
    set_id: FeatureSet, segment: Segment, dt: float = DEFAULT_SAMPLE_INTERVAL
) -> np.ndarray | None:
    """Feature vector of one segment.

    Returns None (a "no vector" marker) for segment types the set excludes;
    the detector skips those segments instead of voting on them.
    """
    return _extract_one(set_id, segment, dt)
