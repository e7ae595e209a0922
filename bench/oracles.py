"""Computations the benchmark checks the program's outputs against.

Each one is written here from the method's definition, apart from the
library's own code paths: segment types from a word's bits, the counter as
an explicit walk, LOF densities from a training matrix, the EER by a
crossing search, and the counter's alarm time by stepping its state
distribution or by the renewal estimate.
"""

from __future__ import annotations

import math

import numpy as np

WORD_BITS = 32

# Segment types of one pulse, by bit value, and of the null between two bits.
_PULSE_TYPES = {1: ("UP_FROM_NULL", "HI", "DOWN_FROM_HI"), 0: ("DOWN_FROM_NULL", "LO", "UP_FROM_LO")}
_NULL_TYPES = {(1, 1): "NULL_HH", (1, 0): "NULL_HL", (0, 0): "NULL_LL", (0, 1): "NULL_LH"}

# Stand-in density where every reachability distance is zero (duplicated
# training points): the LOF method leaves it undefined, and the program
# documents this value; scores of such points are ratios of it.
DUPLICATE_LRD = 1.0e12

# The program reports a detection time as unreachable beyond this many words.
MAX_DETECT_WORDS = 2**63


# ---------------------------------------------------------------------------
# Segmentation


def segment_type_names(word_value: int) -> list[str]:
    """The 127 segment-type names a word must segment into, MSB first."""
    bits = [(word_value >> (WORD_BITS - 1 - i)) & 1 for i in range(WORD_BITS)]
    names: list[str] = []
    for i, bit in enumerate(bits):
        names.extend(_PULSE_TYPES[bit])
        if i < WORD_BITS - 1:
            names.append(_NULL_TYPES[(bit, bits[i + 1])])
    return names


# ---------------------------------------------------------------------------
# Suspicion counter


def counter_alarm_index(labels, t_suspicion: int) -> int | None:
    """1-based index of the word that takes the counter to ``t_suspicion``
    (+1 per anomaly, -1 per normal word, floor 0), or None."""
    value = 0
    for i, anomalous in enumerate(labels, start=1):
        value = value + 1 if anomalous else max(value - 1, 0)
        if value >= t_suspicion:
            return i
    return None


# ---------------------------------------------------------------------------
# Local outlier factor


def _row_chunks(n: int, cols: int, budget: int = 2**22):
    rows = max(1, budget // max(1, cols))
    for lo in range(0, n, rows):
        yield lo, min(n, lo + rows)


def _squared_distances(a: np.ndarray, b: np.ndarray, b_sq: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances from squared norms and inner products."""
    return np.maximum((a * a).sum(axis=1)[:, None] + b_sq[None, :] - 2.0 * (a @ b.T), 0.0)


def _neighbours(sq: np.ndarray, k: int):
    """Each row's k-distance, and the (row, column, distance) triples of
    every column within it, ties included."""
    kd_sq = np.partition(sq, k - 1, axis=1)[:, k - 1]
    rows, cols = np.nonzero(sq <= kd_sq[:, None])
    return np.sqrt(kd_sq), rows, cols, np.sqrt(sq[rows, cols])


class LofReference:
    """Novelty LOF of one segment type, rebuilt from a standardized training
    matrix alone: training k-distances and densities are recomputed here.

    A neighbourhood is every training point within the k-distance, ties
    included; a training point is not its own neighbour.
    """

    def __init__(self, train: np.ndarray, k: int, mean: np.ndarray, scale: np.ndarray):
        self.train, self.k, self.mean, self.scale = train, k, mean, scale
        self.train_sq = (train * train).sum(axis=1)
        n = len(train)
        self.kdist = np.empty(n)
        parts = []
        for lo, hi in _row_chunks(n, n):
            sq = _squared_distances(train[lo:hi], train, self.train_sq)
            sq[np.arange(hi - lo), np.arange(lo, hi)] = np.inf
            self.kdist[lo:hi], rows, cols, dist = _neighbours(sq, k)
            parts.append((rows + lo, cols, dist))
        rows, cols, dist = (np.concatenate(part) for part in zip(*parts))
        self.lrd = self._lrd(rows, cols, dist, n)

    def _lrd(self, rows, cols, dist, n_rows: int) -> np.ndarray:
        """Local reachability density of each row over its neighbours."""
        reach = np.maximum(dist, self.kdist[cols])
        mean_reach = np.bincount(rows, reach, n_rows) / np.bincount(rows, minlength=n_rows)
        safe = np.where(mean_reach == 0.0, 1.0, mean_reach)
        return np.where(mean_reach == 0.0, DUPLICATE_LRD, 1.0 / safe)

    def scores(self, queries) -> np.ndarray:
        """LOF scores of raw (unstandardized) query rows."""
        z = (np.asarray(queries, dtype=np.float64) - self.mean) / self.scale
        out = np.empty(len(z))
        for lo, hi in _row_chunks(len(z), len(self.train)):
            _, rows, cols, dist = _neighbours(
                _squared_distances(z[lo:hi], self.train, self.train_sq), self.k)
            neighbour_lrd = np.bincount(rows, self.lrd[cols], hi - lo) / np.bincount(rows, minlength=hi - lo)
            out[lo:hi] = neighbour_lrd / self._lrd(rows, cols, dist, hi - lo)
        return out


# ---------------------------------------------------------------------------
# Error curves


def eer_crossing(far, mdr) -> float:
    """Rate where the piecewise-linear FAR and MDR curves meet.

    The first threshold where they are equal gives that rate; otherwise the
    first interval where their difference changes sign is bisected. Without
    any crossing, the mean of the two rates at their closest threshold.
    """
    far = [float(v) for v in far]
    mdr = [float(v) for v in mdr]
    for f, m in zip(far, mdr):
        if f == m:
            return f
    for t in range(len(far) - 1):
        d0, d1 = far[t] - mdr[t], far[t + 1] - mdr[t + 1]
        if (d0 < 0.0) != (d1 < 0.0):
            lo, hi = 0.0, 1.0
            for _ in range(200):
                mid = 0.5 * (lo + hi)
                diff = (far[t] + mid * (far[t + 1] - far[t])) - (mdr[t] + mid * (mdr[t + 1] - mdr[t]))
                if (diff < 0.0) == (d0 < 0.0):
                    lo = mid
                else:
                    hi = mid
            mid = 0.5 * (lo + hi)
            return far[t] + mid * (far[t + 1] - far[t])
    best = min(range(len(far)), key=lambda t: abs(far[t] - mdr[t]))
    return 0.5 * (far[best] + mdr[best])


# ---------------------------------------------------------------------------
# Suspicion counter as a birth-death chain


def mean_passage_words(p: float, t_suspicion: int) -> float:
    """Mean words from 0 to the alarm: the sum of the level-crossing times
    h_0 = 1/p at the floor and h_k = 1/p + (q/p) h_{k-1} above it."""
    q = 1.0 - p
    h = total = 0.0
    for _ in range(t_suspicion):
        h = 1.0 / p + (q / p) * h
        total += h
    return total


def renewal_alarm_probability(p: float, t_suspicion: int, n: int) -> float:
    """Alarm-within-n probability when the alarm is rare next to the time
    the counter takes to forget its start: 1 - exp(-n / E[tau])."""
    return -math.expm1(-n / mean_passage_words(p, t_suspicion))


def renewal_detect_words(p: float, t_suspicion: int, target: float) -> int | None:
    """Least n with 1 - exp(-n / E[tau]) >= target; None past 2**63 words."""
    n = math.ceil(-mean_passage_words(p, t_suspicion) * math.log1p(-target))
    return None if n > MAX_DETECT_WORDS else n


def _transient_matrix(p: float, t: int) -> np.ndarray:
    """Transitions among the non-alarm states 0..T-1 (the alarm is left out,
    so each row loses the mass that alarms)."""
    q = np.zeros((t, t))
    for i in range(t):
        q[i, max(i - 1, 0)] += 1.0 - p
        if i + 1 < t:
            q[i, i + 1] = p
    return q


def stepped_detect_words(p: float, t_suspicion: int, target: float, cap: int,
                         block: int = 1000) -> int | None:
    """Least n whose alarm probability reaches ``target``, by stepping the
    distribution over the non-alarm states forward from state 0.

    The surviving (not yet alarmed) mass is tracked directly, so the
    comparison 1 - target is made without cancellation. Words are stepped
    in blocks through a block matrix formed by ``block`` successive
    one-word products (all entries non-negative, no repeated squaring);
    the last block is stepped again one word at a time. Returns None when
    the target is not reached within ``cap`` words.
    """
    one = _transient_matrix(p, t_suspicion)
    many = np.eye(t_suspicion)
    for _ in range(block):
        many = many @ one
    survive = 1.0 - target
    dist = np.zeros(t_suspicion)
    dist[0] = 1.0
    n = 0
    while n + block <= cap:
        ahead = dist @ many
        if ahead.sum() <= survive:
            break
        dist, n = ahead, n + block
    while n < cap:
        dist, n = dist @ one, n + 1
        if dist.sum() <= survive:
            return n
    return None
