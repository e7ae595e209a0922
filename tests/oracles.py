"""Independent reference implementations the test suite checks against.

Everything here is deliberately naive - plain loops, math-module
arithmetic, exhaustive enumeration - and stays independent of the library
code paths it is used to verify.
"""

from __future__ import annotations

import itertools
import math

_DUPLICATE_LRD = 1.0e12  # same sentinel convention as the library


# ---------------------------------------------------------------------------
# Local outlier factor, brute force


def _standardize(points):
    n, d = len(points), len(points[0])
    means = [sum(row[j] for row in points) / n for j in range(d)]
    scales = []
    for j in range(d):
        var = sum((row[j] - means[j]) ** 2 for row in points) / n
        s = math.sqrt(var)
        scales.append(s if s > 0.0 else 1.0)
    z = [[(row[j] - means[j]) / scales[j] for j in range(d)] for row in points]
    return z, means, scales


def _lof_internals(z, k):
    n = len(z)
    dist = [[math.dist(a, b) for b in z] for a in z]
    kdist = []
    for i in range(n):
        others = sorted(dist[i][j] for j in range(n) if j != i)
        kdist.append(others[k - 1])
    neigh = [
        [j for j in range(n) if j != i and dist[i][j] <= kdist[i]] for i in range(n)
    ]
    lrd = []
    for i in range(n):
        reach = [max(kdist[j], dist[i][j]) for j in neigh[i]]
        mean_reach = sum(reach) / len(reach)
        lrd.append(_DUPLICATE_LRD if mean_reach == 0.0 else 1.0 / mean_reach)
    return dist, kdist, neigh, lrd


def brute_lof_fit(points, k):
    """Training LOF scores (list) computed with plain loops."""
    points = [list(map(float, row)) for row in points]
    z, _, _ = _standardize(points)
    _, _, neigh, lrd = _lof_internals(z, k)
    return [
        (sum(lrd[j] for j in neigh[i]) / len(neigh[i])) / lrd[i]
        for i in range(len(z))
    ]


def brute_lof_query(points, queries, k):
    """Novelty LOF scores of queries against a training set, plain loops."""
    points = [list(map(float, row)) for row in points]
    z, means, scales = _standardize(points)
    _, kdist, _, lrd = _lof_internals(z, k)
    out = []
    for q in queries:
        zq = [(float(q[j]) - means[j]) / scales[j] for j in range(len(q))]
        dist = [math.dist(zq, row) for row in z]
        kd = sorted(dist)[k - 1]
        neigh = [j for j in range(len(z)) if dist[j] <= kd]
        reach = [max(kdist[j], dist[j]) for j in neigh]
        mean_reach = sum(reach) / len(reach)
        lrd_q = _DUPLICATE_LRD if mean_reach == 0.0 else 1.0 / mean_reach
        out.append((sum(lrd[j] for j in neigh) / len(neigh)) / lrd_q)
    return out


# ---------------------------------------------------------------------------
# Suspicion counter


def counter_walk_alarm(labels, t_suspicion):
    """1-based alarm index of the counter over explicit labels, or None."""
    value = 0
    for i, anomalous in enumerate(labels, start=1):
        value = value + 1 if anomalous else max(value - 1, 0)
        if value >= t_suspicion:
            return i
    return None


def enumerate_alarm_probability(p, t_suspicion, n):
    """Alarm-within-n probability by summing over all 2^n label sequences."""
    total = 0.0
    for seq in itertools.product((False, True), repeat=n):
        if counter_walk_alarm(seq, t_suspicion) is not None:
            anomalies = sum(seq)
            total += (p**anomalies) * ((1.0 - p) ** (n - anomalies))
    return total


def recurrence_alarm_probability(p, t_suspicion, n):
    """Alarm-within-n probability by stepping the state distribution."""
    t = t_suspicion
    v = [0.0] * (t + 1)
    v[0] = 1.0
    for _ in range(n):
        new = [0.0] * (t + 1)
        new[0] = (1.0 - p) * v[0] + ((1.0 - p) * v[1] if t >= 2 else 0.0)
        for j in range(1, t):
            new[j] = p * v[j - 1]
            if j + 1 <= t - 1:
                new[j] += (1.0 - p) * v[j + 1]
        new[t] = v[t] + p * v[t - 1]
        v = new
    return v[t]


def mean_passage_words(p, t_suspicion):
    """Mean words from 0 to the alarm: the sum of the level-crossing times
    h_k (k -> k+1), h_0 = 1/p at the floor and h_k = 1/p + (q/p) h_{k-1}
    above it."""
    q = 1.0 - p
    h = total = 0.0
    for _ in range(t_suspicion):
        h = 1.0 / p + (q / p) * h
        total += h
    return total


def renewal_alarm_probability(p, t_suspicion, n):
    """Alarm-within-n probability for a rare alarm, in closed form.

    When the mean first-passage time E[tau] dwarfs the time the counter
    needs to forget its start, passage is close to exponential:
    P(alarm by n) ~ 1 - exp(-n/E[tau]).
    """
    return -math.expm1(-n / mean_passage_words(p, t_suspicion))


def renewal_detect_words(p, t_suspicion, target):
    """Least n with 1 - exp(-n/E[tau]) >= target; None past 2**63 words."""
    n = math.ceil(-mean_passage_words(p, t_suspicion) * math.log1p(-target))
    return None if n > 2**63 else n


# ---------------------------------------------------------------------------
# Segmentation census


_NULL_NAME = {(1, 1): "NULL_HH", (1, 0): "NULL_HL", (0, 0): "NULL_LL", (0, 1): "NULL_LH"}


def msb_first_bits(word_value):
    """The 32 bits of a word in the order synthesis sends them, MSB first."""
    return [(word_value >> (31 - i)) & 1 for i in range(32)]


def census(segments):
    """Count segments by type."""
    counts = {}
    for seg in segments:
        counts[seg.seg_type] = counts.get(seg.seg_type, 0) + 1
    return counts


def expected_segment_type_names(word_value):
    """Segment-type name sequence a clean word must produce, from its bits."""
    bits = msb_first_bits(word_value)
    seq = []
    for i, b in enumerate(bits):
        if b:
            seq += ["UP_FROM_NULL", "HI", "DOWN_FROM_HI"]
        else:
            seq += ["DOWN_FROM_NULL", "LO", "UP_FROM_LO"]
        if i < 31:
            seq.append(_NULL_NAME[(b, bits[i + 1])])
    return seq


# ---------------------------------------------------------------------------
# Generic statistics, naive forms


def naive_generic(samples):
    x = [float(v) for v in samples]
    n = len(x)
    mu = sum(x) / n
    var = sum((v - mu) ** 2 for v in x) / n
    sd = math.sqrt(var)
    if sd > 0.0:
        skew = sum(((v - mu) / sd) ** 3 for v in x) / n
        kurt = sum(((v - mu) / sd) ** 4 for v in x) / n
    else:
        skew = kurt = 0.0
    energy = sum(v * v for v in x) / n
    rms = math.sqrt(energy)
    return [mu, sd, var, skew, kurt, rms, max(x), energy]


# ---------------------------------------------------------------------------
# Polynomial least squares via normal equations


def normal_equations_polyfit(samples, degree):
    """Coefficients (ascending) and residual from the normal equations,
    Gaussian elimination with partial pivoting; time axis is [0, 1]."""
    y = [float(v) for v in samples]
    n = len(y)
    t = [i / (n - 1) for i in range(n)]
    m = degree + 1
    # A = V^T V, b = V^T y with V[i][j] = t_i^j
    a = [[sum((ti ** (r + c)) for ti in t) for c in range(m)] for r in range(m)]
    b = [sum((ti**r) * yi for ti, yi in zip(t, y)) for r in range(m)]
    # solve
    for col in range(m):
        pivot = max(range(col, m), key=lambda r: abs(a[r][col]))
        a[col], a[pivot] = a[pivot], a[col]
        b[col], b[pivot] = b[pivot], b[col]
        for r in range(col + 1, m):
            f = a[r][col] / a[col][col]
            for c in range(col, m):
                a[r][c] -= f * a[col][c]
            b[r] -= f * b[col]
    coef = [0.0] * m
    for r in range(m - 1, -1, -1):
        s = b[r] - sum(a[r][c] * coef[c] for c in range(r + 1, m))
        coef[r] = s / a[r][r]
    residual = 0.0
    for ti, yi in zip(t, y):
        fit = sum(c * (ti**j) for j, c in enumerate(coef))
        residual += (fit - yi) ** 2
    return coef, residual


# ---------------------------------------------------------------------------
# Equal error rate by bisection on each threshold interval


def eer_bisect(far, mdr):
    far = [float(v) for v in far]
    mdr = [float(v) for v in mdr]
    for t in range(len(far)):
        if far[t] == mdr[t]:
            return far[t]
    for t in range(len(far) - 1):
        d0 = far[t] - mdr[t]
        d1 = far[t + 1] - mdr[t + 1]
        if (d0 < 0) != (d1 < 0):
            lo, hi = 0.0, 1.0
            for _ in range(200):
                mid = 0.5 * (lo + hi)
                f = far[t] + mid * (far[t + 1] - far[t])
                m = mdr[t] + mid * (mdr[t + 1] - mdr[t])
                if (f - m < 0) == (d0 < 0):
                    lo = mid
                else:
                    hi = mid
            mid = 0.5 * (lo + hi)
            return far[t] + mid * (far[t + 1] - far[t])
    best = min(range(len(far)), key=lambda t: abs(far[t] - mdr[t]))
    return 0.5 * (far[best] + mdr[best])
