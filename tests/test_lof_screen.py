"""The dense LOF screen against the cdist blocks it replaced.

``_cdist_pairs`` is the former dense path, kept here as the reference: full
float64 distance rows from cdist, partitioned for the k-distance. The
float32 screen must give the same neighbour lists and k-distances to the
bit, whatever order the BLAS product sums in (CI also runs this file with a
multi-threaded OpenBLAS).
"""

from fractions import Fraction

import numpy as np
import pytest
from scipy.spatial.distance import cdist

from a429ids import lof

from test_lof import _fit_peak_mb, _lattice

K = 20


def _cdist_pairs(queries, train, k, self_cols):
    """(kdist, row, col, dist) of every neighbour from full cdist rows."""
    found = []
    chunk = max(1, lof._CHUNK_ELEMENTS // len(train))
    for lo in range(0, len(queries), chunk):
        dist = cdist(queries[lo : lo + chunk], train)
        if self_cols is not None:
            dist[np.arange(len(dist)), self_cols[lo : lo + chunk]] = np.inf
        # a copy: a view would keep the whole partitioned block alive
        kd = np.partition(dist, k - 1, axis=1)[:, k - 1].copy()
        rows, cols = np.nonzero(dist <= kd[:, None])
        found.append((kd, rows + lo, cols, dist[rows, cols]))
    return [np.concatenate(parts) for parts in zip(*found)]


def _near_ties():
    # points on spheres around 40 lattice nodes, radii equal to within 1e-12
    rng = np.random.default_rng(40)
    centres = _lattice(2, 17)[:40] * 3.0
    shell = rng.normal(size=(12, 17))
    shell /= np.linalg.norm(shell, axis=1, keepdims=True)
    radius = 1.0 + rng.uniform(-1e-12, 1e-12, size=(40, 12, 1))
    return (centres[:, None, :] + radius * shell).reshape(-1, 17)


def _duplicates():
    x = np.random.default_rng(41).normal(size=(500, 20))
    x[100:160] = x[7]  # 61 copies: more than k
    x[300:310] = x[8]  # 11 copies: fewer than k
    return x


def _far_ties():
    # a query at the origin sees 2 * 20 points at exactly distance 1: ties
    # at the k-distance far beyond the k nearest candidates
    x = np.random.default_rng(42).normal(size=(400, 20)) * 5.0 + 8.0
    return np.vstack([np.eye(20), -np.eye(20), x, np.zeros((3, 20))])


def _overflow():
    # every squared norm overflows float32; some coordinates overflow it too
    x = np.random.default_rng(43).normal(size=(300, 20))
    x[:, :3] *= 1e25
    x[:10, 5] = 1e39
    return x


def _mixed_overflow():
    # only some rows are too large for float32
    x = np.random.default_rng(44).normal(size=(400, 20))
    x[::37] *= 1e21
    return x


def _swamped():
    # norms near 4e3 and spacing near 1e-4: the slack (about 1e2) swamps
    # every k-distance (about 1e-7 squared), so every row is searched in full
    return 1000.0 + np.random.default_rng(45).normal(size=(350, 18)) * 1e-4


def _offset():
    # norms near 1.3e3 against k-distances near 4: float32 keeps only two or
    # three significant digits of each squared distance
    return 300.0 + np.random.default_rng(50).normal(size=(700, 20))


def _raw_like():
    rng = np.random.default_rng(46)
    x = rng.normal(size=(1500, 20)) * rng.uniform(0.01, 3.0, size=20)
    return (x - x.mean(axis=0)) / x.std(axis=0)


def _group_cluster(k):
    """A cluster of k + 5 near points on as few column groups as hold them.

    The groups are lof._tau_bound's: columns j, j + g, ..., j + 15 g for
    g = n // 16. A cluster point sees its near neighbours in one or two
    group minima only, so the bound on its k-th smallest estimate lies out
    among the far points. n is not a multiple of 16.
    """
    n = 16 * 37 + 9
    g = n // lof._GROUP_SIZE
    x = np.random.default_rng(51).normal(size=(n, 20)) * 4.0
    i = np.arange(k + 5)
    cols = 5 + g * (i % lof._GROUP_SIZE) + i // lof._GROUP_SIZE
    x[cols] = 0.01 * np.random.default_rng(52).normal(size=(k + 5, 20))
    return x


_DATA = {
    "random": lambda: np.random.default_rng(47).normal(size=(700, 20)),
    "raw-like": _raw_like,
    "near ties": _near_ties,
    "duplicates": _duplicates,
    "lattice": lambda: _lattice(3, 7),
    "far ties": _far_ties,
    "overflow": _overflow,
    "mixed overflow": _mixed_overflow,
    "swamped": _swamped,
    "offset": _offset,
    # the screen's group bound, on either side of n = 16 k and with n % 16 > 0
    "groups, n % 16 = 7": lambda: np.random.default_rng(53).normal(size=(16 * 41 + 7, 20)),
    "groups, n = 16 k": lambda: np.random.default_rng(54).normal(size=(16 * K, 20)),
    "no groups, n = 16 k - 1": lambda: np.random.default_rng(55).normal(size=(16 * K - 1, 20)),
    "group cluster": lambda: _group_cluster(K),
}


def _queries(x):
    spread = x.std(axis=0)
    return np.vstack([x[::5], x[:30] + 0.5 * spread, x[::11] + 1e-13, np.zeros((2, x.shape[1]))])


def _assert_same(got, want):
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and np.array_equal(g, w)


@pytest.mark.parametrize("chunk", [2**22, 2**13])
@pytest.mark.parametrize("name", sorted(_DATA))
def test_screen_matches_cdist_blocks_bitwise(name, chunk, monkeypatch):
    monkeypatch.setattr(lof, "_CHUNK_ELEMENTS", chunk)
    x = _DATA[name]()
    self_cols = np.arange(len(x))
    _assert_same(lof._dense_pairs(x, x, K, self_cols), _cdist_pairs(x, x, K, self_cols))
    q = _queries(x)
    _assert_same(lof._dense_pairs(q, x, K, None), _cdist_pairs(q, x, K, None))


def test_screen_matches_on_a_small_k():
    x = _far_ties()
    q = np.zeros((1, 20))
    got = lof._dense_pairs(q, x, 5, None)
    _assert_same(got, _cdist_pairs(q, x, 5, None))
    # the three copies of the origin and all 40 points tied at distance 1
    assert len(got[1]) == 43 and got[0][0] == 1.0


def test_group_bound_is_loose_on_a_cluster_in_one_group():
    """k + 5 = 16 near points fill one column group: their group bound lies
    among the far points, yet the screen's neighbours are cdist's."""
    k = 11
    x = _group_cluster(k)
    est = (cdist(x, x) ** 2).astype(np.float32)
    np.fill_diagonal(est, np.inf)
    bound = lof._tau_bound(est, k)
    exact = np.partition(est, k - 1, axis=1)[:, k - 1]
    assert np.all(bound >= exact)
    near = np.flatnonzero(np.abs(x).max(axis=1) < 1.0)
    assert len(near) == k + 5 and len(np.unique(near % (len(x) // lof._GROUP_SIZE))) == 1
    assert np.all(bound[near] > 100.0 * exact[near])
    self_cols = np.arange(len(x))
    _assert_same(lof._dense_pairs(x, x, k, self_cols), _cdist_pairs(x, x, k, self_cols))
    q = np.vstack([x[near] + 1e-3, _queries(x)])
    _assert_same(lof._dense_pairs(q, x, k, None), _cdist_pairs(q, x, k, None))


def _far_queries(x):
    """Query rows at 1e2 to 1e18 times the data's spread from its points."""
    rng = np.random.default_rng(56)
    spread = float(x.std())
    step = rng.normal(size=(18, x.shape[1]))
    step /= np.linalg.norm(step, axis=1, keepdims=True)
    scale = spread * 10.0 ** np.repeat(np.arange(2, 20, 2), 2)
    return np.vstack([scale[:, None] * step, x[:18] + scale[:, None] * step])


def _at_limit(x):
    """Query rows whose W lies a relative 1e-9 below and above _F32_LIMIT."""
    step = np.random.default_rng(57).normal(size=(4, x.shape[1]))
    step /= np.linalg.norm(step, axis=1, keepdims=True)
    reach = np.sqrt(np.einsum("ij,ij->i", x, x).max())
    w = lof._F32_LIMIT * np.array([1 - 1e-9, 1 - 1e-9, 1 + 1e-9, 1 + 1e-9])
    return (np.sqrt(w) - reach)[:, None] * step


def _exact_error(est, q, t):
    """|est + |q|^2 - |q - t|^2| in exact arithmetic."""
    q, t = [Fraction(v) for v in q.tolist()], [Fraction(v) for v in t.tolist()]
    q_sq = sum(a * a for a in q)
    dist_sq = sum((a - b) ** 2 for a, b in zip(q, t))
    return abs(Fraction(float(est)) + q_sq - dist_sq)


def _near_limit():
    # norms up to half the square root of _F32_LIMIT: the folded |t|^2
    # column reaches a sixteenth of float32's largest value
    x = np.random.default_rng(59).normal(size=(600, 20))
    return x * (0.5 * np.sqrt(lof._F32_LIMIT) / np.linalg.norm(x, axis=1).max())


_BOUND_DATA = {**_DATA, "norms near the limit": _near_limit}


@pytest.mark.parametrize("name", sorted(_BOUND_DATA))
def test_screen_bound_holds_for_far_and_limit_queries(name):
    """The folded product's estimates miss |q - t|^2 - |q|^2 by at most
    delta, checked exactly on sampled entries, and far queries and queries
    on either side of the float32 limit still give cdist's neighbours."""
    x = _BOUND_DATA[name]()
    far, limit = _far_queries(x), _at_limit(x)
    q = np.vstack([far, limit])
    _assert_same(lof._dense_pairs(q, x, K, None), _cdist_pairs(q, x, K, None))

    # on data whose own norms pass the limit, every row is too large
    if np.einsum("ij,ij->i", x, x).max() < 0.5 * lof._F32_LIMIT:
        _, _, full = lof._estimates(limit, lof._screen(x))
        assert full.tolist() == [False, False, True, True]

    q = np.vstack([_queries(x), far, limit])
    est, delta, full = lof._estimates(q, lof._screen(x))
    rng = np.random.default_rng(58)
    rows = rng.choice(np.flatnonzero(~full), size=min(40, int((~full).sum())), replace=False)
    for i in rows:
        for j in [int(np.argmin(est[i])), *rng.integers(len(x), size=3).tolist()]:
            assert _exact_error(est[i, j], q[i], x[j]) <= Fraction(float(delta[i])), (i, j)


def _fit_and_score(x, q):
    model = lof.fit(x, k=K)
    assert model.tree is None
    return model, lof.score(model, q)


def test_fit_and_score_match_the_cdist_blocks(monkeypatch):
    for name in ("raw-like", "groups, n % 16 = 7", "no groups, n = 16 k - 1", "group cluster"):
        x = _DATA[name]()
        q = _queries(x) * 1.5
        model, scores = _fit_and_score(x, q)
        with monkeypatch.context() as patch:
            patch.setattr(lof, "_dense_pairs", _cdist_pairs)
            ref, ref_scores = _fit_and_score(x, q)
        for field_name in lof.RECORD_FIELDS[2:]:
            assert np.array_equal(getattr(model, field_name), getattr(ref, field_name)), name
        assert model.threshold == ref.threshold, name
        assert scores.tobytes() == ref_scores.tobytes(), name


def test_screen_fit_peaks_at_half_the_cdist_blocks(monkeypatch):
    x = np.random.default_rng(49).normal(size=(4800, 20))
    assert x.shape[1] > lof._TREE_MAX_DIM
    screen = _fit_peak_mb(x)
    monkeypatch.setattr(lof, "_dense_pairs", _cdist_pairs)
    blocks = _fit_peak_mb(x)
    assert screen <= 0.5 * blocks
