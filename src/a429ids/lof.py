"""Local outlier factor novelty detection.

Scores are density ratios: a point deep inside the training density gets a
score near 1, an isolated point gets a score far above 1. Fitting
standardises every dimension (raw voltages and mixed-unit statistics would
otherwise dominate the Euclidean metric), computes each training point's
k-distance, local reachability density and outlier factor, and places the
decision threshold at the (1 - contamination) quantile of the training
scores. Queries are scored novelty-style: their neighbours are drawn from
the training set only.

Neighbourhoods include every point tied at exactly the k-distance. When a
point's reachability distances all collapse to zero (duplicated training
points), its density is replaced by a large sentinel shared by fit and
query paths, so clusters of duplicates score 1 rather than dividing by
zero. Fitting and scoring refuse non-finite points, naming the first.

Fit and scoring share one exact neighbour search. Two screens propose
candidates, chosen by the dimension alone, and one routine, ``_select``,
recomputes the candidates' distances with cdist's arithmetic and keeps every
candidate within the k-distance, ties included. The dense screen proposes
flat candidate lists, the tree a fixed-width matrix, whose k-distances come
from one partition along its rows:

- Up to ``_TREE_MAX_DIM`` (12) dimensions - every polynomial, generic and
  handcrafted type and the raw transitions - a k-d tree over the training
  matrix, built once per model, proposes the k nearest points plus
  ``_TREE_EXTRA`` (one) spare candidate. By the tree's distances, every
  point outside the candidates lies at least as far as the spare, so when
  the spare lies beyond the k-distance (by more than ``_TIE_SLACK``, which
  covers the tree's rounding) the row has all its neighbours. When it ties
  the k-distance, more ties may lie beyond it (duplicates, lattices), so
  the tree counts the points within that distance and proposes that many
  nearest points for the row again. More spares would spare some rows the
  second query, but widen every row's query and select.
- Above the cut - raw plateaus and nulls, 20 and 17 dimensions, where the
  tree is slower - blocks of query rows estimate their squared distances to
  every training point, less the row's own squared norm, with one float32
  product against the training matrix folded into rows [-2 t | |t|^2].
  Each row proposes the points within an upper bound on its k-th smallest
  estimate, the k-th smallest of 16-column group minima, plus twice a
  written rounding bound, which holds for any BLAS summation order, so no
  neighbour is lost; a row float32 cannot carry proposes every point.

Both screens list each row's candidates by ascending training index, so the
density and score sums add up in the same order and the two paths agree to
the bit.

Both paths cut their query rows into ``parallel.WORKERS`` contiguous blocks
with ``parallel.map_rows``, which is LOF's only parallel mechanism: the
tree's queries run one thread each (scipy's ``workers`` is not used). A
tree block queries, selects and redoes its own tie rows on its own thread,
so no block submits to the pool. Both give the same output to the bit for
any count.

Neighbourhoods are flat (row, training index, distance) lists, one entry per
neighbour: about k per point, more where ties widen a neighbourhood, so a
cluster of c duplicates costs about c^2 entries. Per-row sums over the lists
use ``np.bincount``. The dense screen's float32 estimates, on all threads
together, hold at most 8 MB, which leaves as much again of
``_CHUNK_ELEMENTS`` for their masks, group minima and candidate lists, and
a fitted model keeps only its own arrays.
The test suite checks the tracemalloc peak of a fit on 47 000 x 4
points (tree path) against 160 MB, on 10 000 x 20 points (dense path)
against 512 MB and on 20 000 x 4 points with 1000 duplicates against 250 MB,
that a fit on 4800 x 20 points peaks at no more than half the former cdist
blocks' peak, and that a fitted model holds at most 1.5 times the bytes of
its arrays.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import cKDTree

from . import parallel

DEFAULT_K = 20
DEFAULT_CONTAMINATION = 0.10

# Stand-in density for duplicate collapse; ratios of sentinels are exactly 1.
_DUPLICATE_LRD = 1.0e12

# Cap on float32 entries held at once by the dense screen, across all
# threads: their blocks of estimates, with room for as many again.
_CHUNK_ELEMENTS = 2**22

# Columns per group in the dense screen's bound on each row's k-th smallest
# estimate (see ``_tau_bound``).
_GROUP_SIZE = 16

# float32's unit roundoff, and the largest W = (|q| + max |t|)^2 whose
# estimates cannot overflow float32 (see ``_dense_pairs``).
_U32 = 2.0**-24
_F32_LIMIT = float(np.finfo(np.float32).max) / 4.0

# Highest dimension served by the k-d tree; above it the dense path is faster.
_TREE_MAX_DIM = 12

# Training points per k-d tree leaf: 32 queried faster than scipy's default
# 16, both at 500 and at 4920 words per device.
_LEAF_SIZE = 32

# Tree candidates beyond the k nearest: one shows whether the k-distance is tied.
_TREE_EXTRA = 1

# Relative slack between the tree's distances and the recomputed ones.
_TIE_SLACK = 1.0e-9

# A model's record: k and threshold, then the arrays, named as on LofModel.
RECORD_FIELDS = ("k", "threshold", "train", "kdist", "lrd", "train_scores", "mean", "scale")


@dataclass
class LofModel:
    """Fitted per-segment-type novelty detector."""

    train: np.ndarray  # standardized training matrix, (n, d)
    k: int
    kdist: np.ndarray  # per-point k-distance, (n,)
    lrd: np.ndarray  # per-point local reachability density, (n,)
    threshold: float  # scores strictly above this are anomalies
    mean: np.ndarray  # scaler offset, (d,)
    scale: np.ndarray  # scaler divisor, (d,)
    train_scores: np.ndarray  # training outlier factors, (n,)
    # search index over ``train``; derived, never serialized
    tree: cKDTree | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.tree is None:
            self.tree = _build_tree(self.train)

    @property
    def dim(self) -> int:
        return self.train.shape[1]


def _build_tree(train):
    return cKDTree(train, leafsize=_LEAF_SIZE) if train.shape[1] <= _TREE_MAX_DIM else None


def _select(queries, train, k, rows, cols, self_cols):
    """(kdist, row, col, dist) of the neighbours among the candidates.

    Query row ``rows[j]`` proposes training point ``cols[j]``, in one of two
    layouts: flat lists, ordered by row, or a matrix with one row of ``cols``
    per query row and ``rows`` a column of row numbers, broadcast across it.
    Each row lists its candidates by ascending training index and proposes
    all of its neighbours, so at least k points besides itself. Squared
    differences are summed one dimension at a time, the order cdist uses, so
    the distances equal cdist's to the bit (checked against scipy 1.17.1 at 1
    to 24 dimensions). Each row keeps every candidate within its k-distance;
    the entries come out flat, ordered by row and training index.
    """
    dist = np.zeros(cols.shape)
    for j in range(train.shape[1]):
        diff = train[cols, j]
        np.subtract(queries[rows, j], diff, out=diff)
        diff *= diff
        dist += diff
    np.sqrt(dist, out=dist)
    if self_cols is not None:
        dist[cols == self_cols[rows]] = np.inf
    if dist.ndim == 2:
        kd = np.partition(dist, k - 1, axis=1)[:, k - 1].copy()
    else:
        kd = _kth_smallest(rows, dist, len(queries), k)
    keep = dist <= kd[rows]
    return kd, np.broadcast_to(rows, cols.shape)[keep], cols[keep], dist[keep]


def _kth_smallest(rows, values, m, k):
    """Each of the m rows' k-th smallest entry of ``values``.

    ``values[j]`` belongs to row ``rows[j]``; entries are ordered by row and
    every row has at least k of them. The rows are padded with inf to one
    width and partitioned.
    """
    counts = np.bincount(rows, minlength=m)
    pos = np.arange(len(rows))
    pos -= (np.cumsum(counts) - counts)[rows]
    padded = np.full((m, counts.max()), np.inf, dtype=values.dtype)
    padded[rows, pos] = values
    del pos
    padded.partition(k - 1, axis=1)
    return padded[:, k - 1].copy()


def _round_up_f32(x):
    """float64 values as float32, rounded up (towards +inf)."""
    with np.errstate(over="ignore"):
        y = x.astype(np.float32)
    return np.where(y < x, np.nextafter(y, np.float32(np.inf)), y)


def _dense_pairs(queries, train, k, self_cols):
    """(kdist, row, col, dist) of every neighbour: screened in float32, then exact.

    ``self_cols`` holds each query row's own training index, which is not
    its neighbour, or is None when the queries are not training points.

    For each block of query rows one float32 product estimates every squared
    distance less the row's own squared norm: with the training matrix folded
    once into rows [-2 t | |t|^2], the product of [q | 1] with a folded row is
    e = |t|^2 - 2 q.t = |q - t|^2 - |q|^2, |t|^2 summed in float64 and
    rounded to float32. |q|^2 is the same for every column of a row, so the
    row's order of columns is that of its squared distances. A row keeps
    each column with e at most tau' + 2 delta, tau' being ``_tau_bound``'s
    upper bound on the row's k-th smallest estimate tau (its own column
    left out), and ``_select`` recomputes and selects those columns
    exactly. No neighbour is dropped, whatever order the product sums in:

    - Let u = 2**-24, W = (|q| + max_t |t|)^2 and g(n) = n u / (1 - n u).
      -2 t in float32 is t rounded to float32 and doubled, which is exact
      unless it overflows. Rounding q and t then moves each term -2 q_i t_i
      by at most (2u + u^2) 2|q_i t_i|, so the d terms together by at most
      (2u + u^2) 2|q||t|. |t|^2 is rounded to float32 once and is off by at
      most 1.01u |t|^2. The (d + 1)-term product, summed in any order, adds
      at most g(d + 1) times the sum of its terms' magnitudes, which is at
      most (1 + u)^2 (2|q||t| + |t|^2). |q|^2 is never added, so it brings
      no rounding, and the shift it leaves out is the same for every column
      of the row. With |t|^2 + 2|q||t| <= W, |e - (|q - t|^2 - |q|^2)| is at
      most (2u + u^2 + g(d + 1)(1 + u)^2) W: (d + 3) u W plus terms of order
      (d + 3)^2 u^2 W, below delta = g(d + 8) W + d 2**-120. The spare, over
      4.9 u W, covers cdist's own float64 rounding, ties made by its square
      root and the float64 sums below; d 2**-120 covers float32 underflow,
      gradual or flushed to zero: less than 2**-126 lost in each of the
      2d + 1 rounded results, and less than 2**-125 |t_i| (or |q_i|) where
      an input element is taken as zero.
    - The k columns estimated at or below tau have |q - t|^2 at most
      |q|^2 + tau + delta, so the squared k-distance does too, and a
      neighbour's estimate is at most tau + 2 delta <= tau' + 2 delta:
      |q|^2 cancels.
    - tau' + 2 delta is summed in float64 and rounded up to float32, so the
      float32 comparison never rounds the bound down.

    ``_select`` is exact, so any superset of the neighbours that holds at
    least k points is enough; the k columns at or below tau' make it one.

    A row whose W passes a quarter of float32's largest value could
    overflow, so it keeps its full row. Below that, no folded entry, term
    or partial sum of the row's product comes near float32's largest value.

    The query rows are cut into ``parallel.WORKERS`` contiguous blocks, one
    per thread, which give the same output to the bit for any count. Each
    thread screens its block a chunk of rows at a time, and the float32
    estimates of all threads' chunks, with room for as many again, come to
    at most ``_CHUNK_ELEMENTS`` entries; a chunk's estimates are freed
    before the exact pass.
    """
    return parallel.map_rows(
        _dense_block, np.arange(len(queries)), queries, k, self_cols, _screen(train)
    )


def _screen(train):
    """The training matrix, its folded float32 matrix [-2 t | |t|^2], its largest norm."""
    train_sq = np.einsum("ij,ij->i", train, train)
    n, d = train.shape
    folded = np.empty((n, d + 1), dtype=np.float32)
    with np.errstate(over="ignore"):
        folded[:, :d] = train
        folded[:, :d] *= -2.0
        folded[:, d] = train_sq
    return train, folded, np.sqrt(train_sq.max())


def _dense_block(index, queries, k, self_cols, screen):
    """``_dense_pairs`` for the query rows ``index``, numbered as in ``queries``.

    ``screen`` is ``_screen``'s training matrix, folded float32 matrix and
    largest norm. This runs on the pool's threads, so it must not submit to
    the pool.
    """
    train = screen[0]
    n = len(train)
    found = []
    chunk = max(1, _CHUNK_ELEMENTS // (2 * n * parallel.WORKERS))
    for lo in range(0, len(index), chunk):
        part = index[lo : lo + chunk]
        q = queries[part]
        own = None if self_cols is None else self_cols[part]
        est, delta, full = _estimates(q, screen)
        if own is not None:
            est[np.arange(len(q)), own] = np.inf
        cand = est <= _round_up_f32(_tau_bound(est, k) + 2.0 * delta)[:, None]
        del est
        cand[full] = True
        flat = np.flatnonzero(cand)  # 2-d nonzero is several times slower
        del cand
        rows, cols = np.divmod(flat, n)
        del flat
        kd, rows, cols, dist = _select(q, train, k, rows, cols, own)
        found.append((kd, part[rows], cols, dist))
    return tuple(np.concatenate(parts) for parts in zip(*found))


def _estimates(q, screen):
    """The screen's estimates for the query rows ``q``, with their bounds.

    Returns the float32 estimates |t|^2 - 2 q.t, one row per query row and
    one column per training point, each row's rounding bound delta, and
    whether the row is too large for float32 and keeps every column (see
    ``_dense_pairs``).
    """
    train, folded, reach = screen
    d = train.shape[1]
    w = (np.sqrt(np.einsum("ij,ij->i", q, q)) + reach) ** 2
    gamma = (d + 8) * _U32 / (1.0 - (d + 8) * _U32)
    lead = np.ones((len(q), d + 1), dtype=np.float32)
    with np.errstate(over="ignore", invalid="ignore"):
        lead[:, :d] = q
        est = lead @ folded.T
    return est, gamma * w + d * 2.0**-120, ~(w <= _F32_LIMIT)


def _tau_bound(est, k):
    """An upper bound on each row's k-th smallest estimate.

    It is the k-th smallest of the row's column-group minima. With
    g = n // 16, group j holds columns j, j + g, ..., j + 15 g, and each of
    the last n - 16 g columns is a group of its own. The k groups whose
    minima are at or below the bound hold k distinct columns at or below it,
    so the k-th smallest estimate is too. With fewer than k groups of 16
    (n < 16 k), every column is a group of its own and the bound is the k-th
    smallest estimate itself.
    """
    m, n = est.shape
    g = n // _GROUP_SIZE
    if g < k:
        g = 0
    s = _GROUP_SIZE * g
    mins = np.empty((m, g + n - s), dtype=est.dtype)
    est[:, :s].reshape(m, _GROUP_SIZE, g).min(axis=1, out=mins[:, :g])
    mins[:, g:] = est[:, s:]
    mins.partition(k - 1, axis=1)
    return mins[:, k - 1].copy()


def _tree_pairs(queries, train, k, self_cols, tree):
    """(kdist, row, col, dist) of every neighbour from k-d tree candidates.

    The query rows are cut into ``parallel.WORKERS`` contiguous blocks, and
    each block finds its own neighbours with ``_tree_block``.
    """
    return parallel.map_rows(
        _tree_block, np.arange(len(queries)), queries, train, k, self_cols, tree
    )


def _tree_block(index, queries, train, k, self_cols, tree):
    """``_tree_pairs`` for the query rows ``index``, numbered as in ``queries``.

    The block queries the tree, selects the neighbours among the candidates
    and redoes its own tie rows with the tree, all on the thread it runs on:
    it never submits to the pool. A tie row is queried again as wide as the
    most points any of the tie rows has within its k-distance (plus
    ``_TIE_SLACK``, which covers the tree's rounding), so its candidates
    hold every tied point.
    """
    n = len(train)
    q = queries[index]
    own = None if self_cols is None else self_cols[index]
    width = min(n, k + _TREE_EXTRA + int(own is not None))
    farthest, kd, rows, cols, dist = _tree_select(q, train, k, own, tree, width)
    # a row whose farthest candidate ties its k-distance may have more ties
    # beyond the candidates: the tree searches it again, wide enough for all
    redo = np.empty(0, dtype=np.int64)
    if width < n:
        redo = np.flatnonzero(farthest <= kd * (1.0 + _TIE_SLACK))
    if len(redo):
        keep = np.ones(len(q), dtype=bool)
        keep[redo] = False
        keep = keep[rows]
        r_q = q[redo]
        radius = kd[redo] * (1.0 + _TIE_SLACK)
        wide = int(tree.query_ball_point(r_q, radius, return_length=True).max())
        _, r_kd, r_rows, r_cols, r_dist = _tree_select(
            r_q, train, k, None if own is None else own[redo], tree, wide
        )
        kd[redo] = r_kd
        rows = np.concatenate([rows[keep], redo[r_rows]])
        order = np.argsort(rows, kind="stable")
        rows = rows[order]
        cols = np.concatenate([cols[keep], r_cols])[order]
        dist = np.concatenate([dist[keep], r_dist])[order]
    return kd, index[rows], cols, dist


def _tree_select(q, train, k, own, tree, width):
    """The ``width`` nearest points of each row by the tree, then ``_select``.

    Returns each row's farthest candidate's tree distance, then
    ``_select``'s (kdist, row, col, dist), rows numbered as in ``q``.
    """
    cand_dist, cand = tree.query(q, k=width)
    farthest = cand_dist[:, -1].copy()
    del cand_dist
    cand.sort(axis=1)
    return farthest, *_select(q, train, k, np.arange(len(q))[:, None], cand, own)


def _neighbours(queries, train, k, tree=None, self_rows=False):
    """k-distances and flat neighbour lists of query rows.

    Returns (kdist, rows, cols, dist): training point ``cols[j]`` lies at
    ``dist[j]`` from query row ``rows[j]``, within that row's k-distance,
    ties included. Entries are ordered by row, then by ascending training
    index. With ``self_rows`` query row i is training point i and is not its
    own neighbour. ``tree`` (over ``train``) selects the tree path.
    """
    self_cols = np.arange(len(queries)) if self_rows else None
    if tree is None:
        return _dense_pairs(queries, train, k, self_cols)
    return _tree_pairs(queries, train, k, self_cols, tree)


def _row_mean(rows, values, m):
    """Mean of ``values`` over each of the m rows' neighbour entries."""
    return np.bincount(rows, values, m) / np.bincount(rows, minlength=m)


def _lrd(mean_reach):
    """Local reachability density from mean reachability distances."""
    lrd = np.full(len(mean_reach), _DUPLICATE_LRD)
    spread = mean_reach > 0.0
    lrd[spread] = 1.0 / mean_reach[spread]
    return lrd


def _check_finite(points, what):
    """Raise a ValueError naming the first non-finite entry of ``points``."""
    finite = np.isfinite(points)
    if not finite.all():
        row, col = np.argwhere(~finite)[0]
        raise ValueError(f"{what} must be finite; row {row}, column {col} is {points[row, col]}")


def check_k(k: int) -> int:
    """Check `fit`'s neighbour count; returns it as an int."""
    k = int(k)
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    return k


def check_contamination(contamination: float) -> float:
    """Check `fit`'s contamination; returns it as a float."""
    if not 0.0 < contamination < 1.0:
        raise ValueError(f"contamination must be in (0, 1), got {contamination}")
    return float(contamination)


def fit(points, k: int = DEFAULT_K, contamination: float = DEFAULT_CONTAMINATION) -> LofModel:
    """Fit a novelty model on training points (rows) of equal dimension."""
    x = np.asarray(points, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError(f"training points must be a 2-d array, got shape {x.shape}")
    _check_finite(x, "training points")
    n = x.shape[0]
    k, contamination = check_k(k), check_contamination(contamination)
    if n < k + 2:
        raise ValueError(f"need at least k + 2 = {k + 2} training points, got {n}")

    mean = x.mean(axis=0)
    std = x.std(axis=0)
    scale = np.where(std > 0.0, std, 1.0)
    z = (x - mean) / scale

    tree = _build_tree(z)
    kdist, rows, cols, dist = _neighbours(z, z, k, tree, self_rows=True)
    lrd = _lrd(_row_mean(rows, np.maximum(dist, kdist[cols]), n))
    scores = _row_mean(rows, lrd[cols], n) / lrd

    threshold = float(np.quantile(scores, 1.0 - contamination))
    return LofModel(
        train=z,
        k=k,
        kdist=kdist,
        lrd=lrd,
        threshold=threshold,
        mean=mean,
        scale=scale,
        train_scores=scores,
        tree=tree,
    )


def score(model: LofModel, queries) -> np.ndarray:
    """Novelty scores of query rows against the training set."""
    q = np.atleast_2d(np.asarray(queries, dtype=np.float64))
    if q.shape[1] != model.dim:
        raise ValueError(f"query dimension {q.shape[1]} != model dimension {model.dim}")
    _check_finite(q, "query points")
    z = (q - model.mean) / model.scale
    if len(z) == 0:
        return np.empty(0)
    _, rows, cols, dist = _neighbours(z, model.train, model.k, model.tree)
    m = len(z)
    lrd_q = _lrd(_row_mean(rows, np.maximum(dist, model.kdist[cols]), m))
    return _row_mean(rows, model.lrd[cols], m) / lrd_q


def classify(model: LofModel, queries) -> np.ndarray:
    """Boolean anomaly flags: score strictly above the threshold."""
    return score(model, queries) > model.threshold


def model_to_dict(model: LofModel) -> dict:
    """The model's record: its ``RECORD_FIELDS``, the arrays kept as arrays."""
    return {name: getattr(model, name) for name in RECORD_FIELDS}


def model_from_dict(data: dict) -> LofModel:
    """Rebuild a model from ``model_to_dict``'s record, checking every shape."""
    try:
        k = int(data["k"])
        threshold = float(data["threshold"])
        arrays = {name: np.asarray(data[name], dtype=np.float64) for name in RECORD_FIELDS[2:]}
    except KeyError as exc:
        raise ValueError(f"model record missing key {exc}") from exc
    for name, value in (("threshold", threshold), *arrays.items()):
        if not np.isfinite(value).all():
            raise ValueError(f"model record field {name!r} must be finite")
    train = arrays["train"]
    if train.ndim != 2:
        raise ValueError(f"model record field 'train' must be 2-d, got shape {train.shape}")
    n, d = train.shape
    if k < 1 or n < k + 2:
        raise ValueError(f"model record field 'k' is {k}, needs 1 <= k <= n - 2 for n = {n}")
    shapes = {"kdist": (n,), "lrd": (n,), "train_scores": (n,), "mean": (d,), "scale": (d,)}
    for name, want in shapes.items():
        if arrays[name].shape != want:
            raise ValueError(
                f"model record field {name!r} must have shape {want}, got {arrays[name].shape}"
            )
    return LofModel(k=k, threshold=threshold, **arrays)
