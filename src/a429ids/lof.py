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
zero.

Fit and scoring share one exact neighbour search with two paths, chosen by
the dimension alone:

- Up to ``_TREE_MAX_DIM`` (12) dimensions - every polynomial, generic and
  handcrafted type and the raw transitions - a k-d tree over the training
  matrix, built once per model, proposes the k nearest points plus
  ``_TREE_EXTRA`` spare candidates. Their distances are recomputed with
  cdist's arithmetic and every candidate within the k-distance is kept.
  When the farthest candidate ties the k-distance, more ties may lie beyond
  it (duplicates, lattices), so that row alone is searched again by the
  dense path below.
- Above the cut - raw plateaus and nulls, 20 and 17 dimensions, where the
  tree is slower - blocks of at most ``_CHUNK_ELEMENTS`` distances are
  computed with cdist and only each row's neighbours are kept.

Both paths list each row's neighbours by ascending training index, so the
density and score sums add up in the same order and the two paths agree to
the bit.

The tree queries run on ``parallel.WORKERS`` threads (scipy's ``workers``),
which give the same output to the bit for any count. The dense path stays
on the calling thread, for the reason given in ``_dense_pairs``.

Neighbourhoods are flat (row, training index, distance) lists, one entry per
neighbour: about k per point, more where ties widen a neighbourhood, so a
cluster of c duplicates costs about c^2 entries. Per-row sums over the lists
use ``np.bincount``. On the dense path a fit also holds up to two distance
blocks of 34 MB each, and a fitted model keeps only its own arrays. The test
suite checks the tracemalloc peak of a fit on 47 000 x 4 points (tree path)
against 160 MB, on 10 000 x 20 points (dense path) against 512 MB and on
20 000 x 4 points with 1000 duplicates against 250 MB, and checks that a
fitted model holds at most 1.5 times the bytes of its arrays.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import cKDTree
from scipy.spatial.distance import cdist

from . import parallel

DEFAULT_K = 20
DEFAULT_CONTAMINATION = 0.10

# Stand-in density for duplicate collapse; ratios of sentinels are exactly 1.
_DUPLICATE_LRD = 1.0e12

# Cap on distance-matrix entries held at once on the dense path.
_CHUNK_ELEMENTS = 2**22

# Highest dimension served by the k-d tree; above it the dense path is faster.
_TREE_MAX_DIM = 12

# Tree candidates beyond the k nearest, so that ties rarely need a dense search.
_TREE_EXTRA = 8

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
    return cKDTree(train) if train.shape[1] <= _TREE_MAX_DIM else None


def _distances(queries, train, cols):
    """Euclidean distances of query rows to ``train[cols]``, (m, c).

    Squared differences are summed one dimension at a time, the order cdist
    uses, so the results equal cdist's to the bit (checked against scipy
    1.17.1 at 1 to 24 dimensions).
    """
    sq = np.zeros(cols.shape)
    for j in range(train.shape[1]):
        diff = queries[:, j, None] - train[cols, j]
        sq += diff * diff
    return np.sqrt(sq)


def _dense_pairs(queries, train, k, self_cols):
    """(kdist, row, col, dist) of every neighbour from full distance rows.

    ``self_cols`` holds each query row's own training index, which is not
    its neighbour, or is None when the queries are not training points.

    The blocks run one after another on the calling thread. Two threads
    scored raw captures about 30% faster, but the ``monitor-tx-raw``
    benchmark keeps every round's segmented captures (about 5.8 MB a
    round), so the extra rounds read as a 6% rise in its peak RSS, past
    that metric's bound. Splitting the blocks waits until the benchmark
    keeps one round's outputs.
    """
    found = []
    chunk = max(1, _CHUNK_ELEMENTS // len(train))
    for lo in range(0, len(queries), chunk):
        dist = cdist(queries[lo : lo + chunk], train)
        if self_cols is not None:
            dist[np.arange(len(dist)), self_cols[lo : lo + chunk]] = np.inf
        # a copy: a view would keep the whole partitioned block alive
        kd = np.partition(dist, k - 1, axis=1)[:, k - 1].copy()
        rows, cols = np.nonzero(dist <= kd[:, None])
        found.append((kd, rows + lo, cols, dist[rows, cols]))
    return [np.concatenate(parts) for parts in zip(*found)]


def _tree_pairs(queries, train, k, self_cols, tree):
    """(kdist, row, col, dist) of every neighbour from k-d tree candidates."""
    n = len(train)
    width = min(n, k + _TREE_EXTRA + int(self_cols is not None))
    cand_dist, cand = tree.query(queries, k=width, workers=parallel.WORKERS)
    cand.sort(axis=1)
    dist = _distances(queries, train, cand)
    if self_cols is not None:
        dist[cand == self_cols[:, None]] = np.inf
    kd = np.partition(dist, k - 1, axis=1)[:, k - 1].copy()
    keep = dist <= kd[:, None]
    # a row whose farthest candidate ties its k-distance may have more ties
    # beyond the candidates: the dense path searches it in full
    redo = np.empty(0, dtype=np.int64)
    if width < n:
        redo = np.flatnonzero(cand_dist[:, -1] <= kd * (1.0 + _TIE_SLACK))
        keep[redo] = False
    rows, pos = np.nonzero(keep)
    cols, dist = cand[rows, pos], dist[rows, pos]
    if len(redo) == 0:
        return kd, rows, cols, dist

    r_kd, r_rows, r_cols, r_dist = _dense_pairs(
        queries[redo], train, k, None if self_cols is None else self_cols[redo]
    )
    kd[redo] = r_kd
    rows = np.concatenate([rows, redo[r_rows]])
    order = np.argsort(rows, kind="stable")
    return (
        kd,
        rows[order],
        np.concatenate([cols, r_cols])[order],
        np.concatenate([dist, r_dist])[order],
    )


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
