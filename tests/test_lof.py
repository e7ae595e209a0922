import io
import tracemalloc

import numpy as np
import pytest

from a429ids import lof, parallel

from oracles import brute_lof_fit, brute_lof_query


def test_training_scores_match_brute_force():
    rng = np.random.default_rng(100)
    for trial in range(5):
        n = int(rng.integers(60, 200))
        d = int(rng.integers(2, 20))
        x = rng.normal(size=(n, d)) * rng.uniform(0.5, 4.0, size=d)
        model = lof.fit(x, k=20)
        want = np.asarray(brute_lof_fit(x.tolist(), 20))
        assert np.allclose(model.train_scores, want, rtol=1e-9, atol=1e-12)


def test_query_scores_match_brute_force():
    rng = np.random.default_rng(101)
    x = rng.normal(size=(120, 6))
    queries = np.vstack([rng.normal(size=(10, 6)), x[:5] + 1e-12])
    model = lof.fit(x, k=20)
    got = lof.score(model, queries)
    want = np.asarray(brute_lof_query(x.tolist(), queries.tolist(), 20))
    assert np.allclose(got, want, rtol=1e-9, atol=1e-12)


def test_uniform_square_scores_near_one():
    rng = np.random.default_rng(7)
    x = rng.uniform(size=(100, 2))
    model = lof.fit(x, k=20)
    inside = np.mean((model.train_scores >= 0.9) & (model.train_scores <= 1.3))
    assert inside >= 0.85


def test_duplicates_score_one():
    x = np.tile([3.0, -1.0, 2.0], (30, 1))
    model = lof.fit(x, k=20)
    assert np.all(model.train_scores == 1.0)
    assert lof.score(model, [[3.0, -1.0, 2.0]])[0] == 1.0


def test_contamination_quantile_marks_exact_fraction():
    rng = np.random.default_rng(8)
    x = rng.normal(size=(200, 4))
    model = lof.fit(x, k=20, contamination=0.10)
    assert int(np.sum(model.train_scores > model.threshold)) == 20


def test_far_outlier_is_anomalous():
    rng = np.random.default_rng(9)
    x = rng.uniform(size=(150, 3))
    model = lof.fit(x, k=20)
    diameter = np.linalg.norm(x.max(axis=0) - x.min(axis=0))
    far_away = x.mean(axis=0) + 100.0 * diameter
    assert lof.score(model, far_away[None])[0] > 10.0
    assert lof.classify(model, far_away[None])[0]


def test_training_replica_is_normal():
    rng = np.random.default_rng(10)
    x = rng.uniform(size=(200, 2))
    model = lof.fit(x, k=20)
    score = lof.score(model, x[17:18])[0]
    assert 0.8 <= score <= 1.3
    assert not score > model.threshold or score <= 1.3  # deep-cluster point


def test_scoring_is_deterministic():
    rng = np.random.default_rng(11)
    x = rng.normal(size=(80, 5))
    model = lof.fit(x, k=20)
    q = rng.normal(size=(7, 5))
    assert np.array_equal(lof.score(model, q), lof.score(model, q))


def test_threshold_boundary_is_normal():
    rng = np.random.default_rng(12)
    x = rng.normal(size=(100, 3))
    model = lof.fit(x, k=20)
    q = rng.normal(size=3)
    model.threshold = lof.score(model, q[None])[0]  # exactly at the threshold
    assert not lof.classify(model, q[None])[0]


def test_affine_invariance_of_classification():
    rng = np.random.default_rng(13)
    x = rng.normal(size=(150, 4))
    queries = np.vstack([rng.normal(size=(20, 4)), rng.normal(size=(5, 4)) + 8.0])
    model = lof.fit(x, k=20)
    a = rng.uniform(0.2, 5.0, size=4) * rng.choice([-1.0, 1.0], size=4)
    b = rng.uniform(-10.0, 10.0, size=4)
    model2 = lof.fit(x * a + b, k=20)
    s1 = lof.score(model, queries)
    s2 = lof.score(model2, queries * a + b)
    assert np.allclose(s1, s2, rtol=1e-9)
    assert model2.threshold == pytest.approx(model.threshold, rel=1e-9)
    assert np.array_equal(lof.classify(model, queries), lof.classify(model2, queries * a + b))


def test_far_field_monotonicity():
    rng = np.random.default_rng(14)
    x = rng.normal(size=(200, 3))
    model = lof.fit(x, k=20)
    centroid = x.mean(axis=0)
    direction = np.array([1.0, -0.5, 0.25])
    direction /= np.linalg.norm(direction)
    diameter = np.linalg.norm(x.max(axis=0) - x.min(axis=0))
    radii = np.linspace(1.5 * diameter, 30.0 * diameter, 12)
    scores = [lof.score(model, (centroid + r * direction)[None])[0] for r in radii]
    assert all(a <= b + 1e-9 for a, b in zip(scores, scores[1:]))


def test_zero_variance_dimension():
    rng = np.random.default_rng(15)
    x = rng.normal(size=(90, 3))
    padded = np.hstack([x, np.full((90, 1), 2.5)])
    m1 = lof.fit(x, k=20)
    m2 = lof.fit(padded, k=20)
    assert m2.scale[-1] == 1.0
    assert np.allclose(m1.train_scores, m2.train_scores, rtol=1e-12)


def test_validation_errors():
    rng = np.random.default_rng(16)
    with pytest.raises(ValueError):
        lof.fit(rng.normal(size=(21, 2)), k=20)  # needs k + 2
    with pytest.raises(ValueError):
        lof.fit(rng.normal(size=(50, 2)), k=0)
    with pytest.raises(ValueError):
        lof.fit(rng.normal(size=(50, 2)), k=20, contamination=0.0)
    model = lof.fit(rng.normal(size=(50, 2)), k=20)
    with pytest.raises(ValueError):
        lof.score(model, rng.normal(size=(3, 5)))


def _through_npz(record):
    """The record written to an in-memory .npz archive and read back."""
    buffer = io.BytesIO()
    np.savez(buffer, **record)
    buffer.seek(0)
    with np.load(buffer, allow_pickle=False) as archive:
        return dict(archive)


def test_serialization_roundtrip(tmp_path):
    rng = np.random.default_rng(17)
    x = rng.normal(size=(60, 4))
    model = lof.fit(x, k=20)
    path = tmp_path / "model.npz"
    np.savez(path, **lof.model_to_dict(model))
    with np.load(path, allow_pickle=False) as archive:
        record = dict(archive)
    back = lof.model_from_dict(record)
    q = rng.normal(size=(9, 4))
    assert np.array_equal(lof.score(model, q), lof.score(back, q))
    assert back.threshold == model.threshold
    # the record holds k, the threshold and the arrays, each to the bit
    assert set(record) == {
        "k", "threshold", "train", "kdist", "lrd", "train_scores", "mean", "scale"
    }
    assert back.k == model.k
    assert np.float64(back.threshold).tobytes() == np.float64(model.threshold).tobytes()
    for name in lof.RECORD_FIELDS[2:]:
        want, got = getattr(model, name), getattr(back, name)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


_CORRUPTIONS = {
    "train 1-d": ("train", lambda r: r.update(train=r["train"][0])),
    "k zero": ("k", lambda r: r.update(k=0)),
    "k above n - 2": ("k", lambda r: r.update(k=len(r["train"]) - 1)),
    "kdist short": ("kdist", lambda r: r.update(kdist=r["kdist"][:-1])),
    "lrd long": ("lrd", lambda r: r.update(lrd=np.concatenate([r["lrd"], np.ones(5)]))),
    "train_scores 2-d": ("train_scores", lambda r: r.update(train_scores=r["train_scores"][None])),
    "mean short": ("mean", lambda r: r.update(mean=r["mean"][:-1])),
    "scale long": ("scale", lambda r: r.update(scale=np.append(r["scale"], 1.0))),
}


@pytest.mark.parametrize("case", sorted(_CORRUPTIONS))
def test_load_rejects_inconsistent_record(case):
    field_name, change = _CORRUPTIONS[case]
    model = lof.fit(np.random.default_rng(18).normal(size=(60, 4)), k=20)
    record = _through_npz(lof.model_to_dict(model))
    change(record)
    with pytest.raises(ValueError, match=f"field '{field_name}'"):
        lof.model_from_dict(record)


# ---------------------------------------------------------------------------
# Neighbour paths: the k-d tree (low dimension) and the dense blocks must
# agree to the bit, ties and duplicates included.


def _lattice(side, dim):
    axes = np.meshgrid(*[np.arange(float(side))] * dim, indexing="ij")
    return np.stack(axes, axis=-1).reshape(-1, dim)


def _duplicate_cluster():
    rng = np.random.default_rng(30)
    x = rng.normal(size=(400, 5))
    x[50:90] = x[3]  # 41 copies of one point: more than k + the spare candidates
    return x


_PATH_DATA = {
    "lattice": lambda: _lattice(6, 4),
    "duplicates": _duplicate_cluster,
    "random": lambda: np.random.default_rng(31).normal(size=(3000, 8)),
}


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("name", sorted(_PATH_DATA))
def test_tree_and_dense_paths_agree_bitwise(name, workers, monkeypatch):
    monkeypatch.setattr(parallel, "WORKERS", workers)
    x = _PATH_DATA[name]()
    rng = np.random.default_rng(32)
    queries = np.vstack([x[::7], x[:40] + 0.5, rng.normal(size=(50, x.shape[1]))])
    assert x.shape[1] <= lof._TREE_MAX_DIM
    tree_model = lof.fit(x, k=20)
    assert tree_model.tree is not None
    monkeypatch.setattr(lof, "_TREE_MAX_DIM", 0)
    dense_model = lof.fit(x, k=20)
    assert dense_model.tree is None

    z = tree_model.train
    zq = (queries - tree_model.mean) / tree_model.scale
    screen_rows = lof._screen_rows
    redo_rows = []

    def counting_screen_rows(q, *args):
        redo_rows.append(len(q))
        return screen_rows(q, *args)

    for q, self_rows in ((z, True), (zq, False)):
        dense = lof._neighbours(q, z, 20, None, self_rows=self_rows)
        monkeypatch.setattr(lof, "_screen_rows", counting_screen_rows)
        tree = lof._neighbours(q, z, 20, tree_model.tree, self_rows=self_rows)
        monkeypatch.setattr(lof, "_screen_rows", screen_rows)
        for got, want in zip(tree, dense):
            assert got.dtype == want.dtype and np.array_equal(got, want)
    # on tie-heavy data some rows' ties outnumber the tree's candidates
    assert (sum(redo_rows) > 0) == (name != "random")

    assert np.array_equal(tree_model.kdist, dense_model.kdist)
    assert np.array_equal(tree_model.lrd, dense_model.lrd)
    assert np.array_equal(tree_model.train_scores, dense_model.train_scores)
    assert tree_model.threshold == dense_model.threshold
    assert np.array_equal(lof.score(tree_model, queries), lof.score(dense_model, queries))


def test_tree_path_lattice_matches_brute_force():
    # ties at the k-distance outnumber the tree's candidates (dense fallback)
    scale = np.array([1.0, 2.0, 0.5, 3.0])
    x = _lattice(4, 4) * scale
    rng = np.random.default_rng(36)
    queries = np.vstack([x[::9], rng.uniform(-0.5, 3.5, size=(30, 4)) * scale])
    model = lof.fit(x, k=20)
    assert model.tree is not None
    want = np.asarray(brute_lof_fit(x.tolist(), 20))
    assert np.allclose(model.train_scores, want, rtol=1e-9, atol=1e-12)
    got_q = lof.score(model, queries)
    want_q = np.asarray(brute_lof_query(x.tolist(), queries.tolist(), 20))
    assert np.allclose(got_q, want_q, rtol=1e-9, atol=1e-12)


def test_loaded_model_rebuilds_tree_and_scores_identically():
    rng = np.random.default_rng(33)
    for dim in (4, 20):
        model = lof.fit(rng.normal(size=(300, dim)), k=20)
        back = lof.model_from_dict(_through_npz(lof.model_to_dict(model)))
        assert (back.tree is None) == (dim > lof._TREE_MAX_DIM)
        q = rng.normal(size=(25, dim))
        assert np.array_equal(lof.score(model, q), lof.score(back, q))


# ---------------------------------------------------------------------------
# Memory: a fit's tracemalloc high-water mark stays well below the n^2
# distance matrix on both paths.


def _fit_peak_mb(points):
    tracemalloc.start()
    try:
        lof.fit(points, k=20)
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def test_dense_fit_memory_is_bounded():
    x = np.random.default_rng(34).normal(size=(10_000, 20))
    assert x.shape[1] > lof._TREE_MAX_DIM
    assert _fit_peak_mb(x) < 512.0  # the full distance matrix alone is 800 MB


def test_tree_fit_memory_is_bounded():
    x = np.random.default_rng(35).normal(size=(47_000, 4))
    assert _fit_peak_mb(x) < 160.0


def test_duplicate_cluster_fit_memory_is_bounded():
    x = np.random.default_rng(37).normal(size=(20_000, 4))
    x[:1000] = x[0]  # each copy's neighbourhood holds the other 999
    assert _fit_peak_mb(x) < 250.0


def test_fitted_model_holds_only_its_arrays():
    x = np.random.default_rng(38).normal(size=(47_000, 4))
    tracemalloc.start()
    try:
        model = lof.fit(x, k=20)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    arrays = (model.train, model.kdist, model.lrd, model.mean, model.scale, model.train_scores)
    assert held <= 1.5 * sum(a.nbytes for a in arrays)
