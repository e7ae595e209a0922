"""Row-split kernels: the same bytes for any worker count.

``parallel.WORKERS`` is monkeypatched; every output must equal the
one-worker output to the bit, from LOF's kernels up to the files the
command line writes.
"""

import inspect
import os
import threading

import numpy as np
import pytest

from a429ids import bus, detector, evaluation as ev, features, lof, parallel, segmentation
from a429ids.bus import ReceiverLoad, TransmitterProfile
from a429ids.cli import main

from conftest import segment_batch, write_scenario


def test_workers_follow_affinity():
    if hasattr(os, "sched_getaffinity"):
        assert parallel.WORKERS == len(os.sched_getaffinity(0))
    else:
        assert parallel.WORKERS == (os.cpu_count() or 1)


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("rows", [0, 1, 2, 3, 101])
def test_polynomial_split_is_bitwise(workers, rows):
    """A polynomial group cut into ``workers`` row blocks gives the whole
    group's bits: a row does not depend on its group, so the kernel runs
    unsplit on the calling thread."""
    x = np.random.default_rng(rows).normal(size=(rows, 20))
    got = np.concatenate(
        [features._polynomial_rows(block, 7) for block in np.array_split(x, workers)]
    )
    want = features._polynomial_rows(x, 7)
    assert got.shape == want.shape == (rows, 9)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("workers, rows", [(1, 50), (3, 2)])
def test_plain_call_starts_no_thread(monkeypatch, workers, rows):
    """With one worker, or fewer query rows than workers, LOF's kernels (the
    k-d tree at 4 dimensions, the dense screen at 20) are one plain call: no
    pool, and the one-worker bits."""
    def no_pool():
        raise AssertionError("the pool was used")

    for dim in (4, 20):
        rng = np.random.default_rng(dim)
        train, queries = rng.normal(size=(50, dim)), rng.normal(size=(rows, dim))
        monkeypatch.setattr(parallel, "WORKERS", 1)
        want = lof.fit(train, k=5)
        want_scores = lof.score(want, queries)
        with monkeypatch.context() as mp:
            mp.setattr(parallel, "WORKERS", workers)
            mp.setattr(parallel, "_pool", no_pool)
            if workers == 1:  # a fit's query rows are its 50 training points
                got = lof.fit(train, k=5)
                for name in ("kdist", "lrd", "train_scores"):
                    assert getattr(got, name).tobytes() == getattr(want, name).tobytes()
            assert lof.score(want, queries).tobytes() == want_scores.tobytes()


def test_polynomial_features_start_no_thread(monkeypatch):
    """The polynomial kernel is not row-split: it never uses the pool."""
    def no_pool():
        raise AssertionError("the pool was used")

    monkeypatch.setattr(parallel, "WORKERS", 3)
    monkeypatch.setattr(parallel, "_pool", no_pool)
    x = np.random.default_rng(0).normal(size=(101, 20))
    segments = [segmentation.Segment(segmentation.SegmentType.HI, row, 0) for row in x]
    out = features.extract_batch(features.FeatureSet.POLYNOMIAL, segment_batch(segments))
    (positions, matrix), = out.values()
    assert positions.tolist() == list(range(101)) and matrix.shape == (101, 9)


# ---------------------------------------------------------------------------
# the command line, end to end


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """A small receiver-switch scenario and a guarded and a rogue trace of it."""
    work = tmp_path_factory.mktemp("parallel")
    tx = TransmitterProfile(noise_sigma=0.10, overshoot_frac=0.03)
    scenario = ev.Scenario(
        guarded=ev.BusSetup(tx=tx, loads=(ReceiverLoad(cutoff_freq=1.2e6),)),
        rogues=(ev.BusSetup(tx=tx, loads=(ReceiverLoad(cutoff_freq=0.9e6, gain=0.998),)),),
        attack_kind="rx_switch", words_per_device=500, seed=5,
    )
    scenario_path = work / "scenario.json"
    write_scenario(scenario, scenario_path)
    for device, name, seed in (("guarded", "train.bin", "6"), ("rogue:0", "rogue.bin", "7")):
        assert main([
            "synth", "--scenario", str(scenario_path), "--device", device,
            "--words", "60", "--seed", seed, "--out", str(work / name),
        ]) == 0
    return work


def _cli_outputs(inputs, out):
    """Bytes of an eval report and its CSVs, a detector bundle and a run CSV."""
    out.mkdir()
    assert main([
        "eval", "--scenario", str(inputs / "scenario.json"), "--feature-set", "polynomial",
        "--reps", "200", "--max-t-suspicion", "20", "--out", str(out / "report.json"),
    ]) == 0
    assert main([
        "train", "--trace", str(inputs / "train.bin"), "--feature-set", "polynomial",
        "--out", str(out / "model.npz"),
    ]) == 0
    assert main([
        "run", "--model", str(out / "model.npz"), "--trace", str(inputs / "rogue.bin"),
        "--t-suspicion", "5", "--out", str(out / "run.csv"),
    ]) == 0
    names = (
        "report.json", "report_curves.csv", "report_counter_far.csv",
        "report_detection_time.csv", "model.npz", "run.csv",
    )
    return {name: (out / name).read_bytes() for name in names}


@pytest.fixture(scope="module")
def one_worker_outputs(inputs):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(parallel, "WORKERS", 1)
        return _cli_outputs(inputs, inputs / "workers-1")


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_outputs_do_not_depend_on_workers(inputs, one_worker_outputs, monkeypatch, workers):
    """The k-d tree blocks' row split, under polynomial features. The pool
    is used only with more than one worker, and only from the calling
    thread: a tree block, tie redo included, never submits."""
    callers = []
    real_pool = parallel._pool
    monkeypatch.setattr(
        parallel, "_pool", lambda: callers.append(threading.get_ident()) or real_pool()
    )
    monkeypatch.setattr(parallel, "WORKERS", workers)
    got = _cli_outputs(inputs, inputs / f"run-{workers}")
    assert got == one_worker_outputs
    assert set(callers) == (set() if workers == 1 else {threading.get_ident()})


def _raw_outputs(inputs, out):
    """Bytes of a raw-feature detector bundle and its run CSV: LOF's dense
    screen, in training and in scoring."""
    out.mkdir()
    assert main([
        "train", "--trace", str(inputs / "train.bin"), "--feature-set", "raw",
        "--out", str(out / "model.npz"),
    ]) == 0
    assert main([
        "run", "--model", str(out / "model.npz"), "--trace", str(inputs / "rogue.bin"),
        "--t-suspicion", "5", "--out", str(out / "run.csv"),
    ]) == 0
    return {name: (out / name).read_bytes() for name in ("model.npz", "run.csv")}


@pytest.fixture(scope="module")
def one_worker_raw_outputs(inputs):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(parallel, "WORKERS", 1)
        return _raw_outputs(inputs, inputs / "raw-workers-1")


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_raw_outputs_do_not_depend_on_workers(
    inputs, one_worker_raw_outputs, monkeypatch, workers
):
    """The dense screen's row split. The pool is used only with more than
    one worker, and only from the calling thread: a block never submits."""
    callers = []
    real_pool = parallel._pool
    monkeypatch.setattr(
        parallel, "_pool", lambda: callers.append(threading.get_ident()) or real_pool()
    )
    monkeypatch.setattr(parallel, "WORKERS", workers)
    got = _raw_outputs(inputs, inputs / f"raw-{workers}")
    assert got == one_worker_raw_outputs
    assert set(callers) == (set() if workers == 1 else {threading.get_ident()})


def test_public_functions_stay_on_the_calling_thread(inputs, monkeypatch):
    """Only private kernels run on the pool: a traced run keeps one span
    stack, so every public function is called from the calling thread."""
    threads = set()

    def on_thread(fn):
        def wrapper(*args, **kwargs):
            threads.add(threading.get_ident())
            return fn(*args, **kwargs)
        return wrapper

    for module in (bus, segmentation, features, lof, detector, ev):
        for name, fn in vars(module).items():
            if inspect.isfunction(fn) and fn.__module__ == module.__name__ and not name.startswith("_"):
                monkeypatch.setattr(module, name, on_thread(fn))
    monkeypatch.setattr(parallel, "WORKERS", 2)
    scenario = ev.load_scenario(inputs / "scenario.json")
    ev.build_report(scenario, features.FeatureSet.POLYNOMIAL, reps=20, t_suspicion_grid=(1, 5))
    assert threads == {threading.get_ident()}
