"""Row-split kernels: the same bytes for any worker count.

``parallel.WORKERS`` is monkeypatched; every output must equal the
one-worker output to the bit, from the polynomial kernel up to the files
the command line writes.
"""

import inspect
import os
import threading
import types

import numpy as np
import pytest

from a429ids import bus, detector, evaluation as ev, features, lof, parallel, segmentation
from a429ids.bus import ReceiverLoad, TransmitterProfile
from a429ids.cli import main


def test_workers_follow_affinity():
    if hasattr(os, "sched_getaffinity"):
        assert parallel.WORKERS == len(os.sched_getaffinity(0))
    else:
        assert parallel.WORKERS == (os.cpu_count() or 1)


def _unsplit_polynomial_rows(x, degree):
    """The kernel as one gufunc call over the whole group."""
    n = x.shape[1]
    vand = np.vander(np.linspace(0.0, 1.0, n), degree + 1, increasing=True)
    rcond = np.finfo(np.float64).eps * max(n, degree + 1)
    coef, _, _, _ = features._umath_linalg.lstsq(
        vand, x[:, :, None], rcond, signature="ddd->ddid"
    )
    residual = np.sum(((vand @ coef)[:, :, 0] - x) ** 2, axis=1)
    return np.column_stack([coef[:, :, 0], residual])


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("rows", [0, 1, 2, 3, 101])
def test_polynomial_split_is_bitwise(monkeypatch, workers, rows):
    x = np.random.default_rng(rows).normal(size=(rows, 20))
    monkeypatch.setattr(parallel, "WORKERS", workers)
    got = features._polynomial_rows(x, 7)
    want = _unsplit_polynomial_rows(x, 7)
    assert got.shape == want.shape == (rows, 9)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("workers, rows", [(1, 50), (3, 2)])
def test_plain_call_starts_no_thread(monkeypatch, workers, rows):
    def no_pool():
        raise AssertionError("the pool was used")

    monkeypatch.setattr(parallel, "WORKERS", workers)
    monkeypatch.setattr(parallel, "_pool", no_pool)
    x = np.random.default_rng(0).normal(size=(rows, 20))
    assert features._polynomial_rows(x, 7).tobytes() == _unsplit_polynomial_rows(x, 7).tobytes()


@pytest.mark.parametrize("workers", [2, 3])
def test_lstsq_error_is_raised_from_a_pool_block(monkeypatch, workers):
    """An SVD that fails to converge in a block solved on a pool thread
    still raises ``LinAlgError``: the error state is entered in the block,
    not inherited from the caller's thread."""
    x = np.arange(60 * 20, dtype=np.float64).reshape(60, 20)
    real = features._umath_linalg.lstsq

    def lstsq(vand, b, rcond, signature):
        if b[0, 0, 0] != x[0, 0]:  # not the first block
            np.sqrt(np.array(-1.0))  # raises the floating-point invalid flag
        return real(vand, b, rcond, signature=signature)

    monkeypatch.setattr(parallel, "WORKERS", workers)
    monkeypatch.setattr(features, "_umath_linalg", types.SimpleNamespace(lstsq=lstsq))
    with pytest.raises(np.linalg.LinAlgError, match="SVD did not converge"):
        features._polynomial_rows(x, 7)


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
    ev.save_scenario(scenario, scenario_path)
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
    splits = []
    real_pool = parallel._pool
    monkeypatch.setattr(parallel, "_pool", lambda: splits.append(workers) or real_pool())
    monkeypatch.setattr(parallel, "WORKERS", workers)
    got = _cli_outputs(inputs, inputs / f"run-{workers}")
    assert got == one_worker_outputs
    # the rows were split whenever there was more than one worker
    assert bool(splits) == (workers > 1)


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
