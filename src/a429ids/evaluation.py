"""Experimental protocol on synthetic device populations.

A scenario pins a guarded transmitter (with its receiver loads) against one
or more rogue variants. The single-word evaluation trains on 60% of the
guarded words, measures the false-alarm rate on the held-out 40% and the
misdetection rate on rogue words, and sweeps the voting threshold to get
an EER. The complete-method evaluations reuse the held-out per-word labels:
the counter false-alarm protocol replays the same test words under random
cyclic shifts, and the detection-time protocol measures words-until-alarm
on rogue streams the same way, all repetitions and thresholds at once
through `detector.first_passage`. `build_report` is the one entry point:
one synthesis and training pass gives every result as a field of its
`Report`. Everything derives from the scenario seed, so reports are
byte-identical across runs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import bus, detector as det, lof, markov, segmentation, words as words_mod
from .bus import ReceiverLoad, TransmitterProfile
from .features import FeatureSet
from .markov import DEFAULT_WORDS_PER_SECOND

ATTACK_KINDS = ("tx_switch", "rx_switch", "rx_addition")
DEFAULT_WORDS_PER_DEVICE = 4920
MIN_WORDS_PER_DEVICE = 500
TRAIN_FRACTION = 0.60
DEFAULT_T_VOTES = 100
DEFAULT_REPS = 1000
DEFAULT_T_SUSPICION_GRID = tuple(range(1, 51))
WORD_OCCUPANCY_BITS = 36.0  # 32 data bits + minimum 4-bit gap

# Sub-seed purposes, mixed with the scenario seed (see _device_seed/_rng).
_SEED_GUARDED = 0
_SEED_ROGUE_BASE = 100
_SEED_FAR_SHIFTS = 1
_SEED_TIME_SHIFTS = 2


@dataclass(frozen=True)
class BusSetup:
    """One transmitter with the receiver loads hanging off its line."""

    tx: TransmitterProfile
    loads: tuple[ReceiverLoad, ...] = (ReceiverLoad(),)


@dataclass(frozen=True)
class Scenario:
    guarded: BusSetup
    rogues: tuple[BusSetup, ...]
    attack_kind: str = "tx_switch"
    words: tuple[int, ...] = words_mod.DEFAULT_WORD_SET
    words_per_device: int = DEFAULT_WORDS_PER_DEVICE
    seed: int = 0
    sample_rate: float | None = None  # None: 50 samples per bit
    gap_bits: int = bus.MIN_GAP_BITS

    def validate(self) -> None:
        self.guarded.tx.validate()
        if not self.rogues:
            raise ValueError("scenario needs at least one rogue variant")
        for rogue in self.rogues:
            rogue.tx.validate()
        if self.attack_kind not in ATTACK_KINDS:
            raise ValueError(f"attack_kind must be one of {ATTACK_KINDS}")
        if not self.words:
            raise ValueError("scenario needs at least one word value")
        for value in self.words:
            words_mod.check_word(value)
        check_at_least("words_per_device", self.words_per_device, MIN_WORDS_PER_DEVICE)
        check_at_least("seed", self.seed, 0)


@dataclass
class ErrorCurves:
    """FAR and MDR as functions of t_votes = 0..127."""

    far: np.ndarray
    mdr: np.ndarray


@dataclass
class DetectionTimeStat:
    """Words (and seconds) until the alarm at one t_suspicion, over ``reps``
    repetitions, each an independent cyclic shift of a rogue stream. Those
    that end unalarmed are ``censored`` and left out of the max and mean
    (None if all are); t_suspicion words are a hard lower bound on both."""

    max_words: int | None
    mean_words: float | None
    censored: int
    reps: int
    max_seconds: float | None = None
    mean_seconds: float | None = None


@dataclass
class Report:
    feature_set: str
    t_votes: int
    curves: ErrorCurves
    eer: float
    fa_per_sec: float
    counter_far: dict[int, float]
    detection_time: dict[int, DetectionTimeStat]
    words_per_s: float
    reps: int
    seed: int


# ---------------------------------------------------------------------------
# Scenario plumbing


def _rng(scenario_seed: int, purpose: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([scenario_seed, purpose]))


def _device_seed(scenario_seed: int, purpose: int) -> int:
    return int(_rng(scenario_seed, purpose).integers(0, 2**63))


def check_at_least(name: str, value: int, low: int = 1) -> int:
    """Check that the integer argument ``name`` is at least ``low``; returns it as an int."""
    value = int(value)
    if value < low:
        raise ValueError(f"{name} must be >= {low}, got {value}")
    return value


def check_test_words(scenario: Scenario, test_words: int | None) -> int:
    """Held-out words per counter-FAR repetition: ``test_words``, or if None
    all that `_prepare` holds out (the words after the first 60%)."""
    held_out = scenario.words_per_device - round(TRAIN_FRACTION * scenario.words_per_device)
    test_words = held_out if test_words is None else check_at_least("test_words", test_words)
    if test_words > held_out:
        raise ValueError(f"test set has {held_out} words, need {test_words}")
    return test_words


def _word_list(scenario: Scenario) -> list[int]:
    values = scenario.words
    return [values[i % len(values)] for i in range(scenario.words_per_device)]


def _device_segments(scenario: Scenario, setup: BusSetup, purpose: int):
    trace = bus.synthesize_stream(
        setup.tx,
        setup.loads,
        _word_list(scenario),
        gap_bits=scenario.gap_bits,
        seed=_device_seed(scenario.seed, purpose),
        sample_rate=scenario.sample_rate,
    )
    return segmentation.segment_stream(trace), trace


def _prepare(
    scenario: Scenario, set_id: FeatureSet, t_votes: int, k: int, contamination: float
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Normal votes of the held-out guarded words and votes of each rogue's
    words, from a detector trained on the first 60% of the guarded words."""
    normal, trace = _device_segments(scenario, scenario.guarded, _SEED_GUARDED)
    n_train = round(TRAIN_FRACTION * len(normal))
    trained = det.train_detector(
        normal[:n_train], set_id, t_votes,
        k=k, contamination=contamination, sample_interval=1.0 / trace.sample_rate,
    )
    _, test_votes = det.classify_words(trained, normal[n_train:])
    # the guarded table and trace are not needed past here; free them before
    # a rogue's peak
    del normal, trace
    rogue_votes = []
    for ri, rogue in enumerate(scenario.rogues):
        table, _ = _device_segments(scenario, rogue, _SEED_ROGUE_BASE + ri)
        rogue_votes.append(det.classify_words(trained, table)[1])
    return test_votes, rogue_votes


def _curves_from_votes(normal_votes: np.ndarray, rogue_votes: list[np.ndarray]) -> ErrorCurves:
    normal_counts = np.bincount(normal_votes, minlength=128)[:128]
    far = np.cumsum(normal_counts) / len(normal_votes)
    pooled = np.concatenate(rogue_votes)
    rogue_counts = np.bincount(pooled, minlength=128)[:128]
    mdr = 1.0 - np.cumsum(rogue_counts) / len(pooled)
    return ErrorCurves(far=far, mdr=mdr)


# ---------------------------------------------------------------------------
# Single-word protocol


def compute_eer(curves: ErrorCurves) -> float:
    """Rate at which the FAR equals the MDR.

    FAR is non-decreasing and MDR non-increasing in the threshold, so their
    difference crosses zero once; the crossing is linearly interpolated
    between adjacent thresholds. An interval where both rates are exactly
    equal (e.g. both zero) gives that common rate directly.
    """
    far = np.asarray(curves.far, dtype=np.float64)
    mdr = np.asarray(curves.mdr, dtype=np.float64)
    if far.shape != mdr.shape or far.ndim != 1 or len(far) < 2:
        raise ValueError("curves must be equal-length 1-d arrays")
    diff = far - mdr
    exact = np.nonzero(diff == 0.0)[0]
    if len(exact):
        return float(far[exact[0]])
    sign_change = np.nonzero(np.diff(np.sign(diff)) != 0)[0]
    if len(sign_change):
        t = sign_change[0]
        u = -diff[t] / (diff[t + 1] - diff[t])
        return float(far[t] + u * (far[t + 1] - far[t]))
    # no crossing inside the threshold range: report the closest point
    t = int(np.argmin(np.abs(diff)))
    return float(0.5 * (far[t] + mdr[t]))


def fa_per_sec(eer: float, bit_rate: float = bus.DEFAULT_BIT_RATE) -> float:
    """False alarms per second: the EER times the message rate."""
    if not 0.0 <= eer <= 1.0:
        raise ValueError(f"eer must be in [0, 1], got {eer}")
    return eer * bit_rate / WORD_OCCUPANCY_BITS


# ---------------------------------------------------------------------------
# Complete-method protocols (counter on top of the votes)


def _shifted_first_passage(labels, reps: int, max_level: int, rng: np.random.Generator):
    """`detector.first_passage` over ``reps`` random cyclic shifts of one
    label stream."""
    n = len(labels)
    shifts = rng.integers(0, n, size=reps)
    return det.first_passage(np.asarray(labels)[(np.arange(n) + shifts[:, None]) % n], max_level)


def _counter_far_from_labels(
    labels: np.ndarray, reps: int, grid, rng: np.random.Generator
) -> dict[int, float]:
    top = min(max(grid), len(labels))  # no counter climbs above the stream length
    hits = _shifted_first_passage(labels, reps, top, rng)
    return {int(ts): float(np.mean(hits[:, ts] > 0)) if ts <= top else 0.0 for ts in grid}


def _detection_time_from_labels(
    per_variant_labels, reps: int, grid, rng: np.random.Generator, words_per_s: float
) -> dict[int, DetectionTimeStat]:
    top = min(max(grid), max(map(len, per_variant_labels)))  # no higher level is reached
    hits = np.vstack([
        _shifted_first_passage(labels, reps, top, rng) for labels in per_variant_labels
    ])
    out: dict[int, DetectionTimeStat] = {}
    for ts in grid:
        times = hits[:, ts] if ts <= top else np.zeros(len(hits), dtype=np.int64)
        observed = times[times > 0]
        stat = DetectionTimeStat(None, None, censored=len(times) - len(observed), reps=len(times))
        if len(observed):
            stat.max_words, stat.mean_words = int(observed.max()), float(observed.mean())
            stat.max_seconds = float(observed.max() / words_per_s)
            stat.mean_seconds = float(observed.mean() / words_per_s)
        out[int(ts)] = stat
    return out


def build_report(
    scenario: Scenario,
    set_id: FeatureSet,
    t_votes: int = DEFAULT_T_VOTES,
    reps: int = DEFAULT_REPS,
    test_words: int | None = None,
    t_suspicion_grid=DEFAULT_T_SUSPICION_GRID,
    words_per_s: float = DEFAULT_WORDS_PER_SECOND,
    k: int = lof.DEFAULT_K,
    contamination: float = lof.DEFAULT_CONTAMINATION,
) -> Report:
    """Run the whole protocol once (one synthesis + training pass).

    The detector trains on the first 60% of the guarded words; the curves
    sweep t_votes 0..127, FAR on the held-out 40% and MDR on the rogue words.
    ``counter_far`` is, per t_suspicion, the share of ``reps`` cyclic shifts
    of the first ``test_words`` held-out labels (default: all) that alarmed.
    Labels are the votes thresholded at ``t_votes``; the votes ignore it.
    Every argument is checked before any synthesis.
    """
    scenario.validate()
    t_votes = det.check_t_votes(t_votes)
    k, contamination = lof.check_k(k), lof.check_contamination(contamination)
    markov.check_words_per_s(words_per_s)
    grid = list(t_suspicion_grid)
    reps = check_at_least("reps", reps)
    if not grid:
        raise ValueError("t_suspicion_grid is empty")
    markov.check_t(min(grid), "t_suspicion_grid values")
    test_words = check_test_words(scenario, test_words)
    test_votes, rogue_votes = _prepare(scenario, set_id, t_votes, k, contamination)
    curves = _curves_from_votes(test_votes, rogue_votes)
    eer = compute_eer(curves)
    counter_far = _counter_far_from_labels(
        test_votes[:test_words] <= t_votes, reps, grid, _rng(scenario.seed, _SEED_FAR_SHIFTS)
    )
    detection = _detection_time_from_labels(
        [votes <= t_votes for votes in rogue_votes],
        reps, grid, _rng(scenario.seed, _SEED_TIME_SHIFTS), words_per_s,
    )
    return Report(
        feature_set=set_id.value,
        t_votes=t_votes,
        curves=curves,
        eer=eer,
        fa_per_sec=fa_per_sec(eer, scenario.guarded.tx.bit_rate),
        counter_far=counter_far,
        detection_time=detection,
        words_per_s=words_per_s,
        reps=reps,
        seed=scenario.seed,
    )


# ---------------------------------------------------------------------------
# Rogue-variant helpers for the receiver attack kinds


def rx_switch_variant(
    setup: BusSetup, cutoff_factor: float = 0.7, gain_factor: float = 0.995
) -> BusSetup:
    """Replace a receiver and its stretch of line: the load cutoff moves by
    a moderate factor and the line gain shifts slightly."""
    if not setup.loads:
        raise ValueError("setup has no receiver loads to switch")
    first = setup.loads[0]
    switched = ReceiverLoad(
        cutoff_freq=first.cutoff_freq * cutoff_factor, gain=first.gain * gain_factor
    )
    return BusSetup(tx=setup.tx, loads=(switched,) + setup.loads[1:])


def rx_addition_variant(setup: BusSetup, cutoff_freq: float = 8.0e6) -> BusSetup:
    """Attach one extra mild load; deliberately within a whisker of the
    guarded setup, since an added receiver barely alters the line."""
    return BusSetup(tx=setup.tx, loads=setup.loads + (ReceiverLoad(cutoff_freq=cutoff_freq),))


# ---------------------------------------------------------------------------
# JSON codecs


def _setup_from_dict(data: dict) -> BusSetup:
    unknown = set(data) - {"tx", "loads"}
    if unknown:
        raise ValueError(f"unknown device keys: {sorted(unknown)}")
    return BusSetup(
        tx=bus.profile_from_dict(data["tx"]),
        loads=tuple(bus.load_from_dict(d) for d in data.get("loads", [])),
    )


_SCENARIO_KEYS = {
    "attack_kind", "guarded", "rogues", "words", "words_per_device",
    "seed", "sample_rate", "gap_bits",
}


def scenario_from_dict(data: dict) -> Scenario:
    if not isinstance(data, dict):
        raise ValueError("scenario must be a JSON object")
    unknown = set(data) - _SCENARIO_KEYS
    if unknown:
        raise ValueError(f"unknown scenario keys: {sorted(unknown)}")
    missing = {"guarded", "rogues"} - set(data)
    if missing:
        raise ValueError(f"scenario missing keys: {sorted(missing)}")
    scenario = Scenario(
        guarded=_setup_from_dict(data["guarded"]),
        rogues=tuple(_setup_from_dict(d) for d in data["rogues"]),
        attack_kind=data.get("attack_kind", "tx_switch"),
        words=(
            tuple(words_mod.parse_word(w) for w in data["words"])
            if "words" in data else words_mod.DEFAULT_WORD_SET
        ),
        words_per_device=int(data.get("words_per_device", DEFAULT_WORDS_PER_DEVICE)),
        seed=int(data.get("seed", 0)),
        sample_rate=(
            float(data["sample_rate"]) if data.get("sample_rate") is not None else None
        ),
        gap_bits=int(data.get("gap_bits", bus.MIN_GAP_BITS)),
    )
    scenario.validate()
    return scenario


def load_scenario(path) -> Scenario:
    with open(path) as fh:
        return scenario_from_dict(json.load(fh))


def report_to_dict(report: Report) -> dict:
    return {
        "feature_set": report.feature_set,
        "t_votes": report.t_votes,
        "eer": report.eer,
        "fa_per_sec": report.fa_per_sec,
        "curves": {
            "t_votes": list(range(128)),
            "far": report.curves.far.tolist(),
            "mdr": report.curves.mdr.tolist(),
        },
        "counter_far": {str(ts): v for ts, v in sorted(report.counter_far.items())},
        "detection_time": {
            str(ts): {
                "max_words": stat.max_words,
                "mean_words": stat.mean_words,
                "max_seconds": stat.max_seconds,
                "mean_seconds": stat.mean_seconds,
                "censored": stat.censored,
                "reps": stat.reps,
            }
            for ts, stat in sorted(report.detection_time.items())
        },
        "words_per_s": report.words_per_s,
        "reps": report.reps,
        "seed": report.seed,
    }


def save_report(report: Report, path) -> None:
    with open(path, "w") as fh:
        json.dump(report_to_dict(report), fh, sort_keys=True, indent=2)
