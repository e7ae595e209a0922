"""One workload in one process: set up, run whole rounds, check, report.

    python3 bench/workload.py --workload NAME --seed N --seconds S --trace 0|1 \
        --started-at T [--setup-only]

``run.py`` starts this script in a fresh process per set-up, passing the
CLOCK_MONOTONIC time it started the process at; use that command. The last
line of standard output is a JSON object: ``setup_s`` (from that time to the
end of set-up, scaled to the reference host speed), the unscaled timings
and, unless ``--setup-only``, the operation counts, the end-to-end or
per-layer metrics and the problems the checks found.
"""

from __future__ import annotations

import argparse
import csv
import json
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import hostspeed  # noqa: E402

# Set-up time is scaled to the reference host speed too, so the probes start
# before the program is imported.
METER = hostspeed.Meter()
METER.start()

import numpy as np  # noqa: E402

import a429ids  # noqa: E402
from a429ids import bus, cli, detector, features, markov, segmentation  # noqa: E402

import oracles  # noqa: E402
import references  # noqa: E402
import tracing  # noqa: E402

# The six word values of the scenarios (all-zero, all-one, both phases of
# single-bit and of pair-wise alternation): together they carry every
# segment type.
WORD_VALUES = (0x00000000, 0xFFFFFFFF, 0x55555555, 0xAAAAAAAA, 0x5A5A5A5A, 0xA5A5A5A5)


def _monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _words(count: int, offset: int = 0) -> list[int]:
    return [WORD_VALUES[(offset + i) % len(WORD_VALUES)] for i in range(count)]


class Round:
    """Timings and outputs of one round. Times are taken with the meter's
    clock, which leaves out the probes; ``scale`` turns them into seconds at
    the reference host speed (see ``hostspeed``)."""

    def __init__(self):
        self.op_seconds: list[float] = []
        self.seconds = 0.0
        self.scale = 1.0
        self.failed = 0
        self.outputs: list = []
        self.alarm_word: int | None = None  # monitor-tx-raw: 1-based, in the session


# ---------------------------------------------------------------------------
# eval-rx-poly: the full protocol through the command line


class EvalRxPoly:
    """``a429ids eval`` in-process on criterion 7's receiver-switch scenario
    with polynomial features, 500 words/device, 1000 repetitions and the
    T grid 1..50. One operation is one report plus its three CSVs."""

    SUFFIXES = (".json", "_curves.csv", "_counter_far.csv", "_detection_time.csv")

    def __init__(self, work: Path, seed: int):
        self.work, self.seed = work, seed

    def setup(self) -> None:
        guarded_load = {"cutoff_freq": 1.2e6, "gain": 1.0}
        scenario = {
            "attack_kind": "rx_switch",
            "guarded": {
                "tx": {"noise_sigma": 0.10, "overshoot_frac": 0.03},
                "loads": [guarded_load],
            },
            # the receiver and its stretch of line replaced: cutoff x0.75,
            # gain x0.998
            "rogues": [{
                "tx": {"noise_sigma": 0.10, "overshoot_frac": 0.03},
                "loads": [{"cutoff_freq": 1.2e6 * 0.75, "gain": 0.998}],
            }],
            "words": [f"0x{v:08X}" for v in WORD_VALUES],
            "words_per_device": 500,
            "seed": self.seed,
            "sample_rate": None,
            "gap_bits": 4,
        }
        self.scenario_path = self.work / "scenario.json"
        self.scenario_path.write_text(json.dumps(scenario, indent=2))
        self.report_path = self.work / "report.json"
        self.rogue_count = len(scenario["rogues"])
        # warm-up: a small pass through every layer the report uses
        trace = bus.synthesize_stream(
            a429ids.TransmitterProfile(), [a429ids.ReceiverLoad()], _words(12), seed=self.seed)
        words = segmentation.segment_stream(trace)
        trained = detector.train_detector(words, features.FeatureSet.POLYNOMIAL, 100, k=5)
        detector.classify_words(trained, words)

    def round(self, clock) -> Round:
        rec = Round()
        t0 = clock()
        status = cli.main([
            "eval", "--scenario", str(self.scenario_path), "--feature-set", "polynomial",
            "--out", str(self.report_path),
        ])
        rec.op_seconds.append(clock() - t0)
        if status != 0:
            rec.failed += 1
            rec.outputs.append(None)
        else:
            base = str(self.report_path.with_suffix(""))
            rec.outputs.append(tuple(Path(base + suffix).read_bytes() for suffix in self.SUFFIXES))
        return rec

    def check(self, rounds: list[Round]) -> list[str]:
        problems: list[str] = []
        reports = [out for rec in rounds for out in rec.outputs if out is not None]
        if any(out != reports[0] for out in reports[1:]):
            problems.append("reports of one run differ")
        if reports:
            problems += self._check_report(*reports[0])
        return problems

    def _check_report(self, report_json, curves_csv, far_csv, time_csv) -> list[str]:
        problems = []
        report = json.loads(report_json)
        far = report["curves"]["far"]
        mdr = report["curves"]["mdr"]
        if len(far) != 128 or len(mdr) != 128:
            problems.append("curves do not cover t_votes 0..127")
        if any(b < a for a, b in zip(far, far[1:])) or far[-1] != 1.0:
            problems.append("FAR is not non-decreasing to 1")
        if any(b > a for a, b in zip(mdr, mdr[1:])) or mdr[-1] != 0.0:
            problems.append("MDR is not non-increasing to 0")
        eer = oracles.eer_crossing(far, mdr)
        if abs(eer - report["eer"]) > 1e-12:
            problems.append(f"EER {report['eer']!r} but the curves cross at {eer!r}")
        bit_rate = 100_000.0
        if abs(report["fa_per_sec"] - report["eer"] * bit_rate / 36.0) > 1e-12 * max(1.0, report["fa_per_sec"]):
            problems.append("fa_per_sec is not EER * bit_rate / 36")

        grid = [str(t) for t in range(1, 51)]
        counter_far = report["counter_far"]
        if sorted(counter_far, key=int) != grid:
            problems.append("counter_far does not cover T = 1..50")
        values = [counter_far[t] for t in grid]
        if any(not 0.0 <= v <= 1.0 for v in values) or any(b > a for a, b in zip(values, values[1:])):
            problems.append("counter_far is not a non-increasing probability in T")

        reps = report["reps"] * self.rogue_count
        rate = report["words_per_s"]
        for t in grid:
            stat = report["detection_time"][t]
            observed = stat["reps"] - stat["censored"]
            if stat["reps"] != reps or not 0 <= stat["censored"] <= reps:
                problems.append(f"T={t}: observed + censored != {reps} repetitions")
            if (stat["max_words"] is None) != (observed == 0):
                problems.append(f"T={t}: detection statistics missing or present without observations")
            elif observed:
                if stat["max_words"] < int(t) or stat["mean_words"] < int(t) or stat["mean_words"] > stat["max_words"]:
                    problems.append(f"T={t}: detection within fewer than T words")
                if stat["max_seconds"] != stat["max_words"] / rate or stat["mean_seconds"] != stat["mean_words"] / rate:
                    problems.append(f"T={t}: seconds disagree with words at {rate} words/s")

        # the CSVs carry the JSON's values, printed with repr
        rows = list(csv.reader(curves_csv.decode().splitlines()))[1:]
        if [(int(r[0]), float(r[1]), float(r[2])) for r in rows] != list(zip(range(128), far, mdr)):
            problems.append("curves CSV disagrees with the report")
        rows = list(csv.reader(far_csv.decode().splitlines()))[1:]
        if [(r[0], float(r[1])) for r in rows] != [(t, counter_far[t]) for t in grid]:
            problems.append("counter_far CSV disagrees with the report")
        rows = list(csv.reader(time_csv.decode().splitlines()))[1:]
        want = []
        for t in grid:
            stat = report["detection_time"][t]
            want.append((t, stat["max_seconds"], stat["mean_seconds"], stat["censored"]))
        got = [(r[0], float(r[1]) if r[1] else None, float(r[2]) if r[2] else None, int(r[3])) for r in rows]
        if got != want:
            problems.append("detection_time CSV disagrees with the report")
        return problems


# ---------------------------------------------------------------------------
# monitor-tx-raw: a trained detector watching captures


class MonitorTxRaw:
    """A long-lived monitor on criterion 6's transmitter-switch scenario.

    Set-up trains a raw detector on 300 guarded words and round-trips it
    through the bundle format, then writes the monitored traffic as f32le
    captures of 61 words (0.1 s at 610 words/s): guarded captures first,
    then captures of the rogue transmitter. One operation is one capture,
    closed loop with one client; a round is one monitoring session, with
    the counter carried from capture to capture.
    """

    TRAIN_WORDS = 300
    CAPTURE_WORDS = 61
    GUARDED_CAPTURES = 4
    ROGUE_CAPTURES = 2
    T_VOTES = 100
    T_SUSPICION = 20
    MAX_ALARM_WORDS = 30  # criterion 6: alarm within 30 words of the swap

    def __init__(self, work: Path, seed: int):
        self.work, self.seed = work, seed

    def setup(self) -> None:
        load = a429ids.ReceiverLoad(cutoff_freq=1.2e6)
        guarded = a429ids.TransmitterProfile()
        # hi level moved 0.4 V (8x the noise floor), edges 150 ns slower
        rogue = a429ids.TransmitterProfile(
            hi_volts=10.4, lo_volts=-10.4, rise_time=1.85e-6, fall_time=1.85e-6,
            overshoot_frac=0.10)
        seeds = np.random.SeedSequence(self.seed).generate_state(
            1 + self.GUARDED_CAPTURES + self.ROGUE_CAPTURES, dtype=np.uint64).tolist()

        trace = bus.synthesize_stream(guarded, [load], _words(self.TRAIN_WORDS), seed=seeds[0])
        trained = detector.train_detector(
            segmentation.segment_stream(trace), features.FeatureSet.RAW, self.T_VOTES,
            sample_interval=1.0 / trace.sample_rate)
        self.bundle_path = self.work / "detector.json"
        detector.save_detector(trained, self.bundle_path)
        self.detector = detector.load_detector(self.bundle_path)

        self.captures = []  # (path, word values)
        offset = self.TRAIN_WORDS
        for i, seed in enumerate(seeds[1:]):
            profile = guarded if i < self.GUARDED_CAPTURES else rogue
            values = _words(self.CAPTURE_WORDS, offset)
            offset += self.CAPTURE_WORDS
            path = self.work / f"capture_{i:02d}.bin"
            bus.write_trace(bus.synthesize_stream(profile, [load], values, seed=seed), path)
            self.captures.append((path, values))
        # warm-up: one capture through the pass, outside any session
        self._capture(self.captures[0][0], detector.SuspicionCounter(self.T_SUSPICION))

    def _capture(self, path, counter):
        trace = bus.read_trace(path)
        words = segmentation.segment_stream(trace)
        labels, votes = detector.classify_words(self.detector, words)
        alarm_at = None
        for i, is_anomaly in enumerate(labels.tolist()):
            counter = detector.counter_step(counter, is_anomaly)
            if counter.alarmed and alarm_at is None:
                alarm_at = i
        return words, labels, votes, counter, alarm_at

    def round(self, clock) -> Round:
        rec = Round()
        counter = detector.SuspicionCounter(self.T_SUSPICION)
        seen = 0
        alarm_word = None
        for path, _ in self.captures:
            t0 = clock()
            try:
                words, labels, votes, counter, alarm_at = self._capture(path, counter)
            except ValueError:
                rec.op_seconds.append(clock() - t0)
                rec.failed += 1
                rec.outputs.append(None)
                continue
            rec.op_seconds.append(clock() - t0)
            if alarm_at is not None and alarm_word is None:
                alarm_word = seen + alarm_at + 1
            seen += len(labels)
            rec.outputs.append((words, labels, votes))
        rec.alarm_word = alarm_word
        return rec

    def check(self, rounds: list[Round]) -> list[str]:
        problems: list[str] = []
        first = rounds[0]
        for rec in rounds[1:]:
            same = rec.alarm_word == first.alarm_word and all(
                (a is None) == (b is None)
                and (a is None or (np.array_equal(a[1], b[1]) and np.array_equal(a[2], b[2])))
                for a, b in zip(rec.outputs, first.outputs))
            if not same:
                problems.append("monitoring sessions of one run differ")
                break

        references_by_type = {
            seg_type.value: oracles.LofReference(model.train, model.k, model.mean, model.scale)
            for seg_type, model in self.detector.models.items()
        }
        thresholds = {seg_type.value: model.threshold for seg_type, model in self.detector.models.items()}
        all_labels = []
        for (path, values), out in zip(self.captures, first.outputs):
            if out is None:
                continue
            words, labels, votes = out
            all_labels.extend(labels.tolist())
            problems += self._check_segments(path.name, words, values)
            problems += self._check_votes(path.name, words, votes, labels, references_by_type, thresholds)

        walked = oracles.counter_alarm_index(all_labels, self.T_SUSPICION)
        if walked != first.alarm_word:
            problems.append(f"alarm at word {first.alarm_word}, the counter walk gives {walked}")
        guarded_words = self.GUARDED_CAPTURES * self.CAPTURE_WORDS
        if walked is None or walked <= guarded_words:
            problems.append(f"alarm at word {walked}: none allowed in the {guarded_words} guarded words")
        elif walked - guarded_words > self.MAX_ALARM_WORDS:
            problems.append(f"alarm {walked - guarded_words} words after the swap (at most {self.MAX_ALARM_WORDS})")
        return problems

    @staticmethod
    def _check_segments(name, words, values) -> list[str]:
        if len(words) != len(values):
            return [f"{name}: {len(words)} words segmented, {len(values)} sent"]
        for wi, (segments, value) in enumerate(zip(words, values)):
            if [seg.seg_type.value for seg in segments] != oracles.segment_type_names(value):
                return [f"{name}: word {wi} (0x{value:08X}) has the wrong segment types"]
        return []

    def _check_votes(self, name, words, votes, labels, references_by_type, thresholds) -> list[str]:
        """Normal votes per word from LOF scores recomputed here; a segment
        whose score ties the threshold to 1e-9 may go either way."""
        expected = np.zeros(len(words), dtype=np.int64)
        slack = np.zeros(len(words), dtype=np.int64)
        grouped: dict[str, tuple[list[int], list[np.ndarray]]] = {}
        for wi, segments in enumerate(words):
            for seg in segments:
                ref = references_by_type[seg.seg_type.value]
                owners, rows = grouped.setdefault(seg.seg_type.value, ([], []))
                owners.append(wi)
                rows.append(np.asarray(seg.samples[: ref.train.shape[1]], dtype=np.float64))
        for type_name, (owners, rows) in grouped.items():
            scores = references_by_type[type_name].scores(np.vstack(rows))
            threshold = thresholds[type_name]
            np.add.at(expected, owners, (scores <= threshold).astype(np.int64))
            np.add.at(slack, owners, (np.abs(scores - threshold) <= 1e-9 * threshold).astype(np.int64))
        if np.any(np.abs(votes - expected) > slack):
            wi = int(np.argmax(np.abs(votes - expected) > slack))
            return [f"{name}: word {wi} has {votes[wi]} normal votes, LOF recomputed gives {expected[wi]}"]
        if not np.array_equal(labels, votes <= self.T_VOTES):
            return [f"{name}: labels disagree with the votes at t_votes={self.T_VOTES}"]
        return []


# ---------------------------------------------------------------------------
# markov-sweep: the counter design sweep


class MarkovSweep:
    """The README's design sweep: flight false-alarm (36 000 s at 610
    words/s) and detection time (target 0.99999) for p in {0.1, 0.2, 0.4}
    and T = 1..50, plus criterion 1's p=0.6, T=100 point. One operation is
    one design point, both queries; a round is the whole grid, in an order
    drawn from the seed."""

    def __init__(self, work: Path, seed: int):
        self.work, self.seed = work, seed

    def setup(self) -> None:
        self.refs = references.load()
        self.points = [(point["p"], point["t_suspicion"]) for point in self.refs["points"]]
        self.order = np.random.default_rng(self.seed).permutation(len(self.points)).tolist()
        # warm-up: one query of each kind
        markov.time_to_detect(0.4, 5, self.refs["detect_target"])
        markov.flight_false_alarm(0.4, 5)

    def round(self, clock) -> Round:
        rec = Round()
        answers = [None] * len(self.points)
        target = self.refs["detect_target"]
        for i in self.order:
            p, t = self.points[i]
            t0 = clock()
            words = markov.time_to_detect(p, t, target)
            flight = markov.flight_false_alarm(p, t)
            rec.op_seconds.append(clock() - t0)
            answers[i] = (words, flight)
        rec.outputs = answers
        rec.failed = self._failed_points(answers)
        return rec

    def _failed_points(self, answers) -> int:
        """Design points whose detection time misses its reference by more
        than 1e-3 or whose flight false-alarm misses it by more than 1e-4,
        relative."""
        failed = 0
        for (words, flight), ref in zip(answers, self.refs["points"]):
            want = ref["detect_words"]
            detect_ok = (words is None and want is None) or (
                words is not None and want is not None and abs(words - want) <= 1e-3 * want)
            flight_ok = abs(flight - ref["flight_false_alarm"]) <= 1e-4 * ref["flight_false_alarm"]
            failed += not (detect_ok and flight_ok)
        return failed

    def check(self, rounds: list[Round]) -> list[str]:
        problems: list[str] = []
        first = rounds[0].outputs
        if any(rec.outputs != first for rec in rounds[1:]):
            problems.append("sweeps of one run differ")
        by_p: dict[float, list[tuple[int, int | None, float]]] = {}
        for (p, t), (words, flight) in zip(self.points, first):
            by_p.setdefault(p, []).append((t, words, flight))
        for p, rows in by_p.items():
            rows.sort()
            detect = [float("inf") if words is None else words for _, words, _ in rows]
            flight = [f for _, _, f in rows]
            if any(b < a for a, b in zip(detect, detect[1:])):
                problems.append(f"p={p}: detection time decreases with T")
            # probabilities near 1 come back up to ~1e-11 above it, and
            # growing with T, from rounding
            if any(b > a * (1.0 + 1e-9) for a, b in zip(flight, flight[1:])):
                problems.append(f"p={p}: flight false-alarm increases with T")
        return problems


WORKLOADS = {"eval-rx-poly": EvalRxPoly, "monitor-tx-raw": MonitorTxRaw, "markov-sweep": MarkovSweep}


def _timings(rounds) -> dict[str, tuple[float, str]]:
    """The timing metrics of ``(round seconds, operation seconds)`` pairs."""
    ops = [s for _, op_seconds in rounds for s in op_seconds]
    return {
        "report_s": (statistics.median(seconds for seconds, _ in rounds), "s"),
        "op_ms_p50": (1e3 * statistics.median(ops), "ms"),
        "ops_per_s": (len(ops) / sum(seconds for seconds, _ in rounds), "1/s"),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--started-at", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    if not Path(a429ids.__file__).resolve().is_relative_to(ROOT):
        print(f"a429ids imported from {a429ids.__file__}, not from this checkout", file=sys.stderr)
        return 2

    work = BENCH / "out" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    tracer = None
    if args.trace:
        tracer = tracing.Tracer(METER.clock)
        tracing.install(tracer)
    workload = WORKLOADS[args.workload](work, args.seed)

    span = tracer.begin(tracing.SETUP_SPAN) if tracer else None
    workload.setup()
    if tracer:
        tracer.end(span)
    unscaled_setup_s = _monotonic() - args.started_at
    setup_s = (unscaled_setup_s - METER.total) * METER.scale(0.0, time.perf_counter())
    if args.setup_only:
        METER.stop()
        print(json.dumps({"setup_s": setup_s, "unscaled": {"setup_s": unscaled_setup_s}}))
        return 0

    rounds: list[Round] = []
    started = time.perf_counter()
    while True:
        span = tracer.begin(tracing.ROUND_SPAN) if tracer else None
        t0, c0 = time.perf_counter(), METER.clock()
        rec = workload.round(METER.clock)
        rec.seconds = METER.clock() - c0
        rec.scale = METER.scale(t0, time.perf_counter())
        if tracer:
            tracer.end(span)
        rounds.append(rec)
        if time.perf_counter() - started >= args.seconds:
            break
    METER.stop()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    problems = workload.check(rounds)
    op_seconds = [s for rec in rounds for s in rec.op_seconds]
    result = {
        "setup_s": setup_s,
        "rounds": len(rounds),
        "attempted": len(op_seconds),
        "failed": sum(rec.failed for rec in rounds),
        "problems": problems,
    }
    scaled = [(rec.seconds * rec.scale, [s * rec.scale for s in rec.op_seconds]) for rec in rounds]
    end_to_end = {"setup_s": (setup_s, "s"), "peak_rss_mb": (peak_rss_mb, "MB"), **_timings(scaled)}
    result["metrics"] = end_to_end
    # the same timings as the clock read them, and the probe's median time
    result["unscaled"] = {name: value for name, (value, _) in
                          _timings([(rec.seconds, rec.op_seconds) for rec in rounds]).items()}
    result["unscaled"].update(setup_s=unscaled_setup_s, probe_ms_p50=1e3 * statistics.median(METER.durations))
    if tracer:
        # the spans, and the end-to-end figures of the traced run beside the
        # per-layer ones, so that the tracing overhead can be read off
        stem = BENCH / "out" / f"trace-{args.workload}-seed{args.seed}"
        tracer.write(stem.with_suffix(".csv"))
        result["metrics"] = tracer.layer_metrics()
        stem.with_suffix(".json").write_text(json.dumps(
            {"end_to_end": end_to_end, "per_layer": result["metrics"], "rounds": len(rounds)}, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
