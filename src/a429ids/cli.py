"""Command-line front end: synthesize, segment, extract, train, run,
evaluate and analyze from one executable.

Exit status: 0 on success, 2 for configuration problems (bad flags, bad
config files), 1 for runtime failures (malformed signals, missing models).
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from pathlib import Path

from . import bus, detector as det, evaluation, features, lof, markov, segmentation
from .features import FeatureSet


class ConfigError(Exception):
    pass


def _feature_set(name: str) -> FeatureSet:
    try:
        return FeatureSet(name)
    except ValueError:
        raise ConfigError(
            f"unknown feature set {name!r}; choose from "
            f"{[fs.value for fs in FeatureSet]}"
        ) from None


def _load_scenario(path: str) -> evaluation.Scenario:
    try:
        return evaluation.load_scenario(path)
    except FileNotFoundError:
        raise ConfigError(f"scenario file not found: {path}") from None
    except (ValueError, json.JSONDecodeError) as exc:
        raise ConfigError(f"bad scenario file {path}: {exc}") from None


def _pick_device(scenario: evaluation.Scenario, spec: str) -> evaluation.BusSetup:
    if spec == "guarded":
        return scenario.guarded
    if spec.startswith("rogue:"):
        try:
            index = int(spec.split(":", 1)[1])
            return scenario.rogues[index]
        except (ValueError, IndexError):
            raise ConfigError(
                f"bad device {spec!r}; scenario has {len(scenario.rogues)} rogues"
            ) from None
    raise ConfigError(f"device must be 'guarded' or 'rogue:<i>', got {spec!r}")


def _cmd_synth(args) -> int:
    scenario = _load_scenario(args.scenario)
    setup = _pick_device(scenario, args.device)
    count = args.words if args.words is not None else scenario.words_per_device
    if count < 1:
        raise ConfigError("--words must be positive")
    values = [scenario.words[i % len(scenario.words)] for i in range(count)]
    seed = args.seed if args.seed is not None else scenario.seed
    trace = bus.synthesize_stream(
        setup.tx, setup.loads, values,
        gap_bits=scenario.gap_bits, seed=seed, sample_rate=scenario.sample_rate,
    )
    bus.write_trace(trace, args.out, encoding=args.encoding)
    print(f"wrote {len(trace)} samples, {len(trace.word_starts)} words -> {args.out}")
    return 0


def _cmd_segment(args) -> int:
    trace = bus.read_trace(args.trace)
    table = segmentation.segment_stream(trace)
    offsets = table.starts - table.word_starts[:, None]
    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["word_index", "segment_index", "segment_type", "start_index", "length"])
        words = zip(table.types.tolist(), offsets.tolist(), table.lengths.tolist())
        for wi, (codes, starts, lengths) in enumerate(words):
            for si, (code, start, length) in enumerate(zip(codes, starts, lengths)):
                writer.writerow([wi, si, segmentation.SEGMENT_TYPES[code].value, start, length])
    print(f"segmented {len(table)} words -> {args.out}")
    return 0


def _cmd_features(args) -> int:
    set_id = _feature_set(args.feature_set)
    trace = bus.read_trace(args.trace)
    table = segmentation.segment_stream(trace)
    types = table.types.ravel().tolist()
    vectors = {}
    for positions, matrix in features.extract_batch(
        set_id, table, dt=1.0 / trace.sample_rate
    ).values():
        vectors.update(zip(positions.tolist(), matrix.tolist()))
    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["word_index", "segment_index", "segment_type", "set", "features..."])
        for pos in sorted(vectors):
            wi, si = divmod(pos, segmentation.SEGMENTS_PER_WORD)
            writer.writerow(
                [wi, si, segmentation.SEGMENT_TYPES[types[pos]].value, set_id.value]
                + [repr(v) for v in vectors[pos]]
            )
    print(f"extracted {set_id.value} features for {len(table)} words -> {args.out}")
    return 0


def _cmd_train(args) -> int:
    set_id = _feature_set(args.feature_set)
    trace = bus.read_trace(args.trace)
    table = segmentation.segment_stream(trace)
    trained = det.train_detector(
        table, set_id, args.t_votes,
        k=args.k, contamination=args.contamination,
        sample_interval=1.0 / trace.sample_rate,
    )
    det.save_detector(trained, args.out)
    print(
        f"trained {set_id.value} detector on {len(table)} words "
        f"({len(trained.models)} segment models) -> {args.out}"
    )
    return 0


def _cmd_run(args) -> int:
    trained = det.load_detector(args.model)
    trace = bus.read_trace(args.trace)
    table = segmentation.segment_stream(trace)
    labels, votes = det.classify_words(trained, table)
    counter = det.SuspicionCounter(t_suspicion=args.t_suspicion)
    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["word_index", "normal_votes", "label", "counter_value", "alarmed"])
        for wi, (is_anomaly, vote) in enumerate(zip(labels.tolist(), votes.tolist())):
            counter = det.counter_step(counter, is_anomaly)
            writer.writerow(
                [wi, vote, "anomaly" if is_anomaly else "normal",
                 counter.value, str(counter.alarmed).lower()]
            )
    state = "ALARM" if counter.alarmed else "no alarm"
    print(f"processed {len(table)} words: {state} -> {args.out}")
    return 0


def _cmd_eval(args) -> int:
    scenario = _load_scenario(args.scenario)
    set_id = _feature_set(args.feature_set)
    grid = tuple(range(1, args.max_t_suspicion + 1))
    report = evaluation.build_report(
        scenario, set_id,
        t_votes=args.t_votes, reps=args.reps, test_words=args.test_words,
        t_suspicion_grid=grid, words_per_s=_rate("--rate", args.rate),
        k=args.k, contamination=args.contamination,
    )
    out = Path(args.out)
    evaluation.save_report(report, out)
    base = out.with_suffix("")
    curves_path = Path(f"{base}_curves.csv")
    with open(curves_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t_votes", "far", "mdr"])
        for t in range(128):
            writer.writerow([t, repr(float(report.curves.far[t])), repr(float(report.curves.mdr[t]))])
    far_path = Path(f"{base}_counter_far.csv")
    with open(far_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t_suspicion", "counter_far"])
        for ts, value in sorted(report.counter_far.items()):
            writer.writerow([ts, repr(value)])
    time_path = Path(f"{base}_detection_time.csv")
    with open(time_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t_suspicion", "max_seconds", "mean_seconds", "censored"])
        for ts, stat in sorted(report.detection_time.items()):
            writer.writerow([
                ts,
                "" if stat.max_seconds is None else repr(stat.max_seconds),
                "" if stat.mean_seconds is None else repr(stat.mean_seconds),
                stat.censored,
            ])
    print(
        f"eer={report.eer:.6f} fa_per_sec={report.fa_per_sec:.4f} -> {out}, "
        f"{curves_path.name}, {far_path.name}, {time_path.name}"
    )
    return 0


def _probability(flag: str, value) -> float:
    try:
        p = float(value)
    except ValueError:
        raise ConfigError(f"{flag} value {value!r} is not a number") from None
    if not 0.0 <= p <= 1.0:
        raise ConfigError(f"{flag} must be in [0, 1], got {value}")
    return p


def _rate(flag: str, value: float) -> float:
    if not (math.isfinite(value) and value > 0.0):
        raise ConfigError(f"{flag} must be finite and > 0, got {value}")
    return value


def _cmd_markov(args) -> int:
    _probability("--p", args.p)
    if args.t < 1:
        raise ConfigError(f"--t must be >= 1, got {args.t}")
    _rate("--rate", args.rate)
    if not (math.isfinite(args.flight_duration) and args.flight_duration >= 0.0):
        raise ConfigError(
            f"--flight-duration must be finite and >= 0, got {args.flight_duration}"
        )
    if not 0.0 < args.target < 1.0:
        raise ConfigError(f"--target must be in (0, 1), got {args.target}")
    # every value is checked before the sweep writes anything
    p_values = [args.p] if args.p_list is None else [
        _probability("--p-list", v) for v in args.p_list.split(",")
    ]
    if args.out:
        base = Path(args.out).with_suffix("")
        fa_path = Path(f"{base}_flight_far.csv")
        with open(fa_path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["t_suspicion", "p", "flight_false_alarm"])
            for p in p_values:
                for t in range(1, args.t + 1):
                    writer.writerow([t, p, repr(markov.flight_false_alarm(
                        p, t, duration_s=args.flight_duration, words_per_s=args.rate))])
        time_path = Path(f"{base}_detect_time.csv")
        with open(time_path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["t_suspicion", "p", "seconds_to_target"])
            for p in p_values:
                for t in range(1, args.t + 1):
                    seconds = markov.time_to_detect_seconds(
                        p, t, target=args.target, words_per_s=args.rate)
                    writer.writerow([t, p, "" if seconds is None else repr(seconds)])
        print(f"wrote {fa_path} and {time_path}")
        return 0
    n = markov.time_to_detect(args.p, args.t, target=args.target)
    if n is None:
        print(f"p={args.p} t_suspicion={args.t}: target {args.target} unreachable")
    else:
        print(
            f"p={args.p} t_suspicion={args.t}: target {args.target} reached "
            f"after {n} words = {n / args.rate:.4f} s at {args.rate:g} words/s"
        )
    fa = markov.flight_false_alarm(
        args.p, args.t, duration_s=args.flight_duration, words_per_s=args.rate
    )
    print(f"flight false-alarm probability ({args.flight_duration:g} s): {fa:.6g}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="a429ids",
        description="Hardware-fingerprinting intrusion detection for ARINC 429 buses",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="synthesize a waveform trace from a scenario")
    p.add_argument("--scenario", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--device", default="guarded", help="guarded (default) or rogue:<i>")
    p.add_argument("--words", type=int, default=None, help="word count override")
    p.add_argument("--seed", type=int, default=None, help="seed override")
    p.add_argument("--encoding", choices=["f32le", "csv"], default="f32le")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("segment", help="segment a trace into typed sub-bit pieces")
    p.add_argument("--trace", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_segment)

    p = sub.add_parser("features", help="extract per-segment feature vectors")
    p.add_argument("--trace", required=True)
    p.add_argument("--feature-set", required=True,
                   choices=[fs.value for fs in FeatureSet])
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_features)

    p = sub.add_parser("train", help="train a detector from a normal trace")
    p.add_argument("--trace", required=True)
    p.add_argument("--feature-set", required=True,
                   choices=[fs.value for fs in FeatureSet])
    p.add_argument("--t-votes", type=int, default=evaluation.DEFAULT_T_VOTES)
    p.add_argument("--k", type=int, default=lof.DEFAULT_K)
    p.add_argument("--contamination", type=float, default=lof.DEFAULT_CONTAMINATION)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("run", help="run a detector plus counter over a trace")
    p.add_argument("--model", required=True)
    p.add_argument("--trace", required=True)
    p.add_argument("--t-suspicion", type=int, default=20)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("eval", help="full protocol: curves, EER, counter FAR, detection time")
    p.add_argument("--scenario", required=True)
    p.add_argument("--feature-set", required=True,
                   choices=[fs.value for fs in FeatureSet])
    p.add_argument("--t-votes", type=int, default=evaluation.DEFAULT_T_VOTES)
    p.add_argument("--reps", type=int, default=evaluation.DEFAULT_REPS)
    p.add_argument("--test-words", type=int, default=None,
                   help="normal test words per repetition (default: all held out)")
    p.add_argument("--max-t-suspicion", type=int, default=50)
    p.add_argument("--rate", type=float, default=evaluation.DEFAULT_WORDS_PER_SECOND,
                   help="words per second for time conversions")
    p.add_argument("--k", type=int, default=lof.DEFAULT_K)
    p.add_argument("--contamination", type=float, default=lof.DEFAULT_CONTAMINATION)
    p.add_argument("--out", required=True, help="report JSON path; CSVs land beside it")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("markov", help="exact suspicion-counter analysis")
    p.add_argument("--p", type=float, required=True, help="per-word anomaly probability")
    p.add_argument("--t", type=int, required=True, help="suspicion threshold")
    p.add_argument("--target", type=float, default=markov.DEFAULT_DETECT_TARGET)
    p.add_argument("--rate", type=float, default=markov.DEFAULT_WORDS_PER_SECOND)
    p.add_argument("--flight-duration", type=float, default=markov.DEFAULT_FLIGHT_SECONDS)
    p.add_argument("--out", default=None,
                   help="CSV prefix: sweep t_suspicion 1..T instead of a point query")
    p.add_argument("--p-list", default=None,
                   help="comma-separated p values for the CSV sweep")
    p.set_defaults(func=_cmd_markov)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - the CLI boundary reports and exits
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
