"""Command-line front end: synthesize, segment, extract, train, run,
evaluate and analyze from one executable.

Exit status: 0 on success. 2 for configuration problems, before any file is
written: a bad flag (checked as it is parsed, by the library's own check of
that argument, before any file is read), a bad scenario file or device, a
missing file. 1 for a malformed trace, a bad bundle, too few training segments.
"""

from __future__ import annotations

import argparse
import csv
import sys
from pathlib import Path

import numpy as np

from . import bus, detector as det, evaluation, features, lof, markov, segmentation
from .features import FeatureSet


class ConfigError(Exception):
    pass


def _checked(check, parse=float):
    """argparse ``type=``: parse a flag's text, then apply ``check`` to it."""
    def convert(text: str):
        try:
            return check(parse(text))
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    return convert


def _count(name: str, low: int = 1):
    return _checked(lambda value: evaluation.check_at_least(name, value, low), int)


def _target(value: float) -> float:
    if not 0.0 < value < 1.0:
        raise ValueError(f"must be in (0, 1), got {value}")
    return value


def _p_list(text: str) -> list[float]:
    return [markov.check_p(float(v)) for v in text.split(",")]


def _write_csv(path, header: str, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header.split(","))
        writer.writerows(rows)


def _read_table(path):
    trace = bus.read_trace(path)
    return trace, segmentation.segment_stream(trace)


def _load_scenario(path: str) -> evaluation.Scenario:
    try:
        return evaluation.load_scenario(path)
    except ValueError as exc:  # json.JSONDecodeError included
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
    _, table = _read_table(args.trace)
    offsets = table.starts - table.word_starts[:, None]
    def rows():
        words = zip(table.types.tolist(), offsets.tolist(), table.lengths.tolist())
        for wi, (codes, starts, lengths) in enumerate(words):
            for si, (code, start, length) in enumerate(zip(codes, starts, lengths)):
                yield [wi, si, segmentation.SEGMENT_TYPES[code].value, start, length]
    _write_csv(args.out, "word_index,segment_index,segment_type,start_index,length", rows())
    print(f"segmented {len(table)} words -> {args.out}")
    return 0


def _cmd_features(args) -> int:
    set_id = FeatureSet(args.feature_set)
    trace, table = _read_table(args.trace)
    types = table.types.ravel().tolist()
    batch = features.extract_batch(set_id, table, dt=1.0 / trace.sample_rate).values()
    matrices = [matrix for _, matrix in batch]
    # each vector's position, group and row within the group, in position order
    positions = np.concatenate([np.empty(0, dtype=np.int64), *(p for p, _ in batch)])
    group = np.repeat(np.arange(len(matrices)), [len(m) for m in matrices])
    row = np.arange(len(positions)) - np.cumsum([0, *map(len, matrices)])[group]
    order = np.argsort(positions)

    def rows():
        for pos, g, r in zip(positions[order], group[order], row[order]):
            wi, si = divmod(int(pos), segmentation.SEGMENTS_PER_WORD)
            yield (
                [wi, si, segmentation.SEGMENT_TYPES[types[pos]].value, set_id.value]
                + [repr(v) for v in matrices[g][r].tolist()]
            )
    _write_csv(args.out, "word_index,segment_index,segment_type,set,features...", rows())
    print(f"extracted {set_id.value} features for {len(table)} words -> {args.out}")
    return 0


def _cmd_train(args) -> int:
    set_id = FeatureSet(args.feature_set)
    trace, table = _read_table(args.trace)
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
    _, table = _read_table(args.trace)
    labels, votes = det.classify_words(trained, table)
    counter = det.SuspicionCounter(t_suspicion=args.t_suspicion)
    rows = []
    for wi, (is_anomaly, vote) in enumerate(zip(labels.tolist(), votes.tolist())):
        counter = det.counter_step(counter, is_anomaly)
        rows.append([wi, vote, "anomaly" if is_anomaly else "normal",
                     counter.value, str(counter.alarmed).lower()])
    _write_csv(args.out, "word_index,normal_votes,label,counter_value,alarmed", rows)
    state = "ALARM" if counter.alarmed else "no alarm"
    print(f"processed {len(table)} words: {state} -> {args.out}")
    return 0


def _cmd_eval(args) -> int:
    scenario = _load_scenario(args.scenario)
    try:
        evaluation.check_test_words(scenario, args.test_words)
    except ValueError as exc:
        raise ConfigError(f"bad --test-words for {args.scenario}: {exc}") from None
    report = evaluation.build_report(
        scenario, FeatureSet(args.feature_set),
        t_votes=args.t_votes, reps=args.reps, test_words=args.test_words,
        t_suspicion_grid=range(1, args.max_t_suspicion + 1), words_per_s=args.rate,
        k=args.k, contamination=args.contamination,
    )
    out = Path(args.out)
    evaluation.save_report(report, out)
    base = out.with_suffix("")
    curves_path = Path(f"{base}_curves.csv")
    rows = []
    for t in range(128):
        rows.append([t, repr(float(report.curves.far[t])), repr(float(report.curves.mdr[t]))])
    _write_csv(curves_path, "t_votes,far,mdr", rows)
    far_path = Path(f"{base}_counter_far.csv")
    rows = []
    for ts, value in sorted(report.counter_far.items()):
        rows.append([ts, repr(value)])
    _write_csv(far_path, "t_suspicion,counter_far", rows)
    time_path = Path(f"{base}_detection_time.csv")
    rows = []
    for ts, stat in sorted(report.detection_time.items()):
        rows.append([
            ts,
            "" if stat.max_seconds is None else repr(stat.max_seconds),
            "" if stat.mean_seconds is None else repr(stat.mean_seconds),
            stat.censored,
        ])
    _write_csv(time_path, "t_suspicion,max_seconds,mean_seconds,censored", rows)
    print(
        f"eer={report.eer:.6f} fa_per_sec={report.fa_per_sec:.4f} -> {out}, "
        f"{curves_path.name}, {far_path.name}, {time_path.name}"
    )
    return 0


def _cmd_markov(args) -> int:
    if args.out:
        p_values = [args.p] if args.p_list is None else args.p_list
        base = Path(args.out).with_suffix("")
        fa_path = Path(f"{base}_flight_far.csv")
        rows = []
        for p in p_values:
            for t in range(1, args.t + 1):
                rows.append([t, p, repr(markov.flight_false_alarm(
                    p, t, duration_s=args.flight_duration, words_per_s=args.rate))])
        _write_csv(fa_path, "t_suspicion,p,flight_false_alarm", rows)
        time_path = Path(f"{base}_detect_time.csv")
        rows = []
        for p in p_values:
            for t in range(1, args.t + 1):
                seconds = markov.time_to_detect_seconds(
                    p, t, target=args.target, words_per_s=args.rate)
                rows.append([t, p, "" if seconds is None else repr(seconds)])
        _write_csv(time_path, "t_suspicion,p,seconds_to_target", rows)
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
    # each flag's value goes through the library's own check of that argument
    t_votes, k = _checked(det.check_t_votes, int), _checked(lof.check_k, int)
    contamination = _checked(lof.check_contamination)
    t_suspicion, rate = _checked(markov.check_t, int), _checked(markov.check_words_per_s)

    p = sub.add_parser("synth", help="synthesize a waveform trace from a scenario")
    p.add_argument("--scenario", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--device", default="guarded", help="guarded (default) or rogue:<i>")
    p.add_argument("--words", type=_count("words"), default=None, help="word count override")
    p.add_argument("--seed", type=_count("seed", 0), default=None, help="seed override")
    p.add_argument("--encoding", choices=["f32le", "csv"], default="f32le")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("segment", help="segment a trace into typed sub-bit pieces")
    p.add_argument("--trace", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_segment)

    p = sub.add_parser("features", help="extract per-segment feature vectors")
    p.add_argument("--trace", required=True)
    p.add_argument("--feature-set", required=True, choices=[fs.value for fs in FeatureSet])
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_features)

    p = sub.add_parser("train", help="train a detector from a normal trace")
    p.add_argument("--trace", required=True)
    p.add_argument("--feature-set", required=True, choices=[fs.value for fs in FeatureSet])
    p.add_argument("--t-votes", type=t_votes, default=evaluation.DEFAULT_T_VOTES)
    p.add_argument("--k", type=k, default=lof.DEFAULT_K)
    p.add_argument("--contamination", type=contamination, default=lof.DEFAULT_CONTAMINATION)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("run", help="run a detector plus counter over a trace")
    p.add_argument("--model", required=True)
    p.add_argument("--trace", required=True)
    p.add_argument("--t-suspicion", type=t_suspicion, default=20)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("eval", help="full protocol: curves, EER, counter FAR, detection time")
    p.add_argument("--scenario", required=True)
    p.add_argument("--feature-set", required=True, choices=[fs.value for fs in FeatureSet])
    p.add_argument("--t-votes", type=t_votes, default=evaluation.DEFAULT_T_VOTES)
    p.add_argument("--reps", type=_count("reps"), default=evaluation.DEFAULT_REPS)
    p.add_argument("--test-words", type=_count("test_words"), default=None,
                   help="normal test words per repetition (default: all held out)")
    p.add_argument("--max-t-suspicion", type=t_suspicion, default=50)
    p.add_argument("--rate", type=rate, default=evaluation.DEFAULT_WORDS_PER_SECOND,
                   help="words per second for time conversions")
    p.add_argument("--k", type=k, default=lof.DEFAULT_K)
    p.add_argument("--contamination", type=contamination, default=lof.DEFAULT_CONTAMINATION)
    p.add_argument("--out", required=True, help="report JSON path; CSVs land beside it")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("markov", help="suspicion-counter analysis")
    p.add_argument("--p", type=_checked(markov.check_p), required=True,
                   help="per-word anomaly probability")
    p.add_argument("--t", type=_checked(markov.check_chain_t, int), required=True,
                   help=f"suspicion threshold, at most {markov.MAX_CHAIN_T}")
    p.add_argument("--target", type=_checked(_target), default=markov.DEFAULT_DETECT_TARGET)
    p.add_argument("--rate", type=rate, default=markov.DEFAULT_WORDS_PER_SECOND)
    p.add_argument("--flight-duration", type=_checked(markov.check_duration_s),
                   default=markov.DEFAULT_FLIGHT_SECONDS)
    p.add_argument("--out", default=None,
                   help="CSV prefix: sweep t_suspicion 1..T instead of a point query")
    p.add_argument("--p-list", type=_checked(_p_list, str), default=None,
                   help="comma-separated p values for the CSV sweep")
    p.set_defaults(func=_cmd_markov)

    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.func(args)
    except SystemExit as exc:  # from argparse: a bad flag (2) or --help (0)
        return exc.code
    except (ConfigError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - the CLI boundary reports and exits
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
