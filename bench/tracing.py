"""Spans around calls into the program's public functions.

A traced run replaces selected module attributes of ``a429ids`` with
wrappers that record one span per call (name, start, end, parent, work
count). The program's modules call each other through module attributes
(``features.extract``, ``lof.fit`` ...), so the wrappers see every call
without any change to the program. Spans are kept in memory and written out
when the run ends.

Per-layer metrics cover set-up plus one round: spans under the set-up span
count in full, spans under round spans are divided by the number of rounds.
Every round does the same work, so the counts repeat exactly.
"""

from __future__ import annotations

import csv
import functools
import os
import statistics
import tracemalloc

SETUP_SPAN = "bench.setup"
ROUND_SPAN = "bench.round"


class Tracer:
    """Spans of one process, in the order they began, timed with ``clock``."""

    def __init__(self, clock):
        self.clock = clock
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.counts: list[int] = []
        self.fit_peak_bytes = 0
        self.bundle_bytes = 0
        self._open: list[int] = []

    def begin(self, name: str) -> int:
        span = len(self.names)
        self.names.append(name)
        self.parents.append(self._open[-1] if self._open else -1)
        self.counts.append(0)
        self.ends.append(0.0)
        self._open.append(span)
        self.starts.append(self.clock())
        return span

    def end(self, span: int, count: int = 0) -> None:
        self.ends[span] = self.clock()
        self.counts[span] = count
        self._open.pop()

    def wrap(self, name: str, fn, count=None):
        """``fn`` with a span per call; ``count(args, result)`` gives the
        call's work count (1 per call when omitted)."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.end(span)
                raise
            self.end(span, 1 if count is None else count(args, result))
            return result

        return traced

    def wrap_fit(self, fn):
        """``lof.fit`` with a span per call and its tracemalloc high-water mark."""
        inner = self.wrap("lof.fit", fn, lambda args, result: len(result.train))

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracemalloc.start()
            try:
                return inner(*args, **kwargs)
            finally:
                self.fit_peak_bytes = max(self.fit_peak_bytes, tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()

        return traced

    def wrap_save(self, fn):
        """``detector.save_detector`` with a span per call and the bundle size."""
        inner = self.wrap("detector.save_detector", fn)

        @functools.wraps(fn)
        def traced(detector, path):
            inner(detector, path)
            self.bundle_bytes = os.path.getsize(path)

        return traced

    # -- results ------------------------------------------------------------

    def _phase_weights(self) -> list[float]:
        """Weight of each span: 1 under set-up, 1/rounds under a round."""
        rounds = sum(1 for name in self.names if name == ROUND_SPAN) or 1
        weights = []
        for span, parent in enumerate(self.parents):
            if parent < 0:
                weights.append(1.0 / rounds if self.names[span] == ROUND_SPAN else 1.0)
            else:
                weights.append(weights[parent])
        return weights

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        weights = self._phase_weights()
        time_in: dict[str, float] = {}
        self_in: dict[str, float] = {}
        count_in: dict[str, float] = {}
        durations: dict[str, list[float]] = {}
        for span, name in enumerate(self.names):
            took = self.ends[span] - self.starts[span]
            w = weights[span]
            time_in[name] = time_in.get(name, 0.0) + w * took
            self_in[name] = self_in.get(name, 0.0) + w * took
            count_in[name] = count_in.get(name, 0.0) + w * self.counts[span]
            durations.setdefault(name, []).append(took)
            parent = self.parents[span]
            if parent >= 0:
                # single-threaded: a span's children never overlap, so the
                # part of it they cover is the sum of their durations
                self_in[self.names[parent]] -= w * took

        def s(name):
            return time_in.get(name, 0.0)

        def count(name):
            return round(count_in.get(name, 0.0), 6)

        def rate(name):
            return count(name) / s(name) if s(name) > 0.0 else 0.0

        def ms_p50(name):
            return 1e3 * statistics.median(durations[name]) if name in durations else 0.0

        out = {
            "bus.synthesize_stream.s": (s("bus.synthesize_stream"), "s"),
            "bus.synthesize_stream.words": (count("bus.synthesize_stream"), "words"),
            "bus.synthesize_stream.words_per_s": (rate("bus.synthesize_stream"), "words/s"),
            "bus.read_trace.s": (s("bus.read_trace"), "s"),
            "segmentation.segment_stream.s": (s("segmentation.segment_stream"), "s"),
            "segmentation.segment_stream.words": (count("segmentation.segment_stream"), "words"),
            "segmentation.segment_stream.words_per_s": (rate("segmentation.segment_stream"), "words/s"),
            "features.extract.s": (s("features.extract"), "s"),
            "features.extract.segments": (count("features.extract"), "segments"),
            "features.extract.segments_per_s": (rate("features.extract"), "segments/s"),
            "lof.fit.s": (s("lof.fit"), "s"),
            "lof.fit.points": (count("lof.fit"), "points"),
            "lof.fit.points_per_s": (rate("lof.fit"), "points/s"),
            "lof.fit.peak_alloc_mb": (self.fit_peak_bytes / 1e6, "MB"),
            "lof.classify.s": (s("lof.classify"), "s"),
            "lof.classify.queries": (count("lof.classify"), "queries"),
            "lof.classify.queries_per_s": (rate("lof.classify"), "queries/s"),
            "detector.train_detector.self_s": (self_in.get("detector.train_detector", 0.0), "s"),
            "detector.classify_words.self_s": (self_in.get("detector.classify_words", 0.0), "s"),
            "detector.counter_step.s": (s("detector.counter_step"), "s"),
            "detector.counter_step.calls": (count("detector.counter_step"), "calls"),
            "detector.save_detector.s": (s("detector.save_detector"), "s"),
            "detector.load_detector.s": (s("detector.load_detector"), "s"),
            "detector.bundle_mb": (self.bundle_bytes / 1e6, "MB"),
            "evaluation.build_report.self_s": (self_in.get("evaluation.build_report", 0.0), "s"),
            "cli.main.self_s": (self_in.get("cli.main", 0.0), "s"),
            "markov.time_to_detect.ms_p50": (ms_p50("markov.time_to_detect"), "ms"),
            "markov.time_to_detect.calls": (count("markov.time_to_detect"), "calls"),
            "markov.flight_false_alarm.ms_p50": (ms_p50("markov.flight_false_alarm"), "ms"),
            "markov.flight_false_alarm.calls": (count("markov.flight_false_alarm"), "calls"),
        }
        return out

    def write(self, path) -> None:
        """All spans as CSV: id, parent, name, start and end (seconds from
        the first span), work count."""
        origin = self.starts[0] if self.starts else 0.0
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["span", "parent", "name", "start_s", "end_s", "count"])
            for span, name in enumerate(self.names):
                writer.writerow([
                    span, self.parents[span], name,
                    f"{self.starts[span] - origin:.9f}", f"{self.ends[span] - origin:.9f}",
                    self.counts[span],
                ])


def install(tracer: Tracer) -> None:
    """Replace the traced public functions of ``a429ids`` with wrappers."""
    from a429ids import bus, cli, detector, evaluation, features, lof, markov, segmentation

    def words_in(args, result):
        return len(args[2])

    def words_out(args, result):
        return len(result)

    def queries(args, result):
        return len(result)

    for module, name, count in (
        (bus, "synthesize_stream", words_in),
        (bus, "read_trace", None),
        (segmentation, "segment_stream", words_out),
        (features, "extract", None),
        (lof, "classify", queries),
        (detector, "train_detector", None),
        (detector, "classify_words", None),
        (detector, "counter_step", None),
        (detector, "load_detector", None),
        (evaluation, "build_report", None),
        (cli, "main", None),
        (markov, "time_to_detect", None),
        (markov, "flight_false_alarm", None),
    ):
        setattr(module, name, tracer.wrap(f"{module.__name__.split('.')[-1]}.{name}",
                                          getattr(module, name), count))
    lof.fit = tracer.wrap_fit(lof.fit)
    detector.save_detector = tracer.wrap_save(detector.save_detector)
