"""Regenerate the reference values of the markov-sweep checks.

    python3 bench/references.py

writes ``bench/references.json``: for every design point of the sweep, the
flight false-alarm probability by the renewal estimate, and the detection
time by stepping the counter's distribution where the renewal estimate
puts it within STEP_CAP_WORDS words, by the renewal estimate beyond. Nothing here calls
the program. The other workloads' checks are recomputed in every run.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import oracles

P_VALUES = (0.1, 0.2, 0.4)
T_VALUES = tuple(range(1, 51))
# criterion 1's point query, added to the README's sweep
EXTRA_POINT = (0.6, 100)
DETECT_TARGET = 0.99999
FLIGHT_WORDS = round(36_000.0 * 610.0)  # a 10 h flight at 610 words/s
STEP_CAP_WORDS = 10**9

PATH = Path(__file__).with_name("references.json")


def design_points() -> list[tuple[float, int]]:
    return [(p, t) for p in P_VALUES for t in T_VALUES] + [EXTRA_POINT]


def compute() -> dict:
    points = []
    widest_gap = 0.0
    for p, t in design_points():
        renewal = oracles.renewal_detect_words(p, t, DETECT_TARGET)
        stepped = None
        if renewal is not None and renewal <= STEP_CAP_WORDS:
            stepped = oracles.stepped_detect_words(p, t, DETECT_TARGET, STEP_CAP_WORDS)
        if stepped is not None and stepped >= STEP_CAP_WORDS // 10:
            # both methods apply near the cap: how far apart they are there
            widest_gap = max(widest_gap, abs(renewal - stepped) / stepped)
        points.append({
            "p": p,
            "t_suspicion": t,
            "flight_false_alarm": oracles.renewal_alarm_probability(p, t, FLIGHT_WORDS),
            "detect_words": stepped if stepped is not None else renewal,
            "detect_method": "step" if stepped is not None else "renewal",
        })
        print(f"p={p} T={t}: {points[-1]['detect_method']} {points[-1]['detect_words']}",
              file=sys.stderr)
    return {
        "detect_target": DETECT_TARGET,
        "flight_words": FLIGHT_WORDS,
        "step_cap_words": STEP_CAP_WORDS,
        "renewal_gap_near_cap": widest_gap,
        "points": points,
    }


def load() -> dict:
    with open(PATH) as fh:
        return json.load(fh)


if __name__ == "__main__":
    PATH.write_text(json.dumps(compute(), indent=1) + "\n")
    print(f"wrote {PATH}")
