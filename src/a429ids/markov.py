"""Exact analysis of the suspicion counter as an absorbing Markov chain.

The counter over a stream of i.i.d. per-word decisions (anomaly with
probability ``p``) is a birth-death chain on states 0..T: +1 on anomaly,
-1 on normal with a floor at 0, and an absorbing alarm state at T. All
quantities here are computed from powers of the dense transition matrix, or
for moderate word counts by stepping the distribution one word at a time,
so they are exact up to double-precision rounding even for flight-length
word counts (tens of millions).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

DEFAULT_WORDS_PER_SECOND = 610.0
DEFAULT_FLIGHT_SECONDS = 36_000.0
DEFAULT_DETECT_TARGET = 0.99999

# time_to_detect gives up beyond this many words and reports the target as
# unreachable; anything larger has no physical meaning for a bus stream.
_MAX_DETECT_WORDS = 2**63

# time_to_detect steps the distribution forward for at most this many words
# per counter state, then switches to squared matrix powers. A step makes no
# BLAS call, so moderate queries stay fast while other processes load the
# cores; the cap bounds the stepping wasted on targets far beyond it.
_STEP_WORDS_PER_STATE = 16


@dataclass(frozen=True)
class CounterChain:
    """Transition structure of the suspicion counter for one ``p``."""

    p: float
    t_suspicion: int
    transition: np.ndarray  # (T+1, T+1), row-stochastic


# Argument checks, shared with the command line; each returns its argument as used.
def check_p(p: float) -> float:
    p = float(p)
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"anomaly probability must be in [0, 1], got {p}")
    return p


def check_t(t_suspicion: int, name: str = "t_suspicion") -> int:
    t = int(t_suspicion)
    if t < 1:
        raise ValueError(f"{name} must be >= 1, got {t_suspicion}")
    return t


def check_words_per_s(words_per_s: float) -> float:
    if not (np.isfinite(words_per_s) and words_per_s > 0.0):
        raise ValueError(f"words_per_s must be finite and > 0, got {words_per_s}")
    return float(words_per_s)


def check_duration_s(duration_s: float) -> float:
    if not (np.isfinite(duration_s) and duration_s >= 0.0):
        raise ValueError(f"duration_s must be finite and >= 0, got {duration_s}")
    return float(duration_s)


def build_chain(p: float, t_suspicion: int) -> CounterChain:
    """Build the (T+1)x(T+1) transition matrix of the counter.

    Interior states move up with probability ``p`` and down with ``1 - p``;
    state 0 floors (self-loop on a normal word) and state T is absorbing.
    """
    p = check_p(p)
    t = check_t(t_suspicion)
    matrix = np.zeros((t + 1, t + 1))
    for i in range(t):
        matrix[i, max(i - 1, 0)] += 1.0 - p
        matrix[i, i + 1] = p
    matrix[t, t] = 1.0
    return CounterChain(p=p, t_suspicion=t, transition=matrix)


def alarm_probability(p: float, t_suspicion: int, n: int) -> float:
    """Probability that the counter, started at 0, alarms within ``n`` words.

    Equals the mass of the absorbing state in the distribution after n
    steps; the matrix power uses repeated squaring, so large n is cheap.
    """
    n = int(n)
    if n < 0:
        raise ValueError(f"word count must be >= 0, got {n}")
    chain = build_chain(p, t_suspicion)
    power = np.linalg.matrix_power(chain.transition, n)
    return float(power[0, -1])


def time_to_detect(
    p: float,
    t_suspicion: int,
    target: float = DEFAULT_DETECT_TARGET,
) -> int | None:
    """Minimal word count n with ``alarm_probability(p, T, n) >= target``.

    Returns None when the target is unreachable (p == 0, or the search
    would have to look past 2**63 words). The distribution is stepped
    forward one word at a time for up to 16 words per counter state; beyond
    that, it is pushed through squared powers P, P^2, P^4, ... until the
    target is bracketed, and the bracket is bisected bit by bit with the
    same powers. Both are exact up to double rounding, and the search is
    valid because alarm_probability is non-decreasing in n (the alarm state
    is absorbing).
    """
    p = check_p(p)
    t = check_t(t_suspicion)
    if target <= 0.0:
        return 0
    if p == 0.0:
        return None

    q = 1.0 - p
    dist = np.zeros(t + 1)
    dist[0] = 1.0
    out = np.empty_like(dist)
    for n in range(1, _STEP_WORDS_PER_STATE * (t + 1) + 1):
        # out = dist @ P without forming P: up-moves, the absorbing alarm
        # state, then down-moves with the floor at 0
        out[0] = q * dist[0]
        out[1:] = p * dist[:-1]
        out[t] += dist[t]
        out[: t - 1] += q * dist[1:t]
        dist, out = out, dist
        if dist[t] >= target:
            return n

    # the alarm probability after n words is below target; find a span with
    # the target reached after n + span words
    powers, span = [build_chain(p, t).transition], 1
    while (dist @ powers[-1])[t] < target:
        if n + 2 * span > _MAX_DETECT_WORDS:
            return None
        powers.append(powers[-1] @ powers[-1])
        span *= 2
    for power in reversed(powers[:-1]):
        span //= 2
        ahead = dist @ power
        if ahead[t] < target:
            dist, n = ahead, n + span
    return n + 1


def time_to_detect_seconds(
    p: float,
    t_suspicion: int,
    target: float = DEFAULT_DETECT_TARGET,
    words_per_s: float = DEFAULT_WORDS_PER_SECOND,
) -> float | None:
    """`time_to_detect` converted to seconds at the given word rate."""
    words_per_s = check_words_per_s(words_per_s)
    n = time_to_detect(p, t_suspicion, target)
    if n is None:
        return None
    return n / words_per_s


def flight_false_alarm(
    p: float,
    t_suspicion: int,
    duration_s: float = DEFAULT_FLIGHT_SECONDS,
    words_per_s: float = DEFAULT_WORDS_PER_SECOND,
) -> float:
    """Probability of at least one alarm over a whole flight of normal data."""
    n = round(check_duration_s(duration_s) * check_words_per_s(words_per_s))
    return alarm_probability(p, t_suspicion, n)
