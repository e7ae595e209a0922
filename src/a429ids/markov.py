"""Analysis of the suspicion counter as an absorbing Markov chain.

The counter over a stream of i.i.d. per-word decisions (anomaly with
probability ``p``) is a birth-death chain on states 0..T: +1 on anomaly,
-1 on normal with a floor at 0, and an absorbing alarm state at T. Every
query walks the transient block Q (states 0..T-1) from state 0 through its
squared powers Q, Q^2, Q^4, ... and keeps two masses, each a sum of
non-negative terms: the mass that has alarmed and the mass that survives.
Neither is read from a difference near 1, so both are exact up to
double-precision rounding for up to 2**24 words. Beyond that, the surviving
mass decays geometrically at the quasi-stationary rate, which carries
flight-length word counts (tens of millions) and detection times out to
2**63 words.
"""

from __future__ import annotations

import math

import numpy as np

DEFAULT_WORDS_PER_SECOND = 610.0
DEFAULT_FLIGHT_SECONDS = 36_000.0
DEFAULT_DETECT_TARGET = 0.99999

# time_to_detect gives up beyond this many words and reports the target as
# unreachable; anything larger has no physical meaning for a bus stream.
_MAX_DETECT_WORDS = 2**63

# Squared powers of the transient block reach this many words; beyond it the
# surviving mass follows its quasi-stationary geometric decay.
_DOUBLING_WORDS = 2**24

# Largest T a chain query takes: it holds up to 25 dense T x T powers (200 MB).
MAX_CHAIN_T = 1000


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


def check_chain_t(t_suspicion: int) -> int:
    """``check_t`` with the cap of a chain query, whose memory grows as T**2."""
    t = check_t(t_suspicion)
    if t > MAX_CHAIN_T:
        raise ValueError(f"t_suspicion must be <= {MAX_CHAIN_T} for a chain query, got {t}")
    return t


def check_words_per_s(words_per_s: float) -> float:
    if not (np.isfinite(words_per_s) and words_per_s > 0.0):
        raise ValueError(f"words_per_s must be finite and > 0, got {words_per_s}")
    return float(words_per_s)


def check_duration_s(duration_s: float) -> float:
    if not (np.isfinite(duration_s) and duration_s >= 0.0):
        raise ValueError(f"duration_s must be finite and >= 0, got {duration_s}")
    return float(duration_s)


def _walk(
    p: float, t: int, words: int, survive: float = -math.inf
) -> tuple[int, float, float]:
    """Walk the counter from state 0 for up to ``words`` words, stopping at
    the last word count n whose surviving (not yet alarmed) mass is above
    ``survive``. Returns n and the alarm and surviving masses after n words.

    Up to 2**24 words, n is assembled from squared powers Q^m, largest
    first, each with every state's alarm mass within m words. Beyond, the
    surviving distribution d is quasi-stationary: each word alarms the same
    share r = p * d[T-1] / sum(d) of it, so the surviving mass decays as
    (1 - r)^n (Darroch & Seneta, J. Appl. Prob. 1965).
    """
    states = np.arange(t)
    power = np.zeros((t, t))
    power[states, np.maximum(states - 1, 0)] = 1.0 - p
    power[states[:-1], states[:-1] + 1] = p
    alarm = np.zeros(t)
    alarm[-1] = p
    limit, span, powers = min(words, _DOUBLING_WORDS), 1, []
    while True:
        # keep only the powers the descent below can take: the bits of
        # `limit`, or all of them up to the bracket of `survive`
        if span & limit or survive > -math.inf:
            powers.append((span, power, alarm))
        if 2 * span > limit or power[0].sum() <= survive:
            break
        # an alarm within 2m words comes within the first m, or within the
        # next m from where the first m left the counter
        alarm = alarm + power @ alarm
        power, span = power @ power, 2 * span
    n, alarmed, dist = 0, 0.0, np.eye(1, t)[0]
    for span, power, alarm in reversed(powers):
        if n + span <= limit:
            ahead = dist @ power
            if ahead.sum() > survive:
                n, alarmed, dist = n + span, alarmed + float(dist @ alarm), ahead
    surviving = float(dist.sum())
    if n == _DOUBLING_WORDS < words and surviving > 0.0:
        log_keep = math.log1p(-p * float(dist[-1]) / surviving)
        steps = words - n
        if survive > 0.0 and log_keep < 0.0:
            # the surviving mass reaches `survive` after `crossing` more words
            crossing = math.log(survive / surviving) / log_keep
            if crossing < steps:
                steps = math.ceil(crossing) - 1
        lost = -surviving * math.expm1(steps * log_keep)
        return n + steps, alarmed + lost, surviving * math.exp(steps * log_keep)
    return n, alarmed, surviving


def alarm_probability(p: float, t_suspicion: int, n: int) -> float:
    """Probability that the counter, started at 0, alarms within ``n`` words.

    The alarm mass while it is below 1/2, and one minus the surviving mass
    above, so neither is read from a difference near 1.
    """
    n = int(n)
    if n < 0:
        raise ValueError(f"word count must be >= 0, got {n}")
    _, alarmed, surviving = _walk(check_p(p), check_chain_t(t_suspicion), n)
    return alarmed if alarmed < 0.5 else 1.0 - surviving


def time_to_detect(
    p: float,
    t_suspicion: int,
    target: float = DEFAULT_DETECT_TARGET,
) -> int | None:
    """Minimal word count n with ``alarm_probability(p, T, n) >= target``.

    The surviving mass is bracketed against ``1 - target`` with squared
    powers and bisected bit by bit with the same powers, then followed by
    its geometric tail beyond 2**24 words. Returns None when the target is
    unreachable: p == 0, target >= 1 with p < 1, or more than 2**63 words
    needed.
    """
    p = check_p(p)
    t = check_chain_t(t_suspicion)
    if target <= 0.0:
        return 0
    if target >= 1.0:
        # for p < 1 some mass stays at 0 through any number of words
        return t if p == 1.0 else None
    n, _, _ = _walk(p, t, _MAX_DETECT_WORDS, 1.0 - target)
    return None if n == _MAX_DETECT_WORDS else n + 1


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
