import math
import tracemalloc

import pytest

from a429ids import markov

from oracles import (
    enumerate_alarm_probability,
    recurrence_alarm_probability,
    renewal_detect_words,
)


def test_chain_p0_and_p1():
    assert markov.alarm_probability(0.0, 5, 10_000) == 0.0

    # deterministic march: the alarm comes at exactly word T
    assert markov.alarm_probability(1.0, 7, 6) == 0.0
    assert markov.alarm_probability(1.0, 7, 7) == 1.0


def test_alarm_probability_t1_geometric():
    for p in (0.05, 0.3, 0.9):
        for n in (0, 1, 5, 40):
            assert markov.alarm_probability(p, 1, n) == pytest.approx(
                1.0 - (1.0 - p) ** n, abs=1e-12
            )


@pytest.mark.parametrize("p", [0.3, 0.7])
def test_alarm_probability_matches_path_enumeration(p):
    for n in range(0, 13):
        exact = enumerate_alarm_probability(p, 3, n)
        assert markov.alarm_probability(p, 3, n) == pytest.approx(exact, abs=1e-12)


def test_alarm_probability_matches_recurrence():
    for p in (0.1, 0.5, 0.8):
        for t in (1, 4, 9):
            for n in (3, 17, 120):
                assert markov.alarm_probability(p, t, n) == pytest.approx(
                    recurrence_alarm_probability(p, t, n), abs=1e-11
                )


def test_monotonicity_grid():
    ps = [0.1, 0.3, 0.6, 0.9]
    ts = [1, 3, 8]
    ns = [5, 20, 80, 300]
    values = {
        (p, t, n): markov.alarm_probability(p, t, n)
        for p in ps for t in ts for n in ns
    }
    for t in ts:
        for p in ps:
            seq = [values[(p, t, n)] for n in ns]
            assert all(a <= b + 1e-12 for a, b in zip(seq, seq[1:]))
        for n in ns:
            seq = [values[(p, t, n)] for p in ps]
            assert all(a <= b + 1e-12 for a, b in zip(seq, seq[1:]))
    for p in ps:
        for n in ns:
            seq = [values[(p, t, n)] for t in ts]
            assert all(a >= b - 1e-12 for a, b in zip(seq, seq[1:]))


def test_time_to_detect_deterministic_cases():
    assert markov.time_to_detect(1.0, 10) == 10
    # T=1 geometric: smallest n with 1-(1-p)^n >= target
    assert markov.time_to_detect(0.6, 1, target=0.99999) == 13


def test_time_to_detect_is_minimal():
    n = markov.time_to_detect(0.55, 7, target=0.999)
    assert markov.alarm_probability(0.55, 7, n) >= 0.999
    assert markov.alarm_probability(0.55, 7, n - 1) < 0.999


def test_time_to_detect_unreachable():
    assert markov.time_to_detect(0.0, 5) is None
    assert markov.time_to_detect(0.5, 5, target=0.0) == 0


def test_time_to_detect_target_one():
    # for p < 1 the counter can stay at 0 through any number of words, so the
    # surviving mass never reaches 0, however far it underflows
    assert markov.time_to_detect(0.5, 5, target=1.0) is None
    assert markov.time_to_detect(0.999, 3, target=1.0) is None
    assert markov.time_to_detect(1.0, 5, target=1.0) == 5


# detection times past the 2**24 words of squared powers, where the
# quasi-stationary tail answers; these agree with the renewal estimate to
# 1e-8 relative or better
@pytest.mark.parametrize("p, t", [(0.1, 11), (0.1, 12), (0.1, 18), (0.2, 15), (0.2, 29)])
def test_time_to_detect_matches_renewal_estimate(p, t):
    want = renewal_detect_words(p, t, markov.DEFAULT_DETECT_TARGET)
    assert want is not None and want > 2**24
    assert markov.time_to_detect(p, t) == pytest.approx(want, rel=1e-3)


@pytest.mark.parametrize("p, t", [(0.1, 19), (0.2, 30), (0.2, 50)])
def test_time_to_detect_past_2_63_words_is_unreachable(p, t):
    assert renewal_detect_words(p, t, markov.DEFAULT_DETECT_TARGET) is None
    assert markov.time_to_detect(p, t) is None


def test_time_to_detect_seconds():
    n = markov.time_to_detect(0.6, 100)
    seconds = markov.time_to_detect_seconds(0.6, 100, words_per_s=610.0)
    assert seconds == pytest.approx(n / 610.0)
    assert markov.time_to_detect_seconds(0.0, 5) is None


def test_flight_false_alarm_closed_forms():
    assert markov.flight_false_alarm(0.0, 10) == 0.0
    # T=1: one bad word is enough; 10h at 610 words/s is 21 960 000 words.
    # The squared powers reach 2**24 of them and the geometric tail the
    # rest; the alarm mass of the squared powers is 3.7e-10 off, relative.
    expected = -math.expm1(21_960_000 * math.log1p(-1e-8))
    assert markov.flight_false_alarm(1e-8, 1) == pytest.approx(expected, rel=1e-9)


def test_flight_false_alarm_in_range_and_non_increasing_in_t():
    # no slack: values that round to 1 must not come back above it
    for p in (0.1, 0.2, 0.4):
        flight = [markov.flight_false_alarm(p, t) for t in range(1, 51)]
        assert all(0.0 <= f <= 1.0 for f in flight)
        assert all(b <= a for a, b in zip(flight, flight[1:]))


def test_validation_errors():
    with pytest.raises(ValueError, match=r"anomaly probability must be in \[0, 1\], got -0.1"):
        markov.alarm_probability(-0.1, 5, 10)
    with pytest.raises(ValueError, match=r"anomaly probability must be in \[0, 1\], got 1.1"):
        markov.alarm_probability(1.1, 5, 10)
    with pytest.raises(ValueError, match="t_suspicion must be >= 1, got 0"):
        markov.alarm_probability(0.5, 0, 10)
    with pytest.raises(ValueError):
        markov.alarm_probability(0.5, 5, -1)
    # a word rate or flight duration that is not a finite number in range is
    # rejected by name, even where the answer would not use it (p = 0)
    for rate in (0.0, -1.0, float("nan")):
        with pytest.raises(ValueError, match=f"words_per_s must be finite and > 0, got {rate}"):
            markov.time_to_detect_seconds(0.0, 5, words_per_s=rate)
        with pytest.raises(ValueError, match=f"words_per_s must be finite and > 0, got {rate}"):
            markov.flight_false_alarm(0.4, 5, words_per_s=rate)
    for duration in (-5.0, float("inf")):
        with pytest.raises(ValueError, match=f"duration_s must be finite and >= 0, got {duration}"):
            markov.flight_false_alarm(0.4, 5, duration_s=duration)


def test_chain_size_is_capped_before_allocation():
    # a query holds about 200 * T**2 bytes: 5 GB at T=5000
    cap = f"t_suspicion must be <= {markov.MAX_CHAIN_T} for a chain query, got 5000"
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=cap):
            markov.time_to_detect(0.4, 5000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6
    with pytest.raises(ValueError, match=cap):
        markov.alarm_probability(0.4, 5000, 10)
    with pytest.raises(ValueError, match=cap):
        markov.flight_false_alarm(0.4, 5000)
    with pytest.raises(ValueError, match=cap):
        markov.time_to_detect_seconds(0.4, 5000)
    # the cap itself is a valid threshold
    assert markov.alarm_probability(0.4, markov.MAX_CHAIN_T, 1) == 0.0
