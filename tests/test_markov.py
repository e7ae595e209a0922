import numpy as np
import pytest

from a429ids import markov

from oracles import enumerate_alarm_probability, recurrence_alarm_probability


def test_chain_structure_t3():
    chain = markov.build_chain(0.25, 3)
    expected = np.array(
        [
            [0.75, 0.25, 0.0, 0.0],
            [0.75, 0.0, 0.25, 0.0],
            [0.0, 0.75, 0.0, 0.25],
            [0.0, 0.0, 0.0, 1.0],
        ]
    )
    assert np.allclose(chain.transition, expected, atol=1e-15)
    assert np.allclose(chain.transition.sum(axis=1), 1.0, atol=1e-12)


def test_chain_p0_and_p1():
    chain0 = markov.build_chain(0.0, 5)
    assert chain0.transition[0, 0] == 1.0  # row 0 is an identity row
    assert markov.alarm_probability(0.0, 5, 10_000) == 0.0

    # deterministic march: all mass on the alarm state after T words
    power = np.linalg.matrix_power(markov.build_chain(1.0, 7).transition, 7)
    assert power[0, 7] == pytest.approx(1.0, abs=1e-15)


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


def test_matrix_power_stays_stochastic():
    chain = markov.build_chain(0.37, 25)
    power = np.linalg.matrix_power(chain.transition, 10_000_000)
    assert np.allclose(power.sum(axis=1), 1.0, atol=1e-9)


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


def test_time_to_detect_seconds():
    n = markov.time_to_detect(0.6, 100)
    seconds = markov.time_to_detect_seconds(0.6, 100, words_per_s=610.0)
    assert seconds == pytest.approx(n / 610.0)
    assert markov.time_to_detect_seconds(0.0, 5) is None


def test_flight_false_alarm_closed_forms():
    assert markov.flight_false_alarm(0.0, 10) == 0.0
    # T=1: one bad word is enough; 10h at 610 words/s is 21 960 000 words.
    # Repeated squaring loses ~2^log2(n) ulps, hence the 1e-7 band.
    expected = 1.0 - (1.0 - 1e-8) ** 21_960_000
    assert markov.flight_false_alarm(1e-8, 1) == pytest.approx(expected, rel=1e-7)


def test_validation_errors():
    with pytest.raises(ValueError):
        markov.build_chain(-0.1, 5)
    with pytest.raises(ValueError):
        markov.build_chain(1.1, 5)
    with pytest.raises(ValueError):
        markov.build_chain(0.5, 0)
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
