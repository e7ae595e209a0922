import numpy as np
import pytest

from a429ids import bus, words

from oracles import msb_first_bits


def _sent_bits(values):
    """Each word's bits as synthesis puts them on the bus, read from the
    polarity of every bit's plateau."""
    tx = bus.TransmitterProfile()
    trace = bus.synthesize_stream(tx, [bus.ReceiverLoad()], values, seed=2)
    at = np.arange(words.WORD_BITS) + 0.4  # past the rise ramp, before the fall
    idx = trace.word_starts[:, None] + np.rint(at * trace.samples_per_bit).astype(np.int64)
    return (trace.samples[idx] > tx.null_volts).astype(int).tolist()


def test_msb_first_pattern():
    assert _sent_bits([0xA5A5A5A5, 0x0000000F]) == [
        [1, 0, 1, 0, 0, 1, 0, 1] * 4,
        [0] * 28 + [1] * 4,
    ]


def test_msb_first_matches_bit_extraction_oracle():
    rng = np.random.default_rng(3)
    values = [int(v) for v in rng.integers(0, 2**32, size=200)]
    assert _sent_bits(values) == [msb_first_bits(v) for v in values]


def test_word_range_checks():
    assert words.check_word(0xFFFFFFFF) == 0xFFFFFFFF
    with pytest.raises(ValueError):
        words.check_word(2**32)
    with pytest.raises(ValueError):
        words.check_word(-1)
    with pytest.raises(TypeError):
        words.check_word("0x10")
    with pytest.raises(TypeError):
        words.check_word(True)


def test_parse_and_format():
    # scenario files hold words formatted as 0x%08X
    assert words.parse_word(f"0x{0xA5A5A5A5:08X}") == 0xA5A5A5A5
    assert words.parse_word("a5a5a5a5") == 0xA5A5A5A5
    with pytest.raises(ValueError):
        words.parse_word("0x1A5A5A5A5")


def test_default_word_set():
    assert len(words.DEFAULT_WORD_SET) == 6
    assert len(set(words.DEFAULT_WORD_SET)) == 6
