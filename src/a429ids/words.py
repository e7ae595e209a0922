"""32-bit bus word values: the default word set, validation and parsing."""

WORD_BITS = 32

# Six word values that together exercise every segment type: all-zero,
# all-one, both phases of single-bit alternation and both phases of
# pair-wise alternation.
DEFAULT_WORD_SET = (
    0x00000000,
    0xFFFFFFFF,
    0x55555555,
    0xAAAAAAAA,
    0x5A5A5A5A,
    0xA5A5A5A5,
)


def check_word(value: int) -> int:
    """Validate that ``value`` fits in an unsigned 32-bit word."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"word value must be an int, got {type(value).__name__}")
    if not 0 <= value <= 0xFFFFFFFF:
        raise ValueError(f"word value out of 32-bit range: {value}")
    return value


def parse_word(text: str) -> int:
    """Parse a word value from hexadecimal text such as ``"0xA5A5A5A5"``."""
    return check_word(int(text, 16))
