"""Split BRTZ words into 127 typed sub-bit segments by threshold crossings.

Four positive thresholds and their negatives carve a word into ten segment
types. Each type has one start crossing and one end crossing; while a
segment is open, crossings of every other threshold are ignored, which is
what makes the scheme hysteretic (the paired thresholds sit 0.8 V apart, so
sample noise cannot re-trigger a boundary). A word is 32 pulses; the long
null after the last pulse belongs to no word and is dropped, leaving
32 * 4 - 1 = 127 segments.

`segment_stream` finds the crossings once over the whole trace and runs
the state machine on plain ints, word by word, over the crossings inside
each word's window. It returns a `SegmentTable`: three ``(n_words, 127)``
arrays (type code, absolute start, length; 9 bytes a segment, the start
and length held as int32 unless the trace reaches 2**31 samples) over the
trace's own samples, which it does not copy. The table builds a word's
`Segment` objects, with copied samples, only when indexed.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .words import WORD_BITS


class SegmentType(Enum):
    LO = "LO"
    HI = "HI"
    NULL_HH = "NULL_HH"  # null between two 1 bits ("smile")
    NULL_HL = "NULL_HL"  # null between a 1 and a 0
    NULL_LL = "NULL_LL"  # null between two 0 bits ("frown")
    NULL_LH = "NULL_LH"  # null between a 0 and a 1
    UP_FROM_LO = "UP_FROM_LO"
    UP_FROM_NULL = "UP_FROM_NULL"
    DOWN_FROM_HI = "DOWN_FROM_HI"
    DOWN_FROM_NULL = "DOWN_FROM_NULL"


TRANSITION_TYPES = frozenset(
    {
        SegmentType.UP_FROM_LO,
        SegmentType.UP_FROM_NULL,
        SegmentType.DOWN_FROM_HI,
        SegmentType.DOWN_FROM_NULL,
    }
)


# The thresholds in volts: a null is left above V_L2 (below -V_L2) and
# re-entered below V_L1 (above -V_L1); a plateau is entered above V_H1
# (below -V_H1) and left below V_H2 (above -V_H2). They are float64 scalars
# so that float32 samples are compared with them in float64: NumPy compares
# a Python float with a float32 array in float32.
V_L1, V_L2, V_H1, V_H2 = np.float64([2.0, 2.8, 8.0, 7.2])


class MalformedSignal(ValueError):
    """Crossing sequence inconsistent with any legal bit pattern: the word
    (its row in the trace) and the absolute sample where parsing gave up."""

    def __init__(self, message: str, sample_index: int, word_index: int):
        self.message = message
        self.sample_index = int(sample_index)
        self.word_index = int(word_index)
        super().__init__(f"{message} (word {self.word_index}, sample {self.sample_index})")


@dataclass(slots=True)
class Segment:
    seg_type: SegmentType
    samples: np.ndarray
    start_index: int  # sample index relative to the word start


# Crossing kinds. Rank (code % 10) orders simultaneous crossings along the
# direction of travel; rises and falls cannot share a sample index.
_R_NEG_H2, _R_NEG_L1, _R_L2, _R_H1 = 0, 1, 2, 3
_F_H2, _F_L1, _F_NEG_L2, _F_NEG_H1 = 10, 11, 12, 13


def _crossings(x: np.ndarray):
    """Sample indices and kind codes of all threshold crossings in ``x``.

    A crossing fires on the first sample strictly beyond the threshold when
    the previous sample was not (strict on the new sample, no interpolation).
    """
    prev, cur = x[:-1], x[1:]
    idx_parts, code_parts = [], []
    rises = ((_R_NEG_H2, -V_H2), (_R_NEG_L1, -V_L1), (_R_L2, V_L2), (_R_H1, V_H1))
    falls = ((_F_H2, V_H2), (_F_L1, V_L1), (_F_NEG_L2, -V_L2), (_F_NEG_H1, -V_H1))
    for code, thr in rises:
        hits = np.nonzero((cur > thr) & (prev <= thr))[0] + 1
        idx_parts.append(hits)
        code_parts.append(np.full(len(hits), code, dtype=np.int64))
    for code, thr in falls:
        hits = np.nonzero((cur < thr) & (prev >= thr))[0] + 1
        idx_parts.append(hits)
        code_parts.append(np.full(len(hits), code, dtype=np.int64))
    idx = np.concatenate(idx_parts)
    code = np.concatenate(code_parts)
    order = np.lexsort((code % 10, idx))
    return idx[order], code[order]


# State machine: maps (state, crossing) -> (segment type closed, next state).
# States name what is currently open; "null_h"/"null_l" are nulls whose type
# resolves only once the next pulse's polarity shows up.
_LEAD, _UP_NULL, _HI, _DOWN_HI, _NULL_H, _DOWN_NULL, _LO, _UP_LO, _NULL_L = range(9)

_STEP = {
    (_LEAD, _R_L2): (None, _UP_NULL),
    (_LEAD, _F_NEG_L2): (None, _DOWN_NULL),
    (_UP_NULL, _R_H1): (SegmentType.UP_FROM_NULL, _HI),
    (_HI, _F_H2): (SegmentType.HI, _DOWN_HI),
    (_DOWN_HI, _F_L1): (SegmentType.DOWN_FROM_HI, _NULL_H),
    (_NULL_H, _R_L2): (SegmentType.NULL_HH, _UP_NULL),
    (_NULL_H, _F_NEG_L2): (SegmentType.NULL_HL, _DOWN_NULL),
    (_DOWN_NULL, _F_NEG_H1): (SegmentType.DOWN_FROM_NULL, _LO),
    (_LO, _R_NEG_H2): (SegmentType.LO, _UP_LO),
    (_UP_LO, _R_NEG_L1): (SegmentType.UP_FROM_LO, _NULL_L),
    (_NULL_L, _R_L2): (SegmentType.NULL_LH, _UP_NULL),
    (_NULL_L, _F_NEG_L2): (SegmentType.NULL_LL, _DOWN_NULL),
}

# Type codes of the table: a segment type's position in SegmentType.
SEGMENT_TYPES = tuple(SegmentType)
TYPE_CODES = {seg_type: code for code, seg_type in enumerate(SEGMENT_TYPES)}
SEGMENTS_PER_WORD = 4 * WORD_BITS - 1

# _STEP with each closed type as its code, which the parsing loop reads
_STEP_CODES = {
    key: (None if closed is None else TYPE_CODES[closed], state)
    for key, (closed, state) in _STEP.items()
}

# Closing a transition of these types completes one pulse.
_PULSE_CLOSERS = {TYPE_CODES[SegmentType.DOWN_FROM_HI], TYPE_CODES[SegmentType.UP_FROM_LO]}


@dataclass(frozen=True, eq=False)
class SegmentTable(Sequence):
    """Segmented words as columns over the trace's samples (not a copy).

    ``types``, ``starts`` and ``lengths`` are ``(n_words, 127)`` arrays: the
    type code (an index into ``SEGMENT_TYPES``, int8), the absolute start
    sample and the sample count of every segment (int32, or int64 for a
    trace of 2**31 samples or more), in word order. The table is a
    sequence of words: ``table[i]`` builds word i's ``list[Segment]`` with
    samples copied as float64 and start indices relative to the word start,
    and a slice is a table over the same samples. Read flat, row-major, the
    columns are the segments of all words in order, which is how
    ``features.extract_batch`` takes a table.
    """

    samples: np.ndarray
    word_starts: np.ndarray  # (n_words,) absolute start sample of each word
    types: np.ndarray
    starts: np.ndarray
    lengths: np.ndarray

    def __len__(self) -> int:
        return len(self.word_starts)

    def __getitem__(self, key):
        if isinstance(key, slice):
            return SegmentTable(
                self.samples, self.word_starts[key], self.types[key],
                self.starts[key], self.lengths[key],
            )
        wi = range(len(self))[key]  # IndexError past either end
        origin = int(self.word_starts[wi])
        return [
            Segment(
                SEGMENT_TYPES[code], self.samples[start : start + n].astype(np.float64),
                start - origin,
            )
            for code, start, n in zip(
                self.types[wi].tolist(), self.starts[wi].tolist(), self.lengths[wi].tolist()
            )
        ]


def _segment_words(samples, word_starts, window, idx, code) -> SegmentTable:
    """Run the state machine over each word's crossings.

    ``idx`` and ``code`` are crossings with absolute sample indices, sorted
    as ``_crossings`` sorts them. A word starting at ``s`` parses those with
    ``s < idx < s + window``: the ones ``_crossings`` finds in the window
    ``samples[s : s + window]`` alone.
    """
    n_words = len(word_starts)
    types = np.empty((n_words, SEGMENTS_PER_WORD), dtype=np.int8)
    index_type = np.int32 if len(samples) < 2**31 else np.int64
    starts = np.empty((n_words, SEGMENTS_PER_WORD), dtype=index_type)
    ends = np.empty(n_words, dtype=index_type)
    lo = np.searchsorted(idx, word_starts, side="right").tolist()
    hi = np.searchsorted(idx, word_starts + window, side="left").tolist()
    for wi, word_start in enumerate(word_starts.tolist()):
        word_idx = idx[lo[wi] : hi[wi]].tolist()
        word_types, seg_starts = [], []
        state = _LEAD
        open_at = None
        pulses = 0
        for i, c in zip(word_idx, code[lo[wi] : hi[wi]].tolist()):
            action = _STEP_CODES.get((state, c))
            if action is None:
                continue  # hysteresis: not a boundary of the open segment
            closed, state = action
            if closed is not None:
                if i <= open_at:
                    raise MalformedSignal(
                        f"degenerate {SEGMENT_TYPES[closed].value} segment", i, wi
                    )
                word_types.append(closed)
                seg_starts.append(open_at)
                if closed in _PULSE_CLOSERS:
                    pulses += 1
                    if pulses == WORD_BITS:
                        break
            open_at = i
        else:
            last = word_idx[-1] if word_idx else min(word_start + window, len(samples)) - 1
            raise MalformedSignal(
                f"signal ended after {pulses} of {WORD_BITS} pulses", last, wi
            )
        types[wi] = word_types
        starts[wi] = seg_starts
        ends[wi] = i
    lengths = np.empty_like(starts)
    np.subtract(starts[:, 1:], starts[:, :-1], out=lengths[:, :-1])
    np.subtract(ends, starts[:, -1], out=lengths[:, -1])
    return SegmentTable(samples, word_starts, types, starts, lengths)


def segment_stream(trace) -> SegmentTable:
    """Segment every word of the trace into one ``SegmentTable``.

    Crossings are found once over the whole trace; each word then parses
    the ones inside its own window, which reaches one bit period past the
    word's 32 bits to take in the closing transition (the minimum 4-bit
    gap keeps it short of the next word). A word whose crossings cannot be
    parsed as 32 pulses (a saturated or clipped stretch, say) raises
    ``MalformedSignal``.
    """
    idx, code = _crossings(trace.samples)
    window = math.ceil((WORD_BITS + 1) * trace.samples_per_bit)
    return _segment_words(trace.samples, trace.word_starts, window, idx, code)
