import dataclasses
import json
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from a429ids import bus, segmentation
from a429ids.words import DEFAULT_WORD_SET


def write_scenario(scenario, path):
    """Write ``scenario`` as a JSON file that `evaluation.load_scenario` reads."""
    record = dataclasses.asdict(scenario)
    record["words"] = [f"0x{w:08X}" for w in scenario.words]
    Path(path).write_text(json.dumps(record, sort_keys=True, indent=2))
    return path


def segment_batch(segments):
    """A one-row ``SegmentTable`` over the concatenated samples of a list of
    ``Segment`` objects: ``features.extract_batch`` on it gives segment i
    at position i."""
    lengths = np.array([len(seg.samples) for seg in segments], dtype=np.int64)
    types = np.array([segmentation.TYPE_CODES[seg.seg_type] for seg in segments], dtype=np.int8)
    samples = np.concatenate([seg.samples for seg in segments]) if segments else np.empty(0)
    starts = np.cumsum(lengths) - lengths
    return segmentation.SegmentTable(
        samples, np.zeros(1, dtype=np.int64), types[None], starts[None], lengths[None]
    )


@pytest.fixture(scope="session")
def clean_profile():
    return bus.TransmitterProfile(noise_sigma=0.0, timing_jitter=0.0)


@pytest.fixture(scope="session")
def clean_segment_bank(clean_profile):
    """word value -> its 127 segments, from a noiseless jitter-free trace."""
    trace = bus.synthesize_stream(
        clean_profile, [bus.ReceiverLoad()], list(DEFAULT_WORD_SET), seed=7
    )
    per_word = segmentation.segment_stream(trace)
    return dict(zip(DEFAULT_WORD_SET, per_word))


@pytest.fixture(scope="session")
def noisy_trace():
    """(word values, trace) for 5 cycles of the standard words at the
    default noise level."""
    values = [DEFAULT_WORD_SET[i % 6] for i in range(30)]
    trace = bus.synthesize_stream(
        bus.TransmitterProfile(), [bus.ReceiverLoad()], values, seed=11
    )
    return values, trace


@pytest.fixture(scope="session")
def noisy_word_bank(noisy_trace):
    """(word values, per-word segments) of ``noisy_trace``: a SegmentTable."""
    values, trace = noisy_trace
    return values, segmentation.segment_stream(trace)
