"""Hardware-fingerprinting intrusion detection for ARINC 429 buses.

Pipeline: synthesize device-specific BRTZ waveforms, segment each word into
127 typed sub-bit segments, extract one of four feature sets, score each
segment with a per-type local-outlier-factor model, vote the segments into
a per-word label, and feed labels through a suspicion counter. The markov
module analyses the counter as an absorbing chain; the evaluation module
reproduces the full experimental protocol on synthetic device populations.
"""

from .bus import (
    ReceiverLoad,
    Trace,
    TransmitterProfile,
    decimate,
    read_trace,
    synthesize_stream,
    write_trace,
)
from .detector import (
    SuspicionCounter,
    WordDetector,
    classify_words,
    counter_step,
    first_passage,
    load_detector,
    run_labels,
    save_detector,
    train_detector,
)
from .features import (
    FeatureSet,
    extract,
    feature_length,
)
from .lof import LofModel
from .markov import (
    alarm_probability,
    flight_false_alarm,
    time_to_detect,
    time_to_detect_seconds,
)
from .evaluation import (
    BusSetup,
    ErrorCurves,
    Report,
    Scenario,
    build_report,
    compute_eer,
    fa_per_sec,
)
from .segmentation import (
    MalformedSignal,
    Segment,
    SegmentTable,
    SegmentType,
    segment_stream,
)
from .words import DEFAULT_WORD_SET, parse_word

__version__ = "0.1.0"
