"""Word-level intrusion detector: per-segment novelty votes feeding a
streaming suspicion counter.

Training pools the feature vectors of every segment type seen in the
normal words and fits one LOF model per type. Classification counts how
many of a word's segments vote "normal"; the word is anomalous when that
count does not exceed t_votes. Segment types the feature set excludes are
skipped outright - they shrink the voting universe instead of counting as
free normal votes. The suspicion counter then turns per-word labels into
an alarm: +1 on an anomaly, -1 on a normal word with a floor at zero; a
counter is alarmed, for good, exactly when its value reaches t_suspicion.

`first_passage` is the counter's one kernel: the alarm word of every
t_suspicion for many label streams at once. `run_labels` and the evaluation
protocols use it; `SuspicionCounter` and `counter_step` stream word by word.
"""

from __future__ import annotations

import zipfile
from dataclasses import dataclass, replace

import numpy as np

from . import features, lof, markov
from .features import DEFAULT_SAMPLE_INTERVAL, FeatureSet
from .segmentation import SEGMENTS_PER_WORD, SegmentType

# Names of a bundle's model members: <segment type>/<record field>.
_MODEL_MEMBERS = {f"{t.value}/{name}" for t in SegmentType for name in lof.RECORD_FIELDS}


@dataclass
class WordDetector:
    set_id: FeatureSet
    t_votes: int
    models: dict[SegmentType, lof.LofModel]
    sample_interval: float = DEFAULT_SAMPLE_INTERVAL


def check_t_votes(t_votes: int) -> int:
    """Check a voting threshold; returns it as an int."""
    t_votes = int(t_votes)
    if not 0 <= t_votes <= 127:
        raise ValueError(f"t_votes must be in [0, 127], got {t_votes}")
    return t_votes


def train_detector(
    training_words,
    set_id: FeatureSet,
    t_votes: int,
    k: int = lof.DEFAULT_K,
    contamination: float = lof.DEFAULT_CONTAMINATION,
    sample_interval: float = DEFAULT_SAMPLE_INTERVAL,
) -> WordDetector:
    """Fit one per-type model from segmented normal words.

    ``training_words`` is a ``SegmentTable``. Types that never occur in it
    get no model (they cannot occur at test time either when the guarded bus
    replays the same word vocabulary); a type too rare to fit is an error.
    """
    t_votes = check_t_votes(t_votes)
    pools = features.extract_batch(set_id, training_words, dt=sample_interval)
    if not pools:
        raise ValueError("no training segments")
    models = {}
    for seg_type, (_, vecs) in sorted(pools.items(), key=lambda kv: kv[0].value):
        if len(vecs) < k + 2:
            raise ValueError(
                f"only {len(vecs)} {seg_type.value} training segments; "
                f"need at least k + 2 = {k + 2}"
            )
        models[seg_type] = lof.fit(vecs, k=k, contamination=contamination)
    return WordDetector(
        set_id=set_id, t_votes=t_votes, models=models, sample_interval=sample_interval
    )


def classify_words(detector: WordDetector, words) -> tuple[np.ndarray, np.ndarray]:
    """Labels and normal-vote counts for a batch of segmented words.

    ``words`` is a ``SegmentTable``; ``table[i : i + 1]`` is its word i
    alone. Returns (is_anomaly bool array, normal_votes int array). Segments
    are grouped by type so each model scores one matrix; per-word results
    are scattered back afterwards.
    """
    grouped = features.extract_batch(detector.set_id, words, dt=detector.sample_interval)
    votes = np.zeros(len(words), dtype=np.int64)
    for seg_type, (positions, vecs) in grouped.items():
        model = detector.models.get(seg_type)
        if model is None:
            raise ValueError(
                f"no model for segment type {seg_type.value}; "
                "it never occurred in the training words"
            )
        anomalous = lof.classify(model, vecs)
        np.add.at(votes, positions // SEGMENTS_PER_WORD, (~anomalous).astype(np.int64))
    labels = votes <= detector.t_votes
    return labels, votes


@dataclass(frozen=True)
class SuspicionCounter:
    t_suspicion: int
    value: int = 0

    def __post_init__(self):
        markov.check_t(self.t_suspicion)
        if not 0 <= self.value <= self.t_suspicion:
            raise ValueError(f"counter value {self.value} outside [0, {self.t_suspicion}]")

    @property
    def alarmed(self) -> bool:
        """True once the value has reached t_suspicion, which absorbs it."""
        return self.value == self.t_suspicion


def counter_step(counter: SuspicionCounter, is_anomaly: bool) -> SuspicionCounter:
    """Advance the counter by one word. Stepping an alarmed counter is a no-op."""
    if counter.alarmed:
        return counter
    if is_anomaly:
        value = counter.value + 1
    else:
        value = max(counter.value - 1, 0)
    return replace(counter, value=value)


def first_passage(labels, max_level: int, start: int = 0) -> np.ndarray:
    """First-passage word counts of the counter at every level 0..max_level.

    ``labels`` is a (reps, n) bool matrix, one label stream per row. Entry
    [r, L] of the (reps, max_level + 1) int64 result is the 1-based index of
    the first word after which row r's counter, started at ``start``, stands
    at L or above (the alarm word of a counter with t_suspicion = L), or 0
    where it never does. The floor-at-zero walk is Lindley's recursion in
    closed form: W = S - min(-start, running min of S), with S the
    cumulative sum of the +1/-1 steps. W moves in unit steps, so its running
    maximum climbs through the levels one word at a time.
    """
    labels = np.asarray(labels, dtype=bool)
    if labels.ndim != 2:
        raise ValueError(f"labels must be a (reps, n) matrix, got shape {labels.shape}")
    reps, n = labels.shape
    hits = np.zeros((reps, max_level + 1), dtype=np.int64)
    if n == 0:
        return hits
    walk = np.where(labels, np.int32(1), np.int32(-1))
    np.cumsum(walk, axis=1, out=walk)
    top = np.minimum.accumulate(walk, axis=1)
    np.minimum(top, -start, out=top)
    walk -= top
    np.maximum.accumulate(walk, axis=1, out=top)
    del walk
    np.minimum(top, max_level, out=top)  # deeper levels are never inspected
    hits[np.arange(max_level + 1) <= top[:, :1]] = 1
    rows, cols = np.nonzero(top[:, 1:] > top[:, :-1])
    hits[rows, top[rows, cols + 1]] = cols + 2
    return hits


def run_labels(counter: SuspicionCounter, labels) -> int | None:
    """Feed per-word labels through the counter.

    Returns the 1-based index of the word that raised the alarm, or None if
    the stream ends unalarmed. An alarmed counter alarms at the first word.
    """
    labels = np.asarray(labels, dtype=bool)
    if labels.ndim != 1:
        raise ValueError(f"labels must be a 1-d sequence, got shape {labels.shape}")
    if counter.alarmed:
        return 1 if len(labels) else None
    if counter.t_suspicion > counter.value + len(labels):
        return None  # out of reach, and first_passage would allocate every level
    alarm = first_passage(labels[None, :], counter.t_suspicion, counter.value)[0, -1]
    return int(alarm) or None


def detector_to_dict(detector: WordDetector) -> dict:
    """Flat record: the header fields, then each model's under ``<TYPE>/<field>``."""
    record = {
        "feature_set": detector.set_id.value,
        "t_votes": detector.t_votes,
        "sample_interval": detector.sample_interval,
    }
    for seg_type, model in detector.models.items():
        for name, value in lof.model_to_dict(model).items():
            record[f"{seg_type.value}/{name}"] = value
    return record


def detector_from_dict(data: dict) -> WordDetector:
    """Rebuild a detector from ``detector_to_dict``'s record, checking it."""
    data = dict(data)
    try:
        set_id = FeatureSet(str(data.pop("feature_set")))
        t_votes = int(data.pop("t_votes"))
        sample_interval = float(data.pop("sample_interval"))
    except KeyError as exc:
        raise ValueError(f"detector record missing key {exc}") from exc
    try:
        check_t_votes(t_votes)
    except ValueError as exc:
        raise ValueError(f"detector record field 't_votes' is {t_votes}: {exc}") from None
    if not (np.isfinite(sample_interval) and sample_interval > 0.0):
        raise ValueError(
            f"detector record field 'sample_interval' is {sample_interval}, "
            "must be finite and positive"
        )
    records: dict[SegmentType, dict] = {}
    for key, value in data.items():
        if key not in _MODEL_MEMBERS:
            raise ValueError(f"detector record has unknown member {key!r}")
        name, field = key.split("/")
        records.setdefault(SegmentType(name), {})[field] = value
    models = {}
    for seg_type, record in records.items():
        try:
            models[seg_type] = lof.model_from_dict(record)
        except ValueError as exc:
            raise ValueError(f"model {seg_type.value}: {exc}") from exc
    for seg_type, model in models.items():
        want = features.feature_length(set_id, seg_type)
        if model.dim != want:
            raise ValueError(
                f"detector record field '{seg_type.value}/train' has dimension {model.dim}; "
                f"{set_id.value} gives {seg_type.value} segments {want or 'no'} features"
            )
    return WordDetector(set_id, t_votes, models, sample_interval)


def save_detector(detector: WordDetector, path) -> None:
    """Write exactly ``path``: an .npz whose members have fixed names, order and dates."""
    with zipfile.ZipFile(path, "w") as archive:
        for key, value in sorted(detector_to_dict(detector).items()):
            with archive.open(zipfile.ZipInfo(f"{key}.npy"), "w", force_zip64=True) as member:
                np.lib.format.write_array(member, np.asarray(value), allow_pickle=False)


def load_detector(path) -> WordDetector:
    """Read a ``save_detector`` bundle with ``np.load(..., allow_pickle=False)``."""
    with open(path, "rb") as fh:
        if not zipfile.is_zipfile(fh):
            raise ValueError(f"{path} is not a detector bundle (an .npz zip archive)")
        fh.seek(0)
        with np.load(fh, allow_pickle=False) as bundle:
            return detector_from_dict({key: bundle[key] for key in bundle.files})
