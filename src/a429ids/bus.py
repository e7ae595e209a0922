"""Synthetic differential BRTZ bus waveforms with per-device analog character.

Each bit renders as a return-to-zero pulse: a raised-cosine ramp from the
null level to the HI or LO plateau, damped ringing superimposed on the
plateau, a raised-cosine ramp back to null, and a shaped null until the
next bit. The null between two like bits gets a half-cosine bump (downward
between two ones, upward between two zeros), reproducing the smile/frown
morphology seen on real buses. Receiver loads act as cascaded one-pole
low-pass filters on the line; white Gaussian measurement noise is added
last. Output is deterministic for a given seed (PCG64). Each word goes out
most significant bit first; ARINC 429's label-first wire order is not
modelled.

Words are rendered in blocks of `_BLOCK_WORDS`. Every word of the stream is
validated before anything is drawn or painted. A block takes its bits with
one shift and mask and its edge jitter with one PCG64 draw, the same stream
as one draw per word. The sample windows of all its pulses, and of the
like-bit null bumps, become one flat ragged index (window lengths
repeated, offset by their cumulative sums), so each waveform formula runs
once per block over every sample. The values are added with one unbuffered
``np.add.at``, ordered word by word, that word's pulses then its bumps.
Windows overlap (a pulse's last samples and the next bump's first, and
neighbouring words under large jitter), and floating-point addition is not
associative, so this order is what makes the output bit-for-bit equal to
rendering one pulse or bump at a time; a buffered ``x[idx] += v`` would
also drop repeated indices. The block size bounds the temporaries, which
stay a small fraction of the trace.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np
from scipy import signal as sps

from .words import WORD_BITS, check_word

DEFAULT_BIT_RATE = 100_000.0
DEFAULT_SAMPLES_PER_BIT = 50
MIN_GAP_BITS = 4

# Fraction of a raised-cosine ramp spent between 10% and 90% of the swing.
# Profile rise/fall times are 10-90 times, so the full ramp runs longer.
_RAMP_10_90_FRACTION = 0.5903344706017331
# The fall ramp starts at this fraction of the bit period. Slightly above
# one half so the plateau keeps margin over the longest raw-feature window
# while the 50%-width of the pulse stays close to the nominal half bit.
_FALL_START_FRACTION = 0.53
# Words rendered per block: large enough to amortize the per-call overhead
# of the array operations, small enough that a block's temporaries stay a
# small fraction of the trace.
_BLOCK_WORDS = 16


@dataclass(frozen=True)
class TransmitterProfile:
    """Analog character of one transmitter."""

    hi_volts: float = 10.0
    lo_volts: float = -10.0
    null_volts: float = 0.0
    rise_time: float = 1.7e-6  # 10%-90% swing time, seconds
    fall_time: float = 1.7e-6
    overshoot_frac: float = 0.08  # fraction of the plateau swing
    ringing_freq: float = 1.0e6  # Hz
    ringing_damping: float = 1.2  # amplitude e-folds per ringing cycle
    null_shape_gain: float = 0.30  # volts; bump between like bits
    timing_jitter: float = 2.0e-8  # RMS seconds, independent per edge
    noise_sigma: float = 0.05  # volts RMS measurement noise
    bit_rate: float = DEFAULT_BIT_RATE

    def validate(self) -> None:
        if self.bit_rate <= 0:
            raise ValueError(f"bit_rate must be positive, got {self.bit_rate}")
        bit_period = 1.0 / self.bit_rate
        if not 9.0 <= self.hi_volts <= 11.0:
            raise ValueError(f"hi_volts outside [9, 11]: {self.hi_volts}")
        if not -11.0 <= self.lo_volts <= -9.0:
            raise ValueError(f"lo_volts outside [-11, -9]: {self.lo_volts}")
        if abs(self.null_volts) > 0.5:
            raise ValueError(f"|null_volts| above 0.5: {self.null_volts}")
        if not 0.0 < self.rise_time < 0.25 * bit_period:
            raise ValueError(
                f"rise_time must be in (0, {0.25 * bit_period:g}) s: {self.rise_time}"
            )
        if not 0.0 < self.fall_time < 0.25 * bit_period:
            raise ValueError(
                f"fall_time must be in (0, {0.25 * bit_period:g}) s: {self.fall_time}"
            )
        if self.overshoot_frac < 0:
            raise ValueError(f"overshoot_frac must be >= 0: {self.overshoot_frac}")
        if self.ringing_freq <= 0:
            raise ValueError(f"ringing_freq must be positive: {self.ringing_freq}")
        if self.ringing_damping < 0:
            raise ValueError(f"ringing_damping must be >= 0: {self.ringing_damping}")
        if self.timing_jitter < 0:
            raise ValueError(f"timing_jitter must be >= 0: {self.timing_jitter}")
        if self.noise_sigma < 0:
            raise ValueError(f"noise_sigma must be >= 0: {self.noise_sigma}")


@dataclass(frozen=True)
class ReceiverLoad:
    """One receiver plus its share of the line, as a one-pole low-pass."""

    cutoff_freq: float = 2.0e6
    gain: float = 1.0

    def validate(self, bit_rate: float) -> None:
        if self.cutoff_freq <= bit_rate:
            raise ValueError(
                f"load cutoff {self.cutoff_freq:g} Hz must exceed the bit rate "
                f"{bit_rate:g} Hz"
            )
        if self.gain <= 0:
            raise ValueError(f"load gain must be positive: {self.gain}")


def _check_rate(name, rate):
    """Check a rate in Hz; returns it as a float."""
    rate = float(rate)
    if not (np.isfinite(rate) and rate > 0.0):
        raise ValueError(f"{name} must be finite and > 0, got {rate}")
    return rate


class Trace:
    """Uniformly sampled differential voltage record with word markers.

    Samples are float64, except that float32 samples (a capture read from
    an f32le file) stay float32, at 4 bytes a sample.
    """

    def __init__(self, sample_rate, bit_rate, samples, word_starts):
        self.sample_rate = _check_rate("sample_rate", sample_rate)
        self.bit_rate = _check_rate("bit_rate", bit_rate)
        samples = np.asarray(samples)
        if samples.dtype != np.float32:
            samples = samples.astype(np.float64, copy=False)
        self.samples = samples
        self.word_starts = np.asarray(word_starts, dtype=np.int64)
        if self.samples.ndim != 1:
            raise ValueError("samples must be one-dimensional")
        finite = np.isfinite(self.samples)
        if not finite.all():
            first = int(np.argmin(finite))
            raise ValueError(f"samples must be finite; sample {first} is {self.samples[first]}")
        if self.word_starts.ndim != 1:
            raise ValueError("word_starts must be one-dimensional")
        if len(self.word_starts):
            if np.any(np.diff(self.word_starts) <= 0):
                raise ValueError("word_starts must be strictly increasing")
            if self.word_starts[0] < 0 or self.word_starts[-1] >= len(self.samples):
                raise ValueError("word_starts out of bounds")

    @property
    def samples_per_bit(self) -> float:
        return self.sample_rate / self.bit_rate

    def __len__(self) -> int:
        return len(self.samples)


def _ragged(i0, i1):
    """Flat index of every sample of the windows ``[i0[j], i1[j])``.

    Returns ``(owner, index)``: the window each sample belongs to and its
    sample index, windows in order and each window's samples ascending.
    Empty and inverted windows contribute nothing.
    """
    lengths = np.maximum(i1 - i0, 0)
    owner = np.repeat(np.arange(len(lengths)), lengths)
    starts = np.cumsum(lengths) - lengths
    return owner, np.arange(len(owner)) + (i0 - starts)[owner]


def _paint_block(x, fs, tx, bits, rise_at, fall_at, rise_dur, fall_dur):
    """Add the pulses and like-bit null bumps of a block of words onto ``x``.

    ``bits`` (bool), ``rise_at`` and ``fall_at`` are (words, 32) arrays.
    Every sample is computed with the same expressions, in the same order
    of operations, as one pulse or bump rendered on its own, and the values
    are added word by word, that word's 32 pulses, then its bumps, so
    overlapping windows sum exactly as a per-bit loop would.
    """
    n = len(x)
    # pulses: [floor(rise*fs), ceil((fall + fall_dur)*fs) + 1), clipped
    rise = rise_at.ravel()
    fall = fall_at.ravel()
    swing = np.where(
        bits.ravel(), tx.hi_volts - tx.null_volts, tx.lo_volts - tx.null_volts
    )
    i0 = np.maximum(0, np.floor(rise * fs).astype(np.int64))
    i1 = np.minimum(n, np.ceil((fall + fall_dur) * fs).astype(np.int64) + 1)
    p_owner, p_idx = _ragged(i0, i1)
    t = p_idx / fs
    p_swing = swing[p_owner]
    u_rise = np.clip((t - rise[p_owner]) / rise_dur, 0.0, 1.0)
    u_fall = np.clip((t - fall[p_owner]) / fall_dur, 0.0, 1.0)
    # the fall gate also winds the ringing down so the ramp stays smooth
    fall_gate = 0.5 + 0.5 * np.cos(np.pi * u_fall)
    pulse = p_swing * ((0.5 - 0.5 * np.cos(np.pi * u_rise)) * fall_gate)
    if tx.overshoot_frac > 0.0:
        t_ring = t - (rise + rise_dur)[p_owner]
        live = t_ring > 0.0
        tr = t_ring[live]
        ring = (
            tx.overshoot_frac
            * p_swing[live]
            * np.exp(-tx.ringing_damping * tx.ringing_freq * tr)
            * np.sin(2.0 * np.pi * tx.ringing_freq * tr)
        )
        pulse[live] += ring * fall_gate[live]

    # half-sine bumps over the null between two like bits:
    # [ceil(t_a*fs), floor(t_b*fs) + 1), clipped, for t_b > t_a
    like = bits[:, :-1] == bits[:, 1:]
    bump_word = np.nonzero(like)[0]
    t_a = (fall_at[:, :-1] + fall_dur)[like]
    t_b = rise_at[:, 1:][like]
    amplitude = np.where(bits[:, :-1][like], -1.0, 1.0) * tx.null_shape_gain
    kept = (t_b > t_a) & (amplitude != 0.0)
    bump_word, t_a, t_b, amplitude = bump_word[kept], t_a[kept], t_b[kept], amplitude[kept]
    j0 = np.maximum(0, np.ceil(t_a * fs).astype(np.int64))
    j1 = np.minimum(n, np.floor(t_b * fs).astype(np.int64) + 1)
    b_owner, b_idx = _ragged(j0, j1)
    u = (b_idx / fs - t_a[b_owner]) / (t_b - t_a)[b_owner]
    bump = amplitude[b_owner] * np.sin(np.pi * u)

    # one unbuffered add in the loop's order: x[idx] += v would drop repeats
    key = np.concatenate([2 * (p_owner // WORD_BITS), 2 * bump_word[b_owner] + 1])
    order = np.argsort(key, kind="stable")
    np.add.at(x, np.concatenate([p_idx, b_idx])[order], np.concatenate([pulse, bump])[order])


def _apply_load(x, load, fs):
    """One-pole low-pass y[n] = a*x[n] + (1-a)*y[n-1], then the load gain."""
    if len(x) == 0:
        return x * load.gain
    a = 1.0 - np.exp(-2.0 * np.pi * load.cutoff_freq / fs)
    y, _ = sps.lfilter([a], [1.0, a - 1.0], x, zi=[(1.0 - a) * x[0]])
    y *= load.gain
    return y


def synthesize_stream(
    tx: TransmitterProfile,
    loads,
    word_values,
    gap_bits: int = MIN_GAP_BITS,
    seed: int = 0,
    sample_rate: float | None = None,
) -> Trace:
    """Render a stream of words separated by ``gap_bits`` null periods.

    The default acquisition rate is 50 samples per bit (5 MSa/s at the
    100 kbit/s fast rate); pass a higher ``sample_rate`` and `decimate`
    afterwards to model a scope front end.
    """
    tx.validate()
    loads = list(loads)
    for load in loads:
        load.validate(tx.bit_rate)
    gap_bits = int(gap_bits)
    if gap_bits < MIN_GAP_BITS:
        raise ValueError(f"gap_bits must be >= {MIN_GAP_BITS}, got {gap_bits}")
    if sample_rate is None:
        sample_rate = DEFAULT_SAMPLES_PER_BIT * tx.bit_rate
    fs = float(sample_rate)
    bit_period = 1.0 / tx.bit_rate
    span_bits = WORD_BITS + gap_bits
    spb = fs * bit_period

    values = np.array([check_word(v) for v in word_values], dtype=np.uint64)
    n_words = len(values)
    word_starts = np.array(
        [round(k * span_bits * spb) for k in range(n_words)], dtype=np.int64
    )
    n_total = round(n_words * span_bits * spb)
    x = np.full(n_total, tx.null_volts, dtype=np.float64)

    rng = np.random.default_rng(seed)
    rise_dur = tx.rise_time / _RAMP_10_90_FRACTION
    fall_dur = tx.fall_time / _RAMP_10_90_FRACTION
    shifts = np.arange(WORD_BITS - 1, -1, -1, dtype=np.uint64)
    bit_offsets = np.arange(WORD_BITS) * bit_period

    for k0 in range(0, n_words, _BLOCK_WORDS):
        block = values[k0 : k0 + _BLOCK_WORDS]
        bits = ((block[:, None] >> shifts) & np.uint64(1)).astype(bool)
        t0 = np.arange(k0, k0 + len(block)) * span_bits * bit_period
        # one (words, 32, 2) draw is the same PCG64 stream as one (32, 2)
        # draw per word
        jitter = rng.normal(0.0, tx.timing_jitter, size=(len(block), WORD_BITS, 2))
        rise_at = t0[:, None] + bit_offsets + jitter[:, :, 0]
        fall_at = (
            rise_at - jitter[:, :, 0] + _FALL_START_FRACTION * bit_period + jitter[:, :, 1]
        )
        _paint_block(x, fs, tx, bits, rise_at, fall_at, rise_dur, fall_dur)

    for load in loads:
        x = _apply_load(x, load, fs)
    if n_total:
        x += rng.normal(0.0, tx.noise_sigma, size=n_total)

    return Trace(fs, tx.bit_rate, x, word_starts)


def decimate(trace: Trace, factor: int, taps: int) -> Trace:
    """Low-pass (Hamming-windowed sinc at Nyquist/factor) and downsample.

    The linear-phase group delay is compensated before subsampling; the
    input is edge-padded so a DC signal passes through exactly.
    """
    factor = int(factor)
    taps = int(taps)
    if factor < 1:
        raise ValueError(f"factor must be >= 1, got {factor}")
    if taps < factor:
        raise ValueError(f"taps ({taps}) must be >= factor ({factor})")
    n = len(trace.samples)
    if n < taps:
        raise ValueError(f"trace of {n} samples is shorter than {taps} filter taps")

    centre = (taps - 1) / 2.0
    h = np.hamming(taps) * np.sinc((np.arange(taps) - centre) / factor)
    h /= h.sum()

    padded = np.pad(trace.samples, taps, mode="edge")
    filtered = np.convolve(padded, h)
    delay = (taps - 1) // 2
    aligned = filtered[taps + delay : taps + delay + n]

    out = aligned[::factor]
    starts = np.rint(trace.word_starts / factor).astype(np.int64)
    return Trace(trace.sample_rate / factor, trace.bit_rate, out, starts)


# ---------------------------------------------------------------------------
# JSON readers for profiles and loads, and the trace file format


def _from_dict(cls, data: dict, what: str):
    known = {f.name for f in fields(cls)}
    unknown = set(data) - known
    if unknown:
        raise ValueError(f"unknown {what} keys: {sorted(unknown)}")
    return cls(**{k: float(v) for k, v in data.items()})


def profile_from_dict(data: dict) -> TransmitterProfile:
    profile = _from_dict(TransmitterProfile, data, "transmitter profile")
    profile.validate()
    return profile


def load_from_dict(data: dict) -> ReceiverLoad:
    return _from_dict(ReceiverLoad, data, "receiver load")


_TRACE_HEADER_KEYS = {"sample_rate", "bit_rate", "word_starts", "sample_count", "encoding"}
_TRACE_ENCODINGS = ("f32le", "csv")


def write_trace(trace: Trace, path, encoding: str = "f32le") -> None:
    """Write a trace file: one JSON header line plus the sample body."""
    if encoding not in _TRACE_ENCODINGS:
        raise ValueError(f"encoding must be one of {_TRACE_ENCODINGS}, got {encoding!r}")
    header = {
        "sample_rate": trace.sample_rate,
        "bit_rate": trace.bit_rate,
        "word_starts": [int(s) for s in trace.word_starts],
        "sample_count": len(trace.samples),
        "encoding": encoding,
    }
    with open(path, "wb") as fh:
        fh.write(json.dumps(header, sort_keys=True).encode("ascii"))
        fh.write(b"\n")
        if encoding == "f32le":
            fh.write(trace.samples.astype("<f4").tobytes())
        else:
            lines = "".join(
                f"{i},{v!r}\n" for i, v in enumerate(trace.samples.tolist())
            )
            fh.write(lines.encode("ascii"))


def _csv_values(path, body: bytes) -> list[float]:
    """The values of a CSV body's ``index,value`` rows, indices 0, 1, 2, ..."""
    values = []
    for i, line in enumerate(filter(None, body.decode("ascii", "replace").splitlines())):
        index, _, value = line.partition(",")
        try:
            if int(index) == i:
                values.append(float(value))
                continue
        except ValueError:
            pass
        raise ValueError(f"{path}: CSV row {i} must read '{i},<number>', got {line!r}")
    return values


def read_trace(path) -> Trace:
    """Read a trace file written by `write_trace`.

    An f32le body gives float32 samples, a CSV body float64 samples.
    """
    raw = Path(path).read_bytes()
    newline = raw.find(b"\n")
    if newline < 0:
        raise ValueError(f"{path}: missing trace header line")
    try:
        header = json.loads(raw[:newline].decode("ascii"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ValueError(f"{path}: bad trace header: {exc}") from exc
    if not isinstance(header, dict) or set(header) != _TRACE_HEADER_KEYS:
        raise ValueError(f"{path}: trace header must have keys {sorted(_TRACE_HEADER_KEYS)}")
    encoding = header["encoding"]
    if encoding == "f32le":
        size = len(raw) - newline - 1
        if size % 4:
            raise ValueError(f"{path}: f32le body of {size} bytes ends inside sample {size // 4}")
        # astype copies the body out of the file's bytes, so `del raw` frees them
        samples = np.frombuffer(raw, dtype="<f4", offset=newline + 1).astype(np.float32)
    elif encoding == "csv":
        samples = np.array(_csv_values(path, raw[newline + 1 :]), dtype=np.float64)
    else:
        raise ValueError(f"{path}: unknown trace encoding {encoding!r}")
    del raw  # freed before the trace's own checks allocate
    try:
        if len(samples) != int(header["sample_count"]):
            raise ValueError(
                f"body has {len(samples)} samples, header says {header['sample_count']}"
            )
        return Trace(header["sample_rate"], header["bit_rate"], samples, header["word_starts"])
    except (TypeError, ValueError) as exc:  # a header value of the wrong kind included
        raise ValueError(f"{path}: {exc}") from exc
