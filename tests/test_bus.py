import dataclasses
import tracemalloc

import numpy as np
import pytest

from a429ids import bus
from a429ids.bus import ReceiverLoad, TransmitterProfile
from a429ids.cli import main
from a429ids.segmentation import V_H2
from a429ids.words import DEFAULT_WORD_SET, WORD_BITS

from oracles import msb_first_bits

SPB = bus.DEFAULT_SAMPLES_PER_BIT


def _plateau_window(bit_index, profile, sample_rate=5e6):
    """Sample range strictly inside one bit's plateau (no ramps)."""
    bit_period = 1.0 / profile.bit_rate
    ramp = profile.rise_time / bus._RAMP_10_90_FRACTION
    start = bit_index * bit_period + ramp
    stop = bit_index * bit_period + bus._FALL_START_FRACTION * bit_period
    return int(np.ceil(start * sample_rate)) + 1, int(np.floor(stop * sample_rate)) - 1


def test_flat_top_noiseless():
    tx = TransmitterProfile(noise_sigma=0.0, overshoot_frac=0.0, timing_jitter=0.0)
    trace = bus.synthesize_stream(tx, [], [0xFFFFFFFF], seed=0)
    for bit in range(32):
        lo, hi = _plateau_window(bit, tx)
        assert np.all(trace.samples[lo:hi] == tx.hi_volts)


def test_plateau_mean_within_noise_band():
    tx = TransmitterProfile()  # nominal: noise 0.05 V
    trace = bus.synthesize_stream(tx, [], [0xFFFFFFFF], seed=42)
    plateau = np.concatenate(
        [trace.samples[slice(*_plateau_window(bit, tx))] for bit in range(32)]
    )
    # ringing is symmetric around the plateau and the noise is zero-mean
    tol = 3.0 * tx.noise_sigma / np.sqrt(len(plateau)) + 0.02
    assert abs(plateau.mean() - tx.hi_volts) < tol


def test_determinism():
    tx = TransmitterProfile()
    loads = [ReceiverLoad()]
    a = bus.synthesize_stream(tx, loads, [0x5A5A5A5A, 0xFFFFFFFF], seed=9)
    b = bus.synthesize_stream(tx, loads, [0x5A5A5A5A, 0xFFFFFFFF], seed=9)
    assert np.array_equal(a.samples, b.samples)
    assert np.array_equal(a.word_starts, b.word_starts)
    c = bus.synthesize_stream(tx, loads, [0x5A5A5A5A, 0xFFFFFFFF], seed=10)
    assert not np.array_equal(a.samples, c.samples)


def test_stream_spacing_and_markers():
    tx = TransmitterProfile()
    trace = bus.synthesize_stream(tx, [], [0x0, 0xFFFFFFFF], gap_bits=4, seed=1)
    assert len(trace.word_starts) == 2
    assert trace.word_starts[1] - trace.word_starts[0] == 36 * SPB

    empty = bus.synthesize_stream(tx, [], [], seed=1)
    assert len(empty.samples) == 0 and len(empty.word_starts) == 0

    six = bus.synthesize_stream(tx, [], list(DEFAULT_WORD_SET), seed=1)
    assert len(six.word_starts) == 6
    assert np.all(np.diff(six.word_starts) > 0)


def test_gap_and_profile_validation():
    tx = TransmitterProfile()
    with pytest.raises(ValueError):
        bus.synthesize_stream(tx, [], [0x0], gap_bits=3)
    with pytest.raises(ValueError):
        TransmitterProfile(hi_volts=12.0).validate()
    with pytest.raises(ValueError):
        TransmitterProfile(lo_volts=-8.0).validate()
    with pytest.raises(ValueError):
        TransmitterProfile(null_volts=0.7).validate()
    with pytest.raises(ValueError):
        TransmitterProfile(rise_time=3.0e-6).validate()  # >= 0.25 bit periods
    with pytest.raises(ValueError):
        TransmitterProfile(noise_sigma=-0.1).validate()
    with pytest.raises(ValueError):
        bus.synthesize_stream(tx, [ReceiverLoad(cutoff_freq=5e4)], [0x0])


def test_level_compliance_after_ringing_decay():
    # noiseless plateau extrema stay inside the +-1 V tolerance once the
    # ringing has decayed (last quarter of the plateau)
    tx = TransmitterProfile(noise_sigma=0.0, timing_jitter=0.0)
    trace = bus.synthesize_stream(tx, [], [0xFFFFFFFF], seed=0)
    bit_period = 1.0 / tx.bit_rate
    ramp = tx.rise_time / bus._RAMP_10_90_FRACTION
    for bit in range(32):
        p_start = bit * bit_period + ramp
        p_stop = bit * bit_period + bus._FALL_START_FRACTION * bit_period
        tail_start = p_start + 0.75 * (p_stop - p_start)
        lo = int(np.ceil(tail_start * trace.sample_rate))
        hi = int(np.floor(p_stop * trace.sample_rate))
        tail = trace.samples[lo:hi]
        assert np.all(tail >= 9.0) and np.all(tail <= 11.0)


def test_null_shape_smile_and_frown():
    tx = TransmitterProfile(noise_sigma=0.0, timing_jitter=0.0)
    bit_period_samples = SPB
    # between two 1 bits the null dips below zero; between two 0 bits it peaks above
    ones = bus.synthesize_stream(tx, [], [0xFFFFFFFF], seed=0)
    gap = ones.samples[int(0.85 * bit_period_samples) : bit_period_samples]
    assert gap.min() < -0.1
    zeros = bus.synthesize_stream(tx, [], [0x00000000], seed=0)
    gap = zeros.samples[int(0.85 * bit_period_samples) : bit_period_samples]
    assert gap.max() > 0.1


def test_receiver_load_filters_and_gain():
    tx = TransmitterProfile(noise_sigma=0.0, timing_jitter=0.0)
    plain = bus.synthesize_stream(tx, [], [0xFFFFFFFF], seed=0)
    loaded = bus.synthesize_stream(
        tx, [ReceiverLoad(cutoff_freq=5e5, gain=0.9)], [0xFFFFFFFF], seed=0
    )
    lo, hi = _plateau_window(4, tx)
    # DC gain of the one-pole is 1, so the plateau scales by the load gain
    assert np.mean(loaded.samples[lo:hi]) == pytest.approx(
        0.9 * np.mean(plain.samples[lo:hi]), rel=1e-2
    )
    # a low cutoff rounds the ramps: the filtered edge lags the plain one
    edge = slice(0, 10)
    assert loaded.samples[edge].sum() < 0.9 * plain.samples[edge].sum() + 1e-9


def test_decimate_identity_factor():
    tx = TransmitterProfile()
    trace = bus.synthesize_stream(tx, [], [0x5A5A5A5A], seed=3)
    out = bus.decimate(trace, factor=1, taps=31)
    assert out.sample_rate == trace.sample_rate
    assert np.allclose(out.samples, trace.samples, atol=1e-12)


def test_decimate_dc_preservation():
    trace = bus.Trace(5e6, 1e5, np.full(500, 3.25), [0])
    out = bus.decimate(trace, factor=10, taps=30)
    assert np.allclose(out.samples, 3.25, atol=1e-12)
    assert out.sample_rate == 5e5


def test_decimate_matches_direct_synthesis():
    # flat plateaus (no ringing): the anti-alias filter must be transparent
    tx = TransmitterProfile(noise_sigma=0.0, timing_jitter=0.0, overshoot_frac=0.0)
    fast = bus.synthesize_stream(tx, [], [0xA5A5A5A5], seed=0, sample_rate=50e6)
    slow = bus.decimate(fast, factor=10, taps=30)
    direct = bus.synthesize_stream(tx, [], [0xA5A5A5A5], seed=0, sample_rate=5e6)
    assert slow.sample_rate == direct.sample_rate
    for bit in range(0, 32, 3):
        lo, hi = _plateau_window(bit, tx)
        assert abs(slow.samples[lo:hi].mean() - direct.samples[lo:hi].mean()) < 1e-3

    # with ringing the filter smooths the ripples a little; means stay close
    ringing = TransmitterProfile(noise_sigma=0.0, timing_jitter=0.0)
    fast = bus.synthesize_stream(ringing, [], [0xA5A5A5A5], seed=0, sample_rate=50e6)
    slow = bus.decimate(fast, factor=10, taps=30)
    direct = bus.synthesize_stream(ringing, [], [0xA5A5A5A5], seed=0, sample_rate=5e6)
    for bit in range(0, 32, 3):
        lo, hi = _plateau_window(bit, ringing)
        assert abs(slow.samples[lo:hi].mean() - direct.samples[lo:hi].mean()) < 1e-2


def test_decimate_validation():
    tx = TransmitterProfile()
    trace = bus.synthesize_stream(tx, [], [0x0], seed=0)
    with pytest.raises(ValueError):
        bus.decimate(trace, factor=0, taps=30)
    with pytest.raises(ValueError):
        bus.decimate(trace, factor=10, taps=5)
    short = bus.Trace(5e6, 1e5, np.zeros(10), [])
    with pytest.raises(ValueError):
        bus.decimate(short, factor=2, taps=30)


def test_decimate_rescales_word_starts():
    tx = TransmitterProfile()
    fast = bus.synthesize_stream(tx, [], [0x0, 0xFFFFFFFF], seed=0, sample_rate=50e6)
    slow = bus.decimate(fast, factor=10, taps=30)
    assert np.array_equal(slow.word_starts, np.rint(fast.word_starts / 10).astype(int))


def test_trace_invariants():
    with pytest.raises(ValueError):
        bus.Trace(5e6, 1e5, np.zeros(100), [10, 10])
    with pytest.raises(ValueError):
        bus.Trace(5e6, 1e5, np.zeros(100), [150])
    samples = np.zeros(100)
    samples[[7, 40]] = [np.inf, np.nan]
    with pytest.raises(ValueError, match="samples must be finite; sample 7 is inf"):
        bus.Trace(5e6, 1e5, samples, [10])


@pytest.mark.parametrize("encoding", ["f32le", "csv"])
def test_trace_io_roundtrip(tmp_path, encoding):
    tx = TransmitterProfile()
    trace = bus.synthesize_stream(tx, [ReceiverLoad()], [0x5A5A5A5A, 0x0], seed=5)
    path = tmp_path / f"trace.{encoding}"
    bus.write_trace(trace, path, encoding=encoding)
    back = bus.read_trace(path)
    assert back.sample_rate == trace.sample_rate
    assert back.bit_rate == trace.bit_rate
    assert np.array_equal(back.word_starts, trace.word_starts)
    if encoding == "csv":
        assert np.array_equal(back.samples, trace.samples)
    else:
        assert np.allclose(back.samples, trace.samples, atol=1e-5)
        # a capture is held as it was stored: 4 bytes a sample
        assert back.samples.dtype == np.float32
        assert back.samples.nbytes == 4 * len(trace.samples)
        assert np.array_equal(back.samples, trace.samples.astype(np.float32))
        bus.write_trace(back, path)
        assert bus.read_trace(path).samples.tobytes() == back.samples.tobytes()


def test_trace_read_memory_stays_near_the_file(tmp_path):
    # the file's bytes and the decoded samples set the peak (2x the file);
    # a copy of the body beside them made it 3x
    values = [DEFAULT_WORD_SET[i % len(DEFAULT_WORD_SET)] for i in range(600)]
    path = tmp_path / "trace.bin"
    bus.write_trace(bus.synthesize_stream(TransmitterProfile(), [], values, seed=8), path)
    tracemalloc.start()
    try:
        trace = bus.read_trace(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(trace.word_starts) == 600
    assert peak <= 2.25 * path.stat().st_size


def test_trace_keeps_float32_and_widens_the_rest():
    assert bus.Trace(5e6, 1e5, np.zeros(10, dtype=np.float32), [0]).samples.dtype == np.float32
    for samples in (np.zeros(10, dtype=np.float16), np.zeros(10, dtype=np.int64), [0.0] * 10):
        assert bus.Trace(5e6, 1e5, samples, [0]).samples.dtype == np.float64


def test_trace_io_rejects_garbage(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"not json\n1234")
    with pytest.raises(ValueError):
        bus.read_trace(path)
    path.write_bytes(b'{"sample_rate": 1}\n')
    with pytest.raises(ValueError):
        bus.read_trace(path)


@pytest.mark.parametrize("encoding", ["f32le", "csv"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_trace_io_rejects_non_finite_samples(tmp_path, encoding, bad):
    trace = bus.synthesize_stream(TransmitterProfile(), [], [0x5A5A5A5A], seed=6)
    path = tmp_path / f"trace.{encoding}"
    bus.write_trace(trace, path, encoding=encoding)
    header, body = path.read_bytes().split(b"\n", 1)
    if encoding == "f32le":
        samples = np.frombuffer(body, dtype="<f4").copy()
        samples[1234] = bad
        body = samples.tobytes()
    else:
        lines = body.decode("ascii").splitlines()
        lines[1234] = f"1234,{bad!r}"
        body = "".join(line + "\n" for line in lines).encode("ascii")
    path.write_bytes(header + b"\n" + body)
    with pytest.raises(ValueError, match=f"samples must be finite; sample 1234 is {bad!r}$"):
        bus.read_trace(path)


def test_profile_json_codec():
    tx = TransmitterProfile(hi_volts=10.3, rise_time=2.0e-6)
    assert bus.profile_from_dict(dataclasses.asdict(tx)) == tx
    with pytest.raises(ValueError):
        bus.profile_from_dict({"hi_volts": 10.0, "bogus": 1})
    load = ReceiverLoad(cutoff_freq=1.5e6, gain=0.98)
    assert bus.load_from_dict(dataclasses.asdict(load)) == load


# ---------------------------------------------------------------------------
# Block synthesis against the per-bit loop it replaced


def _paint_pulse(x, fs, swing, rise_t0, rise_dur, fall_t0, fall_dur, profile):
    """Add one return-to-zero pulse (and its ringing) onto the sample grid."""
    n = len(x)
    i0 = max(0, int(np.floor(rise_t0 * fs)))
    i1 = min(n, int(np.ceil((fall_t0 + fall_dur) * fs)) + 1)
    if i1 <= i0:
        return None
    t = np.arange(i0, i1) / fs
    u_rise = np.clip((t - rise_t0) / rise_dur, 0.0, 1.0)
    u_fall = np.clip((t - fall_t0) / fall_dur, 0.0, 1.0)
    gate = (0.5 - 0.5 * np.cos(np.pi * u_rise)) * (0.5 + 0.5 * np.cos(np.pi * u_fall))
    pulse = swing * gate
    if profile.overshoot_frac > 0.0:
        t_ring = t - (rise_t0 + rise_dur)
        live = t_ring > 0.0
        if np.any(live):
            tr = t_ring[live]
            ring = (
                profile.overshoot_frac
                * swing
                * np.exp(-profile.ringing_damping * profile.ringing_freq * tr)
                * np.sin(2.0 * np.pi * profile.ringing_freq * tr)
            )
            fall_gate = 0.5 + 0.5 * np.cos(np.pi * u_fall[live])
            pulse[live] += ring * fall_gate
    x[i0:i1] += pulse
    return i0, i1


def _paint_null_bump(x, fs, t_a, t_b, amplitude):
    """Half-cosine bump over the flat null between two like bits."""
    if t_b <= t_a or amplitude == 0.0:
        return None
    n = len(x)
    i0 = max(0, int(np.ceil(t_a * fs)))
    i1 = min(n, int(np.floor(t_b * fs)) + 1)
    if i1 <= i0:
        return None
    t = np.arange(i0, i1) / fs
    u = (t - t_a) / (t_b - t_a)
    x[i0:i1] += amplitude * np.sin(np.pi * u)
    return i0, i1


def _reference_stream(tx, loads, word_values, gap_bits=4, seed=0, sample_rate=None):
    """The per-word, per-bit synthesis loop, kept as the reference.

    Returns the trace and the painted windows as (word, i0, i1), in the
    order they were added.
    """
    fs = float(sample_rate if sample_rate is not None else SPB * tx.bit_rate)
    bit_period = 1.0 / tx.bit_rate
    span_bits = WORD_BITS + gap_bits
    spb = fs * bit_period
    n_words = len(word_values)
    word_starts = np.array([round(k * span_bits * spb) for k in range(n_words)], dtype=np.int64)
    n_total = round(n_words * span_bits * spb)
    x = np.full(n_total, tx.null_volts, dtype=np.float64)
    rng = np.random.default_rng(seed)
    rise_dur = tx.rise_time / bus._RAMP_10_90_FRACTION
    fall_dur = tx.fall_time / bus._RAMP_10_90_FRACTION
    windows = []
    for k, value in enumerate(word_values):
        bits = msb_first_bits(value)
        t0 = k * span_bits * bit_period
        jitter = rng.normal(0.0, tx.timing_jitter, size=(WORD_BITS, 2))
        rise_at = t0 + np.arange(WORD_BITS) * bit_period + jitter[:, 0]
        fall_at = rise_at - jitter[:, 0] + bus._FALL_START_FRACTION * bit_period + jitter[:, 1]
        for i, bit in enumerate(bits):
            level = tx.hi_volts if bit else tx.lo_volts
            window = _paint_pulse(
                x, fs, level - tx.null_volts, rise_at[i], rise_dur, fall_at[i], fall_dur, tx
            )
            if window:
                windows.append((k, *window))
        for i in range(WORD_BITS - 1):
            if bits[i] == bits[i + 1]:
                sign = -1.0 if bits[i] else 1.0
                window = _paint_null_bump(
                    x, fs, fall_at[i] + fall_dur, rise_at[i + 1], sign * tx.null_shape_gain
                )
                if window:
                    windows.append((k, *window))
    for load in loads:
        x = bus._apply_load(x, load, fs)
    if n_total:
        x = x + rng.normal(0.0, tx.noise_sigma, size=n_total)
    return bus.Trace(fs, tx.bit_rate, x, word_starts), windows


def _assert_same_trace(tx, loads, values, **kwargs):
    got = bus.synthesize_stream(tx, loads, values, **kwargs)
    want, windows = _reference_stream(tx, loads, values, **kwargs)
    assert got.sample_rate == want.sample_rate
    assert np.array_equal(got.word_starts, want.word_starts)
    assert got.samples.tobytes() == want.samples.tobytes()
    return got, windows


_CYCLE = [DEFAULT_WORD_SET[i % len(DEFAULT_WORD_SET)] for i in range(40)]
_RANDOM = [int(v) for v in np.random.default_rng(7).integers(0, 2**32, 200)]
# the benchmark's profiles: eval-rx-poly's guarded and receiver-switched
# devices, monitor-tx-raw's rogue transmitter
_BENCH_TX = TransmitterProfile(noise_sigma=0.10, overshoot_frac=0.03)
_ROGUE_TX = TransmitterProfile(
    hi_volts=10.4, lo_volts=-10.4, rise_time=1.85e-6, fall_time=1.85e-6, overshoot_frac=0.10
)


@pytest.mark.parametrize(
    "tx, loads, values, kwargs",
    [
        (_BENCH_TX, [ReceiverLoad(cutoff_freq=1.2e6)], _CYCLE, {"seed": 11}),
        (_BENCH_TX, [ReceiverLoad(cutoff_freq=0.9e6, gain=0.998)], _CYCLE, {"seed": 12}),
        (_ROGUE_TX, [ReceiverLoad(cutoff_freq=1.2e6)], _CYCLE, {"seed": 13}),
        (TransmitterProfile(overshoot_frac=0.0), [ReceiverLoad()], _RANDOM[:20], {}),
        (TransmitterProfile(timing_jitter=0.0), [ReceiverLoad()], _RANDOM[:20], {}),
        (TransmitterProfile(), [ReceiverLoad()], _RANDOM[:20], {"sample_rate": 1e6}),
        (TransmitterProfile(), [ReceiverLoad()], _RANDOM[:6], {"sample_rate": 50e6}),
        (TransmitterProfile(), [ReceiverLoad()], _RANDOM[:20], {"gap_bits": 7}),
        (TransmitterProfile(), [], _RANDOM[:50], {"seed": 3}),
        (TransmitterProfile(), [ReceiverLoad()], [0xA5A5A5A5], {"seed": 4}),
        (TransmitterProfile(), [ReceiverLoad()], [], {}),
        (TransmitterProfile(), [], _RANDOM[: bus._BLOCK_WORDS + 1], {"seed": 5}),
    ],
    ids=[
        "guarded", "rx-switched", "rogue-tx", "overshoot-0", "jitter-0", "1MSps",
        "50MSps", "gap-7", "random", "single", "empty", "block-plus-one",
    ],
)
def test_block_synthesis_matches_per_bit_loop(tx, loads, values, kwargs):
    _assert_same_trace(tx, loads, values, **kwargs)


@pytest.mark.parametrize("sample_rate", [5e6, 1e6])
def test_overlapping_windows_add_in_loop_order(sample_rate):
    # jitter of two bit periods makes windows of neighbouring words overlap,
    # and a non-zero null makes the sums depend on the order of addition
    tx = TransmitterProfile(timing_jitter=2e-5, null_volts=0.3)
    trace, windows = _assert_same_trace(tx, [], _RANDOM, seed=8, sample_rate=sample_rate)
    last_word = np.full(len(trace.samples), -1)
    shared = 0
    for k, i0, i1 in windows:
        seen = last_word[i0:i1]
        shared += np.count_nonzero((seen >= 0) & (seen != k))
        last_word[i0:i1] = k
    assert shared > 0


@pytest.mark.parametrize(
    "bad, error, message",
    [
        (True, TypeError, "word value must be an int, got bool"),
        (np.int64(5), TypeError, "word value must be an int, got int64"),
        (2**32, ValueError, "word value out of 32-bit range: 4294967296"),
        (-1, ValueError, "word value out of 32-bit range: -1"),
    ],
)
def test_bad_word_rejected_before_painting(monkeypatch, bad, error, message):
    def no_painting(*args):
        raise AssertionError("painted before every word was checked")

    monkeypatch.setattr(bus, "_paint_block", no_painting)
    values = [0x0] * (bus._BLOCK_WORDS + 3) + [bad]
    with pytest.raises(error, match=f"^{message}$"):
        bus.synthesize_stream(TransmitterProfile(), [], values)


def test_gap_and_load_messages():
    tx = TransmitterProfile()
    with pytest.raises(ValueError, match="^gap_bits must be >= 4, got 3$"):
        bus.synthesize_stream(tx, [], [True], gap_bits=3)
    cutoff = "^load cutoff 50000 Hz must exceed the bit rate 100000 Hz$"
    with pytest.raises(ValueError, match=cutoff):
        bus.synthesize_stream(tx, [ReceiverLoad(cutoff_freq=5e4)], [-1])
    with pytest.raises(ValueError, match="^load gain must be positive: 0.0$"):
        bus.synthesize_stream(tx, [ReceiverLoad(gain=0.0)], [0x0])


def test_synthesis_memory_stays_near_the_trace():
    # the trace, the load filter's output and its gain product set the peak
    # (3x the trace); a block's temporaries stay far below that, while a
    # whole-stream kernel's grow with the stream
    tx = TransmitterProfile()
    values = [DEFAULT_WORD_SET[i % len(DEFAULT_WORD_SET)] for i in range(500)]
    tracemalloc.start()
    try:
        trace = bus.synthesize_stream(tx, [ReceiverLoad()], values, seed=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 3.5 * trace.samples.nbytes


def _plant_at_rises(samples, threshold):
    """Set the first sample past each rising crossing of ``threshold`` to
    float32(threshold), which lies above it in float64; returns the count.
    A float32 comparison would not see those crossings until one sample
    later."""
    planted = np.float32(threshold)
    assert float(planted) > threshold
    x = samples.astype(np.float64)
    hits = np.nonzero((x[1:] > threshold) & (x[:-1] <= threshold))[0] + 1
    samples[hits] = planted
    return len(hits)


def test_f32_capture_gives_the_outputs_of_its_float64_samples(tmp_path):
    """``segment``, ``features`` and ``run`` write the same bytes for an f32le
    capture (float32 samples) as for a CSV file of the same values (float64
    samples), crossings of samples equal to a rounded-up threshold included."""
    tx = TransmitterProfile()
    train = bus.synthesize_stream(tx, [ReceiverLoad()], list(DEFAULT_WORD_SET) * 5, seed=3)
    bus.write_trace(train, tmp_path / "train.bin")
    assert main([
        "train", "--trace", str(tmp_path / "train.bin"), "--feature-set", "raw",
        "--out", str(tmp_path / "model.npz"),
    ]) == 0
    capture = bus.synthesize_stream(tx, [ReceiverLoad()], list(DEFAULT_WORD_SET) * 2, seed=4)
    samples = capture.samples.astype(np.float32)
    assert _plant_at_rises(samples, -V_H2) > 0
    capture = bus.Trace(capture.sample_rate, capture.bit_rate, samples, capture.word_starts)
    for encoding in ("f32le", "csv"):
        bus.write_trace(capture, tmp_path / f"capture.{encoding}", encoding=encoding)
    assert bus.read_trace(tmp_path / "capture.f32le").samples.dtype == np.float32
    assert bus.read_trace(tmp_path / "capture.csv").samples.dtype == np.float64

    commands = {
        "segments": ["segment"],
        "raw": ["features", "--feature-set", "raw"],
        "generic": ["features", "--feature-set", "generic"],
        "run": ["run", "--model", str(tmp_path / "model.npz")],
    }
    for name, command in commands.items():
        outputs = []
        for encoding in ("f32le", "csv"):
            out = tmp_path / f"{name}-{encoding}.csv"
            trace = str(tmp_path / f"capture.{encoding}")
            assert main([*command, "--trace", trace, "--out", str(out)]) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1], name
