import csv
import json
import tracemalloc

import numpy as np
import pytest

from a429ids import bus, evaluation as ev, features, segmentation
from a429ids.bus import ReceiverLoad, TransmitterProfile
from a429ids.cli import main

from conftest import write_scenario


@pytest.fixture(scope="module")
def scenario_path(tmp_path_factory):
    guarded = ev.BusSetup(tx=TransmitterProfile(), loads=(ReceiverLoad(cutoff_freq=1.2e6),))
    rogue = ev.BusSetup(
        tx=TransmitterProfile(
            hi_volts=10.4, lo_volts=-10.4, rise_time=1.85e-6, fall_time=1.85e-6
        ),
        loads=(ReceiverLoad(cutoff_freq=1.2e6),),
    )
    scenario = ev.Scenario(
        guarded=guarded, rogues=(rogue,), attack_kind="tx_switch",
        words_per_device=500, seed=70,
    )
    path = tmp_path_factory.mktemp("cli") / "scenario.json"
    write_scenario(scenario, path)
    return path


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    return tmp_path_factory.mktemp("cli-out")


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def test_synth_writes_valid_trace(scenario_path, work):
    out = work / "train.bin"
    status = main([
        "synth", "--scenario", str(scenario_path), "--out", str(out), "--words", "40",
    ])
    assert status == 0
    trace = bus.read_trace(out)
    assert len(trace.word_starts) == 40
    assert trace.sample_rate == 5e6


def test_segment_command(scenario_path, work):
    out = work / "segments.csv"
    assert main(["segment", "--trace", str(work / "train.bin"), "--out", str(out)]) == 0
    rows = _read_csv(out)
    assert rows[0] == ["word_index", "segment_index", "segment_type", "start_index", "length"]
    assert len(rows) - 1 == 40 * 127


def _csv_body(rows):
    """A 40-sample CSV trace body whose first four rows are ``rows``."""
    rows = rows + [f"{i},0.0" for i in range(4, 40)]
    return "".join(row + "\n" for row in rows).encode()


# a spoilt body of a 40-sample trace, and the error that must name it
MALFORMED_TRACES = {
    "truncated f32le": (
        "f32le", lambda body: body[:-2], "f32le body of 158 bytes ends inside sample 39",
    ),
    "row without a comma": (
        "csv", lambda body: _csv_body(["0,1.0", "1 2.0", "2,3.0", "3,4.0"]),
        "CSV row 1 must read '1,<number>', got '1 2.0'",
    ),
    "non-number": (
        "csv", lambda body: _csv_body(["0,1.0", "1,2.0", "2,abc", "3,4.0"]),
        "CSV row 2 must read '2,<number>', got '2,abc'",
    ),
    "rows out of order": (
        "csv", lambda body: _csv_body(["0,1.0", "2,3.0", "1,2.0", "3,4.0"]),
        "CSV row 1 must read '1,<number>', got '2,3.0'",
    ),
}


@pytest.mark.parametrize("case", MALFORMED_TRACES)
def test_segment_rejects_malformed_trace(tmp_path, capsys, case):
    encoding, spoil, message = MALFORMED_TRACES[case]
    path = tmp_path / f"trace.{encoding}"
    bus.write_trace(bus.Trace(5e6, 1e5, np.zeros(40), [0]), path, encoding=encoding)
    header, body = path.read_bytes().split(b"\n", 1)
    path.write_bytes(header + b"\n" + spoil(body))
    assert main(["segment", "--trace", str(path), "--out", str(tmp_path / "seg.csv")]) == 1
    assert capsys.readouterr().err == f"error: {path}: {message}\n"
    assert not (tmp_path / "seg.csv").exists()


def test_segment_names_a_malformed_word(tmp_path, capsys):
    # the middle word flattened half way through: segmentation names the
    # word and the sample where parsing gave up, and no CSV is written
    trace = bus.synthesize_stream(TransmitterProfile(), [], [0x5A5A5A5A] * 3, seed=2)
    start = int(trace.word_starts[1])
    trace.samples[start + 400 : start + 1200] = 0.0
    path = tmp_path / "trace.bin"
    bus.write_trace(trace, path)
    with pytest.raises(segmentation.MalformedSignal) as want:
        segmentation.segment_stream(bus.read_trace(path))
    sample = want.value.sample_index
    assert want.value.word_index == 1 and start + 400 <= sample < int(trace.word_starts[2])
    assert main(["segment", "--trace", str(path), "--out", str(tmp_path / "seg.csv")]) == 1
    assert capsys.readouterr().err == (
        f"error: {want.value.message} (word 1, sample {sample})\n"
    )
    assert not (tmp_path / "seg.csv").exists()


def test_features_command(scenario_path, work):
    out = work / "features.csv"
    assert main([
        "features", "--trace", str(work / "train.bin"),
        "--feature-set", "generic", "--out", str(out),
    ]) == 0
    rows = _read_csv(out)
    assert len(rows) - 1 == 40 * 127
    assert len(rows[1]) == 4 + 8  # metadata columns + 8 generic features


@pytest.mark.parametrize("set_id", list(features.FeatureSet), ids=lambda s: s.value)
def test_features_command_matches_extract(scenario_path, work, set_id):
    out = work / f"features_{set_id.value}.csv"
    trace_path = work / "train.bin"
    assert main([
        "features", "--trace", str(trace_path), "--feature-set", set_id.value, "--out", str(out),
    ]) == 0
    trace = bus.read_trace(trace_path)
    want = []
    for wi, word in enumerate(segmentation.segment_stream(trace)):
        for si, seg in enumerate(word):
            vec = features.extract(set_id, seg, dt=1.0 / trace.sample_rate)
            if vec is not None:
                want.append(
                    [str(wi), str(si), seg.seg_type.value, set_id.value]
                    + [repr(v) for v in vec.tolist()]
                )
    assert _read_csv(out)[1:] == want


def _peak_mb(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def test_features_command_writes_from_the_arrays(scenario_path, tmp_path):
    trace_path, out = tmp_path / "trace.bin", tmp_path / "features.csv"
    assert main([
        "synth", "--scenario", str(scenario_path), "--words", "500", "--out", str(trace_path),
    ]) == 0
    argv = ["features", "--trace", str(trace_path), "--feature-set", "polynomial", "--out", str(out)]
    command = _peak_mb(lambda: main(argv))

    def extract():
        trace = bus.read_trace(trace_path)
        table = segmentation.segment_stream(trace)
        features.extract_batch(features.FeatureSet.POLYNOMIAL, table, dt=1.0 / trace.sample_rate)

    # the rows were once held as Python lists: 33.8 MB against 15.3 MB here
    assert command <= 1.25 * _peak_mb(extract)


def test_train_and_run_roundtrip(scenario_path, work):
    model = work / "model.npz"
    assert main([
        "train", "--trace", str(work / "train.bin"),
        "--feature-set", "generic", "--t-votes", "100", "--out", str(model),
    ]) == 0
    with np.load(model, allow_pickle=False) as bundle:
        assert bundle["feature_set"] == "generic"

    # the detector run on its own training trace must stay silent
    run_out = work / "run_normal.csv"
    assert main([
        "run", "--model", str(model), "--trace", str(work / "train.bin"),
        "--t-suspicion", "20", "--out", str(run_out),
    ]) == 0
    rows = _read_csv(run_out)
    assert rows[0] == ["word_index", "normal_votes", "label", "counter_value", "alarmed"]
    assert len(rows) - 1 == 40
    assert all(row[4] == "false" for row in rows[1:])

    # a rogue trace must trip the counter
    rogue_trace = work / "rogue.bin"
    assert main([
        "synth", "--scenario", str(scenario_path), "--device", "rogue:0",
        "--out", str(rogue_trace), "--words", "40", "--seed", "3",
    ]) == 0
    run_rogue = work / "run_rogue.csv"
    assert main([
        "run", "--model", str(model), "--trace", str(rogue_trace),
        "--t-suspicion", "20", "--out", str(run_rogue),
    ]) == 0
    rows = _read_csv(run_rogue)
    assert rows[-1][4] == "true"


def _bundle_record(path):
    with np.load(path, allow_pickle=False) as bundle:
        return dict(bundle)


def test_run_rejects_corrupted_bundle(work, tmp_path, capsys):
    record = _bundle_record(work / "model.npz")
    kdist = next(key for key in record if key.endswith("/kdist"))
    record[kdist] = record[kdist][:-1]
    bad = tmp_path / "short_kdist.npz"
    np.savez(bad, **record)
    assert main([
        "run", "--model", str(bad), "--trace", str(work / "train.bin"),
        "--t-suspicion", "20", "--out", str(tmp_path / "run.csv"),
    ]) == 1
    err = capsys.readouterr().err
    assert "field 'kdist'" in err
    assert f"model {kdist.split('/')[0]}: " in err  # names the segment type


@pytest.mark.parametrize("kind", ["json", "object array"])
def test_run_rejects_foreign_bundle(work, tmp_path, capsys, kind):
    bad = tmp_path / "bundle.npz"
    if kind == "json":
        # the JSON text bundles that earlier versions wrote
        bad.write_text(json.dumps({"feature_set": "generic", "t_votes": 100, "models": {}}))
        message = "is not a detector bundle"
    else:
        record = _bundle_record(work / "model.npz")
        record["feature_set"] = np.array(["generic"], dtype=object)
        np.savez(bad, **record)
        message = "allow_pickle=False"
    assert main([
        "run", "--model", str(bad), "--trace", str(work / "train.bin"),
        "--t-suspicion", "20", "--out", str(tmp_path / "run.csv"),
    ]) == 1
    assert message in capsys.readouterr().err


def test_eval_command(scenario_path, work):
    out = work / "report.json"
    status = main([
        "eval", "--scenario", str(scenario_path), "--feature-set", "generic",
        "--reps", "50", "--max-t-suspicion", "10", "--out", str(out),
    ])
    assert status == 0
    report = json.loads(out.read_text())
    assert report["eer"] == 0.0
    assert (work / "report_curves.csv").exists()
    assert (work / "report_counter_far.csv").exists()
    assert (work / "report_detection_time.csv").exists()
    rows = _read_csv(work / "report_curves.csv")
    assert len(rows) - 1 == 128


def test_markov_point_query(capsys):
    assert main([
        "markov", "--p", "0.6", "--t", "100", "--target", "0.99999", "--rate", "610",
    ]) == 0
    out = capsys.readouterr().out
    assert "1179 words" in out
    assert "1.93" in out  # about two seconds at 610 words/s


def test_markov_point_query_unreachable(capsys):
    # p=0.1, T=19 needs more than 2**63 words for the default 0.99999 target
    assert main(["markov", "--p", "0.1", "--t", "19"]) == 0
    out = capsys.readouterr().out
    assert "target 0.99999 unreachable" in out
    assert "words" not in out


def test_markov_sweep(work):
    base = work / "markov.csv"
    assert main([
        "markov", "--p", "0.4", "--t", "12", "--out", str(base), "--p-list", "0.2,0.4",
    ]) == 0
    far_rows = _read_csv(work / "markov_flight_far.csv")
    assert len(far_rows) - 1 == 2 * 12
    time_rows = _read_csv(work / "markov_detect_time.csv")
    assert time_rows[0] == ["t_suspicion", "p", "seconds_to_target"]


@pytest.mark.parametrize("p_list, bad", [
    ("0.1,1.5", "1.5"), ("0.1,abc", "'abc'"), ("nan", "nan"), ("0.4,-0.2", "-0.2"), ("0.1,", "''"),
])
def test_markov_rejects_bad_p_list_before_writing(tmp_path, capsys, p_list, bad):
    status = main([
        "markov", "--p", "0.4", "--t", "3", "--out", str(tmp_path / "sweep.csv"),
        "--p-list", p_list,
    ])
    assert status == 2
    err = capsys.readouterr().err
    assert "--p-list" in err and bad in err
    assert list(tmp_path.iterdir()) == []


# every numeric flag of every command, with a value out of its range: the
# scenario held out 200 of its 500 words, so --test-words 201 is one too many
BAD_FLAGS = [
    ("synth", "--words", "0"), ("synth", "--words", "-3"), ("synth", "--seed", "-1"),
    ("train", "--t-votes", "128"), ("train", "--t-votes", "-1"), ("train", "--k", "0"),
    ("train", "--contamination", "0"), ("train", "--contamination", "1.5"),
    ("run", "--t-suspicion", "0"), ("run", "--t-suspicion", "-2"),
    ("eval", "--t-votes", "200"), ("eval", "--reps", "0"), ("eval", "--test-words", "0"),
    ("eval", "--test-words", "201"), ("eval", "--max-t-suspicion", "0"), ("eval", "--k", "0"),
    ("eval", "--contamination", "1.5"), ("eval", "--contamination", "nan"),
    ("eval", "--rate", "0"), ("eval", "--rate", "-1"), ("eval", "--rate", "nan"),
    ("eval", "--rate", "inf"),
    ("markov", "--p", "1.5"), ("markov", "--p", "nan"), ("markov", "--t", "0"),
    ("markov", "--t", "5000"),
    ("markov", "--rate", "0"), ("markov", "--rate", "-1"), ("markov", "--rate", "nan"),
    ("markov", "--flight-duration", "-5"), ("markov", "--flight-duration", "inf"),
    ("markov", "--target", "0"), ("markov", "--target", "1.5"),
]


@pytest.mark.parametrize("command, flag, value", BAD_FLAGS, ids=[" ".join(c) for c in BAD_FLAGS])
def test_bad_flag_exits_2_before_writing(scenario_path, tmp_path, capsys, command, flag, value):
    out = tmp_path / "out"
    out.mkdir()
    # train and run name files that do not exist: the flag must be reported
    # before any file is opened
    missing = str(tmp_path / "missing.bin")
    args = {
        "synth": ["--scenario", str(scenario_path), "--out", str(out / "trace.bin")],
        "train": ["--trace", missing, "--feature-set", "generic", "--out", str(out / "model.npz")],
        "run": ["--model", missing, "--trace", missing, "--out", str(out / "run.csv")],
        "eval": ["--scenario", str(scenario_path), "--feature-set", "generic",
                 "--out", str(out / "report.json")],
        "markov": ["--p", "0.4", "--t", "3", "--out", str(out / "sweep.csv")],
    }[command]
    assert main([command, *args, flag, value]) == 2
    err = capsys.readouterr().err
    assert flag in err and "missing.bin" not in err
    assert list(out.iterdir()) == []


def test_exit_codes(scenario_path, work, tmp_path, capsys):
    # missing scenario file -> config error
    assert main(["synth", "--scenario", "/nope.json", "--out", str(work / "x.bin")]) == 2
    # bad scenario content -> config error
    bad = tmp_path / "bad.json"
    bad.write_text('{"whatever": 1}')
    assert main(["synth", "--scenario", str(bad), "--out", str(work / "x.bin")]) == 2
    # corrupt trace file -> runtime error
    garbage = tmp_path / "garbage.bin"
    garbage.write_bytes(b"junk\x00\x01")
    assert main(["segment", "--trace", str(garbage), "--out", str(work / "y.csv")]) == 1
    # bad device spec -> config error
    assert main([
        "synth", "--scenario", str(scenario_path), "--device", "rogue:9",
        "--out", str(work / "x.bin"),
    ]) == 2
    # a negative scenario seed -> config error naming the field
    record = json.loads(scenario_path.read_text())
    record["seed"] = -3
    bad.write_text(json.dumps(record))
    assert main([
        "eval", "--scenario", str(bad), "--feature-set", "generic",
        "--out", str(tmp_path / "report.json"),
    ]) == 2
    assert "seed must be >= 0, got -3" in capsys.readouterr().err
    # unknown feature set -> argparse's exit status, returned
    assert main(["features", "--trace", str(work / "train.bin"),
                 "--feature-set", "wavelet", "--out", str(work / "z.csv")]) == 2
