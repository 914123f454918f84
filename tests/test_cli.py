import collections
import dataclasses
import json
import subprocess
import sys
import typing

import numpy as np
import pytest

from dynprec.cli import (
    EXIT_CAPACITY,
    EXIT_FORMAT,
    EXIT_IO,
    EXIT_OK,
    EXIT_USAGE,
    build_point,
    load_config_file,
    main,
)
from dynprec import cli, harness
from dynprec.accel import AccelConfig, EnergyModel, SipConfig
from dynprec.harness import load_model, load_sequence, render_report, run_experiment, write_model, write_sequence
from dynprec.lstm_quant import Mode
from dynprec.lstm_ref import InputSequence, LstmLayer, LstmModel
from dynprec.pdu import PduConfig


@pytest.fixture()
def toy_files(tmp_path):
    out = tmp_path / "toy"
    assert main(["gen", "--kind", "peaky", "--dims", "1,16,16,200", "--seed", "7", "--out", str(out)]) == EXIT_OK
    return tmp_path / "toy.model", tmp_path / "toy.seq"


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_saturated_sigmoid_runs_without_warnings(tmp_path, capsys):
    # every pre-activation is below -710, where exp(-x) overflows float64
    gate = (np.full((3, 2), 0.5), np.zeros((3, 3)), np.full(3, -1000.0))
    write_model(LstmModel((LstmLayer.from_gates([gate, gate, gate, gate]),)), tmp_path / "m.model")
    write_sequence(InputSequence(np.ones((20, 2))), tmp_path / "m.seq")
    report = tmp_path / "r.json"
    argv = ["run", "--model", str(tmp_path / "m.model"), "--input", str(tmp_path / "m.seq"), "--report", str(report)]
    assert main(argv + ["--mode", "static8,static4,dynamic,random"]) == EXIT_OK
    assert capsys.readouterr().err == ""
    runs = json.loads(report.read_text())["runs"]
    assert all(run["mean_abs_cell_error"] == 0.0 for run in runs.values())


def test_gen_writes_files(tmp_path):
    out = tmp_path / "t"
    assert main(["gen", "--kind", "flat", "--dims", "1,4,8,50", "--seed", "1", "--out", str(out)]) == EXIT_OK
    assert (tmp_path / "t.model").exists()
    assert (tmp_path / "t.model.bin").exists()
    assert (tmp_path / "t.seq").exists()


def test_gen_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    main(["gen", "--kind", "random", "--dims", "1,4,8,50", "--seed", "3", "--out", str(a)])
    main(["gen", "--kind", "random", "--dims", "1,4,8,50", "--seed", "3", "--out", str(b)])
    assert (tmp_path / "a.model.bin").read_bytes() == (tmp_path / "b.model.bin").read_bytes()
    assert (tmp_path / "a.seq").read_bytes() == (tmp_path / "b.seq").read_bytes()


def test_run_report_round_trip(toy_files, tmp_path):
    model, seq = toy_files
    report = tmp_path / "report.json"
    code = main(
        ["run", "--model", str(model), "--input", str(seq), "--mode", "static8,static4,dynamic",
         "--report", str(report), "--seed", "0"]
    )
    assert code == EXIT_OK
    doc = json.loads(report.read_text())
    assert doc["schema_version"] == 1
    assert set(doc["runs"]) == {"static8", "static4", "dynamic"}
    assert doc["runs"]["dynamic"]["low_precision_usage"] > 0.5


def test_run_reports_are_byte_identical(toy_files, tmp_path):
    model, seq = toy_files
    r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
    args = ["run", "--model", str(model), "--input", str(seq), "--mode", "dynamic,random", "--seed", "9"]
    assert main(args + ["--report", str(r1)]) == EXIT_OK
    assert main(args + ["--report", str(r2)]) == EXIT_OK
    assert r1.read_bytes() == r2.read_bytes()


def test_reports_do_not_depend_on_mode_order(tmp_path):
    # the lane list follows --mode; the lane pass must hand each mode its own result whatever the order
    out = tmp_path / "toy"
    assert main(["gen", "--kind", "random", "--dims", "2,6,12,150", "--seed", "5", "--out", str(out)]) == EXIT_OK
    files = ["--model", str(tmp_path / "toy.model"), "--input", str(tmp_path / "toy.seq"), "--seed", "5"]
    sweep = ["sweep", *files, "--param", "beta", "--values", "0.05,0.2"]
    for argv, orders in (
        (["run", *files], ("dynamic,random,static4", "static4,random,dynamic")),
        (sweep, ("dynamic,random,static4", "random,static4,dynamic")),
    ):
        reports = []
        for k, modes in enumerate(orders):
            reports.append(tmp_path / f"r{k}.json")
            assert main([*argv, "--mode", modes, "--report", str(reports[-1])]) == EXIT_OK
        assert reports[0].read_bytes() == reports[1].read_bytes()


def test_trace_command(toy_files, tmp_path):
    model, seq = toy_files
    out = tmp_path / "trace.csv"
    code = main(
        ["trace", "--model", str(model), "--input", str(seq), "--mode", "dynamic",
         "--element", "0", "--out", str(out)]
    )
    assert code == EXIT_OK
    lines = out.read_text().splitlines()
    assert len(lines) == 201
    assert lines[0].startswith("step,")


def test_sweep_command(toy_files, tmp_path):
    model, seq = toy_files
    report = tmp_path / "sweep.json"
    code = main(
        ["sweep", "--model", str(model), "--input", str(seq), "--param", "beta",
         "--values", "0.05,0.1,0.2", "--mode", "dynamic", "--report", str(report)]
    )
    assert code == EXIT_OK
    doc = json.loads(report.read_text())
    assert doc["sweep"]["param"] == "beta"
    assert [p["value"] for p in doc["sweep"]["points"]] == [0.05, 0.1, 0.2]
    for point in doc["sweep"]["points"]:
        assert point["report"]["pdu_config"]["beta"] == point["value"]


def test_usage_errors_exit_1(toy_files, tmp_path, capsys, monkeypatch):
    model, seq = toy_files
    monkeypatch.chdir(tmp_path)
    before = sorted(tmp_path.iterdir())
    assert main(["run", "--model", str(model)]) == EXIT_USAGE  # missing --input
    assert main(["run", "--model", str(model), "--input", str(seq), "--mode", "bogus"]) == EXIT_USAGE
    assert main(["run", "--model", str(model), "--input", str(seq), "--mode", "dynamic,dynamic"]) == EXIT_USAGE
    assert main(["sweep", "--model", str(model), "--input", str(seq), "--param", "beta", "--values", "0.1",
                 "--mode", "static8,static4,static8"]) == EXIT_USAGE
    assert main(["gen", "--kind", "flat", "--dims", "1,2", "--seed", "0", "--out", "x"]) == EXIT_USAGE
    # the sequence header stores steps and input_size as uint32
    assert main(["gen", "--kind", "flat", "--dims", "1,1,1,4294967296", "--seed", "0", "--out", "x"]) == EXIT_USAGE
    assert main(["gen", "--kind", "flat", "--dims", "1,4294967296,1,1", "--seed", "0", "--out", "x"]) == EXIT_USAGE
    for out in (".", "/", "", "sub/.."):  # no final file name to write the model and sequence beside
        assert main(["gen", "--kind", "flat", "--dims", "1,2,2,3", "--seed", "0", "--out", out]) == EXIT_USAGE
    assert main(["sweep", "--model", str(model), "--input", str(seq), "--param", "nope",
                 "--values", "1"]) == EXIT_USAGE
    assert main(["trace", "--model", str(model), "--input", str(seq), "--element", "999",
                 "--out", "t.csv"]) == EXIT_USAGE
    assert sorted(tmp_path.iterdir()) == before  # refused before anything was written
    capsys.readouterr()


def test_format_errors_exit_2(toy_files, tmp_path, capsys):
    model, seq = toy_files
    missing = tmp_path / "missing.model"
    assert main(["run", "--model", str(missing), "--input", str(seq)]) == EXIT_FORMAT

    broken = tmp_path / "broken.seq"
    broken.write_bytes(b"garbage")
    assert main(["run", "--model", str(model), "--input", str(broken)]) == EXIT_FORMAT

    bad_cfg = tmp_path / "bad.cfg"
    bad_cfg.write_text("no_such_key = 1\n")
    assert main(["run", "--model", str(model), "--input", str(seq), "--config", str(bad_cfg)]) == EXIT_FORMAT
    capsys.readouterr()


def test_non_utf8_manifest_exit_2(toy_files, tmp_path, capsys):
    _, seq = toy_files
    bad = tmp_path / "bad.model"
    bad.write_bytes(b"\xff\xfeformat = dynprec-lstm\n")
    assert main(["run", "--model", str(bad), "--input", str(seq)]) == EXIT_FORMAT
    assert "not UTF-8" in capsys.readouterr().err


def test_non_utf8_config_exit_2(toy_files, tmp_path, capsys):
    model, seq = toy_files
    bad = tmp_path / "bad.cfg"
    bad.write_bytes(b"\xff\xfebeta = 0.1\n")
    assert main(["run", "--model", str(model), "--input", str(seq), "--config", str(bad)]) == EXIT_FORMAT
    assert "not UTF-8" in capsys.readouterr().err


def test_sequence_width_mismatch_exit_2(toy_files, tmp_path, capsys):
    model, _ = toy_files
    assert main(["gen", "--kind", "flat", "--dims", "1,3,16,5", "--out", str(tmp_path / "narrow")]) == EXIT_OK
    narrow = str(tmp_path / "narrow.seq")
    assert main(["run", "--model", str(model), "--input", narrow]) == EXIT_FORMAT
    assert main(["sweep", "--model", str(model), "--input", narrow, "--param", "beta", "--values", "0.1"]) == EXIT_FORMAT
    assert "sequence width 3 != model input size 16" in capsys.readouterr().err


def test_non_finite_inputs_exit_2(toy_files, tmp_path, capsys):
    model, seq = toy_files
    raw = bytearray(seq.read_bytes())
    raw[-4:] = np.float32(np.nan).tobytes()  # last value of the last step
    nan_seq = tmp_path / "nan.seq"
    nan_seq.write_bytes(bytes(raw))
    assert main(["run", "--model", str(model), "--input", str(nan_seq)]) == EXIT_FORMAT
    assert "NaN or infinite" in capsys.readouterr().err


@pytest.mark.parametrize("random_p", ["7", "-0.1", "nan"])
def test_random_p_outside_unit_interval_exit_2(toy_files, tmp_path, capsys, random_p):
    model, seq = toy_files
    cfg = tmp_path / "p.cfg"
    cfg.write_text(f"random_p = {random_p}\n")
    argv = ["run", "--model", str(model), "--input", str(seq), "--mode", "random", "--config", str(cfg)]
    assert main(argv) == EXIT_FORMAT
    assert "random_p" in capsys.readouterr().err


@pytest.mark.parametrize(
    "param, values",
    [
        ("t_profile", "2.7"),
        ("t_profile", "nan"),
        ("m_max_peak", "inf"),
        ("n_max_stable", "4,5.5"),
        ("beta", "nan"),
        ("lanes", "4,2.5"),
        ("weight_buffer_bytes", "1e9,0.5"),
        ("pdu_update_cycles", "inf"),
        ("beta", "0.1,,0.2"),
        ("beta", "0.1,"),
    ],
)
def test_sweep_rejects_invalid_values_exit_1(toy_files, capsys, param, values):
    model, seq = toy_files
    argv = ["sweep", "--model", str(model), "--input", str(seq), "--param", param, "--values", values]
    assert main(argv) == EXIT_USAGE
    assert "--values" in capsys.readouterr().err


def test_sweep_accepts_integral_values_for_integer_params(toy_files, tmp_path):
    model, seq = toy_files
    report = tmp_path / "sweep.json"
    argv = ["sweep", "--model", str(model), "--input", str(seq), "--param", "t_profile",
            "--values", "4,6.0,9007199254740993", "--mode", "dynamic", "--report", str(report)]
    assert main(argv) == EXIT_OK
    points = json.loads(report.read_text())["sweep"]["points"]
    # an integer literal is read exactly, as a config file reads it; float() would round it to 2**53
    assert [p["report"]["pdu_config"]["t_profile"] for p in points] == [4, 6, 2**53 + 1]
    assert [p["value"] for p in points] == [4.0, 6.0, 2.0**53]


@pytest.mark.parametrize("verb", ["gen", "run", "trace", "sweep"])
def test_negative_seed_is_a_usage_error(toy_files, tmp_path, capsys, verb):
    model, seq = toy_files
    files = ["--model", str(model), "--input", str(seq), "--mode", "random"]
    argv = {
        "gen": ["gen", "--kind", "random", "--dims", "1,2,2,5", "--out", str(tmp_path / "g")],
        "run": ["run", *files],
        "trace": ["trace", *files, "--element", "0", "--out", str(tmp_path / "t.csv")],
        "sweep": ["sweep", *files, "--param", "random_p", "--values", "0.5"],
    }[verb]
    assert main([*argv, "--seed", "-1"]) == EXIT_USAGE
    assert "--seed: must be >= 0" in capsys.readouterr().err


def test_failed_writes_exit_4(toy_files, tmp_path, capsys):
    model, seq = toy_files
    missing = tmp_path / "no_such_dir"
    files = ["--model", str(model), "--input", str(seq)]
    assert main(["run", *files, "--mode", "static8", "--report", str(missing / "r.json")]) == EXIT_IO
    assert main(["trace", *files, "--element", "0", "--out", str(missing / "t.csv")]) == EXIT_IO
    blocker = tmp_path / "a_file"
    blocker.write_text("")
    assert main(["gen", "--kind", "flat", "--dims", "1,2,2,5", "--out", str(blocker / "toy")]) == EXIT_IO
    assert "error:" in capsys.readouterr().err


def test_capacity_error_exit_3(toy_files, tmp_path, capsys):
    model, seq = toy_files
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text("weight_buffer_bytes = 64\n")
    assert main(["run", "--model", str(model), "--input", str(seq), "--config", str(cfg)]) == EXIT_CAPACITY
    capsys.readouterr()


@pytest.mark.parametrize("verb", ["gen", "run", "trace", "sweep"])
def test_running_out_of_host_memory_exit_3(toy_files, tmp_path, capsys, monkeypatch, verb):
    def exhausted(*args, **kwargs):
        raise MemoryError("Unable to allocate 29.1 TiB for an array")

    model, seq = toy_files
    argv = {
        "gen": ["gen", "--kind", "random", "--dims", "1,2000000,2000000,2", "--out", str(tmp_path / "g")],
        "run": ["run", "--model", str(model), "--input", str(seq)],
        "trace": ["trace", "--model", str(model), "--input", str(seq), "--element", "0", "--out", str(tmp_path / "t")],
        "sweep": ["sweep", "--model", str(model), "--input", str(seq), "--param", "beta", "--values", "0.1"],
    }[verb]
    monkeypatch.setattr(cli, "gen_toy", exhausted)
    monkeypatch.setattr(cli, "run_experiment", exhausted)
    assert main(argv) == EXIT_CAPACITY
    assert capsys.readouterr().err == "error: out of host memory: Unable to allocate 29.1 TiB for an array\n"


def test_stretched_steps_past_the_cycle_counter_exit_3(tmp_path, capsys):
    # each of the 4096 steps is stretched to 2**51 - 0.5 cycles and charged 2**51, which wraps an int64 sum
    prefix, cfg = tmp_path / "flat", tmp_path / "slow.cfg"
    assert main(["gen", "--kind", "flat", "--dims", "1,1,1,4096", "--seed", "1", "--out", str(prefix)]) == EXIT_OK
    cfg.write_text("frequency_hz = 2251799813685247.5\npeak_bandwidth = 8\n")
    argv = ["run", "--mode", "static8,static4", "--model", f"{prefix}.model", "--input", f"{prefix}.seq",
            "--config", str(cfg)]
    capsys.readouterr()
    assert main(argv) == EXIT_CAPACITY
    assert capsys.readouterr().err.startswith("error: cycle counter needs ")


@pytest.mark.parametrize(
    "text, code",
    [
        ("frequency_hz = inf", EXIT_FORMAT),
        ("peak_bandwidth = nan", EXIT_FORMAT),
        ("frequency_hz = 1e300\npeak_bandwidth = 1e-300", EXIT_CAPACITY),  # stretch overflows
        (f"reduction_latency = {2**62}", EXIT_CAPACITY),
        (f"mu_add_cycles = {10**400}", EXIT_CAPACITY),
        ("static_power = nan", EXIT_FORMAT),
        ("mu_add = inf", EXIT_FORMAT),
    ],
    ids=["inf-frequency", "nan-bandwidth", "stretch-overflow", "huge-reduction-latency", "huge-mu-cycles",
         "nan-energy", "inf-energy"],
)
def test_extreme_config_values_exit_documented(toy_files, tmp_path, capsys, text, code):
    model, seq = toy_files
    cfg = tmp_path / "x.cfg"
    cfg.write_text(text + "\n")
    assert main(["run", "--model", str(model), "--input", str(seq), "--config", str(cfg)]) == code
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("verb", ["run", "sweep"])
def test_infinite_beta_is_a_config_error(toy_files, tmp_path, capsys, verb):
    # PduConfig takes beta = inf, but the report would hold "Infinity", which is not JSON
    model, seq = toy_files
    report = tmp_path / "report.json"
    argv = [verb, "--model", str(model), "--input", str(seq), "--report", str(report)]
    if verb == "run":
        cfg = tmp_path / "inf.cfg"
        cfg.write_text("beta = inf\n")
        argv += ["--config", str(cfg)]
    else:
        argv += ["--param", "beta", "--values", "0.1,inf"]
    assert main(argv) == EXIT_FORMAT
    assert capsys.readouterr().err.startswith("error: invalid configuration: beta must be finite")
    assert not report.exists()


@pytest.mark.parametrize(
    "key, value", [("frequency_hz", "1e-320"), ("static_power", "1e308"), ("weight_byte_read", "1e308")]
)
@pytest.mark.parametrize("verb", ["run", "sweep"])
def test_non_finite_costs_are_a_config_error(toy_files, tmp_path, capsys, monkeypatch, verb, key, value):
    # each value is valid alone, but a run's wall time or energy would overflow to "Infinity" or "NaN",
    # which is not JSON; a sweep refuses the bad point before running the good one
    model, seq = toy_files
    report = tmp_path / "report.json"
    argv = [verb, "--model", str(model), "--input", str(seq), "--report", str(report)]
    if verb == "run":
        cfg = tmp_path / "huge.cfg"
        cfg.write_text(f"{key} = {value}\n")
        argv += ["--config", str(cfg)]
    else:
        argv += ["--param", key, "--values", f"1,{value}"]
    monkeypatch.setattr(harness, "run_lanes", lambda *args, **kwargs: pytest.fail("a lane pass ran"))
    assert main(argv) == EXIT_FORMAT
    assert capsys.readouterr().err.startswith("error: invalid configuration: a static8 run's wall time")
    assert not report.exists()
    with pytest.raises(ValueError):  # and a report never renders one
        render_report({"runs": {"static8": {"energy_total": float("inf")}}})


_ZERO_ENERGY = {field.name: "0" for field in dataclasses.fields(EnergyModel)}


@pytest.mark.parametrize(
    "base, param, good, bad",
    [
        ({**_ZERO_ENERGY, "static_power": "1"}, "static_power", "1", "0"),  # the baseline costs nothing
        ({**_ZERO_ENERGY, "static_power": "1e-320"}, "pdu_update", "0", "1e300"),  # the savings reach -inf
    ],
    ids=["zero-baseline", "overflowing-ratio"],
)
@pytest.mark.parametrize("verb", ["run", "sweep"])
def test_baseline_without_energy_is_a_config_error(toy_files, tmp_path, capsys, monkeypatch, verb, base, param,
                                                   good, bad):
    # each point's energy savings divide by the static8 baseline's energy; a sweep refuses the bad second point
    # before running the good first one
    model, seq = toy_files
    report = tmp_path / "report.json"
    cfg = tmp_path / "energy.cfg"
    argv = [verb, "--model", str(model), "--input", str(seq), "--config", str(cfg), "--report", str(report)]
    if verb == "run":
        base = {**base, param: bad}
    else:
        argv += ["--param", param, "--values", f"{good},{bad}"]
    cfg.write_text("".join(f"{key} = {value}\n" for key, value in base.items()))
    monkeypatch.setattr(harness, "run_lanes", lambda *args, **kwargs: pytest.fail("a lane pass ran"))
    assert main(argv) == EXIT_FORMAT
    err = capsys.readouterr().err
    assert err.startswith("error: invalid configuration: a ") and "static8 baseline energy of at least" in err
    assert not report.exists()


def test_config_file_parsing(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        """
        # tracker settings
        beta = 0.2
        t_profile = 6
        lanes = 4
        frequency_hz = 1e9   # hertz
        weight_nibble_read = 0.25
        random_p = 0.5
        """
    )
    values = load_config_file(cfg)
    assert values["beta"] == 0.2
    assert values["t_profile"] == 6
    point = build_point(values, n_steps=100, seed=0)
    pdu, accel, energy = point.pdu_config, point.accel_config, point.energy_model
    assert pdu.beta == 0.2 and pdu.t_profile == 6
    assert pdu.m_max_peak == 5  # 5% of 100 steps
    assert accel.sip.lanes == 4
    assert accel.frequency_hz == 1e9
    assert energy.weight_nibble_read == 0.25
    assert point.random_p == 0.5


def _numeric_config_fields() -> dict[str, type]:
    fields = {}
    for config_type in (PduConfig, SipConfig, AccelConfig, EnergyModel):
        hints = typing.get_type_hints(config_type)
        fields.update({f.name: hints[f.name] for f in dataclasses.fields(config_type) if hints[f.name] in (int, float)})
    return fields


def test_config_file_takes_every_numeric_config_field(toy_files, tmp_path, capsys):
    fields = _numeric_config_fields()
    assert len(fields) == 5 + 3 + 11 + 10
    cfg = tmp_path / "all.cfg"
    cfg.write_text("".join(f"{name} = 2\n" for name in fields))
    assert {name: type(value) for name, value in load_config_file(cfg).items()} == fields

    model, seq = toy_files
    argv = ["run", "--model", str(model), "--input", str(seq), "--config", str(cfg)]
    for name in [name for name, kind in fields.items() if kind is int]:
        cfg.write_text(f"{name} = 1.5\n")
        assert main(argv) == EXIT_FORMAT, name
        assert name in capsys.readouterr().err


def test_config_rejects_invalid_values(tmp_path):
    from dynprec.harness import ConfigError

    cfg = tmp_path / "bad.cfg"
    cfg.write_text("beta = -1\n")
    values = load_config_file(cfg)
    with pytest.raises(ConfigError):
        build_point(values, 100, 0)
    cfg.write_text("t_profile = abc\n")
    with pytest.raises(ConfigError):
        load_config_file(cfg)


def test_console_script_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "dynprec", "--help"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert "gen" in proc.stdout and "sweep" in proc.stdout


@pytest.mark.parametrize("verb", ["run", "sweep"])
def test_run_writes_report_to_stdout(toy_files, tmp_path, capsys, verb):
    model, seq = toy_files
    argv = [verb, "--model", str(model), "--input", str(seq), "--mode", "static8"]
    if verb == "sweep":
        argv += ["--param", "beta", "--values", "0.1,0.2"]
    assert main(argv) == EXIT_OK
    out = capsys.readouterr().out
    report = tmp_path / "report.json"
    assert main([*argv, "--report", str(report)]) == EXIT_OK
    assert out.encode() == report.read_bytes()
    doc = json.loads(out)
    runs = doc["runs"] if verb == "run" else doc["sweep"]["points"][0]["report"]["runs"]
    assert runs["static8"]["speedup_vs_static8"] == 1.0


ALL_MODES = "static8,static4,dynamic,random"


@pytest.fixture()
def sweep_files(tmp_path):
    out = tmp_path / "sweep_toy"
    assert main(["gen", "--kind", "peaky", "--dims", "2,8,16,150", "--seed", "7", "--out", str(out)]) == EXIT_OK
    return tmp_path / "sweep_toy.model", tmp_path / "sweep_toy.seq"


def _sweep(files, tmp_path, param, values, modes=ALL_MODES) -> list[dict]:
    model, seq = files
    report = tmp_path / "sweep.json"
    argv = ["sweep", "--model", str(model), "--input", str(seq), "--param", param, "--values", values,
            "--mode", modes, "--seed", "3", "--report", str(report)]
    assert main(argv) == EXIT_OK
    return json.loads(report.read_text())["sweep"]["points"]


@pytest.mark.parametrize(
    "param, values",
    [
        ("beta", "0.05,0.2,0.05"),
        ("t_profile", "4,12,12"),
        ("random_p", "0.2,0.7,0.2"),
        ("peak_bandwidth", "1e6,30e9,1e6"),
    ],
)
def test_sweep_points_match_fresh_experiments(sweep_files, tmp_path, param, values):
    # every point, whatever it reused from earlier points, renders the bytes of
    # an experiment run from scratch at that point's configuration
    points = _sweep(sweep_files, tmp_path, param, values)
    model, seq = load_model(sweep_files[0]), load_sequence(sweep_files[1])
    modes = [Mode(name) for name in ALL_MODES.split(",")]
    for point in points:
        value = int(point["value"]) if param == "t_profile" else point["value"]
        config = build_point({param: value}, len(seq), seed=3)
        (fresh,) = run_experiment(model, seq, modes, [config])
        assert render_report(point["report"]) == render_report(fresh.report)
    first_runs, second_runs = (points[i]["report"]["runs"] for i in (0, 1))
    assert first_runs != second_runs  # the swept value reaches the numbers


@pytest.mark.parametrize(
    "param, values, modes, runs, distinct_pdu",
    [
        ("beta", "0.05,0.05,0.2", "static8,dynamic", {"static8": 1, "dynamic": 2}, 2),
        ("t_profile", "4,12", "static4,dynamic", {"static8": 1, "static4": 1, "dynamic": 2}, 2),
        ("random_p", "0.2,0.7,0.7", "dynamic,random", {"static8": 1, "dynamic": 1, "random": 2}, 1),
        ("peak_bandwidth", "1e6,30e9,1e9", ALL_MODES, {"static8": 1, "static4": 1, "dynamic": 1, "random": 1}, 1),
        ("lanes", "2,8", ALL_MODES, {"static8": 1, "static4": 1, "dynamic": 1, "random": 1}, 1),
        ("sip_bit_op", "0.01,0.04", ALL_MODES, {"static8": 1, "static4": 1, "dynamic": 1, "random": 1}, 1),
        # a value that returns after another one reuses its lane
        ("random_p", "0.2,0.7,0.2", "dynamic,random", {"static8": 1, "dynamic": 1, "random": 2}, 1),
    ],
)
def test_sweep_computes_each_stage_once(sweep_files, tmp_path, monkeypatch, param, values, modes, runs, distinct_pdu):
    # one lane pass with one lane per distinct run, and one reference pass whose trackers, one set per distinct
    # PduConfig, ride that lane pass: the experiment never runs classify_trace's own tracker loop
    calls = collections.Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(harness, "quantize_model", counted("quantize_model", harness.quantize_model))
    monkeypatch.setattr(harness, "run_fp32", counted("run_fp32", harness.run_fp32))
    classify_trace, run_lanes = harness.classify_trace, harness.run_lanes

    def counted_classify(trace, configs):
        calls["classify_trace"] += 1
        return classify_trace(trace, configs)

    def counted_lanes(qmodel, seq, lanes, **kwargs):
        calls["run_lanes"] += 1
        calls["pdu_configs"] += len(kwargs["reference"][1])
        calls.update(lane.mode.value for lane in lanes)
        return run_lanes(qmodel, seq, lanes, **kwargs)

    monkeypatch.setattr(harness, "classify_trace", counted_classify)
    monkeypatch.setattr(harness, "run_lanes", counted_lanes)
    _sweep(sweep_files, tmp_path, param, values, modes)
    passes = {"quantize_model": 1, "run_fp32": 1, "run_lanes": 1}
    assert calls == {**passes, "pdu_configs": distinct_pdu, **runs}
    assert calls["classify_trace"] == 0


@pytest.mark.parametrize(
    "param, values, code",
    [
        ("weight_buffer_bytes", "1,0", EXIT_CAPACITY),
        ("weight_buffer_bytes", "0,1", EXIT_FORMAT),
        ("reduction_latency", f"1,{2**62},0", EXIT_CAPACITY),  # the cycle-counter bound
    ],
)
def test_sweep_fails_at_the_first_bad_point_before_any_run(toy_files, capsys, monkeypatch, param, values, code):
    # every point is checked, in value order, before the lane pass
    monkeypatch.setattr(harness, "run_lanes", lambda *args, **kwargs: pytest.fail("a lane pass ran"))
    model, seq = toy_files
    argv = ["sweep", "--model", str(model), "--input", str(seq), "--param", param, "--values", values]
    assert main(argv) == code
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("key", ["t_profile", "m_max_peak", "n_max_stable"])
def test_huge_tracker_limits_run_as_limits_never_reached(toy_files, tmp_path, key):
    # a limit past the last step never expires: 1e20, stored as the int64 maximum, runs as steps + 1 does;
    # the report keeps the given value
    model, seq = toy_files
    steps = len(load_sequence(seq))
    report = tmp_path / "sweep.json"
    argv = ["sweep", "--model", str(model), "--input", str(seq), "--param", key, "--values", f"1e20,{steps + 1}",
            "--mode", "static8,dynamic", "--report", str(report)]
    assert main(argv) == EXIT_OK
    huge, last = json.loads(report.read_text())["sweep"]["points"]
    assert huge["report"]["pdu_config"][key] == 10**20
    assert huge["report"]["runs"] == last["report"]["runs"]


def test_sweep_takes_every_numeric_config_field(tmp_path):
    # each field swept at its default gives the report of a run without a config
    out = tmp_path / "tiny"
    assert main(["gen", "--kind", "peaky", "--dims", "1,3,4,20", "--seed", "1", "--out", str(out)]) == EXIT_OK
    files = ["--model", f"{out}.model", "--input", f"{out}.seq", "--mode", ALL_MODES]
    report = tmp_path / "r.json"
    assert main(["run", *files, "--report", str(report)]) == EXIT_OK
    plain = json.loads(report.read_text())
    defaults = {
        **dataclasses.asdict(PduConfig.for_sequence(20)),
        **dataclasses.asdict(SipConfig()),
        **{k: v for k, v in dataclasses.asdict(AccelConfig()).items() if k != "sip"},
        **dataclasses.asdict(EnergyModel()),
    }
    assert defaults.keys() == _numeric_config_fields().keys()
    for name, value in [*defaults.items(), ("random_p", plain["random_p"])]:
        argv = ["sweep", *files, "--param", name, "--values", repr(value), "--report", str(report)]
        assert main(argv) == EXIT_OK, name
        (point,) = json.loads(report.read_text())["sweep"]["points"]
        assert point["report"] == plain, name


@pytest.mark.parametrize(
    "param, values, code",
    [
        ("lanes", "0", EXIT_FORMAT),
        ("frequency_hz", "-1", EXIT_FORMAT),
        ("peak_bandwidth", "inf", EXIT_FORMAT),
        ("weight_nibble_read", "0.25,2", EXIT_FORMAT),
        ("weight_buffer_bytes", "1", EXIT_CAPACITY),
        ("pdu_buffer_bytes", "8192,1", EXIT_CAPACITY),
    ],
)
def test_sweep_over_accelerator_fields_exits_as_run_does(toy_files, capsys, param, values, code):
    model, seq = toy_files
    argv = ["sweep", "--model", str(model), "--input", str(seq), "--param", param, "--values", values]
    assert main(argv) == code
    assert "error:" in capsys.readouterr().err
