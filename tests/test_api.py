import ast
import functools
import importlib.util
import inspect
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

import dynprec
from dynprec import cli
from dynprec.accel import _weight_reads
from dynprec.harness import load_model, load_sequence, run_experiment
from dynprec.lstm_quant import Mode, quantize_model

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "dynprec"

PIPELINE_API = [
    "AccelConfig",
    "CapacityError",
    "ConfigError",
    "EnergyModel",
    "ExperimentResult",
    "FormatError",
    "InputSequence",
    "LstmModel",
    "Mode",
    "ModelFormatError",
    "PduConfig",
    "Point",
    "SequenceFormatError",
    "SimResult",
    "SipConfig",
    "export_trace",
    "gen_toy",
    "load_model",
    "load_sequence",
    "quantize_model",
    "run_experiment",
    "simulate",
    "write_model",
    "write_sequence",
]


def test_public_api_is_the_pipeline():
    assert sorted(dynprec.__all__) == PIPELINE_API
    for name in dynprec.__all__:
        assert getattr(dynprec, name) is not None


def test_source_imports_no_test_code():
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            for module in modules:
                assert module.split(".")[0] != "tests" and "oracle" not in module, f"{path.name} imports {module}"


def test_harness_alone_builds_reports():
    # every report shape, and so its schema version, is built in one module
    owners = [path.name for path in sorted(SRC.glob("*.py")) if "schema_version" in path.read_text().lower()]
    assert owners == ["harness.py"]


def test_accel_only_costs_runs():
    # harness turns a configuration into a run; accel checks and costs finished runs
    tree = ast.parse((SRC / "accel.py").read_text())
    called = {
        node.func.id if isinstance(node.func, ast.Name) else getattr(node.func, "attr", None)
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
    }
    assert not called & {"run_lanes", "run_quantized"}
    defined = {node.name for node in ast.walk(tree) if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    assert "simulate" not in defined


@pytest.fixture()
def perfbench_run(monkeypatch):
    """perfbench/run.py, loaded by path with perfbench/ importable."""
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    spec = importlib.util.spec_from_file_location("perfbench_run", ROOT / "perfbench" / "run.py")
    run = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, run)  # its dataclasses look the module up
    spec.loader.exec_module(run)
    return run


def _label(owner) -> str:
    """``module.attr`` or ``module.Class`` within dynprec, as perfbench's span names read."""
    if inspect.ismodule(owner):
        return owner.__name__.removeprefix("dynprec.")
    return f"{owner.__module__.removeprefix('dynprec.')}.{owner.__qualname__}"


def test_perfbench_span_targets_resolve_to_pipeline_functions(perfbench_run):
    # perfbench/run.py flags a target that stopped resolving only under --trace 1. Each one must
    # still be the function its defining module holds under its name, not a stale or foreign copy.
    targets = {f"{_label(t.owner)}.{t.attr}": getattr(t.owner, t.attr) for t in perfbench_run.span_targets([])}
    for name, fn in targets.items():
        home = sys.modules[fn.__module__]
        assert home.__name__.startswith("dynprec."), name
        assert functools.reduce(getattr, fn.__qualname__.split("."), home) == fn, name
    named = {
        "harness.simulate",
        "harness.classify_trace",
        "accel.run_quantized",
        "lstm_quant.pdu_observe",
        "lstm_quant.sigmoid",
        "quant.QuantizedVector.encode",
    }
    assert named <= targets.keys()


def test_perfbench_span_targets_exist(perfbench_run):
    # perfbench/run.py only flags a renamed span target under --trace 1
    targets = perfbench_run.span_targets([])
    assert targets
    for target in targets:
        assert target.attr in vars(target.owner), f"{target.owner!r} has no {target.attr}"


def test_perfbench_layer_metrics_read_a_traced_run(perfbench_run, tmp_path):
    # the data perfbench/run.py --trace 1 reads from the program, on a tiny toy
    from spans import Tracer

    prefix, report = tmp_path / "toy", tmp_path / "report.json"
    assert cli.main(["gen", "--kind", "peaky", "--dims", "2,3,5,30", "--seed", "7", "--out", str(prefix)]) == 0
    modes = ["static8", "static4", "dynamic", "random"]
    argv = ["run", "--mode", ",".join(modes), "--model", f"{prefix}.model", "--input", f"{prefix}.seq",
            "--report", str(report)]
    tracer, captured = Tracer(), []
    tracer.install(perfbench_run.span_targets(captured))
    try:
        assert tracer.call("cli.main", cli.main, argv) == 0
    finally:
        tracer.uninstall()
    assert not tracer.missing
    data = report.read_bytes()
    metrics = perfbench_run.layer_metrics(tracer, captured, json.loads(data), len(data))

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    # trace.overhead_s compares traced with untraced runs, outside layer_metrics
    names = [entry["name"] for entry in spec["per_layer"] if not entry["name"].startswith("trace.")]
    for name in names:
        assert name in metrics and math.isfinite(metrics[name]), name
    model = load_model(f"{prefix}.model")
    steps = 30
    per_mode = sum(4 * (layer.input_size + layer.cell_size) * layer.cell_size * steps for layer in model.layers)
    # perfbench counts MACs from the runs it captures at accel.run_quantized, which the lane pass of an
    # experiment does not call; accel's weight reads of the experiment's runs give the same count
    (result,) = run_experiment(model, load_sequence(f"{prefix}.seq"), [Mode(name) for name in modes])
    qmodel = quantize_model(model)
    reads = [
        _weight_reads(qmodel, steps, [np.count_nonzero(bits == 8) for bits in sim.run.precision_bits])
        for sim in result.sims.values()
    ]
    assert sum(map(sum, reads)) == len(modes) * per_mode


def test_perfbench_spans_cover_a_traced_sweep(perfbench_run, tmp_path):
    # every point of a sweep runs inside the one harness.run_experiment span perfbench reads on the sweep workload
    from spans import Tracer

    prefix = tmp_path / "toy"
    assert cli.main(["gen", "--kind", "peaky", "--dims", "1,3,4,20", "--seed", "7", "--out", str(prefix)]) == 0
    argv = ["sweep", "--param", "beta", "--values", "0.05,0.1,0.2", "--model", f"{prefix}.model",
            "--input", f"{prefix}.seq", "--report", str(tmp_path / "sweep.json")]
    tracer = Tracer()
    tracer.install(perfbench_run.span_targets([]))
    try:
        assert tracer.call("cli.main", cli.main, argv) == 0
    finally:
        tracer.uninstall()
    assert not tracer.missing
    assert tracer.calls("harness.run_experiment") == 1


def test_perfbench_golden_bytes(perfbench_run, tmp_path):
    # every workload's report, and long's trace CSV, as the benchmark pins them at its default seed and full dims
    seed = perfbench_run.DEFAULT_SEED
    for name, workload in perfbench_run.WORKLOADS.items():
        golden = perfbench_run.GOLDEN[name]
        model, seq = perfbench_run.gen_files(cli, workload, workload.dims, seed, tmp_path / name)
        files = ["--model", str(model), "--input", str(seq), "--seed", str(seed)]
        report = tmp_path / f"{name}.json"
        assert cli.main(workload.argv() + files + ["--report", str(report)]) == 0, name
        assert perfbench_run.sha256(report.read_bytes()) == golden["report"], name
        if workload.check_trace_csv:
            csv = tmp_path / f"{name}.csv"
            assert cli.main(["trace", "--mode", "dynamic", "--element", "0", *files, "--out", str(csv)]) == 0
            assert perfbench_run.sha256(csv.read_bytes()) == golden["trace_csv"], name


def _unused_imports(path: Path) -> list[tuple[str, int]]:
    """Names a module imports and never reads, with their lines, counting ``__all__`` entries as reads."""
    tree = ast.parse(path.read_text(), filename=str(path))
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            read.update(ast.literal_eval(node.value))
    return [(name, line) for name, line in imported.items() if name not in read]


PERFBENCH_ONLY = "# Unused by the pipeline; kept because perfbench/run.py span_targets wraps it."


def test_no_unused_imports(perfbench_run):
    # an import only perfbench reads must be one of its span targets and say so on the line above
    wrapped = {
        (Path(t.owner.__file__).resolve(), t.attr) for t in perfbench_run.span_targets([]) if inspect.ismodule(t.owner)
    }
    paths = sorted(SRC.glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))
    unused = []
    for path in paths:
        lines = path.read_text().splitlines()
        for name, line in _unused_imports(path):
            if (path.resolve(), name) not in wrapped or lines[line - 2] != PERFBENCH_ONLY:
                unused.append(f"{path.relative_to(ROOT)}:{line} {name}")
    assert unused == []
