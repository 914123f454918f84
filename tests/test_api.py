import ast
import importlib.util
import json
import math
import sys
from pathlib import Path

import pytest

import dynprec
from dynprec import cli
from dynprec.harness import load_model

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


@pytest.fixture()
def perfbench_run(monkeypatch):
    """perfbench/run.py, loaded by path with perfbench/ importable."""
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    spec = importlib.util.spec_from_file_location("perfbench_run", ROOT / "perfbench" / "run.py")
    run = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, run)  # its dataclasses look the module up
    spec.loader.exec_module(run)
    return run


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
    assert metrics["lstm_quant.sim_macs"] == len(modes) * per_mode


def _unused_imports(path: Path) -> list[str]:
    """Names a module imports and never reads, counting ``__all__`` entries as reads."""
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
    return [f"{path.relative_to(ROOT)}:{line} {name}" for name, line in imported.items() if name not in read]


def test_no_unused_imports():
    paths = sorted(SRC.glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))
    assert [unused for path in paths for unused in _unused_imports(path)] == []
