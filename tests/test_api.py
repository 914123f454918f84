import ast
import importlib.util
import sys
from pathlib import Path

import dynprec

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


def test_perfbench_span_targets_exist(monkeypatch):
    # perfbench/run.py only flags a renamed span target under --trace 1
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    spec = importlib.util.spec_from_file_location("perfbench_run", ROOT / "perfbench" / "run.py")
    run = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, run)  # its dataclasses look the module up
    spec.loader.exec_module(run)
    targets = run.span_targets([])
    assert targets
    for target in targets:
        assert target.attr in vars(target.owner), f"{target.owner!r} has no {target.attr}"
