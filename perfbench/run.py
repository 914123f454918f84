"""Host-time benchmark of the dynprec report pipeline.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload mid --seed 7 --seconds 30 --trace 0

Each run generates toy model and sequence files from ``--seed``, then
produces the workload's report the way a user does, by calling
``dynprec.cli.main`` in this process, again and again for ``--seconds``
seconds. ``--trace 0`` reports the end-to-end metrics of BENCHMARK.json
from untraced runs. ``--trace 1`` spends half the time on untraced runs
and then makes two runs with span wrappers installed (perfbench/spans.py)
to report the per-layer metrics.

Every report must reproduce the first one byte for byte, and at the
default seed also the pinned sha256 in ``GOLDEN``. The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
A fuller record, stamped with the environment, goes to
``.bench_work/results/``. ``--tiny`` shrinks every workload for the
self-test (perfbench/selftest.py); no hash is pinned for it.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
DEFAULT_SEED = 7
MODES = ("static8", "static4", "dynamic", "random")
BASELINE_MODE = "static8"
SIM_MODE = "dynamic"
SIM_SWEEP_VALUE = 0.1  # the sweep point whose dynamic run gives the sim_* metrics
SETUP_REPEATS = 9
TRACED_REPEATS = 2
# counters of the program and of the simulated design; they must repeat exactly
EXACT_SUFFIXES = ("_calls", "_bytes", "sim_macs", "peak_entries", "reprofiles", "sim_peak_rel_error")


@dataclass(frozen=True)
class Workload:
    kind: str
    dims: tuple[int, int, int, int]  # layers, input_size, cell_size, steps
    tiny_dims: tuple[int, int, int, int]
    verb: list[str]
    modes: tuple[str, ...]
    sweep_values: tuple[float, ...] = ()
    check_trace_csv: bool = False

    def argv(self) -> list[str]:
        argv = [self.verb[0], "--mode", ",".join(self.modes), *self.verb[1:]]
        if self.sweep_values:
            argv += ["--values", ",".join(str(v) for v in self.sweep_values)]
        return argv

    def simulated_modes(self) -> list[str]:
        return [BASELINE_MODE] + [m for m in self.modes if m != BASELINE_MODE]


# Why these three: see BENCHMARK.json and perfbench/README.md.
WORKLOADS = {
    "mid": Workload("random", (2, 64, 256, 500), (2, 8, 16, 40), ["run"], MODES),
    "long": Workload(
        "peaky", (1, 16, 16, 2000), (1, 4, 4, 80), ["run"], ("static8", "static4", "dynamic"), check_trace_csv=True
    ),
    "sweep": Workload(
        "peaky",
        (1, 32, 128, 1000),
        (1, 4, 16, 60),
        ["sweep", "--param", "beta"],
        ("static8", "dynamic"),
        (0.05, 0.1, 0.2, 0.4),
    ),
}

# sha256 of the output bytes and the tracker counters at DEFAULT_SEED and full dims.
GOLDEN = {
    "mid": {
        "report": "ded69e48f8966ffbc6425de827d4a623afccd297465ebf4fa91f44201c9bf4ac",
        "pdu.peak_entries": 13747,
        "pdu.reprofiles": 2133,
    },
    "long": {
        "report": "20c8c652ec0fd0ead7d7a2d4ac99ffaa579233c500fbb8f34ade778fe3eb55ef",
        "trace_csv": "673a1468d6ba83590a27b750325c4bf035a618ce75aae00a6493eca7cae17d27",
        "pdu.peak_entries": 144,
        "pdu.reprofiles": 143,
    },
    "sweep": {
        "report": "8a12462f5bc1b901a93033e53254e79bca7edea37cad1bcdeaff200bbcbc49ab",
        "pdu.peak_entries": 1260,
        "pdu.reprofiles": 884,
    },
}

SETUP_CODE = """
import sys, time
t0 = time.perf_counter()
import dynprec
from dynprec.harness import load_model, load_sequence
load_model(sys.argv[1])
load_sequence(sys.argv[2])
print(repr(time.perf_counter() - t0))
"""


class Checks:
    """Counts attempted and failed invocations and collects flagged problems."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.flags: list[str] = []

    def invocation(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.flag(what)

    def flag(self, message: str) -> None:
        self.flags.append(message)
        print(f"FLAG: {message}", file=sys.stderr)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[len("ref: ") :]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "dynprec").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def environment_stamp(args: argparse.Namespace, nproc: int) -> dict:
    import numpy

    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "seed": args.seed,
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "machine": platform.machine(),
    }


def quiet(main, argv: list[str]) -> int:
    """``main(argv)`` with the CLI's "wrote ..." lines kept off our stdout."""
    with contextlib.redirect_stdout(io.StringIO()):
        return main(argv)


def gen_files(cli, workload: Workload, dims, seed: int, prefix: Path) -> tuple[Path, Path]:
    argv = ["gen", "--kind", workload.kind, "--dims", ",".join(map(str, dims)), "--seed", str(seed)]
    if quiet(cli.main, argv + ["--out", str(prefix)]) != 0:
        raise RuntimeError(f"dynprec gen failed for {argv}")
    return prefix.with_name(prefix.name + ".model"), prefix.with_name(prefix.name + ".seq")


def measure_setup(model: Path, seq: Path) -> list[float]:
    """Import dynprec and load the workload's files in fresh interpreters."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH", "")) if p)
    samples = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(model), str(seq)],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=60,
            check=True,
        )
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return samples


def sim_report(report: dict) -> dict:
    """The single-experiment report that carries the sim_* metrics."""
    if "sweep" in report:
        for point in report["sweep"]["points"]:
            if point["value"] == SIM_SWEEP_VALUE:
                return point["report"]
        raise KeyError(f"sweep has no point at {SIM_SWEEP_VALUE}")
    return report


def tracker_events(phases) -> tuple[int, int]:
    """(peak entries, forced re-profiles) from per-layer [steps, cell] phase arrays."""
    import numpy as np

    from dynprec.pdu import Phase

    entries = reprofiles = 0
    for layer in phases:
        prev = np.vstack([np.full((1, layer.shape[1]), int(Phase.PROFILING)), layer[:-1]])
        entries += int(((layer == Phase.IN_PEAK) & (prev != Phase.IN_PEAK)).sum())
        reprofiles += int(((layer == Phase.PROFILING) & (prev != Phase.PROFILING)).sum())
    return entries, reprofiles


def span_targets(captured: list) -> list:
    """Public functions of each module, wrapped where their caller looks them up."""
    from dynprec import accel, cli, harness, lstm_quant, quant

    from spans import Target

    def mode_of(args: tuple) -> str:
        return f"lstm_quant.run_quantized.{args[2].value}"

    def keep(args: tuple, kwargs: dict, result) -> None:
        pdu_config = args[3] if len(args) > 3 else kwargs.get("pdu_config")
        captured.append((args[2].value, pdu_config, result))

    return [
        Target(cli, "load_model", "harness.load_model"),
        Target(cli, "load_sequence", "harness.load_sequence"),
        Target(cli, "run_experiment", "harness.run_experiment"),
        Target(cli, "render_report", "harness.render_report"),
        Target(harness, "render_report", "harness.render_report"),
        Target(harness, "quantize_model", "lstm_quant.quantize_model"),
        Target(harness, "run_fp32", "lstm_ref.run_fp32"),
        Target(harness, "classify_trace", "pdu.classify_trace"),
        Target(harness, "simulate", "accel.simulate"),
        Target(harness, "relative_error_stats", "lstm_quant.relative_error_stats"),
        Target(accel, "run_quantized", mode_of, keep),
        Target(accel, "sip_cycles", "sip.sip_cycles"),
        Target(quant.QuantizedVector, "encode", "quant.encode"),
        Target(lstm_quant, "pdu_observe", "pdu.observe"),
        Target(lstm_quant, "sigmoid", "lstm_ref.sigmoid"),
    ]


def layer_metrics(tracer, captured: list, report: dict, report_bytes: int) -> dict[str, float]:
    """Per-layer metrics of one traced run."""

    def sec(ns: int) -> float:
        return ns / 1e9

    t = tracer
    m: dict[str, float] = {
        "quant.encode_s": sec(t.total_ns("quant.encode")),
        "quant.encode_calls": t.calls("quant.encode"),
    }
    for mode in MODES:
        m[f"lstm_quant.run_quantized_s.{mode}"] = sec(t.total_ns(f"lstm_quant.run_quantized.{mode}"))
    rq_self = t.self_ns("lstm_quant.run_quantized.")
    macs = sum(a.weight_bytes + a.weight_nibbles for _, _, run in captured for a in run.activity)
    m["lstm_quant.run_quantized_calls"] = t.calls("lstm_quant.run_quantized.")
    m["lstm_quant.run_quantized_self_s"] = sec(rq_self)
    m["lstm_quant.sim_macs"] = macs
    m["lstm_quant.host_ns_per_mac"] = rq_self / macs if macs else 0.0
    m["lstm_quant.quantize_model_s"] = sec(t.total_ns("lstm_quant.quantize_model"))
    m["lstm_quant.relative_error_stats_s"] = sec(t.total_ns("lstm_quant.relative_error_stats"))
    m["lstm_ref.run_fp32_s"] = sec(t.total_ns("lstm_ref.run_fp32"))
    m["lstm_ref.run_fp32_calls"] = t.calls("lstm_ref.run_fp32")
    m["pdu.observe_s"] = sec(t.total_ns("pdu.observe"))
    m["pdu.observe_calls"] = t.calls("pdu.observe")
    m["pdu.classify_trace_s"] = sec(t.total_ns("pdu.classify_trace"))
    m["pdu.classify_trace_calls"] = t.calls("pdu.classify_trace")

    sim_beta = sim_report(report)["pdu_config"]["beta"]
    dynamic = [run for mode, cfg, run in captured if mode == SIM_MODE and cfg.beta == sim_beta]
    m["pdu.peak_entries"], m["pdu.reprofiles"] = tracker_events(dynamic[0].phases) if dynamic else (0, 0)

    m["accel.cost_model_s"] = sec(t.total_ns("accel.simulate") - t.total_ns("lstm_quant.run_quantized."))
    runs = sim_report(report)["runs"]
    for mode in MODES:
        m[f"accel.total_cycles.{mode}"] = runs[mode]["total_cycles"] if mode in runs else 0
    m["harness.load_s"] = sec(t.total_ns("harness.load_"))
    m["harness.render_report_s"] = sec(t.total_ns("harness.render_report"))
    m["harness.report_bytes"] = report_bytes
    m["harness.run_experiment_calls"] = t.calls("harness.run_experiment")
    m["harness.run_experiment_self_s"] = sec(t.self_ns("harness.run_experiment"))
    m["cli.self_s"] = sec(t.self_ns("cli.main"))
    m["sip.sip_cycles_calls"] = t.calls("sip.sip_cycles")
    peak = runs[SIM_MODE]["peak_relative_error"]
    m["sim_peak_rel_error"] = peak if peak is not None else 0.0
    return m


class Bench:
    def __init__(self, args: argparse.Namespace, cli, workdir: Path) -> None:
        self.args = args
        self.cli = cli
        self.workdir = workdir
        self.workload = WORKLOADS[args.workload]
        self.dims = self.workload.tiny_dims if args.tiny else self.workload.dims
        self.golden = GOLDEN[args.workload] if args.seed == DEFAULT_SEED and not args.tiny else {}
        self.checks = Checks()
        self.first_bytes: bytes | None = None
        self.report_path = workdir / "report.json"

    def report_argv(self, model: Path, seq: Path) -> list[str]:
        return self.workload.argv() + [
            "--model", str(model),
            "--input", str(seq),
            "--seed", str(self.args.seed),
            "--report", str(self.report_path),
        ]

    def invoke(self, argv: list[str], label: str, main=None) -> tuple[float, bytes | None]:
        """One timed ``cli.main`` call, checked against the first call and the pinned hash."""
        self.report_path.unlink(missing_ok=True)
        gc.collect()
        start = time.perf_counter()
        rc = quiet(main or self.cli.main, argv)
        elapsed = time.perf_counter() - start
        data = self.report_path.read_bytes() if rc == 0 and self.report_path.is_file() else None
        if self.first_bytes is None and data is not None:
            self.first_bytes = data
        ok = (
            data is not None
            and data == self.first_bytes
            and ("report" not in self.golden or sha256(data) == self.golden["report"])
        )
        self.checks.invocation(ok, f"{label}: exit {rc}, report differs from the first or the pinned bytes")
        return elapsed, data

    def check_trace_csv(self, model: Path, seq: Path) -> str:
        """Export one element's trace twice; both must match each other and the pin."""
        out = self.workdir / "trace.csv"
        argv = ["trace", "--mode", "dynamic", "--element", "0",
                "--model", str(model), "--input", str(seq), "--seed", str(self.args.seed), "--out", str(out)]
        digests = []
        for _ in range(2):
            out.unlink(missing_ok=True)
            rc = quiet(self.cli.main, argv)
            digests.append(sha256(out.read_bytes()) if rc == 0 and out.is_file() else f"exit {rc}")
        pinned = self.golden.get("trace_csv")
        for digest in digests:
            ok = digest == digests[0] and not digest.startswith("exit") and pinned in (None, digest)
            self.checks.invocation(ok, f"trace csv {digest} (first {digests[0]}, pinned {pinned})")
        return digests[0]

    def timed_loop(self, argv: list[str], seconds: float) -> list[float]:
        samples = []
        start = time.perf_counter()
        while not samples or time.perf_counter() - start < seconds:
            elapsed, _ = self.invoke(argv, f"timed run {len(samples)}")
            samples.append(elapsed)
        return samples

    def traced_runs(self, argv: list[str]) -> tuple[list[dict], list[float], list[dict]]:
        from spans import Tracer

        per_run, totals, accounting = [], [], []
        for i in range(TRACED_REPEATS):
            tracer, captured = Tracer(), []
            tracer.install(span_targets(captured))
            try:
                elapsed, data = self.invoke(argv, f"traced run {i}", lambda a: tracer.call("cli.main", self.cli.main, a))
            finally:
                tracer.uninstall()
            for name in tracer.missing:
                self.checks.flag(f"span target {name} no longer exists")
            totals.append(elapsed)
            if data is None:
                continue
            per_run.append(layer_metrics(tracer, captured, json.loads(data), len(data)))
            accounting.append(self.account(tracer, elapsed, i))
        return per_run, totals, accounting

    def account(self, tracer, elapsed_s: float, i: int) -> dict:
        """Self times are >= 0 and, with the untraced remainder, add up to the traced total."""
        negative = [name for name, st in tracer.stats.items() if st.self_ns < 0]
        if negative:
            self.checks.flag(f"traced run {i}: negative self time in {negative}")
        root = tracer.stats["cli.main"].total_ns
        sum_self = sum(st.self_ns for st in tracer.stats.values())
        if sum_self != root:
            self.checks.flag(f"traced run {i}: self times sum to {sum_self} ns, root span is {root} ns")
        remainder = elapsed_s - root / 1e9
        if remainder < 0:
            self.checks.flag(f"traced run {i}: root span {root} ns exceeds the measured {elapsed_s} s")
        return {
            "traced_total_s": elapsed_s,
            "sum_self_s": sum_self / 1e9,
            "untraced_remainder_s": remainder,
            "self_s": {name: st.self_ns / 1e9 for name, st in sorted(tracer.stats.items())},
            "calls": {name: st.calls for name, st in sorted(tracer.stats.items())},
        }

    def elem_steps(self) -> int:
        layers, _, cell, steps = self.dims
        points = max(1, len(self.workload.sweep_values))
        return points * len(self.workload.simulated_modes()) * layers * cell * steps

    def run(self) -> tuple[dict[str, float], dict]:
        args = self.args
        model, seq = gen_files(self.cli, self.workload, self.dims, args.seed, self.workdir / "toy")
        setup = measure_setup(model, seq)
        argv = self.report_argv(model, seq)

        # warm-up on a shrunken copy, so lazy first-call set-up is not timed
        warm_model, warm_seq = gen_files(self.cli, self.workload, self.workload.tiny_dims, args.seed, self.workdir / "warm")
        quiet(self.cli.main, self.report_argv(warm_model, warm_seq))

        detail: dict = {}
        if self.workload.check_trace_csv:
            detail["trace_csv_sha256"] = self.check_trace_csv(model, seq)
        seconds = args.seconds / 2 if args.trace else args.seconds
        samples = self.timed_loop(argv, seconds)
        report_s = statistics.median(samples)
        detail.update(report_samples=samples, setup_samples=setup)
        if self.first_bytes is not None:
            detail["report_sha256"] = sha256(self.first_bytes)
        report = json.loads(self.first_bytes) if self.first_bytes else None
        if not args.trace:
            metrics = self.end_to_end(report, report_s, setup)
        else:
            metrics = self.per_layer(argv, report_s, detail)
        return metrics, detail

    def end_to_end(self, report: dict | None, report_s: float, setup: list[float]) -> dict[str, float]:
        dyn = sim_report(report)["runs"][SIM_MODE] if report else {}
        return {
            "report_s": report_s,
            "elem_steps_per_s": self.elem_steps() / report_s,
            "setup_s": statistics.median(setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "sim_speedup": dyn.get("speedup_vs_static8", 0.0),
            "sim_energy_savings": dyn.get("energy_savings_vs_static8", 0.0),
            "sim_low_precision_usage": dyn.get("low_precision_usage", 0.0),
        }

    def per_layer(self, argv: list[str], report_s: float, detail: dict) -> dict[str, float]:
        per_run, totals, accounting = self.traced_runs(argv)
        detail.update(traced_samples=totals, trace_accounting=accounting)
        if not per_run:
            return {}
        metrics = {}
        for name in per_run[0]:
            values = [run[name] for run in per_run]
            if name.endswith(EXACT_SUFFIXES) or ".total_cycles." in name:
                if len(set(values)) != 1:
                    self.checks.flag(f"{name} differs across traced runs: {values}")
                metrics[name] = values[0]
            else:
                metrics[name] = statistics.median(values)
        for key in ("pdu.peak_entries", "pdu.reprofiles"):
            if key in self.golden and metrics[key] != self.golden[key]:
                self.checks.flag(f"{key} is {metrics[key]}, pinned {self.golden[key]}")
        metrics["trace.overhead_s"] = statistics.median(totals) - report_s
        return metrics


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def import_dynprec():
    if not (SRC / "dynprec" / "__init__.py").is_file():
        raise ImportError(f"no dynprec sources under {SRC}")
    sys.path.insert(0, str(SRC))
    from dynprec import cli

    if Path(cli.__file__).resolve().parent != (SRC / "dynprec").resolve():
        raise ImportError(f"imported dynprec from {cli.__file__}, not from {SRC}")
    return cli


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="shrunken dims for the self-test")
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    nproc = len(os.sched_getaffinity(0))
    # the program must never run more BLAS threads than this machine has cores
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(nproc)
    try:
        spec = load_spec()
        cli = import_dynprec()
    except (OSError, ValueError, ImportError) as exc:
        print(f"error: cannot set up the benchmark: {exc}", file=sys.stderr)
        return 2

    stamp = environment_stamp(args, nproc)
    print("env " + json.dumps(stamp, sort_keys=True))
    workdir = WORK / f"run-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    bench = Bench(args, cli, workdir)
    try:
        metrics, detail = bench.run()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    kind = "per_layer" if args.trace else "end_to_end"
    units = {entry["name"]: entry["unit"] for entry in spec[kind]}
    for name in units.keys() - metrics.keys():
        bench.checks.flag(f"metric {name} was not measured")
    for name, value in metrics.items():
        if not math.isfinite(value):
            bench.checks.flag(f"metric {name} is not finite: {value}")
    out_metrics = {name: {"value": metrics.get(name, 0.0), "unit": unit} for name, unit in units.items()}
    for name, entry in out_metrics.items():
        print(f"{name} = {entry['value']!r} {entry['unit']}")
    samples = detail.get("report_samples", [])
    print(f"report_s: median of {len(samples)} samples {[round(s, 4) for s in samples]}")
    print(f"failed_ratio = {bench.checks.failed / max(1, bench.checks.attempted)!r} "
          f"({bench.checks.failed} of {bench.checks.attempted} invocations)")

    result = {
        "correct": not bench.checks.flags,
        "attempted": max(1, bench.checks.attempted),
        "failed": bench.checks.failed,
        "metrics": out_metrics,
    }
    results_dir = WORK / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    record = {"env": stamp, "result": result, "flags": bench.checks.flags, "detail": detail}
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-tiny' if args.tiny else ''}.json"
    (results_dir / name).write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
