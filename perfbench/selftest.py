"""Self-test of the benchmark.

Run from the root of a checkout:

    python3 perfbench/selftest.py

It checks BENCHMARK.json against the limits of its format, runs every
workload at tiny dims (``run.py --tiny``) with and without tracing, and
asserts that each run is correct and emits every metric BENCHMARK.json
names, with its unit. It also checks that a directory holding only
BENCHMARK.json and perfbench/ makes the benchmark exit non-zero without
printing a result. Exits 1 on the first failure.
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


class SelfTestError(Exception):
    pass


def check(condition: bool, message: str) -> None:
    if not condition:
        raise SelfTestError(message)


def check_spec(spec: dict) -> None:
    check(set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"},
          f"unexpected BENCHMARK.json keys {sorted(spec)}")
    check(isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60, "run_seconds out of range")
    check(2 <= len(spec["workloads"]) <= 8, "need 2 to 8 workloads")
    names = [w["name"] for w in spec["workloads"]]
    for w in spec["workloads"]:
        check(set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"], f"bad workload {w}")
    bounds = {}
    for kind, keys in (("end_to_end", {"name", "unit", "better", "bound"}), ("per_layer", {"name", "unit", "better"})):
        for m in spec[kind]:
            check(set(m) == keys, f"{kind} entry {m} must have keys {sorted(keys)}")
            check(m["better"] in ("higher", "lower"), f"{m['name']}: better must be higher or lower")
            check(UNIT.fullmatch(m["unit"]) is not None, f"{m['name']}: bad unit {m['unit']!r}")
            names.append(m["name"])
            if kind == "end_to_end":
                check(0 < m["bound"] <= 0.25, f"{m['name']}: bound must be in (0, 0.25]")
                bounds[m["name"]] = m["bound"]
    for name in names:
        check(NAME.fullmatch(name) is not None, f"bad name {name!r}")
    check(len(names) == len(set(names)), "names must be unique")
    check("setup_s" in bounds and bounds["setup_s"] == max(bounds.values()), "setup_s needs the largest bound")


def run_bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    argv = [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
            "--seed", "7", "--seconds", "1", "--trace", str(trace), "--tiny"]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=180)


def check_run(spec: dict, workload: str, trace: int) -> None:
    done = run_bench(workload, trace)
    where = f"{workload} --trace {trace}"
    check(done.returncode == 0, f"{where}: exit {done.returncode}\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    check(set(result) == RESULT_KEYS, f"{where}: result keys {sorted(result)}")
    check(result["correct"] is True and result["failed"] == 0, f"{where}: not correct\n{done.stderr}")
    check(isinstance(result["attempted"], int) and result["attempted"] >= 1, f"{where}: bad attempted")
    expected = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    emitted = result["metrics"]
    check(set(emitted) == set(expected), f"{where}: metrics differ: {sorted(set(emitted) ^ set(expected))}")
    for name, entry in emitted.items():
        check(entry["unit"] == expected[name], f"{where}: {name} has unit {entry['unit']!r}")
        value = entry["value"]
        check(isinstance(value, (int, float)) and math.isfinite(value), f"{where}: {name} = {value!r}")
    print(f"ok   {where}: {len(emitted)} metrics")


def check_bare_directory() -> None:
    bare = ROOT / ".bench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH_DIR, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        done = run_bench("long", 0, cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    check(done.returncode != 0, "benchmark exited 0 without the program's sources")
    check(not done.stdout.strip(), f"benchmark printed a result without the program's sources: {done.stdout!r}")
    print(f"ok   bare directory: exit {done.returncode}")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    try:
        check_spec(spec)
        print("ok   BENCHMARK.json")
        for workload in [w["name"] for w in spec["workloads"]]:
            for trace in (0, 1):
                check_run(spec, workload, trace)
        check_bare_directory()
    except SelfTestError as exc:
        print(f"FAIL {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
