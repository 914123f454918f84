"""Alternating pairs of benchmark runs: a base revision against this checkout.

Usage, from anywhere inside a git checkout:

    python3 tools/pairs.py --rev HEAD~1 --workloads long,sweep,mid --pairs 10 --seconds 30 --out BENCH.json

The base side is ``git archive REV``, unpacked under the git-ignored
``.bench_work/pairs/``; the change side is this checkout's working tree.
Each run is ``python3 perfbench/run.py --workload W --seconds S --trace 0``
(plus ``--tiny``) in a fresh process in its own tree, with a timeout. Each
pair runs both sides once, and the side that runs first alternates from
pair to pair, so a slow phase of the host falls on both sides alike.

For every workload and every end-to-end metric of BENCHMARK.json it prints
and writes each side's median, q1 and q3, and how many pairs the change won
under the metric's ``better`` direction. Exits 1 if any run reads
``correct: false``, counts a failed operation or ends in a line that is not
the benchmark's result object; its output is still written.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_work" / "pairs"
SIDES = ("base", "change")


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True, text=True).stdout.strip()


def unpack(rev: str, dest: Path) -> None:
    """``git archive rev`` extracted into ``dest``."""
    with tempfile.TemporaryFile() as archive:
        subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT, check=True, stdout=archive)
        archive.seek(0)
        with tarfile.open(fileobj=archive) as tar:
            # the extraction filters are missing before Python 3.10.12 and 3.11.4
            tar.extractall(dest, **({"filter": "data"} if hasattr(tarfile, "data_filter") else {}))


def run_once(tree: Path, workload: str, seconds: float, tiny: bool) -> tuple[dict | None, str]:
    """One benchmark run in ``tree``: its result object, or None and the reason it has none."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seconds", str(seconds), "--trace", "0"]
    if tiny:
        argv.append("--tiny")
    try:
        done = subprocess.run(argv, cwd=tree, capture_output=True, text=True, timeout=10 * seconds + 300)
    except subprocess.TimeoutExpired:
        return None, "timed out"
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        metrics = {name: float(entry["value"]) for name, entry in result["metrics"].items()}
    except (IndexError, ValueError, KeyError, TypeError):
        return None, f"exit {done.returncode}, malformed last line; stderr: {done.stderr.strip()[-300:]}"
    if result.get("correct") is not True or result.get("failed") != 0:
        return None, f"correct {result.get('correct')!r}, failed {result.get('failed')!r}"
    return metrics, ""


def quartiles(values: list[float]) -> dict[str, float]:
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarize(runs: list[dict], spec: dict) -> dict:
    """Per metric: each side's quartiles and the pairs the change won."""
    summary = {}
    for metric in spec["end_to_end"]:
        name, sign = metric["name"], 1 if metric["better"] == "higher" else -1
        values = {side: [run[side][name] for run in runs] for side in SIDES}
        wins = sum(sign * (c - b) > 0 for b, c in zip(values["base"], values["change"]))
        summary[name] = {
            "unit": metric["unit"],
            "better": metric["better"],
            **{side: quartiles(values[side]) for side in SIDES},
            "change_wins": wins,
            "pairs": len(runs),
        }
    return summary


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--rev", required=True, help="the base revision")
    parser.add_argument("--workloads", default="long,sweep,mid", help="comma-separated perfbench workloads")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=30.0, help="perfbench --seconds of each run")
    parser.add_argument("--tiny", action="store_true", help="perfbench's shrunken dims")
    parser.add_argument("--out", required=True, type=Path, help="where the JSON record goes")
    args = parser.parse_args(argv)
    args.workloads = [w for w in args.workloads.split(",") if w]
    if not args.workloads or args.pairs < 1 or not args.seconds > 0:
        parser.error("need at least one workload, --pairs >= 1 and --seconds > 0")
    return args


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    base_commit = git("rev-parse", "--verify", f"{args.rev}^{{commit}}")
    base_tree = WORK / f"{base_commit[:12]}-{os.getpid()}"
    shutil.rmtree(base_tree, ignore_errors=True)
    base_tree.mkdir(parents=True)
    trees = {"base": base_tree, "change": ROOT}
    record = {
        "base": {"rev": args.rev, "commit": base_commit},
        # dirty: a tracked file differs from HEAD, so the commit does not name the measured tree
        "change": {"commit": git("rev-parse", "HEAD"), "dirty": bool(git("status", "--porcelain", "-uno"))},
        "pairs": args.pairs,
        "seconds": args.seconds,
        "tiny": args.tiny,
        "workloads": {},
    }
    problems = []
    try:
        unpack(base_commit, base_tree)
        for workload in args.workloads:
            runs = []
            for pair in range(args.pairs):
                order = SIDES if pair % 2 == 0 else SIDES[::-1]
                run = {"first": order[0]}
                for side in order:
                    run[side], reason = run_once(trees[side], workload, args.seconds, args.tiny)
                    if reason:
                        problems.append(f"{workload} pair {pair} {side}: {reason}")
                        print(f"FAIL {problems[-1]}", file=sys.stderr)
                if run["base"] is not None and run["change"] is not None:
                    runs.append(run)
                    print(f"{workload} pair {pair}: report_s base {run['base']['report_s']:.4f} "
                          f"change {run['change']['report_s']:.4f} ({order[0]} first)", flush=True)
            record["workloads"][workload] = {"runs": runs, "summary": summarize(runs, spec) if runs else {}}
    finally:
        shutil.rmtree(base_tree, ignore_errors=True)

    record["problems"] = problems
    args.out.write_text(json.dumps(record, indent=2) + "\n")
    for workload, entry in record["workloads"].items():
        for name, s in entry["summary"].items():
            print(f"{workload:6} {name:24} base {s['base']['median']:.6g} [{s['base']['q1']:.6g}, "
                  f"{s['base']['q3']:.6g}]  change {s['change']['median']:.6g} [{s['change']['q1']:.6g}, "
                  f"{s['change']['q3']:.6g}] {s['unit']}  change won {s['change_wins']} of {s['pairs']}")
    print(f"wrote {args.out}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
