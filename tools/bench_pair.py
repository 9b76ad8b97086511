"""Paired benchmark runs of a parent commit against this checkout.

Usage, from the root of the checkout:

    python3 tools/bench_pair.py --parent HEAD~1 --workload mc-8x8-aux-ftm \
        --seed 1 --pairs 10 --seconds 30 --out BENCH_9.json

--workload takes one name or a comma-separated list; the workloads run
one after another, each with all its pairs, against one extraction of
the parent.  The parent commit is extracted with ``git archive`` into a
temporary directory (no worktree, so nothing is left in the
repository's .git), and the change is this checkout's working tree.
Each pair runs
``python3 bench/run.py --workload W --seed S --seconds T --trace X``
once in each tree, the parent first in even pairs and the change first
in odd ones.  The last line bench/run.py prints is one JSON object; its
metrics are kept per run.

The output file holds the environment, the change's line delta under
src/ (added, removed and net, from ``git diff --numstat <parent> --
src``, so tracked files only), and one group per (workload, seed,
trace): the command, every run with its wall seconds, each side's
median wall seconds (what a check of the change costs), and per metric
each side's median and quartiles, the change/parent ratio of medians
and the change's wins, losses and ties over the pairs, judged by the
metric's ``better`` direction in BENCHMARK.json.  Each metric also gets
a verdict: ``claim_rule_met`` (the change wins at least 90% of the pairs
and its median beats the parent's by more than the parent's IQR), and
each end-to-end metric ``beyond_bound`` (the change's median is worse
than the parent's by more than the metric's BENCHMARK.json bound, a
fraction of the parent's median).  One stderr line per group names the
metrics beyond their bounds.  Running again with the same output file
adds or replaces groups and keeps the others.  The temporary tree is
removed on exit.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True, text=True).stdout.strip()


def extract(rev: str, dest: Path) -> None:
    """Write the tree of commit rev into dest."""
    data = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT, check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(data)) as tar:
        tar.extractall(dest, filter="data")


def bench_argv(workload: str, seed: int, seconds: float, trace: int) -> list[str]:
    return [
        "bench/run.py", "--workload", workload, "--seed", str(seed), "--seconds", f"{seconds:g}", "--trace", str(trace)
    ]


def run_bench(tree: Path, argv: list[str]) -> dict:
    """One bench/run.py run in tree: its final JSON line, plus the run's
    wall seconds as ``wall_s``."""
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, *argv], cwd=tree, capture_output=True, text=True)
    wall_s = time.perf_counter() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"bench/run.py failed in {tree} (exit {proc.returncode}): {proc.stderr[-800:]}")
    return {**json.loads(lines[-1]), "wall_s": wall_s}


def src_line_delta(rev: str) -> dict[str, int]:
    """Lines added and removed under src/ from commit rev to the working tree."""
    added = removed = 0
    for line in git("diff", "--numstat", rev, "--", "src").splitlines():
        plus, minus, _ = line.split("\t", 2)
        added += int(plus)
        removed += int(minus)
    return {"added": added, "removed": removed, "net": added - removed}


def metric_specs() -> dict[str, dict]:
    """BENCHMARK.json's metric entries by name: ``better``, and ``bound``
    for the end-to-end ones."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m for m in (*spec["end_to_end"], *spec["per_layer"])}


def spread(values: list[float]) -> dict[str, float]:
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else (values[0],) * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "iqr": q3 - q1}


def summarize(runs: list[dict], specs: dict[str, dict]) -> dict:
    """Per metric: each side's spread, the ratio of medians, the change's
    pairwise record and its verdicts."""
    sides = {side: [r for r in runs if r["side"] == side] for side in ("parent", "change")}
    out = {}
    for name, first in sides["parent"][0]["metrics"].items():
        values = {side: [r["metrics"][name]["value"] for r in rs] for side, rs in sides.items()}
        spec = specs.get(name, {})
        direction = spec.get("better", "")
        record = {"wins": 0, "losses": 0, "ties": 0}
        for p, c in zip(values["parent"], values["change"]):
            if p == c or direction not in ("higher", "lower"):
                record["ties"] += 1
            elif (c > p) == (direction == "higher"):
                record["wins"] += 1
            else:
                record["losses"] += 1
        parent, change = spread(values["parent"]), spread(values["change"])
        # The change's median gain over the parent's, positive when better.
        sign = {"higher": 1.0, "lower": -1.0}.get(direction, 0.0)
        gain = sign * (change["median"] - parent["median"])
        pairs = len(values["change"])
        out[name] = {
            "unit": first["unit"],
            "better": direction,
            "parent": parent,
            "change": change,
            "ratio": change["median"] / parent["median"] if parent["median"] else None,
            **record,
            "claim_rule_met": bool(sign) and record["wins"] >= 0.9 * pairs and gain > parent["iqr"],
        }
        if "bound" in spec:
            out[name]["beyond_bound"] = -gain > spec["bound"] * abs(parent["median"])
    return out


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="commit to compare against (e.g. HEAD~1)")
    parser.add_argument("--workload", required=True, help="workload name, or a comma-separated list")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--description", default=None, help="one line saying what the change does")
    parser.add_argument(
        "--workdir", type=Path, default=None, help="parent tree location, created if missing (default: system temp)"
    )
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")

    workloads = [w.strip() for w in args.workload.split(",") if w.strip()]
    if not workloads:
        parser.error("--workload names no workload")

    parent_sha = git("rev-parse", args.parent)
    if args.workdir is not None:
        args.workdir.mkdir(parents=True, exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="bench_pair-", dir=args.workdir))
    runs: dict[str, list[dict]] = {}
    try:
        extract(parent_sha, tmp)
        trees = {"parent": tmp, "change": ROOT}
        for workload in workloads:
            argv_bench = bench_argv(workload, args.seed, args.seconds, args.trace)
            runs[workload] = []
            for pair in range(args.pairs):
                order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
                for position, side in enumerate(order):
                    result = run_bench(trees[side], argv_bench)
                    runs[workload].append({"pair": pair, "side": side, "position": position, **result})
                    print(
                        f"{workload} pair {pair} {side}: correct={result['correct']} failed={result['failed']}",
                        file=sys.stderr,
                    )
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    doc = json.loads(args.out.read_text()) if args.out.exists() else {}
    head = git("rev-parse", "HEAD")
    dirty = bool(git("status", "--porcelain", "--untracked-files=no"))
    doc.update({
        "parent_commit": parent_sha,
        "change": f"working tree at {head}" + (" with uncommitted changes" if dirty else ""),
        "env": environment(),
        "src_lines": src_line_delta(parent_sha),
    })
    if args.description:
        doc["description"] = args.description
    specs = metric_specs()
    for workload, group in runs.items():
        key = f"{workload} seed {args.seed} trace {args.trace}"
        metrics = summarize(group, specs)
        beyond = sorted(name for name, m in metrics.items() if m.get("beyond_bound"))
        print(f"{key}: beyond bound: {', '.join(beyond) or 'none'}", file=sys.stderr)
        doc.setdefault("groups", {})[key] = {
            "command": "python3 " + " ".join(bench_argv(workload, args.seed, args.seconds, args.trace)),
            "pairs": args.pairs,
            "order": "parent first in even pairs, change first in odd pairs",
            "all_correct": all(r["correct"] for r in group),
            "failed": {side: sum(r["failed"] for r in group if r["side"] == side) for side in ("parent", "change")},
            "metrics": metrics,
            "wall_s_median": {
                side: statistics.median(r["wall_s"] for r in group if r["side"] == side)
                for side in ("parent", "change")
            },
            "runs": group,
        }
    args.out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
