"""mm3nlos benchmark: end-to-end and per-layer metrics of three workloads.

Run from the root of a checkout:

    python3 bench/run.py --workload mc-32x32-best --seed 1 --seconds 35 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 35 --trace 1

Workloads (see README.md for why each was chosen): ``mc-32x32-best``,
``mc-8x8-aux-ftm`` and ``track``; ``all`` runs the three in turn.  Each
run measures the workload untraced for ``--seconds`` of timed wall time,
and between its steps times fresh processes up to their first op
(``probe.py``).  A gauge (``gauge.py``) samples the host's speed around
every step and probe; the gated times are in reference seconds, the
wall times scaled by that speed, and the wall times are printed too.  With
``--trace 1`` the untraced loop measures half of that, and a second,
traced loop replays the same inputs in step with it, recording spans
around every call into the package; it must write the same bytes.

The report lists every metric by name and unit together with the Python,
numpy and BLAS versions and the CPU count.  Its last line is one JSON
object with the keys correct, attempted, failed and metrics: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  Files go to ``.bench_out/`` in the checkout.
"""

import env  # noqa: I001  (first: pins BLAS threads before numpy is imported)

import argparse
import json
import os
import platform
import resource
import select
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import workloads as wl
from gauge import Gauge
from spans import Tracer

PROBE_TIMEOUT_S = 120
#: Seconds the gauge samples the host's speed before and after each set-up probe.
PROBE_GAUGE_S = 0.1
OUT = env.ROOT / ".bench_out"

class BenchError(Exception):
    """The benchmark itself could not measure (not a program error)."""


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_text = f"{blas['name']} {blas['version']}"
    except (AttributeError, KeyError, TypeError):
        blas_text = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_text,
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "threads": {var: os.environ[var] for var in env.THREAD_VARS},
    }


def setup_probe(workload: str, seed: int, outdir: Path, gauge: Gauge):
    """A function timing one fresh process from spawn to its first op being
    ready, in wall seconds; gauge samples the host's speed around it."""
    outdir.mkdir(parents=True, exist_ok=True)
    args = [sys.executable, str(Path(__file__).with_name("probe.py"))]
    if workload in wl.MC:
        args += ["sweep", *wl.MC[workload].argv(seed, 0, outdir / "probe.csv")]
    else:
        args += ["track"]

    def probe() -> float:
        gauge.speed(PROBE_GAUGE_S)
        start = time.perf_counter()
        with subprocess.Popen(args, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
            readable, _, _ = select.select([proc.stdout], [], [], PROBE_TIMEOUT_S)
            line = proc.stdout.readline() if readable else b""
            elapsed = time.perf_counter() - start
            try:
                _, err = proc.communicate(timeout=PROBE_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                proc.kill()
                _, err = proc.communicate()
        if line != b"ready\n" or proc.returncode != 0:
            raise BenchError(f"set-up probe failed (exit {proc.returncode}): {err.decode()[-800:]}")
        gauge.speed(PROBE_GAUGE_S)
        return elapsed

    return probe


def end_to_end(res: wl.Outcome, setup_times: list[float], setup_gauge: Gauge) -> dict[str, tuple[float, str]]:
    """The gated metrics.  Times are in reference seconds (gauge.py), so the
    host's swings in speed do not move them; setup_s keeps the unit s.
    Set-up takes the median host speed around all its probes: single
    samples around a process that short scatter more than the host does."""
    ref_ms = np.asarray(res.ref_latencies_s) * 1e3
    setup_s = statistics.median(setup_times) * statistics.median(setup_gauge.samples)
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_ref_s": (res.attempted / res.ref_s, "1/ref_s"),
        "op_ref_ms_p50": (float(np.percentile(ref_ms, 50)), "ref_ms"),
        "op_ref_ms_p90": (float(np.percentile(ref_ms, 90)), "ref_ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def extras(
    res: wl.Outcome, workload: str, gauge: Gauge, setup_walls: list[float], setup_gauge: Gauge
) -> dict[str, tuple[float, str]]:
    """Reported alongside the end-to-end metrics but not gated: the wall-time
    forms of the time metrics, which move with the host's speed, and counts
    that can be 0 or do not apply to every workload."""
    lat_ms = np.asarray(res.latencies_s) * 1e3
    loc_fail = sum(n for status, n in res.statuses.items() if status not in ("ok", "error"))
    out = {
        "setup_wall_s": (statistics.median(setup_walls), "s"),
        "setup_host_speed": (statistics.median(setup_gauge.samples), "x (scalar gauge)"),
        "ops_per_s": (res.attempted / res.timed_s, "1/s"),
        "op_ms_p50": (float(np.percentile(lat_ms, 50)), "ms"),
        "op_ms_p90": (float(np.percentile(lat_ms, 90)), "ms"),
        "host_speed": (statistics.median(gauge.samples), f"x ({gauge.kernel} gauge)"),
        "ops": (res.attempted, "count"),
        "timed_s": (res.timed_s, "s"),
        "error_share": (res.failed / res.attempted, "share"),
        "loc_fail_share": (loc_fail / res.attempted, "share"),
    }
    if len(lat_ms) >= 1000:
        out["op_ref_ms_p99"] = (float(np.percentile(res.ref_latencies_s, 99)) * 1e3, "ref_ms")
    if workload in wl.MC and res.first_errors_m:
        # Over the first calls only, so a fixed seed repeats it exactly.
        out["mean_error_m"] = (float(np.mean(res.first_errors_m)), "m")
    return out


def per_layer(tracer: Tracer, traced: wl.Outcome, untraced: wl.Outcome) -> dict[str, tuple[float, str]]:
    spans, counts = tracer.summary(), tracer.counts
    wall = sum(row["root_s"] for row in spans.values())

    def calls(name: str) -> int:
        return spans[name]["calls"] if name in spans else 0

    def self_per_call(name: str, scale: float) -> float:
        return spans[name]["self_s"] / spans[name]["calls"] * scale if name in spans else 0.0

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    main_s = spans.get("cli.main", {}).get("total_s", 0.0)
    experiment_s = spans.get("sim.run_experiment", {}).get("total_s", 0.0)
    solves = calls("geom.solve")
    return {
        "channel.beam_sweep.ms_per_call": (self_per_call("channel.beam_sweep", 1e3), "ms/call"),
        "channel.beam_sweep.calls": (calls("channel.beam_sweep"), "count"),
        # Computed from the codebooks passed in: len(tx) x len(rx) cells.
        "channel.beam_sweep.cells_per_call": (
            ratio(counts["channel.beam_sweep.cells"], calls("channel.beam_sweep")), "cells/call"),
        "channel.build_codebook.ms": (self_per_call("channel.build_codebook", 1e3), "ms/call"),
        "channel.aux_refine.ms_per_call": (self_per_call("channel.aux_refine", 1e3), "ms/call"),
        "channel.aux_refine.calls": (calls("channel.aux_refine"), "count"),
        "sim.sample.ms_per_scene": (self_per_call("sim.sample", 1e3), "ms/scene"),
        # One rejection attempt draws two 3-D points: six uniform calls.
        "sim.sample.attempts_per_scene": (
            ratio(counts["sim.sample.uniform_calls"] / 6.0, calls("sim.sample")), "attempts/scene"),
        "sim.sample.calls": (calls("sim.sample"), "count"),
        "sim.run_trial.self_ms": (self_per_call("sim.run_trial", 1e3), "ms/call"),
        "measure.select.us_per_call": (self_per_call("measure.select", 1e6), "us/call"),
        "measure.select.table_len_mean": (
            ratio(counts["measure.select.table_len"], calls("measure.select")), "records"),
        "measure.table_add.us_per_call": (self_per_call("measure.table_add", 1e6), "us/call"),
        "measure.ftm.us_per_call": (self_per_call("measure.ftm", 1e6), "us/call"),
        "geom.solve.us_per_call": (self_per_call("geom.solve", 1e6), "us/call"),
        "geom.solve.calls": (solves, "count"),
        "geom.solve.raise_share": (ratio(counts["geom.solve.raises"], solves), "share"),
        **{
            f"geom.scene_code.{code}.share": (ratio(counts[f"geom.scene_code.{code}"], solves), "share")
            for code in range(6)
        },
        "geom.localize.us_per_call": (self_per_call("geom.localize", 1e6), "us/call"),
        "cli.overhead_ms": (ratio((main_s - experiment_s) * 1e3, calls("cli.main")), "ms/call"),
        **{f"{name}.share": (ratio(spans[name]["self_s"], wall) if name in spans else 0.0, "share") for name in wl.SPANS},
        "trace.overhead_share": (
            1.0 - (traced.attempted / traced.timed_s) / (untraced.attempted / untraced.timed_s), "share"),
    }


def print_block(title: str, metrics: dict[str, tuple[float, str]]) -> None:
    print(title)
    for name, (value, unit) in metrics.items():
        print(f"  {name:<36} {value:>14.6g} {unit}")


def run_workload(pkg, workload: str, seed: int, seconds: float, trace: bool) -> None:
    outdir = OUT / f"{workload}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(outdir, ignore_errors=True)
    outdir.mkdir(parents=True)
    info = environment()
    if workload == "track":
        inputs = wl.track_inputs(pkg, seed)

        def loop(out, tracer=None):
            return wl.Track(pkg, inputs, out, tracer)
    else:

        def loop(out, tracer=None):
            return wl.Sweep(pkg, wl.MC[workload], seed, out, tracer)

    # Start-up is interpreter work, whatever the workload's hot path.
    setup_gauge = Gauge("scalar")
    probe = setup_probe(workload, seed, outdir / "probe", setup_gauge)
    gauge = Gauge(wl.GAUGE_KERNEL[workload])
    if trace:
        tracer = Tracer()
        untraced, traced, setup_times = wl.run_paired(
            loop(outdir / "untraced"), loop(outdir / "traced", tracer), seconds, probe, gauge
        )
        tracer.write(outdir / "traced" / "spans.csv")
    else:
        untraced, setup_times = wl.run(loop(outdir / "untraced"), seconds, probe, gauge)
    e2e = end_to_end(untraced, setup_times, setup_gauge)
    report = {
        "workload": workload, "seed": seed, "env": info,
        "setup_wall_s_samples": setup_times, "setup_speed_samples": setup_gauge.samples,
        "host_speed_samples": gauge.samples,
    }
    report["end_to_end"] = {**e2e, **extras(untraced, workload, gauge, setup_times, setup_gauge)}
    problems = list(untraced.problems)
    attempted, failed = untraced.attempted, untraced.failed
    if trace:
        problems += wl.check_counting_proxy(pkg.sim, seed)
        problems += traced.problems
        if traced.outputs != untraced.outputs:
            problems.append("the traced run wrote other CSV bytes than the untraced run")
        attempted, failed = attempted + traced.attempted, failed + traced.failed
        report["per_layer"] = per_layer(tracer, traced, untraced)
    report["problems"] = problems
    (outdir / "report.json").write_text(json.dumps(report, indent=2) + "\n")

    print(f"workload {workload}  seed {seed}  trace {int(trace)}  units {untraced.units}")
    print("env " + json.dumps(info, sort_keys=True))
    print_block("end-to-end (untraced run)", report["end_to_end"])
    if trace:
        print_block("per-layer (traced run, self time)", report["per_layer"])
        shares = sum(v for k, (v, _) in report["per_layer"].items() if k[:-6] in wl.SPANS and k.endswith(".share"))
        print(f"  span self-time shares add up to {shares:.6f}")
    for problem in problems[:10]:
        print(f"problem: {problem}", file=sys.stderr)
    metrics = report["per_layer"] if trace else e2e
    print(json.dumps({
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    sys.stdout.flush()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="mm3nlos benchmark")
    parser.add_argument("--workload", required=True, choices=(*wl.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        pkg = env.load_package()
        for workload in wl.WORKLOADS if args.workload == "all" else (args.workload,):
            run_workload(pkg, workload, args.seed, args.seconds, bool(args.trace))
    except (env.MissingSources, BenchError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
