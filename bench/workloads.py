"""The benchmark's workloads: inputs, timed loops and output checks.

An op is one trial in the ``mc-*`` workloads and one localized fix in
``track``.  A workload is a loop object whose step() does one unit of
work: one cli.main call for a sweep, TRACK_BLOCK epochs for track.  The
untraced loop steps until it has measured ``seconds`` of timed wall time
and at least MIN_OPS ops.  In a traced run, a traced loop replays the
same inputs one step after each untraced step, so both see the same
machine state and their outputs can be compared byte for byte.
"""

from __future__ import annotations

import csv
import hashlib
import io
import math
import time
import traceback
from array import array
from collections import Counter
from contextlib import redirect_stderr
from dataclasses import dataclass, field, replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from gauge import Gauge
from spans import CountingRng, Patches, Tracer

MIN_OPS = 100
SETUP_PROBES = 7
#: Share of each step's wall time the gauge runs for, split before and after it.
GAUGE_SHARE = 0.1
GAUGE_FIRST_STEP_S = 0.5

#: Trial statuses run_trial can report; anything else is a program error.
STATUSES = frozenset({"ok", "no_history", "unsolvable", "inconsistent_geometry", "degenerate_projection"})

#: Scenes sampled for track; two reflectors each, so 40 reflectors cycle
#: through a table that keeps 32 records and records get evicted.
TRACK_SCENES = 20
TRACK_PLANES = ("yoz", "xoy")
TRACK_SNR_CYCLE = 1009
TRACK_BLOCK = 200
FIX_TOL_M = 1e-6


#: Span names the traced run records, in report order; their self-time
#: shares add up to one.
SPANS = (
    "cli.main",
    "sim.run_experiment",
    "sim.sample",
    "sim.run_trial",
    "channel.build_codebook",
    "channel.beam_sweep",
    "channel.aux_refine",
    "measure.ftm",
    "measure.table_add",
    "measure.select",
    "geom.solve",
    "geom.localize",
    "bench.op",
)


@dataclass(frozen=True)
class McSpec:
    """A sweep run through cli.main in calls of chunk_trials trials each."""

    command: str
    flags: tuple[str, ...]
    grid_points: int
    chunk_trials: int

    @property
    def ops_per_call(self) -> int:
        return self.grid_points * self.chunk_trials

    def argv(self, seed: int, call: int, out: Path) -> list[str]:
        return [
            self.command, *self.flags,
            "--trials", str(self.chunk_trials),
            "--seed", str(seed * 10_000 + call),
            "--out", str(out), "--raw",
        ]


MC = {
    # Acceptance criterion 3's headline point; beam_sweep dominates.
    "mc-32x32-best": McSpec(
        "sweep-snr",
        ("--tx-upa", "32x32", "--rx-upa", "32x32", "--beam", "best", "--snr-db", "20", "--ftm-sigma-m", "0.01"),
        grid_points=1,
        chunk_trials=8,
    ),
    # The README's refined-mode command over its 5-point sigma grid;
    # the scene sampler and aux_beam_refine dominate.
    "mc-8x8-aux-ftm": McSpec(
        "sweep-ftm", ("--beam", "aux", "--tx-upa", "8x8", "--rx-upa", "8x8"), grid_points=5, chunk_trials=10
    ),
}
WORKLOADS = (*MC, "track")

#: The gauge kernel doing the same kind of work as each workload's hot
#: path: the beam sweep's large arrays, or the scalar numpy calls of the
#: sampler, the aux refinement and the localizer.
GAUGE_KERNEL = {"mc-32x32-best": "array", "mc-8x8-aux-ftm": "scalar", "track": "scalar"}


@dataclass
class Outcome:
    """What a loop did and how it checked out."""

    units: int = 0
    timed_s: float = 0.0
    latencies_s: array = field(default_factory=lambda: array("d"))
    ref_s: float = 0.0  # timed_s in reference seconds (gauge.py)
    ref_latencies_s: array = field(default_factory=lambda: array("d"))
    statuses: Counter = field(default_factory=Counter)
    attempted: int = 0
    failed: int = 0
    first_errors_m: list[float] = field(default_factory=list)
    outputs: dict[str, str] = field(default_factory=dict)  # file name -> SHA-256
    problems: list[str] = field(default_factory=list)

    def measured_enough(self, seconds: float) -> bool:
        return self.timed_s >= seconds and self.attempted >= MIN_OPS


def _drive(res: Outcome, step, seconds: float, probe, gauge: Gauge) -> list[float]:
    """Step until res has measured enough, with SETUP_PROBES set-up probes
    spread over the run so their median sees the machine the ops saw.

    The gauge samples the host's speed right before and right after each
    step, for GAUGE_SHARE of the step's wall time in all; their mean
    turns the step's timed wall time and op latencies into reference time.
    """
    setup_s = []
    step_s = GAUGE_FIRST_STEP_S
    while not res.measured_enough(seconds):
        if len(setup_s) < SETUP_PROBES and res.timed_s >= len(setup_s) * seconds / SETUP_PROBES:
            setup_s.append(probe())
        timed_s, ops = res.timed_s, len(res.latencies_s)
        before = gauge.speed(GAUGE_SHARE / 2 * step_s)
        start = time.perf_counter()
        step()
        step_s = time.perf_counter() - start
        speed = (before + gauge.speed(GAUGE_SHARE / 2 * step_s)) / 2
        res.ref_s += (res.timed_s - timed_s) * speed
        res.ref_latencies_s.extend(lat * speed for lat in res.latencies_s[ops:])
    return setup_s + [probe() for _ in range(SETUP_PROBES - len(setup_s))]


def run(loop, seconds: float, probe, gauge: Gauge) -> tuple[Outcome, list[float]]:
    setup_s = _drive(loop.res, loop.step, seconds, probe, gauge)
    return loop.finish(), setup_s


def run_paired(plain, traced, seconds: float, probe, gauge: Gauge) -> tuple[Outcome, Outcome, list[float]]:
    """Step both loops in turn, so slow drift of the machine hits both alike.

    Each measures half of ``seconds``: a traced run takes as long as an
    untraced one.  Reference time is kept for the untraced loop only.
    """

    def both() -> None:
        plain.step()
        traced.step()

    setup_s = _drive(plain.res, both, seconds / 2, probe, gauge)
    return plain.finish(), traced.finish(), setup_s


class OpClock(Patches):
    """Marks when a sweep's first op is ready and when each trial returns.

    The first op is ready when run_experiment asks for its first scene,
    after config parsing, the manifest and the codebooks.  One op's
    latency is the time from one run_trial return to the next, so it
    includes that trial's scene sampling.
    """

    def __init__(self, sim) -> None:
        super().__init__()
        self.ready: float | None = None
        self.returns: list[float] = []
        clock = time.perf_counter
        make_sampler, run_trial = sim.make_scenario_sampler, sim.run_trial

        def marked_sampler(cfg):
            sample = make_sampler(cfg)

            def marked(rng):
                if self.ready is None:
                    self.ready = clock()
                return sample(rng)

            return marked

        def marked_trial(*args, **kwargs):
            result = run_trial(*args, **kwargs)
            self.returns.append(clock())
            return result

        self.replace(sim, "make_scenario_sampler", marked_sampler)
        self.replace(sim, "run_trial", marked_trial)

    def latencies(self) -> list[float]:
        if self.ready is None:
            return []
        marks = [self.ready, *self.returns]
        return [b - a for a, b in zip(marks, marks[1:])]


def trace_layers(tracer: Tracer, pkg: SimpleNamespace, caller) -> None:
    """Trace the package functions that caller (a module or namespace) calls by name."""
    counts = tracer.counts

    def cells(args, result, error):
        counts["channel.beam_sweep.cells"] += len(args[1]) * len(args[2])

    def table_len(args, result, error):
        counts["measure.select.table_len"] += len(args[0])

    def scene(args, result, error):
        if error is None:
            counts[f"geom.scene_code.{result.scene.code}"] += 1
            return
        counts["geom.solve.raises"] += 1
        if isinstance(error, pkg.geom.Unsolvable):
            counts["geom.scene_code.0"] += 1

    for attr, name, observe in (
        ("build_codebook", "channel.build_codebook", None),
        ("beam_sweep", "channel.beam_sweep", cells),
        ("aux_beam_refine", "channel.aux_refine", None),
        ("ftm_distance", "measure.ftm", None),
        ("select_historical", "measure.select", table_len),
        ("solve", "geom.solve", scene),
        ("localize", "geom.localize", None),
    ):
        if hasattr(caller, attr):
            tracer.patch(caller, attr, name, observe)
    tracer.patch(pkg.measure.MeasurementTable, "add", "measure.table_add")


def trace_sweep(tracer: Tracer, pkg: SimpleNamespace) -> None:
    """Spans for everything cli.main reaches; sampler attempts counted by proxy."""
    sim = pkg.sim
    tracer.patch(pkg.cli, "run_experiment", "sim.run_experiment")
    tracer.patch(sim, "run_trial", "sim.run_trial")
    trace_layers(tracer, pkg, sim)
    make_sampler = sim.make_scenario_sampler

    def counted_sampler(cfg):
        sample = make_sampler(cfg)

        def counted(rng):
            proxy = CountingRng(rng)
            try:
                return sample(proxy)
            finally:
                tracer.counts["sim.sample.uniform_calls"] += proxy.uniform_calls

        return tracer.wrap("sim.sample", counted)

    tracer.replace(sim, "make_scenario_sampler", counted_sampler)


def check_counting_proxy(sim: SimpleNamespace, seed: int, scenes: int = 8) -> list[str]:
    """The counting proxy must yield the scenes of the bare generator."""
    sample = sim.make_scenario_sampler(sim.ExperimentConfig())
    problems = []
    for i in range(scenes):
        bare = sample(np.random.default_rng((seed, i)))
        proxy = CountingRng(np.random.default_rng((seed, i)))
        counted = sample(proxy)
        same = all(
            np.array_equal(getattr(bare, f), getattr(counted, f)) for f in ("target1_pos", "target2_pos")
        )
        if not same or proxy.uniform_calls == 0 or proxy.uniform_calls % 6:
            problems.append(f"counting proxy changed scene {i} or miscounted ({proxy.uniform_calls} uniform calls)")
    return problems


def _raw_path(out: Path) -> Path:
    return out.with_name(out.stem + ".raw.csv")


def _read_csv(path: Path) -> list[dict[str, str]]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def check_sweep(spec: McSpec, out: Path, trials_returned: int) -> tuple[Counter, list[float], list[str]]:
    """Parse a sweep's curve and raw CSVs back and check them against each other.

    Returns the per-trial status counts, the errors of ok trials in file
    order, and the problems found.
    """
    raw_path = _raw_path(out)
    curve, raw = _read_csv(out), _read_csv(raw_path)
    problems = []
    if len(curve) != spec.grid_points:
        problems.append(f"{out.name}: {len(curve)} curve rows, expected {spec.grid_points}")
    if len(raw) != spec.ops_per_call or trials_returned != spec.ops_per_call:
        problems.append(
            f"{raw_path.name}: {len(raw)} raw rows and {trials_returned} trials run, expected {spec.ops_per_call}"
        )
    statuses: Counter = Counter(r["status"] for r in raw)
    if set(statuses) - STATUSES:
        problems.append(f"{raw_path.name}: unknown statuses {sorted(set(statuses) - STATUSES)}")
    ok_errors = []
    for r in raw:
        err = float(r["error_m"])
        if (r["status"] == "ok") != math.isfinite(err):
            problems.append(f"{raw_path.name}: trial {r['trial']} has status {r['status']} and error {err}")
        elif r["status"] == "ok":
            ok_errors.append(err)
    for row in curve:
        n_ok, n_fail, trials = (int(row[k]) for k in ("n_success", "n_fail", "trials"))
        if n_ok + n_fail != trials or trials != spec.chunk_trials:
            problems.append(f"{out.name}: n_success {n_ok} + n_fail {n_fail} != trials {trials}")
        point = [
            float(r["error_m"]) for r in raw
            if r["ftm_sigma_m"] == row["ftm_sigma_m"] and r["snr_db"] == row["snr_db"] and r["status"] == "ok"
        ]
        if len(point) != n_ok or (point and not math.isclose(float(np.mean(point)), float(row["mean_error_m"]), rel_tol=1e-9)):
            problems.append(f"{out.name}: row sigma={row['ftm_sigma_m']} disagrees with its raw trials")
    return statuses, ok_errors, problems


class Sweep:
    """A sweep run through cli.main, one call of spec.chunk_trials trials per step.

    Timed wall time runs from a call's first op being ready to its return.
    """

    def __init__(self, pkg: SimpleNamespace, spec: McSpec, seed: int, outdir: Path, tracer: Tracer | None = None):
        self.pkg, self.spec, self.seed, self.outdir, self.tracer = pkg, spec, seed, outdir, tracer
        self.res = Outcome()
        outdir.mkdir(parents=True, exist_ok=True)

    def step(self) -> None:
        spec, res = self.spec, self.res
        out = self.outdir / f"call{res.units}.csv"
        clock = OpClock(self.pkg.sim)
        main = self.pkg.cli.main
        if self.tracer is not None:
            trace_sweep(self.tracer, self.pkg)
            main = self.tracer.wrap("cli.main", main)
        log = io.StringIO()
        start = time.perf_counter()
        try:
            with redirect_stderr(log):
                code = main(spec.argv(self.seed, res.units, out))
        except Exception:
            code, log = -1, io.StringIO(traceback.format_exc())
        finally:
            end = time.perf_counter()
            if self.tracer is not None:
                self.tracer.restore()
            clock.restore()
        res.units += 1
        res.attempted += spec.ops_per_call
        res.timed_s += end - (clock.ready if clock.ready is not None else start)
        res.latencies_s.extend(clock.latencies())
        if code != 0:
            res.failed += spec.ops_per_call
            res.problems.append(f"cli.main returned {code}: {log.getvalue().strip()[-500:]}")
            return
        try:
            statuses, ok_errors, problems = check_sweep(spec, out, len(clock.returns))
        except (OSError, KeyError, ValueError) as exc:
            statuses, ok_errors, problems = Counter(), [], [f"{out.name}: unreadable output: {exc!r}"]
        if problems:
            res.failed += spec.ops_per_call
            res.problems += problems
            return
        res.statuses += statuses
        if res.units <= math.ceil(MIN_OPS / spec.ops_per_call):
            # A fixed number of calls, so a fixed seed repeats the mean error exactly.
            res.first_errors_m += ok_errors
        for path in (out, _raw_path(out)):
            res.outputs[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()

    def finish(self) -> Outcome:
        return self.res


@dataclass
class TrackInputs:
    truths: list[np.ndarray]
    paths: list  # noiseless PathObservation per reflector
    snr_db: np.ndarray
    sta_pos: np.ndarray


def track_inputs(pkg: SimpleNamespace, seed: int) -> TrackInputs:
    """Reflectors from the repo's scene sampler and their exact paths."""
    sim = pkg.sim
    cfg = sim.ExperimentConfig()
    sample = sim.make_scenario_sampler(cfg)
    rng = np.random.default_rng(seed)
    truths, paths = [], []
    for _ in range(TRACK_SCENES):
        scene = sample(rng)
        path1, path2 = sim.synthesize_observations(scene)
        truths += [scene.target1_pos, scene.target2_pos]
        paths += [path1, path2]
    snr = rng.uniform(0.0, 30.0, size=TRACK_SNR_CYCLE)
    return TrackInputs(truths, paths, snr, np.asarray(cfg.sta_pos, dtype=float))


def track_state(pkg: SimpleNamespace) -> tuple[list, object]:
    """What a streaming localizer holds before its first fix."""
    planes = [pkg.geom.ProjectionPlane.from_name(name) for name in TRACK_PLANES]
    return planes, pkg.measure.MeasurementTable()


class Track:
    """A streaming localizer observing the reflectors round-robin.

    Each epoch adds the newest path to the table, then selects a partner,
    solves and localizes on every plane; one epoch is one op.
    """

    def __init__(self, pkg: SimpleNamespace, inputs: TrackInputs, outdir: Path, tracer: Tracer | None = None):
        geom, measure = pkg.geom, pkg.measure
        self.pkg, self.inputs, self.tracer = pkg, inputs, tracer
        self.planes, self.table = track_state(pkg)
        # The namespace the fixes call through, so tracing can patch it.
        self.lib = SimpleNamespace(
            select_historical=measure.select_historical, solve=geom.solve, localize=geom.localize
        )
        self.classified = {
            measure.NoUsableHistory: "no_history",
            geom.Unsolvable: "unsolvable",
            geom.InconsistentGeometry: "inconsistent_geometry",
            geom.DegenerateProjection: "degenerate_projection",
            geom.GeomError: "geom_error",
        }
        self.expected = tuple(self.classified)
        self.res = Outcome()
        outdir.mkdir(parents=True, exist_ok=True)
        self.path = outdir / "fixes.csv"
        self.path.write_text("")
        self.digest = hashlib.sha256()
        self.lines = ["epoch,plane,status,x,y,z"]

    def fix(self, obs) -> list:
        lib, table, sta = self.lib, self.table, self.inputs.sta_pos
        table.add(obs)
        out = []
        for plane in self.planes:
            try:
                partner = lib.select_historical(table, obs, 1, plane=plane)[0]
                out.append(lib.localize(lib.solve(obs, partner, plane), sta))
            except self.expected as exc:
                out.append(exc)
        return out

    def step(self) -> None:
        fix = self.fix
        if self.tracer is not None:
            trace_layers(self.tracer, self.pkg, self.lib)
            fix = self.tracer.wrap("bench.op", fix)
        try:
            for _ in range(TRACK_BLOCK):
                self._epoch(fix)
        finally:
            if self.tracer is not None:
                self.tracer.restore()
        # Written out per step, so the benchmark's memory does not grow with the op count.
        data = ("\n".join(self.lines) + "\n").encode()
        self.digest.update(data)
        with open(self.path, "ab") as fh:
            fh.write(data)
        self.lines = []

    def _epoch(self, fix) -> None:
        inputs, res = self.inputs, self.res
        epoch, n = res.units, len(inputs.paths)
        obs = replace(
            inputs.paths[epoch % n], snr_db=float(inputs.snr_db[epoch % inputs.snr_db.size]), timestamp=epoch
        )
        start = time.perf_counter()
        try:
            fixes = fix(obs)
        except Exception as exc:
            fixes = [exc] * len(self.planes)
        elapsed = time.perf_counter() - start
        res.units += 1
        res.attempted += 1
        res.timed_s += elapsed
        res.latencies_s.append(elapsed)
        truth = inputs.truths[epoch % n]
        per_plane = [_plane_status(f, truth, self.classified) for f in fixes]
        for plane, f, plane_status in zip(TRACK_PLANES, fixes, per_plane):
            coords = ",".join(repr(float(c)) for c in f) if isinstance(f, np.ndarray) else ",,"
            self.lines.append(f"{epoch},{plane},{plane_status},{coords}")
        status = "error" if "error" in per_plane else "ok" if "ok" in per_plane else per_plane[0]
        res.statuses[status] += 1
        if status == "error":
            res.failed += 1
            if len(res.problems) < 5:
                res.problems.append(f"epoch {epoch}: {fixes!r}")

    def finish(self) -> Outcome:
        self.res.outputs[self.path.name] = self.digest.hexdigest()
        return self.res


def _plane_status(fix, truth: np.ndarray, classified: dict) -> str:
    """ok for a position within FIX_TOL_M of the truth, the reason for a
    classified exception, error for anything else."""
    if isinstance(fix, np.ndarray):
        return "ok" if float(np.linalg.norm(fix - truth)) <= FIX_TOL_M else "error"
    return next((classified[cls] for cls in type(fix).__mro__ if cls in classified), "error")
