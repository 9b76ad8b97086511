"""Monte Carlo harness: scenes, trials, and error-curve experiments.

A trial drops two reflectors into a box beside the AP/STA baseline,
derives the exact two-path observations, then re-estimates them through
the physical layer: one beam-trained angle set per path (optionally
refined with auxiliary beams) and one noisy range per path.  The
estimated observations go through the measurement table and the
closed-form solver; the trial's score is the Euclidean distance between
the true and estimated reflector-1 positions.  Experiments run grids of
(array size, SNR, ranging noise, beam mode) and aggregate per-point
statistics into CSV-ready rows.

Randomness is split into five named substreams per trial (scenario,
channel, sweep, ftm, and aux for the auxiliary-beam refinement), each
seeded by (seed, trial, stream).  Grid points therefore share scenes,
channel gains, ranging noise and refinement noise, which pairs their
comparisons and pins every output byte for a given seed; a change to
how many draws one stream takes leaves the others alone.  What a trial
draws once and every grid point shares is one Trial record; its
docstring states the reuse contract.  Every grid point takes one path:
it looks up its trial's angle stages (beam training, partner choice and
the solver's angle stage, none of which reads a path length), computed
by the first point of their key, then redraws the two ranges and runs
the solver's range stage.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field, fields, replace
from functools import cached_property
from itertools import islice, product
from typing import Callable, Sequence

import numpy as np

from .channel import (
    AZIMUTH_HALF_SPAN,
    ELEVATION_MAX,
    ELEVATION_MIN,
    ChannelRealization,
    Codebook,
    UpaGeometry,
    aux_beam_refine,
    beam_sweep,
    build_codebook,
    power_db,
)
from .geom import (
    TAU,
    AngleStage,
    DegenerateProjection,
    GeomError,
    InconsistentGeometry,
    PathObservation,
    ProjectionPlane,
    SceneType,
    SphericalAngles,
    Unsolvable,
    angles_from_direction,
    bearing,
    collinear_gap,
    localize,
    solve,
    solve_angles,
    solve_ranges,
)
from .measure import FtmConfig, MeasurementTable, NoUsableHistory, ftm_distance, select_historical

# Substream tags: one independent generator per randomness source.
_STREAM_SCENARIO = 0
_STREAM_CHANNEL = 1
_STREAM_SWEEP = 2
_STREAM_FTM = 3
_STREAM_AUX = 4

_SAMPLER_MAX_TRIES = 100000

_MIN_SEPARATION_M = 1e-3  # sampled reflector to a terminal or the other reflector
_DISTINCT_M = 1e-9  # scene points closer than this coincide
_ORACLE_TOL = 1e-6  # oracle-check pass bound (m, or relative)

#: Trial status of each partner-selection or solver failure (leaf
#: exception classes, looked up by exact type).
_FAILURE_STATUS = {
    NoUsableHistory: "no_history",
    Unsolvable: "unsolvable",
    InconsistentGeometry: "inconsistent_geometry",
    DegenerateProjection: "degenerate_projection",
}
_FAILURES = tuple(_FAILURE_STATUS)


def _generator(seed: int, trial: int, stream: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, trial, stream))))


@dataclass(frozen=True)
class TrialRng:
    """Named random substreams of one trial, each seeded by (seed, trial,
    stream).

    aux is built on its first use, so a trial that never refines a beam
    builds no fifth generator.
    """

    scenario: np.random.Generator
    channel: np.random.Generator
    sweep: np.random.Generator
    ftm: np.random.Generator
    seed: int
    trial: int
    _start: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        for name in ("sweep", "ftm"):
            self._start[name] = getattr(self, name).bit_generator.state

    @classmethod
    def from_seed(cls, seed: int, trial: int) -> "TrialRng":
        return cls(
            scenario=_generator(seed, trial, _STREAM_SCENARIO),
            channel=_generator(seed, trial, _STREAM_CHANNEL),
            sweep=_generator(seed, trial, _STREAM_SWEEP),
            ftm=_generator(seed, trial, _STREAM_FTM),
            seed=seed,
            trial=trial,
        )

    @cached_property
    def aux(self) -> np.random.Generator:
        gen = _generator(self.seed, self.trial, _STREAM_AUX)
        self._start["aux"] = gen.bit_generator.state
        return gen

    def rewind(self, *names: str) -> None:
        """Return the named streams to their state at construction.

        With no name: sweep, ftm and (once built) aux, as a Trial.memo
        fill does before training; every grid point then names only
        "ftm" before ranging.  Restoring a state costs about a tenth of
        seeding a generator.
        """
        for name in names or self._start:
            getattr(self, name).bit_generator.state = self._start[name]


@dataclass(frozen=True)
class Scenario:
    """Fixed terminals and two reflector positions."""

    ap_pos: np.ndarray
    sta_pos: np.ndarray
    target1_pos: np.ndarray
    target2_pos: np.ndarray

    def __post_init__(self) -> None:
        names = ("ap_pos", "sta_pos", "target1_pos", "target2_pos")
        for name in names:
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        pts = [getattr(self, name).tolist() for name in names]
        for i in range(4):
            for j in range(i + 1, 4):
                if math.dist(pts[i], pts[j]) < _DISTINCT_M:
                    raise ValueError("scenario points must be pairwise distinct")


@dataclass(frozen=True)
class ExperimentConfig:
    """Experiment grid and scene settings: one field per config key.

    tx_upa/rx_upa, snr_db, ftm_sigma_m, and beam are grid axes; the UPA
    lists advance together (a length-1 list broadcasts).  Angles are
    estimated in each terminal's local frame: a terminal's array faces
    the direction given by its yaw (degrees, 0 = +x).  By default both
    arrays lie in the yz plane facing each other along the x axis (AP
    broadside +x, STA broadside -x), so the reflector box sits between
    them and every direction splits into an in-plane (yz) part measured
    by the array and an off-plane part along the baseline.  The noise
    power is 1, so snr_db sets the transmit power.  table_capacity sizes
    solve-once's table; a sweep's trial pairs its paths in a one-record
    table.
    """

    tx_upa: tuple[tuple[int, int], ...] = ((32, 32),)
    rx_upa: tuple[tuple[int, int], ...] = ((32, 32),)
    snr_db: tuple[float, ...] = (20.0,)
    ftm_sigma_m: tuple[float, ...] = (0.01,)
    beam: tuple[str, ...] = ("best",)
    trials: int = 2000
    oversampling: int = 1
    seed: int = 0
    planes: tuple[str, ...] = ("yoz",)
    ap_pos: tuple[float, float, float] = (0.0, 0.0, 0.0)
    sta_pos: tuple[float, float, float] = (2.0, 0.0, 0.0)
    ap_yaw_deg: float = 0.0
    sta_yaw_deg: float = 180.0
    target_box: tuple[tuple[float, float], ...] = ((0.0, 2.0), (0.5, 4.0), (-1.0, 1.0))
    table_capacity: int = 32
    min_pair_angle: float = 0.02

    def __post_init__(self) -> None:
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.oversampling < 1:
            raise ValueError("oversampling must be >= 1")
        for name in ("tx_upa", "rx_upa", "snr_db", "ftm_sigma_m", "beam", "planes"):
            if len(getattr(self, name)) == 0:
                raise ValueError(f"{name} must be nonempty")
        for mode in self.beam:
            if mode not in ("best", "aux"):
                raise ValueError(f"beam mode must be 'best' or 'aux', got {mode!r}")
        for name in ("tx_upa", "rx_upa"):
            for n_h, n_v in getattr(self, name):
                if n_h < 1 or n_v < 1:
                    raise ValueError(f"{name}: array sides must be >= 1, got {n_h}x{n_v}")
        if len(self.tx_upa) != len(self.rx_upa) and 1 not in (len(self.tx_upa), len(self.rx_upa)):
            raise ValueError("tx_upa and rx_upa lists must match in length (or broadcast from 1)")
        for name in self.planes:
            try:
                ProjectionPlane.from_name(name)
            except ValueError as exc:
                raise ValueError(f"planes: {exc}") from exc
        for snr in self.snr_db:
            if math.isnan(snr):
                raise ValueError("snr_db entries must not be NaN")
        for sigma in self.ftm_sigma_m:
            if not sigma >= 0.0:
                raise ValueError(f"ftm_sigma_m entries must be >= 0, got {sigma}")
        if not 0.0 <= self.min_pair_angle < 0.5 * math.pi:
            raise ValueError(f"min_pair_angle must be in [0, pi/2), got {self.min_pair_angle}")
        box = self.target_box
        if len(box) != 3 or any(len(pair) != 2 or not pair[0] < pair[1] for pair in box):
            raise ValueError(f"target_box must be three (lo, hi) pairs with lo < hi, got {box}")
        if self.table_capacity < 1:
            raise ValueError("table_capacity must be >= 1")
        if math.dist(self.ap_pos, self.sta_pos) < _DISTINCT_M:
            raise ValueError("ap_pos and sta_pos must differ")

    def upa_pairs(self) -> list[tuple[tuple[int, int], tuple[int, int]]]:
        tx, rx = self.tx_upa, self.rx_upa
        if len(tx) == 1 and len(rx) > 1:
            tx = tx * len(rx)
        if len(rx) == 1 and len(tx) > 1:
            rx = rx * len(tx)
        return list(zip(tx, rx))

    def single(self) -> "ExperimentConfig":
        """This config, asserting every grid axis is a single point."""
        for name in ("snr_db", "ftm_sigma_m", "beam"):
            if len(getattr(self, name)) != 1:
                raise ValueError(f"run_trial needs a single-point grid, {name} has several values")
        if len(self.tx_upa) != 1 or len(self.rx_upa) != 1:  # upa_pairs() would broadcast
            raise ValueError("run_trial needs a single UPA pair")
        return self


@dataclass
class TrialResult:
    true_position: np.ndarray
    est_position: np.ndarray
    distance_error: float
    scene: SceneType | None
    realized_snr_db: float
    status: str


def _wrap_angle(a: float) -> float:
    return (a + math.pi) % TAU - math.pi


def _to_local(angles: SphericalAngles, yaw_rad: float) -> SphericalAngles:
    """Rotate a global direction into a terminal frame yawed about z."""
    return SphericalAngles(_wrap_angle(angles.azimuth - yaw_rad), angles.elevation)


def _to_global(angles: SphericalAngles, yaw_rad: float) -> SphericalAngles:
    return SphericalAngles(_wrap_angle(angles.azimuth + yaw_rad), angles.elevation)


def synthesize_observations(s: Scenario) -> tuple[PathObservation, PathObservation]:
    """Exact observations of the two single-bounce paths.

    Path 1 (reflector 1) is stamped as the newer measurement.
    """

    def one(target: np.ndarray, timestamp: int) -> PathObservation:
        d_ap = float(np.linalg.norm(target - s.ap_pos))
        d_sta = float(np.linalg.norm(target - s.sta_pos))
        return PathObservation(
            aod=angles_from_direction(target - s.ap_pos),
            aoa=angles_from_direction(target - s.sta_pos),
            path_length=d_ap + d_sta,
            snr_db=math.inf,
            timestamp=timestamp,
        )

    return one(s.target1_pos, 1), one(s.target2_pos, 0)


def _covered(direction: tuple[float, float, float], yaw: float) -> bool:
    """Whether a direction lies in the angular coverage sector of a
    terminal whose array faces yaw (rad)."""
    dx, dy, dz = direction
    return (
        ELEVATION_MIN <= math.atan2(math.hypot(dx, dy), dz) <= ELEVATION_MAX
        and abs(_wrap_angle(math.atan2(dy, dx) - yaw)) <= AZIMUTH_HALF_SPAN
    )


def _point_test(cfg: ExperimentConfig) -> Callable[[tuple[float, float, float]], tuple[float, float] | None]:
    """The sampler's one-point test, as a function of a candidate
    reflector.

    It returns the candidate's azimuths on the primary plane, seen from
    the AP and from the STA, or None when the candidate fails: a
    direction out of its terminal's angular coverage, a terminal within
    1 mm, or a direction (nearly) normal to the plane.
    """
    ap_x, ap_y, ap_z = (float(c) for c in cfg.ap_pos)
    sta_x, sta_y, sta_z = (float(c) for c in cfg.sta_pos)
    plane = ProjectionPlane.from_name(cfg.planes[0])
    ap_yaw = math.radians(cfg.ap_yaw_deg)
    sta_yaw = math.radians(cfg.sta_yaw_deg)

    def azimuths(t: tuple[float, float, float]) -> tuple[float, float] | None:
        x, y, z = t
        departure = (x - ap_x, y - ap_y, z - ap_z)
        arrival = (x - sta_x, y - sta_y, z - sta_z)
        if not (_covered(departure, ap_yaw) and _covered(arrival, sta_yaw)):
            return None
        n_dep, n_arr = math.hypot(*departure), math.hypot(*arrival)
        if min(n_dep, n_arr) < _MIN_SEPARATION_M:
            return None
        try:
            return (
                bearing(plane, tuple(c / n_dep for c in departure))[0],
                bearing(plane, tuple(c / n_arr for c in arrival))[0],
            )
        except DegenerateProjection:
            return None

    return azimuths


def box_is_covered(cfg: ExperimentConfig) -> bool:
    """Whether a point of the config box passes the sampler's one-point
    test within the sampler's draw budget.

    It draws from a standard-library generator of its own, so no trial
    stream moves, and a sweep's set-up does not load numpy.random early
    (about 15 ms).  A box that fails can never fill a sampler slot.
    """
    azimuths = _point_test(cfg)
    rng = random.Random(0)
    return any(
        azimuths(tuple(rng.uniform(lo, hi) for lo, hi in cfg.target_box)) is not None
        for _ in range(2 * _SAMPLER_MAX_TRIES)
    )


def make_scenario_sampler(cfg: ExperimentConfig) -> Callable[[np.random.Generator], Scenario]:
    """Uniform reflector placement in the config box, rejecting scenes
    that are out of angular coverage or degenerate on the primary plane.

    Degenerate means: a reflector within 1 mm of the other or of a
    terminal, a direction (nearly) normal to the plane, or a projected
    pair angle within min_pair_angle of collinear, where the solution is
    unstable under measurement noise.

    Sampling fills two slots.  Each attempt draws six scalar uniforms,
    two candidate points, and a candidate that passes the one-point test
    (_point_test) takes the first empty slot, in draw order.  Once both
    slots are full, the pair tests (separation and collinear gap) run;
    on failure both slots are emptied.  The candidates are iid uniform
    on the box, so an accepted pair has the density of joint rejection,
    proportional to 1[C(t1)] 1[C(t2)] 1[P(t1, t2)], from about an eighth
    of its attempts on the default config.
    """
    ap = np.asarray(cfg.ap_pos, dtype=float)
    sta = np.asarray(cfg.sta_pos, dtype=float)
    azimuths = _point_test(cfg)
    (x_lo, x_hi), (y_lo, y_hi), (z_lo, z_hi) = cfg.target_box

    def sample(rng: np.random.Generator) -> Scenario:
        slots: list[tuple[tuple[float, float, float], tuple[float, float]]] = []
        for _ in range(_SAMPLER_MAX_TRIES):
            for _ in range(2):
                t = rng.uniform(x_lo, x_hi), rng.uniform(y_lo, y_hi), rng.uniform(z_lo, z_hi)
                if len(slots) < 2 and (az := azimuths(t)) is not None:
                    slots.append((t, az))
            if len(slots) < 2:
                continue
            (t1, (ap1, sta1)), (t2, (ap2, sta2)) = slots
            gap = min(collinear_gap((ap1 - ap2) % TAU), collinear_gap((sta1 - sta2) % TAU))
            if math.dist(t1, t2) >= _MIN_SEPARATION_M and gap >= cfg.min_pair_angle:
                return Scenario(ap, sta, np.array(t1), np.array(t2))
            slots.clear()
        raise RuntimeError("scenario sampler exhausted its rejection budget")

    return sample


def _train_beams(
    cfg: ExperimentConfig,
    truth: PathObservation,
    gain: complex,
    tx_cb: Codebook,
    rx_cb: Codebook,
    p_t: float,
    noise: float,
    rng: TrialRng,
) -> tuple[PathObservation, float]:
    """Beam stage of one path: the swept (and, in aux mode, refined)
    observation and the path's matched SNR dB.  The observation holds
    the global AoD and AoA, the measured SNR dB, the path's timestamp
    and its true length, which nothing downstream reads.  It reads the
    sweep and aux streams and no ranging setting."""
    ap_yaw = math.radians(cfg.ap_yaw_deg)
    sta_yaw = math.radians(cfg.sta_yaw_deg)
    ch = ChannelRealization(
        gain=gain,
        aod=_to_local(truth.aod, ap_yaw),
        aoa=_to_local(truth.aoa, sta_yaw),
        path_length=truth.path_length,
    )
    best_tx, best_rx, snr_est = beam_sweep(ch, tx_cb, rx_cb, p_t, noise, rng.sweep)
    if cfg.beam[0] == "aux":
        # Each side refines against the other's coarse beam.
        best_tx, best_rx = (
            aux_beam_refine(
                ch, best_tx, "tx", tx_cb.geom, 0.5 * tx_cb.az_cell_width, p_t, noise, rng.aux,
                other_angles=best_rx, other_geom=rx_cb.geom,
            ),
            aux_beam_refine(
                ch, best_rx, "rx", rx_cb.geom, 0.5 * rx_cb.az_cell_width, p_t, noise, rng.aux,
                other_angles=best_tx, other_geom=tx_cb.geom,
            ),
        )

    n_total = tx_cb.geom.n_elements * rx_cb.geom.n_elements
    matched_db = power_db(p_t * n_total * abs(gain) ** 2, noise)
    trained = PathObservation(
        _to_global(best_tx, ap_yaw), _to_global(best_rx, sta_yaw), truth.path_length, snr_est, truth.timestamp
    )
    return trained, matched_db


@dataclass(frozen=True)
class Trial:
    """What one trial draws once and every grid point shares.

    paths holds the scene's two exact observations (path 1 first) with
    their CN(0,1) channel gains.  memo maps (tx pair, rx pair, SNR, beam
    mode, planes) to what a point computes before ranging: the realized
    SNR and, per plane, the solver's angle stage or the status of a
    failure that reads no path length.  Beam training reads no ranging
    setting, partner selection reads bearings, SNR and timestamps, and
    solve_angles reads no length, so none of it depends on sigma.

    The first point of a key rewinds every stream and fills its entry.
    Every point, that one included, then rewinds only ftm, ranges both
    paths and runs solve_ranges on each standing angle stage.  So every
    grid point gives what a fresh Trial of the same (seed, trial)
    gives, provided the settings outside the key stay the same.
    """

    scene: Scenario
    rng: TrialRng
    paths: tuple[tuple[PathObservation, complex], tuple[PathObservation, complex]]
    memo: dict[tuple, tuple[float, tuple[AngleStage | str, ...]]] = field(default_factory=dict)

    @classmethod
    def start(cls, scene: Scenario, rng: TrialRng) -> "Trial":
        """The scene's paths, with gains drawn from the channel stream
        (path 1 first, real part first)."""
        truth1, truth2 = synthesize_observations(scene)
        gain1, gain2 = (
            complex(rng.channel.standard_normal(), rng.channel.standard_normal()) / math.sqrt(2.0)
            for _ in range(2)
        )
        return cls(scene, rng, ((truth1, gain1), (truth2, gain2)))


def _outcome(fn: Callable, *args):
    """fn(*args), or the trial status of the failure it raises."""
    try:
        return fn(*args)
    except _FAILURES as exc:
        return _FAILURE_STATUS[type(exc)]


def _pair_angles(table: MeasurementTable, current: PathObservation, plane: ProjectionPlane) -> AngleStage:
    """The angle stage of current with its partner from table."""
    return solve_angles(current, select_historical(table, current, 1, plane=plane)[0], plane)


def _angle_stages(
    cfg: ExperimentConfig, trial: Trial, codebooks: tuple[Codebook, Codebook] | None
) -> tuple[float, tuple[AngleStage | str, ...]]:
    """A Trial.memo entry: train both paths' beams from rewound streams,
    then per plane pair path 1 with path 2 from a one-record table."""
    tx_pair, rx_pair = cfg.tx_upa[0], cfg.rx_upa[0]
    if codebooks is None:
        codebooks = tuple(build_codebook(UpaGeometry(*pair), cfg.oversampling) for pair in (tx_pair, rx_pair))
    snr = cfg.snr_db[0]
    if math.isinf(snr) and snr > 0:
        p_t, noise = 1.0, 0.0  # exact, noise-free measurements
    else:
        p_t, noise = 10.0 ** (snr / 10.0), 1.0
    trial.rng.rewind()
    (trained1, snr1), (trained2, snr2) = (
        _train_beams(cfg, truth, gain, *codebooks, p_t, noise, trial.rng) for truth, gain in trial.paths
    )
    table = MeasurementTable(1)
    table.add(trained2)
    stages = tuple(_outcome(_pair_angles, table, trained1, ProjectionPlane.from_name(name)) for name in cfg.planes)
    return 0.5 * (snr1 + snr2), stages


def run_trial(
    cfg: ExperimentConfig, trial: Trial, codebooks: tuple[Codebook, Codebook] | None = None
) -> TrialResult:
    """One end-to-end localization attempt at a single-point grid;
    failures become data.  See Trial for what a grid point reuses."""
    cfg = cfg.single()
    key = (cfg.tx_upa[0], cfg.rx_upa[0], cfg.snr_db[0], cfg.beam[0], cfg.planes)
    if key not in trial.memo:
        trial.memo[key] = _angle_stages(cfg, trial, codebooks)
    realized, stages = trial.memo[key]
    trial.rng.rewind("ftm")
    ftm = FtmConfig(cfg.ftm_sigma_m[0])
    (truth1, _), (truth2, _) = trial.paths
    c1 = ftm_distance(truth1.path_length, ftm, trial.rng.ftm)
    c2 = ftm_distance(truth2.path_length, ftm, trial.rng.ftm)

    positions, failures, scene = [], [], None
    for stage in stages:
        fix = stage if isinstance(stage, str) else _outcome(solve_ranges, stage, c1, c2)
        if isinstance(fix, str):
            failures.append(fix)
            continue
        positions.append(localize(fix, trial.scene.sta_pos))
        scene = scene or fix.scene
    target = trial.scene.target1_pos
    if not positions:  # every plane failed; the first plane's status stands
        return TrialResult(target, np.full(3, math.nan), math.nan, None, realized, failures[0])
    est = sum(positions) / len(positions)  # np.mean's arithmetic, bit for bit
    return TrialResult(target, est, float(np.linalg.norm(est - target)), scene, realized, "ok")


@dataclass(frozen=True)
class CurveRow:
    """Aggregated statistics of one experiment grid point."""

    tx_upa: str
    rx_upa: str
    beam: str
    snr_db: float
    ftm_sigma_m: float
    trials: int
    n_success: int
    n_fail: int
    failure_rate: float
    mean_error_m: float
    stderr_m: float
    p50: float
    p90: float
    realized_snr_db_mean: float


@dataclass
class ExperimentResult:
    """Curve rows in grid order; raw, when collected, holds each row's
    trials in trial order, row after row."""

    curve: list[CurveRow]
    raw: list[TrialResult] | None = None


def _upa_label(pair: tuple[int, int]) -> str:
    return f"{pair[0]}x{pair[1]}"


def _aggregate(point_cfg: ExperimentConfig, results: list[TrialResult]) -> CurveRow:
    errs = np.array([r.distance_error for r in results if r.status == "ok"])
    n_ok = errs.size
    n_fail = len(results) - n_ok
    snrs = [r.realized_snr_db for r in results]
    realized = np.array([v for v in snrs if math.isfinite(v)])
    if realized.size:
        snr_mean = float(realized.mean())
    elif set(snrs) in ({math.inf}, {-math.inf}):
        snr_mean = snrs[0]  # every trial at the same infinity, as at an infinite SNR point
    else:
        snr_mean = math.nan
    if n_ok:
        mean = float(errs.mean())
        stderr = float(errs.std(ddof=1) / math.sqrt(n_ok)) if n_ok > 1 else math.nan
        p50, p90 = (float(p) for p in np.percentile(errs, (50, 90)))
    else:
        mean = stderr = p50 = p90 = math.nan
    return CurveRow(
        tx_upa=_upa_label(point_cfg.upa_pairs()[0][0]),
        rx_upa=_upa_label(point_cfg.upa_pairs()[0][1]),
        beam=point_cfg.beam[0],
        snr_db=point_cfg.snr_db[0],
        ftm_sigma_m=point_cfg.ftm_sigma_m[0],
        trials=len(results),
        n_success=int(n_ok),
        n_fail=int(n_fail),
        failure_rate=n_fail / len(results) if results else math.nan,
        mean_error_m=mean,
        stderr_m=stderr,
        p50=p50,
        p90=p90,
        realized_snr_db_mean=snr_mean,
    )


def run_experiment(
    cfg: ExperimentConfig,
    scenario_sampler: Callable[[np.random.Generator], Scenario] | None = None,
    *,
    collect_raw: bool = False,
    progress: Callable[[CurveRow], None] | None = None,
) -> ExperimentResult:
    """Run the full grid; one CurveRow per (UPA pair, SNR, sigma, mode).

    The first time the trial loop reaches trial t, it seeds the trial's
    streams, samples its scene (``scenario_sampler`` included) and
    starts its Trial, which every later grid point reuses (see Trial).
    So the sampler runs once per trial, and run_trial once per grid
    point and trial.
    """
    sampler = scenario_sampler or make_scenario_sampler(cfg)
    codebook_cache: dict[tuple[int, int, int], Codebook] = {}

    def codebook_for(pair: tuple[int, int]) -> Codebook:
        key = (pair[0], pair[1], cfg.oversampling)
        if key not in codebook_cache:
            codebook_cache[key] = build_codebook(UpaGeometry(*pair), cfg.oversampling)
        return codebook_cache[key]

    trials: list[Trial] = []
    out = ExperimentResult(curve=[], raw=[] if collect_raw else None)
    for (tx_pair, rx_pair), snr, sigma, mode in product(cfg.upa_pairs(), cfg.snr_db, cfg.ftm_sigma_m, cfg.beam):
        point_cfg = replace(
            cfg,
            tx_upa=(tx_pair,),
            rx_upa=(rx_pair,),
            snr_db=(snr,),
            ftm_sigma_m=(sigma,),
            beam=(mode,),
        )
        books = (codebook_for(tx_pair), codebook_for(rx_pair))
        results = []
        for t in range(cfg.trials):
            if t == len(trials):
                rng = TrialRng.from_seed(cfg.seed, t)
                trials.append(Trial.start(sampler(rng.scenario), rng))
            results.append(run_trial(point_cfg, trials[t], codebooks=books))
        out.curve.append(_aggregate(point_cfg, results))
        if collect_raw:
            out.raw.extend(results)
        if progress is not None:
            progress(out.curve[-1])
    return out


_CURVE_COLUMNS = tuple(f.name for f in fields(CurveRow))

_RAW_COLUMNS = (
    "tx_upa", "rx_upa", "beam", "snr_db", "ftm_sigma_m", "trial", "status",
    "scene", "true_x", "true_y", "true_z", "est_x", "est_y", "est_z",
    "error_m", "realized_snr_db",
)


def _cell(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def curve_csv_header() -> str:
    return ",".join(_CURVE_COLUMNS)


def format_curve_row(row: CurveRow) -> str:
    return ",".join(_cell(getattr(row, c)) for c in _CURVE_COLUMNS)


def format_curve_csv(rows: Sequence[CurveRow]) -> str:
    lines = [curve_csv_header()]
    lines.extend(format_curve_row(r) for r in rows)
    return "\n".join(lines) + "\n"


def format_raw_csv(result: ExperimentResult) -> str:
    if result.raw is None:
        raise ValueError("experiment was run without collect_raw")
    lines = [",".join(_RAW_COLUMNS)]
    raw = iter(result.raw)
    for row in result.curve:
        for trial, r in enumerate(islice(raw, row.trials)):
            scene = "" if r.scene is None else str(r.scene.code)
            cells = (
                row.tx_upa, row.rx_upa, row.beam, repr(float(row.snr_db)), repr(float(row.ftm_sigma_m)),
                str(trial), r.status, scene,
                *(repr(c) for c in r.true_position.tolist()), *(repr(c) for c in r.est_position.tolist()),
                repr(float(r.distance_error)), repr(float(r.realized_snr_db)),
            )
            lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def run_oracle_suite(seed: int = 0, scenes: int = 500) -> list[tuple[str, bool, str]]:
    """Noiseless round-trip checks used by the command-line oracle-check.

    Returns (name, passed, detail) triples; all should pass on a healthy
    build.  scenes (>= 1) is the scene count of each random check.
    """
    if scenes < 1:
        raise ValueError(f"scenes must be >= 1, got {scenes}")
    rng = np.random.default_rng(seed)
    cfg = ExperimentConfig()
    sampler = make_scenario_sampler(cfg)
    plane = ProjectionPlane.from_name(cfg.planes[0])
    out: list[tuple[str, bool, str]] = []

    worst = 0.0
    failures = 0
    for _ in range(scenes):
        s = sampler(rng)
        obs1, obs2 = synthesize_observations(s)
        try:
            res = solve(obs1, obs2, plane)
        except GeomError:
            failures += 1
            continue
        err = float(np.linalg.norm(localize(res, s.sta_pos) - s.target1_pos))
        worst = max(worst, err)
    out.append((
        "random-scene round-trip",
        failures == 0 and worst < _ORACLE_TOL,
        f"{scenes} scenes, worst position error {worst:.3e} m, {failures} failures",
    ))

    # One reflector pair collinear with the AP in projection.
    ap = np.array([0.0, 0.0, 0.0])
    sta = np.array([2.0, 0.0, 0.0])
    u = np.array([math.cos(1.1), math.sin(1.1), 0.0])
    t1 = ap + 1.0 * u + np.array([0.0, 0.0, 0.3])
    t2 = ap + 2.2 * u + np.array([0.0, 0.0, -0.4])
    s = Scenario(ap, sta, t1, t2)
    obs1, obs2 = synthesize_observations(s)
    try:
        res = solve(obs1, obs2, ProjectionPlane.from_name("xoy"))
        err = float(np.linalg.norm(localize(res, sta) - t1))
        ok = res.scene.code == 5 and res.scene.collinear_with == "ap" and err < _ORACLE_TOL
        detail = f"scene {res.scene.code}/{res.scene.collinear_with}, error {err:.3e} m"
    except GeomError as exc:
        ok, detail = False, f"raised {type(exc).__name__}"
    out.append(("collinear-pair round-trip", ok, detail))

    # Second path degenerated to the line of sight.  The default working
    # plane is normal to the AP-STA baseline, so this case solves on a
    # plane that contains the baseline instead.
    worst_rel = 0.0
    bad = 0
    for _ in range(scenes):
        s = sampler(rng)
        obs1, _ = synthesize_observations(s)
        los = PathObservation(
            aod=angles_from_direction(s.sta_pos - s.ap_pos),
            aoa=angles_from_direction(s.ap_pos - s.sta_pos),
            path_length=float(np.linalg.norm(s.sta_pos - s.ap_pos)),
            snr_db=math.inf,
            timestamp=0,
        )
        want = float(np.linalg.norm(s.target1_pos - s.sta_pos))
        try:
            res = solve(obs1, los, ProjectionPlane.from_name("xoy"))
        except GeomError:
            bad += 1
            continue
        worst_rel = max(worst_rel, abs(res.distance - want) / want)
    out.append((
        "line-of-sight partner round-trip",
        bad == 0 and worst_rel < _ORACLE_TOL,
        f"{scenes} scenes, worst relative distance error {worst_rel:.3e}, {bad} failures",
    ))

    return out
