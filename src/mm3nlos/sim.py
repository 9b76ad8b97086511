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
how many draws one stream takes leaves the others alone.  Each trial's
scene, exact paths and channel gains are drawn once, at the first grid
point, and shared by every later grid point, which rewinds the trial's
sweep, ftm and aux streams instead of seeding them again.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from itertools import product
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
)
from .geom import (
    TAU,
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
)
from .measure import FtmConfig, MeasurementTable, NoUsableHistory, ftm_distance, select_historical

# Substream tags: one independent generator per randomness source.
_STREAM_SCENARIO = 0
_STREAM_CHANNEL = 1
_STREAM_SWEEP = 2
_STREAM_FTM = 3
_STREAM_AUX = 4

_SAMPLER_MAX_TRIES = 100000

#: Trial status of each partner-selection or solver failure (leaf
#: exception classes, looked up by exact type).
_FAILURE_STATUS = {
    NoUsableHistory: "no_history",
    Unsolvable: "unsolvable",
    InconsistentGeometry: "inconsistent_geometry",
    DegenerateProjection: "degenerate_projection",
}


def _generator(seed: int, trial: int, stream: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, trial, stream))))


@dataclass(frozen=True)
class TrialRng:
    """Named random substreams of one trial, each seeded by (seed, trial,
    stream).

    aux is built on its first use, so a trial that never refines a beam
    builds no fifth generator.  rewind() returns sweep, ftm and (once
    built) aux to their state at construction: the streams each grid
    point consumes afresh.  Restoring a state costs about a tenth of
    seeding a generator.
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

    def rewind(self) -> None:
        for name, state in self._start.items():
            getattr(self, name).bit_generator.state = state


@dataclass(frozen=True)
class Scenario:
    """Fixed terminals, two reflector positions, and a working plane."""

    ap_pos: np.ndarray
    sta_pos: np.ndarray
    target1_pos: np.ndarray
    target2_pos: np.ndarray
    plane_name: str = "yoz"

    def __post_init__(self) -> None:
        pts = [
            np.asarray(p, dtype=float)
            for p in (self.ap_pos, self.sta_pos, self.target1_pos, self.target2_pos)
        ]
        for name, p in zip(("ap_pos", "sta_pos", "target1_pos", "target2_pos"), pts):
            object.__setattr__(self, name, p)
        for i in range(4):
            for j in range(i + 1, 4):
                if float(np.linalg.norm(pts[i] - pts[j])) < 1e-9:
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
    power is 1, so snr_db sets the transmit power.
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
        if math.dist(self.ap_pos, self.sta_pos) < 1e-9:
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
        if len(self.upa_pairs()) != 1:
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


def make_scenario_sampler(cfg: ExperimentConfig) -> Callable[[np.random.Generator], Scenario]:
    """Uniform reflector placement in the config box, rejecting scenes
    that are out of angular coverage or degenerate on the primary plane.

    Degenerate means: a reflector within 1 mm of the other or of a
    terminal, a direction (nearly) normal to the plane, or a projected
    pair angle within min_pair_angle of collinear, where the solution is
    unstable under measurement noise.

    Each attempt draws six scalar uniforms (reflector 1, then reflector
    2) and runs every check in plain float math; most attempts fail the
    coverage check, which comes first.
    """
    ap = np.asarray(cfg.ap_pos, dtype=float)
    sta = np.asarray(cfg.sta_pos, dtype=float)
    ap_x, ap_y, ap_z = (float(c) for c in ap)
    sta_x, sta_y, sta_z = (float(c) for c in sta)
    plane = ProjectionPlane.from_name(cfg.planes[0])
    ap_yaw = math.radians(cfg.ap_yaw_deg)
    sta_yaw = math.radians(cfg.sta_yaw_deg)
    yaws = (ap_yaw, sta_yaw, ap_yaw, sta_yaw)
    (x_lo, x_hi), (y_lo, y_hi), (z_lo, z_hi) = cfg.target_box

    def sample(rng: np.random.Generator) -> Scenario:
        for _ in range(_SAMPLER_MAX_TRIES):
            t1 = rng.uniform(x_lo, x_hi), rng.uniform(y_lo, y_hi), rng.uniform(z_lo, z_hi)
            t2 = rng.uniform(x_lo, x_hi), rng.uniform(y_lo, y_hi), rng.uniform(z_lo, z_hi)
            (x1, y1, z1), (x2, y2, z2) = t1, t2
            # Departure 1, arrival 1, departure 2, arrival 2.
            dirs = (
                (x1 - ap_x, y1 - ap_y, z1 - ap_z),
                (x1 - sta_x, y1 - sta_y, z1 - sta_z),
                (x2 - ap_x, y2 - ap_y, z2 - ap_z),
                (x2 - sta_x, y2 - sta_y, z2 - sta_z),
            )
            if not all(map(_covered, dirs, yaws)):
                continue
            lengths = [math.hypot(*d) for d in dirs]
            if min(math.dist(t1, t2), *lengths) < 1e-3:
                continue
            try:
                az = [bearing(plane, (dx / n, dy / n, dz / n))[0] for (dx, dy, dz), n in zip(dirs, lengths)]
            except DegenerateProjection:
                continue
            aod_pair = (az[0] - az[2]) % TAU
            aoa_pair = (az[1] - az[3]) % TAU
            if min(collinear_gap(aod_pair), collinear_gap(aoa_pair)) < cfg.min_pair_angle:
                continue
            return Scenario(ap, sta, np.array(t1), np.array(t2), cfg.planes[0])
        raise RuntimeError("scenario sampler exhausted its rejection budget")

    return sample


def _estimate_path(
    cfg: ExperimentConfig,
    truth: PathObservation,
    gain: complex,
    tx_cb: Codebook,
    rx_cb: Codebook,
    p_t: float,
    noise: float,
    rng: TrialRng,
    timestamp: int,
) -> tuple[PathObservation, float]:
    """Physical-layer estimate of one path; returns (obs, matched SNR dB)."""
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
    matched = p_t * n_total * abs(gain) ** 2
    matched_db = 10.0 * math.log10(matched / noise) if noise > 0.0 and matched > 0.0 else math.inf
    c_hat = ftm_distance(truth.path_length, FtmConfig(cfg.ftm_sigma_m[0]), rng.ftm)
    obs = PathObservation(
        aod=_to_global(best_tx, ap_yaw),
        aoa=_to_global(best_rx, sta_yaw),
        path_length=c_hat,
        snr_db=snr_est,
        timestamp=timestamp,
    )
    return obs, matched_db


#: Each path's exact observation with its complex channel gain.
TrialPaths = tuple[tuple[PathObservation, complex], tuple[PathObservation, complex]]


def _trial_paths(scenario: Scenario, rng: TrialRng) -> TrialPaths:
    """Exact observations of the scene's two paths, with CN(0,1) gains
    drawn from the channel stream (path 1 first, real part first)."""
    truths = synthesize_observations(scenario)
    gains = [
        complex(rng.channel.standard_normal(), rng.channel.standard_normal()) / math.sqrt(2.0)
        for _ in range(2)
    ]
    return (truths[0], gains[0]), (truths[1], gains[1])


def run_trial(
    cfg: ExperimentConfig,
    scenario: Scenario,
    rng: TrialRng,
    codebooks: tuple[Codebook, Codebook] | None = None,
    paths: TrialPaths | None = None,
) -> TrialResult:
    """One end-to-end localization attempt; failures become data.

    paths, when given, are the scene's exact paths and gains drawn
    earlier by the caller; otherwise they are drawn here from rng.
    """
    cfg = cfg.single()
    (tx_pair, rx_pair) = cfg.upa_pairs()[0]
    if codebooks is None:
        tx_cb = build_codebook(UpaGeometry(*tx_pair), cfg.oversampling)
        rx_cb = build_codebook(UpaGeometry(*rx_pair), cfg.oversampling)
    else:
        tx_cb, rx_cb = codebooks

    snr = cfg.snr_db[0]
    if math.isinf(snr) and snr > 0:
        p_t, noise = 1.0, 0.0  # exact, noise-free measurements
    else:
        p_t, noise = 10.0 ** (snr / 10.0), 1.0
    (truth1, gain1), (truth2, gain2) = paths or _trial_paths(scenario, rng)
    obs1, snr1 = _estimate_path(cfg, truth1, gain1, tx_cb, rx_cb, p_t, noise, rng, timestamp=1)
    obs2, snr2 = _estimate_path(cfg, truth2, gain2, tx_cb, rx_cb, p_t, noise, rng, timestamp=0)
    realized = 0.5 * (snr1 + snr2)

    table = MeasurementTable(cfg.table_capacity)
    table.add(obs2)

    positions = []
    scene: SceneType | None = None
    first_failure: str | None = None
    for plane_name in cfg.planes:
        plane = ProjectionPlane.from_name(plane_name)
        try:
            partner = select_historical(table, obs1, 1, plane=plane)[0]
            result = solve(obs1, partner, plane)
        except tuple(_FAILURE_STATUS) as exc:
            first_failure = first_failure or _FAILURE_STATUS[type(exc)]
            continue
        positions.append(localize(result, scenario.sta_pos))
        if scene is None:
            scene = result.scene

    if positions:
        est = np.mean(positions, axis=0)
        err = float(np.linalg.norm(est - scenario.target1_pos))
        return TrialResult(scenario.target1_pos, est, err, scene, realized, "ok")
    nan3 = np.full(3, math.nan)
    return TrialResult(scenario.target1_pos, nan3, math.nan, None, realized, first_failure or "no_history")


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
    curve: list[CurveRow]
    raw: list[TrialResult] | None = None
    raw_keys: list[tuple] = field(default_factory=list)


def _upa_label(pair: tuple[int, int]) -> str:
    return f"{pair[0]}x{pair[1]}"


def _aggregate(point_cfg: ExperimentConfig, results: list[TrialResult]) -> CurveRow:
    errs = np.array([r.distance_error for r in results if r.status == "ok"])
    n_ok = errs.size
    n_fail = len(results) - n_ok
    realized = np.array([r.realized_snr_db for r in results if math.isfinite(r.realized_snr_db)])
    if n_ok:
        mean = float(errs.mean())
        stderr = float(errs.std(ddof=1) / math.sqrt(n_ok)) if n_ok > 1 else math.nan
        p50 = float(np.percentile(errs, 50))
        p90 = float(np.percentile(errs, 90))
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
        realized_snr_db_mean=float(realized.mean()) if realized.size else math.nan,
    )


def run_experiment(
    cfg: ExperimentConfig,
    scenario_sampler: Callable[[np.random.Generator], Scenario] | None = None,
    *,
    collect_raw: bool = False,
    progress: Callable[[CurveRow], None] | None = None,
) -> ExperimentResult:
    """Run the full grid; one CurveRow per (UPA pair, SNR, sigma, mode).

    Every substream depends only on (seed, trial), so every grid point
    sees the same scenes, gains, ranging and refinement noise draws.
    The first time the trial loop reaches trial t, it seeds the trial's
    streams, samples its scene and draws its paths and gains; every
    later grid point reuses them and rewinds the trial's streams.  So
    the sampler (``scenario_sampler`` included) is called once per
    trial, not once per grid point and trial.
    """
    sampler = scenario_sampler or make_scenario_sampler(cfg)
    codebook_cache: dict[tuple[int, int, int], Codebook] = {}

    def codebook_for(pair: tuple[int, int]) -> Codebook:
        key = (pair[0], pair[1], cfg.oversampling)
        if key not in codebook_cache:
            codebook_cache[key] = build_codebook(UpaGeometry(*pair), cfg.oversampling)
        return codebook_cache[key]

    starts: list[tuple[Scenario, TrialPaths, TrialRng]] = []
    out = ExperimentResult(curve=[], raw=[] if collect_raw else None)
    grid = [
        (pair, snr, sigma, mode)
        for pair, snr, sigma, mode in product(
            cfg.upa_pairs(), cfg.snr_db, cfg.ftm_sigma_m, cfg.beam
        )
    ]
    for (tx_pair, rx_pair), snr, sigma, mode in grid:
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
        for trial in range(cfg.trials):
            if trial == len(starts):
                rng = TrialRng.from_seed(cfg.seed, trial)
                scene = sampler(rng.scenario)
                starts.append((scene, _trial_paths(scene, rng), rng))
            scene, paths, rng = starts[trial]
            rng.rewind()
            results.append(run_trial(point_cfg, scene, rng, codebooks=books, paths=paths))
        out.curve.append(_aggregate(point_cfg, results))
        if collect_raw:
            out.raw.extend(results)
            out.raw_keys.extend(
                (_upa_label(tx_pair), _upa_label(rx_pair), mode, snr, sigma, t)
                for t in range(cfg.trials)
            )
        if progress is not None:
            progress(out.curve[-1])
    return out


_CURVE_COLUMNS = (
    "tx_upa", "rx_upa", "beam", "snr_db", "ftm_sigma_m", "trials",
    "n_success", "n_fail", "failure_rate", "mean_error_m", "stderr_m",
    "p50", "p90", "realized_snr_db_mean",
)

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
    for key, r in zip(result.raw_keys, result.raw):
        tx, rx, mode, snr, sigma, trial = key
        scene = "" if r.scene is None else str(r.scene.code)
        cells = (
            tx, rx, mode, repr(float(snr)), repr(float(sigma)), str(trial), r.status, scene,
            repr(float(r.true_position[0])), repr(float(r.true_position[1])), repr(float(r.true_position[2])),
            repr(float(r.est_position[0])), repr(float(r.est_position[1])), repr(float(r.est_position[2])),
            repr(float(r.distance_error)), repr(float(r.realized_snr_db)),
        )
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def run_oracle_suite(seed: int = 0, scenes: int = 500) -> list[tuple[str, bool, str]]:
    """Noiseless round-trip checks used by the command-line oracle-check.

    Returns (name, passed, detail) triples; all should pass on a healthy
    build.
    """
    rng = np.random.default_rng(seed)
    cfg = ExperimentConfig()
    sampler = make_scenario_sampler(cfg)
    out: list[tuple[str, bool, str]] = []

    worst = 0.0
    failures = 0
    for _ in range(scenes):
        s = sampler(rng)
        obs1, obs2 = synthesize_observations(s)
        try:
            res = solve(obs1, obs2, ProjectionPlane.from_name(s.plane_name))
        except GeomError:
            failures += 1
            continue
        err = float(np.linalg.norm(localize(res, s.sta_pos) - s.target1_pos))
        worst = max(worst, err)
    out.append((
        "random-scene round-trip",
        failures == 0 and worst < 1e-6,
        f"{scenes} scenes, worst position error {worst:.3e} m, {failures} failures",
    ))

    # One reflector pair collinear with the AP in projection.
    ap = np.array([0.0, 0.0, 0.0])
    sta = np.array([2.0, 0.0, 0.0])
    u = np.array([math.cos(1.1), math.sin(1.1), 0.0])
    t1 = ap + 1.0 * u + np.array([0.0, 0.0, 0.3])
    t2 = ap + 2.2 * u + np.array([0.0, 0.0, -0.4])
    s = Scenario(ap, sta, t1, t2, "xoy")
    obs1, obs2 = synthesize_observations(s)
    try:
        res = solve(obs1, obs2, ProjectionPlane.from_name("xoy"))
        err = float(np.linalg.norm(localize(res, sta) - t1))
        ok = res.scene.code == 5 and res.scene.collinear_with == "ap" and err < 1e-6
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
        bad == 0 and worst_rel < 1e-6,
        f"{scenes} scenes, worst relative distance error {worst_rel:.3e}, {bad} failures",
    ))

    return out
