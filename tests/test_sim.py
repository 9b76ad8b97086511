"""End-to-end trial, experiment grid, and reproducibility tests."""

import math
from collections import Counter
from itertools import product
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_geom import TAU, clockwise_angle, project, projector

from mm3nlos import geom, sim
from mm3nlos.channel import AZIMUTH_HALF_SPAN, ELEVATION_MAX, ELEVATION_MIN, build_codebook, UpaGeometry
from mm3nlos.geom import (
    EPS_PROJECTION,
    DegenerateProjection,
    ProjectionPlane,
    SphericalAngles,
    angles_from_direction,
    collinear_gap,
    direction_from_angles,
)
from mm3nlos.measure import MIN_DISTANCE
from mm3nlos.sim import (
    ExperimentConfig,
    Scenario,
    Trial,
    TrialRng,
    _to_local,
    curve_csv_header,
    format_curve_csv,
    format_curve_row,
    format_raw_csv,
    make_scenario_sampler,
    run_experiment,
    run_oracle_suite,
    run_trial,
    synthesize_observations,
)


def small_cfg(**kw):
    base = dict(
        tx_upa=((4, 4),), rx_upa=((4, 4),), snr_db=(20.0,), ftm_sigma_m=(0.01,),
        beam=("best",), trials=5, seed=0,
    )
    base.update(kw)
    return ExperimentConfig(**base)


# ---------------------------------------------------------------------------
# randomness plumbing

def test_trial_rng_is_reproducible():
    a = TrialRng.from_seed(5, 3)
    b = TrialRng.from_seed(5, 3)
    assert a.scenario.uniform() == b.scenario.uniform()
    assert a.channel.standard_normal() == b.channel.standard_normal()
    assert TrialRng.from_seed(5, 4).scenario.uniform() != TrialRng.from_seed(5, 3).scenario.uniform()


def test_trial_rng_streams_are_independent():
    a = TrialRng.from_seed(9, 0)
    b = TrialRng.from_seed(9, 0)
    b.channel.standard_normal(100)  # consuming one stream leaves the others alone
    assert a.scenario.uniform() == b.scenario.uniform()
    assert a.ftm.standard_normal() == b.ftm.standard_normal()


def test_rewind_restarts_the_streams_a_grid_point_consumes():
    rng, fresh = TrialRng.from_seed(9, 1), TrialRng.from_seed(9, 1)

    def draws(r):
        return [r.sweep.standard_normal(3), r.ftm.standard_normal(2), r.aux.standard_normal(2)]

    first = draws(rng)
    rng.rewind()
    for got, want in zip(draws(rng), first):
        np.testing.assert_array_equal(got, want)
    for got, want in zip(first, draws(fresh)):
        np.testing.assert_array_equal(got, want)


def test_refinement_draws_only_from_its_own_stream():
    # One trial in best and in aux mode leaves every stream but aux in the
    # same state, and a best-mode trial never builds the aux generator.
    scene = make_scenario_sampler(small_cfg())(TrialRng.from_seed(2, 0).scenario)
    after = {}
    for mode in ("best", "aux"):
        after[mode] = TrialRng.from_seed(2, 0)
        cfg = small_cfg(tx_upa=((8, 8),), rx_upa=((8, 8),), beam=(mode,))
        run_trial(cfg, Trial.start(scene, after[mode]))
    for name in ("scenario", "channel", "sweep", "ftm"):
        assert getattr(after["best"], name).bit_generator.state == getattr(after["aux"], name).bit_generator.state
    assert "aux" not in vars(after["best"])
    assert after["aux"].aux.bit_generator.state != TrialRng.from_seed(2, 0).aux.bit_generator.state


# ---------------------------------------------------------------------------
# scenarios and observations

def test_scenario_rejects_coincident_points():
    p = np.zeros(3)
    with pytest.raises(ValueError):
        Scenario(p, p + 1e-12, np.array([1.0, 0, 0]), np.array([0, 1.0, 0]))


def test_synthesized_observations_are_exact():
    s = Scenario(
        np.zeros(3), np.array([2.0, 0.0, 0.0]),
        np.array([1.0, 1.0, 0.0]), np.array([0.0, 2.0, 0.0]),
    )
    obs1, obs2 = synthesize_observations(s)
    assert math.isclose(obs1.aod.azimuth, math.pi / 4)
    assert math.isclose(obs1.aod.elevation, math.pi / 2)
    assert math.isclose(obs1.aoa.azimuth, 3 * math.pi / 4)
    assert math.isclose(obs1.path_length, 2 * math.sqrt(2.0))
    assert (obs1.timestamp, obs2.timestamp) == (1, 0)
    assert math.isclose(obs2.path_length, 2.0 + 2 * math.sqrt(2.0))


def test_sampler_respects_box_coverage_and_degeneracy_guards():
    cfg = ExperimentConfig()
    sample = make_scenario_sampler(cfg)
    rng = np.random.default_rng(4)
    (x_lo, x_hi), (y_lo, y_hi), (z_lo, z_hi) = cfg.target_box
    ap_yaw, sta_yaw = math.radians(cfg.ap_yaw_deg), math.radians(cfg.sta_yaw_deg)
    for _ in range(50):
        s = sample(rng)
        for t in (s.target1_pos, s.target2_pos):
            assert x_lo <= t[0] <= x_hi and y_lo <= t[1] <= y_hi and z_lo <= t[2] <= z_hi
        for anchor, yaw in ((s.ap_pos, ap_yaw), (s.sta_pos, sta_yaw)):
            for t in (s.target1_pos, s.target2_pos):
                d = t - anchor
                el = math.acos(d[2] / np.linalg.norm(d))
                az = (math.atan2(d[1], d[0]) - yaw + math.pi) % (2 * math.pi) - math.pi
                assert abs(az) <= AZIMUTH_HALF_SPAN + 1e-12
                assert ELEVATION_MIN - 1e-12 <= el <= ELEVATION_MAX + 1e-12


def in_coverage(direction, yaw):
    """Oracle: whether a unit direction, turned into the frame of a terminal
    yawed by yaw, lies in the coverage sector."""
    local = _to_local(angles_from_direction(direction), yaw)
    return abs(local.azimuth) <= AZIMUTH_HALF_SPAN and ELEVATION_MIN <= local.elevation <= ELEVATION_MAX


def reference_point_test(cfg):
    """Oracle of the sampler's one-point test on unit direction vectors: a
    candidate's projected (AP, STA) directions, or None when it is within
    1 mm of a terminal, out of either terminal's coverage, or normal to
    the primary plane."""
    plane = ProjectionPlane.from_name(cfg.planes[0])
    terminals = [
        (np.asarray(cfg.ap_pos, dtype=float), math.radians(cfg.ap_yaw_deg)),
        (np.asarray(cfg.sta_pos, dtype=float), math.radians(cfg.sta_yaw_deg)),
    ]

    def test(t):
        dirs = [t - origin for origin, _ in terminals]
        if min(float(np.linalg.norm(d)) for d in dirs) < 1e-3:
            return None
        units = [d / np.linalg.norm(d) for d in dirs]
        if not all(in_coverage(u, yaw) for u, (_, yaw) in zip(units, terminals)):
            return None
        try:
            return [project(plane, u) for u in units]
        except DegenerateProjection:
            return None

    return test


def reference_scenario_sampler(cfg, max_tries=sim._SAMPLER_MAX_TRIES):
    """The slot-filling sampler in numpy: each attempt draws two candidate
    points, a candidate that passes the one-point oracle takes the first
    empty slot, and once both slots are full the pair tests run (with the
    projection oracle of test_geom for the pair angles); on failure both
    slots empty."""
    plane = ProjectionPlane.from_name(cfg.planes[0])
    point_test = reference_point_test(cfg)

    def pair_ok(t1, shadows1, t2, shadows2):
        if float(np.linalg.norm(t1 - t2)) < 1e-3:
            return False
        aod_pair = clockwise_angle(plane, shadows1[0], shadows2[0])
        aoa_pair = clockwise_angle(plane, shadows1[1], shadows2[1])
        return min(collinear_gap(aod_pair), collinear_gap(aoa_pair)) >= cfg.min_pair_angle

    def sample(rng):
        slots = []
        for _ in range(max_tries):
            for _ in range(2):
                t = np.array([rng.uniform(lo, hi) for lo, hi in cfg.target_box])
                shadows = point_test(t) if len(slots) < 2 else None
                if shadows is not None:
                    slots.append((t, shadows))
            if len(slots) == 2:
                if pair_ok(*slots[0], *slots[1]):
                    return Scenario(cfg.ap_pos, cfg.sta_pos, slots[0][0], slots[1][0])
                slots = []
        raise RuntimeError("scenario sampler exhausted its rejection budget")

    return sample


def joint_rejection_pairs(cfg, seed, scenes, batch=20000):
    """Joint rejection, vectorized: draw reflector pairs uniformly on the
    box and keep, in draw order, each pair whose two reflectors pass every
    one-point test and whose pair passes the pair tests.  Returns a
    (scenes, 2, 3) array."""
    plane = ProjectionPlane.from_name(cfg.planes[0])
    _, u1, u2 = projector(plane)
    lo, hi = np.array(cfg.target_box).T
    rng = np.random.default_rng(seed)
    kept = []
    while sum(len(k) for k in kept) < scenes:
        pts = rng.uniform(lo, hi, size=(batch, 2, 3))
        ok = np.linalg.norm(pts[:, 0] - pts[:, 1], axis=-1) >= 1e-3
        gaps = []
        for origin, yaw_deg in ((cfg.ap_pos, cfg.ap_yaw_deg), (cfg.sta_pos, cfg.sta_yaw_deg)):
            d = pts - np.asarray(origin, dtype=float)
            n = np.linalg.norm(d, axis=-1)
            unit = d / n[..., None]
            elevation = np.arctan2(np.hypot(unit[..., 0], unit[..., 1]), unit[..., 2])
            azimuth = (np.arctan2(unit[..., 1], unit[..., 0]) - math.radians(yaw_deg) + math.pi) % TAU - math.pi
            x, y = unit @ u1, unit @ u2
            ok &= np.all(
                (n >= 1e-3) & (np.abs(azimuth) <= AZIMUTH_HALF_SPAN)
                & (elevation >= ELEVATION_MIN) & (elevation <= ELEVATION_MAX)
                & (np.hypot(x, y) >= EPS_PROJECTION),
                axis=-1,
            )
            pair = (np.arctan2(y[:, 0], x[:, 0]) - np.arctan2(y[:, 1], x[:, 1])) % TAU
            gaps.append(np.minimum.reduce([pair, np.abs(pair - math.pi), TAU - pair]))
        ok &= np.minimum(*gaps) >= cfg.min_pair_angle
        kept.append(pts[ok])
    return np.concatenate(kept)[:scenes]


class ScriptedRng:
    """A seeded generator whose first uniform draws are given values (each
    inside the range asked for), then its own stream."""

    def __init__(self, seed, lead=()):
        self.gen = np.random.default_rng(seed)
        self.lead = list(lead)
        self.calls = 0

    def uniform(self, lo, hi):
        self.calls += 1
        if not self.lead:
            return self.gen.uniform(lo, hi)
        value = self.lead.pop(0)
        assert lo <= value <= hi
        return value

    @property
    def state(self):
        return len(self.lead), self.gen.bit_generator.state


def coverage_edge_draws(cfg):
    """Attempts (six uniforms each) pairing a reflector next to a coverage
    edge with a box point both terminals cover.  Each edge point lies
    1e-12 rad inside or outside a sector bound, as seen from the AP or the
    STA, and inside the box.  That is far above the rounding of either
    coverage chain (about 1e-16 rad; one ulp off a bound, the two can
    round to opposite sides) and far below any slack a coverage test
    might add."""
    box = cfg.target_box
    ap, sta = np.asarray(cfg.ap_pos, dtype=float), np.asarray(cfg.sta_pos, dtype=float)
    yaws = math.radians(cfg.ap_yaw_deg), math.radians(cfg.sta_yaw_deg)
    grid = (np.array(p) for p in product(*(np.linspace(lo, hi, 7)[1:-1] for lo, hi in box)))
    partner = next(
        (
            p.tolist() for p in grid
            if all(in_coverage((p - o) / np.linalg.norm(p - o), yaw) for o, yaw in zip((ap, sta), yaws))
        ),
        None,
    )
    if partner is None:
        return []
    offsets = (-1e-12, 1e-12)
    angles = [
        (bound + off, el)
        for bound in (-AZIMUTH_HALF_SPAN, AZIMUTH_HALF_SPAN) for off in offsets for el in (1.2, 0.5 * math.pi, 1.9)
    ]
    angles += [
        (az, bound + off)
        for bound in (ELEVATION_MIN, ELEVATION_MAX) for off in offsets for az in (-0.5, -0.2, 0.0, 0.2, 0.5)
    ]
    draws = []
    for terminal, yaw_deg in ((cfg.ap_pos, cfg.ap_yaw_deg), (cfg.sta_pos, cfg.sta_yaw_deg)):
        for az, el in angles:
            for r in (0.37, 0.6, 0.8, 1.0, 1.3, 1.6):
                d = direction_from_angles(SphericalAngles(az + math.radians(yaw_deg), el))
                t = [float(c) for c in np.asarray(terminal) + r * d]
                if all(lo <= c <= hi for c, (lo, hi) in zip(t, box)):
                    draws += t + partner + partner + t
    return draws


def assert_samplers_agree(cfg, seed, scenes, max_tries=sim._SAMPLER_MAX_TRIES, lead=()):
    """Both samplers on twin generators that first replay lead: the same
    scenes, the same generator state after every call, and the same
    exhaustion."""
    with mock.patch.object(sim, "_SAMPLER_MAX_TRIES", max_tries):
        fast = make_scenario_sampler(cfg)
        slow = reference_scenario_sampler(cfg, max_tries)
        rng_fast, rng_slow = ScriptedRng(seed, lead), ScriptedRng(seed, lead)
        for _ in range(scenes):
            try:
                want = slow(rng_slow)
            except RuntimeError:
                with pytest.raises(RuntimeError, match="rejection budget"):
                    fast(rng_fast)
                assert rng_fast.state == rng_slow.state
                return
            got = fast(rng_fast)
            np.testing.assert_array_equal(got.target1_pos, want.target1_pos)
            np.testing.assert_array_equal(got.target2_pos, want.target2_pos)
            assert rng_fast.state == rng_slow.state


def test_sampler_matches_the_scalar_reference_on_a_shared_stream():
    cfg = ExperimentConfig()
    edges = coverage_edge_draws(cfg)
    assert len(edges) >= 6 * 50
    assert_samplers_agree(cfg, seed=8, scenes=400, lead=edges)


@st.composite
def sampler_configs(draw):
    # The default layout (AP and STA on a baseline, arrays facing each
    # other, the box beside the baseline) with drawn sizes, offsets and
    # yaw errors, turned by a multiple of 90 degrees about z so the box
    # stays axis-aligned.
    length = draw(st.floats(0.5, 4.0))
    x_lo = length * draw(st.floats(-0.1, 0.5))
    y_lo = length * draw(st.floats(-0.5, 0.5))
    z_lo = length * draw(st.floats(-0.8, 0.2))
    box = (
        (x_lo, x_lo + length * draw(st.floats(0.3, 1.0))),
        (y_lo, y_lo + length * draw(st.floats(0.2, 2.0))),
        (z_lo, z_lo + length * draw(st.floats(0.2, 1.5))),
    )
    quarter = draw(st.integers(0, 3))
    ox, oy, oz = (draw(st.floats(-3.0, 3.0)) for _ in range(3))

    def turn(x, y):
        for _ in range(quarter):
            x, y = -y, x
        return x, y

    corners = [turn(x, y) for x in box[0] for y in box[1]]
    xs, ys = [x + ox for x, _ in corners], [y + oy for _, y in corners]
    sta_x, sta_y = turn(length, 0.0)
    return ExperimentConfig(
        ap_pos=(ox, oy, oz),
        sta_pos=(sta_x + ox, sta_y + oy, oz + draw(st.floats(-0.5, 0.5))),
        ap_yaw_deg=90.0 * quarter + draw(st.floats(-20.0, 20.0)),
        sta_yaw_deg=180.0 + 90.0 * quarter + draw(st.floats(-20.0, 20.0)),
        target_box=((min(xs), max(xs)), (min(ys), max(ys)), (box[2][0] + oz, box[2][1] + oz)),
        planes=(draw(st.sampled_from(["yoz", "xoy", "xoz", "zoy", "yox", "zox"])),),
        min_pair_angle=draw(st.floats(0.0, 0.1)),
    )


edge_boxes = st.sampled_from([
    # The default box, and boxes straddling one coverage edge of the
    # default AP/STA pair: the elevation cones (|z| = horizontal distance)
    # and the azimuth wedges (60 degrees off each broadside).
    ((0.0, 2.0), (0.5, 4.0), (-1.0, 1.0)),
    ((0.2, 0.8), (0.5, 1.5), (0.3, 1.2)),
    ((0.9, 1.1), (-0.2, 0.4), (-0.3, 0.3)),
    ((0.2, 1.8), (0.2, 1.0), (-0.2, 0.2)),
    ((1.2, 1.8), (-1.5, -0.5), (-1.2, -0.3)),
])


@settings(max_examples=40)
@given(cfg=sampler_configs(), seed=st.integers(0, 2**32 - 1))
def test_sampler_matches_the_scalar_reference_for_drawn_configs(cfg, seed):
    assert_samplers_agree(cfg, seed, scenes=20, max_tries=400, lead=coverage_edge_draws(cfg))


@settings(max_examples=30)
@given(
    box=edge_boxes,
    ap_yaw=st.sampled_from([0.0, -5.0, 3.0]),
    sta_yaw=st.sampled_from([180.0, 175.0, -178.0]),
    plane=st.sampled_from(["yoz", "xoy", "xoz"]),
    min_pair_angle=st.floats(0.0, 0.3),
    seed=st.integers(0, 2**32 - 1),
)
def test_sampler_matches_the_scalar_reference_on_boxes_straddling_coverage(
    box, ap_yaw, sta_yaw, plane, min_pair_angle, seed
):
    cfg = ExperimentConfig(
        target_box=box, ap_yaw_deg=ap_yaw, sta_yaw_deg=sta_yaw, planes=(plane,),
        min_pair_angle=min_pair_angle,
    )
    assert_samplers_agree(cfg, seed, scenes=20, max_tries=400, lead=coverage_edge_draws(cfg))


def test_sampler_is_a_pure_function_of_the_stream():
    sample = make_scenario_sampler(ExperimentConfig())
    a = sample(np.random.default_rng(77))
    b = sample(np.random.default_rng(77))
    np.testing.assert_array_equal(a.target1_pos, b.target1_pos)
    np.testing.assert_array_equal(a.target2_pos, b.target2_pos)


def test_every_scene_takes_a_multiple_of_six_uniform_calls():
    # Each attempt draws two candidate points, whatever the slots hold.
    sample = make_scenario_sampler(ExperimentConfig(min_pair_angle=0.3))
    rng = ScriptedRng(3)
    for _ in range(200):
        before = rng.calls
        sample(rng)
        assert rng.calls > before and (rng.calls - before) % 6 == 0


def ks_distance(a, b):
    """Two-sample Kolmogorov-Smirnov statistic: the largest gap between
    the two empirical distribution functions."""
    grid = np.concatenate([a, b])
    cdf_a = np.searchsorted(np.sort(a), grid, side="right") / len(a)
    cdf_b = np.searchsorted(np.sort(b), grid, side="right") / len(b)
    return float(np.max(np.abs(cdf_a - cdf_b)))


KS_SCENES = 2000
#: Critical value of the two-sample KS statistic at alpha = 0.001 for two
#: samples of KS_SCENES: sqrt(-ln(alpha / 2) / 2) * sqrt(2 / KS_SCENES).
KS_CRITICAL = math.sqrt(-math.log(0.001 / 2) / 2) * math.sqrt(2 / KS_SCENES)


@pytest.mark.parametrize(
    "cfg",
    [ExperimentConfig(), ExperimentConfig(min_pair_angle=0.3)],
    ids=["default", "wide-gap"],
)
def test_sampler_draws_the_joint_rejection_distribution(cfg):
    # Slot filling and joint rejection accept a pair with the same density,
    # proportional to 1[C(t1)] 1[C(t2)] 1[P(t1, t2)]: compare each reflector
    # coordinate, and the pair separation, on fixed seeds.
    sample = make_scenario_sampler(cfg)
    rng = np.random.default_rng(17)
    slots = np.array([[s.target1_pos, s.target2_pos] for s in (sample(rng) for _ in range(KS_SCENES))])
    joint = joint_rejection_pairs(cfg, seed=18, scenes=KS_SCENES)
    columns = [(f"t{i + 1}[{axis}]", (slice(None), i, axis)) for i in range(2) for axis in range(3)]
    distances = {
        name: ks_distance(slots[index], joint[index]) for name, index in columns
    }
    distances["separation"] = ks_distance(
        np.linalg.norm(slots[:, 0] - slots[:, 1], axis=-1), np.linalg.norm(joint[:, 0] - joint[:, 1], axis=-1)
    )
    assert max(distances.values()) < KS_CRITICAL, distances


# ---------------------------------------------------------------------------
# single trials

def grid_ray(codebook, index, yaw):
    az = math.asin(float(codebook.sin_az_grid[index])) + yaw
    return np.array([math.cos(az), math.sin(az), 0.0])


def intersect_in_plane(p1, d1, p2, d2):
    t, _ = np.linalg.solve(np.stack([d1[:2], -d2[:2]], axis=1), (p2 - p1)[:2])
    return p1 + t * d1


def test_on_grid_noiseless_trial_is_exact():
    # Flat scene built so every true angle lies exactly on a codebook cell
    # center of the 8x1 arrays; the sweep then reproduces the angles and
    # the whole pipeline is error-free.
    cb = build_codebook(UpaGeometry(8, 1), 1)
    ap, sta = np.zeros(3), np.array([2.0, 0.0, 0.0])
    t1 = intersect_in_plane(ap, grid_ray(cb, 5, 0.0), sta, grid_ray(cb, 2, math.pi))
    t2 = intersect_in_plane(ap, grid_ray(cb, 3, 0.0), sta, grid_ray(cb, 6, math.pi))
    cfg = small_cfg(
        tx_upa=((8, 1),), rx_upa=((8, 1),), snr_db=(math.inf,), ftm_sigma_m=(0.0,),
        trials=1, planes=("xoy",),
    )
    res = run_trial(cfg, Trial.start(Scenario(ap, sta, t1, t2), TrialRng.from_seed(0, 0)))
    assert res.status == "ok"
    assert res.distance_error < 1e-6
    assert math.isinf(res.realized_snr_db)


def test_aux_pipeline_is_exact_without_noise():
    cfg = small_cfg(
        tx_upa=((8, 8),), rx_upa=((8, 8),), snr_db=(math.inf,), ftm_sigma_m=(0.0,),
        beam=("aux",), trials=20, seed=5,
    )
    out = run_experiment(cfg, collect_raw=True)
    assert all(r.status == "ok" for r in out.raw)
    assert max(r.distance_error for r in out.raw) < 1e-6


def test_error_vanishes_at_a_high_fidelity_operating_point():
    # The noiseless limit, probed at finite settings: high SNR, tiny
    # ranging noise, auxiliary refinement.
    cfg = small_cfg(
        tx_upa=((8, 8),), rx_upa=((8, 8),), snr_db=(60.0,), ftm_sigma_m=(1e-6,),
        beam=("aux",), trials=40, seed=3,
    )
    row = run_experiment(cfg).curve[0]
    assert row.n_fail == 0
    assert row.mean_error_m < 1e-3


def test_a_hopeless_scene_fails_as_data():
    # Every point on one line: the projected pairs are collinear, there is
    # no usable partner, and the trial reports the failure instead of a fix.
    ap, sta = np.zeros(3), np.array([0.0, 2.0, 0.0])
    t1, t2 = np.array([0.0, 3.0, 0.0]), np.array([0.0, 4.0, 0.0])
    cfg = small_cfg(snr_db=(math.inf,), ftm_sigma_m=(0.0,), trials=1, planes=("xoy",))
    res = run_trial(cfg, Trial.start(Scenario(ap, sta, t1, t2), TrialRng.from_seed(0, 0)))
    assert res.status == "no_history"
    assert math.isnan(res.distance_error)
    assert np.isnan(res.est_position).all()


# ---------------------------------------------------------------------------
# experiment grid

def test_config_validation():
    with pytest.raises(ValueError):
        small_cfg(trials=0)
    with pytest.raises(ValueError, match="seed"):
        small_cfg(seed=-1)
    with pytest.raises(ValueError):
        small_cfg(beam=())
    with pytest.raises(ValueError):
        small_cfg(beam=("sharp",))
    with pytest.raises(ValueError):
        small_cfg(oversampling=0)
    with pytest.raises(ValueError):
        small_cfg(tx_upa=((4, 4), (8, 8)), rx_upa=((4, 4), (8, 8), (16, 16)))
    with pytest.raises(ValueError):
        small_cfg(snr_db=(0.0, 10.0)).single()
    with pytest.raises(ValueError, match="planes"):
        small_cfg(planes=("abc",))
    with pytest.raises(ValueError, match="tx_upa"):
        small_cfg(tx_upa=((0, 4),))
    with pytest.raises(ValueError, match="table_capacity"):
        small_cfg(table_capacity=0)
    with pytest.raises(ValueError, match="ap_pos"):
        small_cfg(ap_pos=(1.0, 2.0, 3.0), sta_pos=(1.0, 2.0, 3.0))
    with pytest.raises(ValueError, match="ftm_sigma_m"):
        small_cfg(ftm_sigma_m=(0.01, -0.5))
    for box in (((0.0, 2.0),), ((0.0, 2.0), (0.5, 4.0), (1.0, 1.0)), ((0.0, 2.0), (0.5, 4.0), (-1.0, 1.0, 2.0))):
        with pytest.raises(ValueError, match="target_box"):
            small_cfg(target_box=box)
    with pytest.raises(ValueError, match="snr_db"):
        small_cfg(snr_db=(20.0, math.nan))
    for angle in (-0.1, 0.5 * math.pi, 1.6, math.nan):
        with pytest.raises(ValueError, match="min_pair_angle"):
            small_cfg(min_pair_angle=angle)
    for snr in (math.inf, -math.inf):
        assert small_cfg(snr_db=(snr,)).snr_db == (snr,)


def test_upa_lists_broadcast():
    cfg = small_cfg(tx_upa=((4, 4),), rx_upa=((4, 4), (8, 8)))
    assert cfg.upa_pairs() == [((4, 4), (4, 4)), ((4, 4), (8, 8))]


def test_grid_rows_follow_the_axis_product_order():
    cfg = small_cfg(
        tx_upa=((2, 2), (4, 4)), rx_upa=((2, 2), (4, 4)),
        snr_db=(0.0, 10.0), beam=("best",), trials=2,
    )
    out = run_experiment(cfg)
    keys = [(r.tx_upa, r.snr_db) for r in out.curve]
    assert keys == [("2x2", 0.0), ("2x2", 10.0), ("4x4", 0.0), ("4x4", 10.0)]
    assert all(r.trials == 2 and r.n_success + r.n_fail == 2 for r in out.curve)


def test_every_grid_point_sees_the_same_scenes():
    cfg = small_cfg(snr_db=(20.0, 25.0), trials=4)
    out = run_experiment(cfg, collect_raw=True)
    first = out.raw[:4]
    second = out.raw[4:]
    for a, b in zip(first, second):
        np.testing.assert_array_equal(a.true_position, b.true_position)


def test_each_trial_is_sampled_once_for_the_whole_grid():
    cfg = small_cfg(ftm_sigma_m=(0.0, 0.005, 0.01, 0.02, 0.05), trials=3, seed=4)
    sample = make_scenario_sampler(cfg)
    calls = []

    def counting(rng):
        calls.append(rng)
        return sample(rng)

    with (
        mock.patch.object(sim, "synthesize_observations", wraps=sim.synthesize_observations) as paths,
        mock.patch.object(TrialRng, "from_seed", wraps=TrialRng.from_seed) as seeded,
    ):
        out = run_experiment(cfg, counting, collect_raw=True)
    assert len(calls) == paths.call_count == seeded.call_count == cfg.trials
    assert len(out.curve) == 5
    for i, r in enumerate(out.raw):
        want = sample(TrialRng.from_seed(cfg.seed, i % cfg.trials).scenario)
        np.testing.assert_array_equal(r.true_position, want.target1_pos)


def test_grid_points_match_trials_run_from_fresh_streams():
    # Later grid points rewind each trial's streams, reuse its paths and,
    # at a later sigma, its beam-trained angles and each plane's angle
    # stage; every result must equal a trial run from freshly seeded
    # streams with no memo, on both planes and on each plane alone.
    planes = ("yoz", "xoy")
    cfg = small_cfg(
        snr_db=(10.0, 30.0), ftm_sigma_m=(0.01, 0.1), beam=("best", "aux"), planes=planes, trials=6, seed=6
    )
    out = run_experiment(cfg, collect_raw=True)
    assert len(out.raw) == 2 * 2 * 2 * cfg.trials
    sample = make_scenario_sampler(cfg)
    points = product(cfg.snr_db, cfg.ftm_sigma_m, cfg.beam, range(cfg.trials))
    mixed = Counter()
    for (snr, sigma, mode, trial), got in zip(points, out.raw, strict=True):
        alone = []
        for subset in (planes, *((p,) for p in planes)):
            rng = TrialRng.from_seed(cfg.seed, trial)
            point = small_cfg(snr_db=(snr,), ftm_sigma_m=(sigma,), beam=(mode,), planes=subset, seed=6)
            want = run_trial(point, Trial.start(sample(rng.scenario), rng))
            if subset == planes:
                for name in ("status", "scene", "distance_error", "realized_snr_db", "est_position"):
                    np.testing.assert_equal(getattr(got, name), getattr(want, name))
            else:
                alone.append(want.status)
        if (alone[0] == "ok") != (alone[1] == "ok"):
            mixed["one plane"] += 1  # the estimate is the solving plane's alone
            assert got.status == "ok"
        elif "ok" not in alone and alone[0] != alone[1]:
            mixed["two failures"] += 1  # the first plane's failure is reported
            assert got.status == alone[0]
        elif alone == ["ok", "ok"]:
            mixed["two positions"] += 1
    assert min(mixed["one plane"], mixed["two failures"], mixed["two positions"]) > 0, mixed


def test_a_sigma_grid_selects_and_solves_each_plane_once_per_trial():
    # Only a trial's first sigma point (its memo fill) selects the
    # partner and runs the angle stage, once per plane; every point runs
    # the range stage once per plane whose angle stage stood, and none
    # runs the full solve.
    cfg = small_cfg(ftm_sigma_m=(0.0, 0.005, 0.01, 0.02, 0.05), planes=("yoz", "xoy"), trials=4, seed=4)
    partners, stood = [], []
    select, angles = sim.select_historical, sim.solve_angles

    def selecting(*args, **kwargs):
        partners.append(select(*args, **kwargs))  # or raises NoUsableHistory
        return partners[-1]

    def staging(*args):
        stood.append(angles(*args))  # or raises a GeomError
        return stood[-1]

    with (
        mock.patch.object(sim, "select_historical", side_effect=selecting) as selected,
        mock.patch.object(sim, "solve_angles", side_effect=staging) as staged,
        mock.patch.object(sim, "solve", wraps=sim.solve) as solved,
        mock.patch.object(sim, "solve_ranges", wraps=sim.solve_ranges) as ranged,
        mock.patch.object(sim, "ftm_distance", wraps=sim.ftm_distance) as ranging,
    ):
        out = run_experiment(cfg, collect_raw=True)
    assert selected.call_count == len(cfg.planes) * cfg.trials
    assert staged.call_count == len(partners) > 0
    solved.assert_not_called()
    assert ranged.call_count == len(cfg.ftm_sigma_m) * len(stood) > 0
    assert ranging.call_count == 2 * len(out.raw)


@pytest.mark.parametrize(
    ("axes", "sweeps", "refines"),
    [
        # Five sigma points share one beam stage per path.
        ({"ftm_sigma_m": (0.0, 0.005, 0.01, 0.02, 0.05), "beam": ("aux",)}, 2, 4),
        # SNR and mode are in the key: 2 SNR x 2 modes train 4 times.
        ({"snr_db": (10.0, 30.0), "ftm_sigma_m": (0.01, 0.1), "beam": ("best", "aux")}, 8, 8),
    ],
)
def test_beams_are_trained_once_per_trial_snr_and_mode(axes, sweeps, refines):
    cfg = small_cfg(trials=3, seed=4, **axes)
    points = len(cfg.snr_db) * len(cfg.ftm_sigma_m) * len(cfg.beam)
    with (
        mock.patch.object(sim, "beam_sweep", wraps=sim.beam_sweep) as sweep,
        mock.patch.object(sim, "aux_beam_refine", wraps=sim.aux_beam_refine) as refine,
        mock.patch.object(sim, "ftm_distance", wraps=sim.ftm_distance) as ranging,
        mock.patch.object(sim, "run_trial", wraps=sim.run_trial) as trial,
    ):
        run_experiment(cfg)
    assert sweep.call_count == sweeps * cfg.trials
    assert refine.call_count == refines * cfg.trials
    # One run_trial per op, and every op draws both ranges afresh.
    assert trial.call_count == points * cfg.trials
    assert ranging.call_count == 2 * points * cfg.trials


def test_bearings_are_taken_once_per_trial_and_plane_across_the_sigma_grid():
    # Only a trial's memo fill reads bearings, and partner selection and
    # the angle stage share each trained observation's bearing memo: two
    # bearings per observation and plane, whatever the grid's sigma count.
    cfg = small_cfg(ftm_sigma_m=(0.0, 0.005, 0.01, 0.02, 0.05), planes=("yoz", "xoy"), trials=3, seed=4)
    with mock.patch("mm3nlos.geom.bearing", wraps=geom.bearing) as counted:
        run_experiment(cfg)
    assert counted.call_count == 4 * len(cfg.planes) * cfg.trials


def test_a_memo_hit_rewinds_only_the_ftm_stream():
    cfg = small_cfg(beam=("aux",), seed=4)
    rng = TrialRng.from_seed(4, 0)
    trial = Trial.start(make_scenario_sampler(cfg)(rng.scenario), rng)
    first = run_trial(cfg, trial)
    ranged = rng.ftm.bit_generator.state
    rng.sweep.standard_normal()
    rng.aux.standard_normal()
    moved = {name: getattr(rng, name).bit_generator.state for name in ("sweep", "aux")}
    with mock.patch.object(sim, "beam_sweep") as sweep:
        again = run_trial(cfg, trial)
    sweep.assert_not_called()
    assert {name: getattr(rng, name).bit_generator.state for name in ("sweep", "aux")} == moved
    assert rng.ftm.bit_generator.state == ranged
    np.testing.assert_equal(again.est_position, first.est_position)
    # A miss (a new SNR) rewinds every stream and trains afresh on the
    # trial's own gains: it equals a fresh trial.
    point = small_cfg(beam=("aux",), snr_db=(10.0,), seed=4)
    want = run_trial(point, Trial.start(trial.scene, TrialRng.from_seed(4, 0)))
    got = run_trial(point, trial)
    np.testing.assert_equal(got.est_position, want.est_position)
    assert len(trial.memo) == 2


def test_a_trial_reused_across_plane_sets_matches_fresh_trials():
    # The plane set is part of the memo key: a trial run on two planes,
    # then on each plane alone, gives at each what a fresh trial gives.
    plane_sets = (("yoz", "xoy"), ("xoy",), ("yoz",))
    cfg = small_cfg(beam=("aux",), seed=6)
    sample = make_scenario_sampler(cfg)
    differs = 0
    for t in range(4):
        rng = TrialRng.from_seed(cfg.seed, t)
        trial = Trial.start(sample(rng.scenario), rng)
        errors = set()
        for planes in plane_sets:
            point = small_cfg(beam=("aux",), planes=planes, seed=6)
            got = run_trial(point, trial)
            want = run_trial(point, Trial.start(trial.scene, TrialRng.from_seed(cfg.seed, t)))
            for name in ("status", "scene", "distance_error", "realized_snr_db", "est_position"):
                np.testing.assert_equal(getattr(got, name), getattr(want, name))
            errors.add(got.distance_error)
        assert len(trial.memo) == len(plane_sets)
        differs += len(errors) > 1
    assert differs > 0  # the plane sets' estimates differ, so a shared entry would show


def test_raw_rows_are_labelled_in_grid_order():
    cfg = small_cfg(
        tx_upa=((2, 2), (4, 4)), rx_upa=((4, 4), (2, 2)), snr_db=(0.0, 10.0),
        ftm_sigma_m=(0.01, 0.1), beam=("best", "aux"), trials=2,
    )
    lines = format_raw_csv(run_experiment(cfg, collect_raw=True)).splitlines()
    labels = [tuple(line.split(",")[:6]) for line in lines[1:]]
    want = [
        (f"{tx[0]}x{tx[1]}", f"{rx[0]}x{rx[1]}", mode, repr(snr), repr(sigma), str(trial))
        for (tx, rx), snr, sigma, mode in product(cfg.upa_pairs(), cfg.snr_db, cfg.ftm_sigma_m, cfg.beam)
        for trial in range(cfg.trials)
    ]
    assert labels == want
    assert len(want) == 2 * 2 * 2 * 2 * cfg.trials


def test_a_minus_infinite_snr_point_reports_minus_infinite_snr():
    out = run_experiment(small_cfg(snr_db=(-math.inf,), trials=3), collect_raw=True)
    assert [r.realized_snr_db for r in out.raw] == [-math.inf] * 3


@pytest.mark.parametrize("snr", [math.inf, -math.inf])
def test_an_infinite_snr_point_averages_to_its_infinity(snr):
    out = run_experiment(small_cfg(snr_db=(snr,), trials=3), collect_raw=True)
    assert [r.realized_snr_db for r in out.raw] == [snr] * 3
    assert out.curve[0].realized_snr_db_mean == snr


def test_snr_mean_is_nan_when_the_trials_reach_different_infinities():
    results = [
        sim.TrialResult(np.zeros(3), np.full(3, math.nan), math.nan, None, snr, "no_history")
        for snr in (math.inf, -math.inf)
    ]
    assert math.isnan(sim._aggregate(small_cfg(), results).realized_snr_db_mean)
    assert sim._aggregate(small_cfg(), results[:1] * 2).realized_snr_db_mean == math.inf


def test_progress_callback_sees_every_row():
    cfg = small_cfg(snr_db=(0.0, 20.0), trials=2)
    seen = []
    out = run_experiment(cfg, progress=seen.append)
    assert seen == out.curve


def test_identical_seeds_give_identical_output():
    cfg = small_cfg(trials=6)
    a = run_experiment(cfg, collect_raw=True)
    b = run_experiment(cfg, collect_raw=True)
    assert format_curve_csv(a.curve) == format_curve_csv(b.curve)
    assert format_raw_csv(a) == format_raw_csv(b)
    c = run_experiment(small_cfg(trials=6, seed=1))
    assert format_curve_csv(c.curve) != format_curve_csv(a.curve)


def test_curve_csv_layout():
    assert curve_csv_header() == (
        "tx_upa,rx_upa,beam,snr_db,ftm_sigma_m,trials,n_success,n_fail,"
        "failure_rate,mean_error_m,stderr_m,p50,p90,realized_snr_db_mean"
    )
    cfg = small_cfg(trials=3)
    out = run_experiment(cfg)
    row = out.curve[0]
    line = format_curve_row(row)
    assert line.split(",")[0] == "4x4"
    assert len(line.split(",")) == len(curve_csv_header().split(","))
    text = format_curve_csv(out.curve)
    assert text.startswith(curve_csv_header() + "\n")
    assert text.endswith("\n")


def test_raw_csv_requires_collection():
    out = run_experiment(small_cfg(trials=2))
    with pytest.raises(ValueError):
        format_raw_csv(out)


def test_aggregate_statistics_are_consistent():
    cfg = small_cfg(trials=30, seed=2)
    out = run_experiment(cfg, collect_raw=True)
    row = out.curve[0]
    errs = [r.distance_error for r in out.raw if r.status == "ok"]
    assert row.n_success == len(errs)
    assert math.isclose(row.mean_error_m, float(np.mean(errs)), rel_tol=1e-12)
    assert row.p50 <= row.p90
    assert math.isclose(row.failure_rate, row.n_fail / row.trials)


def test_oracle_suite_is_green():
    results = run_oracle_suite(seed=1, scenes=60)
    assert [name for name, ok, _ in results if not ok] == []
    assert len(results) == 3


@pytest.mark.parametrize("scenes", [0, -3])
def test_oracle_suite_rejects_a_scene_count_below_one(scenes):
    with pytest.raises(ValueError, match="scenes"):
        run_oracle_suite(seed=1, scenes=scenes)


def test_oracle_suite_lets_programmer_errors_escape(monkeypatch):
    # Only geometry failures count as failed round trips; anything else is
    # a bug and must surface.
    def broken_solve(*args, **kwargs):
        raise TypeError("broken solver")

    monkeypatch.setattr(sim, "solve", broken_solve)
    with pytest.raises(TypeError, match="broken solver"):
        run_oracle_suite(seed=1, scenes=2)
