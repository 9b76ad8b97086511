"""End-to-end trial, experiment grid, and reproducibility tests."""

import math
from itertools import product
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_geom import clockwise_angle, project

from mm3nlos import sim
from mm3nlos.channel import AZIMUTH_HALF_SPAN, ELEVATION_MAX, ELEVATION_MIN, build_codebook, UpaGeometry
from mm3nlos.geom import (
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
        run_trial(cfg, scene, after[mode])
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


def reference_scenario_sampler(cfg, max_tries=sim._SAMPLER_MAX_TRIES):
    """The rejection sampler in numpy: every attempt runs the full chain of
    distance, coverage and degeneracy checks on unit direction vectors,
    with the projection oracle of test_geom for the pair angles."""
    ap = np.asarray(cfg.ap_pos, dtype=float)
    sta = np.asarray(cfg.sta_pos, dtype=float)
    plane = ProjectionPlane.from_name(cfg.planes[0])
    ap_yaw = math.radians(cfg.ap_yaw_deg)
    sta_yaw = math.radians(cfg.sta_yaw_deg)
    (x_lo, x_hi), (y_lo, y_hi), (z_lo, z_hi) = cfg.target_box

    def sample(rng):
        for _ in range(max_tries):
            t1 = np.array([rng.uniform(x_lo, x_hi), rng.uniform(y_lo, y_hi), rng.uniform(z_lo, z_hi)])
            t2 = np.array([rng.uniform(x_lo, x_hi), rng.uniform(y_lo, y_hi), rng.uniform(z_lo, z_hi)])
            if min(
                float(np.linalg.norm(t1 - t2)),
                float(np.linalg.norm(t1 - ap)),
                float(np.linalg.norm(t1 - sta)),
                float(np.linalg.norm(t2 - ap)),
                float(np.linalg.norm(t2 - sta)),
            ) < 1e-3:
                continue
            dirs = {
                "aod1": t1 - ap, "aod2": t2 - ap,
                "aoa1": t1 - sta, "aoa2": t2 - sta,
            }
            units = {k: v / np.linalg.norm(v) for k, v in dirs.items()}
            if not all(in_coverage(v, ap_yaw if k.startswith("aod") else sta_yaw) for k, v in units.items()):
                continue
            try:
                shadows = {k: project(plane, v) for k, v in units.items()}
            except DegenerateProjection:
                continue
            aod_pair = clockwise_angle(plane, shadows["aod1"], shadows["aod2"])
            aoa_pair = clockwise_angle(plane, shadows["aoa1"], shadows["aoa2"])
            if min(collinear_gap(aod_pair), collinear_gap(aoa_pair)) < cfg.min_pair_angle:
                continue
            return Scenario(ap, sta, t1, t2, cfg.planes[0])
        raise RuntimeError("scenario sampler exhausted its rejection budget")

    return sample


class ScriptedRng:
    """A seeded generator whose first uniform draws are given values (each
    inside the range asked for), then its own stream."""

    def __init__(self, seed, lead=()):
        self.gen = np.random.default_rng(seed)
        self.lead = list(lead)

    def uniform(self, lo, hi):
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
            assert got.plane_name == want.plane_name
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
    res = run_trial(cfg, Scenario(ap, sta, t1, t2, "xoy"), TrialRng.from_seed(0, 0))
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
    res = run_trial(cfg, Scenario(ap, sta, t1, t2, "xoy"), TrialRng.from_seed(0, 0))
    assert res.status == "no_history"
    assert math.isnan(res.distance_error)
    assert np.isnan(res.est_position).all()


# ---------------------------------------------------------------------------
# experiment grid

def test_config_validation():
    with pytest.raises(ValueError):
        small_cfg(trials=0)
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
    # Later grid points rewind each trial's streams and reuse its paths;
    # every result must equal a trial run from freshly seeded streams.
    cfg = small_cfg(snr_db=(10.0, 30.0), beam=("best", "aux"), trials=3, seed=6)
    out = run_experiment(cfg, collect_raw=True)
    sample = make_scenario_sampler(cfg)
    for key, got in zip(out.raw_keys, out.raw):
        _, _, mode, snr, _, trial = key
        rng = TrialRng.from_seed(cfg.seed, trial)
        want = run_trial(small_cfg(snr_db=(snr,), beam=(mode,), seed=6), sample(rng.scenario), rng)
        for name in ("status", "distance_error", "realized_snr_db", "est_position"):
            np.testing.assert_equal(getattr(got, name), getattr(want, name))


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


def test_oracle_suite_lets_programmer_errors_escape(monkeypatch):
    # Only geometry failures count as failed round trips; anything else is
    # a bug and must surface.
    def broken_solve(*args, **kwargs):
        raise TypeError("broken solver")

    monkeypatch.setattr(sim, "solve", broken_solve)
    with pytest.raises(TypeError, match="broken solver"):
        run_oracle_suite(seed=1, scenes=2)
