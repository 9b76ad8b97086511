"""Geometry solver tests.

Oracle scenes are built forward: place the terminals and reflectors,
read off exact angles and path lengths, then require the solver to
recover the reflector range and position from those measurements alone.
"""

import dataclasses
import functools
import math

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from mm3nlos import geom
from mm3nlos.geom import (
    EPS_COLLINEAR,
    EPS_PROJECTION,
    DegenerateProjection,
    GeomError,
    InconsistentGeometry,
    PathObservation,
    ProjectionPlane,
    SceneType,
    SolveResult,
    SphericalAngles,
    Unsolvable,
    ZeroVector,
    angles_from_direction,
    bearing,
    classify_scene,
    collinear_gap,
    direction_from_angles,
    localize,
    pair_unsolvable,
    reflex_reduce,
    solve,
    solve_angles,
    solve_ranges,
)

TAU = 2.0 * math.pi
YOZ = ProjectionPlane.from_name("yoz")
XOY = ProjectionPlane.from_name("xoy")
XOZ = ProjectionPlane.from_name("xoz")
# A plane whose frame is not made of coordinate axes.
TILTED = ProjectionPlane(*np.random.default_rng(7).normal(size=(2, 3)))


@functools.cache
def projector(plane):
    """Oracle: the orthogonal projector onto span(b1, b2) and the in-plane
    frame u1 = b1 / |b1|, u2 = n x u1, built once per plane."""
    basis = np.stack([plane.b1, plane.b2], axis=1)
    u1 = plane.b1 / np.linalg.norm(plane.b1)
    return basis @ np.linalg.solve(basis.T @ basis, basis.T), u1, np.cross(plane.normal, u1)


def project(plane, direction):
    """Oracle: orthogonal projection of a direction onto the plane."""
    shadow = projector(plane)[0] @ np.asarray(direction, dtype=float)
    if float(np.linalg.norm(shadow)) < EPS_PROJECTION:
        raise DegenerateProjection("direction is normal to the projection plane")
    return shadow


def clockwise_angle(plane, p, q):
    """Oracle: clockwise angle from p to q about the plane normal, in [0, 2*pi)."""
    _, u1, u2 = projector(plane)

    def azimuth(vec):
        x, y = float(vec @ u1), float(vec @ u2)
        if math.hypot(x, y) < EPS_PROJECTION:
            raise ZeroVector("a (nearly) zero in-plane vector has no angle")
        return math.atan2(y, x)

    return (azimuth(p) - azimuth(q)) % TAU


def observe(ap, sta, target, timestamp=0):
    """Exact measurement of the single-bounce path via the given point."""
    ap = np.asarray(ap, dtype=float)
    sta = np.asarray(sta, dtype=float)
    target = np.asarray(target, dtype=float)
    return PathObservation(
        aod=angles_from_direction(target - ap),
        aoa=angles_from_direction(target - sta),
        path_length=float(np.linalg.norm(target - ap) + np.linalg.norm(target - sta)),
        snr_db=math.inf,
        timestamp=timestamp,
    )


def sample_scene(rng, plane, span=3.0, min_sep=0.05, min_angle=1e-3):
    """Four distinct random points, rejecting near-degenerate projections."""
    while True:
        pts = rng.uniform(-span, span, size=(4, 3))
        ap, sta, t1, t2 = pts
        if min(np.linalg.norm(a - b) for i, a in enumerate(pts) for b in pts[i + 1:]) < min_sep:
            continue
        dirs = [t1 - ap, t2 - ap, t1 - sta, t2 - sta]
        try:
            proj = [project(plane, d / np.linalg.norm(d)) for d in dirs]
        except DegenerateProjection:
            continue
        aod_pair = clockwise_angle(plane, proj[0], proj[1])
        aoa_pair = clockwise_angle(plane, proj[2], proj[3])
        if min(collinear_gap(aod_pair), collinear_gap(aoa_pair)) < min_angle:
            continue
        return ap, sta, t1, t2


# ---------------------------------------------------------------------------
# directions and angles

def test_direction_from_angles_components():
    e = direction_from_angles(SphericalAngles(math.pi / 4, math.pi / 2))
    np.testing.assert_allclose(e, [math.sqrt(0.5), math.sqrt(0.5), 0.0], atol=1e-15)
    np.testing.assert_allclose(direction_from_angles(SphericalAngles(0.3, 0.0)), [0, 0, 1], atol=1e-15)


@given(
    az=st.floats(-math.pi + 1e-6, math.pi - 1e-6),
    el=st.floats(1e-3, math.pi - 1e-3),
)
def test_direction_angle_round_trip(az, el):
    back = angles_from_direction(direction_from_angles(SphericalAngles(az, el)))
    assert math.isclose(back.azimuth, az, abs_tol=1e-9)
    assert math.isclose(back.elevation, el, abs_tol=1e-9)


def test_angles_of_unnormalized_vector():
    a = angles_from_direction(np.array([0.0, 0.0, -7.5]))
    assert a.azimuth == 0.0  # poles pin the azimuth to zero
    assert math.isclose(a.elevation, math.pi)


@pytest.mark.parametrize("elevation", [1e-10, 1e-8, 1e-6, 1e-3])
def test_angles_return_a_small_elevation_to_a_few_ulp(elevation):
    # Directions at a known angle from +z and from -z, all around the axis.
    for phi in np.linspace(0.0, TAU, 12, endpoint=False):
        for z_sign, want in ((1.0, elevation), (-1.0, math.pi - elevation)):
            shadow = math.sin(elevation)
            d = np.array([shadow * math.cos(phi), shadow * math.sin(phi), z_sign * math.cos(elevation)])
            assert abs(angles_from_direction(d).elevation - want) <= 2.0 * math.ulp(want), (phi, z_sign)


def test_angles_of_zero_vector_raise():
    with pytest.raises(ZeroVector):
        angles_from_direction(np.zeros(3))


def test_direction_is_unit_norm():
    for az, el in [(0.0, 0.1), (-2.5, 1.0), (3.0, 2.9)]:
        assert math.isclose(float(np.linalg.norm(direction_from_angles(SphericalAngles(az, el)))), 1.0)


# ---------------------------------------------------------------------------
# planes and projections

def test_plane_from_name_normals():
    np.testing.assert_allclose(YOZ.normal, [1, 0, 0], atol=1e-15)
    np.testing.assert_allclose(XOY.normal, [0, 0, 1], atol=1e-15)


def test_named_planes_are_shared_and_read_only():
    assert ProjectionPlane.from_name(" YOZ ") is ProjectionPlane.from_name("yoz")
    for arr in (YOZ.b1, YOZ.b2, YOZ.normal):
        with pytest.raises(ValueError):
            arr[0] = 0.5
    basis = np.array([1.0, 0.0, 0.0])
    ProjectionPlane(basis, [0.0, 1.0, 0.0])
    basis[0] = 2.0  # the plane keeps its own copy; the caller's array stays writable


@pytest.mark.parametrize("name", ["abc", "yy", "xox", "xy", "", "xoyz"])
def test_plane_bad_names_raise(name):
    with pytest.raises(ValueError):
        ProjectionPlane.from_name(name)


def test_project_drops_the_normal_component():
    np.testing.assert_allclose(project(YOZ, np.array([0.7, -1.2, 3.4])), [0.0, -1.2, 3.4], atol=1e-15)


def test_project_is_idempotent():
    rng = np.random.default_rng(5)
    for _ in range(50):
        v = rng.normal(size=3)
        once = project(XOY, v)
        np.testing.assert_allclose(project(XOY, once), once, atol=1e-12)


def test_project_normal_direction_raises():
    with pytest.raises(DegenerateProjection):
        project(YOZ, np.array([1.0, 0.0, 0.0]))


def test_clockwise_angle_quarter_turns():
    y = np.array([0.0, 1.0, 0.0])
    z = np.array([0.0, 0.0, 1.0])
    # About the +x normal of yoz, going from +y to +z is a 3/4 clockwise turn.
    assert math.isclose(clockwise_angle(YOZ, y, z), 1.5 * math.pi)
    assert math.isclose(clockwise_angle(YOZ, z, y), 0.5 * math.pi)


def test_clockwise_angle_of_zero_vector_raises():
    with pytest.raises(ZeroVector):
        clockwise_angle(YOZ, np.zeros(3), np.array([0.0, 1.0, 0.0]))


@given(a=st.floats(0.0, TAU - 1e-9), b=st.floats(0.0, TAU - 1e-9))
def test_clockwise_angles_of_a_pair_sum_to_a_full_turn(a, b):
    p = np.array([0.0, math.cos(a), math.sin(a)])
    q = np.array([0.0, math.cos(b), math.sin(b)])
    fwd = clockwise_angle(YOZ, p, q)
    rev = clockwise_angle(YOZ, q, p)
    total = (fwd + rev) % TAU
    assert total < 1e-9 or abs(total - TAU) < 1e-9


unit_vectors = st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(lambda v: math.hypot(*v) > 0.1).map(
    lambda v: np.array(v) / np.linalg.norm(v)
)


@given(p=unit_vectors, q=unit_vectors, plane=st.sampled_from([YOZ, XOY, XOZ, TILTED]))
def test_bearing_agrees_with_project_and_clockwise_angle(p, q, plane):
    with pytest.raises(DegenerateProjection):
        bearing(plane, plane.normal)
    assume(max(abs(p @ plane.normal), abs(q @ plane.normal)) < 1.0 - 1e-9)
    (az_p, tilt_p), (az_q, _) = bearing(plane, p), bearing(plane, q)
    got = (az_p - az_q) % TAU
    want = clockwise_angle(plane, project(plane, p), project(plane, q))
    if plane is TILTED:
        assert abs(math.remainder(got - want, TAU)) <= 1e-12
    else:
        assert got == want
    assert abs(tilt_p - math.asin(abs(p @ plane.normal))) <= 1e-7


@pytest.mark.parametrize("plane", [YOZ, XOY, XOZ, TILTED], ids=["yoz", "xoy", "xoz", "tilted"])
@pytest.mark.parametrize("tilt", [1e-10, 1e-8, 1e-6, 1e-3])
def test_bearing_returns_a_small_tilt_to_a_few_ulp(plane, tilt):
    # Directions at a known tilt on either side of the plane, all around it.
    # On a named plane the normal component is exact, so the tilt comes back
    # to a few ulp of itself.  On the tilted plane each unit component of the
    # built direction carries its own rounding, about an ulp of 1, and no
    # formula can return the tilt more closely than that.
    _, u1, u2 = projector(plane)
    tol = 2.0 * math.ulp(1.0 if plane is TILTED else tilt)
    for phi in np.linspace(0.0, TAU, 12, endpoint=False):
        for side in (1.0, -1.0):
            d = math.cos(tilt) * (math.cos(phi) * u1 + math.sin(phi) * u2) + side * math.sin(tilt) * plane.normal
            assert abs(bearing(plane, d)[1] - tilt) <= tol, (phi, side)


@given(a=st.floats(0.0, TAU))
def test_reflex_reduce_bounds_and_symmetry(a):
    r = reflex_reduce(a)
    assert 0.0 <= r <= math.pi + 1e-12
    assert math.isclose(r, reflex_reduce(TAU - a), abs_tol=1e-12)


# ---------------------------------------------------------------------------
# scene classification

def test_classify_collinearity_flags():
    assert classify_scene(1e-9, 2.0, 1.0) == SceneType(5, "ap")
    assert classify_scene(math.pi, 2.0, 1.0) == SceneType(5, "ap")
    assert classify_scene(2.0, TAU - 1e-9, 1.0) == SceneType(5, "sta")
    assert classify_scene(1e-9, math.pi - 1e-9, 1.0) == SceneType(0)


def test_classify_opposite_half_planes():
    assert classify_scene(1.0, 4.0, 2.0).code == 1
    assert classify_scene(4.0, 1.0, 2.0).code == 2


def test_classify_same_half_plane_uses_the_cross_angle():
    assert classify_scene(1.0, 2.0, 1.5).code == 4
    assert classify_scene(1.0, 2.0, 4.0).code == 3
    assert classify_scene(5.0, 4.0, 4.5).code == 4
    assert classify_scene(5.0, 4.0, 1.0).code == 3
    # A collinear cross angle is the boundary where codes 3 and 4 coincide.
    assert classify_scene(1.0, 2.0, math.pi).code == 4


@given(
    aod=st.floats(0.0, TAU - 1e-12),
    aoa=st.floats(0.0, TAU - 1e-12),
    cross=st.floats(0.0, TAU - 1e-12),
)
def test_classify_partitions_the_angle_cube(aod, aoa, cross):
    scene = classify_scene(aod, aoa, cross)
    ap_col = min(aod, abs(aod - math.pi), TAU - aod) <= EPS_COLLINEAR
    sta_col = min(aoa, abs(aoa - math.pi), TAU - aoa) <= EPS_COLLINEAR
    if ap_col and sta_col:
        assert scene.code == 0
    elif ap_col or sta_col:
        assert scene.code == 5
        assert scene.collinear_with == ("ap" if ap_col else "sta")
    else:
        assert scene.code in (1, 2, 3, 4)


# Clockwise angles 0.5 and 2 EPS_COLLINEAR off 0, pi and 2 pi, inside [0, 2 pi).
NEAR_COLLINEAR = [
    a for base in (0.0, math.pi, TAU) for off in (-0.5, 0.5, -2.0, 2.0)
    if 0.0 <= (a := base + off * EPS_COLLINEAR) < TAU
]
pair_angle = st.one_of(st.floats(0.0, TAU, exclude_max=True), st.sampled_from(NEAR_COLLINEAR))


@given(aod=pair_angle, aoa=pair_angle, cross=st.floats(0.0, TAU, exclude_max=True))
def test_pair_unsolvable_is_scene_code_zero(aod, aoa, cross):
    assert pair_unsolvable(aod, aoa) == (classify_scene(aod, aoa, cross).code == 0)


def test_pair_unsolvable_at_the_collinear_tolerance():
    inside = [a for a in NEAR_COLLINEAR if collinear_gap(a) < EPS_COLLINEAR]
    outside = [a for a in NEAR_COLLINEAR if collinear_gap(a) > EPS_COLLINEAR]
    assert len(inside) == len(outside) == 4
    for aod in NEAR_COLLINEAR + [0.0, math.pi, 1.0]:
        for aoa in NEAR_COLLINEAR + [0.0, math.pi, 4.0]:
            for cross in (0.0, 1.0, math.pi, 4.0):
                assert pair_unsolvable(aod, aoa) == (classify_scene(aod, aoa, cross).code == 0)
    assert all(pair_unsolvable(a, b) for a in inside for b in inside)
    assert not any(pair_unsolvable(a, b) or pair_unsolvable(b, a) for a in outside for b in inside + outside)


def test_scene_type_validation():
    with pytest.raises(ValueError):
        SceneType(6)
    with pytest.raises(ValueError):
        SceneType(5)  # code 5 needs the collinear side
    with pytest.raises(ValueError):
        SceneType(3, "ap")


def test_path_observation_rejects_nonpositive_length():
    a = SphericalAngles(0.1, 1.0)
    with pytest.raises(ValueError):
        PathObservation(a, a, 0.0, 0.0, 0)


# ---------------------------------------------------------------------------
# solving

# A fixed scene exercising the open-open solver (configuration code 1).
FROZEN_AP = np.array([-2.674335, 1.692935, 2.874281])
FROZEN_STA = np.array([-1.101612, 1.381307, -0.382743])
FROZEN_T1 = np.array([-2.86844, 1.765273, -0.140495])
FROZEN_T2 = np.array([-2.81176, -1.611098, -1.042377])


def test_solve_recovers_the_frozen_scene():
    obs1 = observe(FROZEN_AP, FROZEN_STA, FROZEN_T1, timestamp=1)
    obs2 = observe(FROZEN_AP, FROZEN_STA, FROZEN_T2, timestamp=0)
    res = solve(obs1, obs2, YOZ)
    want = float(np.linalg.norm(FROZEN_T1 - FROZEN_STA))
    assert res.scene.code == 1
    assert math.isclose(res.distance, want, rel_tol=1e-9)
    assert res.intermediates.residual <= 1e-6
    np.testing.assert_allclose(localize(res, FROZEN_STA), FROZEN_T1, atol=1e-9)


def test_solve_rejects_an_inflated_path_length():
    obs1 = observe(FROZEN_AP, FROZEN_STA, FROZEN_T1, timestamp=1)
    obs2 = observe(FROZEN_AP, FROZEN_STA, FROZEN_T2, timestamp=0)
    bad = PathObservation(obs1.aod, obs1.aoa, obs1.path_length * 10.0, obs1.snr_db, obs1.timestamp)
    with pytest.raises(InconsistentGeometry):
        solve(bad, obs2, YOZ)


def test_random_scenes_round_trip():
    rng = np.random.default_rng(11)
    for _ in range(300):
        ap, sta, t1, t2 = sample_scene(rng, YOZ)
        res = solve(observe(ap, sta, t1, 1), observe(ap, sta, t2, 0), YOZ)
        want = float(np.linalg.norm(t1 - sta))
        assert abs(res.distance - want) / want < 1e-6
        assert 0.0 < res.distance < np.linalg.norm(t1 - ap) + want + 1e-9
        np.testing.assert_allclose(localize(res, sta), t1, atol=1e-6)


def test_collinear_from_the_ap_side():
    ap = np.array([0.0, 0.0, 0.0])
    sta = np.array([2.0, 0.0, 0.0])
    u = np.array([math.cos(1.1), math.sin(1.1), 0.0])
    t1 = ap + 1.0 * u + np.array([0.0, 0.0, 0.3])
    t2 = ap + 2.2 * u + np.array([0.0, 0.0, -0.4])
    res = solve(observe(ap, sta, t1, 1), observe(ap, sta, t2, 0), XOY)
    assert res.scene == SceneType(5, "ap")
    np.testing.assert_allclose(localize(res, sta), t1, atol=1e-9)


def test_collinear_from_the_sta_side_same_ray():
    ap = np.array([0.0, 0.0, 0.0])
    sta = np.array([2.0, 0.0, 0.0])
    u = np.array([math.cos(2.2), math.sin(2.2), 0.0])
    t1 = sta + 1.1 * u + np.array([0.0, 0.0, 0.25])
    t2 = sta + 2.4 * u + np.array([0.0, 0.0, -0.35])
    res = solve(observe(ap, sta, t1, 1), observe(ap, sta, t2, 0), XOY)
    assert res.scene == SceneType(5, "sta")
    np.testing.assert_allclose(localize(res, sta), t1, atol=1e-9)


def test_collinear_from_the_sta_side_opposite_rays():
    ap = np.array([0.0, 0.0, 0.0])
    sta = np.array([2.0, 0.0, 0.0])
    u = np.array([math.cos(2.2), math.sin(2.2), 0.0])
    t1 = sta + 1.1 * u + np.array([0.0, 0.0, 0.25])
    t2 = sta - 1.7 * u + np.array([0.0, 0.0, 0.4])
    res = solve(observe(ap, sta, t1, 1), observe(ap, sta, t2, 0), XOY)
    assert res.scene == SceneType(5, "sta")
    np.testing.assert_allclose(localize(res, sta), t1, atol=1e-9)


def test_everything_on_one_line_is_unsolvable():
    ap = np.array([0.0, 0.0, 0.0])
    sta = np.array([0.0, 2.0, 0.0])
    obs1 = observe(ap, sta, np.array([0.0, 3.0, 0.0]), 1)
    obs2 = observe(ap, sta, np.array([0.0, 4.0, 0.0]), 0)
    with pytest.raises(Unsolvable, match="scene code 0"):
        solve(obs1, obs2, YOZ)


def test_direction_normal_to_the_plane_is_degenerate():
    ap = np.array([0.0, 0.0, 0.0])
    sta = np.array([0.0, 2.0, 0.0])
    obs1 = observe(ap, sta, np.array([1.5, 0.0, 0.0]), 1)  # departs along +x
    obs2 = observe(ap, sta, np.array([0.0, 1.0, 1.0]), 0)
    with pytest.raises(DegenerateProjection):
        solve(obs1, obs2, YOZ)


def test_reflector_on_the_baseline_solves_by_the_family_rule():
    # Any reflector on the AP-STA segment yields the same measurements, so
    # the tangent equation degenerates to an identity.  The solver must
    # still return a deterministic interior split instead of failing.
    ap = np.array([0.0, 0.0, 0.0])
    sta = np.array([0.0, 2.0, 0.0])
    t1 = np.array([0.0, 0.8, 0.0])
    t2 = np.array([0.0, 1.5, 2.0])
    obs1 = observe(ap, sta, t1, 1)
    obs2 = observe(ap, sta, t2, 0)
    first = solve(obs1, obs2, YOZ)
    again = solve(obs1, obs2, YOZ)
    scale = abs(first.intermediates.coef_sin) + abs(first.intermediates.coef_cos)
    assert scale < 1e-12
    assert 0.0 < first.distance < obs1.path_length
    assert first.distance == again.distance


def test_localize_walks_from_the_receiver():
    res = SolveResult(
        direction=np.array([-1.0, 1.0, 0.0]) / math.sqrt(2.0),
        distance=math.sqrt(2.0),
        scene=SceneType(4),
    )
    np.testing.assert_allclose(localize(res, np.array([2.0, 0.0, 0.0])), [1.0, 1.0, 0.0], atol=1e-12)
    # Built directly, with no range stage to re-run, it audits as all NaN.
    assert all(math.isnan(v) for v in dataclasses.astuple(res.intermediates))


# ---------------------------------------------------------------------------
# invariances: the solver sees only directions and path lengths

scene_seeds = st.integers(0, 2**32 - 1)
planes = st.sampled_from([YOZ, XOY])


def solve_points(ap, sta, t1, t2, plane):
    return solve(observe(ap, sta, t1, 1), observe(ap, sta, t2, 0), plane)


def rotation_about(axis, angle):
    """Rodrigues rotation matrix about a unit axis."""
    k = np.array([[0.0, -axis[2], axis[1]], [axis[2], 0.0, -axis[0]], [-axis[1], axis[0], 0.0]])
    return np.eye(3) + math.sin(angle) * k + (1.0 - math.cos(angle)) * (k @ k)


@given(seed=scene_seeds, plane=planes, scale=st.floats(0.01, 100.0))
def test_uniform_scaling_scales_the_distance(seed, plane, scale):
    pts = sample_scene(np.random.default_rng(seed), plane)
    base = solve_points(*pts, plane)
    scaled = solve_points(*(scale * p for p in pts), plane)
    assert scaled.scene == base.scene
    assert math.isclose(scaled.distance, scale * base.distance, rel_tol=1e-6)


@given(
    seed=scene_seeds,
    plane=planes,
    shift=st.tuples(*[st.floats(-50.0, 50.0)] * 3),
)
def test_translation_keeps_the_distance(seed, plane, shift):
    pts = sample_scene(np.random.default_rng(seed), plane)
    base = solve_points(*pts, plane)
    moved = solve_points(*(p + np.array(shift) for p in pts), plane)
    assert math.isclose(moved.distance, base.distance, rel_tol=1e-6)


@given(seed=scene_seeds, plane=planes, angle=st.floats(0.0, TAU))
def test_rotation_about_the_plane_normal_keeps_distance_and_scene(seed, plane, angle):
    pts = sample_scene(np.random.default_rng(seed), plane)
    base = solve_points(*pts, plane)
    rot = rotation_about(plane.normal, angle)
    turned = solve_points(*(rot @ p for p in pts), plane)
    assert turned.scene == base.scene
    assert math.isclose(turned.distance, base.distance, rel_tol=1e-6)


# ---------------------------------------------------------------------------
# the two solver stages

_AP, _STA_X, _STA_Y = np.zeros(3), np.array([2.0, 0.0, 0.0]), np.array([0.0, 2.0, 0.0])
_U_AP, _U_STA = np.array([math.cos(1.1), math.sin(1.1), 0.0]), np.array([math.cos(2.2), math.sin(2.2), 0.0])

#: The audit golden's fixed scenes: the frozen scene, the three code-5
#: scenes, the baseline family, code 0 and a direction normal to yoz.
STAGE_CASES = [
    (FROZEN_AP, FROZEN_STA, FROZEN_T1, FROZEN_T2, YOZ),
    (_AP, _STA_X, _AP + 1.0 * _U_AP + [0.0, 0.0, 0.3], _AP + 2.2 * _U_AP + [0.0, 0.0, -0.4], XOY),
    (_AP, _STA_X, _STA_X + 1.1 * _U_STA + [0.0, 0.0, 0.25], _STA_X + 2.4 * _U_STA + [0.0, 0.0, -0.35], XOY),
    (_AP, _STA_X, _STA_X + 1.1 * _U_STA + [0.0, 0.0, 0.25], _STA_X - 1.7 * _U_STA + [0.0, 0.0, 0.4], XOY),
    (_AP, _STA_Y, np.array([0.0, 0.8, 0.0]), np.array([0.0, 1.5, 2.0]), YOZ),
    (_AP, _STA_Y, np.array([0.0, 3.0, 0.0]), np.array([0.0, 4.0, 0.0]), YOZ),
    (_AP, _STA_Y, np.array([1.5, 0.0, 0.0]), np.array([0.0, 1.0, 1.0]), YOZ),
]


def _sampled_case(seed, plane):
    return (*sample_scene(np.random.default_rng(seed), plane), plane)


stage_cases = st.one_of(
    st.sampled_from(STAGE_CASES), st.builds(_sampled_case, scene_seeds, st.sampled_from([YOZ, XOY, XOZ]))
)
# Exact lengths, near ones, and far ones that drive the range-stage checks.
length_scales = st.one_of(st.just(1.0), st.floats(0.3, 3.0), st.floats(1e-6, 1e6))


def _attempt(fn, *args):
    try:
        return fn(*args)
    except GeomError as exc:
        return exc


def _audit_bits(inter):
    return tuple(float(v).hex() for v in dataclasses.astuple(inter))


def _bits(res):
    """Every output of a solve, bit for bit; NaN and -0.0 are told apart."""
    return res.scene, float(res.distance).hex(), res.direction.tobytes(), _audit_bits(res.intermediates)


def stages_agree(case, scale_1, scale_2):
    """Compare solve_ranges(solve_angles(...)) with solve on fresh
    observations carrying the scaled lengths; return which stage decided
    the outcome and how."""
    ap, sta, t1, t2, plane = case
    obs1, obs2 = observe(ap, sta, t1, 1), observe(ap, sta, t2, 0)
    c1, c2 = obs1.path_length * scale_1, obs2.path_length * scale_2
    direct = _attempt(solve, dataclasses.replace(obs1, path_length=c1), dataclasses.replace(obs2, path_length=c2), plane)
    stage = _attempt(solve_angles, obs1, obs2, plane)
    if isinstance(stage, GeomError):
        assert type(direct) is type(stage)
        return "angles", type(stage).__name__, str(stage).split()[0]
    staged = _attempt(solve_ranges, stage, c1, c2)
    if isinstance(direct, GeomError):
        assert type(staged) is type(direct)
        return stage.scene.code, type(staged).__name__, " ".join(str(staged).split()[:2])
    assert _bits(staged) == _bits(direct)
    return stage.scene.code, "ok", ""


@given(case=stage_cases, scale_1=length_scales, scale_2=length_scales)
def test_the_range_stage_of_the_angle_stage_is_solve(case, scale_1, scale_2):
    stages_agree(case, scale_1, scale_2)


def test_the_stage_comparison_reaches_every_scene_code_and_failure():
    rng = np.random.default_rng(41)
    cases = STAGE_CASES + [_sampled_case(int(s), p) for p in (YOZ, XOY, XOZ) for s in rng.integers(0, 2**32, 60)]
    seen = {stages_agree(case, *scales) for case in cases for scales in ((1.0, 1.0), (0.5, 1.0), (1.0, 1e-4), (3.0, 1.0))}
    codes = {code for code, _, _ in seen if code != "angles"}
    assert codes == {1, 2, 3, 4, 5}
    assert {("angles", "Unsolvable", "both"), ("angles", "DegenerateProjection", "a")} <= seen
    failures = {(kind, why) for code, kind, why in seen if code != "angles" and kind != "ok"}
    assert {("InconsistentGeometry", "reflector distance"), ("InconsistentGeometry", "implied reflector-1")} <= failures
    # Code 5 fails in the range stage too.
    assert any(code == 5 and kind == "InconsistentGeometry" for code, kind, _ in seen)


# ---------------------------------------------------------------------------
# the plain range stage and the audit trail on request


def observed_pair(case):
    ap, sta, t1, t2, plane = case
    return observe(ap, sta, t1, 1), observe(ap, sta, t2, 0), plane


def plain_and_recorded(case, scale_1, scale_2):
    """The case's range stage at the scaled lengths, run plain and with
    recording on: (stage, c1, c2, plain, recorded), each outcome a value
    or the GeomError it raised; None when the angle stage raises."""
    obs1, obs2, plane = observed_pair(case)
    stage = _attempt(solve_angles, obs1, obs2, plane)
    if isinstance(stage, GeomError):
        return None
    c1, c2 = obs1.path_length * scale_1, obs2.path_length * scale_2
    return stage, c1, c2, _attempt(stage.ranges, c1, c2), _attempt(functools.partial(stage.ranges, record=True), c1, c2)


@given(case=stage_cases, scale_1=length_scales, scale_2=length_scales)
def test_the_plain_range_stage_is_the_recording_run_without_its_record(case, scale_1, scale_2):
    out = plain_and_recorded(case, scale_1, scale_2)
    if out is None:
        return
    stage, c1, c2, plain, recorded = out
    if isinstance(recorded, GeomError):
        assert type(plain) is type(recorded) and str(plain) == str(recorded)
        return
    distance, record = recorded
    assert float(plain).hex() == float(distance).hex()
    # The audit trail that a result builds on first read is the recording run's.
    res = solve_ranges(stage, c1, c2)
    assert _bits(res) == (stage.scene, float(distance).hex(), np.array(stage.direction).tobytes(), _audit_bits(record))
    assert res.intermediates is res.intermediates  # built once


def test_the_plain_range_stage_comparison_reaches_every_scene_code():
    rng = np.random.default_rng(43)
    cases = STAGE_CASES + [_sampled_case(int(s), p) for p in (YOZ, XOY, XOZ) for s in rng.integers(0, 2**32, 40)]
    outs = [plain_and_recorded(case, *scales) for case in cases for scales in ((1.0, 1.0), (0.5, 1.0), (1.0, 1e-4))]
    seen = {(out[0].scene.code, isinstance(out[4], GeomError)) for out in outs if out is not None}
    # Every code both solves and fails in the range stage.
    assert seen == {(code, failed) for code in range(1, 6) for failed in (False, True)}


def test_the_residual_check_fires_on_the_plain_path(monkeypatch):
    # With the tolerance below every residual, each code 1-4 scene that
    # solves at the real tolerance must fail the check, through solve and
    # through solve_ranges alike.
    pairs, seed = {}, 0
    while len(pairs) < 4:
        for plane in (YOZ, XOY, XOZ):
            obs1, obs2, plane = observed_pair(_sampled_case(seed, plane))
            fix = _attempt(solve, obs1, obs2, plane)
            if not isinstance(fix, GeomError) and fix.scene.code != 5:
                assert fix.intermediates.residual <= geom.TOL_RESIDUAL
                pairs.setdefault(fix.scene.code, (obs1, obs2, plane))
        seed += 1
    monkeypatch.setattr(geom, "TOL_RESIDUAL", -1.0)
    for obs1, obs2, plane in pairs.values():
        with pytest.raises(InconsistentGeometry, match="^sine-rule residual .* above tolerance$"):
            solve(obs1, obs2, plane)
        with pytest.raises(InconsistentGeometry, match="^sine-rule residual .* above tolerance$"):
            solve_ranges(solve_angles(obs1, obs2, plane), obs1.path_length, obs2.path_length)
