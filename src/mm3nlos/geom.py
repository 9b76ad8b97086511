"""Closed-form localization of a reflector from two single-bounce paths.

A transmitter (AP) and a receiver (STA) share a global angular reference but
do not know each other's position.  For each single-bounce reflection path
between them three quantities are measured: the departure direction at the
AP, the arrival direction at the STA, and the total path length.  Given two
such paths this module recovers the distance from the STA to the reflector
of the first path, and with it the reflector position.

The solution works on a 2D projection: both paths' direction vectors are
projected onto a chosen plane, clockwise angles between the projections
classify the scene into one of six configurations, and per configuration a
sine-rule system over the two projected triangles (AP, reflector 1,
reflector 2) and (STA, reflector 1, reflector 2) reduces to a one-variable
tangent equation.  Out-of-plane tilts enter only through cosine factors that
rescale each 3D length to its in-plane shadow.

solve is solve_ranges of solve_angles: the angle stage does all that the
four directions decide, so pairs whose path lengths change and whose
directions do not can share it.  The range stage runs every check and
returns the distance; a result builds its audit trail
(SolverIntermediates) on first read, by running it again with recording on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import Callable, NamedTuple, Sequence

import numpy as np

TAU = 2.0 * math.pi

#: Below this norm a projected direction is considered normal to the plane.
EPS_PROJECTION = 1e-9

#: Angular tolerance for treating a clockwise angle as 0 or pi (collinear).
EPS_COLLINEAR = 1e-6

#: Acceptable relative residual of the sine-rule ratio equation.
TOL_RESIDUAL = 1e-6

# Relative threshold under which both tangent-equation coefficients are
# treated as identically zero (the one-parameter family of solutions that a
# virtual reflector on the AP-STA line produces).
_EPS_DEGENERATE_FAMILY = 1e-9

# Strict-interior margin for triangle angles, in radians.
_EPS_ANGLE = 1e-12


class GeomError(Exception):
    """Base class for geometry failures."""


class DegenerateProjection(GeomError):
    """A direction vector is (nearly) normal to the projection plane."""


class ZeroVector(GeomError):
    """An angle was requested between vectors with (nearly) zero norm."""


class Unsolvable(GeomError):
    """Both projected path pairs are collinear; the scene carries no
    information about the reflector distance (scene code 0)."""


class InconsistentGeometry(GeomError):
    """The measurements admit no reflector placement in the classified
    configuration (out-of-range angles, distance outside (0, c1), or a
    sine-rule residual above tolerance)."""


@dataclass(frozen=True)
class SphericalAngles:
    """Direction in the global frame.

    azimuth: angle in the XY plane from +x toward +y, in [-pi, pi].
    elevation: polar angle from +z, in [0, pi].
    """

    azimuth: float
    elevation: float


@dataclass(frozen=True)
class PathObservation:
    """One measured single-bounce path.

    aod/aoa are the departure (at the AP) and arrival (at the STA)
    directions in the shared global frame; path_length is the AP to
    reflector to STA length in meters; snr_db ranks the measurement for
    history selection; timestamp orders records.
    """

    aod: SphericalAngles
    aoa: SphericalAngles
    path_length: float
    snr_db: float
    timestamp: int
    # plane -> bearings(plane); outside equality, hashing and repr.
    # Bearings read the two directions only, so a trial's trained
    # observation serves selection and solve_angles once per plane, and
    # no ranging-noise point reads it again.
    _bearings: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.path_length > 0.0:
            raise ValueError(f"path_length must be > 0, got {self.path_length}")
        if math.isnan(self.snr_db):
            raise ValueError("snr_db must not be NaN")  # it orders partner selection

    def bearings(self, plane: "ProjectionPlane") -> tuple[float, float, float, float] | None:
        """(aod azimuth, aod tilt, aoa azimuth, aoa tilt) in the plane, or
        None when either direction is normal to it.

        Memoized per plane object, so the solver and the partner selector
        project an observation once per plane however often they see it.
        Named planes are shared instances; a plane built anew for every
        call adds one entry per call.
        """
        memo = self._bearings
        if plane not in memo:
            try:
                memo[plane] = bearing(plane, _unit(self.aod)) + bearing(plane, _unit(self.aoa))
            except DegenerateProjection:
                memo[plane] = None
        return memo[plane]


@dataclass(frozen=True)
class SceneType:
    """Configuration class of a projected two-path scene.

    code 0: both projected pairs collinear, unsolvable.
    codes 1-4: both pairs open angles; the code records on which sides of
        the projected reflector-pair line the two terminals fall.
    code 5: exactly one pair collinear; collinear_with says which terminal
        sees the two reflectors on one projected line ('ap' or 'sta').
    """

    code: int
    collinear_with: str | None = None

    def __post_init__(self) -> None:
        if self.code not in range(6):
            raise ValueError(f"scene code must be 0..5, got {self.code}")
        if (self.code == 5) != (self.collinear_with is not None):
            raise ValueError("collinear_with is set exactly for code 5")
        if self.collinear_with not in (None, "ap", "sta"):
            raise ValueError(f"bad collinear_with: {self.collinear_with}")


@dataclass
class SolverIntermediates:
    """Audit trail of one solve.

    Angles are radians.  cw_* are clockwise angles between projected
    directions; tilt_* are out-of-plane tilts of the four direction
    vectors; apex_* are the reduced angles at the projected terminals;
    t1_angle_* are the triangle angles at reflector 1's projection in the
    AP-side and STA-side triangles; coef_sin/coef_cos are the tangent
    equation coefficients; weight_ap/weight_sta split c1 between the two
    legs; sign_* are the configuration signs; projected_pair_distance is
    the in-plane distance between the two projected reflectors.
    """

    cw_aod_pair: float = math.nan
    cw_aoa_pair: float = math.nan
    cw_cross_1: float = math.nan
    cw_cross_2: float = math.nan
    tilt_aod_1: float = math.nan
    tilt_aod_2: float = math.nan
    tilt_aoa_1: float = math.nan
    tilt_aoa_2: float = math.nan
    apex_ap: float = math.nan
    apex_sta: float = math.nan
    t1_angle_ap: float = math.nan
    t1_angle_sta: float = math.nan
    sign_link: float = math.nan
    coef_sin: float = math.nan
    coef_cos: float = math.nan
    weight_ap: float = math.nan
    weight_sta: float = math.nan
    sign_leg_1: float = math.nan
    sign_leg_2: float = math.nan
    residual: float = math.nan
    projected_pair_distance: float = math.nan


@dataclass
class SolveResult:
    """Reflector 1 of the current path, as seen from the STA.

    direction is the unit arrival vector (global frame), distance the
    STA-to-reflector range in meters, so the reflector position is
    sta + distance * direction.
    """

    direction: np.ndarray
    distance: float
    scene: SceneType
    _record: Callable[[], tuple[float, SolverIntermediates]] | None = field(default=None, repr=False, compare=False)

    @cached_property
    def intermediates(self) -> SolverIntermediates:
        """Audit trail, built on first read by re-running the range stage; all NaN without _record."""
        return SolverIntermediates() if self._record is None else self._record()[1]


def _unit(angles: SphericalAngles) -> tuple[float, float, float]:
    sin_el = math.sin(angles.elevation)
    return sin_el * math.cos(angles.azimuth), sin_el * math.sin(angles.azimuth), math.cos(angles.elevation)


def direction_from_angles(angles: SphericalAngles) -> np.ndarray:
    """Unit vector (x, y, z) for the given azimuth/elevation."""
    return np.array(_unit(angles))


def angles_from_direction(vec: np.ndarray) -> SphericalAngles:
    """Inverse of :func:`direction_from_angles`; the input is normalized.

    At the poles (|z| = norm) the azimuth is defined as 0.
    """
    norm = float(np.linalg.norm(vec))
    if norm < EPS_PROJECTION:
        raise ZeroVector("cannot take angles of a zero vector")
    vx, vy, vz = (float(c) for c in vec)
    x, y = vx / norm, vy / norm
    # atan2 keeps a small elevation (or one near pi) to a few ulp, where
    # acos(z / norm) loses it in the rounding of z / norm near +-1.
    elevation = math.atan2(math.hypot(vx, vy), vz)
    if math.hypot(x, y) < _EPS_ANGLE:
        return SphericalAngles(0.0, elevation)
    return SphericalAngles(math.atan2(y, x), elevation)


class ProjectionPlane:
    """Plane through the origin spanned by two independent vectors.

    Clockwise angles are measured about the normal n = b1 x b2 (viewed
    from the +n side, a counter-clockwise rotation is a clockwise angle
    of 2*pi minus that rotation).  Azimuths are measured in the
    orthonormal frame u1 = b1 / |b1|, u2 = n x u1.
    """

    def __init__(self, b1, b2) -> None:
        b1 = np.array(b1, dtype=float)
        b2 = np.array(b2, dtype=float)
        normal = np.cross(b1, b2)
        norm = np.linalg.norm(normal)
        if norm < 1e-12:
            raise ValueError("plane basis vectors are (nearly) parallel")
        self.b1 = b1
        self.b2 = b2
        self.normal = normal / norm
        u1 = b1 / np.linalg.norm(b1)
        frame = (u1, np.cross(self.normal, u1), self.normal)
        self._frame = tuple(tuple(float(c) for c in axis) for axis in frame)
        # Read-only: observations memoize their bearings per plane object.
        for arr in (self.b1, self.b2, self.normal):
            arr.setflags(write=False)

    @staticmethod
    def from_name(name: str) -> "ProjectionPlane":
        """The shared plane spanned by two named axes, e.g. 'yoz'; every
        call with the same (case- and space-insensitive) name returns the
        same instance."""
        try:
            return _NAMED_PLANES[name.strip().lower()]
        except KeyError:
            raise ValueError(f"unknown plane name: {name!r} (expected e.g. 'yoz')") from None

    def __repr__(self) -> str:
        return f"ProjectionPlane(b1={self.b1.tolist()}, b2={self.b2.tolist()})"


_AXES = {"x": (1.0, 0.0, 0.0), "y": (0.0, 1.0, 0.0), "z": (0.0, 0.0, 1.0)}
_NAMED_PLANES = {
    f"{a}o{b}": ProjectionPlane(_AXES[a], _AXES[b]) for a in _AXES for b in _AXES if a != b
}


def bearing(plane: ProjectionPlane, direction) -> tuple[float, float]:
    """(azimuth, tilt) of a direction (any 3-sequence) seen in the plane.

    azimuth is the in-plane angle of its projection, counter-clockwise
    from b1, so the clockwise angle from p to q is
    (azimuth_p - azimuth_q) % TAU; tilt is the out-of-plane angle in
    [0, pi/2], whose cosine rescales a 3D length to its in-plane shadow.
    Raises DegenerateProjection when the projection's norm is below
    EPS_PROJECTION.
    """
    (a1, a2, a3), (b1, b2, b3), (n1, n2, n3) = plane._frame
    dx, dy, dz = direction
    x = dx * a1 + dy * a2 + dz * a3
    y = dx * b1 + dy * b2 + dz * b3
    shadow = math.hypot(x, y)
    if shadow < EPS_PROJECTION:
        raise DegenerateProjection(f"direction {[float(c) for c in direction]} is normal to the projection plane")
    return math.atan2(y, x), math.atan2(abs(dx * n1 + dy * n2 + dz * n3), shadow)


def reflex_reduce(alpha: float) -> float:
    """Fold an angle in [0, 2*pi] to the unoriented value min(a, 2*pi - a)."""
    return min(alpha, TAU - alpha)


def collinear_gap(alpha: float) -> float:
    """Angular gap from a clockwise angle in [0, 2*pi] to the nearest of {0, pi, 2*pi}."""
    return min(alpha, abs(alpha - math.pi), TAU - alpha)


def _near_collinear(alpha: float) -> bool:
    return collinear_gap(alpha) <= EPS_COLLINEAR


def pair_unsolvable(cw_aod_pair: float, cw_aoa_pair: float) -> bool:
    """True when both pair angles are within EPS_COLLINEAR of collinear:
    the scene is code 0 whatever its cross angle."""
    return _near_collinear(cw_aod_pair) and _near_collinear(cw_aoa_pair)


# classify_scene's seven outcomes, one shared instance each (SceneType is frozen).
_SCENE_BY_CODE = tuple(SceneType(code) for code in range(5))
_SCENE_COLLINEAR = {"ap": SceneType(5, "ap"), "sta": SceneType(5, "sta")}


def classify_scene(cw_aod_pair: float, cw_aoa_pair: float, cw_cross: float) -> SceneType:
    """Classify a projected two-path scene from its three clockwise angles.

    cw_aod_pair / cw_aoa_pair are the clockwise angles between the two
    projected departure / arrival directions; cw_cross is the clockwise
    angle from path 1's projected departure to its projected arrival
    direction.  Angles within EPS_COLLINEAR of {0, pi, 2*pi} count as
    collinear.  The six outcomes partition the angle cube.
    """

    if pair_unsolvable(cw_aod_pair, cw_aoa_pair):
        return _SCENE_BY_CODE[0]
    if _near_collinear(cw_aod_pair):
        return _SCENE_COLLINEAR["ap"]
    if _near_collinear(cw_aoa_pair):
        return _SCENE_COLLINEAR["sta"]

    ap_open = cw_aod_pair < math.pi  # clockwise angle in (0, pi)
    sta_open = cw_aoa_pair < math.pi
    if ap_open and not sta_open:
        return _SCENE_BY_CODE[1]
    if not ap_open and sta_open:
        return _SCENE_BY_CODE[2]
    # Both pair angles share a half-plane class; the cross angle breaks the tie.
    if _near_collinear(cw_cross):
        # Boundary: reflex(cross) ~ 0 and the code 3/4 formulas coincide.
        return _SCENE_BY_CODE[4]
    cross_open = cw_cross < math.pi
    if cross_open == ap_open:
        return _SCENE_BY_CODE[4]
    return _SCENE_BY_CODE[3]


#: A branch's range stage: (c1, c2) -> distance, or (c1, c2, record=True) -> (distance, intermediates).
RangeStage = Callable[..., float | tuple[float, SolverIntermediates]]


class AngleStage(NamedTuple):
    """What solve_angles computes from the four bearings: the scene, the
    unit arrival direction, and the branch's range stage, a closure over
    the length-free values (clockwise angles, tilts, apex and offset
    trig, signs, product terms) that solve_ranges calls with the path
    lengths."""

    scene: SceneType
    direction: tuple[float, float, float]
    ranges: RangeStage


def _feasible_midpoint(sign_link: float, offset: float) -> float:
    """Midpoint of the t1_angle_ap interval keeping both triangle angles
    inside (0, pi), used when the tangent equation degenerates to an
    identity (virtual reflector on the AP-STA line)."""
    if sign_link < 0.0:
        lo, hi = max(0.0, offset - math.pi), min(math.pi, offset)
    else:
        lo, hi = max(0.0, -offset), min(math.pi, math.pi - offset)
    if not hi - lo > 2.0 * _EPS_ANGLE:
        raise InconsistentGeometry("degenerate scene admits no valid triangle angles")
    return 0.5 * (lo + hi)


def _separate(bearings: tuple[float, ...], cos_tilts: tuple[float, float, float, float], code: int) -> RangeStage:
    """Scene whose projected reflectors are separate from both terminals'
    viewpoints (codes 1 to 4).

    The two projected triangles share the reflector-pair line.  Writing
    the sine rule in both and eliminating every length yields one ratio
    equation; substituting the configuration-dependent linear relation
    between the two reflector-1 angles turns it into
    coef_sin * sin(t1_angle_ap) + coef_cos * cos(t1_angle_ap) = 0, solved
    by arctangent.  c1 then splits between its legs by the weight ratio.
    Terms free of the ratio c1 / c2 are formed before the range stage;
    those with it keep their left-to-right order (reassociating them
    would move bits).
    """
    cw_aod_pair, cw_aoa_pair, cw_cross_1 = bearings[:3]
    ca1, ca2, cs1, cs2 = cos_tilts
    apex_ap = reflex_reduce(cw_aod_pair)
    apex_sta = reflex_reduce(cw_aoa_pair)

    # Linear relation t1_angle_sta = sign_link * t1_angle_ap + offset per
    # configuration; the offset comes from the measured cross angle.
    sign_link = -1.0 if code in (1, 2) else 1.0
    if code == 1:
        offset = TAU - cw_cross_1
    elif code == 2:
        offset = cw_cross_1
    elif code == 3:
        offset = -reflex_reduce(cw_cross_1)
    else:
        offset = reflex_reduce(cw_cross_1)

    sin_aa, cos_aa = math.sin(apex_ap), math.cos(apex_ap)
    sin_as = math.sin(apex_sta)
    sin_shift = math.sin(offset + apex_sta)
    cos_shift = math.cos(offset + apex_sta)
    cos_offset, sin_offset = math.cos(offset), math.sin(offset)
    # The ratio-free terms of the coefficient of sin(t1_angle_ap) ...
    s_free_1, s_free_2 = cos_aa * sin_as * ca2 * cs1 * cs2, sign_link * cos_shift * sin_aa * ca1 * ca2 * cs2
    # ... and of cos(t1_angle_ap) in the cleared ratio equation.
    c_free_1, c_free_2 = sin_aa * sin_as * ca2 * cs1 * cs2, sin_shift * sin_aa * ca1 * ca2 * cs2

    def ranges(c1: float, c2: float, record: bool = False) -> float | tuple[float, SolverIntermediates]:
        ratio = c1 / c2
        s_terms = (
            s_free_1,
            s_free_2,
            -ratio * sin_as * ca1 * cs1 * cs2,
            -sign_link * ratio * cos_offset * sin_aa * ca1 * ca2 * cs1,
        )
        c_terms = (c_free_1, c_free_2, -ratio * sin_offset * sin_aa * ca1 * ca2 * cs1)
        coef_sin = math.fsum(s_terms)
        coef_cos = math.fsum(c_terms)

        scale_sin = sum(map(abs, s_terms))
        scale_cos = sum(map(abs, c_terms))
        if abs(coef_sin) <= _EPS_DEGENERATE_FAMILY * scale_sin and abs(coef_cos) <= _EPS_DEGENERATE_FAMILY * scale_cos:
            # Identity: every angle solves the equation.  This is the virtual
            # reflector on the AP-STA line; the c1 split is invariant along
            # the family, so any interior angle yields the same distance.
            t1_ap = _feasible_midpoint(sign_link, offset)
        else:
            t1_ap = math.atan2(-coef_cos, coef_sin) % math.pi
        t1_sta = offset + sign_link * t1_ap

        if not (_EPS_ANGLE < t1_ap < math.pi - _EPS_ANGLE):
            raise InconsistentGeometry("reflector-1 angle at the AP triangle collapsed")
        if not (_EPS_ANGLE < t1_sta < math.pi - _EPS_ANGLE):
            raise InconsistentGeometry("implied reflector-1 angle at the STA triangle is out of range")

        weight_ap = math.sin(apex_ap + t1_ap) * sin_as * cs1
        weight_sta = math.sin(apex_sta + t1_sta) * sin_aa * ca1
        weight_sum = weight_ap + weight_sta
        if abs(weight_sum) < 1e-300:
            raise InconsistentGeometry("degenerate weight split")
        distance = weight_sta * c1 / weight_sum
        if not (0.0 < distance < c1):
            raise InconsistentGeometry(
                f"reflector distance {distance:.6g} outside (0, c1={c1:.6g})"
            )

        # Residual of the ratio equation at the returned angles.
        lhs_num = weight_sum
        lhs_den = math.sin(t1_ap) * sin_as * cs2 + math.sin(t1_sta) * sin_aa * ca2
        rhs = ratio * ca1 * cs1 / (ca2 * cs2)
        residual = abs(lhs_num - rhs * lhs_den) / (abs(lhs_num) + abs(rhs * lhs_den) + 1e-300)
        if residual > TOL_RESIDUAL:
            raise InconsistentGeometry(f"sine-rule residual {residual:.3g} above tolerance")
        if not record:
            return distance

        denom = math.sin(apex_sta + t1_sta)
        return distance, SolverIntermediates(
            *bearings,
            apex_ap=apex_ap, apex_sta=apex_sta, t1_angle_ap=t1_ap, t1_angle_sta=t1_sta, sign_link=sign_link,
            coef_sin=coef_sin, coef_cos=coef_cos, weight_ap=weight_ap, weight_sta=weight_sta, residual=residual,
            projected_pair_distance=distance * cs1 * sin_as / denom if abs(denom) > _EPS_ANGLE else math.nan,
        )

    return ranges


def _collinear_split(reduced_pair: float, cross_1: float, cross_2: float) -> tuple[float, float, float]:
    """Leg signs and the reflector-1 angle for a collinear terminal.

    The two projected reflectors sit on one line through the terminal.
    When both are on the same ray (reduced pair angle ~ 0) the cross
    angles decide which is farther; on opposite rays (~ pi) the shadows
    add.  Returns (sign_leg_1, sign_leg_2, angle at reflector 1 in the
    other terminal's triangle).
    """
    if reduced_pair < 0.5 * math.pi:
        # Same ray.  A smaller cross angle means a farther reflector.
        if abs(cross_1 - cross_2) <= EPS_COLLINEAR:
            raise InconsistentGeometry("collinear reflectors project to the same point")
        if cross_1 < cross_2:
            return 1.0, -1.0, cross_1
        return -1.0, 1.0, math.pi - cross_1
    return 1.0, 1.0, cross_1


def _collinear(bearings: tuple[float, ...], cos_tilts: tuple[float, float, float, float], ap_side: bool) -> RangeStage:
    """Scene whose projected reflectors are collinear with exactly one
    terminal (code 5).

    The open triangle at the other terminal still obeys the sine rule,
    while along the collinear line the projected reflector separation is
    a signed sum of the two leg shadows.  Eliminating the separation
    gives the reflector-1 leg in closed form, linear in c1 and c2.  For a
    collinear STA the same formulas apply with the AP and STA roles
    swapped, and c1 minus the AP leg gives the STA distance.
    """
    cw_aod_pair, cw_aoa_pair, cw_cross_1, cw_cross_2 = bearings[:4]
    ca1, ca2, cs1, cs2 = cos_tilts
    cross_1 = reflex_reduce(cw_cross_1)
    cross_2 = reflex_reduce(cw_cross_2)
    if ap_side:
        apex = reflex_reduce(cw_aoa_pair)
        s1, s2, angle = _collinear_split(reflex_reduce(cw_aod_pair), cross_1, cross_2)
        sided = {"apex_sta": apex, "t1_angle_sta": angle}
        near_cos, near_sin = cs1, cs2  # tilts on the open-triangle side
        far_cos_1, far_cos_2 = ca1, ca2
    else:
        apex = reflex_reduce(cw_aod_pair)
        s1, s2, angle = _collinear_split(reflex_reduce(cw_aoa_pair), cross_1, cross_2)
        sided = {"apex_ap": apex, "t1_angle_ap": angle}
        near_cos, near_sin = ca1, ca2
        far_cos_1, far_cos_2 = cs1, cs2

    sin_angle = math.sin(angle)
    sin_apex = math.sin(apex)
    sin_both = math.sin(angle + apex)
    if sin_angle <= _EPS_ANGLE or sin_apex <= _EPS_ANGLE:
        raise InconsistentGeometry("collinear configuration with a collapsed triangle")
    weight_bottom = (
        sin_apex * near_cos * near_sin
        + s1 * sin_both * far_cos_1 * near_sin
        + s2 * sin_angle * far_cos_2 * near_cos
    )
    if abs(weight_bottom) < 1e-300:
        raise InconsistentGeometry("degenerate collinear weight split")
    leg_scale = sin_both * near_sin / (sin_angle * near_cos)

    def ranges(c1: float, c2: float, record: bool = False) -> float | tuple[float, SolverIntermediates]:
        weight_top = (
            c2 * sin_apex * near_cos * near_sin
            + s1 * c2 * sin_both * far_cos_1 * near_sin
            - s1 * c1 * sin_angle * far_cos_1 * near_cos
        )
        leg = leg_scale * (c2 - weight_top / weight_bottom)  # reflector 1 to the open-triangle terminal
        distance = leg if ap_side else c1 - leg
        if not (0.0 < distance < c1):
            raise InconsistentGeometry(
                f"reflector distance {distance:.6g} outside (0, c1={c1:.6g})"
            )
        if not record:
            return distance

        # Sine rule in the open triangle: the pair separation faces the apex.
        return distance, SolverIntermediates(
            *bearings, **sided, weight_ap=weight_top, weight_sta=weight_bottom, sign_leg_1=s1, sign_leg_2=s2,
            projected_pair_distance=leg * near_cos * sin_apex / sin_both if sin_both > _EPS_ANGLE else math.nan,
        )

    return ranges


def solve_angles(obs1: PathObservation, obs2: PathObservation, plane: ProjectionPlane) -> AngleStage:
    """Read the four bearings in the plane from the observations' memos,
    classify the scene, and take its branch as far as it goes without
    the path lengths.

    Raises DegenerateProjection (a direction normal to the plane),
    Unsolvable (scene code 0), and for code 5 InconsistentGeometry when
    the reflectors project to one point or a triangle collapses.
    """
    first, second = obs1.bearings(plane), obs2.bearings(plane)
    if first is None or second is None:
        raise DegenerateProjection("a direction is normal to the projection plane")
    az_aod_1, tilt_aod_1, az_aoa_1, tilt_aoa_1 = first
    az_aod_2, tilt_aod_2, az_aoa_2, tilt_aoa_2 = second
    # The first eight SolverIntermediates fields, in field order.
    bearings = (
        (az_aod_1 - az_aod_2) % TAU,
        (az_aoa_1 - az_aoa_2) % TAU,
        (az_aod_1 - az_aoa_1) % TAU,
        (az_aod_2 - az_aoa_2) % TAU,
        tilt_aod_1, tilt_aod_2, tilt_aoa_1, tilt_aoa_2,
    )
    scene = classify_scene(*bearings[:3])
    if scene.code == 0:
        raise Unsolvable("both projected pairs are collinear (scene code 0)")
    cos_tilts = (math.cos(tilt_aod_1), math.cos(tilt_aod_2), math.cos(tilt_aoa_1), math.cos(tilt_aoa_2))
    if scene.code == 5:
        ranges = _collinear(bearings, cos_tilts, scene.collinear_with == "ap")
    else:
        ranges = _separate(bearings, cos_tilts, scene.code)
    return AngleStage(scene, _unit(obs1.aoa), ranges)


def solve_ranges(stage: AngleStage, c1: float, c2: float) -> SolveResult:
    """Finish a solve with the current path's length c1 and the
    partner's c2.  Raises InconsistentGeometry when they admit no
    reflector placement (a reflector-1 angle out of range, a degenerate
    weight split, a distance outside (0, c1), a residual above
    tolerance)."""
    distance = stage.ranges(c1, c2)
    return SolveResult(np.array(stage.direction), distance, stage.scene, partial(stage.ranges, c1, c2, record=True))


def solve(obs1: PathObservation, obs2: PathObservation, plane: ProjectionPlane) -> SolveResult:
    """Locate reflector 1 of obs1, the current path, with obs2 (usually
    a historical record) as the second path."""
    return solve_ranges(solve_angles(obs1, obs2, plane), obs1.path_length, obs2.path_length)


def reach(sta: Sequence[float], distance: float, direction: Sequence[float]) -> tuple[float, float, float]:
    """sta + distance * direction on floats, component by component."""
    (sx, sy, sz), (ux, uy, uz) = sta, direction
    return sx + distance * ux, sy + distance * uy, sz + distance * uz


def localize(result: SolveResult, sta_position: np.ndarray) -> np.ndarray:
    """Reflector position implied by a solve, given the STA position."""
    return np.array(reach(np.asarray(sta_position, dtype=float).tolist(), result.distance, result.direction.tolist()))
