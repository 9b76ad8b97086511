"""Golden pins: SHA-256 of the exact bytes a fixed seed produces.

A change that claims to keep behaviour must pass these with no hash
edited.  A deliberate behaviour change updates the hashes and says why
in CHANGES.md.  On a mismatch, the failing key names the output or the
scene group that moved.
"""

import dataclasses
import hashlib
import math

import numpy as np
from test_geom import FROZEN_AP, FROZEN_STA, FROZEN_T1, FROZEN_T2, XOY, YOZ, observe, sample_scene

from mm3nlos.geom import GeomError, PathObservation, SphericalAngles, solve
from mm3nlos.measure import MeasurementTable, NoUsableHistory, record_first_path, select_historical
from mm3nlos.sim import ExperimentConfig, format_curve_csv, format_raw_csv, run_experiment

EXPERIMENT = ExperimentConfig(
    tx_upa=((4, 4), (8, 8)),
    rx_upa=((4, 4), (8, 8)),
    beam=("best", "aux"),
    trials=20,
    seed=11,
)

EXPERIMENT_SHA256 = {
    "curve": "0266c557077ee2d0b7e259dfbab3d36d8d8d4247c11cc62595981f246f17b30a",
    "raw": "aa088804426c2f2f2e1f6a93ed86f07c16b14efee8d5e0367ac85d643ccb9e1b",
}

AUDIT_SHA256 = {
    "frozen": "b607a4d294b5b124a87a65e5e9a77bddf7f226cdd7bae5dc6167a576bab45518",
    "collinear": "7b358f58e8b838094c799853a0896c9b73aa7a8f7598b64b2fffddcc151c7a40",
    "baseline-family": "2040ebaa46fa6567b85636660240fd33eee2728119eff18b87516e818c3290a1",
    "unsolvable-degenerate": "25bc271b8557bb4bc30789384469c29f7280192ebdd0f0efbf6bb327295ec9bf",
    "random-yoz": "e41244c28173b923187f29a9a751294eefb7475292bc30f9b17be1338f09c9ee",
    "random-xoy": "1dae799e0e93f85be878adf2ebda327278da2757a056618bfadafe3aba012867",
    "noisy-yoz": "882a027bd47ac193902f6c73f0a0266a55037fe9e47a004b8b2d6cbaedf4f1ce",
    "noisy-xoy": "a861c2afdbdc698a04d8f1eb7800ad9762dbdd05836f358b0ff7196dfd0cc2a1",
}

SELECTION_SHA256 = "661f9b4399336c69c25d64e17441c54c4e2d64f7e7cc155f116f958eaafa0916"


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def audit_line(obs1, obs2, plane):
    """Scene, distance and every intermediate of one solve, or the error class."""
    try:
        res = solve(obs1, obs2, plane)
    except GeomError as exc:
        return type(exc).__name__
    inter = tuple(float(v) for v in dataclasses.astuple(res.intermediates))
    return repr((res.scene.code, res.scene.collinear_with, float(res.distance)) + inter)


def audit(cases, noise=None):
    """One line per (ap, sta, t1, t2, plane) case, hashed together.

    With a noise generator, every angle and path length is perturbed
    first, which drives the solver into its failure paths too.
    """
    lines = []
    for ap, sta, t1, t2, plane in cases:
        pair = [observe(ap, sta, t1, 1), observe(ap, sta, t2, 0)]
        if noise is not None:
            pair = [perturb(obs, noise) for obs in pair]
        lines.append(audit_line(*pair, plane))
    return sha256("\n".join(lines))


def perturb(obs, rng, sigma_rad=0.05, sigma_m=0.05):
    az_t, el_t, az_r, el_r = rng.normal(0.0, sigma_rad, size=4)
    return PathObservation(
        aod=SphericalAngles(obs.aod.azimuth + az_t, obs.aod.elevation + el_t),
        aoa=SphericalAngles(obs.aoa.azimuth + az_r, obs.aoa.elevation + el_r),
        path_length=obs.path_length + abs(rng.normal(0.0, sigma_m)),
        snr_db=obs.snr_db,
        timestamp=obs.timestamp,
    )


def collinear_cases():
    """The AP-side, STA-side same-ray and STA-side opposite-ray scenes of test_geom."""
    ap, sta = np.array([0.0, 0.0, 0.0]), np.array([2.0, 0.0, 0.0])
    u_ap = np.array([np.cos(1.1), np.sin(1.1), 0.0])
    u_sta = np.array([np.cos(2.2), np.sin(2.2), 0.0])
    return [
        (ap, sta, ap + 1.0 * u_ap + [0.0, 0.0, 0.3], ap + 2.2 * u_ap + [0.0, 0.0, -0.4], XOY),
        (ap, sta, sta + 1.1 * u_sta + [0.0, 0.0, 0.25], sta + 2.4 * u_sta + [0.0, 0.0, -0.35], XOY),
        (ap, sta, sta + 1.1 * u_sta + [0.0, 0.0, 0.25], sta - 1.7 * u_sta + [0.0, 0.0, 0.4], XOY),
    ]


def random_cases(plane, seed, n=300):
    rng = np.random.default_rng(seed)
    return [(*sample_scene(rng, plane), plane) for _ in range(n)]


def test_experiment_csvs_are_pinned():
    result = run_experiment(EXPERIMENT, collect_raw=True)
    got = {"curve": sha256(format_curve_csv(result.curve)), "raw": sha256(format_raw_csv(result))}
    assert got == EXPERIMENT_SHA256


def test_solver_audit_trail_is_pinned():
    ap, sta = np.array([0.0, 0.0, 0.0]), np.array([0.0, 2.0, 0.0])
    got = {
        "frozen": audit([(FROZEN_AP, FROZEN_STA, FROZEN_T1, FROZEN_T2, YOZ)]),
        "collinear": audit(collinear_cases()),
        "baseline-family": audit([(ap, sta, [0.0, 0.8, 0.0], [0.0, 1.5, 2.0], YOZ)]),
        "unsolvable-degenerate": audit([
            (ap, sta, [0.0, 3.0, 0.0], [0.0, 4.0, 0.0], YOZ),
            (ap, sta, [1.5, 0.0, 0.0], [0.0, 1.0, 1.0], YOZ),
        ]),
        "random-yoz": audit(random_cases(YOZ, seed=21)),
        "random-xoy": audit(random_cases(XOY, seed=22)),
        "noisy-yoz": audit(random_cases(YOZ, seed=23), noise=np.random.default_rng(24)),
        "noisy-xoy": audit(random_cases(XOY, seed=25), noise=np.random.default_rng(26)),
    }
    assert got == AUDIT_SHA256


def selection_line(table, obs, plane, k):
    """Timestamps of the chosen partners, or the error class."""
    try:
        return repr([o.timestamp for o in select_historical(table, obs, k, plane=plane)])
    except (GeomError, NoUsableHistory) as exc:
        return type(exc).__name__


def test_partner_selection_is_pinned():
    """A full, evicting table cycled like a streaming localizer.

    Each epoch adds the newest path, so the table always holds a copy of
    the current path (the code-0 skip).  One path is normal to yoz and
    the strongest while it is held (on yoz the degenerate-projection
    skip, and on its own epochs the first-path fallback, timestamp -1);
    integer SNRs tie often (the recency order); the first epoch runs
    before any first-path record exists.
    """
    rng = np.random.default_rng(31)
    paths = []
    for _ in range(20):
        ap, sta, t1, t2 = sample_scene(rng, YOZ)
        paths += [observe(ap, sta, t1), observe(ap, sta, t2)]
    along_x = SphericalAngles(0.0, math.pi / 2)
    normal = PathObservation(along_x, along_x, 3.0, 0.0, 0)
    paths.append(normal)
    table = MeasurementTable(capacity=32)
    lines = []
    for epoch in range(160):
        if epoch == 1:
            record_first_path(table, dataclasses.replace(paths[0], timestamp=-1))
        base = paths[epoch % len(paths)]
        snr = 8.0 if base is normal else float(rng.integers(0, 8))
        obs = dataclasses.replace(base, snr_db=snr, timestamp=epoch)
        table.add(obs)
        for plane in (YOZ, XOY):
            lines += [selection_line(table, obs, plane, k) for k in (1, 3)]
    assert sha256("\n".join(lines)) == SELECTION_SHA256
