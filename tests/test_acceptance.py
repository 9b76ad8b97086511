"""End-to-end acceptance checks for the shipped feature set.

Every test prints one `[criterion N] PASS/FAIL` line before asserting, so
`pytest tests/test_acceptance.py -v -s` reads as a checklist.  The
experiment fixtures are module scoped and dominate the runtime: expect
several minutes on a single core.
"""

import math
import time

import numpy as np
import pytest
from test_geom import XOY, YOZ, observe, sample_scene

from mm3nlos import cli
from mm3nlos.geom import (
    PathObservation,
    SceneType,
    Unsolvable,
    angles_from_direction,
    direction_from_angles,
    localize,
    solve,
)
from mm3nlos.sim import ExperimentConfig, run_experiment

LADDER = ((4, 4), (8, 8), (16, 16), (32, 32))
SNR_GRID = (0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0)
SIGMA_GRID = (0.001, 0.01, 0.05, 0.1, 0.2)


def report(num, ok, detail):
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'}: {detail}")


# ---------------------------------------------------------------------------
# experiment fixtures (module scoped: each grid runs once)

@pytest.fixture(scope="module")
def random_sweep():
    """Solve ten thousand random non-degenerate scenes noiselessly."""
    rng = np.random.default_rng(2026)
    codes: dict[int, int] = {}
    worst_rel = worst_pos = 0.0
    failures = 0
    n = 10_000
    t0 = time.perf_counter()
    for _ in range(n):
        ap, sta, t1, t2 = sample_scene(rng, YOZ)
        try:
            res = solve(observe(ap, sta, t1, 1), observe(ap, sta, t2, 0), YOZ)
        except Exception:
            # The sampler already rejected degenerate scenes, so any
            # failure here counts against the solver.
            failures += 1
            continue
        codes[res.scene.code] = codes.get(res.scene.code, 0) + 1
        want = float(np.linalg.norm(t1 - sta))
        worst_rel = max(worst_rel, abs(res.distance - want) / want)
        worst_pos = max(worst_pos, float(np.linalg.norm(localize(res, sta) - t1)))
    seconds = time.perf_counter() - t0
    return {"n": n, "codes": codes, "worst_rel": worst_rel,
            "worst_pos": worst_pos, "failures": failures, "seconds": seconds}


@pytest.fixture(scope="module")
def ladder_rows():
    cfg = ExperimentConfig(tx_upa=LADDER, rx_upa=LADDER, snr_db=(20.0,),
                           ftm_sigma_m=(0.01,), beam=("best",), trials=500, seed=0)
    return run_experiment(cfg).curve


@pytest.fixture(scope="module")
def snr_rows():
    cfg = ExperimentConfig(tx_upa=((32, 32),), rx_upa=((32, 32),), snr_db=SNR_GRID,
                           ftm_sigma_m=(0.01,), beam=("best",), trials=200, seed=0)
    return run_experiment(cfg).curve


@pytest.fixture(scope="module")
def aux_rows():
    cfg = ExperimentConfig(tx_upa=((8, 8),), rx_upa=((8, 8),), snr_db=(25.0, 30.0),
                           ftm_sigma_m=(0.01,), beam=("aux",), trials=200, seed=0)
    return run_experiment(cfg).curve


@pytest.fixture(scope="module")
def sigma_rows_best():
    cfg = ExperimentConfig(tx_upa=((32, 32),), rx_upa=((32, 32),), snr_db=(30.0,),
                           ftm_sigma_m=SIGMA_GRID, beam=("best",), trials=400, seed=0)
    return run_experiment(cfg).curve


@pytest.fixture(scope="module")
def sigma_rows_aux():
    cfg = ExperimentConfig(tx_upa=((8, 8),), rx_upa=((8, 8),), snr_db=(30.0,),
                           ftm_sigma_m=SIGMA_GRID, beam=("aux",), trials=400, seed=0)
    return run_experiment(cfg).curve


# ---------------------------------------------------------------------------
# checks

def test_criterion_1_noiseless_random_scenes_solve_exactly(random_sweep):
    s = random_sweep
    ok = (s["failures"] == 0 and s["worst_rel"] < 1e-6
          and s["worst_pos"] < 1e-6 and s["seconds"] < 60.0)
    report(1, ok, f"{s['n']} scenes: worst rel {s['worst_rel']:.2e}, "
                  f"worst pos {s['worst_pos']:.2e} m, {s['failures']} failures, "
                  f"{s['seconds']:.1f} s")
    assert s["failures"] == 0
    assert s["worst_rel"] < 1e-6
    assert s["worst_pos"] < 1e-6
    assert s["seconds"] < 60.0


def test_criterion_2_every_scene_code_is_exercised(random_sweep):
    codes = random_sweep["codes"]
    ap = np.array([0.0, 0.0, 0.0])
    sta = np.array([2.0, 0.0, 0.0])
    u_ap = np.array([math.cos(1.1), math.sin(1.1), 0.0])
    u_sta = np.array([math.cos(2.2), math.sin(2.2), 0.0])
    lift = np.array([0.0, 0.0, 1.0])
    flags = {}
    for tag, t1, t2 in (
        ("ap", ap + 1.0 * u_ap + 0.3 * lift, ap + 2.2 * u_ap - 0.4 * lift),
        ("sta", sta + 1.1 * u_sta + 0.25 * lift, sta + 2.4 * u_sta - 0.35 * lift),
    ):
        res = solve(observe(ap, sta, t1, 1), observe(ap, sta, t2, 0), XOY)
        flags[tag] = bool(res.scene == SceneType(5, tag)
                          and np.linalg.norm(localize(res, sta) - t1) < 1e-6)
    line_ap = np.array([0.0, 0.0, 0.0])
    line_sta = np.array([0.0, 2.0, 0.0])
    try:
        solve(observe(line_ap, line_sta, np.array([0.0, 3.0, 0.0]), 1),
              observe(line_ap, line_sta, np.array([0.0, 4.0, 0.0]), 0), YOZ)
        code0 = False
    except Unsolvable as exc:
        code0 = "scene code 0" in str(exc)
    ok = set(codes) >= {1, 2, 3, 4} and all(flags.values()) and code0
    report(2, ok, f"random codes {dict(sorted(codes.items()))}, "
                  f"code 5 sides solved {flags}, code 0 rejected: {code0}")
    assert set(codes) >= {1, 2, 3, 4}
    assert all(flags.values())
    assert code0


def test_criterion_3_headline_point_stays_under_ten_centimeters(ladder_rows):
    row = next(r for r in ladder_rows if r.tx_upa == "32x32")
    ok = row.mean_error_m < 0.10
    report(3, ok, f"32x32 best, 20 dB, sigma 0.01 m, {row.trials} trials: "
                  f"mean {row.mean_error_m:.4f} m (sem {row.stderr_m:.4f}) < 0.10 m")
    assert ok


def test_criterion_4_error_drops_with_aperture(ladder_rows):
    means = [(r.tx_upa, r.mean_error_m, r.stderr_m) for r in ladder_rows]
    gaps = []
    ok = True
    for (la, ma, sa), (lb, mb, sb) in zip(means, means[1:]):
        gap = ma - mb
        need = 2.0 * math.hypot(sa, sb)
        gaps.append(f"{la}->{lb} {gap:+.4f} (need > {need:.4f})")
        ok = ok and gap > need
    levels = ", ".join(f"{la} {ma:.4f}" for la, ma, _ in means)
    report(4, ok, f"means {levels}; gaps {'; '.join(gaps)}")
    assert ok


def test_criterion_5_small_refined_array_beats_large_swept_array(snr_rows, aux_rows):
    pairs = []
    ok = True
    for a in aux_rows:
        b = next(r for r in snr_rows if r.snr_db == a.snr_db)
        pairs.append(f"{a.snr_db:g} dB aux 8x8 {a.mean_error_m:.4f} <= "
                     f"best 32x32 {b.mean_error_m:.4f}")
        ok = ok and a.mean_error_m <= b.mean_error_m
    report(5, ok, "; ".join(pairs))
    assert ok


def test_criterion_6a_swept_beam_error_ignores_snr(snr_rows):
    means = [r.mean_error_m for r in snr_rows]
    spread = (max(means) - min(means)) / float(np.mean(means))
    ok = spread < 0.10
    report("6a", ok, f"best 32x32 mean spread over {min(SNR_GRID):g}..{max(SNR_GRID):g} dB: "
                     f"{spread:.2%} < 10%")
    assert ok


def test_criterion_6b_error_grows_with_ranging_noise(sigma_rows_best, sigma_rows_aux):
    detail = []
    ok = True
    for tag, rows in (("best 32x32", sigma_rows_best), ("aux 8x8", sigma_rows_aux)):
        means = [r.mean_error_m for r in rows]
        mono = all(a <= b for a, b in zip(means, means[1:]))
        detail.append(f"{tag} [" + ", ".join(f"{m:.4f}" for m in means) + f"] monotone: {mono}")
        ok = ok and mono
    report("6b", ok, "; ".join(detail))
    assert ok


def test_criterion_6c_ranging_noise_dominates_the_refined_mode(sigma_rows_best, sigma_rows_aux):
    d_best = sigma_rows_best[-1].mean_error_m - sigma_rows_best[0].mean_error_m
    d_aux = sigma_rows_aux[-1].mean_error_m - sigma_rows_aux[0].mean_error_m
    ok = d_aux > d_best
    report("6c", ok, f"30 dB sigma sweep: aux growth {d_aux:.4f} m > best growth {d_best:.4f} m")
    assert ok


def test_criterion_7_direct_path_partner_matches_law_of_sines():
    # A direct AP to STA path used as the second record turns the solver
    # loose on a plain triangle, so an elementary law-of-sines range is an
    # independent oracle for the returned distance.
    rng = np.random.default_rng(77)
    ap = np.array([0.0, 0.0, 0.0])
    sta = np.array([2.0, 0.0, 0.0])
    base = sta - ap
    los = PathObservation(
        aod=angles_from_direction(base),
        aoa=angles_from_direction(-base),
        path_length=float(np.linalg.norm(base)),
        snr_db=math.inf,
        timestamp=0,
    )
    lo = np.array([0.0, 0.5, -1.0])
    hi = np.array([2.0, 4.0, 1.0])
    worst = 0.0
    for _ in range(1000):
        t1 = rng.uniform(lo, hi)
        obs1 = observe(ap, sta, t1, 1)
        res = solve(obs1, los, XOY)
        b1 = math.acos(np.clip(np.dot(direction_from_angles(obs1.aod),
                                      direction_from_angles(los.aod)), -1.0, 1.0))
        b2 = math.acos(np.clip(np.dot(direction_from_angles(obs1.aoa),
                                      direction_from_angles(los.aoa)), -1.0, 1.0))
        d_oracle = los.path_length * math.sin(b1) / math.sin(b1 + b2)
        worst = max(worst, abs(res.distance - d_oracle) / d_oracle)
    ok = worst < 1e-6
    report(7, ok, f"1000 scenes, worst rel gap to the law-of-sines range {worst:.2e}")
    assert ok


def test_criterion_8_identical_seeds_give_identical_csv_bytes(tmp_path, capsys):
    args = ["sweep-snr", "--tx-upa", "4x4", "--rx-upa", "4x4", "--trials", "5",
            "--snr-db", "10,20", "--seed", "11", "--raw"]
    outs = []
    for name in ("one", "two"):
        out = tmp_path / f"{name}.csv"
        rc = cli.main(args + ["--out", str(out)])
        assert rc == 0
        outs.append((out.read_bytes(), out.with_name(out.stem + ".raw.csv").read_bytes()))
    capsys.readouterr()
    same_curve = outs[0][0] == outs[1][0]
    same_raw = outs[0][1] == outs[1][1]
    ok = same_curve and same_raw
    report(8, ok, f"two sweep runs with seed 11: curve bytes equal {same_curve}, "
                  f"per-trial bytes equal {same_raw}")
    assert ok
