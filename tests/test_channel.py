"""Array, codebook, beam training, and refinement tests.

Sweep correctness is checked against a brute-force oracle that forms
the full channel matrix and scores every codeword pair one by one.
The closed-form refinement is checked against a vector oracle that
builds every beam, couples them by np.vdot and inverts by bisection.
"""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mm3nlos import channel
from mm3nlos.channel import (
    AZIMUTH_HALF_SPAN,
    ELEVATION_MAX,
    ELEVATION_MIN,
    SWEEP_MISS_PROBABILITY,
    ChannelRealization,
    UpaGeometry,
    array_response,
    aux_beam_refine,
    beam_sweep,
    build_codebook,
    direction_cosines,
    power_db,
)
from mm3nlos.geom import SphericalAngles


def upa(n_h, n_v=None):
    return UpaGeometry(n_h, n_v if n_v is not None else n_h)


def channel_matrix(ch, tx, rx):
    """Rank-one channel: sqrt(N_t N_r) * g * a_rx * a_tx^H."""
    a_t = array_response(tx, ch.aod)
    a_r = array_response(rx, ch.aoa)
    scale = math.sqrt(tx.n_elements * rx.n_elements)
    return scale * ch.gain * np.outer(a_r, a_t.conj())


def random_coverage_angles(rng):
    az = rng.uniform(-AZIMUTH_HALF_SPAN, AZIMUTH_HALF_SPAN)
    el = rng.uniform(ELEVATION_MIN, ELEVATION_MAX)
    return SphericalAngles(float(az), float(el))


def cosine_error(a: SphericalAngles, b: SphericalAngles) -> float:
    ua, va = direction_cosines(a)
    ub, vb = direction_cosines(b)
    return math.hypot(ua - ub, va - vb)


# ---------------------------------------------------------------------------
# array responses

def test_geometry_validation():
    with pytest.raises(ValueError):
        UpaGeometry(0, 4)
    with pytest.raises(ValueError):
        UpaGeometry(4, -1)
    g = upa(4, 2)
    assert g.n_elements == 8
    assert math.isclose(g.phase_pitch, math.pi)  # half-wavelength spacing


def test_direction_cosines_formula():
    u, v = direction_cosines(SphericalAngles(math.pi / 6, math.pi / 3))
    assert math.isclose(u, 0.5 * math.sin(math.pi / 3))
    assert math.isclose(v, 0.5)


def test_broadside_response_is_uniform():
    g = upa(4)
    a = array_response(g, SphericalAngles(0.0, math.pi / 2))
    np.testing.assert_allclose(a, np.full(16, 0.25), atol=1e-15)


def test_response_matches_the_per_element_phase():
    g = upa(3, 2)
    ang = SphericalAngles(0.4, 1.2)
    u, v = direction_cosines(ang)
    a = array_response(g, ang)
    for p in range(3):
        for q in range(2):
            want = np.exp(-1j * g.phase_pitch * (p * u + q * v)) / math.sqrt(6)
            assert abs(a[p * 2 + q] - want) < 1e-12


def test_response_unit_norm_and_conjugate_symmetry():
    g = upa(8, 4)
    rng = np.random.default_rng(2)
    for _ in range(25):
        ang = random_coverage_angles(rng)
        a = array_response(g, ang)
        assert math.isclose(float(np.linalg.norm(a)), 1.0, rel_tol=1e-12)
        mirrored = array_response(g, SphericalAngles(-ang.azimuth, math.pi - ang.elevation))
        np.testing.assert_allclose(np.conj(a), mirrored, atol=1e-12)


def test_channel_matrix_is_rank_one_with_matched_gain():
    g_tx, g_rx = upa(4), upa(2)
    ch = ChannelRealization(0.3 - 0.8j, SphericalAngles(0.2, 1.4), SphericalAngles(-0.5, 1.9), 3.0)
    h = channel_matrix(ch, g_tx, g_rx)
    assert h.shape == (4, 16)
    s = np.linalg.svd(h, compute_uv=False)
    assert s[1] < 1e-12 * s[0]
    # Frobenius norm carries the sqrt(Nt Nr) power scale.
    want = math.sqrt(g_tx.n_elements * g_rx.n_elements) * abs(ch.gain)
    assert math.isclose(float(np.linalg.norm(h)), want, rel_tol=1e-12)


# ---------------------------------------------------------------------------
# codebooks

def test_codebook_covers_the_sector_grid():
    g = upa(8, 4)
    cb = build_codebook(g, oversampling=2)
    assert len(cb) == (2 * 8) * (2 * 4)
    sin_span = math.sin(AZIMUTH_HALF_SPAN)
    assert cb.sin_az_grid.min() > -sin_span and cb.sin_az_grid.max() < sin_span
    assert cb.cos_el_grid.min() > math.cos(ELEVATION_MAX)
    assert cb.cos_el_grid.max() < math.cos(ELEVATION_MIN)
    # Cell-centered uniform grid: constant pitch equal to the cell width.
    np.testing.assert_allclose(np.diff(cb.sin_az_grid), cb.az_cell_width, atol=1e-12)
    np.testing.assert_allclose(np.diff(cb.cos_el_grid), cb.el_cell_width, atol=1e-12)
    norms = np.linalg.norm(cb.weights, axis=1)
    np.testing.assert_allclose(norms, 1.0, atol=1e-12)


def test_single_element_codebook_is_the_trivial_beam():
    cb = build_codebook(upa(1, 1))
    assert len(cb) == 1
    np.testing.assert_allclose(cb.weights[0], [1.0], atol=1e-15)
    assert math.isclose(cb.steerings[0].elevation, math.pi / 2)


@pytest.mark.parametrize("n_h, n_v, oversampling", [(32, 32, 1), (8, 8, 1), (4, 4, 2), (1, 8, 1), (3, 5, 1)])
def test_codebook_weights_are_the_steering_responses(n_h, n_v, oversampling):
    g = upa(n_h, n_v)
    cb = build_codebook(g, oversampling)
    assert np.array_equal(cb.weights, np.stack([array_response(g, a) for a in cb.steerings]))


def test_codebook_rejects_bad_oversampling():
    with pytest.raises(ValueError):
        build_codebook(upa(4), oversampling=0)


def quantization_loss_db(cb, ang):
    a = array_response(cb.geom, ang)
    best = float(np.max(np.abs(cb.weights.conj() @ a)))
    return -20.0 * math.log10(best)


def test_codebook_quantization_loss_is_bounded():
    g = upa(8)
    cb1 = build_codebook(g, oversampling=1)
    cb2 = build_codebook(g, oversampling=2)
    rng = np.random.default_rng(7)
    angles = [random_coverage_angles(rng) for _ in range(200)]
    loss1 = [quantization_loss_db(cb1, a) for a in angles]
    loss2 = [quantization_loss_db(cb2, a) for a in angles]
    assert float(np.median(loss1)) < 3.0
    assert max(loss2) < 3.0
    assert float(np.median(loss2)) < float(np.median(loss1))


# ---------------------------------------------------------------------------
# beam training

def exhaustive_best_pair(ch, tx_cb, rx_cb, p_t):
    """Independent sweep oracle over the explicit channel matrix."""
    h = channel_matrix(ch, tx_cb.geom, rx_cb.geom)
    best, arg = -math.inf, None
    for i in range(len(tx_cb)):
        for j in range(len(rx_cb)):
            w, f = rx_cb.weights[j], tx_cb.weights[i]
            power = p_t * abs(np.conj(w) @ h @ f) ** 2
            if power > best:
                best, arg = power, (i, j)
    return arg


def test_noiseless_sweep_matches_the_exhaustive_oracle():
    tx_cb = build_codebook(upa(8), 1)
    rx_cb = build_codebook(upa(4), 1)
    rng = np.random.default_rng(21)
    for _ in range(10):
        ch = ChannelRealization(
            complex(rng.standard_normal(), rng.standard_normal()) / math.sqrt(2),
            random_coverage_angles(rng),
            random_coverage_angles(rng),
            3.0,
        )
        got_tx, got_rx, snr = beam_sweep(ch, tx_cb, rx_cb, p_t=1.0, noise_power=0.0, rng=rng)
        i, j = exhaustive_best_pair(ch, tx_cb, rx_cb, p_t=1.0)
        assert got_tx == tx_cb.steerings[i]
        assert got_rx == rx_cb.steerings[j]
        assert snr == math.inf


def test_noiseless_sweep_picks_the_nearest_cell_per_axis():
    # Single-row and single-column arrays decouple the two steering axes,
    # so the winning codeword must be the nearest grid cell in sin-space.
    rng = np.random.default_rng(31)
    trivial = build_codebook(upa(1, 1))
    cb_az = build_codebook(upa(8, 1), 1)
    cb_el = build_codebook(upa(1, 8), 1)
    for _ in range(20):
        truth = random_coverage_angles(rng)
        ch = ChannelRealization(1.0, truth, SphericalAngles(0.0, math.pi / 2), 1.0)
        u, _ = direction_cosines(truth)
        got_az, _, _ = beam_sweep(ch, cb_az, trivial, 1.0, 0.0, rng)
        want = cb_az.sin_az_grid[np.argmin(np.abs(cb_az.sin_az_grid - u))]
        assert math.isclose(math.sin(got_az.azimuth), want, abs_tol=1e-12)
        got_el, _, _ = beam_sweep(ch, cb_el, trivial, 1.0, 0.0, rng)
        want = cb_el.cos_el_grid[np.argmin(np.abs(cb_el.cos_el_grid - math.cos(truth.elevation)))]
        assert math.isclose(math.cos(got_el.elevation), want, abs_tol=1e-12)


def test_oversampling_helps_on_average_but_is_not_nested():
    # Cell-centered grids shift when the density doubles, so a direction
    # sitting on a coarse center can lose up to a quarter cell; the gain
    # must still improve in the median and in the worst case.
    g = upa(8)
    cb1 = build_codebook(g, 1)
    cb2 = build_codebook(g, 2)
    rng = np.random.default_rng(123)
    deltas = []
    for _ in range(300):
        a = array_response(g, random_coverage_angles(rng))
        b1 = float(np.max(np.abs(cb1.weights.conj() @ a)))
        b2 = float(np.max(np.abs(cb2.weights.conj() @ a)))
        deltas.append(20.0 * math.log10(b2 / b1))
    assert float(np.median(deltas)) > 0.0
    assert min(deltas) > -1.5


def test_noisy_sweep_reports_the_winning_power():
    tx_cb = build_codebook(upa(4), 1)
    rx_cb = build_codebook(upa(4), 1)
    rng = np.random.default_rng(3)
    ch = ChannelRealization(0.9, random_coverage_angles(rng), random_coverage_angles(rng), 2.0)
    _, _, snr = beam_sweep(ch, tx_cb, rx_cb, p_t=100.0, noise_power=1.0, rng=rng)
    assert math.isfinite(snr)


def test_power_db_cases():
    assert power_db(100.0, 1.0) == 20.0
    assert power_db(0.0, 1.0) == -math.inf
    assert power_db(5.0, 0.0) == math.inf  # no noise: exact, whatever the power


def test_noise_dominated_sweep_picks_uniformly():
    # With the signal 160 dB under the noise the argmax must be uniform
    # over the 16 codeword pairs; chi-square test at the 1% level.
    tx_cb = build_codebook(upa(2), 1)
    rx_cb = build_codebook(upa(2), 1)
    rng = np.random.default_rng(0)
    counts = np.zeros((4, 4))
    sweeps = 2000
    for _ in range(sweeps):
        ch = ChannelRealization(1e-8, random_coverage_angles(rng), random_coverage_angles(rng), 2.0)
        got_tx, got_rx, _ = beam_sweep(ch, tx_cb, rx_cb, p_t=1.0, noise_power=1.0, rng=rng)
        counts[tx_cb.steerings.index(got_tx), rx_cb.steerings.index(got_rx)] += 1
    expected = sweeps / counts.size
    stat = float(((counts - expected) ** 2 / expected).sum())
    assert stat < 30.578  # chi-square critical value, 15 dof, 1%


class CountingNormals:
    """Generator proxy recording the size of every Gaussian draw."""

    def __init__(self, rng):
        self.rng = rng
        self.draws = []

    def standard_normal(self, shape=None):
        out = self.rng.standard_normal(shape)
        self.draws.append(int(np.size(out)))
        return out


def full_draw_best_pair(ch, tx_cb, rx_cb, p_t, noise_power, rng):
    """Noisy sweep oracle: one draw for every pair of the explicit grid."""
    h = channel_matrix(ch, tx_cb.geom, rx_cb.geom)
    signal = math.sqrt(p_t) * rx_cb.weights.conj() @ h @ tx_cb.weights.T
    noise = rng.standard_normal(signal.shape) + 1j * rng.standard_normal(signal.shape)
    j, i = np.unravel_index(int(np.argmax(np.abs(signal + math.sqrt(noise_power / 2.0) * noise))), signal.shape)
    return int(i), int(j)


def between_cells(cb, i, j, frac):
    """Direction frac of the way from azimuth cell i to i + 1, on elevation cell j."""
    el = math.acos(cb.cos_el_grid[j])
    u = (1.0 - frac) * cb.sin_az_grid[i] + frac * cb.sin_az_grid[i + 1]
    return SphericalAngles(math.asin(u / math.sin(el)), el)


@pytest.mark.parametrize("miss_probability", [SWEEP_MISS_PROBABILITY, 0.0])
def test_pruned_sweep_picks_like_the_full_draw(monkeypatch, miss_probability):
    # Four pairs within about 1.5 noise amplitudes of each other contend
    # at a peak 12.9 noise amplitudes up, so the pruned rectangle is a
    # strict subset of the 1024 pairs.  A zero miss probability rejects
    # every rectangle: the sweep keeps its draws and draws the skipped
    # pairs once, never redrawing a pair.  Chi-square homogeneity of the
    # chosen-pair histograms at the 1% level.
    monkeypatch.setattr(channel, "SWEEP_MISS_PROBABILITY", miss_probability)
    tx_cb = build_codebook(upa(8), 1)
    rx_cb = build_codebook(upa(4), 1)
    ch = ChannelRealization(1.0, between_cells(tx_cb, 3, 4, 0.47), between_cells(rx_cb, 1, 2, 0.485), 3.0)
    p_t, cells, sweeps = 0.5, len(tx_cb) * len(rx_cb), 3000
    oracle_rng = np.random.default_rng(1)
    oracle = [full_draw_best_pair(ch, tx_cb, rx_cb, p_t, 1.0, oracle_rng) for _ in range(sweeps)]
    counting = CountingNormals(np.random.default_rng(2))
    pruned = []
    for _ in range(sweeps):
        counting.draws.clear()
        got_tx, got_rx, _ = beam_sweep(ch, tx_cb, rx_cb, p_t, 1.0, counting)
        pruned.append((tx_cb.steerings.index(got_tx), rx_cb.steerings.index(got_rx)))
        rect = counting.draws[0]
        assert counting.draws[:2] == [rect, rect] and rect < cells
        if miss_probability == 0.0:
            assert counting.draws[2:] == [cells - rect, cells - rect]
        else:
            assert len(counting.draws) == 2
    # The four contenders, then every other pair pooled.
    contenders = sorted(set(oracle), key=oracle.count, reverse=True)[:4]
    table = np.array([
        [picks.count(c) for c in contenders] + [sum(p not in contenders for p in picks)]
        for picks in (oracle, pruned)
    ], dtype=float)
    table = table[:, table.sum(axis=0) > 0]
    expected = np.outer(table.sum(axis=1), table.sum(axis=0)) / table.sum()
    stat = float(((table - expected) ** 2 / expected).sum())
    critical = {1: 6.635, 2: 9.210, 3: 11.345, 4: 13.277}  # chi-square 1% by dof
    assert stat < critical[table.shape[1] - 1]


def test_high_snr_sweep_draws_a_small_share_of_the_grid():
    cb = build_codebook(upa(32), 1)
    rng = np.random.default_rng(41)
    for _ in range(5):
        ch = ChannelRealization(
            complex(rng.standard_normal(), rng.standard_normal()) / math.sqrt(2),
            random_coverage_angles(rng),
            random_coverage_angles(rng),
            3.0,
        )
        counting = CountingNormals(rng)
        beam_sweep(ch, cb, cb, p_t=100.0, noise_power=1.0, rng=counting)
        assert sum(counting.draws) < 2 * len(cb) ** 2 // 1000


# ---------------------------------------------------------------------------
# auxiliary refinement: vector oracle

def steering_from_cosines(geom, u, v):
    """Unit-norm Kronecker steering toward direction cosines (u, v)."""
    h = np.exp(-1j * geom.phase_pitch * u * np.arange(geom.n_h)) / math.sqrt(geom.n_h)
    w = np.exp(-1j * geom.phase_pitch * v * np.arange(geom.n_v)) / math.sqrt(geom.n_v)
    return np.kron(h, w)


def vector_coupling(geom, ua, va, ub, vb):
    """a(ua, va)^H a(ub, vb) from the two steering vectors."""
    return complex(np.vdot(steering_from_cosines(geom, ua, va), steering_from_cosines(geom, ub, vb)))


def bisection_inverse(n, pitch, half, measured, reach):
    """80-step bisection of the monotone log power ratio on [-reach, reach]."""
    lo, hi = -reach, reach
    if measured <= channel._log_gain_ratio(n, pitch, half, lo):
        return lo
    if measured >= channel._log_gain_ratio(n, pitch, half, hi):
        return hi
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if channel._log_gain_ratio(n, pitch, half, mid) < measured:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def vector_refine(ch, coarse, side, geom, delta_offset, p_t, noise_power, rng, *, other_angles, other_geom):
    """Auxiliary-beam refinement with explicit beams: every probe and the
    own-side response are steering vectors measured by np.vdot, the
    opposite side's fixed beam is array_response(other_angles), and each
    ratio is inverted by bisection.  Same draws as aux_beam_refine."""
    tx = side == "tx"
    a_own = array_response(geom, ch.aod if tx else ch.aoa)
    a_other = array_response(other_geom, ch.aoa if tx else ch.aod)
    fixed = array_response(other_geom, other_angles)
    other = math.sqrt(other_geom.n_elements) * complex(np.vdot(fixed, a_other) if tx else np.vdot(a_other, fixed))

    def power(beam):
        own = complex(np.vdot(a_own, beam) if tx else np.vdot(beam, a_own))
        amp = math.sqrt(p_t) * ch.gain * other * own * math.sqrt(geom.n_elements)
        if noise_power > 0.0:
            sigma = math.sqrt(noise_power / 2.0)
            amp += sigma * complex(rng.standard_normal(()) + 1j * rng.standard_normal(()))
        return abs(amp) ** 2

    u0, v0 = direction_cosines(coarse)
    sin_el = math.sin(coarse.elevation)
    pitch = geom.phase_pitch

    def refine_axis(n_axis, anchor, half, along_u):
        null = 2.0 * math.pi / (n_axis * pitch)
        half = min(half, 0.45 * null)
        reach = 0.95 * null - half
        probes = [(anchor + s * half, v0) if along_u else (u0, anchor + s * half) for s in (1.0, -1.0)]
        p_plus, p_minus = (power(steering_from_cosines(geom, u, v)) for u, v in probes)
        if noise_power > 0.0 and p_plus <= noise_power and p_minus <= noise_power:
            return anchor
        ratio = math.log(max(p_plus, 1e-300)) - math.log(max(p_minus, 1e-300))
        return anchor + bisection_inverse(n_axis, pitch, half, ratio, reach)

    half_u = max(delta_offset * abs(math.cos(coarse.azimuth)) * sin_el, 1e-6)
    half_v = max(delta_offset * sin_el, 1e-6)
    u_hat = refine_axis(geom.n_h, u0, half_u, True) if geom.n_h > 1 else u0
    v_hat = refine_axis(geom.n_v, v0, half_v, False) if geom.n_v > 1 else v0
    v_hat = max(math.cos(ELEVATION_MAX), min(math.cos(ELEVATION_MIN), v_hat))
    el = math.acos(v_hat)
    az = math.asin(max(-1.0, min(1.0, u_hat / math.sin(el))))
    return SphericalAngles(max(-AZIMUTH_HALF_SPAN, min(AZIMUTH_HALF_SPAN, az)), el)


COUPLING_SHAPES = [(1, 1), (1, 8), (8, 1), (8, 8), (32, 32)]

# Cosine offsets: anywhere, near 0, and near +-2 (the grating lobe at a
# phase difference of +-2 pi per element).
cosine_offsets = st.one_of(
    st.floats(-2.0, 2.0),
    st.floats(-1e-9, 1e-9),
    st.floats(2.0 - 1e-9, 2.0 + 1e-9),
    st.floats(-2.0 - 1e-9, -2.0 + 1e-9),
)


@given(
    shape=st.sampled_from(COUPLING_SHAPES),
    ua=st.floats(-1.0, 1.0),
    va=st.floats(-1.0, 1.0),
    du=cosine_offsets,
    dv=cosine_offsets,
)
def test_closed_form_coupling_matches_the_vector_oracle(shape, ua, va, du, dv):
    geom = upa(*shape)
    ub, vb = ua - du, va - dv
    got = channel._coupling(geom, ua - ub, va - vb)
    assert abs(got - vector_coupling(geom, ua, va, ub, vb)) < 1e-12


@pytest.mark.parametrize("shape", COUPLING_SHAPES)
def test_coupling_is_exactly_one_on_the_main_and_grating_lobes(shape):
    geom = upa(*shape)
    for du, dv in [(0.0, 0.0), (2.0, 0.0), (0.0, -2.0), (2.0, 2.0), (-4.0, 2.0)]:
        assert channel._coupling(geom, du, dv) == 1.0


@pytest.mark.parametrize("n", [2, 4, 8, 32])
@pytest.mark.parametrize("half_fraction", [0.01, 0.1, 0.25, 0.45])
def test_newton_inverse_matches_the_bisection_oracle(n, half_fraction):
    pitch = math.pi
    null = 2.0 * math.pi / (n * pitch)
    half = half_fraction * null
    reach = 0.95 * null - half
    g_lo = channel._log_gain_ratio(n, pitch, half, -reach)
    g_hi = channel._log_gain_ratio(n, pitch, half, reach)
    # Ratios of truths across the bracket, at both clamps, and beyond them.
    offsets = np.linspace(-reach, reach, 41)[1:-1] + 0.3 * reach / 40
    measured = [channel._log_gain_ratio(n, pitch, half, float(x)) for x in offsets]
    measured += [g_lo, g_hi, g_lo - 1.0, g_hi + 1.0, -1e3, 1e3, 0.0, 1e-14, -1e-14]
    for m in measured:
        got = channel._invert_ratio(n, pitch, half, m, reach)
        assert abs(got - bisection_inverse(n, pitch, half, m, reach)) < 1e-12
        assert -reach <= got <= reach
    assert channel._invert_ratio(n, pitch, half, g_hi + 1.0, reach) == reach
    assert channel._invert_ratio(n, pitch, half, g_lo - 1.0, reach) == -reach


@pytest.mark.parametrize("shape", [(4, 4), (8, 8), (16, 16), (1, 8), (8, 1)])
@pytest.mark.parametrize("snr_db", [None, 10.0, 30.0])
def test_refinement_matches_the_vector_oracle_draw_for_draw(shape, snr_db):
    geom = upa(*shape)
    delta = 0.5 * build_codebook(geom, 1).az_cell_width
    p_t, noise = (1.0, 0.0) if snr_db is None else (10.0 ** (snr_db / 10.0), 1.0)
    rng = np.random.default_rng([*shape, 0 if snr_db is None else int(snr_db)])
    for _ in range(40):
        side = "tx" if rng.uniform() < 0.5 else "rx"
        own, other = random_coverage_angles(rng), random_coverage_angles(rng)
        aod, aoa = (own, other) if side == "tx" else (other, own)
        ch = ChannelRealization(complex(rng.standard_normal(), rng.standard_normal()), aod, aoa, 1.0)
        nudge = rng.normal(0.0, 0.03, size=4)
        coarse = SphericalAngles(own.azimuth + nudge[0], own.elevation + nudge[1])
        fixed = SphericalAngles(other.azimuth + nudge[2], other.elevation + nudge[3])
        other_geom = upa(4, 8)
        seed = int(rng.integers(2**32))
        closed, vector = np.random.default_rng(seed), np.random.default_rng(seed)
        got = aux_beam_refine(ch, coarse, side, geom, delta, p_t, noise, closed,
                              other_angles=fixed, other_geom=other_geom)
        want = vector_refine(ch, coarse, side, geom, delta, p_t, noise, vector,
                             other_angles=fixed, other_geom=other_geom)
        assert abs(got.azimuth - want.azimuth) < 1e-12
        assert abs(got.elevation - want.elevation) < 1e-12
        assert closed.bit_generator.state == vector.bit_generator.state


# ---------------------------------------------------------------------------
# auxiliary refinement

# A 1x1 opposite side: its fixed beam and its response are both [1], so
# its coupling factor is exactly 1 wherever it is steered.
ONE_ELEMENT_SIDE = dict(
    other_angles=SphericalAngles(0.0, math.pi / 2),
    other_geom=UpaGeometry(1, 1),
)


def test_refine_validates_inputs():
    g = upa(8)
    ch = ChannelRealization(1.0, SphericalAngles(0.1, 1.5), SphericalAngles(0.0, 1.5), 1.0)
    coarse = SphericalAngles(0.1, 1.5)
    rng = np.random.default_rng(1)
    with pytest.raises(ValueError):
        aux_beam_refine(ch, coarse, "uplink", g, 0.01, 1.0, 0.0, rng, **ONE_ELEMENT_SIDE)
    with pytest.raises(ValueError):
        aux_beam_refine(ch, coarse, "tx", g, 0.0, 1.0, 0.0, rng, **ONE_ELEMENT_SIDE)


def test_noiseless_refinement_lands_on_the_truth():
    g = upa(8)
    cb = build_codebook(g, 1)
    rng = np.random.default_rng(13)
    delta = 0.5 * cb.az_cell_width
    for _ in range(100):
        truth = random_coverage_angles(rng)
        ch = ChannelRealization(1.0, truth, SphericalAngles(0.0, math.pi / 2), 2.0)
        coarse, _, _ = beam_sweep(ch, cb, build_codebook(upa(1, 1)), 1.0, 0.0, rng)
        refined = aux_beam_refine(ch, coarse, "tx", g, delta, 1.0, 0.0, rng, **ONE_ELEMENT_SIDE)
        before = cosine_error(coarse, truth)
        after = cosine_error(refined, truth)
        assert after < before
        assert after < 1e-9


def test_noisy_refinement_beats_the_codebook_grid_on_average():
    g = upa(8)
    cb = build_codebook(g, 1)
    rng = np.random.default_rng(29)
    delta = 0.5 * cb.az_cell_width
    p_t = 10.0 ** (30.0 / 10.0)  # 30 dB over unit noise
    before, after = [], []
    for _ in range(60):
        truth = random_coverage_angles(rng)
        ch = ChannelRealization(1.0, truth, SphericalAngles(0.0, math.pi / 2), 2.0)
        coarse, _, _ = beam_sweep(ch, cb, build_codebook(upa(1, 1)), p_t, 1.0, rng)
        refined = aux_beam_refine(ch, coarse, "tx", g, delta, p_t, 1.0, rng, **ONE_ELEMENT_SIDE)
        before.append(cosine_error(coarse, truth))
        after.append(cosine_error(refined, truth))
    assert float(np.mean(after)) < 0.5 * float(np.mean(before))


class ZeroNoise:
    """Generator stub whose Gaussian draws are all zero."""

    def standard_normal(self, shape=None):
        return 0.0 if shape in ((), None) else np.zeros(shape)


def test_noise_floor_measurements_keep_the_coarse_beam():
    # A dead channel measures exactly zero power on every auxiliary beam,
    # which is at the noise floor, so both axes keep their coarse values.
    g = upa(8)
    coarse = SphericalAngles(0.2, 1.4)
    ch = ChannelRealization(0.0, SphericalAngles(0.21, 1.41), SphericalAngles(0.0, 1.5), 1.0)
    refined = aux_beam_refine(ch, coarse, "tx", g, 0.05, 1.0, 1.0, ZeroNoise(), **ONE_ELEMENT_SIDE)
    assert refined == coarse


def test_refinement_stays_inside_coverage():
    g = upa(4)
    rng = np.random.default_rng(17)
    edge = SphericalAngles(AZIMUTH_HALF_SPAN - 1e-3, ELEVATION_MAX - 1e-3)
    ch = ChannelRealization(1.0, edge, SphericalAngles(0.0, math.pi / 2), 1.0)
    refined = aux_beam_refine(ch, edge, "tx", g, 0.1, 1.0, 0.0, rng, **ONE_ELEMENT_SIDE)
    assert abs(refined.azimuth) <= AZIMUTH_HALF_SPAN + 1e-12
    assert ELEVATION_MIN - 1e-12 <= refined.elevation <= ELEVATION_MAX + 1e-12
