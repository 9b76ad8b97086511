"""mmWave physical layer: planar arrays, beams, sweeps, refinement.

Models a single-path link between two uniform planar arrays (UPAs).
Every array is half-wavelength spaced, so the per-element phase pitch
is pi and no result depends on the carrier frequency.  The channel is
rank one: a complex gain times the outer product of receive and
transmit steering vectors.  Angle estimation is simulated two ways:

* a sweep over a Kronecker-product codebook, taking the
  transmit/receive pair with the highest noisy received power.  Noise
  is drawn only for the pairs that can still win, so the result is the
  exhaustive sweep's except on a declared event of probability below
  1e-12 (SWEEP_MISS_PROBABILITY), and
* an auxiliary-beam refinement step that steers two beams slightly off
  the coarse estimate per angular coordinate and inverts the measured
  power ratio through the array factor (amplitude-comparison monopulse).
  It builds no vectors: the coupling of two Kronecker steerings is the
  product of two per-axis Dirichlet sums, so each probe's complex
  amplitude comes straight from direction-cosine offsets, the opposite
  side's fixed beam is given by its steering angles, and each ratio is
  inverted by a safeguarded Newton iteration on the analytic slope of
  the log array factor.

Directions use the global azimuth/elevation convention of
:mod:`mm3nlos.geom`; arrays are addressed in their own local frame, so
callers rotate angles into that frame first.  Only NumPy and the
standard library are used.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .geom import TAU, SphericalAngles

#: Codebook coverage: azimuth within +-60 degrees of broadside.
AZIMUTH_HALF_SPAN = math.pi / 3.0

#: Codebook coverage: elevation within [45, 135] degrees.
ELEVATION_MIN = math.pi / 4.0
ELEVATION_MAX = 3.0 * math.pi / 4.0

# Fraction of the first array-factor null kept for monopulse inversion;
# beyond it the log-ratio is no longer monotone-safe.
_MAINLOBE_FRACTION = 0.95

_TINY_POWER = 1e-300

# Step cap of the safeguarded Newton inverse; it converges in a handful.
_NEWTON_MAX_STEPS = 60

#: Pruned sweep: pairs whose signal amplitude is more than this many
#: noise amplitudes sqrt(noise_power) below the peak get no noise draw
#: unless the best measurement leaves them a chance to win.
SWEEP_MARGIN = 10.0

#: Pruned sweep: accepted bound on the probability that a skipped pair
#: would have won.
SWEEP_MISS_PROBABILITY = 1e-12

# Relative slack on the pruning floor, so rounding in the per-pair
# amplitudes cannot leave a noiseless sweep's winner outside the
# rectangle.
_SWEEP_SLACK = 1e-9


@dataclass(frozen=True)
class UpaGeometry:
    """Uniform planar array: n_h x n_v elements, half-wavelength spaced.

    The horizontal axis indexes azimuth steering (direction cosine
    u = sin(az) * sin(el)), the vertical axis elevation steering
    (v = cos(el)).
    """

    n_h: int
    n_v: int

    #: k * d at half-wavelength spacing: phase advance per element per
    #: unit direction cosine, the same at every carrier.
    phase_pitch = math.pi

    def __post_init__(self) -> None:
        if self.n_h < 1 or self.n_v < 1:
            raise ValueError("antenna counts must be positive")

    @property
    def n_elements(self) -> int:
        return self.n_h * self.n_v


@dataclass(frozen=True)
class ChannelRealization:
    """One single-bounce path between the arrays.

    gain is the small-scale complex amplitude (drawn CN(0,1) by the
    simulator); aod/aoa are the path directions in the transmit and
    receive array frames; path_length is carried along for ranging.
    """

    gain: complex
    aod: SphericalAngles
    aoa: SphericalAngles
    path_length: float


def direction_cosines(angles: SphericalAngles) -> tuple[float, float]:
    """(u, v) = (sin(az) sin(el), cos(el)) steering coordinates."""
    return (
        math.sin(angles.azimuth) * math.sin(angles.elevation),
        math.cos(angles.elevation),
    )


def _axis_steering(n: int, pitch: float, cosine) -> np.ndarray:
    """Unit-norm phase ramp exp(-j * pitch * cosine * p) / sqrt(n), p < n.

    cosine may be a column of direction cosines, one ramp per row.
    """
    return np.exp(-1j * pitch * cosine * np.arange(n)) / math.sqrt(n)


def array_response(geom: UpaGeometry, angles: SphericalAngles) -> np.ndarray:
    """Unit-norm steering vector of the array toward the given direction.

    Element (p, q) carries phase -k*d*(p*u + q*v); the vector is the
    Kronecker product of the horizontal and vertical factors, indexed
    p * n_v + q.
    """
    u, v = direction_cosines(angles)
    h = _axis_steering(geom.n_h, geom.phase_pitch, u)
    w = _axis_steering(geom.n_v, geom.phase_pitch, v)
    return (h[:, None] * w).ravel()


class Codebook:
    """Beam codebook on a Kronecker product of per-axis steering grids.

    Grid points sample the direction-cosine coverage spans uniformly
    with oversampling * n_h (or n_v) cells, steering at cell centers.
    Codeword i * m_v + j pairs horizontal cell i with vertical cell j.
    """

    def __init__(self, geom: UpaGeometry, sin_az_grid: np.ndarray, cos_el_grid: np.ndarray) -> None:
        self.geom = geom
        self.sin_az_grid = np.asarray(sin_az_grid, dtype=float)
        self.cos_el_grid = np.asarray(cos_el_grid, dtype=float)
        self.steerings = [
            SphericalAngles(math.asin(float(s)), math.acos(float(c)))
            for s in self.sin_az_grid
            for c in self.cos_el_grid
        ]
        # Row k equals array_response(geom, steerings[k]) bit for bit: one
        # exp per axis over all codewords, then one outer product.
        cosines = np.array([direction_cosines(ang) for ang in self.steerings])
        h = _axis_steering(geom.n_h, geom.phase_pitch, cosines[:, :1])
        w = _axis_steering(geom.n_v, geom.phase_pitch, cosines[:, 1:])
        self.weights = (h[:, :, None] * w[:, None, :]).reshape(len(self.steerings), geom.n_elements)

    def __len__(self) -> int:
        return self.weights.shape[0]

    @property
    def az_cell_width(self) -> float:
        """Horizontal grid pitch in direction-cosine units."""
        return 2.0 * math.sin(AZIMUTH_HALF_SPAN) / self.sin_az_grid.size

    @property
    def el_cell_width(self) -> float:
        return (math.cos(ELEVATION_MIN) - math.cos(ELEVATION_MAX)) / self.cos_el_grid.size


def _cell_centers(lo: float, hi: float, count: int) -> np.ndarray:
    step = (hi - lo) / count
    return lo + (np.arange(count) + 0.5) * step


def build_codebook(geom: UpaGeometry, oversampling: int = 1) -> Codebook:
    """Codebook covering azimuth +-60 deg and elevation 45..135 deg."""
    if oversampling < 1:
        raise ValueError("oversampling must be >= 1")
    sin_span = math.sin(AZIMUTH_HALF_SPAN)
    sin_az = _cell_centers(-sin_span, sin_span, oversampling * geom.n_h)
    cos_el = _cell_centers(math.cos(ELEVATION_MAX), math.cos(ELEVATION_MIN), oversampling * geom.n_v)
    return Codebook(geom, sin_az, cos_el)


def _complex_noise(rng: np.random.Generator, shape, noise_power: float) -> np.ndarray:
    if noise_power == 0.0:
        return np.zeros(shape, dtype=complex)
    sigma = math.sqrt(noise_power / 2.0)
    return sigma * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


def power_db(power: float, noise_power: float) -> float:
    """SNR in dB of a power against a noise power: infinite with no
    noise, minus infinity at zero power."""
    if noise_power == 0.0:
        return math.inf
    return 10.0 * math.log10(power / noise_power) if power > 0.0 else -math.inf


def beam_sweep(
    ch: ChannelRealization,
    tx_cb: Codebook,
    rx_cb: Codebook,
    p_t: float,
    noise_power: float,
    rng: np.random.Generator,
) -> tuple[SphericalAngles, SphericalAngles, float]:
    """Beam training over all codeword pairs.

    Each pair gets one noisy measurement; the pair with the highest
    measured power wins.  Returns its steering angles and the measured
    SNR estimate in dB (infinite when noise_power is zero).

    Noise is drawn only for pairs that can still win.  The channel is
    rank one, so pair (j, i) has signal amplitude
    |amp| |w_j^H a_r| |f_i^H a_t|.  With floor the peak amplitude less
    SWEEP_MARGIN noise amplitudes sqrt(noise_power), the rows and
    columns whose best cell reaches floor form a rectangle that holds
    every cell at or above it; only the rectangle is measured.  Its
    winner, at measured amplitude B, stands when the Rayleigh tail bound
    on any of the n skipped cells measuring above B,
    n exp(-(B - floor)^2 / noise_power), is below SWEEP_MISS_PROBABILITY
    (1e-12).  Otherwise the rectangle's draws are kept and noise is
    drawn for the skipped cells too, so the result is the exhaustive
    sweep's up to an event of probability below 1e-12.  When floor <= 0
    (low SNR, small arrays) the rectangle is the whole grid.
    """
    a_t = array_response(tx_cb.geom, ch.aod)
    a_r = array_response(rx_cb.geom, ch.aoa)
    tx_gain = (tx_cb.weights @ a_t.conj()).conj()  # f_i^H a_t
    rx_gain = (rx_cb.weights @ a_r.conj()).conj()  # w_j^H a_r
    amp = math.sqrt(p_t * tx_cb.geom.n_elements * rx_cb.geom.n_elements) * ch.gain
    rx_abs = abs(amp) * np.abs(rx_gain)
    tx_abs = np.abs(tx_gain)
    rx_max, tx_max = float(rx_abs.max()), float(tx_abs.max())
    floor = rx_max * tx_max * (1.0 - _SWEEP_SLACK) - SWEEP_MARGIN * math.sqrt(noise_power)
    rows = np.flatnonzero(rx_abs * tx_max >= floor)
    cols = np.flatnonzero(rx_max * tx_abs >= floor)
    meas = amp * np.outer(rx_gain[rows], tx_gain[cols].conj())
    meas += _complex_noise(rng, meas.shape, noise_power)
    power = np.abs(meas) ** 2
    k = int(np.argmax(power))
    j, i = rows[k // cols.size], cols[k % cols.size]
    best = float(power.flat[k])
    skipped = rx_gain.size * tx_gain.size - meas.size
    gap = math.sqrt(best) - floor
    if skipped and noise_power > 0.0 and not (
        gap > 0.0 and skipped * math.exp(-gap * gap / noise_power) < SWEEP_MISS_PROBABILITY
    ):
        full = amp * np.outer(rx_gain, tx_gain.conj())
        skip = np.ones(full.shape, dtype=bool)
        skip[np.ix_(rows, cols)] = False
        full[skip] += _complex_noise(rng, skipped, noise_power)
        full[np.ix_(rows, cols)] = meas
        power = np.abs(full) ** 2
        j, i = np.unravel_index(int(np.argmax(power)), power.shape)
        best = float(power[j, i])
    return tx_cb.steerings[int(i)], rx_cb.steerings[int(j)], power_db(best, noise_power)


def _array_gain(n: int, t: float) -> float:
    """sin(n t) / (n sin t): the real array factor of n elements at half
    their per-element phase step, t.  Where |sin t| < 1e-12 it is 1, the
    limit at t = 0; callers keep |t| <= pi/2 or square the result."""
    s = math.sin(t)
    if abs(s) < 1e-12:
        return 1.0
    return math.sin(n * t) / (n * s)


def _dirichlet(n: int, x: float) -> complex:
    """(1/n) sum_{p<n} exp(j p x) = exp(j (n-1) x/2) sin(n x/2) / (n sin(x/2)).

    The normalised coupling of two steering ramps on one axis, x their
    phase difference per element.  The sum is 2 pi periodic, so x is
    first reduced into [-pi, pi] (math.remainder is exact); that makes
    every grating lobe x = 2 pi k the exact limit 1, like x = 0.
    """
    x = math.remainder(x, TAU)
    mag = _array_gain(n, 0.5 * x)
    phase = 0.5 * (n - 1) * x
    return complex(mag * math.cos(phase), mag * math.sin(phase))


def _coupling(geom: UpaGeometry, du: float, dv: float) -> complex:
    """a(u, v)^H a(u', v') for du = u - u', dv = v - v', with no vectors:
    the UPA coupling factors into one Dirichlet sum per axis."""
    pitch = geom.phase_pitch
    return _dirichlet(geom.n_h, pitch * du) * _dirichlet(geom.n_v, pitch * dv)


def _array_factor_sq(n: int, pitch: float, offset: float) -> float:
    """|sin(n x)/ (n sin x)|^2 at x = pitch * offset / 2 (power gain)."""
    val = _array_gain(n, 0.5 * pitch * offset)
    return val * val


def _log_gain_ratio(n: int, pitch: float, half: float, x: float) -> float:
    """ln of the power ratio between beams at +-half for truth offset x."""
    plus = _array_factor_sq(n, pitch, x - half)
    minus = _array_factor_sq(n, pitch, x + half)
    return math.log(max(plus, _TINY_POWER)) - math.log(max(minus, _TINY_POWER))


def _log_gain_slope(n: int, pitch: float, offset: float) -> float:
    """d/d(offset) of ln _array_factor_sq: pitch (n cot(n x) - cot x).

    Near x = 0 the two cotangents cancel, so the leading term of the
    series, -pitch (n^2 - 1) x / 3, stands in for them.
    """
    x = 0.5 * pitch * offset
    if abs(x) < 1e-4:
        return -pitch * (n * n - 1) * x / 3.0
    return pitch * (n / math.tan(n * x) - 1.0 / math.tan(x))


def _invert_ratio(n: int, pitch: float, half: float, measured: float, reach: float) -> float:
    """Inverse of the monotone log power ratio on [-reach, reach].

    A measured ratio at or beyond an end's value returns that end.
    Otherwise safeguarded Newton from 0 on the analytic slope: each
    step shrinks a bracket around the root, a step that would leave it
    bisects instead, and the loop ends at a step of a few ulp of reach
    or after _NEWTON_MAX_STEPS.  The ratio is odd in x, bit for bit, and
    the slope is odd in the offset, so the end values are one value of
    opposite signs, and at x = 0 the ratio is 0 and the slope pair is
    -2 slope(half): the first step evaluates neither.
    """
    lo, hi = -reach, reach
    top = _log_gain_ratio(n, pitch, half, hi)
    if measured <= -top:
        return lo
    if measured >= top:
        return hi
    tol = 4.0 * math.ulp(reach)
    x = 0.0
    f = 0.0 - measured
    slope = -2.0 * _log_gain_slope(n, pitch, half)
    for _ in range(_NEWTON_MAX_STEPS):
        if f < 0.0:
            lo = x
        else:
            hi = x
        step = f / slope if slope > 0.0 else math.inf
        if abs(step) <= tol or hi - lo <= tol:
            return min(hi, max(lo, x - step))
        x = x - step if lo < x - step < hi else 0.5 * (lo + hi)
        f = _log_gain_ratio(n, pitch, half, x) - measured
        slope = _log_gain_slope(n, pitch, x - half) - _log_gain_slope(n, pitch, x + half)
    return x


def _noise_sample(rng: np.random.Generator, noise_power: float) -> complex:
    """One CN(0, noise_power) draw: two scalar normals, real part first."""
    if noise_power == 0.0:
        return 0j
    return math.sqrt(noise_power / 2.0) * complex(rng.standard_normal(), rng.standard_normal())


def aux_beam_refine(
    ch: ChannelRealization,
    coarse: SphericalAngles,
    side: str,
    geom: UpaGeometry,
    delta_offset: float,
    p_t: float,
    noise_power: float,
    rng: np.random.Generator,
    *,
    other_angles: SphericalAngles,
    other_geom: UpaGeometry,
) -> SphericalAngles:
    """Refine one side's coarse beam-training angles with auxiliary beams.

    Two beams are steered at the coarse direction offset by +-delta in
    the horizontal direction cosine (u) and two more in the vertical
    one (v); each gets one noisy power measurement and the log power
    ratio of a pair is inverted through the known array factor to place
    the true coordinate inside the main lobe.  delta_offset is an angle
    in radians; it maps to direction-cosine offsets through the local
    Jacobian at the coarse angles.  The opposite side keeps its fixed
    beam, steered at other_angles on the array other_geom, so its gain
    cancels from each ratio.  A coordinate whose both measurements fall
    at or below the noise floor keeps its coarse value.  The result is
    clamped to codebook coverage.

    No vector is built: each probe's complex amplitude is the product
    of per-axis Dirichlet sums of the direction-cosine offsets
    (_coupling), and each ratio is inverted by safeguarded Newton
    (_invert_ratio).  The draws are two scalar normals per probe, real
    part first, u probes (+delta, then -delta) before v probes.
    """
    if side not in ("tx", "rx"):
        raise ValueError(f"side must be 'tx' or 'rx', got {side!r}")
    if delta_offset <= 0.0:
        raise ValueError("delta_offset must be > 0")

    own, other = (ch.aod, ch.aoa) if side == "tx" else (ch.aoa, ch.aod)
    ut, vt = direction_cosines(own)
    uo, vo = direction_cosines(other)
    u0, v0 = direction_cosines(coarse)
    uf, vf = direction_cosines(other_angles)
    # The transmit side measures a_own^H f and the receive side w^H
    # a_own; the opposite side's fixed beam enters the other way round.
    sign = 1.0 if side == "tx" else -1.0
    other_factor = _coupling(other_geom, sign * (uf - uo), sign * (vf - vo))
    scale = math.sqrt(p_t * geom.n_elements * other_geom.n_elements) * ch.gain * other_factor
    sin_el = math.sin(coarse.elevation)
    pitch = geom.phase_pitch

    def power(du: float, dv: float) -> float:
        """Noisy power through the probe beam steered (du, dv) short of the truth."""
        amp = scale * _coupling(geom, sign * du, sign * dv)
        return abs(amp + _noise_sample(rng, noise_power)) ** 2

    def refine_axis(n_axis: int, anchor: float, half: float, probe: Callable[[float], float]) -> float:
        null = 2.0 * math.pi / (n_axis * pitch)
        half = min(half, 0.45 * null)
        reach = _MAINLOBE_FRACTION * null - half
        p_plus = probe(anchor + half)
        p_minus = probe(anchor - half)
        if noise_power > 0.0 and p_plus <= noise_power and p_minus <= noise_power:
            return anchor
        ratio = math.log(max(p_plus, _TINY_POWER)) - math.log(max(p_minus, _TINY_POWER))
        return anchor + _invert_ratio(n_axis, pitch, half, ratio, reach)

    half_u = max(delta_offset * abs(math.cos(coarse.azimuth)) * sin_el, 1e-6)
    half_v = max(delta_offset * sin_el, 1e-6)
    # A single-element axis has no angular resolution to refine.
    u_hat = refine_axis(geom.n_h, u0, half_u, lambda u: power(ut - u, vt - v0)) if geom.n_h > 1 else u0
    v_hat = refine_axis(geom.n_v, v0, half_v, lambda v: power(ut - u0, vt - v)) if geom.n_v > 1 else v0

    v_hat = max(math.cos(ELEVATION_MAX), min(math.cos(ELEVATION_MIN), v_hat))
    el = math.acos(v_hat)
    s = math.sin(el)
    az = math.asin(max(-1.0, min(1.0, u_hat / s)))
    az = max(-AZIMUTH_HALF_SPAN, min(AZIMUTH_HALF_SPAN, az))
    return SphericalAngles(az, el)
