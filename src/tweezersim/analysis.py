"""Spectrum fitting, thermometry, and detection-threshold statistics.

Sideband spectra are fit with weighted least squares: the heating
(positive-detuning) peak with a plain Gaussian, the cooling peak with a
profile likelihood over its amplitude a1 where the background offset d
is a nuisance parameter re-minimized at every a1, and the 1-sigma
interval is the Delta-chi2 <= 1 region. Both Gaussian models are
linear in their heights and offset, so the Gaussian fits start from the
best node of a (center, width) grid where those are solved in closed
form (variable projection), then polish it with a projected
Levenberg-Marquardt loop: one model call per trial gives the weighted
residuals and analytic Jacobian, and a Cholesky on Python floats solves
the damped step, Gauss-Newton first, then with the analytic full Hessian
once the cost settles. The covariance is the Gauss-Newton (J^T W J)^-1. The
cooling-peak model is linear in a1, so the profile chi2 is an exact
parabola and the interval endpoints are its closed-form roots. Weights
use binomial standard errors with an Agresti-Coull floor so p = 0 or 1
points keep finite weight.

Detection fidelity follows F = P1*F1 + (1-P1)*F0 with the threshold
optimized against F, either on samples (candidates at sample midpoints)
or analytically for normal signal distributions.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateWidthError, FitConvergenceError, ValidationError

MAX_POLISH_STEPS = 100  # Levenberg-Marquardt trial steps per polish
GRID_NODES = 15  # per axis of the (center, width) start grid
PINV_RCOND = 1e-15  # numpy's pinv default: relative singular-value cutoff


# ---------------------------------------------------------------------------
# result containers


@dataclass
class GaussianPeakFit:
    """Single-Gaussian fit of the heating sideband."""

    height: float
    center_hz: float
    width_hz: float
    chi2: float
    covariance: np.ndarray = None
    stderr: np.ndarray = None


@dataclass
class ProfileLikelihoodResult:
    """Profile-likelihood estimate of the cooling-peak amplitude."""

    a_red: float
    ci_lo: float
    ci_hi: float  # math.inf when the Delta-chi2 = 1 level is never crossed
    offset: float
    chi2_min: float
    stderr: float
    one_sided: bool
    unbounded_above: bool


@dataclass
class DoubleGaussianFit:
    """Two same-width Gaussians at +/- center plus a global offset."""

    a_blue: float
    a_red: float
    center_hz: float
    width_hz: float
    offset: float
    chi2: float
    covariance: np.ndarray = None
    stderr: np.ndarray = None

    @property
    def ratio(self) -> float:
        return self.a_red / self.a_blue

    @property
    def ground_state_fraction(self) -> float:
        return 1.0 - self.ratio

    @property
    def wrong_state_fraction(self) -> float:
        return self.offset


@dataclass
class TemperatureEstimate:
    """Mean occupation nbar with asymmetric 1-sigma confidence interval,
    plus the blue-peak fit and cooling-peak profile it was built from."""

    nbar: float
    nbar_ci: tuple
    ratio: float
    ratio_ci: tuple
    blue: GaussianPeakFit
    profile: ProfileLikelihoodResult


@dataclass
class DetectionResult:
    """Threshold-optimized detection fidelity at prior P1.

    F = P1*F1 + (1-P1)*F0 must hold to 1e-12 (ValidationError otherwise).
    orientation is +1 when present-class signals lie above the threshold.
    """

    threshold: float
    fidelity: float
    f1: float
    f0: float
    p1: float
    n_cyc: int = None
    orientation: int = 1

    def __post_init__(self):
        expected = self.p1 * self.f1 + (1 - self.p1) * self.f0
        if not abs(self.fidelity - expected) < 1e-12:
            raise ValidationError(f"fidelity {self.fidelity!r} != P1*F1 + (1-P1)*F0 = {expected!r}")


# ---------------------------------------------------------------------------
# spectrum plumbing


def agresti_coull_stderr(p, shots):
    """Binomial standard error with the Agresti-Coull floor (z = 1)."""
    p = np.asarray(p, dtype=float)
    shots = np.asarray(shots, dtype=float)
    k = p * shots
    p_tilde = (k + 0.5) / (shots + 1.0)
    return np.sqrt(p_tilde * (1.0 - p_tilde) / (shots + 1.0))


def binomial_stderr(p, shots):
    """Binomial standard error sqrt(p (1 - p) / shots), with p (1 - p)
    floored at 1e-12 so p = 0 or 1 keeps a positive error."""
    p = np.asarray(p, dtype=float)
    return np.sqrt(np.maximum(p * (1 - p), 1e-12) / shots)


def _spectrum_arrays(spectrum):
    """(f, p, stderr, shots) of a SidebandSpectrum. With counts on every
    point, stderr is their Agresti-Coull error; otherwise shots is None
    and the spectrum's stderr is used as-is."""
    f, p, se = spectrum.detuning_hz, spectrum.p_exc, spectrum.stderr
    if not (f.shape == p.shape == se.shape == spectrum.shots.shape) or f.ndim != 1:
        raise ValidationError("spectrum arrays must be 1-d with matching shapes")
    if not np.all(spectrum.shots > 0):
        return f, p, se, None
    shots = spectrum.shots.astype(float)
    return f, p, agresti_coull_stderr(p, shots), shots


def _model_reweight(se, shots, p_model):
    """Binomial errors evaluated at the model prediction (bias-reducing
    reweighting pass); falls back to the measured errors without counts.

    Plain binomial errors apply here (the Agresti-Coull floor is only
    needed against zero-weight measured points); a 0.3-count variance
    floor keeps the weights stable against noise in the fitted model
    where its prediction approaches zero. The floor value was calibrated
    so profile-likelihood intervals cover at their nominal rate down to
    sub-count peak amplitudes.
    """
    if shots is None:
        return se
    p_eff = np.clip(p_model, 0.3 / shots, 1.0 - 0.3 / shots)
    return np.sqrt(p_eff * (1.0 - p_eff) / shots)


def _gaussian(f, x, jac=None, c=None):
    """height * exp(-(f - center)^2 / (2 width^2)) at x = (height, center,
    width), entries that may broadcast against f; with jac, an (n, 3) array,
    also d/dx there, from the same exp. With weights c, it returns instead
    sum_i c_i d2/dx2 at f_i (nested lists), from sum_i c_i shape_i u_i^j."""
    height, center, width = x
    d = f - center
    shape = np.exp(d * d * (-0.5 / width**2), out=None if jac is None else jac[:, 0])
    if c is not None:
        t0, t1, t2, t3, t4 = ((c * shape) @ ((d / width)[:, None] ** np.arange(5.0))).tolist()
        hc, hw, b = t1 / width, t2 / width, height / width**2
        cc, cw, ww = b * (t2 - t0), b * (t3 - 2.0 * t1), b * (t4 - 3.0 * t2)
        return [[0.0, hc, hw], [hc, cc, cw], [hw, cw, ww]]
    if jac is not None:
        np.multiply(shape, d * (height / width**2), out=jac[:, 1])
        np.multiply(jac[:, 1], d / width, out=jac[:, 2])
    return height * shape


def _double_gaussian(f, x, jac=None, c=None):
    """a_blue and a_red Gaussians at +/- center of one width plus offset at
    x = (a_blue, a_red, center, width, offset); jac (n, 5) and c as for _gaussian."""
    a_blue, a_red, center, width, offset = x
    if c is not None:
        (_, bc, bw), (_, bcc, bcw), (_, _, bww) = _gaussian(f, (a_blue, center, width), c=c)
        (_, rc, rw), (_, rcc, rcw), (_, _, rww) = _gaussian(f, (a_red, -center, width), c=c)
        cc, cw, ww = bcc + rcc, bcw - rcw, bww + rww  # red sits at -center: odd in d/dcenter
        return [[0.0, 0.0, bc, bw, 0.0], [0.0, 0.0, -rc, rw, 0.0], [bc, -rc, cc, cw, 0.0],
                [bw, rw, cw, ww, 0.0], [0.0] * 5]
    red = None if jac is None else np.empty((f.size, 3))
    value = _gaussian(f, (a_blue, center, width), None if jac is None else jac[:, 1:4])
    value += _gaussian(f, (a_red, -center, width), red) + offset
    if jac is not None:  # blue's columns went to 1, 2, 3
        jac[:, 0], jac[:, 1] = jac[:, 1], red[:, 0]
        jac[:, 2] -= red[:, 1]
        jac[:, 3] += red[:, 2]
        jac[:, 4] = 1.0
    return value


def _sorted_points(spectrum, f_min=-math.inf):
    """(f, p, stderr, shots) of the points with f > f_min, sorted by f."""
    f, p, se, shots = _spectrum_arrays(spectrum)
    keep = np.flatnonzero(f > f_min)
    keep = keep[np.argsort(f[keep])]
    return f[keep], p[keep], se[keep], None if shots is None else shots[keep]


def _spd_solve(a, b):
    """x with a x = b for symmetric a (nested lists) by square-root-free
    Cholesky on Python floats; None where a is not positive definite."""
    n, rows = len(b), [row + [bi] for row, bi in zip(a, b)]
    for j, top in enumerate(rows):
        if not top[j] > 0.0:
            return None
        for row in rows[j + 1:]:
            r = row[j] / top[j]
            for m in range(j + 1, n + 1):
                row[m] -= r * top[m]
    x = [0.0] * n
    for j in range(n - 1, -1, -1):
        x[j] = (rows[j][n] - sum(rows[j][m] * x[m] for m in range(j + 1, n))) / rows[j][j]
    return x


def _polish(model, f, p, sw, x, lo, hi):
    """Projected Levenberg-Marquardt fit of model(f, x) to p at weights
    sw = 1 / stderr from the list x in the box [lo, hi]: one model call per
    trial, the Gram matrix of the weighted [J | r] read as Python floats. A
    step solves (H + lam diag J^T J) dx = -J^T r for the parameters not
    pinned at a bound by an outward gradient, clipped to the box. H is J^T J
    until an accepted step lowers the cost by less than 1e-3 relative, then
    the full Hessian J^T J + sum r_i d2r_i. lam falls tenfold on a lower
    cost, else (or where the system is not positive definite) rises tenfold.
    Stops at a step or cost change below 1e-12 relative; returns (x, chi2,
    weighted J at x)."""
    k = len(x)

    def evaluate(x):
        jr = np.empty((f.size, k + 1), order="F")
        jr[:, k] = model(f, x, jr[:, :k]) - p
        jr *= sw[:, None]
        return x, jr, (jr.T @ jr).tolist()

    (x, jr, gram), lam, full = evaluate(x), 1e-3, None
    for _ in range(MAX_POLISH_STEPS):
        g, cost, h = gram[k], gram[k][k], full or gram
        free = [i for i in range(k) if not (x[i] <= lo[i] and g[i] > 0 or x[i] >= hi[i] and g[i] < 0)]
        floor = 1e-12 * max((gram[i][i] for i in free), default=1e-300)
        step = _spd_solve([[h[i][j] + (lam * max(gram[i][i], floor) if i == j else 0.0) for j in free]
                           for i in free], [-g[i] for i in free])
        if step is None:
            lam *= 10.0
            continue
        move = dict(zip(free, step))
        new = evaluate([min(max(v + move.get(i, 0.0), lo[i]), hi[i]) for i, v in enumerate(x)])
        drop = cost - new[2][k][k]
        done = (sum((t - v) ** 2 for t, v in zip(new[0], x)) <= 1e-24 * sum(v * v for v in x)
                or 0.0 <= drop <= 1e-12 * cost)
        if drop >= 0.0:
            (x, jr, gram), lam = new, lam / 10.0
            if full or drop < 1e-3 * cost:
                full = [[u + v for u, v in zip(*rows)] for rows in zip(gram, model(f, x, c=sw * jr[:, k]))]
        else:
            lam *= 10.0
        if done:
            return x, gram[k][k], jr[:, :k]
    raise FitConvergenceError(f"fit polish did not converge within {MAX_POLISH_STEPS} steps")


def _node_heights(basis, y):
    """Least-squares coefficients of basis (columns, nodes, points) for y at
    every node, by one batched solve of the normal equations. A column that
    numpy's pinv would drop (norm below PINV_RCOND of the node's largest) gets
    0, pinv's minimum-norm answer; so does a node whose Gram matrix the solve
    cannot factor (a narrow node seeing one isolated point: blue and red parallel)."""
    gram = np.einsum("lgn,mgn->glm", basis, basis)
    diag = np.diagonal(gram, axis1=1, axis2=2)
    drop = diag <= PINV_RCOND**2 * diag.max(axis=1, keepdims=True)
    gram *= ~(drop[:, :, None] | drop[:, None, :])
    cols = np.arange(len(basis))
    gram[:, cols, cols] += drop  # unit pivot, zero right-hand side
    rhs = np.where(drop, 0.0, np.einsum("lgn,n->gl", basis, y))[..., None]
    try:
        return np.linalg.solve(gram, rhs)[..., 0]
    except np.linalg.LinAlgError:
        ok = np.linalg.slogdet(gram)[0] != 0  # the LU factorization the solve uses has no zero pivot
        heights = np.empty(rhs.shape[:-1])
        heights[ok] = np.linalg.solve(gram[ok], rhs[ok])[..., 0]
        heights[~ok] = (np.linalg.pinv(gram[~ok], hermitian=True) @ rhs[~ok])[..., 0]
        return heights


def _fit_peaks(model, f, p, se, shots, lin, bounds, spacing):
    """Bounded weighted least-squares fit of model(f, x) to points sorted by f.

    model is linear in x[lin] (heights and offset) with no other term.
    Sidelobes make local minima, so the fit starts from the best node of a
    grid over the other two (center, width), x[lin] solved in closed form
    there and clipped to its bounds. _polish refines it; with shot counts, once more at weights
    re-evaluated at the model. Returns (x, chi2, covariance, stderr); the
    covariance is (J^T W J)^-1 times the n/(n-k) small-sample factor that
    compensates the data-estimated weights."""
    lo, hi = ([float(v) for v in b] for b in zip(*bounds))
    i_center, i_width = (i for i in range(len(bounds)) if i not in lin)
    centers = np.linspace(lo[i_center], hi[i_center], GRID_NODES)
    widths = np.geomspace(lo[i_width], hi[i_width], GRID_NODES)
    sw = 1.0 / se
    basis = []  # (columns, nodes, points), weighted; node = center index * GRID_NODES + width index
    for j in lin:
        x = [float(i == j) for i in range(len(bounds))]
        x[i_center], x[i_width] = centers[:, None, None], widths[:, None]
        basis.append(model(f, x).reshape(-1, f.size) * sw)
    basis = np.stack(basis)
    heights = np.clip(_node_heights(basis, sw * p), [lo[j] for j in lin], [hi[j] for j in lin])
    best = int(np.argmin(np.sum((np.einsum("lgn,gl->gn", basis, heights) - sw * p) ** 2, axis=1)))
    x[i_center], x[i_width] = float(centers[best // GRID_NODES]), float(widths[best % GRID_NODES])
    for j, height in zip(lin, heights[best].tolist()):
        x[j] = height
    x, chi2, J = _polish(model, f, p, sw, x, lo, hi)
    if shots is not None:  # reweight at the model, refit
        sw = 1.0 / _model_reweight(se, shots, model(f, x))
        x, chi2, J = _polish(model, f, p, sw, x, lo, hi)
    if x[i_width] < spacing:
        raise DegenerateWidthError(f"fitted width {x[i_width]:.3g} Hz below the grid spacing "
                                   f"{spacing:.3g} Hz")
    n, k = J.shape
    cov = np.linalg.pinv(J.T @ J) * n / max(n - k, 1)
    return x, chi2, cov, np.sqrt(np.clip(np.diag(cov), 0, None))


# ---------------------------------------------------------------------------
# sideband fits


def fit_heating_sideband(spectrum) -> GaussianPeakFit:
    """Weighted least-squares Gaussian fit of the heating (blue) peak.

    Fits the positive-detuning points from a (center, width) grid start
    with one bounded Levenberg-Marquardt polish and one model-based
    reweighting pass (binomial errors re-evaluated at the fitted curve)
    to remove the low bias of measured-count weights; see _fit_peaks.
    Raises DegenerateWidthError when no peak stands above the noise or
    the width collapses below the grid spacing, FitConvergenceError past
    the polish step cap.
    """
    f, p, se, shots = _sorted_points(spectrum, f_min=0.0)
    gaps = np.diff(np.unique(f))  # a detuning may repeat
    if gaps.size < 4:
        raise ValidationError("need at least 5 detunings spanning the heating peak")
    if np.max(p) - np.min(p) < 3.0 * float(np.median(se)):
        raise DegenerateWidthError("no peak resolvable above the noise floor")
    spacing = float(gaps.min())
    bounds = [(0.0, 2.0), (f[0], f[-1]), (spacing / 4.0, 2.0 * float(f[-1] - f[0]))]
    x, chi2, cov, stderr = _fit_peaks(_gaussian, f, p, se, shots, [0], bounds, spacing)
    return GaussianPeakFit(*x, chi2, cov, stderr)  # x in field order


def profile_likelihood_cooling_peak(spectrum, blue_fit: GaussianPeakFit) -> ProfileLikelihoodResult:
    """Cooling-peak amplitude with a Delta-chi2 <= 1 confidence interval.

    The cooling peak is constrained to the mirrored blue-peak geometry
    (center at -center_hz, same width). For every amplitude a1 the
    background offset d is re-minimized in closed form (weighted mean of
    the shape-subtracted residuals), so the profile chi2 is the exact
    parabola c2 * (a1 - a_unc)^2 + const with a_unc = c1 / c2. The
    estimate is a_unc clipped to [0, 1]; the Delta-chi2 = 1 endpoints are
    the parabola's roots a_unc +/- sqrt(1 / c2 + (a_hat - a_unc)^2). The
    interval is one-sided (ci_lo = 0) when the lower root is <= 0 and
    unbounded above (ci_hi = inf) when the upper root is >= 1.
    """
    f, p, se, shots = _spectrum_arrays(spectrum)
    g_red = _gaussian(f, (1.0, -blue_fit.center_hz, blue_fit.width_hz))
    blue_curve = _gaussian(f, (blue_fit.height, blue_fit.center_hz, blue_fit.width_hz))
    resid = p - blue_curve

    def profile(w):
        """(a_unc, a_hat, c2, offset at a_hat) for weights w."""
        wsum = float(np.sum(w))
        c2 = float(np.sum(w * g_red**2) - np.sum(w * g_red) ** 2 / wsum)
        if c2 <= 0:
            raise ValidationError("cooling-peak shape carries no weight on this grid")
        c1 = float(np.sum(w * resid * g_red) - np.sum(w * resid) * np.sum(w * g_red) / wsum)
        a_unc = c1 / c2
        a_hat = min(max(a_unc, 0.0), 1.0)
        return a_unc, a_hat, c2, float(np.sum(w * (resid - a_hat * g_red))) / wsum

    w = 1.0 / se**2
    a_unc, a_hat, c2, d_hat = profile(w)
    if shots is not None:  # reweight at the model, re-profile
        w = 1.0 / _model_reweight(se, shots, blue_curve + a_hat * g_red + d_hat) ** 2
        a_unc, a_hat, c2, d_hat = profile(w)
    r = resid - a_hat * g_red - d_hat
    half = math.sqrt(1.0 / c2 + (a_hat - a_unc) ** 2)
    ci_lo, ci_hi = a_unc - half, a_unc + half
    one_sided, unbounded_above = ci_lo <= 0.0, ci_hi >= 1.0
    return ProfileLikelihoodResult(
        a_red=float(a_hat),
        ci_lo=0.0 if one_sided else float(ci_lo),
        ci_hi=math.inf if unbounded_above else float(ci_hi),
        offset=float(d_hat),
        chi2_min=float(np.sum(w * r * r)),
        stderr=float(1.0 / math.sqrt(c2)),
        one_sided=one_sided,
        unbounded_above=unbounded_above,
    )


def nbar_from_ratio(r: float) -> float:
    """Thermal conversion nbar = r / (1 - r) for the sideband ratio r."""
    if not 0.0 <= r < 1.0:
        raise ValidationError(f"sideband ratio {r} outside [0, 1): not a thermal signal")
    return r / (1.0 - r)


def temperature_from_spectrum(spectrum) -> TemperatureEstimate:
    """Full thermometry pipeline: blue-peak fit, cooling-peak profile, nbar.

    The blue-height uncertainty is propagated into the ratio interval in
    quadrature with the profile-likelihood amplitude interval. The
    estimate carries the blue fit and the profile it was built from.
    """
    blue = fit_heating_sideband(spectrum)
    prof = profile_likelihood_cooling_peak(spectrum, blue)
    ab = blue.height
    r_hat = prof.a_red / ab
    blue_term = r_hat * float(blue.stderr[0]) / ab  # blue-height error mapped to the ratio

    def widen(endpoint, side):
        if math.isinf(endpoint):
            return math.inf
        half = abs(endpoint / ab - r_hat)
        return r_hat + side * math.sqrt(half**2 + blue_term**2)

    r_lo = max(widen(prof.ci_lo, -1), 0.0)
    r_hi = widen(prof.ci_hi, +1)
    if r_hat >= 1.0:
        raise ValidationError(f"fitted ratio {r_hat} >= 1: not a thermal spectrum")
    nbar = nbar_from_ratio(r_hat)
    nbar_lo = nbar_from_ratio(min(r_lo, 1 - 1e-15))
    nbar_hi = math.inf if (math.isinf(r_hi) or r_hi >= 1.0) else nbar_from_ratio(r_hi)
    return TemperatureEstimate(
        nbar=nbar,
        nbar_ci=(nbar_lo, nbar_hi),
        ratio=r_hat,
        ratio_ci=(r_lo, r_hi),
        blue=blue,
        profile=prof,
    )


def fit_double_gaussian_with_offset(spectrum) -> DoubleGaussianFit:
    """Simultaneous fit of both sidebands: two same-width Gaussians at
    +/- center plus a global offset reflecting wrong-electronic-state
    population; fitted like the heating peak (see _fit_peaks)."""
    f, p, se, shots = _sorted_points(spectrum)
    if not (np.any(f > 0) and np.any(f < 0)):
        raise ValidationError("spectrum must span both sidebands")
    if np.max(p[f > 0]) - np.min(p) < 3.0 * float(np.median(se)):
        raise DegenerateWidthError("no heating peak resolvable above the noise floor")
    spacing = float(np.min(np.diff(np.unique(f))))  # a detuning may repeat
    bounds = [(0.0, 2.0), (0.0, 2.0), (spacing, float(f[-1])),
              (spacing / 4.0, float(f[-1] - f[0])), (0.0, 1.0)]
    x, chi2, cov, stderr = _fit_peaks(_double_gaussian, f, p, se, shots, [0, 1, 4], bounds, spacing)
    return DoubleGaussianFit(*x, chi2, cov, stderr)  # x in field order


def nonthermal_correction(r_est: float, t12: float) -> float:
    """Upper bound r^(3/2) * (1 - t12) on the thermal-assumption bias.

    Treating a one-quantum-removed distribution as thermal overestimates
    the ground-state population by at most this amount (to leading order
    in the measured sideband ratio r), with t12 the 1->2 sideband
    transfer probability of the thermometry pulse.
    """
    if not 0.0 <= r_est < 1.0:
        raise ValidationError(f"r_est must be in [0, 1), got {r_est}")
    if not 0.0 <= t12 <= 1.0:
        raise ValidationError(f"t12 must be in [0, 1], got {t12}")
    return r_est**1.5 * (1.0 - t12)


# ---------------------------------------------------------------------------
# detection statistics


def optimize_thresholds(signals_present, signals_absent, priors, n_cyc: int = None) -> list:
    """Empirical thresholds maximizing F = P1*F1 + (1-P1)*F0, one
    DetectionResult per prior, in the order of `priors`.

    Candidate thresholds sit at the midpoints of adjacent pooled samples
    (plus sentinels outside the data range), which realize every value
    the piecewise-constant objective can take; ties break toward the
    lower threshold. One sort and one candidate scan serve every prior,
    which then costs one F curve and its first maximum.
    """
    sp = np.sort(np.asarray(signals_present, dtype=float))
    sa = np.sort(np.asarray(signals_absent, dtype=float))
    for p1 in priors:
        if not 0.0 <= p1 <= 1.0:
            raise ValidationError(f"p1 must be in [0, 1], got {p1}")
    if sp.size == 0 or sa.size == 0:
        raise ValidationError("need at least one sample per class")
    orientation = 1 if np.mean(sp) >= np.mean(sa) else -1  # +1: present signals lie higher
    pooled = np.unique(np.concatenate([sp, sa]))
    span = max(pooled[-1] - pooled[0], 1.0)
    mids = (pooled[:-1] + pooled[1:]) / 2.0
    cands = np.concatenate([[pooled[0] - 0.5 * span], mids, [pooled[-1] + 0.5 * span]])
    # P(signal > x) per class, vectorized over candidates
    above_p = 1.0 - np.searchsorted(sp, cands, side="right") / sp.size
    above_a = 1.0 - np.searchsorted(sa, cands, side="right") / sa.size
    f1, f0 = (above_p, 1.0 - above_a) if orientation == 1 else (1.0 - above_p, above_a)
    results = []
    for p1 in priors:
        if p1 in (0.0, 1.0):
            warnings.warn("degenerate prior: classifying everything as the prior class is optimal", stacklevel=2)
        f = p1 * f1 + (1 - p1) * f0
        best = int(np.argmax(f))  # first max = lowest threshold
        results.append(DetectionResult(threshold=float(cands[best]), fidelity=float(f[best]), f1=float(f1[best]),
                                       f0=float(f0[best]), p1=p1, n_cyc=n_cyc, orientation=orientation))
    return results


def optimize_threshold(signals_present, signals_absent, p1: float, n_cyc: int = None) -> DetectionResult:
    """optimize_thresholds at the one prior p1."""
    return optimize_thresholds(signals_present, signals_absent, [p1], n_cyc)[0]


def optimize_threshold_analytic(bright_mean: float, bright_std: float, dark_mean: float, dark_std: float,
                                p1: float, n_cyc: int = None) -> DetectionResult:
    """Threshold from the density-crossing condition for normal signals.

    Solves p1 * pdf_bright(x) = (1 - p1) * pdf_dark(x) and returns the
    solution maximizing F; bright is the present class.
    """
    if bright_std <= 0 or dark_std <= 0:
        raise ValidationError("signal standard deviations must be positive")
    if not 0.0 <= p1 <= 1.0:
        raise ValidationError(f"p1 must be in [0, 1], got {p1}")
    if p1 in (0.0, 1.0):
        warnings.warn("degenerate prior: threshold is unconstrained", stacklevel=2)
    # quadratic a x^2 + b x + c = 0 from equating log densities
    log_ratio = math.log(max(p1, 1e-300) / max(1 - p1, 1e-300)) + math.log(dark_std / bright_std)
    a = 0.5 / dark_std**2 - 0.5 / bright_std**2
    b = bright_mean / bright_std**2 - dark_mean / dark_std**2
    c = 0.5 * dark_mean**2 / dark_std**2 - 0.5 * bright_mean**2 / bright_std**2 + log_ratio
    # b^2 - 4ac written so that no terms cancel at any width ratio
    disc = ((bright_mean - dark_mean) / (bright_std * dark_std)) ** 2 - 4 * a * log_ratio
    if abs(a) < 1e-300:
        roots = [-c / b] if b != 0 else []
    elif disc < 0:
        roots = []
    else:  # the root pair q / a, c / q takes no difference of b and sqrt(disc)
        q = -0.5 * (b + math.copysign(math.sqrt(disc), b))
        roots = [q / a] + ([c / q] if q != 0 else [])
    lo = min(dark_mean, bright_mean) - 20 * max(dark_std, bright_std)
    hi = max(dark_mean, bright_mean) + 20 * max(dark_std, bright_std)
    cands = sorted(set(float(r) for r in roots if lo <= r <= hi) | {lo, hi})

    def fidelity(x):
        f1 = 1.0 - _ndtr((x - bright_mean) / bright_std)
        f0 = _ndtr((x - dark_mean) / dark_std)
        return p1 * f1 + (1 - p1) * f0, f1, f0

    best_x, (best_f, best_f1, best_f0) = cands[0], fidelity(cands[0])
    for x in cands[1:]:
        fx = fidelity(x)
        if fx[0] > best_f + 1e-15:
            best_x, (best_f, best_f1, best_f0) = x, fx
    return DetectionResult(threshold=float(best_x), fidelity=float(best_f), f1=float(best_f1),
                           f0=float(best_f0), p1=p1, n_cyc=n_cyc)


def aggregate_signals(signals, n: int) -> np.ndarray:
    """Per shot, the sum of the signals of its first n rounds."""
    arr = np.asarray(signals, dtype=float)
    if arr.ndim != 2:
        raise ValidationError("signals must be a 2-d (shots, rounds) array")
    if not 1 <= n <= arr.shape[1]:
        raise ValidationError(f"n = {n} outside the recorded round count {arr.shape[1]}")
    return arr[:, :n].sum(axis=1)


# ---------------------------------------------------------------------------
# standard normal CDF
#
# The Cephes ndtr/erf/erfc (S. L. Moshier) on Python floats: the same
# coefficients, branches and operation order, so each value carries the
# bits of the C routine that numerical libraries (scipy's ndtr among them)
# compile. The polynomial evaluations are written out in Horner form.

_SQRT1_2 = math.sqrt(0.5)
_MAXLOG = 7.09782712893383996843e2  # log of the largest double


def _ndtr(a: float) -> float:
    """Standard normal CDF of a float: 0.5 + 0.5 erf(a / sqrt 2) near 0,
    else from erfc(|a| / sqrt 2), which is 1 - erf below 1, exp(-x^2)
    P(x) / Q(x) below 8 and exp(-x^2) R(x) / S(x) above."""
    x = a * _SQRT1_2
    z = abs(x)
    if z < _SQRT1_2:
        return 0.5 + 0.5 * _erf(x)
    if z < 1.0:
        y = 0.5 * (1.0 - _erf(z))
    elif z * z > _MAXLOG:
        y = 0.0  # erfc underflows
    else:
        e = math.exp(-z * z)
        if z < 8.0:
            p = ((((((((2.46196981473530512524e-10 * z + 5.64189564831068821794e-1) * z
                       + 7.46321056442269912687e0) * z + 4.86371970985681366614e1) * z
                     + 1.96520832956077098242e2) * z + 5.26445194995477358631e2) * z
                   + 9.34528527171957607540e2) * z + 1.02755188689515710272e3) * z
                 + 5.57535335369399327526e2)
            q = ((((((((z + 1.32281951154744992508e1) * z + 8.67072140885989742329e1) * z
                      + 3.54937778887819891062e2) * z + 9.75708501743205489753e2) * z
                    + 1.82390916687909736289e3) * z + 2.24633760818710981792e3) * z
                  + 1.65666309194161350182e3) * z + 5.57535340817727675546e2)
        else:
            p = (((((5.64189583547755073984e-1 * z + 1.27536670759978104416e0) * z
                    + 5.01905042251180477414e0) * z + 6.16021097993053585195e0) * z
                  + 7.40974269950448939160e0) * z + 2.97886665372100240670e0)
            q = ((((((z + 2.26052863220117276590e0) * z + 9.39603524938001434673e0) * z
                    + 1.20489539808096656605e1) * z + 1.70814450747565897222e1) * z
                  + 9.60896809063285878198e0) * z + 3.36907645100081516050e0)
        y = 0.5 * (e * p / q)
    return 1.0 - y if x > 0 else y


def _erf(x: float) -> float:
    """erf(x) for |x| <= 1: x T(x^2) / U(x^2)."""
    z = x * x
    t = ((((9.60497373987051638749e0 * z + 9.00260197203842689217e1) * z
           + 2.23200534594684319226e3) * z + 7.00332514112805075473e3) * z
         + 5.55923013010394962768e4)
    u = (((((z + 3.35617141647503099647e1) * z + 5.21357949780152679795e2) * z
           + 4.59432382970980127987e3) * z + 2.26290000613890934246e4) * z
         + 4.92673942608635921086e4)
    return x * t / u
