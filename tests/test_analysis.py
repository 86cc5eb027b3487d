import dataclasses
import math
import warnings

import numpy as np
import pytest
from conftest import (
    gauss_newton_polish,
    gaussian_model,
    jacobian,
    least_squares_polish,
    make_gaussian_spectrum,
    multistart_reference_fit,
    per_prior_threshold,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from tweezersim import analysis
from tweezersim.analysis import (
    DetectionResult,
    _double_gaussian,
    _gaussian,
    agresti_coull_stderr,
    aggregate_signals,
    binomial_stderr,
    fit_double_gaussian_with_offset,
    fit_heating_sideband,
    nbar_from_ratio,
    nonthermal_correction,
    optimize_threshold,
    optimize_threshold_analytic,
    optimize_thresholds,
    profile_likelihood_cooling_peak,
    temperature_from_spectrum,
)
from tweezersim.errors import DegenerateWidthError, FitConvergenceError, ValidationError
from tweezersim.dynamics import sideband_rabi
from tweezersim.protocols import DEFAULT_TRAP, SidebandSpectrum, simulate_sideband_spectrum
from tweezersim.states import ThermalSpec, remove_one_quantum, thermal_distribution


def _noiseless_spectrum(a_blue=0.8, a_red=0.0, center=35e3, width=2e3, offset=0.0,
                        n_side=15, span=7e3, stderr=1e-3):
    side = np.linspace(center - span, center + span, n_side)
    f = np.concatenate([-side[::-1], side])
    p = gaussian_model(f, a_blue, a_red, center, width, offset)
    return SidebandSpectrum(
        detuning_hz=f,
        p_exc=p,
        stderr=np.full(f.size, stderr),
        shots=np.zeros(f.size),
    )


def _simulated_spectrum(nbar, cooled, half_span_hz, points_per_side, rng,
                        wrong_state_fraction=0.0):
    """Binomially sampled spectrum of a thermal (or one-quantum-removed)
    distribution at the CLI's default drive, on a grid centered on the
    trap frequency; rng None gives the exact curve (stderr 1e-6)."""
    dist = thermal_distribution(ThermalSpec(nbar=nbar, n_max=20))
    if cooled:
        dist = remove_one_quantum(dist)
    f_trap = DEFAULT_TRAP.omega_t / (2 * np.pi)
    side = np.linspace(f_trap - half_span_hz, f_trap + half_span_hz, points_per_side)
    return simulate_sideband_spectrum(
        dist, np.concatenate([-side[::-1], side]), rabi=2 * np.pi * 2e3,
        shots_per_point=None if rng is None else 300, rng=rng,
        wrong_state_fraction=wrong_state_fraction,
    )


# Omega_01 / 2 pi at the CLI's default drive, and the full width of the
# 0 <-> 1 pi-pulse line's main lobe, whose first zeros sit at +/- sqrt(3) Omega_01
OMEGA01_HZ = sideband_rabi(0, 1, DEFAULT_TRAP.eta, 2 * np.pi * 2e3) / (2 * np.pi)
MAIN_LOBE_HZ = 2 * np.sqrt(3) * OMEGA01_HZ


def _profile_chi2(spec, blue):
    """Oracle chi2(a1) of the cooling-peak profile with the offset
    re-minimized in closed form, on the spectrum's own stderr weights."""
    f = spec.detuning_hz
    w = 1.0 / spec.stderr**2
    g = np.exp(-((f + blue.center_hz) ** 2) / (2 * blue.width_hz**2))
    y = spec.p_exc - blue.height * np.exp(-((f - blue.center_hz) ** 2) / (2 * blue.width_hz**2))

    def chi2(a1):
        d = np.sum(w * (y - a1 * g)) / np.sum(w)
        return np.sum(w * (y - a1 * g - d) ** 2)

    return chi2


def _assert_jacobian_matches_central_differences(fun, jac, x, rel_step=1e-6):
    cols = []
    for i in range(x.size):
        h = rel_step * max(abs(x[i]), 1.0)
        up, down = x.copy(), x.copy()
        up[i] += h
        down[i] -= h
        cols.append((fun(*up) - fun(*down)) / (2 * h))
    fd = np.column_stack(cols)
    # entries far below their column's scale carry only difference roundoff
    scale = np.abs(fd).max(axis=0)
    np.testing.assert_allclose(jac(*x) / scale, fd / scale, rtol=1e-6, atol=1e-8)


def _assert_hessian_matches_central_differences(model, f, x, c, rel_step=1e-5):
    # sum_i c_i d2m_i from central differences of c^T J, J the analytic Jacobian
    rows = []
    for i in range(x.size):
        h = rel_step * max(abs(x[i]), 1.0)
        up, down = x.copy(), x.copy()
        up[i] += h
        down[i] -= h
        rows.append(c @ (jacobian(model, f, up) - jacobian(model, f, down)) / (2 * h))
    fd = np.array(rows)
    scale = np.abs(fd).max()
    np.testing.assert_allclose(np.array(model(f, x, c=c)) / scale, fd / scale, rtol=1e-6, atol=1e-7)


def _double_gaussian_point(rng):
    return np.array([rng.uniform(0.1, 2.0), rng.uniform(0.0, 2.0), rng.uniform(30e3, 40e3),
                     rng.uniform(1e3, 4e3), rng.uniform(0.0, 1.0)])


class TestAnalyticJacobians:
    @pytest.mark.parametrize("seed", range(5))
    def test_gaussian_jacobian_matches_central_differences(self, seed):
        rng = np.random.default_rng(seed)
        f = np.linspace(28e3, 42e3, 15)
        x = np.array([rng.uniform(0.1, 2.0), rng.uniform(30e3, 40e3), rng.uniform(1e3, 4e3)])
        _assert_jacobian_matches_central_differences(
            lambda *q: _gaussian(f, q), lambda *q: jacobian(_gaussian, f, q), x
        )

    @pytest.mark.parametrize("seed", range(5))
    def test_double_gaussian_jacobian_matches_central_differences(self, seed):
        rng = np.random.default_rng(seed)
        side = np.linspace(28e3, 42e3, 15)
        f = np.concatenate([-side[::-1], side])
        _assert_jacobian_matches_central_differences(
            lambda *q: _double_gaussian(f, q), lambda *q: jacobian(_double_gaussian, f, q),
            _double_gaussian_point(rng),
        )

    @pytest.mark.parametrize("seed", range(5))
    def test_gaussian_hessian_matches_central_differences(self, seed):
        rng = np.random.default_rng(seed)
        f = np.linspace(28e3, 42e3, 15)
        x = np.array([rng.uniform(0.1, 2.0), rng.uniform(30e3, 40e3), rng.uniform(1e3, 4e3)])
        _assert_hessian_matches_central_differences(_gaussian, f, x, rng.normal(size=f.size))

    @pytest.mark.parametrize("seed", range(5))
    def test_double_gaussian_hessian_matches_central_differences(self, seed):
        # the peaks overlap at small centers, so cross terms of blue and red count too
        rng = np.random.default_rng(seed)
        f = np.linspace(-42e3, 42e3, 30)
        x = _double_gaussian_point(rng)
        if seed % 2:
            x[2] = rng.uniform(0.0, 3e3)
        _assert_hessian_matches_central_differences(_double_gaussian, f, x, rng.normal(size=f.size))


class TestHeatingFit:
    def test_exact_recovery_on_noiseless_data(self):
        spec = _noiseless_spectrum(a_blue=0.8)
        fit = fit_heating_sideband(spec)
        assert fit.height == pytest.approx(0.8, abs=1e-6)
        assert fit.center_hz == pytest.approx(35e3, abs=1e-6 * 35e3)
        assert fit.width_hz == pytest.approx(2e3, abs=1e-6 * 2e3)

    def test_flat_spectrum_raises_degenerate_width(self):
        side = np.linspace(28e3, 42e3, 15)
        f = np.concatenate([-side[::-1], side])
        spec = SidebandSpectrum(
            detuning_hz=f,
            p_exc=np.full(f.size, 0.1),
            stderr=np.full(f.size, 0.02),
            shots=np.zeros(f.size),
        )
        with pytest.raises(DegenerateWidthError):
            fit_heating_sideband(spec)

    def test_coverage_of_three_sigma_band(self):
        # 500 binomial synthetics at 200 shots/point: each parameter within
        # 3 sigma of truth in at least 99% of datasets
        rng = np.random.default_rng(42)
        truth = {"height": 0.9, "center": 35e3, "width": 2e3}
        hits = np.zeros(3)
        n_sets = 500
        for _ in range(n_sets):
            spec = make_gaussian_spectrum(0.0, rng, shots_per_point=200)
            fit = fit_heating_sideband(spec)
            vals = np.array([fit.height, fit.center_hz, fit.width_hz])
            ref = np.array([truth["height"], truth["center"], truth["width"]])
            hits += np.abs(vals - ref) <= 3 * fit.stderr
        assert np.all(hits / n_sets >= 0.99)

    def test_needs_enough_points(self):
        spec = _noiseless_spectrum(n_side=3)
        with pytest.raises(ValidationError):
            fit_heating_sideband(spec)
        f = np.repeat([-35e3, 35e3], 6)  # six points, one detuning per side
        spec = SidebandSpectrum(f, np.full(12, 0.5), np.full(12, 0.01), np.zeros(12))
        with pytest.raises(ValidationError):
            fit_heating_sideband(spec)


def _grid_start_spectra():
    rng = np.random.default_rng(5)
    specs = [make_gaussian_spectrum(nbar, rng) for nbar in (0.0, 0.002, 0.05, 0.3) * 3]
    specs += [make_gaussian_spectrum(0.3, rng, shots_per_point=400, offset=0.073)
              for _ in range(3)]
    specs += [_simulated_spectrum(0.5, cooled, 1.75 * OMEGA01_HZ, 11, rng)
              for cooled in (False, True) * 3]  # the CLI's default grid
    return specs


def _pinv_heights(basis, y):
    return np.linalg.pinv(basis.transpose(1, 2, 0)) @ y


class TestGridStart:
    def test_matches_multistart_reference(self):
        # the grid start reaches the width-scan multistart's optimum
        for spec in _grid_start_spectra():
            blue = fit_heating_sideband(spec)
            both = fit_double_gaussian_with_offset(spec)
            for x, ref, stderr in (
                ([blue.height, blue.center_hz, blue.width_hz],
                 multistart_reference_fit(spec), blue.stderr),
                ([both.a_blue, both.a_red, both.center_hz, both.width_hz, both.offset],
                 multistart_reference_fit(spec, double=True), both.stderr),
            ):
                assert np.all(np.abs(np.array(x) - ref) <= 1e-3 * stderr)

    def test_node_heights_match_pinv(self, monkeypatch):
        # the normal equations pick pinv's best node, at pinv's heights
        def grid_start(fit, spec, heights):
            starts = []

            def first_polish(model, f, p, sw, x, lo, hi):
                starts.append(np.array(x))
                raise StopIteration

            with monkeypatch.context() as m:
                m.setattr(analysis, "_polish", first_polish)
                m.setattr(analysis, "_node_heights", heights)
                with pytest.raises(StopIteration):
                    fit(spec)
            return starts[0]

        specs = _grid_start_spectra() + [
            _simulated_spectrum(0.002, True, 5 * MAIN_LOBE_HZ / 2, 41, None),  # exact curve
            _noiseless_spectrum(a_blue=0.8, a_red=0.2, offset=0.05),
        ]
        for spec in specs:
            for fit, lin in ((fit_heating_sideband, [0]), (fit_double_gaussian_with_offset, [0, 1, 4])):
                x = grid_start(fit, spec, analysis._node_heights)
                ref = grid_start(fit, spec, _pinv_heights)
                other = np.setdiff1d(np.arange(x.size), lin)
                np.testing.assert_array_equal(x[other], ref[other])  # the same node
                np.testing.assert_allclose(x[lin], ref[lin], rtol=1e-10, atol=0)

    def test_node_heights_drop_vanishing_columns_like_pinv(self):
        rng = np.random.default_rng(2)
        basis = rng.normal(size=(3, 6, 11))
        basis[:2, 1] = 0.0  # both Gaussians 0 at every point: rank 1
        basis[0, 2] = 0.0
        basis[1, 3] *= 1e-200  # far below pinv's cutoff
        basis[2, 4] *= 1e-12  # small, but above it
        y = rng.normal(size=11)
        heights = analysis._node_heights(basis, y)
        np.testing.assert_allclose(heights, _pinv_heights(basis, y), rtol=1e-10, atol=1e-14)
        assert heights[1, 0] == heights[1, 1] == heights[2, 0] == heights[3, 1] == 0.0
        single = analysis._node_heights(basis[:1], y)  # one column: a ratio, 0 where it vanishes
        np.testing.assert_allclose(single, _pinv_heights(basis[:1], y), rtol=1e-12)

    def test_node_heights_solve_parallel_columns_by_minimum_norm(self):
        # node 2's blue and red columns are non-zero at one and the same
        # point (a narrow node seeing one isolated point): its Gram matrix
        # is exactly singular, so np.linalg.solve raised for the whole grid
        rng = np.random.default_rng(3)
        basis = rng.normal(size=(3, 5, 11))
        basis[:2, 2] = 0.0
        basis[0, 2, 6], basis[1, 2, 6], basis[2, 2, 6] = 1.0, 0.5, 0.25
        y = rng.normal(size=11)
        heights = analysis._node_heights(basis, y)
        np.testing.assert_allclose(heights, _pinv_heights(basis, y), rtol=1e-10, atol=1e-14)
        regular = np.arange(5) != 2  # solved as before, bit for bit
        np.testing.assert_array_equal(heights[regular], analysis._node_heights(basis[:, regular], y))

    @pytest.mark.parametrize("lobes, points", [(4, 31), (5, 41)])
    @pytest.mark.parametrize("nbar", [0.002, 0.3])
    @pytest.mark.parametrize("cooled", [False, True])
    def test_fits_stay_on_the_main_lobe(self, lobes, points, nbar, cooled):
        # each side spans several sinc^2 sidelobes, local minima of a Gaussian fit
        rng = np.random.default_rng(lobes + int(1000 * nbar) + 7 * cooled)
        spec = _simulated_spectrum(nbar, cooled, lobes * MAIN_LOBE_HZ / 2, points, rng)
        f_trap = DEFAULT_TRAP.omega_t / (2 * np.pi)
        for fit in (fit_heating_sideband, fit_double_gaussian_with_offset):
            assert abs(fit(spec).center_hz - f_trap) <= 0.15 * MAIN_LOBE_HZ

    def test_repeated_detuning_is_fitted(self):
        spec = _noiseless_spectrum(a_blue=0.8, a_red=0.2)
        spec = SidebandSpectrum(*(np.append(a, a[-3]) for a in (
            spec.detuning_hz, spec.p_exc, spec.stderr, spec.shots)))
        for fit in (fit_heating_sideband, fit_double_gaussian_with_offset):
            assert fit(spec).center_hz == pytest.approx(35e3, rel=1e-6)


def _fit_params(fit):
    if isinstance(fit, analysis.GaussianPeakFit):
        return np.array([fit.height, fit.center_hz, fit.width_hz])
    return np.array([fit.a_blue, fit.a_red, fit.center_hz, fit.width_hz, fit.offset])


def _least_squares_fit(monkeypatch, fit, spec):
    """fit(spec) with scipy's bounded least_squares run as the polish."""
    with monkeypatch.context() as m:
        m.setattr(analysis, "_polish", least_squares_polish)
        return fit(spec)


FITS = (fit_heating_sideband, fit_double_gaussian_with_offset)


def _finite_shot_spectra():
    rng = np.random.default_rng(11)
    specs = [make_gaussian_spectrum(nbar, rng) for nbar in (0.0, 0.002, 0.05, 0.3) * 2]
    specs += [make_gaussian_spectrum(0.3, rng, shots_per_point=400, offset=0.073)
              for _ in range(2)]
    specs += [_simulated_spectrum(nbar, cooled, 1.75 * OMEGA01_HZ, 11, rng, w)
              for nbar in (0.05, 0.5) for cooled in (False, True) for w in (0.0, 0.02, 0.04)]
    return specs


def _polish_spectra():
    """Every spectrum of TestPolish: finite-shot, infinite-shot (stderr
    1e-6) and noiseless ones whose offset and red height sit on a bound."""
    return (_finite_shot_spectra()
            + [_simulated_spectrum(nbar, cooled, 1.75 * OMEGA01_HZ, 11, None)
               for nbar in (0.0, 0.3, 1.0) for cooled in (False, True)]
            + [_noiseless_spectrum(a_blue=0.8, a_red=a_red, stderr=stderr)
               for a_red in (0.0, 0.2) for stderr in (1e-3, 1e-6)])


class TestPolish:
    """The projected Levenberg-Marquardt polish against scipy's bounded
    trust-region least_squares, from the same grid start, and against the
    Gauss-Newton loop it replaced, from the same inputs."""

    def test_matches_gauss_newton_oracle(self, monkeypatch):
        # every polish of every fit, both passes, rerun by the oracle. The
        # standard error is scaled by sqrt(chi2 / (n - k)) where that
        # exceeds 1: on the infinite-shot spectra, and in heating fits of
        # the offset spectra, model misfit and not noise sets chi2. The
        # oracle's own stopping error is what remains: the new polish
        # lies closer to a tightly converged least_squares optimum
        polish, calls = analysis._polish, []
        monkeypatch.setattr(analysis, "_polish", lambda *args: calls.append(args) or polish(*args))
        for spec in _polish_spectra():
            for fit in FITS:
                fit(spec)
        trials = {polish: 0, gauss_newton_polish: 0}
        for model, *args in calls:
            results = {}
            for run in trials:
                def counted(f, x, jac=None, c=None):
                    trials[run] += c is None and (run is polish or jac is None)
                    return model(f, x, jac, c)

                results[run] = run(counted, *args)
                trials[run] -= 1  # the start's evaluation
            (x, chi2, _), (x_ref, chi2_ref, jac) = results.values()
            n, k = jac.shape
            cov = np.linalg.pinv(jac.T @ jac) * n / (n - k) * max(chi2_ref / (n - k), 1.0)
            assert np.all(np.abs(np.subtract(x, x_ref)) <= 1e-6 * np.sqrt(np.diag(cov)))
            assert abs(chi2 - chi2_ref) <= 1e-12 * max(chi2_ref, 1.0)
        assert trials[polish] < trials[gauss_newton_polish]  # the full-Hessian tail saves steps

    def test_spd_solve_matches_numpy_and_rejects_indefinite_systems(self):
        rng = np.random.default_rng(4)
        for k in range(1, 6):
            a = rng.normal(size=(k + 3, k))
            m, b = a.T @ a + 1e-3 * np.eye(k), rng.normal(size=k)
            np.testing.assert_allclose(analysis._spd_solve(m.tolist(), b.tolist()), np.linalg.solve(m, b),
                                       rtol=1e-9)
        assert analysis._spd_solve([], []) == []  # every parameter pinned at a bound
        assert analysis._spd_solve([[1.0, 2.0], [2.0, 1.0]], [1.0, 1.0]) is None  # eigenvalues 3, -1
        assert analysis._spd_solve([[1.0, 1.0], [1.0, 1.0]], [1.0, 1.0]) is None  # singular

    def test_matches_least_squares_on_finite_shot_spectra(self, monkeypatch):
        for spec in _finite_shot_spectra():
            for fit in FITS:
                got, ref = fit(spec), _least_squares_fit(monkeypatch, fit, spec)
                assert np.all(np.abs(_fit_params(got) - _fit_params(ref)) <= 1e-3 * ref.stderr)
                np.testing.assert_allclose(got.stderr, ref.stderr, rtol=1e-3)

    @pytest.mark.parametrize("nbar", [0.0, 0.3, 1.0])
    @pytest.mark.parametrize("cooled", [False, True])
    def test_matches_least_squares_on_infinite_shot_spectra(self, monkeypatch, nbar, cooled):
        # stderr 1e-6: the fits' own errors are far below any statistical
        # tolerance, so compare relative values; the double fit's offset
        # sits on its zero bound here, where only an absolute difference holds
        spec = _simulated_spectrum(nbar, cooled, 1.75 * OMEGA01_HZ, 11, None)
        for fit in FITS:
            got, ref = fit(spec), _least_squares_fit(monkeypatch, fit, spec)
            np.testing.assert_allclose(_fit_params(got), _fit_params(ref), rtol=1e-6, atol=1e-12)

    @pytest.mark.parametrize("a_red", [0.0, 0.2])
    @pytest.mark.parametrize("stderr", [1e-3, 1e-6])
    def test_bound_active_parameters(self, monkeypatch, a_red, stderr):
        # noiseless spectra with zero offset (and zero red height): the
        # polish may land on the bound exactly, never outside it
        spec = _noiseless_spectrum(a_blue=0.8, a_red=a_red, stderr=stderr)
        for fit in FITS:
            got, ref = fit(spec), _least_squares_fit(monkeypatch, fit, spec)
            assert np.all(np.abs(_fit_params(got) - _fit_params(ref)) <= 1e-3 * ref.stderr)
        both = fit_double_gaussian_with_offset(spec)
        assert both.offset >= 0.0 and both.a_red >= 0.0
        assert both.offset == pytest.approx(0.0, abs=1e-9)

    def test_step_cap_raises_fit_convergence_error(self, monkeypatch):
        monkeypatch.setattr(analysis, "MAX_POLISH_STEPS", 1)
        spec = make_gaussian_spectrum(0.3, np.random.default_rng(2))
        for fit in FITS:
            with pytest.raises(FitConvergenceError, match="within 1 steps"):
                fit(spec)


class TestProfileLikelihood:
    def test_cold_spectrum_recovery(self):
        rng = np.random.default_rng(3)
        nbar = 0.002
        spec = make_gaussian_spectrum(nbar, rng, shots_per_point=300)
        est = temperature_from_spectrum(spec)
        lo, hi = est.nbar_ci
        assert lo >= 0.0
        assert hi > lo
        # interval magnitudes comparable to a few-per-mille determination
        assert 1e-4 < hi - est.nbar < 1e-2
        assert est.nbar < 0.02

    def test_zero_amplitude_gives_one_sided_interval(self):
        spec = _noiseless_spectrum(a_blue=0.8, a_red=0.0)
        blue = fit_heating_sideband(spec)
        prof = profile_likelihood_cooling_peak(spec, blue)
        assert prof.a_red == pytest.approx(0.0, abs=1e-9)
        assert prof.ci_lo == 0.0
        assert prof.one_sided

    def test_profile_curve_is_convex_with_unit_crossings(self):
        # oracle: rebuild chi2(a1) with offset re-minimized in closed form
        rng = np.random.default_rng(9)
        spec = make_gaussian_spectrum(0.05, rng)
        blue = fit_heating_sideband(spec)
        prof = profile_likelihood_cooling_peak(spec, blue)
        chi2 = _profile_chi2(spec, blue)

        a_grid = prof.a_red + np.linspace(-1.5, 1.5, 9) * prof.stderr
        a_grid = a_grid[a_grid >= 0]
        curve = np.array([chi2(a) for a in a_grid])
        coeffs = np.polyfit(a_grid, curve, 2)
        assert coeffs[0] > 0  # convex near the minimum
        # the interval endpoints sit on the Delta-chi2 = 1 level of the
        # same construction the estimator used (measured-weight oracle
        # is a cruder weighting, so only require monotone enclosure)
        assert prof.ci_lo <= prof.a_red <= prof.ci_hi

    def test_endpoints_sit_on_unit_delta_chi2_with_fixed_weights(self):
        # without shot counts the weights stay fixed, so the oracle profile
        # is the estimator's own and its Delta-chi2 = 1 level is exact
        rng = np.random.default_rng(17)
        kinds = set()
        for nbar in (0.0, 0.002, 0.05, 0.3) * 3:
            noisy = make_gaussian_spectrum(nbar, rng)
            spec = SidebandSpectrum(
                detuning_hz=noisy.detuning_hz,
                p_exc=noisy.p_exc,
                stderr=agresti_coull_stderr(noisy.p_exc, noisy.shots),
                shots=np.zeros(noisy.p_exc.size),
            )
            blue = fit_heating_sideband(spec)
            prof = profile_likelihood_cooling_peak(spec, blue)
            chi2 = _profile_chi2(spec, blue)
            assert prof.chi2_min == pytest.approx(chi2(prof.a_red), rel=1e-12)

            def delta(a1):
                return chi2(a1) - prof.chi2_min

            if prof.one_sided:
                assert prof.ci_lo == 0.0
                assert delta(0.0) <= 1.0
            else:
                assert delta(prof.ci_lo) == pytest.approx(1.0, abs=1e-9)
            if prof.unbounded_above:
                assert delta(1.0) <= 1.0
            else:
                assert delta(prof.ci_hi) == pytest.approx(1.0, abs=1e-9)
            kinds.add(prof.one_sided)
        assert kinds == {True, False}

    def test_interval_brackets_truth_typically(self):
        rng = np.random.default_rng(11)
        nbar = 0.05
        hits = 0
        for _ in range(60):
            spec = make_gaussian_spectrum(nbar, rng)
            est = temperature_from_spectrum(spec)
            lo, hi = est.nbar_ci
            hits += lo <= nbar <= hi
        assert 0.5 < hits / 60 < 0.9


class TestConversions:
    def test_reference_points(self):
        assert nbar_from_ratio(0.5) == pytest.approx(1.0, abs=1e-12)
        assert nbar_from_ratio(0.0) == 0.0

    def test_ratio_matches_thermal_populations(self):
        # independent check: r = p1/p0 of the thermal distribution
        from tweezersim.states import ThermalSpec, thermal_distribution

        p = thermal_distribution(ThermalSpec(nbar=0.002, n_max=12))
        assert nbar_from_ratio(p[1] / p[0]) == pytest.approx(0.002, rel=1e-9)

    @given(st.floats(0.0, 0.99))
    @settings(max_examples=100, deadline=None)
    def test_roundtrip(self, r):
        nbar = nbar_from_ratio(r)
        assert nbar_from_ratio(nbar / (nbar + 1.0)) == pytest.approx(nbar, abs=1e-12)

    def test_rejects_nonthermal_ratio(self):
        with pytest.raises(ValidationError):
            nbar_from_ratio(1.0)
        with pytest.raises(ValidationError):
            nbar_from_ratio(-0.1)


class TestDoubleGaussianFit:
    def test_offset_recovery_within_three_sigma(self):
        rng = np.random.default_rng(21)
        ok = 0
        for _ in range(30):
            spec = make_gaussian_spectrum(
                0.3, rng, shots_per_point=400, offset=0.073
            )
            fit = fit_double_gaussian_with_offset(spec)
            ok += abs(fit.offset - 0.073) <= 3 * fit.stderr[4]
        assert ok >= 27

    def test_zero_offset_reduces_to_baseline(self):
        spec = _noiseless_spectrum(a_blue=0.8, a_red=0.2, offset=0.0)
        fit = fit_double_gaussian_with_offset(spec)
        base = fit_heating_sideband(spec)
        assert fit.offset == pytest.approx(0.0, abs=1e-5)
        assert fit.a_blue == pytest.approx(base.height, abs=1e-4)
        assert fit.center_hz == pytest.approx(base.center_hz, rel=1e-4)
        assert fit.ground_state_fraction == pytest.approx(0.75, abs=1e-4)


class TestEstimatorAgreement:
    def test_profile_interval_contains_least_squares_estimate(self):
        # on well-conditioned spectra the 5-parameter least-squares red
        # height falls inside the profile-likelihood interval
        rng = np.random.default_rng(33)
        for _ in range(10):
            spec = make_gaussian_spectrum(0.3, rng, shots_per_point=2000)
            blue = fit_heating_sideband(spec)
            prof = profile_likelihood_cooling_peak(spec, blue)
            lsq = fit_double_gaussian_with_offset(spec)
            assert prof.ci_lo <= lsq.a_red <= prof.ci_hi


class TestNonthermalCorrection:
    def test_reference_endpoints(self):
        assert nonthermal_correction(0.08, 0.764) == pytest.approx(0.005, abs=5e-4)
        assert nonthermal_correction(0.24, 0.764) == pytest.approx(0.028, abs=5e-4)
        assert nonthermal_correction(0.0, 0.764) == 0.0

    def test_overestimation_bound_against_ladder_oracle(self):
        # treating a one-quantum-removed distribution as thermal
        # overestimates p0 by at most r^(3/2)(1-t12) + O(r^2)
        from tweezersim.dynamics import sideband_rabi
        from conftest import sideband_peak_ratio
        from tweezersim.protocols import DEFAULT_TRAP
        from tweezersim.states import ThermalSpec, remove_one_quantum, thermal_distribution

        eta, rabi = DEFAULT_TRAP.eta, 2 * np.pi * 2e3
        t12 = np.sin(
            sideband_rabi(1, 2, eta, rabi) / sideband_rabi(0, 1, eta, rabi) * np.pi / 2
        ) ** 2
        for q in np.linspace(0.1, 0.7, 13):
            nbar = q / (1 - q)
            dist = remove_one_quantum(thermal_distribution(ThermalSpec(nbar=nbar, n_max=40)))
            r = sideband_peak_ratio(dist)
            p0_true = dist[0]
            p0_est = 1.0 - r
            over = p0_est - p0_true
            assert over >= 0.0
            assert over <= nonthermal_correction(r, t12) + 0.25 * r**2

    def test_input_validation(self):
        with pytest.raises(ValidationError):
            nonthermal_correction(1.2, 0.7)
        with pytest.raises(ValidationError):
            nonthermal_correction(0.1, 1.5)


class TestThresholds:
    def test_analytic_reference_case(self):
        res = optimize_threshold_analytic(4.0, 1.0, 0.0, 1.0, p1=0.5)
        assert res.threshold == pytest.approx(2.0, abs=1e-9)
        assert res.fidelity == pytest.approx(0.977249868, abs=1e-6)

    def test_ndtr_is_bit_identical_to_scipy(self):
        from scipy.special import ndtr

        rng = np.random.default_rng(17)
        edges = []  # each branch edge of |a| / sqrt 2: 1 / sqrt 2, 1, 8, sqrt(MAXLOG)
        for e in (1.0, math.sqrt(2.0), 8 * math.sqrt(2.0), math.sqrt(2 * analysis._MAXLOG)):
            edges += [s * (e + k * math.ulp(e)) for k in range(-4, 5) for s in (1, -1)]
        pts = np.concatenate([
            rng.normal(size=50_000),
            rng.normal(scale=10.0, size=30_000),
            np.linspace(-40.0, 40.0, 40_001),
            edges,
            [0.0, -0.0, 40.0, -40.0, 1e-300, -1e-300, 5e-324, 1e300, -1e300, np.inf, -np.inf],
        ]).tolist()
        got = np.array([analysis._ndtr(a) for a in pts])
        np.testing.assert_array_equal(got, ndtr(np.array(pts)))
        assert math.isnan(analysis._ndtr(math.nan))

    def test_analytic_cdf_is_bit_identical_to_norm_cdf(self):
        # the closed-form normal CDF (the Cephes ndtr port) returns exactly
        # the bits of scipy.stats.norm.cdf at every threshold it picks
        from scipy.stats import norm

        for bright_mean in (0.5, 1.0, 2.5, 4.0, 8.0):
            for bright_std in (0.5, 1.0, 2.0):
                for dark_mean in (0.0, -1.3):
                    for dark_std in (0.7, 1.0, 1.5):
                        for p1 in (0.1, 0.5, 0.9):
                            res = optimize_threshold_analytic(
                                bright_mean, bright_std, dark_mean, dark_std, p1
                            )
                            x = res.threshold
                            assert res.f1 == 1.0 - norm.cdf(x, bright_mean, bright_std)
                            assert res.f0 == norm.cdf(x, dark_mean, dark_std)
                            assert res.fidelity == p1 * res.f1 + (1 - p1) * res.f0

    def test_perfectly_separated_samples(self):
        res = optimize_threshold(np.array([10.0, 11.0, 12.0]), np.array([0.0, 1.0]), p1=0.5)
        assert res.fidelity == 1.0
        assert res.f1 == 1.0 and res.f0 == 1.0

    def test_identity_decomposition(self):
        rng = np.random.default_rng(5)
        res = optimize_threshold(rng.normal(3, 1, 500), rng.normal(0, 1, 500), p1=0.7)
        assert res.fidelity == pytest.approx(0.7 * res.f1 + 0.3 * res.f0, abs=1e-12)

    def test_empirical_matches_analytic(self):
        rng = np.random.default_rng(6)
        n = 200_000
        res = optimize_threshold(rng.normal(4, 1, n), rng.normal(0, 1, n), p1=0.5)
        ref = optimize_threshold_analytic(4.0, 1.0, 0.0, 1.0, p1=0.5)
        assert res.fidelity == pytest.approx(ref.fidelity, abs=0.002)
        assert res.threshold == pytest.approx(2.0, abs=0.15)

    def test_inverted_orientation_autodetected(self):
        rng = np.random.default_rng(7)
        res = optimize_threshold(rng.normal(0, 1, 2000), rng.normal(4, 1, 2000), p1=0.5)
        assert res.orientation == -1
        assert res.fidelity > 0.95

    def test_degenerate_prior_warns(self):
        with pytest.warns(UserWarning):
            optimize_threshold(np.array([1.0]), np.array([0.0]), p1=1.0)

    def test_inconsistent_result_raises_validation_error(self):
        with pytest.raises(ValidationError, match="P1"):
            DetectionResult(threshold=0.0, fidelity=0.9, f1=0.8, f0=0.6, p1=0.5)

    def test_tie_breaks_toward_lower_threshold(self):
        res = optimize_threshold(np.array([2.0, 3.0]), np.array([0.0, 1.0]), p1=0.5)
        assert res.threshold < 2.0

    @staticmethod
    def _threshold_case(rng, kind):
        n_p, n_a = rng.integers(1, 80, 2)
        if kind == "ties":  # few distinct values, so samples tie within and across classes
            return rng.integers(2, 7, n_p).astype(float), rng.integers(0, 5, n_a).astype(float)
        if kind == "reversed":  # present below absent: orientation -1
            return rng.normal(0.0, 1.0, n_p), rng.normal(2.0, 1.0, n_a)
        if kind == "identical":
            same = rng.normal(0.0, 1.0, n_p)
            return same, same.copy()
        return rng.normal(2.0, 1.5, n_p) * 10.0 ** rng.integers(-3, 4), rng.normal(0.0, 1.0, n_a)

    @pytest.mark.parametrize("kind", ["ties", "reversed", "identical", "normal"])
    def test_shared_scan_matches_per_prior_scans(self, kind):
        rng = np.random.default_rng(["ties", "reversed", "identical", "normal"].index(kind))
        orientations = set()
        for case in range(150):
            present, absent = self._threshold_case(rng, kind)
            priors = [0.0, 1.0, 0.5, 0.5, *rng.random(3).tolist()]
            priors = [priors[i] for i in rng.permutation(len(priors))]
            n_cyc = int(rng.integers(1, 5))
            with warnings.catch_warnings(record=True) as shared_warnings:
                warnings.simplefilter("always")
                shared = optimize_thresholds(present, absent, priors, n_cyc=n_cyc)
            with warnings.catch_warnings(record=True) as one_warnings:
                warnings.simplefilter("always")
                one = [optimize_threshold(present, absent, p1, n_cyc=n_cyc) for p1 in priors]
            with warnings.catch_warnings(record=True) as reference_warnings:
                warnings.simplefilter("always")
                reference = [per_prior_threshold(present, absent, p1, n_cyc=n_cyc) for p1 in priors]
            assert len(shared_warnings) == len(one_warnings) == len(reference_warnings) == 2
            for results in (shared, one):  # repr keeps every bit, -0.0 included
                assert [repr(dataclasses.astuple(r)) for r in results] == [
                    repr(dataclasses.astuple(r)) for r in reference], (kind, case)
            orientations.add(shared[0].orientation)
            if kind == "identical":  # every threshold is as good as any other
                assert all(r.fidelity == max(r.p1, 1 - r.p1) for r in shared)
        if kind == "reversed":
            assert -1 in orientations

    def test_shared_scan_validates_every_prior_first(self):
        with pytest.raises(ValidationError, match="got 1.5"):
            optimize_thresholds([1.0], [0.0], [0.5, 1.5])
        with pytest.raises(ValidationError, match="one sample per class"):
            optimize_thresholds([], [0.0], [0.5])
        assert optimize_thresholds([1.0], [0.0], []) == []


class TestAggregation:
    def test_single_round_identity(self):
        sig = np.array([[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_array_equal(aggregate_signals(sig, 1), [1.0, 3.0])

    def test_zeros(self):
        np.testing.assert_array_equal(aggregate_signals(np.zeros((3, 4)), 4), np.zeros(3))

    def test_variance_scales_with_rounds(self):
        rng = np.random.default_rng(8)
        sig = rng.normal(0, 1.0, size=(20000, 4))
        v4 = aggregate_signals(sig, 4).var()
        assert v4 == pytest.approx(4.0, rel=0.05)

    def test_length_mismatch(self):
        with pytest.raises(ValidationError):
            aggregate_signals(np.zeros((3, 2)), 3)


class TestAggregatedReadoutMonotonicity:
    def test_fidelity_nondecreasing_on_gaussian_sum_model(self):
        # analytic model: aggregated sums of n i.i.d. normal signals keep
        # the same per-round separation, so F(n) = Phi(sqrt(n) d / 2)
        # rises monotonically when the threshold is re-optimized per n
        from scipy.stats import norm

        d = 2.5631  # single-round separation for F ~ 0.90
        prev = 0.0
        for n in range(1, 8):
            res = optimize_threshold_analytic(
                n * d, np.sqrt(n), 0.0, np.sqrt(n), p1=0.5, n_cyc=n
            )
            assert res.fidelity >= prev - 1e-12
            assert res.fidelity == pytest.approx(norm.cdf(np.sqrt(n) * d / 2), abs=1e-9)
            prev = res.fidelity


class TestAgrestiCoull:
    def test_floors_zero_counts(self):
        se = agresti_coull_stderr(0.0, 300)
        assert se > 0
        assert se == pytest.approx(np.sqrt((0.5 / 301) * (1 - 0.5 / 301) / 301), rel=1e-12)

    def test_matches_binomial_at_moderate_p(self):
        se = agresti_coull_stderr(0.5, 400)
        assert se == pytest.approx(np.sqrt(0.25 / 400), rel=0.01)


class TestBinomialStderr:
    def test_formula_and_floor(self):
        se = binomial_stderr(np.array([0.0, 0.25, 1.0]), 400)
        np.testing.assert_array_equal(se, np.sqrt(np.array([1e-12, 0.1875, 1e-12]) / 400))
