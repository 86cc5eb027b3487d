import numpy as np
import pytest
from conftest import simpson_panels, simpson_response

from tweezersim.dynamics import QuasiStatic, SpectralDensity
from tweezersim.errors import GridMismatchError, ValidationError
from tweezersim.response import (
    InfidelityBudget,
    ResponseQuery,
    amplitude_response_closed_form,
    budget,
    infidelity,
    response_closed_form,
    response_function,
)

ETA = 0.36
RABI = 2 * np.pi * 2e3
W = ETA * RABI
T_PI = np.pi / W
F_RES = W / (2 * np.pi)


class TestClosedForm:
    def test_zero_frequency(self):
        assert response_closed_form(0.0, ETA, RABI) == pytest.approx(1.0 / W**2, rel=1e-12)

    def test_removable_singularity_value(self):
        assert response_closed_form(F_RES, ETA, RABI) == pytest.approx((T_PI / 4) ** 2, rel=1e-12)
        assert response_closed_form(F_RES, ETA, RABI) == pytest.approx(
            np.pi**2 / (16 * W**2), rel=1e-12
        )

    @pytest.mark.parametrize("eps_rel", [1e-3, 1e-4, 1e-5])
    def test_continuity_through_singularity(self, eps_rel):
        i0 = response_closed_form(F_RES, ETA, RABI)
        for sign in (-1, 1):
            val = response_closed_form(F_RES * (1 + sign * eps_rel), ETA, RABI)
            assert abs(val - i0) / i0 < 10 * eps_rel

    def test_naive_formula_away_from_singularity(self):
        f = np.array([10.0, 100.0, 500.0, 2e3, 1e4])
        naive = (W * np.cos(np.pi * f * T_PI) / (W**2 - 4 * np.pi**2 * f**2)) ** 2
        np.testing.assert_allclose(response_closed_form(f, ETA, RABI), naive, rtol=1e-9)

    def test_matches_the_pi_time_sinc_form(self):
        # w^2 (T/2)^2 sinc^2((w - x) / (2w)) / (w + x)^2, exact through x = w
        f = np.sort(np.append(np.logspace(0, 6, 601), F_RES * (1 + np.linspace(-1e-3, 1e-3, 21))))
        x = 2 * np.pi * f
        want = W**2 * (T_PI / 2) ** 2 * np.sinc((W - x) / (2 * W)) ** 2 / (W + x) ** 2
        np.testing.assert_allclose(response_closed_form(f, ETA, RABI), want, rtol=1e-10)

    def test_high_frequency_falloff(self):
        f = np.array([1e5, 1e6])
        vals = response_closed_form(f, ETA, RABI)
        # f^-4 envelope: I * (2 pi f)^4 / w^2 stays of order one
        env = vals * (2 * np.pi * f) ** 4 / W**2
        assert np.all(env <= 1.0 + 1e-9)

    def test_rejects_negative_frequency(self):
        with pytest.raises(ValidationError):
            response_closed_form(-1.0, ETA, RABI)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("channel", ["trap_frequency", "laser_amplitude"])
    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_query_rejects_non_finite_frequencies(self, channel, bad):
        with pytest.raises(ValidationError, match="must be finite") as info:
            ResponseQuery(ETA, RABI, [0.0, bad], channel)
        assert info.value.field == "frequencies_hz"


class TestNumeric:
    def test_matches_closed_form_on_log_grid(self):
        freqs = np.logspace(1, 4, 50)
        for channel in ("trap_frequency", "laser_frequency"):
            got = simpson_response(ResponseQuery(ETA, RABI, freqs, channel=channel))
            ref = response_closed_form(freqs, ETA, RABI)
            np.testing.assert_allclose(got, ref, rtol=1e-6)

    def test_at_singularity(self):
        got = simpson_response(ResponseQuery(ETA, RABI, np.array([F_RES])))
        assert got[0] == pytest.approx((T_PI / 4) ** 2, rel=1e-4)

    def test_amplitude_channel_analytic(self):
        freqs = np.array([0.0, 123.0, 1.5e3, 6e3])
        got = simpson_response(ResponseQuery(ETA, RABI, freqs, channel="laser_amplitude"))
        ref = amplitude_response_closed_form(freqs, ETA, RABI)
        np.testing.assert_allclose(got, ref, rtol=1e-8, atol=1e-20)

    def test_vanishing_window(self):
        got = simpson_response(ResponseQuery(ETA, RABI, np.array([100.0, 1e3]), duration=0.0))
        np.testing.assert_allclose(got, 0.0, atol=1e-30)
        rf = response_function(ResponseQuery(ETA, RABI, np.array([100.0, 1e3]), duration=0.0))
        np.testing.assert_array_equal(rf.values, 0.0)

    def test_channel_symmetry(self):
        freqs = np.logspace(1, 4, 20)
        rt = simpson_response(ResponseQuery(ETA, RABI, freqs, channel="trap_frequency"))
        rl = simpson_response(ResponseQuery(ETA, RABI, freqs, channel="laser_frequency"))
        np.testing.assert_allclose(rt, rl, rtol=0, atol=1e-12 * rt.max())

    def test_scaling_law(self):
        c = 3.0
        freqs = np.logspace(1, 4, 12)
        base = simpson_response(ResponseQuery(ETA, RABI, freqs))
        scaled = simpson_response(ResponseQuery(ETA, c * RABI, c * freqs))
        np.testing.assert_allclose(scaled, base / c**2, rtol=1e-9)

    @pytest.mark.parametrize("channel", ["trap_frequency", "laser_frequency"])
    @pytest.mark.parametrize("duration", [1e-6, 5e-4, 2 * T_PI, 1e-2])
    def test_closed_form_matches_the_oracle_at_any_duration(self, channel, duration):
        freqs = np.sort(np.append(np.logspace(1, 4, 40), [0.0, F_RES]))
        query = ResponseQuery(ETA, RABI, freqs, channel, duration)
        got = response_function(query).values
        want = simpson_response(query)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-9 * want.max())

    @pytest.mark.parametrize("eta, duration", [(1.0, 1e150), (1e-10, 1e151)], ids=["eta_t", "t"])
    def test_duration_bounds_keep_every_channel_finite(self, eta, duration):
        # at the bound on eta * T (then T) every closed form is finite on a
        # grid through f = 0, warnings being errors; one ulp past it, or
        # below T = 0, the query is rejected
        freqs = np.array([0.0, 1.0, 1e12])
        for channel in ("trap_frequency", "laser_frequency", "laser_amplitude"):
            values = response_function(ResponseQuery(eta, 1.0, freqs, channel, duration)).values
            assert np.all(np.isfinite(values))
            for bad in (np.nextafter(duration, np.inf), -5e-324):
                with pytest.raises(ValidationError, match=r"must lie in \[0, 1e151\] s and eta \* duration"):
                    ResponseQuery(eta, 1.0, freqs, channel, bad)

    @pytest.mark.parametrize("channel", ["trap_frequency", "laser_amplitude"])
    def test_matches_the_dense_double_sum(self, channel):
        # the Simpson double sum of cos(2 pi f (t - tau)) C(t, tau), written out
        query = ResponseQuery(ETA, RABI, np.linspace(0.0, 2e3, 9), channel, 0.0005)
        n = simpson_panels(query)
        t = np.linspace(0.0, query.duration, n + 1)
        wts = np.where(np.arange(n + 1) % 2, 4.0, 2.0)
        wts[0] = wts[-1] = 1.0
        wts *= query.duration / n / 3.0
        g = np.full(n + 1, ETA / 2) if channel == "laser_amplitude" else 0.5 * np.sin(W * t)
        corr = np.outer(g, g)
        want = [wts @ (np.cos(2 * np.pi * f * (t[:, None] - t[None, :])) * corr) @ wts
                for f in query.frequencies_hz]
        got = simpson_response(query)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * max(want))


class TestInfidelity:
    def test_quasi_static_trap_noise_reference_value(self):
        # 0.5% of a 35 kHz trap as a quasi-static standard deviation
        sigma = 0.005 * 2 * np.pi * 35e3
        rf = response_function(ResponseQuery(ETA, RABI, np.array([0.0, 1.0])))
        chi = infidelity(QuasiStatic(sigma), rf)
        assert chi == pytest.approx(sigma**2 / W**2, rel=1e-12)
        assert 4.8e-2 <= chi <= 6.4e-2
        assert chi == pytest.approx(5.9076e-2, abs=2e-5)

    def test_zero_psd(self):
        rf = response_function(ResponseQuery(ETA, RABI, np.linspace(1, 1e4, 64)))
        psd = SpectralDensity(np.array([1.0, 1e4]), np.array([0.0, 0.0]))
        assert infidelity(psd, rf) == 0.0

    def test_white_psd_against_dense_quadrature(self):
        # oracle: direct dense trapezoid of S * I using the closed form
        s0 = 5e3
        f = np.linspace(0.0, 8e3, 4001)
        chi_oracle = np.trapezoid(s0 * response_closed_form(f, ETA, RABI), f)
        rf = response_function(ResponseQuery(ETA, RABI, f))
        psd = SpectralDensity(np.array([0.0, 8e3]), np.array([s0, s0]))
        assert infidelity(psd, rf) == pytest.approx(chi_oracle, rel=1e-9)

    def test_grid_mismatch(self):
        rf = response_function(ResponseQuery(ETA, RABI, np.linspace(1.0, 100.0, 16)))
        psd = SpectralDensity(np.array([1e3, 2e3]), np.array([1.0, 1.0]))
        with pytest.raises(GridMismatchError):
            infidelity(psd, rf)

    def test_psd_overhang_warns(self):
        rf = response_function(ResponseQuery(ETA, RABI, np.linspace(10.0, 1e3, 32)))
        psd = SpectralDensity(np.array([0.0, 5e3]), np.array([1.0, 1.0]))
        with pytest.warns(UserWarning):
            infidelity(psd, rf)

    def test_budget_totals(self):
        from tweezersim.dynamics import NoiseModel

        rf = response_function(ResponseQuery(ETA, RABI, np.array([0.0, 1.0])))
        model = NoiseModel(
            trap_frequency=QuasiStatic(100.0), laser_frequency=QuasiStatic(200.0)
        )
        b = budget(model, {"trap_frequency": rf, "laser_frequency": rf})
        assert b.total == pytest.approx(
            (100.0**2 + 200.0**2) / W**2, rel=1e-12
        )
        assert set(b.contributions) == {"trap_frequency", "laser_frequency"}

    def test_budget_chi_nonnegative_guard(self):
        b = InfidelityBudget()
        with pytest.raises(ValidationError):
            b.add("trap_frequency", -1.0, "bogus")
