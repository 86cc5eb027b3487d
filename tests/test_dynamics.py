import math

import numpy as np
import pytest
from conftest import ladder_evolve, propagator, two_level_evolve, zero_realization
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from tweezersim import dynamics, kernels
from tweezersim.dynamics import (
    PSD_OVERSAMPLE,
    NoiseModel,
    NoiseRealization,
    PulseKind,
    PulseSpec,
    QuasiStatic,
    SpectralDensity,
    build_hamiltonian,
    evolve_batch,
    evolve_rows,
    sample_noise,
    sample_noise_rows,
    sideband_ladder,
    sideband_rabi,
    spectroscopy_pi_duration,
    _amp_factor,
    _laguerre_ladder,
    _psd_basis,
)
from tweezersim.errors import (
    NumericsError,
    StepSizeError,
    TruncationError,
    ValidationError,
)
from tweezersim.gates import Streams
from tweezersim.states import ElectronicLevel, TrapSpec, prepare_state

ETA = 0.36
RABI = 2 * np.pi * 2e3
TRAP = TrapSpec(omega_t=2 * np.pi * 35e3, mass=88 * 1.66053906892e-27, k=2 * np.pi / 698e-9, eta=ETA)
T_PI = np.pi / (ETA * RABI)
#: The 0 <-> 1 sideband Rabi frequency of the ladder, which plays the role
#: of eta * rabi in the two-level formulas
OMEGA_01 = sideband_rabi(0, 1, ETA, RABI)


def evolve_one(state, pulse, trap, realization=None):
    """Final (2, n_max + 1) amplitudes of one state under one realization
    (noiseless in one exact step when None), as one row of evolve_batch."""
    r = realization if realization is not None else zero_realization(pulse.duration)
    ampf = _amp_factor(pulse, r.laser_amplitude)
    series = (x[None] for x in (r.trap_frequency, r.laser_frequency, ampf))
    return evolve_batch(state, pulse, trap, *series, r.dt)[0].reshape(2, -1)


def harmonic_synthesis(psd, duration, n_steps, rng):
    """Reference random-phase synthesis: one cosine per (step, bin)."""
    df = 1.0 / (PSD_OVERSAMPLE * duration)
    f_k = (np.arange(int(np.ceil(psd.f_max / df))) + 0.5) * df
    amps = np.sqrt(2.0 * np.interp(f_k, psd.frequencies_hz, psd.values, left=0.0, right=0.0) * df)
    phases = rng.uniform(0.0, 2.0 * np.pi, f_k.size)
    times = (np.arange(n_steps) + 0.5) * (duration / n_steps)
    return np.cos(2.0 * np.pi * np.outer(times, f_k) + phases) @ amps


def population(amps, level, n):
    return abs(amps[int(level), n]) ** 2


def displacement_matrix_element(n_from, n_to, eta, dim=64):
    """Independent oracle: <n_to| exp(i eta (a + a^dag)) |n_from| via expm."""
    a = np.diag(np.sqrt(np.arange(1, dim)), k=1)
    d = expm(1j * eta * (a + a.T))
    return abs(d[n_to, n_from])


class TestSidebandRabi:
    def test_first_to_second_ratio(self):
        # (2 - eta^2) / sqrt(2) from L_1^1(x) = 2 - x
        ratio = sideband_rabi(1, 2, ETA, RABI) / sideband_rabi(0, 1, ETA, RABI)
        assert ratio == pytest.approx((2 - ETA**2) / np.sqrt(2), rel=1e-12)
        assert ratio == pytest.approx(1.3225725235313186, rel=1e-12)

    def test_second_sideband_transfer_deficit(self):
        # with the 0->1 transfer tuned to a pi pulse, 1 - t(1->2) ~ 0.24
        ratio = sideband_rabi(1, 2, ETA, RABI) / sideband_rabi(0, 1, ETA, RABI)
        t12 = np.sin(ratio * np.pi / 2) ** 2
        assert 1 - t12 == pytest.approx(0.2355071684, abs=1e-9)
        assert 1 - t12 == pytest.approx(0.24, abs=0.01)

    @pytest.mark.parametrize("n", range(7))
    @pytest.mark.parametrize("dn", [0, 1])
    def test_matches_displacement_operator_elements(self, n, dn):
        got = sideband_rabi(n, n + dn, ETA, RABI)
        oracle = RABI * displacement_matrix_element(n, n + dn, ETA)
        assert got == pytest.approx(oracle, rel=1e-10)

    def test_lamb_dicke_limit_carrier(self):
        assert sideband_rabi(3, 3, 0.0, RABI) == pytest.approx(RABI, rel=1e-15)

    def test_symmetric_in_direction(self):
        assert sideband_rabi(2, 1, ETA, RABI) == pytest.approx(
            sideband_rabi(1, 2, ETA, RABI), rel=1e-15
        )

    def test_rejects_second_order(self):
        with pytest.raises(ValidationError):
            sideband_rabi(0, 2, ETA, RABI)


#: x = eta^2 values for the Laguerre oracle, the preset eta among them.
LAGUERRE_X = [0.36**2, 0.0, 1e-8, *np.linspace(0.01, 3.0, 40)]


class TestLaguerreOracle:
    """The one-pass ladder against scipy's eval_genlaguerre, bit for bit."""

    @pytest.mark.parametrize("alpha", [0, 1])
    def test_ladder_is_bit_identical_to_eval_genlaguerre(self, alpha):
        from scipy.special import eval_genlaguerre

        for x in map(float, LAGUERRE_X):
            got = _laguerre_ladder(400, alpha, x)
            want = [float(eval_genlaguerre(n, alpha, x)) for n in range(401)]
            assert got == want, x

    @pytest.mark.parametrize("n_top", [0, 1, 2, 3])
    def test_short_ladders(self, n_top):
        assert _laguerre_ladder(n_top, 1, 0.2) == _laguerre_ladder(5, 1, 0.2)[: n_top + 1]

    @pytest.mark.parametrize("eta", [0.36, 0.05, 0.9])
    def test_sideband_rabi_is_bit_identical_to_scipy_formula(self, eta):
        from scipy.special import eval_genlaguerre

        x = eta * eta
        for lo in range(401):
            for dn in (0, 1):
                root = 1.0 if dn == 0 else 1.0 / math.sqrt(lo + 1)
                want = RABI * math.exp(-x / 2.0) * eta**dn * root * float(eval_genlaguerre(lo, dn, x))
                assert sideband_rabi(lo, lo + dn, eta, RABI) == want, (lo, dn)

    def test_ladder_entries_equal_sideband_rabi(self):
        carrier, side = sideband_ladder(60, ETA, RABI)
        assert carrier == [sideband_rabi(n, n, ETA, RABI) for n in range(61)]
        assert side == [sideband_rabi(n + 1, n, ETA, RABI) for n in range(60)]
        assert sideband_ladder(0, ETA, RABI) == ([RABI * math.exp(-(ETA * ETA) / 2.0)], [])


class TestSampleNoise:
    def test_quiet_model_is_zero(self):
        r = sample_noise(NoiseModel(), T_PI, T_PI / 100, seed=1)
        assert np.all(r.trap_frequency == 0)
        assert np.all(r.laser_frequency == 0)
        assert np.all(r.laser_amplitude == 0)

    def test_quasi_static_standard_deviation(self):
        sigma = 2 * np.pi * 175
        model = NoiseModel(trap_frequency=QuasiStatic(sigma))
        draws = np.array(
            [sample_noise(model, T_PI, T_PI, seed=s).trap_frequency[0] for s in range(10_000)]
        )
        assert draws.std() == pytest.approx(sigma, rel=0.02)

    def test_white_psd_variance_parseval(self):
        s0 = 2.0e4  # (rad/s)^2/Hz
        f_max = 8e3
        psd = SpectralDensity(np.array([0.0, f_max]), np.array([s0, s0]))
        model = NoiseModel(laser_frequency=psd)
        dt = 1.0 / (20 * f_max) / 2
        n_steps = 400
        acc = []
        for s in range(300):
            acc.append(sample_noise(model, n_steps * dt, dt, seed=s).laser_frequency)
        var = np.mean(np.concatenate(acc) ** 2)
        assert var == pytest.approx(s0 * f_max, rel=0.05)

    def test_seed_determinism(self):
        model = NoiseModel(
            trap_frequency=QuasiStatic(100.0),
            laser_frequency=SpectralDensity(np.array([0.0, 1e3]), np.array([1.0, 1.0])),
        )
        r1 = sample_noise(model, 1e-3, 1e-5, seed=42)
        r2 = sample_noise(model, 1e-3, 1e-5, seed=42)
        np.testing.assert_array_equal(r1.trap_frequency, r2.trap_frequency)
        np.testing.assert_array_equal(r1.laser_frequency, r2.laser_frequency)

    def test_periodogram_converges_to_psd(self):
        # seed-averaged single-sided periodogram approaches the flat PSD
        # on interior bins (spectral leakage softens the support edges)
        s0 = 1.0e4
        f_max = 5e3
        psd = SpectralDensity(np.array([0.0, f_max]), np.array([s0, s0]))
        model = NoiseModel(trap_frequency=psd)
        dt = 1.0 / (20 * f_max)
        n_steps = 512
        duration = n_steps * dt
        acc = None
        n_seeds = 400
        for s in range(n_seeds):
            x = sample_noise(model, duration, dt, seed=s).trap_frequency
            pxx = (2.0 * dt / n_steps) * np.abs(np.fft.rfft(x)) ** 2
            acc = pxx if acc is None else acc + pxx
        acc /= n_seeds
        freqs = np.fft.rfftfreq(n_steps, dt)
        interior = (freqs > 0.15 * f_max) & (freqs < 0.85 * f_max)
        assert np.mean(acc[interior]) == pytest.approx(s0, rel=0.1)
        beyond = freqs > 1.6 * f_max
        assert np.mean(acc[beyond]) < 0.02 * s0

    @pytest.mark.parametrize(
        "n_steps, f_max_hz",
        [
            (2000, 5e3),
            (2001, 5e3),
            (2000, 0.9 / (PSD_OVERSAMPLE * T_PI)),  # one bin
            (2000, 2000 / (20 * T_PI)),  # bins at the dt bound, 0.4 n_steps
            (2001, 2001 / (20 * T_PI)),
        ],
    )
    def test_synthesis_matches_cosine_oracle(self, n_steps, f_max_hz):
        psd = SpectralDensity(np.array([0.0, f_max_hz]), np.array([2e3, 1e3]))
        series = sample_noise(NoiseModel(laser_frequency=psd), T_PI, T_PI / n_steps, seed=7).laser_frequency
        want = harmonic_synthesis(psd, T_PI, n_steps, np.random.default_rng(7))
        scale = np.max(np.abs(want))
        assert scale > 0
        np.testing.assert_allclose(series, want, rtol=0, atol=1e-12 * scale)

    def test_rows_match_successive_draws(self):
        # row r is the r-th of successive draws; each row draws its
        # channels in the order trap, laser frequency, laser amplitude
        psd = SpectralDensity(np.array([0.0, 5e3]), np.array([2e3, 2e3]))
        model = NoiseModel(trap_frequency=QuasiStatic(100.0), laser_frequency=psd,
                           laser_amplitude=QuasiStatic(30.0))
        rng = np.random.default_rng(11)
        trap, freq, amp = sample_noise_rows(model, T_PI, T_PI / 400, 5, rng)
        ref = np.random.default_rng(11)
        for row in range(5):
            np.testing.assert_array_equal(trap[row], np.full(400, ref.normal(0.0, 100.0)))
            want = harmonic_synthesis(psd, T_PI, 400, ref)
            np.testing.assert_allclose(freq[row], want, rtol=0, atol=1e-12 * np.max(np.abs(want)))
            np.testing.assert_array_equal(amp[row], np.full(400, ref.normal(0.0, 30.0)))
        assert rng.bit_generator.state == ref.bit_generator.state

    def test_basis_is_read_only_and_cache_bounded(self):
        psd = SpectralDensity(np.array([0.0, 5e3]), np.array([1.0, 1.0]))
        for n_steps in range(100, 140):
            sample_noise(NoiseModel(trap_frequency=psd), T_PI, T_PI / n_steps, seed=0)
            info = _psd_basis.cache_info()
            assert info.currsize <= info.maxsize
        basis = _psd_basis(139, 3)
        assert basis.shape == (6, 139) and not basis.flags.writeable
        with pytest.raises(ValueError):
            basis[0, 0] = 1.0

    def test_rejects_coarse_dt(self):
        psd = SpectralDensity(np.array([0.0, 10e3]), np.array([1.0, 1.0]))
        with pytest.raises(ValidationError):
            sample_noise(NoiseModel(trap_frequency=psd), 1e-3, 1e-5 * 3, seed=0)

    def test_rejects_nondividing_dt(self):
        with pytest.raises(ValidationError):
            sample_noise(NoiseModel(), 1e-3, 2.9e-4, seed=0)


class TestBuildHamiltonian:
    def test_noiseless_bsb_two_level_structure(self):
        pulse = PulseSpec.bsb_pi(ETA, RABI)
        r = zero_realization(pulse.duration)
        h = build_hamiltonian(pulse, TRAP, r, t=0.0, n_max=4)
        m = 5
        g = 0  # (down, 0)
        e = m + 1  # (up, 1)
        # (Omega_01 / 2) * sigma_y on the pair
        assert h[e, g] == pytest.approx(1j * OMEGA_01 / 2)
        assert h[g, e] == pytest.approx(-1j * OMEGA_01 / 2)
        block = h[np.ix_([g, e], [g, e])]
        np.testing.assert_allclose(
            np.sort(np.linalg.eigvalsh(block)), [-OMEGA_01 / 2, OMEGA_01 / 2], rtol=1e-12
        )

    def test_free_pulse_without_noise_is_zero(self):
        pulse = PulseSpec(PulseKind.FREE, rabi=0.0, duration=1e-3)
        r = zero_realization(pulse.duration)
        h = build_hamiltonian(pulse, TRAP, r, t=0.0, n_max=4)
        assert np.all(h == 0)

    def test_constant_trap_noise_adds_excited_projector(self):
        pulse = PulseSpec.bsb_pi(ETA, RABI)
        c = 123.0
        r = zero_realization(pulse.duration)
        rn = NoiseRealization(
            dt=r.dt,
            trap_frequency=np.full(1, c),
            laser_frequency=np.zeros(1),
            laser_amplitude=np.zeros(1),
        )
        h0 = build_hamiltonian(pulse, TRAP, r, 0.0, n_max=4)
        h1 = build_hamiltonian(pulse, TRAP, rn, 0.0, n_max=4)
        m = 5
        diff = h1 - h0
        assert diff[m + 1, m + 1] == pytest.approx(c)  # (up, 1) gains c
        assert diff[0, 0] == 0.0  # (down, 0) untouched

    def test_hermitian(self):
        pulse = PulseSpec(PulseKind.CARRIER, rabi=RABI, duration=1e-4, detuning=500.0, phase=0.3)
        r = zero_realization(pulse.duration)
        h = build_hamiltonian(pulse, TRAP, r, 0.0, n_max=6)
        np.testing.assert_allclose(h, h.conj().T, atol=1e-12)


class TestEvolve:
    def test_noiseless_bsb_pi_two_level(self):
        state = prepare_state(ElectronicLevel.DOWN, 0, n_max=4)
        pulse = PulseSpec(PulseKind.BLUE_SIDEBAND, rabi=RABI, duration=np.pi / OMEGA_01)
        out = evolve_one(state, pulse, TRAP)
        assert population(out, ElectronicLevel.UP, 1) == pytest.approx(1.0, abs=1e-9)
        # documented global phase: (down,0) -> +(up,1)
        assert out[1, 1] == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("delta_frac", [-1.5, -0.4, 0.0, 0.3, 0.8, 2.0])
    @pytest.mark.parametrize("dur_frac", [0.31, 1.0, 2.7])
    def test_detuned_rabi_formula_two_level(self, delta_frac, dur_frac):
        w = OMEGA_01
        delta = delta_frac * w
        duration = dur_frac * np.pi / w
        pulse = PulseSpec(
            PulseKind.BLUE_SIDEBAND, rabi=RABI, duration=duration, detuning=delta
        )
        state = prepare_state(ElectronicLevel.DOWN, 0, n_max=4)
        out = evolve_one(state, pulse, TRAP)
        w_eff = np.sqrt(w**2 + delta**2)
        expected = w**2 / w_eff**2 * np.sin(w_eff * duration / 2) ** 2
        assert population(out, ElectronicLevel.UP, 1) == pytest.approx(expected, abs=1e-8)

    def test_carrier_pi_pulse_laguerre_reduction(self):
        # pulse timed as pi for n=0 only partially transfers n=1 at eta=0.36
        x = ETA**2
        om0 = sideband_rabi(0, 0, ETA, RABI)
        duration = np.pi / om0
        pulse = PulseSpec(PulseKind.CARRIER, rabi=RABI, duration=duration)
        out0 = evolve_one(prepare_state(ElectronicLevel.DOWN, 0, n_max=6), pulse, TRAP)
        assert population(out0, ElectronicLevel.UP, 0) == pytest.approx(1.0, abs=1e-9)
        out1 = evolve_one(prepare_state(ElectronicLevel.DOWN, 1, n_max=6), pulse, TRAP)
        expected = np.sin((1 - x) * np.pi / 2) ** 2  # L_1(x)/L_0(x) = 1 - x
        assert population(out1, ElectronicLevel.UP, 1) == pytest.approx(expected, abs=1e-9)
        assert population(out1, ElectronicLevel.UP, 1) < 0.97

    def test_rsb_has_no_effect_on_ground_state(self):
        pulse = PulseSpec(
            PulseKind.RED_SIDEBAND, rabi=RABI, duration=np.pi / sideband_rabi(0, 1, ETA, RABI)
        )
        out = evolve_one(prepare_state(ElectronicLevel.DOWN, 0, n_max=6), pulse, TRAP)
        assert population(out, ElectronicLevel.DOWN, 0) == pytest.approx(1.0, abs=1e-12)

    def test_rsb_pi_removes_one_quantum(self):
        pulse = PulseSpec(
            PulseKind.RED_SIDEBAND, rabi=RABI, duration=np.pi / sideband_rabi(1, 0, ETA, RABI)
        )
        out = evolve_one(prepare_state(ElectronicLevel.DOWN, 1, n_max=6), pulse, TRAP)
        assert population(out, ElectronicLevel.UP, 0) == pytest.approx(1.0, abs=1e-9)

    def test_propagator_unitarity_with_noise(self):
        model = NoiseModel(
            trap_frequency=QuasiStatic(0.05 * ETA * RABI),
            laser_frequency=SpectralDensity(np.array([0.0, 5e3]), np.array([2e3, 2e3])),
        )
        r = sample_noise(model, T_PI, T_PI / 2000, seed=3)
        pulse = PulseSpec.bsb_pi(ETA, RABI)
        u = propagator(pulse, TRAP, r, n_max=6)
        np.testing.assert_allclose(u.conj().T @ u, np.eye(14), atol=1e-9)

    def test_propagator_matches_per_column_construction(self):
        # one kernel pass over the identity columns equals evolving each
        # basis state on its own
        model = NoiseModel(
            trap_frequency=QuasiStatic(0.05 * ETA * RABI),
            laser_frequency=SpectralDensity(np.array([0.0, 5e3]), np.array([2e3, 2e3])),
        )
        r = sample_noise(model, T_PI, T_PI / 2001, seed=4)
        pulse = PulseSpec.bsb_pi(ETA, RABI)
        u = propagator(pulse, TRAP, r, n_max=6)
        basis = np.eye(14, dtype=np.complex128)
        cols = np.column_stack([ladder_evolve(b[None, :, None], pulse, TRAP, r)[0, :, 0] for b in basis])
        np.testing.assert_allclose(u, cols, rtol=0, atol=1e-12)

    @given(
        st.floats(-2.0, 2.0),
        st.floats(0.05, 2.0),
        st.floats(0.0, 2 * np.pi),
    )
    @settings(max_examples=40, deadline=None)
    def test_norm_preserved(self, delta_frac, dur_frac, phase):
        pulse = PulseSpec(
            PulseKind.BLUE_SIDEBAND,
            rabi=RABI,
            duration=dur_frac * T_PI,
            detuning=delta_frac * ETA * RABI,
            phase=phase,
        )
        state = prepare_state(np.array([0.6, 0.8]), 0, n_max=5)
        out = evolve_one(state, pulse, TRAP)
        assert np.sum(np.abs(out) ** 2) == pytest.approx(1.0, abs=1e-10)

    def test_step_size_guard(self):
        pulse = PulseSpec.bsb_pi(ETA, RABI)
        huge = np.full(2, 1e7)
        r = NoiseRealization(
            dt=pulse.duration / 2,
            trap_frequency=huge,
            laser_frequency=np.zeros(2),
            laser_amplitude=np.zeros(2),
        )
        with pytest.raises(StepSizeError):
            evolve_one(prepare_state(ElectronicLevel.DOWN, 0, n_max=4), pulse, TRAP, r)

    def test_truncation_edge_guard(self):
        pulse = PulseSpec.bsb_pi(ETA, RABI)
        state = prepare_state(ElectronicLevel.DOWN, 4, n_max=4)
        with pytest.raises(TruncationError):
            evolve_one(state, pulse, TRAP)

    def test_convergence_under_dt_halving(self):
        # smooth deterministic laser-frequency modulation, resolved by the
        # default step density: halving dt moves populations by < 1e-8
        w = ETA * RABI
        pulse = PulseSpec.bsb_pi(ETA, RABI)
        f_mod = 1e3
        amp = 0.01 * w

        def realization(n_steps):
            t = (np.arange(n_steps) + 0.5) * (pulse.duration / n_steps)
            return NoiseRealization(
                dt=pulse.duration / n_steps,
                trap_frequency=np.zeros(n_steps),
                laser_frequency=amp * np.sin(2 * np.pi * f_mod * t),
                laser_amplitude=np.zeros(n_steps),
            )

        state = prepare_state(ElectronicLevel.DOWN, 0, n_max=4)
        p1 = population(evolve_one(state, pulse, TRAP, realization(2000)), ElectronicLevel.UP, 1)
        p2 = population(evolve_one(state, pulse, TRAP, realization(4000)), ElectronicLevel.UP, 1)
        assert abs(p1 - p2) < 1e-8

    def test_spectroscopy_pi_duration_saturates_transfer(self):
        dur = spectroscopy_pi_duration(TRAP, RABI)
        pulse = PulseSpec(PulseKind.BLUE_SIDEBAND, rabi=RABI, duration=dur)
        out = evolve_one(prepare_state(ElectronicLevel.DOWN, 0, n_max=6), pulse, TRAP)
        assert population(out, ElectronicLevel.UP, 1) == pytest.approx(1.0, abs=1e-10)


class TestPerturbativeConsistency:
    def test_quasi_static_trap_noise_matches_sigma2_i0(self):
        # trajectory average under shot-constant trap noise at
        # sigma/(eta rabi) = 0.1 agrees with sigma^2 I(0) within 3 SE
        from tweezersim.response import ResponseQuery, infidelity, response_function

        sigma = 0.1 * ETA * RABI
        rf = response_function(ResponseQuery(ETA, RABI, np.array([0.0, 1.0])))
        chi = infidelity(QuasiStatic(sigma), rf)
        pulse = PulseSpec.bsb_pi(ETA, RABI)
        n_traj = 2000
        rng = np.random.default_rng(17)
        trap_series = rng.normal(0.0, sigma, size=(n_traj, 1))  # constant H: 1 exact step
        state = prepare_state(ElectronicLevel.DOWN, 0, n_max=4)
        # the two-level model the response describes
        out = two_level_evolve(
            state.amps.reshape(1, -1, 1), pulse, ETA,
            trap_series, np.zeros_like(trap_series), np.ones_like(trap_series), pulse.duration,
        )
        infid = 1.0 - np.abs(out[:, 5 + 1, 0]) ** 2
        se = infid.std(ddof=1) / np.sqrt(n_traj)
        assert abs(infid.mean() - chi) <= 3 * se


class TestPsdCsv:
    def test_loads_two_column_csv_with_header(self, tmp_path):
        from tweezersim.dynamics import load_psd_csv

        path = tmp_path / "psd.csv"
        path.write_text("frequency_hz,value\n# comment row\n10.0,1.5\n100.0,2.5\n1e3,0.5\n")
        psd = load_psd_csv(str(path))
        np.testing.assert_array_equal(psd.frequencies_hz, [10.0, 100.0, 1e3])
        np.testing.assert_array_equal(psd.values, [1.5, 2.5, 0.5])

    def test_phase_convention_applies_f_squared_weight(self, tmp_path):
        from tweezersim.dynamics import load_psd_csv

        path = tmp_path / "psd.csv"
        path.write_text("10.0 1.0\n100.0 1.0\n")
        psd = load_psd_csv(str(path), convention="phase")
        np.testing.assert_allclose(
            psd.values, (2 * np.pi * np.array([10.0, 100.0])) ** 2
        )

    def test_rejects_empty_file(self, tmp_path):
        from tweezersim.dynamics import load_psd_csv

        path = tmp_path / "bad.csv"
        path.write_text("only,a,header\n")
        with pytest.raises(ValidationError):
            load_psd_csv(str(path))

    def test_skips_blank_and_comment_lines_anywhere(self, tmp_path):
        from tweezersim.dynamics import load_psd_csv

        path = tmp_path / "psd.csv"
        path.write_text("\n# f, S\nf (Hz), S\n10,1.5\n\n  # mid comment\n20 , 2.5\n\n")
        psd = load_psd_csv(str(path))
        np.testing.assert_array_equal(psd.frequencies_hz, [10.0, 20.0])
        np.testing.assert_array_equal(psd.values, [1.5, 2.5])

    @pytest.mark.parametrize("text, line", [
        ("0,2000\n2500,2O00\n5000,2000\n", 2),  # a letter O among the data rows
        ("f,S\n0,2O00\n2500,2000\n5000,2000\n", 2),  # in the first row, after a header
        ("0,2000\nf,S\n5000,2000\n", 2),  # a header line after the first row
        ("0,2000\n2500\n5000,2000\n", 2),  # one field
        ("0,2000\n2500,2000,1\n5000,2000\n", 2),  # three fields
        ("0,2000\n\n# ok\n5000,2000\n7000;2000\n", 5),
    ], ids=["letter", "first-row", "late-header", "one-field", "three-fields", "semicolon"])
    def test_rejects_a_line_that_is_not_two_numbers(self, tmp_path, text, line):
        from tweezersim.dynamics import load_psd_csv

        path = tmp_path / "psd.csv"
        path.write_text(text)
        with pytest.raises(ValidationError, match=f"^line {line} is not two numbers"):
            load_psd_csv(str(path))


class TestKernelsBackend:
    def test_batch_matches_sequential(self):
        pulse = PulseSpec.bsb_pi(ETA, RABI)
        model = NoiseModel(trap_frequency=QuasiStatic(0.05 * ETA * RABI))
        state = prepare_state(ElectronicLevel.DOWN, 0, n_max=4)
        n_traj = 8
        reals = [sample_noise(model, pulse.duration, pulse.duration / 50, seed=s) for s in range(n_traj)]
        batch = evolve_batch(
            state,
            pulse,
            TRAP,
            np.stack([r.trap_frequency for r in reals]),
            np.stack([r.laser_frequency for r in reals]),
            np.stack([1.0 + r.laser_amplitude / RABI for r in reals]),
            dt=pulse.duration / 50,
        )
        for i, r in enumerate(reals):
            seq = evolve_one(state, pulse, TRAP, r)
            np.testing.assert_allclose(batch[i], seq.reshape(-1), atol=1e-12)


class TestEvolveBatchGuards:
    """evolve_batch trips the step-size, truncation and norm guards."""

    @staticmethod
    def _batch(state, pulse, trap_rows):
        zeros = np.zeros_like(trap_rows)
        return evolve_batch(
            state, pulse, TRAP, trap_rows, zeros, np.ones_like(zeros), pulse.duration / trap_rows.shape[1]
        )

    def test_step_size_guard(self):
        pulse = PulseSpec.bsb_pi(ETA, RABI)
        trap_rows = np.zeros((3, 2))
        trap_rows[1] = 1e7  # one coarse trajectory is enough
        with pytest.raises(StepSizeError):
            self._batch(prepare_state(ElectronicLevel.DOWN, 0, n_max=4), pulse, trap_rows)

    def test_truncation_edge_guard(self):
        pulse = PulseSpec.bsb_pi(ETA, RABI)
        with pytest.raises(TruncationError):
            self._batch(prepare_state(ElectronicLevel.DOWN, 4, n_max=4), pulse, np.zeros((3, 100)))

    def test_top_level_leak_guard(self):
        # (down, 3) -> (up, 4): a blue-sideband pi pulse fills the top level
        pulse = PulseSpec(PulseKind.BLUE_SIDEBAND, rabi=RABI, duration=np.pi / sideband_rabi(3, 4, ETA, RABI))
        state = prepare_state(ElectronicLevel.DOWN, 3, n_max=4)
        with pytest.raises(TruncationError, match="top Fock level"):
            evolve_one(state, pulse, TRAP)
        with pytest.raises(TruncationError, match="top Fock level"):
            self._batch(state, pulse, np.zeros((3, 100)))

    @pytest.mark.parametrize("scale", [1.001, np.nan])
    def test_norm_drift_guard(self, monkeypatch, scale):
        # a kernel that scales every amplitude (or overflows to NaN) trips
        # the output norm check of evolve_batch and of evolve_rows, quiet
        # or noisy
        real = kernels.evolve_blocks_batch

        def leaky(*args):
            out = real(*args)
            out *= scale  # in place: out is the caller's buffer
            return out

        monkeypatch.setattr(kernels, "evolve_blocks_batch", leaky)
        pulse = PulseSpec.bsb_pi(ETA, RABI)
        state = prepare_state(ElectronicLevel.DOWN, 0, n_max=4)
        with pytest.raises(NumericsError, match="norm drift"):
            self._batch(state, pulse, np.zeros((3, 100)))
        rows = state.amps.reshape(1, -1, 1)
        with pytest.raises(NumericsError, match="norm drift"):
            evolve_rows(rows, pulse, TRAP)
        model = NoiseModel(trap_frequency=QuasiStatic(2 * np.pi * 175.0))
        with pytest.raises(NumericsError, match="norm drift"):
            evolve_rows(rows, pulse, TRAP, model, 100, np.random.default_rng(1))


class TestEvolveRows:
    """evolve_rows: one state per row, each row guarded on its own."""

    N_MAX = 4

    def _rows(self, *states):
        # (rows, dim, 2): each data state beside a spectator ancilla level
        rows = np.zeros((len(states), 2 * (self.N_MAX + 1), 2), dtype=complex)
        for k, (state, anc) in enumerate(states):
            rows[k, :, anc] = state.amps.reshape(-1)
        return rows

    def test_matches_evolve_per_row(self):
        pulse = PulseSpec.bsb_pi(ETA, RABI)
        model = NoiseModel(trap_frequency=QuasiStatic(2 * np.pi * 175.0))
        states = [prepare_state(np.array([0.6, 0.8j]), n, n_max=self.N_MAX) for n in (0, 1, 2)]
        rows = self._rows(*zip(states, (0, 1, 0)))
        out = evolve_rows(rows, pulse, TRAP, model, 200, np.random.default_rng(5))
        rng = np.random.default_rng(5)
        for k, (state, anc) in enumerate(zip(states, (0, 1, 0))):
            r = sample_noise(model, pulse.duration, pulse.duration / 200, rng)
            ref = evolve_one(state, pulse, TRAP, r).reshape(-1)
            np.testing.assert_allclose(out[k, :, anc], ref, atol=1e-12)
            assert np.all(out[k, :, 1 - anc] == 0)
        quiet = evolve_rows(rows, pulse, TRAP)
        for k, state in enumerate(states):
            ref = evolve_one(state, pulse, TRAP).reshape(-1)
            np.testing.assert_allclose(quiet[k].sum(axis=1), ref, atol=1e-12)

    @pytest.mark.parametrize("noisy", [False, True])
    def test_truncation_edge_guard_per_row(self, noisy):
        pulse = PulseSpec.bsb_pi(ETA, RABI)
        model = NoiseModel(trap_frequency=QuasiStatic(1.0)) if noisy else None
        ok = prepare_state(ElectronicLevel.DOWN, 0, n_max=self.N_MAX)
        edge = prepare_state(ElectronicLevel.DOWN, self.N_MAX, n_max=self.N_MAX)
        evolve_rows(self._rows((ok, 0), (ok, 1)), pulse, TRAP, model, 100, np.random.default_rng(1))
        with pytest.raises(TruncationError):
            evolve_rows(self._rows((ok, 0), (edge, 1)), pulse, TRAP, model, 100,
                        np.random.default_rng(1))

    def test_step_size_guard(self):
        # a PSD channel keeps H time-dependent, so the steps are
        # piecewise-constant and the bound applies (two steps of 0.35 ms
        # are fine enough for 100 Hz noise, far too coarse for the drive)
        pulse = PulseSpec.bsb_pi(ETA, RABI)
        ok = prepare_state(ElectronicLevel.DOWN, 0, n_max=self.N_MAX)
        low_band = SpectralDensity(np.array([0.0, 100.0]), np.array([1.0, 1.0]))
        with pytest.raises(StepSizeError):
            evolve_rows(self._rows((ok, 0)), pulse, TRAP, NoiseModel(laser_frequency=low_band),
                        2, np.random.default_rng(1))

    def test_constant_h_is_exact_at_any_step_count(self):
        # quasi-static channels only: one exact step per row whatever
        # `steps` says, with one draw per channel and row in row order
        pulse = PulseSpec(PulseKind.BLUE_SIDEBAND, rabi=RABI, duration=T_PI,
                          detuning=0.1 * ETA * RABI, phase=0.4)
        model = NoiseModel(
            trap_frequency=QuasiStatic(2 * np.pi * 175.0),
            laser_frequency=QuasiStatic(2 * np.pi * 300.0),
            laser_amplitude=QuasiStatic(0.05 * RABI),
        )
        states = [prepare_state(np.array([0.6, 0.8j]), n, n_max=self.N_MAX) for n in (0, 1, 2, 1)]
        rows = self._rows(*zip(states, (0, 1, 0, 1)))
        ref_rng = np.random.default_rng(17)
        want = []
        for row in rows:
            r = sample_noise(model, pulse.duration, pulse.duration, ref_rng)
            h = build_hamiltonian(pulse, TRAP, r, 0.0, n_max=self.N_MAX)
            want.append(expm(-1j * pulse.duration * h) @ row)
        states_after = []
        for steps in (1, 3, 2000):
            rng = np.random.default_rng(17)
            out = evolve_rows(rows, pulse, TRAP, model, steps, rng)
            np.testing.assert_allclose(out, np.stack(want), rtol=0, atol=1e-12)
            states_after.append(rng.bit_generator.state)
        assert states_after[0] == states_after[1] == states_after[2] == ref_rng.bit_generator.state

    def test_psd_rows_across_chunks_match_evolve_per_row(self, monkeypatch):
        # a PSD channel keeps `steps` steps; the rows run a kernel chunk
        # at a time, each from its own initial state
        pulse = PulseSpec.bsb_pi(ETA, RABI)
        model = NoiseModel(
            trap_frequency=QuasiStatic(2 * np.pi * 175.0),
            laser_frequency=SpectralDensity(np.array([0.0, 2e3]), np.array([2e3, 2e3])),
        )
        steps = 400
        chunk = kernels._CHUNK_ELEMENTS // (steps * self.N_MAX)  # N_MAX blue-sideband pairs
        rng = np.random.default_rng(3)
        states = [
            prepare_state(np.exp(1j * rng.uniform(0, 2 * np.pi, 2)) * [0.6, 0.8], rng.integers(0, 3),
                          n_max=self.N_MAX)
            for _ in range(2 * chunk + 5)
        ]
        anc = rng.integers(0, 2, len(states))
        calls = []

        def counted(model, duration, dt, rows, rng):
            calls.append(rows)
            return sample_noise_rows(model, duration, dt, rows, rng)

        monkeypatch.setattr(dynamics, "sample_noise_rows", counted)
        rng_after = np.random.default_rng(4)
        out = evolve_rows(self._rows(*zip(states, anc)), pulse, TRAP, model, steps, rng_after)
        monkeypatch.undo()
        assert calls == [chunk, chunk, 5]  # one draw of a chunk's rows per kernel call
        ref_rng = np.random.default_rng(4)
        for k, state in enumerate(states):
            r = sample_noise(model, pulse.duration, pulse.duration / steps, ref_rng)
            ref = evolve_one(state, pulse, TRAP, r).reshape(-1)
            np.testing.assert_allclose(out[k, :, anc[k]], ref, rtol=0, atol=1e-12)
            assert np.all(out[k, :, 1 - anc[k]] == 0)
        assert rng_after.bit_generator.state == ref_rng.bit_generator.state

    # segment sizes, then the expected noise pieces and kernel row counts,
    # as functions of the kernel chunk c
    @pytest.mark.parametrize("sizes, pieces, kernel_rows", [
        (lambda c: (c + 3, 2), lambda c: [c, 3, 2], lambda c: [c, 5]),
        # an empty segment (an absent job's) draws nothing
        (lambda c: (c + 3, 0, 2), lambda c: [c, 3, 2], lambda c: [c, 5]),
        (lambda c: (2, 2 * c + 1, 3), lambda c: [2, c, c, 1, 3], lambda c: [2, c, c, 4]),
    ], ids=["two-segments", "empty-segment", "long-segment-split"])
    def test_rows_of_several_generators_match_their_own_runs(self, monkeypatch, sizes, pieces, kernel_rows):
        # each segment of a Streams draws its rows' noise from its own
        # Generator in the pieces it would alone (a synthesis product's
        # bits depend on its row count); a kernel chunk packs whole pieces
        pulse = PulseSpec.bsb_pi(ETA, RABI)
        model = NoiseModel(
            trap_frequency=QuasiStatic(2 * np.pi * 175.0),
            laser_frequency=SpectralDensity(np.array([0.0, 2e3]), np.array([2e3, 2e3])),
        )
        steps = 400
        chunk = kernels._CHUNK_ELEMENTS // (steps * self.N_MAX)  # N_MAX blue-sideband pairs
        sizes = sizes(chunk)
        stops = np.cumsum(sizes).tolist()
        rng = np.random.default_rng(8)
        states = [prepare_state(np.exp(1j * rng.uniform(0, 2 * np.pi, 2)) * [0.6, 0.8], rng.integers(0, 3),
                                n_max=self.N_MAX) for _ in range(stops[-1])]
        rows = self._rows(*zip(states, rng.integers(0, 2, len(states))))
        calls, run_rows = [], []

        def counted(model, duration, dt, n, rng):
            calls.append(n)
            return sample_noise_rows(model, duration, dt, n, rng)

        run_kernel = dynamics._run_kernel
        monkeypatch.setattr(dynamics, "sample_noise_rows", counted)
        monkeypatch.setattr(dynamics, "_run_kernel",
                            lambda amps, *args: run_rows.append(amps.shape[0]) or run_kernel(amps, *args))
        gens = [np.random.default_rng(s) for s in range(len(sizes))]
        out = evolve_rows(rows, pulse, TRAP, model, steps, Streams(gens, stops))
        assert calls == pieces(chunk) and run_rows == kernel_rows(chunk)
        refs = [np.random.default_rng(s) for s in range(len(sizes))]
        calls.clear()
        want = np.concatenate([evolve_rows(rows[a:b], pulse, TRAP, model, steps, g)
                               for g, a, b in zip(refs, [0] + stops, stops)])
        monkeypatch.undo()
        assert calls == pieces(chunk)  # one evolve_rows call per segment draws the same pieces
        assert out.tobytes() == want.tobytes()
        assert [g.bit_generator.state for g in gens] == [g.bit_generator.state for g in refs]

    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize(
        "kind", [PulseKind.CARRIER, PulseKind.RED_SIDEBAND, PulseKind.BLUE_SIDEBAND, PulseKind.FREE]
    )
    def test_noiseless_rows_match_dense_propagator(self, kind, k):
        # noise None and a model with no channel both run the kernel on
        # zero series in one exact step per row, draw nothing, and agree
        # with the dense oracle's product with the rows
        pulse = PulseSpec(kind, rabi=RABI, duration=0.7 * T_PI, detuning=0.2 * ETA * RABI, phase=0.3)
        rng = np.random.default_rng(23)
        shape = (7, 2, self.N_MAX + 1, k)
        rows = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        rows[:, :, self.N_MAX - 1:] = 0.0  # nothing reaches the truncation edge
        rows = rows.reshape(7, -1, k) / np.linalg.norm(rows.reshape(7, -1), axis=1)[:, None, None]
        before = rng.bit_generator.state
        quiet = evolve_rows(rows, pulse, TRAP, None, rng=rng)
        empty = evolve_rows(rows, pulse, TRAP, NoiseModel(), rng=rng)
        assert rng.bit_generator.state == before
        zeros = np.zeros((7, 1))
        per_row = dynamics._run_kernel(rows, pulse, TRAP, zeros, zeros, zeros + 1.0,
                                       pulse.duration, self.N_MAX, np.zeros(7, int))
        np.testing.assert_array_equal(quiet, per_row)
        np.testing.assert_array_equal(empty, quiet)
        dense = propagator(pulse, TRAP, None, self.N_MAX) @ rows
        np.testing.assert_allclose(quiet, dense, rtol=0, atol=1e-14)

    def test_rejects_unnormalized_row(self):
        pulse = PulseSpec.bsb_pi(ETA, RABI)
        rows = self._rows((prepare_state(ElectronicLevel.DOWN, 0, n_max=self.N_MAX), 0))
        with pytest.raises(ValidationError):
            evolve_rows(2 * rows, pulse, TRAP)


class TestEvolveRowsWindow:
    """evolve_rows on per-row Fock windows equals the full-ladder run of
    the same rows, scattered into the ladder and gathered back."""

    N_MAX = 4

    @staticmethod
    def _allowed(kind, w, n0, n_max):
        """(2, W) mask of the window slots a test state may populate: no
        slot whose drive partner n +- 1 >= 0 lies outside the window, and
        none the pulse would empty into the top Fock level from below."""
        shift = {PulseKind.BLUE_SIDEBAND: 1, PulseKind.RED_SIDEBAND: -1}.get(kind, 0)
        slot = np.arange(w)
        partner = slot + np.array([[shift], [-shift]])
        inside = ((partner >= 0) & (partner < w)) | (n0 + partner < 0)
        return inside & ((n0 + partner < n_max) | (n0 + slot == n_max))

    def _windows(self, kind, w, k, rng):
        """Two normalized random rows (2 W, k) per base n0 = 0..n_max + 1 - W."""
        n0 = np.repeat(np.arange(self.N_MAX + 2 - w), 2)
        rows = rng.normal(size=(n0.size, 2, w, k)) + 1j * rng.normal(size=(n0.size, 2, w, k))
        for r, base in enumerate(n0):
            rows[r] *= self._allowed(kind, w, base, self.N_MAX)[..., None]
        rows = rows.reshape(n0.size, -1, k)
        return rows / np.linalg.norm(rows, axis=(1, 2))[:, None, None], n0

    def _scatter(self, rows, n0):
        w, k = rows.shape[1] // 2, rows.shape[2]
        ladder = np.zeros((rows.shape[0], 2, self.N_MAX + 1, k), dtype=complex)
        for r, base in enumerate(n0):
            ladder[r, :, base:base + w] = rows[r].reshape(2, w, k)
        return ladder

    @pytest.mark.parametrize("noisy", [False, True])
    @pytest.mark.parametrize("w", [2, 3])
    @pytest.mark.parametrize(
        "kind", [PulseKind.CARRIER, PulseKind.RED_SIDEBAND, PulseKind.BLUE_SIDEBAND, PulseKind.FREE]
    )
    def test_matches_scattered_ladder_run(self, kind, w, noisy):
        pulse = PulseSpec(kind, rabi=RABI, duration=0.7 * T_PI, detuning=0.2 * ETA * RABI, phase=0.3)
        model = NoiseModel(
            trap_frequency=QuasiStatic(2 * np.pi * 175.0),
            laser_frequency=QuasiStatic(2 * np.pi * 300.0),
            laser_amplitude=QuasiStatic(0.05 * RABI),
        ) if noisy else None
        rows, n0 = self._windows(kind, w, 2, np.random.default_rng(31))
        ladder = self._scatter(rows, n0)
        rng_window, rng_ladder = np.random.default_rng(8), np.random.default_rng(8)
        got = evolve_rows(rows, pulse, TRAP, model, 100, rng_window, n0, self.N_MAX)
        want = evolve_rows(ladder.reshape(rows.shape[0], -1, 2), pulse, TRAP, model, 100, rng_ladder)
        want = want.reshape(ladder.shape)
        assert rng_window.bit_generator.state == rng_ladder.bit_generator.state
        np.testing.assert_allclose(self._scatter(got, n0), want, rtol=0, atol=1e-12)

    def test_window_edge_guard(self):
        # a blue sideband couples (up, n0) to (down, n0 - 1), outside a
        # window with n0 > 0; at n0 = 0 that partner does not exist
        pulse = PulseSpec.bsb_pi(ETA, RABI)
        rows = np.zeros((2, 6, 1), dtype=complex)
        rows[:, 3] = 1.0  # (up, slot 0)
        evolve_rows(rows, pulse, TRAP, n0=np.array([0, 0]), n_max=self.N_MAX)
        with pytest.raises(TruncationError):
            evolve_rows(rows, pulse, TRAP, n0=np.array([0, 1]), n_max=self.N_MAX)

    def test_window_at_n_max_trips_top_level_leak(self):
        # (down, n_max - 1) -> (up, n_max) in the window that ends at n_max
        pulse = PulseSpec(PulseKind.BLUE_SIDEBAND, rabi=RABI,
                          duration=np.pi / sideband_rabi(self.N_MAX - 1, self.N_MAX, ETA, RABI))
        rows = np.zeros((1, 4, 1), dtype=complex)
        rows[0, 0] = 1.0  # (down, slot 0)
        evolve_rows(rows, pulse, TRAP, n0=np.array([self.N_MAX - 2]), n_max=self.N_MAX)
        with pytest.raises(TruncationError, match="top Fock level"):
            evolve_rows(rows, pulse, TRAP, n0=np.array([self.N_MAX - 1]), n_max=self.N_MAX)

    @pytest.mark.parametrize("n0, n_max", [(-1, N_MAX), (N_MAX, N_MAX), (0, None)])
    def test_rejects_window_outside_ladder(self, n0, n_max):
        rows = np.zeros((1, 4, 1), dtype=complex)
        rows[0, 0] = 1.0
        with pytest.raises(ValidationError):
            evolve_rows(rows, PulseSpec.bsb_pi(ETA, RABI), TRAP, n0=np.array([n0]), n_max=n_max)
