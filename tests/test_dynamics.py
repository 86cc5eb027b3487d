import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from tweezersim.dynamics import (
    NoiseModel,
    NoiseRealization,
    PulseKind,
    PulseSpec,
    QuasiStatic,
    SpectralDensity,
    build_hamiltonian,
    evolve,
    evolve_batch,
    evolve_rows,
    propagator,
    sample_noise,
    sideband_rabi,
    spectroscopy_pi_duration,
    _amp_factor,
    _run_kernel,
)
from tweezersim.errors import (
    StepSizeError,
    TruncationError,
    ValidationError,
)
from tweezersim.states import ElectronicLevel, HybridAtomState, TrapSpec, prepare_state

ETA = 0.36
RABI = 2 * np.pi * 2e3
TRAP = TrapSpec(omega_t=2 * np.pi * 35e3, mass=88 * 1.66053906892e-27, k=2 * np.pi / 698e-9, eta=ETA)
T_PI = np.pi / (ETA * RABI)


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
        r = NoiseRealization.zeros(pulse.duration)
        h = build_hamiltonian(pulse, TRAP, r, t=0.0, mode="two-level", n_max=4)
        m = 5
        g = 0  # (down, 0)
        e = m + 1  # (up, 1)
        # (rabi * eta / 2) * sigma_y on the pair
        assert h[e, g] == pytest.approx(1j * ETA * RABI / 2)
        assert h[g, e] == pytest.approx(-1j * ETA * RABI / 2)
        block = h[np.ix_([g, e], [g, e])]
        np.testing.assert_allclose(
            np.sort(np.linalg.eigvalsh(block)), [-ETA * RABI / 2, ETA * RABI / 2], rtol=1e-12
        )

    def test_free_pulse_without_noise_is_zero(self):
        pulse = PulseSpec(PulseKind.FREE, rabi=0.0, duration=1e-3)
        r = NoiseRealization.zeros(pulse.duration)
        h = build_hamiltonian(pulse, TRAP, r, t=0.0, n_max=4)
        assert np.all(h == 0)

    def test_constant_trap_noise_adds_excited_projector(self):
        pulse = PulseSpec.bsb_pi(ETA, RABI)
        c = 123.0
        r = NoiseRealization.zeros(pulse.duration)
        rn = NoiseRealization(
            dt=r.dt,
            trap_frequency=np.full(1, c),
            laser_frequency=np.zeros(1),
            laser_amplitude=np.zeros(1),
        )
        h0 = build_hamiltonian(pulse, TRAP, r, 0.0, mode="two-level", n_max=4)
        h1 = build_hamiltonian(pulse, TRAP, rn, 0.0, mode="two-level", n_max=4)
        m = 5
        diff = h1 - h0
        assert diff[m + 1, m + 1] == pytest.approx(c)  # (up, 1) gains c
        assert diff[0, 0] == 0.0  # (down, 0) untouched

    def test_hermitian(self):
        pulse = PulseSpec(PulseKind.CARRIER, rabi=RABI, duration=1e-4, detuning=500.0, phase=0.3)
        r = NoiseRealization.zeros(pulse.duration)
        h = build_hamiltonian(pulse, TRAP, r, 0.0, n_max=6)
        np.testing.assert_allclose(h, h.conj().T, atol=1e-12)


class TestEvolve:
    def test_noiseless_bsb_pi_two_level(self):
        state = prepare_state(ElectronicLevel.DOWN, 0, n_max=4)
        out = evolve(state, PulseSpec.bsb_pi(ETA, RABI), TRAP, mode="two-level")
        assert out.population(ElectronicLevel.UP, 1) == pytest.approx(1.0, abs=1e-9)
        # documented global phase: (down,0) -> +(up,1)
        assert out.amps[1, 1] == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("delta_frac", [-1.5, -0.4, 0.0, 0.3, 0.8, 2.0])
    @pytest.mark.parametrize("dur_frac", [0.31, 1.0, 2.7])
    def test_detuned_rabi_formula_two_level(self, delta_frac, dur_frac):
        w = ETA * RABI
        delta = delta_frac * w
        duration = dur_frac * T_PI
        pulse = PulseSpec(
            PulseKind.BLUE_SIDEBAND, rabi=RABI, duration=duration, detuning=delta
        )
        state = prepare_state(ElectronicLevel.DOWN, 0, n_max=4)
        out = evolve(state, pulse, TRAP, mode="two-level")
        w_eff = np.sqrt(w**2 + delta**2)
        expected = w**2 / w_eff**2 * np.sin(w_eff * duration / 2) ** 2
        assert out.population(ElectronicLevel.UP, 1) == pytest.approx(expected, abs=1e-8)

    def test_carrier_pi_pulse_laguerre_reduction(self):
        # pulse timed as pi for n=0 only partially transfers n=1 at eta=0.36
        x = ETA**2
        om0 = sideband_rabi(0, 0, ETA, RABI)
        duration = np.pi / om0
        pulse = PulseSpec(PulseKind.CARRIER, rabi=RABI, duration=duration)
        out0 = evolve(prepare_state(ElectronicLevel.DOWN, 0, n_max=6), pulse, TRAP)
        assert out0.population(ElectronicLevel.UP, 0) == pytest.approx(1.0, abs=1e-9)
        out1 = evolve(prepare_state(ElectronicLevel.DOWN, 1, n_max=6), pulse, TRAP)
        expected = np.sin((1 - x) * np.pi / 2) ** 2  # L_1(x)/L_0(x) = 1 - x
        assert out1.population(ElectronicLevel.UP, 1) == pytest.approx(expected, abs=1e-9)
        assert out1.population(ElectronicLevel.UP, 1) < 0.97

    def test_rsb_has_no_effect_on_ground_state(self):
        pulse = PulseSpec(
            PulseKind.RED_SIDEBAND, rabi=RABI, duration=np.pi / sideband_rabi(0, 1, ETA, RABI)
        )
        out = evolve(prepare_state(ElectronicLevel.DOWN, 0, n_max=6), pulse, TRAP)
        assert out.population(ElectronicLevel.DOWN, 0) == pytest.approx(1.0, abs=1e-12)

    def test_rsb_pi_removes_one_quantum(self):
        pulse = PulseSpec(
            PulseKind.RED_SIDEBAND, rabi=RABI, duration=np.pi / sideband_rabi(1, 0, ETA, RABI)
        )
        out = evolve(prepare_state(ElectronicLevel.DOWN, 1, n_max=6), pulse, TRAP)
        assert out.population(ElectronicLevel.UP, 0) == pytest.approx(1.0, abs=1e-9)

    def test_propagator_unitarity_with_noise(self):
        model = NoiseModel(
            trap_frequency=QuasiStatic(0.05 * ETA * RABI),
            laser_frequency=SpectralDensity(np.array([0.0, 5e3]), np.array([2e3, 2e3])),
        )
        r = sample_noise(model, T_PI, T_PI / 2000, seed=3)
        pulse = PulseSpec.bsb_pi(ETA, RABI)
        u = propagator(pulse, TRAP, r, mode="rwa-ladder", n_max=6)
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
        series = (r.trap_frequency, r.laser_frequency, _amp_factor(pulse, r), r.dt)
        for mode in ("rwa-ladder", "two-level"):
            u = propagator(pulse, TRAP, r, mode=mode, n_max=6)
            cols = np.column_stack(
                [
                    _run_kernel(basis, pulse, TRAP, *series, mode, 6, guards=False)
                    for basis in np.eye(14, dtype=np.complex128)
                ]
            )
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
        out = evolve(state, pulse, TRAP)
        assert out.norm_sq() == pytest.approx(1.0, abs=1e-10)

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
            evolve(prepare_state(ElectronicLevel.DOWN, 0, n_max=4), pulse, TRAP, r)

    def test_truncation_edge_guard(self):
        pulse = PulseSpec.bsb_pi(ETA, RABI)
        state = prepare_state(ElectronicLevel.DOWN, 4, n_max=4)
        with pytest.raises(TruncationError):
            evolve(state, pulse, TRAP)

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
        p1 = evolve(state, pulse, TRAP, realization(2000)).population(ElectronicLevel.UP, 1)
        p2 = evolve(state, pulse, TRAP, realization(4000)).population(ElectronicLevel.UP, 1)
        assert abs(p1 - p2) < 1e-8

    def test_rejects_lost_atom(self):
        from tweezersim.states import HybridAtomState

        with pytest.raises(ValidationError):
            evolve(HybridAtomState.absent(4), PulseSpec.bsb_pi(ETA, RABI), TRAP)

    def test_spectroscopy_pi_duration_saturates_transfer(self):
        dur = spectroscopy_pi_duration(ETA, RABI)
        pulse = PulseSpec(PulseKind.BLUE_SIDEBAND, rabi=RABI, duration=dur)
        out = evolve(prepare_state(ElectronicLevel.DOWN, 0, n_max=6), pulse, TRAP)
        assert out.population(ElectronicLevel.UP, 1) == pytest.approx(1.0, abs=1e-10)


class TestPerturbativeConsistency:
    def test_quasi_static_trap_noise_matches_sigma2_i0(self):
        # trajectory average under shot-constant trap noise at
        # sigma/(eta rabi) = 0.1 agrees with sigma^2 I(0) within 3 SE
        from tweezersim.dynamics import evolve_batch
        from tweezersim.response import ResponseQuery, infidelity, response_function

        sigma = 0.1 * ETA * RABI
        rf = response_function(ResponseQuery(ETA, RABI, np.array([0.0, 1.0])))
        chi = infidelity(QuasiStatic(sigma), rf)
        pulse = PulseSpec.bsb_pi(ETA, RABI)
        n_traj = 2000
        rng = np.random.default_rng(17)
        trap_series = rng.normal(0.0, sigma, size=(n_traj, 1))  # constant H: 1 exact step
        state = prepare_state(ElectronicLevel.DOWN, 0, n_max=4)
        out = evolve_batch(
            state, pulse, TRAP,
            trap_series, np.zeros_like(trap_series), np.ones_like(trap_series),
            dt=pulse.duration, mode="two-level",
        )
        infid = 1.0 - np.abs(out[:, 5 + 1]) ** 2
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
            mode="two-level",
        )
        for i, r in enumerate(reals):
            seq = evolve(state, pulse, TRAP, r, mode="two-level")
            np.testing.assert_allclose(batch[i], seq.amps.reshape(-1), atol=1e-12)


class TestEvolveBatchGuards:
    """evolve_batch trips the same guards as evolve."""

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

    def test_rejects_lost_atom(self):
        pulse = PulseSpec.bsb_pi(ETA, RABI)
        with pytest.raises(ValidationError):
            self._batch(HybridAtomState.absent(4), pulse, np.zeros((3, 100)))

    def test_top_level_leak_guard(self):
        # (down, 3) -> (up, 4): a blue-sideband pi pulse fills the top level
        pulse = PulseSpec(PulseKind.BLUE_SIDEBAND, rabi=RABI, duration=np.pi / sideband_rabi(3, 4, ETA, RABI))
        state = prepare_state(ElectronicLevel.DOWN, 3, n_max=4)
        with pytest.raises(TruncationError, match="top Fock level"):
            evolve(state, pulse, TRAP)
        with pytest.raises(TruncationError, match="top Fock level"):
            self._batch(state, pulse, np.zeros((3, 100)))


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
            ref = evolve(state, pulse, TRAP, r).amps.reshape(-1)
            np.testing.assert_allclose(out[k, :, anc], ref, atol=1e-12)
            assert np.all(out[k, :, 1 - anc] == 0)
        quiet = evolve_rows(rows, pulse, TRAP)
        for k, state in enumerate(states):
            ref = evolve(state, pulse, TRAP).amps.reshape(-1)
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
        pulse = PulseSpec.bsb_pi(ETA, RABI)
        ok = prepare_state(ElectronicLevel.DOWN, 0, n_max=self.N_MAX)
        with pytest.raises(StepSizeError):
            evolve_rows(self._rows((ok, 0)), pulse, TRAP, NoiseModel(trap_frequency=QuasiStatic(1.0)),
                        2, np.random.default_rng(1))

    def test_rejects_unnormalized_row(self):
        pulse = PulseSpec.bsb_pi(ETA, RABI)
        rows = self._rows((prepare_state(ElectronicLevel.DOWN, 0, n_max=self.N_MAX), 0))
        with pytest.raises(ValidationError):
            evolve_rows(2 * rows, pulse, TRAP)
