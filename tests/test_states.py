import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tweezersim import states
from tweezersim.errors import TruncationError, ValidationError
from tweezersim.states import (
    ElectronicLevel,
    HybridAtomState,
    ThermalSpec,
    TrapSpec,
    lamb_dicke,
    prepare_state,
    remove_one_quantum,
    thermal_distribution,
)


class TestThermalDistribution:
    def test_zero_temperature(self):
        p = thermal_distribution(ThermalSpec(nbar=0.0, n_max=10))
        assert p[0] == 1.0
        assert np.all(p[1:] == 0.0)

    def test_nbar_one_matches_geometric_populations(self):
        # q = 0.5: p0 = 1 - q, p1 = q - q^2, p2 = q^2 - q^3 before truncation
        p = thermal_distribution(ThermalSpec(nbar=1.0, n_max=60))
        assert p[0] == pytest.approx(0.5, abs=1e-12)
        assert p[1] == pytest.approx(0.25, abs=1e-12)
        assert p[2] == pytest.approx(0.125, abs=1e-12)

    def test_cold_ground_state_population(self):
        # independent oracle: renormalize the raw geometric sequence by its sum
        spec = ThermalSpec(nbar=0.002, n_max=12)
        q = 0.002 / 1.002
        raw = (1 - q) * q ** np.arange(13)
        oracle = raw / raw.sum()
        p = thermal_distribution(spec)
        np.testing.assert_allclose(p, oracle, rtol=0, atol=1e-15)
        assert p[0] == pytest.approx(0.998004, abs=1e-6)

    def test_truncated_mass_before_renormalization(self):
        spec = ThermalSpec(nbar=2.0, n_max=8)
        q = spec.q
        raw_sum = np.sum((1 - q) * q ** np.arange(9))
        assert raw_sum == pytest.approx(1 - q**9, abs=1e-12)

    @pytest.mark.parametrize("nbar", [0.0, 0.01, 0.5, 1.0, 3.0])
    def test_normalized_and_nonnegative(self, nbar):
        p = thermal_distribution(ThermalSpec(nbar=nbar, n_max=12))
        assert np.all(p >= 0)
        assert p.sum() == pytest.approx(1.0, abs=1e-12)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValidationError):
            ThermalSpec(nbar=-0.1, n_max=12)
        with pytest.raises(ValidationError):
            ThermalSpec(nbar=0.5, n_max=1)


class TestRemoveOneQuantum:
    def test_ground_state_unaffected(self):
        np.testing.assert_array_equal(remove_one_quantum([1.0, 0.0, 0.0]), [1.0, 0.0, 0.0])

    def test_pure_n2_shifts_down(self):
        np.testing.assert_array_equal(remove_one_quantum([0.0, 0.0, 1.0]), [0.0, 1.0, 0.0])

    def test_boltzmann_ground_state_gain(self):
        p = thermal_distribution(ThermalSpec(nbar=1.0, n_max=40))
        assert remove_one_quantum(p)[0] == pytest.approx(0.75, abs=1e-10)

    @pytest.mark.parametrize("q", np.linspace(0.0, 0.95, 12))
    def test_boltzmann_identity(self, q):
        # p'_n = q^(n+1) - q^(n+2) for n >= 1 and p'_0 = 1 - q^2;
        # the ladder is deep enough that the truncated tail is < 1e-15
        n_max = 800
        nbar = q / (1 - q) if q < 1 else np.inf
        p = thermal_distribution(ThermalSpec(nbar=nbar, n_max=n_max))
        out = remove_one_quantum(p)
        assert out[0] == pytest.approx(1 - q**2, abs=1e-12)
        assert out[1] == pytest.approx(q**2 - q**3, abs=1e-12)
        assert out[2] == pytest.approx(q**3 - q**4, abs=1e-12)

    @given(st.lists(st.floats(0.0, 1.0), min_size=2, max_size=30))
    @settings(max_examples=60, deadline=None)
    def test_preserves_total_probability(self, weights):
        total = sum(weights)
        if total <= 0:
            return
        dist = np.array(weights) / total
        out = remove_one_quantum(dist)
        assert out.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(out >= 0)

    def test_idempotent_only_on_ground_state(self):
        ground = np.zeros(6)
        ground[0] = 1.0
        np.testing.assert_array_equal(remove_one_quantum(ground), ground)
        mixed = np.array([0.5, 0.3, 0.2, 0.0])
        once = remove_one_quantum(mixed)
        assert not np.allclose(remove_one_quantum(once), once)

    def test_rejects_invalid_distributions(self):
        with pytest.raises(ValidationError):
            remove_one_quantum([0.5, 0.2])
        with pytest.raises(ValidationError):
            remove_one_quantum([1.2, -0.2])


class TestLambDicke:
    def test_reference_parameters(self):
        # 698 nm drive, mass 88 amu, 35 kHz trap: eta ~ 0.365
        from scipy.constants import atomic_mass

        eta = lamb_dicke(2 * np.pi / 698e-9, 88 * atomic_mass, 2 * np.pi * 35e3)
        assert eta == pytest.approx(0.3646344410704686, rel=1e-12)
        assert eta == pytest.approx(0.365, abs=1e-3)

    def test_quarter_at_quadruple_trap_frequency(self):
        eta1 = lamb_dicke(1e7, 1e-25, 2 * np.pi * 40e3)
        eta2 = lamb_dicke(1e7, 1e-25, 4 * 2 * np.pi * 40e3)
        assert eta2 == pytest.approx(eta1 / 2, rel=1e-12)

    def test_zero_wavenumber(self):
        assert lamb_dicke(0.0, 1e-25, 1e5) == 0.0

    def test_hbar_is_bit_identical_to_scipy_constants(self):
        from scipy.constants import hbar

        assert states.hbar == hbar

    @given(
        st.floats(1e5, 1e8),
        st.floats(1e-26, 1e-24),
        st.floats(1e4, 1e7),
        st.floats(1.1, 4.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_monotonicity(self, k, mass, omega, factor):
        base = lamb_dicke(k, mass, omega)
        assert lamb_dicke(k * factor, mass, omega) == pytest.approx(base * factor, rel=1e-9)
        assert lamb_dicke(k, mass * factor, omega) < base
        assert lamb_dicke(k, mass, omega * factor) < base

    def test_rejects_nonpositive(self):
        with pytest.raises(ValidationError):
            lamb_dicke(1e7, -1e-25, 1e5)
        with pytest.raises(ValidationError):
            lamb_dicke(1e7, 1e-25, 0.0)


class TestTrapSpec:
    def test_eta_derived(self):
        spec = TrapSpec(omega_t=2 * np.pi * 35e3, mass=88 * 1.66053906892e-27, k=2 * np.pi / 698e-9)
        assert spec.eta == pytest.approx(
            lamb_dicke(spec.k, spec.mass, spec.omega_t), rel=1e-12
        )

    def test_eta_supplied_wins(self):
        spec = TrapSpec(omega_t=1e5, mass=1e-25, k=1e7, eta=0.36)
        assert spec.eta == 0.36


class TestPrepareState:
    def test_pure_fock(self):
        s = prepare_state(ElectronicLevel.DOWN, 0, n_max=6)
        assert s.amps[0, 0] == 1.0
        assert np.sum(np.abs(s.amps[ElectronicLevel.DOWN]) ** 2) == pytest.approx(1.0)

    def test_plus_state(self):
        s = prepare_state(np.array([1, 1]) / np.sqrt(2), 0, n_max=6)
        assert s.amps[0, 0] == pytest.approx(1 / np.sqrt(2))
        assert s.amps[1, 0] == pytest.approx(1 / np.sqrt(2))
        assert np.sum(np.abs(s.amps) ** 2) == pytest.approx(1.0, abs=1e-12)

    def test_truncation_and_validation_errors(self):
        with pytest.raises(TruncationError):
            prepare_state(ElectronicLevel.DOWN, 13, n_max=12)
        with pytest.raises(ValidationError):
            prepare_state(np.array([1.0, 1.0]), 0)  # unnormalized


class TestHybridAtomState:
    def test_norm_invariant_enforced(self):
        amps = np.zeros((2, 5), dtype=complex)
        amps[0, 0] = 0.5
        with pytest.raises(ValidationError):
            HybridAtomState(amps)

    def test_motional_distribution(self):
        # marginal over the electronic level of a product state
        s = prepare_state(np.array([1, 1j]) / np.sqrt(2), np.array([1, 1]) / np.sqrt(2), n_max=4)
        np.testing.assert_allclose(np.sum(np.abs(s.amps) ** 2, axis=0), [0.5, 0.5, 0, 0, 0], atol=1e-12)
