import itertools
from collections import Counter

import numpy as np
import pytest
from conftest import (
    clamped_measure_data,
    local_z,
    matrix_rotate,
    rotation_matrix,
    sequential_cnot_block,
    two_outcome_project_level,
)

from tweezersim.analysis import optimize_threshold, optimize_threshold_analytic
from tweezersim import gates
from tweezersim.errors import NumericsError, TruncationError, ValidationError
from tweezersim.gates import (
    GateErrorSpec,
    ImagingSpec,
    PairBatch,
    Streams,
    apply_cz,
    calibrate_imaging,
    cnot_block,
    expose_to_imaging,
    heating_jump,
    image_ancilla,
    lose,
    measure_data,
    project_level,
    rotate,
)

N_MAX = 4
M = N_MAX + 1
DOWN = np.array([1.0, 0.0])
UP = np.array([0.0, 1.0])
PLUS = np.array([1.0, 1.0]) / np.sqrt(2)


def _data(electronic, motional=0, shots=1):
    """Data amplitudes (shots, 2, M) of one product state (electronic x motional)."""
    if np.ndim(motional) == 0:
        motional = np.eye(M)[motional]
    return np.broadcast_to(np.outer(electronic, motional), (shots, 2, M))


def _batch(data=UP, anc=UP, shots=1, data_lost=False, anc_lost=False, motional=0, **kw):
    return PairBatch.prepare(
        _data(data, motional, shots), anc, data_lost=data_lost, anc_lost=anc_lost, **kw
    )


def _kron_state(data, anc):
    """Joint-space vector oracle, index (data_level, data_n, anc_level)."""
    return np.kron(np.asarray(data).reshape(-1), anc)


def _kron_cz():
    diag = np.ones((2, M, 2))
    diag[1, :, 1] = -1.0
    return np.diag(diag.reshape(-1))


def _random_rows(rng, shots, w=M):
    psi = rng.normal(size=(shots, 2, w, 2)) + 1j * rng.normal(size=(shots, 2, w, 2))
    return psi / np.linalg.norm(psi.reshape(shots, -1), axis=1)[:, None, None, None]


class TestRotations:
    def test_pi_flip(self):
        b = _batch(data=DOWN)
        rotate(b, "data", 0.0, np.pi)
        assert b.populations("data")[0, 1] == pytest.approx(1.0, abs=1e-12)

    def test_half_then_inverse_is_identity(self):
        b = _batch(data=np.array([0.6, 0.8]), motional=2)
        ref = b.psi.copy()
        rotate(b, "data", 0.0, np.pi / 2)
        rotate(b, "data", 0.0, -np.pi / 2)
        np.testing.assert_allclose(b.psi, ref, atol=1e-12)

    def test_unitary_any_axis(self):
        for theta, phi in [(0.3, 0.0), (np.pi / 2, 1.1), (2.2, 4.0)]:
            r = rotation_matrix(theta, phi)
            np.testing.assert_allclose(r @ r.conj().T, np.eye(2), atol=1e-14)
        thetas, phis = np.array([0.3, 2.2]), np.array([0.0, 4.0])
        stacked = rotation_matrix(thetas, phis)
        for k in range(2):
            np.testing.assert_array_equal(stacked[k], rotation_matrix(thetas[k], phis[k]))

    def test_virtual_z_composition_matches_matrix_oracle(self):
        # rotation sandwich with offset phases equals the 2x2 product oracle
        theta, phi1, phi2 = np.pi / 2, 0.4, 1.7
        oracle = rotation_matrix(theta, phi2) @ rotation_matrix(theta, phi1)
        b = _batch(data=DOWN)
        rotate(b, "data", phi1, theta)
        rotate(b, "data", phi2, theta)
        np.testing.assert_allclose(b.psi[0, :, 0, 1], oracle @ DOWN, atol=1e-12)

    def test_per_shot_phases_match_one_shot_at_a_time(self):
        phases = np.linspace(0.0, 2 * np.pi, 7)
        b = _batch(anc=PLUS, shots=phases.size)
        rotate(b, "anc", phases, np.pi / 3)
        for k, phi in enumerate(phases):
            one = _batch(anc=PLUS)
            rotate(one, "anc", phi, np.pi / 3)
            np.testing.assert_allclose(b.psi[k], one.psi[0], atol=1e-14)

    def test_shot_jitter_is_reused(self):
        errors = GateErrorSpec(sq_over_rotation_sigma=0.1)
        b1 = _batch(data=DOWN, shots=3, rng=np.random.default_rng(0), errors=errors)
        rotate(b1, "data", 0.0, np.pi)
        rotate(b1, "data", 0.0, np.pi)
        b2 = _batch(data=DOWN, shots=3)
        rotate(b2, "data", 0.0, 2 * (np.pi + b1.jitter))
        np.testing.assert_allclose(b1.psi, b2.psi, atol=1e-12)

    def test_lost_atom_untouched(self):
        b = _batch(data=DOWN, shots=2, data_lost=np.array([True, False]))
        rotate(b, "data", 0.0, np.pi)
        assert b.populations("data")[0, 0] == 1.0
        assert b.populations("data")[1, 1] == pytest.approx(1.0, abs=1e-12)

    def test_unknown_atom_rejected(self):
        with pytest.raises(ValidationError):
            rotate(_batch(), "both", 0.0, np.pi)


class TestLocalZ:
    def test_identity_at_zero(self):
        b = _batch(data=PLUS)
        ref = b.psi.copy()
        local_z(b, "data", 0.0)
        np.testing.assert_array_equal(b.psi, ref)

    def test_pi_flips_superposition_sign(self):
        b = _batch(data=PLUS, anc=DOWN)
        local_z(b, "data", np.pi)
        assert b.psi[0, 1, 0, 0] == pytest.approx(-1 / np.sqrt(2), abs=1e-12)
        assert b.psi[0, 0, 0, 0] == pytest.approx(1 / np.sqrt(2), abs=1e-12)

    def test_phase_additivity(self):
        b1 = _batch(data=np.array([0.6, 0.8j]), anc=PLUS, motional=1)
        b2 = _batch(data=np.array([0.6, 0.8j]), anc=PLUS, motional=1)
        for which in ("data", "anc"):
            local_z(b1, which, 0.7)
            local_z(b1, which, 1.1)
            local_z(b2, which, 1.8)
        np.testing.assert_allclose(b1.psi, b2.psi, atol=1e-12)


class TestCZ:
    @pytest.mark.parametrize(
        "levels,sign",
        [((DOWN, DOWN), 1), ((DOWN, UP), 1), ((UP, DOWN), 1), ((UP, UP), -1)],
    )
    def test_truth_table(self, levels, sign):
        b = _batch(*levels)
        ref = _kron_state(_data(levels[0]), levels[1])
        apply_cz(b)
        np.testing.assert_allclose(b.psi[0].reshape(-1), sign * ref, atol=1e-12)

    def test_entangling_matches_kron_oracle(self):
        anc = np.array([1, 1j]) / np.sqrt(2)
        b = _batch(data=np.array([0.6, 0.8]), anc=anc)
        oracle = _kron_cz() @ _kron_state(_data(np.array([0.6, 0.8])), anc)
        apply_cz(b)
        np.testing.assert_allclose(b.psi[0].reshape(-1), oracle, atol=1e-12)

    def test_entangled_rows_match_kron_oracle(self):
        # general joint states, one oracle product per row
        psi = _random_rows(np.random.default_rng(3), 6)
        b = PairBatch(psi.copy(), np.zeros(6, bool), np.zeros(6, bool))
        apply_cz(b)
        for k in range(6):
            np.testing.assert_allclose(b.psi[k].reshape(-1), _kron_cz() @ psi[k].reshape(-1), atol=1e-12)

    def test_certain_loss_parameter(self):
        errors = GateErrorSpec(cz_phase_error_prob=0.0, cz_loss_prob=1.0)
        b = _batch(shots=20, rng=np.random.default_rng(5), errors=errors)
        apply_cz(b)
        assert np.all(b.data_lost ^ b.anc_lost)
        assert b.events["cz_leakage_data"] + b.events["cz_leakage_anc"] == 20

    def test_vacuous_on_lost_atom(self):
        b = _batch(anc=PLUS, data_lost=True, rng=np.random.default_rng(0),
                   errors=GateErrorSpec(cz_phase_error_prob=0.0, cz_loss_prob=1.0))
        ref = b.psi.copy()
        apply_cz(b)
        np.testing.assert_array_equal(b.psi, ref)
        assert not b.anc_lost[0]
        assert b.events["cz_skipped"] == 1

    def test_z_error_branch_flags_event(self):
        errors = GateErrorSpec(cz_phase_error_prob=1.0, cz_loss_prob=0.0)
        b = _batch(shots=10, rng=np.random.default_rng(1), errors=errors)
        apply_cz(b)
        assert b.events["cz_z_error_data"] + b.events["cz_z_error_anc"] == 10


class TestCNOTSandwich:
    """CZ sandwiched by compensated pi/2 rotations, against a 4x4 oracle."""

    def _block(self, b, phi):
        sequential_cnot_block(b, phi)

    def test_phase_scan_sinusoid(self):
        phis = np.linspace(0, 2 * np.pi, 25)
        present = _batch(shots=phis.size)
        self._block(present, phis)
        absent = _batch(shots=phis.size, data_lost=True)
        self._block(absent, phis)
        np.testing.assert_allclose(present.populations("anc")[:, 0], np.sin(phis / 2) ** 2, atol=1e-10)
        np.testing.assert_allclose(absent.populations("anc")[:, 0], np.cos(phis / 2) ** 2, atol=1e-10)

    def test_oracle_4x4(self):
        # electronic-subspace matrix product for the data-present block
        phi = 1.3
        r = rotation_matrix(np.pi / 2, 0.0)
        r2 = rotation_matrix(np.pi / 2, phi)
        cz = np.diag([1.0, 1.0, 1.0, -1.0])  # (dd, du, ud, uu) ordering (data, anc)
        block = np.kron(np.eye(2), r2) @ cz @ np.kron(np.eye(2), r)
        out = block @ np.kron(UP, UP)
        b = _batch()
        self._block(b, phi)
        np.testing.assert_allclose(b.psi[0, :, 0, :].reshape(-1), out, atol=1e-10)

    def test_full_cnot_maps_basis_correctly(self):
        # calibrated phase pi: (data up, anc up) -> anc down; absent -> anc up
        b = _batch()
        self._block(b, np.pi)
        assert b.populations("anc")[0, 0] == pytest.approx(1.0, abs=1e-10)
        b = _batch(data_lost=True)
        self._block(b, np.pi)
        assert b.populations("anc")[0, 1] == pytest.approx(1.0, abs=1e-10)


def _mixed_batch(seed, errors, w=M, n_max=N_MAX, shots=60):
    """Entangled pairs, with lost data atoms and lost ancillas; a lost
    atom's axis holds a definite basis state. The data window holds w
    slots from n0 = 0, 1, ..., n_max - w + 1 in turn; the defaults are
    the full ladder."""
    rng = np.random.default_rng(seed)
    data_lost = np.arange(shots) % 5 == 1
    anc_lost = np.arange(shots) % 7 == 2
    data = np.eye(2 * w)[rng.integers(0, 2 * w, shots)].reshape(shots, 2, w).astype(complex)
    anc = np.eye(2)[rng.integers(0, 2, shots)].astype(complex)
    data[~data_lost] = _random_rows(rng, shots, w)[~data_lost, :, :, 0]
    anc[~anc_lost] = rng.normal(size=(shots, 2))[~anc_lost] + 1j
    psi = data[..., None] * anc[:, None, None, :]
    both = ~(data_lost | anc_lost)
    psi[both] = _random_rows(rng, shots, w)[both]
    psi /= np.linalg.norm(psi.reshape(shots, -1), axis=1)[:, None, None, None]
    jitter = None
    if errors is not None and not errors.per_gate_jitter:
        jitter = rng.normal(0.0, errors.sq_over_rotation_sigma, shots)
    return PairBatch(psi, data_lost, anc_lost, rng=np.random.default_rng(seed + 1),
                     errors=errors, jitter=jitter, n0=np.arange(shots) % (n_max - w + 2), n_max=n_max)


def _states(batch):
    """The state of every segment's Generator in the batch's Streams."""
    return [g.bit_generator.state for g in batch.rng.generators]


class TestCNOTBlock:
    """cnot_block against its four gates applied one by one."""

    @pytest.mark.parametrize("window", [(M, N_MAX), (1, N_MAX), (3, 7)],
                             ids=["ladder", "w1", "w3"])
    @pytest.mark.parametrize("comp", ["scalar", "per_shot"])
    @pytest.mark.parametrize("entangle", [True, False])
    @pytest.mark.parametrize("per_gate_jitter", [False, True])
    @pytest.mark.parametrize("probs", [None, (0.006, 0.002), (0.3, 0.2)],
                             ids=["ideal", "default", "forced"])
    def test_matches_sequential_gates(self, probs, per_gate_jitter, entangle, comp, window):
        # probs: (cz_phase_error_prob, cz_loss_prob), None for ideal gates;
        # window: (W, n_max) of the data's Fock window
        errors = None if probs is None else GateErrorSpec(*probs, per_gate_jitter=per_gate_jitter)
        for seed in (1, 2, 3):
            block, ref = _mixed_batch(seed, errors, *window), _mixed_batch(seed, errors, *window)
            phase = np.pi if comp == "scalar" else np.linspace(0, 2 * np.pi, block.size)
            cnot_block(block, phase, 0.7, entangle=entangle)
            sequential_cnot_block(ref, phase, 0.7, entangle=entangle)
            np.testing.assert_allclose(block.psi, ref.psi, rtol=0, atol=1e-12)
            np.testing.assert_array_equal(block.data_lost, ref.data_lost)
            np.testing.assert_array_equal(block.anc_lost, ref.anc_lost)
            np.testing.assert_array_equal(block.n0, ref.n0)
            assert block.events == ref.events
            assert _states(block) == _states(ref)
            if probs == (0.3, 0.2) and entangle:  # every error branch fired
                kinds = ("cz_leakage_data", "cz_leakage_anc", "cz_z_error_data", "cz_z_error_anc")
                assert all(block.events[k] for k in kinds)


def _zero_levels(batch, rows=8):
    """Give the first pairs with both atoms present an exact 0 in one
    level, in turn: the data's up level (so the top (level, n) columns
    of measure_data are empty), the data's down level, the ancilla's up
    level and the ancilla's down level."""
    for k, row in enumerate(np.flatnonzero(~(batch.data_lost | batch.anc_lost))[:rows]):
        psi = batch.psi[row]
        (psi[1], psi[0], psi[..., 1], psi[..., 0])[k % 4][...] = 0.0
        psi /= np.linalg.norm(psi)


class TestGateOracles:
    """rotate, project_level and measure_data against the matrix rotation
    and the two-outcome and clamped k-column draws that their one
    measurement rule replaced: psi bit for bit, the same outcomes and the
    same random stream after every call."""

    @pytest.mark.parametrize("window", [(1, N_MAX), (3, 7)], ids=["w1", "w3"])
    @pytest.mark.parametrize("phase", ["scalar", "per_shot"])
    @pytest.mark.parametrize("errors", [None, GateErrorSpec(), GateErrorSpec(per_gate_jitter=True)],
                             ids=["ideal", "shot_jitter", "per_gate_jitter"])
    def test_matches_matrix_and_draw_oracles(self, errors, phase, window):
        # window: (W, n_max); _mixed_batch places n0 = 0, 1, ... per shot
        for seed in (1, 2, 3):
            batch, ref = _mixed_batch(seed, errors, *window), _mixed_batch(seed, errors, *window)
            _zero_levels(batch)
            _zero_levels(ref)
            assert np.any(batch.n0 > 0) and batch.data_lost.any() and batch.anc_lost.any()
            phi = 0.4 if phase == "scalar" else np.linspace(0.0, 2 * np.pi, batch.size)
            calls = [
                (measure_data, clamped_measure_data, ()),
                (project_level, two_outcome_project_level, ("anc", ~batch.anc_lost)),
                (rotate, matrix_rotate, ("data", phi, np.pi / 2)),
                (rotate, matrix_rotate, ("anc", phi, 4.0)),  # cos(theta / 2) < 0
                (project_level, two_outcome_project_level, ("data", ~batch.data_lost)),
                (project_level, two_outcome_project_level, ("anc", np.ones(batch.size, bool))),
            ]
            for call, oracle, args in calls:
                got, want = call(batch, *args), oracle(ref, *args)
                if call is not rotate:
                    np.testing.assert_array_equal(got, want)
                assert batch.psi.tobytes() == ref.psi.tobytes()
                assert _states(batch) == _states(ref)


class TestImaging:
    SPEC = ImagingSpec(bright_mean=4.0, dark_mean=0.0, bright_loss_prob=0.0)

    def test_imaging_loss_matches_projection_then_lose(self):
        # a scattered ancilla is marked lost without a second projection of
        # its already projected level; the stream keeps that projection's draw
        spec = ImagingSpec(bright_mean=4.0, dark_mean=0.0, bright_loss_prob=0.5)
        for seed in (1, 2, 3):
            b, ref = _mixed_batch(seed, None), _mixed_batch(seed, None)
            signals, _ = image_ancilla(b, spec)
            present = ~ref.anc_lost
            bright = present & (project_level(ref, "anc", present) == 0)
            gone = bright & (ref.rng.random(ref.size) < spec.bright_loss_prob)
            lose(ref, "anc", gone)
            z = ref.rng.standard_normal(ref.size)
            assert gone.any()
            np.testing.assert_array_equal(
                signals,
                np.where(bright, spec.bright_mean + spec.bright_std * z,
                         spec.dark_mean + spec.dark_std * z),
            )
            np.testing.assert_allclose(b.psi, ref.psi, rtol=0, atol=1e-12)
            np.testing.assert_array_equal(b.anc_lost, ref.anc_lost)
            np.testing.assert_array_equal(b.data_lost, ref.data_lost)
            assert b.events["imaging_loss"] == np.count_nonzero(gone)
            assert _states(b) == _states(ref)

    def test_absent_atom_draws_dark(self):
        b = _batch(shots=4000, anc_lost=True, rng=np.random.default_rng(2))
        sig, labels = image_ancilla(b, self.SPEC)
        assert sig.mean() == pytest.approx(0.0, abs=0.06)
        assert sig.std() == pytest.approx(1.0, rel=0.05)
        assert set(labels) == {"lost"}

    def test_down_atom_survives_bright(self):
        b = _batch(anc=DOWN, rng=np.random.default_rng(3))
        sig, labels = image_ancilla(b, self.SPEC)
        assert not b.anc_lost[0]
        assert b.populations("anc")[0, 0] == pytest.approx(1.0)
        assert sig[0] > 1.0
        assert labels[0] == "down"

    def test_bright_loss_still_labels_down(self):
        spec = ImagingSpec(bright_mean=4.0, bright_loss_prob=1.0)
        b = _batch(anc=DOWN, shots=5, rng=np.random.default_rng(3))
        _, labels = image_ancilla(b, spec)
        assert b.anc_lost.all() and set(labels) == {"down"}
        assert b.events["imaging_loss"] == 5

    def test_projection_collapses_electronic_only(self):
        shots = 2000
        mot = np.array([1, 1j, 0, 0, 0]) / np.sqrt(2)
        b = _batch(data=UP, anc=np.array([0.6, 0.8]), motional=mot, shots=shots,
                   rng=np.random.default_rng(4))
        _, labels = image_ancilla(b, self.SPEC)
        np.testing.assert_allclose(np.abs(b.psi.sum(axis=3)[:, 1]), np.abs(mot) * np.ones((shots, 1)), atol=1e-12)
        down = np.mean(labels == "down")
        assert down == pytest.approx(0.36, abs=3 * np.sqrt(0.36 * 0.64 / shots))

    def test_calibrated_fidelity_roundtrip(self):
        spec = calibrate_imaging(target_fidelity=0.90, p1=0.5, bright_loss_prob=0.0)
        rng = np.random.default_rng(8)
        n = 60_000
        bright = rng.normal(spec.bright_mean, spec.bright_std, n)
        dark = rng.normal(spec.dark_mean, spec.dark_std, n)
        res = optimize_threshold(bright, dark, p1=0.5)
        assert res.fidelity == pytest.approx(0.90, abs=0.005)

    @pytest.mark.parametrize("target", [0.55, 0.7, 0.9, 0.99, 0.999])
    def test_root_finder_is_bit_identical_to_scipy_brentq(self, target):
        from scipy.optimize import brentq

        for p1, dark_std, bright_std in itertools.product(
            (0.1, 0.3, 0.5, 0.9), (0.5, 1.0, 2.0), (0.7, 1.0, 1.5, 3.0)
        ):
            def gap(sep):
                res = optimize_threshold_analytic(sep, bright_std, 0.0, dark_std, p1)
                return res.fidelity - target

            hi = 40.0 * max(dark_std, bright_std)
            try:
                want = brentq(gap, 1e-6, hi, xtol=1e-12)
            except ValueError:  # no sign change: an unreachable target
                with pytest.raises(ValidationError, match="out of reach"):
                    calibrate_imaging(target, p1, dark_std=dark_std, bright_std=bright_std)
                continue
            assert gates._brentq(gap, 1e-6, hi) == want
            spec = calibrate_imaging(target, p1, dark_std=dark_std, bright_std=bright_std)
            assert spec.bright_mean == want

    def test_separation_does_not_depend_on_dark_mean(self):
        # the fidelity depends on the separation alone; with the dark mean
        # inside the threshold quadratic, large means cancelled its terms
        base = calibrate_imaging(0.9, 0.5, dark_std=1e-3, bright_std=1.0).bright_mean
        for dark_mean in (1e4, -1e6):
            spec = calibrate_imaging(0.9, 0.5, dark_mean=dark_mean, dark_std=1e-3, bright_std=1.0)
            assert spec.bright_mean == dark_mean + base

    @pytest.mark.parametrize("dark_std, bright_std", [(1.0, 1e-9), (1e-9, 1.0)])
    def test_width_ratio_of_a_billion_keeps_the_target(self, dark_std, bright_std):
        # one width ~0: F = 0.5 + 0.5 Phi(separation) at a threshold next
        # to the narrow class, so the separation tends to Phi^-1(0.8). The
        # discriminant b^2 - 4ac cancelled here: bright_mean 28.92 at F = 1
        spec = calibrate_imaging(0.9, 0.5, dark_std=dark_std, bright_std=bright_std)
        assert spec.bright_mean == pytest.approx(0.8416212335729143, abs=1e-7)
        res = optimize_threshold_analytic(spec.bright_mean, bright_std, 0.0, dark_std, 0.5)
        assert res.fidelity == pytest.approx(0.9, abs=1e-12)

    def test_root_finder_step_cap(self):
        with pytest.raises(NumericsError, match="within 2 steps"):
            gates._brentq(lambda x: x**3 - 2.0, 0.0, 40.0, maxiter=2)

    def test_separation_is_cached(self):
        calibrate_imaging(target_fidelity=0.93, p1=0.5)
        hits = gates._imaging_separation.cache_info().hits
        spec = calibrate_imaging(target_fidelity=0.93, p1=0.5, bright_loss_prob=0.0)
        assert gates._imaging_separation.cache_info().hits == hits + 1
        assert spec.bright_loss_prob == 0.0

    def test_midpoint_threshold_closed_form(self):
        # symmetric distributions: F at the midpoint equals Phi(separation/2)
        from scipy.stats import norm

        spec = self.SPEC
        mid = (spec.bright_mean + spec.dark_mean) / 2
        f1 = 1 - norm.cdf(mid, spec.bright_mean, spec.bright_std)
        f0 = norm.cdf(mid, spec.dark_mean, spec.dark_std)
        sep = (spec.bright_mean - spec.dark_mean) / spec.bright_std
        assert 0.5 * (f1 + f0) == pytest.approx(norm.cdf(sep / 2), abs=1e-12)
        res = optimize_threshold_analytic(
            spec.bright_mean, spec.bright_std, spec.dark_mean, spec.dark_std, 0.5
        )
        assert res.threshold == pytest.approx(mid, abs=1e-9)

    def test_pair_imaging_collapses_entanglement(self):
        b = _batch(data=np.array([0.6, 0.8]), shots=50, rng=np.random.default_rng(11))
        rotate(b, "anc", 0.0, np.pi / 2)
        apply_cz(b)
        assert np.linalg.matrix_rank(b.psi[0].reshape(2 * M, 2), tol=1e-9) == 2
        image_ancilla(b, self.SPEC)
        for row in b.psi:
            assert np.linalg.matrix_rank(row.reshape(2 * M, 2), tol=1e-9) == 1
            assert np.linalg.norm(row) == pytest.approx(1.0, abs=1e-12)


class TestLossRule:
    def test_data_loss_keeps_ancilla_conditional_state(self):
        # data motion entangled with the ancilla: each (level, n) outcome
        # leaves the ancilla in the matching conditional state
        rng = np.random.default_rng(21)
        psi = _random_rows(rng, 1)
        shots = 20000
        b = PairBatch(np.repeat(psi, shots, axis=0), np.zeros(shots, bool),
                      np.zeros(shots, bool), rng=rng)
        lose(b, "data", np.ones(shots, bool))
        assert b.data_lost.all() and not b.anc_lost.any()
        flat = b.psi.reshape(shots, 2 * M, 2)
        outcome = np.argmax(np.sum(np.abs(flat) ** 2, axis=2), axis=1)
        for row, k in zip(flat[:50], outcome[:50]):
            cond = psi[0].reshape(2 * M, 2)[k]
            assert abs(np.vdot(cond / np.linalg.norm(cond), row[k])) == pytest.approx(1.0, abs=1e-12)
            assert np.linalg.norm(row) == pytest.approx(1.0, abs=1e-12)
        born = np.sum(np.abs(psi[0].reshape(2 * M, 2)) ** 2, axis=1)
        freq = np.bincount(outcome, minlength=2 * M) / shots
        np.testing.assert_allclose(freq, born, atol=4 * np.sqrt(0.25 / shots))

    def test_ancilla_loss_measures_its_level(self):
        rng = np.random.default_rng(22)
        psi = _random_rows(rng, 1)
        b = PairBatch(np.repeat(psi, 8, axis=0), np.zeros(8, bool), np.zeros(8, bool), rng=rng)
        lose(b, "anc", np.ones(8, bool))
        pops = b.populations("anc")
        assert b.anc_lost.all()
        assert np.all(np.isclose(pops.max(axis=1), 1.0, atol=1e-12))
        for row, k in zip(b.psi, pops.argmax(axis=1)):
            cond = psi[0][..., k]
            assert abs(np.vdot(cond / np.linalg.norm(cond), row[..., k])) == pytest.approx(1.0, abs=1e-12)


class TestStreams:
    """One Generator per segment of rows: each segment draws what its own
    Generator would over its rows alone."""

    STOPS = [2, 5, 9]

    def _streams(self):
        return Streams([np.random.default_rng(s) for s in (1, 2, 3)], self.STOPS), \
            [np.random.default_rng(s) for s in (1, 2, 3)]

    def test_each_segment_draws_from_its_own_generator(self):
        streams, refs = self._streams()
        sizes = np.diff([0] + self.STOPS)
        draws = [streams.random(9), streams.standard_normal(9), streams.normal(0.5, 2.0, 9), streams.random(9)]
        want = [
            np.concatenate([g.random(n) for g, n in zip(refs, sizes)]),
            np.concatenate([g.standard_normal(n) for g, n in zip(refs, sizes)]),
            np.concatenate([g.normal(0.5, 2.0, n) for g, n in zip(refs, sizes)]),
            np.concatenate([g.random(n) for g, n in zip(refs, sizes)]),
        ]
        for got, ref in zip(draws, want):
            assert got.tobytes() == ref.tobytes()
        assert [g.bit_generator.state for g in streams.generators] == [g.bit_generator.state for g in refs]

    def test_where_skips_segments_without_a_selected_row(self):
        streams, refs = self._streams()
        untouched = [g.bit_generator.state for g in refs]
        where = np.zeros(9, bool)
        where[3] = True  # a row of segment 1 only
        got = streams.random(9, where=where)
        assert got[2:5].tobytes() == refs[1].random(3).tobytes()
        assert not got[:2].any() and not got[5:].any()
        states = [g.bit_generator.state for g in streams.generators]
        assert states[0] == untouched[0] and states[2] == untouched[2]
        assert states[1] == refs[1].bit_generator.state

    def test_for_rows_names_each_rows_generator(self):
        streams, _ = self._streams()
        g = streams.generators
        assert streams.for_rows(np.array([0, 1, 2, 4, 5, 8])) == [g[0], g[0], g[1], g[1], g[2], g[2]]
        assert streams.for_rows(np.array([], dtype=int)) == []

    def test_a_bare_generator_is_one_segment(self):
        rng = np.random.default_rng(4)
        b = _batch(shots=3, rng=rng)
        assert isinstance(b.rng, Streams) and b.rng.generators == [rng] and b.rng.stops == [3]

    def test_joined_batches_match_each_batch_alone(self):
        # forced errors: lose's projection and _scatter's ancilla draw are
        # drawn only by the segments holding a selected row
        errors = GateErrorSpec(0.3, 0.2, per_gate_jitter=True)
        spec = ImagingSpec(bright_mean=4.0, bright_loss_prob=0.5, unshelved_loss_prob=0.9)
        sizes = ((1, 1), (2, 1), (3, 40), (4, 1), (5, 7))

        def circuit(b):
            cnot_block(b, np.pi, 0.3)
            signals, labels = image_ancilla(b, spec)
            expose_to_imaging(b, spec)
            rotate(b, "data", 0.4, np.pi / 2)
            return (signals, labels, *measure_data(b))

        alone = [_mixed_batch(seed, errors, 3, 7, shots) for seed, shots in sizes]
        joined = PairBatch.join([_mixed_batch(seed, errors, 3, 7, shots) for seed, shots in sizes])
        assert joined.rng.stops == list(np.cumsum([shots for _, shots in sizes]))
        outs = [circuit(b) for b in alone]
        for got, parts in zip(circuit(joined), zip(*outs)):
            np.testing.assert_array_equal(got, np.concatenate(parts))
        assert joined.psi.tobytes() == np.concatenate([b.psi for b in alone]).tobytes()
        np.testing.assert_array_equal(joined.n0, np.concatenate([b.n0 for b in alone]))
        assert _states(joined) == [s for b in alone for s in _states(b)]
        assert joined.events == sum((b.events for b in alone), Counter())
        assert joined.events["cz_leakage_data"] and joined.events["imaging_loss"]


class TestChannels:
    def test_expose_removes_unshelved_population(self):
        spec = ImagingSpec(bright_mean=4.0, unshelved_loss_prob=1.0)
        shots = 5000
        mot = np.array([1, 0, 1j, 0, 0]) / np.sqrt(2)
        b = _batch(data=np.array([np.sqrt(0.2), np.sqrt(0.8)]), motional=mot, shots=shots,
                   rng=np.random.default_rng(9))
        expose_to_imaging(b, spec)
        lost = np.mean(b.data_lost)
        assert lost == pytest.approx(0.2, abs=3 * np.sqrt(0.2 * 0.8 / shots))
        assert b.events["unshelved_loss"] == np.count_nonzero(b.data_lost)
        # survivors keep their motional coherence
        np.testing.assert_allclose(b.psi[~b.data_lost][:, 1, :, 1], np.tile(mot, (shots - b.data_lost.sum(), 1)), atol=1e-12)

    def test_heating_jump_shifts_up(self):
        b = _batch(data=UP, motional=1, rng=np.random.default_rng(10))
        heating_jump(b, probability=1.0)
        assert abs(b.psi[0, 1, 2, 1]) == pytest.approx(1.0)
        assert b.events["heating_jump"] == 1

    def test_heating_jump_guards_truncation(self):
        b = _batch(data=UP, motional=N_MAX, rng=np.random.default_rng(10))
        with pytest.raises(TruncationError):
            heating_jump(b, probability=1.0)

    def test_heating_jump_moves_a_window_up_to_the_ladder_top(self):
        psi = np.zeros((1, 2, 1, 2), dtype=complex)
        psi[0, 1, 0, 1] = 1.0
        b = PairBatch(psi.copy(), np.zeros(1, bool), np.zeros(1, bool),
                      rng=np.random.default_rng(10), n0=np.array([N_MAX - 1]), n_max=N_MAX)
        heating_jump(b, probability=1.0)
        assert b.n0[0] == N_MAX
        np.testing.assert_array_equal(b.psi, psi)
        with pytest.raises(TruncationError):  # n0 = n_max: the window is the ladder's top
            heating_jump(b, probability=1.0)

    def test_projective_measure_collapses(self):
        b = _batch(data=PLUS, motional=np.array([1, 1, 0, 0, 0]) / np.sqrt(2),
                   rng=np.random.default_rng(12))
        level, n = measure_data(b)
        assert abs(b.psi[0, level[0], n[0], 1]) == pytest.approx(1.0)


class TestSpecValidation:
    def test_imaging_spec_ordering(self):
        with pytest.raises(ValidationError):
            ImagingSpec(bright_mean=0.0, dark_mean=1.0)

    def test_gate_error_bounds(self):
        with pytest.raises(ValidationError):
            GateErrorSpec(cz_phase_error_prob=1.5)
        with pytest.raises(ValidationError):
            GateErrorSpec(cz_phase_error_prob=0.6, cz_loss_prob=0.6)
