import dataclasses
import functools
import json

import conftest
import numpy as np
import pytest
from conftest import (
    apply_data_unitary,
    ideal_rsb_map,
    per_job_new_pairs,
    per_job_run_chunks,
    preset_config,
    propagator,
    rotation_matrix,
    scalar_sideband_p_exc,
    sideband_peak_ratio,
)
from scipy.linalg import expm

from tweezersim import protocols
from tweezersim.cli import main
from tweezersim.dynamics import NoiseModel, QuasiStatic, SpectralDensity, sideband_rabi
from tweezersim.errors import ValidationError
from tweezersim.gates import (
    GateErrorSpec,
    ImagingSpec,
    PairBatch,
    Streams,
    heating_jump,
    image_ancilla,
)
from tweezersim.protocols import (
    ANC_MINUS,
    ANC_PLUS,
    CHUNK_SHOTS,
    DEFAULT_TRAP,
    ProtocolConfig,
    _fresh_ancilla,
    _ideal_rsb,
    _new_pairs,
    calibrate_phase,
    cnot_block,
    cooling_gates,
    run_algorithmic_cooling,
    run_loss_detection,
    run_repeated_readout,
    simulate_sideband_spectrum,
)
from tweezersim.states import (
    ElectronicLevel,
    ThermalSpec,
    remove_one_quantum,
    thermal_distribution,
)

N_MAX = 6
FORCED_ERRORS = GateErrorSpec(0.3, 0.2, per_gate_jitter=True)
IDEAL_IMAGING = ImagingSpec(
    bright_mean=100.0,
    bright_loss_prob=0.0,
    unshelved_loss_prob=0.0,
    data_heating_quanta_per_round=0.0,
)


def _ideal_config(kind, **kw):
    defaults = dict(
        kind=kind,
        shots=kw.pop("shots", 200),
        seed=kw.pop("seed", 99),
        n_max=N_MAX,
        gate_errors=None,
        imaging=IDEAL_IMAGING,
    )
    defaults.update(kw)
    return ProtocolConfig(**defaults)


def _columns(table):
    """Every column of a shot table, for exact comparisons."""
    return [table.scenario, table.shot, table.signals, table.ancilla_labels,
            table.data_label, table.data_n, table.data_lost, table.aux]


def _assert_tables_equal(a, b):
    for x, y in zip(_columns(a), _columns(b)):
        np.testing.assert_array_equal(x, y)
    assert a.events == b.events


class TestRepeatedReadout:
    def test_ideal_present_bright_absent_dark(self):
        cfg = _ideal_config("repeated_readout", shots=50, n_cyc=3)
        table = run_repeated_readout(cfg)
        present = table.scenario == "present"
        assert set(table.ancilla_labels[present].ravel()) == {"down"}
        assert np.all(table.signals[present] > 50)
        assert set(table.ancilla_labels[~present].ravel()) == {"up"}
        assert np.all(table.signals[~present] < 50)

    def test_aggregated_separation_grows_sqrt_n(self):
        # sum-of-normals oracle on the ideal-gate signal model
        cfg = _ideal_config("repeated_readout", shots=800, n_cyc=4)
        table = run_repeated_readout(cfg)
        present = table.signals[table.scenario == "present"]
        absent = table.signals[table.scenario == "absent"]
        for n in (1, 4):
            sep = present[:, :n].sum(axis=1).mean() - absent[:, :n].sum(axis=1).mean()
            pooled = np.sqrt(present[:, :n].sum(axis=1).var() + absent[:, :n].sum(axis=1).var())
            assert sep / pooled == pytest.approx(
                100.0 * n / np.sqrt(2 * n), rel=0.1
            )

    def test_seed_determinism_across_workers(self):
        base = dict(kind="repeated_readout", shots=40, n_cyc=2, seed=7, n_max=N_MAX)
        runs = [
            run_repeated_readout(ProtocolConfig(workers=workers, **base)) for workers in (1, 4)
        ]
        _assert_tables_equal(*runs)

    def test_data_atom_minimally_perturbed(self):
        cfg = _ideal_config("repeated_readout", shots=30, n_cyc=4)
        table = run_repeated_readout(cfg)
        present = table.scenario == "present"
        assert set(table.data_label[present]) == {"up"}
        assert set(table.data_n[present]) == {0}


class TestLossDetection:
    @pytest.mark.parametrize("kind, scenarios", [
        ("loss_detection", ("absent", "present", "absent")),
        ("repeated_readout", ("present", "present")),
        ("phase_calibration", ("present", "present")),
    ])
    def test_repeated_scenario_is_rejected(self, kind, scenarios):
        # a repeated scenario's jobs would share one key, so one seed and
        # the same shots, and the fringe would keep one of them
        with pytest.raises(ValidationError, match="protocol.scenarios"):
            _ideal_config(kind, scenarios=scenarios)

    def test_ideal_plus_state_full_fidelity(self):
        cfg = _ideal_config("loss_detection", shots=60, data_psi="plus", analyzer_phases=(0.0, np.pi / 2))
        table, fringe = run_loss_detection(cfg)
        present = table.scenario == "present"
        assert set(table.ancilla_labels[present, 0]) == {"down"}
        assert set(table.ancilla_labels[~present, 0]) == {"up"}

    def test_ideal_fringe_contrast_one(self):
        phases = np.linspace(0, 2 * np.pi, 9)
        cfg = _ideal_config("loss_detection", shots=400, data_psi="plus", analyzer_phases=tuple(phases))
        _, fringe = run_loss_detection(cfg)
        phis, up, _ = fringe["present"]
        expected = (1 - np.sin(phis)) / 2
        np.testing.assert_allclose(up, expected, atol=0.09)

    def test_shelving_failure_produces_dark_subpeak_and_loss(self):
        cfg = _ideal_config(
            "loss_detection",
            shots=2500,
            data_psi="down",
            shelving_transfer_fidelity=0.9,
            imaging=ImagingSpec(
                bright_mean=100.0,
                bright_loss_prob=0.0,
                unshelved_loss_prob=1.0,
                data_heating_quanta_per_round=0.0,
            ),
            analyzer_phases=(0.0,),
        )
        table, _ = run_loss_detection(cfg)
        present = table.scenario == "present"
        n_present = np.count_nonzero(present)
        dark_frac = np.mean(table.ancilla_labels[present, 0] == "up")
        sigma = np.sqrt(0.1 * 0.9 / n_present)
        assert dark_frac == pytest.approx(0.10, abs=4 * sigma)
        # every shelving failure is removed by the imaging light
        lost = np.count_nonzero(table.data_label[present] == "lost")
        assert lost == pytest.approx(0.10 * n_present, abs=4 * sigma * n_present)
        assert table.events["unshelved_loss"] == lost

    def test_reference_fringe_has_larger_offset(self):
        phases = np.linspace(0, 2 * np.pi, 9)
        kw = dict(
            shots=300,
            data_psi="plus",
            shelving_transfer_fidelity=0.92,
            imaging=ImagingSpec(bright_mean=100.0, bright_loss_prob=0.0,
                                unshelved_loss_prob=1.0, data_heating_quanta_per_round=0.0),
            scenarios=("present",),
            analyzer_phases=tuple(phases),
        )
        _, full = run_loss_detection(_ideal_config("loss_detection", **kw))
        _, ref = run_loss_detection(_ideal_config("loss_detection", **kw), reference=True)
        offset_full = full["present"][1].mean()
        offset_ref = ref["present"][1].mean()
        assert offset_ref > offset_full
        # both sinusoidal: residual from a fitted sinusoid stays small
        for _, up, _ in (full["present"], ref["present"]):
            c = np.polyfit(np.sin(phases), up - up.mean(), 1)[0]
            model = up.mean() + c * np.sin(phases)
            assert np.max(np.abs(up - model)) < 0.12


class TestAlgorithmicCooling:
    def _cooled_pair(self, n_init):
        # data (down, n_init), ancilla down; the ideal RSB then the five gates
        data = np.zeros((1, 2, N_MAX + 1))
        data[0, 0, n_init] = 1.0
        batch = PairBatch.prepare(data, np.array([1.0, 0.0]))
        return cooling_gates(_ideal_rsb(batch))

    @pytest.mark.parametrize("n_max", [2, 12, 20])
    def test_ladder_shift_equals_dense_map(self, n_max):
        # the in-place shift against the dense (2, M, 2, M) map applied by
        # einsum, on random states where some data atoms are lost
        rng = np.random.default_rng(n_max)
        shots = 64
        psi = rng.normal(size=(shots, 2, n_max + 1, 2)) + 1j * rng.normal(size=(shots, 2, n_max + 1, 2))
        psi /= np.linalg.norm(psi.reshape(shots, -1), axis=1)[:, None, None, None]
        lost = rng.random(shots) < 0.3
        assert 0 < lost.sum() < shots
        got = _ideal_rsb(PairBatch(psi.copy(), lost.copy(), np.zeros(shots, bool)))
        want = apply_data_unitary(PairBatch(psi.copy(), lost.copy(), np.zeros(shots, bool)),
                                  ideal_rsb_map(n_max))
        assert np.array_equal(got.psi, want.psi)
        assert np.array_equal(got.psi[lost], psi[lost])
        assert np.array_equal(got.data_lost, lost)

    def test_hot_atom_cooled_one_quantum(self):
        batch = self._cooled_pair(1)
        assert abs(batch.psi[0, 1, 0, :] @ ANC_MINUS.conj()) ** 2 == pytest.approx(1.0, abs=1e-10)

    def test_cold_atom_untouched(self):
        batch = self._cooled_pair(0)
        assert abs(batch.psi[0, 1, 0, :] @ ANC_PLUS.conj()) ** 2 == pytest.approx(1.0, abs=1e-10)

    def test_final_ancilla_states_orthogonal(self):
        assert abs(np.vdot(ANC_PLUS, ANC_MINUS)) < 1e-12

    @pytest.mark.parametrize("n_init", [0, 1, 2, 4])
    def test_matches_joint_space_matrix_oracle(self, n_init):
        # independent oracle: full kron-space matrix product of the circuit,
        # index (data_level, data_n, anc_level); the ancilla has no motion
        m = N_MAX + 1
        dim = 2 * m
        r_half = rotation_matrix(np.pi / 2, 0.0)
        r_minus_data = np.kron(rotation_matrix(-np.pi / 2, 0.0), np.eye(m))
        r_minus_anc = rotation_matrix(-np.pi / 2, 0.0)
        cz = np.ones((2, m, 2))
        cz[1, :, 1] = -1.0
        cz = np.diag(cz.reshape(-1))
        rsb = ideal_rsb_map(N_MAX).reshape(dim, dim)
        u = (
            np.kron(r_minus_data, r_minus_anc)
            @ cz
            @ np.kron(r_minus_data, r_minus_anc)
            @ cz
            @ np.kron(np.eye(dim), r_half)
            @ np.kron(rsb, np.eye(2))
        )
        data0 = np.zeros(dim)
        data0[n_init] = 1.0  # (down, n_init)
        psi0 = np.kron(data0, [1.0, 0.0]).astype(complex)  # ancilla down
        oracle = u @ psi0

        got = self._cooled_pair(n_init).psi[0].reshape(-1)
        fidelity = abs(np.vdot(oracle, got)) ** 2
        assert fidelity == pytest.approx(1.0, abs=1e-10)

    def test_thermal_input_ground_state_fraction(self):
        cfg = _ideal_config("algorithmic_cooling", shots=4000, data_nbar=1.0)
        _, summary = run_algorithmic_cooling(cfg)
        sigma = np.sqrt(0.75 * 0.25 / cfg.shots)
        assert summary["ground_state_fraction"] == pytest.approx(0.75, abs=3 * sigma)
        assert summary["ideal_ground_state_fraction"] == pytest.approx(0.75, abs=1e-12)
        assert summary["wrong_state_fraction"] == 0.0

    def test_ancilla_label_correlates_with_initial_motion(self):
        cfg = _ideal_config("algorithmic_cooling", shots=500, data_nbar=1.0)
        table, _ = run_algorithmic_cooling(cfg)
        expected = np.where(table.aux == 0, "plus", "minus")
        np.testing.assert_array_equal(table.ancilla_labels[:, 0], expected)

    def test_monotonicity_on_thermal_inputs(self):
        for nbar in (0.0, 0.1, 0.5, 1.0, 2.0):
            p = thermal_distribution(ThermalSpec(nbar=nbar, n_max=40))
            out = remove_one_quantum(p)
            assert out[0] >= p[0]
            if nbar > 0:
                assert out[0] > p[0]


class TestNonIdealCooling:
    def test_data_loss_after_entangling_red_sideband(self):
        # the pulsed red sideband leaves each electronic level at another n,
        # so the gates entangle data motion with the ancilla; losing the
        # data atom then must still leave a valid ancilla state
        cfg = ProtocolConfig(kind="algorithmic_cooling", shots=4000, seed=3,
                             data_nbar=0.5, ideal_cooling_rsb=False)
        table, summary = run_algorithmic_cooling(cfg)
        lost = table.data_lost
        assert summary["survivors"] == cfg.shots - np.count_nonzero(lost)
        assert set(table.data_label[lost]) <= {"lost"}
        assert np.all(table.data_n[lost] == -1) and np.all(table.data_n[~lost] >= 0)

    def test_frequent_leakage(self):
        cfg = ProtocolConfig(kind="algorithmic_cooling", shots=200, seed=3, data_nbar=0.5,
                             ideal_cooling_rsb=False,
                             gate_errors=GateErrorSpec(cz_loss_prob=0.3))
        table, _ = run_algorithmic_cooling(cfg)
        leaks = table.events["cz_leakage_data"] + table.events["cz_leakage_anc"]
        applied = 2 * cfg.shots - table.events["cz_skipped"]
        assert leaks == pytest.approx(0.3 * applied, abs=4 * np.sqrt(0.21 * applied))
        assert np.count_nonzero(table.data_lost) == table.events["cz_leakage_data"]


class TestInitialN:
    def test_thermal_sampling_statistics(self):
        config = ProtocolConfig(kind="algorithmic_cooling", n_max=12, data_nbar=1.0)
        p0_expected = thermal_distribution(ThermalSpec(nbar=1.0, n_max=12))[0]
        shots = 100_000
        _, n = _new_pairs(config, Streams([np.random.default_rng(7)], [shots]), np.ones(shots, bool),
                          ElectronicLevel.DOWN)
        hits = np.count_nonzero(n == 0)
        sigma = np.sqrt(p0_expected * (1 - p0_expected) / shots)
        assert hits / shots == pytest.approx(p0_expected, abs=3 * sigma)


class TestNewPairs:
    """_new_pairs on a multi-segment Streams against the per-job start it
    replaced: one call per job on that job's Generator alone, drawing the
    Fock numbers with Generator.choice."""

    @pytest.mark.parametrize("size", [1, CHUNK_SHOTS])
    @pytest.mark.parametrize("data_nbar", [0.0, 0.7])
    @pytest.mark.parametrize("kind, data_psi, anc_level", [
        ("repeated_readout", "plus", ElectronicLevel.UP),
        ("loss_detection", "plus", ElectronicLevel.UP),
        ("algorithmic_cooling", "down", ElectronicLevel.DOWN),
    ])
    def test_matches_one_generator_per_job(self, kind, data_psi, anc_level, data_nbar, size):
        cfg = ProtocolConfig(kind=kind, n_max=N_MAX, data_psi=data_psi, data_nbar=data_nbar,
                             ancilla_absent_prob=0.3, gate_errors=GateErrorSpec(sq_over_rotation_sigma=0.05))
        present = [True, False, True, False, True]  # one entry per job

        def generators():
            return [np.random.default_rng(np.random.SeedSequence(17, spawn_key=(j,))) for j in range(len(present))]

        rng = Streams(generators(), [size * (j + 1) for j in range(len(present))])
        batch, n = _new_pairs(cfg, rng, np.repeat(present, size), anc_level)
        alone = [per_job_new_pairs(cfg, g, size, p, anc_level) for g, p in zip(generators(), present)]
        assert n.dtype == alone[0][1].dtype
        assert n.tobytes() == np.concatenate([m for _, m in alone]).tobytes()
        for name in ("psi", "data_lost", "anc_lost", "jitter", "n0"):
            got, want = getattr(batch, name), np.concatenate([getattr(b, name) for b, _ in alone])
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name
        assert batch.n_max == cfg.n_max
        assert [g.bit_generator.state for g in rng.generators] == \
            [b.rng.generators[0].bit_generator.state for b, _ in alone]
        if size > 1:  # every draw fired
            assert batch.anc_lost.any() and (n > 0).any() == (data_nbar > 0)


class TestChunkDeterminism:
    """Outputs do not depend on the worker count, over three chunks."""

    @pytest.mark.parametrize(
        "kind, extra",
        [
            pytest.param("repeated_readout", {}, id="repeated_readout"),
            pytest.param("loss_detection", {}, id="loss_detection"),
            pytest.param("algorithmic_cooling", {}, id="algorithmic_cooling"),
            # the noisy shelving pulse: one exact step per row, then
            # `steps_per_pulse` steps under a low-band laser PSD
            pytest.param("loss_detection",
                         {"noise": NoiseModel(trap_frequency=QuasiStatic(2 * np.pi * 175.0))},
                         id="loss_detection-quasi_static_trap"),
            pytest.param("loss_detection",
                         {"noise": NoiseModel(laser_frequency=SpectralDensity(
                             np.array([0.0, 100.0]), np.array([2e3, 2e3]))),
                          "steps_per_pulse": 50},
                         id="loss_detection-psd_laser"),
            pytest.param("algorithmic_cooling", {"ideal_cooling_rsb": False},
                         id="algorithmic_cooling-nonideal_rsb"),
            # forced errors: leak splits and per-gate jitter draws in every chunk
            pytest.param("repeated_readout", {"gate_errors": FORCED_ERRORS},
                         id="repeated_readout-forced_errors"),
            pytest.param("loss_detection", {"gate_errors": FORCED_ERRORS},
                         id="loss_detection-forced_errors"),
            *[pytest.param("algorithmic_cooling", {"gate_errors": FORCED_ERRORS, "ideal_cooling_rsb": rsb},
                           id=f"algorithmic_cooling-forced_errors-{mode}_rsb")
              for rsb, mode in ((True, "ideal"), (False, "nonideal"))],
        ],
    )
    def test_one_and_three_workers_agree(self, kind, extra):
        shots = 2 * CHUNK_SHOTS + 37
        base = dict(kind=kind, shots=shots, seed=31, n_max=N_MAX, n_cyc=2,
                    ancilla_absent_prob=0.1, data_nbar=1.0 if kind == "algorithmic_cooling" else 0.0,
                    **extra)
        runs = []
        for workers in (1, 3):
            cfg = ProtocolConfig(workers=workers, **base)
            if kind == "repeated_readout":
                runs.append(run_repeated_readout(cfg))
            elif kind == "loss_detection":
                runs.append(run_loss_detection(dataclasses.replace(cfg, analyzer_phases=(0.0, 1.0)))[0])
            else:
                runs.append(run_algorithmic_cooling(cfg)[0])
        assert len(set(runs[0].shot.tolist())) == shots
        if "gate_errors" in extra:  # leak splits fired
            assert runs[0].events["cz_leakage_data"] and runs[0].events["cz_leakage_anc"]
        _assert_tables_equal(*runs)


    @pytest.mark.parametrize("cfg", [
        # two chunks per (scenario, phase) unit, each drawing its rows'
        # PSD realizations with one synthesis call per kernel chunk
        pytest.param({
            "noise": {"laser_frequency": {"kind": "psd", "frequencies_hz": [0.0, 100.0],
                                          "values": [2e3, 2e3]}},
            "protocol": {"kind": "loss_detection", "shots": CHUNK_SHOTS + 6, "n_max": N_MAX,
                         "steps_per_pulse": 50, "analyzer_phases_rad": [0.0, 1.0]},
        }, id="psd_laser"),
        # the fig3 preset, its thermal windows placed per shot
        pytest.param(preset_config("fig3", shots=CHUNK_SHOTS + 6, data_nbar=0.5),
                     id="fig3-thermal"),
    ])
    def test_loss_detection_cli_bytes_independent_of_threads(self, tmp_path, cfg):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        outs = [tmp_path / f"threads{n}" for n in (1, 2)]
        for n, out in zip((1, 2), outs):
            argv = ["simulate", "--config", str(path), "--seed", "9", "--threads", str(n), "--out", str(out)]
            assert main(argv) == 0
        for name in ("shots.csv", "fringe.csv"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

    def test_loss_detection_runs_on_one_pool(self, monkeypatch):
        from tweezersim import protocols

        pools = []

        class CountingPool(protocols.ThreadPoolExecutor):
            def __init__(self, *args, **kwargs):
                pools.append(kwargs)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(protocols, "ThreadPoolExecutor", CountingPool)
        cfg = ProtocolConfig(kind="loss_detection", shots=CHUNK_SHOTS + 5, seed=4, n_max=N_MAX,
                             workers=2, analyzer_phases=(0.0, 1.0, 2.0))
        run_loss_detection(cfg)
        assert len(pools) == 1  # 2 scenarios x 3 phases x 2 chunks share it


class TestLockstepOracle:
    """The lockstep chunk runner against the per-job engine it replaced:
    every ShotTable column, the summed events, and the final state of
    every (job, chunk) stream."""

    QUASI_STATIC = NoiseModel(trap_frequency=QuasiStatic(2 * np.pi * 175.0))
    PSD = NoiseModel(laser_frequency=SpectralDensity(np.array([0.0, 100.0]), np.array([2e3, 2e3])))

    @pytest.mark.parametrize("workers", [1, 3])
    @pytest.mark.parametrize("kind, extra, reference", [
        pytest.param("repeated_readout",
                     {"imaging": ImagingSpec(bright_mean=3.0, data_heating_quanta_per_round=0.4)},
                     False, id="readout-heating"),
        pytest.param("repeated_readout", {"data_nbar": 0.5}, False, id="readout-thermal"),
        pytest.param("loss_detection", {"noise": QUASI_STATIC}, False, id="loss_detection-quasi_static"),
        pytest.param("loss_detection", {"noise": QUASI_STATIC, "data_nbar": 0.5, "n_max": 12}, True,
                     id="loss_detection-reference-thermal"),
        pytest.param("loss_detection", {"noise": PSD, "steps_per_pulse": 50}, False, id="loss_detection-psd"),
        pytest.param("algorithmic_cooling", {"data_nbar": 1.0}, False, id="cooling-ideal_rsb"),
        pytest.param("algorithmic_cooling", {"data_nbar": 1.0, "ideal_cooling_rsb": False, "noise": QUASI_STATIC},
                     False, id="cooling-pulsed_rsb"),
    ])
    def test_matches_the_per_job_engine(self, monkeypatch, kind, extra, reference, workers):
        cfg = ProtocolConfig(**{"kind": kind, "shots": 2 * CHUNK_SHOTS + 37, "seed": 41, "n_max": N_MAX,
                                "n_cyc": 3, "gate_errors": FORCED_ERRORS, "ancilla_absent_prob": 0.3,
                                "workers": workers, **extra})
        run = {"repeated_readout": run_repeated_readout,
               "algorithmic_cooling": lambda cfg: run_algorithmic_cooling(cfg)[0],
               "loss_detection": lambda cfg: run_loss_detection(
                   dataclasses.replace(cfg, analyzer_phases=(0.0, 1.0, 2.5)), reference)[0]}[kind]
        tables, states, starts = [], [], []
        for run_chunks in (protocols._run_chunks, per_job_run_chunks):
            streams, calls = {}, []

            def recorded(config, rng, *args):  # the lockstep start: one Streams per chunk index
                calls.append(rng)
                streams.update((g.bit_generator.seed_seq.spawn_key, g) for g in rng.generators)
                return _new_pairs(config, rng, *args)

            def recorded_alone(config, rng, *args):  # the per-job start: one Generator per unit
                calls.append(rng)
                streams[rng.bit_generator.seed_seq.spawn_key] = rng
                return per_job_new_pairs(config, rng, *args)

            monkeypatch.setattr(protocols, "_run_chunks", run_chunks)
            monkeypatch.setattr(protocols, "_new_pairs", recorded)
            monkeypatch.setattr(conftest, "per_job_new_pairs", recorded_alone)
            tables.append(run(cfg))
            states.append({key: g.bit_generator.state for key, g in streams.items()})
            starts.append(len(calls))
        jobs = {"repeated_readout": 2, "algorithmic_cooling": 1, "loss_detection": 6}[kind]
        assert len(states[0]) == 3 * jobs and states[0] == states[1]
        assert starts == [3, 3 * jobs]  # _new_pairs runs once per chunk index
        for f in dataclasses.fields(protocols.ShotTable):
            got, want = (getattr(t, f.name) for t in tables)
            if f.name == "events":
                assert got == want
                assert reference or got["cz_leakage_data"] and got["cz_leakage_anc"]  # leaks fired
            else:
                np.testing.assert_array_equal(got, want)
                assert got.dtype == want.dtype

    def test_one_kernel_call_per_pulse(self, monkeypatch):
        # one shot of 2 scenarios x 2 phases: the present jobs' rows share
        # each shelving pulse's kernel call
        from tweezersim import kernels

        calls = []
        propagate = kernels._propagate
        monkeypatch.setattr(kernels, "_propagate", lambda *args: calls.append(1) or propagate(*args))
        for noise in (None, self.QUASI_STATIC):
            calls.clear()
            run_loss_detection(ProtocolConfig(kind="loss_detection", shots=1, noise=noise,
                                              analyzer_phases=(0.0, 1.0)))
            assert len(calls) == 2


class TestWindow:
    """Each protocol's Fock window against the full ladder (W = n_max + 1,
    n0 = 0): the same outcomes, events and final state of every chunk's
    random stream."""

    @pytest.mark.parametrize("kind, extra", [
        pytest.param("repeated_readout",
                     {"imaging": ImagingSpec(bright_mean=3.0, data_heating_quanta_per_round=0.5)},
                     id="readout-heating"),
        pytest.param("algorithmic_cooling", {"data_nbar": 0.5}, id="cooling-ideal_rsb"),
        pytest.param("algorithmic_cooling", {"data_nbar": 0.5, "ideal_cooling_rsb": False},
                     id="cooling-pulsed_rsb"),
        pytest.param("loss_detection",
                     {"data_nbar": 0.5, "analyzer_phases": (0.0, 1.0), "n_max": 12,
                      "noise": NoiseModel(trap_frequency=QuasiStatic(2 * np.pi * 175.0))},
                     id="loss_detection-thermal-quasi_static_trap"),
    ])
    def test_matches_the_full_ladder(self, monkeypatch, kind, extra):
        run = {"repeated_readout": run_repeated_readout,
               "algorithmic_cooling": lambda cfg: run_algorithmic_cooling(cfg)[0],
               "loss_detection": lambda cfg: run_loss_detection(cfg)[0]}[kind]
        cfg = ProtocolConfig(**{"kind": kind, "shots": CHUNK_SHOTS + 37, "seed": 23, "n_max": N_MAX,
                                "n_cyc": 3, "ancilla_absent_prob": 0.1, **extra})
        tables, streams, widths = [], [], []
        windowed = protocols.WINDOW
        for window in (windowed, dict.fromkeys(windowed, cfg.n_max + 1)):
            batches = []

            class Recorded(PairBatch):
                def __post_init__(self):
                    super().__post_init__()
                    batches.append(self)

            monkeypatch.setattr(protocols, "WINDOW", window)
            monkeypatch.setattr(protocols, "PairBatch", Recorded)
            tables.append(run(cfg))
            streams.append([g.bit_generator.state for b in batches for g in b.rng.generators])
            widths.append({b.psi.shape[2] for b in batches})
        assert widths == [{windowed[kind]}, {cfg.n_max + 1}]
        _assert_tables_equal(*tables)
        assert len(streams[0]) > 1 and streams[0] == streams[1]
        if kind == "repeated_readout":
            assert tables[0].events["heating_jump"] > CHUNK_SHOTS


class TestReadoutInPlace:
    def test_psi_kept_and_rows_normalized_every_round(self):
        # a 2-round readout chunk with gate errors on: every step updates
        # the same psi array, and every row stays normalized
        errors = GateErrorSpec(cz_phase_error_prob=0.1, cz_loss_prob=0.05)
        imaging = ImagingSpec(bright_mean=3.0, data_heating_quanta_per_round=0.3)
        cfg = _ideal_config("repeated_readout", n_cyc=2, gate_errors=errors,
                            imaging=imaging, ancilla_absent_prob=0.1)
        batch, _ = _new_pairs(cfg, Streams([np.random.default_rng(8)], [300]), np.ones(300, bool),
                              ElectronicLevel.UP)
        psi = batch.psi
        for rnd in range(cfg.n_cyc):
            steps = [lambda: cnot_block(batch, cfg.comp_phase, cfg.local_z_phase),
                     lambda: image_ancilla(batch, imaging),
                     lambda: heating_jump(batch, imaging.data_heating_quanta_per_round)]
            if rnd:
                steps.insert(0, lambda: _fresh_ancilla(batch, cfg, ElectronicLevel.UP))
            for step in steps:
                step()
                assert batch.psi is psi
            norms = np.linalg.norm(batch.psi.reshape(batch.size, -1), axis=1)
            np.testing.assert_allclose(norms, 1.0, rtol=0, atol=1e-12)
        assert batch.events["cz_leakage_data"] + batch.events["cz_leakage_anc"] > 0
        assert batch.events["heating_jump"] > 0


class TestLossDetectionJointOracle:
    def test_unitary_part_matches_kron_oracle(self):
        # shelve -> CNOT block on the joint space, against a direct
        # matrix product with independently built operators
        from tweezersim.dynamics import PulseKind, PulseSpec
        from tweezersim.protocols import _evolve_data, cnot_block

        n_max = 4
        m = n_max + 1
        dim = 2 * m
        rabi = 2 * np.pi * 2e3
        omega01 = sideband_rabi(0, 1, DEFAULT_TRAP.eta, rabi)
        pulse = PulseSpec(PulseKind.BLUE_SIDEBAND, rabi=rabi, duration=np.pi / omega01)
        shelve = propagator(pulse, DEFAULT_TRAP, n_max=n_max)

        cz = np.ones((2, m, 2))
        cz[1, :, 1] = -1.0
        cz = np.diag(cz.reshape(-1))
        r1 = rotation_matrix(np.pi / 2, 0.0)
        r2 = rotation_matrix(np.pi / 2, np.pi)
        ident = np.eye(dim)
        oracle_u = np.kron(ident, r2) @ cz @ np.kron(ident, r1) @ np.kron(shelve, np.eye(2))

        data = np.zeros((1, 2, m), dtype=complex)
        data[0, :, 0] = np.array([1, 1]) / np.sqrt(2)
        up = np.array([0.0, 1.0])
        oracle = oracle_u @ np.kron(data[0].reshape(-1), up)

        cfg = ProtocolConfig(kind="loss_detection", n_max=n_max, gate_errors=None,
                             imaging=IDEAL_IMAGING, rabi=rabi)
        batch = PairBatch.prepare(data, up)
        _evolve_data(batch, pulse, cfg)
        cnot_block(batch)
        fidelity = abs(np.vdot(oracle, batch.psi[0].reshape(-1))) ** 2
        assert fidelity == pytest.approx(1.0, abs=1e-10)


class TestCooledSpectrumPipeline:
    def test_ground_state_fraction_roundtrip(self):
        # ideal cooling at nbar = 1, then a sampled sideband scan and the
        # double-Gaussian fit recover the one-quantum-removal fraction
        cfg = _ideal_config("algorithmic_cooling", shots=20000, data_nbar=1.0)
        table, summary = run_algorithmic_cooling(cfg)
        counts = np.bincount(table.data_n, minlength=cfg.n_max + 1)
        measured_dist = counts / counts.sum()

        rng = np.random.default_rng(14)
        f_trap = DEFAULT_TRAP.omega_t / (2 * np.pi)
        span = 1.2e3
        side = np.linspace(f_trap - span, f_trap + span, 11)
        grid = np.concatenate([-side[::-1], side])
        spec = simulate_sideband_spectrum(
            measured_dist, grid, shots_per_point=1500, rng=rng
        )
        from tweezersim.analysis import fit_double_gaussian_with_offset, nonthermal_correction

        fit = fit_double_gaussian_with_offset(spec)
        # the fit estimates 1 - r; on this non-thermal distribution that
        # carries the documented overestimation, so compare against the
        # exact ladder-sum estimate and bound the bias relative to truth
        r_exact = sideband_peak_ratio(measured_dist)
        assert fit.ground_state_fraction == pytest.approx(1.0 - r_exact, abs=0.02)
        t12 = np.sin(
            sideband_rabi(1, 2, DEFAULT_TRAP.eta, spec.rabi)
            / sideband_rabi(0, 1, DEFAULT_TRAP.eta, spec.rabi)
            * np.pi
            / 2
        ) ** 2
        bias_bound = nonthermal_correction(r_exact, t12) + 0.25 * r_exact**2
        assert 0.75 - 0.02 <= fit.ground_state_fraction <= 0.75 + bias_bound + 0.02
        assert fit.offset == pytest.approx(0.0, abs=0.02)


class TestCalibratePhase:
    def test_antiphase_sinusoids_and_data_invariance(self):
        phases = np.linspace(0, 2 * np.pi, 17)
        table = calibrate_phase(_ideal_config("phase_calibration", shots=1, analyzer_phases=tuple(phases)))
        present = table["p_down"]["present"]
        absent = table["p_down"]["absent"]
        np.testing.assert_allclose(present, np.sin(phases / 2) ** 2, atol=1e-10)
        np.testing.assert_allclose(absent, np.cos(phases / 2) ** 2, atol=1e-10)
        assert table["data_state_deviation"] < 1e-10

    def test_half_period_swaps_extremes(self):
        table = calibrate_phase(_ideal_config("phase_calibration", shots=1, analyzer_phases=(0.0, np.pi)))
        assert table["p_down"]["present"][0] == pytest.approx(
            table["p_down"]["absent"][1], abs=1e-12
        )


@functools.lru_cache(maxsize=None)
def _displacement(eta, dim=60):
    """exp(i eta (a + a^dagger)) on dim Fock levels; cached and read-only."""
    a = np.diag(np.sqrt(np.arange(1, dim)), k=1)
    d = expm(1j * eta * (a + a.T))
    d.flags.writeable = False
    return d


def _oracle_transfer(n_from, n_to, eta, rabi, delta, duration, dim=60):
    """Independent ladder oracle built from displacement-operator elements."""
    d = _displacement(eta, dim)
    omega = rabi * abs(d[n_to, n_from])
    w_eff = np.sqrt(omega**2 + delta**2)
    return (omega / w_eff) ** 2 * np.sin(w_eff * duration / 2) ** 2 if w_eff else 0.0


class TestSidebandSpectrum:
    def test_ground_state_has_no_cooling_peak(self):
        dist = np.zeros(N_MAX + 1)
        dist[0] = 1.0
        f_trap = DEFAULT_TRAP.omega_t / (2 * np.pi)
        spec = simulate_sideband_spectrum(dist, np.array([-f_trap, f_trap]))
        # no red peak: only the far-detuned tail of the heating sideband
        # (driven 2 trap frequencies off resonance) survives there
        tail = _oracle_transfer(
            0, 1, DEFAULT_TRAP.eta, spec.rabi, 2 * np.pi * 2 * f_trap, spec.duration
        )
        assert spec.p_exc[0] == pytest.approx(tail, abs=1e-10)
        assert spec.p_exc[0] < 1e-4
        assert spec.p_exc[1] == pytest.approx(1.0, abs=1e-10)

    def test_explicit_duration_still_checks_omega_01(self):
        # at rabi 1e300 the squared couplings overflow; an explicit
        # duration must not skip the Omega_01 check that rejects it
        dist = np.zeros(N_MAX + 1)
        dist[0] = 1.0
        with pytest.raises(ValidationError, match="pulse.rabi_hz"):
            simulate_sideband_spectrum(dist, np.array([0.0, 1e3]), rabi=1e300, duration=1e-3,
                                       shots_per_point=10, rng=np.random.default_rng(1))

    @pytest.mark.parametrize("include_carrier", [False, True])
    @pytest.mark.parametrize("cooled", [False, True])
    @pytest.mark.parametrize("nbar", [0.0, 0.002, 0.3, 1.0])
    def test_matches_scalar_ladder(self, nbar, cooled, include_carrier):
        # nbar = 0 and the cooled distributions carry zero entries
        dist = thermal_distribution(ThermalSpec(nbar=nbar, n_max=20))
        if cooled:
            dist = remove_one_quantum(dist)
        f_trap = DEFAULT_TRAP.omega_t / (2 * np.pi)
        det = np.concatenate([[-f_trap, 0.0, f_trap], np.linspace(-1.3, 1.3, 53) * f_trap])
        spec = simulate_sideband_spectrum(dist, det, include_carrier=include_carrier)
        ref = scalar_sideband_p_exc(dist, det, include_carrier=include_carrier)
        np.testing.assert_array_equal(spec.p_exc, ref)  # same arithmetic in the same order

    def test_matches_scalar_ladder_with_gaps_and_offset(self):
        dist = np.zeros(N_MAX + 1)
        dist[[1, 2, 5]] = 0.25, 0.5, 0.25
        f_trap = DEFAULT_TRAP.omega_t / (2 * np.pi)
        det = np.arange(-24, 25) / 20 * f_trap  # passes exactly through +/- f_trap
        assert {-f_trap, f_trap} <= set(det)
        for include_carrier in (False, True):
            spec = simulate_sideband_spectrum(
                dist, det, include_carrier=include_carrier, wrong_state_fraction=0.03
            )
            ref = scalar_sideband_p_exc(
                dist, det, include_carrier=include_carrier, wrong_state_fraction=0.03
            )
            np.testing.assert_array_equal(spec.p_exc, ref)  # same arithmetic in the same order

    @pytest.mark.parametrize("include_carrier", [False, True])
    # one level: n_max = 0 and no sideband; population only at n_max: no blue row
    @pytest.mark.parametrize("dist", [[1.0], [0.0, 0.0, 1.0], [0.0] * N_MAX + [1.0],
                                      [0.0] * N_MAX + [0.5, 0.5]],
                             ids=["one-level", "top-of-three", "top", "top-two"])
    def test_matches_scalar_ladder_at_the_ladder_ends(self, dist, include_carrier):
        f_trap = DEFAULT_TRAP.omega_t / (2 * np.pi)
        det = np.concatenate([[-f_trap, 0.0, f_trap], np.linspace(-1.3, 1.3, 27) * f_trap])
        spec = simulate_sideband_spectrum(dist, det, include_carrier=include_carrier)
        ref = scalar_sideband_p_exc(dist, det, include_carrier=include_carrier)
        np.testing.assert_array_equal(spec.p_exc, ref)
        if len(dist) == 1 and not include_carrier:
            np.testing.assert_array_equal(spec.p_exc, 0.0)  # nothing to drive

    @pytest.mark.parametrize("include_carrier", [False, True])
    @pytest.mark.parametrize("dist", [[1.0], [0.0, 0.0, 1.0], [0.25, 0.5, 0.25]])
    def test_empty_detuning_grid_gives_empty_curve(self, dist, include_carrier):
        spec = simulate_sideband_spectrum(dist, np.array([]), include_carrier=include_carrier)
        assert spec.p_exc.shape == spec.detuning_hz.shape == (0,)
        ref = scalar_sideband_p_exc(dist, [], include_carrier=include_carrier)
        np.testing.assert_array_equal(spec.p_exc, ref)

    def test_post_cooling_ratio_against_ladder_oracle(self):
        # exact ladder sum with independently computed matrix elements
        q = 0.5
        n_max = 12
        dist = remove_one_quantum(thermal_distribution(ThermalSpec(nbar=1.0, n_max=n_max)))
        eta, rabi = DEFAULT_TRAP.eta, 2 * np.pi * 2e3
        duration = np.pi / (rabi * abs_d01(eta))
        e_red = sum(
            dist[n] * _oracle_transfer(n, n - 1, eta, rabi, 0.0, duration)
            for n in range(1, n_max + 1)
        )
        e_blue = sum(
            dist[n] * _oracle_transfer(n, n + 1, eta, rabi, 0.0, duration)
            for n in range(n_max)
        )
        r_oracle = e_red / e_blue
        r_model = sideband_peak_ratio(dist)
        assert r_model == pytest.approx(r_oracle, abs=1e-9)
        # leading-order expansion q^2 - q^3 (1 - t12)
        t12 = np.sin(
            sideband_rabi(1, 2, eta, rabi) / sideband_rabi(0, 1, eta, rabi) * np.pi / 2
        ) ** 2
        assert r_model == pytest.approx(q**2 - q**3 * (1 - t12), abs=0.01)

    def test_thermal_ratio_equals_boltzmann_q(self):
        for nbar in (0.1, 0.5, 2.0):
            q = nbar / (nbar + 1)
            dist = thermal_distribution(ThermalSpec(nbar=nbar, n_max=60))
            assert sideband_peak_ratio(dist) == pytest.approx(q, abs=1e-9)

    def test_infinite_shots_reproduces_analytic_curve(self):
        dist = thermal_distribution(ThermalSpec(nbar=0.3, n_max=N_MAX))
        f_trap = DEFAULT_TRAP.omega_t / (2 * np.pi)
        grid = np.linspace(-f_trap - 5e3, -f_trap + 5e3, 21)
        spec = simulate_sideband_spectrum(dist, grid)
        eta, rabi = DEFAULT_TRAP.eta, spec.rabi
        for f, p in zip(grid, spec.p_exc):
            expected = 0.0
            for n in range(N_MAX + 1):
                t = 0.0
                if n < N_MAX:
                    t += _oracle_transfer(
                        n, n + 1, eta, rabi, 2 * np.pi * (f - f_trap), spec.duration
                    )
                if n >= 1:
                    t += _oracle_transfer(
                        n, n - 1, eta, rabi, 2 * np.pi * (f + f_trap), spec.duration
                    )
                expected += dist[n] * min(t, 1.0)
            assert p == pytest.approx(expected, abs=1e-8)

    def test_sampling_statistics(self):
        dist = thermal_distribution(ThermalSpec(nbar=0.5, n_max=N_MAX))
        f_trap = DEFAULT_TRAP.omega_t / (2 * np.pi)
        grid = np.array([f_trap])
        rng = np.random.default_rng(3)
        exact = simulate_sideband_spectrum(dist, grid).p_exc[0]
        sampled = simulate_sideband_spectrum(dist, grid, shots_per_point=5000, rng=rng)
        assert sampled.p_exc[0] == pytest.approx(
            exact, abs=4 * np.sqrt(exact * (1 - exact) / 5000)
        )
        assert sampled.shots[0] == 5000

    def test_wrong_state_offset(self):
        dist = np.zeros(N_MAX + 1)
        dist[0] = 1.0
        far = np.array([200e3])
        spec = simulate_sideband_spectrum(dist, far, wrong_state_fraction=0.07)
        # far off resonance only the offset and a tiny sideband tail remain
        assert spec.p_exc[0] == pytest.approx(0.07, abs=5e-6)


def abs_d01(eta, dim=60):
    return abs(_displacement(eta, dim)[1, 0])
