import json
import os

import numpy as np
import pytest

from tweezersim import analysis, cli
from tweezersim.cli import main, read_shots_csv, read_spectrum_csv
from tweezersim.config import (
    DEFAULT_CONFIG,
    build_imaging,
    build_noise,
    build_protocol,
    build_trap,
    cooling_nbar_list,
    validate_config,
)
from tweezersim.errors import ValidationError


def _write_config(tmp_path, name="cfg.json", **overrides):
    cfg = overrides
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


class TestConfigValidation:
    def test_defaults_validate(self):
        merged = validate_config({})
        assert merged["protocol"]["kind"] == "repeated_readout"

    def test_unknown_key_rejected_with_path(self):
        with pytest.raises(ValidationError, match="protocol.bogus"):
            validate_config({"protocol": {"bogus": 1}})

    def test_builders(self):
        cfg = validate_config(
            {
                "noise": {"trap_frequency": {"kind": "quasi_static", "sigma_hz": 175.0}},
                "imaging": {"target_single_round_fidelity": 0.9},
            }
        )
        trap = build_trap(cfg)
        assert trap.eta == pytest.approx(0.3646, abs=2e-4)
        noise = build_noise(cfg)
        assert noise.trap_frequency.sigma == pytest.approx(2 * np.pi * 175.0)
        imaging = build_imaging(cfg)
        assert imaging.bright_mean > imaging.dark_mean
        pconf = build_protocol(cfg)
        assert pconf.shots == DEFAULT_CONFIG["protocol"]["shots"]

    def test_p0_list_to_nbar(self):
        cfg = validate_config({"protocol": {"p0_list": [0.5, 0.9]}})
        nbars = cooling_nbar_list(cfg)
        assert nbars[0] == pytest.approx(1.0)
        assert nbars[1] == pytest.approx(1.0 / 9.0)

    def test_psd_inline_channel(self):
        cfg = validate_config(
            {
                "noise": {
                    "laser_frequency": {
                        "kind": "psd",
                        "frequencies_hz": [0.0, 1000.0],
                        "values": [1.0, 1.0],
                    }
                }
            }
        )
        noise = build_noise(cfg)
        assert noise.laser_frequency.f_max == 1000.0

    def test_phase_convention_weighting(self):
        cfg = validate_config(
            {
                "noise": {
                    "laser_frequency": {
                        "kind": "psd",
                        "frequencies_hz": [100.0, 1000.0],
                        "values": [1.0, 1.0],
                        "convention": "phase",
                    }
                }
            }
        )
        noise = build_noise(cfg)
        np.testing.assert_allclose(
            noise.laser_frequency.values,
            (2 * np.pi * np.array([100.0, 1000.0])) ** 2,
        )


class TestCliRuns:
    def test_dump_config(self, capsys):
        assert main(["--dump-config"]) == 0
        out = capsys.readouterr().out
        assert json.loads(out)["protocol"]["kind"] == "repeated_readout"

    def test_validation_failure_exit_2(self, tmp_path, capsys):
        path = _write_config(tmp_path, protocol={"shots": 0})
        assert main(["simulate", "--config", path, "--out", str(tmp_path / "o")]) == 2

    def test_unknown_key_exit_2(self, tmp_path):
        path = _write_config(tmp_path, nonsense={"a": 1})
        assert main(["simulate", "--config", path, "--out", str(tmp_path / "o")]) == 2

    def test_missing_config_exit_4(self, tmp_path):
        assert main(["simulate", "--config", str(tmp_path / "nope.json")]) == 4

    def test_simulate_writes_outputs_and_report(self, tmp_path):
        path = _write_config(
            tmp_path,
            seed=3,
            protocol={"kind": "repeated_readout", "shots": 60, "n_cyc": 2},
        )
        out = tmp_path / "out"
        assert main(["simulate", "--config", path, "--out", str(out)]) == 0
        shots = (out / "shots.csv").read_text().splitlines()
        assert shots[0] == "scenario,shot,round,signal,ancilla_label,data_label,data_n,data_lost,aux"
        assert len(shots) == 1 + 60 * 2 * 2
        report = json.loads((out / "report.json").read_text())
        assert report["seed"] == 3
        assert "shots.csv" in report["outputs"]
        # the echoed config re-validates
        assert validate_config(report["config"])["seed"] == 3

    def test_seed_flag_overrides(self, tmp_path):
        path = _write_config(
            tmp_path, seed=1, protocol={"kind": "repeated_readout", "shots": 5, "n_cyc": 1}
        )
        out = tmp_path / "o2"
        assert main(["simulate", "--config", path, "--seed", "99", "--out", str(out)]) == 0
        assert json.loads((out / "report.json").read_text())["seed"] == 99

    @pytest.mark.parametrize(
        "flags, env, name",
        [
            (["--seed", "-3"], {}, "--seed"),
            ([], {"TWEEZERSIM_SEED": "xyz"}, "TWEEZERSIM_SEED"),
            ([], {"TWEEZERSIM_SEED": "-1"}, "TWEEZERSIM_SEED"),
            (["--threads", "0"], {}, "--threads"),
            (["--threads", "-2"], {}, "--threads"),
            ([], {"TWEEZERSIM_THREADS": "0"}, "TWEEZERSIM_THREADS"),
            ([], {"TWEEZERSIM_THREADS": "two"}, "TWEEZERSIM_THREADS"),
        ],
    )
    def test_bad_seed_or_threads_exit_2(self, tmp_path, monkeypatch, capsys, flags, env, name):
        for var in ("TWEEZERSIM_SEED", "TWEEZERSIM_THREADS"):
            monkeypatch.delenv(var, raising=False)
        for var, value in env.items():
            monkeypatch.setenv(var, value)
        path = _write_config(
            tmp_path, protocol={"kind": "repeated_readout", "shots": 5, "n_cyc": 1}
        )
        argv = ["simulate", "--config", path, "--out", str(tmp_path / "o"), *flags]
        assert main(argv) == 2
        assert name in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key, value",
        [
            ("shots", "abc"),
            ("n_cyc", 2.5),
            ("data_nbar", -1),
            ("ancilla_absent_prob", 1.5),
            ("steps_per_pulse", 0),
            ("shots", True),
            ("n_max", 1),
        ],
    )
    def test_bad_protocol_value_exit_2(self, tmp_path, capsys, key, value):
        protocol = {"kind": "repeated_readout", "shots": 5, "n_cyc": 1, key: value}
        path = _write_config(tmp_path, protocol=protocol)
        assert main(["simulate", "--config", path, "--out", str(tmp_path / "o")]) == 2
        assert f"protocol.{key}" in capsys.readouterr().err

    def test_events_zero_without_gate_errors_or_losses(self, tmp_path):
        path = _write_config(
            tmp_path,
            protocol={"kind": "repeated_readout", "shots": 300, "n_cyc": 3,
                      "scenarios": ["present"]},
            gates={"enabled": False},
            imaging={"bright_loss_prob": 0.0, "data_heating_quanta_per_round": 0.0},
        )
        out = tmp_path / "ev0"
        assert main(["simulate", "--config", path, "--out", str(out)]) == 0
        results = json.loads((out / "report.json").read_text())["results"]
        assert results["events"] == {kind: 0 for kind in results["events"]}
        assert len(results["events"]) == 8
        assert "PCG64" in results["rng_scheme"] and "\n" not in results["rng_scheme"]

    def test_events_count_every_leakage(self, tmp_path):
        shots, n_cyc = 200, 3
        path = _write_config(
            tmp_path,
            protocol={"kind": "repeated_readout", "shots": shots, "n_cyc": n_cyc},
            gates={"cz_loss_prob": 1.0, "cz_phase_error_prob": 0.0},
        )
        out = tmp_path / "ev1"
        assert main(["simulate", "--config", path, "--out", str(out)]) == 0
        events = json.loads((out / "report.json").read_text())["results"]["events"]
        leaks = events["cz_leakage_data"] + events["cz_leakage_anc"]
        # one leakage per applied CZ; the absent scenario skips every CZ
        assert leaks + events["cz_skipped"] == 2 * shots * n_cyc
        assert leaks >= shots
        assert events["cz_z_error_data"] == events["cz_z_error_anc"] == 0

    def test_byte_identical_reruns(self, tmp_path):
        path = _write_config(
            tmp_path, seed=21, protocol={"kind": "repeated_readout", "shots": 40, "n_cyc": 2}
        )
        blobs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main(["simulate", "--config", path, "--out", str(out)]) == 0
            blobs.append((out / "shots.csv").read_bytes())
        assert blobs[0] == blobs[1]

    def test_response_command(self, tmp_path):
        path = _write_config(
            tmp_path,
            trap={"eta": 0.36},
            noise={"trap_frequency": {"kind": "quasi_static", "sigma_hz": 175.0}},
            response={"f_min_hz": 10.0, "f_max_hz": 1e4, "points": 9},
        )
        out = tmp_path / "resp"
        assert main(["response", "--config", path, "--out", str(out)]) == 0
        budget = json.loads((out / "budget.json").read_text())
        assert budget["contributions"]["trap_frequency"] == pytest.approx(5.9076e-2, abs=2e-5)
        lines = (out / "response.csv").read_text().splitlines()
        assert lines[0] == "frequency_hz,response_s2"

    def test_response_csv_contains_zero_frequency_value(self, tmp_path):
        # linear grid starting at 0 carries the I(0) = 1/(eta*rabi)^2 row
        path = _write_config(
            tmp_path,
            trap={"eta": 0.36},
            response={"grid_kind": "linear", "f_min_hz": 0.0, "f_max_hz": 100.0, "points": 3},
        )
        out = tmp_path / "resp0"
        assert main(["response", "--config", path, "--out", str(out)]) == 0
        first = (out / "response.csv").read_text().splitlines()[1].split(",")
        w = 0.36 * 2 * np.pi * 2000.0
        assert float(first[0]) == 0.0
        assert float(first[1]) == pytest.approx(1.0 / w**2, rel=1e-12)

    def test_spectrum_fit_roundtrip(self, tmp_path):
        path = _write_config(
            tmp_path,
            seed=8,
            spectrum={"nbar": 0.5, "shots_per_point": 800},
        )
        out = tmp_path / "spec"
        assert main(["spectrum", "--config", path, "--out", str(out)]) == 0
        spec_csv = out / "spectrum.csv"
        spectrum = read_spectrum_csv(str(spec_csv))
        assert spectrum.detuning_hz.size == 22
        fit_cfg = _write_config(
            tmp_path, name="fit.json_cfg", fit={"input_csv": str(spec_csv), "mode": "baseline"}
        )
        fout = tmp_path / "fit"
        assert main(["fit", "--config", fit_cfg, "--out", str(fout)]) == 0
        fit = json.loads((fout / "fit.json").read_text())
        # q = 1/3 for nbar = 0.5
        assert fit["nbar"] == pytest.approx(0.5, abs=0.08)
        assert fit["nonthermal_correction_bound"] > 0

    def test_fit_baseline_fits_once(self, tmp_path, monkeypatch):
        path = _write_config(tmp_path, seed=8, spectrum={"nbar": 0.5, "shots_per_point": 800})
        out = tmp_path / "spec"
        assert main(["spectrum", "--config", path, "--out", str(out)]) == 0
        spectrum = read_spectrum_csv(str(out / "spectrum.csv"))
        est = analysis.temperature_from_spectrum(spectrum)
        calls = []
        for name in ("fit_heating_sideband", "profile_likelihood_cooling_peak"):

            def counted(*args, fn=getattr(analysis, name), name=name):
                calls.append(name)
                return fn(*args)

            monkeypatch.setattr(analysis, name, counted)
            monkeypatch.setattr(cli, name, counted, raising=False)  # a direct import too
        fit_cfg = _write_config(
            tmp_path, name="fitcfg.json", fit={"input_csv": str(out / "spectrum.csv")}
        )
        assert main(["fit", "--config", fit_cfg, "--out", str(tmp_path / "fit")]) == 0
        assert sorted(calls) == ["fit_heating_sideband", "profile_likelihood_cooling_peak"]
        fit = json.loads((tmp_path / "fit" / "fit.json").read_text())
        assert fit["blue_fit"]["height"] == est.blue.height
        assert fit["blue_fit"]["stderr"] == est.blue.stderr.tolist()
        assert fit["cooling_peak"]["a_red"] == est.profile.a_red
        assert fit["cooling_peak"]["ci"][0] == est.profile.ci_lo
        assert fit["nbar"] == est.nbar
        assert fit["ratio_ci"] == list(est.ratio_ci)

    def test_fit_one_sided_interval_on_peakless_spectrum(self, tmp_path):
        path = _write_config(
            tmp_path, seed=9, spectrum={"nbar": 0.0, "shots_per_point": 500}
        )
        out = tmp_path / "spec0"
        assert main(["spectrum", "--config", path, "--out", str(out)]) == 0
        fit_cfg = _write_config(
            tmp_path, name="fit0.json", fit={"input_csv": str(out / "spectrum.csv")}
        )
        fout = tmp_path / "fit0"
        assert main(["fit", "--config", fit_cfg, "--out", str(fout)]) == 0
        fit = json.loads((fout / "fit.json").read_text())
        assert fit["nbar_ci"][0] == 0.0

    def test_detect_command(self, tmp_path):
        sim_cfg = _write_config(
            tmp_path, seed=4, protocol={"kind": "repeated_readout", "shots": 400, "n_cyc": 3}
        )
        out = tmp_path / "sim"
        assert main(["simulate", "--config", sim_cfg, "--out", str(out)]) == 0
        det_cfg = _write_config(
            tmp_path,
            name="det.json",
            protocol={"p1_priors": [0.5]},
            detect={"input_csv": str(out / "shots.csv"), "n_cyc_list": [1, 3]},
        )
        dout = tmp_path / "det"
        assert main(["detect", "--config", det_cfg, "--out", str(dout)]) == 0
        lines = (dout / "detect.csv").read_text().splitlines()
        assert lines[0] == "p1,n_cyc,threshold,fidelity,f1,f0"
        rows = [line.split(",") for line in lines[1:]]
        assert len(rows) == 2
        assert float(rows[1][3]) >= float(rows[0][3]) - 0.02  # F grows with rounds

    def test_cool_command_ideal_column(self, tmp_path):
        path = _write_config(
            tmp_path,
            seed=6,
            protocol={
                "kind": "algorithmic_cooling",
                "shots": 1500,
                "p0_list": [0.3, 0.5, 0.7, 0.9],
            },
            gates={"enabled": False},
        )
        out = tmp_path / "cool"
        assert main(["cool", "--config", path, "--out", str(out)]) == 0
        lines = (out / "cool.csv").read_text().splitlines()
        assert lines[0].startswith("nbar_init,p0_init,p0_ideal,p0_measured")
        ideal = [float(line.split(",")[2]) for line in lines[1:]]
        np.testing.assert_allclose(ideal, [0.51, 0.75, 0.91, 0.99], atol=1e-3)

    def test_phase_calibration_command(self, tmp_path):
        path = _write_config(
            tmp_path,
            protocol={
                "kind": "phase_calibration",
                "analyzer_phases_rad": [0.0, np.pi / 2, np.pi],
            },
            gates={"enabled": False},
        )
        out = tmp_path / "cal"
        assert main(["simulate", "--config", path, "--out", str(out)]) == 0
        lines = (out / "phase_calibration.csv").read_text().splitlines()
        assert lines[0] == "phase_rad,p_down_present,p_down_absent"
        rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
        # present maximal / absent minimal at the calibrated phase pi
        assert rows[2][1] == pytest.approx(1.0, abs=1e-10)
        assert rows[2][2] == pytest.approx(0.0, abs=1e-10)
        report = json.loads((out / "report.json").read_text())
        assert report["results"]["data_state_deviation"] < 1e-10

    def test_loss_detection_writes_fringe(self, tmp_path):
        path = _write_config(
            tmp_path,
            seed=12,
            protocol={
                "kind": "loss_detection",
                "shots": 50,
                "analyzer_phases_rad": [0.0, 1.57, 3.14],
            },
        )
        out = tmp_path / "loss"
        assert main(["simulate", "--config", path, "--out", str(out)]) == 0
        assert (out / "fringe.csv").exists()
        report = json.loads((out / "report.json").read_text())
        assert "detection_fidelity_p1_0.5" in report["results"]

    def test_preset_resolution(self, tmp_path):
        # presets resolve by bare name; cap the shots via a derived config
        import tweezersim.cli as cli

        preset = cli._resolve_config_path("fig4")
        assert os.path.exists(preset)
        cfg = json.loads(open(preset).read())
        assert cfg["protocol"]["kind"] == "algorithmic_cooling"

    def test_readout_preset_single_round_fidelity(self, tmp_path):
        # the repeated-readout preset, trimmed to quick statistics, lands
        # its threshold-optimized single-round F near 0.90
        import tweezersim.cli as cli

        cfg = json.loads(open(cli._resolve_config_path("fig2")).read())
        cfg["protocol"]["shots"] = 4000
        path = tmp_path / "fig2_small.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "preset_out"
        assert main(["simulate", "--config", str(path), "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        f1 = report["results"]["detection"]["0.5"]["1"]["fidelity"]
        assert f1 == pytest.approx(0.90, abs=0.02)

    def test_numerics_error_names_module(self, tmp_path, capsys):
        # a physically impossible step count trips the noise-sampling guard
        path = _write_config(
            tmp_path,
            protocol={
                "kind": "loss_detection",
                "shots": 2,
                "steps_per_pulse": 3,
                "analyzer_phases_rad": [0.0],
            },
            noise={"laser_frequency": {"kind": "psd",
                                       "frequencies_hz": [0.0, 100e3],
                                       "values": [1.0, 1.0]}},
        )
        code = main(["simulate", "--config", path, "--out", str(tmp_path / "o")])
        assert code == 2  # dt too coarse for the PSD content is a config problem

    def test_step_size_error_names_config_key(self, tmp_path, capsys):
        # three steps per shelving pulse are far too coarse for the drive
        path = _write_config(
            tmp_path,
            protocol={
                "kind": "loss_detection",
                "shots": 2,
                "steps_per_pulse": 3,
                "analyzer_phases_rad": [0.0],
            },
            noise={"trap_frequency": {"kind": "quasi_static", "sigma_hz": 1.0}},
        )
        code = main(["simulate", "--config", path, "--out", str(tmp_path / "o")])
        assert code == 3
        err = capsys.readouterr().err
        assert "StepSizeError" in err
        assert "increase protocol.steps_per_pulse (now 3)" in err

    def test_read_shots_csv_roundtrip(self, tmp_path):
        path = _write_config(
            tmp_path, seed=13, protocol={"kind": "repeated_readout", "shots": 20, "n_cyc": 2}
        )
        out = tmp_path / "rt"
        assert main(["simulate", "--config", path, "--out", str(out)]) == 0
        matrices = read_shots_csv(str(out / "shots.csv"))
        assert matrices["present"].shape == (20, 2)
        assert matrices["absent"].shape == (20, 2)
