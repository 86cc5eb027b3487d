import hashlib
import itertools
import json
import math
import os
import subprocess
import sys
import threading

import numpy as np
import pytest
from conftest import preset_config
from hypothesis import given, settings
from hypothesis import strategies as st

import tweezersim
from tweezersim import analysis, cli, config
from tweezersim.cli import main, read_shots_csv, read_spectrum_csv
from tweezersim.config import (
    DEFAULT_CONFIG,
    build_imaging,
    build_noise,
    build_protocol,
    build_trap,
    cooling_nbar_list,
    dump_default_config,
    load_config,
    validate_config,
)
from tweezersim.errors import ValidationError
from tweezersim.protocols import ShotTable
from tweezersim.response import amplitude_response_closed_form, response_closed_form


def _write_config(tmp_path, name="cfg.json", **overrides):
    cfg = overrides
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def _bad_value(rule):
    """A value that breaks the rule: a string where a number, flag or
    choice belongs, a number where a string or an object belongs, and an
    empty list where a list belongs."""
    if isinstance(rule, list):
        return []
    return 5 if rule in (str, dict) else "x"


#: One bad value per key of the table; a noise channel's keys are set on
#: laser_frequency.
_TABLE_CASES = [
    pytest.param(name, _bad_value(rule), id=f"{name}-rule")
    for name, rule in ((k.replace("*", "laser_frequency"), r) for k, (_, r) in config._KEYS.items())
]


#: Each key that `spectrum` reads with the edge values of its rule: an
#: interval's for a float, small and large counts for an int.
_SPECTRUM_EDGES = [
    (key, value)
    for key, (_, rule) in config._KEYS.items()
    if key in ("seed", "protocol.n_max") or key.split(".")[0] in ("trap", "pulse", "spectrum")
    for value in ((0, 5e-324, 1e-9, 1, 1e6, 1e300) if isinstance(rule, str)
                  else (1, 2, 50) if isinstance(rule, tuple) and rule[0] == "int" else ())
]

_PROB_EDGES = (0, 5e-324, 1e-9, 0.5, 0.999999, 1)
#: gate and ancilla keys at their edges; the two CZ branch probabilities
#: must sum to at most 1, so the other one is held at 0
_GATE_EDGES = [
    *[(f"gates.{key}", value) for key in ("cz_phase_error_prob", "cz_loss_prob") for value in _PROB_EDGES],
    *[("gates.sq_over_rotation_sigma_rad", value) for value in (0, 5e-324, 1e-9, 1, 1e6, 1e300)],
    *[("gates.per_gate_jitter", value) for value in (False, True)],
    *[("protocol.ancilla_absent_prob", value) for value in _PROB_EDGES],
]


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

    def test_table_defaults_and_presets_validate(self):
        for key, (default, _) in config._KEYS.items():
            if default is not None:
                assert config._check(key, default) is default
        assert validate_config(json.loads(dump_default_config())) == DEFAULT_CONFIG
        presets = os.path.join(os.path.dirname(cli.__file__), "presets")
        for name in ("fig2", "fig3", "fig4"):
            with open(os.path.join(presets, name + ".json")) as fh:
                validate_config(json.load(fh))

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

    def test_psd_csv_read_at_load(self, tmp_path):
        (tmp_path / "psd.csv").write_text("f_hz,s\n100,2\n1000,3\n")
        raw = {"noise": {"laser_frequency": {"kind": "psd", "csv": "psd.csv", "convention": "phase"}}}
        cfg = load_config(_write_config(tmp_path, **raw))
        psd = cfg["_noise"].laser_frequency
        np.testing.assert_allclose(psd.values, (2 * np.pi * np.array([100.0, 1000.0])) ** 2 * [2, 3])
        assert build_noise(cfg).laser_frequency is psd
        # a config that did not come from a file reads the csv when built
        built = build_noise(validate_config(raw), str(tmp_path)).laser_frequency
        np.testing.assert_array_equal(built.values, psd.values)

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


@pytest.fixture(scope="module")
def cli_import_modules():
    """Modules a fresh interpreter holds after `import tweezersim.cli`."""
    src = os.path.dirname(os.path.dirname(tweezersim.__file__))
    code = "import sys, tweezersim.cli; print(' '.join(sys.modules))"
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    return set(out.stdout.split())


def _edit_row(lines, change, row=5):
    """The CSV lines with one data row changed."""
    return [*lines[:row], change(lines[row]), *lines[row + 1 :]]


@pytest.fixture(scope="module")
def csv_inputs(tmp_path_factory):
    """The text of a spectrum.csv (for fit) and a fig2-style shots.csv (for detect)."""
    tmp = tmp_path_factory.mktemp("csv_inputs")
    spec = _write_config(tmp, name="spec.json", seed=3)
    sim = _write_config(tmp, name="sim.json", seed=21,
                        protocol={"kind": "repeated_readout", "shots": 40, "n_cyc": 2})
    assert main(["spectrum", "--config", spec, "--out", str(tmp / "spec")]) == 0
    assert main(["simulate", "--config", sim, "--out", str(tmp / "sim")]) == 0
    return {"fit": (tmp / "spec" / "spectrum.csv").read_text(),
            "detect": (tmp / "sim" / "shots.csv").read_text()}


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

    def test_unreachable_imaging_target_exit_2(self, tmp_path, capsys):
        # unequal widths: zero separation already beats F = 0.6
        path = _write_config(
            tmp_path,
            imaging={"bright_std": 10, "target_single_round_fidelity": 0.6},
            protocol={"kind": "repeated_readout", "shots": 5, "n_cyc": 1},
        )
        assert main(["simulate", "--config", path, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: imaging.target_single_round_fidelity:")
        assert "out of reach" in err and "Traceback" not in err

    def test_missing_config_exit_4(self, tmp_path):
        assert main(["simulate", "--config", str(tmp_path / "nope.json")]) == 4

    @pytest.mark.parametrize("command", ["simulate", "spectrum", "fit", "detect"])
    def test_missing_psd_csv_exit_4_names_key(self, tmp_path, capsys, command):
        # every subcommand reads a psd channel's csv file at load
        path = _write_config(tmp_path, noise={"laser_frequency": {"kind": "psd", "csv": "nope.csv"}})
        assert main([command, "--config", path, "--out", str(tmp_path / "o")]) == 4
        assert "noise.laser_frequency.csv" in capsys.readouterr().err

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
            ("data_nbar", 1e300),  # nbar / (nbar + 1) rounds to 1
        ],
    )
    def test_bad_protocol_value_exit_2(self, tmp_path, capsys, key, value):
        protocol = {"kind": "repeated_readout", "shots": 5, "n_cyc": 1, key: value}
        path = _write_config(tmp_path, protocol=protocol)
        assert main(["simulate", "--config", path, "--out", str(tmp_path / "o")]) == 2
        assert f"protocol.{key}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key, value",
        [
            ("gates.enabled", "yes"),
            ("gates.cz_phase_error_prob", -0.1),
            ("gates.cz_loss_prob", "x"),
            ("gates.sq_over_rotation_sigma_rad", -1),
            ("gates.per_gate_jitter", 1),
            ("imaging.target_single_round_fidelity", 2),
            ("imaging.target_single_round_fidelity", 0.5),
            ("imaging.bright_mean", "high"),
            ("imaging.bright_mean", -1.0),
            ("imaging.dark_mean", None),
            ("imaging.bright_std", 0),
            ("imaging.dark_std", "1"),
            # past these the threshold quadratic divides by 0 or overflows
            ("imaging.bright_std", 5e-324),
            ("imaging.dark_std", 1e300),
            ("imaging.dark_mean", 1e300),
            # inside their rules, but the calibrated bright mean cannot be
            # resolved: a bright peak this narrow, a separation that rounds away
            ("imaging.bright_std", 1e-30),
            ("imaging.dark_std", 1e30),
            ("imaging.dark_mean", 1e30),
            ("imaging.bright_loss_prob", 1.5),
            ("imaging.unshelved_loss_prob", True),
            ("imaging.data_heating_quanta_per_round", -0.01),
            ("trap.frequency_hz", 0),
            ("trap.mass_amu", "88"),
            ("trap.wavelength_nm", -698.0),
            ("trap.frequency_hz", 5e-324),  # 2 m omega underflows to 0 in SI units
            ("trap.wavelength_nm", 5e-324),
            ("trap.eta", "x"),
            ("trap.eta", 0.0),
            ("pulse.rabi_hz", "x"),
            ("pulse.rabi_hz", -5),
            ("noise.trap_frequency.sigma_hz", "x"),
            ("noise.laser_amplitude.sigma_hz", -1.0),
            ("noise.laser_frequency.sigma_hz", float("inf")),
            ("noise.trap_frequency", 5),
            ("noise.laser_frequency.convention", None),
            ("noise.laser_frequency.frequencies_hz", "x"),
            ("noise.laser_frequency", {"kind": "psd", "frequencies_hz": [0.0], "values": [1.0]}),
            ("noise.laser_frequency", {"kind": "psd", "frequencies_hz": [1.0, 0.0],
                                       "values": [1.0, 1.0]}),
            ("noise.laser_frequency", {"kind": "psd"}),
            ("noise.trap_frequency", {"kind": "psd", "convention": "phase",
                                      "frequencies_hz": [0.0, 1.0], "values": [1.0, 1.0]}),
            ("noise.laser_amplitude", {"kind": "psd", "convention": "phase", "csv": "psd.csv"}),
            ("noise.laser_frequency", {"kind": "psd", "frequencies_hz": [0.0, 1.0]}),
            ("noise.laser_frequency", {"kind": "psd", "values": [1.0, 1.0]}),
            ("noise.laser_frequency", {"kind": "psd", "frequencies_hz": [0.0, 1.0, 2.0],
                                       "values": [1.0, 1.0]}),
            ("noise.laser_frequency", {"kind": "psd", "frequencies_hz": [1.0, 1.0],
                                       "values": [1.0, 1.0]}),
            ("noise.laser_frequency", {"kind": "psd", "frequencies_hz": [0.0, 1.0],
                                       "values": [1.0, -1.0]}),
            ("noise.laser_frequency", {"kind": "psd", "csv": "psd_descending.csv"}),
            ("seed", "x"),
            ("seed", -1),
            ("seed", 1.5),
            ("protocol.nbar_list", [-1]),
            ("protocol.p0_list", [0.0]),
            ("protocol.ideal_cooling_rsb", "x"),
            ("protocol.scenarios", []),
            ("protocol.scenarios", ["both"]),
            ("protocol.analyzer_phases_rad", []),
            ("protocol.data_psi", "sideways"),
            ("response.method", "numeric"),  # removed: one closed form serves every duration
            ("response.f_min_hz", -1),
            ("response.points", 0),
            ("spectrum.points_per_side", 0),
            ("spectrum.shots_per_point", 0),
            ("spectrum.shots_per_point", 1.5),
            ("spectrum.after_cooling", "x"),
            ("detect.input_csv", 5),
            # cross-key rules
            ("gates.cz_phase_error_prob", 0.999),
            ("response.f_min_hz", 0.0),  # on the default log grid
            ("response.f_min_hz", 1e4),  # not below f_max_hz
            # input CSVs of the wrong shape, written by the test
            ("detect.input_csv", "no_scenario.csv"),
            ("fit.input_csv", "shots.csv"),
            # past these the thermal populations or the detuned transfers are nan
            ("spectrum.nbar", 1e16),
            ("spectrum.nbar", 1e300),
            ("spectrum.detuning_span_hz", 1e300),
            ("spectrum.detuning_span_hz", 1e308),
            *_TABLE_CASES,
        ],
    )
    def test_bad_gates_or_imaging_value_exit_2(self, tmp_path, capsys, key, value):
        (tmp_path / "no_scenario.csv").write_text("shot,round,signal\n0,0,1.5\n")
        (tmp_path / "shots.csv").write_text(
            ",".join(cli.SHOT_HEADER) + "\npresent,0,0,1.5,up,up,0,0,\n"
        )
        (tmp_path / "psd.csv").write_text("0,1\n1,1\n")
        (tmp_path / "psd_descending.csv").write_text("1,1\n0,1\n")
        cfg = {"protocol": {"kind": "repeated_readout", "shots": 5, "n_cyc": 1}}
        *sections, name = key.split(".")
        node = cfg
        for section in sections:
            node = node.setdefault(section, {})
        node[name] = value
        path = _write_config(tmp_path, **cfg)
        command = sections[0] if sections and sections[0] in ("fit", "detect") else "simulate"
        assert main([command, "--config", path, "--out", str(tmp_path / "o")]) == 2
        assert key in capsys.readouterr().err
        if key.startswith(("noise.", "spectrum.")):
            assert main(["spectrum", "--config", path, "--out", str(tmp_path / "s")]) == 2
            assert key in capsys.readouterr().err

    def test_detect_n_cyc_beyond_recorded_rounds_exit_2(self, tmp_path, capsys):
        sim_cfg = _write_config(
            tmp_path, protocol={"kind": "repeated_readout", "shots": 5, "n_cyc": 1}
        )
        assert main(["simulate", "--config", sim_cfg, "--out", str(tmp_path / "sim")]) == 0
        det_cfg = _write_config(
            tmp_path, name="det.json",
            detect={"input_csv": str(tmp_path / "sim" / "shots.csv"), "n_cyc_list": [1, 9]},
        )
        assert main(["detect", "--config", det_cfg, "--out", str(tmp_path / "det")]) == 2
        assert "detect.n_cyc_list: n = 9 outside the recorded round count 1" in (
            capsys.readouterr().err
        )

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

    @pytest.mark.parametrize("channel", ["trap_frequency", "laser_amplitude"])
    def test_response_off_the_pi_time_is_the_closed_form(self, tmp_path, channel):
        path = _write_config(tmp_path, response={"channel": channel, "duration_s": 0.0005,
                                                 "f_max_hz": 2000.0, "points": 9})
        out = tmp_path / "resp"
        assert main(["response", "--config", path, "--out", str(out)]) == 0
        assert "method" not in json.loads((out / "budget.json").read_text())
        freqs, values = np.loadtxt(out / "response.csv", delimiter=",", skiprows=1).T
        eta, rabi = build_trap(validate_config({})).eta, config.TWO_PI * 2000.0
        form = amplitude_response_closed_form if channel == "laser_amplitude" else response_closed_form
        np.testing.assert_array_equal(values, form(freqs, eta, rabi, 0.0005))

    def test_quasi_static_chi_uses_the_response_duration(self, tmp_path):
        # off the pi time chi is sigma^2 I(0) at the configured duration,
        # not the pi-time 1/(eta rabi)^2
        path = _write_config(tmp_path,
                             noise={"trap_frequency": {"kind": "quasi_static", "sigma_hz": 50.0}},
                             response={"duration_s": 0.0005, "points": 9})
        out = tmp_path / "resp"
        assert main(["response", "--config", path, "--out", str(out)]) == 0
        budget = json.loads((out / "budget.json").read_text())
        eta, rabi = build_trap(validate_config({})).eta, config.TWO_PI * 2000.0
        i0 = response_closed_form(0.0, eta, rabi, 0.0005)
        assert budget["contributions"]["trap_frequency"] == (config.TWO_PI * 50.0) ** 2 * i0
        w = eta * rabi
        assert i0 == pytest.approx(0.25 * ((1 - math.cos(w * 0.0005)) / w) ** 2, rel=1e-9)

    @pytest.mark.parametrize("channel", ["trap_frequency", "laser_amplitude"])
    # 0, 1e3 and 1e12 are the edges of the response.* intervals
    @pytest.mark.parametrize("value", [0, 5e-324, 1e-300, 1e-9, 0.999999, 1, 1e3, 1e6, 1e12,
                                       1e300, 1e308])
    @pytest.mark.parametrize("key", ["response.duration_s", "response.f_min_hz",
                                     "response.f_max_hz", "pulse.rabi_hz",
                                     "noise.trap_frequency.sigma_hz",
                                     "noise.laser_amplitude.sigma_hz",
                                     "trap.frequency_hz", "trap.eta"])
    def test_response_input_extremes_exit_cleanly(self, tmp_path, capsys, key, value, channel):
        # a value either runs and writes only finite numbers, or exits 2
        # naming its key and writing nothing, or 3; never with a traceback
        cfg = {"response": {"points": 3, "channel": channel}}
        *sections, name = key.split(".")
        node = cfg
        for section in sections:
            node = node.setdefault(section, {})
        node[name] = value
        path = _write_config(tmp_path, **cfg)
        code = main(["response", "--config", path, "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code in (0, 2, 3), err
        assert "Traceback" not in err
        if code == 2:
            assert key in err
            if key == "response.duration_s":
                assert "grid" not in err
            assert not (tmp_path / "o" / "response.csv").exists()
        if code == 0:
            table = np.loadtxt(tmp_path / "o" / "response.csv", delimiter=",", skiprows=1)
            assert np.isfinite(table).all()
            # json writes inf and nan as the constants Infinity and NaN
            json.loads((tmp_path / "o" / "budget.json").read_text(),
                       parse_constant=lambda name: pytest.fail(f"budget.json holds {name}"))

    def test_response_past_the_eta_times_duration_bound_exits_2(self, tmp_path, capsys):
        # I(0) = (eta T / 2)^2 ~ 2.4e600 on the amplitude channel at eta
        # 1e150 and the pi time of w ~ 1e-150: no float holds it, so the
        # query is rejected before any closed form runs (and overflows)
        path = _write_config(tmp_path, trap={"eta": 1e150}, pulse={"rabi_hz": 1.6e-301},
                             response={"channel": "laser_amplitude", "grid_kind": "linear",
                                       "f_min_hz": 0})
        assert main(["response", "--config", path, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: trap.eta and pulse.rabi_hz: duration = ")  # the pi time
        assert "eta * duration" in err and err.count("\n") == 1
        assert not (tmp_path / "o" / "response.csv").exists()

    @pytest.mark.parametrize("cfg, keys", [
        # linspace repeats a frequency between adjacent floats
        ({"response": {"grid_kind": "linear", "f_min_hz": 1.0, "f_max_hz": 1.0000000000000002, "points": 50}},
         "response.f_min_hz, response.f_max_hz, response.points and response.grid_kind: frequency grid"),
        ({"trap": {"eta": 0.36}, "pulse": {"rabi_hz": 1e-300}}, "trap.eta and pulse.rabi_hz: eta = "),
        # eta * duration = 1e153 s
        ({"trap": {"eta": 1e150}, "pulse": {"rabi_hz": 1e-151}, "response": {"duration_s": 1e3}},
         "response.duration_s: duration = "),
    ], ids=["grid", "eta_rabi", "duration"])
    def test_response_query_error_names_the_keys_at_fault(self, tmp_path, capsys, cfg, keys):
        path = _write_config(tmp_path, **cfg)
        assert main(["response", "--config", path, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {keys}") and err.count("\n") == 1
        assert not (tmp_path / "o" / "response.csv").exists()

    @pytest.mark.parametrize(
        "key, value, command",
        [
            *[("trap.eta", value, command) for value in (1e6, 1e300)
              for command in ("spectrum", "simulate", "cool", "fit")],
            *[(key, value, "spectrum") for key, values in (
                ("trap.frequency_hz", (1e-9, 0.999999, 1, 1e300)),
                ("trap.mass_amu", (1e-9,)),
                ("trap.wavelength_nm", (1e-9, 0.999999, 1)),
                ("trap.eta", (5e-324,)),
                ("pulse.rabi_hz", (5e-324, 1e300)),
            ) for value in values],
        ],
    )
    def test_sideband_rabi_extremes_exit_2(self, tmp_path, capsys, key, value, command):
        # a trap or drive whose Omega_01 underflows to 0, or whose pi time,
        # couplings or sideband detunings overflow, exits 2 naming the key
        cfg = {"simulate": preset_config("fig3", shots=16), "cool": preset_config("fig4", shots=16),
               "spectrum": {"spectrum": {"shots_per_point": 16}}}.get(command, {})
        section, name = key.split(".")
        cfg.setdefault(section, {})[name] = value
        if command == "fit":
            (tmp_path / "spectrum.csv").write_text("detuning_hz,p_exc,stderr,shots\n35000,0.5,0.1,16\n")
            cfg["fit"] = {"input_csv": "spectrum.csv"}
        path = _write_config(tmp_path, **cfg)
        assert main([command, "--config", path, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert key in err and "Traceback" not in err

    @settings(max_examples=60, deadline=None)
    @given(edge=st.sampled_from(_SPECTRUM_EDGES))
    def test_spectrum_then_fit_at_rule_edges_never_traceback(self, tmp_path_factory, edge):
        # an exception escaping main() would be exit 1 with a traceback
        key, value = edge
        tmp = tmp_path_factory.mktemp("edge")
        cfg = {"spectrum": {"shots_per_point": 16}}
        if "." in key:
            section, name = key.split(".")
            cfg.setdefault(section, {})[name] = value
        else:
            cfg[key] = value
        path = _write_config(tmp, name="spectrum.json", **cfg)
        code = main(["spectrum", "--config", path, "--out", str(tmp / "o")])
        assert code in (0, 2, 3), key
        if code == 0:
            path = _write_config(tmp, name="fit.json", **cfg, fit={"input_csv": "o/spectrum.csv"})
            assert main(["fit", "--config", path, "--out", str(tmp / "o")]) in (0, 2, 3), key

    @pytest.mark.parametrize("key, value", _GATE_EDGES)
    def test_gate_keys_at_edges_never_traceback(self, tmp_path, capsys, key, value):
        # at cz_loss_prob 1 every pair leaks in its first CZ; an exception
        # escaping main() would be exit 1 with a traceback
        section, name = key.split(".")
        for (command, preset), rsb in itertools.product(
                (("simulate", "fig2"), ("simulate", "fig3"), ("simulate", "fig4"), ("cool", "fig4")),
                (True, False)):
            cfg = preset_config(preset, shots=16, ideal_cooling_rsb=rsb)
            if name.startswith("cz_"):
                cfg["gates"] = {"cz_phase_error_prob": 0.0, "cz_loss_prob": 0.0}
            cfg.setdefault(section, {})[name] = value
            path = _write_config(tmp_path, **cfg)
            code = main([command, "--config", path, "--out", str(tmp_path / "o")])
            assert code in (0, 2, 3), (command, preset, rsb)
            assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("module", ["scipy", "scipy.stats", "scipy.optimize", "scipy.linalg"])
    def test_import_leaves_module_unloaded(self, cli_import_modules, module):
        # each of these adds ~0.15 s or more to the start-up of every run
        assert module not in cli_import_modules

    def test_commands_leave_scipy_unloaded(self, tmp_path):
        # a fresh interpreter runs every subcommand (simulate calibrates the
        # imaging, which root-finds) and still holds no scipy module
        runs = [
            ("simulate", "sim", preset_config("fig2", shots=8)),
            ("spectrum", "spec", {"spectrum": {"points_per_side": 7}}),
            ("fit", "fit", {"fit": {"input_csv": "spec/spectrum.csv"}}),
            ("detect", "det", {"detect": {"input_csv": "sim/shots.csv", "n_cyc_list": [1, 2]}}),
            ("cool", "cool", preset_config("fig4", shots=8)),
            ("response", "resp", {"response": {"points": 20}}),
        ]
        argvs = [
            [command, "--config", _write_config(tmp_path, f"{out}.json", **cfg),
             "--seed", "5", "--out", str(tmp_path / out)]
            for command, out, cfg in runs
        ]
        code = (
            "import sys\n"
            "from tweezersim.cli import main\n"
            f"for argv in {argvs!r}:\n"
            "    assert main(argv) == 0, argv\n"
            "print('loaded:', *sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        )
        src = os.path.dirname(os.path.dirname(tweezersim.__file__))
        env = {**os.environ, "PYTHONPATH": src}
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, timeout=300, cwd=tmp_path)
        assert out.returncode == 0, out.stderr
        assert out.stdout.splitlines()[-1] == "loaded:"

    def test_main_reuses_one_parser(self, tmp_path, monkeypatch):
        # two commands in one process each parse their own flags
        monkeypatch.setattr(cli, "build_parser", None)  # main must not rebuild it
        spec_cfg = _write_config(tmp_path, seed=1, spectrum={"nbar": 0.3})
        spec_out = tmp_path / "spec"
        assert main(["spectrum", "--config", spec_cfg, "--seed", "4", "--out", str(spec_out)]) == 0
        fit_cfg = _write_config(
            tmp_path, name="fitcfg.json", seed=11,
            fit={"input_csv": str(spec_out / "spectrum.csv")},
        )
        fit_out = tmp_path / "fit"
        assert main(["fit", "--config", fit_cfg, "--out", str(fit_out)]) == 0
        spec_report = json.loads((spec_out / "report.json").read_text())
        fit_report = json.loads((fit_out / "report.json").read_text())
        assert (spec_report["command"], spec_report["seed"]) == ("spectrum", 4)
        assert (fit_report["command"], fit_report["seed"]) == ("fit", 11)
        assert (fit_out / "fit.json").exists() and not (spec_out / "fit.json").exists()

    def test_fit_step_cap_exits_3(self, tmp_path, monkeypatch, capsys):
        path = _write_config(tmp_path, seed=8, spectrum={"nbar": 0.3, "shots_per_point": 400})
        out = tmp_path / "spec"
        assert main(["spectrum", "--config", path, "--out", str(out)]) == 0
        monkeypatch.setattr(analysis, "MAX_POLISH_STEPS", 1)
        for mode in ("baseline", "cooled"):
            fit_cfg = _write_config(
                tmp_path, name=f"{mode}.json",
                fit={"input_csv": str(out / "spectrum.csv"), "mode": mode},
            )
            capsys.readouterr()
            assert main(["fit", "--config", fit_cfg, "--out", str(tmp_path / mode)]) == 3
            assert "did not converge within 1 steps" in capsys.readouterr().err

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

    @pytest.mark.parametrize("command", ["cool", "simulate"])
    @pytest.mark.parametrize("data_psi", ["up", "plus"])
    def test_cooling_start_state_other_than_down_exits_2(self, tmp_path, capsys, command, data_psi):
        # the circuit starts the data atom in down; a null data_psi means down
        path = _write_config(tmp_path, protocol={
            "kind": "algorithmic_cooling", "shots": 200, "data_psi": data_psi, "p0_list": [0.5],
        })
        assert main([command, "--config", path, "--seed", "5", "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "protocol.data_psi" in err and "Traceback" not in err

    @pytest.mark.parametrize("data_psi", ["down", "plus"])
    def test_phase_calibration_start_state_other_than_up_exits_2(self, tmp_path, capsys, data_psi):
        # the scan is built for a data atom in up; a null data_psi means up
        path = _write_config(tmp_path, protocol={"kind": "phase_calibration", "data_psi": data_psi})
        assert main(["simulate", "--config", path, "--seed", "5", "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "protocol.data_psi" in err and "Traceback" not in err

    @pytest.mark.parametrize("data_psi", ["up", None])
    def test_phase_calibration_up_or_null_keeps_its_bytes(self, tmp_path, data_psi):
        path = _write_config(tmp_path, protocol={"kind": "phase_calibration", "data_psi": data_psi},
                             gates={"enabled": False})
        out = tmp_path / "o"
        assert main(["simulate", "--config", path, "--seed", "5", "--out", str(out)]) == 0
        digest = hashlib.sha256((out / "phase_calibration.csv").read_bytes()).hexdigest()
        assert digest == "04b7452de9a184e9b47894b3bcce68539e292b0d84f09ac42f24983302cdc54b"

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
        # three steps per shelving pulse are far too coarse for the drive;
        # a PSD channel keeps H time-dependent, so the step bound applies
        path = _write_config(
            tmp_path,
            protocol={
                "kind": "loss_detection",
                "shots": 2,
                "steps_per_pulse": 3,
                "analyzer_phases_rad": [0.0],
            },
            noise={"laser_frequency": {"kind": "psd", "frequencies_hz": [0.0, 100.0],
                                       "values": [1.0, 1.0]}},
        )
        code = main(["simulate", "--config", path, "--out", str(tmp_path / "o")])
        assert code == 3
        err = capsys.readouterr().err
        assert "StepSizeError" in err
        assert "increase protocol.steps_per_pulse (now 3)" in err

    def test_truncation_error_names_config_key(self, tmp_path, capsys):
        # a data atom this hot sits at the top of the Fock ladder, so the
        # shelving pulse would couple its population past n_max
        path = _write_config(tmp_path, **preset_config("fig3", shots=16, data_nbar=1e6))
        code = main(["simulate", "--config", path, "--out", str(tmp_path / "o")])
        assert code == 3
        err = capsys.readouterr().err
        assert "TruncationError" in err
        assert err.rstrip().endswith("; increase protocol.n_max (now 12)")

    def test_read_shots_csv_roundtrip(self, tmp_path):
        path = _write_config(
            tmp_path, seed=13, protocol={"kind": "repeated_readout", "shots": 20, "n_cyc": 2}
        )
        out = tmp_path / "rt"
        assert main(["simulate", "--config", path, "--out", str(out)]) == 0
        matrices = read_shots_csv(str(out / "shots.csv"))
        assert matrices["present"].shape == (20, 2)
        assert matrices["absent"].shape == (20, 2)


def _reference_cell(value) -> str:
    """The per-cell formatter the columnar writer replaced: floats at 17
    significant digits, nan as `nan`, None as an empty cell."""
    if value is None:
        return ""
    if isinstance(value, float):
        return "nan" if math.isnan(value) else "%.17g" % value
    if isinstance(value, np.floating):
        return "%.17g" % float(value)
    return str(value)


def _reference_csv(header, rows) -> bytes:
    lines = [",".join(header)] + [",".join(map(_reference_cell, row)) for row in rows]
    return ("\n".join(lines) + "\n").encode()


def _reference_shot_rows(table):
    """One row per shot per round, as the row-at-a-time writer built them."""
    aux = [""] * len(table.shot) if table.aux is None else table.aux.tolist()
    data_n = [None if n < 0 else n for n in table.data_n.tolist()]
    rows = zip(
        table.scenario.tolist(), table.shot.tolist(), table.signals.tolist(),
        table.ancilla_labels.tolist(), table.data_label.tolist(), data_n,
        table.data_lost.tolist(), aux,
    )
    for scenario, shot, sig, lab, data_label, n, lost, extra in rows:
        for rnd, (signal, label) in enumerate(zip(sig, lab)):
            yield (scenario, shot, rnd, signal, label, data_label, n, int(lost), extra)


def _random_table(seed, shots, rounds, aux_kind):
    rng = np.random.default_rng(seed)
    signals = rng.normal(size=(shots, rounds)) * 10.0 ** rng.integers(-8, 9, (shots, rounds))
    signals[rng.random((shots, rounds)) < 0.2] = np.nan
    signals.flat[:3] = [0.1, -0.0, np.inf][: signals.size]
    data_n = rng.integers(-1, 15, shots)
    aux = {
        None: None,
        "float": rng.choice([0.0, np.pi / 2, 1e-300, -2.5], shots),
        "int": rng.integers(0, 30, shots),
    }[aux_kind]
    return ShotTable(
        scenario=rng.choice(["present", "absent"], shots),
        shot=np.arange(shots),
        signals=signals,
        ancilla_labels=rng.choice(["up", "down", "lost"], (shots, rounds)),
        data_label=rng.choice(["up", "down", "lost"], shots),
        data_n=data_n,
        data_lost=data_n < 0,
        aux=aux,
    )


class TestCsvIO:
    @pytest.mark.parametrize("aux_kind", [None, "float", "int"])
    @pytest.mark.parametrize("shots, rounds", [(0, 2), (7, 1), (1500, 3)])
    def test_shot_csv_matches_row_writer(self, tmp_path, shots, rounds, aux_kind):
        table = _random_table(shots + rounds, shots, rounds, aux_kind)
        if shots == 1500:  # more rows than one write block
            assert shots * rounds > cli.WRITE_BLOCK_ROWS
        path = tmp_path / "shots.csv"
        cli.write_csv(path, cli.SHOT_HEADER, cli.shot_columns(table))
        assert path.read_bytes() == _reference_csv(cli.SHOT_HEADER, _reference_shot_rows(table))

    def test_mixed_columns_match_row_writer(self, tmp_path):
        rows = [
            (0.5, 1, "a", np.float64(0.1), float("nan"), 10000),
            (1, 2, "bb", np.float64(-1e-300), float("inf"), 3),
            (0.9, 3, "", np.float64(2.0 / 3.0), 0.0, 0),
        ]
        header = ["p1", "n", "label", "x", "y", "shots"]
        path = tmp_path / "mixed.csv"
        cli.write_csv(path, header, zip(*rows))
        assert path.read_bytes() == _reference_csv(header, rows)

    def test_reader_inverts_writer_in_any_row_order(self, tmp_path):
        table = _random_table(3, 1500, 3, None)
        table.signals[~np.isfinite(table.signals)] = 0.5  # the reader rejects non-finite ones
        path = tmp_path / "shots.csv"
        cli.write_csv(path, cli.SHOT_HEADER, cli.shot_columns(table))
        header, *lines = path.read_text().splitlines(keepends=True)
        np.random.default_rng(4).shuffle(lines)
        shuffled = tmp_path / "shuffled.csv"
        shuffled.write_text(header + "".join(lines))
        for source in (path, shuffled):
            matrices = read_shots_csv(str(source))
            assert sorted(matrices) == ["absent", "present"]
            for name, matrix in matrices.items():
                np.testing.assert_array_equal(matrix, table.signals[table.scenario == name])

    @pytest.mark.parametrize(
        "rows, reason",
        [
            (["present,1,0,1.5,up,up,0,0"], "line 4 has 8 cells, the header has 9"),
            (["present,0,0,2.5,up,up,0,0,"], "not one per (scenario, shot, round)"),
            (["present,1,1,2.5,up,up,0,0,"], "not one per (scenario, shot, round)"),
            (["present,1,0,nan,up,up,0,0,"], "non-finite signal"),
            (["present,99999999999999999999,0,1.5,up,up,0,0,"],
             "line 4, column shot: '99999999999999999999' is not a 64-bit integer"),
            (["present,1,99999999999999999999,1.5,up,up,0,0,"],
             "line 4, column round: '99999999999999999999' is not a 64-bit integer"),
            # a blank line is skipped but still counted
            (["", "present,1,0,#1.5,up,up,0,0,"], "line 5, column signal: '#1.5' is not a number"),
        ],
        ids=["ragged-row", "repeated-cell", "missing-round", "nan-signal", "shot-overflow",
             "round-overflow", "blank-line-then-bad-cell"],
    )
    def test_detect_rejects_malformed_shots_csv(self, tmp_path, capsys, rows, reason):
        lines = [",".join(cli.SHOT_HEADER), "present,0,0,1.5,up,up,0,0,",
                 "absent,0,0,0.5,up,up,0,0,", *rows]
        (tmp_path / "shots.csv").write_text("\n".join(lines) + "\n")
        path = _write_config(tmp_path, detect={"input_csv": "shots.csv", "n_cyc_list": [1]})
        assert main(["detect", "--config", path, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "detect.input_csv" in err and reason in err

    @pytest.mark.parametrize("row", [6, 17], ids=["cooling-side", "heating-side"])
    def test_fit_rejects_nan_spectrum_cell(self, tmp_path, capsys, row):
        # rows 1-11 hold the negative detunings, 12-22 the positive ones
        path = _write_config(tmp_path, seed=3)
        assert main(["spectrum", "--config", path, "--out", str(tmp_path / "spec")]) == 0
        lines = (tmp_path / "spec" / "spectrum.csv").read_text().splitlines()
        cells = lines[row].split(",")
        cells[1] = "nan"
        lines[row] = ",".join(cells)
        (tmp_path / "spectrum.csv").write_text("\n".join(lines) + "\n")
        fit = _write_config(tmp_path, name="fit.json", fit={"input_csv": "spectrum.csv"})
        assert main(["fit", "--config", fit, "--out", str(tmp_path / "fit")]) == 2
        err = capsys.readouterr().err
        assert "fit.input_csv" in err and "must be finite" in err

    @pytest.mark.parametrize("detuning", ["0.5", "-1", "2", "-0"])
    def test_fit_cooled_with_isolated_mid_spectrum_point(self, tmp_path, detuning):
        # one point moved between the sidebands, far from every other: the
        # grid start's narrow nodes see only it, so their blue and red
        # columns are parallel and the normal equations singular there
        path = _write_config(tmp_path, seed=5, spectrum={"nbar": 0.3})
        assert main(["spectrum", "--config", path, "--out", str(tmp_path / "spec")]) == 0
        lines = (tmp_path / "spec" / "spectrum.csv").read_text().splitlines()
        cells = lines[12].split(",")
        cells[0] = detuning
        lines[12] = ",".join(cells)
        (tmp_path / "spectrum.csv").write_text("\n".join(lines) + "\n")
        fit = _write_config(tmp_path, name="fit.json", fit={"input_csv": "spectrum.csv", "mode": "cooled"})
        assert main(["fit", "--config", fit, "--out", str(tmp_path / "fit")]) == 0
        result = json.loads((tmp_path / "fit" / "fit.json").read_text())
        assert 0.0 <= result["ground_state_fraction"] <= 1.0

    @pytest.mark.parametrize("edit, row, reason", [
        ({3: "-300"}, None, "shots must be integers >= 0"),
        ({3: "0.5"}, None, "shots must be integers >= 0"),
        ({2: "0", 3: "0"}, 17, "stderr must be positive"),
    ], ids=["negative-shots", "fractional-shots", "zero-stderr"])
    def test_fit_rejects_bad_spectrum_column(self, tmp_path, capsys, edit, row, reason):
        # row None edits every data row; columns are detuning_hz, p_exc, stderr, shots
        path = _write_config(tmp_path, seed=3)
        assert main(["spectrum", "--config", path, "--out", str(tmp_path / "spec")]) == 0
        lines = (tmp_path / "spec" / "spectrum.csv").read_text().splitlines()
        for i in range(1, len(lines)) if row is None else [row]:
            cells = lines[i].split(",")
            for column, value in edit.items():
                cells[column] = value
            lines[i] = ",".join(cells)
        (tmp_path / "spectrum.csv").write_text("\n".join(lines) + "\n")
        fit = _write_config(tmp_path, name="fit.json", fit={"input_csv": "spectrum.csv"})
        assert main(["fit", "--config", fit, "--out", str(tmp_path / "fit")]) == 2
        err = capsys.readouterr().err
        assert "fit.input_csv" in err and reason in err

    @pytest.mark.parametrize("column, reason", [
        (None, "not one per (scenario, shot, round)"),
        (1, "line 2, column shot: '99999999999999999999' is not a 64-bit integer"),
        (2, "line 2, column round: '99999999999999999999' is not a 64-bit integer"),
    ], ids=["as-written", "shot-overflow", "round-overflow"])
    def test_detect_rejects_loss_detection_shots(self, tmp_path, capsys, column, reason):
        # loss detection restarts shot numbers for every analyzer phase
        cfg = json.loads(open(cli._resolve_config_path("fig3")).read())
        cfg["protocol"]["shots"] = 20
        sim = tmp_path / "fig3.json"
        sim.write_text(json.dumps(cfg))
        assert main(["simulate", "--config", str(sim), "--out", str(tmp_path / "sim")]) == 0
        if column is not None:
            lines = (tmp_path / "sim" / "shots.csv").read_text().splitlines()
            cells = lines[1].split(",")
            cells[column] = "99999999999999999999"
            lines[1] = ",".join(cells)
            (tmp_path / "sim" / "shots.csv").write_text("\n".join(lines) + "\n")
        det = _write_config(tmp_path, name="det.json",
                            detect={"input_csv": "sim/shots.csv", "n_cyc_list": [1]})
        assert main(["detect", "--config", det, "--out", str(tmp_path / "det")]) == 2
        err = capsys.readouterr().err
        assert "detect.input_csv" in err and reason in err and "Traceback" not in err

    @pytest.mark.parametrize("command, edit, reason", [
        ("fit", lambda lines: lines[:1], "no spectrum rows"),
        ("fit", lambda lines: [], "no detuning_hz, p_exc, stderr column in the header"),
        ("fit", lambda lines: _edit_row(lines, lambda row: row + ",0"),
         "line 6 has 5 cells, the header has 4"),
        ("fit", lambda lines: _edit_row(lines, lambda row: row.rsplit(",", 1)[0]),
         "line 6 has 3 cells, the header has 4"),
        ("detect", lambda lines: _edit_row(lines, lambda row: row + ",0"),
         "line 6 has 10 cells, the header has 9"),
        ("detect", lambda lines: _edit_row(lines, lambda row: row.rsplit(",", 1)[0]),
         "line 6 has 8 cells, the header has 9"),
        ("fit", lambda lines: _edit_row(lines, lambda row: "#" + row), "line 6, column detuning_hz: '#"),
        ("detect", lambda lines: _edit_row(lines, lambda row: row.replace(",", ",#", 1)),
         "line 6, column shot: '#"),
        ("fit", lambda lines: _edit_row(lines, lambda row: row + "\n"), None),
        ("detect", lambda lines: _edit_row(lines, lambda row: row + "\n"), None),
    ], ids=["header-only", "empty", "spectrum-extra-cell", "spectrum-missing-cell",
            "shots-extra-cell", "shots-missing-cell", "spectrum-hash-row", "shots-hash-cell",
            "spectrum-blank-line", "shots-blank-line"])
    def test_reader_edge_cases(self, tmp_path, capsys, csv_inputs, command, edit, reason):
        # reason None: the edited file gives the unedited file's output bytes
        name, output, section = {
            "fit": ("spectrum.csv", "fit.json", {}),
            "detect": ("shots.csv", "detect.csv", {"n_cyc_list": [1]}),
        }[command]
        lines = csv_inputs[command].splitlines()
        codes = {}
        for run, rows in (("edited", edit(lines)), ("clean", lines)):
            (tmp_path / run).mkdir()
            (tmp_path / run / name).write_text("".join(f"{row}\n" for row in rows))
            cfg = _write_config(tmp_path / run, **{command: {"input_csv": name, **section}})
            codes[run] = main([command, "--config", cfg, "--out", str(tmp_path / run / "out")])
        err = capsys.readouterr().err
        if reason is None:
            assert codes["edited"] == 0 and not err
            edited, clean = ((tmp_path / run / "out" / output).read_bytes() for run in ("edited", "clean"))
            assert edited == clean
        else:
            assert codes["edited"] == 2
            assert err.startswith(f"config error: {command}.input_csv: ") and err.count("\n") == 1
            assert reason in err

    def test_spectrum_without_shots_column_reads_zeros(self, tmp_path):
        path = tmp_path / "spectrum.csv"
        path.write_text("detuning_hz,p_exc,stderr\n-1.5,0.25,0.01\n1.5,0.5,0.02\n")
        spectrum = read_spectrum_csv(str(path))
        np.testing.assert_array_equal(spectrum.detuning_hz, [-1.5, 1.5])
        np.testing.assert_array_equal(spectrum.shots, [0.0, 0.0])

    @pytest.mark.parametrize("writer", ["csv", "json"])
    def test_writer_over_longer_file_leaves_exactly_the_new_bytes(self, tmp_path, writer):
        path = tmp_path / "out"
        path.write_bytes(b"a stale and much longer output\n" * 500)
        if writer == "csv":
            rows = [(0.5, 1, "up"), (1.5, 2, "down")]
            cli.write_csv(path, ["x", "n", "label"], zip(*rows))
            expected = _reference_csv(["x", "n", "label"], rows)
        else:
            payload = {"b": [1.5, None], "a": "x"}
            cli.write_json(path, payload)
            expected = b'{"a":"x","b":[1.5,null]}\n'
        assert path.read_bytes() == expected

    def test_failed_write_leaves_only_the_written_prefix(self, tmp_path, monkeypatch):
        class Unprintable:
            def __str__(self):
                raise RuntimeError("cell cannot be formatted")

        monkeypatch.setattr(cli, "WRITE_BLOCK_ROWS", 2)
        rows = [(0.5, "a"), (1.5, "b"), (2.5, Unprintable()), (3.5, "d")]
        path = tmp_path / "out.csv"
        path.write_bytes(b"stale\n" * 1000)
        with pytest.raises(RuntimeError, match="cannot be formatted"):
            cli.write_csv(path, ["x", "label"], [np.array([r[0] for r in rows]),
                                                 np.array([r[1] for r in rows], dtype=object)])
        assert path.read_bytes() == _reference_csv(["x", "label"], rows[:2])  # first block only

    @pytest.mark.parametrize("output", ["shots.csv", "report.json"])
    def test_directory_in_an_outputs_place_exits_4(self, tmp_path, capsys, output):
        out = tmp_path / "o"
        (out / output).mkdir(parents=True)
        path = _write_config(tmp_path, protocol={"kind": "repeated_readout", "shots": 5, "n_cyc": 1})
        assert main(["simulate", "--config", path, "--out", str(out)]) == 4
        err = capsys.readouterr().err
        assert err.startswith("i/o error:") and output in err and "Traceback" not in err

    @pytest.mark.parametrize("kind", ["dev-null", "fifo"])
    def test_output_that_cannot_be_cut_is_written(self, tmp_path, kind):
        out = tmp_path / "o"
        out.mkdir()
        target, read = out / "shots.csv", []
        if kind == "dev-null":
            target.symlink_to(os.devnull)
        else:  # a named pipe with a reader, as a consumer streaming the output would
            os.mkfifo(target)
            reader = threading.Thread(target=lambda: read.append(target.read_bytes()), daemon=True)
            reader.start()
        path = _write_config(tmp_path, protocol={"kind": "repeated_readout", "shots": 5, "n_cyc": 1})
        assert main(["simulate", "--config", path, "--out", str(out)]) == 0
        assert json.loads((out / "report.json").read_text())["outputs"] == ["shots.csv"]
        if kind == "fifo":
            reader.join(timeout=60)
            assert not reader.is_alive() and read[0].startswith(b"scenario,shot,round,")


_READOUT = {"protocol": {"kind": "repeated_readout", "shots": 40, "n_cyc": 2}}

#: command, config, and the (command, config) run first into in/ for its
#: input; one small run of each command and preset
_OVERWRITE_RUNS = {
    "simulate-fig2": ("simulate", preset_config("fig2", shots=40), None),
    "simulate-fig3": ("simulate", preset_config("fig3", shots=8), None),
    "simulate-fig4": ("simulate", preset_config("fig4", shots=40), None),
    "spectrum": ("spectrum", {"spectrum": {"points_per_side": 7}}, None),
    "fit": ("fit", {"fit": {"input_csv": "in/spectrum.csv"}}, ("spectrum", {})),
    "detect": ("detect", {"detect": {"input_csv": "in/shots.csv", "n_cyc_list": [1, 2]}},
               ("simulate", _READOUT)),
    "cool": ("cool", preset_config("fig4", shots=40), None),
    "response": ("response", {"response": {"points": 20}}, None),
}


class TestEchoedConfig:
    """README: re-running with report.json's echoed config and no flags
    reproduces every output. The echo shares the loaded config's values,
    so this also pins that no command changes its config."""

    @pytest.mark.parametrize("run", list(_OVERWRITE_RUNS))
    def test_rerun_from_the_echo_keeps_every_byte(self, tmp_path, run):
        command, cfg, inputs = _OVERWRITE_RUNS[run]
        if inputs is not None:
            path = _write_config(tmp_path, name="in.json", **inputs[1])
            assert main([inputs[0], "--config", path, "--seed", "5", "--out", str(tmp_path / "in")]) == 0
        path = _write_config(tmp_path, name=f"{command}.json", **cfg)
        first, rerun = tmp_path / "first", tmp_path / "rerun"
        assert main([command, "--config", path, "--seed", "7", "--out", str(first)]) == 0
        report = json.loads((first / "report.json").read_text())
        echo = report["config"]
        assert echo["seed"] == 7 and not [key for key in echo if key.startswith("_")]
        path = _write_config(tmp_path, name="echo.json", **echo)  # next to the first config
        assert main([command, "--config", path, "--out", str(rerun)]) == 0
        names = sorted(os.listdir(first))
        assert sorted(os.listdir(rerun)) == names
        again = json.loads((rerun / "report.json").read_text())
        assert again["results"] == report["results"] and again["config"] == echo
        for name in names:
            if name != "report.json":
                assert (rerun / name).read_bytes() == (first / name).read_bytes(), name


class TestOutputsOverwrittenInPlace:
    """Every command rewrites its outputs in place: over a directory that
    holds longer files under the same names it leaves the bytes of a run
    into a fresh directory, and it never opens an output with O_TRUNC or
    mode "w" (which truncates to zero first; see cli._overwrite)."""

    @staticmethod
    def _run(tmp_path, monkeypatch, command, cfg, out, seed=5):
        path = _write_config(tmp_path, name=f"{command}.json", **cfg)
        opened = []  # (file, flags or mode) of every open from tweezersim.cli
        os_open = os.open

        def record_os_open(file, flags, *args, **kwargs):
            if sys._getframe(1).f_globals.get("__name__") == "tweezersim.cli":
                opened.append((file, flags))
            return os_open(file, flags, *args, **kwargs)

        def record_open(file, mode="r", *args, **kwargs):
            opened.append((file, mode))
            return open(file, mode, *args, **kwargs)

        with monkeypatch.context() as m:
            m.setattr(os, "open", record_os_open)
            m.setattr(cli, "open", record_open, raising=False)
            assert main([command, "--config", path, "--seed", str(seed), "--out", str(out)]) == 0
        return opened

    @pytest.mark.parametrize("run", list(_OVERWRITE_RUNS))
    def test_rewrite_matches_fresh_run_without_truncating_open(self, tmp_path, monkeypatch, run):
        command, cfg, inputs = _OVERWRITE_RUNS[run]
        if inputs is not None:
            self._run(tmp_path, monkeypatch, *inputs, tmp_path / "in")
        fresh, other, rewritten = (tmp_path / name for name in ("fresh", "other", "rewritten"))
        self._run(tmp_path, monkeypatch, command, cfg, fresh)
        self._run(tmp_path, monkeypatch, command, cfg, other, seed=6)
        names = sorted(os.listdir(fresh))
        rewritten.mkdir()
        for name in names:  # another run's outputs, made longer than this run's
            (rewritten / name).write_bytes((other / name).read_bytes() + b"stale\n" * 2000)
        opened = self._run(tmp_path, monkeypatch, command, cfg, rewritten)
        assert sorted(os.listdir(rewritten)) == names
        for name in names:
            new, old = (rewritten / name).read_bytes(), (fresh / name).read_bytes()
            if name == "report.json":  # holds the run's wall time
                new, old = (json.loads(b) | {"wall_time_s": 0} for b in (new, old))
            assert new == old, name
        writes = [(f, flags) for f, flags in opened if isinstance(flags, int)]
        assert sorted(os.path.basename(f) for f, _ in writes) == names
        assert not any(flags & os.O_TRUNC for _, flags in writes)
        assert all(isinstance(f, int) or "w" not in mode for f, mode in opened
                   if isinstance(mode, str))
