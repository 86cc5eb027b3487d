"""JSON run-configuration schema, validation, and object builders.

Configs are plain JSON with fixed sections; unknown keys are rejected
with a dotted path to the offender, and physical quantities carry the
unit in the key name (*_hz, *_s, *_rad, *_amu, *_nm). Frequencies are
ordinary frequencies in Hz at this boundary and are converted to
angular units internally.
"""

from __future__ import annotations

import copy
import json
import math
import os

import numpy as np

from .dynamics import NoiseModel, QuasiStatic, SpectralDensity, load_psd_csv
from .errors import ValidationError
from .gates import GateErrorSpec, ImagingSpec, calibrate_imaging
from .protocols import ProtocolConfig
from .states import TrapSpec

TWO_PI = 2.0 * math.pi

_NOISE_CHANNEL_SCHEMA = {
    "kind": "quasi_static",  # "quasi_static" | "psd" | "off"
    "sigma_hz": 0.0,
    "csv": None,
    "frequencies_hz": None,
    "values": None,
    "convention": "frequency",  # laser_frequency only: "frequency" | "phase"
}

DEFAULT_CONFIG = {
    "seed": 12345,
    "trap": {
        "frequency_hz": 35e3,
        "mass_amu": 88.0,
        "wavelength_nm": 698.0,
        "eta": None,  # derived from the trap when omitted
    },
    "pulse": {
        "rabi_hz": 2000.0,
    },
    "noise": {
        "trap_frequency": None,
        "laser_frequency": None,
        "laser_amplitude": None,
    },
    "gates": {
        "enabled": True,
        "cz_phase_error_prob": 0.006,
        "cz_loss_prob": 0.002,
        "sq_over_rotation_sigma_rad": 0.02,
        "per_gate_jitter": False,
    },
    "imaging": {
        "target_single_round_fidelity": 0.90,
        "bright_mean": None,  # calibrated from the target when omitted
        "dark_mean": 0.0,
        "bright_std": 1.0,
        "dark_std": 1.0,
        "bright_loss_prob": 0.5,
        "unshelved_loss_prob": 0.9,
        "data_heating_quanta_per_round": 0.008,
    },
    "protocol": {
        "kind": "repeated_readout",
        "shots": 1000,
        "n_cyc": 4,
        "p1_priors": [0.5, 0.9],
        "scenarios": ["present", "absent"],
        "n_max": 12,  # Fock truncation; a modeling choice, keep >= 12 for q <= 0.7
        "data_psi": None,
        "data_nbar": 0.002,
        "nbar_list": None,
        "p0_list": None,
        "shelving_transfer_fidelity": None,
        "steps_per_pulse": 2000,
        "analyzer_phases_rad": None,
        "comp_phase_rad": math.pi,
        "local_z_phase_rad": 0.0,
        "ancilla_absent_prob": 0.0,
        "ideal_cooling_rsb": True,
    },
    "response": {
        "channel": "trap_frequency",
        "method": "closed-form",
        "grid_kind": "log",
        "f_min_hz": 10.0,
        "f_max_hz": 10e3,
        "points": 50,
        "duration_s": None,
    },
    "spectrum": {
        "nbar": 0.5,
        "after_cooling": False,
        # null -> the scan covers the main lobe of the pi-pulse line,
        # 1.75 * Omega_01 / (2 pi); staying inside the first coherent
        # sidelobe keeps the Gaussian peak model faithful
        "detuning_span_hz": None,
        "points_per_side": 11,
        "shots_per_point": 300,
        "wrong_state_fraction": 0.0,
        "include_carrier": False,
    },
    "fit": {
        "input_csv": None,
        "mode": "baseline",  # "baseline" | "cooled"
    },
    "detect": {
        "input_csv": None,
        "n_cyc_list": [1, 2, 3, 4],
    },
    "output": {
        "dir": "out",
    },
}


def _check_keys(raw, schema, path=""):
    for key, value in raw.items():
        here = f"{path}.{key}" if path else key
        if key not in schema:
            raise ValidationError(f"unknown config key: {here}")
        if isinstance(schema[key], dict) and isinstance(value, dict):
            _check_keys(value, schema[key], here)


def _merge(defaults, raw):
    out = copy.deepcopy(defaults)
    for key, value in raw.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = _merge(out[key], value)
        else:
            out[key] = value
    return out


#: Integer protocol keys and their smallest allowed values.
_PROTOCOL_INT_MINIMA = {"shots": 1, "n_cyc": 1, "n_max": 2, "steps_per_pulse": 1}


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _check_protocol(sec: dict):
    """Type and range of the protocol keys the shot engine sizes its work by."""
    for key, minimum in _PROTOCOL_INT_MINIMA.items():
        value = sec[key]
        if not (_is_number(value) and isinstance(value, int) and value >= minimum):
            raise ValidationError(f"protocol.{key} must be an integer >= {minimum}, got {value!r}")
    value = sec["data_nbar"]
    if not (_is_number(value) and value >= 0):
        raise ValidationError(f"protocol.data_nbar must be a number >= 0, got {value!r}")
    value = sec["ancilla_absent_prob"]
    if not (_is_number(value) and 0 <= value <= 1):
        raise ValidationError(f"protocol.ancilla_absent_prob must be in [0, 1], got {value!r}")


def validate_config(raw: dict) -> dict:
    """Merge a raw config over the defaults, rejecting unknown keys and
    bad protocol sizes."""
    if not isinstance(raw, dict):
        raise ValidationError("config root must be a JSON object")
    schema = copy.deepcopy(DEFAULT_CONFIG)
    for channel in ("trap_frequency", "laser_frequency", "laser_amplitude"):
        schema["noise"][channel] = _NOISE_CHANNEL_SCHEMA
    _check_keys(raw, schema)
    merged = _merge(DEFAULT_CONFIG, raw)
    _check_protocol(merged["protocol"])
    return merged


def load_config(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"config is not valid JSON: {exc}") from exc
    return validate_config(raw)


def dump_default_config() -> str:
    return json.dumps(DEFAULT_CONFIG, indent=2)


# ---------------------------------------------------------------------------
# typed builders


def build_trap(config: dict) -> TrapSpec:
    sec = config["trap"]
    for key in ("frequency_hz", "mass_amu", "wavelength_nm"):
        if not isinstance(sec[key], (int, float)) or sec[key] <= 0:
            raise ValidationError(f"trap.{key} must be a positive number")
    return TrapSpec(
        omega_t=TWO_PI * sec["frequency_hz"],
        mass=sec["mass_amu"] * 1.66053906892e-27,
        k=TWO_PI / (sec["wavelength_nm"] * 1e-9),
        eta=sec["eta"],
    )


def _build_channel(sec, name, base_dir):
    if sec is None:
        return None
    kind = sec.get("kind", "quasi_static")
    if kind == "off":
        return None
    if kind == "quasi_static":
        sigma = sec.get("sigma_hz", 0.0)
        if sigma is None or sigma < 0:
            raise ValidationError(f"noise.{name}.sigma_hz must be >= 0")
        return QuasiStatic(sigma=TWO_PI * sigma) if sigma > 0 else None
    if kind == "psd":
        convention = sec.get("convention", "frequency") or "frequency"
        if name != "laser_frequency" and convention != "frequency":
            raise ValidationError(
                f"noise.{name}.convention: the phase convention applies to laser_frequency only"
            )
        if sec.get("csv"):
            path = sec["csv"]
            if not os.path.isabs(path):
                path = os.path.join(base_dir, path)
            return load_psd_csv(path, convention=convention)
        freqs, vals = sec.get("frequencies_hz"), sec.get("values")
        if freqs is None or vals is None:
            raise ValidationError(f"noise.{name}: psd needs csv or frequencies_hz/values")
        f = np.asarray(freqs, dtype=float)
        s = np.asarray(vals, dtype=float)
        if convention == "phase":
            s = (TWO_PI * f) ** 2 * s
        return SpectralDensity(f, s)
    raise ValidationError(f"noise.{name}.kind must be quasi_static, psd, or off")


def build_noise(config: dict, base_dir: str = ".") -> NoiseModel:
    sec = config["noise"]
    return NoiseModel(
        trap_frequency=_build_channel(sec["trap_frequency"], "trap_frequency", base_dir),
        laser_frequency=_build_channel(sec["laser_frequency"], "laser_frequency", base_dir),
        laser_amplitude=_build_channel(sec["laser_amplitude"], "laser_amplitude", base_dir),
    )


def build_gate_errors(config: dict):
    sec = config["gates"]
    if not sec["enabled"]:
        return None
    return GateErrorSpec(
        cz_phase_error_prob=sec["cz_phase_error_prob"],
        cz_loss_prob=sec["cz_loss_prob"],
        sq_over_rotation_sigma=sec["sq_over_rotation_sigma_rad"],
        per_gate_jitter=sec["per_gate_jitter"],
    )


def build_imaging(config: dict) -> ImagingSpec:
    sec = config["imaging"]
    common = dict(
        bright_loss_prob=sec["bright_loss_prob"],
        unshelved_loss_prob=sec["unshelved_loss_prob"],
        data_heating_quanta_per_round=sec["data_heating_quanta_per_round"],
    )
    if sec["bright_mean"] is not None:
        return ImagingSpec(
            bright_mean=sec["bright_mean"],
            dark_mean=sec["dark_mean"],
            bright_std=sec["bright_std"],
            dark_std=sec["dark_std"],
            **common,
        )
    return calibrate_imaging(
        target_fidelity=sec["target_single_round_fidelity"],
        p1=0.5,
        dark_mean=sec["dark_mean"],
        dark_std=sec["dark_std"],
        bright_std=sec["bright_std"],
        **common,
    )


def build_protocol(config: dict, base_dir: str = ".", workers: int = 1) -> ProtocolConfig:
    sec = config["protocol"]
    noise = build_noise(config, base_dir)
    if all(noise.channel(c) is None for c in ("trap_frequency", "laser_frequency", "laser_amplitude")):
        noise = None
    analyzer = sec["analyzer_phases_rad"]
    kwargs = dict(
        kind=sec["kind"],
        shots=sec["shots"],
        seed=config["seed"],
        n_cyc=sec["n_cyc"],
        p1_priors=tuple(sec["p1_priors"]),
        scenarios=tuple(sec["scenarios"]),
        n_max=sec["n_max"],
        data_psi=sec["data_psi"],
        data_nbar=sec["data_nbar"],
        gate_errors=build_gate_errors(config),
        imaging=build_imaging(config),
        trap=build_trap(config),
        rabi=TWO_PI * config["pulse"]["rabi_hz"],
        noise=noise,
        shelving_transfer_fidelity=sec["shelving_transfer_fidelity"],
        steps_per_pulse=sec["steps_per_pulse"],
        comp_phase=sec["comp_phase_rad"],
        local_z_phase=sec["local_z_phase_rad"],
        ancilla_absent_prob=sec["ancilla_absent_prob"],
        ideal_cooling_rsb=sec["ideal_cooling_rsb"],
        workers=workers,
    )
    if analyzer is not None:
        kwargs["analyzer_phases"] = tuple(analyzer)
    return ProtocolConfig(**kwargs)


def cooling_nbar_list(config: dict):
    """Initial-temperature sweep: explicit nbar list, or one derived from
    initial ground-state fractions p0 via nbar = (1 - p0) / p0."""
    sec = config["protocol"]
    if sec["nbar_list"]:
        return [float(v) for v in sec["nbar_list"]]
    if sec["p0_list"]:
        out = []
        for p0 in sec["p0_list"]:
            if not 0.0 < p0 <= 1.0:
                raise ValidationError("protocol.p0_list entries must be in (0, 1]")
            out.append((1.0 - p0) / p0)
        return out
    return [float(sec["data_nbar"])]
