"""JSON run-configuration schema, validation, and object builders.

Configs are plain JSON with fixed sections. One table, ``_KEYS``, holds
every key's default and rule; unknown keys and values outside their
rule are rejected with the dotted key, and physical quantities carry the
unit in the key name (*_hz, *_s, *_rad, *_amu, *_nm). Frequencies are
ordinary frequencies in Hz at this boundary and are converted to
angular units internally.
"""

from __future__ import annotations

import json
import math
import operator
import os

import numpy as np

from .dynamics import CHANNELS, NoiseModel, QuasiStatic, SpectralDensity, load_psd_csv
from .errors import ValidationError
from .gates import GateErrorSpec, ImagingSpec, calibrate_imaging
from .protocols import PROTOCOL_KINDS, SCENARIOS, ProtocolConfig
from .states import TrapSpec

TWO_PI = 2.0 * math.pi

#: Every config key: dotted key -> (default, rule). ``noise.*.<key>`` is a
#: key of each noise channel. A rule is an interval string for a number,
#: ("int", minimum), a tuple of allowed strings, str, bool, dict (a noise
#: channel), or a one-item list giving the rule of each entry of a
#: non-empty list. A key may be null exactly when its default is null.
_KEYS = {
    "seed": (12345, ("int", 0)),
    "trap.frequency_hz": (35e3, "(0, inf)"),
    "trap.mass_amu": (88.0, "(0, inf)"),
    "trap.wavelength_nm": (698.0, "(0, inf)"),
    "trap.eta": (None, "(0, inf)"),  # derived from the trap when omitted
    "pulse.rabi_hz": (2000.0, "(0, inf)"),
    "noise.trap_frequency": (None, dict),
    "noise.laser_frequency": (None, dict),
    "noise.laser_amplitude": (None, dict),
    "noise.*.kind": ("quasi_static", ("quasi_static", "psd", "off")),
    "noise.*.sigma_hz": (0.0, "[0, inf)"),
    "noise.*.csv": (None, str),
    "noise.*.frequencies_hz": (None, ["[0, inf)"]),
    "noise.*.values": (None, ["[0, inf)"]),
    # the phase convention applies to laser_frequency only
    "noise.*.convention": ("frequency", ("frequency", "phase")),
    "gates.enabled": (True, bool),
    "gates.cz_phase_error_prob": (0.006, "[0, 1]"),
    "gates.cz_loss_prob": (0.002, "[0, 1]"),
    "gates.sq_over_rotation_sigma_rad": (0.02, "[0, inf)"),
    "gates.per_gate_jitter": (False, bool),
    "imaging.target_single_round_fidelity": (0.90, "(0.5, 1)"),
    # signal units are arbitrary; within these bounds the threshold
    # quadratic's terms (mean / std^2 squared) stay finite
    "imaging.bright_mean": (None, "[-1e30, 1e30]"),  # calibrated from the target when omitted
    "imaging.dark_mean": (0.0, "[-1e30, 1e30]"),
    "imaging.bright_std": (1.0, "[1e-30, 1e30]"),
    "imaging.dark_std": (1.0, "[1e-30, 1e30]"),
    "imaging.bright_loss_prob": (0.5, "[0, 1]"),
    "imaging.unshelved_loss_prob": (0.9, "[0, 1]"),
    "imaging.data_heating_quanta_per_round": (0.008, "[0, 1]"),
    "protocol.kind": ("repeated_readout", PROTOCOL_KINDS),
    "protocol.shots": (1000, ("int", 1)),
    "protocol.n_cyc": (4, ("int", 1)),
    "protocol.p1_priors": ([0.5, 0.9], ["[0, 1]"]),
    "protocol.scenarios": (list(SCENARIOS), [SCENARIOS]),
    # Fock truncation; a modeling choice, keep >= 12 for q <= 0.7
    "protocol.n_max": (12, ("int", 2)),
    "protocol.data_psi": (None, ("up", "down", "plus")),
    "protocol.data_nbar": (0.002, "[0, inf)"),
    "protocol.nbar_list": (None, ["[0, inf)"]),
    "protocol.p0_list": (None, ["(0, 1]"]),
    "protocol.shelving_transfer_fidelity": (None, "(0, 1]"),
    "protocol.steps_per_pulse": (2000, ("int", 1)),
    "protocol.analyzer_phases_rad": (None, ["(-inf, inf)"]),
    "protocol.comp_phase_rad": (math.pi, "(-inf, inf)"),
    "protocol.local_z_phase_rad": (0.0, "(-inf, inf)"),
    "protocol.ancilla_absent_prob": (0.0, "[0, 1]"),
    "protocol.ideal_cooling_rsb": (True, bool),
    "response.channel": ("trap_frequency", CHANNELS),
    "response.grid_kind": ("log", ("log", "linear")),
    # with eta <= 1e150 and eta * rabi in [1e-150, 1e150] (response.ResponseQuery)
    # the closed-form responses stay finite on these grids and durations
    "response.f_min_hz": (10.0, "[0, 1e12]"),
    "response.f_max_hz": (10e3, "(0, 1e12]"),
    "response.points": (50, ("int", 1)),
    "response.duration_s": (None, "(0, 1e3]"),
    "spectrum.nbar": (0.5, "[0, 1e15]"),  # below 9e15, where nbar / (nbar + 1) rounds to 1
    "spectrum.after_cooling": (False, bool),
    # null -> the scan covers the main lobe of the pi-pulse line,
    # 1.75 * Omega_01 / (2 pi); staying inside the first coherent
    # sidelobe keeps the Gaussian peak model faithful
    "spectrum.detuning_span_hz": (None, "(0, 1e9]"),
    "spectrum.points_per_side": (11, ("int", 1)),
    "spectrum.shots_per_point": (300, ("int", 1)),
    "spectrum.wrong_state_fraction": (0.0, "[0, 1]"),
    "spectrum.include_carrier": (False, bool),
    "fit.input_csv": (None, str),
    "fit.mode": ("baseline", ("baseline", "cooled")),
    "detect.input_csv": (None, str),
    "detect.n_cyc_list": ([1, 2, 3, 4], [("int", 1)]),
    "output.dir": ("out", str),
}


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _compile(rule):
    """(test, description) of one rule of the table."""
    if isinstance(rule, list):
        test, what = _compile(rule[0])
        each = f"a non-empty list, each entry {what}"
        return (lambda v: isinstance(v, list) and len(v) > 0 and all(map(test, v))), each
    if isinstance(rule, str):
        lo, hi = (float(x) for x in rule[1:-1].split(","))
        above = operator.lt if rule[0] == "(" else operator.le
        below = operator.lt if rule[-1] == ")" else operator.le
        return (lambda v: _is_number(v) and above(lo, v) and below(v, hi)), f"a number in {rule}"
    if rule in (str, bool, dict):
        what = {str: "a string", bool: "true or false", dict: "an object"}[rule]
        return (lambda v: isinstance(v, rule)), what
    if rule[0] == "int":
        what = f"an integer >= {rule[1]}"
        return (lambda v: _is_number(v) and isinstance(v, int) and v >= rule[1]), what
    return (lambda v: isinstance(v, str) and v in rule), "one of " + ", ".join(rule)


#: dotted key -> (null allowed, test, description), compiled once.
_RULES = {key: (default is None, *_compile(rule)) for key, (default, rule) in _KEYS.items()}


def _nest(flat):
    out = {}
    for dotted, value in flat.items():
        *sections, key = dotted.split(".")
        node = out
        for section in sections:
            node = node.setdefault(section, {})
        node[key] = value
    return out


DEFAULT_CONFIG = _nest({k: d for k, (d, _) in _KEYS.items() if ".*." not in k})
_CHANNEL_DEFAULTS = {k.split(".")[-1]: d for k, (d, _) in _KEYS.items() if ".*." in k}


def _check(dotted, value, rule_key=None):
    """The value, checked against the rule of its key; a noise channel's
    keys are checked against the ``noise.*`` rules."""
    try:
        nullable, test, what = _RULES[rule_key or dotted]
    except KeyError:
        raise ValidationError(f"unknown config key: {dotted}") from None
    if value is None and nullable:
        return value
    if not test(value):
        null = " or null" if nullable else ""
        raise ValidationError(f"{dotted} must be {what}{null}, got {value!r}")
    if isinstance(value, dict):
        prefix = dotted.rsplit(".", 1)[0] + ".*."
        for key, entry in value.items():
            _check(f"{dotted}.{key}", entry, prefix + key)
    return value


def _merge(defaults, raw, path):
    """The defaults with the raw values laid over them, each value checked."""
    if not isinstance(raw, dict):
        raise ValidationError(f"{path} must be an object, got {raw!r}")
    prefix = f"{path}." if path else ""
    for key in raw:
        if key not in defaults:
            raise ValidationError(f"unknown config key: {prefix}{key}")
    out = {}
    for key, default in defaults.items():
        here = prefix + key
        if isinstance(default, dict):
            out[key] = _merge(default, raw.get(key, {}), here)
        elif key in raw:
            out[key] = _check(here, raw[key])
        else:  # a copy, so that callers may change the merged lists
            out[key] = list(default) if isinstance(default, list) else default
    return out


def validate_config(raw: dict) -> dict:
    """Merge a raw config over the defaults, rejecting unknown keys and
    values outside their key's rule, then check the cross-key rules."""
    if not isinstance(raw, dict):
        raise ValidationError("config root must be a JSON object")
    merged = _merge(DEFAULT_CONFIG, raw, "")
    gates, imaging, response = merged["gates"], merged["imaging"], merged["response"]
    if gates["cz_phase_error_prob"] + gates["cz_loss_prob"] > 1:
        raise ValidationError("gates.cz_phase_error_prob + gates.cz_loss_prob must be <= 1")
    if imaging["bright_mean"] is not None and imaging["bright_mean"] <= imaging["dark_mean"]:
        raise ValidationError("imaging.bright_mean must exceed imaging.dark_mean")
    if imaging["bright_mean"] is None:
        # calibrated: the analytic threshold loses a bright peak narrower than
        # 1e-6 dark widths, and a dark mean past 1e9 widths rounds the
        # separation away in dark_mean + separation
        if imaging["bright_std"] < 1e-6 * imaging["dark_std"]:
            raise ValidationError("imaging.bright_std must be >= 1e-6 x imaging.dark_std to calibrate "
                                  "imaging.bright_mean")
        if abs(imaging["dark_mean"]) > 1e9 * min(imaging["bright_std"], imaging["dark_std"]):
            raise ValidationError("|imaging.dark_mean| must be <= 1e9 x the smaller of imaging.bright_std "
                                  "and imaging.dark_std to calibrate imaging.bright_mean")
    if response["grid_kind"] == "log" and response["f_min_hz"] <= 0:
        raise ValidationError("response.f_min_hz must be > 0 on a log grid")
    if response["f_min_hz"] >= response["f_max_hz"]:
        raise ValidationError("response.f_min_hz must be below response.f_max_hz")
    for name, sec in merged["noise"].items():
        if sec is not None and sec.get("kind", _CHANNEL_DEFAULTS["kind"]) == "psd":
            _check_psd(name, {**_CHANNEL_DEFAULTS, **sec})
    return merged


def _check_psd(name, sec):
    """The rules of a psd channel that span its keys. A PSD given as a
    `csv` file is checked when load_config reads it."""
    key, f, s = f"noise.{name}.", sec["frequencies_hz"], sec["values"]
    if name != "laser_frequency" and sec["convention"] != "frequency":
        problem = "convention: the phase convention applies to laser_frequency only"
    elif sec["csv"]:
        return
    elif f is None or s is None:
        problem = f"frequencies_hz and {key}values are required without {key}csv"
    elif len(f) < 2 or len(s) != len(f):
        problem = (f"frequencies_hz and {key}values need equal lengths of at least 2, "
                   f"got {len(f)} and {len(s)}")
    elif any(b <= a for a, b in zip(f, f[1:])):
        problem = f"frequencies_hz must be strictly increasing, got {f}"
    else:
        return
    raise ValidationError(f"{key}{problem} for kind psd")


def load_config(path: str) -> dict:
    """The validated config of a JSON file, with its directory as
    ``_base_dir`` and its noise model as ``_noise``. Building the model
    reads every PSD `csv` file, so a missing or bad one stops every
    subcommand."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"config is not valid JSON: {exc}") from exc
    config = validate_config(raw)
    config["_base_dir"] = os.path.dirname(os.path.abspath(path))
    config["_noise"] = build_noise(config, config["_base_dir"])
    return config


def dump_default_config() -> str:
    return json.dumps(DEFAULT_CONFIG, indent=2)


# ---------------------------------------------------------------------------
# typed builders


def build_trap(config: dict) -> TrapSpec:
    """The trap; values whose SI forms underflow to 0, or that derive an
    eta of 0 or inf, are rejected naming the three trap keys."""
    sec = config["trap"]
    try:
        trap = TrapSpec(
            omega_t=TWO_PI * sec["frequency_hz"],
            mass=sec["mass_amu"] * 1.66053906892e-27,
            k=TWO_PI / (sec["wavelength_nm"] * 1e-9),
            eta=sec["eta"],
        )
        problem = f"they derive eta = {trap.eta:g}"
    except (ValidationError, ZeroDivisionError):
        trap, problem = None, "one of them underflows to 0 in SI units"
    if trap is None or not 0 < trap.eta < math.inf:
        raise ValidationError(
            f"trap.frequency_hz, trap.mass_amu and trap.wavelength_nm must give a positive "
            f"finite Lamb-Dicke parameter; {problem}"
        )
    return trap


def _build_channel(sec, name, base_dir):
    if sec is None:
        return None
    sec = {**_CHANNEL_DEFAULTS, **sec}
    if sec["kind"] == "off":
        return None
    if sec["kind"] == "quasi_static":
        return QuasiStatic(sigma=TWO_PI * sec["sigma_hz"]) if sec["sigma_hz"] > 0 else None
    convention = sec["convention"]
    if sec["csv"]:
        try:
            return load_psd_csv(os.path.join(base_dir, sec["csv"]), convention=convention)
        except ValidationError as exc:
            raise ValidationError(f"noise.{name}.csv: {exc}") from None
        except OSError as exc:
            raise OSError(f"noise.{name}.csv: {exc}") from exc
    f = np.asarray(sec["frequencies_hz"], dtype=float)
    s = np.asarray(sec["values"], dtype=float)
    if convention == "phase":
        s = (TWO_PI * f) ** 2 * s
    return SpectralDensity(f, s)


def build_noise(config: dict, base_dir: str = ".") -> NoiseModel:
    """The noise model; PSD `csv` paths are relative to base_dir. A config
    from load_config carries its model already."""
    if "_noise" in config:
        return config["_noise"]
    sec = config["noise"]
    return NoiseModel(**{name: _build_channel(sec[name], name, base_dir) for name in CHANNELS})


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
    common = {k: sec[k] for k in ("bright_loss_prob", "unshelved_loss_prob",
                                  "data_heating_quanta_per_round", "dark_mean", "dark_std",
                                  "bright_std")}
    if sec["bright_mean"] is not None:
        return ImagingSpec(bright_mean=sec["bright_mean"], **common)
    try:
        return calibrate_imaging(
            target_fidelity=sec["target_single_round_fidelity"], p1=0.5, **common
        )
    except ValidationError as exc:
        raise ValidationError(f"imaging.target_single_round_fidelity: {exc}") from None


def build_protocol(config: dict, base_dir: str = ".", workers: int = 1) -> ProtocolConfig:
    sec = config["protocol"]
    analyzer = sec["analyzer_phases_rad"]
    same_name = ("kind", "shots", "n_cyc", "n_max", "data_psi", "data_nbar", "steps_per_pulse",
                 "shelving_transfer_fidelity", "ancilla_absent_prob", "ideal_cooling_rsb")
    kwargs = dict(
        {k: sec[k] for k in same_name},
        seed=config["seed"],
        p1_priors=tuple(sec["p1_priors"]),
        scenarios=tuple(sec["scenarios"]),
        gate_errors=build_gate_errors(config),
        imaging=build_imaging(config),
        trap=build_trap(config),
        rabi=TWO_PI * config["pulse"]["rabi_hz"],
        noise=build_noise(config, base_dir),
        comp_phase=sec["comp_phase_rad"],
        local_z_phase=sec["local_z_phase_rad"],
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
        return [(1.0 - p0) / p0 for p0 in sec["p0_list"]]
    return [float(sec["data_nbar"])]
