"""Config-driven command-line entry point.

Subcommands: simulate, response, spectrum, fit, detect, cool. Every run
writes machine-readable outputs (CSV with a fixed documented column
order, floats at 17 significant digits) plus a report.json echoing the
validated config so the run can be reproduced bit-exactly.

Flags: --config PATH, --seed U64, --threads N, --out DIR, --dump-config.
Environment overrides (lower precedence than flags): TWEEZERSIM_SEED,
TWEEZERSIM_THREADS, TWEEZERSIM_OUT.

Exit codes: 0 ok, 2 config validation, 3 numerical guard, 4 I/O.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
import time
from collections import Counter

import numpy as np

from . import __version__
from .analysis import (
    aggregate_signals,
    fit_double_gaussian_with_offset,
    nonthermal_correction,
    optimize_threshold,
    temperature_from_spectrum,
)
from .config import (
    TWO_PI,
    build_noise,
    build_protocol,
    build_trap,
    cooling_nbar_list,
    dump_default_config,
    load_config,
)
from .dynamics import QuasiStatic, sideband_rabi
from .errors import NumericsError, StepSizeError, TweezersimError, ValidationError
from .gates import EVENT_KINDS
from .protocols import (
    RNG_SCHEME,
    SidebandSpectrum,
    calibrate_phase,
    run_algorithmic_cooling,
    run_loss_detection,
    run_repeated_readout,
    simulate_sideband_spectrum,
)
from .response import ResponseQuery, budget, response_function
from .states import ThermalSpec, remove_one_quantum, thermal_distribution

FLOAT_FMT = "%.17g"


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        if math.isnan(value):
            return "nan"
        return FLOAT_FMT % value
    if isinstance(value, (np.floating,)):
        return FLOAT_FMT % float(value)
    return str(value)


def write_csv(path, header, rows):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def write_json(path, payload):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")


class RunReport:
    def __init__(self, command, config, seed, workers):
        self.t0 = time.time()
        self.payload = {
            "artifact": "tweezersim",
            "version": __version__,
            "command": command,
            "seed": seed,
            "workers": workers,
            "config": config,
            "outputs": [],
            "results": {},
            "warnings": [],
        }

    def add_output(self, path):
        self.payload["outputs"].append(os.path.basename(path))

    def write(self, out_dir):
        self.payload["wall_time_s"] = time.time() - self.t0
        path = os.path.join(out_dir, "report.json")
        write_json(path, self.payload)
        return path


# ---------------------------------------------------------------------------
# shot tables -> CSV

SHOT_HEADER = [
    "scenario",
    "shot",
    "round",
    "signal",
    "ancilla_label",
    "data_label",
    "data_n",
    "data_lost",
    "aux",
]


def shot_rows(table):
    """One row per shot per round; `aux` carries the analyzer phase for
    loss detection and the initial Fock number for cooling."""
    aux = [""] * len(table.shot) if table.aux is None else table.aux.tolist()
    data_n = [None if n < 0 else n for n in table.data_n.tolist()]
    signals, labels = table.signals.tolist(), table.ancilla_labels.tolist()
    rows = zip(
        table.scenario.tolist(), table.shot.tolist(), signals, labels,
        table.data_label.tolist(), data_n, table.data_lost.tolist(), aux,
    )
    for scenario, shot, sig, lab, data_label, n, lost, extra in rows:
        for rnd, (signal, label) in enumerate(zip(sig, lab)):
            yield (scenario, shot, rnd, signal, label, data_label, n, int(lost), extra)


def _event_counts(events):
    return {kind: int(events.get(kind, 0)) for kind in EVENT_KINDS}


# ---------------------------------------------------------------------------
# subcommands


def cmd_simulate(config, out_dir, workers, report):
    kind = config["protocol"]["kind"]
    base_dir = config.get("_base_dir", ".")
    if kind == "sideband_scan":
        return cmd_spectrum(config, out_dir, workers, report)
    pconf = build_protocol(config, base_dir, workers)
    if kind == "repeated_readout":
        table = run_repeated_readout(pconf)
        results = _readout_summary(table, pconf)
    elif kind == "loss_detection":
        table, fringe = run_loss_detection(pconf)
        results = _loss_summary(table, fringe, pconf)
        fringe_rows = []
        for scenario, (phis, up, err) in fringe.items():
            for k in range(phis.size):
                fringe_rows.append((scenario, phis[k], up[k], err[k], pconf.shots))
        fpath = os.path.join(out_dir, "fringe.csv")
        write_csv(fpath, ["scenario", "phase_rad", "p_up", "stderr", "shots"], fringe_rows)
        report.add_output(fpath)
    elif kind == "algorithmic_cooling":
        table, results = run_algorithmic_cooling(pconf)
    else:  # phase_calibration
        table = calibrate_phase(pconf)
        rows = []
        for k, phi in enumerate(table["phases"]):
            row = [phi] + [table["p_down"][s][k] for s in pconf.scenarios]
            rows.append(row)
        path = os.path.join(out_dir, "phase_calibration.csv")
        write_csv(path, ["phase_rad"] + [f"p_down_{s}" for s in pconf.scenarios], rows)
        report.add_output(path)
        report.payload["results"] = {
            "data_state_deviation": table["data_state_deviation"]
        }
        return
    path = os.path.join(out_dir, "shots.csv")
    write_csv(path, SHOT_HEADER, shot_rows(table))
    report.add_output(path)
    results["events"] = _event_counts(table.events)
    results["rng_scheme"] = RNG_SCHEME
    report.payload["results"] = results


def _readout_summary(table, pconf):
    out = {"protocol": "repeated_readout", "shots": pconf.shots, "n_cyc": pconf.n_cyc}
    present = table.signals[table.scenario == "present"]
    absent = table.signals[table.scenario == "absent"]
    if present.size and absent.size:
        fids = {}
        for p1 in pconf.p1_priors:
            per_n = {}
            for n in range(1, pconf.n_cyc + 1):
                res = optimize_threshold(
                    aggregate_signals(present, n), aggregate_signals(absent, n), p1, n_cyc=n
                )
                per_n[str(n)] = {
                    "fidelity": res.fidelity,
                    "f1": res.f1,
                    "f0": res.f0,
                    "threshold": res.threshold,
                }
            fids[str(p1)] = per_n
        out["detection"] = fids
    return out


def _loss_summary(table, fringe, pconf):
    out = {"protocol": "loss_detection", "shots": pconf.shots}
    is_present = table.scenario == "present"
    present = table.signals[is_present, 0]
    absent = table.signals[table.scenario == "absent", 0]
    if present.size and absent.size and np.isfinite(present).all():
        res = optimize_threshold(present, absent, 0.5, n_cyc=1)
        out["detection_fidelity_p1_0.5"] = res.fidelity
        out["present_dark_fraction"] = float(np.mean(table.ancilla_labels[is_present, 0] != "down"))
    out["fringe_offsets"] = {
        scenario: float(vals[1].mean()) for scenario, vals in fringe.items()
    }
    return out


def cmd_response(config, out_dir, workers, report):
    del workers
    sec = config["response"]
    trap = build_trap(config)
    rabi = TWO_PI * config["pulse"]["rabi_hz"]
    if sec["grid_kind"] == "log":
        grid = np.logspace(math.log10(sec["f_min_hz"]), math.log10(sec["f_max_hz"]), sec["points"])
    else:
        grid = np.linspace(sec["f_min_hz"], sec["f_max_hz"], sec["points"])
    query = ResponseQuery(
        eta=trap.eta,
        rabi=rabi,
        frequencies_hz=grid,
        channel=sec["channel"],
        duration=sec["duration_s"],
    )
    rf = response_function(query, method=sec["method"])
    noise = build_noise(config, config.get("_base_dir", "."))
    channel_spec = noise.channel(sec["channel"])
    rows = []
    if isinstance(channel_spec, QuasiStatic) or channel_spec is None:
        for f, i_val in zip(rf.frequencies_hz, rf.values):
            rows.append((f, i_val))
        header = ["frequency_hz", "response_s2"]
    else:
        s_interp = np.interp(
            rf.frequencies_hz, channel_spec.frequencies_hz, channel_spec.values,
            left=0.0, right=0.0,
        )
        for f, i_val, s in zip(rf.frequencies_hz, rf.values, s_interp):
            rows.append((f, i_val, s, s * i_val))
        header = ["frequency_hz", "response_s2", "psd", "psd_times_response"]
    path = os.path.join(out_dir, "response.csv")
    write_csv(path, header, rows)
    report.add_output(path)
    b = budget(noise, {sec["channel"]: rf})
    payload = {
        "channel": sec["channel"],
        "method": rf.method,
        "eta": trap.eta,
        "rabi_hz": config["pulse"]["rabi_hz"],
        "duration_s": rf.duration,
        "contributions": b.contributions,
        "provenance": b.provenance,
        "total": b.total,
    }
    bpath = os.path.join(out_dir, "budget.json")
    write_json(bpath, payload)
    report.add_output(bpath)
    report.payload["results"] = {"chi_total": b.total}


def _spectrum_grid(config, trap):
    sec = config["spectrum"]
    f_trap = trap.omega_t / TWO_PI
    span = sec["detuning_span_hz"]
    if span is None:
        # main lobe of the pi-pulse line at the configured drive
        omega01 = sideband_rabi(0, 1, trap.eta, TWO_PI * config["pulse"]["rabi_hz"])
        span = 1.75 * omega01 / TWO_PI
    side = np.linspace(f_trap - span, f_trap + span, sec["points_per_side"])
    return np.concatenate([-side[::-1], side])


def cmd_spectrum(config, out_dir, workers, report):
    del workers
    sec = config["spectrum"]
    trap = build_trap(config)
    n_max = config["protocol"]["n_max"]
    dist = thermal_distribution(ThermalSpec(nbar=sec["nbar"], n_max=n_max))
    if sec["after_cooling"]:
        dist = remove_one_quantum(dist)
    rng = np.random.default_rng(config["seed"])
    spectrum = simulate_sideband_spectrum(
        dist,
        _spectrum_grid(config, trap),
        trap=trap,
        rabi=TWO_PI * config["pulse"]["rabi_hz"],
        shots_per_point=sec["shots_per_point"],
        rng=rng,
        include_carrier=sec["include_carrier"],
        wrong_state_fraction=sec["wrong_state_fraction"],
    )
    rows = zip(spectrum.detuning_hz, spectrum.p_exc, spectrum.stderr, spectrum.shots)
    path = os.path.join(out_dir, "spectrum.csv")
    write_csv(path, ["detuning_hz", "p_exc", "stderr", "shots"], rows)
    report.add_output(path)
    report.payload["results"] = {
        "nbar": sec["nbar"],
        "after_cooling": sec["after_cooling"],
        "points": int(spectrum.detuning_hz.size),
    }


def read_spectrum_csv(path) -> SidebandSpectrum:
    """The spectrum in a spectrum.csv written by `spectrum`."""
    try:
        rows = []
        with open(path, "r", encoding="utf-8") as fh:
            fh.readline()  # header
            for line in fh:
                parts = line.strip().split(",")
                if len(parts) >= 3:
                    rows.append([float(v) for v in parts[:4]])
        if not rows:
            raise ValidationError("no spectrum rows")
        arr = np.asarray(rows)
        shots = arr[:, 3] if arr.shape[1] > 3 else np.zeros(arr.shape[0])
        return SidebandSpectrum(
            detuning_hz=arr[:, 0], p_exc=arr[:, 1], stderr=arr[:, 2], shots=shots
        )
    except (ValueError, ValidationError) as exc:
        raise ValidationError(f"fit.input_csv: {path} is not a spectrum CSV: {exc}") from None


def cmd_fit(config, out_dir, workers, report):
    del workers
    sec = config["fit"]
    if not sec["input_csv"]:
        raise ValidationError("fit.input_csv is required")
    path = sec["input_csv"]
    if not os.path.isabs(path):
        path = os.path.join(config.get("_base_dir", "."), path)
    spectrum = read_spectrum_csv(path)
    trap = build_trap(config)
    rabi = TWO_PI * config["pulse"]["rabi_hz"]
    t12 = math.sin(
        sideband_rabi(1, 2, trap.eta, rabi) / sideband_rabi(0, 1, trap.eta, rabi) * math.pi / 2
    ) ** 2
    payload = {"input_csv": sec["input_csv"], "mode": sec["mode"],
               "stderr_model": "agresti-coull floor, one model-reweight pass",
               "t12": t12}
    if sec["mode"] == "baseline":
        est = temperature_from_spectrum(spectrum)
        blue, prof = est.blue, est.profile
        payload.update(
            {
                "blue_fit": {
                    "height": blue.height,
                    "center_hz": blue.center_hz,
                    "width_hz": blue.width_hz,
                    "chi2": blue.chi2,
                    "stderr": blue.stderr.tolist(),
                },
                "cooling_peak": {
                    "a_red": prof.a_red,
                    "ci": [prof.ci_lo, None if math.isinf(prof.ci_hi) else prof.ci_hi],
                    "one_sided": prof.one_sided,
                    "unbounded_above": prof.unbounded_above,
                    "offset": prof.offset,
                },
                "nbar": est.nbar,
                "nbar_ci": [est.nbar_ci[0], None if math.isinf(est.nbar_ci[1]) else est.nbar_ci[1]],
                "ratio": est.ratio,
                "ratio_ci": [est.ratio_ci[0], None if math.isinf(est.ratio_ci[1]) else est.ratio_ci[1]],
                "nonthermal_correction_bound": nonthermal_correction(min(est.ratio, 0.999), t12),
            }
        )
    else:  # cooled
        fit = fit_double_gaussian_with_offset(spectrum)
        payload.update(
            {
                "double_gaussian": {
                    "a_blue": fit.a_blue,
                    "a_red": fit.a_red,
                    "center_hz": fit.center_hz,
                    "width_hz": fit.width_hz,
                    "offset": fit.offset,
                    "chi2": fit.chi2,
                    "stderr": fit.stderr.tolist(),
                },
                "ratio": fit.ratio,
                "ground_state_fraction": fit.ground_state_fraction,
                "wrong_state_fraction": fit.wrong_state_fraction,
                "nonthermal_correction_bound": nonthermal_correction(
                    min(max(fit.ratio, 0.0), 0.999), t12
                ),
            }
        )
    fpath = os.path.join(out_dir, "fit.json")
    write_json(fpath, payload)
    report.add_output(fpath)
    report.payload["results"] = {"mode": sec["mode"]}


def read_shots_csv(path):
    """signals per (scenario, shot) from a shots.csv written by simulate."""
    per_key = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            header = fh.readline().strip().split(",")
            idx = {name: header.index(name) for name in ("scenario", "shot", "round", "signal")}
            for line in fh:
                parts = line.rstrip("\n").split(",")
                key = (parts[idx["scenario"]], int(parts[idx["shot"]]))
                per_key.setdefault(key, []).append(
                    (int(parts[idx["round"]]), float(parts[idx["signal"]]))
                )
        out = {}
        for (scenario, shot), vals in per_key.items():
            vals.sort()
            out.setdefault(scenario, {})[shot] = [v for _, v in vals]
        return {
            scenario: np.asarray([shots[k] for k in sorted(shots)], dtype=float)
            for scenario, shots in out.items()
        }
    except (ValueError, IndexError) as exc:
        raise ValidationError(f"detect.input_csv: {path} is not a shots CSV: {exc}") from None


def cmd_detect(config, out_dir, workers, report):
    del workers
    sec = config["detect"]
    if not sec["input_csv"]:
        raise ValidationError("detect.input_csv is required")
    path = sec["input_csv"]
    if not os.path.isabs(path):
        path = os.path.join(config.get("_base_dir", "."), path)
    matrices = read_shots_csv(path)
    if "present" not in matrices or "absent" not in matrices:
        raise ValidationError("detect.input_csv must hold present and absent scenarios")
    try:
        sums = {
            n: [aggregate_signals(matrices[s], n) for s in ("present", "absent")]
            for n in sec["n_cyc_list"]
        }
    except ValidationError as exc:
        raise ValidationError(f"detect.n_cyc_list: {exc}") from None
    rows = []
    for p1 in config["protocol"]["p1_priors"]:
        for n in sec["n_cyc_list"]:
            res = optimize_threshold(*sums[n], p1, n_cyc=n)
            rows.append((p1, n, res.threshold, res.fidelity, res.f1, res.f0))
    path = os.path.join(out_dir, "detect.csv")
    write_csv(path, ["p1", "n_cyc", "threshold", "fidelity", "f1", "f0"], rows)
    report.add_output(path)
    report.payload["results"] = {"rows": len(rows)}


def cmd_cool(config, out_dir, workers, report):
    pconf = dataclasses.replace(
        build_protocol(config, config.get("_base_dir", "."), workers),
        kind="algorithmic_cooling",
        data_psi=config["protocol"]["data_psi"],  # null: the cooling default
    )
    rows = []
    events = Counter()
    for nbar in cooling_nbar_list(config):
        table, summary = run_algorithmic_cooling(dataclasses.replace(pconf, data_nbar=nbar))
        events += table.events
        q = nbar / (nbar + 1.0)
        # one-quantum-removal reference on a ladder deep enough that the
        # truncation cannot shift it: equals 1 - q^2
        ideal = remove_one_quantum(
            thermal_distribution(ThermalSpec(nbar=nbar, n_max=400))
        )[0]
        meas = summary["ground_state_fraction"]
        stderr = math.sqrt(max(meas * (1 - meas), 1e-12) / summary["shots"])
        rows.append(
            (
                nbar,
                1.0 - q,
                ideal,
                meas,
                summary["ground_state_fraction_correct_state"],
                summary["wrong_state_fraction"],
                summary["shots"],
                stderr,
            )
        )
    path = os.path.join(out_dir, "cool.csv")
    write_csv(
        path,
        [
            "nbar_init",
            "p0_init",
            "p0_ideal",  # one-quantum-removal reference
            "p0_measured",
            "p0_measured_correct_state",
            "wrong_state_fraction",
            "shots",
            "stderr",
        ],
        rows,
    )
    report.add_output(path)
    report.payload["results"] = {
        "points": len(rows), "events": _event_counts(events), "rng_scheme": RNG_SCHEME,
    }


COMMANDS = {
    "simulate": cmd_simulate,
    "response": cmd_response,
    "spectrum": cmd_spectrum,
    "fit": cmd_fit,
    "detect": cmd_detect,
    "cool": cmd_cool,
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="tweezersim",
        description="Pulse-level simulation and analysis of ancilla-based "
        "readout, loss detection, and algorithmic cooling",
    )
    parser.add_argument("command", choices=sorted(COMMANDS), nargs="?")
    parser.add_argument("--config", help="JSON config path (or a preset name)")
    parser.add_argument("--seed", type=int, help="master seed override")
    parser.add_argument("--threads", type=int, help="worker count (default 1)")
    parser.add_argument("--out", help="output directory")
    parser.add_argument(
        "--dump-config", action="store_true", help="print the full default config and exit"
    )
    return parser


def _resolve_config_path(name):
    if os.path.exists(name):
        return name
    preset = os.path.join(os.path.dirname(__file__), "presets", name + ".json")
    if os.path.exists(preset):
        return preset
    raise FileNotFoundError(f"config file not found: {name}")


def _int_override(flag, value, env, minimum):
    """The flag's value, else the environment variable's, as an int >= minimum.

    None when neither is set; a ValidationError naming the flag or the
    variable otherwise.
    """
    name = flag
    if value is None and os.environ.get(env):
        name, value = env, os.environ[env]
    if value is None:
        return None
    try:
        value = int(value)
    except ValueError:
        raise ValidationError(f"{name} must be an integer, got {value!r}") from None
    if value < minimum:
        raise ValidationError(f"{name} must be >= {minimum}, got {value}")
    return value


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.dump_config:
        print(dump_default_config())
        return 0
    if not args.command:
        parser.print_usage()
        return 2
    try:
        if not args.config:
            raise ValidationError("--config is required")
        path = _resolve_config_path(args.config)
        config = load_config(path)
        config["_base_dir"] = os.path.dirname(os.path.abspath(path))
        seed = _int_override("--seed", args.seed, "TWEEZERSIM_SEED", minimum=0)
        if seed is not None:
            config["seed"] = seed
        workers = _int_override("--threads", args.threads, "TWEEZERSIM_THREADS", minimum=1) or 1
        out_dir = args.out or os.environ.get("TWEEZERSIM_OUT") or config["output"]["dir"]
        os.makedirs(out_dir, exist_ok=True)
        report = RunReport(args.command, _echo_config(config), config["seed"], workers)
        COMMANDS[args.command](config, out_dir, workers, report)
        rpath = report.write(out_dir)
        print(f"wrote {', '.join(report.payload['outputs'] + [os.path.basename(rpath)])} to {out_dir}")
        return 0
    except ValidationError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NumericsError as exc:
        module = _origin_module(exc)
        hint = ""
        if isinstance(exc, StepSizeError):  # noisy pulses take dt from this key
            steps = config["protocol"]["steps_per_pulse"]
            hint = f"; increase protocol.steps_per_pulse (now {steps})"
        print(
            f"numerical error ({type(exc).__name__} in {module}): {exc}{hint}", file=sys.stderr
        )
        return 3
    except TweezersimError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4


def _origin_module(exc) -> str:
    """Innermost package module on the exception's traceback."""
    module = "tweezersim"
    tb = exc.__traceback__
    while tb is not None:
        name = tb.tb_frame.f_globals.get("__name__", "")
        if name.startswith("tweezersim"):
            module = name
        tb = tb.tb_next
    return module


def _echo_config(config):
    echo = {k: v for k, v in config.items() if not k.startswith("_")}
    return json.loads(json.dumps(echo))


if __name__ == "__main__":
    sys.exit(main())
