"""Config-driven command-line entry point.

Subcommands: simulate, response, spectrum, fit, detect, cool, each a
`cmd_*(config, report) -> results` that writes its outputs through the
run's RunReport and returns the results report.json records, next to the
run's warnings. Every run writes machine-readable outputs (CSV with a
fixed documented column order, floats at 17 significant digits) plus a
report.json echoing the validated config so the run can be reproduced
bit-exactly. The JSON outputs (report.json, fit.json, budget.json) are
compact, one line with sorted keys; `python -m json.tool FILE`
pretty-prints one.

Flags: --config PATH, --seed U64, --threads N, --out DIR, --dump-config.
Environment overrides (lower precedence than flags): TWEEZERSIM_SEED,
TWEEZERSIM_THREADS, TWEEZERSIM_OUT.

Outputs are overwritten in place (never truncated to zero first, which
makes ext4 write them back on close), so their bytes are the same as a
run into a fresh directory. Nothing is fsynced: a run interrupted
part-way can leave a partial file, as it always could.

Exit codes: 0 ok, 2 config validation, 3 numerical guard, 4 I/O.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import json
import math
import os
import sys
import time
import warnings
from collections import Counter
from itertools import chain, groupby

import numpy as np

from . import __version__
from .analysis import (
    aggregate_signals,
    binomial_stderr,
    fit_double_gaussian_with_offset,
    nonthermal_correction,
    optimize_threshold,
    optimize_thresholds,
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
from .dynamics import SpectralDensity, omega_01, sideband_rabi
from .errors import NumericsError, StepSizeError, TruncationError, TweezersimError, ValidationError
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
WRITE_BLOCK_ROWS = 4096
_CELL_FORMATS = {"f": FLOAT_FMT, "b": "%d", "i": "%d", "u": "%d"}  # by dtype kind; any other is %s


@contextlib.contextmanager
def _overwrite(path):
    """A UTF-8 text handle that overwrites path in place, then cuts the file
    at the last byte written if it was longer. Opening with O_TRUNC instead
    (open(path, "w")) makes ext4 (auto_da_alloc) start writeback of the new
    data on close: a 3 KB rewrite took ~0.25 ms at the median and ~1.5 ms at
    p90 that way, ~0.05 and ~0.1 ms in place (2-vCPU VM)."""
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    with open(fd, "w", encoding="utf-8", newline="\n") as fh:
        try:
            yield fh
        finally:
            size = os.fstat(fd).st_size  # 0 for /dev/null or a pipe, which cannot be cut
            if size > 0 and size > fh.tell():
                fh.truncate()


def write_csv(path, header, columns):
    """A CSV of columns of float, int, bool or str: floats at 17
    significant digits (nan as `nan`), bools as 0/1. Every column has one
    entry per record: 1-D, one cell, or 2-D (records, k), k cells that go
    on the record's k lines, one each. All 2-D columns share k; a 1-D
    cell repeats on each of its record's lines, and each run of adjacent
    1-D columns is formatted once per record. Lines are formatted and
    written in blocks of about WRITE_BLOCK_ROWS lines (whole records), so
    memory does not grow with the table and a failed write leaves whole
    records of the earlier blocks."""
    columns = [np.asarray(c) for c in columns]
    n = len(columns[0]) if columns else 0
    wide = {c.shape for c in columns} - {(n,)}  # {(n, k)} if there are 2-D columns
    k = max(wide)[-1] if wide else 1
    if wide and wide != {(n, k)}:
        raise ValueError(f"write_csv: columns of unequal length or width for {path}")
    fmts = [_CELL_FORMATS.get(c.dtype.kind, "%s") for c in columns]
    with _overwrite(path) as fh:
        fh.write(",".join(header) + "\n")
        if k == 1:  # one line per record
            row = ",".join(fmts) + "\n"
            columns = [c.reshape(n) for c in columns] if wide else columns
            for lo in range(0, n, WRITE_BLOCK_ROWS):
                block = [c[lo : lo + WRITE_BLOCK_ROWS].tolist() for c in columns]
                cells = tuple(chain.from_iterable(zip(*block)))  # row by row
                fh.write((row * len(block[0])) % cells)
            return
        # runs of adjacent 2-D columns, a cell each on every line, and of adjacent
        # 1-D columns, formatted once per record into one text cell
        runs = []
        for ndim, run in groupby(zip(columns, fmts), key=lambda cf: cf[0].ndim):
            run_columns, run_fmts = zip(*run)
            runs.append((ndim, run_columns, ",".join(run_fmts)))
        row = ",".join(fmt if ndim == 2 else "%s" for ndim, _, fmt in runs) + "\n"
        records = max(1, WRITE_BLOCK_ROWS // max(k, 1))  # per block: about WRITE_BLOCK_ROWS lines
        for lo in range(0, n, records):
            block = []
            for ndim, run_columns, fmt in runs:
                if ndim == 2:
                    block += (c[lo : lo + records].ravel().tolist() for c in run_columns)
                else:
                    texts = list(map(fmt.__mod__, zip(*(c[lo : lo + records].tolist() for c in run_columns))))
                    block.append(chain.from_iterable(zip(*[texts] * k)))  # each text on k lines
            cells = tuple(chain.from_iterable(zip(*block)))  # line by line
            fh.write((row * (min(records, n - lo) * k)) % cells)


def write_json(path, payload):
    """payload as one line of compact JSON with sorted keys. Without
    `indent`, json uses its C encoder (about 4x faster on a report.json)."""
    with _overwrite(path) as fh:
        fh.write(json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n")


class RunReport:
    """One run's report.json payload, and the writer of its outputs: `csv`
    and `json` write a file into out_dir and list its name in `outputs`."""

    def __init__(self, command, config, seed, out_dir, workers):
        self.t0 = time.perf_counter()
        self.out_dir, self.workers = out_dir, workers
        self.payload = {
            "artifact": "tweezersim",
            "version": __version__,
            "command": command,
            "seed": seed,
            "workers": workers,
            "config": config,
            "outputs": [],
        }

    def csv(self, name, header, columns):
        write_csv(os.path.join(self.out_dir, name), header, columns)
        self.payload["outputs"].append(name)

    def json(self, name, payload):
        write_json(os.path.join(self.out_dir, name), payload)
        self.payload["outputs"].append(name)

    def write(self):
        self.payload["wall_time_s"] = time.perf_counter() - self.t0
        write_json(os.path.join(self.out_dir, "report.json"), self.payload)


# ---------------------------------------------------------------------------
# shot tables -> CSV

SHOT_HEADER = ["scenario", "shot", "round", "signal", "ancilla_label", "data_label", "data_n",
               "data_lost", "aux"]
DETECT_HEADER = ["p1", "n_cyc", "threshold", "fidelity", "f1", "f0"]


def shot_columns(table):
    """The SHOT_HEADER columns for write_csv, one record per shot: the
    table's own per-shot arrays, and (shots, rounds) `round` (a broadcast
    index), `signal` and `ancilla_label`, so a shot's rounds go on one line
    each. `aux` carries the analyzer phase for loss detection and the
    initial Fock number for cooling, and `data_n` is empty where no Fock
    number was read out."""
    shots, rounds = table.signals.shape
    data_n = table.data_n.astype(object)
    data_n[table.data_n < 0] = ""
    return [
        table.scenario, table.shot, np.broadcast_to(np.arange(rounds), (shots, rounds)),
        table.signals, table.ancilla_labels, table.data_label, data_n, table.data_lost, table.aux,
    ]


def _event_counts(events):
    return {kind: int(events.get(kind, 0)) for kind in EVENT_KINDS}


# ---------------------------------------------------------------------------
# subcommands


def cmd_simulate(config, report):
    kind = config["protocol"]["kind"]
    pconf = build_protocol(config, report.workers)
    if kind == "repeated_readout":
        table = run_repeated_readout(pconf)
        results = _readout_summary(table, pconf)
    elif kind == "loss_detection":
        table, fringe = run_loss_detection(pconf)
        results = _loss_summary(table, fringe, pconf)
        phis, up, err = (np.concatenate(c) for c in zip(*fringe.values()))
        scenarios = np.repeat(list(fringe), [v[0].size for v in fringe.values()])
        report.csv("fringe.csv", ["scenario", "phase_rad", "p_up", "stderr", "shots"],
                   [scenarios, phis, up, err, np.full(phis.size, pconf.shots)])
    elif kind == "algorithmic_cooling":
        table, results = run_algorithmic_cooling(pconf)
    else:  # phase_calibration
        table = calibrate_phase(pconf)
        report.csv("phase_calibration.csv", ["phase_rad"] + [f"p_down_{s}" for s in pconf.scenarios],
                   [table["phases"]] + [table["p_down"][s] for s in pconf.scenarios])
        return {"data_state_deviation": table["data_state_deviation"]}
    report.csv("shots.csv", SHOT_HEADER, shot_columns(table))
    return results | {"events": _event_counts(table.events), "rng_scheme": RNG_SCHEME}


def _detection_table(present, absent, priors, rounds):
    """DETECT_HEADER rows, priors outer, each thresholding the per-shot sums of the
    first n rounds' signals. Only `detect` can ask for more rounds than were recorded."""
    try:
        sums = {n: (aggregate_signals(present, n), aggregate_signals(absent, n)) for n in rounds}
    except ValidationError as exc:
        raise ValidationError(f"detect.n_cyc_list: {exc}") from None
    results = {n: optimize_thresholds(*sums[n], priors, n_cyc=n) for n in sums}  # one scan per round count
    by_prior = zip(*map(results.get, rounds))  # priors outer, then rounds
    return [(r.p1, r.n_cyc, r.threshold, r.fidelity, r.f1, r.f0) for row in by_prior for r in row]


def _readout_summary(table, pconf):
    out = {"protocol": "repeated_readout", "shots": pconf.shots, "n_cyc": pconf.n_cyc}
    present = table.signals[table.scenario == "present"]
    absent = table.signals[table.scenario == "absent"]
    if present.size and absent.size:
        fids = {}
        rows = _detection_table(present, absent, pconf.p1_priors, range(1, pconf.n_cyc + 1))
        for p1, n, *values in rows:
            fids.setdefault(str(p1), {})[str(n)] = dict(zip(DETECT_HEADER[2:], values))
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


def cmd_response(config, report):
    sec = config["response"]
    trap = build_trap(config)
    rabi = TWO_PI * config["pulse"]["rabi_hz"]
    if sec["grid_kind"] == "log":
        grid = np.logspace(math.log10(sec["f_min_hz"]), math.log10(sec["f_max_hz"]), sec["points"])
    else:
        grid = np.linspace(sec["f_min_hz"], sec["f_max_hz"], sec["points"])
    try:
        query = ResponseQuery(
            eta=trap.eta,
            rabi=rabi,
            frequencies_hz=grid,
            channel=sec["channel"],
            duration=sec["duration_s"],
        )
    except ValidationError as exc:
        eta = "trap.eta" if config["trap"]["eta"] is not None else (
            "trap.eta (null: from trap.frequency_hz, trap.mass_amu and trap.wavelength_nm)")
        keys = {"frequencies_hz": "response.f_min_hz, response.f_max_hz, response.points and response.grid_kind",
                "channel": "response.channel", "duration": sec["duration_s"] is not None and "response.duration_s",
                }.get(exc.field) or f"{eta} and pulse.rabi_hz"  # a null response.duration_s is the pi time
        raise ValidationError(f"{keys}: {exc}") from None
    rf = response_function(query)
    noise = build_noise(config)
    channel_spec = noise.channel(sec["channel"])
    try:
        b = budget(noise, {sec["channel"]: rf})
    except ValidationError as exc:
        if isinstance(channel_spec, SpectralDensity):
            raise
        raise ValidationError(f"noise.{sec['channel']}.sigma_hz: {exc}") from None
    columns = [rf.frequencies_hz, rf.values]
    header = ["frequency_hz", "response_s2"]
    if isinstance(channel_spec, SpectralDensity):
        s_interp = np.interp(
            rf.frequencies_hz, channel_spec.frequencies_hz, channel_spec.values,
            left=0.0, right=0.0,
        )
        columns += [s_interp, s_interp * rf.values]
        header += ["psd", "psd_times_response"]
    report.csv("response.csv", header, columns)
    report.json("budget.json", {
        "channel": sec["channel"],
        "eta": trap.eta,
        "rabi_hz": config["pulse"]["rabi_hz"],
        "duration_s": rf.duration,
        "contributions": b.contributions,
        "provenance": b.provenance,
        "total": b.total,
    })
    return {"chi_total": b.total}


def _spectrum_grid(config, trap):
    sec = config["spectrum"]
    f_trap = trap.omega_t / TWO_PI
    span = sec["detuning_span_hz"]
    if span is None:
        # main lobe of the pi-pulse line at the configured drive
        span = 1.75 * omega_01(trap, TWO_PI * config["pulse"]["rabi_hz"]) / TWO_PI
    side = np.linspace(f_trap - span, f_trap + span, sec["points_per_side"])
    return np.concatenate([-side[::-1], side])


SPECTRUM_HEADER = ["detuning_hz", "p_exc", "stderr", "shots"]


def cmd_spectrum(config, report):
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
    report.csv("spectrum.csv", SPECTRUM_HEADER,
               [spectrum.detuning_hz, spectrum.p_exc, spectrum.stderr, spectrum.shots])
    return {"nbar": sec["nbar"], "after_cooling": sec["after_cooling"],
            "points": int(spectrum.detuning_hz.size)}


def _read_columns(path, types, optional=()):
    """Columns of a CSV by header name, each parsed as its dtype (np.int64,
    float, or object for text, kept as Python str) into an array; an optional
    name may be missing from the header. One np.loadtxt call reads every
    row: each must hold one cell per header name, an integer cell must fit
    in 64 bits, a cell starting with # is data, and empty lines are skipped.
    A file it rejects raises ValueError naming the first bad line."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n").split(",")
        missing = [name for name in types if name not in header and name not in optional]
        if missing:
            raise ValueError(f"no {', '.join(missing)} column in the header")
        wanted = {header.index(name): name for name in types if name in header}
        dtype = [(f"f{j}", types[wanted[j]] if j in wanted else "U1") for j in range(len(header))]
        read = functools.partial(np.loadtxt, dtype=dtype, delimiter=",", comments=None, ndmin=1)
        with warnings.catch_warnings():  # a file (or a run of lines) of no rows is an empty table
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            try:
                table = read(fh)
            except ValueError:
                fh.seek(0)
                raise ValueError(_first_bad_line(read, fh.readlines(), header)) from None
    return {name: table[f"f{j}"] for j, name in wanted.items()}


def _first_bad_line(read, lines, header) -> str:
    """Why `read` rejects the first of the file's lines (the header is
    line 1) that it rejects: the line by bisection, each read taking half
    the lines still in question, then its cell one column at a time."""
    lo, hi = 1, len(lines)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        try:
            read(lines[lo:mid])
            lo = mid
        except ValueError:
            hi = mid
    cells = lines[lo].rstrip("\n").split(",")
    if len(cells) != len(header):
        return f"line {lo + 1} has {len(cells)} cells, the header has {len(header)}"
    for j, (_, kind) in enumerate(read.keywords["dtype"]):
        try:
            read(lines[lo : lo + 1], dtype=kind, usecols=j)
        except ValueError:
            what = "a 64-bit integer" if kind is np.int64 else "a number"
            return f"line {lo + 1}, column {header[j]}: {cells[j]!r} is not {what}"


def _input_csv(config, section):
    """The section's input_csv path, taken relative to the config file."""
    if not config[section]["input_csv"]:
        raise ValidationError(f"{section}.input_csv is required")
    return os.path.join(config.get("_base_dir", "."), config[section]["input_csv"])


def read_spectrum_csv(path) -> SidebandSpectrum:
    """The spectrum in a spectrum.csv written by `spectrum`; a missing
    `shots` column reads as zeros."""
    try:
        cols = _read_columns(path, dict.fromkeys(SPECTRUM_HEADER, float), optional=("shots",))
        if not cols["p_exc"].size:
            raise ValidationError("no spectrum rows")
        return SidebandSpectrum(
            detuning_hz=cols["detuning_hz"], p_exc=cols["p_exc"], stderr=cols["stderr"],
            shots=cols.get("shots", np.zeros(cols["p_exc"].size)),
        )
    except (ValueError, ValidationError) as exc:
        raise ValidationError(f"fit.input_csv: {path} is not a spectrum CSV: {exc}") from None


def cmd_fit(config, report):
    sec = config["fit"]
    spectrum = read_spectrum_csv(_input_csv(config, "fit"))
    trap = build_trap(config)
    rabi = TWO_PI * config["pulse"]["rabi_hz"]
    t12 = math.sin(sideband_rabi(1, 2, trap.eta, rabi) / omega_01(trap, rabi) * math.pi / 2) ** 2
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
    report.json("fit.json", payload)
    return {"mode": sec["mode"]}


def read_shots_csv(path):
    """Signals per scenario from a shots.csv written by simulate, as a
    (shots, rounds) matrix in shot order, keyed by the scenario cells as
    written, in code-point order. Every (scenario, shot, round)
    must have exactly one row, so a loss-detection file, whose shot
    numbers restart for every analyzer phase, is rejected."""
    try:
        cols = _read_columns(path, {"scenario": object, "shot": np.int64, "round": np.int64,
                                    "signal": float})
        scenario = cols["scenario"].tolist()
        names = sorted(set(scenario))
        code = np.fromiter(map({name: k for k, name in enumerate(names)}.__getitem__, scenario), np.intp)
        out = {}
        for k, name in enumerate(names):
            mine = code == k
            shots, shot_index = np.unique(cols["shot"][mine], return_inverse=True)
            rnd = cols["round"][mine]
            n_rounds = int(rnd.max()) + 1
            # the sizes are compared as Python ints before any cell index is formed
            if rnd.min() < 0 or rnd.size != shots.size * n_rounds or np.bincount(
                    cell := shot_index * n_rounds + rnd).max() > 1:
                raise ValueError(f"scenario {name} has {rnd.size} rows for {shots.size} shots "
                                 f"x {n_rounds} rounds, not one per (scenario, shot, round)")
            if not np.all(np.isfinite(cols["signal"][mine])):
                raise ValueError(f"scenario {name} has a non-finite signal")
            matrix = np.empty(cell.size)
            matrix[cell] = cols["signal"][mine]
            out[name] = matrix.reshape(shots.size, n_rounds)
        return out
    except ValueError as exc:
        raise ValidationError(f"detect.input_csv: {path} is not a shots CSV: {exc}") from None


def cmd_detect(config, report):
    sec = config["detect"]
    matrices = read_shots_csv(_input_csv(config, "detect"))
    if "present" not in matrices or "absent" not in matrices:
        raise ValidationError("detect.input_csv must hold present and absent scenarios")
    rows = _detection_table(matrices["present"], matrices["absent"],
                            config["protocol"]["p1_priors"], sec["n_cyc_list"])
    report.csv("detect.csv", DETECT_HEADER, zip(*rows))
    return {"rows": len(rows)}


def cmd_cool(config, report):
    pconf = dataclasses.replace(
        build_protocol(config, report.workers),
        kind="algorithmic_cooling",
        data_psi=config["protocol"]["data_psi"],  # null: the cooling default
    )
    nbar = np.array(cooling_nbar_list(config))
    events, summaries = Counter(), []
    for value in nbar.tolist():
        table, summary = run_algorithmic_cooling(dataclasses.replace(pconf, data_nbar=value))
        events += table.events
        summaries.append(summary)
    meas, correct, wrong, shots = (
        np.array([summary[key] for summary in summaries])
        for key in ("ground_state_fraction", "ground_state_fraction_correct_state",
                    "wrong_state_fraction", "shots")
    )
    # p0_ideal, the one-quantum-removal reference, on a ladder deep enough
    # that the truncation cannot shift it: equals 1 - q^2
    ideal = [remove_one_quantum(thermal_distribution(ThermalSpec(nbar=v, n_max=400)))[0]
             for v in nbar.tolist()]
    header = ["nbar_init", "p0_init", "p0_ideal", "p0_measured", "p0_measured_correct_state",
              "wrong_state_fraction", "shots", "stderr"]
    report.csv("cool.csv", header, [nbar, 1.0 - nbar / (nbar + 1.0), ideal, meas, correct, wrong,
                                    shots, binomial_stderr(meas, shots)])
    return {"points": int(nbar.size), "events": _event_counts(events), "rng_scheme": RNG_SCHEME}


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


PARSER = build_parser()  # built once; main() parses every call with it


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
    args = PARSER.parse_args(argv)
    if args.dump_config:
        print(dump_default_config())
        return 0
    if not args.command:
        PARSER.print_usage()
        return 2
    try:
        if not args.config:
            raise ValidationError("--config is required")
        path = _resolve_config_path(args.config)
        config = load_config(path)
        seed = _int_override("--seed", args.seed, "TWEEZERSIM_SEED", minimum=0)
        if seed is not None:
            config["seed"] = seed
        workers = _int_override("--threads", args.threads, "TWEEZERSIM_THREADS", minimum=1) or 1
        out_dir = args.out or os.environ.get("TWEEZERSIM_OUT") or config["output"]["dir"]
        os.makedirs(out_dir, exist_ok=True)
        # the echo shares the config's values: nothing changes the config after this
        echo = {k: v for k, v in config.items() if not k.startswith("_")}
        report = RunReport(args.command, echo, config["seed"], out_dir, workers)
        with warnings.catch_warnings(record=True) as caught:  # the filters stay as they are
            report.payload["results"] = COMMANDS[args.command](config, report)
        report.payload["warnings"] = list(dict.fromkeys(str(w.message) for w in caught))
        for message in report.payload["warnings"]:
            print(f"warning: {message}", file=sys.stderr)
        report.write()
        print(f"wrote {', '.join(report.payload['outputs'] + ['report.json'])} to {out_dir}")
        return 0
    except (ValidationError, NumericsError) as exc:
        hint = ""
        # noisy pulses take dt from this key: the step bound and a PSD's grid bound name it
        if isinstance(exc, StepSizeError) or getattr(exc, "field", None) == "dt":
            hint = f"; increase protocol.steps_per_pulse (now {config['protocol']['steps_per_pulse']})"
        elif isinstance(exc, TruncationError):  # the Fock ladder ends at this key
            hint = f"; increase protocol.n_max (now {config['protocol']['n_max']})"
        if isinstance(exc, ValidationError):
            print(f"config error: {exc}{hint}", file=sys.stderr)
            return 2
        print(f"numerical error ({type(exc).__name__} in {_origin_module(exc)}): {exc}{hint}", file=sys.stderr)
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


if __name__ == "__main__":
    sys.exit(main())
