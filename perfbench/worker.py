"""One workload in one fresh process; started by run.py, not by hand.

Set-up time runs from ``--spawn-time``, the parent's CLOCK_MONOTONIC
reading just before it started this process, to the end of set-up. It
is rescaled by the mean of the reference loop timed right after it and
``--ref-before``, the same loop at the end of the previous worker's
set-up (each a median of three). The last stdout line is a JSON object:
only the set-up times with ``--setup-only``, else the full result.
Untraced runs time units until ``--seconds`` have passed, read the peak
resident memory, and only then repeat unit 0 to compare output digests
and run the output checks, so neither shows in ``peak_rss_mb``.
Traced runs time a fixed number of units derived from ``--seconds``,
each once untraced and once traced, so counts repeat exactly at a seed
and the two wall times give the tracing overhead.
"""

from __future__ import annotations

import argparse
import cmath
import itertools
import json
import math
import os
import resource
import shutil
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(1, os.path.dirname(os.path.abspath(__file__)))

import numpy as np  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: Reference-loop time of the nominal host. The host this benchmark was
#: written on (2 vCPUs, Intel Xeon at 2.1 GHz) runs the loop in 9-17 ms,
#: swinging between those for tens of seconds at a time, and the program
#: slows with it; raw times then spread 15-30% between runs. Gated times
#: are therefore rescaled to a host that runs the loop in this time.
REF_NOMINAL_S = 0.009

_REF_X = np.linspace(0.0, 1.0, 32)
_REF_M = np.eye(8) * 0.5


def host_reference_s():
    """Wall time of a fixed mix of the three kinds of work the workloads do:
    interpreted integer code, complex scalar math, and small numpy arrays."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(50_000):
        acc = (acc + i * i) % 1_000_003
    z = 1 + 0j
    for i in range(15_000):
        z = z * cmath.exp(-1e-3j * (i % 5)) + 1e-9 * math.sqrt(i + 1.0)
    for i in range(500):
        acc += float(np.exp(-_REF_X * (i % 7)).sum()) + float((_REF_M @ _REF_X[:8])[0])
    return time.perf_counter() - t0


def at_nominal(seconds, ref_s):
    """A duration rescaled to a host that runs the reference loop in REF_NOMINAL_S."""
    return seconds * REF_NOMINAL_S / ref_s


def run_units(wl, indices, result, seconds=math.inf):
    """Run and check units until ``indices`` or ``seconds`` run out.

    Returns each unit's wall time and the same time at nominal host speed,
    rescaled by the mean of the reference loop timed on either side of it.
    Unit 0's digests are kept. A unit that raises (a CLI command exiting
    non-zero, say) counts its ops as failed and is not timed.
    """
    wall, nominal = [], []
    ref = host_reference_s()
    result["host_ref_s"].append(ref)
    start = time.perf_counter()
    for i in indices:
        t0 = time.perf_counter()
        try:
            unit = wl.run_unit(i)
        except Exception as exc:  # noqa: BLE001 -- any failed operation is counted, not fatal
            unit = None
            result["ops"] += wl.ops_per_unit
            result["failed"] += wl.ops_per_unit
            result["failures"].append(f"unit {i} raised {type(exc).__name__}: {exc}")
        elapsed = time.perf_counter() - t0
        ref_after = host_reference_s()
        result["host_ref_s"].append(ref_after)
        ref_mean, ref = 0.5 * (ref + ref_after), ref_after
        if unit is not None:
            wall.append(elapsed)
            nominal.append(at_nominal(elapsed, ref_mean))
            result["ops"] += unit.ops
            for key, values in unit.parts.items():
                result["parts"].setdefault(key, []).extend(values)
            failures = wl.check_unit(i, unit)
            if failures:
                result["failed"] += unit.ops
                result["failures"].extend(failures)
            if i == 0:
                result["digests"].append(wl.digests(i, unit))
                result["unit0"] = unit
        if time.perf_counter() - start >= seconds:
            break
    return wall, nominal


def layer_metrics(tracer, wall_s, wl, ops, host_factor):
    """Per-layer metrics of the traced units; ``ops`` is the work they did."""
    spans = tracer.summary()
    counts = tracer.counts

    def get(name, key):
        return spans.get(name, {}).get(key, 0)

    def per(num, den, scale=1.0):
        return scale * num / den if den else 0.0

    def per_call(name, scale):
        return per(get(name, "incl_s"), get(name, "calls"), scale)

    shots = ops if wl.ops_name == "shots_per_s" else 0
    spectra = ops if wl.ops_name == "spectra_per_s" else 0
    baseline = round(spectra * getattr(wl, "baseline_share", 0.0))
    layer_self = {layer: 0.0 for layer in LAYERS}
    for name, s in spans.items():
        layer_self[name.split(".")[0]] += s["self_s"]
    kernel_traj = counts.get("kernels.evolve_blocks_batch.trajectories", 0)
    m = {f"{layer}.self_share": (per(v, wall_s), "frac") for layer, v in layer_self.items()}
    m.update(
        {
            "traced_self_sum_frac": (per(sum(layer_self.values()), wall_s), "frac"),
            "kernels.evolve_blocks_batch.ms_per_traj": (
                per(get("kernels.evolve_blocks_batch", "incl_s"), kernel_traj, 1e3), "ms"),
            "kernels.ns_per_pair_step": (per(layer_self["kernels"], counts.get("kernels.pair_steps", 0), 1e9), "ns"),
            "kernels.evolve_blocks.ms_per_call": (per_call("kernels.evolve_blocks", 1e3), "ms"),
            "kernels.pair_steps": (counts.get("kernels.pair_steps", 0), "count"),
            "dynamics.sample_noise.us_per_call": (per_call("dynamics.sample_noise", 1e6), "us"),
            "dynamics.evolve.calls": (get("dynamics.evolve", "calls"), "count"),
            "dynamics.evolve.self_ms_per_call": (
                per(get("dynamics.evolve", "self_s"), get("dynamics.evolve", "calls"), 1e3), "ms"),
            "states.prepare_state.calls": (get("states.prepare_state", "calls"), "count"),
            "gates.self_us_per_shot": (per(layer_self["gates"], shots, 1e6), "us"),
            "gates.apply_cz.calls": (get("gates.apply_cz", "calls"), "count"),
            "gates.pair_rotation.calls": (get("gates.pair_rotation", "calls"), "count"),
            "gates.image_pair_ancilla.calls": (get("gates.image_pair_ancilla", "calls"), "count"),
            "protocols.self_us_per_shot": (per(layer_self["protocols"], shots, 1e6), "us"),
            "protocols.shot_rng.us_per_call": (per_call("protocols.shot_rng", 1e6), "us"),
            "analysis.fit_heating_sideband.calls_per_spectrum": (
                per(get("analysis.fit_heating_sideband", "calls"), baseline), "count"),
            "analysis.fit_heating_sideband.ms_per_call": (per_call("analysis.fit_heating_sideband", 1e3), "ms"),
            "analysis.profile_likelihood_cooling_peak.ms_per_call": (
                per_call("analysis.profile_likelihood_cooling_peak", 1e3), "ms"),
            "analysis.fit_double_gaussian_with_offset.ms_per_call": (
                per_call("analysis.fit_double_gaussian_with_offset", 1e3), "ms"),
            "analysis.minimize.nfev_per_spectrum": (per(counts.get("analysis.minimize.nfev", 0), spectra), "count"),
            "analysis.optimize_threshold.ms_per_call": (per_call("analysis.optimize_threshold", 1e3), "ms"),
            "cli.write_csv.us_per_row": (
                per(get("cli.write_csv", "incl_s"), counts.get("cli.write_csv.rows", 0), 1e6), "us"),
            "cli.read_shots_csv.ms": (per_call("cli.read_shots_csv", 1e3), "ms"),
            "protocols.simulate_sideband_spectrum.ms_per_call": (
                per_call("protocols.simulate_sideband_spectrum", 1e3), "ms"),
            "cli.read_spectrum_csv.ms": (per_call("cli.read_spectrum_csv", 1e3), "ms"),
            "cli.write_json.ms": (per_call("cli.write_json", 1e3), "ms"),
            "config.load_config.ms": (per_call("config.load_config", 1e3), "ms"),
            "config.build_protocol.ms": (per_call("config.build_protocol", 1e3), "ms"),
        }
    )
    # per-layer times are reported at nominal host speed as well
    m = {k: (v * host_factor if u in ("ms", "us", "ns") else v, u) for k, (v, u) in m.items()}
    return m, spans


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work-dir", required=True)
    parser.add_argument("--spawn-time", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--ref-before", type=float)
    args = parser.parse_args(argv)

    os.makedirs(args.work_dir, exist_ok=True)
    wl = WORKLOADS[args.workload](ROOT, args.seed, os.path.join(args.work_dir, "io"))
    wl.setup()
    setup_s = time.monotonic() - args.spawn_time
    ref_s = sorted(host_reference_s() for _ in range(3))[1]
    ref_mean = ref_s if args.ref_before is None else 0.5 * (args.ref_before + ref_s)
    setup = {"setup_s": setup_s, "setup_nominal_s": at_nominal(setup_s, ref_mean), "ref_s": ref_s}
    if args.setup_only:
        print(json.dumps(setup), flush=True)
        return 0

    result = {**setup, "ops": 0, "failed": 0, "failures": [], "parts": {}, "digests": [], "host_ref_s": []}
    if args.trace:
        n_units = max(1, round(args.seconds / (2 * wl.unit_s)))
        tracer = Tracer()
        untraced, untraced_nominal, traced, traced_nominal = [], [], [], []
        # run each unit untraced and traced back to back, in alternating
        # order, so both copies see the same host and the ratio of their
        # times is the tracing overhead
        for i in range(n_units):
            for traced_copy in (i % 2 == 1, i % 2 == 0):
                if traced_copy:
                    tracer.run_id = i
                    tracer.install()
                try:
                    wall, nominal = run_units(wl, [i], result)
                finally:
                    tracer.uninstall()
                (traced if traced_copy else untraced).extend(wall)
                (traced_nominal if traced_copy else untraced_nominal).extend(nominal)
        # units that raised are not timed; if none is left the run has failed anyway
        host_factor = sum(traced_nominal) / sum(traced) if traced else 1.0
        metrics, spans = layer_metrics(tracer, sum(traced), wl, result["ops"] // 2, host_factor)
        overhead = sum(traced_nominal) / sum(untraced_nominal) - 1.0 if traced and untraced else 0.0
        metrics["trace_overhead_frac"] = (overhead, "frac")
        tracer.save(os.path.join(args.work_dir, "spans.npz"))
        result.update(metrics=metrics, spans=spans, unit_s=untraced, traced_unit_s=traced)
    else:
        result["unit_s"], result["unit_nominal_s"] = run_units(
            wl, itertools.count(), result, args.seconds
        )
        # sampled before the digest repeat and the output checks, whose
        # reference computations (expm over 2000 steps) would dominate it
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        parts = {key: list(values) for key, values in result["parts"].items()}
        # same seed, same unit: the output bytes must repeat exactly
        run_units(wl, [0], result)
        result["parts"] = parts
    unit0 = result.pop("unit0", None)
    if unit0 is not None and len({json.dumps(d, sort_keys=True) for d in result["digests"]}) != 1:
        result["failures"].append("unit 0 repeated at the same seed gave different output digests")
        result["failed"] += unit0.ops
    if unit0 is not None and hasattr(wl, "final_checks"):
        failures = wl.final_checks(unit0)
        result["failures"].extend(failures)
        result["failed"] += unit0.ops if failures else 0

    import numpy
    import scipy
    import tweezersim

    result["env"] = {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "backend": getattr(tweezersim.kernels, "BACKEND", None),
    }
    shutil.rmtree(os.path.join(args.work_dir, "io"), ignore_errors=True)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
