"""tweezersim benchmark.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout; the package is imported from
``src/`` of that checkout and nothing is installed. Each workload runs in
a fresh single-threaded worker process (``worker.py``). Before it, one
untimed process sets up to warm the bytecode and file caches, and six
more fresh processes only set up, so ``setup_s`` is a median of seven.
Bytecode is cached under ``.perfbench_out/pycache`` (PYTHONPYCACHEPREFIX),
never in ``src/``, so set-up time does not depend on whether the tests
or an edit left ``__pycache__`` files in the source tree.

With ``--trace 0`` the end-to-end metrics are measured untraced:

* ``setup_s`` -- fresh process to the first timed unit: imports, config
  load and validation, imaging calibration, one untimed warm-up unit.
* ``ops_per_s`` -- work completed per second, from the median time of one
  timed unit; the work is trajectories (pulse_ensemble), scenario-shots
  (readout_chain, loss_shelving) or spectrum->fit pairs
  (thermometry_chain); the table shows it in those units.
* ``peak_rss_mb`` -- peak resident memory of the worker process, read
  right after the timed units, before the output checks run.

``setup_s`` and ``ops_per_s`` are given at nominal host speed, because
the speed of the host they were tuned on swings by up to 1.8x for tens
of seconds at a time. Each unit's time is rescaled by a fixed reference
loop timed on either side of it (see ``worker.REF_NOMINAL_S``); each
set-up time by the same loop timed at the end of the previous set-up
and at the end of its own. Over two ten-seed sweeps of the same code on
a 2-vCPU Xeon VM, raw set-up medians moved by up to 18% and rescaled
ones by 2%. The
raw figures are printed and recorded as ``raw_*``; thermometry_chain
also prints the raw latency of baseline and cooled pairs apart
(``raw_fit_baseline_ms_p50/p90``, ``raw_fit_cooled_ms_p50/p90``).

With ``--trace 1`` every public function of the layers (states,
dynamics, kernels, gates, protocols, analysis, config, cli) is wrapped
and the per-layer metrics are printed instead, their times also at
nominal host speed; see ``tracer.py``.

Every run checks the program's outputs, and the run record, output
digests and (traced runs) spans are written under ``.perfbench_out/``.
Each workload ends its report with one JSON line with ``correct``,
``attempted``, ``failed`` and ``metrics``, the metrics under the names in
BENCHMARK.json; ``--workload all`` prints four such lines, one per
workload. A failed check exits 1.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench_out")
PYCACHE = os.path.join(OUT, "pycache")
SETUP_PROBES = 6
WORKER_TIMEOUT_S = 170.0


def percentile(values, q):
    """Linear-interpolated percentile, q in [0, 100]."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def spawn(workload, seed, seconds, trace, work_dir, setup_only, deadline, ref_before=None):
    """Run one worker to completion; returns its JSON result line.

    ``ref_before`` is the reference-loop time the previous worker took at
    the end of its set-up; this worker rescales its own set-up time by the
    mean of that and its own.
    """
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--work-dir", work_dir]
    if setup_only:
        cmd.append("--setup-only")
    if ref_before is not None:
        cmd += ["--ref-before", repr(ref_before)]
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONPYCACHEPREFIX=PYCACHE)
    for name in ("PYTHONPATH", "PYTHONDONTWRITEBYTECODE"):
        env.pop(name, None)
    # CLOCK_MONOTONIC is system-wide, so the worker can time set-up from here
    cmd += ["--spawn-time", repr(time.monotonic())]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    lines = out.splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} worker exited {proc.returncode}")
    return json.loads(lines[-1])


def src_line_count():
    total = 0
    for dirpath, _, files in os.walk(os.path.join(ROOT, "src", "tweezersim")):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), "rb") as fh:
                    total += sum(1 for _ in fh)
    return total


def git_commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                             timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def run_workload(workload, seed, seconds, trace):
    """Run one workload; returns (report lines, result dict for the JSON line)."""
    deadline = time.monotonic() + WORKER_TIMEOUT_S
    work_dir = os.path.join(OUT, f"work-{workload}-{os.getpid()}")
    shutil.rmtree(work_dir, ignore_errors=True)
    try:
        warm = spawn(workload, seed, seconds, trace, work_dir, True, deadline)
        setup, ref = [], warm["ref_s"]
        for _ in range(0 if trace else SETUP_PROBES):
            setup.append(spawn(workload, seed, seconds, trace, work_dir, True, deadline, ref))
            ref = setup[-1]["ref_s"]
        res = spawn(workload, seed, seconds, trace, work_dir, False, deadline, ref)
    finally:
        spans = os.path.join(work_dir, "spans.npz")
        kept_spans = None
        if os.path.exists(spans):
            kept_spans = os.path.join(OUT, f"spans-{workload}-seed{seed}.npz")
            os.replace(spans, kept_spans)
        shutil.rmtree(work_dir, ignore_errors=True)
    setup.append({k: res[k] for k in ("setup_s", "setup_nominal_s", "ref_s")})

    wl = WORKLOADS[workload]
    attempted = res["ops"]
    lines = []
    if trace:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in res["metrics"].items()}
        for name, m in metrics.items():
            lines.append(f"{workload:18s} {name:52s} {m['value']:14.6g} {m['unit']}")
    else:
        unit_s = res["unit_s"]
        # no timed unit means every unit failed; the run is reported as failed
        metrics = {
            "setup_s": {"value": statistics.median(s["setup_nominal_s"] for s in setup), "unit": "s"},
            "ops_per_s": {"value": wl.ops_per_unit / statistics.median(res["unit_nominal_s"])
                          if unit_s else 0.0, "unit": "1/s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        }
        raw = {
            "raw_setup_s": statistics.median(s["setup_s"] for s in setup),
            "raw_ops_per_s": wl.ops_per_unit * len(unit_s) / sum(unit_s) if unit_s else 0.0,
            "raw_unit_ms_p50": 1e3 * statistics.median(unit_s) if unit_s else 0.0,
        }
        ops_unit = wl.ops_name.replace("_per_", "/")
        shown = [
            ("setup_s", metrics["setup_s"], len(setup)),
            ("ops_per_s", {"value": metrics["ops_per_s"]["value"], "unit": ops_unit}, len(unit_s)),
            ("peak_rss_mb", metrics["peak_rss_mb"], 1),
            ("raw_setup_s", {"value": raw["raw_setup_s"], "unit": "s"}, len(setup)),
            ("raw_ops_per_s", {"value": raw["raw_ops_per_s"], "unit": ops_unit}, len(unit_s)),
            ("raw_unit_ms_p50", {"value": raw["raw_unit_ms_p50"], "unit": "ms"}, len(unit_s)),
        ]
        for key, values in sorted(res["parts"].items()):
            for q in (50, 90):
                shown.append((f"raw_{key}_p{q}", {"value": percentile(values, q), "unit": "ms"}, len(values)))
        for name, m, n in shown:
            lines.append(f"{workload:18s} {name:24s} {m['value']:14.6g} {m['unit']:9s} n={n}")
    lines.append(f"{workload:18s} attempted {attempted} failed {res['failed']}")
    lines.extend(f"{workload:18s} CHECK FAILED: {f}" for f in res["failures"])

    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "time_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "env": dict(res["env"], nproc=os.cpu_count(), affinity=len(os.sched_getaffinity(0)),
                    machine=platform.machine()),
        "git_commit": git_commit(),
        "pycache": "bytecode cached under .perfbench_out/pycache (PYTHONPYCACHEPREFIX), "
                   "warmed by one untimed set-up process before the timed ones",
        "peak_rss_sampled": "after the timed units, before the digest repeat and output checks",
        "warmup_setup": warm,
        "src_lines": src_line_count(),
        "setup_samples": setup,
        "digests": res["digests"][0] if res["digests"] else None,
        "metrics": metrics,
        "raw_metrics": None if trace else raw,
        "samples": {k: res[k] for k in ("unit_s", "unit_nominal_s", "traced_unit_s", "parts", "host_ref_s")
                    if k in res},
        "attempted": attempted,
        "failed": res["failed"],
        "failures": res["failures"],
        "spans_file": kept_spans and os.path.relpath(kept_spans, ROOT),
        "span_summary": res.get("spans"),
    }
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"record-{workload}-seed{seed}-trace{trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2)
    return lines, {"attempted": attempted, "failed": res["failed"], "metrics": metrics,
                   "correct": not res["failures"]}


def main(argv=None):
    parser = argparse.ArgumentParser(description="tweezersim benchmark")
    parser.add_argument("--workload", default="all", choices=("all", *WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "tweezersim", "__init__.py")):
        print("perfbench: src/tweezersim not found; run from a tweezersim source checkout",
              file=sys.stderr)
        return 2

    names = tuple(WORKLOADS) if args.workload == "all" else (args.workload,)
    correct = True
    for name in names:
        lines, result = run_workload(name, args.seed, args.seconds, args.trace)
        print("\n".join(lines), flush=True)
        print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}), flush=True)
        correct = correct and result["correct"]
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
