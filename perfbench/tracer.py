"""In-memory span tracer that wraps the public functions of tweezersim's layers.

Modules import functions by name (``from .gates import apply_cz``), so a
function is reachable under several module attributes and, for the CLI,
through the ``COMMANDS`` table. ``install`` replaces every such reference
with one wrapper per function, so each call records a span no matter
which name it was looked up under; ``uninstall`` puts the originals back.

A span is (name, start, end, parent, run id). Spans live in flat arrays
until ``save`` writes them out; self time is a span's duration minus the
durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array

import numpy as np

LAYERS = ("states", "dynamics", "kernels", "gates", "protocols", "analysis", "config", "cli")


def _pair_steps(args):
    """(trajectories, pair-steps) of one kernel call; series are args[8]."""
    n_pairs = args[1].shape[0]
    series = args[8]
    n_traj = series.shape[0] if series.ndim == 2 else 1
    return n_traj, n_pairs * series.size


class Tracer:
    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_run = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.counts = {}
        self.run_id = 0
        self._stack = []
        self._patches = []

    # -- recording ---------------------------------------------------------

    def _count(self, key, value):
        self.counts[key] = self.counts.get(key, 0) + value

    def _wrap(self, fn, span_name):
        nid = self._name_ids.setdefault(span_name, len(self.names))
        if nid == len(self.names):
            self.names.append(span_name)
        names, parents, runs = self.span_name, self.span_parent, self.span_run
        starts, ends, stack = self.span_start, self.span_end, self._stack
        perf = time.perf_counter
        tracer = self

        def args_hook(args):
            return args

        def result_hook(args, result):
            return None

        if span_name in ("kernels.evolve_blocks", "kernels.evolve_blocks_batch"):

            def result_hook(args, result):
                try:
                    n_traj, pair_steps = _pair_steps(args)
                except (IndexError, AttributeError):
                    return  # a kernel with another signature: no pair-step count
                tracer._count(span_name + ".trajectories", n_traj)
                tracer._count("kernels.pair_steps", pair_steps)

        elif span_name == "analysis.minimize":

            def result_hook(args, result):
                tracer._count("analysis.minimize.nfev", int(getattr(result, "nfev", 0)))

        elif span_name == "cli.write_csv":

            def counted(rows):
                for row in rows:
                    tracer.counts["cli.write_csv.rows"] += 1
                    yield row

            def args_hook(args):
                tracer._count("cli.write_csv.rows", 0)
                return (args[0], args[1], counted(args[2])) + tuple(args[3:])

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            args = args_hook(args)
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            runs.append(tracer.run_id)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
            result_hook(args, result)
            return result

        return traced

    # -- patching ----------------------------------------------------------

    def install(self):
        """Wrap every public function of every layer wherever it is bound."""
        originals = {}
        for layer in LAYERS:
            module = importlib.import_module(f"tweezersim.{layer}")
            # shortest public name wins when one function has aliases
            # (kernels.evolve_blocks is also exported as evolve_blocks_py)
            for name in sorted(vars(module), key=len):
                value = vars(module)[name]
                if (
                    not name.startswith("_")
                    and inspect.isfunction(value)
                    and value.__module__ == module.__name__
                    and id(value) not in originals
                ):
                    originals[id(value)] = (value, f"{layer}.{name}")
        # scipy's minimize, looked up by the analysis module, is analysis work
        minimize = getattr(sys.modules["tweezersim.analysis"], "minimize", None)
        if minimize is not None:
            originals[id(minimize)] = (minimize, "analysis.minimize")

        wrappers = {key: self._wrap(fn, span) for key, (fn, span) in originals.items()}
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "tweezersim" and not mod_name.startswith("tweezersim."):
                continue
            for name, value in list(vars(module).items()):
                if id(value) in wrappers and value is originals[id(value)][0]:
                    self._patches.append((module, name, value))
                    setattr(module, name, wrappers[id(value)])
                elif isinstance(value, dict) and not name.startswith("__"):
                    for key, item in list(value.items()):
                        if id(item) in wrappers and item is originals[id(item)][0]:
                            self._patches.append((value, key, item))
                            value[key] = wrappers[id(item)]

    def uninstall(self):
        for owner, name, original in reversed(self._patches):
            if isinstance(owner, dict):
                owner[name] = original
            else:
                setattr(owner, name, original)
        self._patches.clear()

    # -- results -----------------------------------------------------------

    def arrays(self):
        name = np.frombuffer(self.span_name, dtype=np.int32)
        parent = np.frombuffer(self.span_parent, dtype=np.int32)
        start = np.frombuffer(self.span_start, dtype=np.float64)
        end = np.frombuffer(self.span_end, dtype=np.float64)
        dur = end - start
        child = parent >= 0
        covered = np.bincount(parent[child], weights=dur[child], minlength=dur.size)
        return name, dur, dur - covered

    def summary(self):
        """Per span name: calls, inclusive seconds and self seconds."""
        name, dur, self_s = self.arrays()
        n = len(self.names)
        calls = np.bincount(name, minlength=n)
        incl = np.bincount(name, weights=dur, minlength=n)
        excl = np.bincount(name, weights=self_s, minlength=n)
        return {
            span: {"calls": int(calls[i]), "incl_s": float(incl[i]), "self_s": float(excl[i])}
            for i, span in enumerate(self.names)
        }

    def save(self, path):
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            run=np.frombuffer(self.span_run, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
        )
