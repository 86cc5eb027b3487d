"""The CLI preset loader, the Simpson response oracle, shared
synthetic-spectrum generators, the sideband peak-ratio oracle, the scalar
sideband-ladder loop, the least-squares fit references and the
Gauss-Newton polish oracle, the per-prior threshold scan and the
string-sorting shots.csv reader that the shared scan and the scenario
keying replaced, the row-at-a-time CSV writer and the per-line shot
columns that the record writer replaced, the rotation matrix and the matrix rotation,
two-outcome level draw and clamped k-column draw that the gate layer
replaced, the local Z gate and the sequential ancilla-flip block built on
it, the dense ideal red-sideband map and its einsum application, the
per-job chunk runner and chunk start that the lockstep ones replaced,
the two-level pair tables and their kernel run, the noiseless
realization, the unguarded full-ladder kernel run and the dense
propagator matrix built on it, and the allocating block-propagation
reference for response, analysis, protocol, gate, kernel, dynamics, CLI
and acceptance tests."""

import functools
import json
import math
import os
import warnings
from concurrent.futures import ThreadPoolExecutor
from itertools import chain

import numpy as np

from tweezersim import cli, kernels, protocols
from tweezersim.analysis import DetectionResult
from tweezersim.dynamics import (
    NoiseRealization,
    PulseKind,
    _amp_factor,
    _pair_tables,
    _static_vectors,
    sideband_rabi,
    spectroscopy_pi_duration,
)
from tweezersim.errors import NumericsError
from tweezersim.gates import PairBatch, _norm2, apply_cz, level_labels, rotate
from tweezersim.protocols import DEFAULT_TRAP, SidebandSpectrum, detuned_transfer
from tweezersim.states import DEFAULT_N_MAX, ThermalSpec, thermal_distribution


def preset_config(name, **protocol):
    """The named CLI preset as a config dict, its protocol keys overridden."""
    with open(os.path.join(os.path.dirname(cli.__file__), "presets", name + ".json")) as fh:
        cfg = json.load(fh)
    cfg["protocol"].update(protocol)
    return cfg


#: Simpson density of the response oracle: panels per oscillation period
#: of the fastest scale.
PANELS_PER_PERIOD = 400


def simpson_panels(query):
    """Smallest even Simpson panel count with PANELS_PER_PERIOD panels per
    period of the faster of the grid's top frequency and w / (2 pi)."""
    f_osc = max(float(np.max(query.frequencies_hz)), query.eta * query.rabi / (2.0 * np.pi))
    n = max(PANELS_PER_PERIOD, math.ceil(PANELS_PER_PERIOD * query.duration * f_osc))
    return n + (n % 2)


def simpson_response(query):
    """Quadrature oracle for response.response_function: the values of
    I(f) = int_0^T dt int_0^T dtau cos(2 pi f (t - tau)) C(t, tau) by
    composite Simpson. C has rank one, C(t, tau) = g(t) g(tau) with
    g = sin(w t) / 2 for the frequency channels and eta / 2 for the
    amplitude channel, so with v = (Simpson weights) * g(t) the double sum
    is (sum_i v_i cos 2 pi f t_i)^2 + (sum_i v_i sin 2 pi f t_i)^2."""
    n_panels = simpson_panels(query)
    t = np.linspace(0.0, query.duration, n_panels + 1)
    v = np.full(n_panels + 1, 2.0)
    v[1::2] = 4.0
    v[0] = v[-1] = 1.0
    v *= query.duration / n_panels / 3.0
    amplitude = query.channel == "laser_amplitude"
    v *= query.eta / 2.0 if amplitude else 0.5 * np.sin(query.eta * query.rabi * t)
    vals = np.empty(query.frequencies_hz.size)
    for i, f in enumerate(query.frequencies_hz):
        phase = 2.0 * np.pi * f * t
        vals[i] = (v @ np.cos(phase)) ** 2 + (v @ np.sin(phase)) ** 2
    return vals


def gaussian_model(f, a_blue, a_red, center, width, offset):
    g = lambda mu: np.exp(-((f - mu) ** 2) / (2 * width**2))
    return a_blue * g(center) + a_red * g(-center) + offset


def make_gaussian_spectrum(
    nbar,
    rng,
    shots_per_point=300,
    a_blue=0.9,
    center=35e3,
    width=2e3,
    offset=0.0,
    n_side=15,
    span=7e3,
):
    """Matched-model synthetic sideband spectrum with binomial noise.

    The true cooling-peak height follows the thermal ratio
    a_red = q * a_blue with q = nbar / (nbar + 1).
    """
    q = nbar / (nbar + 1.0)
    a_red = q * a_blue
    side = np.linspace(center - span, center + span, n_side)
    f = np.concatenate([-side[::-1], side])
    p_true = np.clip(gaussian_model(f, a_blue, a_red, center, width, offset), 0.0, 1.0)
    counts = rng.binomial(shots_per_point, p_true)
    p = counts / shots_per_point
    stderr = np.sqrt(np.clip(p * (1 - p), 1e-12, None) / shots_per_point)
    return SidebandSpectrum(
        detuning_hz=f,
        p_exc=p,
        stderr=stderr,
        shots=np.full(f.size, shots_per_point),
    )


def sideband_peak_ratio(dist, trap=None, rabi=2 * np.pi * 2e3, duration=None):
    """Exact resonant-ladder ratio of cooling to heating peak heights.

    Sums the on-resonance transfers of each sideband family; the flat
    far-detuned tail of the opposite sideband is excluded, matching what
    a peak fit above a floating background measures. For a thermal
    distribution this ratio equals the Boltzmann ratio q identically.
    """
    if trap is None:
        trap = DEFAULT_TRAP
    dist = np.asarray(dist, dtype=float)
    n_max = dist.size - 1
    if duration is None:
        duration = spectroscopy_pi_duration(trap, rabi)
    e_red = sum(
        dist[n] * detuned_transfer(sideband_rabi(n, n - 1, trap.eta, rabi), 0.0, duration)
        for n in range(1, n_max + 1)
    )
    e_blue = sum(
        dist[n] * detuned_transfer(sideband_rabi(n, n + 1, trap.eta, rabi), 0.0, duration)
        for n in range(n_max)
    )
    return float(e_red / e_blue)


def scalar_sideband_p_exc(dist, detunings_hz, trap=None, rabi=2 * np.pi * 2e3, duration=None,
                          include_carrier=False, wrong_state_fraction=0.0):
    """Reference for simulate_sideband_spectrum's exact curve: one scalar
    detuned-Rabi transfer per (detuning, n, sideband), summed in n order."""
    if trap is None:
        trap = DEFAULT_TRAP
    dist = np.asarray(dist, dtype=float)
    if duration is None:
        duration = spectroscopy_pi_duration(trap, rabi)
    n_max = dist.size - 1
    f_trap = trap.omega_t / (2 * np.pi)

    def transfer(omega, delta):
        w_eff = math.sqrt(omega * omega + delta * delta)
        if w_eff == 0.0:
            return 0.0
        return (omega / w_eff) ** 2 * math.sin(w_eff * duration / 2.0) ** 2

    p_exc = np.zeros(len(detunings_hz))
    for i, f in enumerate(detunings_hz):
        total = 0.0
        for n in range(n_max + 1):
            if dist[n] == 0.0:
                continue
            t = 0.0
            if n < n_max:
                t += transfer(sideband_rabi(n, n + 1, trap.eta, rabi), 2 * np.pi * (f - f_trap))
            if n >= 1:
                t += transfer(sideband_rabi(n, n - 1, trap.eta, rabi), 2 * np.pi * (f + f_trap))
            if include_carrier:
                t += transfer(sideband_rabi(n, n, trap.eta, rabi), 2 * np.pi * f)
            total += dist[n] * min(t, 1.0)
        p_exc[i] = min(total, 1.0)
    return (1.0 - wrong_state_fraction) * p_exc + wrong_state_fraction


def jacobian(model, f, x):
    """The (n, k) Jacobian that model(f, x, jac) writes."""
    jac = np.empty((f.size, len(x)))
    model(f, x, jac)
    return jac


def least_squares_polish(model, f, p, sw, x, lo, hi):
    """Reference for analysis._polish, with its signature and return value:
    one bounded trust-region run of scipy's least_squares on the weighted
    residuals, at tolerances far below the statistical errors."""
    from scipy.optimize import least_squares

    res = least_squares(lambda x: sw * (model(f, x) - p), x,
                        jac=lambda x: sw[:, None] * jacobian(model, f, x), bounds=(lo, hi),
                        max_nfev=4000, ftol=1e-12, xtol=1e-12, gtol=1e-12)
    assert res.status > 0
    return res.x.tolist(), 2.0 * res.cost, res.jac


def gauss_newton_polish(model, f, p, sw, x, lo, hi):
    """Oracle for analysis._polish, with its signature and return value:
    the projected Levenberg-Marquardt loop on numpy arrays that it
    replaced, Gauss-Newton steps only.

    Each trial solves (J^T J + lam diag J^T J) dx = -J^T r on the weighted
    residuals r for the parameters not pinned at a bound by an outward
    gradient and clips x + dx to the box; lam falls tenfold when the cost
    falls and rises tenfold otherwise. Stops once a step or cost change is
    below 1e-12 relative."""
    from tweezersim.analysis import MAX_POLISH_STEPS
    from tweezersim.errors import FitConvergenceError

    x, lo, hi = (np.array(v, dtype=float) for v in (x, lo, hi))
    r, J, lam = sw * (model(f, x) - p), sw[:, None] * jacobian(model, f, x), 1e-3
    for _ in range(MAX_POLISH_STEPS):
        g = J.T @ r
        free = ~((x <= lo) & (g > 0) | (x >= hi) & (g < 0))
        A = J[:, free].T @ J[:, free]
        d = np.maximum(A.diagonal(), 1e-12 * A.diagonal().max(initial=1e-300))
        step = np.zeros_like(x)
        step[free] = np.linalg.solve(A + lam * np.diag(d), -g[free])
        trial = np.clip(x + step, lo, hi)
        r_trial = sw * (model(f, trial) - p)
        cost, cost_trial = r @ r, r_trial @ r_trial
        small_step = np.linalg.norm(trial - x) <= 1e-12 * np.linalg.norm(x)
        if cost_trial <= cost:
            x, r, J, lam = trial, r_trial, sw[:, None] * jacobian(model, f, trial), lam / 10.0
        else:
            lam *= 10.0
        if small_step or 0.0 <= cost - cost_trial <= 1e-12 * cost:
            return x.tolist(), r @ r, J
    raise FitConvergenceError(f"fit polish did not converge within {MAX_POLISH_STEPS} steps")


def multistart_reference_fit(spectrum, double=False):
    """Reference for the two sideband fits: the width-scan multistart they
    used before the grid start. Three bounded least-squares starts (at the
    FWHM width guess, half and twice it) keep the best converged fit, which
    is refit once at model-reweighted errors. Returns the parameter vector
    of fit_double_gaussian_with_offset (double) or fit_heating_sideband."""
    from scipy.optimize import least_squares

    from tweezersim import analysis

    f, p, se, shots = analysis._spectrum_arrays(spectrum)
    keep = np.argsort(f) if double else np.flatnonzero(f > 0)[np.argsort(f[f > 0])]
    f, p, se = f[keep], p[keep], se[keep]
    shots = None if shots is None else shots[keep]
    spacing, span = np.min(np.diff(f)), f[-1] - f[0]
    pos, base = f > 0, np.min(p)
    i_pk = int(np.argmax(np.where(pos, p, -np.inf)))
    half = base + (p[i_pk] - base) / 2.0
    left = right = i_pk
    while left > 0 and pos[left - 1] and p[left - 1] > half:
        left -= 1
    while right < p.size - 1 and p[right + 1] > half:
        right += 1
    sig0 = min(max(max(f[right] - f[left], spacing) / 2.355, spacing / 2.0), span)
    widths = (sig0, max(sig0 / 2, spacing / 2), min(2 * sig0, span))
    if double:
        model = analysis._double_gaussian
        bounds = [(0, 2), (0, 2), (spacing, f[-1]), (spacing / 4, span), (0, 1)]
        hr0 = max(np.max(p[~pos]) - base, 0.0)
        starts = [[p[i_pk] - base, hr0, f[i_pk], s0, base] for s0 in widths]
    else:
        model = analysis._gaussian
        bounds = [(0, 2), (f[0], f[-1]), (spacing / 4, 2 * span)]
        starts = [[p[i_pk] - base, f[i_pk], s0] for s0 in widths]
    lo, hi = np.array(bounds, dtype=float).T

    def best_fit(w, starts):
        fits = [
            least_squares(lambda x: np.sqrt(w) * (model(f, x) - p), np.clip(x0, lo, hi),
                          jac=lambda x: np.sqrt(w)[:, None] * jacobian(model, f, x), bounds=(lo, hi),
                          max_nfev=4000, ftol=1e-12, xtol=1e-12, gtol=1e-12)
            for x0 in starts
        ]
        return min((res for res in fits if res.status > 0), key=lambda res: res.cost).x

    x = best_fit(1.0 / se**2, starts)
    if shots is not None:
        x = best_fit(1.0 / analysis._model_reweight(se, shots, model(f, x)) ** 2, [x])
    return x


def per_prior_threshold(signals_present, signals_absent, p1, n_cyc=None):
    """analysis.optimize_threshold as one scan per prior: it sorts both
    classes and builds the candidates and exceedance curves for every call."""
    sp = np.sort(np.asarray(signals_present, dtype=float))
    sa = np.sort(np.asarray(signals_absent, dtype=float))
    if p1 in (0.0, 1.0):
        warnings.warn("degenerate prior: classifying everything as the prior class is optimal", stacklevel=2)
    present_higher = np.mean(sp) >= np.mean(sa)
    pooled = np.unique(np.concatenate([sp, sa]))
    span = max(pooled[-1] - pooled[0], 1.0)
    mids = (pooled[:-1] + pooled[1:]) / 2.0
    cands = np.concatenate([[pooled[0] - 0.5 * span], mids, [pooled[-1] + 0.5 * span]])
    above_p = 1.0 - np.searchsorted(sp, cands, side="right") / sp.size
    above_a = 1.0 - np.searchsorted(sa, cands, side="right") / sa.size
    f1, f0 = (above_p, 1.0 - above_a) if present_higher else (1.0 - above_p, above_a)
    f = p1 * f1 + (1 - p1) * f0
    best = int(np.argmax(f))
    return DetectionResult(threshold=float(cands[best]), fidelity=float(f[best]), f1=float(f1[best]),
                           f0=float(f0[best]), p1=p1, n_cyc=n_cyc, orientation=1 if present_higher else -1)


def string_sorted_read_shots(path):
    """cli.read_shots_csv with the scenario column turned into a numpy
    string array (which drops trailing NULs) and keyed by np.unique."""
    cols = cli._read_columns(path, {"scenario": object, "shot": np.int64, "round": np.int64, "signal": float})
    names, code = np.unique(cols["scenario"].astype(str), return_inverse=True)
    out = {}
    for k, name in enumerate(names.tolist()):
        mine = code == k
        shots, shot_index = np.unique(cols["shot"][mine], return_inverse=True)
        rnd = cols["round"][mine]
        n_rounds = int(rnd.max()) + 1
        matrix = np.empty(rnd.size)
        matrix[shot_index * n_rounds + rnd] = cols["signal"][mine]
        out[name] = matrix.reshape(shots.size, n_rounds)
    return out


def row_write_csv(path, header, columns):
    """Oracle for cli.write_csv: the writer it replaced, which takes one
    1-D column per CSV column and formats every cell of every line."""
    columns = [np.asarray(c) for c in columns]
    n_rows = len(columns[0]) if columns else 0
    if any(len(c) != n_rows for c in columns):
        raise ValueError(f"write_csv: columns of unequal length for {path}")
    kinds = [c.dtype.kind for c in columns]
    row = ",".join(cli.FLOAT_FMT if k == "f" else "%d" if k in "biu" else "%s" for k in kinds) + "\n"
    with cli._overwrite(path) as fh:
        fh.write(",".join(header) + "\n")
        for lo in range(0, n_rows, cli.WRITE_BLOCK_ROWS):
            block = [c[lo : lo + cli.WRITE_BLOCK_ROWS].tolist() for c in columns]
            cells = tuple(chain.from_iterable(zip(*block)))  # row by row
            fh.write((row * len(block[0])) % cells)


def repeated_shot_columns(table):
    """Oracle for cli.shot_columns: the SHOT_HEADER columns expanded to one
    entry per shot per round, as row_write_csv takes them."""
    shots, rounds = table.signals.shape
    data_n = np.where(table.data_n < 0, "", table.data_n.astype(str))
    per_row = functools.partial(np.repeat, repeats=rounds)
    return [
        per_row(table.scenario), per_row(table.shot), np.tile(np.arange(rounds), shots),
        table.signals.ravel(), table.ancilla_labels.ravel(), per_row(table.data_label),
        per_row(data_n), per_row(table.data_lost), per_row(table.aux),
    ]


def per_line_columns(columns):
    """cli.write_csv's record columns as row_write_csv's line columns: a
    2-D column raveled, a 1-D column's entries each repeated on the k lines
    of its record (k the 2-D columns' width, 1 without any)."""
    columns = [np.asarray(c) for c in columns]
    k = max((c.shape[1] for c in columns if c.ndim == 2), default=1)
    return [c.ravel() if c.ndim == 2 else np.repeat(c, k) for c in columns]


def rotation_matrix(theta, phi):
    """R(theta, phi) in the (down, up) ordering; shape (..., 2, 2) for
    array arguments. gates.rotate builds no matrix; it computes these
    entries per shot with the same expressions."""
    half = np.multiply(theta, 0.5)
    s = -1j * np.sin(half)
    e = np.exp(1j * np.asarray(phi, dtype=float))
    mat = np.empty(np.broadcast(s, e).shape + (2, 2), dtype=np.complex128)
    mat[..., 0, 0] = mat[..., 1, 1] = np.cos(half)
    mat[..., 0, 1] = s * e
    mat[..., 1, 0] = s * e.conj()
    return mat


def matrix_rotate(batch, which, phase, angle):
    """Bit oracle for gates.rotate: the same jitter draw, then the mix read
    from rotation_matrix's (shots, 2, 2) array as four strided views."""
    errors = batch.errors
    if errors is not None and errors.sq_over_rotation_sigma > 0:
        angle = angle + (batch.rng.normal(0.0, errors.sq_over_rotation_sigma, batch.size)
                         if errors.per_gate_jitter else batch.jitter)
    m = rotation_matrix(np.where(batch.lost(which), 0.0, angle), phase)[..., None, None]
    psi = batch.psi
    a0, a1 = (psi[:, 0], psi[:, 1]) if which == "data" else (psi[..., 0], psi[..., 1])
    t = a0 * m[:, 1, 0]
    a0 *= m[:, 0, 0]
    a0 += a1 * m[:, 0, 1]
    a1 *= m[:, 1, 1]
    a1 += t
    return batch


def _project(batch, rows, outcome, probs, shape):
    """Collapse the selected rows onto their outcome and renormalize."""
    rows = np.flatnonzero(rows)
    if not rows.size:
        return
    p = probs[rows, outcome[rows]]
    if np.any(p <= 0):
        raise NumericsError("a measurement emptied the state")
    scale = np.ones_like(probs)
    scale[rows] = 0.0
    scale[rows, outcome[rows]] = 1.0 / np.sqrt(p)
    batch.psi *= scale.reshape(shape)


def two_outcome_project_level(batch, which, rows):
    """Bit oracle for gates.project_level: its former two-outcome draw,
    level 1 where u (p0 + p1) >= p0 for one uniform u per shot, then the
    collapse."""
    pops = batch.populations(which)
    level = (batch.rng.random(batch.size) * pops.sum(axis=1) >= pops[:, 0]).astype(np.intp)
    _project(batch, rows, level, pops, (batch.size, 2, 1, 1) if which == "data" else (batch.size, 1, 1, 2))
    return level


def clamped_measure_data(batch, rows=None):
    """Bit oracle for gates.measure_data: its former k-column draw, the
    count of cdf entries <= u clamped to k - 1, then the collapse."""
    if rows is None:
        rows = ~batch.data_lost
    w = batch.psi.shape[2]
    probs = _norm2(batch.psi, (batch.size, 2 * w, 4), "bi")
    cdf = np.cumsum(probs, axis=1)
    u = batch.rng.random(batch.size) * cdf[:, -1]
    index = np.minimum(np.sum(cdf <= u[:, None], axis=1), 2 * w - 1)
    _project(batch, rows, index, probs, (batch.size, 2, w, 1))
    level, slot = np.divmod(index, w)
    return level, batch.n0 + slot


def local_z(batch, which, phi):
    """Multiply one atom's up-level amplitudes by exp(i phi), phi a scalar
    or one value per shot; exact and error-free. gates.cnot_block folds
    this gate into its CZ pass as local_z_phase."""
    up = np.where(batch.lost(which), 1.0, np.exp(1j * np.asarray(phi, dtype=float)))
    up_level = batch.psi[:, 1] if which == "data" else batch.psi[..., 1]
    up_level *= up[:, None, None]
    return batch


def ideal_rsb_map(n_max):
    """Perfect red-sideband pi unitary on (level, n) as a dense array of
    shape (2, M, 2, M): removes one quantum from every excited Fock level,
    leaves (down, 0) untouched. Reference for protocols._ideal_rsb."""
    m = n_max + 1
    u = np.zeros((2, m, 2, m), dtype=np.complex128)
    u[0, 0, 0, 0] = 1.0
    for n in range(1, m):
        u[1, n - 1, 0, n] = 1.0
        u[0, n, 1, n - 1] = -1.0
    u[1, m - 1, 1, m - 1] = 1.0  # uncoupled at this truncation
    return u


def apply_data_unitary(batch, u4):
    """Apply a (level, n) unitary of shape (2, M, 2, M) to every present data atom."""
    on = ~batch.data_lost
    batch.psi[on] = np.einsum("xyln,blnk->bxyk", u4, batch.psi[on])
    return batch


def sequential_cnot_block(batch, comp_phase=np.pi, local_z_phase=0.0, entangle=True):
    """Reference for gates.cnot_block: its four gates applied one by one,
    local Z on the data, X^(1/2) on the ancilla, CZ, compensated X^(1/2)."""
    local_z(batch, "data", local_z_phase)
    rotate(batch, "anc", 0.0, np.pi / 2)
    if entangle:
        apply_cz(batch)
    return rotate(batch, "anc", comp_phase, np.pi / 2)


def per_job_new_pairs(config, rng, size, present, anc_level):
    """Oracle for protocols._new_pairs on one job's chunk of size shots:
    the per-job start it replaced, on one Generator rng, which draws the
    Fock numbers with Generator.choice."""
    n = np.zeros(size, dtype=np.intp)
    if present and config.data_nbar > 0:
        p = thermal_distribution(ThermalSpec(nbar=config.data_nbar, n_max=config.n_max))
        n = rng.choice(config.n_max + 1, p=p, size=size)
    w = min(protocols.WINDOW[config.kind], config.n_max + 1)
    n0 = np.minimum(np.maximum(n - (w > 1), 0), config.n_max + 1 - w)
    amps = np.zeros((size, 2, w), dtype=np.complex128)
    amps[np.arange(size), :, n - n0] = protocols._ELECTRONIC[config.data_psi if present else "up"]
    batch = PairBatch.prepare(amps, np.eye(2)[int(anc_level)], data_lost=not present,
                              anc_lost=rng.random(size) < config.ancilla_absent_prob, rng=rng,
                              errors=config.gate_errors)
    batch.n0, batch.n_max = n0, config.n_max
    return batch, n


def per_job_run_chunks(config, jobs, anc_level, circuit):
    """Oracle for protocols._run_chunks, with its signature and return
    value: the per-job engine it replaced. Every (job, chunk) unit runs the
    circuit on a PairBatch of its own from per_job_new_pairs, drawn from
    its own stream, and the
    units run on one pool of config.workers threads; the job tables join
    job-major, each job's chunks in shot order."""
    n_chunks = -(-config.shots // protocols.CHUNK_SHOTS)
    units = [(j, c) for j in range(len(jobs)) for c in range(n_chunks)]

    def run(unit):
        j, c = unit
        key, scenario = jobs[j]
        stream = np.random.Generator(np.random.PCG64(np.random.SeedSequence(config.seed, spawn_key=(*key, c))))
        shots = np.arange(c * protocols.CHUNK_SHOTS, min((c + 1) * protocols.CHUNK_SHOTS, config.shots))
        batch, n = per_job_new_pairs(config, stream, shots.size, scenario == "present", anc_level)
        signals, labels, level, n, aux = circuit(batch, np.full(shots.size, j), n)
        lost = batch.data_lost
        return protocols.ShotTable(np.full(shots.size, scenario), shots, signals, labels,
                                   level_labels(level, lost), np.where(lost, -1, n), lost, aux, batch.events)

    if config.workers <= 1 or len(units) == 1:
        tables = [run(u) for u in units]
    else:
        with ThreadPoolExecutor(max_workers=min(config.workers, len(units))) as ex:
            tables = list(ex.map(run, units))
    return protocols.ShotTable.concat(tables)


def two_level_tables(pulse, eta, n_max):
    """The seven kernel tables of the two-level model: a blue-sideband
    pulse couples only (down, 0) <-> (up, 1), with coupling
    i exp(i phase) eta rabi / 2 (no Debye-Waller factor), which is the form
    the response module analyzes; a free pulse couples nothing. Every other
    state of the (level, n) ladder up to n_max is a single. The pulses that
    the library runs drive the full ladder with generalized-Laguerre
    couplings instead (dynamics._pair_tables)."""
    if pulse.kind not in (PulseKind.BLUE_SIDEBAND, PulseKind.FREE):
        raise ValueError("the two-level tables are defined for the blue sideband and free evolution")
    m = n_max + 1
    pairs_g, pairs_e, coup = [], [], []
    if pulse.kind is PulseKind.BLUE_SIDEBAND:
        pairs_g, pairs_e = [0], [m + 1]
        coup = [1j * np.exp(1j * pulse.phase) * eta * pulse.rabi / 2.0]
    singles = [i for i in range(2 * m) if i not in pairs_g + pairs_e]
    return (np.array(pairs_g, dtype=np.int64), np.array(pairs_e, dtype=np.int64),
            np.array(coup, dtype=np.complex128), np.array(singles, dtype=np.int64),
            *_static_vectors(pulse, n_max))


def two_level_evolve(amps0, pulse, eta, trap, freq, ampf, dt):
    """Rows (rows, 2 (n_max + 1), k) of flat amplitudes, or one shared row
    (1, 2 (n_max + 1), k), evolved under the two_level_tables of the pulse
    by kernels.evolve_blocks_batch, one noise series row per output row.
    No step-size, norm or truncation guard applies."""
    shape = (trap.shape[0],) + amps0.shape[1:]
    out = np.empty(shape, dtype=np.complex128)
    tables = two_level_tables(pulse, eta, amps0.shape[1] // 2 - 1)
    return kernels.evolve_blocks_batch(np.broadcast_to(amps0, shape), *tables, trap, freq, ampf, dt, out)


def zero_realization(duration, n_steps=1):
    """A noiseless realization of a pulse: zero series on n_steps steps."""
    z = np.zeros(n_steps)
    return NoiseRealization(dt=duration / n_steps, trap_frequency=z, laser_frequency=z.copy(),
                            laser_amplitude=z.copy())


def ladder_evolve(amps0, pulse, trap, realization=None):
    """One row (1, 2 (n_max + 1), k) of flat amplitudes on the full ladder,
    evolved under one realization (zero_realization in one exact step when
    None) by kernels.evolve_blocks_batch on dynamics._pair_tables and
    _static_vectors. No step-size, norm or truncation guard applies."""
    n_max = amps0.shape[1] // 2 - 1
    r = realization if realization is not None else zero_realization(pulse.duration)
    series = (x[None] for x in (r.trap_frequency, r.laser_frequency, _amp_factor(pulse, r.laser_amplitude)))
    tables = (*_pair_tables(pulse, trap.eta, n_max), *_static_vectors(pulse, n_max))
    out = np.empty(amps0.shape, dtype=np.complex128)
    return kernels.evolve_blocks_batch(amps0, *tables, *series, r.dt, out)


def propagator(pulse, trap, realization=None, n_max=DEFAULT_N_MAX):
    """Dense oracle: the full (2 (n_max + 1))^2 propagator matrix of a pulse
    under one realization (noiseless in one exact step when None), the
    unguarded ladder_evolve of the identity's columns. evolve_rows applies
    no matrix; its rows must match this one's product with them."""
    return ladder_evolve(np.eye(2 * (n_max + 1), dtype=np.complex128)[None], pulse, trap, realization)[0]


def propagate_reference(amps0, pair_g, pair_e, coup, singles, static_diag, nvec, zvec, trap, freq, ampf, dt):
    """Bit oracle for kernels.evolve_blocks_batch: the same operations on
    every element, on arrays allocated afresh for every temporary and every
    tree level, with an odd tail joined by np.concatenate. Products take
    named operands, never a temporary numpy may reuse in place, so no row
    count moves a bit. It keeps the old (trajectory, step, pair) order, the
    pair axis innermost, so a kernel in the step-innermost layout must
    match it bit for bit. Every pair
    gets its own diagonal half-difference h and its own ampf products,
    whatever the values. coup and nvec may be (trajectory, pairs) and
    (trajectory, dim) tables, one row per trajectory, as dynamics' windows
    pass them."""
    n_steps = trap.shape[1]
    g, e = pair_g, pair_e
    h = trap[:, :, None] * (0.5 * (nvec[..., e] - nvec[..., g]))[..., None, :]
    h += freq[:, :, None] * (0.25 * (zvec[e] - zvec[g]))
    h += 0.5 * (static_diag[e] - static_diag[g])
    r = ampf[:, :, None] ** 2 * (coup.real**2 + coup.imag**2)[..., None, :]
    r += h * h
    np.sqrt(r, out=r)
    sinc = r * dt
    alpha = np.empty(r.shape, dtype=np.complex128)
    np.cos(sinc, out=alpha.real)
    np.sin(sinc, out=sinc)
    np.divide(sinc, r, out=sinc, where=r > 0.0)
    np.multiply(h, sinc, out=alpha.imag)
    sinc *= ampf[:, :, None]
    beta = sinc * (-1j * coup)[..., None, :]
    while alpha.shape[1] > 1:
        n_even = alpha.shape[1] - alpha.shape[1] % 2
        a1, b1 = alpha[:, 1:n_even:2], beta[:, 1:n_even:2]
        a2, b2 = alpha[:, 0:n_even:2], beta[:, 0:n_even:2]
        a1_c, b1_c = a1.conj(), b1.conj()
        a = a1 * a2
        a -= b1_c * b2
        b = b1 * a2
        b += a1_c * b2
        if n_even < alpha.shape[1]:
            a = np.concatenate([a, alpha[:, -1:]], axis=1)
            b = np.concatenate([b, beta[:, -1:]], axis=1)
        alpha, beta = a, b
    alpha, beta = alpha[:, 0], beta[:, 0]

    trap_sum = trap.sum(axis=1)[:, None]
    half_freq_sum = 0.5 * freq.sum(axis=1)[:, None]
    a_sum = (
        n_steps * 0.5 * (static_diag[g] + static_diag[e])
        + trap_sum * 0.5 * (nvec[..., g] + nvec[..., e])
        + half_freq_sum * 0.5 * (zvec[g] + zvec[e])
    )
    phase = np.exp(-1j * dt * a_sum)
    d_sum = n_steps * static_diag[singles] + trap_sum * nvec[..., singles] + half_freq_sum * zvec[singles]
    single_phase = np.exp(-1j * dt * d_sum)
    out = amps0.astype(np.complex128, order="C")
    alpha, beta, phase, single_phase = (x[..., None] for x in (alpha, beta, phase, single_phase))
    pg, pe = out[:, g], out[:, e]
    alpha_c, beta_c = alpha.conj(), beta.conj()
    new_g, new_e = alpha * pg - beta_c * pe, beta * pg + alpha_c * pe
    out[:, g] = phase * new_g
    out[:, e] = phase * new_e
    out[:, singles] *= single_phase
    return out
