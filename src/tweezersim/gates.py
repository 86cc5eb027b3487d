"""Ideal gate set with parameterized error channels and fast imaging.

Gates act on the electronic subspace and are the identity on motion.
Single-qubit rotations follow R(theta, phi) = exp(-i theta/2 (cos(phi)
sigma_x + sin(phi) sigma_y)); the CZ applies the phase -1 on the joint
(up, up) electronic component.

Every operation acts on a PairBatch: a chunk of data + ancilla pairs
held as one complex array psi[shot, data_level, slot, anc_level] plus
a loss mask per atom. Slot s is the data's Fock level n0[shot] + s: a
window of the W levels its circuit reaches, outside which the ladder
0..n_max holds nothing; sideband pulses (dynamics.evolve_rows) run on
the window itself. The ancilla has no motional axis: it is always
prepared at n = 0 and no operation touches its motion. Operations
update psi in place: a rotation mixes one atom's two level slices with
coefficients per shot, a CZ multiplies psi by diagonal factors per shot
(``cnot_block`` folds its local-Z phase into them), and a measurement
is one Born draw per shot, then a collapse of the selected rows onto
their outcomes with renormalization. Losing an atom follows one rule:
the environment projectively measures the lost atom (data: level and
n; ancilla: level), the partner keeps its conditional state, and the
mask flips.

Measurement signals are normal-distributed (bright for a ground-state
atom, dark for clock-state, lost, or absent atoms); the distributions
are user-calibrated, typically through ``calibrate_imaging`` which
root-finds the bright/dark separation reproducing a target single-round
detection fidelity.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .analysis import optimize_threshold_analytic
from .errors import NumericsError, TruncationError, ValidationError

#: Stochastic events counted in PairBatch.events, in report order.
EVENT_KINDS = (
    "cz_leakage_data",
    "cz_leakage_anc",
    "cz_z_error_data",
    "cz_z_error_anc",
    "cz_skipped",
    "imaging_loss",
    "unshelved_loss",
    "heating_jump",
)


@dataclass(frozen=True)
class GateErrorSpec:
    """Stochastic error model for the gate set.

    cz_phase_error_prob: chance the CZ adds a Z on one atom of the pair,
    chosen uniformly. cz_loss_prob: chance of leakage, bookkept through
    the Rydberg label and converted immediately to loss of one atom.
    sq_over_rotation_sigma: shot-constant Gaussian jitter (rad) added to
    every rotation angle, modeling slow drive decoherence; set
    per_gate_jitter to redraw it at each gate instead.
    """

    cz_phase_error_prob: float = 0.006
    cz_loss_prob: float = 0.002
    sq_over_rotation_sigma: float = 0.02
    per_gate_jitter: bool = False

    def __post_init__(self):
        for name in ("cz_phase_error_prob", "cz_loss_prob"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValidationError(f"{name} must be in [0, 1], got {v}")
        if self.cz_phase_error_prob + self.cz_loss_prob > 1.0:
            raise ValidationError("error branch probabilities exceed 1")
        if self.sq_over_rotation_sigma < 0:
            raise ValidationError("sq_over_rotation_sigma must be >= 0")


@dataclass(frozen=True)
class ImagingSpec:
    """Fast-imaging signal model and its collateral effects."""

    bright_mean: float
    dark_mean: float = 0.0
    bright_std: float = 1.0
    dark_std: float = 1.0
    bright_loss_prob: float = 0.5
    unshelved_loss_prob: float = 0.9
    data_heating_quanta_per_round: float = 0.008

    def __post_init__(self):
        if self.bright_std <= 0 or self.dark_std <= 0:
            raise ValidationError("signal standard deviations must be positive")
        if self.bright_mean <= self.dark_mean:
            raise ValidationError("bright_mean must exceed dark_mean")
        for name in ("bright_loss_prob", "unshelved_loss_prob"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValidationError(f"{name} must be in [0, 1], got {v}")


class Streams:
    """One Generator per contiguous segment of a batch's rows, `stops` holding
    each segment's end row. A draw joins the segments' draws in row order, so
    each Generator advances as over its rows alone; size is the row count.
    With a row mask `where`, only the segments holding a selected row draw,
    and the others read 0."""

    def __init__(self, generators, stops):
        self.generators, self.stops = list(generators), list(stops)

    def _draw(self, method: str, where, *args) -> np.ndarray:
        return np.concatenate([
            getattr(g, method)(*args, b - a) if where is None or where[a:b].any() else np.zeros(b - a)
            for g, a, b in zip(self.generators, [0] + self.stops, self.stops)])

    def random(self, size: int, where=None) -> np.ndarray:
        return self._draw("random", where)

    def standard_normal(self, size: int) -> np.ndarray:
        return self._draw("standard_normal", None)

    def normal(self, loc: float, scale: float, size: int) -> np.ndarray:
        return self._draw("normal", None, loc, scale)

    def for_rows(self, rows) -> list:
        """The Generator of each selected row (rows: ascending indices)."""
        return [self.generators[i] for i in np.searchsorted(self.stops, rows, side="right")]


@dataclass
class PairBatch:
    """A chunk of data + ancilla pairs.

    ``psi`` has shape (shots, 2, W, 2), indexed (shot, data_level, slot,
    anc_level) with levels ordered (DOWN, UP); each row is normalized.
    Slot s is the data's Fock level n0[shot] + s, with 0 <= n0 and
    n0 + W - 1 <= n_max; n0 and n_max default to the full ladder, 0 and
    W - 1. ``data_lost`` and ``anc_lost`` mark lost or absent atoms,
    whose axes hold a definite basis state that no operation touches.
    ``rng``, a Streams (a bare Generator becomes one segment), drives every
    stochastic branch; ``errors`` is None for ideal gates, and ``jitter``
    holds each shot's constant rotation jitter.
    """

    psi: np.ndarray
    data_lost: np.ndarray
    anc_lost: np.ndarray
    rng: Streams = None
    errors: GateErrorSpec = None
    jitter: np.ndarray = None
    events: Counter = field(default_factory=Counter)
    n0: np.ndarray = None
    n_max: int = None

    def __post_init__(self):  # the full ladder by default
        self.n0 = np.zeros(self.size, dtype=np.intp) if self.n0 is None else self.n0
        self.n_max = self.psi.shape[2] - 1 if self.n_max is None else self.n_max
        if not isinstance(self.rng, Streams):
            self.rng = Streams([self.rng], [self.size])

    @classmethod
    def prepare(cls, data, anc, data_lost=False, anc_lost=False, rng=None, errors=None):
        """Product pairs from data amplitudes (shots, 2, n_max + 1), n0 = 0,
        and ancilla (down, up) amplitudes, shared (2,) or per shot (shots, 2)."""
        data = np.asarray(data, dtype=np.complex128)
        shots = data.shape[0]
        anc = np.asarray(anc, dtype=np.complex128)
        batch = cls(data[..., None] * anc[..., None, None, :], np.full(shots, data_lost), np.full(shots, anc_lost),
                    rng, errors)
        if errors is not None and errors.sq_over_rotation_sigma > 0 and not errors.per_gate_jitter:
            batch.jitter = batch.rng.normal(0.0, errors.sq_over_rotation_sigma, shots)
        return batch

    @classmethod
    def join(cls, batches) -> "PairBatch":
        """The batches' rows in order, each segment on its Generator; errors and n_max from the first."""
        cat = lambda name: np.concatenate([getattr(b, name) for b in batches])
        offsets = np.cumsum([0] + [b.size for b in batches])
        rng = Streams([g for b in batches for g in b.rng.generators],
                      [int(o + stop) for b, o in zip(batches, offsets) for stop in b.rng.stops])
        return cls(cat("psi"), cat("data_lost"), cat("anc_lost"), rng, batches[0].errors,
                   None if batches[0].jitter is None else cat("jitter"), n0=cat("n0"), n_max=batches[0].n_max)

    @property
    def size(self) -> int:
        return self.psi.shape[0]

    def lost(self, which: str) -> np.ndarray:
        """The loss mask of one atom ('data' or 'anc'), writable in place."""
        if which == "data":
            return self.data_lost
        if which == "anc":
            return self.anc_lost
        raise ValidationError(f"which must be 'data' or 'anc', got {which!r}")

    def populations(self, which: str) -> np.ndarray:
        """Electronic (down, up) populations of one atom, shape (shots, 2)."""
        m = 2 * self.psi.shape[2]  # (n, anc level) entries per data level
        if which == "data":
            return _norm2(self.psi, (self.size, 2, 2 * m), "bi")
        self.lost(which)  # rejects an unknown atom name
        return _norm2(self.psi, (self.size, m, 4), "bj").reshape(-1, 2, 2).sum(axis=2)


def level_labels(level, lost) -> np.ndarray:
    """'down'/'up' per measured level (0/1), 'lost' where the atom was lost."""
    return np.where(lost, "lost", np.where(level == 0, "down", "up"))


def _norm2(a: np.ndarray, shape, out: str) -> np.ndarray:
    """Sums of |a|^2 over a's real and imaginary parts viewed as shape
    (b, i, j), out the einsum output; allocates nothing of a's size."""
    x = a.view(np.float64).reshape(shape)
    return np.einsum(f"bij,bij->{out}", x, x)


def _collapse(batch: PairBatch, rows, probs, shape, where=None) -> np.ndarray:
    """Born-rule measurement: one outcome per shot, then the selected rows
    collapse onto theirs and renormalize. Returns the outcome per shot.

    probs (shots, k) holds each row's unnormalized outcome probabilities;
    one uniform per shot (Streams.random with `where`) picks an index into
    it. psi is multiplied by the projector scaled by 1/sqrt(p), reshaped
    to `shape` to broadcast against psi.
    """
    # ufunc methods: np.cumsum's and ndarray.sum's Python wrappers cost ~2.5 us (2-vCPU x86-64)
    cdf = np.add.accumulate(probs, axis=1)
    u = batch.rng.random(batch.size, where) * cdf[:, -1]
    outcome = np.add.reduce(cdf[:, :-1] <= u[:, None], axis=1)
    rows = np.flatnonzero(rows)
    if rows.size:
        p = probs[rows, outcome[rows]]
        if np.any(p <= 0):
            raise NumericsError("a measurement emptied the state")
        scale = np.ones_like(probs)
        scale[rows] = 0.0
        scale[rows, outcome[rows]] = 1.0 / np.sqrt(p)
        batch.psi *= scale.reshape(shape)
    return outcome


# ---------------------------------------------------------------------------
# gate operations


def rotate(batch: PairBatch, which: str, phase, angle) -> PairBatch:
    """Electronic rotation R(angle, phase) of one atom, identity on motion.

    phase and angle are scalars or one value per shot. With gate errors
    the angle picks up Gaussian jitter: the shot-constant value, or a
    fresh draw per gate with per_gate_jitter. A lost atom is left alone.
    """
    errors = batch.errors
    if errors is not None and errors.sq_over_rotation_sigma > 0:
        angle = angle + (batch.rng.normal(0.0, errors.sq_over_rotation_sigma, batch.size)
                         if errors.per_gate_jitter else batch.jitter)
    half = 0.5 * np.where(batch.lost(which), 0.0, angle)
    s = -1j * np.sin(half)
    e = np.exp(1j * np.asarray(phase, dtype=float))
    c, m01, m10 = (x[:, None, None] for x in (np.cos(half), s * e, s * e.conj()))
    psi = batch.psi  # (a0, a1) <- (c a0 + m01 a1, m10 a0 + c a1), per shot
    a0, a1 = (psi[:, 0], psi[:, 1]) if which == "data" else (psi[..., 0], psi[..., 1])
    t = a0 * m10
    a0 *= c
    a0 += a1 * m01
    a1 *= c
    a1 += t
    return batch


def _cz_branches(batch: PairBatch, d: np.ndarray) -> dict:
    """Fold the CZ and its Z errors into the diagonal factors d[anc level,
    shot, data level]; draw and count its error branches (see apply_cz).
    Returns the leaked rows per atom to lose, empty if no branch fired."""
    on = ~(batch.data_lost | batch.anc_lost)
    batch.events["cz_skipped"] += int(np.count_nonzero(~on))
    d[1, :, 1] *= np.where(on, -1.0, 1.0)
    errors = batch.errors
    if errors is None:
        return {}
    u = batch.rng.random(batch.size)
    hit_data = batch.rng.random(batch.size) < 0.5
    fired = on & (u < errors.cz_loss_prob + errors.cz_phase_error_prob)
    if not fired.any():
        return {}
    leak = fired & (u < errors.cz_loss_prob)
    z_error = fired & ~leak
    leaks = {}
    for which, hit, up in (("data", hit_data, d[:, :, 1]), ("anc", ~hit_data, d[1].T)):
        up *= np.where(z_error & hit, -1.0, 1.0)  # up: the factors on this atom's up level
        leaks[which] = leak & hit
        batch.events[f"cz_z_error_{which}"] += int(np.count_nonzero(z_error & hit))
        batch.events[f"cz_leakage_{which}"] += int(np.count_nonzero(leaks[which]))
    return leaks


def _diagonal(batch: PairBatch, d: np.ndarray, leaks: dict) -> PairBatch:
    """Multiply psi by the factors d[anc level, shot, data level], then
    lose the atoms of the leaked rows per atom."""
    batch.psi *= d.transpose(1, 2, 0)[:, :, None, :]
    for which, rows in leaks.items():
        lose(batch, which, rows)
    return batch


def apply_cz(batch: PairBatch) -> PairBatch:
    """CZ on every pair: phase -1 on (up, up), identity on motion.

    Skipped (and errorless) for a pair missing either atom. Error
    branches follow the ideal gate: a Z on a uniformly chosen atom with
    cz_phase_error_prob, or loss of a uniformly chosen atom (leakage via
    the Rydberg label) with cz_loss_prob.
    """
    d = np.ones((2, batch.size, 2), dtype=np.complex128)
    return _diagonal(batch, d, _cz_branches(batch, d))


def cnot_block(batch: PairBatch, comp_phase=np.pi, local_z_phase: float = 0.0,
               entangle: bool = True) -> PairBatch:
    """Ancilla-flip block: Z_local(data), X^(1/2)(anc), CZ, X^(1/2)(anc, phase).

    comp_phase = pi (the calibrated point) flips the ancilla when the data
    atom is present (in the clock state) and leaves it when the data atom
    is absent; it may hold one value per shot. entangle=False drops the CZ.
    The local Z commutes with the ancilla rotation, so it joins the CZ's
    diagonal pass between the two rotations.
    """
    rotate(batch, "anc", 0.0, np.pi / 2)
    d = np.ones((2, batch.size, 2), dtype=np.complex128)  # [anc level, shot, data level]
    d[:, :, 1] = np.where(batch.data_lost, 1.0, np.exp(1j * local_z_phase))
    _diagonal(batch, d, _cz_branches(batch, d) if entangle else {})
    return rotate(batch, "anc", comp_phase, np.pi / 2)


# ---------------------------------------------------------------------------
# measurement and loss


def project_level(batch: PairBatch, which: str, rows, where=None) -> np.ndarray:
    """Born-rule measurement of one atom's electronic level in the selected
    pairs, collapsing onto it with motion untouched; `where` as in _collapse.

    Returns the level per shot (0 down, 1 up); unselected shots keep
    their state and their entry is meaningless.
    """
    shape = (batch.size, 2, 1, 1) if which == "data" else (batch.size, 1, 1, 2)
    return _collapse(batch, rows, batch.populations(which), shape, where)


def measure_data(batch: PairBatch, rows=None, where=None):
    """Projective (level, n) measurement of the data atom in the selected
    pairs (default: every pair with a data atom); `where` as in _collapse.

    The ancilla keeps its conditional state. Returns (level, n) per shot;
    entries of unselected shots are meaningless. Only zeros lie outside
    the window, so one uniform picks the same (level, n) as on the ladder.
    """
    if rows is None:
        rows = ~batch.data_lost
    w = batch.psi.shape[2]
    probs = _norm2(batch.psi, (batch.size, 2 * w, 4), "bi")
    level, slot = np.divmod(_collapse(batch, rows, probs, (batch.size, 2, w, 1), where), w)
    return level, batch.n0 + slot


def lose(batch: PairBatch, which: str, rows) -> PairBatch:
    """Lose one atom of the selected pairs.

    The environment projectively measures the lost atom (data: level and
    n; ancilla: level), the partner keeps its conditional state, and the
    atom's mask flips. Atoms already lost are left alone; only the
    segments of rows holding a selected pair draw (see Streams).
    """
    mask = batch.lost(which)
    rows = rows & ~mask
    if which == "data":
        measure_data(batch, rows, where=rows)
    else:
        project_level(batch, "anc", rows, where=rows)
    mask[rows] = True
    return batch


def _scatter(batch: PairBatch, which: str, loss_prob: float, event: str) -> np.ndarray:
    """Resonant light on one atom: project its level; ground-state atoms
    scatter and are lost with loss_prob. Returns the bright mask."""
    present = ~batch.lost(which)
    bright = present & (project_level(batch, which, present) == 0)
    gone = bright & (batch.rng.random(batch.size) < loss_prob)
    if which == "data":
        lose(batch, which, gone)  # the environment also measures n
    elif gone.any():  # level already projected; draw what lose's projection would
        batch.rng.random(batch.size, where=gone)
        batch.anc_lost[gone] = True
    batch.events[event] += int(np.count_nonzero(gone))
    return bright


def image_ancilla(batch: PairBatch, spec: ImagingSpec):
    """Fast imaging of every ancilla: (signals, labels).

    Born rule on the electronic populations: a ground-state ancilla is
    bright (and survives minus bright_loss_prob), a clock-state ancilla
    is dark; lost or absent ancillas draw dark signals. Projection
    collapses the electronic state and leaves the data conditional
    state. The label is the detected level; an ancilla removed by the
    imaging light still counts as 'down', and only one lost before
    imaging is 'lost'.
    """
    lost_before = batch.anc_lost.copy()
    bright = _scatter(batch, "anc", spec.bright_loss_prob, "imaging_loss")
    z = batch.rng.standard_normal(batch.size)
    signals = np.where(
        bright, spec.bright_mean + spec.bright_std * z, spec.dark_mean + spec.dark_std * z
    )
    return signals, level_labels(np.where(bright, 0, 1), lost_before)


def expose_to_imaging(batch: PairBatch, spec: ImagingSpec) -> PairBatch:
    """Collateral action of the global imaging light on the data atoms.

    Residual ground-state population scatters: it is projected out and
    lost with unshelved_loss_prob; clock-state population is dark and
    survives with its motional coherence intact.
    """
    _scatter(batch, "data", spec.unshelved_loss_prob, "unshelved_loss")
    return batch


def heating_jump(batch: PairBatch, probability: float) -> PairBatch:
    """Phenomenological per-round heating: each present data atom moves
    one quantum up with the given probability: its window moves up, or,
    where the window ends at n_max, its amplitudes shift up one slot."""
    if probability <= 0.0:
        return batch
    jump = np.flatnonzero(~batch.data_lost & (batch.rng.random(batch.size) < probability))
    at_top = batch.n0[jump] + batch.psi.shape[2] > batch.n_max
    rows = jump[at_top]
    top = _norm2(batch.psi[rows, :, -1], (rows.size, 1, 8), "b")
    if np.any(top > 1e-6):
        raise TruncationError("heating jump would push population past n_max")
    batch.n0[jump[~at_top]] += 1
    batch.psi[rows, :, 1:] = batch.psi[rows, :, :-1]
    batch.psi[rows, :, 0] = 0.0
    batch.psi[rows] /= np.sqrt(1.0 - top)[:, None, None, None]
    batch.events["heating_jump"] += int(jump.size)
    return batch


# ---------------------------------------------------------------------------
# calibration


#: Root-finder tolerances: a step below (XTOL + RTOL |x|) / 2 ends the
#: search; RTOL = 4 eps is the smallest relative tolerance Brent's test
#: can meet.
XTOL = 1e-12
RTOL = 4 * sys.float_info.epsilon


def _brentq(f, xa: float, xb: float, maxiter: int = 100) -> float:
    """Root of f in [xa, xb] by Brent's (1973) method.

    The loop of scipy's brentq, step for step, with the same tolerances
    and iteration cap, so it returns the same float. The end values must
    differ in sign (ValidationError otherwise); a loop that has not met
    the tolerance after maxiter steps raises NumericsError.
    """
    xpre, xcur = xa, xb
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = f(xpre), f(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if (fpre < 0) == (fcur < 0):
        raise ValidationError(f"f has one sign over [{xa:g}, {xb:g}]: {fpre:g} and {fcur:g}")
    for _ in range(maxiter):
        if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (XTOL + RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry  # good short step
            else:
                spre = scur = sbis  # bisect
        else:
            spre = scur = sbis  # bisect
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = f(xcur)
    raise NumericsError(f"root finding did not converge within {maxiter} steps")


@functools.lru_cache(maxsize=256)
def _imaging_separation(target_fidelity: float, p1: float, dark_std: float, bright_std: float) -> float:
    """Bright/dark separation at which the threshold-optimized fidelity at
    prior p1 equals target_fidelity; cached on its four float inputs. The
    fidelity depends on the separation alone, so the dark mean is put at 0,
    where no large mean cancels the threshold quadratic's terms."""

    def fidelity(sep):
        return optimize_threshold_analytic(sep, bright_std, 0.0, dark_std, p1).fidelity

    lo, hi = 1e-6, 40.0 * max(dark_std, bright_std)
    try:
        return _brentq(lambda sep: fidelity(sep) - target_fidelity, lo, hi)
    except ValidationError:
        raise ValidationError(
            f"target fidelity {target_fidelity:g} is out of reach at these signal widths: "
            f"separations {lo:g} to {hi:g} give fidelities {fidelity(lo):.6g} to {fidelity(hi):.6g}"
        ) from None


def calibrate_imaging(
    target_fidelity: float = 0.90,
    p1: float = 0.5,
    dark_mean: float = 0.0,
    dark_std: float = 1.0,
    bright_std: float = 1.0,
    **kwargs,
) -> ImagingSpec:
    """ImagingSpec whose threshold-optimized single-round detection
    fidelity at prior p1 equals target_fidelity (root-finding on the
    bright/dark separation)."""
    if not 0.5 < target_fidelity < 1.0:
        raise ValidationError("target_fidelity must be in (0.5, 1)")
    sep = _imaging_separation(*map(float, (target_fidelity, p1, dark_std, bright_std)))
    return ImagingSpec(
        bright_mean=dark_mean + sep,
        dark_mean=dark_mean,
        bright_std=bright_std,
        dark_std=dark_std,
        **kwargs,
    )
