"""Ideal gate set with parameterized error channels, imaging, and pushout.

Gates act on the electronic subspace and are the identity on motion.
Single-qubit rotations follow R(theta, phi) = exp(-i theta/2 (cos(phi)
sigma_x + sin(phi) sigma_y)); the CZ applies the phase -1 on the joint
(up, up) electronic component.

Every operation acts on a PairBatch: a chunk of data + ancilla pairs
held as one complex array psi[shot, data_level, data_n, anc_level] plus
a loss mask per atom. The ancilla has no motional axis: it is always
prepared at n = 0 and no operation touches its motion. A gate is one
masked matrix product over the chunk, and a measurement projects and
renormalizes. Losing an atom follows one rule: the environment
projectively measures the lost atom (data: level and n; ancilla:
level), the partner keeps its conditional state, and the mask flips.

Measurement signals are normal-distributed (bright for a ground-state
atom, dark for clock-state, lost, or absent atoms); the distributions
are user-calibrated, typically through ``calibrate_imaging`` which
root-finds the bright/dark separation reproducing a target single-round
detection fidelity.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .analysis import optimize_threshold_analytic
from .errors import NumericsError, TruncationError, ValidationError

_IDENTITY = np.eye(2)

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


@dataclass
class PairBatch:
    """A chunk of data + ancilla pairs.

    ``psi`` has shape (shots, 2, n_max + 1, 2), indexed (shot,
    data_level, data_n, anc_level) with levels ordered (DOWN, UP); each
    row is normalized. ``data_lost`` and ``anc_lost`` mark lost or
    absent atoms, whose axes hold a definite basis state that no
    operation touches. ``rng`` drives every stochastic branch;
    ``errors`` is None for ideal gates, and ``jitter`` holds each shot's
    constant rotation jitter.
    """

    psi: np.ndarray
    data_lost: np.ndarray
    anc_lost: np.ndarray
    rng: np.random.Generator = None
    errors: GateErrorSpec = None
    jitter: np.ndarray = None
    events: Counter = field(default_factory=Counter)

    @classmethod
    def prepare(cls, data, anc, data_lost=False, anc_lost=False, rng=None, errors=None):
        """Product pairs from data amplitudes (shots, 2, n_max + 1) and
        ancilla (down, up) amplitudes, shared (2,) or per shot (shots, 2)."""
        data = np.asarray(data, dtype=np.complex128)
        shots = data.shape[0]
        anc = np.broadcast_to(np.asarray(anc, dtype=np.complex128), (shots, 2))
        jitter = None
        if errors is not None and errors.sq_over_rotation_sigma > 0 and not errors.per_gate_jitter:
            jitter = rng.normal(0.0, errors.sq_over_rotation_sigma, shots)
        return cls(
            psi=data[..., None] * anc[:, None, None, :],
            data_lost=np.array(np.broadcast_to(data_lost, shots)),
            anc_lost=np.array(np.broadcast_to(anc_lost, shots)),
            rng=rng,
            errors=errors,
            jitter=jitter,
        )

    @property
    def size(self) -> int:
        return self.psi.shape[0]

    @property
    def n_max(self) -> int:
        return self.psi.shape[2] - 1

    def lost(self, which: str) -> np.ndarray:
        """The loss mask of one atom ('data' or 'anc'), writable in place."""
        if which == "data":
            return self.data_lost
        if which == "anc":
            return self.anc_lost
        raise ValidationError(f"which must be 'data' or 'anc', got {which!r}")

    def populations(self, which: str) -> np.ndarray:
        """Electronic (down, up) populations of one atom, shape (shots, 2)."""
        self.lost(which)  # rejects an unknown atom name
        return np.einsum("blnk->bl" if which == "data" else "blnk->bk", _abs2(self.psi))


def rotation_matrix(theta, phi) -> np.ndarray:
    """R(theta, phi) in the (down, up) ordering; shape (..., 2, 2) for array arguments."""
    c = np.cos(np.multiply(theta, 0.5))
    s = -1j * np.sin(np.multiply(theta, 0.5))
    e = np.exp(1j * np.asarray(phi, dtype=float))
    mat = np.empty(np.broadcast_shapes(c.shape, e.shape) + (2, 2), dtype=np.complex128)
    mat[..., 0, 0] = c
    mat[..., 0, 1] = s * e
    mat[..., 1, 0] = s * e.conj()
    mat[..., 1, 1] = c
    return mat


def level_labels(level, lost) -> np.ndarray:
    """'down'/'up' per measured level (0/1), 'lost' where the atom was lost."""
    return np.where(lost, "lost", np.where(level == 0, "down", "up"))


def _abs2(a: np.ndarray) -> np.ndarray:
    return a.real**2 + a.imag**2


def _project(batch: PairBatch, rows, outcome, probs, shape):
    """Collapse the selected rows onto their outcome and renormalize.

    probs (shots, k) holds each row's outcome probabilities and outcome
    one index into it per row; psi is multiplied by the projector scaled
    by 1/sqrt(p), reshaped to `shape` to broadcast against psi.
    """
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


def _sample(p, rng) -> np.ndarray:
    """One index per row of the unnormalized probabilities p (rows, k)."""
    cdf = np.cumsum(p, axis=1)
    u = rng.random(p.shape[0]) * cdf[:, -1]
    return np.minimum(np.sum(cdf <= u[:, None], axis=1), p.shape[1] - 1)


# ---------------------------------------------------------------------------
# gate operations


def apply_electronic(batch: PairBatch, which: str, mat) -> PairBatch:
    """Apply a 2x2 electronic operator, shared (2, 2) or per shot
    (shots, 2, 2), to one atom of every pair in which it is present."""
    mat = np.where(batch.lost(which)[:, None, None], _IDENTITY, mat)  # a lost atom is left alone
    b, m = batch.size, batch.n_max + 1
    if which == "data":  # psi'[s, l, n, k] = mat[s, l, j] psi[s, j, n, k]
        batch.psi = (mat @ batch.psi.reshape(b, 2, 2 * m)).reshape(b, 2, m, 2)
    else:  # psi'[s, l, n, k] = mat[s, k, j] psi[s, l, n, j]
        batch.psi = (batch.psi.reshape(b, 2 * m, 2) @ mat.transpose(0, 2, 1)).reshape(b, 2, m, 2)
    return batch


def apply_data_unitary(batch: PairBatch, u4: np.ndarray) -> PairBatch:
    """Apply a (level, n) unitary of shape (2, M, 2, M) to every present data atom."""
    on = ~batch.data_lost
    batch.psi[on] = np.einsum("xyln,blnk->bxyk", u4, batch.psi[on])
    return batch


def rotate(batch: PairBatch, which: str, phase, angle) -> PairBatch:
    """Electronic rotation R(angle, phase) of one atom, identity on motion.

    phase and angle are scalars or one value per shot. With gate errors
    the angle picks up Gaussian jitter: the shot-constant value, or a
    fresh draw per gate with per_gate_jitter.
    """
    errors = batch.errors
    if errors is not None and errors.sq_over_rotation_sigma > 0:
        if errors.per_gate_jitter:
            angle = angle + batch.rng.normal(0.0, errors.sq_over_rotation_sigma, batch.size)
        else:
            angle = angle + batch.jitter
    return apply_electronic(batch, which, rotation_matrix(angle, phase))


def local_z(batch: PairBatch, which: str, phi) -> PairBatch:
    """Multiply one atom's up-level amplitudes by exp(i phi), phi a scalar
    or one value per shot; exact and error-free."""
    up = np.where(batch.lost(which), 1.0, np.exp(1j * np.asarray(phi, dtype=float)))
    if which == "data":
        batch.psi[:, 1] *= up[:, None, None]
    else:
        batch.psi[..., 1] *= up[:, None, None]
    return batch


def apply_cz(batch: PairBatch) -> PairBatch:
    """CZ on every pair: phase -1 on (up, up), identity on motion.

    Skipped (and errorless) for a pair missing either atom. Error
    branches follow the ideal gate: a Z on a uniformly chosen atom with
    cz_phase_error_prob, or loss of a uniformly chosen atom (leakage via
    the Rydberg label) with cz_loss_prob.
    """
    on = ~(batch.data_lost | batch.anc_lost)
    batch.events["cz_skipped"] += int(np.count_nonzero(~on))
    batch.psi[:, 1, :, 1] *= np.where(on, -1.0, 1.0)[:, None]
    errors = batch.errors
    if errors is None:
        return batch
    u = batch.rng.random(batch.size)
    hit_data = batch.rng.random(batch.size) < 0.5
    leak = on & (u < errors.cz_loss_prob)
    z_error = on & ~leak & (u < errors.cz_loss_prob + errors.cz_phase_error_prob)
    if not (leak.any() or z_error.any()):
        return batch
    for which, hit in (("data", hit_data), ("anc", ~hit_data)):
        local_z(batch, which, np.where(z_error & hit, np.pi, 0.0))
        lose(batch, which, leak & hit)
        batch.events[f"cz_z_error_{which}"] += int(np.count_nonzero(z_error & hit))
        batch.events[f"cz_leakage_{which}"] += int(np.count_nonzero(leak & hit))
    return batch


# ---------------------------------------------------------------------------
# measurement and loss


def project_level(batch: PairBatch, which: str, rows) -> np.ndarray:
    """Born-rule measurement of one atom's electronic level in the selected
    pairs, collapsing onto it with motion untouched.

    Returns the level per shot (0 down, 1 up); unselected shots keep
    their state and their entry is meaningless.
    """
    pops = batch.populations(which)
    level = (batch.rng.random(batch.size) * pops.sum(axis=1) >= pops[:, 0]).astype(np.intp)
    shape = (batch.size, 2, 1, 1) if which == "data" else (batch.size, 1, 1, 2)
    _project(batch, rows, level, pops, shape)
    return level


def measure_data(batch: PairBatch, rows=None):
    """Projective (level, n) measurement of the data atom in the selected
    pairs (default: every pair with a data atom).

    The ancilla keeps its conditional state. Returns (level, n) per shot;
    entries of unselected shots are meaningless.
    """
    if rows is None:
        rows = ~batch.data_lost
    probs = np.einsum("blnk->bln", _abs2(batch.psi)).reshape(batch.size, -1)
    index = _sample(probs, batch.rng)
    _project(batch, rows, index, probs, (batch.size, 2, batch.n_max + 1, 1))
    level, n = np.divmod(index, batch.n_max + 1)
    return level, n


def lose(batch: PairBatch, which: str, rows) -> PairBatch:
    """Lose one atom of the selected pairs.

    The environment projectively measures the lost atom (data: level and
    n; ancilla: level), the partner keeps its conditional state, and the
    atom's mask flips. Atoms already lost are left alone.
    """
    mask = batch.lost(which)
    rows = rows & ~mask
    if not rows.any():
        return batch
    if which == "data":
        measure_data(batch, rows)
    else:
        project_level(batch, "anc", rows)
    mask[rows] = True
    return batch


def _scatter(batch: PairBatch, which: str, loss_prob: float, event: str) -> np.ndarray:
    """Resonant light on one atom: project its level; ground-state atoms
    scatter and are lost with loss_prob. Returns the bright mask."""
    present = ~batch.lost(which)
    bright = present & (project_level(batch, which, present) == 0)
    gone = bright & (batch.rng.random(batch.size) < loss_prob)
    lose(batch, which, gone)
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


def pushout(batch: PairBatch, which: str = "data") -> PairBatch:
    """Resonant removal of ground-state population: Born-rule branch to
    loss for the ground state, survival collapsed to the clock manifold."""
    _scatter(batch, which, 1.0, "pushout_loss")
    return batch


def heating_jump(batch: PairBatch, probability: float) -> PairBatch:
    """Phenomenological per-round heating: each present data atom moves
    one quantum up with the given probability."""
    if probability <= 0.0:
        return batch
    jump = np.flatnonzero(~batch.data_lost & (batch.rng.random(batch.size) < probability))
    if not jump.size:
        return batch
    top = np.einsum("blk->b", _abs2(batch.psi[jump, :, -1]))
    if np.max(top) > 1e-6:
        raise TruncationError("heating jump would push population past n_max")
    batch.psi[jump, :, 1:] = batch.psi[jump, :, :-1]
    batch.psi[jump, :, 0] = 0.0
    batch.psi[jump] /= np.sqrt(1.0 - top)[:, None, None, None]
    batch.events["heating_jump"] += int(jump.size)
    return batch


# ---------------------------------------------------------------------------
# calibration


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
    from scipy.optimize import brentq

    if not 0.5 < target_fidelity < 1.0:
        raise ValidationError("target_fidelity must be in (0.5, 1)")

    def gap(sep):
        res = optimize_threshold_analytic(
            dark_mean + sep, bright_std, dark_mean, dark_std, p1
        )
        return res.fidelity - target_fidelity

    sep = brentq(gap, 1e-6, 40.0 * max(dark_std, bright_std), xtol=1e-12)
    return ImagingSpec(
        bright_mean=dark_mean + sep,
        dark_mean=dark_mean,
        bright_std=bright_std,
        dark_std=dark_std,
        **kwargs,
    )
