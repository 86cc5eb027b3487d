"""The vectorized block-propagation kernel against a scalar reference.

The oracle is the original step-by-step loop: each step applies the
exact 2x2 exponential per pair in time order. The kernel reorders the
arithmetic (a pairwise product tree and summed phases), so agreement is
required to atol 1e-12 rather than bit for bit.
"""

import numpy as np
import pytest

from tweezersim import kernels
from tweezersim.dynamics import (
    PulseKind,
    PulseSpec,
    _amp_factor,
    _pair_tables,
    _static_vectors,
)

ETA = 0.36
RABI = 2 * np.pi * 2e3
T_PI = np.pi / (ETA * RABI)
ATOL = 1e-12


def evolve_blocks_scalar(
    amps, pair_g, pair_e, coup, singles, static_diag, nvec, zvec, trap_series, freq_series, amp_factor, dt
):
    """Reference oracle: propagate flat amplitudes in place, one step at a time."""
    for i in range(trap_series.shape[0]):
        dwt = trap_series[i]
        half_fdot = 0.5 * freq_series[i]
        af = amp_factor[i]
        for p in range(pair_g.shape[0]):
            g = pair_g[p]
            e = pair_e[p]
            dg = static_diag[g] + dwt * nvec[g] + half_fdot * zvec[g]
            de = static_diag[e] + dwt * nvec[e] + half_fdot * zvec[e]
            c = coup[p] * af
            a = 0.5 * (dg + de)
            h = 0.5 * (de - dg)
            r = np.sqrt(c.real * c.real + c.imag * c.imag + h * h)
            ph = np.exp(-1j * a * dt)
            pg = amps[g]
            pe = amps[e]
            if r == 0.0:
                amps[g] = ph * pg
                amps[e] = ph * pe
                continue
            cos_ = np.cos(r * dt)
            sin_ = np.sin(r * dt)
            # (v.sigma) with v = (Re c, Im c, -h) / r in the (g, e) basis
            sg = (c.conjugate() * pe - h * pg) / r
            se = (c * pg + h * pe) / r
            amps[g] = ph * (cos_ * pg - 1j * sin_ * sg)
            amps[e] = ph * (cos_ * pe - 1j * sin_ * se)
        for idx in singles:
            d = static_diag[idx] + dwt * nvec[idx] + half_fdot * zvec[idx]
            amps[idx] *= np.exp(-1j * d * dt)
    return amps


def _random_state(rng, dim):
    amps = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return amps / np.linalg.norm(amps)


def _tables(kind, mode, n_max=6):
    """Kernel block tables of a detuned, phase-shifted pulse."""
    pulse = PulseSpec(kind, rabi=RABI, duration=T_PI, detuning=0.3 * ETA * RABI, phase=0.7)
    pg, pe, coup, singles = _pair_tables(pulse, ETA, n_max, mode)
    return (pg, pe, coup, singles, *_static_vectors(pulse, n_max))


def _series(rng, n_traj, n_steps):
    """Noisy trap, laser-frequency and amplitude-factor rows."""
    trap = rng.normal(size=(n_traj, n_steps)) * 0.05 * ETA * RABI
    freq = rng.normal(size=(n_traj, n_steps)) * 0.2 * ETA * RABI
    ampf = 1.0 + 0.02 * rng.normal(size=(n_traj, n_steps))
    return trap, freq, ampf


def _oracle_batch(amps0, tables, trap, freq, ampf, dt):
    return np.stack(
        [evolve_blocks_scalar(amps0.copy(), *tables, trap[t], freq[t], ampf[t], dt) for t in range(trap.shape[0])]
    )


def _batch(amps0, tables, trap, freq, ampf, dt):
    """Every row of the series from one shared flat state amps0."""
    rows = np.broadcast_to(amps0[None, :, None], (trap.shape[0], amps0.size, 1))
    out = np.empty(rows.shape, dtype=np.complex128)
    return kernels.evolve_blocks_batch(rows, *tables, trap, freq, ampf, dt, out)[:, :, 0]


# two-level mode is defined for the blue sideband and free evolution only
PULSE_CASES = [
    (PulseKind.CARRIER, "rwa-ladder"),
    (PulseKind.RED_SIDEBAND, "rwa-ladder"),
    (PulseKind.BLUE_SIDEBAND, "rwa-ladder"),
    (PulseKind.FREE, "rwa-ladder"),
    (PulseKind.BLUE_SIDEBAND, "two-level"),
    (PulseKind.FREE, "two-level"),
]


@pytest.mark.parametrize("kind, mode", PULSE_CASES)
@pytest.mark.parametrize("n_steps", [1, 3, 2001])
def test_single_trajectory_matches_oracle(kind, mode, n_steps):
    rng = np.random.default_rng([n_steps, PULSE_CASES.index((kind, mode))])
    tables = _tables(kind, mode)
    amps = _random_state(rng, 14)
    trap, freq, ampf = _series(rng, 1, n_steps)
    dt = T_PI / n_steps
    want = evolve_blocks_scalar(amps.copy(), *tables, trap[0], freq[0], ampf[0], dt)
    got = _batch(amps, tables, trap, freq, ampf, dt)[0]
    np.testing.assert_allclose(got, want, rtol=0, atol=ATOL)
    assert np.linalg.norm(got) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("kind, mode", PULSE_CASES)
def test_batch_matches_oracle(kind, mode):
    rng = np.random.default_rng(5)
    tables = _tables(kind, mode)
    amps0 = _random_state(rng, 14)
    trap, freq, ampf = _series(rng, 5, 200)
    dt = T_PI / 200
    np.testing.assert_allclose(
        _batch(amps0, tables, trap, freq, ampf, dt),
        _oracle_batch(amps0, tables, trap, freq, ampf, dt),
        rtol=0,
        atol=ATOL,
    )


def test_zero_coupling_block_takes_phase_only_branch():
    # a zero-Rabi carrier: every pair has c = 0 and, with the laser
    # frequency quiet, h = 0, so r = 0 on every step while trap noise
    # still rotates the pair's phase
    rng = np.random.default_rng(8)
    pulse = PulseSpec(PulseKind.CARRIER, rabi=0.0, duration=T_PI)
    pg, pe, coup, singles = _pair_tables(pulse, ETA, 3, "rwa-ladder")
    assert not np.any(coup)
    tables = (pg, pe, coup, singles, *_static_vectors(pulse, 3))
    amps = _random_state(rng, 8)
    n_steps = 7
    trap = rng.normal(size=n_steps) * 100.0
    freq = np.zeros(n_steps)
    ampf = _amp_factor(pulse, np.zeros(n_steps))
    dt = T_PI / n_steps
    want = evolve_blocks_scalar(amps.copy(), *tables, trap, freq, ampf, dt)
    got = _batch(amps, tables, trap[None], freq[None], ampf[None], dt)[0]
    np.testing.assert_allclose(got, want, rtol=0, atol=ATOL)
    np.testing.assert_allclose(np.abs(got), np.abs(amps), rtol=0, atol=ATOL)


def test_batch_spanning_several_chunks_matches_oracle_and_single_calls():
    rng = np.random.default_rng(21)
    tables = _tables(PulseKind.BLUE_SIDEBAND, "rwa-ladder")
    n_pairs = tables[0].size
    n_steps = 501
    chunk = kernels._CHUNK_ELEMENTS // (n_steps * n_pairs)
    n_traj = 2 * chunk + 3  # two full chunks and a partial one
    amps0 = _random_state(rng, 14)
    trap, freq, ampf = _series(rng, n_traj, n_steps)
    dt = T_PI / n_steps
    got = _batch(amps0, tables, trap, freq, ampf, dt)
    for t in (0, chunk - 1, chunk, 2 * chunk, n_traj - 1):
        want = evolve_blocks_scalar(amps0.copy(), *tables, trap[t], freq[t], ampf[t], dt)
        np.testing.assert_allclose(got[t], want, rtol=0, atol=ATOL)
        single = _batch(amps0, tables, trap[t : t + 1], freq[t : t + 1], ampf[t : t + 1], dt)
        np.testing.assert_array_equal(got[t], single[0])
    np.testing.assert_allclose(np.linalg.norm(got, axis=1), 1.0, rtol=0, atol=1e-12)


def _random_rows(rng, n_traj, dim, k=2):
    """Per-row initial states (n_traj, dim, k), each column normalized."""
    return np.stack([np.stack([_random_state(rng, dim) for _ in range(k)], axis=1) for _ in range(n_traj)])


@pytest.mark.parametrize("kind, mode", PULSE_CASES)
def test_per_row_initial_states_match_oracle(kind, mode):
    rng = np.random.default_rng([9, PULSE_CASES.index((kind, mode))])
    tables = _tables(kind, mode)
    amps0 = _random_rows(rng, 5, 14)
    trap, freq, ampf = _series(rng, 5, 200)
    dt = T_PI / 200
    got = kernels.evolve_blocks_batch(amps0, *tables, trap, freq, ampf, dt, np.empty_like(amps0))
    for t in range(5):
        for col in range(2):
            want = evolve_blocks_scalar(amps0[t, :, col].copy(), *tables, trap[t], freq[t], ampf[t], dt)
            np.testing.assert_allclose(got[t, :, col], want, rtol=0, atol=ATOL)


def test_per_row_batch_spanning_several_chunks_matches_oracle_and_single_calls():
    rng = np.random.default_rng(22)
    tables = _tables(PulseKind.BLUE_SIDEBAND, "rwa-ladder")
    n_steps = 501
    chunk = kernels._CHUNK_ELEMENTS // (n_steps * tables[0].size)
    n_traj = 2 * chunk + 3  # two full chunks and a partial one
    amps0 = _random_rows(rng, n_traj, 14)
    trap, freq, ampf = _series(rng, n_traj, n_steps)
    dt = T_PI / n_steps
    got = kernels.evolve_blocks_batch(amps0, *tables, trap, freq, ampf, dt, np.empty_like(amps0))
    for t in (0, chunk - 1, chunk, 2 * chunk, n_traj - 1):
        for col in range(2):
            want = evolve_blocks_scalar(amps0[t, :, col].copy(), *tables, trap[t], freq[t], ampf[t], dt)
            np.testing.assert_allclose(got[t, :, col], want, rtol=0, atol=ATOL)
        rows = slice(t, t + 1)
        single = kernels.evolve_blocks_batch(
            amps0[rows], *tables, trap[rows], freq[rows], ampf[rows], dt, np.empty_like(amps0[rows])
        )
        np.testing.assert_array_equal(got[t], single[0])
    np.testing.assert_allclose(np.linalg.norm(got, axis=1), 1.0, rtol=0, atol=1e-12)


def test_pair_tables_are_cached_read_only():
    pulse = PulseSpec(PulseKind.BLUE_SIDEBAND, rabi=RABI, duration=T_PI, phase=0.7)
    first = (*_pair_tables(pulse, ETA, 6, "rwa-ladder"), *_static_vectors(pulse, 6))
    again = (*_pair_tables(pulse, ETA, 6, "rwa-ladder"), *_static_vectors(pulse, 6))
    assert all(a is b for a, b in zip(first, again))
    for a in first:
        with pytest.raises(ValueError):
            a[...] = 0
