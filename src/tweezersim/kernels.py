"""Hot numerical kernel: piecewise-constant block propagation.

Every drive considered here (carrier, red/blue sideband, free) couples
disjoint pairs of basis states that stay fixed for the whole pulse, so
the Hamiltonian is block-diagonal in 2x2 blocks plus uncoupled
singletons. Per step a pair's exact propagator is

    exp(-i a dt) * [[alpha, -conj(beta)], [beta, conj(alpha)]],
    alpha = cos(r dt) + i h sinc,  beta = -i c sinc,  sinc = sin(r dt) / r,

with a and h the mean and half-difference of the pair's diagonal, c the
coupling <e|H|g> and r = sqrt(|c|^2 + h^2) (sinc = 0 when r = 0). The
SU(2) parts of all steps are computed at once and multiplied in time
order by a pairwise tree, log2(steps) levels deep; the phases commute
and are applied once as exp(-i dt sum a). Singletons only pick up
exp(-i dt sum d). There is no Python loop over time steps.
"""

import numpy as np

__all__ = ["evolve_blocks_batch"]

#: Trajectories are processed in chunks of at most this many
#: (trajectory, step, pair) elements, which caps the temporaries.
_CHUNK_ELEMENTS = 1 << 15


def _propagate(amps0, pair_g, pair_e, coup, singles, static_diag, nvec, zvec, trap, freq, ampf, dt):
    """Final amplitudes (n_traj, dim, k) for series of shape (n_traj, n_steps).

    Per step i the block Hamiltonian entries are
        diag(s) = static_diag[s] + trap[i] * nvec[s] + 0.5 * freq[i] * zvec[s]
        <e|H|g> = coup[p] * ampf[i]
    Trajectory t starts from the flat amplitudes amps0[t], of shape
    (dim, k) for k initial states at once (the columns); the propagation
    is linear, so the columns share every per-step factor.
    """
    n_steps = trap.shape[1]
    g, e = pair_g, pair_e
    # half-difference h of each pair's diagonal; updates run in place (and
    # del drops buffers early) to keep the chunk's temporaries few
    h = trap[:, :, None] * (0.5 * (nvec[e] - nvec[g]))
    h += freq[:, :, None] * (0.25 * (zvec[e] - zvec[g]))
    h += 0.5 * (static_diag[e] - static_diag[g])
    r = ampf[:, :, None] ** 2 * (coup.real**2 + coup.imag**2)
    r += h * h
    np.sqrt(r, out=r)
    sinc = r * dt  # one buffer: r dt, then sin(r dt), then sin(r dt) / r
    alpha = np.empty(r.shape, dtype=np.complex128)
    np.cos(sinc, out=alpha.real)
    np.sin(sinc, out=sinc)
    np.divide(sinc, r, out=sinc, where=r > 0.0)  # r = 0 leaves sin(0) = 0
    del r
    np.multiply(h, sinc, out=alpha.imag)
    del h
    sinc *= ampf[:, :, None]
    beta = sinc * (-1j * coup)
    del sinc
    # time-ordered product, later @ earlier, over neighbouring steps per
    # level; an odd last step passes through (a product with the identity)
    while alpha.shape[1] > 1:
        n_even = alpha.shape[1] - alpha.shape[1] % 2
        a1, b1 = alpha[:, 1:n_even:2], beta[:, 1:n_even:2]  # later
        a2, b2 = alpha[:, 0:n_even:2], beta[:, 0:n_even:2]  # earlier
        a = a1 * a2
        a -= b1.conj() * b2
        b = b1 * a2
        b += a1.conj() * b2
        if n_even < alpha.shape[1]:
            a = np.concatenate([a, alpha[:, -1:]], axis=1)
            b = np.concatenate([b, beta[:, -1:]], axis=1)
        alpha, beta = a, b
    alpha, beta = alpha[:, 0], beta[:, 0]

    trap_sum = trap.sum(axis=1)[:, None]
    half_freq_sum = 0.5 * freq.sum(axis=1)[:, None]
    a_sum = (
        n_steps * 0.5 * (static_diag[g] + static_diag[e])
        + trap_sum * 0.5 * (nvec[g] + nvec[e])
        + half_freq_sum * 0.5 * (zvec[g] + zvec[e])
    )
    phase = np.exp(-1j * dt * a_sum)
    d_sum = n_steps * static_diag[singles] + trap_sum * nvec[singles] + half_freq_sum * zvec[singles]
    single_phase = np.exp(-1j * dt * d_sum)
    out = amps0.astype(np.complex128, order="C")
    alpha, beta, phase, single_phase = (x[..., None] for x in (alpha, beta, phase, single_phase))
    pg, pe = out[:, g], out[:, e]
    out[:, g] = phase * (alpha * pg - beta.conj() * pe)
    out[:, e] = phase * (beta * pg + alpha.conj() * pe)
    out[:, singles] *= single_phase
    return out


def _rows_per_chunk(n_steps, n_pairs):
    """Trajectories per chunk of at most _CHUNK_ELEMENTS (trajectory, step, pair) elements."""
    return max(1, _CHUNK_ELEMENTS // max(1, n_steps * n_pairs))


def evolve_blocks_batch(
    amps0, pair_g, pair_e, coup, singles, static_diag, nvec, zvec,
    trap_2d, freq_2d, ampf_2d, dt, out,
):
    """Evolve many noise realizations (rows), each from its own initial
    state: amps0[t] of shape (dim, k) for row t of the (rows, n_steps)
    series. Rows that share a state pass a broadcast amps0."""
    blocks = (pair_g, pair_e, coup, singles, static_diag, nvec, zvec)
    n_traj, n_steps = trap_2d.shape
    chunk = _rows_per_chunk(n_steps, pair_g.shape[0])
    for start in range(0, n_traj, chunk):
        rows = slice(start, start + chunk)
        out[rows] = _propagate(amps0[rows], *blocks, trap_2d[rows], freq_2d[rows], ampf_2d[rows], dt)
    return out
