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

A chunk's arrays are views into a workspace per thread (a threading.local)
that later calls reuse, so a warm call faults in no fresh memory. It grows
to the largest chunk the thread has run, 64-75 B x max(_CHUNK_ELEMENTS,
n_steps * n_pairs), and a pool thread's workspace goes when it exits.
"""

import threading

import numpy as np

__all__ = ["evolve_blocks_batch"]

#: Trajectories are processed in chunks of at most this many
#: (trajectory, step, pair) elements, which caps the workspace.
_CHUNK_ELEMENTS = 1 << 15

#: Per thread: ws, the complex workspace, and floats, its float64 view.
_local = threading.local()


def _propagate(amps0, pair_g, pair_e, coup, singles, static_diag, nvec, zvec, trap, freq, ampf, dt):
    """Final amplitudes (n_traj, dim, k) for series of shape (n_traj, n_steps).

    Per step i the block Hamiltonian entries are
        diag(s) = static_diag[s] + trap[i] * nvec[s] + 0.5 * freq[i] * zvec[s]
        <e|H|g> = coup[p] * ampf[i]
    Trajectory t starts from the flat amplitudes amps0[t], of shape
    (dim, k) for k initial states at once (the columns); the propagation
    is linear, so the columns share every per-step factor.
    """
    rows, n_steps = trap.shape
    g, e = pair_g, pair_e
    # alpha and beta, then four slots of q complex elements, each 16-byte
    # aligned: first the floats h, r, sinc and a temporary, then the tree's
    # two half-size levels and two temporaries
    m = rows * n_steps * g.size
    q = rows * ((n_steps + 1) // 2) * g.size if n_steps > 1 else (m + 1) // 2
    if getattr(_local, "ws", np.empty(0)).size < 2 * m + 4 * q:  # grow, else reuse
        _local.ws = np.empty(2 * m + 4 * q, dtype=np.complex128)
        _local.floats = _local.ws.view(np.float64)
    ws, floats = _local.ws, _local.floats

    def view(x, n):  # the first (rows, n, pairs) elements of flat buffer x
        return x[: rows * n * g.size].reshape(rows, n, g.size)

    alpha, beta = ws[: 2 * m].reshape(2, rows, n_steps, g.size)
    h, r, sinc, tmp = floats[4 * m : 4 * m + 8 * q].reshape(4, 2 * q)[:, :m].reshape(4, rows, n_steps, g.size)
    # half-difference h of each pair's diagonal
    np.multiply(trap[:, :, None], 0.5 * (nvec[e] - nvec[g]), out=h)
    h += np.multiply(freq[:, :, None], 0.25 * (zvec[e] - zvec[g]), out=tmp)
    h += 0.5 * (static_diag[e] - static_diag[g])
    np.multiply(ampf[:, :, None] ** 2, coup.real**2 + coup.imag**2, out=r)
    r += np.multiply(h, h, out=tmp)
    np.sqrt(r, out=r)
    np.multiply(r, dt, out=sinc)  # r dt, then sin(r dt), then sin(r dt) / r
    np.cos(sinc, out=alpha.real)
    np.sin(sinc, out=sinc)
    np.divide(sinc, r, out=sinc, where=r > 0.0)  # r = 0 leaves sin(0) = 0
    np.multiply(h, sinc, out=alpha.imag)
    sinc *= ampf[:, :, None]
    np.multiply(sinc, -1j * coup, out=beta)
    # time-ordered product, later @ earlier, over neighbouring steps per
    # level; an odd last step passes through (a product with the identity).
    # Levels ping-pong between alpha, beta and the first two slots.
    slots = ws[2 * m : 2 * m + 4 * q].reshape(4, q)
    dst, src = slots[:2], ws[: 2 * m].reshape(2, m)
    while alpha.shape[1] > 1:
        n = alpha.shape[1] // 2
        a1, b1 = alpha[:, 1 : 2 * n : 2], beta[:, 1 : 2 * n : 2]  # later
        a2, b2 = alpha[:, 0 : 2 * n : 2], beta[:, 0 : 2 * n : 2]  # earlier
        next_a, next_b = view(dst[0], alpha.shape[1] - n), view(dst[1], alpha.shape[1] - n)
        a, b, t, u = next_a[:, :n], next_b[:, :n], view(slots[2], n), view(slots[3], n)
        np.multiply(a1, a2, out=a)
        a -= np.multiply(np.conjugate(b1, out=t), b2, out=u)
        np.multiply(b1, a2, out=b)
        b += np.multiply(np.conjugate(a1, out=t), b2, out=u)
        if alpha.shape[1] % 2:
            next_a[:, -1], next_b[:, -1] = alpha[:, -1], beta[:, -1]
        alpha, beta = next_a, next_b
        dst, src = src, dst
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
