"""Hot numerical kernel: piecewise-constant block propagation.

Every drive considered here (carrier, red/blue sideband, free) couples
disjoint pairs of basis states that stay fixed for the whole pulse, so
the Hamiltonian is block-diagonal in 2x2 blocks plus uncoupled
singletons. Per step a pair's exact propagator is

    exp(-i a dt) * [[alpha, -conj(beta)], [beta, conj(alpha)]],
    alpha = cos(r dt) + i h sinc,  beta = -i c sinc,  sinc = sin(r dt) / r,

with a and h the mean and half-difference of the pair's diagonal, c the
coupling <e|H|g> and r = sqrt(|c|^2 + h^2) (sinc = 0 when r = 0). A
drive couples every n to n + delta with one delta, so all pairs share
the half-differences of Fock number, sigma_z and static diagonal (also
on per-row windows, as (n0 + a) - (n0 + b) is exact): h is one
(rows, 1, steps) series, squared once and broadcast over the pairs. An
amplitude factor of exactly 1 is not multiplied in, and r is floored at
5e-324 for a plain divide (sin(0) / 5e-324 = 0); no bit moves for either.
The SU(2) parts of all steps are computed at once and multiplied in time
order by a pairwise tree, log2(steps) levels deep; the phases commute
and are applied once as exp(-i dt sum a). Singletons only pick up
exp(-i dt sum d). There is no Python loop over time steps.

Per-step arrays are (rows, pairs, steps), the step axis innermost: the
series broadcast as (rows, 1, steps) against coefficients (pairs, 1), or
(rows, pairs, 1) per row; a tree level takes later and earlier steps as
stride-2 slices of one run. They are views, carved once per chunk shape,
into a workspace per thread (a threading.local) that later calls reuse,
so a warm call faults in no fresh memory. It grows to the largest chunk
the thread has run, 64-75 B x max(_CHUNK_ELEMENTS, n_steps * n_pairs),
and goes when its thread exits.
"""

import threading

import numpy as np

__all__ = ["evolve_blocks_batch"]

#: Trajectories are processed in chunks of at most this many
#: (trajectory, pair, step) elements, which caps the workspace.
_CHUNK_ELEMENTS = 1 << 15

#: Per thread: ws, the complex workspace, and views, its views per chunk shape.
_local = threading.local()


def _views(rows, n_steps, n_pairs):
    """This thread's views of its workspace for one chunk shape (up to 64 kept)."""
    key = (rows, n_steps, n_pairs)
    if key in getattr(_local, "views", ()):
        return _local.views[key]
    # alpha and beta, then four slots of q complex elements, each 16-byte
    # aligned: first the floats h, r, sinc and a temporary, then two half-size
    # tree levels (levels ping-pong between these and alpha, beta), two temporaries
    m = rows * n_pairs * n_steps
    q = rows * n_pairs * ((n_steps + 1) // 2) if n_steps > 1 else (m + 1) // 2
    if getattr(_local, "ws", np.empty(0)).size < 2 * m + 4 * q:  # grow, else reuse
        _local.ws, _local.views = np.empty(2 * m + 4 * q, dtype=np.complex128), {}
    elif len(_local.views) >= 64:
        _local.views.clear()
    ws = _local.ws
    ab = ws[: 2 * m].reshape(2, rows, n_pairs, n_steps)  # alpha and beta
    floats = ws.view(np.float64)[4 * m : 4 * m + 8 * q].reshape(4, 2 * q)
    one = min(n_pairs, 1)  # h and the temporary are (rows, 1, steps): one series for every pair
    h, tmp = (f[: rows * one * n_steps].reshape(rows, one, n_steps) for f in floats[::3])
    r, sinc = (f[:m].reshape(rows, n_pairs, n_steps) for f in floats[1:3])
    slots = ws[2 * m : 2 * m + 4 * q].reshape(4, q)
    levels, ab_in, pingpong = [], ab, (slots[:2], ws[: 2 * m].reshape(2, m))
    while ab_in.shape[3] > 1:
        n, odd = divmod(ab_in.shape[3], 2)
        ab_out = pingpong[len(levels) % 2][:, : rows * n_pairs * (n + odd)].reshape(2, rows, n_pairs, n + odd)
        temps = slots[2:, : rows * n_pairs * n].reshape(2, rows, n_pairs, n)
        tail = [(ab_out[..., -1], ab_in[..., -1])] if odd else []
        levels.append((*ab_in[..., 1 : 2 * n : 2], *ab_in[..., 0 : 2 * n : 2], *ab_out[..., :n], *temps, tail))
        ab_in = ab_out
    _local.views[key] = (*ab, h, r, sinc, tmp, levels, *ab_in[..., 0])
    return _local.views[key]


def _propagate(amps0, pair_g, pair_e, coup, singles, static_diag, nvec, zvec, trap, freq, ampf, dt):
    """Final amplitudes (n_traj, dim, k) for series of shape (n_traj, n_steps).

    Per step i the block Hamiltonian entries are
        diag(s) = static_diag[s] + trap[i] * nvec[s] + 0.5 * freq[i] * zvec[s]
        <e|H|g> = coup[p] * ampf[i]
    coup and nvec are (pairs,) and (dim,), or (n_traj, pairs) and
    (n_traj, dim) per trajectory; every pair must have the first's
    half-differences of nvec, zvec and static_diag (module docstring).
    Trajectory t starts from amps0[t], of shape (dim, k): k states (the
    columns) that share every per-step factor.
    """
    rows, n_steps = trap.shape
    g, e = pair_g, pair_e
    alpha, beta, h, r, sinc, hh, levels, alpha_end, beta_end = _views(rows, n_steps, g.size)
    # one (rows, 1, steps) series h, shared by every pair: each has the first's coefficients
    g1, e1 = g[:1], e[:1]
    np.multiply(trap[:, None], (0.5 * (nvec[..., e1] - nvec[..., g1]))[..., None], out=h)
    h += np.multiply(freq[:, None], (0.25 * (zvec[e1] - zvec[g1]))[:, None], out=hh)
    h += (0.5 * (static_diag[e1] - static_diag[g1]))[:, None]
    np.multiply(h, h, out=hh)
    unit = (ampf == 1.0).all()  # a quiet amplitude channel: skip the products with 1
    c2 = (coup.real**2 + coup.imag**2)[..., None]
    np.add(c2 if unit else np.multiply(ampf[:, None] ** 2, c2, out=r), hh, out=r)
    np.sqrt(r, out=r)
    np.multiply(r, dt, out=sinc)  # r dt, then sin(r dt), then sin(r dt) / r
    np.maximum(r, 5e-324, out=r)  # r = 0 gives sin(0) / 5e-324 = 0; r > 0 stays
    np.cos(sinc, out=alpha.real)
    np.sin(sinc, out=sinc)
    np.divide(sinc, r, out=sinc)
    np.multiply(h, sinc, out=alpha.imag)
    if not unit:
        sinc *= ampf[:, None]
    np.multiply(sinc, (-1j * coup)[..., None], out=beta)
    # time-ordered product, later @ earlier, of neighbouring steps per
    # level; an odd last step passes through (a product with the identity)
    for a1, b1, a2, b2, a, b, t, u, tail in levels:
        np.multiply(a1, a2, out=a)
        a -= np.multiply(np.conjugate(b1, out=t), b2, out=u)
        np.multiply(b1, a2, out=b)
        b += np.multiply(np.conjugate(a1, out=t), b2, out=u)
        for dst, src in tail:
            dst[...] = src

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
    alpha, beta, phase, single_phase = (x[..., None] for x in (alpha_end, beta_end, phase, single_phase))
    pg, pe = out[:, g], out[:, e]
    out[:, g] = phase * (alpha * pg - beta.conj() * pe)
    out[:, e] = phase * (beta * pg + alpha.conj() * pe)
    out[:, singles] *= single_phase
    return out


def _rows_per_chunk(n_steps, n_pairs):
    """Trajectories per chunk of at most _CHUNK_ELEMENTS (trajectory, pair, step) elements."""
    return max(1, _CHUNK_ELEMENTS // max(1, n_steps * n_pairs))


def evolve_blocks_batch(
    amps0, pair_g, pair_e, coup, singles, static_diag, nvec, zvec,
    trap_2d, freq_2d, ampf_2d, dt, out,
):
    """Evolve many noise realizations (rows), each from its own initial
    state: amps0[t] of shape (dim, k) for row t of the (rows, n_steps)
    series. Rows that share a state pass a broadcast amps0; 2-D coup and
    nvec tables (one row per series row) give each row its own."""
    blocks = (pair_g, pair_e, coup, singles, static_diag, nvec, zvec)
    n_traj, n_steps = trap_2d.shape
    chunk = _rows_per_chunk(n_steps, pair_g.shape[0])
    for start in range(0, n_traj, chunk):
        rows = slice(start, start + chunk)
        per_rows = [b[rows] if b.ndim == 2 else b for b in blocks]
        out[rows] = _propagate(amps0[rows], *per_rows, trap_2d[rows], freq_2d[rows], ampf_2d[rows], dt)
    return out
