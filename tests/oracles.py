"""Reference computations for the test suite.

Each helper rebuilds its quantity directly from matrix entries or closed
forms, along a route disjoint from the one the package uses, so equality
checks really compare two independent calculations.
"""
from __future__ import annotations

import numpy as np

from swron import DiscreteOperator, SimplicialComplex, elementary_swronskian


def betti_via_ranks(cx) -> list[int]:
    """Betti numbers from ranks of the raw boundary matrices."""
    dims = cx.f_vector()
    top = len(dims) - 1
    out = []
    for k in range(top + 1):
        rk = np.linalg.matrix_rank(cx.boundary_matrix(k)) if k >= 1 else 0
        rk1 = np.linalg.matrix_rank(cx.boundary_matrix(k + 1)) if k < top else 0
        out.append(int(dims[k] - rk - rk1))
    return out


def dirichlet_well_matrix(v: float, depth: int) -> np.ndarray:
    """Dense lattice well on sites -depth..depth with hard walls."""
    n = 2 * depth + 1
    m = np.zeros((n, n))
    for i in range(n - 1):
        m[i, i + 1] = m[i + 1, i] = 1.0
    m[depth, depth] = -float(v)
    return m


def well_bound_state(v: float, depth: int = 200) -> float:
    """Lowest eigenvalue below the band of the truncated well."""
    vals = np.linalg.eigvalsh(dirichlet_well_matrix(v, depth))
    below = vals[vals < -2.0]
    assert below.size == 1
    return float(below[0])


def site_basis_s_matrix(lam: float, depth: int, *, well: float | None = None) -> np.ndarray:
    """Two-tail scattering matrix from a raw site-basis truncation.

    Unknowns are the plain site values (plus the core site when a well is
    present); no modal reduction is involved anywhere.  The far ends are
    fit against explicit plane waves normalized to unit current, and the
    matrix is read off as out-amplitudes per unit in-amplitude.
    """
    theta = float(np.arccos(lam / 2.0))
    mu = np.exp(1j * theta)
    tau = 2.0 * np.sin(theta)
    origins = (1, 1) if well is not None else (1, 0)

    # unknown layout: [core site] + tail0 sites 0..depth + tail1 sites 0..depth
    nt = depth + 1
    nc = 1 if well is not None else 0
    nun = nc + 2 * nt

    def idx(j: int, n: int) -> int:
        return nc + j * nt + n

    rows = []

    def row() -> np.ndarray:
        rows.append(np.zeros(nun, dtype=complex))
        return rows[-1]

    if well is not None:
        r = row()
        r[0] = -well - lam
        r[idx(0, 0)] = 1.0
        r[idx(1, 0)] = 1.0
    for j in (0, 1):
        r = row()
        r[idx(j, 0)] = -lam
        r[idx(j, 1)] = 1.0
        if well is not None:
            r[0] = 1.0
        else:
            r[idx(1 - j, 0)] = 1.0
        for n in range(1, depth):
            r = row()
            r[idx(j, n)] = -lam
            r[idx(j, n - 1)] = 1.0
            r[idx(j, n + 1)] = 1.0

    a = np.array(rows)
    _, sing, vt = np.linalg.svd(a)
    null = vt[int(np.sum(sing > 1e-8 * sing[0])):].conj().T
    assert null.shape[1] == 2, null.shape

    def fit(j: int, vec: np.ndarray) -> np.ndarray:
        # v(n) = A in(n) + B out(n) on the last two sites of tail j
        o = origins[j]
        f = np.array(
            [
                [np.conj(mu) ** (depth - 1 + o), mu ** (depth - 1 + o)],
                [np.conj(mu) ** (depth + o), mu ** (depth + o)],
            ]
        ) / np.sqrt(tau)
        rhs = np.array([vec[idx(j, depth - 1)], vec[idx(j, depth)]])
        return np.linalg.solve(f, rhs)

    c_in = np.zeros((2, 2), dtype=complex)
    c_out = np.zeros((2, 2), dtype=complex)
    for i in range(2):
        for j in (0, 1):
            ab = fit(j, null[:, i])
            c_in[j, i] = ab[0]
            c_out[j, i] = ab[1]
    return c_out @ np.linalg.inv(c_in)


def path_hosted_operator(lop, lo: int, hi: int):
    """Rehost a lattice operator as a vertex operator on a path graph.

    Vertex label of site n is n - lo (labels must be non-negative), so
    chain coefficients live on edge (n - lo, n - lo + 1).  Returns
    (complex, operator, base) with base = lo.
    """
    cx = SimplicialComplex([(n - lo, n - lo + 1) for n in range(lo, hi)])
    blocks = {}
    for n in range(lo, hi + 1):
        for s in range(-lop.k, lop.k + 1):
            if s == 0 or not (lo <= n + s <= hi):
                continue
            b = lop.block(n, s)
            if np.any(b):
                blocks[(cx.vertex_sid(n - lo), cx.vertex_sid(n - lo + s))] = b
    return cx, DiscreteOperator(cx, lop.l, blocks), lo


def chain_form_entry(
    cx, vop, base: int, m: int, a_site: int, i: int, b_site: int, j: int
) -> complex:
    """Pair-chain coefficient on edge (m, m+1) for unit cochains.

    psi is the i-th unit vector at a_site, phi the j-th at b_site; only
    the single pair (a_site, b_site) contributes, so the elementary chain
    is the whole chain.  ``base`` is the label shift of the path host.
    """
    l = vop.vec_dim
    sa, sb = cx.vertex_sid(a_site - base), cx.vertex_sid(b_site - base)
    ea = np.zeros(l)
    ea[i] = 1.0
    eb = np.zeros(l)
    eb[j] = 1.0
    psi = {sa: ea, sb: np.zeros(l)}
    phi = {sa: np.zeros(l), sb: eb}
    if sa == sb:
        psi = {sa: ea}
        phi = {sa: eb}
    chain = elementary_swronskian(vop, psi, phi, sa, sb)
    eid = cx.edge_sid(m - base, m - base + 1)
    return complex(chain.coeffs.get(eid, 0.0))


def central_gradient(f, x: np.ndarray, h: float = 1e-6) -> np.ndarray:
    """Plain central-difference gradient of a scalar function."""
    x = np.asarray(x, dtype=float)
    g = np.zeros_like(x)
    for i in range(x.size):
        xp = x.copy()
        xm = x.copy()
        xp[i] += h
        xm[i] -= h
        g[i] = (f(xp) - f(xm)) / (2.0 * h)
    return g


def companion_bloch_modes(op, lam: float) -> list[tuple[complex, np.ndarray]]:
    """Bloch pairs (mu, w), psi(n) = mu^n w, of a constant lattice operator.

    Eigenvectors of the block companion matrix that steps the state
    [psi(n-k), ..., psi(n+k-1)] one site up through the equation
    sum_s B_s psi(n+s) = lam psi(n); an eigenvector holds w mu^i in its
    block i, and w is read off the largest block.
    """
    k, l = op.k, op.l
    coeff = [np.asarray(op.block(0, s), dtype=complex) for s in range(-k, k + 1)]
    coeff[k] = coeff[k] - lam * np.eye(l)
    lead_inv = np.linalg.inv(coeff[-1])
    deg = 2 * k
    comp = np.zeros((deg * l, deg * l), dtype=complex)
    comp[:-l, l:] = np.eye((deg - 1) * l)
    for i in range(deg):
        comp[-l:, i * l : (i + 1) * l] = -lead_inv @ coeff[i]
    mus, vecs = np.linalg.eig(comp)
    out = []
    for mu, vec in zip(mus, vecs.T):
        blocks = vec.reshape(deg, l)
        i = int(np.argmax(np.linalg.norm(blocks, axis=1)))
        w = blocks[i] / mu**i
        out.append((complex(mu), w / np.linalg.norm(w)))
    return out


def bloch_current(op, mu: complex, w: np.ndarray) -> float:
    """Current of the Bloch wave mu^n w through one bond, from the group
    velocity formula 2 sum_{s>0} s Im(w^H B_s w mu^s)."""
    return float(
        sum(
            2 * s * np.imag(np.conj(w) @ op.block(0, s) @ w * mu**s)
            for s in range(1, op.k + 1)
        )
    )


def truncated_modal_s_matrix(graph, lam: float, depth: int | None = None):
    """Scattering matrix from the depth-truncated modal system.

    Every tail keeps its equations at sites 0..depth-1 over unknowns
    (core values, coefficients of all 2kl Bloch modes); growing modes are
    anchored at ``depth``.  The default depth is 50 k_max plus the deepest
    junction, the row count the library assembled before its reduction to
    junction rows.  Outgoing modes carry unit current and the phase
    mu^origin; incoming modes are their conjugates.  Returns (S, outs),
    where outs lists (tail, mu, w) of the outgoing mode of each channel in
    the order of S.
    """
    tails = graph.tails
    junction = [max((n + 1 for (_, n) in t.attach), default=0) for t in tails]
    for (j1, n1), (j2, n2), _ in graph.cross_links:
        junction[j1] = max(junction[j1], n1 + 1)
        junction[j2] = max(junction[j2], n2 + 1)
    if depth is None:
        depth = 50 * max(t.op.k for t in tails) + max(junction)

    outs, ins, decay, grow = [], [], [], []
    for j, t in enumerate(tails):
        for mu, w in companion_bloch_modes(t.op, lam):
            if abs(mu) < 1.0 - 1e-9:
                decay.append((j, mu, w, 0))
                continue
            if abs(mu) > 1.0 + 1e-9:
                grow.append((j, mu, w, depth))
                continue
            tau = bloch_current(t.op, mu, w)
            assert abs(tau) > 1e-12, "threshold point: a channel carries no current"
            if tau > 0:
                w_out = w * mu**t.origin / np.sqrt(tau)
                outs.append((j, mu, w_out, 0))
                ins.append((j, np.conj(mu), np.conj(w_out), 0))
    modes = outs + ins + decay + grow

    nc = graph.core_size
    row_base = [nc]
    for t in tails:
        row_base.append(row_base[-1] + depth * t.op.l)

    def tail_row(j: int, n: int) -> slice:
        l = tails[j].op.l
        return slice(row_base[j] + n * l, row_base[j] + (n + 1) * l)

    def value(mode, n: int) -> np.ndarray:
        _, mu, w, anchor = mode
        return w * mu ** (n - anchor)

    a = np.zeros((row_base[-1], nc + len(modes)), dtype=complex)
    a[:nc, :nc] = graph.core_matrix() - lam * np.eye(nc)
    for c, mode in enumerate(modes):
        col = nc + c
        j = mode[0]
        t = tails[j]
        for (v, n), m in t.attach.items():
            r = graph.core_offset[v]
            a[r : r + graph.core_dims[v], col] += m @ value(mode, n)
        for n in range(depth):
            acc = -lam * value(mode, n)
            for s in range(-t.op.k, t.op.k + 1):
                if n + s >= 0:
                    acc = acc + t.op.block(0, s) @ value(mode, n + s)
            a[tail_row(j, n), col] += acc
        for (j1, n1), (j2, n2), m in graph.cross_links:
            if j == j2 and n1 < depth:
                a[tail_row(j1, n1), col] += m @ value(mode, n2)
            if j == j1 and n2 < depth:
                a[tail_row(j2, n2), col] += m.T @ value(mode, n1)
    for j, t in enumerate(tails):
        for (v, n), m in t.attach.items():
            r = graph.core_offset[v]
            a[tail_row(j, n), r : r + graph.core_dims[v]] += m.T

    _, sing, vt = np.linalg.svd(a)
    rank = int(np.sum(sing > 1e-9 * sing[0]))
    kernel = vt[rank:].conj().T
    assert kernel.shape[1] == sum(t.op.k * t.op.l for t in tails), kernel.shape

    def coeffs(group, first):
        return kernel[nc + first : nc + first + len(group), :]

    c_grow = coeffs(grow, len(outs) + len(ins) + len(decay))
    if len(grow):
        _, gs, gvt = np.linalg.svd(c_grow)
        grank = int(np.sum(gs > 1e-10 * gs[0]))
        bounded = gvt[grank:].conj().T
    else:
        bounded = np.eye(kernel.shape[1])
    assert bounded.shape[1] == len(outs), bounded.shape
    c_out = coeffs(outs, 0) @ bounded
    c_in = coeffs(ins, len(outs)) @ bounded
    s_matrix = c_out @ np.linalg.inv(c_in)
    return s_matrix, [(j, mu, w) for j, mu, w, _ in outs]


def in_channel_gauge(s_matrix: np.ndarray, outs, channels) -> np.ndarray:
    """Re-express an oracle S in another channel convention.

    ``outs`` and ``channels`` list (tail, mu, w) of the outgoing mode per
    channel for the oracle and the target convention.  Channels are
    matched by tail and mu; both sides normalize to unit current, so the
    fiber vectors differ by a phase c (w_target = c w_oracle), and the
    in/out coefficients transform to S_target = conj(C) S conj(C).
    """
    perm, phase = [], []
    for j, mu, w in channels:
        hits = [i for i, (jo, mo, _) in enumerate(outs) if jo == j and abs(mo - mu) < 1e-8]
        assert len(hits) == 1, (j, mu)
        wo = outs[hits[0]][2]
        c = np.vdot(wo, w) / np.vdot(wo, wo)
        assert abs(abs(c) - 1.0) < 1e-8 and np.linalg.norm(w - c * wo) < 1e-8
        perm.append(hits[0])
        phase.append(c)
    cbar = np.diag(np.conj(phase))
    return cbar @ s_matrix[np.ix_(perm, perm)] @ cbar
