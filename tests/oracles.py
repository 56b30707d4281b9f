"""Reference computations for the test suite.

Each helper rebuilds its quantity directly from matrix entries or closed
forms, along a route disjoint from the one the package uses, so equality
checks really compare two independent calculations.
"""
from __future__ import annotations

import numpy as np

from swron import (
    DiscreteOperator,
    DomainError,
    SimplicialComplex,
    classify_monodromy,
    elementary_swronskian,
    transfer_map,
)


def random_cochain(cx, vec_dim: int, rng, complex_valued: bool = False) -> dict:
    """Standard normal values of dimension ``vec_dim`` on every simplex, in
    simplex order; a complex draw takes its imaginary part right after
    its real part."""
    out = {}
    for s in cx.simplices:
        v = rng.standard_normal(vec_dim)
        if complex_valued:
            v = v + 1j * rng.standard_normal(vec_dim)
        out[s.id] = v
    return out


def cochain_as_vector(psi: dict, sids, vec_dim: int) -> np.ndarray:
    """Stack the values of ``psi`` in the order ``sids``, zero where absent."""
    out = np.zeros(len(sids) * vec_dim, dtype=complex)
    for i, sid in enumerate(sids):
        if sid in psi:
            out[i * vec_dim : (i + 1) * vec_dim] = np.asarray(psi[sid]).reshape(-1)
    return out


def truncated_line_matrix(op, lo: int, hi: int) -> np.ndarray:
    """Dense Dirichlet truncation of a line operator on sites lo..hi, one
    block op.block(n, s) at a time, couplings past either end dropped."""
    l, size = op.l, hi - lo + 1
    mat = np.zeros((size * l, size * l), dtype=complex)
    for n in range(lo, hi + 1):
        for s in range(-op.k, op.k + 1):
            if lo <= n + s <= hi:
                r, c = (n - lo) * l, (n + s - lo) * l
                mat[r : r + l, c : c + l] += op.block(n, s)
    return mat


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


def channel_counts(op, lam: float, tol: float = 1e-7) -> tuple[int, int, int]:
    """(s, p, q) of a constant lattice operator at lam from the roots mu of
    det(sum_s B_s mu^s - lam), the eigenvalues of its block companion
    matrix: unit-circle pairs off the real axis, quadruples off the circle
    and the axis, real pairs off the circle."""
    mus = np.array([mu for mu, _ in companion_bloch_modes(op, lam)])
    unit = np.abs(np.abs(mus) - 1.0) <= tol
    real = np.abs(mus.imag) <= tol * np.maximum(1.0, np.abs(mus))
    outer, upper = np.abs(mus) > 1.0, mus.imag > 0
    return (
        int(np.sum(unit & ~real & upper)),
        int(np.sum(~unit & ~real & outer & upper)),
        int(np.sum(~unit & real & outer)),
    )


def serial_critical_points(op, lo, hi, samples, tol=1e-8):
    """Critical points of a constant line operator by per-point bisection:
    one transfer_map and classify_monodromy per grid point and per step,
    each count change between grid neighbours refined on its own down to
    ``tol``.  A midpoint's side is decided by its counts alone, since the
    roots still split by far more than the count tolerances where the
    collision flag is already up; an unflagged midpoint with counts
    matching neither end holds a second change, and both halves are
    refined.  Returns (lambda, before, after) triples, each lambda within
    tol / 2 of a change, or within the transfer map's own resolution of
    about 1e-10 near a double collision; changes that cancel inside one
    grid step are not seen."""
    grid = np.linspace(lo, hi, samples)
    counts = [classify_monodromy(transfer_map(op, float(x), 0)).counts() for x in grid]

    def refine(la, lb, before, after):
        while lb - la > tol:
            mid = 0.5 * (la + lb)
            cm = classify_monodromy(transfer_map(op, mid, 0))
            if not cm.critical and cm.counts() not in (before, after):
                return refine(la, mid, before, cm.counts()) + refine(mid, lb, cm.counts(), after)
            if cm.counts() == before:
                la = mid
            else:
                lb = mid
        return [(0.5 * (la + lb), before, after)]

    out = []
    for i in range(samples - 1):
        if counts[i] != counts[i + 1]:
            out += refine(float(grid[i]), float(grid[i + 1]), counts[i], counts[i + 1])
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


def truncated_levels(graph, lo: float, hi: float, depth: int = 200) -> list[float]:
    """Eigenvalues in [lo, hi] of a dense Dirichlet truncation: the core
    plus ``depth`` sites of every tail, entered one by one from the raw
    blocks, with a hard wall after the last site.  Scalar nearest-neighbour
    tails only.  Outside the bands a level's error decays like |mu|^(2 depth).
    """
    offset, nc = {}, 0
    for v in sorted(graph.core_dims):
        offset[v], nc = nc, nc + graph.core_dims[v]
    mat = np.zeros((nc + depth * len(graph.tails),) * 2)
    for (u, v), m in graph.core_blocks.items():
        mat[offset[u] : offset[u] + m.shape[0], offset[v] : offset[v] + m.shape[1]] = m
    for j, tail in enumerate(graph.tails):
        if (tail.op.k, tail.op.l) != (1, 1):
            raise ValueError("truncated_levels needs scalar nearest-neighbour tails")
        sites = np.arange(nc + j * depth, nc + (j + 1) * depth)
        mat[sites, sites] = tail.op.block(0, 0)[0, 0]
        mat[sites[:-1], sites[1:]] = tail.op.block(0, 1)[0, 0]
        mat[sites[1:], sites[:-1]] = tail.op.block(0, -1)[0, 0]
        for (v, n), m in tail.attach.items():
            mat[offset[v] : offset[v] + m.shape[0], sites[n]] = m[:, 0]
            mat[sites[n], offset[v] : offset[v] + m.shape[0]] = m[:, 0]
    for (j1, n1), (j2, n2), m in graph.cross_links:
        a, b = nc + j1 * depth + n1, nc + j2 * depth + n2
        mat[a, b] = mat[b, a] = m[0, 0]
    return [float(x) for x in np.linalg.eigvalsh(mat) if lo <= x <= hi]


def gap_levels(graph, lo: float, hi: float, depth: int = 300) -> list[float]:
    """Levels in [lo, hi] of a tailed graph with tails of any order k and
    fiber l, from dense Dirichlet truncations: the core plus ``depth`` sites
    of every tail, entered block by block from the raw core, attach,
    cross-link and tail shift blocks, with a hard wall after the last site.
    A level is kept when the truncation at depth + 7 has a level within 1e-8
    of it and at least 90% of its weight lies on the core and the first
    depth / 2 sites of every tail; this drops band levels and the edge
    states of the far wall, which do not move with the depth."""

    def truncation(n: int):
        offset, size = {}, 0
        for v in sorted(graph.core_dims):
            offset[v], size = size, size + graph.core_dims[v]
        near = list(range(size))
        first = []
        for tail in graph.tails:
            first.append(size)
            near += range(size, size + (n // 2) * tail.op.l)
            size += n * tail.op.l
        mat = np.zeros((size, size))
        for (u, v), m in graph.core_blocks.items():
            mat[offset[u] : offset[u] + m.shape[0], offset[v] : offset[v] + m.shape[1]] = m
        for tail, base in zip(graph.tails, first):
            k, l = tail.op.k, tail.op.l
            for site in range(n):
                for s in range(-k, k + 1):
                    if 0 <= site + s < n:
                        r, c = base + site * l, base + (site + s) * l
                        mat[r : r + l, c : c + l] = tail.op.block(0, s)
            for (v, site), m in tail.attach.items():
                r, c = offset[v], base + site * l
                mat[r : r + m.shape[0], c : c + l] = m
                mat[c : c + l, r : r + m.shape[0]] = m.T
        for (j1, n1), (j2, n2), m in graph.cross_links:
            r = first[j1] + n1 * graph.tails[j1].op.l
            c = first[j2] + n2 * graph.tails[j2].op.l
            mat[r : r + m.shape[0], c : c + m.shape[1]] = m
            mat[c : c + m.shape[1], r : r + m.shape[0]] = m.T
        return mat, near

    mat, near = truncation(depth)
    vals, vecs = np.linalg.eigh(mat)
    deeper = np.linalg.eigvalsh(truncation(depth + 7)[0])
    weight = np.sum(vecs[near] ** 2, axis=0)
    return [
        float(x) for x, w in zip(vals, weight)
        if lo <= x <= hi and np.min(np.abs(deeper - x)) <= 1e-8 and w >= 0.9
    ]


def truncation_depth(graph) -> int:
    """50 k_max plus the deepest junction site + 1 over all tails, read
    from the raw attach and cross-link tables."""
    junction = [max((n + 1 for (_, n) in t.attach), default=0) for t in graph.tails]
    for (j1, n1), (j2, n2), _ in graph.cross_links:
        junction[j1] = max(junction[j1], n1 + 1)
        junction[j2] = max(junction[j2], n2 + 1)
    return 50 * max(t.op.k for t in graph.tails) + max(junction)


def truncated_modal_s_matrix(graph, lam: float, depth: int | None = None):
    """Scattering matrix from the depth-truncated modal system.

    Every tail keeps its equations at sites 0..depth-1 over unknowns
    (core values, coefficients of all 2kl Bloch modes); growing modes are
    anchored at ``depth``.  The default depth is ``truncation_depth``, the
    row count the library assembled before its reduction to junction
    rows.  Outgoing modes carry unit current and the phase mu^origin;
    incoming modes are their conjugates.  Returns (S, outs), where outs
    lists (tail, mu, w) of the outgoing mode of each channel in the order
    of S.
    """
    tails = graph.tails
    if depth is None:
        depth = truncation_depth(graph)

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


def _floyd_warshall(adjacent: np.ndarray) -> np.ndarray:
    """All-pairs hop counts (inf across components) of a 0/1 adjacency."""
    d = np.where(adjacent, 1.0, np.inf)
    np.fill_diagonal(d, 0.0)
    for k in range(len(d)):
        d = np.minimum(d, d[:, k : k + 1] + d[k : k + 1, :])
    return d


def incidence_steps(cx) -> np.ndarray:
    """Incidence step counts between simplices, indexed by simplex id.

    Two simplices are adjacent when one vertex set is a proper subset of
    the other; distances are read off by Floyd–Warshall, so twice the
    simplex distance is ``incidence_steps(cx)[a, b]``.
    """
    sets = [frozenset(s.vertices) for s in cx.simplices]
    return _floyd_warshall(
        np.array([[a < b or b < a for b in sets] for a in sets], dtype=bool)
    )


def lex_least_path(cx, a: int, b: int):
    """Lexicographically least minimal edge path from vertex a to b.

    Every minimal path is enumerated from the 1-skeleton hop counts and
    the one with the least edge-id sequence is kept.  Returns the steps
    as (edge id, +1 when walking low -> high label), or None when a and
    b lie in different components.
    """
    labels = sorted(s.vertices[0] for s in cx.simplices if len(s.vertices) == 1)
    pos = {v: i for i, v in enumerate(labels)}
    edges = {s.vertices: s.id for s in cx.simplices if len(s.vertices) == 2}
    adjacent = np.zeros((len(labels), len(labels)), dtype=bool)
    for u, v in edges:
        adjacent[pos[u], pos[v]] = adjacent[pos[v], pos[u]] = True
    hops = _floyd_warshall(adjacent)[:, pos[b]]
    if not np.isfinite(hops[pos[a]]):
        return None

    def walks(cur):
        if cur == b:
            yield []
            return
        for w in labels:
            key = (min(cur, w), max(cur, w))
            if key in edges and hops[pos[w]] == hops[pos[cur]] - 1:
                step = (edges[key], 1 if cur < w else -1)
                for rest in walks(w):
                    yield [step] + rest

    return min(walks(a), key=lambda steps: [eid for eid, _ in steps])


def pair_chain(vop, psi: dict, phi: dict, support=None) -> dict:
    """Pair chain edge id -> coefficient, summed pair by pair.

    Each block pair a < b inside ``support`` (default: the common domain
    of psi and phi) adds c_ab = psi(a).B phi(b) - phi(a).B psi(b) along
    :func:`lex_least_path`; a pair with c_ab == 0 touches no edge.
    """
    cx = vop.complex
    if support is None:
        support = set(psi) & set(phi)
    out: dict = {}
    for (a, b), block in vop.blocks.items():
        if a >= b or a not in support or b not in support:
            continue
        pa, pb = (np.ravel(psi[s]).astype(complex) for s in (a, b))
        fa, fb = (np.ravel(phi[s]).astype(complex) for s in (a, b))
        c = pa @ block @ fb - fa @ block @ pb
        if c == 0:
            continue
        steps = lex_least_path(cx, cx.simplex(a).vertices[0], cx.simplex(b).vertices[0])
        for eid, sign in steps:
            out[eid] = out.get(eid, 0) + sign * c
    return out


def block_apply(op, psi: dict, at=None) -> dict:
    """(L psi)(a) = sum of blocks[(a, b)] @ psi(b), target by target with
    the sources ascending, read from the public ``blocks`` mapping.  A
    missing value raises DomainError naming it and the target needing it."""
    targets = [s.id for s in op.complex.simplices] if at is None else list(at)
    out = {}
    for a in targets:
        acc = np.zeros(op.vec_dim, dtype=complex)
        for b in sorted(b for (t, b) in op.blocks if t == a):
            if b not in psi:
                raise DomainError(f"psi undefined on simplex {b} required at {a}")
            acc = acc + np.asarray(op.blocks[(a, b)]) @ np.ravel(psi[b]).astype(complex)
        out[a] = acc
    return out


def block_dense(op, sids) -> np.ndarray:
    """Dense matrix over ``sids``, one block written at a time."""
    l = op.vec_dim
    row = {sid: i for i, sid in enumerate(sids)}
    mat = np.zeros((len(sids) * l, len(sids) * l), dtype=complex)
    for (a, b), block in op.blocks.items():
        if a in row and b in row:
            mat[row[a] * l:(row[a] + 1) * l, row[b] * l:(row[b] + 1) * l] = block
    return mat


def block_flags(op) -> tuple[bool, bool, bool]:
    """(real, symmetric, vertex-only) from the block values: real when no
    entry has a nonzero imaginary part, symmetric when every block equals
    the transpose of its partner entry for entry."""
    real = symmetric = vertex = True
    for (a, b), block in op.blocks.items():
        real = real and not np.any(np.imag(block))
        partner = op.blocks.get((b, a))
        symmetric = symmetric and partner is not None and np.array_equal(block, partner.T)
        vertex = vertex and op.complex.simplex(a).dim == 0 and op.complex.simplex(b).dim == 0
    return real, symmetric, vertex


def lagrangian_derivatives(sys, psi: dict, idxs=None, rows=None, cols=None):
    """Summed gradients at the vertices ``rows`` and summed Hessian blocks
    at the pairs ``rows`` x ``cols`` (label keys; None means every vertex)
    over the interactions ``idxs`` (None: all), one interaction at a time
    as a one-row stack, with one ``Density.grad`` call per slot and one
    ``Density.hess`` call per slot pair.  Hessian keys come in order of
    first use."""
    grads = {} if rows is None else {u: np.zeros(sys.chart_dims[u]) for u in rows}
    hess: dict[tuple[int, int], np.ndarray] = {}
    for i in range(len(sys.interactions)) if idxs is None else idxs:
        inter = sys.interactions[i]
        xs = [np.asarray(psi[v], dtype=float).reshape(1, -1) for v in inter.vertices]
        for sa, u in enumerate(inter.vertices):
            if rows is not None and u not in rows:
                continue
            grads[u] = grads.get(u, 0) + inter.density.grad(xs, sa)[0]
            for sb, w in enumerate(inter.vertices):
                if cols is None or w in cols:
                    hess[(u, w)] = hess.get((u, w), 0) + inter.density.hess(xs, sa, sb)[0]
    return grads, hess


def newton_orbit(sys, psi: dict, n: int, tol: float = 1e-10, maxiter: int = 50) -> dict:
    """Values at 2..n of a path orbit: for v = 1..n-1 the value at v + 1
    solves the stationarity equation at v by Newton steps from the value at
    v, each step x - solve(H, g) with the gradient g at v and the cross
    Hessian H at (v, v + 1) from :func:`lagrangian_derivatives` over the
    interactions containing v; the step stops at the first x with
    |g| <= tol."""
    psi = dict(psi)
    for v in range(1, n):
        at = [i for i, inter in enumerate(sys.interactions) if v in inter.vertices]
        x = np.asarray(psi[v], dtype=float).reshape(-1)
        for _ in range(maxiter):
            g, h = lagrangian_derivatives(sys, {**psi, v + 1: x}, at, rows={v}, cols={v + 1})
            if np.linalg.norm(g[v]) <= tol:
                break
            x = x - np.linalg.solve(h[(v, v + 1)], g[v])
        psi[v + 1] = x
    return psi
