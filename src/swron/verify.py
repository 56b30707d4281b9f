"""Runtime invariant checks, grouped into named suites.

Each suite exercises one conservation or structure statement on fresh
randomized data and returns a list of CheckResult rows; the CLI prints
them and exits nonzero when any row fails.  Suites are small on purpose
(a second or so each) so they can run against user-supplied operator or
complex files as a quick fault finder.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import examples as ex
from .complex_core import (
    DomainError,
    SimplicialComplex,
    barycentric_subdivision,
    canonical_path,
)
from .line_lattice import (
    LineOperator,
    cover_apply,
    direct_image,
    leading_determinant_product,
    periodized_cover_matrix,
    periodized_line_matrix,
    solution_basis,
    swronskian_form,
    transfer_map,
)
from .nonlinear import (
    build_translation_invariant,
    linearize,
    standard_map_density,
    variational_swronskian,
)
from .operators import (
    DiscreteOperator,
    _null_spaces,
    build_hodge,
    cochain_from_vector,
    harmonic_basis,
    to_vertex_operator,
)
from .scattering import (
    asymptotic_subspace,
    classify_monodromy,
    find_critical_points,
    regular_discrete_spectrum,
    scattering_matrix,
)
from .swronskian import quantum_current, swronskian, verify_cycle

__all__ = [
    "CheckResult",
    "commutation_gap",
    "coupled_free_sites",
    "kernel_solutions",
    "SUITES",
    "run_suite",
    "run",
]


@dataclass
class CheckResult:
    suite: str
    name: str
    passed: bool
    detail: str = ""


def coupled_free_sites(op: DiscreteOperator, sids, count: int) -> list:
    """Last ``count`` sids in ``sids``, kept inside one coupling component.

    Pair-chain flux cancels within each connected component of the
    off-diagonal block graph, so kernel freedom split across components
    (or spent on simplices no block touches) produces an identically
    zero chain.  Restricting the free sites to the largest component
    keeps the constructed pair nontrivial whenever the operator admits
    one; purely diagonal operators fall back to the last touched sids.
    """
    adj: dict = {}
    off = op.target != op.source
    for a, b in zip(op.target[off].tolist(), op.source[off].tolist()):
        adj.setdefault(a, set()).add(b)
        adj.setdefault(b, set()).add(a)
    comps, seen = [], set()
    for s in sids:
        if s in adj and s not in seen:
            comp, stack = {s}, [s]
            while stack:
                new = adj[stack.pop()] - comp
                comp |= new
                stack.extend(new)
            seen |= comp
            comps.append(comp)
    if comps:
        pos = {s: i for i, s in enumerate(sids)}
        best = max(comps, key=lambda c: (len(c), max(pos.get(s, -1) for s in c)))
        pool = [s for s in sids if s in best]
        return pool[-count:]
    touched = set(np.r_[op.target, op.source].tolist())
    pool = [sid for sid in sids if sid in touched] or list(sids)
    return pool[-count:]


class _KernelSplit:
    """Lambda-independent part of the kernel solve for (sids, free); the
    eigenpairs of A_II and B = Q^T A_IF need a real symmetric operator."""

    def __init__(self, op: DiscreteOperator, sids, free):
        self.key = (tuple(sids), frozenset(free))
        dense, _ = op.dense(sids)
        is_free = np.array([sid in free for sid in sids], dtype=bool)
        self.imposed = [sid for sid in sids if sid not in free]
        coords = np.arange(dense.shape[0]).reshape(len(sids), op.vec_dim)
        self.rows, self.cols = coords[~is_free].ravel(), coords[is_free].ravel()
        self.a_rows = dense[self.rows]
        self.evals = self.q = self.b = None
        if op.is_real() and op.is_symmetric():
            self.evals, self.q = np.linalg.eigh(self.a_rows[:, self.rows])
            self.b = self.q.T @ self.a_rows[:, self.cols]
            self.stacked = np.vstack([self.b, np.eye(len(self.cols))])  # [X; I], X set per lambda

    def schur(self, lam):
        """Null basis of the imposed rows of A - lambda, None where the SVD
        must serve.  After the QR of [-(Lambda - lambda)^-1 B; I], one
        correction removes the residual the QR amplifies at small gaps."""
        lam = complex(lam)
        if self.q is None or lam.imag != 0:
            return None
        gap = (self.evals - lam.real)[:, None]
        if len(gap) and (size := np.abs(gap)).min() <= 1e-8 * size.max():
            return None
        rows, cols = self.rows, self.cols
        np.divide(self.b, -gap, out=self.stacked[: len(rows)])
        z = np.linalg.qr(self.stacked)[0]
        basis = np.empty((len(rows) + len(cols), len(cols)))
        basis[cols], basis[rows] = z[len(rows):], self.q @ z[: len(rows)]
        resid = self.a_rows @ basis - lam.real * basis[rows]
        basis[rows] -= self.q @ ((self.q.T @ resid) / gap)
        return basis

    def svd(self, lam):
        """Orthonormal null basis of the imposed rows of A - lambda."""
        rows = self.a_rows.astype(complex)
        rows[np.arange(len(self.rows)), self.rows] -= complex(lam)
        return _null_spaces(rows[None])[0][0]


def kernel_solutions(
    op: DiscreteOperator, lam, free, rng: np.random.Generator, count: int = 2,
    *, sids=None
):
    """Cochains annihilated by (L - lambda) everywhere except ``free``.

    The equations at the non-free simplices form an underdetermined
    system once enough simplices are left free; random combinations of
    its kernel give exact interior solutions for conservation tests.
    ``sids`` is the domain (default: every simplex); a vertex operator
    should pass its vertex ids.  Returns (solutions, imposed sids); with
    every sid free nothing is imposed and the kernel is everything.

    The dense matrix, one ``eigh`` of the imposed block A_II = Q Lambda Q^T
    and the [X; I] matrix of one QR are kept per operator and (sids, free);
    X = -(Lambda - lambda)^-1 Q^T A_IF is written into it per lambda, and the
    QR orthonormalizes the kernel x_I = Q X x_F.  An SVD of the imposed rows
    serves a complex operator or lambda, and min |Lambda - lambda| <= 1e-8
    max |Lambda - lambda|, where the kernel may grow.  A solution is real
    unless an imaginary part is nonzero; its values are the rows of one array.
    """
    if sids is None:
        sids = [s.id for s in op.complex.simplices]
    split = op._kernel_split
    if split is None or split.key != (tuple(sids), frozenset(free)):
        split = op._kernel_split = _KernelSplit(op, sids, set(free))
    null = split.schur(lam)
    null = split.svd(lam) if null is None else null
    if null.shape[1] < count:
        raise DomainError(
            f"only {null.shape[1]} kernel directions; free more simplices"
        )
    sols = []
    for _ in range(count):
        for _ in range(20):
            coeffs = rng.standard_normal(null.shape[1])
            vec = null @ coeffs
            if np.abs(vec).max() > 1e-4:
                break
        if np.iscomplexobj(vec) and not vec.imag.any():
            vec = vec.real
        sols.append(cochain_from_vector(vec, sids, op.vec_dim))
    return sols, list(split.imposed)


def _row(suite, name, passed, detail=""):
    return CheckResult(suite=suite, name=name, passed=bool(passed), detail=detail)


# -- suites ------------------------------------------------------------------------


def suite_complex(rng, cx: SimplicialComplex | None = None):
    out = []
    cx = cx or ex.random_complex(rng, 40)
    labels = [s.id for s in cx.simplices]
    a, b, c = (labels[int(i)] for i in rng.choice(len(labels), size=3))
    dab, dba = cx.distance(a, b), cx.distance(b, a)
    out.append(_row("complex", "distance symmetry", dab == dba, f"{dab} vs {dba}"))
    tri = cx.distance(a, c) <= cx.distance(a, b) + cx.distance(b, c)
    out.append(_row("complex", "triangle inequality", tri))

    sub, centers = barycentric_subdivision(cx)
    ok = True
    worst = ""
    for _ in range(10):
        x, y = (labels[int(i)] for i in rng.choice(len(labels), size=2))
        d = cx.distance(x, y)
        dd = sub.distance(sub.vertex_sid(centers[x]), sub.vertex_sid(centers[y]))
        if dd != 2 * d:
            ok = False
            worst = f"simplices {x},{y}: {dd} != 2*{d}"
            break
    out.append(_row("complex", "subdivision doubles distance", ok, worst))

    verts = cx.vertex_labels
    u, v = (verts[int(i)] for i in rng.choice(len(verts), size=2))
    if u != v:
        path = canonical_path(cx, u, v)
        bd = {lab: c for lab, c in path.to_chain().boundary().items() if c != 0}
        good = bd == {v: 1, u: -1}
        out.append(_row("complex", "canonical path boundary", good, str(bd)))
    return out


def suite_operators(rng, cx: SimplicialComplex | None = None):
    out = []
    cx = cx or ex.random_complex(rng, 40)
    lap = ex.graph_laplacian(cx)
    out.append(_row("operators", "laplacian symmetric", lap.is_symmetric()))
    verts = [cx.vertex_sid(v) for v in cx.vertex_labels]
    dense, _ = lap.dense(verts)
    ev = np.linalg.eigvalsh(dense.real)
    out.append(
        _row("operators", "laplacian positive", ev.min() > -1e-10, f"min {ev.min():.2e}")
    )

    hodge = build_hodge(cx, 1)
    op = hodge.operator
    out.append(_row("operators", "hodge symmetric order 1", op.is_symmetric() and op.order == 1))
    sids = [s.id for s in cx.simplices]
    d2, off = op.dense(sids)
    sq = (d2 @ d2).real
    blockdiag = np.zeros_like(sq)
    pos = 0
    for k, lapk in enumerate(hodge.laplacians):
        nk = lapk.shape[0]
        blockdiag[pos : pos + nk, pos : pos + nk] = lapk
        pos += nk
    gap = float(np.max(np.abs(sq - blockdiag))) if sq.size else 0.0
    out.append(_row("operators", "hodge square splits by degree", gap <= 1e-12, f"gap {gap:.2e}"))

    dims = [bk.shape[1] for bk in harmonic_basis(ex.circle(6))]
    out.append(_row("operators", "circle harmonic dims", dims == [1, 1], str(dims)))
    return out


def suite_swronskian(rng, cx=None):
    out = []
    cx = cx or ex.random_complex(rng, 40)
    raw = ex.random_operator(rng, cx, vec_dim=int(rng.integers(1, 3)), max_steps=3)
    vop, sub, centers = to_vertex_operator(raw)
    lam = float(rng.uniform(-2, 2))
    n_free = max(2, (2 + vop.vec_dim - 1) // vop.vec_dim + 1)
    order = [sub.vertex_sid(centers[s.id]) for s in raw.complex.simplices]
    free_v = coupled_free_sites(vop, order, n_free)
    domain = [sub.vertex_sid(v) for v in sub.vertex_labels]
    try:
        (psi, phi), imposed = kernel_solutions(vop, lam, free_v, rng, sids=domain)
    except DomainError as err:
        out.append(_row("swronskian", "kernel construction", False, str(err)))
        return out
    w = swronskian(vop, lam, psi, phi)
    rep = verify_cycle(w, interior=imposed)
    out.append(
        _row(
            "swronskian",
            "pair chain closed at solved simplices",
            rep.passed,
            f"residual {rep.max_boundary_residual:.2e} scale {rep.scale:.2e}",
        )
    )

    # plane wave current on a path-hosted free line
    n = 24
    path = ex.interval(n)
    hop = ex.adjacency_operator(path)
    theta = float(rng.uniform(0.3, 2.7))
    wave = {
        path.vertex_sid(j): np.array([np.exp(1j * theta * j)]) for j in range(n + 1)
    }
    cur = quantum_current(hop, 2 * np.cos(theta), wave)
    vals = np.array(sorted(cur.chain.coeffs.values(), key=lambda z: z.real))
    target = -2j * np.sin(theta)
    gap = float(np.max(np.abs(vals - target)))
    out.append(_row("swronskian", "plane wave current is constant", gap <= 1e-9, f"gap {gap:.2e}"))
    return out


def suite_symplectic(rng, line_op: LineOperator | None = None):
    out = []
    for trial in range(3):
        op = line_op or ex.random_line_operator(
            rng, int(rng.integers(1, 4)), int(rng.integers(1, 4))
        )
        sw = swronskian_form(op, 0)
        det_gap = abs(
            np.linalg.det(sw.matrix.astype(complex))
            - leading_determinant_product(op, 0)
        )
        scale = max(1.0, abs(leading_determinant_product(op, 0)))
        out.append(
            _row(
                "symplectic",
                f"pair form determinant #{trial}",
                det_gap <= 1e-9 * scale,
                f"gap {det_gap:.2e}",
            )
        )
        lam = complex(rng.normal(), rng.normal())
        t = transfer_map(op, lam, 0)
        defect = t.symplectic_defect()
        out.append(
            _row(
                "symplectic",
                f"transfer preserves pair form #{trial}",
                defect <= 1e-9,
                f"defect {defect:.2e}",
            )
        )
        basis = solution_basis(op, lam, 0, (-op.k - 2, op.k + 2))
        worst = 0.0
        for n in range(-1, 2):
            res = -lam * basis.values[n]
            for s in range(-op.k, op.k + 1):
                res = res + op.block(n, s).astype(complex) @ basis.values[n + s]
            worst = max(worst, float(np.max(np.abs(res))))
        out.append(
            _row(
                "symplectic",
                f"solution basis solves the equation #{trial}",
                worst <= 1e-8,
                f"residual {worst:.2e}",
            )
        )
        if line_op is not None:
            break
    return out


def commutation_gap(cover, blocks, vec_dim, op, image, rng, lo, hi) -> float:
    """Largest gap on orbit sites lo..hi between ``cover_apply`` and the
    repacked ``op.apply`` on one draw of integer cover values in [-9, 9]."""
    pad = op.k + 2
    psi = {
        (a, n): rng.integers(-9, 10, size=vec_dim).astype(float)
        for a in cover.orbits
        for n in range(lo - pad, hi + pad + 1)
    }
    want = cover_apply(
        cover, blocks, vec_dim, psi, [(a, n) for a in cover.orbits for n in range(lo, hi + 1)]
    )
    offs = image.offsets.values()
    back = image.to_cover(op.apply(image.to_line(psi), range(lo + min(offs), hi + max(offs) + 1)))
    return max(float(np.max(np.abs(back[key] - v))) for key, v in want.items())


def suite_direct_image(rng):
    out = []
    for name, cov in (("ladder", ex.cover_ladder()), ("spiral", ex.cover_spiral())):
        blocks = ex.cover_laplacian_blocks(cov)
        lop, di = direct_image(cov, blocks, 1)
        gap = commutation_gap(cov, blocks, 1, lop, di, rng, -4, 4)
        out.append(_row("direct-image", f"{name} apply commutes", gap == 0.0, f"gap {gap:.2e}"))
        pc, _ = periodized_cover_matrix(cov, blocks, 1, 6)
        pl = periodized_line_matrix(lop, 6)
        sgap = float(
            np.max(np.abs(np.sort(np.linalg.eigvalsh(pc)) - np.sort(np.linalg.eigvalsh(pl))))
        )
        out.append(_row("direct-image", f"{name} periodized spectra agree", sgap <= 1e-10, f"gap {sgap:.2e}"))
    return out


def suite_classification(rng, line_op: LineOperator | None = None):
    out = []
    free = ex.free_line_operator()
    clf_in = classify_monodromy(transfer_map(free, 0.5, 0), 0.5, kl=1)
    clf_out = classify_monodromy(transfer_map(free, 3.0, 0), 3.0, kl=1)
    out.append(
        _row(
            "classification",
            "free line counts",
            clf_in.counts() == (1, 0, 0) and clf_out.counts() == (0, 0, 1),
            f"in {clf_in.counts()} out {clf_out.counts()}",
        )
    )
    crit = find_critical_points(free, -3.0, 3.0, 61)
    lams = sorted(round(c.lam, 6) for c in crit)
    out.append(
        _row(
            "classification",
            "free line band edges",
            lams == [-2.0, 2.0],
            str(lams),
        )
    )
    # identical channels flag every in-band sample; the edges stay exact
    edges = sorted(c.lam for c in find_critical_points(ex.free_line_operator(2), -3.0, 3.0, 24))
    ok = len(edges) == 2 and all(abs(x - w) <= 1e-8 for x, w in zip(edges, (-2.0, 2.0)))
    out.append(_row("classification", "degenerate free line band edges", ok, f"{edges}"))
    op = line_op or ex.random_line_operator(rng, int(rng.integers(1, 3)), int(rng.integers(1, 3)))
    if not op.constant:
        op = LineOperator(op.k, op.l, {s: op.block(0, s) for s in range(op.k + 1)})
    ok = True
    detail = ""
    for _ in range(5):
        lam = float(rng.uniform(-4, 4))
        clf = classify_monodromy(transfer_map(op, lam, 0), lam, kl=op.k * op.l)
        if clf.critical:
            continue
        if not clf.identity_holds:
            ok = False
            detail = f"lambda {lam}: counts {clf.counts()}"
            break
    out.append(_row("classification", "count identity at sampled energies", ok, detail))
    return out


def suite_lagrangian(rng):
    out = []
    for name, graph, lam in (
        ("star(3)", ex.star_tailed(3), 0.6),
        ("ring core", ex.two_tail_ring_core(6), 0.45),
    ):
        sub = asymptotic_subspace(graph, lam)
        out.append(
            _row(
                "lagrangian",
                f"{name} kernel dimension",
                sub.dim == sub.expected_dim and not sub.flags,
                f"dim {sub.dim} expected {sub.expected_dim} flags {sorted(sub.flags)}",
            )
        )
        out.append(
            _row(
                "lagrangian",
                f"{name} pairing vanishes",
                sub.lagrangian_residual <= 1e-8,
                f"residual {sub.lagrangian_residual:.2e}",
            )
        )
    return out


def suite_smatrix(rng):
    out = []
    res = scattering_matrix(ex.pure_line_graph(), 0.7)
    s = res.s_matrix
    gap = float(np.max(np.abs(s - np.array([[0, 1], [1, 0]])))) if s is not None else np.inf
    out.append(_row("smatrix", "pure line is exact transmission", gap <= 1e-8, f"gap {gap:.2e}"))
    res2 = scattering_matrix(ex.potential_line(1.0), 0.9)
    out.append(
        _row(
            "smatrix",
            "site well is unitary and symmetric",
            res2.unitarity_residual <= 1e-7 and res2.symmetry_residual <= 1e-7,
            f"unitarity {res2.unitarity_residual:.2e} symmetry {res2.symmetry_residual:.2e}",
        )
    )
    return out


def suite_boundstate(rng):
    out = []
    found = regular_discrete_spectrum(ex.potential_line(1.0), -4.0, -2.05, 60)
    want = -np.sqrt(5.0)
    ok = len(found) == 1 and abs(found[0].lam - want) <= 1e-6
    out.append(
        _row(
            "boundstate",
            "well depth 1 binds at -sqrt(5)",
            ok,
            f"found {[round(b.lam, 9) for b in found]}",
        )
    )
    empty = regular_discrete_spectrum(ex.pure_line_graph(), -4.0, -2.05, 40)
    out.append(_row("boundstate", "free line binds nothing", not empty, ""))
    return out


def suite_nonlinear(rng):
    out = []
    n = 20
    graph = ex.interval(n)
    kick = float(rng.uniform(0.2, 0.9))
    system = build_translation_invariant(
        graph, standard_map_density(kick), allow_ends=True
    )
    psi = {0: np.array([rng.uniform(-1, 1)]), 1: np.array([rng.uniform(-1, 1)])}
    for j in range(1, n):
        psi[j + 1] = 2 * psi[j] - psi[j - 1] - kick * np.sin(psi[j])
    interior = list(range(1, n))
    lin = linearize(system, psi, at=interior)
    worst = lin.max_el_residual
    out.append(_row("nonlinear", "kicked chain orbit is stationary", worst <= 1e-10, f"residual {worst:.2e}"))
    out.append(
        _row(
            "nonlinear",
            "linearization is symmetric",
            lin.operator.is_symmetric() and lin.warning is None,
            "",
        )
    )

    def variation(d0, d1):
        d = {0: np.array([d0]), 1: np.array([d1])}
        for j in range(1, n):
            a = 2 - kick * np.cos(psi[j][0])
            d[j + 1] = np.array([a * d[j][0] - d[j - 1][0]])
        return d

    w = variational_swronskian(system, psi, variation(1, 0), variation(0, 1), at=interior)
    vals = [c.real for c in w.chain.coeffs.values()]
    spread = max(vals) - min(vals)
    out.append(_row("nonlinear", "variational pair form is constant", spread <= 1e-8, f"spread {spread:.2e}"))
    return out


SUITES = {
    "complex": suite_complex,
    "operators": suite_operators,
    "swronskian": suite_swronskian,
    "symplectic": suite_symplectic,
    "direct-image": suite_direct_image,
    "classification": suite_classification,
    "lagrangian": suite_lagrangian,
    "smatrix": suite_smatrix,
    "boundstate": suite_boundstate,
    "nonlinear": suite_nonlinear,
}


def run_suite(name: str, rng: np.random.Generator, **kw) -> list[CheckResult]:
    if name not in SUITES:
        raise DomainError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    return SUITES[name](rng, **kw)


def run(names=None, seed: int = 0, *, complex_file=None, operator_file=None):
    """Run the requested suites (default all) and return the result rows.

    A supplied complex file feeds the complex/operators/swronskian
    suites; a line operator file feeds symplectic/classification.
    """
    from .complex_core import load_complex
    from .line_lattice import load_line_operator

    rng = np.random.default_rng(seed)
    names = list(names) if names else sorted(SUITES)
    cx = load_complex(complex_file) if complex_file else None
    lop = load_line_operator(operator_file) if operator_file else None
    rows: list[CheckResult] = []
    for name in names:
        kw = {}
        if cx is not None and name in ("complex", "operators", "swronskian"):
            kw["cx"] = cx
        if lop is not None and name in ("symplectic", "classification"):
            kw["line_op"] = lop
        rows.extend(run_suite(name, rng, **kw))
    return rows
