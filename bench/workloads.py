"""The four benchmark workloads: seeded inputs, the timed op, its gate.

Each workload turns a seed into *rounds*: a round holds one op of every
kind the workload mixes, so every run sees the same mix whatever the seed
and however many rounds fit in the measured time.  ``run`` is the only
code inside the timed region; ``check`` is the correctness gate and uses
references that share no code with the swron path under test (boundaries
are summed here from raw edge vertices, S-matrix defects are recomputed
with plain numpy, channel counts come from a companion matrix built here,
bound states from closed forms or a dense truncation built here).
A gate returns None on success and a one-line reason on failure.

swron is always called through module attributes looked up at call time,
so the tracer's rebinding sees every call.
"""

from __future__ import annotations

import math

import numpy as np

import swron
from swron import examples as ex

CYCLE_TOL = 1e-9
S_TOL = 1e-7
SWAP_TOL = 1e-8
STATE_TOL = 1e-6
EDGE_TOL = 1e-8
CRIT_STEP = 1e-6  # counts are compared this far either side of a critical point

# full: the sizes the benchmark measures; tiny: the smoke test's sizes
SIZES = {
    "full": {"max_simplices": 60, "lambdas": 20, "n_range": (200, 800),
             "scan": 31, "grid": 61},
    "tiny": {"max_simplices": 20, "lambdas": 3, "n_range": (20, 60),
             "scan": 11, "grid": 61},
}


GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _rng(seed: int, salt: int, batch: int) -> np.random.Generator:
    return np.random.default_rng([seed % 2**63, salt, batch])


def _spread_ranks(rng: np.random.Generator, count: int) -> np.ndarray:
    """A seeded permutation of range(count) whose every prefix covers the
    range evenly (ranks of a randomly shifted golden-ratio sequence), so a
    run that stops after any number of rounds still sees the whole mix."""
    points = (rng.random() + GOLDEN * np.arange(count)) % 1.0
    return np.argsort(np.argsort(points))


# -- independent references ----------------------------------------------------


def _boundary_defect(chain, cx, labels) -> tuple[float, float]:
    """(max |dW| over ``labels``, max |W|) summed from edge endpoints."""
    bdry: dict = {}
    scale = 0.0
    for eid, c in chain.coeffs.items():
        u, v = cx.simplices[eid].vertices
        bdry[v] = bdry.get(v, 0.0) + c
        bdry[u] = bdry.get(u, 0.0) - c
        scale = max(scale, abs(c))
    resid = max((abs(bdry.get(lab, 0.0)) for lab in labels), default=0.0)
    return resid, scale


def _s_defects(s: np.ndarray) -> tuple[float, float]:
    eye = np.eye(s.shape[0])
    return (float(np.max(np.abs(s @ s.conj().T - eye))),
            float(np.max(np.abs(s - s.T))))


def _channel_counts(op, lam: float) -> tuple[int, int, int]:
    """(s, p, q) from the roots mu of det(sum_s B_s mu^s - lam), found as
    eigenvalues of a block companion matrix of the Laurent polynomial:
    unit-circle pairs, quadruples off it, real pairs off it."""
    k, l = op.k, op.l
    coeff = [op.block(0, s).astype(float) for s in range(-k, k + 1)]
    coeff[k] = coeff[k] - lam * np.eye(l)
    lead_inv = np.linalg.inv(coeff[-1])
    deg = 2 * k
    comp = np.zeros((deg * l, deg * l))
    comp[:-l, l:] = np.eye((deg - 1) * l)
    for i in range(deg):
        comp[-l:, i * l:(i + 1) * l] = -lead_inv @ coeff[i]
    mus = np.linalg.eigvals(comp)
    unit = np.abs(np.abs(mus) - 1.0) <= 1e-7
    real = np.abs(mus.imag) <= 1e-7 * np.maximum(1.0, np.abs(mus))
    outer = np.abs(mus) > 1.0
    return (int(np.sum(unit & ~real & (mus.imag > 0))),
            int(np.sum(~unit & ~real & outer & (mus.imag > 0))),
            int(np.sum(~unit & real & outer)))


def _truncated_levels(graph, lo: float, hi: float, depth: int = 200) -> list[float]:
    """Eigenvalues in [lo, hi] of the core plus order-1 scalar tails cut
    at ``depth`` sites with hard walls (exponentially exact outside the band)."""
    nc = graph.core_size
    n = nc + depth * graph.n_tails
    mat = np.zeros((n, n))
    mat[:nc, :nc] = graph.core_matrix()
    for j, tail in enumerate(graph.tails):
        base = nc + j * depth
        on, hop = float(tail.op.block(0, 0)[0, 0]), float(tail.op.block(0, 1)[0, 0])
        for i in range(depth):
            mat[base + i, base + i] = on
            if i + 1 < depth:
                mat[base + i, base + i + 1] = mat[base + i + 1, base + i] = hop
        for (v, site), m in tail.attach.items():
            r = graph.core_offset[v]
            mat[r, base + site] = mat[base + site, r] = float(m[0, 0])
    vals = np.linalg.eigvalsh(mat)
    return [float(x) for x in vals if lo <= x <= hi]


class Workload:
    """``make_rounds(seed, count, batch)`` builds ``count`` rounds of
    inputs (the same seed and batch give the same inputs), ``run(op)`` is
    the timed op and ``check(op, result)`` its gate.  ``pool_rounds`` is
    the number of rounds in one batch of fresh inputs; ``trace_rounds`` is
    the fixed number of rounds a traced run executes."""

    def __init__(self, size: dict):
        self.size = size


# -- pairchain -----------------------------------------------------------------


class PairChain(Workload):
    """Criterion-01 generator: one op is one random complex, reduced to a
    vertex operator, then 20 lambda of kernel_solutions -> swronskian ->
    verify_cycle.  Each round covers every (vec_dim, order) in 1..3 x 1..3
    once.  Op cost follows the complex's size, so for each (vec_dim, order)
    the generator draws three complexes per round and keeps every third in
    size order, spread over the rounds: every seed then gets the same size
    mix, drawn from the whole range the generator makes."""

    pool_rounds = 10
    trace_rounds = 4

    def make_rounds(self, seed: int, count: int, batch: int = 0) -> list:
        rng = _rng(seed, 1, batch)
        rounds = [[] for _ in range(count)]
        for vec_dim in (1, 2, 3):
            for order in (1, 2, 3):
                drawn = [ex.random_complex(rng, self.size["max_simplices"])
                         for _ in range(3 * count)]
                kept = sorted(drawn, key=len)[int(rng.integers(3))::3]
                for ops, rank in zip(rounds, _spread_ranks(rng, count)):
                    raw = ex.random_operator(rng, kept[rank], vec_dim=vec_dim,
                                             max_steps=order)
                    lams = [float(x) for x in rng.uniform(-3.0, 3.0, self.size["lambdas"])]
                    ops.append((raw, lams, int(rng.integers(2**31))))
        return rounds

    def run(self, op):
        raw, lams, kseed = op
        vop, sub, centers = swron.to_vertex_operator(raw)
        domain = [sub.vertex_sid(v) for v in sub.vertex_labels]
        order = [sub.vertex_sid(centers[s.id]) for s in raw.complex.simplices]
        n_free = max(2, (2 + vop.vec_dim - 1) // vop.vec_dim + 1)
        free = swron.verify.coupled_free_sites(vop, order, n_free)
        rng = np.random.default_rng(kseed)
        out = []
        for lam in lams:
            (psi, phi), imposed = swron.verify.kernel_solutions(
                vop, lam, free, rng, sids=domain)
            w = swron.swronskian(vop, lam, psi, phi)
            rep = swron.verify_cycle(w, tol_rel=CYCLE_TOL, interior=imposed)
            out.append((w, rep, imposed))
        return sub, out

    def check(self, op, result):
        sub, chains = result
        for w, rep, imposed in chains:
            labels = {sub.simplices[sid].vertices[0] for sid in imposed}
            resid, scale = _boundary_defect(w.chain, sub, labels)
            if resid > CYCLE_TOL * scale:
                return f"|dW| = {resid:.2e} for |W| = {scale:.2e} at lambda {w.lam.real:.4f}"
            if not rep.passed:
                return f"verify_cycle failed at lambda {w.lam.real:.4f}"
        return None


# -- variational ---------------------------------------------------------------


class Variational(Workload):
    """Standard-map orbit on interval(N): dynamical_step along the orbit,
    the exact tangent pair, then linearize, variational_swronskian and
    verify_cycle.  Each round takes one N from each quarter of the range,
    at positions spread evenly over the rounds (op cost grows faster than N)."""

    pool_rounds = 6
    trace_rounds = 2

    def make_rounds(self, seed: int, count: int, batch: int = 0) -> list:
        rng = _rng(seed, 2, batch)
        lo, hi = self.size["n_range"]
        width = (hi - lo) / 4
        rounds = []
        for rank in _spread_ranks(rng, count):
            ops = []
            for q in range(4):
                n = int(lo + width * (q + (rank + rng.random()) / count))
                kick = float(rng.uniform(0.3, 0.8))
                x0, x1 = (float(x) for x in rng.uniform(-0.3, 0.3, 2))
                system = swron.build_translation_invariant(
                    ex.interval(n), swron.standard_map_density(kick), allow_ends=True)
                ops.append((system, n, kick, x0, x1))
            rounds.append(ops)
        return rounds

    def run(self, op):
        system, n, kick, x0, x1 = op
        psi = {0: np.array([x0]), 1: np.array([x1])}
        for v in range(1, n):
            psi[v + 1] = swron.dynamical_step(system, psi, v, v + 1, x0=psi[v])
        g1 = {0: np.array([1.0]), 1: np.array([0.0])}
        g2 = {0: np.array([0.0]), 1: np.array([1.0])}
        for d in (g1, g2):
            for v in range(1, n):
                d[v + 1] = (2.0 - kick * math.cos(psi[v][0])) * d[v] - d[v - 1]
        interior = list(range(1, n))
        lin = swron.linearize(system, psi, at=interior)
        w = swron.variational_swronskian(system, psi, g1, g2, at=interior)
        rep = swron.verify_cycle(w)
        return lin, w, rep

    def check(self, op, result):
        system, n = op[0], op[1]
        lin, w, rep = result
        if lin.warning is not None:
            return lin.warning
        # vertices 2..n-2 have their whole stencil inside the support 1..n-1
        resid, scale = _boundary_defect(w.chain, system.graph, range(2, n - 1))
        if resid > CYCLE_TOL * scale:
            return f"|dW|/|W| = {resid / scale:.2e}"
        # the tangent pair starts as (1, 0), (0, 1): its Wronskian is 1
        worst = max(abs(abs(c) - 1.0) for c in w.chain.coeffs.values())
        if worst > 1e-8:
            return f"pair chain departs from the unit Wronskian by {worst:.2e}"
        if not rep.passed:
            return "verify_cycle failed"
        return None


# -- scatter and sweep fixtures ------------------------------------------------


def two_channel_graph(rng: np.random.Generator):
    """Hub of fiber dimension 2 with three order-2, two-channel random tails."""
    tails = [
        swron.Tail(ex.random_line_operator(rng, 2, 2),
                   {(0, 0): rng.standard_normal((2, 2))}, origin=0)
        for _ in range(3)
    ]
    return swron.TailedGraph({0: 2}, {(0, 0): np.diag(rng.standard_normal(2))}, tails)


SCALAR_FIXTURES = ("star4", "ring6", "well", "line")  # S defined on all of (-2, 2)


def fixtures(rng: np.random.Generator) -> dict:
    return {
        "star4": ex.star_tailed(4),
        "ring6": ex.two_tail_ring_core(6),
        "well": ex.potential_line(1.0),
        "line": ex.pure_line_graph(),
        "two_channel": two_channel_graph(rng),
    }


def _s_gate(name: str, res, require_s: bool = True) -> str | None:
    s = res.s_matrix
    if s is None:
        if require_s and (name in SCALAR_FIXTURES or "no-channels" not in res.flags):
            return f"{name}: no S at lambda {res.lam:.4f} ({sorted(res.flags)})"
        return None
    unit, symm = _s_defects(s)
    if unit > S_TOL or symm > S_TOL:
        return f"{name}: unitarity {unit:.2e} symmetry {symm:.2e} at lambda {res.lam:.4f}"
    if name == "line":
        gap = float(np.max(np.abs(s - np.array([[0.0, 1.0], [1.0, 0.0]]))))
        if gap > SWAP_TOL:
            return f"line: S misses the swap by {gap:.2e}"
    return None


class Scatter(Workload):
    """One op is one scattering_matrix call at a seeded lambda in
    (-1.95, 1.95).  Each round visits the five fixtures once; the points
    are independent, with no shared grid."""

    pool_rounds = 120
    trace_rounds = 40

    def make_rounds(self, seed: int, count: int, batch: int = 0) -> list:
        rng = _rng(seed, 3, batch)
        graphs = fixtures(rng)
        names = list(graphs)
        return [[(name, graphs[name], float(rng.uniform(-1.95, 1.95))) for name in names]
                for _ in range(count)]

    def run(self, op):
        return swron.scattering_matrix(op[1], op[2])

    def check(self, op, result):
        return _s_gate(op[0], result)


class Sweep(Workload):
    """One op is one lambda-grid call: band_scan on each fixture,
    find_critical_points on the free line and on a two-channel tail, and
    regular_discrete_spectrum outside the band on the well, star_tailed(3..5)
    and two_tail_ring_core(6).  Rounds interleave the kinds.

    A two-channel band_scan costs about twice the next heaviest op.  Each
    round scans two seeded two-channel graphs, so those scans are 2 of 13
    ops and p90 falls inside their cluster rather than in the gap below it."""

    pool_rounds = 1
    trace_rounds = 1

    def make_rounds(self, seed: int, count: int, batch: int = 0) -> list:
        rng = _rng(seed, 4, batch)
        scan, grid = self.size["scan"], self.size["grid"]
        graphs = fixtures(rng)
        graphs.update({"star3": ex.star_tailed(3), "star5": ex.star_tailed(5),
                       "two_channel_b": two_channel_graph(rng)})
        tail_op = graphs["two_channel"].tails[0].op

        def band():
            return float(rng.uniform(-2.6, -2.4)), float(rng.uniform(2.4, 2.6))

        def outside(side):
            a, b = float(rng.uniform(-3.6, -3.4)), float(rng.uniform(-2.1, -2.05))
            return (a, b) if side < 0 else (-b, -a)

        def side():
            return -1 if rng.random() < 0.5 else 1

        rounds = []
        for _ in range(count):
            edges = float(rng.uniform(-3.2, -2.8)), float(rng.uniform(2.8, 3.2))
            wide = float(rng.uniform(-4.5, -3.5)), float(rng.uniform(3.5, 4.5))
            ops = [
                ("band_scan", "star4", graphs["star4"], band(), scan),
                ("critical", "free_line", ex.free_line_operator(1), edges, grid),
                ("spectrum", "well", graphs["well"], outside(-1), grid),
                ("band_scan", "ring6", graphs["ring6"], band(), scan),
                ("spectrum", "star3", graphs["star3"], outside(side()), grid),
                ("band_scan", "well", graphs["well"], band(), scan),
                ("critical", "two_channel_tail", tail_op, wide, grid),
                ("spectrum", "star4", graphs["star4"], outside(side()), grid),
                ("band_scan", "line", graphs["line"], band(), scan),
                ("spectrum", "star5", graphs["star5"], outside(side()), grid),
                ("band_scan", "two_channel", graphs["two_channel"], band(), scan),
                ("spectrum", "ring6", graphs["ring6"], outside(side()), grid),
                ("band_scan", "two_channel_b", graphs["two_channel_b"], band(), scan),
            ]
            rounds.append(ops)
        return rounds

    def run(self, op):
        kind, _, target, (lo, hi), samples = op
        if kind == "band_scan":
            return swron.band_scan(target, lo, hi, samples)
        if kind == "critical":
            return swron.find_critical_points(target, lo, hi, samples)
        return swron.regular_discrete_spectrum(target, lo, hi, samples)

    def check(self, op, result):
        kind, name, target, (lo, hi), samples = op
        if kind == "band_scan":
            if len(result.rows) != samples:
                return f"band_scan {name}: {len(result.rows)} rows for {samples} samples"
            for row in result.rows:
                bad = _s_gate(name, row.result, require_s=False)
                if bad:
                    return "band_scan " + bad
            return None
        if kind == "critical":
            lams = [cp.lam for cp in result]
            if name == "free_line":
                if len(lams) != 2 or max(abs(abs(x) - 2.0) for x in lams) > EDGE_TOL:
                    return f"free-line band edges at {lams}"
                return None
            for lam in lams:
                below = _channel_counts(target, lam - CRIT_STEP)
                if below == _channel_counts(target, lam + CRIT_STEP):
                    return f"{name}: channel counts do not change at critical point {lam:.6f}"
            return None
        found = [st.lam for st in result if not st.singular]
        if name == "well":
            want = [-math.sqrt(5.0)]
        elif name.startswith("star"):
            n = int(name[4:])
            hub = n / math.sqrt(n - 1)
            want = [x for x in (-hub, hub) if lo <= x <= hi]
        else:
            want = _truncated_levels(target, lo, hi)
        if len(found) != len(want) or any(
                abs(a - b) > STATE_TOL for a, b in zip(sorted(found), sorted(want))):
            return f"spectrum {name} on [{lo:.3f}, {hi:.3f}]: found {found}, want {want}"
        return None


WORKLOADS = {
    "pairchain": PairChain,
    "variational": Variational,
    "scatter": Scatter,
    "sweep": Sweep,
}
