"""Bundled complexes, operators, covers, and tailed-graph fixtures.

Everything here is deterministic except the ``random_*`` generators,
which take a numpy Generator so callers control the seed.
"""

from __future__ import annotations

import numpy as np

from .complex_core import DomainError, SimplicialComplex
from .line_lattice import CoveringGraph, LineOperator
from .operators import DiscreteOperator
from .scattering import Tail, TailedGraph

__all__ = [
    "interval",
    "circle",
    "wedge_two_circles",
    "filled_triangle",
    "sphere_complex",
    "torus_complex",
    "triangle_patch",
    "graph_laplacian",
    "adjacency_operator",
    "free_line_operator",
    "random_complex",
    "random_operator",
    "random_line_operator",
    "cover_z",
    "cover_ladder",
    "cover_spiral",
    "cover_laplacian_blocks",
    "free_tail",
    "pure_line_graph",
    "potential_line",
    "star_tailed",
    "two_tail_ring_core",
]


# -- complexes ---------------------------------------------------------------------


def interval(n: int = 1) -> SimplicialComplex:
    """Path with vertices 0..n."""
    if n < 1:
        raise DomainError("interval needs at least one edge")
    return SimplicialComplex([(i, i + 1) for i in range(n)])


def circle(n: int = 3) -> SimplicialComplex:
    """Cycle with n vertices."""
    if n < 3:
        raise DomainError("circle needs at least three vertices")
    return SimplicialComplex([(i, (i + 1) % n) for i in range(n)])


def wedge_two_circles(n1: int = 3, n2: int = 3) -> SimplicialComplex:
    """Two cycles sharing vertex 0."""
    first = [(i, (i + 1) % n1) for i in range(n1)]
    shift = [0] + list(range(n1, n1 + n2 - 1))
    second = [(shift[i], shift[(i + 1) % n2]) for i in range(n2)]
    return SimplicialComplex(first + second)


def filled_triangle() -> SimplicialComplex:
    return SimplicialComplex([(0, 1, 2)])


def sphere_complex() -> SimplicialComplex:
    """Boundary of the tetrahedron on vertices 0..3."""
    return SimplicialComplex([(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)])


def torus_complex() -> SimplicialComplex:
    """Seven-vertex triangulated torus: triangles {i, i+1, i+3} and
    {i, i+2, i+3} mod 7."""
    tris = []
    for i in range(7):
        tris.append((i, (i + 1) % 7, (i + 3) % 7))
        tris.append((i, (i + 2) % 7, (i + 3) % 7))
    return SimplicialComplex(tris)


def triangle_patch(n: int = 3):
    """Triangulated parallelogram patch of the plane lattice.

    Returns (complex, black) where ``black`` lists the ids of the
    upward triangles {(i,j), (i+1,j), (i,j+1)}; together with the
    downward ones they two-color the patch so that every interior edge
    lies in one triangle of each color.
    """
    if n < 1:
        raise DomainError("patch needs n >= 1")

    def vid(i, j):
        return i * (n + 1) + j

    tris = []
    up = []
    for i in range(n):
        for j in range(n):
            tris.append((vid(i, j), vid(i + 1, j), vid(i, j + 1)))
            up.append(tuple(sorted(tris[-1])))
            tris.append((vid(i + 1, j), vid(i, j + 1), vid(i + 1, j + 1)))
    cx = SimplicialComplex(tris)
    black = [cx.id_of(t) for t in up]
    return cx, black


# -- operators ---------------------------------------------------------------------


def graph_laplacian(cx: SimplicialComplex, vec_dim: int = 1) -> DiscreteOperator:
    """deg(v) I on the diagonal, -I across each edge; acts on vertices."""
    eye = np.eye(vec_dim)
    blocks = {}
    for v in cx.vertex_labels:
        sid = cx.vertex_sid(v)
        blocks[(sid, sid)] = len(cx._skeleton[v]) * eye
        for _, w in cx._skeleton[v]:
            blocks[(sid, cx.vertex_sid(w))] = -eye
    return DiscreteOperator(cx, vec_dim, blocks)


def adjacency_operator(cx: SimplicialComplex, vec_dim: int = 1) -> DiscreteOperator:
    """I across each edge of the 1-skeleton."""
    eye = np.eye(vec_dim)
    blocks = {}
    for v in cx.vertex_labels:
        sid = cx.vertex_sid(v)
        for _, w in cx._skeleton[v]:
            blocks[(sid, cx.vertex_sid(w))] = eye
    return DiscreteOperator(cx, vec_dim, blocks)


def free_line_operator(l: int = 1) -> LineOperator:
    """Nearest-neighbor hopping on the lattice, band [-2, 2] for l = 1."""
    return LineOperator(1, l, {1: np.eye(l)})


# -- random generators -------------------------------------------------------------


def random_complex(rng: np.random.Generator, max_simplices: int = 60) -> SimplicialComplex:
    """Connected complex with at most ``max_simplices`` simplices.

    A random tree keeps it connected; extra edges, triangles, and the
    occasional tetrahedron are added while the closure stays within
    budget.
    """
    nv = int(rng.integers(4, 11))
    tops: list[tuple[int, ...]] = []
    for v in range(1, nv):
        tops.append((int(rng.integers(0, v)), v))

    def size(candidates):
        return len(SimplicialComplex(candidates))

    extra_edges = int(rng.integers(0, nv))
    for _ in range(extra_edges):
        u, v = rng.choice(nv, size=2, replace=False)
        trial = tops + [(int(u), int(v))]
        if size(trial) <= max_simplices:
            tops = trial
    for _ in range(int(rng.integers(0, 4))):
        tri = tuple(int(x) for x in rng.choice(nv, size=3, replace=False))
        trial = tops + [tri]
        if size(trial) <= max_simplices:
            tops = trial
    if rng.random() < 0.25 and nv >= 4:
        tet = tuple(int(x) for x in rng.choice(nv, size=4, replace=False))
        trial = tops + [tet]
        if size(trial) <= max_simplices:
            tops = trial
    return SimplicialComplex(tops)


def random_operator(
    rng: np.random.Generator,
    cx: SimplicialComplex,
    vec_dim: int = 1,
    max_steps: int = 3,
    density: float = 0.7,
    scale: float = 1.0,
) -> DiscreteOperator:
    """Real symmetric operator coupling simplices within ``max_steps``
    incidence steps (order <= max_steps)."""
    blocks = {}
    sids = [s.id for s in cx.simplices]
    for a in sids:
        reach = cx.steps_within(a, max_steps)
        for b, steps in reach.items():
            if b < a:
                continue
            if b != a and rng.random() > density:
                continue
            m = scale * rng.standard_normal((vec_dim, vec_dim))
            if a == b:
                m = 0.5 * (m + m.T)
                blocks[(a, a)] = m
            else:
                blocks[(a, b)] = m
                blocks[(b, a)] = m.T
    return DiscreteOperator(cx, vec_dim, blocks)


def random_line_operator(
    rng: np.random.Generator,
    k: int,
    l: int,
    n_site_terms: int = 0,
    scale: float = 1.0,
    min_lead: float = 0.2,
) -> LineOperator:
    """Random symmetric lattice operator with a well-conditioned leading
    block; optional localized site perturbations."""
    shift = {}
    for s in range(k + 1):
        m = scale * rng.standard_normal((l, l))
        if s == 0:
            m = 0.5 * (m + m.T)
        shift[s] = m
    while np.linalg.svd(shift[k], compute_uv=False)[-1] < min_lead * scale:
        shift[k] = scale * rng.standard_normal((l, l))
    sites: dict[int, dict[int, np.ndarray]] = {}
    for _ in range(n_site_terms):
        n = int(rng.integers(-2, 3))
        s = int(rng.integers(0, k + 1))
        m = scale * rng.standard_normal((l, l))
        if s == 0:
            m = 0.5 * (m + m.T)
        sites.setdefault(n, {})[s] = m
    return LineOperator(k, l, shift, sites)


# -- covers ------------------------------------------------------------------------


def cover_z() -> CoveringGraph:
    """The lattice itself: one orbit, one step edge."""
    return CoveringGraph((0,), ((0, 0, 1),))


def cover_ladder() -> CoveringGraph:
    """Two rails plus rungs."""
    return CoveringGraph((0, 1), ((0, 0, 1), (1, 1, 1), (0, 1, 0)))


def cover_spiral() -> CoveringGraph:
    """Three orbits chained into one long cycle per period."""
    return CoveringGraph((0, 1, 2), ((0, 1, 0), (1, 2, 0), (2, 0, 1)))


def cover_laplacian_blocks(cover: CoveringGraph, vec_dim: int = 1) -> dict:
    """Graph Laplacian of the cover: degree on the diagonal, -I per edge."""
    eye = np.eye(vec_dim)
    deg = {a: 0 for a in cover.orbits}
    blocks = {}
    for a, b, w in cover.edges:
        deg[a] += 1
        deg[b] += 1
        blocks[(a, b, w)] = -eye
    for a in cover.orbits:
        key = (a, a, 0)
        blocks[key] = blocks.get(key, np.zeros((vec_dim, vec_dim))) + deg[a] * eye
    return blocks


# -- tailed graphs -----------------------------------------------------------------


def free_tail(l: int = 1) -> LineOperator:
    return free_line_operator(l)


def pure_line_graph() -> TailedGraph:
    """Two free half-lines joined site 0 to site 0: the lattice in
    disguise.  Tail 0 carries phase origin 1 so that the two references
    sit one lattice step apart, as the geometry says."""
    return TailedGraph(
        {},
        {},
        [Tail(free_tail(), {}, origin=1), Tail(free_tail(), {}, origin=0)],
        cross_links=[((0, 0), (1, 0), [[1.0]])],
    )


def potential_line(v: float = 1.0) -> TailedGraph:
    """Free line with a well of depth ``v`` at one site: two free tails
    glued to a single core vertex carrying the site term -v.  For v > 0
    one bound state sits at -sqrt(v^2 + 4)."""
    return TailedGraph(
        {0: 1},
        {(0, 0): [[-float(v)]]},
        [
            Tail(free_tail(), {(0, 0): [[1.0]]}, origin=1),
            Tail(free_tail(), {(0, 0): [[1.0]]}, origin=1),
        ],
    )


def star_tailed(n_tails: int = 3) -> TailedGraph:
    """One hub vertex with ``n_tails`` free half-lines."""
    if n_tails < 1:
        raise DomainError("need at least one tail")
    tails = [
        Tail(free_tail(), {(0, 0): [[1.0]]}, origin=1) for _ in range(n_tails)
    ]
    return TailedGraph({0: 1}, {}, tails)


def two_tail_ring_core(n_core: int = 6) -> TailedGraph:
    """Adjacency ring of ``n_core`` vertices with two free tails on
    opposite sides."""
    if n_core < 3:
        raise DomainError("ring needs at least three vertices")
    blocks = {}
    for i in range(n_core):
        blocks[(i, (i + 1) % n_core)] = [[1.0]]
    far = n_core // 2
    tails = [
        Tail(free_tail(), {(0, 0): [[1.0]]}, origin=1),
        Tail(free_tail(), {(far, 0): [[1.0]]}, origin=1),
    ]
    return TailedGraph({i: 1 for i in range(n_core)}, blocks, tails)
