"""Combinatorial substrate: simplicial complexes, distances, paths, 1-chains.

Conventions used throughout the package:

* A simplex is a strictly increasing tuple of integer vertex labels; the
  complex is closed under taking nonempty subsets (faces).
* Simplex ids are assigned by sorting all simplices by (dimension, vertex
  tuple).  They are therefore stable: rebuilding the same complex yields
  the same ids.  Edge ids are simply the ids of the 1-simplices.
* Two distinct simplices are *incident* when one is a proper face of the
  other, of any codimension.  Each incidence counts 1/2 towards the
  distance, so ``distance(a, b)`` is half the length of the shortest
  incidence chain and takes values in {0, 1/2, 1, 3/2, ...}.
* Every edge (u, v) with u < v carries the reference orientation u -> v;
  1-chain coefficients are stated with respect to it.
"""

from __future__ import annotations

import csv
import json
import math
from collections import deque
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

__all__ = [
    "DomainError",
    "Simplex",
    "SimplicialComplex",
    "PathChain",
    "Chain1",
    "canonical_path",
    "barycentric_subdivision",
    "complex_to_json",
    "complex_from_json",
]


class DomainError(ValueError):
    """An input lies outside the domain of the requested operation."""


@dataclass(frozen=True)
class Simplex:
    """A single simplex: stable id plus its ordered vertex tuple."""

    id: int
    vertices: tuple[int, ...]

    @property
    def dim(self) -> int:
        return len(self.vertices) - 1

    def __repr__(self) -> str:  # compact, used in error messages
        return f"Simplex({self.id}, {self.vertices})"


def _normalize_simplex(vertices) -> tuple[int, ...]:
    vs = tuple(int(v) for v in vertices)
    if len(vs) == 0:
        raise DomainError("empty vertex tuple is not a simplex")
    if len(set(vs)) != len(vs):
        raise DomainError(f"repeated vertex in simplex {vs}")
    if any(v < 0 for v in vs):
        raise DomainError(f"vertex labels must be non-negative: {vs}")
    return tuple(sorted(vs))


class SimplicialComplex:
    """A finite simplicial complex, closed under faces at construction.

    Parameters
    ----------
    simplices : iterable of vertex iterables
        Generating simplices; all faces are added automatically.
    """

    def __init__(self, simplices):
        closure: set[tuple[int, ...]] = set()
        for vs in simplices:
            top = _normalize_simplex(vs)
            for r in range(1, len(top) + 1):
                closure.update(combinations(top, r))
        # ids ascend with dimension; DiscreteOperator reads dimensions off id ranges
        ordered = sorted(closure, key=lambda t: (len(t), t))
        self.simplices: list[Simplex] = [
            Simplex(i, vs) for i, vs in enumerate(ordered)
        ]
        self._id_of: dict[tuple[int, ...], int] = {
            s.vertices: s.id for s in self.simplices
        }

        # vertex label -> id of its 0-simplex
        self._vertex_sid: dict[int, int] = {
            s.vertices[0]: s.id for s in self.simplices if s.dim == 0
        }
        # (u, v) sorted -> edge id
        self._edge_sid: dict[tuple[int, int], int] = {
            s.vertices: s.id for s in self.simplices if s.dim == 1
        }

        # incidence adjacency: proper faces (all codims) and their inverses
        n = len(self.simplices)
        self._faces_all: list[list[int]] = [[] for _ in range(n)]
        self._cofaces_all: list[list[int]] = [[] for _ in range(n)]
        for s in self.simplices:
            if s.dim == 0:
                continue
            for r in range(1, len(s.vertices)):
                for sub in combinations(s.vertices, r):
                    fid = self._id_of[sub]
                    self._faces_all[s.id].append(fid)
                    self._cofaces_all[fid].append(s.id)
        self._incidence: list[list[int]] = [
            sorted(self._faces_all[i] + self._cofaces_all[i]) for i in range(n)
        ]

        # 1-skeleton adjacency: vertex label -> [(edge id, other label)],
        # sorted by edge id so greedy path selection is a plain scan.
        self._skeleton: dict[int, list[tuple[int, int]]] = {
            v: [] for v in self._vertex_sid
        }
        for (u, v), eid in self._edge_sid.items():
            self._skeleton[u].append((eid, v))
            self._skeleton[v].append((eid, u))
        for v in self._skeleton:
            self._skeleton[v].sort()

    # -- basic queries ---------------------------------------------------

    def __len__(self) -> int:
        return len(self.simplices)

    def __iter__(self):
        return iter(self.simplices)

    def simplex(self, sid: int) -> Simplex:
        try:
            return self.simplices[sid]
        except IndexError:
            raise DomainError(f"no simplex with id {sid}") from None

    def id_of(self, vertices) -> int:
        key = _normalize_simplex(vertices)
        try:
            return self._id_of[key]
        except KeyError:
            raise DomainError(f"simplex {key} not in complex") from None

    def has_simplex(self, vertices) -> bool:
        return _normalize_simplex(vertices) in self._id_of

    def vertex_sid(self, label: int) -> int:
        try:
            return self._vertex_sid[label]
        except KeyError:
            raise DomainError(f"vertex {label} not in complex") from None

    def edge_sid(self, u: int, v: int) -> int:
        key = (u, v) if u < v else (v, u)
        try:
            return self._edge_sid[key]
        except KeyError:
            raise DomainError(f"edge {key} not in complex") from None

    @property
    def vertex_labels(self) -> list[int]:
        return sorted(self._vertex_sid)

    @property
    def edge_sids(self) -> list[int]:
        return sorted(self._edge_sid.values())

    @property
    def dim(self) -> int:
        return max(s.dim for s in self.simplices)

    def simplices_of_dim(self, k: int) -> list[Simplex]:
        return [s for s in self.simplices if s.dim == k]

    def f_vector(self) -> tuple[int, ...]:
        counts = [0] * (self.dim + 1)
        for s in self.simplices:
            counts[s.dim] += 1
        return tuple(counts)

    def euler_characteristic(self) -> int:
        return sum((-1) ** k * f for k, f in enumerate(self.f_vector()))

    # -- incidence structure ----------------------------------------------

    def faces(self, sid: int) -> list[tuple[int, int]]:
        """Codimension-1 faces of ``sid`` with incidence signs (-1)**i."""
        s = self.simplex(sid)
        out = []
        for i in range(len(s.vertices)):
            sub = s.vertices[:i] + s.vertices[i + 1 :]
            if sub:
                out.append((self._id_of[sub], (-1) ** i))
        return out

    def cofaces(self, sid: int) -> list[int]:
        """Ids of all simplices properly containing ``sid`` (any codim)."""
        return list(self._cofaces_all[sid])

    def boundary_matrix(self, k: int) -> np.ndarray:
        """Signed incidence matrix C_k -> C_{k-1} (dense integer array)."""
        rows = self.simplices_of_dim(k - 1)
        cols = self.simplices_of_dim(k)
        row_pos = {s.id: i for i, s in enumerate(rows)}
        mat = np.zeros((len(rows), len(cols)), dtype=np.int64)
        for j, s in enumerate(cols):
            for fid, sign in self.faces(s.id):
                mat[row_pos[fid], j] = sign
        return mat

    # -- metric -----------------------------------------------------------

    def _search(self, sid: int, max_steps=math.inf, targets=None) -> dict[int, int]:
        """Incidence BFS from ``sid``: simplex id -> step count.

        Nothing beyond ``max_steps`` steps is labelled.  With ``targets``
        the search stops as soon as every target is labelled; a target
        left out of the result lies in another component.
        """
        seen = {sid: 0}
        left = None if targets is None else set(targets) - {sid}
        frontier = deque([sid])
        while frontier and (left is None or left):
            cur = frontier.popleft()
            d = seen[cur] + 1
            if d > max_steps:
                break
            for nxt in self._incidence[cur]:
                if nxt not in seen:
                    seen[nxt] = d
                    frontier.append(nxt)
                    if left is not None:
                        left.discard(nxt)
        return seen

    def steps_within(self, sid: int, max_steps: int) -> dict[int, int]:
        """Incidence-BFS ball: simplex id -> step count, up to max_steps."""
        return self._search(sid, max_steps)

    def distance(self, a, b) -> float:
        """Half the shortest incidence-chain length; inf if disconnected.

        One incidence search from ``a`` that stops as soon as ``b`` is
        labelled; nothing is kept between calls.
        """
        sa = a.id if isinstance(a, Simplex) else int(a)
        sb = b.id if isinstance(b, Simplex) else int(b)
        self.simplex(sa), self.simplex(sb)
        steps = self._search(sa, targets=(sb,)).get(sb)
        return math.inf if steps is None else steps / 2.0

    def girth(self) -> float:
        """Shortest 1-cycle length in edges; inf for a forest 1-skeleton."""
        best = math.inf
        for src in self._vertex_sid:
            dist = {src: 0}
            parent_edge = {src: -1}
            frontier = deque([src])
            while frontier:
                u = frontier.popleft()
                for eid, w in self._skeleton[u]:
                    if eid == parent_edge[u]:
                        continue
                    if w in dist:
                        best = min(best, dist[u] + dist[w] + 1)
                    else:
                        dist[w] = dist[u] + 1
                        parent_edge[w] = eid
                        frontier.append(w)
        return best


@dataclass
class PathChain:
    """A simplicial path along edges, stored as oriented edge steps.

    ``steps`` holds (edge id, sign): sign +1 when the step traverses the
    edge in its reference (low -> high vertex label) orientation.
    """

    complex: SimplicialComplex
    start: int
    end: int
    steps: list[tuple[int, int]] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.steps)

    def reversed(self) -> "PathChain":
        rev = [(eid, -sign) for eid, sign in reversed(self.steps)]
        return PathChain(self.complex, self.end, self.start, rev)

    def to_chain(self) -> "Chain1":
        c = Chain1(self.complex)
        for eid, sign in self.steps:
            c.add(eid, sign)
        return c


def _max_or_nan(values: list) -> float:
    """max of non-negative floats, but NaN when their sum is (``max`` may skip a NaN)."""
    return math.nan if math.isnan(sum(values)) else max(values, default=0.0)


class Chain1:
    """A 1-chain: complex reference plus edge-id -> complex coefficient."""

    def __init__(self, complex: SimplicialComplex, coeffs=None):
        self.complex = complex
        self.coeffs: dict[int, complex] = dict(coeffs) if coeffs else {}

    def add(self, edge_sid: int, value) -> None:
        if self.complex.simplex(edge_sid).dim != 1:
            raise DomainError(f"simplex {edge_sid} is not an edge")
        self.coeffs[edge_sid] = self.coeffs.get(edge_sid, 0) + value

    def max_abs(self) -> float:
        return _max_or_nan([abs(c) for c in self.coeffs.values()])

    def boundary(self) -> dict[int, complex]:
        """0-chain of the boundary, keyed by vertex label."""
        out: dict[int, complex] = {}
        for eid, c in self.coeffs.items():
            u, v = self.complex.simplex(eid).vertices
            out[v] = out.get(v, 0) + c
            out[u] = out.get(u, 0) - c
        return out

    def to_json_dict(self) -> dict:
        return {
            "edges": {
                str(e): [float(np.real(c)), float(np.imag(c))]
                for e, c in sorted(self.coeffs.items())
            }
        }


def canonical_path(complex: SimplicialComplex, a: int, b: int) -> PathChain:
    """Deterministic minimal edge path between vertices ``a`` and ``b``.

    Among all minimal paths the one with the lexicographically least
    edge-id sequence is returned (BFS distances from ``b``, then greedy
    smallest-edge-id descent).  The choice is unique without the
    tie-break whenever 2*d(a, b) is smaller than the girth in edges.
    """
    complex.vertex_sid(a), complex.vertex_sid(b)
    if a == b:
        return PathChain(complex, a, b, [])

    # BFS from b stops once a is labelled: every vertex closer to b than a
    # is labelled by then, and the descent below reads only those.
    dist = {b: 0}
    frontier = deque([b])
    while frontier and a not in dist:
        u = frontier.popleft()
        for eid, w in complex._skeleton[u]:
            if w not in dist:
                dist[w] = dist[u] + 1
                frontier.append(w)
    if a not in dist:
        raise DomainError(f"vertices {a} and {b} lie in different components")

    steps: list[tuple[int, int]] = []
    cur = a
    while cur != b:
        for eid, w in complex._skeleton[cur]:  # sorted by edge id
            if dist.get(w, -1) == dist[cur] - 1:
                u, v = complex.simplex(eid).vertices
                steps.append((eid, 1 if cur == u else -1))
                cur = w
                break
    return PathChain(complex, a, b, steps)


def barycentric_subdivision(
    complex: SimplicialComplex,
) -> tuple[SimplicialComplex, dict[int, int]]:
    """Order complex of the face poset, with centers labeled by simplex id.

    Returns (K', center_map) where center_map sends each simplex id of K
    to the vertex label of its center in K'.  Every strictly increasing
    chain of faces becomes a simplex of K'; in particular the 1-skeleton
    of K' is exactly the incidence graph of K, so graph distance between
    centers in K' equals twice the simplex distance in K.
    """
    chains: list[tuple[int, ...]] = []

    def grow(prefix: list[int], top: int) -> None:
        prefix = prefix + [top]
        chains.append(tuple(prefix))
        for nxt in complex._cofaces_all[top]:
            grow(prefix, nxt)

    for s in complex.simplices:
        if s.dim == 0:
            grow([], s.id)
    # simplices that contain no vertex cannot occur; every chain starts at
    # a 0-simplex and extends upward, so all chains are enumerated once.
    sub = SimplicialComplex(chains)
    center_map = {s.id: s.id for s in complex.simplices}
    return sub, center_map


# -- serialization ---------------------------------------------------------


def complex_to_json(complex: SimplicialComplex) -> dict:
    maximal = [
        list(s.vertices)
        for s in complex.simplices
        if not complex._cofaces_all[s.id]
    ]
    return {
        "vertices": complex.vertex_labels,
        "simplices": maximal,
    }


def complex_from_json(data: dict) -> SimplicialComplex:
    if "simplices" not in data:
        raise DomainError("complex JSON must contain a 'simplices' list")
    if "tails" in data:
        raise DomainError(
            "complex JSON key 'tails' is not read; periodic tails belong in a "
            "tailed-graph file"
        )
    gens = [tuple(s) for s in data["simplices"]]
    declared = set(int(v) for v in data.get("vertices", []))
    for vs in gens:
        for v in vs:
            if declared and int(v) not in declared:
                raise DomainError(f"simplex {vs} uses undeclared vertex {v}")
    for v in sorted(declared):
        gens.append((int(v),))
    return SimplicialComplex(gens)


def _read_json(path: str):
    with open(path) as fh:
        return json.load(fh)


def _distinct(pairs, message) -> dict:
    """The dict of the (key, value) ``pairs`` of an input table; a key
    that appears twice raises DomainError(message(key))."""
    out = {}
    for key, value in pairs:
        if key in out:
            raise DomainError(message(key))
        out[key] = value
    return out


def _dimension(d, v, what: str) -> int:
    """The dimension ``d`` at vertex ``v`` as an int; DomainError "{what}, expected ..."
    (``what`` formatted with d and v) unless it is a whole number of at least 1."""
    if type(d) is int and d >= 1:
        return d
    if not (x := float(d)).is_integer() or x < 1:
        expected = "at least 1" if x.is_integer() else "a whole number"
        raise DomainError(f"{what.format(d=d, v=v)}, expected {expected}")
    return int(x)


def _write_json(data, path: str | None) -> None:
    """The package's one JSON file format: indent 1, sorted keys, final
    newline.  Without a path the text goes to stdout."""
    text = json.dumps(data, indent=1, sort_keys=True)
    if not path:
        print(text)
        return
    with open(path, "w") as fh:
        print(text, file=fh)


def _write_csv(path: str, rows) -> None:
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)


def load_complex(path: str) -> SimplicialComplex:
    return complex_from_json(_read_json(path))


def save_complex(complex: SimplicialComplex, path: str) -> None:
    _write_json(complex_to_json(complex), path)
