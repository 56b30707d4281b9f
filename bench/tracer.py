"""Outside-in span tracer for swron's public entry points.

The tracer never edits swron.  While active it rebinds each listed entry
point to a timing wrapper in every loaded ``swron`` module that holds the
same object (``scattering`` imports ``transfer_map`` and
``swronskian_form`` by name, so patching only ``line_lattice`` would miss
those calls), and replaces listed methods on their class.  Entry points
that no longer exist are skipped, so helpers removed by later refactors
do not break the benchmark; their metrics then read zero calls.

Spans are kept in memory as (name, start, end, parent span, op id) and
written out by :meth:`Tracer.write` after the run.
"""

from __future__ import annotations

import functools
import json
import sys
import time

# (metric name, module, attribute path).  Several attributes may share a
# metric name; their spans are summed (``operators.validation`` is the
# three structure checks that every chain call repeats).
ENTRY_POINTS = [
    ("complex_core.barycentric_subdivision", "swron.complex_core", "barycentric_subdivision"),
    ("complex_core.canonical_path", "swron.complex_core", "canonical_path"),
    ("operators.DiscreteOperator.init", "swron.operators", "DiscreteOperator.__init__"),
    ("operators.stencil", "swron.operators", "DiscreteOperator.stencil"),
    ("operators.apply", "swron.operators", "DiscreteOperator.apply"),
    ("operators.dense", "swron.operators", "DiscreteOperator.dense"),
    ("operators.validation", "swron.operators", "DiscreteOperator.is_symmetric"),
    ("operators.validation", "swron.operators", "DiscreteOperator.is_real"),
    ("operators.validation", "swron.operators", "DiscreteOperator.is_vertex_operator"),
    ("operators.to_vertex_operator", "swron.operators", "to_vertex_operator"),
    ("swronskian.swronskian", "swron.swronskian", "swronskian"),
    ("swronskian.verify_cycle", "swron.swronskian", "verify_cycle"),
    ("swronskian.interior_vertices", "swron.swronskian", "interior_vertices"),
    ("verify.kernel_solutions", "swron.verify", "kernel_solutions"),
    ("line_lattice.transfer_map", "swron.line_lattice", "transfer_map"),
    ("line_lattice.swronskian_form", "swron.line_lattice", "swronskian_form"),
    ("line_lattice.LineOperator.symbol", "swron.line_lattice", "LineOperator.symbol"),
    ("scattering.classify_monodromy", "swron.scattering", "classify_monodromy"),
    ("scattering.tail_modes", "swron.scattering", "tail_modes"),
    ("scattering.asymptotic_subspace", "swron.scattering", "asymptotic_subspace"),
    ("scattering.scattering_matrix", "swron.scattering", "scattering_matrix"),
    ("scattering.find_critical_points", "swron.scattering", "find_critical_points"),
    ("scattering.band_scan", "swron.scattering", "band_scan"),
    ("scattering.regular_discrete_spectrum", "swron.scattering", "regular_discrete_spectrum"),
    ("nonlinear.dynamical_step", "swron.nonlinear", "dynamical_step"),
    ("nonlinear.el_residual", "swron.nonlinear", "el_residual"),
    ("nonlinear.linearize", "swron.nonlinear", "linearize"),
    ("nonlinear.variational_swronskian", "swron.nonlinear", "variational_swronskian"),
]

OP = "op"  # root span of one benchmark op; its self time is bench-side work


def layer_names() -> list[str]:
    """Metric names of the traced layers, in table order, without repeats."""
    return list(dict.fromkeys(name for name, _, _ in ENTRY_POINTS))


class Tracer:
    """Records spans while used as a context manager; see the module docstring."""

    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []
        self._op_id = None
        self._ops = 0
        self.s_points = 0
        self.s_defined = 0
        self.unitarity_max = 0.0
        self.cycle_residual_max = 0.0
        self._patches: list = []

    # -- recording ---------------------------------------------------------

    def _open(self, name):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self._op_id])
        self._stack.append(idx)
        return idx

    def _close(self, idx):
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def op(self, fn, *args):
        """Run one benchmark op under a root span with the next op id."""
        self._op_id = self._ops
        self._ops += 1
        idx = self._open(OP)
        try:
            return fn(*args)
        finally:
            self._close(idx)
            self._op_id = None

    def _observe(self, name, result):
        # accuracy and useful-work counters read off the traced results
        if name == "scattering.scattering_matrix":
            self.s_points += 1
            if result.s_matrix is not None:
                self.s_defined += 1
                self.unitarity_max = max(self.unitarity_max, result.unitarity_residual)
        elif name == "swronskian.verify_cycle" and result.scale > 0:
            ratio = result.max_boundary_residual / result.scale
            self.cycle_residual_max = max(self.cycle_residual_max, ratio)

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            self._observe(name, result)
            return result

        return traced

    # -- patching ----------------------------------------------------------

    def __enter__(self):
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "swron" or key.startswith("swron."))]
        for name, modname, path in ENTRY_POINTS:
            owner = sys.modules.get(modname)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                continue
            wrapped = self._wrap(name, original)
            if outer:  # a method: one class attribute serves every caller
                self._patches.append((owner, attr, original))
                setattr(owner, attr, wrapped)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, key, original))
                        setattr(mod, key, wrapped)
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        return False

    # -- results -----------------------------------------------------------

    def layer_totals(self) -> dict[str, tuple[int, float]]:
        """name -> (calls, self seconds); self = duration minus child spans."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        totals: dict[str, list] = {name: [0, 0.0] for name in layer_names() + [OP]}
        for i, (name, t0, t1, _, _) in enumerate(self.spans):
            slot = totals[name]
            slot[0] += 1
            slot[1] += (t1 - t0) - child[i]
        return {name: (calls, s) for name, (calls, s) in totals.items()}

    def write(self, path, meta: dict) -> None:
        names = layer_names() + [OP]
        code = {name: i for i, name in enumerate(names)}
        rows = [[code[n], t0, t1, parent, op] for n, t0, t1, parent, op in self.spans]
        with open(path, "w") as fh:
            json.dump({"meta": meta, "names": names,
                       "columns": ["name", "start", "end", "parent", "op"],
                       "spans": rows}, fh, separators=(",", ":"))
