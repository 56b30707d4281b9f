"""Command line front end.

Subcommands map one-to-one onto the library modules; JSON carries
structured reports and CSV carries lambda tables.  Exit codes: 0 on
success, 1 when a checked property fails, 2 on unreadable or invalid
input.  Reports embed the library version, the tolerances in force, and
the convention choices (path tie break, pair-coefficient sign, channel
normalization) so archived outputs stay interpretable.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import __version__
from .complex_core import DomainError, _distinct, _read_json, _tolerance, _write_csv, _write_json, load_complex
from .line_lattice import (
    CRITICAL_GAP,
    PAIRING_TOL,
    UNIMODULAR_TOL,
    CoveringGraph,
    _classify_grid,
    _grid,
    direct_image,
    find_critical_points,
    line_operator_to_json,
    load_line_operator,
    transfer_map,
    transfer_to_csv,
)
from .nonlinear import (
    DENSITIES,
    DiscreteLagrangianSystem,
    _vectors,
    build_homogeneous_order4,
    build_translation_invariant,
    expression_density,
    linearize,
    variational_swronskian,
)
from .operators import _matrix_from_json, load_operator, to_vertex_operator
from .scattering import (
    KERNEL_REL_TOL,
    band_scan,
    load_tailed_graph,
    regular_discrete_spectrum,
    scattering_matrix,
)
from .swronskian import CYCLE_TOL_REL, swronskian, verify_cycle
from .verify import SUITES, commutation_gap, coupled_free_sites, kernel_solutions
from .verify import run as run_verify

EXIT_OK = 0
EXIT_PROPERTY = 1
EXIT_INPUT = 2

CONVENTIONS = {
    "pair_coefficient": "psi-first",
    "path_tie_break": "lex-least-edge-ids",
    "channel_normalization": {"a_lambda": [0.0, 1.0]},
}


def _metadata(**tolerances) -> dict:
    return {
        "version": __version__,
        "conventions": CONVENTIONS,
        "tolerances": tolerances,
    }


def _cochain_from_json(data: dict) -> dict:
    if "values" not in data:
        raise DomainError("cochain JSON must contain a 'values' map")
    return {int(sid): _matrix_from_json(v, ndim=1) for sid, v in data["values"].items()}


# -- swronskian --------------------------------------------------------------------


def cmd_swronskian(args) -> int:
    _tolerance(args.tol_rel, "--tol-rel")
    cx = load_complex(args.complex_file)
    op = load_operator(args.operator_file, cx, on_asymmetry=args.on_asymmetry)
    vop, sub, centers = to_vertex_operator(op)
    domain = [sub.vertex_sid(v) for v in sub.vertex_labels]
    to_sub = {sid: sub.vertex_sid(centers[sid]) for sid in centers}

    if args.solve:
        rng = np.random.default_rng(args.seed)
        n_free = max(2, (2 + vop.vec_dim - 1) // vop.vec_dim + 1)
        order = [to_sub[s.id] for s in op.complex.simplices]
        free = coupled_free_sites(vop, order, n_free)
        (psi, phi), imposed = kernel_solutions(
            vop, args.lam, free, rng, sids=domain
        )
    else:
        if not (args.psi_file and args.phi_file):
            raise DomainError("need --psi-file and --phi-file, or --solve")
        raw_psi = _cochain_from_json(_read_json(args.psi_file))
        raw_phi = _cochain_from_json(_read_json(args.phi_file))
        for name, vals in (("psi", raw_psi), ("phi", raw_phi)):
            for sid, v in vals.items():
                if v.shape != (op.vec_dim,):
                    raise DomainError(
                        f"{name} value at simplex {sid} has shape "
                        f"{v.shape}, operator expects ({op.vec_dim},)"
                    )
        psi = {to_sub[sid]: v for sid, v in raw_psi.items()}
        phi = {to_sub[sid]: v for sid, v in raw_phi.items()}
        imposed = None

    w = swronskian(vop, args.lam, psi, phi, require_real=False)
    report_cycle = verify_cycle(w, tol_rel=args.tol_rel, interior=imposed)
    report = {
        "metadata": _metadata(cycle_tol_rel=args.tol_rel),
        "lambda": args.lam,
        "chain": w.chain.to_json_dict(),
        "max_boundary_residual": report_cycle.max_boundary_residual,
        "scale": report_cycle.scale,
        "passed": report_cycle.passed,
        "checked_vertices": report_cycle.checked_vertices,
        "excluded_vertices": report_cycle.excluded_vertices,
    }
    if args.solve:
        report["seed"] = args.seed
    _write_json(report, args.output)
    return EXIT_OK if report_cycle.passed else EXIT_PROPERTY


# -- scattering --------------------------------------------------------------------


_SCATTER_TOLERANCES = dict(
    unimodular_tol=UNIMODULAR_TOL,
    pairing_tol=PAIRING_TOL,
    critical_gap=CRITICAL_GAP,
    kernel_rel_tol=KERNEL_REL_TOL,
)


def _scatter_fails(res, tol: float) -> bool:
    """A scattering result fails when its S misses ``tol`` in unitarity or
    symmetry, or its junction kernel has the wrong dimension."""
    if "kernel-dim-mismatch" in res.flags:
        return True
    return res.s_matrix is not None and (res.unitarity_residual > tol or res.symmetry_residual > tol)


def cmd_scatter(args) -> int:
    _tolerance(args.residual_tol, "--residual-tol")
    graph = load_tailed_graph(args.graph_file)
    report = {"metadata": _metadata(**_SCATTER_TOLERANCES)}
    if args.lo is not None or args.hi is not None:
        if args.lo is None or args.hi is None:
            raise DomainError("a scan needs both --lo and --hi")
        scan = band_scan(graph, args.lo, args.hi, args.samples)
        if args.csv:
            scan.to_csv(args.csv)
        report.update(scan.to_json_dict())
        results = [row.result for row in scan.rows]
    else:
        if args.lam is None:
            raise DomainError("give --lambda for one point or --lo/--hi for a scan")
        res = scattering_matrix(graph, args.lam)
        report.update(res.to_json_dict())
        results = [res]
    _write_json(report, args.output)
    return EXIT_PROPERTY if any(_scatter_fails(r, args.residual_tol) for r in results) else EXIT_OK


def cmd_spectrum(args) -> int:
    graph = load_tailed_graph(args.graph_file)
    states = regular_discrete_spectrum(graph, args.lo, args.hi, args.samples)
    report = {
        "metadata": _metadata(),
        "interval": [args.lo, args.hi],
        "bound_states": [
            {
                "lambda": st.lam,
                "sigma_min": st.sigma_min,
                "uncertain": st.uncertain,
                "singular": st.singular,
            }
            for st in states
        ],
    }
    _write_json(report, args.output)
    return EXIT_OK


def cmd_classify(args) -> int:
    op = load_line_operator(args.operator_file)
    if not op.constant:
        raise DomainError("classification scans need a constant operator")
    rows = _classify_grid(op, _grid(args.lo, args.hi, args.samples, 2))
    identity_ok = all(clf.critical or clf.identity_holds for clf in rows)
    crit = find_critical_points(op, args.lo, args.hi, args.samples)
    if args.csv:
        _write_csv(args.csv, [["lambda", "s", "p", "q", "critical_flag"]] + [
            [repr(float(clf.lam.real)), clf.s, clf.p, clf.q, int(clf.critical)]
            for clf in rows
        ])
    report = {
        "metadata": _metadata(
            unimodular_tol=UNIMODULAR_TOL, pairing_tol=PAIRING_TOL
        ),
        "kl": op.k * op.l,
        "grid": [args.lo, args.hi, args.samples],
        "counts": [
            {
                "lambda": float(clf.lam.real),
                "s": clf.s,
                "p": clf.p,
                "q": clf.q,
                "critical": clf.critical,
                "reason": clf.critical_reason,
            }
            for clf in rows
        ],
        "critical_points": [cp.to_json_dict() for cp in crit],
        "identity_holds": identity_ok,
    }
    _write_json(report, args.output)
    return EXIT_OK if identity_ok else EXIT_PROPERTY


# -- direct image ------------------------------------------------------------------


def _cover_from_json(data: dict) -> tuple[CoveringGraph, dict, int]:
    try:
        cover = CoveringGraph(
            tuple(data["orbits"]),
            tuple(tuple(e) for e in data["edges"]),
        )
        vec_dim = int(data.get("vec_dim", 1))
        blocks = _distinct((((int(b["from"]), int(b["to"]), int(b["shift"])), _matrix_from_json(b["matrix"]))
                            for b in data["blocks"]),
                           lambda key: f"cover block (from, to, shift) {key} appears twice")
    except KeyError as missing:
        raise DomainError(f"cover JSON lacks field {missing}") from None
    return cover, blocks, vec_dim


def cmd_direct_image(args) -> int:
    cover, blocks, vec_dim = _cover_from_json(_read_json(args.cover_file))
    op, image = direct_image(cover, blocks, vec_dim)

    gap = commutation_gap(cover, blocks, vec_dim, op, image, np.random.default_rng(args.seed), -3, 3)

    report = {
        "metadata": _metadata(),
        "line_operator": line_operator_to_json(op),
        "offsets": {str(a): o for a, o in image.offsets.items()},
        "orbit_order": list(image.orbit_order),
        "commutation_gap": gap,
        "seed": args.seed,
    }
    _write_json(report, args.output)
    if args.transfer_csv:
        transfer_to_csv(transfer_map(op, args.lam, args.site), args.transfer_csv)
    return EXIT_OK if gap == 0.0 else EXIT_PROPERTY


# -- nonlinear ---------------------------------------------------------------------


def _density_from_json(desc: dict):
    name = desc.get("name")
    if name in DENSITIES:
        return DENSITIES[name](**desc.get("params", {}))
    if name == "expression":
        return expression_density(int(desc["nvars"]), desc["expr"])
    raise DomainError(
        f"unknown density {name!r}; registered: {sorted(DENSITIES)} or 'expression'"
    )


def _system_from_json(data: dict) -> DiscreteLagrangianSystem:
    from .complex_core import complex_from_json

    graph = complex_from_json(data["graph"])
    chart = data.get("chart_dims", 1)
    if isinstance(chart, dict):
        chart = {int(v): d for v, d in chart.items()}
    allow_ends = bool(data.get("allow_ends", False))
    builder = data.get("builder")
    if builder:
        density = _density_from_json(data["density"])
        if builder == "translation-invariant":
            return build_translation_invariant(
                graph, density, chart, allow_ends=allow_ends
            )
        if builder == "homogeneous-order4":
            return build_homogeneous_order4(
                graph, density, chart, allow_ends=allow_ends
            )
        raise DomainError(f"unknown builder {builder!r}")
    inters = [
        (tuple(item["vertices"]), _density_from_json(item["density"]))
        for item in data["interactions"]
    ]
    return DiscreteLagrangianSystem(graph, inters, chart, allow_ends=allow_ends)


def _configuration_from_json(data, name: str) -> dict:
    values = {int(v): x for v, x in data.items()}
    return dict(zip(values, _vectors(name, values, list(values))))


def cmd_nonlinear(args) -> int:
    _tolerance(args.kernel_tol, "--kernel-tol")
    data = _read_json(args.system_file)
    system = _system_from_json(data)
    if "configuration" not in data:
        raise DomainError("system JSON needs a 'configuration' map")
    psi = _configuration_from_json(data["configuration"], "configuration")
    at = data.get("interior")  # absent: every vertex; [] is the empty set
    at = None if at is None else [int(v) for v in at]

    lin = linearize(system, psi, at=at)
    report = {
        "metadata": _metadata(kernel_tol=args.kernel_tol),
        "max_el_residual": lin.max_el_residual,
        "uses_fd": system.uses_fd(),
    }

    passed = True
    if "variations" in data:
        d1 = _configuration_from_json(data["variations"][0], "variations[0]")
        d2 = _configuration_from_json(data["variations"][1], "variations[1]")
        w = variational_swronskian(  # reuses the operator of ``lin``
            system, psi, d1, d2, at=at, kernel_tol=args.kernel_tol
        )
        rep = verify_cycle(w)
        report["chain"] = w.chain.to_json_dict()
        report["max_boundary_residual"] = rep.max_boundary_residual
        report["passed"] = rep.passed
        passed = rep.passed
    else:
        report["linearization"] = {
            "symmetric": lin.operator.is_symmetric(),
            "order": lin.operator.order,
            "warning": lin.warning,
            "uses_fd": lin.uses_fd,
        }
    _write_json(report, args.output)
    return EXIT_OK if passed else EXIT_PROPERTY


# -- verify ------------------------------------------------------------------------


def cmd_verify(args) -> int:
    rows = run_verify(
        args.suite,
        seed=args.seed,
        complex_file=args.complex_file,
        operator_file=args.operator_file,
    )
    for row in rows:
        mark = "PASS" if row.passed else "FAIL"
        detail = f"  {row.detail}" if row.detail else ""
        print(f"{mark} [{row.suite}] {row.name}{detail}")
    failed = sum(not r.passed for r in rows)
    print(f"{len(rows) - failed}/{len(rows)} invariants hold")
    if args.output:
        _write_json(
            {
                "metadata": _metadata(),
                "seed": args.seed,
                "results": [
                    {
                        "suite": r.suite,
                        "name": r.name,
                        "passed": r.passed,
                        "detail": r.detail,
                    }
                    for r in rows
                ],
            },
            args.output,
        )
    return EXIT_OK if failed == 0 else EXIT_PROPERTY


# -- parser ------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="swron",
        description="Conservation chains, lattice reductions, and scattering "
        "matrices for block operators on simplicial complexes.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("swronskian", help="pair chain of two solutions")
    p.add_argument("--complex-file", required=True)
    p.add_argument("--operator-file", required=True)
    p.add_argument("--lambda", dest="lam", type=float, default=0.0)
    p.add_argument("--psi-file")
    p.add_argument("--phi-file")
    p.add_argument("--solve", action="store_true",
                   help="construct kernel solutions instead of reading files")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol-rel", type=float, default=CYCLE_TOL_REL)
    p.add_argument("--on-asymmetry", choices=("reject", "symmetrize"),
                   default="reject")
    p.add_argument("--output")
    p.set_defaults(func=cmd_swronskian)

    p = subs.add_parser("scatter", help="scattering matrix or band scan")
    p.add_argument("--graph-file", required=True)
    p.add_argument("--lambda", dest="lam", type=float)
    p.add_argument("--lo", type=float)
    p.add_argument("--hi", type=float)
    p.add_argument("--samples", type=int, default=101)
    p.add_argument("--residual-tol", type=float, default=1e-7)
    p.add_argument("--csv", help="lambda-table destination for scans")
    p.add_argument("--output")
    p.set_defaults(func=cmd_scatter)

    p = subs.add_parser("spectrum", help="bound states in the tails' gaps, by inertia")
    p.add_argument("--graph-file", required=True)
    p.add_argument("--lo", type=float, required=True)
    p.add_argument("--hi", type=float, required=True)
    p.add_argument("--samples", type=int, default=201)
    p.add_argument("--output")
    p.set_defaults(func=cmd_spectrum)

    p = subs.add_parser("classify", help="monodromy counts over a grid, critical points in [lo, hi]")
    p.add_argument("--operator-file", required=True)
    p.add_argument("--lo", type=float, required=True)
    p.add_argument("--hi", type=float, required=True)
    p.add_argument("--samples", type=int, default=101, help="counts grid; the critical points, "
                   "read from the symbol, do not depend on it")
    p.add_argument("--csv")
    p.add_argument("--output")
    p.set_defaults(func=cmd_classify)

    p = subs.add_parser("direct-image", help="repack a cover operator onto the lattice")
    p.add_argument("--cover-file", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--transfer-csv", help="also export the transfer matrix")
    p.add_argument("--lambda", dest="lam", type=float, default=0.0)
    p.add_argument("--site", type=int, default=0)
    p.add_argument("--output")
    p.set_defaults(func=cmd_direct_image)

    p = subs.add_parser("nonlinear", help="stationarity and variational chain checks")
    p.add_argument("--system-file", required=True)
    p.add_argument("--kernel-tol", type=float, default=1e-8)
    p.add_argument("--output")
    p.set_defaults(func=cmd_nonlinear)

    p = subs.add_parser("verify", help="run invariant suites")
    p.add_argument("--suite", action="append", choices=sorted(SUITES),
                   help="repeatable; default all")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--complex-file", help="complex JSON for the complex/operators/swronskian suites")
    p.add_argument("--operator-file", help="line operator JSON (k, l, shift blocks; not the "
                   "block operator of `swron swronskian`) for the symplectic/classification suites")
    p.add_argument("--output")
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (DomainError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INPUT
    except (KeyError, ValueError, TypeError) as err:  # JSONDecodeError is a ValueError
        print(f"error: invalid input ({err})", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
