"""swron benchmark: one workload, one process, timed end to end.

    python3 bench/run.py --workload pairchain --seed 1 --seconds 20 --trace 0

Workloads: pairchain, variational, scatter, sweep (see bench/README.md).
With ``--trace 0`` the run reports the end-to-end metrics; with
``--trace 1`` it runs a fixed number of rounds untraced and then traced,
and reports per-layer calls and self time plus the tracing overhead.
Human-readable lines come first; the last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.
Spans of a traced run are written to bench/out/.

The checkout's own ``src/`` is imported; nothing needs to be installed.
"""

import os
import sys

# One BLAS thread, set before numpy loads; swron's own thread knob stays unset.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("SWRON_THREADS", None)

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

GEN_REPEATS = 3  # median of these; the traced run keeps two copies, warms up on a third


class SetupError(RuntimeError):
    pass


def import_swron() -> float:
    """Import swron from this checkout; returns the seconds it took."""
    if not (SRC / "swron" / "__init__.py").is_file():
        raise SetupError(f"no swron package under {SRC}")
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import swron
    elapsed = time.perf_counter() - t0
    if Path(swron.__file__).resolve().parent != SRC / "swron":
        raise SetupError(f"imported swron from {swron.__file__}, not {SRC}")
    return elapsed


def environment(np) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
    }


def run_op(wl, op, clock, call=None):
    """Run one op; returns (reference seconds, wall seconds, failure
    reason or None).  A failure is counted, never raised."""
    reason = None
    t0 = time.perf_counter()
    try:
        result = call(wl.run, op) if call else wl.run(op)
    except Exception as exc:  # the op's failure is the measurement
        reason = f"{type(exc).__name__}: {exc}"
    wall = time.perf_counter() - t0
    ref = clock.scale(wall)
    if reason is None:
        try:
            reason = wl.check(op, result)
        except Exception as exc:
            reason = f"gate raised {type(exc).__name__}: {exc}"
    return ref, wall, reason


def run_rounds(wl, rounds, clock, call=None):
    ref, wall, failures = [], 0.0, []
    for rnd in rounds:
        for op in rnd:
            r, w, reason = run_op(wl, op, clock, call)
            ref.append(r)
            wall += w
            if reason:
                failures.append(reason)
    return ref, wall, failures


def percentile(values, q):
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def measure(wl, rounds, make, clock, seconds):
    """Whole rounds until the ops have been busy for ``seconds`` of wall
    time.  After ``rounds``, fresh inputs come from ``make(batch)``, so no
    op runs on inputs whose caches an earlier op filled.  The caller keeps
    no reference to ``rounds``: each spent batch is freed before the next
    is made, so peak memory does not grow with the number of batches."""
    ref, wall, failures, batch = [], 0.0, [], 0
    while True:
        for rnd in rounds:
            r, w, bad = run_rounds(wl, [rnd], clock)
            ref += r
            wall += w
            failures += bad
            if wall >= seconds:
                return ref, wall, failures
        batch += 1
        rnd = rounds = None
        rounds = make(batch)


def layer_metrics(tr, untraced, traced) -> dict:
    """Per-layer calls and self time (wall seconds) plus the tracing
    overhead in ops/s (reference seconds, untraced vs traced)."""
    from tracer import OP, layer_names

    totals = tr.layer_totals()
    out = {}
    for name in layer_names():
        calls, self_s = totals[name]
        out[f"{name}.calls"] = (calls, "count")
        out[f"{name}.self_s"] = (self_s, "s")
    out[f"{OP}.self_s"] = (totals[OP][1], "s")

    def ratio(a, b):
        return a / b if b else 0.0

    out["operators.validation_per_chain"] = (
        ratio(totals["operators.validation"][0], totals["swronskian.swronskian"][0]), "ratio")
    out["line_lattice.swronskian_form_per_point"] = (
        ratio(totals["line_lattice.swronskian_form"][0], totals["scattering.tail_modes"][0]),
        "ratio")
    out["scattering.s_defined_ratio"] = (ratio(tr.s_defined, tr.s_points), "ratio")
    out["scattering.unitarity_max"] = (tr.unitarity_max, "ratio")
    out["swronskian.cycle_residual_max"] = (tr.cycle_residual_max, "ratio")
    plain = len(untraced) / sum(untraced)
    with_spans = len(traced) / sum(traced)
    out["tracing.untraced_ops_per_s"] = (plain, "1/s")
    out["tracing.traced_ops_per_s"] = (with_spans, "1/s")
    out["tracing.overhead_pct"] = (100.0 * (plain - with_spans) / plain, "%")
    out["tracing.spans"] = (len(tr.spans), "count")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("pairchain", "variational", "scatter", "sweep"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: the smoke test's input sizes")
    args = parser.parse_args(argv)

    try:
        import_s = import_swron()
    except (SetupError, ImportError) as exc:
        print(f"bench: cannot import swron from this checkout: {exc}", file=sys.stderr)
        return 2
    import numpy as np
    from refclock import REFERENCE_KERNEL_S, RefClock
    from tracer import Tracer
    from workloads import SIZES, WORKLOADS

    wl = WORKLOADS[args.workload](SIZES[args.size])
    pool = wl.pool_rounds if args.size == "full" else 1

    def make(batch):
        return wl.make_rounds(args.seed, pool, batch)

    clock = RefClock()  # its first kernel runs right after the import
    import_ref = import_s * REFERENCE_KERNEL_S / clock.last
    # the untraced run keeps one copy of the inputs, the traced run two
    # (one per pass); one op of a spare copy warms up numpy's lazy set-up
    keep = 1 + args.trace
    copies, gen_s, gen_ref, warm = [], [], [], None
    for _ in range(GEN_REPEATS):
        t0 = time.perf_counter()
        rounds = make(0)
        gen_s.append(time.perf_counter() - t0)
        gen_ref.append(clock.scale(gen_s[-1]))
        if len(copies) < keep:
            copies.append(rounds)
        elif warm is None:
            warm = rounds[0][0]
        rounds = None
    setup_wall = import_s + statistics.median(gen_s)
    setup_s = import_ref + statistics.median(gen_ref)

    env = environment(np)
    print("env " + json.dumps(env, sort_keys=True))
    print(f"workload {args.workload} seed {args.seed} size {args.size} trace {args.trace}")

    run_op(wl, warm, clock)
    warm = None
    gc.collect()
    if args.trace == 0:
        lat, wall, failures = measure(wl, copies.pop(), make, clock, args.seconds)
        attempted = len(lat)
        metrics = {
            "setup_s": (setup_s, "s"),
            "ops_per_s": (len(lat) / sum(lat), "1/s"),
            "op_p50_ms": (1e3 * percentile(lat, 0.50), "ms"),
            "op_p90_ms": (1e3 * percentile(lat, 0.90), "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        beyond = sum(1 for x in lat if 1e3 * x > metrics["op_p90_ms"][0])
        print(f"  latency samples {len(lat)}, {beyond} beyond p90")
        print(f"  wall clock: {len(lat) / wall:.4g} ops/s, set-up {setup_wall:.4g} s; "
              f"machine speed {clock.speed():.3f} of the reference")
    else:
        rounds = wl.trace_rounds if args.size == "full" else 1
        untraced, _, failures = run_rounds(wl, copies[0][:rounds], clock)
        with Tracer() as tr:
            traced, _, bad = run_rounds(wl, copies[1][:rounds], clock, call=tr.op)
        failures += bad
        attempted = len(untraced) + len(traced)
        metrics = layer_metrics(tr, untraced, traced)
        out_dir = BENCH / "out"
        out_dir.mkdir(exist_ok=True)
        spans_path = out_dir / f"spans-{args.workload}-seed{args.seed}.json"
        tr.write(spans_path, {"workload": args.workload, "seed": args.seed,
                              "size": args.size, "rounds": rounds, "env": env})
        print(f"  spans written to {spans_path.relative_to(ROOT)}")

    for name, (value, unit) in metrics.items():
        print(f"  {name:44s} {value:14.6g} {unit}")
    print(f"  ops_failed {len(failures)} of ops_attempted {attempted}")
    for reason in failures[:10]:
        print(f"  FAILED: {reason}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
