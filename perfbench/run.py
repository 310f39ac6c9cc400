"""stencilc benchmark: compile time and grid-point throughput.

    python3 perfbench/run.py --workload acoustic3d-so8 --seed 1 \\
        --seconds 36 --trace 0

Run from the root of a stencilc checkout; the package is imported from
its ``src/`` directory. ``--trace 0`` prints the end-to-end metrics,
``--trace 1`` the per-layer metrics of a separate traced run. The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it holds the
timing distributions and the machine record. See README.md.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from statistics import median
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _import_stencilc():
    """Import stencilc from this checkout's ``src/``, never from elsewhere."""
    if not (SRC / "stencilc" / "__init__.py").is_file():
        sys.exit("perfbench: no stencilc sources under %s" % SRC)
    sys.path.insert(0, str(SRC))
    import stencilc
    if SRC not in Path(stencilc.__file__).resolve().parents:
        sys.exit("perfbench: imported stencilc from %s, not %s"
                 % (stencilc.__file__, SRC))


def end_to_end(run, seconds):
    """End-to-end metrics: medians over the timed repetitions of each
    wall-clock time times its repetition's speed factor (README.md).
    Set-up and compile are pure Python and take the Python kernel's
    factor; the apply takes the factor of the kernel its workload's run
    is bound by."""
    from harness import peak_rss_mb
    run.attempt()  # warm-up, checked but not timed
    run.loop(seconds)
    rss = peak_rss_mb()
    run.oracle_check()
    s = run.samples
    setup = [t * f for t, f in zip(s["setup_s"], s["python_factor"])]
    compile_ = [t * f for t, f in zip(s["compile_s"], s["python_factor"])]
    apply = [t * f for t, f in zip(s["apply_s"],
                                   s[run.wl.run_kernel + "_factor"])]
    pts = run.wl.grid_points * run.wl.steps
    return {
        "setup_s": (median(setup), "s"),
        "compile_s": (median(compile_), "s"),
        "run_mpts": (pts / median(apply) / 1e6, "MPt/s"),
        "solve_s": (median([a + b + c for a, b, c
                            in zip(setup, compile_, apply)]), "s"),
        "peak_rss_mb": (rss, "MB"),
        "pass_rate": ((run.attempted - run.failed) / run.attempted, "ratio"),
    }


def _layer_sample(tracer, op, report, wl):
    """Per-layer figures of one traced repetition."""
    spans = tracer.spans
    named = lambda name: [i for i, s in enumerate(spans) if s.name == name]
    dur = lambda name: sum(spans[i].duration for i in named(name))
    own = lambda name: sum(tracer.self_time(i) for i in named(name))
    compile_i, = named("operator.compile")
    apply_i, = named("operator.apply")
    compile_s = spans[compile_i].duration
    apply_s = spans[apply_i].duration
    ccounts, acounts = spans[compile_i].counts, spans[apply_i].counts
    deps = [spans[i] for i in named("dependence")]
    clustering, = [spans[i] for i in named("clustering")]
    times = {
        "symbolic.build_s": dur("symbolic.build"),
        "operator.allocate_s": dur("operator.allocate"),
        "operator.cache_hit_s": dur("operator.cache_hit"),
        "lowering.self_s": own("lowering"),
        "dependence.time_s": dur("dependence"),
        "clustering.self_s": own("clustering"),
        "dse.time_s": dur("dse"),
        "iet.build_s": dur("iet.build"),
        "iet.analysis_self_s": own("iet.analysis"),
        "iet.placement_s": dur("iet.placement"),
        "iet.blocking_share": dur("iet.blocking") / compile_s,
        "codegen.emit_s": dur("codegen.emit"),
        "interpreter.self_s": own("interpreter"),
        "trace.compile_coverage":
            sum(c.duration for c in tracer.children(compile_i)) / compile_s,
        "trace.apply_coverage":
            sum(c.duration for c in tracer.children(apply_i)) / apply_s,
    }
    counts = {
        "lowering.affine_offset_calls": ccounts.get("affine_offset", 0),
        "lowering.collect_accesses_calls": ccounts.get("collect_accesses", 0),
        "dependence.calls": len(deps),
        "dependence.deps_returned": sum(s.size for s in deps),
        "clustering.clusters_out": clustering.size,
        "interpreter.evaluate_calls": acounts.get("evaluate", 0),
        "interpreter.free_symbols_calls": acounts.get("free_symbols", 0),
        "interpreter.stmt_execs": sum(sec["points"]
                                      for sec in report.values()),
    }
    counts.update(static_counts(op, wl))
    return times, counts


def static_counts(op, wl):
    """Figures read off the compiled operator; they do not vary by run."""
    from stencilc.backend.interpreter import DTYPES
    from stencilc.iet import PARALLEL, iterations, statements
    from stencilc.lowering import collect_accesses
    art = op.artifact
    stmts = [s.eq for s in statements(art.iet)]
    array_temps = {eq.lhs.func.name for eq in stmts
                   if eq.lhs.func.kind == "temp" and eq.lhs.indices}
    # Distinct array accesses of the statements that run once per grid
    # point (not the sparse ones), times the item size: bytes per point as
    # computed from the code, not as measured.
    accesses = set()
    for eq in stmts:
        if any(d.kind == "sparse" for d in eq.ispace.dims):
            continue
        for acc in [eq.lhs] + collect_accesses(eq.rhs):
            if acc.indices:
                accesses.add(repr(acc))
    itemsize = DTYPES[op.dtype]().itemsize
    loops = iterations(art.iet)
    return {
        "dse.ops_before": sum(art.op_count_before),
        "dse.ops_after": sum(art.op_count_after),
        "dse.array_temps": len(array_temps),
        "iet.loops": len(loops),
        "iet.parallel_loops": sum(PARALLEL in it.properties for it in loops),
        "codegen.source_bytes": len(art.source.encode()),
        "interpreter.grid_pts": wl.grid_points * wl.steps,
        "interpreter.bytes_per_pt": len(accesses) * itemsize,
    }


LAYER_UNITS = {
    "interpreter.bytes_per_pt": "B/pt-computed",
    "iet.blocking_share": "ratio",
    "trace.compile_coverage": "ratio",
    "trace.apply_coverage": "ratio",
    "trace.overhead": "ratio",
    "interpreter.workers2_speedup": "ratio",
    "interpreter.workers2_mismatch_rate": "ratio",
}


def per_layer(run, seconds):
    """Untraced and traced repetitions, alternating. Per-layer times are
    medians over the traced ones; counts must repeat exactly."""
    from harness import MIN_REPS
    from stencilc.backend import Operator
    from tracing import Tracer
    run.attempt()  # warm-up, checked but not timed
    tracer = Tracer()
    counts = None
    reps = 0
    start = perf_counter()
    while reps < MIN_REPS or perf_counter() - start < seconds:
        reps += 1
        out = run.attempt()
        if out is not None:
            run.samples["untraced_solve_s"].append(out["times"]["solve_s"])
            run.samples["untraced_apply_s"].append(out["times"]["apply_s"])
            run.samples["apply_w2_s"].append(run.workers2_check(run.first))
        tracer.spans.clear()
        tracer.install()
        try:
            out = run.attempt(tracer=tracer)
            if out is not None:
                op = out["op"]
                with tracer.span("operator.cache_hit"):
                    again = Operator(op.eqs, mode=op.mode, block=op.block)
        finally:
            tracer.uninstall()
        if out is None:
            continue
        if not again.cache_hit:
            raise RuntimeError("second Operator(...) missed the cache")
        times, rep_counts = _layer_sample(tracer, op, out["report"], run.wl)
        if counts is not None and rep_counts != counts:
            raise RuntimeError("per-layer counts differ between repetitions:"
                               " %r vs %r" % (counts, rep_counts))
        counts = rep_counts
        run.samples["traced_solve_s"].append(out["times"]["solve_s"])
        for name, value in times.items():
            run.samples[name].append(value)
    if counts is None:
        raise RuntimeError("no traced repetition passed its checks")
    run.oracle_check()
    s = run.samples
    metrics = {name: (median(s[name]), LAYER_UNITS.get(name, "s"))
               for name in times}
    for name, value in counts.items():
        metrics[name] = (value, LAYER_UNITS.get(name, "count"))
    metrics["trace.overhead"] = (
        median(s["traced_solve_s"]) / median(s["untraced_solve_s"]),
        "ratio")
    metrics["interpreter.workers2_speedup"] = (
        median(s["untraced_apply_s"]) / median(s["apply_w2_s"]), "ratio")
    metrics["interpreter.workers2_mismatch_rate"] = (
        run.workers2_mismatches / max(1, run.workers2_applied), "ratio")
    return metrics


def main(argv=None) -> int:
    from workloads import TINY, WORKLOADS
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="run the workload at test size")
    args = ap.parse_args(argv)
    _import_stencilc()
    from harness import WorkloadRun, machine, summarize

    wl = (TINY if args.tiny else WORKLOADS)[args.workload]
    run = WorkloadRun(wl, args.seed)
    if args.trace:
        metrics = per_layer(run, args.seconds)
    else:
        metrics = end_to_end(run, args.seconds)
    info = machine(ROOT)
    detail = {
        "workload": wl.name, "seed": args.seed, "trace": args.trace,
        "grid": list(wl.shape), "steps": wl.steps, "mode": wl.mode,
        "block": wl.block, "machine": info,
        "working_set_mb_computed": run.working_set_bytes / 2 ** 20,
        "llc_mb": info["llc_bytes"] / 2 ** 20 if info["llc_bytes"] else None,
        "timings": {k: summarize(v) for k, v in sorted(run.samples.items())},
        "calibration_s": {k: summarize(v)
                          for k, v in sorted(run.calibration.items())} or None,
        "workers2": {"applied": run.workers2_applied,
                     "mismatches": run.workers2_mismatches},
        "failures": run.failures[:5],
    }
    if run.workers2_mismatches:
        print("perfbench: %d of %d workers=2 applies differ bitwise from "
              "workers=1" % (run.workers2_mismatches, run.workers2_applied),
              file=sys.stderr)
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
