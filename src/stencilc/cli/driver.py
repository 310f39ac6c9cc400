"""Command-line driver: compile, run, and report on problem specs."""

from __future__ import annotations

import argparse
import sys
from typing import Optional

from ..backend import BackendError, BoundsError, Operator
from ..backend.codegen import block_tiles, temp_extents
from ..dse import MODES
from ..iet import dump as dump_iet
from ..iet import statements
from ..lowering import LoweringError
from ..symbolic.expr import ExprError
from ..symbolic.grid import DeclarationError
from .parser import ProblemSpec, SpecError, parse_spec


#: ``run``'s time step when ``--dt`` is not given; ``--block auto`` times
#: its candidate block shapes with it too
DT = 0.01


class CliError(ValueError):
    pass


def _load_spec(path: str) -> ProblemSpec:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as err:
        raise CliError(str(err))
    return parse_spec(text)


def _parse_block(spec: ProblemSpec, flag: Optional[str]):
    value = flag if flag is not None else spec.params.get("block")
    if value in (None, "none"):
        return None
    if value == "auto":
        return "auto"
    dims = [d.name for d in spec.grid.dimensions]
    try:
        sizes = [int(s) for s in value.lower().split("x")]
    except ValueError:
        raise CliError("bad block shape %r" % value)
    if len(sizes) != len(dims):
        raise CliError("block shape %r does not match a %dD grid"
                       % (value, len(dims)))
    return dict(zip(dims, sizes))


def _build(spec: ProblemSpec, mode: Optional[str] = None,
           block: Optional[str] = None,
           precision: Optional[str] = None, dt: float = DT) -> Operator:
    if not spec.equations:
        raise CliError("spec declares no equations")
    mode = mode or spec.params.get("mode", "advanced")
    if mode not in MODES:
        raise CliError("unknown mode %r" % mode)
    dtype = precision or spec.params.get("precision", "f64")
    shape = _parse_block(spec, block)
    if shape == "auto":
        from ..backend.operator import autotune
        shape = autotune(spec.equations, mode=mode, dtype=dtype, dt=dt)
    return Operator(spec.equations, mode=mode, block=shape, dtype=dtype)


def _cmd_compile(args) -> int:
    spec = _load_spec(args.spec)
    op = _build(spec, args.mode, args.block, args.precision)
    if args.emit_c:
        with open(args.emit_c, "w", encoding="utf-8") as fh:
            fh.write(op.source)
    art = op.artifact
    print("compiled %d equations into %d clusters, %d sections"
          % (len(op.eqs), len(art.clusters), len(art.sections)))
    return 0


def _dump_buffer(buf, path: str):
    import numpy as np
    data = np.ascontiguousarray(buf.data, dtype="<" + buf.data.dtype.str[1:])
    header = "%s %s %d %s\n" % (buf.name, buf.dtype, data.ndim,
                                " ".join(str(e) for e in data.shape))
    with open(path, "wb") as fh:
        fh.write(header.encode())
        fh.write(data.tobytes())


def _cmd_run(args) -> int:
    spec = _load_spec(args.spec)
    op = _build(spec, args.mode, args.block, args.precision, args.dt)
    steps = args.steps if args.steps is not None \
        else spec.params.get("steps", 1)
    workers = args.workers if args.workers is not None \
        else spec.params.get("workers", 1)
    buffers, report = op.apply(steps=steps, workers=workers, dt=args.dt)
    for name in sorted(report):
        print("%s points=%d" % (name, report[name]["points"]))
        print("%s time=%.6fs" % (name, report[name]["time"]),
              file=sys.stderr)
    for item in args.dump or ():
        if "=" not in item:
            raise CliError("bad --dump %r (want FUNC=PATH)" % item)
        name, path = item.split("=", 1)
        if name not in buffers:
            raise CliError("unknown function %r" % name)
        _dump_buffer(buffers[name], path)
    return 0


def report_text(spec: ProblemSpec, mode: str, timings: bool = False) -> str:
    if not spec.equations:
        return "clusters: 0\n"
    op = _build(spec, mode)
    art = op.artifact
    lines = []
    lines.append("mode: %s" % op.mode)
    lines.append("clusters before dse: %d" % len(art.op_count_before))
    for i, n in enumerate(art.op_count_before):
        lines.append("  cluster %d ops: %d" % (i, n))
    lines.append("total before: %d" % sum(art.op_count_before))
    lines.append("clusters after dse: %d" % len(art.op_count_after))
    for i, n in enumerate(art.op_count_after):
        lines.append("  cluster %d ops: %d" % (i, n))
    lines.append("total after: %d" % sum(art.op_count_after))

    env = op.default_params(steps=1)
    tiles = block_tiles(art.iet)
    temps = {}
    for s in statements(art.iet):
        f = s.eq.lhs.func
        if f.kind == "temp" and f.dims and f.name not in temps:
            n = 1
            for bound, k in temp_extents(f, tiles):
                n *= k + (int(env[bound]) if bound else 0)
            temps[f.name] = n
    lines.append("temporaries: %d arrays, %d elements"
                 % (len(temps), sum(temps.values())))
    lines.append("iet:")
    lines.append(dump_iet(art.iet))
    if timings:
        for name, t in art.pass_times.items():
            lines.append("pass %s: %.6fs" % (name, t))
    else:
        lines.append("passes: " + ", ".join(art.pass_times))
    return "\n".join(lines) + "\n"


def _cmd_report(args) -> int:
    spec = _load_spec(args.spec)
    sys.stdout.write(report_text(spec, args.mode, timings=args.timings))
    return 0


def _make_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="stencilc")
    sub = ap.add_subparsers(dest="command", required=True)

    c = sub.add_parser("compile", help="compile a problem spec")
    c.add_argument("spec")
    c.add_argument("--mode", choices=MODES)
    c.add_argument("--block")
    c.add_argument("--emit-c", dest="emit_c")
    c.add_argument("--precision", choices=("f32", "f64"))
    c.set_defaults(fn=_cmd_compile)

    r = sub.add_parser("run", help="compile and execute")
    r.add_argument("spec")
    r.add_argument("--steps", type=int)
    r.add_argument("--workers", type=int)
    r.add_argument("--mode", choices=MODES)
    r.add_argument("--block")
    r.add_argument("--precision", choices=("f32", "f64"))
    r.add_argument("--dt", type=float, default=DT)
    r.add_argument("--dump", action="append")
    r.set_defaults(fn=_cmd_run)

    p = sub.add_parser("report", help="op counts and tree dump")
    p.add_argument("spec")
    p.add_argument("--mode", choices=MODES, required=True)
    p.add_argument("--timings", action="store_true")
    p.set_defaults(fn=_cmd_report)
    return ap


def main(argv=None) -> int:
    args = _make_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (SpecError, CliError, BackendError, BoundsError, LoweringError,
            ExprError, DeclarationError) as err:
        print("error: %s" % err, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
