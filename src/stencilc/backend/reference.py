"""The reference oracle: unoptimized lowered equations, executed directly.

``reference_run`` runs each equation in its own loop nest over its own
iteration space, in program order, each loop in its space's direction,
and serves as the differential-testing oracle for ``run``. Each maximal
run of consecutive equations with a time dimension shares one outer time
loop, wherever their spaces put it, reversed if one of them runs t
backward; an equation without one runs where it stands, between the time
loops. The compiler schedules its clusters in this order too, as
Devito's cluster scheduling does. Where an equation can be swept, it
runs as whole-array slice operations whose offsets come from the
equation's access table (``LoweredEq.offsets``, derived once by
lowering), not from the interpreter's execution plan, so a fault in the
plan's slicing shows as a difference. Every other equation runs per point (``_point``), walking its
expression tree with ``evaluate``, which the interpreter never calls. It
shares with the interpreter only ``_point_index`` (index rounding, the
time modulo, bounds), ``_ARRAY_CALLS`` and the error types, so per-point
statements such as source injection and receiver interpolation are
checked against an independent executor too. Every access is checked
against the allocated extents.
"""

from __future__ import annotations

import itertools
import operator
from functools import partial, reduce
from typing import Dict, Sequence

from ..lowering import BACKWARD, OPAQUE, LoweredEq
from ..symbolic.expr import (Access, Add, Call, Constant, Expr, ExprError,
                             Mul, Pow, Symbol, children_of, evaluate,
                             free_symbols)
from .interpreter import (_ARRAY_CALLS, BackendError, DataBuffer,
                          _out_of_range, _point_index)


def _array(arrays, f):
    try:
        return arrays[f.name]
    except KeyError:
        raise BackendError("no buffer for %r" % f.name) from None


def _point_indices(acc: Access, env, arrays) -> tuple:
    shape = _array(arrays, acc.func).shape
    read = partial(_point_read, env, arrays)
    return tuple(_point_index(acc.func, pos,
                              evaluate(i, env, on_access=read), shape[pos])
                 for pos, i in enumerate(acc.indices))


def _point_read(env, arrays, acc: Access):
    return _array(arrays, acc.func)[_point_indices(acc, env, arrays)]


def _point(eq: LoweredEq, env, arrays):
    """Execute one equation at the point bound in ``env``. The helpers are
    module functions, not closures: closures that call each other form a
    cycle that would keep every buffer alive until the next cyclic
    collection."""
    val = evaluate(eq.rhs, env, on_access=partial(_point_read, env, arrays))
    target = _array(arrays, eq.lhs.func)
    if eq.is_increment:
        target[_point_indices(eq.lhs, env, arrays)] += val
    else:
        target[_point_indices(eq.lhs, env, arrays)] = val


def _overlap(a, b) -> bool:
    """Whether two index parts (integers or unit-step slices) meet."""
    a = a if isinstance(a, slice) else slice(a, a + 1)
    b = b if isinstance(b, slice) else slice(b, b + 1)
    return a.start < b.stop and b.start < a.stop


def _sweep_plan(eq: LoweredEq, names):
    """``[(access, [(axis or None, offset, index), ...]), ...]`` for every
    entry of the equation's access table (left-hand side first), from the
    storage offsets the table holds per access. None when ``eq`` cannot be
    swept over the loops ``names``: it writes no grid function, reads a
    temporary, uses a swept loop as a value, calls ``idiv``, has an index
    that is neither ``loop + offset`` nor free of the swept loops, or its
    left-hand side does not span them in order."""

    def sweepable(e):
        if isinstance(e, Symbol):
            return e.name not in names
        if isinstance(e, Access):
            return e.func.kind != "temp"
        if isinstance(e, Call) and e.name not in _ARRAY_CALLS:
            return False
        return all(sweepable(c) for c in children_of(e))

    if eq.lhs.func.kind not in ("function", "timefunction") or \
            not sweepable(eq.rhs):
        return None
    plan = []
    for acc, offsets in zip(eq.accesses, eq.offsets):
        entries = []
        for (_, loop, k), idx in zip(offsets, acc.indices):
            if loop.name in names and k is not OPAQUE:
                entries.append((names.index(loop.name), k, idx))
            elif free_symbols(idx) & set(names):
                return None
            else:
                entries.append((None, 0, idx))
        axes = [a for a, _, _ in entries if a is not None]
        if axes != sorted(set(axes)) or \
                (not plan and axes != list(range(len(names)))):
            return None
        plan.append((acc, entries))
    return plan


def _sweep_value(e: Expr, views, env):
    if isinstance(e, (Constant, Symbol)):
        return evaluate(e, env)
    if isinstance(e, Access):
        return views[e]
    args = [_sweep_value(c, views, env) for c in children_of(e)]
    if isinstance(e, Add):
        return reduce(operator.add, args)
    if isinstance(e, Mul):
        return reduce(operator.mul, args)
    if isinstance(e, Pow):
        return args[0] ** e.exponent
    return _ARRAY_CALLS[e.name](*args)


def _sweep(eq: LoweredEq, plan, ranges, env, arrays) -> bool:
    """Whole-array execution of one equation over the box ``ranges``;
    False when the per-point path must run it instead. Safe only when the
    written region is disjoint from every read region of the same array."""
    written, views = None, {}
    for acc, entries in plan:
        f = acc.func
        shape = _array(arrays, f).shape
        parts, bshape = [], [1] * len(ranges)
        for pos, (axis, k, idx) in enumerate(entries):
            if axis is None:
                try:
                    value = evaluate(idx, env)
                except ExprError:
                    return False
                parts.append(_point_index(f, pos, value, shape[pos]))
                continue
            lo, hi = ranges[axis]
            if lo + k < 0 or hi + k + 1 > shape[pos]:
                raise _out_of_range(f, pos, lo + k, hi + k + 1, shape[pos])
            parts.append(slice(lo + k, hi + k + 1))
            bshape[axis] = hi - lo + 1
        if written is None:
            written = tuple(parts)
        elif f is eq.lhs.func and all(map(_overlap, written, parts)):
            return False
        else:
            views[acc] = arrays[f.name][tuple(parts)].reshape(bshape)
    val = _sweep_value(eq.rhs, views, env)
    if eq.is_increment:
        arrays[eq.lhs.func.name][written] += val
    else:
        arrays[eq.lhs.func.name][written] = val
    return True


def reference_run(eqs: Sequence[LoweredEq], buffers: Dict[str, DataBuffer],
                  params: dict) -> Dict[str, DataBuffer]:
    """Execute unoptimized lowered equations in program order, one loop
    nest per equation following its own iteration space; each run of
    consecutive equations with a time dimension shares one outer time
    loop."""
    if not eqs:
        return buffers
    env = dict(params)
    arrays = {name: b.data for name, b in buffers.items()}
    plans: dict = {}

    def exec_eq(i: int, eq: LoweredEq, tval):
        if tval is not None:
            for g in eq.guards:
                if tval % g.factor != 0:
                    return
            tdim = next(d for d in eq.ispace.dims if d.is_time)
            env[tdim.root.name] = tval
        dims = [d for d in eq.ispace.dims if not d.is_time]
        ranges = []
        for d in dims:
            iv = eq.ispace.interval_of(d)
            lo = env.get(d.name + "_m")
            hi = env.get(d.name + "_M")
            if lo is None or hi is None:
                raise BackendError("unbound bounds for %s" % d.name)
            ranges.append((int(lo) + iv.lower, int(hi) + iv.upper))
        if any(h < l for l, h in ranges):
            return
        if all(d.kind == "space" for d in dims):
            if i not in plans:
                plans[i] = _sweep_plan(eq, [d.name for d in dims])
            if plans[i] is not None and \
                    _sweep(eq, plans[i], ranges, env, arrays):
                return
        for point in itertools.product(*[
                range(h, l - 1, -1)
                if eq.ispace.direction_of(d) == BACKWARD else range(l, h + 1)
                for d, (l, h) in zip(dims, ranges)]):
            for d, v in zip(dims, point):
                env[d.name] = v
            _point(eq, env, arrays)

    def timed(item):
        return any(d.is_time for d in item[1].ispace.dims)

    try:
        for is_timed, run in itertools.groupby(enumerate(eqs), timed):
            run = list(run)
            steps = range(int(env["t_m"]), int(env["t_M"]) + 1) \
                if is_timed else [None]
            if any(eq.ispace.direction_of(d) == BACKWARD
                   for _, eq in run for d in eq.ispace.dims if d.is_time):
                steps = reversed(steps)
            for tval in steps:
                for i, eq in run:
                    exec_eq(i, eq, tval)
    except ExprError as err:
        raise BackendError(str(err)) from None
    return buffers
