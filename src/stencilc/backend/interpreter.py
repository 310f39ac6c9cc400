"""Execution of loop-nest trees over in-memory arrays.

``run`` first builds an execution plan, once per call: every tree node
becomes a closure. Loop bounds and indices that use no vector loop (such
as the modulo time index) become small closures over the bindings. Under
a sliceable nest (a perfect nest of parallel, unit-stride, forward space
loops around statements only) each array index becomes its affine form
``(axis, const, ((symbol, coeff), ...))`` (block-local temporaries index
with ``x - xb``), and each right-hand side a closure tree of numpy
operations that folds sums and products left to right. The plan decides
once per nest whether its statements run as whole-array slice operations
or per point through ``evaluate`` (a non-affine or transposed index, a
loop symbol used as a value, integer division of arrays); sparse
scatter/gather and loops outside such nests run per point too. Running a
block is then only slice arithmetic, bounds checks and numpy calls. Every
access is checked against the allocated extents (``BoundsError``).

A sliced nest runs all its statements over one slab of its outermost loop
at a time, each slab at most ``SLAB_POINTS`` grid points (at least one
outer index), so that the temporaries of a whole-grid nest stay in cache.
Every loop of such a nest is parallel, so slabs never change the
arithmetic of a point; a nest that fits in one slab runs once.

The report gives per section the elapsed ``time``, the statement
executions (``points``, one per statement and grid point) and how many of
them ran ``sliced`` and ``per_point``, so that a silent fallback shows.

A parallel loop may be split into contiguous chunks across a worker pool;
each chunk gets its own copies of the array temporaries declared private
at or below that loop. Chunking never changes the arithmetic of a point,
so results are independent of the pool size.

The per-point path, ``_point``, is shared with the reference oracle
(``reference.py``), which never uses the plan.
"""

from __future__ import annotations

import operator
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import partial, reduce
from time import perf_counter
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from ..iet import (ATOMIC, PARALLEL, Block, Conditional, ExpressionStmt,
                   Iteration, Section, statements, walk)
from ..lowering import BACKWARD, LoweredEq, linear_form
from ..symbolic.expr import (Access, Add, Call, Constant, Expr, ExprError,
                             Mul, Pow, Symbol, children_of, evaluate,
                             free_symbols)

DTYPES = {"f32": np.float32, "f64": np.float64}

#: Grid points per slab of a sliced nest: 512 KiB per f64 temporary.
SLAB_POINTS = 1 << 16

#: numpy forms of the builtin calls, for arrays and scalars alike;
#: ``idiv`` takes scalars only and is handled apart.
_ARRAY_CALLS = {"sin": np.sin, "cos": np.cos, "sqrt": np.sqrt,
                "floor": np.floor,
                "min": lambda *args: reduce(np.minimum, args),
                "max": lambda *args: reduce(np.maximum, args)}


class BackendError(ValueError):
    """Raised on malformed execution requests (unbound symbols, unsized
    temporaries, bad dtypes)."""


class BoundsError(IndexError):
    """Raised when any access falls outside the allocated extents."""


@dataclass
class DataBuffer:
    """A zero-initialized row-major array backing one declared function."""

    name: str
    dtype: str
    extents: Tuple[int, ...]
    data: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.dtype not in DTYPES:
            raise BackendError("bad dtype %r" % self.dtype)
        self.extents = tuple(int(e) for e in self.extents)
        if self.data is None:
            self.data = np.zeros(self.extents, DTYPES[self.dtype])
        elif tuple(self.data.shape) != self.extents:
            raise BackendError("data shape %r does not match extents %r"
                               % (self.data.shape, self.extents))


def allocate(decl, nt: Optional[int] = None, dtype: str = "f64") -> DataBuffer:
    return DataBuffer(decl.name, dtype, decl.storage_extents(nt))


@dataclass(slots=True)
class _Frame:
    """Per-worker execution state: bindings, scalar temporaries, the arrays
    statements touch (in a chunk, its own private temporaries), statement
    executions per path, and the inclusive loop ranges and scalar
    temporaries of the sliced nest running now."""

    env: dict
    arrays: Dict[str, np.ndarray]
    scalars: dict = field(default_factory=dict)
    chunked: bool = False
    sliced: int = 0
    per_point: int = 0
    lo: list = field(default_factory=list)
    hi: list = field(default_factory=list)
    defined: dict = field(default_factory=dict)


def temp_extents(decl, env) -> Tuple[int, ...]:
    """``decl.temp_extents()`` with each runtime bound read from ``env``."""
    extents = []
    for bound, k in decl.temp_extents():
        if bound is not None:
            if bound not in env:
                raise BackendError("cannot size temporary %s: %s unbound"
                                   % (decl.name, bound))
            k += int(env[bound])
        extents.append(k)
    return tuple(extents)


def _lookup(table: dict, name: str, what: str):
    try:
        return table[name]
    except KeyError:
        raise BackendError("%s %r" % (what, name)) from None


def _array(fr: _Frame, f) -> np.ndarray:
    return _lookup(fr.arrays, f.name, "no buffer for")


def _out_of_range(f, pos: int, start: int, stop: int, extent: int):
    return BoundsError("%s indices [%d, %d) out of range [0, %d) along axis "
                       "%d" % (f.name, start, stop, extent, pos))


def _point_index(f, pos: int, value: float, extent: int) -> int:
    v = int(round(value))
    if pos == 0 and f.is_modulo_time:
        v %= f.time_dim.modulo
    if not 0 <= v < extent:
        raise _out_of_range(f, pos, v, v + 1, extent)
    return v


def _point_indices(acc: Access, fr: _Frame) -> tuple:
    shape = _array(fr, acc.func).shape
    read = partial(_point_read, fr)
    return tuple(_point_index(acc.func, pos,
                              evaluate(i, fr.env, on_access=read),
                              shape[pos])
                 for pos, i in enumerate(acc.indices))


def _point_read(fr: _Frame, acc: Access):
    f = acc.func
    if f.kind == "temp" and not acc.indices:
        return _lookup(fr.scalars, f.name, "read of undefined scalar")
    return _array(fr, f)[_point_indices(acc, fr)]


def _point(eq: LoweredEq, fr: _Frame):
    """Execute one statement at the point bound in ``fr.env``. The helpers
    are module functions, not closures over the frame: closures that call
    each other form a cycle that would keep every buffer alive until the
    next cyclic collection."""
    try:
        val = evaluate(eq.rhs, fr.env, on_access=partial(_point_read, fr))
    except ExprError as err:
        raise BackendError(str(err))
    fr.per_point += 1
    f = eq.lhs.func
    if f.kind == "temp" and not eq.lhs.indices:
        fr.scalars[f.name] = val
    elif eq.is_increment:
        _array(fr, f)[_point_indices(eq.lhs, fr)] += val
    else:
        _array(fr, f)[_point_indices(eq.lhs, fr)] = val


# -- Plan ----------------------------------------------------------------------


def _index_plan(acc: Access, dims: Sequence[str]):
    """Per index of ``acc``: its affine form ``(axis, const, ((symbol,
    coeff), ...))`` when it is ``dims[axis] + const + sum(coeff *
    symbol)`` with integer ``const`` and coefficients, or ``(None, 0,
    ())`` when it uses no loop of ``dims``.
    None when an index is neither, or the vector axes do not increase."""
    out, axes = [], []
    for idx in acc.indices:
        used = free_symbols(idx) & set(dims)
        if not used:
            out.append((None, 0, ()))
            continue
        form = linear_form(idx)
        if form is None or len(used) > 1:
            return None
        const, coeffs = form
        name = used.pop()
        axis = dims.index(name)
        if coeffs.pop(name) != 1 or (axes and axis <= axes[-1]):
            return None
        k = int(const)
        terms = {n: int(c) for n, c in coeffs.items()}
        if k != const or terms != coeffs:
            return None
        axes.append(axis)
        out.append((axis, k, tuple(terms.items())))
    return out


def _fold(op, fns):
    first, rest = fns[0], fns[1:]

    def fold(fr: _Frame):
        out = first(fr)
        for fn in rest:
            out = op(out, fn(fr))
        return out
    return fold


def _statement(eq: LoweredEq, index, value):
    """The closure running one sliced statement; ``index`` is None for a
    scalar temporary, which the nest keeps in ``defined``."""
    name = eq.lhs.func.name

    def bind(fr: _Frame):
        fr.defined[name] = value(fr)

    def store(fr: _Frame):
        val = value(fr)
        if eq.is_increment:
            fr.arrays[name][index(fr)] += val
        else:
            fr.arrays[name][index(fr)] = val
    return bind if index is None else store


class _Planner:
    """Turns tree nodes into closures over a ``_Frame``, once per ``run``;
    owns the worker pool and the report the sections fill."""

    def __init__(self, buffers: Dict[str, DataBuffer], report: dict,
                 workers: int):
        self.extents = {name: b.extents for name, b in buffers.items()}
        self.report = report
        self.workers = max(1, int(workers))
        self.pool = ThreadPoolExecutor(self.workers) if self.workers > 1 \
            else None

    def close(self):
        if self.pool is not None:
            self.pool.shutdown()

    def node(self, n):
        if isinstance(n, Iteration):
            return self.iteration(n)
        if isinstance(n, ExpressionStmt):
            eq = n.eq
            return lambda fr: _point(eq, fr)
        if not isinstance(n, (Block, Section, Conditional)):
            raise BackendError("cannot execute node %r" % (n,))
        kids = [self.node(c) for c in n.children]

        def body(fr: _Frame):
            for k in kids:
                k(fr)
        if isinstance(n, Conditional):
            guards = [(g.dim.name, g.factor) for g in n.guards]

            def conditional(fr: _Frame):
                for name, factor in guards:
                    val = fr.env.get(name)
                    if val is None:
                        raise BackendError("unbound guard symbol %r" % name)
                    if val % factor != 0:
                        return
                body(fr)
            return conditional
        if isinstance(n, Section):
            slot = {"time": 0.0, "points": 0, "sliced": 0, "per_point": 0}

            def section(fr: _Frame):
                t0, sliced, per_point = perf_counter(), fr.sliced, fr.per_point
                body(fr)
                self.report.setdefault(n.name, slot)
                slot["time"] += perf_counter() - t0
                slot["sliced"] += fr.sliced - sliced
                slot["per_point"] += fr.per_point - per_point
                slot["points"] = slot["sliced"] + slot["per_point"]
            return section
        return body

    def scalar(self, e: Expr):
        """A closure computing ``e`` at the current bindings."""
        compiled = self.value(e, (), {})
        if compiled is None:
            raise BackendError("cannot evaluate %r" % (e,))
        return compiled[0]

    def iteration(self, n: Iteration):
        lower, upper = self.scalar(n.lower), self.scalar(n.upper)
        step, name = n.step, n.dim.name
        backward = n.direction == BACKWARD
        body = self.nest(n)
        if body is None:
            kids = [self.node(c) for c in n.children]

            def body(fr: _Frame, indices):
                for v in indices:
                    fr.env[name] = v
                    for k in kids:
                        k(fr)
        chunkable = (self.pool is not None and PARALLEL in n.properties and
                     ATOMIC not in n.properties and not n.dim.is_time and
                     not backward)
        private = [d.decl.name for nd in walk(n)
                   for d in getattr(nd, "declarations", ())
                   if d.scope == "private" and
                   d.decl.name in self.extents] if chunkable else []

        def iteration(fr: _Frame):
            indices = range(int(round(lower(fr))), int(round(upper(fr))) + 1,
                            step)
            if backward:
                indices = indices[::-1]
            if chunkable and not fr.chunked and len(indices) > 1:
                self.chunks(body, indices, fr, private)
            elif indices:
                body(fr, indices)
        return iteration

    def chunks(self, body, indices, fr: _Frame, private):
        """Run ``body`` over contiguous chunks of ``indices`` on the pool,
        each chunk with its own zeroed copy of the ``private`` arrays."""
        size = -(-len(indices) // min(self.workers, len(indices)))
        frames, futs = [], []
        for i in range(0, len(indices), size):
            arrays = dict(fr.arrays)
            for name in private:
                arrays[name] = np.zeros_like(arrays[name])
            frames.append(_Frame(dict(fr.env), arrays, chunked=True))
            futs.append(self.pool.submit(body, frames[-1],
                                         indices[i:i + size]))
        for f in futs:
            f.result()
        fr.sliced += sum(sub.sliced for sub in frames)
        fr.per_point += sum(sub.per_point for sub in frames)

    def nest(self, n: Iteration):
        """The sliced executor ``(frame, indices)`` of the nest headed by
        ``n``, or None when it must run per point."""
        loops, cur = [], n
        while True:
            if cur.dim.kind != "space" or PARALLEL not in cur.properties or \
                    cur.step != 1 or cur.direction == BACKWARD:
                return None
            loops.append(cur)
            kids = cur.children
            if kids and all(isinstance(k, ExpressionStmt) for k in kids):
                break
            if len(kids) != 1 or not isinstance(kids[0], Iteration):
                return None
            cur = kids[0]
        dims = [it.dim.name for it in loops]
        if any(free_symbols(b) & set(dims)
               for it in loops[1:] for b in (it.lower, it.upper)):
            return None
        bounds = [(self.scalar(it.lower), self.scalar(it.upper))
                  for it in loops[1:]]
        defined: Dict[str, bool] = {}
        stmts = []
        for eq in (k.eq for k in cur.children):
            value = self.value(eq.rhs, dims, defined)
            if value is None:
                return None
            if eq.lhs.func.kind == "temp" and not eq.lhs.indices:
                defined[eq.lhs.func.name] = value[1]
                stmts.append(_statement(eq, None, value[0]))
                continue
            target = self.access(eq.lhs, dims, defined)
            if target is None or target[1] != tuple(range(len(dims))):
                return None
            stmts.append(_statement(eq, target[0], value[0]))

        def nest(fr: _Frame, indices):
            lo0, hi0 = indices[0], indices[-1]
            lo, hi, row = [lo0], [hi0], 1
            for lower, upper in bounds:
                l, h = int(round(lower(fr))), int(round(upper(fr)))
                if h < l:
                    return
                lo.append(l)
                hi.append(h)
                row *= h - l + 1
            fr.lo, fr.hi = lo, hi
            slab = max(1, SLAB_POINTS // row)
            for start in range(lo0, hi0 + 1, slab):
                lo[0], hi[0] = start, min(start + slab - 1, hi0)
                fr.defined = {}
                for s in stmts:
                    s(fr)
            fr.sliced += (hi0 - lo0 + 1) * row * len(stmts)
        return nest

    def access(self, acc: Access, dims, defined):
        """``(index closure, vector axes)`` of an array access, or None."""
        f = acc.func
        if f.name not in self.extents:
            raise BackendError("no buffer for %s" % f.name)
        plan = _index_plan(acc, dims)
        if plan is None:
            return None
        extents = self.extents[f.name]
        fixed, vector = [], []
        for pos, (idx, (axis, const, terms)) in enumerate(zip(acc.indices,
                                                              plan)):
            if axis is not None:
                vector.append((pos, axis, const, terms, extents[pos]))
                continue
            value = self.value(idx, dims, defined)
            if value is None or value[1]:
                return None
            fixed.append((pos, value[0]))

        def index(fr: _Frame) -> tuple:
            idx = [None] * len(plan)
            for pos, value in fixed:
                idx[pos] = _point_index(f, pos, value(fr), extents[pos])
            lo, hi = fr.lo, fr.hi
            for pos, axis, off, terms, extent in vector:
                for s, k in terms:
                    off += k * _lookup(fr.env, s, "unbound symbol")
                start, stop = lo[axis] + off, hi[axis] + off + 1
                if start < 0 or stop > extent:
                    raise _out_of_range(f, pos, start, stop, extent)
                idx[pos] = slice(start, stop)
            return tuple(idx)
        return index, tuple(v[1] for v in vector)

    def value(self, e: Expr, dims, defined):
        """``(closure, is_array)`` computing ``e`` over the current nest
        ranges of ``dims``, or None when it cannot."""
        if isinstance(e, Constant):
            const = float(e.value)
            return (lambda fr: const), False
        if isinstance(e, Symbol):
            name = e.name

            def symbol(fr: _Frame) -> float:
                return float(_lookup(fr.env, name, "unbound symbol"))
            return None if name in dims else (symbol, False)
        if isinstance(e, Access) and e.func.kind == "temp" and not e.indices:
            name = e.func.name
            if name in defined:
                return (lambda fr: fr.defined[name]), defined[name]
            return (lambda fr: _lookup(fr.scalars, name,
                                       "read of undefined scalar")), False
        if isinstance(e, Access):
            target = self.access(e, dims, defined)
            if target is None:
                return None
            (index, axes), name = target, e.func.name
            if len(axes) in (0, len(dims)):
                return (lambda fr: fr.arrays[name][index(fr)]), bool(axes)

            def broadcast(fr: _Frame):
                shape = [1] * len(dims)
                for k in axes:
                    shape[k] = fr.hi[k] - fr.lo[k] + 1
                return fr.arrays[name][index(fr)].reshape(shape)
            return broadcast, True
        kids = [self.value(c, dims, defined) for c in children_of(e)]
        if None in kids:
            return None
        fns, is_array = [k[0] for k in kids], any(k[1] for k in kids)
        if isinstance(e, (Add, Mul)):
            op = operator.add if isinstance(e, Add) else operator.mul
            return _fold(op, fns), is_array
        if isinstance(e, Pow):
            base, exponent = fns[0], e.exponent
            return (lambda fr: base(fr) ** exponent), is_array
        if isinstance(e, Call) and e.name == "idiv" and not is_array:
            a, b = fns
            return (lambda fr: float(int(a(fr)) // int(b(fr)))), False
        if isinstance(e, Call) and e.name in _ARRAY_CALLS:
            fn = _ARRAY_CALLS[e.name]
            return (lambda fr: fn(*[k(fr) for k in fns])), is_array
        return None


def run(iet, buffers: Dict[str, DataBuffer], params: dict,
        workers: int = 1) -> dict:
    """Execute an optimized tree in place over ``buffers``. Returns the
    profiling report: per section, elapsed ``time``, statement executions
    (``points``) and how many of them ran ``sliced`` and ``per_point``.
    Array temporaries get sized from the runtime bounds (block-local ones
    from their block shape plus producer span) and allocated on entry."""
    env = dict(params)
    dtype = next(iter(buffers.values())).dtype if buffers else "f64"
    for s in statements(iet):
        f = s.eq.lhs.func
        if f.kind == "temp" and s.eq.lhs.indices and f.name not in buffers:
            buffers[f.name] = DataBuffer(f.name, dtype,
                                         temp_extents(f, env))
    report: dict = {}
    planner = _Planner(buffers, report, workers)
    try:
        execute = planner.node(iet)
        execute(_Frame(env, {name: b.data for name, b in buffers.items()}))
    finally:
        planner.close()
    return report
