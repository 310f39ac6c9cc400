"""Execution of loop-nest trees over in-memory arrays.

``run`` first builds an execution plan, once per call: every tree node
becomes a closure, and every statement a closure tree of numpy
operations that folds sums and products left to right. Loop bounds and
indices that use no vector loop (such as the modulo time index) become
small closures over the bindings. Under a sliceable nest (a perfect nest
of parallel, unit-stride, forward space loops around statements only)
each array index becomes its affine form ``(axis, const)``, and the
statements run as whole-array slice operations. Every other statement
(sparse scatter/gather; a nest with a non-affine or transposed index, a
loop symbol used as a value or integer division of arrays) runs per
point, planned with no vector loop: each index is a scalar and each
access a 0-d view. Every access is checked against the allocated
extents (``BoundsError``); a missing buffer fails while planning, before
any statement runs.

Index forms come from the offset table that lowering keeps on each
access (``lowering.recorded_offsets``): an index tabled as ``loop + k``
is read from it, and only the others, untabled or ``OPAQUE`` (some DSE
temporaries, sparse indices), are parsed with ``linear_form``. With no
vector loop every index is a scalar, and none is parsed. Each access's
view closure offsets the nest's ranges by its indices' constants, checks
the bounds and slices.

Tiles buy cache reuse in the emitted C; numpy gains nothing from them,
so each band of block loops runs as one block. A block loop runs once,
or not at all when its own range is empty; each loop it tiles (a loop
under it over its dimension's ``parent``) runs its whole unblocked
range, the bounds of its interval, through the ordinary executors. The
tree indexes every temporary in grid coordinates, and each is sized
over the whole grid (``FunctionDecl.temp_extents``); only the C stores
the ones declared inside block loops one block at a time. The block
loops are parallel and their temporaries local to a block, so this only
reorders statements across independent blocks, and the report counts
the unblocked operator's points: a point that the C recomputes in the
halo of several blocks runs once here.

A sliced nest runs all its statements over one slab of its outermost
loop at a time (``_slabs``), each slab at most ``SLAB_POINTS`` grid
points per statement (at least one outer index), so that the
temporaries of a whole-grid nest stay in cache. Every loop of such a
nest is parallel and carries no reduction, so slabs never change the
arithmetic of a point; a nest that fits in one slab runs once. A nest
with an ATOMIC loop, one that carries a reduction, runs per point in the
tree's order, as the C does. A scalar temporary of a nest is dropped
after its last reader, so a slab holds only the ones still to be read.

A sliced statement allocates nothing: every array-valued node writes
its result into a workspace slot with the ufunc's ``out=``, and a store
copies the root's slot into its target, never evaluating into the
target, which the right-hand side may read. The slots of a nest are
planned once: each array-valued scalar temporary takes the next one,
its own until the nest ends, and each statement evaluates its root into
the first slot above those. A node evaluated into slot k evaluates its
operands into k until k holds its value (from its first fold step, or
from an operand that evaluated into k), the later ones into k + 1, and a
power its base into k + 1. Sums, products, ``min`` and ``max`` keep
their left folds: the scalars before the first array fold in Python,
and every later step is ``ufunc(acc, next, out=k)``. Views, scalar
temporaries and scalars take no slot. The slots are flat arrays of the
run's dtype as long as the largest slab, allocated once per ``run``
call for each thread (the calling thread and each worker, by the index
of its run of slabs) and shared by the call's nests; each slab reshapes
their first points.

Every value has the run's dtype, as in the emitted C: a scalar (a
constant, a parameter, a loop index used as a value, an ``idiv``, a
scalar sub-expression or temporary) is a Python float in a float64 run
and an ``np.float32`` in a float32 one. A builtin call (``sin``, ``cos``,
``sqrt``, ``floor``) computes in float64 and rounds to the run's dtype,
as the C's ``(float)sin(x)`` does; an array call writes the rounded
result into its workspace slot.

The report gives per section the elapsed ``time``, the statement
executions (``points``, one per statement and grid point) and how many of
them ran ``sliced`` and ``per_point``, so that a silent fallback shows.

Under a worker pool, each sliced nest with more than one slab gives
every worker one contiguous run of its slabs, on its own frame. numpy
releases the GIL inside its calls, so only sliced work gains from the
pool. Everything else, a one-slab nest among it, runs on the calling
thread. The workers run the slabs the calling thread would, so results
are independent of the pool size.

The reference oracle (``reference.py``) never uses the plan: it walks
each equation's expression tree itself, and shares with this module only
``_point_index`` (index rounding, the time modulo, bounds),
``_ARRAY_CALLS`` and the error types.
"""

from __future__ import annotations

import operator
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import reduce
from math import prod
from time import perf_counter
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from ..iet import (ATOMIC, BLOCKED, PARALLEL, Block, Conditional,
                   ExpressionStmt, Iteration, Section, _bounds, statements)
from ..lowering import (BACKWARD, OPAQUE, LoweredEq, linear_form,
                        recorded_offsets)
# ``evaluate`` is bound, not called: a count of its calls here reads 0.
from ..symbolic.expr import (Access, Add, Call, Constant, Expr, Mul, Pow,
                             Symbol, children_of, evaluate, free_symbols)

DTYPES = {"f32": np.float32, "f64": np.float64}

#: Grid points per slab of a sliced nest: 512 KiB per f64 temporary.
SLAB_POINTS = 1 << 16

#: numpy forms of the builtin calls, for arrays and scalars alike;
#: ``idiv`` takes scalars only and is handled apart.
_ARRAY_CALLS = {"sin": np.sin, "cos": np.cos, "sqrt": np.sqrt,
                "floor": np.floor,
                "min": lambda *args: reduce(np.minimum, args),
                "max": lambda *args: reduce(np.maximum, args)}

#: The left folds: per node type or call name, the operation that folds
#: scalars and the ufunc that folds into a workspace slot.
_FOLDS = {Add: (operator.add, np.add), Mul: (operator.mul, np.multiply),
          "min": (np.minimum, np.minimum), "max": (np.maximum, np.maximum)}


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
        elif self.data.dtype != DTYPES[self.dtype]:
            raise BackendError("%s: %s data in a %s buffer"
                               % (self.name, self.data.dtype, self.dtype))


def allocate(decl, nt: Optional[int] = None, dtype: str = "f64") -> DataBuffer:
    return DataBuffer(decl.name, dtype, decl.storage_extents(nt))


@dataclass(slots=True)
class _Frame:
    """Execution state of one thread: bindings, scalar temporaries (those
    of the sliced nest running now hold arrays), the arrays statements
    touch, statement executions per path, and the first index and the
    length of each loop of the sliced nest over the slab running now,
    with its workspace slots shaped to that slab. A worker running a run
    of slabs gets its own."""

    env: dict
    arrays: Dict[str, np.ndarray]
    scalars: dict = field(default_factory=dict)
    sliced: int = 0
    per_point: int = 0
    lo: list = field(default_factory=list)
    size: list = field(default_factory=list)
    work: list = field(default_factory=list)


def _lookup(table: dict, name: str, what: str):
    try:
        return table[name]
    except KeyError:
        raise BackendError("%s %r" % (what, name)) from None


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


# -- Plan ----------------------------------------------------------------------


#: The plan of an index that uses no vector loop.
_FIXED = (None, 0)


def _parsed_form(idx: Expr, dims: Sequence[str]):
    """The affine form of ``idx`` (see ``_index_plan``) parsed from the
    index itself, ``_FIXED`` when it uses no loop of ``dims``, or None."""
    used = free_symbols(idx) & set(dims)
    if not used:
        return _FIXED
    form = linear_form(idx)
    if form is None:
        return None
    const, coeffs = form
    name = used.pop()
    if coeffs != {name: 1} or int(const) != const:
        return None
    return dims.index(name), int(const)


def _index_plan(acc: Access, dims: Sequence[str]):
    """Per index of ``acc``: its affine form ``(axis, const)`` when it is
    ``dims[axis] + const`` with an integer ``const``, or ``(None, 0)``
    when it uses no loop of ``dims``.
    None when an index is neither, or the vector axes do not increase.
    An index that lowering's offset table (``recorded_offsets``) gives
    as ``loop + k`` is read from it; only the others are parsed."""
    n = len(acc.indices)
    if not dims:
        return [_FIXED] * n
    table = recorded_offsets(acc) or (None,) * n
    out, last = [], -1
    for idx, entry in zip(acc.indices, table):
        if entry is None or entry[2] is OPAQUE:
            form = _parsed_form(idx, dims)
        elif entry[1].name in dims:
            form = (dims.index(entry[1].name), entry[2])
        else:
            form = _FIXED
        if form is None or form[0] is not None and form[0] <= last:
            return None
        last = last if form[0] is None else form[0]
        out.append(form)
    return out


def _fold(op, fns):
    first, rest = fns[0], fns[1:]

    def fold(fr: _Frame):
        out = first(fr)
        for fn in rest:
            out = op(out, fn(fr))
        return out
    return fold


def _fold_into(op, ufunc, kids, slot: int):
    """``_fold`` of ``kids``, ``(closure, is_array)`` pairs of which at
    least one is an array, into workspace slot ``slot``: the scalars
    before the first array fold with ``op``, and every later step is
    ``ufunc(acc, next, out=slot)``."""
    first = [k[1] for k in kids].index(True)
    fns = [k[0] for k in kids]
    lead = _fold(op, fns[:first]) if first else None
    head, rest = fns[first], fns[first + 1:]

    def fold(fr: _Frame):
        out = fr.work[slot]
        acc = head(fr) if lead is None else ufunc(lead(fr), head(fr),
                                                  out=out)
        for fn in rest:
            acc = ufunc(acc, fn(fr), out=out)
        return acc
    return fold


def _power(base, n: int, slot: Optional[int] = None):
    """``base ** n`` as the emitted C writes it: the product of |n|
    factors, left to right, and ``1.0/`` that product when n < 0. The base
    is evaluated once. An array base multiplies into workspace slot
    ``slot``."""

    def power(fr: _Frame):
        b = base(fr)
        out = b
        for _ in range(abs(n) - 1):
            out = out * b
        return 1.0 / out if n < 0 else out

    def power_into(fr: _Frame):
        b, into = base(fr), fr.work[slot]
        out = b
        for _ in range(abs(n) - 1):
            out = np.multiply(out, b, out=into)
        return np.divide(1.0, out, out=into) if n < 0 else out
    return power if slot is None else power_into


def _statement(eq: LoweredEq, view, value, drop: tuple):
    """The closure running one statement; ``view`` is None for a scalar
    temporary, which the frame keeps in ``scalars``. A sliced nest drops
    each of its own after the statement that reads it last (``drop``)."""
    name = eq.lhs.func.name

    def bind(fr: _Frame):
        fr.scalars[name] = value(fr)
        for d in drop:
            del fr.scalars[d]

    def store(fr: _Frame):
        val = value(fr)
        if eq.is_increment:
            target = view(fr)
            target += val
        else:
            view(fr)[...] = val
        for d in drop:
            del fr.scalars[d]
    return bind if view is None else store


def _slabs(count: int, points: int) -> list:
    """``count`` outer indices of ``points`` points each, cut into slabs
    ``(start, length)`` of at most ``SLAB_POINTS`` points and at least one
    index. The first slab is the largest."""
    run = max(1, SLAB_POINTS // points)
    return [(start, min(run, count - start))
            for start in range(0, count, run)]


def _view(f, fixed, vector, along, whole: bool):
    """``_Planner.access``'s view closure: it offsets the nest's ranges by
    each vector index's constant, checks the bounds and slices. Unless
    the access varies along every loop of the nest or along none
    (``whole``), the view gets one axis per loop, of length 1 where it
    does not vary."""
    name = f.name
    template = [None] * (len(fixed) + len(vector)) + [Ellipsis]

    def view(fr: _Frame) -> np.ndarray:
        idx = template.copy()
        for pos, value, extent in fixed:
            idx[pos] = _point_index(f, pos, value(fr), extent)
        lo, size = fr.lo, fr.size
        for pos, axis, off, extent in vector:
            start = lo[axis] + off
            stop = start + size[axis]
            if start < 0 or stop > extent:
                raise _out_of_range(f, pos, start, stop, extent)
            idx[pos] = slice(start, stop)
        out = fr.arrays[name][tuple(idx)]
        if whole:
            return out
        shape = [1] * len(size)
        for k in along:
            shape[k] = size[k]
        return out.reshape(shape)
    return view


class _Planner:
    """Turns tree nodes into closures over a ``_Frame``, once per ``run``;
    owns the worker pool, which only sliced nests use, and the report
    the sections fill."""

    def __init__(self, extents: Dict[str, Tuple[int, ...]], report: dict,
                 workers: int, dtype):
        self.extents = extents
        self.dtype = dtype
        #: the type of every scalar value: Python's float in a float64
        #: run, ``np.float32`` in a float32 one
        self.real = float if dtype == np.float64 else dtype
        #: workspace slots that the nest being planned uses so far
        self.slots = 0
        #: per run index, the flat workspace slots (``workspace``)
        self.spaces: Dict[int, list] = {}
        #: the dimensions that the block loops around the node being
        #: planned tile
        self.tiled: set = set()
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
            return self.statement(n.eq)
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

    def bounds(self, it: Iteration):
        """Closures of ``it``'s lower and upper bounds; when a block loop
        around it tiles it, those of the interval it was built from, its
        whole unblocked range."""
        lower, upper = _bounds(it.key[0]) if it.dim.name in self.tiled \
            else (it.lower, it.upper)
        return self.scalar(lower), self.scalar(upper)

    def statement(self, eq: LoweredEq):
        """The closure running one statement outside a sliced nest, at the
        point bound in the frame: every index of every access is a scalar,
        and each array access a 0-d view."""
        view = None
        if eq.lhs.func.kind != "temp" or eq.lhs.indices:
            target = self.access(eq.lhs, (), {})
            if target is None:
                raise BackendError("cannot evaluate %r" % (eq.lhs,))
            view = target[0]
        run_statement = _statement(eq, view, self.scalar(eq.rhs), ())

        def statement(fr: _Frame):
            run_statement(fr)
            fr.per_point += 1
        return statement

    def iteration(self, n: Iteration):
        if BLOCKED in n.properties:
            return self.block(n)
        sliced = self.sliced(n)
        if sliced is not None:
            return sliced
        lower, upper = self.bounds(n)
        step, name = n.step, n.dim.name
        backward = n.direction == BACKWARD
        kids = [self.node(c) for c in n.children]

        def iteration(fr: _Frame):
            indices = range(int(round(lower(fr))), int(round(upper(fr))) + 1,
                            step)
            for v in indices[::-1] if backward else indices:
                fr.env[name] = v
                for k in kids:
                    k(fr)
        return iteration

    def block(self, n: Iteration):
        """The closure of the block loop ``n``: it runs its body once, or
        not at all when its range is empty. Each loop in the body over the
        dimension ``n`` blocks runs its whole range, so nothing in the
        body reads the block loop's own index."""
        lower, upper = self.scalar(n.lower), self.scalar(n.upper)
        parent = n.dim.parent.name
        self.tiled.add(parent)
        kids = [self.node(c) for c in n.children]
        self.tiled.discard(parent)

        def block(fr: _Frame):
            if lower(fr) <= upper(fr):
                for k in kids:
                    k(fr)
        return block

    def sliced(self, n: Iteration):
        """The executor ``(frame)`` of the perfect nest of parallel,
        unit-stride, forward space loops that carry no reduction around
        statements headed by ``n``, or None when ``n`` heads no such nest
        or a statement does not slice. It reads its loop bounds itself
        and runs in slabs of its outermost loop (``_slabs``). Under the
        worker pool, each worker runs one contiguous run of the slabs on
        its own frame; the nest runs on the caller's frame when there is
        no pool or one slab.

        Every array-valued node evaluates into a workspace slot (see
        ``value``). Each array-valued scalar temporary takes the next
        slot, its own for the rest of the nest, and each statement
        evaluates its root into the first slot above those taken so far.
        Each thread running slabs reshapes its slots to every slab
        (``workspace``)."""
        loops, cur = [], n
        while True:
            if cur.dim.kind != "space" or PARALLEL not in cur.properties or \
                    ATOMIC in cur.properties or cur.step != 1 or \
                    cur.direction == BACKWARD:
                return None
            loops.append(cur)
            kids = cur.children
            if kids and all(isinstance(k, ExpressionStmt) for k in kids):
                break
            if len(kids) != 1 or not isinstance(kids[0], Iteration):
                return None
            cur = kids[0]
        dims = tuple(it.dim.name for it in loops)
        defined: Dict[str, bool] = {}
        #: per scalar temporary, the statement that reads it last
        last: Dict[str, int] = {}
        parts = []
        taken = self.slots = 0
        for i, eq in enumerate(k.eq for k in cur.children):
            value = self.value(eq.rhs, dims, defined, taken)
            if value is None:
                return None
            for acc in eq.accesses[1:]:
                if acc.func.name in defined:
                    last[acc.func.name] = i
            if eq.lhs.func.kind == "temp" and not eq.lhs.indices:
                defined[eq.lhs.func.name] = value[1]
                last[eq.lhs.func.name] = i
                taken += value[1]
                parts.append((eq, None, value[0]))
                continue
            target = self.access(eq.lhs, dims, defined)
            if target is None or target[1] != tuple(range(len(dims))):
                return None
            parts.append((eq, target[0], value[0]))
        drops = [[] for _ in parts]
        for name, i in last.items():
            drops[i].append(name)
        stmts = [_statement(*part, tuple(drop))
                 for part, drop in zip(parts, drops)]
        bounds = [self.bounds(it) for it in loops]
        slots = self.slots

        def run_slabs(fr: _Frame, lo, size, slabs, space):
            row = prod(size[1:])
            inner = row * len(stmts)
            for start, rows in slabs:
                fr.lo, fr.size = [lo[0] + start] + lo[1:], [rows] + size[1:]
                fr.work = [w[:rows * row].reshape(fr.size) for w in space]
                for s in stmts:
                    s(fr)
                fr.sliced += rows * inner

        def sliced(fr: _Frame):
            lo = [int(round(lower(fr))) for lower, _ in bounds]
            size = [int(round(upper(fr))) - first + 1
                    for (_, upper), first in zip(bounds, lo)]
            if min(size) <= 0:
                return
            slabs = _slabs(size[0], prod(size[1:]))
            points = slabs[0][1] * prod(size[1:])
            if self.pool is None or len(slabs) == 1:
                run_slabs(fr, lo, size, slabs,
                          self.workspace(0, slots, points))
                return
            each = -(-len(slabs) // self.workers)
            runs = [slabs[i:i + each] for i in range(0, len(slabs), each)]
            frames = [_Frame(fr.env, fr.arrays, dict(fr.scalars))
                      for _ in runs]
            futures = [self.pool.submit(run_slabs, sub, lo, size, part,
                                        self.workspace(i, slots, points))
                       for i, (sub, part) in enumerate(zip(frames, runs))]
            for f in futures:
                f.result()
            fr.sliced += sum(sub.sliced for sub in frames)
        return sliced

    def workspace(self, i: int, slots: int, points: int) -> list:
        """``slots`` flat workspace slots of the run's dtype, each at least
        ``points`` long (a nest's largest slab), for the thread running
        the ``i``-th run of a nest's slabs; the calling thread's are the
        0-th. They are allocated once and kept for the whole ``run``
        call, shared by its sliced nests, which never run at the same
        time; a nest with a larger slab replaces them."""
        space = self.spaces.setdefault(i, [])
        if space and space[0].size < points:
            space.clear()
        size = space[0].size if space else points
        space += [np.empty(size, self.dtype)
                  for _ in range(slots - len(space))]
        return space[:slots]

    def access(self, acc: Access, dims: Sequence[str], defined):
        """``(view closure, vector axes)`` of an array access, or None.
        The view broadcasts over the points of the nest of ``dims``."""
        f = acc.func
        if f.name not in self.extents:
            raise BackendError("no buffer for %s" % f.name)
        plan = _index_plan(acc, dims)
        if plan is None:
            return None
        extents = self.extents[f.name]
        fixed, vector = [], []
        for pos, (idx, (axis, const)) in enumerate(zip(acc.indices, plan)):
            if axis is None:
                fixed.append((pos, self.value(idx, dims, defined)[0],
                              extents[pos]))
            else:
                vector.append((pos, axis, const, extents[pos]))
        along = tuple(v[1] for v in vector)
        whole = len(along) in (0, len(dims))
        return _view(f, fixed, vector, along, whole), along

    def value(self, e: Expr, dims: Sequence[str], defined,
              slot: Optional[int] = None):
        """``(closure, is_array)`` computing ``e`` over the current ranges
        of the nest of ``dims``, or None when it cannot. Given a ``slot``,
        an array-valued node writes its result into that workspace slot
        with the ufunc's ``out=``. It evaluates its operands into
        ``slot`` too until ``slot`` holds its value (from its first fold
        step, or from an operand that evaluated into it), and the later
        ones into ``slot + 1``; a power evaluates its base into ``slot +
        1``. Views, scalar temporaries and scalars take no slot; a scalar
        is a value of the run's scalar type (``real``). With no ``slot``,
        as for a bound or an index, every result is a new value."""
        real = self.real
        if isinstance(e, Constant):
            const = real(e.value)
            return (lambda fr: const), False
        if isinstance(e, Symbol):
            name = e.name

            def symbol(fr: _Frame):
                return real(_lookup(fr.env, name, "unbound symbol"))
            return None if name in dims else (symbol, False)
        if isinstance(e, Access) and e.func.kind == "temp" and not e.indices:
            name = e.func.name
            return (lambda fr: _lookup(fr.scalars, name,
                                       "read of undefined scalar")), \
                defined.get(name, False)
        if isinstance(e, Access):
            target = self.access(e, dims, defined)
            if target is None:
                return None
            return target[0], bool(target[1])
        kids, busy, seen = [], isinstance(e, Pow), False
        for c in children_of(e):
            kid = self.value(c, dims, defined,
                             None if slot is None else slot + busy)
            if kid is None:
                return None
            # ``slot`` holds the node's value from its first fold step on
            # (any operand after the first array one, or that one after
            # scalars), or from a first array operand evaluated into it
            busy = busy or seen or kid[1] and (
                bool(kids) or not isinstance(c, Access))
            seen = seen or kid[1]
            kids.append(kid)
        fns, is_array = [k[0] for k in kids], any(k[1] for k in kids)
        into = slot if is_array else None
        if into is not None:
            self.slots = max(self.slots, into + 1)
        fold = _FOLDS.get(e.name if isinstance(e, Call) else type(e))
        if fold is not None:
            return (_fold(fold[0], fns) if into is None
                    else _fold_into(*fold, kids, into)), is_array
        if isinstance(e, Pow):
            return _power(fns[0], e.exponent, into), is_array
        if isinstance(e, Call) and e.name == "idiv" and not is_array:
            a, b = fns
            return (lambda fr: real(int(a(fr)) // int(b(fr)))), False
        if isinstance(e, Call) and e.name in _ARRAY_CALLS:
            fn, arg = _ARRAY_CALLS[e.name], fns[0]
            if into is None:
                return (lambda fr: real(fn(arg(fr), dtype=np.float64))), False
            return (lambda fr: fn(arg(fr), dtype=np.float64,
                                  out=fr.work[into])), True
        return None


def run(iet, buffers: Dict[str, DataBuffer], params: dict,
        workers: int = 1) -> dict:
    """Execute an optimized tree in place over ``buffers``. Returns the
    profiling report: per section, elapsed ``time``, statement executions
    (``points``) and how many of them ran ``sliced`` and ``per_point``.
    Array temporaries get sized at the runtime bounds
    (``FunctionDecl.temp_extents``) and allocated for this call only,
    outside ``buffers``."""
    env = dict(params)
    dtype = next(iter(buffers.values())).dtype if buffers else "f64"
    for name, b in buffers.items():
        if b.dtype != dtype or b.data.dtype != DTYPES[dtype]:
            raise BackendError("buffer %s holds %s data, the run %s"
                               % (name, b.data.dtype, dtype))
    extents = {name: b.extents for name, b in buffers.items()}
    temps = {s.eq.lhs.func.name: s.eq.lhs.func for s in statements(iet)
             if s.eq.lhs.func.kind == "temp" and s.eq.lhs.indices}
    for name, f in temps.items():
        what = "cannot size temporary %s: unbound" % name
        extents[name] = tuple(int(_lookup(env, bound, what)) + k
                              for bound, k in f.temp_extents())
    planner = _Planner(extents, {}, workers, DTYPES[dtype])
    try:
        execute = planner.node(iet)
        arrays = {name: b.data for name, b in buffers.items()}
        for name in temps:
            arrays[name] = np.zeros(extents[name], DTYPES[dtype])
        execute(_Frame(env, arrays))
    finally:
        planner.close()
    return planner.report
