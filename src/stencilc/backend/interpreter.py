"""Execution of loop-nest trees over in-memory arrays.

``run`` first builds an execution plan, once per call: every tree node
becomes a closure, and every statement a closure tree of numpy
operations that folds sums and products left to right. Loop bounds and
indices that use no vector loop (such as the modulo time index) become
small closures over the bindings. Under a sliceable nest (a perfect nest
of parallel, unit-stride, forward space loops around statements only)
each array index becomes its affine form ``(axis, const, ((symbol,
coeff), ...))`` (block-local temporaries index with ``x - xb``), and the
statements run as whole-array slice operations. Every other statement
(sparse scatter/gather; a nest with a non-affine or transposed index, a
loop symbol used as a value or integer division of arrays) runs per
point, planned with no vector loop: each index is a scalar and each
access a 0-d view. Every access is checked against the allocated
extents (``BoundsError``); a missing buffer fails while planning, before
any statement runs.

Index forms come from the offset table that lowering keeps on each
access (``lowering.recorded_offsets``): an index tabled as ``loop + k``
is read from it, and only the others, untabled or ``OPAQUE`` (rebased
``x - xb`` indices, some DSE temporaries, sparse indices), are parsed
with ``linear_form``. With no vector loop every index is a scalar, and
none is parsed. Each access's view closure takes its form once, while
planning: an unbatched access to a shared array whose vector indices
are loops plus constants only offsets the nest's ranges by those
constants, checks the bounds and slices.

A band of parallel block loops (``xb``, ``yb``, ...) whose body holds
only sliceable nests runs all its blocks at once: each statement gets one
leading batch axis per block loop. Shared arrays are read and written
through strided views whose batch stride is the block step times the
array's stride; private (block-local) temporaries get a copy per block,
allocated per batch (per worker under a pool). A batch keeps one memory
order, the grid's: each private copy holds every batch axis just outside
the storage axis its block loop moves (a block loop that moves none
outermost), so numpy merges the block axes of all operands alike, and
statements see the copy through a transposed view in the batch-major
order they index. The blocks along each block loop split into the full
ones and the ragged last one, so a band of k block loops runs as at most
2^k regular batches. Each loop under a block loop reads its bounds, ``xb
+ c`` / ``min(xb + B - 1, X) + e``, from the ``tile`` blocking records.
A band runs block by block through the generic loop executor instead
when a nest in it does not slice, the points distinct blocks write in an
array other than a private one could overlap, or two accesses to one
private temporary disagree on which block loop moves which of its axes.
The block loops are parallel, so batching reorders statements
only across independent blocks. An unblocked nest runs through the same
executor with no batch axes.

A sliced nest runs all its statements over one slab of its outermost
loop at a time, a batch over one slab of whole blocks (``_slabs``), each
slab at most ``SLAB_POINTS`` grid points per statement (at least one
outer index or block), so that the temporaries of a whole-grid nest stay
in cache. Every loop of such a nest is parallel, so slabs never change
the arithmetic of a point; a nest that fits in one slab runs once, and
so does a nest with an atomic loop, whose neighbouring slabs would
update a point they share in the opposite order. A scalar temporary of a
nest is dropped after its last reader, so a slab holds only the ones
still to be read.

The report gives per section the elapsed ``time``, the statement
executions (``points``, one per statement and grid point) and how many of
them ran ``sliced`` and ``per_point``, so that a silent fallback shows.

Under a worker pool, each batch with more than one slab gives every
worker one contiguous run of its slabs, on its own frame and with its own
private copies. numpy releases the GIL inside its calls, so only sliced
work gains from the pool. Everything else, a one-slab batch among it,
runs on the calling thread. The workers run the slabs the calling
thread would, so results are independent of the pool size.

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
from itertools import product
from math import prod
from time import perf_counter
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from ..iet import (ATOMIC, BLOCKED, PARALLEL, Block, Conditional,
                   ExpressionStmt, Iteration, Section, iterations,
                   statements, walk)
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
    """Execution state of one thread: bindings, scalar temporaries (those
    of the sliced nest running now hold arrays), the arrays statements
    touch (in a batched band, the slab's private copies), statement
    executions per path, and of the sliced nest running now: the first
    index and the length of each of its loops for the first block of the
    slab and the blocks per batch axis (``counts``). A worker running a
    run of slabs gets its own."""

    env: dict
    arrays: Dict[str, np.ndarray]
    scalars: dict = field(default_factory=dict)
    sliced: int = 0
    per_point: int = 0
    lo: list = field(default_factory=list)
    size: list = field(default_factory=list)
    counts: list = field(default_factory=list)


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
_FIXED = (None, 0, ())


def _parsed_form(idx: Expr, dims: Sequence[str]):
    """The affine form of ``idx`` (see ``_index_plan``) parsed from the
    index itself, ``_FIXED`` when it uses no loop of ``dims``, or None."""
    used = free_symbols(idx) & set(dims)
    if not used:
        return _FIXED
    form = linear_form(idx)
    if form is None or len(used) > 1:
        return None
    const, coeffs = form
    name = used.pop()
    if coeffs.pop(name) != 1:
        return None
    k = int(const)
    terms = {n: int(c) for n, c in coeffs.items()}
    if k != const or terms != coeffs:
        return None
    return dims.index(name), k, tuple(terms.items())


def _index_plan(acc: Access, dims: Sequence[str]):
    """Per index of ``acc``: its affine form ``(axis, const, ((symbol,
    coeff), ...))`` when it is ``dims[axis] + const + sum(coeff *
    symbol)`` with integer ``const`` and coefficients, or ``(None, 0,
    ())`` when it uses no loop of ``dims``.
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
            form = (dims.index(entry[1].name), entry[2], ())
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


def _power(base, n: int):
    """``base ** n`` as the emitted C writes it: for 1 <= |n| <= 4 the
    product of |n| factors, left to right, and ``1.0/`` that product when
    n < 0; any other power calls ``**``. The base is evaluated once."""
    if not 1 <= abs(n) <= 4:
        return lambda fr: base(fr) ** n

    def power(fr: _Frame):
        b = base(fr)
        out = b
        for _ in range(abs(n) - 1):
            out = out * b
        return 1.0 / out if n < 0 else out
    return power


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


class _Axes:
    """The loops a sliced executor vectorizes: the nest's ``dims`` and,
    when it runs batched over a band of block loops, the band's
    ``blocks`` ``(name, step)``, per dim the position in ``blocks`` of the
    block loop that bounds it (``binds``, None where none does), and the
    ``private`` array temporaries, which get one copy per block. The
    band's nests share ``private``, which maps each to the block loop
    moving each of its storage axes (None along an axis none moves), as
    its first access fixed it, or to None before any access."""

    __slots__ = ("dims", "blocks", "binds", "private", "loops")

    def __init__(self, dims=(), blocks=(), binds=(), private=None):
        self.dims, self.blocks, self.binds = dims, blocks, binds
        self.private = {} if private is None else private
        self.loops = set(dims) | {name for name, _ in blocks}


_NO_AXES = _Axes()


@dataclass
class _Nest:
    """A perfect nest of a sliced executor: its loops' rank, the ``free``
    loops ``(axis, lower, upper)`` that no block loop bounds, the
    ``bound`` ones ``(axis, q, c, e)``: the loop's ``tile``, with ``q``
    the position of its block loop in the band, and its statements."""

    ndim: int
    free: list
    bound: list
    stmts: list


def _runs(first: int, limit: int, step: int) -> list:
    """The blocks with origins ``first, first + step, ... <= limit`` as
    regular runs ``(origin, count, length)``: the full blocks, whose
    ``step`` points all lie at or below ``limit``, then each ragged block
    alone."""
    count = len(range(first, limit + 1, step))
    full = min(count, max(0, (limit - first + 1) // step))
    out = [(first, full, step)] if full else []
    for k in range(full, count):
        origin = first + k * step
        out.append((origin, 1, limit - origin + 1))
    return out


def _slabs(counts: list, points: int) -> list:
    """A batch of ``counts`` blocks per batch axis, ``points`` points per
    block, cut into slabs ``(origin, shape)`` (in blocks) of at most
    ``SLAB_POINTS`` points, and at least one block: in C order, each slab
    takes every block along the later axes, a run of blocks along one axis
    and a single block along the earlier ones. The first slab is the
    largest."""
    axis, inner = len(counts) - 1, points
    while axis and inner * counts[axis] <= SLAB_POINTS:
        inner *= counts[axis]
        axis -= 1
    run, count = max(1, SLAB_POINTS // inner), counts[axis]
    if run >= count and not axis:
        return [((0,) * len(counts), tuple(counts))]
    single, rest = (1,) * axis, tuple(counts[axis + 1:])
    return [(outer + (start,) + (0,) * len(rest),
             single + (min(run, count - start),) + rest)
            for outer in product(*map(range, counts[:axis]))
            for start in range(0, count, run)]


def _grid_order(moves, nb: int) -> list:
    """The axes of a private copy, ``nb`` batch axes then one per storage
    axis, in memory order: each batch axis just outside the storage axis
    its block loop moves (``moves``, per storage axis the block loop or
    None), those of block loops that move none outermost."""
    order = [q for q in range(nb) if q not in moves]
    for pos, q in enumerate(moves):
        if q is not None:
            order.append(q)
        order.append(nb + pos)
    return order


def _private_copy(shape, order, dtype) -> np.ndarray:
    """Zeros of ``shape`` laid out with its axes in memory in ``order``,
    seen in the order of ``shape``: a view of that memory, so writes
    through it land."""
    return np.zeros([shape[a] for a in order], dtype).transpose(
        np.argsort(order))


def _owner(arr: np.ndarray):
    """``(owner, offset)``: the array owning the memory of ``arr``, the
    last ndarray along its chain of bases (``arr`` itself when none is;
    the chain passes objects such as the one ``as_strided`` wraps its
    input in), and the byte offset of ``arr``'s first element in it."""
    owner, base = arr, arr.base
    while base is not None:
        if isinstance(base, np.ndarray):
            owner = base
        base = getattr(base, "base", None)
    return owner, (arr.__array_interface__["data"][0] -
                   owner.__array_interface__["data"][0])


def _strided(arr, owner, offset, idx, vector, counts, ndim):
    """The view of ``arr`` over every block of a slab, built straight on
    the memory of its ``owner`` (``_owner``): the same for a contiguous
    ``arr`` and a strided view. ``idx`` holds each index's value or slice
    for the first block, which the view starts at; each vector index's
    ``steps`` give its displacement from one block to the next along each
    batch axis, so a batch axis strides by those steps times the array's
    strides."""
    nb = len(counts)
    shape, strides = list(counts) + [1] * ndim, [0] * (nb + ndim)
    for pos, i in enumerate(idx):
        offset += (i if isinstance(i, int) else i.start) * arr.strides[pos]
    for pos, axis, _, _, _, steps in vector:
        stride = arr.strides[pos]
        shape[nb + axis] = idx[pos].stop - idx[pos].start
        strides[nb + axis] = stride
        for q, k in enumerate(steps):
            strides[q] += k * stride
    return np.ndarray(shape, arr.dtype, owner, offset, strides)


def _plain_view(f, fixed, vector, along, whole: bool):
    """``_Planner.access``'s view closure in its common form: unbatched,
    not private, each vector index a loop plus a constant. It only offsets
    the nest's ranges by those constants, checks the bounds and slices."""
    name = f.name
    spans = [(pos, axis, const, extent)
             for pos, axis, const, _, extent, _ in vector]
    template = [None] * (len(fixed) + len(spans)) + [Ellipsis]

    def view(fr: _Frame) -> np.ndarray:
        idx = template.copy()
        for pos, value, extent in fixed:
            idx[pos] = _point_index(f, pos, value(fr), extent)
        lo, size = fr.lo, fr.size
        for pos, axis, off, extent in spans:
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
    owns the worker pool, which only sliced executors use, and the report
    the sections fill."""

    def __init__(self, extents: Dict[str, Tuple[int, ...]], dtype: str,
                 report: dict, workers: int):
        self.extents = extents
        self.dtype = DTYPES[dtype]
        #: private temporaries that batched bands allocate per call
        self.batched: set = set()
        #: per array of the call, its ``_owner``, set once arrays exist
        self.owners: dict = {}
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
        compiled = self.value(e, _NO_AXES, {})
        if compiled is None:
            raise BackendError("cannot evaluate %r" % (e,))
        return compiled[0]

    def statement(self, eq: LoweredEq):
        """The closure running one statement outside a sliced nest, at the
        point bound in the frame: every index of every access is a scalar,
        and each array access a 0-d view."""
        view = None
        if eq.lhs.func.kind != "temp" or eq.lhs.indices:
            target = self.access(eq.lhs, _NO_AXES, {})
            if target is None:
                raise BackendError("cannot evaluate %r" % (eq.lhs,))
            view = target[0]
        run_statement = _statement(eq, view, self.scalar(eq.rhs), ())

        def statement(fr: _Frame):
            run_statement(fr)
            fr.per_point += 1
        return statement

    def iteration(self, n: Iteration):
        sliced = self.sliced(n)
        if sliced is not None:
            return sliced
        lower, upper = self.scalar(n.lower), self.scalar(n.upper)
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

    def sliced(self, n: Iteration):
        """The sliced executor ``(frame)`` of the loops headed by ``n``, or
        None when they must run loop by loop. ``n`` heads either a perfect
        nest of parallel, unit-stride, forward space loops around
        statements, or a band of block loops around such nests, which runs
        all its blocks at once: each statement then sees one leading batch
        axis per block loop. The executor reads all its loop bounds
        itself."""
        band, cur = [], n
        while BLOCKED in cur.properties and PARALLEL in cur.properties and \
                cur.direction != BACKWARD:
            band.append(cur)
            if len(cur.children) != 1 or \
                    not isinstance(cur.children[0], Iteration):
                break
            cur = cur.children[0]
        heads = band[-1].children if band else [n]
        blocks = tuple((it.dim.name, it.step) for it in band)
        private = {d.decl.name: None for nd in walk(n)
                   for d in getattr(nd, "declarations", ())
                   if band and d.scope == "private" and
                   d.decl.name in self.extents}
        windows: dict = {}
        nests = [self.nest(h, blocks, private, windows) for h in heads]
        if None in nests:
            return None
        self.batched.update(private)
        atomic = any(ATOMIC in it.properties for it in iterations(n))
        return self.batches(nests, blocks, private,
                            [(self.scalar(it.lower), self.scalar(it.upper))
                             for it in band], atomic)

    def nest(self, head: Iteration, blocks, private, windows):
        """The ``_Nest`` headed by ``head`` under the block loops
        ``blocks``, or None when it does not slice. Gathers, per array
        other than a private one and block loop, the window a block
        writes, relative to its origin."""
        loops, cur = [], head
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
        dims = tuple(it.dim.name for it in loops)
        names = [name for name, _ in blocks]
        nest, binds = _Nest(len(dims), [], [], []), []
        for axis, it in enumerate(loops):
            by = (free_symbols(it.lower) | free_symbols(it.upper)) & \
                set(names)
            q = names.index(by.pop()) if by else None
            binds.append(q)
            if q is not None:
                nest.bound.append((axis, q) + it.tile[1:])
            else:
                nest.free.append((axis, self.scalar(it.lower),
                                  self.scalar(it.upper)))
        axes = _Axes(dims, blocks, tuple(binds), private)
        defined: Dict[str, bool] = {}
        #: per scalar temporary, the statement that reads it last
        last: Dict[str, int] = {}
        parts = []
        for i, eq in enumerate(k.eq for k in cur.children):
            value = self.value(eq.rhs, axes, defined)
            if value is None:
                return None
            for acc in eq.accesses[1:]:
                if acc.func.name in defined:
                    last[acc.func.name] = i
            if eq.lhs.func.kind == "temp" and not eq.lhs.indices:
                defined[eq.lhs.func.name] = value[1]
                last[eq.lhs.func.name] = i
                parts.append((eq, None, value[0]))
                continue
            target = self.access(eq.lhs, axes, defined)
            if target is None or target[1] != tuple(range(len(dims))) or \
                    (blocks and eq.lhs.func.name not in private and
                     not _window(eq.lhs, axes, nest, windows)):
                return None
            parts.append((eq, target[0], value[0]))
        drops = [[] for _ in parts]
        for name, i in last.items():
            drops[i].append(name)
        nest.stmts = [_statement(*part, tuple(drop))
                      for part, drop in zip(parts, drops)]
        return nest

    def batches(self, nests, blocks, private, bounds, atomic):
        """The executor ``(frame)`` running ``nests`` over all blocks of the
        band ``blocks``, whose loops have the ``bounds`` ``(lower,
        upper)``; with no block loops, the one nest over its own loops. The
        blocks of each regular run (``_runs``) along every block loop form
        one batch, which runs in slabs (``_slabs``) of at most
        ``SLAB_POINTS`` points per statement; an unbatched nest runs in
        slabs of its outermost loop. A batch with an ``atomic`` loop runs
        as one slab: a slab edge would reorder the increments of a point
        two slabs share. The slabs of a batch go to the worker pool, one
        contiguous run of slabs per worker, each run on its own frame with
        its own private copies; they run on the caller's frame when there
        is no pool or one slab."""
        dtype = self.dtype
        layouts = [(name, self.extents[name], _grid_order(moves, len(blocks)))
                   for name, moves in private.items()]
        names = [name for name, _ in blocks]

        def run_slabs(fr: _Frame, batch, active, slabs, largest):
            copies = [(name, _private_copy(largest + extents, order, dtype))
                      for name, extents, order in layouts]
            nblocks = 1
            for origin, shape in slabs:
                if blocks:
                    for name, k, (start, _, _), (_, step) in zip(
                            names, origin, batch, blocks):
                        fr.env[name] = start + k * step
                    for name, copy in copies:
                        fr.arrays[name] = copy[tuple(map(slice, shape))]
                    fr.counts, nblocks = shape, prod(shape)
                for nest, lo, size in active:
                    lo, size = list(lo), list(size)
                    if not blocks:
                        lo[0], size[0] = lo[0] + origin[0], shape[0]
                    for axis, q, c, _ in nest.bound:
                        lo[axis] = fr.env[names[q]] + c
                    fr.lo, fr.size = lo, size
                    for s in nest.stmts:
                        s(fr)
                    fr.sliced += nblocks * prod(size) * len(nest.stmts)

        def batches(fr: _Frame):
            groups = product(*[_runs(int(round(lower(fr))),
                                     int(round(upper(fr))), step)
                               for (lower, upper), (_, step) in zip(bounds,
                                                                    blocks)])
            for batch in groups:
                active, most = [], 0
                for nest in nests:
                    lo, size = [0] * nest.ndim, [0] * nest.ndim
                    for axis, lower, upper in nest.free:
                        lo[axis] = int(round(lower(fr)))
                        size[axis] = int(round(upper(fr))) - lo[axis] + 1
                    for axis, q, c, e in nest.bound:
                        size[axis] = batch[q][2] + e - c
                    if min(size) > 0:
                        active.append((nest, lo, size))
                        most = max(most, prod(size))
                if not active:
                    continue
                if blocks:
                    counts, points = [count for _, count, _ in batch], most
                else:
                    # one nest: slab its outermost loop
                    counts, points = size[:1], most // size[0]
                slabs = [((0,) * len(counts), tuple(counts))] if atomic \
                    else _slabs(counts, points)
                if self.pool is None or len(slabs) == 1:
                    run_slabs(fr, batch, active, slabs, slabs[0][1])
                    continue
                each = -(-len(slabs) // self.workers)
                runs = [slabs[i:i + each] for i in range(0, len(slabs), each)]
                frames = [_Frame(dict(fr.env), dict(fr.arrays),
                                 dict(fr.scalars)) for _ in runs]
                futures = [self.pool.submit(run_slabs, sub, batch, active,
                                            part, slabs[0][1])
                           for sub, part in zip(frames, runs)]
                for f in futures:
                    f.result()
                fr.sliced += sum(sub.sliced for sub in frames)
        return batches

    def access(self, acc: Access, axes: _Axes, defined):
        """``(view closure, vector axes, batched)`` of an array access, or
        None. The view broadcasts over the nest's points: when
        ``batched``, one leading axis per block loop (a private temporary
        has a copy per block; any other array is read through a strided
        view that steps from block to block), then one axis per loop of
        the nest, of length 1 where the access does not vary."""
        f = acc.func
        if f.name not in self.extents:
            raise BackendError("no buffer for %s" % f.name)
        plan = _index_plan(acc, axes.dims)
        if plan is None:
            return None
        extents = self.extents[f.name]
        private = f.name in axes.private
        fixed, vector = [], []
        for pos, (idx, (axis, const, terms)) in enumerate(zip(acc.indices,
                                                              plan)):
            if axis is None:
                fixed.append((pos, self.value(idx, axes, defined)[0],
                              extents[pos]))
                continue
            steps = ()
            if axes.blocks:
                coeffs = dict(terms)
                steps = tuple(step * ((axes.binds[axis] == q) +
                                      coeffs.get(name, 0))
                              for q, (name, step) in enumerate(axes.blocks))
            vector.append((pos, axis, const, terms, extents[pos], steps))
        if private:
            moves = tuple(None if axis is None else axes.binds[axis]
                          for axis, _, _ in plan)
            if axes.private[f.name] not in (None, moves):
                return None  # its copy cannot follow both
            axes.private[f.name] = moves
        strided = any(k for v in vector for k in v[5])
        along = tuple(v[1] for v in vector)
        ndim, name = len(axes.dims), f.name
        whole = len(along) == ndim or not (along or private)
        if not (strided or private or any(v[3] for v in vector)):
            return _plain_view(f, fixed, vector, along, whole), along, False

        def view(fr: _Frame) -> np.ndarray:
            idx = [None] * len(plan)
            for pos, value, extent in fixed:
                idx[pos] = _point_index(f, pos, value(fr), extent)
            lo, size = fr.lo, fr.size
            for pos, axis, off, terms, extent, steps in vector:
                for s, k in terms:
                    off += k * _lookup(fr.env, s, "unbound symbol")
                start = lo[axis] + off
                stop = start + size[axis]
                reach = stop
                if strided:
                    for k, count in zip(steps, fr.counts):
                        reach += k * (count - 1)
                if start < 0 or reach > extent:
                    raise _out_of_range(f, pos, start, reach, extent)
                idx[pos] = slice(start, stop)
            arr = fr.arrays[name]
            if strided:
                return _strided(arr, *self.owners[name], idx, vector,
                                fr.counts, ndim)
            if not private:
                out = arr[tuple(idx) + (Ellipsis,)]
                if whole:
                    return out
                shape = [1] * ndim
            else:
                out = arr[(Ellipsis,) + tuple(idx)]
                if whole:
                    return out
                shape = list(fr.counts) + [1] * ndim
            for k in along:
                shape[k - ndim] = size[k]
            return out.reshape(shape)
        return view, along, strided or private

    def value(self, e: Expr, axes: _Axes, defined):
        """``(closure, is_array)`` computing ``e`` over the current nest
        ranges of ``axes``, or None when it cannot."""
        if isinstance(e, Constant):
            const = float(e.value)
            return (lambda fr: const), False
        if isinstance(e, Symbol):
            name = e.name

            def symbol(fr: _Frame) -> float:
                return float(_lookup(fr.env, name, "unbound symbol"))
            return None if name in axes.loops else (symbol, False)
        if isinstance(e, Access) and e.func.kind == "temp" and not e.indices:
            name = e.func.name
            return (lambda fr: _lookup(fr.scalars, name,
                                       "read of undefined scalar")), \
                defined.get(name, False)
        if isinstance(e, Access):
            target = self.access(e, axes, defined)
            if target is None:
                return None
            return target[0], bool(target[1]) or target[2]
        kids = [self.value(c, axes, defined) for c in children_of(e)]
        if None in kids:
            return None
        fns, is_array = [k[0] for k in kids], any(k[1] for k in kids)
        if isinstance(e, (Add, Mul)):
            op = operator.add if isinstance(e, Add) else operator.mul
            return _fold(op, fns), is_array
        if isinstance(e, Pow):
            return _power(fns[0], e.exponent), is_array
        if isinstance(e, Call) and e.name == "idiv" and not is_array:
            a, b = fns
            return (lambda fr: float(int(a(fr)) // int(b(fr)))), False
        if isinstance(e, Call) and e.name in _ARRAY_CALLS:
            fn = _ARRAY_CALLS[e.name]
            return (lambda fr: fn(*[k(fr) for k in fns])), is_array
        return None


def _window(acc: Access, axes: _Axes, nest: _Nest, windows: dict) -> bool:
    """Widen ``windows[array, block loop]`` by the span a block writes
    through ``acc`` along that block loop, relative to the block's origin.
    False when distinct blocks of the band could write one point: the
    span outgrows the block step, a block loop moves no index of ``acc``
    or moves one by other than its step, or ``acc`` indexes an array
    unlike another write to it."""
    names = {name for name, _ in axes.blocks}
    bounds = {axis: (c, e) for axis, _, c, e in nest.bound}
    covered = 0
    for pos, (axis, const, terms) in enumerate(_index_plan(acc, axes.dims)):
        q = None if axis is None else axes.binds[axis]
        if q is None:
            continue
        if any(s in names for s, _ in terms):
            return False
        step = axes.blocks[q][1]
        c, e = bounds[axis]
        lo, hi = const + c, const + step - 1 + e
        old = windows.get((acc.func.name, q))
        if old is not None:
            if old[2] != (pos, terms):
                return False
            lo, hi = min(lo, old[0]), max(hi, old[1])
        if hi - lo >= step:
            return False
        windows[acc.func.name, q] = (lo, hi, (pos, terms))
        covered += 1
    return covered == len(axes.blocks)


def run(iet, buffers: Dict[str, DataBuffer], params: dict,
        workers: int = 1) -> dict:
    """Execute an optimized tree in place over ``buffers``. Returns the
    profiling report: per section, elapsed ``time``, statement executions
    (``points``) and how many of them ran ``sliced`` and ``per_point``.
    Array temporaries get sized from the runtime bounds (block-local ones
    from their block shape plus producer span) and allocated for this
    call only, outside ``buffers``; a band that runs batched allocates
    its private ones itself."""
    env = dict(params)
    dtype = next(iter(buffers.values())).dtype if buffers else "f64"
    extents = {name: b.extents for name, b in buffers.items()}
    temps = {s.eq.lhs.func.name: s.eq.lhs.func for s in statements(iet)
             if s.eq.lhs.func.kind == "temp" and s.eq.lhs.indices}
    for name, f in temps.items():
        extents[name] = temp_extents(f, env)
    report: dict = {}
    planner = _Planner(extents, dtype, report, workers)
    try:
        execute = planner.node(iet)
        arrays = {name: b.data for name, b in buffers.items()}
        for name in temps:
            if name not in planner.batched:
                arrays[name] = np.zeros(extents[name], DTYPES[dtype])
        planner.owners = {name: _owner(a) for name, a in arrays.items()}
        execute(_Frame(env, arrays))
    finally:
        planner.close()
    return report
