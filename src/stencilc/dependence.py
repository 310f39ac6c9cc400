"""Data-dependence analysis between lowered equations.

Distances are computed with the classic test for affine single-index
accesses: a pair of accesses ``A[d + k1]`` and ``A[d + k2]`` touches the
same element at iterations d1, d2 with d1 + k1 == d2 + k2, so the
dependence distance along ``d`` is k_source - k_sink. Along any other
loop the entry is unknown (None): a non-affine index, or a loop that an
access does not index, whose storage every iteration of that loop reuses
(an array temporary in the time loop, ``grad[x, y] += ...`` in it). The
rule is the same for every function. Dependences are normalized to run
forward in iteration order: a negative leading distance swaps source and
sink and flips flow with anti.

A pair of increment targets (the left-hand sides of two increment
equations, or of one, with itself) is a reduction rather than an
ordering constraint: one flow-direction record per pair. Every other
pair, a right-hand-side read of an incremented function included, is an
ordinary flow, anti or output dependence, so ``u[x] += u[x - 1]`` keeps
its carried flow.

This module is the only code that turns access offsets into distances
and distances into loop directions: ``lowering.analyze`` votes each
equation's directions with ``detect_flow_directions`` on that equation
alone, clustering enforces them across equations from one graph, and
``iet.analyze_iet`` reads each loop nest's graph to mark loops sequential
or atomic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .lowering import OPAQUE, LoweredEq
from .symbolic.expr import Access
from .symbolic.grid import Dimension, FunctionDecl

FLOW = "flow"
ANTI = "anti"
OUTPUT = "output"
REDUCTION = "reduction"

_FLIP = {FLOW: ANTI, ANTI: FLOW, OUTPUT: OUTPUT, REDUCTION: REDUCTION}


@dataclass(frozen=True)
class Dependence:
    source: LoweredEq
    sink: LoweredEq
    function: FunctionDecl
    kind: str
    dims: Tuple[Dimension, ...]
    distance: Tuple[Optional[int], ...]
    #: True when normalization reversed the program-order orientation
    flipped: bool = False

    @property
    def cause(self) -> Optional[Dimension]:
        """First dimension with nonzero or unknown distance; None when the
        dependence is loop-independent."""
        for dim, dist in zip(self.dims, self.distance):
            if dist is None or dist != 0:
                return dim
        return None

    @property
    def is_carried(self) -> bool:
        return self.cause is not None

    @property
    def is_independent(self) -> bool:
        return self.cause is None

    def distance_along(self, dim: Dimension) -> Optional[int]:
        for d, dist in zip(self.dims, self.distance):
            if d == dim:
                return dist
        return 0

    def __repr__(self):
        bits = ", ".join("%s:%s" % (d.name, "?" if v is None else v)
                         for d, v in zip(self.dims, self.distance))
        return "<%s on %s (%s)>" % (self.kind, self.function.name, bits)


def _offsets_by_loop_dim(acc: Access, offsets) -> Dict[Dimension, int]:
    """Affine offsets of ``acc`` keyed by loop dimension, from its
    ``_access_offsets``; non-affine indices are left out."""
    return {loop: k for (_, loop, k) in offsets if k is not OPAQUE}


def _distance(src_offsets, snk_offsets, dims) -> Tuple[Optional[int], ...]:
    """Distance vector of a dependence from a source to a sink access over
    the loop dimensions ``dims``, from the two accesses'
    ``_offsets_by_loop_dim``. An entry is known only along a loop that both
    accesses index affinely; along any other loop it is None: an opaque
    index, or storage that the loop does not index and so reuses at every
    iteration."""
    return tuple(src_offsets[d] - snk_offsets[d]
                 if d in src_offsets and d in snk_offsets else None
                 for d in dims)


def _union_dims(a: LoweredEq, b: LoweredEq) -> Tuple[Dimension, ...]:
    dims = list(a.ispace.dims)
    for d in b.ispace.dims:
        if d not in dims:
            dims.append(d)
    return tuple(dims)


def _normalize(dep: Dependence) -> Optional[Dependence]:
    for dist in dep.distance:
        if dist is None:
            return dep
        if dist > 0:
            return dep
        if dist < 0:
            negated = tuple(None if v is None else -v for v in dep.distance)
            return Dependence(dep.sink, dep.source, dep.function,
                              _FLIP[dep.kind], dep.dims, negated,
                              flipped=True)
    # All-zero self dependences carry no constraint
    if dep.source is dep.sink and dep.kind != REDUCTION:
        return None
    return dep


def get_dependences(eqs: List[LoweredEq]) -> List[Dependence]:
    """All pairwise dependences in program order, normalized so that every
    known leading distance is non-negative."""
    for eq in eqs:
        if eq.ispace is None:
            raise ValueError("equation %r has not been analyzed" % (eq,))
    deps: List[Dependence] = []
    # dedup by equation identity: value-equal duplicate statements still
    # carry distinct dependences
    seen = set()
    # Per equation, (access, offsets by loop dim) for the write, and the
    # reads bucketed by function identity in access order, from the
    # equation's access table. Accesses to one function share its
    # alignment shift, so storage offsets give the distances.
    writes, reads = [], []
    for eq in eqs:
        table = [(acc, _offsets_by_loop_dim(acc, offs))
                 for acc, offs in zip(eq.accesses, eq.offsets)]
        writes.append(table[0])
        by_func: Dict[int, list] = {}
        for r in (table[1:] + table[:1] if eq.is_increment else table[1:]):
            by_func.setdefault(id(r[0].func), []).append(r)
        reads.append(by_func)

    def emit(src, snk, i, j, kind, dims):
        (src_acc, src_offsets), (_, snk_offsets) = src, snk
        if src is writes[i] and snk is writes[j] and \
                eqs[i].is_increment and eqs[j].is_increment:
            if kind != FLOW:
                return  # one reduction record per pair of targets
            kind = REDUCTION
        dist = _distance(src_offsets, snk_offsets, dims)
        dep = _normalize(Dependence(eqs[i], eqs[j], src_acc.func,
                                    kind, dims, dist))
        if dep is None:
            return
        key = (id(dep.source), id(dep.sink), dep.function.name,
               dep.kind, dep.distance, dep.flipped)
        if key not in seen:
            seen.add(key)
            deps.append(dep)

    # Per function, the equations that write it and those that read it,
    # ascending, so each equation visits only the later ones it shares a
    # function with.
    writers: Dict[int, List[int]] = {}
    readers: Dict[int, List[int]] = {}
    for j, (write, by_func) in enumerate(zip(writes, reads)):
        writers.setdefault(id(write[0].func), []).append(j)
        for fid in by_func:
            readers.setdefault(fid, []).append(j)
    for i in range(len(eqs)):
        wi = id(writes[i][0].func)
        partners = set(readers.get(wi, ())) | set(writers[wi])
        for fid in reads[i]:
            partners.update(writers.get(fid, ()))
        for j in sorted(k for k in partners if k >= i):
            wj = id(writes[j][0].func)
            flows = reads[j].get(wi, ())
            antis = reads[i].get(wj, ()) if i != j else ()
            output = i != j and wi == wj
            if not (flows or antis or output):
                continue  # only i == j, which reads no function it writes
            dims = _union_dims(eqs[i], eqs[j])
            for r in flows:
                emit(writes[i], r, i, j, FLOW, dims)
            for r in antis:
                emit(r, writes[j], i, j, ANTI, dims)
            if output:
                emit(writes[i], writes[j], i, j, OUTPUT, dims)
    return deps


def detect_flow_directions(deps: List[Dependence]) -> Dict[Dimension, set]:
    """Directions required so every value flows from its producer to its
    consumers: {dim: set of '+'/'-'} over the causing dimensions. A flow
    dependence that ran backward in program order (flipped to anti during
    normalization) demands a backward loop."""
    from .lowering import BACKWARD, FORWARD
    out: Dict[Dimension, set] = {}
    for dep in deps:
        cause = dep.cause
        if cause is None:
            continue
        dist = dep.distance_along(cause)
        if dist is None:
            continue
        if dep.kind == FLOW and not dep.flipped:
            out.setdefault(cause, set()).add(FORWARD)
        elif dep.kind == ANTI and dep.flipped:
            out.setdefault(cause, set()).add(BACKWARD)
    return out
