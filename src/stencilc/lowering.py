"""Lowering of user equations to indexified, domain-aligned array form,
plus the per-equation local analysis producing iteration and data spaces.

One walk per equation converts each access: it indexifies every index
and aligns it to the domain, shifting it by the accessed function's
halo so that index 0 addresses the first allocated point. Index
conventions after lowering:
  - affine indices are ``dim_symbol + k`` with integer k (spacing and time
    step symbols divided out, the shift added in);
  - sub-sampled time indices become ``idiv(t, factor)`` with a guard
    ``t % factor == 0`` recorded on the equation;
  - non-affine (sparse) indices stay opaque, plus the shift; their space
    dimension does not enter the iteration space, the sparse point
    dimension does.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property, partial
from typing import Callable, Dict, List, Optional, Tuple, Union

from .symbolic.expr import (Access, Add, Constant, Expr, Mul, Symbol, add,
                            call, children_of, free_symbols, num, rewrite)
from .symbolic.grid import Dimension, Equation, FunctionDecl

FORWARD = "+"
BACKWARD = "-"
ANY = "*"

OPAQUE = object()

#: An access's (storage dim, loop dim, offset-or-OPAQUE) per storage dim.
Offsets = Tuple[Tuple[Dimension, Dimension, object], ...]


class LoweringError(ValueError):
    """Raised when an equation cannot be lowered to array form."""


@dataclass(frozen=True)
class Interval:
    """Offsets against the runtime extremes of a dimension: the compact
    interval [d_m + lower, d_M + upper]."""

    dim: Dimension
    lower: int = 0
    upper: int = 0

    def hull(self, other: "Interval") -> "Interval":
        return Interval(self.dim, min(self.lower, other.lower),
                        max(self.upper, other.upper))

    def __repr__(self):
        return "%s[%d,%d]" % (self.dim.name, self.lower, self.upper)


@dataclass(frozen=True)
class IterationSpace:
    """Ordered (interval, direction) pairs; dimensions pairwise distinct."""

    entries: Tuple[Tuple[Interval, str], ...]

    def __post_init__(self):
        dims = [iv.dim for iv, _ in self.entries]
        if len(set(dims)) != len(dims):
            raise LoweringError("duplicate dimension in iteration space")

    @property
    def dims(self) -> Tuple[Dimension, ...]:
        return tuple(iv.dim for iv, _ in self.entries)

    def direction_of(self, dim: Dimension) -> str:
        for iv, d in self.entries:
            if iv.dim == dim:
                return d
        raise KeyError(dim.name)

    def interval_of(self, dim: Dimension) -> Interval:
        for iv, _ in self.entries:
            if iv.dim == dim:
                return iv
        raise KeyError(dim.name)

    def with_directions(self, directions: Dict[Dimension, str]) -> "IterationSpace":
        return IterationSpace(tuple(
            (iv, directions.get(iv.dim, d)) for iv, d in self.entries))

    def __repr__(self):
        return "[" + ", ".join("%r%s" % (iv, d) for iv, d in self.entries) + "]"


@dataclass(frozen=True)
class DataSpace:
    """Per-function intervals over the storage dimensions that are touched
    through loop-variable indices."""

    parts: Tuple[Tuple[FunctionDecl, Tuple[Interval, ...]], ...]

    def __repr__(self):
        bits = []
        for f, ivs in self.parts:
            bits.append("%s: %s" % (f.name, list(ivs)))
        return "{" + "; ".join(bits) + "}"


@dataclass(frozen=True)
class Guard:
    """Conditional execution along ``dim``: run iff dim % factor == 0."""

    dim: Dimension
    factor: int

    def predicate_repr(self) -> str:
        return "%s %% %d == 0" % (self.dim.name, self.factor)


@dataclass(frozen=True)
class LoweredEq:
    lhs: Access
    rhs: Expr
    is_increment: bool = False
    region: str = "domain"
    guards: Tuple[Guard, ...] = ()
    ispace: Optional[IterationSpace] = None
    dspace: Optional[DataSpace] = None

    # The access table: derived once per object, and not a field, so
    # ``replace`` starts a new one and equality and repr ignore it.

    @cached_property
    def accesses(self) -> Tuple[Access, ...]:
        """The left-hand side, every access of the right-hand side (nested
        ones included, in preorder), then the accesses inside the
        left-hand side's indices."""
        return (self.lhs, *collect_accesses(self.rhs),
                *collect_accesses(self.lhs)[1:])

    @cached_property
    def offsets(self) -> Tuple[Offsets, ...]:
        """``_access_offsets`` of each entry of ``accesses``."""
        return tuple(_access_offsets(acc) for acc in self.accesses)

    def reanalyzed(self, **changes) -> "LoweredEq":
        """``replace`` for changes that keep ``lhs`` and ``rhs``: the new
        equation inherits the access table."""
        out = replace(self, **changes)
        for name in ("accesses", "offsets"):
            if name in self.__dict__:
                out.__dict__[name] = self.__dict__[name]
        return out

    def __repr__(self):
        op = "+=" if self.is_increment else "="
        return "%r %s %r" % (self.lhs, op, self.rhs)


# -- Access collection -------------------------------------------------------


def collect_accesses(e: Expr) -> List[Access]:
    """All Access nodes in ``e``, including ones nested inside the index
    expressions of other accesses, in preorder."""
    out = []
    stack = [e]
    while stack:
        node = stack.pop()
        if isinstance(node, Access):
            out.append(node)
        stack.extend(reversed(children_of(node)))
    return out


def collect_functions(eqs) -> Dict[str, FunctionDecl]:
    """Every non-temporary function the equations access, by name, in
    order of first access."""
    out: Dict[str, FunctionDecl] = {}
    for eq in eqs:
        for acc in eq.accesses:
            f = acc.func
            if f.kind != "temp":
                out.setdefault(f.name, f)
    return out


# -- Index classification ----------------------------------------------------


def linear_form(e: Expr) -> Optional[Tuple[object, Dict[str, object]]]:
    """``(const, {symbol name: coeff})`` when ``e`` is a sum of numbers,
    symbols and ``number*symbol`` terms, else None. Coefficients keep the
    numbers' types. The normalizing constructors give such a sum at most
    one number and each symbol once (``add`` folds constants and merges
    like terms), so a repeated term is summed only in hand-built nodes."""
    if isinstance(e, Symbol):  # the most common index, read without a loop
        return 0, {e.name: 1}
    form: Dict[Optional[str], object] = {}
    for t in (e.children if isinstance(e, Add) else (e,)):
        if isinstance(t, Symbol):
            name, coeff = t.name, 1
        elif isinstance(t, Constant):
            name, coeff = None, t.value
        elif isinstance(t, Mul) and len(t.children) == 2 and \
                isinstance(t.children[0], Constant) and \
                isinstance(t.children[1], Symbol):
            name, coeff = t.children[1].name, t.children[0].value
        else:
            return None
        form[name] = form[name] + coeff if name in form else coeff
    return form.pop(None, 0), form


def affine_offset(index: Expr, dim_symbol: Symbol,
                  unit: Optional[Symbol]) -> Union[int, object]:
    """Integer offset k when ``index`` is ``dim + k`` or ``dim + k*unit``;
    OPAQUE when the dimension symbol does not occur; LoweringError for
    any other form."""
    return _form_offset(linear_form(index), index, dim_symbol, unit)


def _form_offset(form, index: Expr, dim_symbol: Symbol,
                 unit: Optional[Symbol]) -> Union[int, object]:
    """``affine_offset`` of ``index`` read from ``form``, its
    ``linear_form``."""
    if form is None:
        if dim_symbol.name in free_symbols(index):
            raise LoweringError(
                "index %r is not affine in %s" % (index, dim_symbol.name))
        return OPAQUE
    const, coeffs = form
    coeff = coeffs.pop(dim_symbol.name, None)
    if coeff is None:
        return OPAQUE
    if unit is not None and unit.name in coeffs and not const:
        const = coeffs.pop(unit.name)
    if coeff != 1 or coeffs:
        raise LoweringError(
            "index %r is not affine in %s" % (index, dim_symbol.name))
    k = int(const)
    if k != const:
        raise LoweringError("non-integer index offset in %r" % (index,))
    return k


def _unit_for(decl: FunctionDecl, dim: Dimension) -> Optional[Symbol]:
    if dim.kind == "space":
        if decl.kind == "coordinates":
            return None
        return decl.grid.spacing_of(dim)
    if dim.is_time:
        return decl.grid.step_symbol
    return None


def _map_accesses(e: Expr, convert: Callable[[Access], Access],
                  memo: dict) -> Expr:
    """``e`` with ``convert`` applied to each outermost access."""
    return rewrite(e, lambda n: convert(n) if isinstance(n, Access) else None,
                   memo)


def _shift_for(decl: FunctionDecl, dim: Dimension) -> int:
    if dim.kind == "space" and decl.kind in ("function", "timefunction"):
        return decl.halo
    return 0


def _lower_access(acc: Access, guards: List[Guard], indices: dict,
                  nested: dict) -> Access:
    """``acc`` as an access into allocated storage. ``guards`` collects the
    guards of sub-sampled indices; ``indices`` holds the equation's affine
    index nodes by (dimension name, aligned offset), so each is built once;
    ``nested`` is the rewrite memo of accesses nested in indices."""
    decl = acc.func
    if decl.kind == "temp":
        return acc
    dims = decl.dims
    if len(dims) != len(acc.indices):
        raise LoweringError("arity mismatch accessing %s" % decl.name)
    # Nested accesses first; their guards are not the equation's.
    lower_nested = partial(_lower_access, guards=[], indices=indices,
                           nested=nested)
    new_indices, offsets = [], []
    for dim, idx in zip(dims, acc.indices):
        # An index with a linear form holds no access to lower
        form = linear_form(idx)
        if form is None:
            idx = _map_accesses(idx, lower_nested, nested)
        if dim.kind == "conditional":
            if idx != dim.symbol:
                raise LoweringError(
                    "offsets on sub-sampled dimension %s unsupported" % dim.name)
            g = Guard(dim.parent.root, dim.factor)
            if g not in guards:
                guards.append(g)
            new_indices.append(call("idiv", dim.parent.root.symbol,
                                    num(dim.factor)))
            k = OPAQUE
        else:
            shift = _shift_for(decl, dim)
            k = _form_offset(form, idx, dim.symbol, _unit_for(decl, dim))
            if k is OPAQUE:
                new_indices.append(add(idx, num(shift)) if shift else idx)
            else:
                k += shift
                node = indices.get((dim.name, k))
                if node is None:
                    node = indices[dim.name, k] = add(dim.symbol, num(k))
                new_indices.append(node)
        offsets.append((dim, dim.root, k))
    out = Access(decl, tuple(new_indices))
    # The new access's offsets are the ones just read: each loop dimension
    # has the name of its storage dimension, and ``dim + k`` is affine.
    object.__setattr__(out, "_offsets", tuple(offsets))
    return out


def indexify(eq: Equation) -> LoweredEq:
    """Convert function accesses into array accesses with integer offsets,
    shifted by each function's halo, in one walk of the equation."""
    guards: List[Guard] = []
    convert = partial(_lower_access, guards=guards, indices={}, nested={})
    lhs = convert(eq.lhs)
    rhs = _map_accesses(eq.rhs, convert, {})
    return LoweredEq(lhs, rhs, is_increment=eq.is_increment,
                     region=eq.region, guards=tuple(guards))


# -- Local analysis ----------------------------------------------------------


def recorded_offsets(acc: Access) -> Optional[Offsets]:
    """The offsets kept on ``acc`` (``_access_offsets``, or the ones
    ``_lower_access`` read), or None when none are: derives nothing."""
    return getattr(acc, "_offsets", None)


def _access_offsets(acc: Access) -> Offsets:
    """(storage dim, loop dim, offset-or-OPAQUE) triples for an access.
    Offsets address storage, as aligned indices do; subtract ``_shift_for``
    for an offset relative to the domain origin. Derived once per access
    node and kept on it, so an equation that a rewrite leaves the access
    in reuses them."""
    out = recorded_offsets(acc)
    if out is not None:
        return out
    out = []
    for dim, idx in zip(acc.func.dims, acc.indices):
        loop = dim.root
        k = OPAQUE
        if dim.kind != "conditional":
            try:
                k = affine_offset(idx, loop.symbol, None)
            except LoweringError:
                pass
        out.append((dim, loop, k))
    out = tuple(out)
    object.__setattr__(acc, "_offsets", out)
    return out


def _dims_in_expr(e: Expr, registry: Dict[str, Dimension]) -> List[Dimension]:
    """Loop dimensions appearing (in order) in an index expression."""
    out = []
    for name in sorted(free_symbols(e)):
        if name in registry and registry[name] not in out:
            out.append(registry[name])
    return out


def _dimension_registry(eq: LoweredEq) -> Dict[str, Dimension]:
    registry: Dict[str, Dimension] = {}
    for acc in eq.accesses:
        decl = acc.func
        if decl.kind == "temp":
            for dim in decl.dims:
                registry.setdefault(dim.name, dim)
            continue
        for dim in decl.dims:
            registry.setdefault(dim.root.name, dim.root)
        if decl.kind in ("function", "timefunction"):
            grid = decl.grid
            for d in grid.dimensions:
                registry.setdefault(d.name, d)
    return registry


def analyze(eq: LoweredEq) -> LoweredEq:
    """Inspect an equation in isolation: iteration space with per-dimension
    directions, and data space. The directions are what
    ``dependence.detect_flow_directions`` demands of the equation's own
    dependences; a dimension with no demand, or with both, stays Any."""
    registry = _dimension_registry(eq)
    table = list(zip(eq.accesses, eq.offsets))

    # Dimension order: the time loop first, then order of appearance
    # across index functions
    order: List[Dimension] = []
    for acc, offsets in table:
        if acc.func.kind == "coordinates":
            continue
        for (dim, loop, k), idx in zip(offsets, acc.indices):
            if k is not OPAQUE or dim.kind == "conditional":
                if loop not in order:
                    order.append(loop)
            else:
                # Opaque index: any loop dims referenced inside still iterate
                for d in _dims_in_expr(idx, registry):
                    if d.kind != "space" and d not in order:
                        order.append(d)
    order.sort(key=lambda d: not d.is_time)

    # Directions: dependence.py owns the distance and the voting rule.
    from .dependence import detect_flow_directions, get_dependences
    interior = eq.region == "interior"
    ispace = IterationSpace(tuple(
        (Interval(dim, 1, -1) if interior and dim.kind == "space"
         else Interval(dim), ANY) for dim in order))
    votes = detect_flow_directions(get_dependences(
        [eq.reanalyzed(ispace=ispace)]))
    ispace = ispace.with_directions(
        {dim: next(iter(vs)) for dim, vs in votes.items() if len(vs) == 1})

    # Data space: per function, hull of domain-relative offsets with halo
    # credit on space dims; stepping time wraps, so only the forward reach
    # matters there.
    per_func: Dict[int, Tuple[FunctionDecl, Dict[Dimension, Interval]]] = {}
    for acc, offsets in table:
        decl = acc.func
        if decl.kind in ("coordinates", "temp"):
            continue
        slot = per_func.setdefault(id(decl), (decl, {}))[1]
        for dim, loop, k in offsets:
            if k is OPAQUE:
                if dim.kind == "conditional":
                    iv = Interval(dim, 0, 0)
                    slot[dim] = slot.get(dim, iv).hull(iv)
                continue
            k -= _shift_for(decl, dim)
            if dim.kind == "space":
                lo = min(0, k + decl.halo)
                hi = max(0, k - decl.halo)
            elif dim.kind == "stepping":
                lo, hi = 0, max(0, k)
            else:
                lo, hi = min(0, k), max(0, k)
            iv = Interval(dim, lo, hi)
            slot[dim] = slot.get(dim, iv).hull(iv)
    parts = tuple((decl, tuple(slot[d] for d in decl.dims if d in slot))
                  for decl, slot in per_func.values())
    dspace = DataSpace(parts)

    return eq.reanalyzed(ispace=ispace, dspace=dspace)


def lower(eq: Equation) -> LoweredEq:
    """Full lowering chain: indexify, then analyze."""
    return analyze(indexify(eq))


def check_halo_coverage(eq: LoweredEq) -> None:
    """Every declared halo must cover the maximum stencil offset used."""
    for acc, offsets in zip(eq.accesses, eq.offsets):
        decl = acc.func
        if decl.kind not in ("function", "timefunction"):
            continue
        for dim, loop, k in offsets:
            if k is OPAQUE or dim.kind != "space":
                continue
            k -= _shift_for(decl, dim)
            if abs(k) > decl.halo:
                raise LoweringError(
                    "halo %d of %s too small for offset %d along %s"
                    % (decl.halo, decl.name, k, dim.name))
