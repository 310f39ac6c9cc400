"""Sparse-point operations: source injection and field interpolation.

Off-grid points are handled by linear (bilinear, trilinear) interpolation
over the 2^d corners of the enclosing cell. Corner indices are floor
expressions over the coordinates table, which stay opaque to the loop
analysis: only the sparse point dimension is iterated.
"""

from __future__ import annotations

from itertools import product
from typing import List

from .expr import Access, Expr, add, call, mul, num, pow_, substitute
from .grid import Equation, FunctionDecl, DeclarationError


def _corner_terms(src: FunctionDecl):
    """Per space dimension: (base index expr, fractional offset expr).
    base = floor((coord - origin)/h); frac in [0, 1) is the distance from
    the base node in units of the spacing."""
    grid = src.grid
    p = src.point_dim.symbol
    out = []
    for i, dim in enumerate(grid.dimensions):
        coord = Access(src.coordinates, (p, num(i)))
        h = grid.spacing_of(dim)
        o = grid.origin_of(dim)
        rel = mul(add(coord, mul(num(-1), o)), pow_(h, -1))
        base = call("floor", rel)
        frac = add(rel, mul(num(-1), base))
        out.append((base, frac))
    return out


def _corner_weight(corners, picks) -> Expr:
    factors = []
    for (base, frac), hi in zip(corners, picks):
        factors.append(frac if hi else add(num(1), mul(num(-1), frac)))
    return mul(*factors)


def _at_corner(e: Expr, grid, corners, picks) -> Expr:
    """Replace every space-dimension symbol in ``e`` by the corner index."""
    rules = {}
    for dim, (base, frac), hi in zip(grid.dimensions, corners, picks):
        rules[dim.symbol] = add(base, num(1)) if hi else base
    return substitute(e, rules)


def inject(src: FunctionDecl, field: Access, expr: Expr) -> List[Equation]:
    """Increment equations scattering ``expr`` from each sparse point of
    ``src`` into the 2^d cell corners of ``field``."""
    if src.kind != "sparsetimefunction":
        raise DeclarationError("inject source must be sparse")
    if not isinstance(field, Access) or field.func.kind != "timefunction":
        raise DeclarationError("inject field must be a time-function access")
    grid = src.grid
    corners = _corner_terms(src)
    time_index = field.indices[0]
    eqs = []
    for picks in product((0, 1), repeat=grid.ndim):
        weight = _corner_weight(corners, picks)
        indices = [time_index]
        for (base, frac), hi in zip(corners, picks):
            indices.append(add(base, num(1)) if hi else base)
        lhs = Access(field.func, tuple(indices))
        rhs = mul(weight, _at_corner(expr, grid, corners, picks))
        eqs.append(Equation(lhs, rhs, is_increment=True))
    return eqs


def interpolate(dst: FunctionDecl, field_expr: Expr) -> List[Equation]:
    """Gather equation sampling ``field_expr`` at each sparse point of
    ``dst``: the weighted sum over the 2^d enclosing cell corners."""
    if dst.kind != "sparsetimefunction":
        raise DeclarationError("interpolate target must be sparse")
    grid = dst.grid
    corners = _corner_terms(dst)
    terms = []
    for picks in product((0, 1), repeat=grid.ndim):
        weight = _corner_weight(corners, picks)
        terms.append(mul(weight, _at_corner(field_expr, grid, corners, picks)))
    lhs = Access(dst, (grid.time_dim.symbol, dst.point_dim.symbol))
    return [Equation(lhs, add(*terms))]
