"""Finite-difference operators: centered derivative stencils, Laplacians,
and linear equation rearrangement (solve).

Stencil weights come from Fornberg's recursive weight-generation algorithm,
computed in exact rational arithmetic. A centered stencil on radius r uses
2r+1 points and exactly differentiates monomials up to degree 2r.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Dict, List, Tuple

from .expr import (Access, Add, Call, Constant, Expr, Mul, Pow, Symbol, add,
                   children_of, mul, num, pow_, substitute)
from .grid import Dimension, FunctionDecl


class FDError(ValueError):
    """Raised on invalid finite-difference requests."""


class SolveError(ValueError):
    """Raised when an equation cannot be linearly solved for a target."""


def fornberg_weights(deriv_order: int, offsets: Tuple[int, ...],
                     x0: Fraction = Fraction(0)) -> List[Fraction]:
    """Weights for the ``deriv_order``-th derivative at ``x0`` on unit-spaced
    sample points ``offsets`` (Fornberg 1988)."""
    m = deriv_order
    grid = [Fraction(o) for o in offsets]
    n = len(grid)
    if m >= n:
        raise FDError("need more than %d points for derivative %d" % (n, m))
    # delta[k][j] is the weight of point j for the k-th derivative.
    delta = [[Fraction(0)] * n for _ in range(m + 1)]
    delta[0][0] = Fraction(1)
    c1 = Fraction(1)
    for i in range(1, n):
        c2 = Fraction(1)
        old = [delta[k][i - 1] for k in range(m + 1)]  # pre-update column i-1
        for j in range(i):
            c3 = grid[i] - grid[j]
            c2 *= c3
            for k in range(min(i, m), -1, -1):
                prev = delta[k - 1][j] if k > 0 else Fraction(0)
                delta[k][j] = ((grid[i] - x0) * delta[k][j] - k * prev) / c3
        for k in range(min(i, m), -1, -1):
            prev = old[k - 1] if k > 0 else Fraction(0)
            delta[k][i] = c1 / c2 * (k * prev - (grid[i - 1] - x0) * old[k])
        c1 = c2
    return delta[m]


def centered_weights(fd_order: int, deriv_order: int) -> Dict[int, Fraction]:
    """Offset -> weight map for a centered stencil of the requested accuracy.
    The map is a fresh dict on every call; the weights are derived once."""
    return dict(_centered_weights(fd_order, deriv_order))


@lru_cache(maxsize=64)
def _centered_weights(fd_order: int, deriv_order: int
                      ) -> Tuple[Tuple[int, Fraction], ...]:
    if fd_order % 2 != 0 or fd_order < 2:
        raise FDError("fd_order must be even and >= 2, got %d" % fd_order)
    if fd_order < deriv_order:
        raise FDError("fd_order %d too low for derivative %d"
                      % (fd_order, deriv_order))
    radius = (fd_order + deriv_order - 1) // 2
    offsets = tuple(range(-radius, radius + 1))
    return tuple(zip(offsets, fornberg_weights(deriv_order, offsets)))


def shift_expr(e: Expr, dim: Dimension, k: int, step: Symbol) -> Expr:
    """Translate ``e`` by ``k`` grid points along ``dim``: every occurrence
    of the dimension symbol becomes dim + k*step."""
    sym = dim.root.symbol
    return substitute(e, {sym: add(sym, mul(num(k), step))})


def derivative_of(e: Expr, dim: Dimension, fd_order: int, deriv_order: int,
                  step: Symbol) -> Expr:
    """Centered FD approximation of d^m/d(dim)^m applied to ``e``."""
    weights = centered_weights(fd_order, deriv_order)
    inv = pow_(step, -deriv_order)
    terms = []
    for offset in sorted(weights):
        w = weights[offset]
        if w == 0:
            continue
        terms.append(mul(Constant(w), inv, shift_expr(e, dim, offset, step)))
    return add(*terms)


def derivative(f: FunctionDecl, dim: Dimension, fd_order: int,
               deriv_order: int) -> Expr:
    """Centered derivative of ``f`` at its natural indices."""
    if dim.is_time or dim.kind in ("time", "stepping"):
        if f.kind != "timefunction":
            raise FDError("%s has no time dimension" % f.name)
        return derivative_of(f.at, f.time_dim, fd_order, deriv_order,
                             f.grid.step_symbol)
    if dim not in f.grid.dimensions:
        raise FDError("unknown dimension %r for %s" % (dim.name, f.name))
    return derivative_of(f.at, dim, fd_order, deriv_order, f.grid.spacing_of(dim))


def laplace(f: FunctionDecl) -> Expr:
    """Sum of second space derivatives at the function's space order."""
    if f.grid.ndim < 1:
        raise FDError("laplace needs at least one space dimension")
    return add(*[derivative(f, d, f.space_order, 2) for d in f.grid.dimensions])


def dt(f: FunctionDecl) -> Expr:
    return derivative(f, f.grid.time_dim, f.time_order, 1)


def dt2(f: FunctionDecl) -> Expr:
    return derivative(f, f.grid.time_dim, f.time_order, 2)


def _linear_split(e: Expr, target: Access) -> Tuple[Expr, Expr]:
    """Split ``e`` into (a, b) with e == a*target + b; raise if the target
    occurs nonlinearly."""
    if e == target:
        return Constant(Fraction(1)), Constant(Fraction(0))
    if isinstance(e, (Constant, Symbol, Access)):
        return Constant(Fraction(0)), e
    if isinstance(e, Add):
        coeffs, rests = [], []
        for c in e.children:
            a, b = _linear_split(c, target)
            coeffs.append(a)
            rests.append(b)
        return add(*coeffs), add(*rests)
    if isinstance(e, Mul):
        hot, cold = [], []
        for c in e.children:
            (hot if _contains(c, target) else cold).append(c)
        if not hot:
            return Constant(Fraction(0)), e
        if len(hot) > 1:
            raise SolveError("nonlinear occurrence of %r" % (target,))
        a, b = _linear_split(hot[0], target)
        scale = mul(*cold) if cold else Constant(Fraction(1))
        return mul(a, scale), mul(b, scale)
    if isinstance(e, (Pow, Call)):
        if _contains(e, target):
            raise SolveError("nonlinear occurrence of %r" % (target,))
        return Constant(Fraction(0)), e
    raise SolveError("cannot solve through %r" % (e,))


def _contains(e: Expr, target: Access) -> bool:
    if e == target:
        return True
    return any(_contains(c, target) for c in children_of(e))


def solve_for(equation_expr: Expr, target: Access) -> Expr:
    """Rearrange ``equation_expr == 0`` into ``target = <result>``. The
    target must occur, and only linearly."""
    a, b = _linear_split(equation_expr, target)
    if a == Constant(Fraction(0)):
        raise SolveError("target %r does not occur in expression" % (target,))
    return mul(num(-1), b, pow_(a, -1))
