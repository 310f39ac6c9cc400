"""The compiled operators against mathematics: spatial order of accuracy.

Every executor check compares executors that run the same lowered
equations, so a wrong finite-difference weight, spacing symbol or index
alignment in the front end shows in none of them. Here each operator
runs on a smooth field sampled on grids of n = 17, 33 and 65 points per
dimension, halo included, and its result is compared with the exact
derivative:

- ``acoustic1d``: one leapfrog step of ``m*u.dt2 - u.laplace`` with
  ``m = 1``, ``dt = 1`` and ``u[t - 1] = u[t] = f``, so that ``u[t + 1] -
  f`` is the discrete Laplacian of ``f = sin(2 pi x)`` on [0, 1]
- ``acoustic2d``: the same for ``f = sin(2 pi x) sin(pi y)`` on [0, 1] x
  [0, 2], whose spacings differ, ``h_y = 2 h_x``
- ``rotated``: ``helpers.rotated_equations`` with ``theta = 0``, which is
  the cross derivative ``d/dx d/dy`` of that ``f``

Bounds, derived before the test first ran. A centered difference of
order p = 2m leaves, on sines and cosines of wavenumber k, a leading
error of ``c k^(p+d) h^p`` for a derivative of order d, with ``c =
2 (m!)^2 / (2m+2)!`` for d = 2 and ``c = (m!)^2 / (2m+1)!`` for d = 1.
Each field has ``k h = 2 pi / (n - 1)`` along every dimension and
reaches its largest magnitude at a grid point, so the largest error over
the grid is
- acoustic1d: ``c2 (2 pi)^2 (k h)^p``
- acoustic2d: ``c2 ((2 pi)^2 + pi^2) (k h)^p``
- rotated: ``2 c1 (2 pi) pi (k h)^p``, one ``c1`` per factor of the
  product ``D_x D_y``

The exact discrete symbols of these stencils put the observed order
within 0.05 of p on both pairs of grids and the error at n = 65 within
1% of the leading term. Round-off, at most ``eps * sum|w| / h^2``, is
below 3e-12, 3% of the smallest error (acoustic1d at SO8, 1.1e-10);
``dt = 1`` keeps the leapfrog step from amplifying it. So the test asks
for an order within 0.15 of p on both pairs and an error at n = 65
within 10% of the leading term.
"""

from math import factorial, log2, pi

import numpy as np
import pytest

from stencilc.backend import Operator
from stencilc.symbolic import Eq, FunctionDecl, Grid, dt2, laplace, solve_for

from helpers import rotated_equations

SIZES = (17, 33, 65)


def _samples(grid, halo):
    """Coordinates of every stored point along each dimension of ``grid``,
    halo included."""
    axes = [(np.arange(n + 2 * halo) - halo) * h
            for n, h in zip(grid.shape, grid.spacing_values.values())]
    return np.meshgrid(*axes, indexing="ij")


def _field(x, y=None):
    return np.sin(2 * pi * x) if y is None else \
        np.sin(2 * pi * x) * np.sin(pi * y)


def _acoustic_error(n, so, ndim, mode, block):
    g = Grid((n,) * ndim, extent=(1.0, 2.0)[:ndim])
    u = FunctionDecl("u", "timefunction", g, space_order=so, time_order=2)
    m = FunctionDecl("m", "function", g, space_order=so)
    op = Operator([Eq(u.forward, solve_for(m.at * dt2(u) - laplace(u),
                                           u.forward))],
                  mode=mode, block=block)
    bufs = op.allocate(1)
    bufs["m"].data[:] = 1.0
    coords = _samples(g, u.halo)
    f = _field(*coords)
    bufs["u"].data[:] = f  # every time slot
    op.apply(steps=1, buffers=bufs, dt=1.0)
    inner = (slice(u.halo, -u.halo),) * ndim
    exact = -((2 * pi) ** 2 + (pi ** 2 if ndim == 2 else 0)) * f
    return np.abs(bufs["u"].data[1] - f - exact)[inner].max()


def _rotated_error(n, so, mode, block):
    _, eqs = rotated_equations(so, (n, n), extent=(1.0, 2.0))
    op = Operator(eqs, mode=mode, block=block)
    bufs = op.allocate(1)  # theta = 0
    x, y = _samples(op.grid, so // 2)
    bufs["u"].data[:] = _field(x, y)
    op.apply(steps=1, buffers=bufs)
    exact = 2 * pi * pi * np.cos(2 * pi * x) * np.cos(pi * y)
    inner = (slice(so // 2, -(so // 2)),) * 2
    return np.abs(bufs["w"].data[1] - exact)[inner].max()


def _leading(name, so, n):
    """The leading truncation error at n points (module docstring)."""
    m, kh = so // 2, 2 * pi / (n - 1)
    c2 = 2 * factorial(m) ** 2 / factorial(2 * m + 2)
    c1 = factorial(m) ** 2 / factorial(2 * m + 1)
    scale = {"acoustic1d": c2 * (2 * pi) ** 2,
             "acoustic2d": c2 * 5 * pi ** 2,
             "rotated": 2 * c1 * 2 * pi ** 2}[name]
    return scale * kh ** so


CASES = [(name, so, mode, None)
         for mode in ("advanced", "basic", "aggressive")
         for name in ("acoustic1d", "acoustic2d", "rotated")
         for so in (2, 4, 8)] + \
    [("rotated", so, "aggressive", {"x": 4, "y": 4}) for so in (2, 4, 8)]


@pytest.mark.parametrize(
    "name,so,mode,block", CASES,
    ids=["%s-so%d-%s%s" % (n, so, mode, "-blocked" if b else "")
         for n, so, mode, b in CASES])
def test_spatial_order(name, so, mode, block):
    if name == "rotated":
        errors = [_rotated_error(n, so, mode, block) for n in SIZES]
    else:
        ndim = {"acoustic1d": 1, "acoustic2d": 2}[name]
        errors = [_acoustic_error(n, so, ndim, mode, block) for n in SIZES]
    orders = [log2(a / b) for a, b in zip(errors, errors[1:])]
    assert all(abs(o - so) < 0.15 for o in orders), orders
    ratio = errors[-1] / _leading(name, so, SIZES[-1])
    assert abs(ratio - 1) < 0.1, (errors, ratio)
