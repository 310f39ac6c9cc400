"""The benchmark's three problems, each built from a seed.

A workload is split in two. ``draw_coordinates`` and ``draw_fields`` make
every input from the seed: sparse-point coordinates, the source wavelet,
the initial wavefields and the model. ``build`` declares the symbolic
problem from the drawn coordinates and is the part of set-up that the
benchmark times; stencilc only ever sees the generated arrays and
coordinates. The acoustic and rotated forms mirror the builders the test
suite uses.

Why these three: each one loads a different layer of stencilc.

- ``acoustic3d-so8`` spends its time in the interpreter's sliced numpy
  path (unblocked, ``advanced``), so it is the baseline for kernel
  throughput and the worker pool, and it bypasses blocking, aggressive
  DSE and large compiles.
- ``rotated2d-so12-blocked`` is the cross-iteration redundancy case
  (``aggressive``, block-local array temporaries) and, blocked, spends
  its run in the interpreter's per-block dispatch.
- ``coupled8-3d-so8`` has 8 coupled equations on a small grid, so
  compile time (dependence analysis, clustering, tree analysis)
  dominates and the run is short.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Dict, Optional, Tuple

import numpy as np


@dataclass(frozen=True)
class Workload:
    name: str
    shape: Tuple[int, ...]
    space_order: int
    mode: str
    block: Optional[Dict[str, int]]
    steps: int
    dt: float
    nfields: int
    #: (workload, coordinates) -> (equations, names of checked outputs)
    build: Callable
    #: (workload, rng) -> coordinates, drawn before anything is built
    draw_coordinates: Callable
    #: (workload, rng, buffers) -> {buffer name: initial array}
    draw_fields: Callable
    #: What the run's apply time is bound by, "numpy" (whole-array passes
    #: over large arrays) or "python" (per-block or per-call dispatch);
    #: picks the calibration kernel that scales it.
    run_kernel: str

    @property
    def grid_points(self) -> int:
        """Grid points per time step, from the grid shape."""
        return math.prod(self.shape)


def _interior_point(rng, shape, margin):
    """A point drawn uniformly at least ``margin`` cells inside the grid
    (unit spacing, origin 0)."""
    return tuple(float(rng.uniform(margin, s - 1 - margin)) for s in shape)


def _model(rng, extents):
    """Squared slowness: 1.5 plus a small perturbation."""
    return 1.5 + 0.05 * rng.uniform(-1.0, 1.0, extents)


# -- acoustic3d-so8 -----------------------------------------------------------


def _acoustic_coordinates(wl, rng):
    margin = wl.space_order
    return {"src": _interior_point(rng, wl.shape, margin),
            "rec": _interior_point(rng, wl.shape, margin)}


def _acoustic_build(wl, coords):
    from stencilc.symbolic import (Eq, FunctionDecl, Grid, Symbol, dt2,
                                   inject, interpolate, laplace, mul, pow_,
                                   solve_for)
    g = Grid(wl.shape)
    so = wl.space_order
    u = FunctionDecl("u", "timefunction", g, space_order=so, time_order=2)
    m = FunctionDecl("m", "function", g, space_order=so)
    src = FunctionDecl("src", "sparsetimefunction", g, npoint=1,
                       coordinates=[coords["src"]])
    rec = FunctionDecl("rec", "sparsetimefunction", g, npoint=1,
                       coordinates=[coords["rec"]])
    stencil = Eq(u.forward, solve_for(m.at * dt2(u) - laplace(u), u.forward))
    dt = Symbol("dt")
    source = inject(src, u.forward, mul(src.at, dt, dt, pow_(m.at, -1)))
    receiver = interpolate(rec, u.at)
    return [stencil] + source + receiver, ("u", "rec")


def _ricker(rng, steps, dt):
    """A Ricker wavelet with a seeded peak frequency and amplitude."""
    f0 = 0.08 * (1.0 + 0.25 * rng.uniform(-1.0, 1.0))
    amp = 1.0 + 0.5 * rng.uniform(-1.0, 1.0)
    t = np.arange(steps) * dt - 1.0 / f0
    a = (math.pi * f0 * t) ** 2
    return amp * (1.0 - 2.0 * a) * np.exp(-a)


def _acoustic_fields(wl, rng, buffers):
    return {"m": _model(rng, buffers["m"].extents),
            "u": rng.uniform(-1.0, 1.0, buffers["u"].extents),
            "src": _ricker(rng, wl.steps, wl.dt).reshape(
                buffers["src"].extents)}


# -- rotated2d-so12-blocked ---------------------------------------------------


def _no_coordinates(wl, rng):
    return {}


def _rotated_build(wl, coords):
    from stencilc.symbolic import Eq, FunctionDecl, Grid, Symbol, call, mul
    from stencilc.symbolic.fd import derivative, derivative_of
    g = Grid(wl.shape)
    so = wl.space_order
    u = FunctionDecl("u", "timefunction", g, space_order=so, time_order=2)
    th = FunctionDecl("theta", "function", g, space_order=so)
    w = FunctionDecl("w", "timefunction", g, space_order=so, time_order=2)
    x, y = g.dimensions
    inner = mul(call("cos", th.at), derivative(u, y, so, 1))
    expr = derivative_of(inner, x, so, 1, Symbol("h_x"))
    return [Eq(w.forward, expr)], ("w",)


def _rotated_fields(wl, rng, buffers):
    return {"theta": rng.uniform(0.0, 2.0 * math.pi,
                                 buffers["theta"].extents),
            "u": rng.uniform(-1.0, 1.0, buffers["u"].extents)}


# -- coupled8-3d-so8 ----------------------------------------------------------


def _coupled_build(wl, coords):
    from stencilc.symbolic import Eq, FunctionDecl, Grid, dt2, laplace, \
        solve_for
    g = Grid(wl.shape)
    so = wl.space_order
    m = FunctionDecl("m", "function", g, space_order=so)
    fs = [FunctionDecl("f%d" % k, "timefunction", g, space_order=so,
                       time_order=2) for k in range(wl.nfields)]
    eqs = []
    for k, f in enumerate(fs):
        pde = m.at * dt2(f) - laplace(f)
        if k > 0:
            pde = pde - fs[k - 1].at
        eqs.append(Eq(f.forward, solve_for(pde, f.forward)))
    return eqs, tuple(f.name for f in fs)


def _coupled_fields(wl, rng, buffers):
    out = {"m": _model(rng, buffers["m"].extents)}
    for k in range(wl.nfields):
        name = "f%d" % k
        out[name] = rng.uniform(-1.0, 1.0, buffers[name].extents)
    return out


WORKLOADS: Dict[str, Workload] = {wl.name: wl for wl in [
    Workload("acoustic3d-so8", (96, 96, 96), 8, "advanced", None,
             steps=5, dt=0.2, nfields=1, build=_acoustic_build,
             draw_coordinates=_acoustic_coordinates,
             draw_fields=_acoustic_fields, run_kernel="numpy"),
    Workload("rotated2d-so12-blocked", (256, 256), 12, "aggressive",
             {"x": 32, "y": 32}, steps=5, dt=0.2, nfields=1,
             build=_rotated_build, draw_coordinates=_no_coordinates,
             draw_fields=_rotated_fields, run_kernel="python"),
    Workload("coupled8-3d-so8", (16, 16, 16), 8, "advanced", None,
             steps=10, dt=0.2, nfields=8, build=_coupled_build,
             draw_coordinates=_no_coordinates,
             draw_fields=_coupled_fields, run_kernel="python"),
]}

#: The same problems at a size that runs in well under a second, for the
#: benchmark's own tests.
TINY: Dict[str, Workload] = {
    "acoustic3d-so8": replace(WORKLOADS["acoustic3d-so8"],
                              shape=(20, 20, 20), steps=3),
    "rotated2d-so12-blocked": replace(WORKLOADS["rotated2d-so12-blocked"],
                                      shape=(24, 24), block={"x": 8, "y": 8},
                                      steps=3),
    "coupled8-3d-so8": replace(WORKLOADS["coupled8-3d-so8"],
                                shape=(8, 8, 8), nfields=3, steps=3),
}
