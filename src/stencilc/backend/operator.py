"""The compilation driver: equations in, executable artifact out.

An Operator runs the full pass pipeline (lowering and its halo check,
clustering, expression-level optimization, tree construction, dependence
analysis, optional blocking, declaration placement, source emission) and
caches the resulting artifact under a content hash of its inputs, so
recompiling an identical problem does no pass work. ``apply`` allocates
zeroed buffers, derives default loop bounds from the data spaces, and
interprets the tree; ``reference`` runs the unoptimized oracle on the
same problem.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, List, Optional, Sequence, Tuple

from ..clustering import clusterize
from ..dse import cluster_op_count, run_dse
from ..iet import (Block, Section, analyze_iet, block_loops, build_iet,
                   default_block_candidates, dump, place_declarations)
from ..lowering import (LoweredEq, _shift_for, check_halo_coverage,
                        collect_accesses, collect_functions, lower)
from ..symbolic.grid import Equation, FunctionDecl, Grid
from .codegen import emit_c
from .interpreter import BackendError, DataBuffer, allocate, run
from .reference import reference_run

#: Total pass invocations since import; a cache hit adds nothing.
PASS_WORK = 0

_CACHE: Dict[str, "OperatorArtifact"] = {}


def _work(n: int = 1):
    global PASS_WORK
    PASS_WORK += n


def clear_cache():
    _CACHE.clear()


@dataclass
class OperatorArtifact:
    key: str
    lowered: List[LoweredEq]
    clusters: list
    iet: Block
    functions: Dict[str, FunctionDecl]
    grid: Grid
    source: str
    sections: List[str]
    op_count_before: List[int]
    op_count_after: List[int]
    pass_times: Dict[str, float] = field(default_factory=dict)


def _decl_signature(f: FunctionDecl) -> tuple:
    g = f.grid
    tdim = f.time_dim
    return (f.name, f.kind, g.shape, g.extent, g.origin, f.space_order,
            f.time_order, f.save, f.npoint,
            (tdim.kind, tdim.factor, tdim.modulo) if tdim else None,
            tuple(f.coordinate_values or ()))


def _content_key(eqs, mode, block, dtype) -> str:
    h = hashlib.sha256()
    decls: Dict[str, FunctionDecl] = {}
    for eq in eqs:
        h.update(repr((eq.lhs, eq.rhs, eq.region,
                       eq.is_increment)).encode())
        h.update(b"\x00")
        for acc in [eq.lhs] + collect_accesses(eq.rhs):
            f = acc.func
            if f.kind != "temp":
                decls.setdefault(f.name, f)
    for name in sorted(decls):
        h.update(repr(_decl_signature(decls[name])).encode())
        h.update(b"\x00")
    if isinstance(block, dict):
        blockpart = tuple(sorted(block.items()))
    else:
        blockpart = block
    h.update(repr((mode, blockpart, dtype)).encode())
    return h.hexdigest()


def _compile(key, eqs, mode, block, dtype) -> OperatorArtifact:
    times: Dict[str, float] = {}

    def timed(label, fn):
        t0 = perf_counter()
        out = fn()
        times[label] = perf_counter() - t0
        _work()
        return out

    lowered = timed("lowering", lambda: [lower(e) for e in eqs])
    for eq in lowered:
        check_halo_coverage(eq)
    clusters = timed("clustering", lambda: clusterize(lowered))
    before = [cluster_op_count([c]) for c in clusters]
    clusters = timed("dse", lambda: run_dse(clusters, mode))
    after = [cluster_op_count([c]) for c in clusters]
    iet = timed("iet", lambda: build_iet(clusters))
    timed("analysis", lambda: analyze_iet(iet))
    if block:
        timed("blocking", lambda: block_loops(iet, block))
    iet.children = [Section("section%d" % i, [c])
                    for i, c in enumerate(iet.children)]
    timed("placement", lambda: place_declarations(iet))
    functions = collect_functions(lowered)
    ordered = [functions[k] for k in sorted(functions)]
    source = timed("emission",
                   lambda: emit_c(iet, ordered, dtype=dtype))
    grid = next(iter(functions.values())).grid
    return OperatorArtifact(key, lowered, clusters, iet, functions, grid,
                            source, [s.name for s in iet.children],
                            before, after, times)


class Operator:
    """A compiled, cached stencil operator."""

    def __init__(self, eqs: Sequence[Equation], mode: str = "advanced",
                 block: Optional[Dict[str, int]] = None, dtype: str = "f64"):
        if not eqs:
            raise BackendError("operator needs at least one equation")
        self.eqs = list(eqs)
        self.mode = mode
        self.block = dict(block) if block else None
        self.dtype = dtype
        key = _content_key(self.eqs, mode, self.block, dtype)
        art = _CACHE.get(key)
        self.cache_hit = art is not None
        if art is None:
            art = _compile(key, self.eqs, mode, self.block, dtype)
            _CACHE[key] = art
        self.artifact = art

    @property
    def iet(self) -> Block:
        return self.artifact.iet

    @property
    def source(self) -> str:
        return self.artifact.source

    @property
    def grid(self) -> Grid:
        return self.artifact.grid

    @property
    def functions(self) -> Dict[str, FunctionDecl]:
        return self.artifact.functions

    def dump_iet(self) -> str:
        return dump(self.artifact.iet)

    # -- runtime -------------------------------------------------------------

    def allocate(self, steps: int) -> Dict[str, DataBuffer]:
        """Zeroed buffers for every declared function; coordinate tables
        are filled from their declarations."""
        import numpy as np
        buffers: Dict[str, DataBuffer] = {}
        for f in self.functions.values():
            nt = steps if f.kind == "sparsetimefunction" else None
            buffers[f.name] = allocate(f, nt, self.dtype)
        for f in self.functions.values():
            if f.kind == "sparsetimefunction" and f.coordinate_values and \
                    f.coordinates.name in buffers:
                buffers[f.coordinates.name].data[:] = \
                    np.asarray(f.coordinate_values)
        return buffers

    def default_params(self, steps: int) -> dict:
        """Symbol bindings: grid spacings and origins, default loop bounds,
        with every upper bound capped so no in-space access can leave its
        allocation."""
        env = dict(self.grid.symbol_values())
        g = self.grid
        for i, d in enumerate(g.dimensions):
            env[d.name + "_m"] = 0
            env[d.name + "_M"] = g.shape[i] - 1
        env["t_m"] = 0
        env["t_M"] = steps - 1
        for f in self.functions.values():
            if f.kind == "sparsetimefunction":
                env[f.point_dim.name + "_m"] = 0
                env[f.point_dim.name + "_M"] = f.npoint - 1
        for eq in self.artifact.lowered:
            if eq.dspace is None:
                continue
            for decl, ivs in eq.dspace.parts:
                extents = decl.storage_extents(
                    steps if decl.kind == "sparsetimefunction" else None)
                for iv in ivs:
                    d = iv.dim
                    pos = decl.dims.index(d)
                    if d.kind == "stepping":
                        continue
                    if d.kind == "conditional":
                        cap = d.factor * extents[pos] - 1
                        name = d.root.name
                    else:
                        shift = _shift_for(decl, d)
                        cap = extents[pos] - 1 - shift - iv.upper
                        name = d.root.name
                    key = name + "_M"
                    if key in env:
                        env[key] = min(env[key], cap)
        return env

    def apply(self, steps: int = 1,
              buffers: Optional[Dict[str, DataBuffer]] = None,
              workers: int = 1, **params
              ) -> Tuple[Dict[str, DataBuffer], dict]:
        if buffers is None:
            buffers = self.allocate(steps)
        env = self.default_params(steps)
        env.update(params)
        report = run(self.artifact.iet, buffers, env, workers=workers)
        return buffers, report

    def reference(self, steps: int = 1,
                  buffers: Optional[Dict[str, DataBuffer]] = None,
                  **params) -> Dict[str, DataBuffer]:
        if buffers is None:
            buffers = self.allocate(steps)
        env = self.default_params(steps)
        env.update(params)
        return reference_run(self.artifact.lowered, buffers, env)


def autotune(eqs: Sequence[Equation], mode: str = "advanced",
             dtype: str = "f64", steps: int = 3,
             candidates: Optional[Sequence[dict]] = None, **params) -> dict:
    """Pick a block shape by timing short runs over zeroed buffers.
    ``params`` binds the scalars the runs need, such as ``dt``."""
    from ..iet import autotune_blocks
    probe = Operator(eqs, mode=mode, dtype=dtype)
    dims = [d.name for d in probe.grid.dimensions]
    if candidates is None:
        candidates = default_block_candidates(dims)

    def runner(shape: dict) -> float:
        op = Operator(eqs, mode=mode, block=shape, dtype=dtype)
        t0 = perf_counter()
        op.apply(steps=steps, **params)
        return perf_counter() - t0

    return autotune_blocks(probe.iet, runner, list(candidates))
