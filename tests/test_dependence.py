import itertools

import pytest

from stencilc.dependence import (ANTI, FLOW, OUTPUT, REDUCTION, _distance,
                                 _offsets_by_loop_dim, detect_flow_directions,
                                 get_dependences)
from stencilc.lowering import BACKWARD, FORWARD, _access_offsets, lower
from stencilc.symbolic import (Access, Eq, FunctionDecl, Grid, Symbol, add,
                               dt2, inject, laplace, mul, num, solve_for)


def _1d():
    g = Grid((11,))
    u = FunctionDecl("u", "timefunction", g, space_order=2, time_order=2)
    v = FunctionDecl("v", "timefunction", g, space_order=2, time_order=2)
    return g, u, v


def _shifted(f, t_off, x_off):
    t, x = Symbol("t"), Symbol("x")
    dt_, h = Symbol("dt"), Symbol("h_x")
    return Access(f, (add(t, mul(num(t_off), dt_)),
                      add(x, mul(num(x_off), h))))


def test_wave_self_flow_carried_by_time():
    g, u, v = _1d()
    m = FunctionDecl("m", "function", g)
    stencil = solve_for(m.at * dt2(u) - laplace(u), u.forward)
    low = lower(Eq(u.forward, stencil))
    deps = get_dependences([low])
    flows = [d for d in deps if d.kind == FLOW and d.function is u]
    assert flows
    for d in flows:
        assert d.cause == g.time_dim
        assert d.distance_along(g.time_dim) in (1, 2)
        assert d.is_carried


def test_negative_leading_distance_normalizes_to_anti():
    g, u, v = _1d()
    e1 = lower(Eq(_shifted(u, 1, 0), _shifted(u, 0, 0)))
    e2 = lower(Eq(_shifted(v, 1, 0), _shifted(u, 1, 1)))
    deps = get_dependences([e1, e2])
    cross = [d for d in deps if d.function is u and
             d.source is not d.sink]
    assert len(cross) == 1
    d = cross[0]
    # e2 reads u[t+1, x+1]; e1 writes it one x-iteration later
    assert d.kind == ANTI
    assert d.source is e2 and d.sink is e1
    assert d.distance == (0, 1)
    assert d.cause == g.dimensions[0]


def test_independent_dependence_zero_distance():
    g, u, v = _1d()
    e1 = lower(Eq(_shifted(u, 1, 0), _shifted(u, 0, 0)))
    e2 = lower(Eq(_shifted(v, 1, 0), _shifted(u, 1, 0)))
    deps = [d for d in get_dependences([e1, e2])
            if d.source is e1 and d.sink is e2]
    assert len(deps) == 1
    assert deps[0].kind == FLOW
    assert deps[0].is_independent
    assert deps[0].cause is None


def test_output_dependence():
    g, u, v = _1d()
    e1 = lower(Eq(_shifted(u, 1, 0), num(0)))
    e2 = lower(Eq(_shifted(u, 1, 1), num(1)))
    deps = [d for d in get_dependences([e1, e2]) if d.kind == OUTPUT]
    assert len(deps) == 1
    assert deps[0].distance_along(g.dimensions[0]) == 1


def test_injection_corners_form_reduction_with_unknown_distance():
    g, u, v = _1d()
    q = FunctionDecl("q", "sparsetimefunction", g, npoint=2,
                     coordinates=[(2.5,), (6.0,)])
    eqs = [lower(e) for e in inject(q, u.forward, q.at)]
    deps = get_dependences(eqs)
    on_u = [d for d in deps if d.function is u]
    assert on_u
    assert all(d.kind == REDUCTION for d in on_u)
    assert any(None in d.distance for d in on_u)
    assert all(d.cause is not None and d.cause.name == "p_q" for d in on_u
               if None in d.distance)


def test_increment_reading_its_target_carries_a_flow():
    # Only the pair of increment targets is a reduction; the read of
    # u[x - 1] is the flow a running sum carries along x.
    from helpers import recurrence_equations
    low = lower(recurrence_equations()[0])
    x = low.ispace.dims[0]
    deps = get_dependences([low])
    assert sorted((d.kind, d.distance) for d in deps) == \
        [(FLOW, (1,)), (REDUCTION, (0,))]
    assert detect_flow_directions(deps) == {x: {FORWARD}}
    assert low.ispace.direction_of(x) == FORWARD


def test_detect_flow_directions():
    g, u, v = _1d()
    fwd = lower(Eq(_shifted(u, 1, 0), _shifted(u, 0, 0)))
    bwd = lower(Eq(_shifted(v, -1, 0), _shifted(v, 0, 0)))
    dirs = get_dependences([fwd])
    assert detect_flow_directions(dirs) == {g.time_dim: {FORWARD}}
    dirs = get_dependences([bwd])
    assert detect_flow_directions(dirs) == {g.time_dim: {BACKWARD}}


def _access_distance(src, snk, dims):
    """The distance from ``src`` to ``snk`` over ``dims``, as
    ``get_dependences`` derives it from each access's offsets."""
    return _distance(_offsets_by_loop_dim(src, _access_offsets(src)),
                     _offsets_by_loop_dim(snk, _access_offsets(snk)), dims)


@pytest.mark.parametrize("kw,kr", list(itertools.product([-2, -1, 0, 1, 2],
                                                         repeat=2)))
def test_lamport_distance_matches_enumeration_oracle(kw, kr):
    """Brute-force conservatism: over a small iteration range, every pair
    of iterations touching the same element must be separated by exactly
    the reported distance."""
    g = Grid((32,))
    f = FunctionDecl("f", "function", g, space_order=4)
    x, h = Symbol("x"), Symbol("h_x")
    w = Access(f, (add(x, mul(num(kw), h)),))
    r = Access(f, (add(x, mul(num(kr), h)),))
    eq = lower(Eq(w, r + num(1)))
    from stencilc.lowering import collect_accesses
    read = collect_accesses(eq.rhs)[0]
    dist = _access_distance(eq.lhs, read, eq.ispace.dims)
    # Enumerate: write at iteration i hits element i+kw; read at j hits j+kr
    # The sink (read) iteration minus the source (write) iteration
    observed = {j - i for i in range(8, 24) for j in range(8, 24)
                if i + kw == j + kr}
    assert observed == {dist[0]}


def test_dependences_require_analysis():
    g, u, v = _1d()
    from stencilc.lowering import indexify
    with pytest.raises(ValueError):
        get_dependences([indexify(Eq(u.forward, u.at))])


def _all_pairs_dependences(eqs):
    """``get_dependences`` by brute force: every (i, j) pair in program
    order, every candidate access, other functions rejected one by one.
    Only a pair of increment targets is a reduction."""
    from stencilc.dependence import Dependence, _normalize, _union_dims
    deps, seen = [], set()

    def write(eq):
        """(access, is an increment target) of the write of ``eq``."""
        return eq.lhs, eq.is_increment

    def reads(eq):
        found = [(acc, False) for acc in eq.accesses[1:]]
        return found + [write(eq)] if eq.is_increment else found

    def emit(src, snk, src_eq, snk_eq, kind, dims):
        (src, src_target), (snk, snk_target) = src, snk
        if src.func is not snk.func:
            return
        both = src_target and snk_target
        if both and kind != FLOW:
            return
        dep = _normalize(Dependence(src_eq, snk_eq, src.func,
                                    REDUCTION if both else kind, dims,
                                    _access_distance(src, snk, dims)))
        if dep is None:
            return
        key = (id(dep.source), id(dep.sink), dep.function.name, dep.kind,
               dep.distance, dep.flipped)
        if key not in seen:
            seen.add(key)
            deps.append(dep)

    for i, ei in enumerate(eqs):
        for j in range(i, len(eqs)):
            ej = eqs[j]
            dims = _union_dims(ei, ej)
            for r in reads(ej):
                emit(write(ei), r, ei, ej, FLOW, dims)
            if i != j:
                for r in reads(ei):
                    emit(r, write(ej), ei, ej, ANTI, dims)
                emit(write(ei), write(ej), ei, ej, OUTPUT, dims)
    return deps


def _identities(deps):
    return [(id(d.source), id(d.sink), id(d.function), d.kind, d.dims,
             d.distance, d.flipped) for d in deps]


@pytest.mark.parametrize("example", ["wave", "acoustic", "coupled8",
                                     "coupled24", "recurrence"])
def test_dependences_by_function_match_all_pairs(example):
    from helpers import (acoustic_example, coupled_equations,
                         recurrence_equations, wave_example)
    eqs = {"wave": lambda: wave_example()[1],
           "acoustic": lambda: acoustic_example((8, 8), so=4)[1],
           "coupled8": lambda: coupled_equations(8),
           "coupled24": lambda: coupled_equations(24),
           "recurrence": recurrence_equations}[example]()
    lowered = [lower(e) for e in eqs]
    # Reversed, every flow between equations becomes an anti dependence.
    for order in (lowered, lowered[::-1]):
        got = get_dependences(order)
        assert got
        assert _identities(got) == _identities(_all_pairs_dependences(order))
