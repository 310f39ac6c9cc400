import textwrap
from collections import Counter
from dataclasses import replace

import pytest

from stencilc.clustering import Cluster, clusterize
from stencilc.dse import run_dse
from stencilc.iet import (ATOMIC, BLOCKED, PARALLEL, SEQUENTIAL, VECTORIZABLE,
                          Block, Conditional, ExpressionStmt, IETError,
                          Iteration, analyze_iet, autotune_blocks, block_loops,
                          build_iet, default_block_candidates, dump,
                          iterations, place_declarations, statements)
from stencilc.lowering import lower
from stencilc.symbolic import (Access, Eq, FunctionDecl, Grid, Symbol, add,
                               mul, num)
from stencilc.symbolic.expr import evaluate

from helpers import lowered_wave_example, rotated_laplacian_example

LISTING_GOLDEN = """\
for t = t_m to t_M:
 |-- for x = x_m to x_M:
 |     |-- <Eq(u[(1 + t), (1 + x)], ...)>
 |
 |-- if t % 4 == 0:
 |     |-- for x = x_m to x_M:
 |           |-- <Eq(us[idiv(t, 4), (1 + x)], ...)>
 |
 |-- for p_q = p_q_m to p_q_M:
       |-- <Inc(u[(1 + t), (1 + floor(h_x**-1*(q_coords[p_q, 0] + -1*o_x)))], ...)>
       |-- <Inc(u[(1 + t), (2 + floor(h_x**-1*(q_coords[p_q, 0] + -1*o_x)))], ...)>"""


def _wave_iet(**kwargs):
    funcs, eqs = lowered_wave_example(**kwargs)
    return funcs, build_iet(clusterize(eqs))


def _props(iet):
    return [(it.dim.name, it.properties) for it in iterations(iet)]


def _visit_points(iet, env, record_dims):
    """Enumerate the loop structure numerically; one tuple per statement
    execution, holding the values of the requested dimensions."""
    seen = []

    def rec(node, env):
        if isinstance(node, ExpressionStmt):
            seen.append(tuple(env[d] for d in record_dims))
            return
        if isinstance(node, Conditional):
            tval = env[node.guards[0].dim.name]
            if all(tval % g.factor == 0 for g in node.guards):
                for c in node.children:
                    rec(c, env)
            return
        if isinstance(node, Iteration):
            lo = int(evaluate(node.lower, env))
            hi = int(evaluate(node.upper, env))
            for v in range(lo, hi + 1, node.step):
                sub = dict(env)
                sub[node.dim.name] = v
                for c in node.children:
                    rec(c, sub)
            return
        for c in getattr(node, "children", ()):
            rec(c, env)

    rec(iet, dict(env))
    return seen


# -- Construction ------------------------------------------------------------


def test_running_example_matches_listing():
    funcs, iet = _wave_iet()
    assert dump(iet) == LISTING_GOLDEN


def test_single_cluster_simple_nest():
    funcs, eqs = lowered_wave_example()
    iet = build_iet(clusterize([eqs[0]]))
    its = iterations(iet)
    assert [it.dim.name for it in its] == ["t", "x"]
    assert len(statements(iet)) == 1
    assert isinstance(its[1].children[0], ExpressionStmt)


def test_same_ispace_clusters_share_fully():
    funcs, eqs = lowered_wave_example()
    eq = clusterize([eqs[0]])[0].eqs[0]
    c1 = Cluster([eq], eq.ispace)
    c2 = Cluster([eq], eq.ispace)
    iet = build_iet([c1, c2])
    assert [it.dim.name for it in iterations(iet)] == ["t", "x"]
    assert len(statements(iet)) == 2


def test_guard_subtree_never_shared():
    funcs, eqs = lowered_wave_example()
    clusters = clusterize(eqs)
    stencil, snapshot, injection = clusters
    iet = build_iet([snapshot, stencil])
    t_iter = iet.children[0]
    assert t_iter.dim.name == "t"
    assert isinstance(t_iter.children[0], Conditional)
    # The unguarded x loop is a sibling of the conditional, not inside it
    assert isinstance(t_iter.children[1], Iteration)
    assert t_iter.children[1].dim.name == "x"


def test_every_equation_scheduled_once_in_order():
    funcs, eqs = lowered_wave_example()
    clusters = clusterize(eqs)
    iet = build_iet(clusters)
    scheduled = [s.eq for s in statements(iet)]
    expected = [eq for c in clusters for eq in c.eqs]
    assert len(scheduled) == len(expected)
    assert all(a is b for a, b in zip(scheduled, expected))


# -- Analysis ----------------------------------------------------------------


def test_wave_parallelism_classification():
    funcs, iet = _wave_iet()
    analyze_iet(iet)
    props = _props(iet)
    assert props[0][0] == "t" and SEQUENTIAL in props[0][1]
    for name, p in props[1:3]:
        assert name == "x"
        assert PARALLEL in p and VECTORIZABLE in p
    assert props[3][0] == "p_q"
    assert PARALLEL in props[3][1] and ATOMIC in props[3][1]


def test_no_dependences_all_parallel():
    g = Grid((11,))
    u = FunctionDecl("u", "timefunction", g, space_order=2)
    w = FunctionDecl("w", "timefunction", g, space_order=2)
    iet = build_iet(clusterize([lower(Eq(w.forward, u.at))]))
    analyze_iet(iet)
    for it in iterations(iet):
        assert PARALLEL in it.properties


def test_unknown_distance_without_reduction_is_sequential():
    funcs, eqs = lowered_wave_example()
    injection = clusterize(eqs)[2]
    plain = [replace(eq, is_increment=False) for eq in injection.eqs]
    iet = build_iet([Cluster(plain, injection.ispace)])
    analyze_iet(iet)
    by_name = dict(_props(iet))
    assert SEQUENTIAL in by_name["p_q"]


def test_2d_stencil_space_dims_parallel():
    funcs, eqs = rotated_laplacian_example(4)
    iet = build_iet(clusterize(eqs))
    analyze_iet(iet)
    by_name = dict(_props(iet))
    assert PARALLEL in by_name["x"] and PARALLEL in by_name["y"]
    assert VECTORIZABLE in by_name["y"] and VECTORIZABLE not in by_name["x"]


def test_array_temp_reuse_makes_time_sequential():
    funcs, eqs = rotated_laplacian_example(4)
    iet = build_iet(run_dse(clusterize(eqs), "aggressive"))
    analyze_iet(iet)
    t_iter = next(it for it in iterations(iet) if it.dim.name == "t")
    assert SEQUENTIAL in t_iter.properties


# -- Blocking ----------------------------------------------------------------


def _flat_2d(shape):
    g = Grid(shape)
    u = FunctionDecl("u", "timefunction", g, space_order=2)
    w = FunctionDecl("w", "timefunction", g, space_order=2)
    iet = build_iet(clusterize([lower(Eq(w.forward, u.at))]))
    analyze_iet(iet)
    env = {"t_m": 0, "t_M": 0}
    for d, n in zip(g.dimensions, shape):
        env[d.name + "_m"] = 0
        env[d.name + "_M"] = n - 1
    return iet, env


def test_blocking_preserves_visited_multiset():
    iet, env = _flat_2d((17, 23))
    before = Counter(_visit_points(iet, env, ("x", "y")))
    block_loops(iet, {"x": 5, "y": 7})
    after = Counter(_visit_points(iet, env, ("x", "y")))
    assert before == after
    assert len(before) == 17 * 23


def test_block_larger_than_trip_count():
    iet, env = _flat_2d((6, 5))
    before = Counter(_visit_points(iet, env, ("x", "y")))
    block_loops(iet, {"x": 64, "y": 64})
    after = Counter(_visit_points(iet, env, ("x", "y")))
    assert before == after
    blocked = [it for it in iterations(iet) if BLOCKED in it.properties]
    assert {it.dim.name for it in blocked} == {"xb", "yb"}


def test_blocking_sequential_dim_rejected():
    funcs, iet = _wave_iet()
    analyze_iet(iet)
    with pytest.raises(IETError):
        block_loops(iet, {"t": 8})


def test_fused_producer_consumer_blocking():
    funcs, eqs = rotated_laplacian_example(4)
    iet = build_iet(run_dse(clusterize(eqs), "aggressive"))
    analyze_iet(iet)
    block_loops(iet, {"x": 8, "y": 8})
    t_iter = next(it for it in iterations(iet) if it.dim.name == "t")
    xb = [c for c in t_iter.children if isinstance(c, Iteration)]
    assert len(xb) == 1 and xb[0].dim.name == "xb"
    yb = xb[0].children[0]
    nests = [c for c in yb.children if isinstance(c, Iteration)]
    assert len(nests) == 2  # producer then consumer under one block loop
    producer, consumer = nests
    prod_stmt = statements(producer)[-1]
    assert prod_stmt.eq.lhs.func.kind == "temp"
    # Producer loop runs block + translation span extra points
    assert "min(xb + 7, x_M) + 4" in dump(producer)
    # ... and records its bounds from xb + 0 to min(xb + 7, x_M) + 4
    assert (producer.tile, consumer.tile) == (("xb", 0, 4), ("xb", 0, 0))
    assert producer.children[0].tile == ("yb", 0, 0)
    # Block-local temp indices are rebased to the block origin
    assert "xb" in repr(prod_stmt.eq.lhs.indices)
    assert prod_stmt.eq.lhs.func.block_shape == {"x": 8, "y": 8}
    # The hoisted time-invariant array stays a full-grid array
    inv = statements(iet.children[0])[-1]
    assert inv.eq.lhs.indices == (Symbol("x"), Symbol("y"))
    assert inv.eq.lhs.func.block_shape == {}


def test_fused_blocking_preserves_visits():
    funcs, eqs = rotated_laplacian_example(4, shape=(13, 11))
    iet = build_iet(run_dse(clusterize(eqs), "aggressive"))
    analyze_iet(iet)
    env = {"t_m": 0, "t_M": 0, "x_m": 0, "x_M": 12, "y_m": 0, "y_M": 10}
    g = funcs["grid"]
    consumer_before = [p for p in _visit_points(iet, env, ("x", "y"))]
    block_loops(iet, {"x": 4, "y": 4})
    consumer_after = [p for p in _visit_points(iet, env, ("x", "y"))]
    # Every originally visited point is still visited; producer points may
    # be recomputed at block edges, so compare as sets per statement count
    assert set(consumer_before) <= set(consumer_after)
    assert Counter(consumer_after)[(0, 0)] >= 1


# -- Autotuning --------------------------------------------------------------


def test_autotune_single_candidate():
    assert autotune_blocks(None, lambda c: 1.0, [{"x": 8}]) == {"x": 8}


def test_autotune_first_minimum_wins():
    times = {4: 2.0, 8: 1.0, 16: 1.0}
    got = autotune_blocks(None, lambda c: times[c["x"]],
                          [{"x": s} for s in (4, 8, 16)])
    assert got == {"x": 8}


def test_autotune_empty_candidates():
    with pytest.raises(IETError):
        autotune_blocks(None, lambda c: 0.0, [])


def test_default_block_candidates_closed():
    cands = default_block_candidates(("x", "y"))
    assert all(set(c) == {"x", "y"} for c in cands)
    assert [c["x"] for c in cands] == [4, 8, 16, 32, 64]


# -- Declarations ------------------------------------------------------------


def test_invariant_arrays_declared_above_time_loop():
    funcs, eqs = lowered_wave_example()
    iet = build_iet(run_dse(clusterize(eqs), "advanced"))
    analyze_iet(iet)
    place_declarations(iet)
    names = {d.decl.name for d in iet.declarations}
    assert {"temp0", "temp1"} <= names
    assert all(d.scope == "shared" for d in iet.declarations)


def test_scalar_temps_private_in_parallel_body():
    funcs, eqs = lowered_wave_example()
    iet = build_iet(run_dse(clusterize(eqs), "basic"))
    analyze_iet(iet)
    place_declarations(iet)
    x_iter = iterations(iet)[1]
    scoped = {d.decl.name: d.scope for d in x_iter.declarations}
    assert scoped and all(s == "private" for s in scoped.values())


def test_unused_temp_elided():
    funcs, eqs = lowered_wave_example()
    clusters = clusterize(run_dse(clusterize(eqs), "basic")[0].eqs)
    iet = build_iet(clusters)
    # Rewrite the main statement so no temp is ever read
    main = statements(iet)[-1]
    main.eq = replace(main.eq, rhs=num(0))
    analyze_iet(iet)
    place_declarations(iet)
    assert all(s.eq.lhs.func.kind != "temp" for s in statements(iet))
    assert not any(d for it in iterations(iet) for d in it.declarations)


# -- Determinism -------------------------------------------------------------


def test_dump_is_deterministic():
    funcs, eqs = lowered_wave_example()
    a = dump(build_iet(clusterize(eqs)))
    funcs2, eqs2 = lowered_wave_example()
    b = dump(build_iet(clusterize(eqs2)))
    assert a == b == LISTING_GOLDEN
