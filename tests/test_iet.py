import hashlib
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
from stencilc.symbolic import Eq, FunctionDecl, Grid, Symbol
from stencilc.symbolic.expr import evaluate

from helpers import CONFIGS, lowered_wave_example, rotated_laplacian_example

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


#: SHA-256 of ``(dim, sorted(properties))`` over every loop of the tree, in
#: preorder, for each of ``helpers.GOLDEN_OPERATORS`` in every mode,
#: unblocked and in blocks of 4 along every grid dimension (the
#: recurrence's sequential x cannot be blocked).
LOOP_PROPERTIES_SHA256 = {
    "acoustic-basic":
        "1db0d056ba27c5066b83516e43b331558da0222fe7a1799d09f142c49223e75b",
    "acoustic-basic-blocked":
        "ba21fb3994baf76395d6a018a0128b5753dfbadc7dea01191196d7313bfbbb52",
    "acoustic-advanced":
        "e8e6449897ea9b73b888a72c05396c3da584efcf40e1c55c91fecc358fb75ee6",
    "acoustic-advanced-blocked":
        "1b53fa6e5f2ac93c5fffe5c8851a79f49107e461bc5a99b335ed23678effe003",
    "acoustic-aggressive":
        "e8e6449897ea9b73b888a72c05396c3da584efcf40e1c55c91fecc358fb75ee6",
    "acoustic-aggressive-blocked":
        "1b53fa6e5f2ac93c5fffe5c8851a79f49107e461bc5a99b335ed23678effe003",
    "coupled-basic":
        "dc46f016f95ed6ce7090705019bcce64583f6ad97fb9c4f771366ab2e391bb35",
    "coupled-basic-blocked":
        "47bc5bfa3146958483dbdd4ad1beade79ab039e7da0491efa191988e3d00077b",
    "coupled-advanced":
        "dc46f016f95ed6ce7090705019bcce64583f6ad97fb9c4f771366ab2e391bb35",
    "coupled-advanced-blocked":
        "47bc5bfa3146958483dbdd4ad1beade79ab039e7da0491efa191988e3d00077b",
    "coupled-aggressive":
        "dc46f016f95ed6ce7090705019bcce64583f6ad97fb9c4f771366ab2e391bb35",
    "coupled-aggressive-blocked":
        "47bc5bfa3146958483dbdd4ad1beade79ab039e7da0491efa191988e3d00077b",
    "recurrence-basic":
        "e493254a707086d3f3c4e60470c6777918f10d754eeadd2463e6c7c42076b717",
    "recurrence-advanced":
        "e493254a707086d3f3c4e60470c6777918f10d754eeadd2463e6c7c42076b717",
    "recurrence-aggressive":
        "e493254a707086d3f3c4e60470c6777918f10d754eeadd2463e6c7c42076b717",
    "rotated-basic":
        "57db289d6ff20d18c94f08270d2f68861f967973eb4fdf590c89854af71ceed6",
    "rotated-basic-blocked":
        "33353f8e557eca187323ba79ef8f2d570decd79be0a751655e6baada7a629e09",
    "rotated-advanced":
        "ff5bb7fafaa4e4b5a8378f40361384ad4f001e6a75de5a4d0e9a6e898fc00280",
    "rotated-advanced-blocked":
        "1fdd4e3c2345f165ce861426a2d564748bc06b56f7be92491bc92b4b212cd62c",
    "rotated-aggressive":
        "c059cb6614dbda809d80dbc060c86e4b22ab93aba6e9db4afef366a32dc9665f",
    "rotated-aggressive-blocked":
        "b41c4d23fedd9eb38bacd20e8ebcb197a42ea3461d3f6cdbed317234fd95b21c",
    "tti-basic":
        "dc46f016f95ed6ce7090705019bcce64583f6ad97fb9c4f771366ab2e391bb35",
    "tti-basic-blocked":
        "47bc5bfa3146958483dbdd4ad1beade79ab039e7da0491efa191988e3d00077b",
    "tti-advanced":
        "47bda0d146b9e9e2574ea855d7398ac3723a99e381cf4f41552fa71b91c62c0b",
    "tti-advanced-blocked":
        "8c294dd2dc13d9583ad183d027165c5dcdac2e2e593b8c36790e5c0d5a80d76b",
    "tti-aggressive":
        "47bda0d146b9e9e2574ea855d7398ac3723a99e381cf4f41552fa71b91c62c0b",
    "tti-aggressive-blocked":
        "8c294dd2dc13d9583ad183d027165c5dcdac2e2e593b8c36790e5c0d5a80d76b",
    "two-field-basic":
        "57db289d6ff20d18c94f08270d2f68861f967973eb4fdf590c89854af71ceed6",
    "two-field-basic-blocked":
        "33353f8e557eca187323ba79ef8f2d570decd79be0a751655e6baada7a629e09",
    "two-field-advanced":
        "ff5bb7fafaa4e4b5a8378f40361384ad4f001e6a75de5a4d0e9a6e898fc00280",
    "two-field-advanced-blocked":
        "1fdd4e3c2345f165ce861426a2d564748bc06b56f7be92491bc92b4b212cd62c",
    "two-field-aggressive":
        "ff5bb7fafaa4e4b5a8378f40361384ad4f001e6a75de5a4d0e9a6e898fc00280",
    "two-field-aggressive-blocked":
        "1fdd4e3c2345f165ce861426a2d564748bc06b56f7be92491bc92b4b212cd62c",
    "wave-basic":
        "883b464ad8678639021bf7c275c617e92e0eaa448c7c9228ddb53bf0da2416f0",
    "wave-basic-blocked":
        "e7ef03ea964b0de27948ecf0311fd024f7ad5159e928c578e01d410baeff4422",
    "wave-advanced":
        "5cbdb4b880f07af4e9c38371254c5e7a4f3d4519bdf15498c2cea00c51cb99fc",
    "wave-advanced-blocked":
        "51c5af17d987d41248e8c768f97f5e62992532edff2dfc4d9a2324b78c46ccd0",
    "wave-aggressive":
        "5cbdb4b880f07af4e9c38371254c5e7a4f3d4519bdf15498c2cea00c51cb99fc",
    "wave-aggressive-blocked":
        "51c5af17d987d41248e8c768f97f5e62992532edff2dfc4d9a2324b78c46ccd0",
}

#: SHA-256 of ``op.source + op.dump_iet()`` for the same configurations:
#: the emitted C and the tree dump, byte for byte.
SOURCE_SHA256 = {
    "acoustic-advanced":
        "4141cc4dd62161d12dcca20689e1ba53d6382b8aa35f2cf754ade043f246d1b7",
    "acoustic-advanced-blocked":
        "b6fc552e8bd9806db5719ebdcf6a1cb9c9e9f8ef5454703a252c4b12b61f1cee",
    "acoustic-aggressive":
        "4141cc4dd62161d12dcca20689e1ba53d6382b8aa35f2cf754ade043f246d1b7",
    "acoustic-aggressive-blocked":
        "b6fc552e8bd9806db5719ebdcf6a1cb9c9e9f8ef5454703a252c4b12b61f1cee",
    "acoustic-basic":
        "a6a0848a477def61a3ad3e29ffbd0b96d1c801c3ef220b2032113233dcc759c7",
    "acoustic-basic-blocked":
        "897ce7ae24ccb09355399e2ec486c490eaaa451fe37622c931668e535be201fb",
    "coupled-advanced":
        "d67fa7ae9933824a7b1154a225a44f85b0650165b8319ededa7ffb2f0246bc12",
    "coupled-advanced-blocked":
        "84eab126dc0ee53d3bf54999da83700419dd6706e457db2932ce0c4b29327f9f",
    "coupled-aggressive":
        "d67fa7ae9933824a7b1154a225a44f85b0650165b8319ededa7ffb2f0246bc12",
    "coupled-aggressive-blocked":
        "84eab126dc0ee53d3bf54999da83700419dd6706e457db2932ce0c4b29327f9f",
    "coupled-basic":
        "21630bae63057314a4ca640dc5086250f8f446daa83964219f541144412f3568",
    "coupled-basic-blocked":
        "cebbb5f95fdd25a7b0feba987d8930b4810fc77e96a4daa5caf72850638c073d",
    "recurrence-advanced":
        "c8a95980a628c085b1e34ab17367b1c1b4682f65c8e63f6dc2951856bbd46e72",
    "recurrence-aggressive":
        "c8a95980a628c085b1e34ab17367b1c1b4682f65c8e63f6dc2951856bbd46e72",
    "recurrence-basic":
        "c8a95980a628c085b1e34ab17367b1c1b4682f65c8e63f6dc2951856bbd46e72",
    "rotated-advanced":
        "49ee48af3789f31e3f36f690a099a3301e53fd00174534ff4e479fe29e8a67b9",
    "rotated-advanced-blocked":
        "d9340d3e65682921f613205a822c4e4fa1ff66ac5000e10676dd26554d45b215",
    "rotated-aggressive":
        "01a73ab369b2d5f8be94c91af0ae8be1542c1b560317f6e85ea567d4cc3fcc89",
    "rotated-aggressive-blocked":
        "c9c491d128e5f2499d48bf0067bab4fc21fab718565bc287b09e82b174937391",
    "rotated-basic":
        "627f0c197c51fa9b0c16f099abc7ebbb4919b2bf0ae6543384332276fb94edd5",
    "rotated-basic-blocked":
        "1e0d0e593c3edb8c47e7471168bfdb5da6c733edce3ea62d043119cff39e0d4d",
    "tti-advanced":
        "9a96f7a35f16840fd60b9c6c487c6fff2bd88d4db1de3d598d7f5f8bd217079f",
    "tti-advanced-blocked":
        "a05244eb2e2c24119c9a546a96d159820a157ca4a9376b82bfc188a014ede841",
    "tti-aggressive":
        "9a96f7a35f16840fd60b9c6c487c6fff2bd88d4db1de3d598d7f5f8bd217079f",
    "tti-aggressive-blocked":
        "a05244eb2e2c24119c9a546a96d159820a157ca4a9376b82bfc188a014ede841",
    "tti-basic":
        "32b247965a03be1cde94ec02ff15111ce4d6fe5cf73616a5f0756c031fb60d0c",
    "tti-basic-blocked":
        "041db27f9cde5907a4b7f845b178cf826cae07ae404f59e3a2181b299e8c3563",
    "two-field-advanced":
        "59e3ad61cc27e415050501ac1feff6a1e86aa2c74b95c087d77c443327294b84",
    "two-field-advanced-blocked":
        "7aa98572f14727c3acea09dd88a8b9d3e1329db1240d7f07032b3f5e59797d66",
    "two-field-aggressive":
        "59e3ad61cc27e415050501ac1feff6a1e86aa2c74b95c087d77c443327294b84",
    "two-field-aggressive-blocked":
        "7aa98572f14727c3acea09dd88a8b9d3e1329db1240d7f07032b3f5e59797d66",
    "two-field-basic":
        "13a56faeebb91d23233e1b17461680c037b126f6e447c761076baffc09199e13",
    "two-field-basic-blocked":
        "e74a5147e8d5f110e782784fb1eeb8b3a54075c2328b3d93b8ceb7185f9d97cf",
    "wave-advanced":
        "7c6296e3d2931700c1c47f782bde7188983d630037d99b1c9f6dad0a4723483a",
    "wave-advanced-blocked":
        "3a6361c3a2f8ed4ed83ed3d53236a4cac0f2838ccb2b9bbe52618c99e45a77a9",
    "wave-aggressive":
        "7c6296e3d2931700c1c47f782bde7188983d630037d99b1c9f6dad0a4723483a",
    "wave-aggressive-blocked":
        "3a6361c3a2f8ed4ed83ed3d53236a4cac0f2838ccb2b9bbe52618c99e45a77a9",
    "wave-basic":
        "cdce3c9176515a1f95b67606a1edff5e56e14ff69745a0d4a27d0f82181f2875",
    "wave-basic-blocked":
        "6775a1ef2f86b74e97348ec114eee5c48253001325dd5cd8ccb22aa57ff865fc",
}


def test_golden_configurations_run_on_every_executor():
    # A golden pins only configurations that test_executors_agree runs.
    assert set(LOOP_PROPERTIES_SHA256) | set(SOURCE_SHA256) <= set(CONFIGS)


@pytest.mark.parametrize("name", sorted(LOOP_PROPERTIES_SHA256))
def test_loop_properties_golden(name):
    op = CONFIGS[name].build()
    props = [(it.dim.name, sorted(it.properties))
             for it in iterations(op.iet)]
    digest = hashlib.sha256(repr(props).encode()).hexdigest()
    assert digest == LOOP_PROPERTIES_SHA256[name]


@pytest.mark.parametrize("name", sorted(SOURCE_SHA256))
def test_source_golden(name):
    op = CONFIGS[name].build()
    text = op.source + op.dump_iet()
    assert hashlib.sha256(text.encode()).hexdigest() == SOURCE_SHA256[name]


@pytest.mark.parametrize("name", sorted(SOURCE_SHA256))
def test_every_temporary_is_read(name):
    # DSE creates only temporaries some statement reads: placement never
    # has a dead definition to drop.
    stmts = statements(CONFIGS[name].build().iet)
    written = {s.eq.lhs.func for s in stmts if s.eq.lhs.func.kind == "temp"}
    read = {a.func for s in stmts for a in s.eq.accesses[1:]}
    assert written <= read


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
    assert autotune_blocks(lambda c: 1.0, [{"x": 8}]) == {"x": 8}


def test_autotune_first_minimum_wins():
    times = {4: 2.0, 8: 1.0, 16: 1.0}
    got = autotune_blocks(lambda c: times[c["x"]],
                          [{"x": s} for s in (4, 8, 16)])
    assert got == {"x": 8}


def test_autotune_empty_candidates():
    with pytest.raises(IETError):
        autotune_blocks(lambda c: 0.0, [])


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


# -- Determinism -------------------------------------------------------------


def test_dump_is_deterministic():
    funcs, eqs = lowered_wave_example()
    a = dump(build_iet(clusterize(eqs)))
    funcs2, eqs2 = lowered_wave_example()
    b = dump(build_iet(clusterize(eqs2)))
    assert a == b == LISTING_GOLDEN
