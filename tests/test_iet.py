import hashlib
from collections import Counter
from dataclasses import replace

import pytest

from stencilc.backend.codegen import block_tiles, emit_c, temp_extents
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
        "d33ad828db107ca986663bc47f7d95ee3ac7f4e429787750b1c2ef777cc9d2bd",
    "acoustic-advanced-blocked":
        "2a5100c96db01cfb49cdacfbada3343851349c396d2dc73837d70b404259c1e1",
    "acoustic-aggressive":
        "d33ad828db107ca986663bc47f7d95ee3ac7f4e429787750b1c2ef777cc9d2bd",
    "acoustic-aggressive-blocked":
        "2a5100c96db01cfb49cdacfbada3343851349c396d2dc73837d70b404259c1e1",
    "acoustic-basic":
        "2efd7d8ce4292c65559c7af1693866e5ef36cdf24056698fb1cafb266c978ceb",
    "acoustic-basic-blocked":
        "b965abf092bfc25a6a762e54041ca0f08ab39a4f1303395c385d6a80506cb396",
    "coupled-advanced":
        "1c8ac5417a4959420234e16830f87aa2203f25a44374b1e1b836633812c774a3",
    "coupled-advanced-blocked":
        "a186a9c911f8e73bca0ac7ae0ba1ce6263871eb5d2db7d6972ef24ac809d6198",
    "coupled-aggressive":
        "1c8ac5417a4959420234e16830f87aa2203f25a44374b1e1b836633812c774a3",
    "coupled-aggressive-blocked":
        "a186a9c911f8e73bca0ac7ae0ba1ce6263871eb5d2db7d6972ef24ac809d6198",
    "coupled-basic":
        "31ce437ba123e739b2e3e062c06faa06a825fe16c53cfd398e241476435cb628",
    "coupled-basic-blocked":
        "1ce39ed9b355c7d5014663d1b910611834f446ff73ed2c08bc74cf1873aff1d1",
    "recurrence-advanced":
        "c8a95980a628c085b1e34ab17367b1c1b4682f65c8e63f6dc2951856bbd46e72",
    "recurrence-aggressive":
        "c8a95980a628c085b1e34ab17367b1c1b4682f65c8e63f6dc2951856bbd46e72",
    "recurrence-basic":
        "c8a95980a628c085b1e34ab17367b1c1b4682f65c8e63f6dc2951856bbd46e72",
    "rotated-advanced":
        "3e3f227f471aafb73a9a1114ef4c30f2aedac3d028831988540be35b75ba11c7",
    "rotated-advanced-blocked":
        "0eb32a4dd3643eb55fbfc42d1c6a64584d351a5133e38d11913928c7007f4fba",
    "rotated-aggressive":
        "01a73ab369b2d5f8be94c91af0ae8be1542c1b560317f6e85ea567d4cc3fcc89",
    "rotated-aggressive-blocked":
        "c6bd4eda639ea1cb131fe68c1e997e44ab3ee273e1a5b508eeb5ebc148a1e960",
    "rotated-basic":
        "b49144e9990375042e72f03e39d6d2709f6319ff2af8fc4e1f9c4fa27a4cc034",
    "rotated-basic-blocked":
        "5e637a3c9b8f9e0d1c06d98ea4422b90009fef2362516b7b8680bf3a738e9fda",
    "tti-advanced":
        "c85d33d95095fedb69f972f57396c2cf1180436248a277e82fb11f037f258465",
    "tti-advanced-blocked":
        "f65078256ecdbec6e1cf8facae520a3ff95db27e81b3f628086147f7c0d080e1",
    "tti-aggressive":
        "c85d33d95095fedb69f972f57396c2cf1180436248a277e82fb11f037f258465",
    "tti-aggressive-blocked":
        "f65078256ecdbec6e1cf8facae520a3ff95db27e81b3f628086147f7c0d080e1",
    "tti-basic":
        "3514490fbf81a9f604d785534c98f8500fcfdbb119db22f6f648f661a91d98f8",
    "tti-basic-blocked":
        "cfdcc3428f12cfeb60d81c08c88d16ac51252f1d3964514b28b1b79b6123c757",
    "two-field-advanced":
        "c67defb313fdd247f27ceb090e9bcfd8d2ec936d641fc61dc9d7a78dc5e008e2",
    "two-field-advanced-blocked":
        "9ff7149b6986fccf373ebc901d9e20f45b70890f27b5dcc85080da716cc24c44",
    "two-field-aggressive":
        "c67defb313fdd247f27ceb090e9bcfd8d2ec936d641fc61dc9d7a78dc5e008e2",
    "two-field-aggressive-blocked":
        "9ff7149b6986fccf373ebc901d9e20f45b70890f27b5dcc85080da716cc24c44",
    "two-field-basic":
        "bc62a10010fc504ca304ac492c348d324ee7421fd296279f358c8d5d274d714e",
    "two-field-basic-blocked":
        "f9d06f916ba1a74a0dd8fb07a91296c1b589fca40f29a31827cfde9d2ec77804",
    "wave-advanced":
        "9a6c8efeffef68029d6fb0c3bf37dace95e58dc4784b0a97e0f962076a8f1bf3",
    "wave-advanced-blocked":
        "24a396a94cbc1f9b95fd204da44c98ed39c16186abffcea055e1644b2a4804e7",
    "wave-aggressive":
        "9a6c8efeffef68029d6fb0c3bf37dace95e58dc4784b0a97e0f962076a8f1bf3",
    "wave-aggressive-blocked":
        "24a396a94cbc1f9b95fd204da44c98ed39c16186abffcea055e1644b2a4804e7",
    "wave-basic":
        "68662149ae275831d6a0413ae0f7f3f9002491846578bd036e4b0a043d43cc58",
    "wave-basic-blocked":
        "87d120ebb52b9315c4af5fee7ee8c7cb5dbba4ff0e9c37f018d4f51d0c374ab5",
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
    # ... and keeps the interval it tiles, whose whole range, x from
    # x_m + 0 to x_M + 4, the interpreter runs
    assert [(it.key[0].dim.name, it.key[0].lower, it.key[0].upper)
            for it in (producer, consumer, producer.children[0])] == \
        [("x", 0, 4), ("x", 0, 0), ("y", 0, 0)]
    # The tree indexes the temporary in grid coordinates. Declared inside
    # the block loops, it is block-local in the C: 8 points plus its span
    # along each tiled dimension, indexed from the block origin.
    tmp = prod_stmt.eq.lhs.func
    assert prod_stmt.eq.lhs.indices == (Symbol("x"), Symbol("y"))
    place_declarations(iet)
    tiles = block_tiles(iet)
    assert {d: it.dim.name for d, it in tiles[tmp].items()} == \
        {"x": "xb", "y": "yb"}
    assert tmp.span["x"] == 4
    assert temp_extents(tmp, tiles) == ((None, 12), (None, 8))
    source = emit_c(iet)
    assert "calloc(12*8, sizeof(double))" in source
    assert "%s[((x + (-1)*xb))*8 + (y + (-1)*yb)] =" % tmp.name in source
    # The hoisted time-invariant array stays a full-grid array
    inv = statements(iet.children[0])[-1]
    assert inv.eq.lhs.indices == (Symbol("x"), Symbol("y"))
    assert inv.eq.lhs.func not in tiles
    assert temp_extents(inv.eq.lhs.func, tiles) == (("x_M", 5), ("y_M", 1))


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
