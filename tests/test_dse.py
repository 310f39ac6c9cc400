import random
from dataclasses import replace

import pytest

from stencilc.clustering import Cluster, clusterize
from stencilc.dse import (EXTRACT_THRESHOLD, Namer, TIME_INVARIANT,
                          TIME_VARYING, _alias_key, _displacements,
                          _find_candidates, _make_temp, _shape, _temp_dims,
                          cluster_op_count, cse,
                          detect_aliases, factorize, factorize_cluster,
                          is_time_varying, replace_subtrees, run_dse,
                          select_pivots)
from stencilc.lowering import Interval, lower
from stencilc.symbolic import (Access, Eq, FunctionDecl, Grid, Symbol, add,
                               call, mul, num, pow_)
from stencilc.symbolic.expr import evaluate, op_count

from helpers import lowered_wave_example, rotated_laplacian_example, \
    run_clusters


def _1d():
    g = Grid((11,))
    u = FunctionDecl("u", "timefunction", g, space_order=2, time_order=2)
    w = FunctionDecl("w", "timefunction", g, space_order=2, time_order=2)
    m = FunctionDecl("m", "function", g, space_order=2)
    return g, u, w, m


def _u_at(u, k, t_off=0):
    t, x = Symbol("t"), Symbol("x")
    ti = add(t, num(t_off)) if t_off else t
    xi = add(x, num(k)) if k else x
    return Access(u, (ti, xi))


def _inline_temps(cluster):
    """Substitute every temp definition back into the main expressions."""
    defs = {}
    mains = []
    for eq in cluster.eqs:
        if eq.lhs.func.kind == "temp":
            defs[eq.lhs] = replace_subtrees(eq.rhs, defs)
        else:
            mains.append(replace(eq, rhs=replace_subtrees(eq.rhs, defs)))
    return mains


# -- Common sub-expression elimination ---------------------------------------


def test_cse_hoists_repeated_powers():
    funcs, eqs = lowered_wave_example()
    stencil = clusterize(eqs)[0]
    out = cse(stencil)
    defs = [eq for eq in out.eqs if eq.lhs.func.kind == "temp"]
    assert [d.lhs.func.name for d in defs] == ["temp0", "temp1"]
    assert defs[0].rhs == pow_(Symbol("dt"), -2)
    assert defs[1].rhs == pow_(Symbol("h_x"), -2)
    main = out.eqs[-1]
    assert main.lhs == stencil.eqs[0].lhs
    # Each hoisted power now appears only through its temp
    assert "dt" not in repr(main.rhs).replace("dt**2", "")
    assert op_count(main.rhs) < op_count(stencil.eqs[0].rhs)


def test_cse_structural_repeat():
    g, u, w, m = _1d()
    host = lower(Eq(w.forward, u.at))
    a, b = Symbol("a"), Symbol("b")
    rep = add(_u_at(u, 0), _u_at(u, 1))
    rhs = add(mul(a, rep), mul(b, rep))
    c = Cluster([replace(host, rhs=rhs)], host.ispace)
    out = cse(c)
    defs = [eq for eq in out.eqs if eq.lhs.func.kind == "temp"]
    assert len(defs) == 1
    assert defs[0].rhs == rep
    tread = defs[0].lhs
    assert out.eqs[-1].rhs == add(mul(a, tread), mul(b, tread))


def test_cse_no_repeats_unchanged():
    g, u, w, m = _1d()
    host = lower(Eq(w.forward, add(u.at, num(1))))
    c = Cluster([host], host.ispace)
    out = cse(c)
    assert out.eqs == [host]


def test_cse_inlining_recovers_original():
    funcs, eqs = lowered_wave_example()
    for cluster in clusterize(eqs):
        mains = _inline_temps(cse(cluster))
        originals = [eq for eq in cluster.eqs if eq.lhs.func.kind != "temp"]
        assert [m.rhs for m in mains] == [o.rhs for o in originals]


def test_cse_idempotent():
    funcs, eqs = lowered_wave_example()
    for cluster in clusterize(eqs):
        once = cse(cluster, Namer())
        twice = cse(once, Namer("other"))
        assert [eq.rhs for eq in twice.eqs] == [eq.rhs for eq in once.eqs]


def test_cse_never_rewrites_index_arithmetic():
    funcs, eqs = lowered_wave_example()
    injection = clusterize(eqs)[2]
    out = cse(injection)
    mains = [eq for eq in out.eqs if eq.lhs.func.kind != "temp"]
    # The floor-corner index expressions repeat across both increments but
    # must survive untouched inside the write indices.
    for new, old in zip(mains, injection.eqs):
        assert new.lhs == old.lhs


def test_cse_rewrites_once_per_round(monkeypatch):
    # Each round hoists every tie at its lowest operation count, so the
    # rewrites no longer grow with the temporaries: one per rewritten
    # expression and round, not per temporary.
    import stencilc.dse as dse
    from helpers import tti_equations
    calls = []
    original = dse.replace_subtrees

    def counted(e, rules):
        calls.append(e)
        return original(e, rules)
    monkeypatch.setattr(dse, "replace_subtrees", counted)
    clusters = clusterize([lower(eq) for eq in tti_equations((12,) * 3, 4)])
    out = run_dse(clusters, "basic")
    temps = [eq for c in out for eq in c.eqs if eq.lhs.func.kind == "temp"]
    assert len(temps) == 237
    assert len(calls) <= 40


@pytest.mark.parametrize("inner_first", [False, True],
                         ids=["tie-inside-pick", "tie-holds-pick"])
def test_cse_nested_ties_wait_a_round(inner_first):
    # ``idiv`` costs nothing itself, so an idiv call ties with the a*b
    # inside it. The tie that sorts first is hoisted; the other one holds
    # it or sits inside it, so it waits for the next round rather than
    # being hoisted beside it.
    g, u, w, m = _1d()
    host = lower(Eq(w.forward, u.at))
    a, b, c, d = (Symbol(n) for n in "abcd")
    ab = mul(a, b)
    # A call sorts before a product, and a constant first argument sorts
    # the inner call before the outer one.
    inner = call("idiv", 2, ab) if inner_first else ab
    outer = call("idiv", inner, 3)
    rhs = add(mul(c, outer), mul(d, outer), inner)
    out = cse(Cluster([replace(host, rhs=rhs)], host.ispace))
    temps = {eq.lhs.func.name: eq.lhs for eq in out.eqs}
    if inner_first:
        # idiv(temp0, 3) costs nothing: nothing is left to hoist.
        want = [("temp0", inner)]
    else:
        # a*b occurs bare too, so it repeats in the next round.
        want = [("temp1", ab), ("temp0", call("idiv", temps["temp1"], 3))]
    assert [(eq.lhs.func.name, eq.rhs) for eq in out.eqs
            if eq.lhs.func.kind == "temp"] == want
    assert [eq.rhs for eq in _inline_temps(out)] == [rhs]


# -- Factorization -----------------------------------------------------------


def test_factorize_collects_coefficients():
    g, u, w, m = _1d()
    t0 = Symbol("t0")
    u1, u2, u3 = _u_at(u, 1), _u_at(u, 2), _u_at(u, 3)
    e = add(mul(num(9), t0, u1), mul(num(9), t0, u3), mul(num(-18), t0, u2))
    got = factorize(e)
    assert got == add(mul(num(9), t0, add(u1, u3)), mul(num(-18), t0, u2))
    assert op_count(got) < op_count(e)


def test_factorize_trivial_sum_unchanged():
    a, b, c = Symbol("a"), Symbol("b"), Symbol("c")
    # Nothing factors out of terms with coefficient 1 and no common factor,
    # nor out of children that share no coefficient: the sum comes back.
    for e in (add(a, b), add(a, b, mul(num(2), c)),
              add(mul(num(2), a), mul(num(3), call("sin", b)))):
        assert factorize(e) is e


def test_factorize_cluster_keeps_unfactorable_equations():
    g, u, w, m = _1d()
    host = lower(Eq(w.forward, add(mul(num(2), u.at), mul(num(3), m.at))))
    c = Cluster([host], host.ispace)
    assert factorize_cluster(c).eqs[0] is host


def test_factorize_random_safe():
    rng = random.Random(11)
    syms = [Symbol(n) for n in "abc"]

    def rand_expr(depth):
        if depth == 0 or rng.random() < 0.3:
            if rng.random() < 0.5:
                return rng.choice(syms)
            return num(rng.choice([-3, -2, -1, 2, 3, 5]))
        kids = [rand_expr(depth - 1) for _ in range(rng.randint(2, 4))]
        return add(*kids) if rng.random() < 0.5 else mul(*kids)

    env = {"a": 1.37, "b": -0.61, "c": 2.09}
    for _ in range(300):
        e = rand_expr(3)
        f = factorize(e)
        assert op_count(f) <= op_count(e)
        assert evaluate(f, env) == pytest.approx(evaluate(e, env), rel=1e-9)


# -- Extraction --------------------------------------------------------------


def test_extract_pulls_nested_sum():
    g, u, w, m = _1d()
    host = lower(Eq(w.forward, u.at))
    rhs = mul(num(9), add(_u_at(u, 1), _u_at(u, 3)))
    c = Cluster([replace(host, rhs=rhs)], host.ispace)
    cands = _find_candidates(rhs, TIME_VARYING, threshold=1)
    assert cands == [add(_u_at(u, 1), _u_at(u, 3))]
    dims = _temp_dims(cands[0], c)
    assert tuple(d.symbol for d in dims) == (Symbol("x"),)
    read = Access(_make_temp("temp0", g, dims, cands[0]), (Symbol("x"),))
    assert replace_subtrees(rhs, {cands[0]: read}) == mul(num(9), read)


def test_extract_below_threshold_unchanged():
    g, u, w, m = _1d()
    rhs = mul(num(9), add(_u_at(u, 1), _u_at(u, 3)))
    assert _find_candidates(rhs, TIME_VARYING, threshold=100) == []


def test_extract_is_maximal():
    g, u, w, m = _1d()
    v = FunctionDecl("v", "timefunction", g, space_order=2, time_order=2)
    inner = add(_u_at(u, 0), _u_at(u, 2))
    other = add(_u_at(v, 0), _u_at(v, 1))
    rhs = add(mul(num(2), inner), mul(num(3), other, Symbol("a")))
    cands = _find_candidates(rhs, TIME_VARYING, threshold=1)
    # The two sums are the outermost qualifying nodes; nothing nested
    # below them is a candidate of its own.
    assert sorted(repr(e) for e in cands) == \
        sorted([repr(inner), repr(other)])


def test_extract_time_invariant_call():
    g, u, w, m = _1d()
    host = lower(Eq(u.forward, mul(call("sin", m.at), u.at)))
    c = Cluster([host], host.ispace)
    cands = _find_candidates(host.rhs, TIME_INVARIANT, EXTRACT_THRESHOLD)
    assert len(cands) == 1
    assert not is_time_varying(cands[0])
    assert cands[0].name == "sin"
    assert tuple(d.symbol for d in _temp_dims(cands[0], c)) == (Symbol("x"),)


# -- Alias detection ---------------------------------------------------------


def _2d_pair():
    g = Grid((9, 9))
    u = FunctionDecl("u", "function", g, space_order=2)
    v = FunctionDecl("v", "function", g, space_order=2)
    x, y = Symbol("x"), Symbol("y")

    def at(f, dx, dy):
        return Access(f, (add(x, num(dx)), add(y, num(dy))))

    return g, u, v, at


def test_alias_classification():
    g, u, v, at = _2d_pair()
    a = add(mul(num(3), at(u, 1, 0)), mul(num(4), at(v, 1, 0)))
    b = add(mul(num(3), at(u, 3, 0)), mul(num(4), at(v, 3, 0)))
    c = add(mul(num(3), at(u, 2, 2)), mul(num(4), at(v, 2, 2)))
    d = add(mul(num(3), at(u, 0, 0)), mul(num(4), at(v, 0, 1)))
    e = add(mul(num(4), at(u, 1, 0)), mul(num(3), at(v, 1, 0)))
    sa, sb, sc, sd, se = map(_shape, (a, b, c, d, e))
    assert sa == sb and sa == sc and sa == sd
    assert sa != se
    ka, kb, kc, kd = (_alias_key(x, _displacements(x))[0]
                      for x in (a, b, c, d))
    assert ka == kb == kc and ka != kd
    groups = detect_aliases([a, b, c, d, e])
    partition = sorted(tuple(sorted(map(repr, grp.members)))
                       for grp in groups)
    assert partition == sorted([
        tuple(sorted(map(repr, (a, b, c)))),
        (repr(d),), (repr(e),)])


def test_detect_aliases_singleton_and_pivot_origin():
    g, u, v, at = _2d_pair()
    a = add(mul(num(3), at(u, 2, 1)), mul(num(4), at(v, 4, 1)))
    groups = detect_aliases([a])
    assert len(groups) == 1
    grp = groups[0]
    # A single candidate is its own pivot: no leading points to compute
    assert grp.pivot is a
    assert grp.translations == [{"x": 0, "y": 0}]
    assert grp.span == {"x": 0, "y": 0}
    # The pivot starts at the leftmost member along each dimension, even
    # when that member is not the first seen
    b = add(mul(num(3), at(u, 5, 0)), mul(num(4), at(v, 7, 0)))
    c = add(mul(num(3), at(u, 4, 2)), mul(num(4), at(v, 6, 2)))
    grp, = detect_aliases([a, b, c])
    assert grp.pivot == add(mul(num(3), at(u, 2, 0)), mul(num(4), at(v, 4, 0)))
    assert grp.translations == [{"x": 0, "y": 1}, {"x": 3, "y": 0},
                                {"x": 2, "y": 2}]
    assert grp.span == {"x": 3, "y": 2}


def test_detect_aliases_random_partition_oracle():
    g, u, v, at = _2d_pair()
    rng = random.Random(5)
    patterns = [
        lambda dx, dy: add(mul(num(2), at(u, dx, dy)),
                           mul(num(3), at(v, dx, dy))),
        lambda dx, dy: add(mul(num(2), at(u, dx, dy)),
                           mul(num(5), at(v, dx, dy))),
        lambda dx, dy: mul(at(u, dx, dy), at(v, dx, dy)),
    ]
    for _ in range(20):
        exprs, labels = [], []
        for _ in range(rng.randint(3, 10)):
            pid = rng.randrange(len(patterns))
            exprs.append(patterns[pid](rng.randint(0, 3), rng.randint(0, 3)))
            labels.append(pid)
        groups = detect_aliases(exprs)
        label_of = dict(zip(map(repr, exprs), labels))
        seen = set()
        for grp in groups:
            grp_labels = {label_of[repr(m)] for m in grp.members}
            assert len(grp_labels) == 1
            seen.update(grp_labels)
        assert len(groups) == len(set(labels)) and seen == set(labels)


def test_detect_aliases_requires_common_shift():
    g, u, v, at = _2d_pair()

    def grouped(p, q):
        return [len(grp.members) for grp in detect_aliases([p, q])] == [2]

    base = add(at(u, 0, 0), at(v, 1, 0))
    groups = detect_aliases([base, add(at(u, 2, 0), at(v, 3, 0))])
    assert [grp.translations for grp in groups] == \
        [[{"x": 0, "y": 0}, {"x": 2, "y": 0}]]
    # An inconsistent shift, or a different access count
    assert not grouped(base, add(at(u, 2, 0), at(v, 4, 0)))
    assert not grouped(base, add(at(u, 2, 0), at(v, 3, 0), at(v, 5, 0)))
    # Accesses along different dimensions
    x, y = g.dimensions
    px = _make_temp("p", g, (x,), num(0))
    py = _make_temp("p", g, (y,), num(0))
    assert not grouped(add(Access(px, (Symbol("x"),)),
                           Access(px, (add(Symbol("x"), num(1)),))),
                       add(Access(py, (Symbol("y"),)),
                           Access(py, (add(Symbol("y"), num(1)),))))


def test_derivatives_of_different_fields_do_not_alias():
    # Finite-difference weights sum to zero: a key built by zeroing every
    # index and renormalizing folds both derivatives to 0.
    g, u, v, at = _2d_pair()
    du = 3 * at(u, 1, 0) - 3 * at(u, -1, 0)
    dv = 3 * at(v, 3, 0) - 3 * at(v, 1, 0)
    groups = detect_aliases([du, dv])
    assert [grp.members for grp in groups] == [[du], [dv]]


# -- Pivot selection ---------------------------------------------------------


def test_select_pivots_translated_reads():
    g, u, w, m = _1d()
    host = lower(Eq(w.forward, u.at))
    cluster = Cluster([host], host.ispace)
    c0 = _make_temp("c0", g, (), num(1))
    m1 = mul(num(9), Access(c0, ()), _u_at(u, 1))
    m3 = mul(num(9), Access(c0, ()), _u_at(u, 3))
    groups = detect_aliases([m1, m3])
    assert len(groups) == 1
    assert groups[0].pivot is m1
    defs, rules = select_pivots(groups, cluster, Namer())
    assert len(defs) == 1
    x = Symbol("x")
    decl = defs[0].lhs.func
    assert defs[0].lhs == Access(decl, (x,))
    assert defs[0].rhs == groups[0].pivot
    assert rules[m1] == Access(decl, (x,))
    assert rules[m3] == Access(decl, (add(x, num(2)),))
    # Producer keeps the time loop (value changes per step) and computes
    # two extra points so the farthest translated read is covered.
    xd = g.dimensions[0]
    assert defs[0].ispace.interval_of(xd) == Interval(xd, 0, 2)
    assert decl.span == {"t": 0, "x": 2}
    assert any(iv.dim.is_time for iv, _ in defs[0].ispace.entries)


def test_select_pivots_rejects_time_translations():
    g, u, w, m = _1d()
    host = lower(Eq(w.forward, u.at))
    cluster = Cluster([host], host.ispace)
    m1 = add(_u_at(u, 0), _u_at(u, 1))
    m2 = add(_u_at(u, 0, t_off=1), _u_at(u, 1, t_off=1))
    groups = detect_aliases([m1, m2])
    assert len(groups) == 1 and len(groups[0].members) == 2
    defs, rules = select_pivots(groups, cluster, Namer())
    assert defs == [] and rules == {}


def test_select_pivots_single_member_stays_inline():
    g, u, w, m = _1d()
    host = lower(Eq(w.forward, u.at))
    cluster = Cluster([host], host.ispace)
    groups = detect_aliases([add(_u_at(u, 0), _u_at(u, 1))])
    defs, rules = select_pivots(groups, cluster, Namer())
    assert defs == [] and rules == {}


# -- Full driver -------------------------------------------------------------


def test_run_dse_rejects_unknown_mode():
    with pytest.raises(ValueError):
        run_dse([], mode="turbo")
    assert run_dse([], mode="basic") == []


def test_run_dse_basic_wave_golden():
    funcs, eqs = lowered_wave_example()
    clusters = clusterize(eqs)
    out = run_dse(clusters, "basic")
    assert len(out) == 3
    defs = [eq for eq in out[0].eqs if eq.lhs.func.kind == "temp"]
    assert [(d.lhs.func.name, d.rhs) for d in defs] == [
        ("temp0", pow_(Symbol("dt"), -2)),
        ("temp1", pow_(Symbol("h_x"), -2))]
    assert cluster_op_count(out) < cluster_op_count(clusters)


def test_run_dse_advanced_hoists_invariant_weights():
    funcs, eqs = lowered_wave_example()
    out = run_dse(clusterize(eqs), "advanced")
    # The injection interpolation weights depend only on the coordinates,
    # so they move to a time-free front cluster indexed by the point dim.
    front = out[0]
    assert not any(iv.dim.is_time for iv, _ in front.ispace.entries)
    assert front.ispace.dims[0].name == "p_q"
    arrays = [eq for eq in front.eqs
              if eq.lhs.func.kind == "temp" and eq.lhs.indices]
    assert len(arrays) == 2
    last = out[-1]
    names = {a.func.name for eq in last.eqs
             for a in eq.rhs.children if isinstance(a, Access)}
    assert {a.lhs.func.name for a in arrays} <= names


def test_run_dse_op_counts_monotone():
    for so in (4, 8):
        funcs, eqs = rotated_laplacian_example(so)
        clusters = clusterize(eqs)
        counts = {m: cluster_op_count(run_dse(clusters, m))
                  for m in ("basic", "advanced", "aggressive")}
        assert counts["aggressive"] <= counts["advanced"] <= counts["basic"]
        assert counts["basic"] <= cluster_op_count(clusters)


def test_run_dse_aggressive_rotated_structure():
    funcs, eqs = rotated_laplacian_example(4)
    out = run_dse(clusterize(eqs), "aggressive")
    assert len(out) == 3
    invariant, varying, consumer = out
    assert not any(iv.dim.is_time for iv, _ in invariant.ispace.entries)
    inv_def = invariant.eqs[0]
    assert inv_def.rhs.name == "cos"
    assert any(iv.dim.is_time for iv, _ in varying.ispace.entries)
    x = funcs["grid"].dimensions[0]
    assert varying.ispace.interval_of(x).upper == 4
    assert consumer.eqs[-1].lhs.func is funcs["w"]
    # Redundant inner-derivative evaluations collapse: only one array temp
    # definition per producer remains.
    assert sum(1 for eq in varying.eqs if eq.lhs.indices) == 1


# -- Semantics ---------------------------------------------------------------


def _wave_data(funcs, nt, rng):
    g = funcs["grid"]
    n = g.shape[0]
    u_ext = n + 2 * funcs["u"].halo
    data = {
        "u": {(tt, xx): rng.uniform(-1, 1)
              for tt in range(3) for xx in range(u_ext)},
        "m": {(xx,): rng.uniform(1.0, 2.0) for xx in range(u_ext)},
        "q": {(tt, pp): rng.uniform(-1, 1)
              for tt in range(nt) for pp in range(funcs["q"].npoint)},
        "q_coords": {(pp, dd): val
                     for pp, row in
                     enumerate(funcs["q"].coordinate_values)
                     for dd, val in enumerate(row)},
    }
    return data


def test_dse_preserves_wave_semantics():
    rng = random.Random(17)
    funcs, eqs = lowered_wave_example(npoint=2,
                                      coordinates=((2.25,), (6.5,)))
    g = funcs["grid"]
    nt = 6
    base = _wave_data(funcs, nt, rng)
    clusters = clusterize(eqs)

    def run(cs):
        data = {k: dict(v) for k, v in base.items()}
        return run_clusters(cs, nt, data, g, env_extra={"dt": 0.05},
                            npoint=funcs["q"].npoint)

    ref = run(clusters)
    for mode in ("basic", "advanced", "aggressive"):
        got = run(run_dse(clusters, mode))
        for name in ("u", "us"):
            assert set(got[name]) == set(ref[name])
            for k, v in ref[name].items():
                assert got[name][k] == pytest.approx(v, rel=1e-9, abs=1e-12)


def test_dse_preserves_rotated_semantics():
    rng = random.Random(23)
    funcs, eqs = rotated_laplacian_example(4)
    g = funcs["grid"]
    ext = g.shape[0] + 2 * funcs["u"].halo
    base = {
        "u": {(tt, xx, yy): rng.uniform(-1, 1) for tt in range(3)
              for xx in range(ext) for yy in range(ext)},
        "theta": {(xx, yy): rng.uniform(-3, 3)
                  for xx in range(ext) for yy in range(ext)},
    }
    clusters = clusterize(eqs)

    def run(cs):
        data = {k: dict(v) for k, v in base.items()}
        return run_clusters(cs, 2, data, g, env_extra={"dt": 0.05})

    ref = run(clusters)
    for mode in ("basic", "advanced", "aggressive"):
        got = run(run_dse(clusters, mode))
        assert set(got["w"]) == set(ref["w"])
        for k, v in ref["w"].items():
            assert got["w"][k] == pytest.approx(v, rel=1e-9, abs=1e-12)
