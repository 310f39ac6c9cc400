from collections import Counter

import pytest

from stencilc.clustering import (_pair_index, clusterize, enforce_directions,
                                 group)
from stencilc.dependence import get_dependences
from stencilc.lowering import ANY, BACKWARD, FORWARD, Guard, lower
from stencilc.symbolic import (Access, Eq, FunctionDecl, Grid, Symbol, add,
                               mul, num)

from helpers import (acoustic_example, coupled_equations,
                     lowered_wave_example)


def _enforce_and_group(eqs):
    """``clusterize`` in its two steps on one dependence graph: the
    equations with directions enforced, and their clusters."""
    deps = get_dependences(eqs)
    enforced = enforce_directions(eqs, deps)
    return enforced, group(enforced, _pair_index(eqs, deps))


def _shifted(f, t_off, x_off):
    t, x = Symbol("t"), Symbol("x")
    return Access(f, (add(t, mul(num(t_off), Symbol("dt"))),
                      add(x, mul(num(x_off), Symbol("h_x")))))


def test_running_example_three_clusters():
    funcs, eqs = lowered_wave_example()
    clusters = clusterize(eqs)
    assert len(clusters) == 3
    stencil, snapshot, injection = clusters
    assert [e.lhs.func for e in stencil.eqs] == [funcs["u"]]
    assert [e.lhs.func for e in snapshot.eqs] == [funcs["us"]]
    assert [e.lhs.func for e in injection.eqs] == [funcs["u"], funcs["u"]]
    assert repr(stencil.ispace) == "[t[0,0]+, x[0,0]*]"
    assert repr(snapshot.ispace) == "[t[0,0]+, x[0,0]*]"
    assert repr(injection.ispace) == "[t[0,0]+, p_q[0,0]*]"
    assert snapshot.guards == (Guard(funcs["grid"].time_dim, 4),)
    assert stencil.guards == () and injection.guards == ()


def test_direction_enforced_on_injection():
    funcs, eqs = lowered_wave_example()
    t = funcs["grid"].time_dim
    for eq in eqs[2:]:
        assert eq.ispace.direction_of(t) == ANY
    enforced = enforce_directions(eqs, get_dependences(eqs))
    for eq in enforced[2:]:
        assert eq.ispace.direction_of(t) == FORWARD


def test_single_equation_directions_unchanged():
    funcs, eqs = lowered_wave_example()
    enforced = enforce_directions([eqs[0]], get_dependences([eqs[0]]))
    assert enforced[0].ispace == eqs[0].ispace


def test_direction_clash_keeps_local_choices():
    g = Grid((11,))
    u = FunctionDecl("u", "timefunction", g, space_order=2)
    v = FunctionDecl("v", "timefunction", g, space_order=2)
    fwd = lower(Eq(_shifted(u, 1, 0), _shifted(u, 0, 0) + _shifted(v, 0, 0)))
    bwd = lower(Eq(_shifted(v, -1, 0), _shifted(v, 0, 0) + _shifted(u, 0, 0)))
    enforced, clusters = _enforce_and_group([fwd, bwd])
    assert enforced[0].ispace.direction_of(g.time_dim) == FORWARD
    assert enforced[1].ispace.direction_of(g.time_dim) == BACKWARD
    assert len(clusters) == 2


def test_carried_anti_blocks_merge_and_sets_atomics():
    g = Grid((11,))
    a = FunctionDecl("a", "function", g, space_order=2)
    b = FunctionDecl("b", "function", g, space_order=2)
    x, h = Symbol("x"), Symbol("h_x")
    e1 = lower(Eq(a.at, num(0)))
    e2 = lower(Eq(b.at, Access(a, (add(x, h),))))
    clusters = _enforce_and_group([e1, e2])[1]
    assert len(clusters) == 2
    assert not clusters[0].atomics
    assert g.dimensions[0] in clusters[1].atomics


def test_injection_pair_merges_as_reduction():
    funcs, eqs = lowered_wave_example()
    clusters = _enforce_and_group(eqs[2:])[1]
    assert len(clusters) == 1
    assert len(clusters[0].eqs) == 2


def test_guard_mismatch_forbids_merging():
    g = Grid((11,))
    u = FunctionDecl("u", "timefunction", g, space_order=2)
    from stencilc.symbolic.grid import Dimension
    eqs = []
    for name, f in (("s4", 4), ("s2", 2)):
        ts = Dimension("ts_" + name, "conditional", parent=g.time_dim, factor=f)
        s = FunctionDecl(name, "timefunction", g, space_order=2, save=50,
                         time_dim=ts)
        eqs.append(lower(Eq(s.at, u.at)))
    clusters = clusterize(eqs)
    assert len(clusters) == 2
    assert clusters[0].guards[0].factor == 4
    assert clusters[1].guards[0].factor == 2


def test_cluster_guards_equal_equation_guards():
    funcs, eqs = lowered_wave_example()
    clusters = clusterize(eqs)
    assert any(c.guards for c in clusters)
    for c in clusters:
        assert all(eq.guards == c.guards for eq in c.eqs)


def test_grouping_is_stable_and_idempotent():
    funcs, eqs = lowered_wave_example()
    clusters = clusterize(eqs)
    flat = [eq for c in clusters for eq in c.eqs]
    again = clusterize(flat)
    assert [(len(c.eqs), c.ispace, c.guards) for c in again] == \
        [(len(c.eqs), c.ispace, c.guards) for c in clusters]
    # Within-cluster order equals input order
    enforced, grouped = _enforce_and_group(eqs)
    order = {id(eq): i for i, eq in enumerate(enforced)}
    for c in grouped:
        positions = [order[id(eq)] for eq in c.eqs]
        assert positions == sorted(positions)


def test_cross_cluster_program_order_preserved_for_independent_deps():
    funcs, eqs = lowered_wave_example()
    enforced, clusters = _enforce_and_group(eqs)
    where = {}
    for ci, c in enumerate(clusters):
        for eq in c.eqs:
            where[id(eq)] = ci
    for d in get_dependences(enforced):
        if d.is_independent and not d.flipped:
            assert where[id(d.source)] <= where[id(d.sink)]


def test_dependences_computed_once_per_pass(monkeypatch):
    """Clustering builds one graph, which both direction enforcement and
    grouping read; tree analysis one per outermost loop nest. None of the
    counts grows with the number of equations."""
    import stencilc.clustering as clustering_mod
    import stencilc.iet as iet_mod
    from stencilc.backend import Operator, clear_cache
    calls = Counter()
    for mod in (clustering_mod, iet_mod):
        def counted(eqs, _original=mod.get_dependences, _name=mod.__name__):
            calls[_name] += 1
            return _original(eqs)
        monkeypatch.setattr(mod, "get_dependences", counted)
    per_size = {}
    for n in (3, 8, 24):
        clear_cache()
        calls.clear()
        Operator(coupled_equations(n))
        per_size[n] = dict(calls)
    assert per_size[3] == {"stencilc.clustering": 1, "stencilc.iet": 1}
    assert per_size[8] == per_size[3] and per_size[24] == per_size[3]


def _facts(deps):
    return {(id(d.source), id(d.sink), d.function.name, d.kind, d.distance)
            for d in deps}


def _lowered(example):
    if example == "coupled":
        return [lower(e) for e in coupled_equations(6, shape=(6, 6, 6))]
    if example == "wave":
        return lowered_wave_example()[1]
    return [lower(e) for e in acoustic_example((6, 6), so=2)[1]]


@pytest.mark.parametrize("example", ["wave", "acoustic"])
def test_enforcing_directions_changes_no_dependence(example):
    """``clusterize`` groups the enforced equations against the graph of
    the equations it was given: position for position, both graphs hold
    the same dependences."""
    def by_position(eqs):
        position = {id(eq): i for i, eq in enumerate(eqs)}
        return [(position[id(d.source)], position[id(d.sink)],
                 d.function.name, d.kind, d.dims, d.distance, d.flipped)
                for d in get_dependences(eqs)]
    eqs = _lowered(example)
    enforced = enforce_directions(eqs, get_dependences(eqs))
    # The injection increments' time loop turns forward.
    assert [e.ispace for e in enforced] != [e.ispace for e in eqs]
    assert by_position(enforced) == by_position(eqs)


@pytest.mark.parametrize("example", ["coupled", "wave", "acoustic"])
def test_one_graph_answers_every_cross_dependence_query(example):
    """Filtering the single dependence graph gives, for every cluster (and
    every prefix of one, as the scan saw it) and every later candidate,
    what get_dependences on the cluster plus the candidate gives."""
    from stencilc.clustering import _cross_deps
    eqs = _lowered(example)
    eqs = enforce_directions(eqs, get_dependences(eqs))
    pairs = _pair_index(eqs, get_dependences(eqs))
    position = {id(eq): i for i, eq in enumerate(eqs)}
    queries = 0
    for c in group(eqs, pairs):
        members = [position[id(eq)] for eq in c.eqs]
        for k in range(1, len(members) + 1):
            prefix = c.eqs[:k]
            for pos in range(members[k - 1] + 1, len(eqs)):
                eq = eqs[pos]
                old = [d for d in get_dependences(prefix + [eq])
                       if (d.source is eq) != (d.sink is eq)]
                new = _cross_deps(pairs, members[:k], pos)
                assert _facts(new) == _facts(old)
                queries += 1
    assert queries
