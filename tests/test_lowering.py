from fractions import Fraction

import pytest

from stencilc.lowering import (ANY, BACKWARD, FORWARD, OPAQUE, Guard,
                               Interval, LoweringError, _shift_for, analyze,
                               check_halo_coverage, indexify, lower)
from stencilc.symbolic import (Access, Add, Eq, FunctionDecl, Grid, Mul,
                               Symbol, add, call, dt2, evaluate, inject,
                               interpolate, laplace, mul, num, solve_for,
                               substitute)
from stencilc.symbolic.grid import Dimension


def wave_setup(shape=(11,), so=2):
    g = Grid(shape)
    u = FunctionDecl("u", "timefunction", g, space_order=so, time_order=2)
    m = FunctionDecl("m", "function", g, space_order=so)
    pde = m.at * dt2(u) - laplace(u)
    stencil = solve_for(pde, u.forward)
    return g, u, m, Eq(u.forward, stencil)


def test_indexify_offsets_become_integers():
    g, u, m, eq = wave_setup()
    low = indexify(eq)
    shift = _shift_for(u, u.dims[1])
    assert low.lhs.indices[0] == add(Symbol("t"), num(1))
    assert low.lhs.indices[1] == add(Symbol("x"), num(shift))
    # Collect all space offsets used on u in the rhs, relative to the
    # domain origin
    from stencilc.lowering import collect_accesses
    offs = set()
    for acc in collect_accesses(low.rhs):
        if acc.func is u:
            off = evaluate(substitute(acc.indices[1], {Symbol("x"): num(0)}), {})
            offs.add(int(off) - shift)
    assert offs == {-1, 0, 1}


def test_align_shifts_by_halo():
    g = Grid((16,))
    u = FunctionDecl("u", "timefunction", g, space_order=4)
    low = indexify(Eq(u.forward, laplace(u)))
    assert low.lhs.indices[1] == add(Symbol("x"), num(2))


def test_wave_iteration_and_data_space_golden():
    g, u, m, eq = wave_setup()
    low = lower(eq)
    assert repr(low.ispace) == "[t[0,0]+, x[0,0]*]"
    parts = {f.name: ivs for f, ivs in low.dspace.parts}
    assert parts["u"] == (Interval(u.dims[0], 0, 1),
                          Interval(u.dims[1], 0, 0))
    assert parts["m"] == (Interval(m.dims[0], 0, 0),)
    assert low.lhs.func is u
    assert {acc.func for acc in low.accesses[1:]} == {u, m}


def test_wave_2d_space_dims_any_direction():
    g, u, m, eq = wave_setup(shape=(8, 8), so=4)
    low = lower(eq)
    assert [d.name for d in low.ispace.dims] == ["t", "x", "y"]
    assert low.ispace.direction_of(g.time_dim) == FORWARD
    for d in g.dimensions:
        assert low.ispace.direction_of(d) == ANY


def test_backward_time_update():
    g = Grid((11,))
    v = FunctionDecl("v", "timefunction", g, space_order=2, time_order=2)
    low = lower(Eq(v.backward, v.at))
    assert low.ispace.direction_of(g.time_dim) == BACKWARD


def test_direction_clash_left_any():
    g = Grid((11,))
    f = FunctionDecl("f", "function", g, space_order=2)
    x, h = Symbol("x"), Symbol("h_x")
    rhs = Access(f, (add(x, mul(num(-1), h)),)) + Access(f, (add(x, h),))
    low = lower(Eq(f.at, rhs))
    assert low.ispace.direction_of(g.dimensions[0]) == ANY


def test_interior_region_shrinks_space_intervals():
    g, u, m, eq = wave_setup()
    low = lower(Eq(eq.lhs, eq.rhs, region="interior"))
    iv = low.ispace.interval_of(g.dimensions[0])
    assert (iv.lower, iv.upper) == (1, -1)
    t_iv = low.ispace.interval_of(g.time_dim)
    assert (t_iv.lower, t_iv.upper) == (0, 0)


def test_subsampled_save_guard_and_index():
    g = Grid((11,))
    u = FunctionDecl("u", "timefunction", g, space_order=2, time_order=2)
    ts = Dimension("ts", "conditional", parent=g.time_dim, factor=4)
    us = FunctionDecl("us", "timefunction", g, space_order=2, save=100,
                      time_dim=ts)
    low = lower(Eq(us.at, u.at))
    assert low.guards == (Guard(g.time_dim, 4),)
    assert repr(low.lhs.indices[0]) == "idiv(t, 4)"
    assert [d.name for d in low.ispace.dims] == ["t", "x"]
    assert low.guards[0].predicate_repr() == "t % 4 == 0"


def test_inject_iterates_point_dim_not_space():
    g = Grid((11,))
    u = FunctionDecl("u", "timefunction", g, space_order=2, time_order=2)
    q = FunctionDecl("q", "sparsetimefunction", g, npoint=3,
                     coordinates=[(1.5,), (4.0,), (8.25,)])
    for eq in inject(q, u.forward, q.at):
        low = lower(eq)
        assert [d.name for d in low.ispace.dims] == ["t", "p_q"]
        assert low.is_increment


def test_interpolate_iterates_point_dim_not_space():
    g = Grid((11,))
    u = FunctionDecl("u", "timefunction", g, space_order=2)
    rec = FunctionDecl("rec", "sparsetimefunction", g, npoint=2,
                       coordinates=[(2.5,), (7.0,)])
    eq, = interpolate(rec, u.at)
    low = lower(eq)
    assert [d.name for d in low.ispace.dims] == ["t", "p_rec"]
    assert low.lhs.func is rec
    assert u in {acc.func for acc in low.accesses[1:]}


def test_nonaffine_index_rejected():
    g = Grid((11,))
    u = FunctionDecl("u", "timefunction", g, space_order=2)
    x = Symbol("x")
    with pytest.raises(LoweringError):
        indexify(Eq(u.forward, Access(u, (Symbol("t"), mul(x, x)))))
    with pytest.raises(LoweringError):
        indexify(Eq(u.forward,
                    Access(u, (Symbol("t"), add(x, Symbol("h_x"), num(1))))))


@pytest.mark.parametrize("so", [2, 4, 8])
def test_aligned_accesses_stay_in_allocated_storage(so):
    """With loop variables anywhere in the domain, every aligned space
    index lands inside the allocated extent (bounds oracle by direct
    numeric evaluation at the domain extremes)."""
    g, u, m, eq = wave_setup(shape=(11,), so=so)
    low = indexify(eq)
    from stencilc.lowering import collect_accesses
    n = 11
    for acc in [low.lhs] + collect_accesses(low.rhs):
        ext = acc.func.storage_extents()[-1]
        idx = acc.indices[-1]
        off = int(evaluate(substitute(idx, {Symbol("x"): num(0)}), {}))
        assert off >= 0
        assert (n - 1) + off <= ext - 1


def test_halo_coverage_check():
    g = Grid((11,))
    u = FunctionDecl("u", "timefunction", g, space_order=2)
    x, h = Symbol("x"), Symbol("h_x")
    wide = Access(u, (Symbol("t"), add(x, mul(num(3), h))))
    low = indexify(Eq(u.forward, wide))
    with pytest.raises(LoweringError):
        check_halo_coverage(low)
    g2, u2, m2, eq2 = wave_setup(so=4)
    check_halo_coverage(indexify(eq2))  # no raise


def test_interval_hull_and_merged():
    d = Dimension("x", "space")
    a, b = Interval(d, -1, 0), Interval(d, 0, 2)
    assert a.hull(b) == Interval(d, -1, 2)


def test_undersized_halo_fails_at_compile():
    from stencilc.backend import Operator
    from stencilc.symbolic.fd import derivative
    g = Grid((16, 16))
    u = FunctionDecl("u", "timefunction", g, space_order=2, time_order=2)
    lap8 = add(*[derivative(u, d, 8, 2) for d in g.dimensions])
    message = r"halo 1 of u too small for offset -?[2-4] along x"
    with pytest.raises(LoweringError, match=message):
        Operator([Eq(u.forward, add(u.at, lap8))])


@pytest.mark.parametrize("unit", [None, Symbol("h_x")])
@pytest.mark.parametrize("kind", [Fraction, float])
def test_affine_offset_fast_path_matches_symbolic(unit, kind):
    # Lowered indices are ``Add(Constant(k), dim)``; k comes back as an
    # int whether the constant is exact or a float.
    from stencilc.lowering import affine_offset
    from stencilc.symbolic import Constant
    x = Symbol("x")
    for k in range(-20, 21):
        index = add(num(kind(k)), x)
        if k:
            assert isinstance(index, Add) and \
                index.children == (Constant(kind(k)), x)
        offset = affine_offset(index, x, unit)
        assert offset == k
        assert type(offset) is int
    half = add(num(kind(Fraction(1, 2))), x)
    with pytest.raises(LoweringError):
        affine_offset(half, x, unit)


def _preorder_accesses(e):
    from stencilc.symbolic.expr import children_of
    found = [e] if isinstance(e, Access) else []
    for c in children_of(e):
        found.extend(_preorder_accesses(c))
    return found


def test_collect_accesses_preorder_without_cycles():
    import gc
    from stencilc.lowering import collect_accesses
    g = Grid((11,))
    u = FunctionDecl("u", "timefunction", g, space_order=2)
    p = FunctionDecl("p", "function", g, space_order=2)
    x = Symbol("x")
    inner = Access(p, (add(x, num(1)),))
    e = add(mul(Access(u, (Symbol("t"), inner)), Access(p, (x,))),
            Access(u, (Symbol("t"), add(x, num(-1)))))
    assert collect_accesses(e) == _preorder_accesses(e)
    found = collect_accesses(e)
    outer = found.index(Access(u, (Symbol("t"), inner)))
    assert found[outer + 1] is inner  # a nested access follows its parent
    gc.collect()
    gc.disable()
    try:
        for _ in range(1000):
            collect_accesses(e)
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize("kind", [Fraction, float])
def test_affine_offset_closed_form_for_shifted_indices(kind):
    # ``fd.shift_expr`` builds ``dim + k*unit``; an integer k is the offset.
    from stencilc.lowering import affine_offset
    x, h = Symbol("x"), Symbol("h_x")
    for k in range(-20, 21):
        index = add(x, mul(num(kind(k)), h))
        offset = affine_offset(index, x, h)
        assert offset == k
        assert type(offset) is int
    for k in (Fraction(1, 2), Fraction(-7, 3), 2.5):
        index = add(x, mul(num(k), h))
        with pytest.raises(LoweringError):
            affine_offset(index, x, h)


_X, _Y, _H, _T, _DT = (Symbol(n) for n in ("x", "y", "h_x", "t", "dt"))
_THREE = num(3)
_THREE_H = Mul((_THREE, _H))

#: (index, dimension symbol, unit, expected): the expected offset, OPAQUE
#: or LoweringError. The first four sums are built without ``add``, which
#: would sort their children, so that both child orders occur.
AFFINE_FORMS = {
    "x+k": (Add((_X, _THREE)), _X, _H, 3),
    "k+x": (Add((_THREE, _X)), _X, _H, 3),
    "x+k*h": (Add((_X, _THREE_H)), _X, _H, 3),
    "k*h+x": (Add((_THREE_H, _X)), _X, _H, 3),
    "t+dt": (add(_T, _DT), _T, _DT, 1),
    "x": (_X, _X, _H, 0),
    "2*x": (mul(num(2), _X), _X, _H, LoweringError),
    "x+h+1": (add(_X, _H, num(1)), _X, _H, LoweringError),
    "x+y": (add(_X, _Y), _X, _H, LoweringError),
    "x+h*h": (add(_X, mul(_H, _H)), _X, _H, LoweringError),
    "x+(1/2)*h": (add(_X, mul(num(Fraction(1, 2)), _H)), _X, _H,
                  LoweringError),
    "x+floor(x)": (add(_X, call("floor", _X)), _X, _H, LoweringError),
    "y+k": (add(_Y, _THREE), _X, _H, OPAQUE),
}


@pytest.mark.parametrize("name", sorted(AFFINE_FORMS))
def test_affine_offset_forms(name):
    from stencilc.lowering import affine_offset
    index, dim, unit, expected = AFFINE_FORMS[name]
    if expected is LoweringError:
        with pytest.raises(LoweringError):
            affine_offset(index, dim, unit)
    elif expected is OPAQUE:
        assert affine_offset(index, dim, unit) is OPAQUE
    else:
        offset = affine_offset(index, dim, unit)
        assert offset == expected and type(offset) is int


def test_coupled_lowering_rebuilds_only_changed_nodes(monkeypatch):
    import stencilc.lowering as lowering
    import stencilc.symbolic.expr as expr
    from stencilc.symbolic.expr import children_of, rebuild
    from helpers import coupled_equations
    calls, walked = [], []

    def counted(e, new):
        calls.append(all(a is b for a, b in zip(new, children_of(e))))
        return rebuild(e, new)

    def mapped(e, *args, _original=lowering._map_accesses):
        walked.append(e)
        return _original(e, *args)

    eqs = coupled_equations(8, shape=(16, 16, 16), so=8)
    monkeypatch.setattr(expr, "rebuild", counted)
    monkeypatch.setattr(lowering, "_map_accesses", mapped)
    for eq in eqs:
        walked.clear()
        lower(eq)
        # One walk of the right-hand side converts and aligns its accesses.
        assert [e for e in walked if e is eq.rhs] == [eq.rhs]
    # Each changed ancestor of an access is rebuilt once: 295 rebuilds,
    # where indexifying and aligning in two walks made 590.
    assert len(calls) == 295 and not any(calls)


@pytest.mark.parametrize("example", ["acoustic", "coupled", "rotated"])
def test_affine_index_nodes_built_once_per_equation(example):
    from helpers import acoustic_example, coupled_equations, \
        rotated_equations
    eqs = {"acoustic": lambda: acoustic_example((8, 8), so=4)[1],
           "coupled": lambda: coupled_equations(3, so=8),
           "rotated": lambda: rotated_equations(12, shape=(24, 24))[1]
           }[example]()
    shared = 0
    for eq in eqs:
        low = lower(eq)
        nodes = {}
        for acc, offsets in zip(low.accesses, low.offsets):
            for (dim, _, k), idx in zip(offsets, acc.indices):
                if k is not OPAQUE and dim.kind != "conditional":
                    nodes.setdefault((dim.name, k), []).append(idx)
        for found in nodes.values():
            assert all(idx is found[0] for idx in found)
            shared += len(found) > 1
    assert shared


def _lhs_index_accesses(eq):
    from stencilc.lowering import collect_accesses
    return [a for idx in eq.lhs.indices for a in collect_accesses(idx)]


def test_access_table_on_source_and_receiver():
    from stencilc.lowering import _access_offsets, collect_accesses
    from helpers import acoustic_example
    _, eqs = acoustic_example((8, 8), so=4)
    lowered = [lower(e) for e in eqs]
    # Injection indexes u through the source coordinates.
    assert any(_lhs_index_accesses(eq) for eq in lowered)
    for eq in lowered:
        expected = [eq.lhs] + collect_accesses(eq.rhs) + \
            _lhs_index_accesses(eq)
        assert len(eq.accesses) == len(expected)
        assert all(a is b for a, b in zip(eq.accesses, expected))
        assert list(eq.offsets) == [_access_offsets(a) for a in expected]


def test_access_table_follows_replace():
    from dataclasses import fields, replace
    from stencilc.lowering import _access_offsets
    g, u, m, eq = wave_setup()
    low = lower(eq)
    read = next(a for a in low.accesses if a.func is m)
    new = replace(low, rhs=mul(num(2), read))
    assert new.accesses == (low.lhs, read)
    assert new.offsets == (low.offsets[0], _access_offsets(read))
    assert read in low.accesses and len(low.accesses) > 2
    # A change that keeps lhs and rhs hands the table on; the table is
    # no field, so equality and repr ignore it.
    forced = low.reanalyzed(ispace=low.ispace.with_directions(
        {g.dimensions[0]: FORWARD}))
    assert forced.ispace != low.ispace
    assert forced.accesses is low.accesses
    assert forced.offsets is low.offsets
    assert not {"accesses", "offsets"} & {f.name for f in fields(low)}
    assert replace(low) == low and repr(replace(low)) == repr(low)


@pytest.mark.parametrize("example", ["acoustic", "wave", "tti"])
def test_lowering_keeps_the_offsets_of_the_new_indices(example):
    # Lowering reads each index once, and the new access keeps the offsets
    # read: those ``_access_offsets`` derives from its indices (a fresh
    # node has no table yet). The cases hold sparse indices, accesses in
    # indices, a sub-sampled time index and several functions.
    from stencilc.lowering import _access_offsets
    from helpers import acoustic_example, tti_equations, wave_example
    eqs = {"acoustic": lambda: acoustic_example((8, 8), so=4)[1],
           "wave": lambda: wave_example()[1],
           "tti": lambda: tti_equations((8, 8, 8), so=4)}[example]()

    def typed(offsets):
        return [(dim, loop, k, type(k)) for dim, loop, k in offsets]

    for eq in eqs:
        low = lower(eq)
        for acc, offsets in zip(low.accesses, low.offsets):
            fresh = _access_offsets(Access(acc.func, acc.indices))
            assert typed(offsets) == typed(fresh), acc


def test_offsets_derived_once_per_access(monkeypatch):
    import sys
    import stencilc.lowering as lowering
    from stencilc.clustering import clusterize
    from helpers import coupled_equations
    original = lowering._access_offsets
    calls = []

    def counted(acc):
        calls.append(acc)
        return original(acc)

    for name, mod in list(sys.modules.items()):
        if name.startswith("stencilc") and \
                getattr(mod, "_access_offsets", None) is original:
            monkeypatch.setattr(mod, "_access_offsets", counted)
    lowered = [lower(eq) for eq in
               coupled_equations(8, shape=(16, 16, 16), so=8)]
    assert len(calls) == sum(len(eq.accesses) for eq in lowered)
    calls.clear()
    for eq in lowered:
        check_halo_coverage(eq)
    clusterize(lowered)
    assert calls == []


# SHA-256 of ``Operator.source`` for ``2.0 + laplace(u)`` ("const") and
# ``2.0*u + laplace(u)`` ("coeff") on a 16x16 SO8 grid, taken before the
# lowering walks shared results between equal nodes, and re-taken when the
# emitted time index became non-negative (``((i)%m + m)%m``) and when only
# the outermost parallel loop of a nest kept ``parallel for``.
FLOAT_CONSTANT_C_SHA256 = {
    ("basic", "const"):
        "fb0ec637fd06e75dfc2e80a93bede94f97a2ee7a082f061b8ef7322790bb0afe",
    ("basic", "coeff"):
        "ccc1156d4fddb6f62e29887f6ddaef34d30bf6c35deb9ec0e5a787137d1283ae",
    ("advanced", "const"):
        "26263d83a6f92fd7f44a528055245c5ff2a871628198ea58cab3286cbb0d165a",
    ("advanced", "coeff"):
        "d93a928622af30309ff8f45540d3334e97c9105b0975f3040949462b5d875d16",
}


@pytest.mark.parametrize("mode,variant", sorted(FLOAT_CONSTANT_C_SHA256))
def test_float_constants_stay_apart_from_index_constants(mode, variant):
    # Constant(2.0) == Constant(2), but a float in an index makes the C
    # subscript a double, and a Fraction in the rhs changes the emitted
    # literal. Lowering must keep the two apart in either walk order.
    import hashlib
    from stencilc.backend.operator import Operator
    from stencilc.symbolic.expr import Constant, children_of
    g = Grid((16, 16))
    u = FunctionDecl("u", "timefunction", g, space_order=8, time_order=1)
    v = FunctionDecl("v", "timefunction", g, space_order=8, time_order=1)
    first = num(2.0) if variant == "const" else mul(num(2.0), u.at)
    eq = Eq(v.forward, add(first, laplace(u)))
    low = lower(eq)

    index_consts, value_consts = [], []
    stack = [(low.lhs, True), (low.rhs, False)]
    while stack:
        e, in_index = stack.pop()
        if isinstance(e, Constant):
            (index_consts if in_index else value_consts).append(e.value)
        stack.extend((c, in_index or isinstance(e, Access))
                     for c in children_of(e))
    assert index_consts
    assert all(type(k) is Fraction for k in index_consts)
    assert 2.0 in value_consts
    assert all(type(k) is float for k in value_consts if k == 2)

    source = Operator([eq], mode=mode).source
    assert hashlib.sha256(source.encode()).hexdigest() == \
        FLOAT_CONSTANT_C_SHA256[(mode, variant)]
