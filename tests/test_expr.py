import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from stencilc.symbolic import (Access, Add, Call, Constant, ExprError, Grid,
                               FunctionDecl, Mul, Pow, Symbol, add, call,
                               evaluate, mul, num, op_count, pow_, substitute)
from stencilc.symbolic.expr import _as_coeff_term, children_of, rewrite

from helpers import reference_add, reference_coeff_term, reference_mul


a, b, c = Symbol("a"), Symbol("b"), Symbol("c")


def test_add_flattens_and_collects():
    e = add(a, add(b, a))
    assert isinstance(e, Add)
    # Like terms collected: 2*a + b
    assert set(e.children) == {mul(num(2), a), b}


def test_mul_merges_powers():
    e = mul(a, a, b)
    assert isinstance(e, Mul)
    assert pow_(a, 2) in e.children


def test_division_is_negative_power():
    e = a / b
    assert e == mul(a, pow_(b, -1))


def test_constant_folding():
    assert add(num(1), num(2)) == num(3)
    assert mul(num(Fraction(1, 2)), num(4)) == num(2)
    assert pow_(num(2), -1) == num(Fraction(1, 2))
    assert mul(num(0), a) == num(0)


def test_pow_invariants():
    assert pow_(a, 1) == a
    assert pow_(a, 0) == num(1)
    assert pow_(pow_(a, 2), 3) == pow_(a, 6)
    # Pow distributes over Mul so division normalizes per factor
    assert pow_(mul(a, b), -1) == mul(pow_(a, -1), pow_(b, -1))


def _random_expr(rng, depth=0):
    syms = [a, b, c]
    choices = ["sym", "const"]
    if depth < 4:
        choices += ["add", "mul", "pow"]
    kind = rng.choice(choices)
    if kind == "sym":
        return rng.choice(syms)
    if kind == "const":
        return num(rng.randint(-3, 3))
    if kind == "add":
        return add(*[_random_expr(rng, depth + 1)
                     for _ in range(rng.randint(2, 3))])
    if kind == "mul":
        return mul(*[_random_expr(rng, depth + 1)
                     for _ in range(rng.randint(2, 3))])
    base = _random_expr(rng, depth + 1)
    exp = rng.choice([-2, -1, 2, 3])
    if base == num(0) and exp < 0:
        base = a
    return pow_(base, exp)


def _check_flat(e):
    if isinstance(e, Add):
        assert len(e.children) >= 2
        assert not any(isinstance(k, Add) for k in e.children)
    if isinstance(e, Mul):
        assert len(e.children) >= 2
        assert not any(isinstance(k, Mul) for k in e.children)
    if isinstance(e, Pow):
        assert isinstance(e.exponent, int) and e.exponent != 0
    from stencilc.symbolic.expr import children_of
    for k in children_of(e):
        _check_flat(k)


@given(st.integers(0, 10_000))
def test_flattened_form_property(seed):
    rng = random.Random(seed)
    _check_flat(_random_expr(rng))


def test_op_count_examples():
    assert op_count(add(a, b)) == 1
    t0, u1, u2, u3 = Symbol("t0"), Symbol("u1"), Symbol("u2"), Symbol("u3")
    e = add(mul(num(9.0), t0, u1), mul(num(-18.0), t0, u2),
            mul(num(9.0), t0, u3))
    assert op_count(e) == 8
    assert op_count(add(call("sin", a), num(1))) == 51


def test_op_count_skips_index_arithmetic():
    g = Grid((8,))
    u = FunctionDecl("u", "function", g)
    acc = Access(u, (add(Symbol("x"), num(3)),))
    assert op_count(acc) == 0
    assert op_count(add(acc, acc, a)) == 2


def test_substitute_folds_constants():
    h = Symbol("h_x")
    assert substitute(mul(h, num(2)), {h: num(Fraction(1, 2))}) == num(1)


def test_substitute_identity():
    e = add(a, b)
    assert substitute(e, {}) is e


def test_substitute_evaluate_commute():
    rng = random.Random(7)
    for _ in range(20):
        e = _random_expr(rng)
        env = {s: rng.uniform(0.5, 2.0) for s in "abc"}
        sub = substitute(e, {Symbol("a"): num(env["a"])})
        v1 = evaluate(sub, env)
        v2 = evaluate(e, env)
        assert v1 == pytest.approx(v2, rel=1e-12, abs=1e-12)


def test_evaluate_adds_from_the_first_term():
    import math
    out = evaluate(add(a, b), {"a": -0.0, "b": -0.0})
    assert out == 0.0 and math.copysign(1.0, out) == -1.0
    # Left to right, uncompensated: (1e100 + 1.0) - 1e100 is 0.0
    assert evaluate(add(a, b, c), {"a": 1e100, "b": 1.0, "c": -1e100}) \
        == 0.0


def test_deterministic_ordering():
    e1 = add(b, a, c)
    e2 = add(c, a, b)
    assert e1 == e2
    assert repr(e1) == repr(e2)


def _one_of_each():
    """Two independently built copies of a node of every Expr class."""
    g = Grid((8,))
    u = FunctionDecl("u", "function", g)

    def build():
        x = Symbol("x")
        return [num(Fraction(3, 2)), num(2.5), Symbol("x"),
                Access(u, (add(x, num(1)),)), add(x, a),
                mul(num(2), x, a), pow_(x, -2), call("sin", x)]

    return build(), build()


def test_cached_hash_matches_dataclass_hash():
    from dataclasses import fields
    first, second = _one_of_each()
    assert {type(e) for e in first} == {Constant, Symbol, Access, Add, Mul,
                                        Pow, Call}
    for e, twin in zip(first, second):
        assert e is not twin and e == twin
        compared = tuple(getattr(e, f.name) for f in fields(e) if f.compare)
        assert hash(e) == hash(compared)
        assert hash(e) == hash(e)  # the cached value
        assert hash(twin) == hash(e)


def test_cache_slots_are_not_compared_or_pickled():
    import pickle
    x = Symbol("x")
    e = add(x, num(1))
    hash(e)
    assert op_count(e) == op_count(e) == 1  # the second is the cached count
    assert e == add(Symbol("x"), num(1))  # fresh node, empty caches
    state = e.__getstate__()
    assert state == [e.children]
    assert pickle.loads(pickle.dumps(e)) == e


def test_add_keeps_a_term_that_occurs_once():
    term = mul(num(3), a, pow_(b, -2))
    e = add(c, term, num(1))
    assert e == add(num(1), c, mul(num(3), a, pow_(b, -2)))
    assert any(child is term for child in e.children)
    twice = add(term, c, term)
    assert mul(num(6), a, pow_(b, -2)) in twice.children


def test_add_and_mul_leave_no_reference_cycles():
    import gc

    from stencilc.lowering import _access_offsets
    g = Grid((8,))
    u = FunctionDecl("u", "function", g)
    x = g.dimensions[0].symbol
    gc.collect()
    gc.disable()
    try:
        for _ in range(1000):
            add(a, mul(num(2), b), num(1))
        assert gc.collect() == 0
        for _ in range(1000):
            mul(a, pow_(b, 2), num(3), c)
        assert gc.collect() == 0
        # A product without a constant splits into (1, itself): keeping
        # that split on the node would make a cycle.
        for _ in range(1000):
            e = mul(a, b)
            assert _as_coeff_term(e)[1] is e
        assert gc.collect() == 0
        for _ in range(1000):
            acc = Access(u, (add(x, num(1)),))
            assert _access_offsets(acc) is _access_offsets(acc)
        assert gc.collect() == 0
        e = mul(call("sin", add(a, b)), add(a, b), pow_(c, 2))
        for _ in range(1000):
            rewrite(e, lambda n: num(2) if n == c else None)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_rewrite_returns_unchanged_input_itself():
    e = mul(call("sin", add(a, b)), pow_(c, -2))
    assert rewrite(e, lambda n: None) is e
    assert rewrite(e, lambda n: n if n == b else None) is e
    assert substitute(e, {Symbol("z"): a}) is e


def test_rewrite_visits_a_shared_subtree_once():
    shared = add(a, b)
    e = mul(call("sin", shared), call("cos", shared))
    seen = []
    out = rewrite(e, lambda n: seen.append(n) or (c if n == a else None))
    assert sum(n is shared for n in seen) == 1
    assert out == mul(call("sin", add(c, b)), call("cos", add(c, b)))


def test_rewrite_keeps_equal_constants_of_different_types():
    two_f, two_q = Constant(2.0), Constant(Fraction(2))
    assert two_f == two_q
    e = call("min", two_f, two_q, a)
    out = rewrite(e, lambda n: b if n == a else None)
    assert out.args[2] == b
    assert [type(x.value) for x in out.args[:2]] == [float, Fraction]


# -- The constructors keep their normal form ---------------------------------

_u = FunctionDecl("u", "function", Grid((8,)))
#: Constants of both types, equal across types (2 and 2.0), both zeros,
#: one and a hand-built int.
_CONSTANTS = [Constant(v) for v in (Fraction(2), 2.0, 2, -0.0, 0.0,
                                    Fraction(0), Fraction(-1), 1.0,
                                    Fraction(1, 3), -1.5)]
_leaves = st.sampled_from([a, b, c, Access(_u, (add(Symbol("x"), num(1)),)),
                           call("sin", a)] + _CONSTANTS)


def _power(pair):
    base, exponent = pair
    try:
        return pow_(base, exponent)
    except ExprError:  # a zero to a negative power
        return base


def _compound(kids):
    some = st.lists(kids, min_size=1, max_size=4)
    return st.one_of(
        some.map(lambda xs: add(*xs)),
        some.map(lambda xs: mul(*xs)),
        st.tuples(kids, st.sampled_from([-2, -1, 2, 3])).map(_power),
        # Built by hand, out of normal form: several constants
        st.tuples(st.lists(st.sampled_from(_CONSTANTS), min_size=2,
                           max_size=3), some)
        .map(lambda p: Mul(tuple(p[0] + p[1]))))


#: Arguments drawn with repetition from a few trees, so that terms and
#: factors repeat.
_arguments = st.lists(st.recursive(_leaves, _compound, max_leaves=10),
                      min_size=1, max_size=4).flatmap(
    lambda pool: st.lists(st.sampled_from(pool), min_size=1, max_size=6))


def _same(x, y) -> bool:
    """Equal trees with the same child order, whose constants have the
    same value types, the sign of zero included."""
    if type(x) is not type(y):
        return False
    if isinstance(x, Constant):
        v, w = x.value, y.value
        return type(v) is type(w) and v == w and (
            not isinstance(v, float) or
            math.copysign(1.0, v) == math.copysign(1.0, w))
    if isinstance(x, (Symbol, Call)) and x.name != y.name:
        return False
    if isinstance(x, Pow) and x.exponent != y.exponent:
        return False
    if isinstance(x, Access) and x.func is not y.func:
        return False
    kx, ky = children_of(x), children_of(y)
    return len(kx) == len(ky) and all(map(_same, kx, ky))


def _flat(args, cls):
    """The operands of ``cls`` that the constructor of ``cls`` reads from
    ``args``: nested ``cls`` nodes are expanded, constants left out."""
    out, stack = [], list(reversed(args))
    while stack:
        e = stack.pop()
        if isinstance(e, cls):
            stack.extend(reversed(e.children))
        elif not isinstance(e, Constant):
            out.append(e)
    return out


def _outputs(e, cls):
    return e.children if isinstance(e, cls) else (e,)


@settings(derandomize=True, max_examples=400, deadline=None)
@given(_arguments)
def test_constructors_keep_the_reference_normal_form(args):
    total, product = add(*args), mul(*args)
    assert _same(total, reference_add(*args))
    assert _same(product, reference_mul(*args))
    # An input term in normal form that no other input shares comes back
    # as the same object, and so does a factor whose base occurs once.
    # ``reference_mul`` of one operand is its normal form.
    terms = _flat(args, Add)
    keys = [reference_coeff_term(t)[1] for t in terms]
    for t, key in zip(terms, keys):
        if keys.count(key) == 1 and _same(t, reference_mul(t)):
            assert any(out is t for out in _outputs(total, Add))
    factors = _flat(args, Mul)
    bases = [f.base if isinstance(f, Pow) else f for f in factors]
    for f, base in zip(factors, bases):
        if bases.count(base) == 1 and _same(f, reference_mul(f)) and \
                not isinstance(product, Constant):
            assert any(out is f for out in _outputs(product, Mul))
