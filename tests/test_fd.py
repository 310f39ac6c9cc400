import random
from fractions import Fraction

import pytest

from stencilc.symbolic import (Access, Constant, Eq, FunctionDecl, Grid,
                               Symbol, add, centered_weights, derivative,
                               derivative_of, dt2, evaluate, laplace, mul,
                               num, pow_, solve_for, substitute)
from stencilc.symbolic.fd import FDError, SolveError, fornberg_weights


def poly_derivative_oracle(weights, m, k):
    """Independent check: apply stencil weights to x**k at x=0 and compare
    with the exact m-th derivative there (k! / (k-m)! * 0**(k-m))."""
    applied = sum(w * Fraction(off) ** k if off or k else w * (1 if k == 0 else 0)
                  for off, w in weights.items())
    exact = Fraction(0)
    if k == m:
        fact = 1
        for i in range(1, m + 1):
            fact *= i
        exact = Fraction(fact)
    return applied, exact


def test_first_derivative_order2():
    w = centered_weights(2, 1)
    assert w == {-1: Fraction(-1, 2), 0: Fraction(0), 1: Fraction(1, 2)}


def test_first_derivative_order4():
    w = centered_weights(4, 1)
    assert w == {-2: Fraction(1, 12), -1: Fraction(-2, 3), 0: Fraction(0),
                 1: Fraction(2, 3), 2: Fraction(-1, 12)}


def test_second_derivative_order2():
    w = centered_weights(2, 2)
    assert w == {-1: Fraction(1), 0: Fraction(-2), 1: Fraction(1)}


def test_fornberg_cross_check_cubic():
    # Differentiating x**3 exactly at 0 requires the 5-point 4th-order rule.
    w = centered_weights(4, 1)
    applied = sum(weight * Fraction(off) ** 3 for off, weight in w.items())
    assert applied == 0  # d/dx x^3 at x=0


@pytest.mark.parametrize("fd_order,deriv_order", [(2, 1), (4, 1), (8, 1),
                                                  (2, 2), (4, 2), (8, 2)])
def test_weights_exact_on_monomials(fd_order, deriv_order):
    w = centered_weights(fd_order, deriv_order)
    radius = max(w)
    for k in range(0, 2 * radius + 1):
        applied = sum(weight * Fraction(off) ** k for off, weight in w.items())
        fact = 1
        for i in range(1, deriv_order + 1):
            fact *= i
        exact = Fraction(fact) if k == deriv_order else Fraction(0)
        assert applied == exact, (k, applied, exact)
    assert 2 * radius >= fd_order


def test_derivative_expression_shape():
    g = Grid((16,))
    u = FunctionDecl("u", "timefunction", g, space_order=2, time_order=2)
    x = g.dimensions[0]
    e = derivative(u, x, 2, 1)
    # -u(t, x-h_x)/(2 h_x) + u(t, x+h_x)/(2 h_x)
    h = Symbol("h_x")
    t, xs = Symbol("t"), Symbol("x")
    lo = Access(u, (t, add(xs, mul(num(-1), h))))
    hi = Access(u, (t, add(xs, h)))
    expected = add(mul(num(Fraction(-1, 2)), pow_(h, -1), lo),
                   mul(num(Fraction(1, 2)), pow_(h, -1), hi))
    assert e == expected


def test_time_derivative_dt2():
    g = Grid((16,))
    u = FunctionDecl("u", "timefunction", g, space_order=2, time_order=2)
    e = dt2(u)
    dts = Symbol("dt")
    ts = u.time_dim.symbol
    center = Access(u, (ts, Symbol("x")))
    fwd = Access(u, (add(ts, dts), Symbol("x")))
    bwd = Access(u, (add(ts, mul(num(-1), dts)), Symbol("x")))
    expected = add(mul(num(-2), pow_(dts, -2), center),
                   mul(pow_(dts, -2), fwd), mul(pow_(dts, -2), bwd))
    assert e == expected


def test_laplace_1d_equals_dx2():
    g = Grid((16,))
    u = FunctionDecl("u", "timefunction", g, space_order=2)
    assert laplace(u) == derivative(u, g.dimensions[0], 2, 2)


def test_laplace_2d_term_for_term():
    g = Grid((8, 8))
    u = FunctionDecl("u", "timefunction", g, space_order=2)
    x, y = g.dimensions
    assert laplace(u) == add(derivative(u, x, 2, 2), derivative(u, y, 2, 2))


def test_laplace_of_constant_field_is_zero():
    # Substituting every access by the same constant must collapse to 0.
    g = Grid((8, 8))
    u = FunctionDecl("u", "timefunction", g, space_order=4)
    e = laplace(u)
    val = 3.25
    got = evaluate(e, {"h_x": 0.7, "h_y": 1.3}, on_access=lambda acc: val)
    assert got == pytest.approx(0.0, abs=1e-12)


def test_derivative_errors():
    g = Grid((16,))
    u = FunctionDecl("u", "timefunction", g)
    with pytest.raises(FDError):
        derivative(u, g.dimensions[0], 3, 1)  # odd order
    other = Grid((8, 8))
    with pytest.raises(FDError):
        derivative(u, other.dimensions[1], 2, 1)  # dimension not on grid


def test_solve_linear_identity():
    g = Grid((8,))
    f = FunctionDecl("f", "function", g)
    target = f.at
    a_sym, b_sym = Symbol("a"), Symbol("b")
    res = solve_for(add(mul(a_sym, target), mul(num(-1), b_sym)), target)
    assert res == mul(b_sym, pow_(a_sym, -1))


def test_solve_rejects_nonlinear_and_absent():
    g = Grid((8,))
    f = FunctionDecl("f", "function", g)
    target = f.at
    with pytest.raises(SolveError):
        solve_for(mul(target, target), target)
    with pytest.raises(SolveError):
        solve_for(Symbol("a"), target)


def test_solve_wave_equation_listing_form():
    """m*u.dt2 - u.laplace solved for u.forward must match the reference
    update rule numerically at random points."""
    g = Grid((16,))
    u = FunctionDecl("u", "timefunction", g, space_order=2, time_order=2)
    m = FunctionDecl("m", "function", g)
    pde = add(mul(m.at, dt2(u)), mul(num(-1), laplace(u)))
    res = solve_for(pde, u.forward)

    rng = random.Random(11)
    for _ in range(20):
        vals = {}

        def acc_value(acc):
            key = repr(acc)
            if key not in vals:
                vals[key] = rng.uniform(-1, 1)
            return vals[key]

        env = {"dt": 0.1, "h_x": 0.5}
        mv = rng.uniform(0.5, 2.0)
        u0 = rng.uniform(-1, 1)
        um = rng.uniform(-1, 1)
        ul = rng.uniform(-1, 1)
        ur = rng.uniform(-1, 1)

        def handler(acc):
            if acc.func is m:
                return mv
            # Classify u accesses by their time/space offsets
            tidx, xidx = acc.indices
            t_off = evaluate(substitute(tidx, {u.time_dim.symbol: num(0)}), env)
            x_off = evaluate(substitute(xidx, {Symbol("x"): num(0)}), env)
            t_off = round(t_off / env["dt"])
            x_off = round(x_off / env["h_x"])
            if t_off == -1:
                return um
            if x_off == -1:
                return ul
            if x_off == 1:
                return ur
            return u0

        got = evaluate(res, env, on_access=handler)
        # Reference: rearrange by hand
        dt_, h = env["dt"], env["h_x"]
        lap = (ul - 2 * u0 + ur) / h ** 2
        expected = 2 * u0 - um + dt_ ** 2 * lap / mv
        assert got == pytest.approx(expected, rel=1e-10)


def test_solve_random_affine_residual():
    """solve_for then substitute-back leaves residual < 1e-10 at random
    numeric points."""
    g = Grid((8,))
    f = FunctionDecl("f", "function", g)
    target = f.at
    rng = random.Random(3)
    syms = [Symbol(s) for s in "pqr"]
    for _ in range(20):
        coeff = add(*[mul(num(rng.randint(1, 5)), s) for s in syms[:2]])
        rest = add(*[mul(num(rng.randint(-4, 4)), s) for s in syms])
        expr = add(mul(coeff, target), rest)
        solved = solve_for(expr, target)
        env = {s.name: rng.uniform(0.5, 2.0) for s in syms}
        tval = evaluate(solved, env, on_access=lambda acc: 0.0)
        residual = evaluate(expr, env,
                            on_access=lambda acc: tval if acc == target else 0.0)
        assert abs(residual) < 1e-10


def test_centered_weights_derived_once_and_returned_fresh(monkeypatch):
    from stencilc.symbolic import fd
    derived = []
    uncached = fd.fornberg_weights
    monkeypatch.setattr(fd, "fornberg_weights",
                        lambda *args: derived.append(args) or
                        uncached(*args))
    fd._centered_weights.cache_clear()
    try:
        first = centered_weights(8, 2)
        first[0] = Fraction(99)
        del first[4]
        second = centered_weights(8, 2)
        assert len(derived) == 1
        offsets = tuple(range(-4, 5))
        assert second == dict(zip(offsets, uncached(2, offsets)))
        assert second is not first
    finally:
        fd._centered_weights.cache_clear()
