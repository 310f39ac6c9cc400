"""Shared builders for the wave-propagation example used across the
pipeline tests: a second-order stencil update, a sub-sampled snapshot
copy, and a pair of sparse source-injection increments."""

from stencilc.lowering import lower
from stencilc.symbolic import (Eq, FunctionDecl, Grid, dt2, inject, laplace,
                               solve_for)
from stencilc.symbolic.grid import Dimension


def wave_example(shape=(11,), so=2, factor=4, save=100, npoint=1,
                 coordinates=((5.25,),)):
    g = Grid(shape)
    u = FunctionDecl("u", "timefunction", g, space_order=so, time_order=2)
    m = FunctionDecl("m", "function", g, space_order=so)
    ts = Dimension("ts", "conditional", parent=g.time_dim, factor=factor)
    us = FunctionDecl("us", "timefunction", g, space_order=so, save=save,
                      time_dim=ts)
    q = FunctionDecl("q", "sparsetimefunction", g, npoint=npoint,
                     coordinates=list(coordinates))

    stencil = Eq(u.forward, solve_for(m.at * dt2(u) - laplace(u), u.forward))
    snapshot = Eq(us.at, u.at)
    sources = inject(q, u.forward, q.at)
    eqs = [stencil, snapshot] + sources
    funcs = {"grid": g, "u": u, "m": m, "us": us, "q": q}
    return funcs, eqs


def lowered_wave_example(**kwargs):
    funcs, eqs = wave_example(**kwargs)
    return funcs, [lower(e) for e in eqs]


def rotated_laplacian_example(so, shape=(13, 13)):
    """A rotated first-derivative stencil: d/dx of cos(theta) * du/dy. The
    inner derivative reappears translated at every outer stencil point, so
    cross-iteration redundancy elimination collapses its cost from
    quadratic in the space order down to linear."""
    funcs, eqs = rotated_equations(so, shape)
    return funcs, [lower(e) for e in eqs]


def rotated_equations(so, shape=(13, 13)):
    """The rotated stencil of ``rotated_laplacian_example``, unlowered."""
    from stencilc.symbolic import Symbol, call, mul
    from stencilc.symbolic.fd import derivative, derivative_of
    g = Grid(shape)
    u = FunctionDecl("u", "timefunction", g, space_order=so, time_order=2)
    th = FunctionDecl("theta", "function", g, space_order=so)
    w = FunctionDecl("w", "timefunction", g, space_order=so, time_order=2)
    x, y = g.dimensions
    inner = mul(call("cos", th.at), derivative(u, y, so, 1))
    expr = derivative_of(inner, x, so, 1, Symbol("h_x"))
    funcs = {"grid": g, "u": u, "theta": th, "w": w}
    return funcs, [Eq(w.forward, expr)]


def two_field_equations(so, shape=(24, 24)):
    """``cos(theta) * du/dx + sin(theta) * dv/dx``: the x derivatives of
    two fields share one offset pattern, so only the function read tells
    them apart."""
    from stencilc.symbolic import call, mul
    from stencilc.symbolic.fd import derivative
    g = Grid(shape)
    u, v, w = (FunctionDecl(n, "timefunction", g, space_order=so,
                            time_order=2) for n in "uvw")
    th = FunctionDecl("theta", "function", g, space_order=so)
    x = g.dimensions[0]
    expr = mul(call("cos", th.at), derivative(u, x, so, 1)) + \
        mul(call("sin", th.at), derivative(v, x, so, 1))
    return [Eq(w.forward, expr)]


def coupled_equations(nfields, shape=(8, 8, 8), so=4):
    """``nfields`` leapfrog wave equations, each driven by the previous
    field: the coupled system whose compile cost grows with its size."""
    from stencilc.symbolic import Eq, laplace
    g = Grid(shape)
    m = FunctionDecl("m", "function", g, space_order=so)
    fs = [FunctionDecl("f%d" % k, "timefunction", g, space_order=so,
                       time_order=2) for k in range(nfields)]
    eqs = []
    for k, f in enumerate(fs):
        pde = m.at * dt2(f) - laplace(f)
        if k > 0:
            pde = pde - fs[k - 1].at
        eqs.append(Eq(f.forward, solve_for(pde, f.forward)))
    return eqs


def recurrence_equations(shape=(16,)):
    """``u[x] += u[x - 1]``: an increment whose right-hand side reads the
    function it increments one point back, a running sum along x that a
    loop must run forward and in order."""
    from stencilc.symbolic import add, mul, num
    g = Grid(shape)
    u = FunctionDecl("u", "function", g)
    x, h = g.dimensions[0].symbol, g.spacing_symbols[0]
    return [Eq(u.at, u(add(x, mul(num(-1), h))), is_increment=True)]


def tti_equations(shape=(12, 12, 12), so=4):
    """The pseudo-acoustic TTI operator: two coupled fields ``p`` and ``r``
    with a rotated second derivative ``G(f) = D(D(f))``, where ``D`` sums
    first derivatives of order ``so // 2`` along x, y and z weighted by the
    tilted axis ``(cos(phi) sin(theta), sin(phi) sin(theta), cos(theta))``.
    Both fields apply the same rotated stencils, so their derivatives share
    offset patterns."""
    from stencilc.symbolic import add, call, mul
    from stencilc.symbolic.fd import derivative_of
    g = Grid(shape)
    p, r = (FunctionDecl(n, "timefunction", g, space_order=so, time_order=2)
            for n in "pr")
    m, eps, theta, phi = (FunctionDecl(n, "function", g, space_order=so)
                          for n in ("m", "eps", "theta", "phi"))
    sin_theta = call("sin", theta.at)
    axis = (mul(call("cos", phi.at), sin_theta),
            mul(call("sin", phi.at), sin_theta), call("cos", theta.at))

    def rotated(e):
        return add(*[mul(c, derivative_of(e, d, so // 2, 1, g.spacing_of(d)))
                     for c, d in zip(axis, g.dimensions)])

    def G(f):
        return rotated(rotated(f.at))

    h = laplace(p) - G(p)
    eqs = [Eq(p.forward, solve_for(m.at * dt2(p) - (1 + 2 * eps.at) * h
                                   - G(r), p.forward)),
           Eq(r.forward, solve_for(m.at * dt2(r) - h - G(r), r.forward))]
    return eqs


def acoustic_example(shape, so=2, src_coord=None, rec_coord=None,
                     spacing=1.0):
    """Acoustic wave operator: leapfrog stencil, one injecting source and
    one interpolating receiver, on a grid of the given spacing."""
    from stencilc.symbolic import Symbol, interpolate, mul, pow_
    g = Grid(shape, extent=tuple(spacing * (s - 1) for s in shape))
    u = FunctionDecl("u", "timefunction", g, space_order=so, time_order=2)
    m = FunctionDecl("m", "function", g, space_order=so)
    if src_coord is None:
        src_coord = tuple(e / 2.0 for e in g.extent)
    if rec_coord is None:
        rec_coord = tuple(e / 4.0 for e in g.extent)
    src = FunctionDecl("src", "sparsetimefunction", g, npoint=1,
                       coordinates=[src_coord])
    rec = FunctionDecl("rec", "sparsetimefunction", g, npoint=1,
                       coordinates=[rec_coord])
    stencil = Eq(u.forward, solve_for(m.at * dt2(u) - laplace(u), u.forward))
    dt = Symbol("dt")
    source = inject(src, u.forward, mul(src.at, dt, dt, pow_(m.at, -1)))
    receiver = interpolate(rec, u.at)
    eqs = [stencil] + source + receiver
    funcs = {"grid": g, "u": u, "m": m, "src": src, "rec": rec}
    return funcs, eqs


def run_clusters(clusters, nt, data, grid, env_extra=None, npoint=0):
    """Reference executor over dict-backed arrays: clusters without a time
    dimension run once up front, the rest share one outer time loop in
    cluster order. ``data`` maps function name -> {index tuple: value} and
    is mutated in place."""
    import itertools

    from stencilc.symbolic.expr import evaluate

    env = dict(grid.symbol_values())
    env.update(env_extra or {})

    def exec_cluster(c, tval):
        for g in c.guards:
            if tval is None or tval % g.factor != 0:
                return
        dims = [iv.dim for iv, _ in c.ispace.entries if not iv.dim.is_time]
        ranges = []
        for d in dims:
            iv = c.ispace.interval_of(d)
            if d.kind == "space":
                n = grid.shape[grid.dimensions.index(d)]
                ranges.append(range(iv.lower, n - 1 + iv.upper + 1))
            elif d.kind == "sparse":
                ranges.append(range(npoint))
            else:
                raise AssertionError("unexpected dim %r" % d)
        for point in itertools.product(*ranges):
            penv = dict(env)
            if tval is not None:
                penv[grid.time_dim.name] = tval
            for d, v in zip(dims, point):
                penv[d.name] = v
            scalars = {}

            def on_access(acc):
                f = acc.func
                if f.kind == "temp" and not acc.indices:
                    return scalars[f.name]
                idx = [int(round(evaluate(i, penv, on_access=on_access)))
                       for i in acc.indices]
                if f.is_modulo_time:
                    idx[0] %= f.time_dim.modulo
                return data.setdefault(f.name, {}).get(tuple(idx), 0.0)

            for eq in c.eqs:
                val = evaluate(eq.rhs, penv, on_access=on_access)
                f = eq.lhs.func
                if f.kind == "temp" and not eq.lhs.indices:
                    scalars[f.name] = val
                    continue
                idx = [int(round(evaluate(i, penv, on_access=on_access)))
                       for i in eq.lhs.indices]
                if f.is_modulo_time:
                    idx[0] %= f.time_dim.modulo
                bucket = data.setdefault(f.name, {})
                key = tuple(idx)
                if eq.is_increment:
                    bucket[key] = bucket.get(key, 0.0) + val
                else:
                    bucket[key] = val

    static = [c for c in clusters
              if not any(iv.dim.is_time for iv, _ in c.ispace.entries)]
    timed = [c for c in clusters if c not in static]
    for c in static:
        exec_cluster(c, None)
    steps = range(nt)
    from stencilc.lowering import BACKWARD
    if any(c.ispace.direction_of(iv.dim) == BACKWARD
           for c in timed for iv, _ in c.ispace.entries if iv.dim.is_time):
        steps = reversed(steps)
    for tval in steps:
        for c in timed:
            exec_cluster(c, tval)
    return data


# -- Reference constructors ---------------------------------------------------
#
# ``add``, ``mul`` and ``_as_coeff_term`` as they were before the
# constructors kept their normal-form inputs: every call splits each term
# afresh, and every factor is rebuilt through ``pow_``. The property in
# test_expr.py checks that the constructors build the same trees.


def reference_coeff_term(e):
    """Split ``e`` into (numeric coefficient, residual term)."""
    from fractions import Fraction

    from stencilc.symbolic.expr import ONE, Constant, Mul
    if isinstance(e, Constant):
        return e.value, ONE
    if isinstance(e, Mul):
        consts = [c.value for c in e.children if isinstance(c, Constant)]
        rest = [c for c in e.children if not isinstance(c, Constant)]
        if consts:
            coeff = consts[0]
            for c in consts[1:]:
                coeff = coeff * c
            if not rest:
                return coeff, ONE
            if len(rest) == 1:
                return coeff, rest[0]
            return coeff, Mul(tuple(rest))
    return Fraction(1), e


def reference_add(*args):
    """Flattened, like-term-collecting sum with deterministic ordering."""
    from fractions import Fraction

    from stencilc.symbolic.expr import (ZERO, Add, Constant, _coerce,
                                        _sort_key)
    const = Fraction(0)
    terms: dict = {}
    order: list = []
    once: dict = {}
    stack = list(reversed(args))
    while stack:
        e = _coerce(stack.pop())
        if isinstance(e, Add):
            stack.extend(reversed(e.children))
        elif isinstance(e, Constant):
            const += e.value
        else:
            coeff, term = reference_coeff_term(e)
            if term in terms:
                terms[term] = terms[term] + coeff
                once.pop(term, None)
            else:
                terms[term] = coeff
                once[term] = e
                order.append(term)

    children = []
    for term in order:
        coeff = terms[term]
        if coeff == 0 and not isinstance(coeff, float):
            continue
        if coeff == 1:
            children.append(term)
        elif term in once:
            children.append(once[term])
        else:
            children.append(reference_mul(Constant(coeff), term))
    if const != 0 or isinstance(const, float) and const != 0.0:
        children.append(Constant(const))
    children.sort(key=_sort_key)
    if not children:
        return ZERO
    if len(children) == 1:
        return children[0]
    return Add(tuple(children))


def reference_mul(*args):
    """Flattened product; repeated factors merge into powers."""
    from fractions import Fraction

    from stencilc.symbolic.expr import (ONE, ZERO, Constant, Mul, Pow,
                                        _coerce, _sort_key, pow_)
    const = Fraction(1)
    powers: dict = {}
    order: list = []
    stack = list(reversed(args))
    while stack:
        e = _coerce(stack.pop())
        if isinstance(e, Mul):
            stack.extend(reversed(e.children))
            continue
        if isinstance(e, Constant):
            const *= e.value
            continue
        base, exp = (e.base, e.exponent) if isinstance(e, Pow) else (e, 1)
        if base in powers:
            powers[base] += exp
        else:
            powers[base] = exp
            order.append(base)

    if const == 0 and not isinstance(const, float):
        return ZERO
    children = []
    for base in order:
        exp = powers[base]
        if exp == 0:
            continue
        children.append(pow_(base, exp))
    children.sort(key=_sort_key)
    if const == 0 and isinstance(const, float):
        return Constant(0.0)
    if const != 1:
        children.insert(0, Constant(const))
    if not children:
        return ONE
    if len(children) == 1:
        return children[0]
    return Mul(tuple(children))
