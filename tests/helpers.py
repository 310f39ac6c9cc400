"""Shared builders for the pipeline tests: the wave-propagation example (a
second-order stencil update, a sub-sampled snapshot copy, and a pair of
sparse source-injection increments) and the other example operators; the
reference executor and constructors; and the executor matrix, a registry
of named configurations (``CONFIGS``) with the harness that runs each on
every executor (``check_executors``)."""

import functools

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


def rotated_equations(so, shape=(13, 13), extent=None):
    """The rotated stencil of ``rotated_laplacian_example``, unlowered, on
    a grid of the given ``extent`` (unit spacing by default)."""
    from stencilc.symbolic import Symbol, call, mul
    from stencilc.symbolic.fd import derivative, derivative_of
    g = Grid(shape, extent=extent)
    u = FunctionDecl("u", "timefunction", g, space_order=so, time_order=2)
    th = FunctionDecl("theta", "function", g, space_order=so)
    w = FunctionDecl("w", "timefunction", g, space_order=so, time_order=2)
    x, y = g.dimensions
    inner = mul(call("cos", th.at), derivative(u, y, so, 1))
    expr = derivative_of(inner, x, so, 1, Symbol("h_x"))
    funcs = {"grid": g, "u": u, "theta": th, "w": w}
    return funcs, [Eq(w.forward, expr)]


def adjoint_equations(shape=(8, 8), so=4):
    """The adjoint acoustic stencil ``v.backward = solve(m*v.dt2 -
    v.laplace, v.backward)``: it writes ``v[t - 1]``, so its time loop
    runs backward, as seismic imaging's adjoint does."""
    g = Grid(shape)
    v = FunctionDecl("v", "timefunction", g, space_order=so, time_order=2)
    m = FunctionDecl("m", "function", g, space_order=so)
    return [Eq(v.backward, solve_for(m.at * dt2(v) - laplace(v),
                                     v.backward))]


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
    """Reference executor over dict-backed arrays, in cluster order: each
    run of consecutive clusters with a time dimension shares one outer
    time loop, and a cluster without one runs once where it stands.
    ``data`` maps function name -> {index tuple: value} and is mutated in
    place."""
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

    from stencilc.lowering import BACKWARD

    def timed(c):
        return any(iv.dim.is_time for iv, _ in c.ispace.entries)

    for is_timed, run in itertools.groupby(clusters, timed):
        run = list(run)
        steps = range(nt) if is_timed else [None]
        if any(c.ispace.direction_of(iv.dim) == BACKWARD
               for c in run for iv, _ in c.ispace.entries if iv.dim.is_time):
            steps = reversed(steps)
        for tval in steps:
            for c in run:
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


# -- Small operators ----------------------------------------------------------


def legality_equations(name):
    """Small operators whose loops only the dependence rule makes legal:
    - ``clash``: ``a = c; b = a[x+1] + a[x-1]``, whose x directions clash,
      so ``b`` must not share the loop that writes ``a``
    - ``anti``: ``b = a[x+1]; a = c``, a carried anti-dependence
    - ``backward``: ``a[x] = a[x+1] + 1``, a recurrence run backward
    - ``grad``: ``grad[x, y] += u*v``, a reduction over time
    - ``acc``: ``acc = acc + u``, a running sum over time
    - ``flow-past-atomic``: ``b = a[x+1]; a = c`` on the interior, then
      ``d = a[x-1]``, a carried flow from a cluster whose x is atomic
    - ``pinned``: ``a = c; b = a`` on the interior, then ``d = b``, a
      loop-independent flow from a cluster of another space"""
    from stencilc.symbolic import add, mul, num
    g = Grid((8, 8) if name == "grad" else (11,))

    def f(n, kind="function"):
        return FunctionDecl(n, kind, g, space_order=2, time_order=2)

    def shifted(fn, k):
        x, h = g.dimensions[0].symbol, g.spacing_symbols[0]
        return fn(add(x, mul(num(k), h)))

    a, b, c = f("a"), f("b"), f("c")
    if name == "clash":
        return [Eq(a.at, c.at), Eq(b.at, shifted(a, 1) + shifted(a, -1))]
    if name == "anti":
        return [Eq(b.at, shifted(a, 1)), Eq(a.at, c.at)]
    if name == "backward":
        return [Eq(a.at, shifted(a, 1) + num(1))]
    if name == "flow-past-atomic":
        return [Eq(b.at, shifted(a, 1)), Eq(a.at, c.at, region="interior"),
                Eq(f("d").at, shifted(a, -1))]
    if name == "pinned":
        return [Eq(a.at, c.at), Eq(b.at, a.at, region="interior"),
                Eq(f("d").at, b.at)]
    u, v = f("u", "timefunction"), f("v", "timefunction")
    if name == "grad":
        grad = f("grad")
        return [Eq(grad.at, u.at * v.at, is_increment=True)]
    assert name == "acc"
    acc = f("acc")
    return [Eq(acc.at, acc.at + u.at)]


def invariant_equations(name):
    """Time-less operators on an 8x8 grid whose candidate is time
    invariant:
    - ``inline``: ``h = sin(f)*cos(f)*f + f``, whose candidate depends on
      every loop, so hoisting it would take it out of none
    - ``row``: ``h = sin(c[x, 0])*f``, whose candidate depends on x only"""
    from stencilc.symbolic import add, call, mul
    g = Grid((8, 8))
    f, h, c = (FunctionDecl(n, "function", g, space_order=2) for n in "fhc")
    if name == "inline":
        sin, cos = call("sin", f.at), call("cos", f.at)
        return [Eq(h.at, add(mul(sin, cos, f.at), f.at))]
    return [Eq(h.at, mul(call("sin", c(g.dimensions[0].symbol, 0)), f.at))]


def order_equations(name):
    """Operators on Grid (11,) that test program order across equations
    (ROADMAP item 12):
    - ``flipped-anti``: ``g[x] = k[x-1]; k[x] = f[x]``, where ``g`` reads
      the old ``k``, so the two must not share one x loop
    - ``flipped-output``: ``k[x] = g[x]; k[x+1] = f[x]``, likewise
    - ``untimed-after-timed``: ``u.forward = u + f; k = u; hh = k``, whose
      untimed equations run after the time loop
    - ``move-past``: ``g = h; u.forward = u + h; f[x-1] = u; f = h``,
      whose last equation must not join the first before the time loop
    - ``split-time``: ``u.forward = u + f[x-2]; f[x+1] = u[t, x+2]`` at
      space order 4, which the compiler runs as two time loops"""
    from stencilc.symbolic import add, mul, num
    grid = Grid((11,))
    so = 4 if name == "split-time" else 2
    f, k, g, hh = (FunctionDecl(n, "function", grid, space_order=so)
                   for n in ("f", "k", "g", "hh"))
    u = FunctionDecl("u", "timefunction", grid, space_order=so, time_order=1)

    def shifted(fn, s, *lead):
        x, h = grid.dimensions[0].symbol, grid.spacing_symbols[0]
        return fn(*lead, add(x, mul(num(s), h)))

    if name == "flipped-anti":
        return [Eq(g.at, shifted(k, -1)), Eq(k.at, f.at)]
    if name == "flipped-output":
        return [Eq(k.at, g.at), Eq(shifted(k, 1), f.at)]
    if name == "untimed-after-timed":
        return [Eq(u.forward, u.at + f.at), Eq(k.at, u.at), Eq(hh.at, k.at)]
    if name == "move-past":
        return [Eq(g.at, hh.at), Eq(u.forward, u.at + hh.at),
                Eq(shifted(f, -1), u.at), Eq(f.at, hh.at)]
    assert name == "split-time"
    return [Eq(u.forward, u.at + shifted(f, -2)),
            Eq(shifted(f, 1), shifted(u, 2, u.at.indices[0]))]


def per_point_equations(name):
    """Operators on an 8x8 grid whose nest the interpreter cannot slice
    whole, so that it runs per point (``transposed-lhs`` one slice of its
    inner loop at a time):
    - ``transposed``: ``h[x, y] = f[y, x] + f[x, y]``, whose read of ``f``
      does not follow the loops in order
    - ``dimension``: ``h = x*f``, which uses the loop index as a value
    - ``idiv``: ``h = f*idiv(4*f, c)``, an integer division of arrays
    - ``row-sum``: ``c[x, 0] += f[x, y]``, whose left-hand side does not
      vary along the y loop
    - ``transposed-lhs``: ``h[y, x] = f[x, y]``, whose left-hand side
      does not follow the loops in order"""
    from stencilc.symbolic import add, call, mul, num
    g = Grid((8, 8))
    f, c, h = (FunctionDecl(n, "function", g, space_order=2) for n in "fch")
    x, y = (d.symbol for d in g.dimensions)
    if name == "transposed":
        return [Eq(h.at, add(f(y, x), f.at))]
    if name == "dimension":
        return [Eq(h.at, mul(x, f.at))]
    if name == "row-sum":
        return [Eq(c(x, 0), f.at, is_increment=True)]
    if name == "transposed-lhs":
        return [Eq(h(y, x), f.at)]
    assert name == "idiv"
    return [Eq(h.at, mul(f.at, call("idiv", mul(num(4), f.at), c.at)))]


def power_equations(name):
    """Operators on an 8x8 grid with an integer power beyond 4, which the
    interpreter and the C both multiply out:
    - ``pos``: ``u.forward = u + 0.01*u**6``
    - ``neg``: ``u.forward = u + f**-5``"""
    g = Grid((8, 8))
    u = FunctionDecl("u", "timefunction", g, space_order=2, time_order=1)
    f = FunctionDecl("f", "function", g, space_order=2)
    if name == "pos":
        return [Eq(u.forward, u.at + 0.01 * u.at ** 6)]
    assert name == "neg"
    return [Eq(u.forward, u.at + f.at ** -5)]


def broadcast_equations():
    """``h = f*c[x, 0]`` on an 8x8 grid, whose sliced read of ``c`` is
    constant along the y loop."""
    g = Grid((8, 8))
    f, c, h = (FunctionDecl(n, "function", g, space_order=2) for n in "fch")
    return [Eq(h.at, f.at * c(g.dimensions[0].symbol, 0))]


def slot_equations(name):
    """Operators on an 8x8 grid whose sliced statements reuse the
    interpreter's workspace slots at several depths:
    - ``nested``: a sum of products of sums of products, so that every
      fold's first operand is itself a fold, five deep (in ``basic``
      mode; ``advanced`` factorizes it)
    - ``power``: ``u.forward = u + 0.001*(u + f)**3 + (u*f + 1)**-2``
    - ``call``: ``u.forward = u + g + 0.1*sin(u + f)*cos(u*f)``, whose
      sum folds two views before its product
    - ``temps``: ``u.forward = u*(f + g) + f*g*h + a*dt**-2*(g + h)``
      and ``v.forward = v*(f + g) - f*g*h``, whose common ``f + g`` is an
      array scalar temporary that both later statements read first in a
      product, and whose ``a*dt**-2`` writes its slot before the sum is
      evaluated
    - ``widen``: ``u.forward = u*sin(dt)*f + f*f``, whose ``sin(dt)`` is
      a float64 scalar, so that float32 code computes it in float64"""
    from stencilc.symbolic import Symbol, call
    g = Grid((8, 8))
    u, v = (FunctionDecl(n, "timefunction", g, space_order=2, time_order=1)
            for n in "uv")
    f, c, h, a = (FunctionDecl(n, "function", g, space_order=2)
                  for n in ("f", "g", "h", "a"))
    u_, f_, g_, h_, a_ = u.at, f.at, c.at, h.at, a.at
    if name == "nested":
        return [Eq(u.forward, u_ + 0.01 * (
            (u_ * f_ + g_ * h_) * (u_ * g_ + f_ * h_)
            + (u_ * h_ + f_ * g_) * (u_ * a_ + f_ * a_ * h_)))]
    if name == "power":
        return [Eq(u.forward,
                   u_ + 0.001 * (u_ + f_) ** 3 + (u_ * f_ + 1) ** -2)]
    if name == "call":
        return [Eq(u.forward, u_ + g_ + 0.1 * call("sin", u_ + f_)
                   * call("cos", u_ * f_))]
    if name == "temps":
        return [Eq(u.forward, u_ * (f_ + g_) + f_ * g_ * h_
                   + a_ * Symbol("dt") ** -2 * (g_ + h_)),
                Eq(v.forward, v.at * (f_ + g_) - f_ * g_ * h_)]
    assert name == "widen"
    return [Eq(u.forward, u_ * call("sin", Symbol("dt")) * f_ + f_ * f_)]


# -- Executor matrix ----------------------------------------------------------
#
# Every configuration below runs on every executor through
# ``check_executors``: the interpreter at one and at two workers, the
# oracle and the gcc-built C.

DT = 0.02

#: gcc flags of the C runner; without -ffp-contract=off gcc may fuse a
#: multiply and an add that numpy rounds apart
C_FLAGS = ("-O2", "-ffp-contract=off", "-shared", "-fPIC")

#: per SHA-256 of flags and source: the future of its gcc run, and the
#: library that run builds
_BUILDS: dict = {}
#: the build directory and the one thread that runs gcc, made at first use
_GCC: list = []


class OracleMismatch(AssertionError):
    """The interpreter is not within tolerance of the oracle."""


class CMismatch(AssertionError):
    """The gcc-built C is not bit-equal to the interpreter."""


def random_fixture(op, steps):
    """Every buffer but the coordinate tables drawn from [1, 2)."""
    import numpy as np
    bufs = op.allocate(steps)
    rng = np.random.default_rng(11)
    for name, buf in sorted(bufs.items()):
        if not name.endswith("_coords"):
            buf.data[:] = rng.uniform(1.0, 2.0, buf.extents)
    return bufs


def rotated_fixture(op, steps):
    """``theta`` drawn from [0, 2 pi) and ``u`` from [-1, 1)."""
    import numpy as np
    bufs = op.allocate(steps)
    rng = np.random.default_rng(5)
    bufs["theta"].data[:] = rng.uniform(0.0, 2 * np.pi,
                                        bufs["theta"].extents)
    bufs["u"].data[:] = rng.uniform(-1.0, 1.0, bufs["u"].extents)
    return bufs


def rel_err(a, b):
    """Largest absolute difference, relative to ``b``'s largest magnitude
    or 1, whichever is larger."""
    import numpy as np
    a, b = a.astype(np.float64), b.astype(np.float64)
    scale = max(1.0, float(np.max(np.abs(b))))
    return float(np.max(np.abs(a - b))) / scale


def build_c(source):
    """Start gcc on ``source`` with ``C_FLAGS``, unless this session
    already has. gcc runs on a thread of its own, one build at a time;
    returns the future of its run and the path of the library."""
    import hashlib
    import subprocess
    import tempfile
    from concurrent.futures import ThreadPoolExecutor
    from pathlib import Path
    key = hashlib.sha256(("\n".join(C_FLAGS) + "\n" + source).encode()
                         ).hexdigest()
    if key not in _BUILDS:
        if not _GCC:
            _GCC[:] = (tempfile.TemporaryDirectory(prefix="stencilc-c-"),
                       ThreadPoolExecutor(1))
        c_file = Path(_GCC[0].name) / (key + ".c")
        c_file.write_text(source)
        lib = str(c_file.with_suffix(".so"))
        _BUILDS[key] = (_GCC[1].submit(
            subprocess.run, ["gcc", *C_FLAGS, "-o", lib, str(c_file), "-lm"],
            check=True), lib)
    return _BUILDS[key]


def close_builds():
    """Drop the queued gcc builds, wait for the running one, and remove
    the build directory."""
    if _GCC:
        directory, pool = _GCC
        pool.shutdown(cancel_futures=True)
        directory.cleanup()
        _GCC.clear()
        _BUILDS.clear()


@functools.lru_cache(maxsize=None)
def _load(lib):
    import ctypes
    return ctypes.CDLL(lib).kernel


def run_c(op, buffers, env):
    """Build ``op.source`` with gcc, then call its kernel in place over
    ``buffers`` with the scalars of ``env``."""
    import ctypes
    import re

    import numpy as np

    class DataObj(ctypes.Structure):
        _fields_ = [("data", ctypes.c_void_p), ("size", ctypes.c_int * 8)]

    dtype, real, ctype = ((np.float32, ctypes.c_float, "float")
                          if op.dtype == "f32" else
                          (np.float64, ctypes.c_double, "double"))
    done, lib = build_c(op.source)
    done.result()
    kernel = _load(lib)
    head = re.search(r"^int kernel\((.*)\)$", op.source, re.M).group(1)
    argtypes, args = [], []
    for decl in head.split(", "):
        name = decl.split()[-1]
        if decl.startswith("struct dataobj"):
            data = buffers[name[:-len("_vec")]].data
            assert data.dtype == dtype and data.flags.c_contiguous
            argtypes.append(ctypes.POINTER(DataObj))
            args.append(DataObj(data.ctypes.data,
                                (ctypes.c_int * 8)(*data.shape)))
        elif decl.startswith("const int "):
            argtypes.append(ctypes.c_int)
            args.append(int(env[name]))
        else:
            assert decl.startswith("const %s " % ctype), decl
            argtypes.append(real)
            args.append(float(env[name]))
    kernel.argtypes, kernel.restype = argtypes, ctypes.c_int
    assert kernel(*args) == 0


def check_executors(op, steps, fill=random_fixture):
    """Run ``op`` for ``steps`` steps from ``fill(op, steps)`` on every
    executor, in this order, and assert:
    - two workers, over slabs of one outer index or block each, give the
      bits of one worker over the default slabs
    - the interpreter is within 1e-12 of the oracle in f64 and 1e-5 in
      f32 (``OracleMismatch``)
    - the gcc-built C gives the interpreter's bits (``CMismatch``); skips
      when gcc is missing"""
    import shutil

    import pytest

    from stencilc.backend import interpreter

    def run(executor, **kwargs):
        bufs = fill(op, steps)
        executor(steps=steps, buffers=bufs, dt=DT, **kwargs)
        return bufs

    gcc = shutil.which("gcc") is not None
    if gcc:
        build_c(op.source)  # gcc runs while the interpreter does
    one = run(op.apply)
    slab_points = interpreter.SLAB_POINTS
    interpreter.SLAB_POINTS = 1
    try:
        two = run(op.apply, workers=2)
    finally:
        interpreter.SLAB_POINTS = slab_points
    for name, buf in one.items():
        assert buf.data.tobytes() == two[name].data.tobytes(), name
    assert all(buf.data.any() for buf in one.values())
    oracle = run(op.reference)
    tol = 1e-5 if op.dtype == "f32" else 1e-12
    for name, buf in oracle.items():
        err = rel_err(one[name].data, buf.data)
        if err > tol:
            raise OracleMismatch("%s: %.3g from the oracle" % (name, err))
    if not gcc:
        pytest.skip("needs gcc")
    built = fill(op, steps)
    env = op.default_params(steps)
    env["dt"] = DT
    run_c(op, built, env)
    for name, buf in built.items():
        if buf.data.tobytes() != one[name].data.tobytes():
            raise CMismatch(name)


class Config:
    """A named executor-matrix configuration: ``build()`` compiles the
    operator, which runs ``steps`` steps from ``fill(op, steps)``. An
    ``xfail`` of ``(exception, reason)`` marks a known wrong result: the
    harness raises ``exception`` at the executor that disagrees."""

    def __init__(self, build, steps=4, fill=random_fixture, xfail=None):
        self.build, self.steps, self.fill = build, steps, fill
        self.xfail = xfail
        self._built = None

    def prebuild(self):
        """Compile the operator ahead of ``operator()``, and start gcc on
        its C."""
        self._built = self.build()
        build_c(self._built.source)

    def operator(self):
        """The operator ``prebuild`` compiled, handed over once, or else a
        new compile."""
        op, self._built = self._built, None
        return self.build() if op is None else op


#: the operators of the golden configurations (``LOOP_PROPERTIES_SHA256``
#: and ``SOURCE_SHA256`` in test_iet.py): each runs in every mode,
#: unblocked and in blocks of 4 along every grid dimension (the
#: recurrence's sequential x cannot be blocked)
GOLDEN_OPERATORS = {
    "acoustic": lambda: acoustic_example((8, 8), so=4)[1],
    "coupled": lambda: coupled_equations(3),
    "recurrence": recurrence_equations,
    "rotated": lambda: rotated_equations(4)[1],
    "tti": lambda: tti_equations((8, 8, 8), so=4),
    "two-field": lambda: two_field_equations(4),
    "wave": lambda: wave_example()[1],
}

def _golden(name, mode, blocked):
    from stencilc.backend import Operator
    eqs = GOLDEN_OPERATORS[name]()
    block = {d.name: 4 for d in eqs[0].lhs.func.grid.dimensions} \
        if blocked else None
    return Operator(eqs, mode=mode, block=block)


def _operator(eqs, mode, block, dtype):
    from stencilc.backend import Operator
    return Operator(eqs(), mode=mode, block=block, dtype=dtype)


def _configs():
    from functools import partial as bind

    from stencilc.dse import MODES
    configs = {}

    def put(name, eqs, mode="advanced", block=None, dtype="f64", **kwargs):
        configs[name] = Config(bind(_operator, eqs, mode, block, dtype),
                               **kwargs)

    for name in GOLDEN_OPERATORS:
        for mode in MODES:
            configs["%s-%s" % (name, mode)] = Config(
                bind(_golden, name, mode, False))
            if name != "recurrence":
                configs["%s-%s-blocked" % (name, mode)] = Config(
                    bind(_golden, name, mode, True))
    for so in (4, 8, 12):
        for mode in MODES:
            put("tti12-so%d-%s" % (so, mode),
                bind(tti_equations, (12, 12, 12), so), mode, steps=3)
    put("tti12-so8-aggressive-blocked", bind(tti_equations, (12, 12, 12), 8),
        "aggressive", {"x": 8, "y": 8, "z": 8}, steps=3)
    for mode in MODES:
        put("acoustic1d-" + mode, lambda: acoustic_example((65,))[1], mode)
        put("acoustic1d-%s-blocked" % mode,
            lambda: acoustic_example((65,))[1], mode, {"x": 8})
    put("acoustic3d-so8", lambda: acoustic_example((24, 24, 24), so=8)[1])
    put("acoustic-h0.7",
        lambda: acoustic_example((24, 24), so=4, spacing=0.7)[1])
    put("acoustic-h0.7-blocked",
        lambda: acoustic_example((24, 24), so=4, spacing=0.7)[1],
        block={"x": 8, "y": 8})
    put("acoustic-f32", lambda: acoustic_example((24, 24), so=4)[1],
        dtype="f32")
    put("coupled3-f32", bind(coupled_equations, 3), dtype="f32")
    put("coupled3-f32-aggressive-blocked", bind(coupled_equations, 3),
        "aggressive", {"x": 4, "y": 4, "z": 4}, dtype="f32")
    sin_cos = (CMismatch, "ROADMAP item 1: the C calls sin and cos in "
                          "double in float code")
    put("rotated-f32", lambda: rotated_equations(4)[1], dtype="f32",
        fill=rotated_fixture, xfail=sin_cos)
    put("tti12-so4-f32", bind(tti_equations, (12, 12, 12), 4), dtype="f32",
        steps=3, xfail=sin_cos)
    put("rotated-ragged", lambda: rotated_equations(4, (27, 29))[1],
        "aggressive", {"x": 8, "y": 8}, fill=rotated_fixture)
    put("rotated-x-blocks", lambda: rotated_equations(4, (24, 24))[1],
        "aggressive", {"x": 8}, fill=rotated_fixture)
    for name in ("clash", "anti", "backward", "grad", "acc",
                 "flow-past-atomic", "pinned"):
        put("legality-" + name, bind(legality_equations, name))
    put("legality-clash-blocked", bind(legality_equations, "clash"),
        block={"x": 4})
    for name in ("inline", "row"):
        for mode in ("advanced", "aggressive"):
            put("invariant-%s-%s" % (name, mode),
                bind(invariant_equations, name), mode)
    for name in ("transposed", "dimension", "idiv"):
        put("per-point-" + name, bind(per_point_equations, name))
    for name in ("row-sum", "transposed-lhs"):
        put("per-point-" + name, bind(per_point_equations, name))
        put("per-point-%s-blocked" % name, bind(per_point_equations, name),
            block={"x": 4, "y": 4})
    for mode in MODES:
        put("adjoint-" + mode, adjoint_equations, mode)
        put("adjoint-%s-blocked" % mode, adjoint_equations, mode,
            {"x": 4, "y": 4})
    for name in ("pos", "neg"):
        put("power-" + name, bind(power_equations, name), steps=3)
    put("broadcast", broadcast_equations)
    put("broadcast-blocked", broadcast_equations, block={"x": 4, "y": 4})
    put("slots-nested", bind(slot_equations, "nested"), "basic")
    put("slots-nested-f32", bind(slot_equations, "nested"), "basic",
        dtype="f32")
    for name in ("power", "call", "temps"):
        put("slots-" + name, bind(slot_equations, name))
    put("slots-power-f32", bind(slot_equations, "power"), dtype="f32")
    put("slots-widen-f32", bind(slot_equations, "widen"), dtype="f32")
    for name in ("flipped-anti", "flipped-output", "untimed-after-timed",
                 "move-past", "split-time"):
        for mode in MODES:
            put("order-%s-%s" % (name, mode), bind(order_equations, name),
                mode, steps=3, xfail=(OracleMismatch, "ROADMAP item 12: "
                                      "two time loops, t atomic in the "
                                      "second") if name == "split-time"
                else None)
    return configs


#: every executor-matrix configuration by name
CONFIGS = _configs()
