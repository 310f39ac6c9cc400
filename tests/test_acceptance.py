"""Acceptance suite. Each test prints one PASS/FAIL line for its
criterion; a FAIL line is always followed by an assertion failure."""

import random
import time

import numpy as np

from stencilc.backend import Operator, clear_cache, emit_c
from stencilc.backend import operator as op_mod
from stencilc.cli.driver import report_text
from stencilc.cli.parser import parse_spec
from stencilc.clustering import Cluster, clusterize
from stencilc.dependence import get_dependences
from stencilc.dse import MODES, cluster_op_count, detect_aliases, run_dse
from stencilc.iet import (PARALLEL, SEQUENTIAL, analyze_iet, autotune_blocks,
                          build_iet, dump, iterations)
from stencilc.lowering import lower
from stencilc.symbolic import Access, Eq, FunctionDecl, Grid, Symbol, add, mul, num
from stencilc.symbolic.expr import evaluate

from helpers import (acoustic_example, lowered_wave_example,
                     rotated_laplacian_example, wave_example)
from test_iet import LISTING_GOLDEN, _flat_2d, _visit_points

DT = 0.05
STEPS = 50


def _verdict(n, desc, ok, detail=""):
    tail = " (%s)" % detail if detail else ""
    print("criterion %d: %s - %s%s" % (n, "PASS" if ok else "FAIL", desc,
                                       tail))
    assert ok, "criterion %d failed: %s%s" % (n, desc, tail)


def _prepared(op, steps):
    bufs = op.allocate(steps)
    bufs["m"].data[:] = 1.5
    bufs["src"].data[0, 0] = 1.0
    return bufs


def _max_rel_err(a, b):
    scale = max(1.0, float(np.max(np.abs(b))))
    return float(np.max(np.abs(a - b))) / scale


def test_criterion_1_oracle_equivalence_matrix():
    t0 = time.perf_counter()
    shapes = [(256,), (64, 64), (24, 24, 24)]
    worst = 0.0
    runs = 0
    for shape in shapes:
        block = {d: 8 for d in "xyz"[:len(shape)]}
        mid = tuple((s - 1) / 2.0 for s in shape)
        near = (mid[0] - 4.0,) + mid[1:]
        for so in (2, 4, 8):
            funcs, eqs = acoustic_example(shape, so=so, src_coord=mid,
                                          rec_coord=near)
            ref_op = Operator(eqs, mode="basic")
            refs = _prepared(ref_op, STEPS)
            ref_op.reference(steps=STEPS, buffers=refs, dt=DT)
            assert refs["u"].data.any() and refs["rec"].data.any()
            for mode in MODES:
                for shape_arg in (None, block):
                    op = Operator(eqs, mode=mode, block=shape_arg)
                    bufs = _prepared(op, STEPS)
                    op.apply(steps=STEPS, buffers=bufs, dt=DT)
                    for name in ("u", "rec"):
                        worst = max(worst, _max_rel_err(
                            bufs[name].data, refs[name].data))
                    runs += 1
    elapsed = time.perf_counter() - t0
    _verdict(1, "interpreter matches reference oracle across the "
             "{1D,2D,3D} x {so} x {mode} x {blocking} matrix",
             worst <= 1e-12 and runs == 54 and elapsed < 60.0,
             "%d runs, max rel err %.2e, %.1fs" % (runs, worst, elapsed))


def test_criterion_2_golden_pipeline():
    funcs, eqs = lowered_wave_example()
    clusters = clusterize(eqs)
    ispaces = [repr(c.ispace) for c in clusters]
    guards = [tuple(g.predicate_repr() for g in c.guards) for c in clusters]
    structure_ok = (
        len(clusters) == 3 and
        ispaces == ["[t[0,0]+, x[0,0]*]", "[t[0,0]+, x[0,0]*]",
                    "[t[0,0]+, p_q[0,0]*]"] and
        guards == [(), ("t % 4 == 0",), ()])
    iet = build_iet(clusters)
    _verdict(2, "running example yields 3 clusters and the golden tree",
             structure_ok and dump(iet) == LISTING_GOLDEN)


def test_criterion_3_local_analysis_and_bound_capping():
    funcs, eqs = wave_example(shape=(21,), factor=4, save=5,
                              coordinates=((10.0,),))
    stencil = lower(eqs[0])
    u = funcs["u"]
    dspace = {iv.dim.name: (iv.lower, iv.upper)
              for f, ivs in stencil.dspace.parts if f is u for iv in ivs}
    analysis_ok = (repr(stencil.ispace) == "[t[0,0]+, x[0,0]*]" and
                   dspace == {"t": (0, 1), "x": (0, 0)})
    op = Operator(eqs)
    capped = op.default_params(100)["t_M"] == 4 * 5 - 1
    bufs = op.allocate(100)
    bufs["m"].data[:] = 1.0
    bufs["q"].data[0, 0] = 1.0
    op.apply(steps=100, buffers=bufs, dt=DT)  # bounds checker stays silent
    _verdict(3, "stencil ISpace/DSpace exact; default time bound capped "
             "in-allocation", analysis_ok and capped)


def _translated_family(rng):
    g = Grid((9, 9))
    u = FunctionDecl("u", "function", g, space_order=2)
    v = FunctionDecl("v", "function", g, space_order=2)
    x, y = Symbol("x"), Symbol("y")

    def build(c1, c2, offs, dx, dy):
        terms = []
        for coeff, (ox, oy), f in zip((c1, c2), offs, (u, v)):
            terms.append(mul(num(coeff),
                             Access(f, (add(x, num(ox + dx)),
                                        add(y, num(oy + dy))))))
        return add(*terms)

    c1, c2 = rng.randint(2, 9), rng.randint(2, 9)
    offs = [(rng.randint(0, 2), rng.randint(0, 2)) for _ in range(2)]
    members = [build(c1, c2, offs, rng.randint(0, 3), rng.randint(0, 3))
               for _ in range(3)]
    outsider = build(c1 + 11, c2, offs, 0, 0)
    return members, outsider


def test_criterion_4_alias_classification():
    # Four-example classification: a,b,c mutually translated; d shifts one
    # operand differently; e permutes the coefficients.
    g = Grid((9, 9))
    u = FunctionDecl("u", "function", g, space_order=2)
    v = FunctionDecl("v", "function", g, space_order=2)
    x, y = Symbol("x"), Symbol("y")

    def at(f, dx, dy):
        return Access(f, (add(x, num(dx)), add(y, num(dy))))

    a = add(mul(num(3), at(u, 1, 0)), mul(num(4), at(v, 1, 0)))
    b = add(mul(num(3), at(u, 3, 0)), mul(num(4), at(v, 3, 0)))
    c = add(mul(num(3), at(u, 2, 2)), mul(num(4), at(v, 2, 2)))
    d = add(mul(num(3), at(u, 0, 0)), mul(num(4), at(v, 0, 1)))
    e = add(mul(num(4), at(u, 1, 0)), mul(num(3), at(v, 1, 0)))
    partition = sorted(tuple(sorted(map(repr, grp.members)))
                       for grp in detect_aliases([a, b, c, d, e]))
    examples_ok = partition == sorted([
        tuple(sorted(map(repr, (a, b, c)))), (repr(d),), (repr(e),)])

    def related(p, q):
        return len(detect_aliases([p, q])) == 1

    rng = random.Random(42)
    relation_ok = True
    for _ in range(1000):
        members, outsider = _translated_family(rng)
        m0, m1, m2 = members
        if not (related(m0, m0) and related(m0, m1) and related(m1, m0)):
            relation_ok = False
            break
        # transitivity: m0~m1 and m1~m2 force m0~m2
        if related(m0, m1) and related(m1, m2) and not related(m0, m2):
            relation_ok = False
            break
        if related(m0, outsider):
            relation_ok = False
            break
    _verdict(4, "alias examples classify exactly; translation relation is "
             "an equivalence over 1000 random families",
             examples_ok and relation_ok)


def test_criterion_5_op_count_trend():
    counts = {}
    for so in (4, 8, 12, 16):
        funcs, eqs = rotated_laplacian_example(so)
        for mode in MODES:
            clusters = run_dse(clusterize(list(eqs)), mode)
            counts[(so, mode)] = cluster_op_count(clusters)
    monotone = all(counts[(so, "aggressive")] <= counts[(so, "advanced")]
                   <= counts[(so, "basic")] for so in (4, 8, 12, 16))
    trend = (counts[(16, "basic")] / counts[(4, "basic")] >
             counts[(16, "aggressive")] / counts[(4, "aggressive")])
    _verdict(5, "rotated-Laplacian op counts ordered per mode with "
             "flattening aggressive growth", monotone and trend,
             "so=16 basic=%d aggressive=%d"
             % (counts[(16, "basic")], counts[(16, "aggressive")]))


def _random_flat_program(rng):
    g = Grid((10,))
    decls = [FunctionDecl(n, "function", g, space_order=4)
             for n in ("f", "g", "h")[:rng.randint(2, 3)]]
    x = Symbol("x")
    eqs = []
    for _ in range(rng.randint(2, 4)):
        lhs = Access(rng.choice(decls), (add(x, num(rng.randint(-2, 2))),))
        terms = [Access(rng.choice(decls),
                        (add(x, num(rng.randint(-2, 2))),))
                 for _ in range(rng.randint(1, 3))]
        eqs.append(Eq(lhs, add(*terms) if len(terms) > 1 else terms[0]))
    return [lower(e) for e in eqs]


def _enumerated_conflicts(lowered, npoints=10):
    """Ground truth from explicit instance enumeration: every ordered pair
    of instances touching one cell with at least one write."""
    instances = []
    for i, eq in enumerate(lowered):
        for xv in range(npoints):
            w = (eq.lhs.func.name,
                 int(evaluate(eq.lhs.indices[0], {"x": xv})))
            reads = []
            from stencilc.lowering import collect_accesses
            for acc in collect_accesses(eq.rhs):
                reads.append((acc.func.name,
                              int(evaluate(acc.indices[0], {"x": xv}))))
            instances.append((i, w, reads))
    truth = set()
    for a in range(len(instances)):
        ia, wa, ra = instances[a]
        for b in range(a + 1, len(instances)):
            ib, wb, rb = instances[b]
            # conflict: two instances touch one cell, at least one writes
            if wa == wb or wa in rb:
                truth.add((min(ia, ib), max(ia, ib), wa[0]))
            if wb in ra:
                truth.add((min(ia, ib), max(ia, ib), wb[0]))
    return truth


def test_criterion_6_dependence_soundness():
    rng = random.Random(99)
    missing = 0
    for _ in range(500):
        lowered = _random_flat_program(rng)
        truth = _enumerated_conflicts(lowered)
        reported = set()
        index_of = {id(eq): i for i, eq in enumerate(lowered)}
        for dep in get_dependences(lowered):
            i = index_of[id(dep.source)]
            j = index_of[id(dep.sink)]
            reported.add((min(i, j), max(i, j), dep.function.name))
        if not truth <= reported:
            missing += len(truth - reported)
    _verdict(6, "analyzer reports every enumerated dependence over 500 "
             "random programs", missing == 0,
             "%d missed" % missing)


def test_criterion_7_parallelism_and_workers(monkeypatch):
    from stencilc.backend import interpreter
    funcs, eqs = acoustic_example((12, 12, 12), so=2)
    op = Operator(eqs, mode="advanced")
    props = {}
    for it in iterations(op.iet):
        props.setdefault(it.dim.name, set()).update(it.properties)
    class_ok = (SEQUENTIAL in props["t"] and
                all(PARALLEL in props[d] for d in ("x", "y", "z")))
    # Two x planes per slab: six slabs, so the four workers share them.
    monkeypatch.setattr(interpreter, "SLAB_POINTS", 2 * 12 * 12)
    one = _prepared(op, 10)
    op.apply(steps=10, buffers=one, dt=DT, workers=1)
    four = _prepared(op, 10)
    op.apply(steps=10, buffers=four, dt=DT, workers=4)
    bitwise = all(np.array_equal(one[n].data, four[n].data)
                  for n in ("u", "rec"))
    _verdict(7, "time loop sequential, space loops parallel; 4 workers "
             "bitwise equal to 1", class_ok and bitwise)


def test_criterion_8_blocking_preserves_iteration_sets():
    from collections import Counter

    from stencilc.iet import block_loops
    iet, env = _flat_2d((17, 23))
    before = Counter(_visit_points(iet, env, ("x", "y")))
    block_loops(iet, {"x": 5, "y": 7})
    after = Counter(_visit_points(iet, env, ("x", "y")))
    _verdict(8, "blocking a 17x23 nest with 5x7 tiles visits the exact "
             "same point multiset",
             before == after and len(before) == 17 * 23)


ACOUSTIC_SPEC = """\
grid shape=(21,)
function m space_order=2
timefunction u space_order=2 time_order=2
sparsetimefunction src npoint=1 coords=((10.0,),)
eq u.forward = solve(m*u.dt2 - u.laplace, u.forward)
src.inject(field=u.forward, expr=src * dt**2 / m)
"""


def test_criterion_9_determinism_and_cache():
    funcs, eqs = acoustic_example((21,))
    clear_cache()
    first_src = Operator(eqs).source
    clear_cache()
    second_src = Operator(eqs).source
    reports = [report_text(parse_spec(ACOUSTIC_SPEC), "aggressive")
               for _ in range(2)]
    clear_cache()
    Operator(eqs, mode="aggressive")
    before = op_mod.PASS_WORK
    again = Operator(eqs, mode="aggressive")
    _verdict(9, "emission and report byte-stable; cached recompile does "
             "zero pass work",
             first_src == second_src and reports[0] == reports[1] and
             again.cache_hit and op_mod.PASS_WORK == before)


def test_criterion_10_no_hardware_performance_claims():
    # Published GFlops/roofline figures were measured on large two-socket
    # and manycore systems; they are not reproducible at desk scale and no
    # absolute performance is asserted anywhere in this suite. The only
    # timing-derived check is that the autotuner is consistent with its
    # own measurements: the returned shape attains the minimum it saw.
    funcs, eqs = acoustic_example((48, 48), so=4)
    recorded = {}

    def runner(shape):
        op = Operator(eqs, mode="advanced", block=shape)
        bufs = _prepared(op, 3)
        t0 = time.perf_counter()
        op.apply(steps=3, buffers=bufs, dt=DT)
        recorded[tuple(sorted(shape.items()))] = time.perf_counter() - t0
        return recorded[tuple(sorted(shape.items()))]

    probe = Operator(eqs, mode="advanced")
    candidates = [{"x": s, "y": s} for s in (8, 16, 32)]
    best = autotune_blocks(probe.iet, runner, candidates)
    consistent = recorded[tuple(sorted(best.items()))] <= \
        1.05 * min(recorded.values())
    _verdict(10, "hardware-scale performance figures are out of scope; "
             "autotuner is self-consistent", consistent)
