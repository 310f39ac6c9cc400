"""Backend tests: buffer allocation, interpreter vs reference oracle,
default-bound derivation, worker independence, C emission, caching."""

import shutil

import numpy as np
import pytest

from stencilc.backend import (BackendError, BoundsError, DataBuffer,
                              Operator, allocate, clear_cache, emit_c,
                              reference_run, run)
from stencilc.backend import operator as op_mod
from stencilc.dse import MODES
from stencilc.iet import Block

from helpers import (acoustic_example, coupled_equations, rotated_equations,
                     tti_equations, two_field_equations, wave_example)

DT = 0.02


def _fill(buffers, name, value):
    buffers[name].data[:] = value


def _impulse(buffers, name="src"):
    buffers[name].data[0, 0] = 1.0


def _acoustic_op(shape, so=2, mode="advanced", block=None):
    funcs, eqs = acoustic_example(shape, so=so)
    return Operator(eqs, mode=mode, block=block)


def _run_pair(shape, so, mode, block, steps=20):
    op = _acoustic_op(shape, so=so, mode=mode, block=block)
    bufs, _ = _fixture_apply(op, steps)
    ref_op = _acoustic_op(shape, so=so, mode=mode, block=block)
    refs = _fixture(ref_op, steps)
    ref_op.reference(steps=steps, buffers=refs, dt=DT)
    return bufs, refs


def _fixture(op, steps):
    bufs = op.allocate(steps)
    _fill(bufs, "m", 1.5)
    _impulse(bufs)
    return bufs


def _fixture_apply(op, steps, workers=1):
    bufs = _fixture(op, steps)
    report = op.apply(steps=steps, buffers=bufs, workers=workers, dt=DT)[1]
    return bufs, report


def _rel_err(a, b):
    scale = max(1.0, float(np.max(np.abs(b))))
    return float(np.max(np.abs(a - b))) / scale


def _assert_close(a, b, rel=1e-12):
    assert _rel_err(a, b) <= rel


def _assert_matches_oracle(op, steps):
    """``op.apply`` and ``op.reference`` from one random fill agree."""
    runs = []
    for run in (op.apply, op.reference):
        bufs = op.allocate(steps)
        rng = np.random.default_rng(11)
        for buf in bufs.values():
            buf.data[:] = rng.uniform(1.0, 2.0, buf.extents)
        run(steps=steps, buffers=bufs, dt=DT)
        runs.append(bufs)
    got, refs = runs
    for name in refs:
        _assert_close(got[name].data, refs[name].data)


def _rotated_fixture(op, steps):
    bufs = op.allocate(steps)
    rng = np.random.default_rng(5)
    bufs["theta"].data[:] = rng.uniform(0.0, 2 * np.pi,
                                        bufs["theta"].extents)
    bufs["u"].data[:] = rng.uniform(-1.0, 1.0, bufs["u"].extents)
    return bufs


def _random_fixture(op, steps):
    """Every buffer but the coordinate tables drawn from [1, 2)."""
    bufs = op.allocate(steps)
    rng = np.random.default_rng(11)
    for name, buf in sorted(bufs.items()):
        if not name.endswith("_coords"):
            buf.data[:] = rng.uniform(1.0, 2.0, buf.extents)
    return bufs


def _rotated_apply(op, steps=3, workers=1, **params):
    bufs = _rotated_fixture(op, steps)
    report = op.apply(steps=steps, buffers=bufs, workers=workers, dt=DT,
                      **params)[1]
    return bufs, report


#: equations and cache block of each multi-field differential case
DIFFERENTIAL_CASES = {
    "coupled3": (lambda: coupled_equations(3), {"x": 4, "y": 4, "z": 4}),
    "two-field": (lambda: two_field_equations(8), {"x": 8, "y": 8}),
}


def _rotated_op(block=None):
    funcs, eqs = rotated_equations(12, shape=(24, 24))
    return Operator(eqs, mode="aggressive", block=block)


def _rotated_so4_op(block=None, shape=(24, 24)):
    funcs, eqs = rotated_equations(4, shape=shape)
    return Operator(eqs, mode="aggressive", block=block)


def _tti_so8_op(block=None):
    return Operator(tti_equations((12, 12, 12), so=8), mode="aggressive",
                    block=block)


class TestDataBuffer:
    def test_zero_initialized(self):
        buf = DataBuffer("u", "f64", (3, 5))
        assert buf.data.shape == (3, 5)
        assert buf.data.dtype == np.float64
        assert not buf.data.any()

    def test_bad_dtype(self):
        with pytest.raises(BackendError):
            DataBuffer("u", "f16", (3,))

    def test_allocate_from_decl(self):
        funcs, _ = wave_example(shape=(11,), so=4)
        buf = allocate(funcs["u"])
        assert buf.extents == (3, 11 + 2 * 2)
        cbuf = allocate(funcs["q"], nt=7)
        assert cbuf.extents == (7, 1)

    def test_shape_mismatch(self):
        with pytest.raises(BackendError):
            DataBuffer("u", "f64", (3,), data=np.zeros((4,)))


class TestInterpreter:
    def test_zero_data_stays_zero(self):
        op = _acoustic_op((21,))
        bufs = op.allocate(10)
        _fill(bufs, "m", 1.0)
        op.apply(steps=10, buffers=bufs, dt=DT)
        assert not bufs["u"].data.any()
        assert not bufs["rec"].data.any()

    def test_impulse_response(self):
        # One step with a unit impulse at a node: the update contributes
        # nothing from the zero field, injection adds dt^2 / m there.
        funcs, eqs = acoustic_example((11,), so=2, src_coord=(5.0,))
        op = Operator(eqs)
        bufs = op.allocate(1)
        _fill(bufs, "m", 1.0)
        _impulse(bufs)
        op.apply(steps=1, buffers=bufs, dt=DT)
        halo = funcs["u"].halo
        u = bufs["u"].data
        assert u[1, 5 + halo] == pytest.approx(DT ** 2, rel=1e-15)
        mask = np.ones_like(u, dtype=bool)
        mask[1, 5 + halo] = False
        assert not u[mask].any()

    def test_differential_modes_1d(self):
        for mode in ("basic", "advanced", "aggressive"):
            for block in (None, {"x": 8}):
                bufs, refs = _run_pair((65,), 2, mode, block)
                _assert_close(bufs["u"].data, refs["u"].data)
                _assert_close(bufs["rec"].data, refs["rec"].data)

    @pytest.mark.parametrize("case", sorted(DIFFERENTIAL_CASES))
    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("blocked", [False, True],
                             ids=["unblocked", "blocked"])
    def test_differential_multi_field(self, case, mode, blocked):
        # In aggressive mode, derivatives of different fields with one
        # offset pattern must not share an alias pivot.
        build, block = DIFFERENTIAL_CASES[case]
        op = Operator(build(), mode=mode, block=block if blocked else None)
        _assert_matches_oracle(op, steps=4)

    @pytest.mark.parametrize("block", [None, {"x": 8, "y": 8, "z": 8}],
                             ids=["unblocked", "blocked"])
    def test_tti_aggressive_matches_oracle(self, block):
        # Each alias producer covers its own group's span: given the hull
        # of all groups' spans, the narrower ones read p and r past their
        # halo at space order 8.
        op = Operator(tti_equations((12, 12, 12), so=8), mode="aggressive",
                      block=block)
        _assert_matches_oracle(op, steps=3)

    def test_differential_2d_blocked(self):
        bufs, refs = _run_pair((24, 24), 4, "aggressive", {"x": 8, "y": 8})
        _assert_close(bufs["u"].data, refs["u"].data)
        _assert_close(bufs["rec"].data, refs["rec"].data)

    def test_snapshot_subsampling(self):
        funcs, eqs = wave_example(shape=(21,), so=2, factor=4, save=5,
                                  coordinates=((10.0,),))
        op = Operator(eqs)
        steps = 17
        bufs = op.allocate(steps)
        _fill(bufs, "m", 1.0)
        bufs["q"].data[0, 0] = 1.0
        op.apply(steps=steps, buffers=bufs, dt=DT)
        refs = Operator(eqs).allocate(steps)
        _fill(refs, "m", 1.0)
        refs["q"].data[0, 0] = 1.0
        op.reference(steps=steps, buffers=refs, dt=DT)
        _assert_close(bufs["u"].data, refs["u"].data)
        _assert_close(bufs["us"].data, refs["us"].data)
        assert bufs["us"].data.any()

    def test_report_sections(self):
        op = _acoustic_op((33,))
        _, report = _fixture_apply(op, 5)
        assert report
        for name, slot in report.items():
            assert name.startswith("section")
            assert slot["points"] > 0
            assert slot["time"] >= 0.0

    def test_unbound_symbol(self):
        op = _acoustic_op((21,))
        bufs = op.allocate(3)
        _fill(bufs, "m", 1.0)
        env = op.default_params(3)  # no dt
        with pytest.raises(BackendError):
            run(op.iet, bufs, env)

    def test_bounds_checker_fires(self):
        op = _acoustic_op((21,))
        bufs = op.allocate(3)
        _fill(bufs, "m", 1.0)
        with pytest.raises(BoundsError):
            op.apply(steps=3, buffers=bufs, dt=DT, x_M=1000)

    def test_default_time_cap(self):
        funcs, eqs = wave_example(shape=(21,), so=2, factor=4, save=5,
                                  coordinates=((10.0,),))
        op = Operator(eqs)
        assert op.default_params(100)["t_M"] == 4 * 5 - 1
        bufs = op.allocate(100)
        _fill(bufs, "m", 1.0)
        bufs["q"].data[0, 0] = 1.0
        op.apply(steps=100, buffers=bufs, dt=DT)  # silent bounds checker

    def test_workers_bitwise_identical(self, monkeypatch):
        from stencilc.backend import interpreter
        # Four rows or one 8x8 block per slab, so the workers share them.
        monkeypatch.setattr(interpreter, "SLAB_POINTS", 100)
        op = _acoustic_op((24, 24), so=4)
        one, _ = _fixture_apply(op, 10, workers=1)
        four, _ = _fixture_apply(op, 10, workers=4)
        assert np.array_equal(one["u"].data, four["u"].data)
        assert np.array_equal(one["rec"].data, four["rec"].data)
        # Blocked: each worker's run of slabs owns its block-local
        # temporaries.
        op = _rotated_op({"x": 8, "y": 8})
        one, _ = _rotated_apply(op)
        for workers in (2, 4):
            many, _ = _rotated_apply(op, workers=workers)
            assert np.array_equal(one["w"].data, many["w"].data)

    def test_reference_empty_program(self):
        assert reference_run([], {}, {}) == {}


class TestPlan:
    def test_plan_rebuilt_per_apply(self):
        # An apply with other loop bounds in between must not leave stale
        # bounds behind for the next apply of the same operator.
        for block in (None, {"x": 8, "y": 8}):
            op = _rotated_op(block)
            first, _ = _rotated_apply(op)
            other, _ = _rotated_apply(op, x_M=13)
            again, _ = _rotated_apply(op)
            assert not np.array_equal(first["w"].data, other["w"].data)
            assert first["w"].data.tobytes() == again["w"].data.tobytes()

    def test_stencil_sections_run_sliced(self):
        funcs, eqs = acoustic_example((12, 12, 12), so=4)
        ops = [Operator(eqs[:1]), Operator(eqs[:1], block={"x": 4, "y": 4}),
               _rotated_op({"x": 8, "y": 8})]
        for op in ops:
            bufs = op.allocate(4)
            if "m" in bufs:
                _fill(bufs, "m", 1.5)
            report = op.apply(steps=4, buffers=bufs, dt=DT)[1]
            assert report
            for slot in report.values():
                assert slot["per_point"] == 0
                assert slot["sliced"] == slot["points"] > 0
        # Sparse injection and interpolation run per point, next to the
        # sliced stencil in the same section.
        _, report = _fixture_apply(Operator(eqs), 4)
        for slot in report.values():
            assert slot["sliced"] + slot["per_point"] == slot["points"]
        assert any(s["sliced"] and s["per_point"] for s in report.values())

    def test_oracle_catches_off_by_one_slice(self, monkeypatch):
        from stencilc.backend import interpreter
        funcs, eqs = acoustic_example((24, 24), so=4)
        op = Operator(eqs)

        def prepared():
            bufs = op.allocate(10)
            rng = np.random.default_rng(3)
            bufs["m"].data[:] = 1.5 + 0.1 * rng.uniform(
                size=bufs["m"].extents)
            _impulse(bufs)
            return bufs

        def compare():
            got, ref = prepared(), prepared()
            op.apply(steps=10, buffers=got, dt=DT)
            op.reference(steps=10, buffers=ref, dt=DT)
            return _rel_err(got["u"].data, ref["u"].data), ref["u"].data

        err, ref = compare()
        assert err <= 1e-12
        original = interpreter._index_plan

        def shifted(acc, dims):
            plan = original(acc, dims)
            if plan is None or acc.func.name != "m":
                return plan
            return [(axis, const + (axis == 0), terms)
                    for axis, const, terms in plan]

        monkeypatch.setattr(interpreter, "_index_plan", shifted)
        bad_err, bad_ref = compare()
        assert bad_err > 1e-12
        assert np.array_equal(ref, bad_ref)


    def test_buffers_freed_without_cyclic_collection(self):
        # The per-point path (sparse injection and interpolation) must not
        # leave a reference cycle holding the frame and so every buffer.
        import gc
        import weakref
        clear_cache()
        gc.collect()
        gc.disable()
        try:
            op = _acoustic_op((8, 8, 8))
            bufs, report = _fixture_apply(op, 3)
            assert any(s["per_point"] for s in report.values())
            arrays = {name: weakref.ref(b.data) for name, b in bufs.items()}
            assert {"u", "m", "src", "rec"} <= set(arrays)
            del op, bufs, report
            assert [n for n, ref in arrays.items() if ref() is not None] == []
        finally:
            gc.enable()

    def test_index_plan_forms(self):
        from stencilc.backend.interpreter import _index_plan
        from stencilc.lowering import indexify
        from stencilc.symbolic import (Access, Eq, FunctionDecl, Grid,
                                       Symbol, add, mul, num)
        g = Grid((8, 8))
        u = FunctionDecl("u", "function", g, space_order=8)
        x, y, xb, t = (Symbol(n) for n in ("x", "y", "xb", "t"))
        dims = ("x", "y")
        lowered = indexify(Eq(u.at, u.at)).rhs
        assert lowered.indices == (add(x, num(4)), add(y, num(4)))
        plan = _index_plan(lowered, dims)
        assert plan == [(0, 4, ()), (1, 4, ())]
        assert type(plan[0][1]) is int
        # A block-local temporary's index, rebased by the block origin.
        rebased = Access(u, (add(x, mul(num(-1), xb), num(2)), y))
        assert _index_plan(rebased, dims) == [(0, 2, (("xb", -1),)),
                                              (1, 0, ())]
        assert _index_plan(Access(u, (t, x)), ("x",)) == [(None, 0, ()),
                                                          (0, 0, ())]
        assert _index_plan(Access(u, (mul(num(2), x), y)), dims) is None
        assert _index_plan(Access(u, (y, x)), dims) is None


def _counts(report):
    return {name: (slot["points"], slot["sliced"], slot["per_point"])
            for name, slot in report.items()}


#: (operator, fixture, checked outputs, grid points per outer index)
SLAB_CASES = {
    "acoustic3d-so8": (lambda: _acoustic_op((24, 24, 24), so=8), _fixture,
                       ("u", "rec"), 24 * 24),
    "rotated-so12": (_rotated_op, _rotated_fixture, ("w",), 24),
    # 27x29 in 8x8 blocks: the batch of 3x3 full blocks has 96 points per
    # block in its widest nest (12x8), 288 per x block, so 120 points per
    # slab run it block by block, and 600 in x runs of two then one.
    "rotated-so4-blocked": (lambda: _rotated_so4_op({"x": 8, "y": 8},
                                                    (27, 29)),
                            _rotated_fixture, ("w",), 120),
}


class TestSlabs:
    """Sliced nests run in slabs of the outermost loop, batched bands of
    block loops in slabs of whole blocks; the grids here fit in one slab
    at the default ``SLAB_POINTS``."""

    def test_batch_slabs(self, monkeypatch):
        # A slab takes every block along the later block loops while they
        # fit, then a run along one, single blocks along the earlier ones.
        from stencilc.backend import interpreter
        monkeypatch.setattr(interpreter, "SLAB_POINTS", 100)
        assert interpreter._slabs([2, 3, 4], 10) == [
            ((0, 0, 0), (1, 2, 4)), ((0, 2, 0), (1, 1, 4)),
            ((1, 0, 0), (1, 2, 4)), ((1, 2, 0), (1, 1, 4))]
        assert interpreter._slabs([2, 3], 10) == [((0, 0), (2, 3))]
        assert interpreter._slabs([3, 2], 40) == [
            ((0, 0), (1, 2)), ((1, 0), (1, 2)), ((2, 0), (1, 2))]
        # One block over the bound still runs whole.
        assert interpreter._slabs([2, 2], 101) == [
            ((0, 0), (1, 1)), ((0, 1), (1, 1)), ((1, 0), (1, 1)),
            ((1, 1), (1, 1))]
        # An unbatched nest: rows of 30 points, 3 rows per slab.
        assert interpreter._slabs([7], 30) == [
            ((0,), (3,)), ((3,), (3,)), ((6,), (1,))]

    @pytest.mark.parametrize("case", sorted(SLAB_CASES))
    @pytest.mark.parametrize("rows", [1, 5], ids=["one-row", "ragged"])
    def test_slabs_bitwise_equal_to_one_slab(self, monkeypatch, case, rows):
        from stencilc.backend import interpreter
        build, fixture, names, row = SLAB_CASES[case]
        op = build()

        def apply(workers=1):
            bufs = fixture(op, 3)
            report = op.apply(steps=3, buffers=bufs, workers=workers,
                              dt=DT)[1]
            return [bufs[n].data for n in names], _counts(report)

        assert interpreter.SLAB_POINTS >= 24 * row
        whole, whole_counts = apply()
        # Five rows per slab leave a last slab of four on 24 rows.
        monkeypatch.setattr(interpreter, "SLAB_POINTS", rows * row)
        for workers in (1, 2):
            got, counts = apply(workers)
            assert [a.tobytes() for a in got] == [a.tobytes() for a in whole]
            assert counts == whole_counts
        refs = fixture(op, 3)
        op.reference(steps=3, buffers=refs, dt=DT)
        for name, data in zip(names, got):
            _assert_close(data, refs[name].data)

    def test_f32_matches_oracle(self, monkeypatch):
        from stencilc.backend import interpreter
        funcs, eqs = acoustic_example((24, 24), so=4)
        op = Operator(eqs, dtype="f32")

        def run_f32(oracle=False):
            bufs = op.allocate(4)
            rng = np.random.default_rng(3)
            bufs["m"].data[:] = 1.5 + 0.1 * rng.uniform(
                size=bufs["m"].extents)
            bufs["u"].data[:2] = rng.uniform(-1.0, 1.0,
                                             bufs["u"].data[:2].shape)
            bufs["src"].data[:] = 1.0
            run = op.reference if oracle else op.apply
            run(steps=4, buffers=bufs, dt=DT)
            assert bufs["u"].data.dtype == np.float32
            return bufs["u"].data, bufs["rec"].data

        got, ref = run_f32(), run_f32(oracle=True)
        assert got[1].any()
        for a, b in zip(got, ref):
            assert _rel_err(a.astype(np.float64), b.astype(np.float64)) \
                <= 1e-5
        monkeypatch.setattr(interpreter, "SLAB_POINTS", 1)
        for a, b in zip(got, run_f32()):
            assert a.tobytes() == b.tobytes()


def _edge_increments_op(n):
    """``u[x] += a[x]; u[x+1] += 3*a[x]`` on a 1-D grid of ``n`` points:
    a parallel, atomic loop whose slabs write one common point at each
    edge, in an order that changes its bits."""
    from stencilc.symbolic import Eq, FunctionDecl, Grid, add, mul, num
    g = Grid((n,))
    u, a = (FunctionDecl(name, "function", g) for name in "ua")
    right = u(add(g.dimensions[0].symbol, g.spacing_symbols[0]))
    return Operator([Eq(u.at, a.at, is_increment=True),
                     Eq(right, mul(num(3), a.at), is_increment=True)])


@pytest.fixture
def submitted(monkeypatch):
    """A list that gets one entry per task handed to a worker pool."""
    from concurrent.futures import ThreadPoolExecutor
    calls = []
    original = ThreadPoolExecutor.submit

    def counted(self, *args, **kwargs):
        calls.append(1)
        return original(self, *args, **kwargs)
    monkeypatch.setattr(ThreadPoolExecutor, "submit", counted)
    return calls


class TestWorkerPool:
    """The worker pool runs only the slabs of a sliced executor, one
    contiguous run of slabs per worker."""

    def test_atomic_loop_slabs_run_in_order(self, monkeypatch):
        from stencilc.backend import interpreter
        from stencilc.iet import ATOMIC, iterations
        op = _edge_increments_op(8192)
        assert [ATOMIC in it.properties for it in iterations(op.iet)] == \
            [True]
        # 4,096 slabs: enough work per worker that two workers run their
        # edge slabs out of order, were they to share the loop.
        monkeypatch.setattr(interpreter, "SLAB_POINTS", 2)
        got = set()
        for workers in (1, 2, 4):
            bufs = _random_fixture(op, 1)
            op.apply(steps=1, buffers=bufs, workers=workers)
            got.add(bufs["u"].data.tobytes())
        assert len(got) == 1
        refs = _random_fixture(op, 1)
        op.reference(steps=1, buffers=refs)
        _assert_close(bufs["u"].data, refs["u"].data)

    def test_pool_runs_only_split_slabs(self, monkeypatch, submitted):
        from stencilc.backend import interpreter
        from stencilc.symbolic import FunctionDecl, interpolate
        coupled = Operator(coupled_equations(8, shape=(16, 16, 16), so=8))
        coupled.apply(steps=3, buffers=_random_fixture(coupled, 3), dt=DT,
                      workers=2)
        # Acoustic with four more receivers: its stencil fits in one slab
        # and its sparse loops run per point.
        funcs, eqs = acoustic_example((24, 24), so=4)
        g = funcs["grid"]
        recs = FunctionDecl("recs", "sparsetimefunction", g, npoint=4,
                            coordinates=[(e * k / 5 for e in g.extent)
                                         for k in range(1, 5)])
        acoustic = Operator(eqs + interpolate(recs, funcs["u"].at))
        report = _fixture_apply(acoustic, 3, workers=2)[1]
        assert sum(slot["per_point"] for slot in report.values()) > 0
        assert submitted == []
        monkeypatch.setattr(interpreter, "SLAB_POINTS", 5 * 24)
        _fixture_apply(acoustic, 3, workers=2)
        assert len(submitted) >= 1


@pytest.fixture
def dispatched(monkeypatch):
    """A list that gets one entry per call of a sliced statement."""
    from stencilc.backend import interpreter
    calls = []
    original = interpreter._statement

    def counted(*args):
        statement = original(*args)

        def call(fr):
            calls.append(1)
            statement(fr)
        return call
    monkeypatch.setattr(interpreter, "_statement", counted)
    return calls


def _per_step(calls, op, fixture):
    """Sliced statement calls that one more time step adds."""
    made = []
    for steps in (2, 3):
        del calls[:]
        op.apply(steps=steps, buffers=fixture(op, steps), dt=DT)
        made.append(len(calls))
    return made[1] - made[0]


#: (builder taking a block shape, block shape, fixture) of operators whose
#: blocked bands run batched; the first is ragged along both block loops
BATCH_CASES = {
    "rotated-so4": (lambda block: _rotated_so4_op(block, (27, 29)),
                    {"x": 8, "y": 8}, _rotated_fixture),
    "tti-so8": (_tti_so8_op, {"x": 8, "y": 8, "z": 8}, _random_fixture),
    "acoustic3d-so4": (lambda block: Operator(
        acoustic_example((13, 13, 13), so=4)[1], mode="aggressive",
        block=block), {"x": 4, "y": 4}, _random_fixture),
}


class TestBatchedBlocks:
    """A band of parallel block loops runs all its blocks at once, one
    batch per regular run of blocks, so a statement costs one numpy call
    per term and slab, not per block."""

    @staticmethod
    def _apply(op, fixture, workers=1, steps=3):
        bufs = fixture(op, steps)
        report = op.apply(steps=steps, buffers=bufs, workers=workers,
                          dt=DT)[1]
        return ({name: b.data.tobytes() for name, b in bufs.items()},
                _counts(report))

    @pytest.mark.parametrize("case", sorted(BATCH_CASES))
    def test_batched_equals_unblocked(self, monkeypatch, case):
        from stencilc.backend import interpreter
        from stencilc.iet import BLOCKED
        build, block, fixture = BATCH_CASES[case]
        want, _ = self._apply(build(None), fixture)
        op = build(block)
        batched = [self._apply(op, fixture, workers)
                   for workers in (1, 2, 4)]
        # Each block in turn, as the generic loop executor runs them.
        original = interpreter._Planner.sliced
        monkeypatch.setattr(
            interpreter._Planner, "sliced",
            lambda self, n: None if BLOCKED in n.properties
            else original(self, n))
        by_block = self._apply(op, fixture)
        assert by_block[0] == want
        for got in batched:
            assert got == by_block

    def test_dispatch_does_not_grow_with_blocks(self, dispatched):
        # 24x24 in 8x8 blocks is 9 blocks, in 4x4 blocks 36; either way
        # every time step calls each of the 4 statements once.
        eight, four = (_per_step(dispatched, _rotated_op(block),
                                 _rotated_fixture)
                       for block in ({"x": 8, "y": 8}, {"x": 4, "y": 4}))
        assert eight == four == 4

    def test_overlapping_writes_run_block_by_block(self, monkeypatch,
                                                   dispatched):
        # Declared shared, the block-local temporary would be written at
        # the same points by every block of a batch, so its band runs
        # block by block: 9 blocks of 4 statements per time step.
        from stencilc.iet import walk
        op = _rotated_op({"x": 8, "y": 8})
        want, _ = _rotated_apply(_rotated_op())
        for node in walk(op.iet):
            for d in getattr(node, "declarations", ()):
                monkeypatch.setattr(d, "scope", "shared")
        assert _per_step(dispatched, op, _rotated_fixture) == 9 * 4
        got, _ = _rotated_apply(op)
        assert got["w"].data.tobytes() == want["w"].data.tobytes()

    def test_slabs_split_later_block_loops(self, monkeypatch):
        # At 200 points per slab the 3x3 full blocks of 96 points each
        # run as y runs of two blocks then one, and the output and counts
        # do not change.
        from stencilc.backend import interpreter
        op = _rotated_so4_op({"x": 8, "y": 8}, (27, 29))
        want, want_report = _rotated_apply(op)
        monkeypatch.setattr(interpreter, "SLAB_POINTS", 200)
        for workers in (1, 2):
            got, report = _rotated_apply(op, workers=workers)
            assert got["w"].data.tobytes() == want["w"].data.tobytes()
            assert _counts(report) == _counts(want_report)

    def test_noncontiguous_buffers(self):
        # Arrays that are strided views into larger ones are read and
        # written through the same batched views as contiguous ones.
        op = _rotated_so4_op({"x": 8, "y": 8}, (27, 29))
        want, _ = _rotated_apply(op)
        bufs = _rotated_fixture(op, 3)
        for name, buf in bufs.items():
            wide = np.zeros(buf.extents[:-1] + (2 * buf.extents[-1],))
            wide[..., ::2] = buf.data
            bufs[name] = DataBuffer(name, buf.dtype, buf.extents,
                                    wide[..., ::2])
        op.apply(steps=3, buffers=bufs, dt=DT)
        assert not bufs["w"].data.flags.contiguous
        assert bufs["w"].data.tobytes() == want["w"].data.tobytes()

    def test_write_windows(self):
        # Along each block loop, the points one block writes in an array
        # must fit in the block step, or a batch could write one point
        # from two blocks.
        from stencilc.backend.interpreter import _Axes, _Nest, _window
        from stencilc.symbolic import (Access, FunctionDecl, Grid, Symbol,
                                       add, mul, num)
        g = Grid((16, 16))
        u, v = (FunctionDecl(n, "function", g, space_order=4) for n in "uv")
        x, y, xb = Symbol("x"), Symbol("y"), Symbol("xb")
        axes = _Axes(("x", "y"), (("xb", 8), ("yb", 8)), (0, 1))

        def nest(e=0):
            # x from xb to min(xb + 7, X) + e; y from yb to min(yb + 7, Y)
            return _Nest(2, [], [(0, 0, 0, e), (1, 1, 0, 0)], [])

        windows = {}
        assert _window(Access(u, (x, y)), axes, nest(), windows)
        assert windows[("u", 0)][:2] == (0, 7)
        # Another write of u one point further along x: 9 > 8 points.
        assert not _window(Access(u, (add(x, num(1)), y)), axes, nest(),
                           windows)
        assert _window(Access(v, (add(x, num(2)), y)), axes, nest(), {})
        assert not _window(Access(v, (x, y)), axes, nest(1), {})
        # Rebased by the block origin: every block writes the same points.
        rebased = add(x, mul(num(-1), xb))
        assert not _window(Access(v, (rebased, y)), axes, nest(), {})
        # No index moves with the y blocks.
        assert not _window(Access(v, (x, num(3))), axes, nest(), {})

    @pytest.mark.parametrize("block", [None, {"x": 8, "y": 8}],
                             ids=["unblocked", "blocked"])
    def test_temporaries_stay_out_of_buffers(self, block):
        # Array temporaries are sized from each apply's own bounds. Kept
        # in the caller's buffers, the ones a narrower apply made were too
        # small for the next apply on the same buffers.
        op = _rotated_so4_op(block)
        bufs = _rotated_fixture(op, 3)
        names = set(bufs)
        op.apply(steps=3, buffers=bufs, dt=DT, x_M=9)
        assert set(bufs) == names
        op.apply(steps=3, buffers=bufs, dt=DT)
        assert set(bufs) == names
        fresh, _ = _rotated_apply(op)
        assert bufs["w"].data.tobytes() == fresh["w"].data.tobytes()


@pytest.mark.parametrize("build", [
    lambda: _acoustic_op((8, 8, 8)),
    lambda: _acoustic_op((8, 8, 8), mode="aggressive",
                         block={"x": 4, "y": 4, "z": 4}),
    lambda: _rotated_op(block={"x": 8, "y": 8}),
    lambda: Operator(coupled_equations(3), mode="aggressive"),
], ids=["acoustic", "acoustic-blocked", "rotated-blocked",
        "coupled-aggressive"])
def test_compile_leaves_no_cyclic_garbage(build):
    # Every compile pass frees its garbage by reference counting.
    import gc
    clear_cache()
    gc.collect()
    gc.disable()
    try:
        build()
        assert gc.collect() == 0
    finally:
        gc.enable()
        clear_cache()


#: SHA-256 of the emitted C (through ``Operator`` and through ``emit_c``
#: with no function list) and of the tree dump, for four small operators:
#: "acoustic" has accesses inside left-hand-side indices and opaque
#: offsets (source and receiver), "wave" a sub-sampled snapshot.
GOLDEN_SHA256 = {
    "acoustic": ("c080b17019dd59109efba7751fe05b5fed153d70de6ee22ebd8fd49ea3763a06",
                 "34b062cf78d542085be919f08ccbda04e0c667e877c3e6df7cd1f3b6668c909b",
                 "f5b27066ec917a3970823c05b89ef4fd8fa79ef6721aa432760c708a978de97f"),
    "wave": ("b95b18a49c6649ef759687c6a00b18d6a86e9432aee6120c4eb9b0797518bab8",
             "0d841f2765afe7266e5a52ff350f312bcf777bbce72ae929bb7a4cb4bd10aaf3",
             "69e436e760e6855f320952b59f93f50a775ae32696fc834f297ec90450bb106f"),
    "rotated": ("9520c021c88ce2cd9cd39d0a5752320bc1f9db9fc9e7b572d26941a6931ce7ec",
                "9520c021c88ce2cd9cd39d0a5752320bc1f9db9fc9e7b572d26941a6931ce7ec",
                "7f0d64a08b0e54997362218f62e7b53322771e5b6dc299ced4f04a59c44ea15e"),
    "coupled": ("405fb5f597ccfc73d3e0e541b2b5dde609fe67f2df38db2867c1b135784e758b",
                "a1600c5dbd7f188f538e5a15b7a82beb08e49b2d5a3fc61aa525e8defcb6c0de",
                "e2101404de0c3cff619b672617b2cd498267ed4adf248879023b2b09acedcc84"),
}


class TestCodegen:
    @pytest.mark.parametrize("name", sorted(GOLDEN_SHA256))
    def test_golden_source_and_tree(self, name):
        import hashlib
        clear_cache()
        if name == "rotated":
            op = _rotated_op(block={"x": 8, "y": 8})
        elif name == "coupled":
            op = Operator(coupled_equations(3), mode="advanced")
        elif name == "acoustic":
            op = _acoustic_op((8, 8, 8))
        else:
            op = Operator(wave_example()[1])
        texts = (op.source, emit_c(op.iet), op.dump_iet())
        digests = tuple(hashlib.sha256(t.encode()).hexdigest()
                        for t in texts)
        assert digests == GOLDEN_SHA256[name]

    def test_emission_deterministic(self):
        funcs, eqs = acoustic_example((21,))
        clear_cache()
        first = Operator(eqs).source
        clear_cache()
        second = Operator(eqs).source
        assert first == second
        assert "#pragma omp parallel for" in first
        assert "for (int x = " in first
        assert "int kernel(" in first

    def test_pragmas_and_guard(self):
        funcs, eqs = wave_example(shape=(21,), coordinates=((10.0,),))
        src = Operator(eqs).source
        assert "(t)%4 == 0" in src
        assert "#pragma omp atomic" in src
        assert "floor" in src

    def test_empty_iet(self):
        src = emit_c(Block())
        assert "int kernel(" in src
        assert "return 0;" in src

    def test_modulo_indexing(self):
        funcs, eqs = acoustic_example((21,))
        src = Operator(eqs).source
        assert "%3" in src


def _run_c(op, buffers, env, tmp_path):
    """Build ``op.source`` with gcc, then call its kernel in place over
    ``buffers`` with the scalars of ``env``."""
    import ctypes
    import re
    import subprocess

    class DataObj(ctypes.Structure):
        _fields_ = [("data", ctypes.c_void_p), ("size", ctypes.c_int * 8)]

    c_file, lib = tmp_path / "kernel.c", tmp_path / "kernel.so"
    c_file.write_text(op.source)
    subprocess.run(["gcc", "-O2", "-ffp-contract=off", "-shared", "-fPIC",
                    "-o", str(lib), str(c_file), "-lm"], check=True)
    head = re.search(r"^int kernel\((.*)\)$", op.source, re.M).group(1)
    argtypes, args = [], []
    for decl in head.split(", "):
        name = decl.split()[-1]
        if decl.startswith("struct dataobj"):
            data = buffers[name[:-len("_vec")]].data
            assert data.dtype == np.float64 and data.flags.c_contiguous
            argtypes.append(ctypes.POINTER(DataObj))
            args.append(DataObj(data.ctypes.data,
                                (ctypes.c_int * 8)(*data.shape)))
        elif decl.startswith("const int "):
            argtypes.append(ctypes.c_int)
            args.append(int(env[name]))
        else:
            assert decl.startswith("const double "), decl
            argtypes.append(ctypes.c_double)
            args.append(float(env[name]))
    kernel = ctypes.CDLL(str(lib)).kernel
    kernel.argtypes, kernel.restype = argtypes, ctypes.c_int
    assert kernel(*args) == 0


def _acoustic_c_op(shape, so, block=None):
    """Acoustic operator with the source mid-grid and the receiver four
    points off it along x."""
    mid = tuple((s - 1) / 2.0 for s in shape)
    near = (mid[0] - 4.0,) + mid[1:]
    funcs, eqs = acoustic_example(shape, so=so, src_coord=mid,
                                  rec_coord=near)
    return Operator(eqs, block=block)


def _acoustic_c_fixture(op, steps):
    bufs = op.allocate(steps)
    rng = np.random.default_rng(7)
    bufs["m"].data[:] = 1.5 + 0.1 * rng.uniform(size=bufs["m"].extents)
    bufs["src"].data[:, 0] = np.linspace(1.0, 0.1, steps)
    return bufs


@pytest.mark.skipif(shutil.which("gcc") is None, reason="needs gcc")
@pytest.mark.parametrize("build,fixture", [
    (lambda: _acoustic_c_op((64, 64), 4), _acoustic_c_fixture),
    (lambda: _acoustic_c_op((64, 64), 4, {"x": 8, "y": 8}),
     _acoustic_c_fixture),
    (lambda: _acoustic_c_op((24, 24, 24), 8), _acoustic_c_fixture),
    (_rotated_so4_op, _rotated_fixture),
    (lambda: _rotated_so4_op({"x": 8, "y": 8}), _rotated_fixture),
    (lambda: _rotated_so4_op({"x": 8, "y": 8}, (27, 29)), _rotated_fixture),
    (_tti_so8_op, _random_fixture),
    (lambda: _tti_so8_op({"x": 8, "y": 8, "z": 8}), _random_fixture),
], ids=["2d-so4", "2d-so4-blocked", "3d-so8", "rotated-so4",
        "rotated-so4-blocked", "rotated-so4-ragged-blocked", "tti-so8",
        "tti-so8-blocked"])
def test_emitted_c_matches_interpreter(tmp_path, build, fixture):
    # The time index wraps with (((t + k)%3 + 3)%3): C's % is negative
    # for a negative dividend, so (t - 1)%3 alone reads slot -1 at t=0.
    # The rotated operator sizes whole-grid and block-local array
    # temporaries from the runtime bounds and the block shape. The C runs
    # block by block, the interpreter all blocks of a band at once.
    op = build()
    steps = 10
    got, want = fixture(op, steps), fixture(op, steps)
    op.apply(steps=steps, buffers=want, dt=DT)
    env = op.default_params(steps)
    env["dt"] = DT
    _run_c(op, got, env, tmp_path)
    assert all(buf.data.any() for buf in want.values())
    for name, buf in got.items():
        assert buf.data.tobytes() == want[name].data.tobytes(), name


class TestCache:
    def test_hit_does_no_pass_work(self):
        clear_cache()
        funcs, eqs = acoustic_example((21,))
        first = Operator(eqs)
        before = op_mod.PASS_WORK
        second = Operator(eqs)
        assert second.cache_hit
        assert not first.cache_hit
        assert op_mod.PASS_WORK == before
        assert second.artifact is first.artifact

    def test_distinct_modes_distinct_artifacts(self):
        clear_cache()
        funcs, eqs = acoustic_example((21,))
        a = Operator(eqs, mode="basic")
        b = Operator(eqs, mode="aggressive")
        assert a.artifact is not b.artifact

    def test_op_counts_recorded(self):
        clear_cache()
        funcs, eqs = acoustic_example((21,), so=4)
        op = Operator(eqs, mode="advanced")
        art = op.artifact
        assert art.op_count_before and art.op_count_after
        assert sum(art.op_count_after) <= sum(art.op_count_before)


def test_traced_names_are_still_bound(monkeypatch):
    # perfbench's tracer patches these names in place; one that stencilc
    # no longer binds makes ``perfbench/run.py --trace 1`` fail.
    import importlib
    import importlib.util
    import sys
    from pathlib import Path
    path = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    # Its dataclasses look their module up in sys.modules.
    monkeypatch.setitem(sys.modules, spec.name, tracing)
    spec.loader.exec_module(tracing)
    names = [(mod, attr) for mod, attr, _ in tracing.SPANNED]
    names += tracing.COUNTED_EVERYWHERE + tracing.COUNTED_IN
    assert names
    for mod, attr in names:
        assert hasattr(importlib.import_module(mod), attr), (mod, attr)
