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

from helpers import (CONFIGS, DT, acoustic_example, check_executors,
                     coupled_equations, invariant_equations,
                     legality_equations, random_fixture, recurrence_equations,
                     rel_err, rotated_equations, rotated_fixture, run_c,
                     tti_equations, wave_example)


def _fill(buffers, name, value):
    buffers[name].data[:] = value


def _impulse(buffers, name="src"):
    buffers[name].data[0, 0] = 1.0


def _acoustic_op(shape, so=2, mode="advanced", block=None):
    funcs, eqs = acoustic_example(shape, so=so)
    return Operator(eqs, mode=mode, block=block)


def _fixture(op, steps):
    bufs = op.allocate(steps)
    _fill(bufs, "m", 1.5)
    _impulse(bufs)
    return bufs


def _fixture_apply(op, steps, workers=1):
    bufs = _fixture(op, steps)
    report = op.apply(steps=steps, buffers=bufs, workers=workers, dt=DT)[1]
    return bufs, report


def _assert_close(a, b, rel=1e-12):
    assert rel_err(a, b) <= rel


def _rotated_apply(op, steps=3, workers=1, **params):
    bufs = rotated_fixture(op, steps)
    report = op.apply(steps=steps, buffers=bufs, workers=workers, dt=DT,
                      **params)[1]
    return bufs, report


def _rotated_op(block=None):
    funcs, eqs = rotated_equations(12, shape=(24, 24))
    return Operator(eqs, mode="aggressive", block=block)


def _rotated_so4_op(block=None, shape=(24, 24), dtype="f64"):
    funcs, eqs = rotated_equations(4, shape=shape)
    return Operator(eqs, mode="aggressive", block=block, dtype=dtype)


def _tti_so8_op(block=None):
    return Operator(tti_equations((12, 12, 12), so=8), mode="aggressive",
                    block=block)


#: SHA-256 of every buffer, in name order, after four steps from
#: ``random_fixture``: acoustic 2D SO4 on 24x24 in f64 and f32,
#: unblocked and in 8x8 blocks, and the wave operator, whose snapshot is
#: sub-sampled.
OUTPUT_SHA256 = {
    "acoustic-f32": (
        "311f8b31b6d392842159364f2acb6e37ac3c05bc52b663cba4ff40c1bf1a7a24",
        "1f9e1a1c193affdd0c7fa409b4df37178774dd2f97626b87f0e5989529a56dc5",
        "b307ab491a612fd28c1ddc329833192f9a1dece85e337ccab33b2626f2275622",
        "de8800fc2280f6da3ef40e9708bebfe1b829894ca2672adb2d5b5dde9a581a84",
        "0c399ca4576cd0aacebeafc3c9250855f43a415b613d3681aac097ce9d9830da",
        "31a36d815e456975bc8f5f6af7aff71318d3f9d974a9dc14460edf8b1b9c3fde"),
    "acoustic-f32-blocked": (
        "311f8b31b6d392842159364f2acb6e37ac3c05bc52b663cba4ff40c1bf1a7a24",
        "1f9e1a1c193affdd0c7fa409b4df37178774dd2f97626b87f0e5989529a56dc5",
        "b307ab491a612fd28c1ddc329833192f9a1dece85e337ccab33b2626f2275622",
        "de8800fc2280f6da3ef40e9708bebfe1b829894ca2672adb2d5b5dde9a581a84",
        "0c399ca4576cd0aacebeafc3c9250855f43a415b613d3681aac097ce9d9830da",
        "31a36d815e456975bc8f5f6af7aff71318d3f9d974a9dc14460edf8b1b9c3fde"),
    "acoustic-f64": (
        "37a8ae158ba556f38a56cb01705541aeaba58db315f4c281c2052bc1317cb1ea",
        "b41a7d718ab4c991f77f1e93c3d39033b8b935211a229aa2cabd5e0a8e7ea15c",
        "33a8dbc882552a91ffe64474b2cc2d374184a77571d207af32a27da319ba3cc7",
        "d7dc2f8241ba4ab4415b5fb994c24f9890df4be729ae65a4d41c1ebe62fecad5",
        "537c3a0d6b9cc48ca6642be4350a72dcbb6f154967e398df9761763806a733c9",
        "58902bc7244715c11e11e35ee863c15bc8c2df38b7eb0f822eec1e3ade209ba2"),
    "acoustic-f64-blocked": (
        "37a8ae158ba556f38a56cb01705541aeaba58db315f4c281c2052bc1317cb1ea",
        "b41a7d718ab4c991f77f1e93c3d39033b8b935211a229aa2cabd5e0a8e7ea15c",
        "33a8dbc882552a91ffe64474b2cc2d374184a77571d207af32a27da319ba3cc7",
        "d7dc2f8241ba4ab4415b5fb994c24f9890df4be729ae65a4d41c1ebe62fecad5",
        "537c3a0d6b9cc48ca6642be4350a72dcbb6f154967e398df9761763806a733c9",
        "58902bc7244715c11e11e35ee863c15bc8c2df38b7eb0f822eec1e3ade209ba2"),
    "wave": (
        "f50f0f90594a51505f2715e5cb1e03cfe147976b542a07385c924054191f8cd7",
        "69bb5bad976d5565de2c48e71c68c1e35ba085f9544d6d71c87a88d036372b82",
        "26c89b2e371fe262107103399d57b183eab4619a9e3186302bbf19f6148fb0f2",
        "ac195d2a48e11f9f2b666c5728982d06979e66b904e73cb1c0e7e7789a3e8bdf",
        "7068854146b22aa5b608f445dc1b31f71def2e1cc105c86c27a323e56d1ebba7"),
}


def _output_digests(name):
    import hashlib
    if name == "wave":
        op = Operator(wave_example()[1])
    else:
        _, dtype, *blocked = name.split("-")
        op = Operator(acoustic_example((24, 24), so=4)[1], dtype=dtype,
                      block={"x": 8, "y": 8} if blocked else None)
    bufs = random_fixture(op, 4)
    op.apply(steps=4, buffers=bufs, dt=DT)
    return tuple(hashlib.sha256(bufs[n].data.tobytes()).hexdigest()
                 for n in sorted(bufs))


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

    def test_dtype_mismatch(self):
        with pytest.raises(BackendError, match="u: float32 data"):
            DataBuffer("u", "f64", (3,), data=np.zeros(3, np.float32))

    def test_mixed_dtypes_fail(self):
        # The run's workspaces and temporaries take one dtype, so buffers
        # of another would change the arithmetic.
        op = _acoustic_op((21,))
        bufs = op.allocate(3)
        odd = list(bufs)[-1]
        bufs[odd] = DataBuffer(odd, "f32", bufs[odd].extents)
        with pytest.raises(BackendError, match="buffer %s is f32" % odd):
            op.apply(steps=3, buffers=bufs, dt=DT)
        env = dict(op.default_params(3), dt=DT)
        with pytest.raises(BackendError, match="buffer %s holds float32"
                           % odd):
            run(op.iet, bufs, env)
        f32 = Operator(op.eqs, dtype="f32")
        with pytest.raises(BackendError, match="is f64, the operator f32"):
            f32.apply(steps=3, buffers=op.allocate(3), dt=DT)


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

    @pytest.mark.parametrize("name", sorted(OUTPUT_SHA256))
    def test_golden_output(self, name):
        assert _output_digests(name) == OUTPUT_SHA256[name]

    def test_missing_buffer_fails_before_any_write(self):
        # The receiver runs after the stencil and the source have written
        # u, so only a plan built before the run leaves u untouched.
        op = _acoustic_op((24, 24), so=4)
        bufs = random_fixture(op, 3)
        del bufs["rec"]
        before = bufs["u"].data.tobytes()
        with pytest.raises(BackendError, match="rec"):
            op.apply(steps=3, buffers=bufs, dt=DT)
        assert bufs["u"].data.tobytes() == before

    def test_oracle_runs_apart_from_the_plan(self, monkeypatch):
        # The interpreter runs source and receiver through its plan, never
        # through ``evaluate``; the oracle's per-point path is its own.
        from stencilc.backend import interpreter, reference

        def unused(*args, **kwargs):
            raise AssertionError("called")

        monkeypatch.setattr(interpreter, "evaluate", unused)
        monkeypatch.setattr(reference, "_point", unused)
        op = _acoustic_op((24, 24), so=4)
        report = op.apply(steps=3, buffers=random_fixture(op, 3), dt=DT)[1]
        assert sum(slot["per_point"] for slot in report.values()) > 0
        with pytest.raises(AssertionError, match="called"):
            op.reference(steps=3, buffers=random_fixture(op, 3), dt=DT)



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
            return rel_err(got["u"].data, ref["u"].data), ref["u"].data

        err, ref = compare()
        assert err <= 1e-12
        original = interpreter._index_plan

        def shifted(acc, dims):
            plan = original(acc, dims)
            if plan is None or acc.func.name != "m":
                return plan
            return [(axis, const + (axis == 0)) for axis, const in plan]

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
        assert plan == [(0, 4), (1, 4)]
        assert type(plan[0][1]) is int
        # A block-local temporary keeps its grid index; an index with a
        # symbol besides its loop's, such as the block origin, has no
        # plan.
        assert _index_plan(Access(u, (add(x, num(2)), y)), dims) == \
            [(0, 2), (1, 0)]
        rebased = Access(u, (add(x, mul(num(-1), xb), num(2)), y))
        assert _index_plan(rebased, dims) is None
        assert _index_plan(Access(u, (t, x)), ("x",)) == [(None, 0),
                                                          (0, 0)]
        assert _index_plan(Access(u, (mul(num(2), x), y)), dims) is None
        assert _index_plan(Access(u, (y, x)), dims) is None

    def test_planning_parses_no_tabled_index(self, monkeypatch):
        # Every index of coupled_equations(3) is tabled by lowering, so
        # planning parses none and calls free_symbols on none.
        from stencilc.backend import interpreter
        from stencilc.iet import iterations
        op = Operator(coupled_equations(3), mode="advanced")
        loops = [it for it in iterations(op.iet) if it.dim.kind == "space"]
        calls = {"free_symbols": 0, "linear_form": 0}

        def counted(name):
            original = getattr(interpreter, name)

            def wrapper(e):
                calls[name] += 1
                return original(e)
            monkeypatch.setattr(interpreter, name, wrapper)
        for name in calls:
            counted(name)
        report = op.apply(steps=3, buffers=random_fixture(op, 3), dt=DT)[1]
        assert all(s["per_point"] == 0 for s in report.values())
        assert loops and calls == {"free_symbols": 0, "linear_form": 0}


def _parsed_plan(acc, dims):
    """``interpreter._index_plan`` as it was before it read lowering's
    offset table: every index parsed with ``linear_form``."""
    from stencilc.lowering import linear_form
    from stencilc.symbolic.expr import free_symbols
    out, axes = [], []
    for idx in acc.indices:
        used = free_symbols(idx) & set(dims)
        if not used:
            out.append((None, 0))
            continue
        form = linear_form(idx)
        if form is None or len(used) > 1:
            return None
        const, coeffs = form
        name = used.pop()
        axis = dims.index(name)
        if coeffs != {name: 1} or (axes and axis <= axes[-1]):
            return None
        k = int(const)
        if k != const:
            return None
        axes.append(axis)
        out.append((axis, k))
    return out


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_index_plan_table_matches_parse(name):
    # The plan of every access read from lowering's offset table equals
    # the parsed one, under every loop around its statement (the time
    # loop's dim and loop are distinct objects, both named t), under its
    # space loops alone and under none.
    from stencilc.backend.interpreter import _index_plan
    from stencilc.iet import _stmt_paths
    from stencilc.lowering import recorded_offsets
    tabled = 0
    for stmt, loops in _stmt_paths(CONFIGS[name].build().iet):
        every = tuple(it.dim.name for it in loops)
        space = tuple(it.dim.name for it in loops if it.dim.kind == "space")
        for acc in stmt.eq.accesses:
            tabled += recorded_offsets(acc) is not None
            for dims in (every, space, ()):
                assert _index_plan(acc, dims) == _parsed_plan(acc, dims), \
                    (acc, dims)
    assert tabled


def _counts(report):
    return {name: (slot["points"], slot["sliced"], slot["per_point"])
            for name, slot in report.items()}


#: (operator, fixture, checked outputs, grid points per outer index)
SLAB_CASES = {
    "acoustic3d-so8": (lambda: _acoustic_op((24, 24, 24), so=8), _fixture,
                       ("u", "rec"), 24 * 24),
    "rotated-so12": (_rotated_op, rotated_fixture, ("w",), 24),
    # 27x29 in 8x8 blocks, run as one block: its nests have rows of 29
    # points, so 120 points per slab run four rows per slab.
    "rotated-so4-blocked": (lambda: _rotated_so4_op({"x": 8, "y": 8},
                                                    (27, 29)),
                            rotated_fixture, ("w",), 120),
}


class TestSlabs:
    """Sliced nests run in slabs of the outermost loop; the grids here fit
    in one slab at the default ``SLAB_POINTS``."""

    def test_slabs_cut_whole_rows(self, monkeypatch):
        # Slabs of whole rows, the last one ragged.
        from stencilc.backend import interpreter
        monkeypatch.setattr(interpreter, "SLAB_POINTS", 100)
        # Rows of 30 points, 3 rows per slab.
        assert interpreter._slabs(7, 30) == [(0, 3), (3, 3), (6, 1)]
        assert interpreter._slabs(3, 10) == [(0, 3)]
        # One row over the bound still runs whole.
        assert interpreter._slabs(2, 101) == [(0, 1), (1, 1)]

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

    @pytest.mark.parametrize("case, slots", [
        # the stencil's folds nest four deep (its scalar temporaries are
        # scalars)
        ("acoustic3d-so8", [4]),
        # the cos nest, then temp1's and w's, each a root and one later
        # operand
        ("rotated-so12", [1, 2, 2])])
    def test_workspace_slots(self, monkeypatch, case, slots):
        # Every array result of a sliced statement lands in its thread's
        # workspace, kept for the whole apply: one memory per worker for
        # each statement, over every slab, the ragged last one included.
        from stencilc.backend import interpreter
        build, fixture, names, row = SLAB_CASES[case]
        op = build()
        planned, results = [], {}
        sliced, statement = interpreter._Planner.sliced, interpreter._statement

        def plan(self, n):
            out = sliced(self, n)
            if out is not None:
                planned.append(self.slots)
            return out

        def record(eq, view, value, drop):
            def recorded(fr):
                out = value(fr)
                if isinstance(out, np.ndarray) and out.ndim:
                    results.setdefault(eq.lhs.func.name, []).append(out)
                return out
            return statement(eq, view, recorded, drop)
        monkeypatch.setattr(interpreter._Planner, "sliced", plan)
        monkeypatch.setattr(interpreter, "_statement", record)
        # Five rows per slab leave a last slab of four on 24 rows.
        monkeypatch.setattr(interpreter, "SLAB_POINTS", 5 * row)
        for workers in (1, 2):
            planned.clear()
            results.clear()
            bufs = fixture(op, 3)
            op.apply(steps=3, buffers=bufs, workers=workers, dt=DT)
            assert planned == slots
            assert results
            for outs in results.values():
                memories = []
                for out in outs:
                    if not any(np.shares_memory(out, m) for m in memories):
                        memories.append(out)
                assert len(memories) == workers
                assert not any(np.shares_memory(m, b.data)
                               for m in memories for b in bufs.values())

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
            assert rel_err(a, b) <= 1e-5
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
        # Cut into 4,096 slabs of 2 points, each slab edge would add the
        # increments of its shared point in the opposite order, and two
        # workers would race on it: the nest runs as one slab instead.
        got = set()
        for slab, workers in ((interpreter.SLAB_POINTS, 1), (2, 1), (2, 2),
                              (2, 4)):
            monkeypatch.setattr(interpreter, "SLAB_POINTS", slab)
            bufs = random_fixture(op, 1)
            op.apply(steps=1, buffers=bufs, workers=workers)
            got.add(bufs["u"].data.tobytes())
        assert len(got) == 1
        refs = random_fixture(op, 1)
        op.reference(steps=1, buffers=refs)
        _assert_close(bufs["u"].data, refs["u"].data)

    def test_pool_runs_only_split_slabs(self, monkeypatch, submitted):
        from stencilc.backend import interpreter
        from stencilc.symbolic import FunctionDecl, interpolate
        coupled = Operator(coupled_equations(8, shape=(16, 16, 16), so=8))
        coupled.apply(steps=3, buffers=random_fixture(coupled, 3), dt=DT,
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


def _rotated_case(block, dtype="f64"):
    """A ``BATCH_CASES`` entry: rotated SO4 on 27x29 in ``dtype``."""
    return (lambda b: _rotated_so4_op(b, (27, 29), dtype), block,
            rotated_fixture, 1e-12 if dtype == "f64" else 1e-5)


#: (block shape -> operator, block shape, fixture, oracle tolerance)
#: of blocked operators; the rotated ones are ragged along every block
#: loop
BATCH_CASES = {
    "rotated-so4": _rotated_case({"x": 8, "y": 8}),
    "rotated-so4-x": _rotated_case({"x": 8}),
    "rotated-so4-y": _rotated_case({"y": 8}),
    "rotated-so4-f32": _rotated_case({"x": 8, "y": 8}, "f32"),
    "rotated-so4-f32-x": _rotated_case({"x": 8}, "f32"),
    "rotated-so4-f32-y": _rotated_case({"y": 8}, "f32"),
    "tti-so8": (_tti_so8_op, {"x": 8, "y": 8, "z": 8}, random_fixture,
                1e-12),
    "tti-so8-xy": (_tti_so8_op, {"x": 8, "y": 8}, random_fixture, 1e-12),
    "acoustic3d-so4": (lambda block: Operator(
        acoustic_example((13, 13, 13), so=4)[1], mode="aggressive",
        block=block), {"x": 4, "y": 4}, random_fixture, 1e-12),
    "coupled3": (lambda block: Operator(coupled_equations(3),
                                        mode="aggressive", block=block),
                 {"x": 4, "y": 4, "z": 4}, random_fixture, 1e-12),
}


class TestBatchedBlocks:
    """A band of block loops runs as one block, each loop it tiles over
    its whole range, so a statement costs one numpy call per term and
    slab, not per block."""

    @staticmethod
    def _apply(op, fixture, workers=1, steps=3):
        bufs = fixture(op, steps)
        report = op.apply(steps=steps, buffers=bufs, workers=workers,
                          dt=DT)[1]
        return ({name: b.data.tobytes() for name, b in bufs.items()},
                _counts(report))

    @pytest.mark.parametrize("case", sorted(BATCH_CASES))
    def test_batched_equals_unblocked(self, case):
        # One block computes each point as the unblocked operator does,
        # so every output keeps its bits, and the report its counts.
        build, block, fixture, rel = BATCH_CASES[case]
        want, counts = self._apply(build(None), fixture)
        op = build(block)
        for workers in (1, 2, 4):
            assert self._apply(op, fixture, workers) == (want, counts)
        refs = fixture(op, 3)
        op.reference(steps=3, buffers=refs, dt=DT)
        for name, buf in refs.items():
            out = np.frombuffer(want[name], buf.data.dtype)
            assert rel_err(out, buf.data.ravel()) <= rel

    def test_blocked_counts_unblocked_points(self):
        # Run as one block, the producer of the block-local temporary
        # computes each point once: rotated SO4 on 24x24 in 8x8 blocks
        # counts the unblocked operator's 7,488 statement executions in
        # its stencil section over 3 steps. The blocked C executes 8,640,
        # as it recomputes the temporary's halo in every block.
        report = _rotated_apply(_rotated_so4_op({"x": 8, "y": 8}))[1]
        assert _counts(report)["section1"] == (7488, 7488, 0)

    def test_dispatch_does_not_grow_with_blocks(self, dispatched):
        # 24x24 in 8x8 blocks is 9 blocks, in 4x4 blocks 36; either way
        # every time step calls each of the 4 statements once.
        eight, four = (_per_step(dispatched, _rotated_op(block),
                                 rotated_fixture)
                       for block in ({"x": 8, "y": 8}, {"x": 4, "y": 4}))
        assert eight == four == 4

    def test_overlapping_writes_run_block_by_block(self, monkeypatch):
        # Declared shared, the block-local temporary is written at the
        # same points by every block; run as one block, the output keeps
        # its bits.
        from stencilc.iet import walk
        op = _rotated_op({"x": 8, "y": 8})
        want, _ = _rotated_apply(_rotated_op())
        for node in walk(op.iet):
            for d in getattr(node, "declarations", ()):
                monkeypatch.setattr(d, "scope", "shared")
        got, _ = _rotated_apply(op)
        assert got["w"].data.tobytes() == want["w"].data.tobytes()

    def test_slabs_split_later_block_loops(self, monkeypatch):
        # At 200 points per slab the rows of 29 points run six to a slab,
        # and the output and counts do not change.
        from stencilc.backend import interpreter
        op = _rotated_so4_op({"x": 8, "y": 8}, (27, 29))
        want, want_report = _rotated_apply(op)
        monkeypatch.setattr(interpreter, "SLAB_POINTS", 200)
        for workers in (1, 2):
            got, report = _rotated_apply(op, workers=workers)
            assert got["w"].data.tobytes() == want["w"].data.tobytes()
            assert _counts(report) == _counts(want_report)

    def test_scalar_temporaries_dropped_after_last_read(self, monkeypatch):
        # A slab holds each array-valued scalar temporary over all its
        # points, so each is dropped after the statement that reads it
        # last: none is left when its nest's last statement ends.
        from stencilc.backend import interpreter
        from stencilc.iet import ExpressionStmt, iterations
        op = _tti_so8_op({"x": 8, "y": 8, "z": 8})
        ends = {id(it.children[-1].eq) for it in iterations(op.iet)
                if it.children and all(isinstance(k, ExpressionStmt)
                                       for k in it.children)}
        live = {}
        original = interpreter._statement

        def counted(eq, *args):
            run_statement = original(eq, *args)

            def statement(fr):
                run_statement(fr)
                live[id(eq)] = max(live.get(id(eq), 0), len(fr.scalars))
            return statement
        monkeypatch.setattr(interpreter, "_statement", counted)
        op.apply(steps=1, buffers=random_fixture(op, 1), dt=DT)
        assert max(live.values()) > 0
        closing = [live[k] for k in ends if k in live]
        assert closing and not any(closing)

    @staticmethod
    def _wide_buffers(op, view):
        """The rotated fixture with each buffer ``view(wide)`` of an
        array ``wide`` twice as long along its last axis."""
        bufs = rotated_fixture(op, 3)
        for name, buf in bufs.items():
            wide = np.zeros(buf.extents[:-1] + (2 * buf.extents[-1],))
            data = view(wide)
            data[...] = buf.data
            bufs[name] = DataBuffer(name, buf.dtype, buf.extents, data)
        return bufs

    def test_noncontiguous_buffers(self):
        # Arrays that are strided views into larger ones are read and
        # written through the same views as contiguous ones.
        op = _rotated_so4_op({"x": 8, "y": 8}, (27, 29))
        want, _ = _rotated_apply(op)
        bufs = self._wide_buffers(op, lambda wide: wide[..., ::2])
        op.apply(steps=3, buffers=bufs, dt=DT)
        assert not bufs["w"].data.flags.contiguous
        assert bufs["w"].data.tobytes() == want["w"].data.tobytes()

    def test_as_strided_buffers(self):
        # numpy's as_strided view has for its base an object that wraps
        # the array owning the memory, not that array: it is read and
        # written like any other view.
        from numpy.lib.stride_tricks import as_strided
        op = _rotated_so4_op({"x": 8, "y": 8}, (27, 29))
        want, _ = _rotated_apply(op)
        bufs = self._wide_buffers(op, lambda wide: as_strided(
            wide, wide[..., ::2].shape, wide[..., ::2].strides))
        assert not isinstance(bufs["w"].data.base, np.ndarray)
        op.apply(steps=3, buffers=bufs, dt=DT)
        assert bufs["w"].data.tobytes() == want["w"].data.tobytes()

    @pytest.mark.parametrize("block", [None, {"x": 8, "y": 8}],
                             ids=["unblocked", "blocked"])
    def test_temporaries_stay_out_of_buffers(self, block):
        # Array temporaries are sized from each apply's own bounds. Kept
        # in the caller's buffers, the ones a narrower apply made were too
        # small for the next apply on the same buffers.
        op = _rotated_so4_op(block)
        bufs = rotated_fixture(op, 3)
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


def test_compile_builds_few_constants_and_powers(monkeypatch):
    # The constructors keep their normal-form inputs: a factor whose base
    # occurs once is not rebuilt as a fresh Pow, and a lone constant is
    # not rebuilt. Before they did, this compile built 256 Pow and 1,068
    # Constant nodes; now it builds 8 and 302.
    from stencilc.symbolic import Constant, Pow
    eqs = coupled_equations(8, so=8)
    built = {Constant: 0, Pow: 0}
    for cls in built:
        def counted(self, *args, _init=cls.__init__, _cls=cls):
            built[_cls] += 1
            _init(self, *args)
        monkeypatch.setattr(cls, "__init__", counted)
    clear_cache()
    Operator(eqs, mode="advanced")
    clear_cache()
    assert built[Pow] <= 10 and built[Constant] <= 380, built


#: SHA-256 of the emitted C (through ``Operator`` and through ``emit_c``
#: with no function list) and of the tree dump, for four small operators:
#: "acoustic" has accesses inside left-hand-side indices and opaque
#: offsets (source and receiver), "wave" a sub-sampled snapshot, "tti"
#: hundreds of CSE temporaries.
GOLDEN_SHA256 = {
    "acoustic": ("7751c1464ff609765c704864580a1a48de68956c194606ed0e2d510386e85590",
                 "6426da5139b132d5956ca80dc44c4aa3fe04486b66343cc9ada152d2478d6eec",
                 "7ecb08dedda6db40c7dec4af74caa30a61b47377db4aa446d5290fc6aa7647f3"),
    "wave": ("b95b18a49c6649ef759687c6a00b18d6a86e9432aee6120c4eb9b0797518bab8",
             "0d841f2765afe7266e5a52ff350f312bcf777bbce72ae929bb7a4cb4bd10aaf3",
             "69e436e760e6855f320952b59f93f50a775ae32696fc834f297ec90450bb106f"),
    "rotated": ("9520c021c88ce2cd9cd39d0a5752320bc1f9db9fc9e7b572d26941a6931ce7ec",
                "9520c021c88ce2cd9cd39d0a5752320bc1f9db9fc9e7b572d26941a6931ce7ec",
                "7c86f9f642c1ac4d0b4e1c125c261cd9562e3d85f3530e81551e33101c50d564"),
    "coupled": ("405fb5f597ccfc73d3e0e541b2b5dde609fe67f2df38db2867c1b135784e758b",
                "a1600c5dbd7f188f538e5a15b7a82beb08e49b2d5a3fc61aa525e8defcb6c0de",
                "e2101404de0c3cff619b672617b2cd498267ed4adf248879023b2b09acedcc84"),
    "tti": ("24d71e1ad69021395e39f5ec9f3bf8b58fe9ef73008a13c0e50a9c33daf82ad0",
            "c5922b71b7db2b537df36daa7fe5092d98b97768401bfbebb439961b9df046c3",
            "f52c2e3c8d21151d6abdf404b8ca953ef04e192073a289c45f7199b8c914d079"),
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
        elif name == "tti":
            op = Operator(tti_equations((12, 12, 12), so=8), mode="advanced")
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


def _xfail(name):
    """``name``'s parameter, a strict xfail where its entry has one."""
    config = CONFIGS[name]
    if config.xfail is None:
        return name
    raises, reason = config.xfail
    return pytest.param(name, marks=pytest.mark.xfail(
        strict=True, raises=raises, reason=reason))


@pytest.mark.parametrize("name", [_xfail(n) for n in sorted(CONFIGS)])
def test_executors_agree(name):
    # Workers, oracle and C on every configuration of the registry. Among
    # them: TTI at SO 8 in aggressive mode, whose alias producers each
    # cover their own group's span (given the hull of all spans, the
    # narrower ones read p and r past their halo); the coupled and
    # two-field operators, whose derivatives of different fields share
    # one offset pattern and so no alias pivot; the time index, which
    # wraps with (((t + k)%3 + 3)%3) in the C; rotated temporaries, which
    # the C runs block by block and the interpreter all blocks at once;
    # and h_x**-2 at spacing 0.7, which the C writes as 1.0F/(h_x*h_x).
    config = CONFIGS[name]
    check_executors(config.operator(), config.steps, config.fill)


@pytest.mark.skipif(shutil.which("gcc") is None, reason="needs gcc")
@pytest.mark.parametrize("build", [
    _tti_so8_op,
    lambda: _tti_so8_op({"x": 8, "y": 8, "z": 8}),
    lambda: Operator(coupled_equations(3), mode="aggressive",
                     block={"x": 4, "y": 4, "z": 4}),
    lambda: Operator(tti_equations((12, 12, 12), so=4), mode="advanced"),
], ids=["tti-so8", "tti-so8-blocked", "coupled3-aggressive-blocked",
        "tti-so4-advanced"])
def test_emitted_c_matches_interpreter(build):
    # Ten steps, past the three or four of the registry: the C and the
    # interpreter stay bit-equal over several turns of the time buffers.
    op = build()
    steps = 10
    got, want = random_fixture(op, steps), random_fixture(op, steps)
    op.apply(steps=steps, buffers=want, dt=DT)
    env = op.default_params(steps)
    env["dt"] = DT
    run_c(op, got, env)
    assert all(buf.data.any() for buf in want.values())
    for name, buf in got.items():
        assert buf.data.tobytes() == want[name].data.tobytes(), name


@pytest.mark.skipif(shutil.which("gcc") is None, reason="needs gcc")
def test_per_point_reciprocal_matches_c():
    # The source injection divides by m per point. The C computes 1.0/m,
    # as numpy's array power does; the scalar power m ** -1 calls libm's
    # pow, which is one bit off at this m.
    m = 1.502872
    assert m ** -1 != 1.0 / m
    op = Operator(acoustic_example((24, 24), so=4)[1])
    got, want = (random_fixture(op, 6) for _ in range(2))
    for bufs in (got, want):
        bufs["m"].data[:] = m
    op.apply(steps=6, buffers=want, dt=DT)
    env = op.default_params(6)
    env["dt"] = DT
    run_c(op, got, env)
    assert got["u"].data.tobytes() == want["u"].data.tobytes()


@pytest.mark.parametrize("mode", MODES)
def test_increment_recurrence_runs_in_order(mode):
    # u[x] += u[x - 1] reads what the previous iteration wrote: a carried
    # flow, not a reduction, so x is sequential, with no simd or atomic.
    from stencilc.iet import SEQUENTIAL, iterations
    op = Operator(recurrence_equations(), mode=mode)
    assert [sorted(it.properties) for it in iterations(op.iet)] == \
        [[SEQUENTIAL]]
    assert "omp simd" not in op.source and "omp atomic" not in op.source
    got, want = random_fixture(op, 1), random_fixture(op, 1)
    op.apply(steps=1, buffers=got)
    op.reference(steps=1, buffers=want)
    assert got["u"].data.tobytes() == want["u"].data.tobytes()


def _props_of(op):
    from stencilc.iet import iterations
    return [(it.dim.name, sorted(it.properties))
            for it in iterations(op.iet)]


def _per_point(report):
    return sum(slot["per_point"] for slot in report.values())


@pytest.mark.parametrize("block", [None, {"x": 4}], ids=["unblocked", "4"])
def test_fused_clash_pair_runs_in_two_parallel_loops(block):
    # b reads a[x+1] and a[x-1]: in one x loop either direction reads one
    # of them before it is written. The carried anti-dependence puts x in
    # the new cluster's atomics, so b gets its own x loop.
    from stencilc.iet import BLOCKED, PARALLEL, VECTORIZABLE
    op = Operator(legality_equations("clash"), block=block)
    inner = ("x", sorted([PARALLEL, VECTORIZABLE]))
    outer = [("xb", sorted([BLOCKED, PARALLEL]))] if block else []
    assert _props_of(op) == (outer + [inner]) * 2
    assert _per_point(op.apply(steps=1)[1]) == 0


def test_carried_anti_pair_runs_sliced():
    # b = a[x+1] must read a before a = c overwrites it: two parallel
    # loops rather than one sequential loop run per point.
    op = Operator(legality_equations("anti"))
    report = op.apply(steps=1)[1]
    assert _per_point(report) == 0
    assert sum(slot["sliced"] for slot in report.values()) == 22


@pytest.mark.parametrize("name,order", [
    ("flow-past-atomic", [["b"], ["a"], ["d"]]),
    ("pinned", [["a"], ["b"], ["d"]]),
])
def test_grouping_stops_at_the_cluster_d_reads(name, order):
    # d has the iteration space of the first cluster, not of the second,
    # and reads what the second writes: one point back along the second's
    # atomic x, or at the same point. Grouping d with the first cluster
    # would run it before the second, so the scan stops at the second
    # and d starts a third cluster.
    op = Operator(legality_equations(name))
    assert [[eq.lhs.func.name for eq in c.eqs]
            for c in op.artifact.clusters] == order


def test_backward_recurrence_matches_oracle():
    # a[x] = a[x+1] + 1 is voted backward: x runs down from the halo.
    op = Operator(legality_equations("backward"))
    bufs = op.apply(steps=1)[0]
    interior = bufs["a"].data[1:-1]
    assert interior.tolist() == [float(11 - i) for i in range(11)]
    ref = op.reference(steps=1)
    assert ref["a"].data.tobytes() == bufs["a"].data.tobytes()


@pytest.mark.parametrize("name,t_props", [
    ("grad", ["atomic-updates", "parallel"]),
    ("acc", ["sequential"]),
])
def test_time_loop_over_storage_it_does_not_index(name, t_props):
    # grad and acc have no time index, so every time iteration reuses
    # their storage: the increment is a reduction over t, and the plain
    # update a flow carried by t. The time loop comes first, and the
    # space loops inside it, whose distances are all 0, run sliced, in
    # the oracle's order to the bit.
    op = Operator(legality_equations(name))
    assert dict(_props_of(op))["t"] == t_props
    assert _props_of(op)[0][0] == "t"
    got, want = random_fixture(op, 5), random_fixture(op, 5)
    assert _per_point(op.apply(steps=5, buffers=got)[1]) == 0
    op.reference(steps=5, buffers=want)
    for key, buf in want.items():
        assert got[key].data.tobytes() == buf.data.tobytes(), key


def _temp_writes(op):
    from stencilc.iet import statements
    return [s.eq.lhs for s in statements(op.iet)
            if s.eq.lhs.func.kind == "temp"]


@pytest.mark.parametrize("mode", ["advanced", "aggressive"])
def test_invariant_that_leaves_no_loop_stays_inline(mode):
    op = Operator(invariant_equations("inline"), mode=mode)
    assert _temp_writes(op) == []


@pytest.mark.parametrize("mode", ["advanced", "aggressive"])
def test_partial_invariant_hoisted_out_of_y(mode):
    op = Operator(invariant_equations("row"), mode=mode)
    (temp,) = _temp_writes(op)
    assert [d.name for d in temp.func.dims] == ["x"]
    text = op.dump_iet()
    assert text.index("Eq(%r" % temp) < text.index("for y")


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
