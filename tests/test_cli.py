"""CLI tests: spec parsing with located diagnostics, pretty-print
round-trips, and the compile/run/report commands."""

import numpy as np
import pytest

from stencilc.cli.driver import main, report_text
from stencilc.cli.parser import (ProblemSpec, SpecError, parse_spec,
                                 pretty_print)

ACOUSTIC = """\
# 1D acoustic operator
grid shape=(21,)
function m space_order=2
timefunction u space_order=2 time_order=2
sparsetimefunction src npoint=1 coords=((10.0,),)
eq u.forward = solve(m*u.dt2 - u.laplace, u.forward)
src.inject(field=u.forward, expr=src * dt**2 / m)
params steps=10 mode=advanced precision=f64
"""


class TestParse:
    def test_acoustic_counts(self):
        spec = parse_spec(ACOUSTIC)
        assert spec.grid is not None
        assert len(spec.functions) == 3
        assert len(spec.statements) == 2
        # one stencil equation plus two injection corners in 1D
        assert len(spec.equations) == 3
        assert spec.params == {"steps": 10, "mode": "advanced",
                               "precision": "f64"}

    def test_unknown_dimension_suffix(self):
        text = "grid shape=(11,)\ntimefunction u\neq u = u.dq\n"
        with pytest.raises(SpecError) as err:
            parse_spec(text)
        assert "unknown dimension q" in str(err.value)
        assert err.value.line == 3
        assert err.value.col > 0

    def test_undeclared_identifier(self):
        text = "grid shape=(11,)\ntimefunction u\neq u = v + 1\n"
        with pytest.raises(SpecError) as err:
            parse_spec(text)
        assert "undeclared identifier 'v'" in str(err.value)

    def test_syntax_error_location(self):
        text = "grid shape=(11,)\ntimefunction u\neq u = (u +\n"
        with pytest.raises(SpecError) as err:
            parse_spec(text)
        assert err.value.line == 3

    def test_missing_grid(self):
        with pytest.raises(SpecError):
            parse_spec("function m\n")

    def test_duplicate_name(self):
        with pytest.raises(SpecError):
            parse_spec("grid shape=(11,)\nfunction m\nfunction m\n")

    def test_region_interior(self):
        spec = parse_spec("grid shape=(11,)\ntimefunction u\n"
                          "eq u.forward = u region=interior\n")
        assert spec.equations[0].region == "interior"

    def test_interpolate(self):
        text = ("grid shape=(21,)\ntimefunction u\n"
                "sparsetimefunction rec npoint=2 coords=((5.0,), (9.5,))\n"
                "rec.interpolate(u)\n")
        spec = parse_spec(text)
        assert len(spec.equations) == 1
        assert spec.functions["rec"].coordinate_values == [(5.0,), (9.5,)]

    def test_snapshot_factor(self):
        text = ("grid shape=(21,)\ntimefunction u\n"
                "timefunction us save=5 factor=4\n"
                "eq us = u\n")
        spec = parse_spec(text)
        us = spec.functions["us"]
        assert us.time_dim.kind == "conditional"
        assert us.time_dim.factor == 4


PRELUDE = """\
grid shape=(11,)
timefunction u
sparsetimefunction src npoint=1 coords=((5.0,),)
"""

#: malformed statements, each with the token its error must point into
MALFORMED = [
    ("function m space_order=2.0", "space_order"),
    ("grid shape=('a',)", "shape"),
    ("sparsetimefunction rec npoint=1 coords=(('a',),)", "coords"),
    ("eq u = u.dq", "dq"),
    ("function m2 bogus=1", "bogus"),
    ("eq u.dx = u", "dx"),
    ("eq u = dt.forward", "forward"),
    ("eq u = u < 1", "<"),
    ("eq u = u / 0", "0"),
    ("src.bogus(u)", "bogus"),
    ("eq u = (u +", "("),
    ("function lambda", "lambda"),
    ("params precision=f16", "f16"),
    ("params mode=fast", "fast"),
]


@pytest.mark.parametrize("stmt,token", MALFORMED)
def test_spec_errors_are_located(tmp_path, capsys, stmt, token):
    text = ("" if stmt.startswith("grid") else PRELUDE) + stmt + "\n"
    line, start = text.count("\n"), stmt.index(token) + 1
    with pytest.raises(SpecError) as err:
        parse_spec(text)
    assert err.value.line == line
    assert start <= err.value.col < start + len(token)
    path = tmp_path / "bad.spec"
    path.write_text(text)
    assert main(["compile", str(path)]) == 1
    assert "error: line %d, col %d: " % (line, err.value.col) \
        in capsys.readouterr().err


def _corpus():
    specs = []
    for shape in ("(21,)", "(12, 14)"):
        for so in (2, 4):
            for mode in ("basic", "advanced", "aggressive"):
                coords = "((5.0,),)" if "," not in shape.strip("(),") \
                    else "((5.0, 5.0),)"
                specs.append(
                    "grid shape=%s\n"
                    "function m space_order=%d\n"
                    "timefunction u space_order=%d time_order=2\n"
                    "sparsetimefunction src npoint=1 coords=%s\n"
                    "eq u.forward = solve(m*u.dt2 - u.laplace, u.forward)\n"
                    "src.inject(field=u.forward, expr=src * dt**2 / m)\n"
                    "params steps=5 mode=%s\n"
                    % (shape, so, so, coords, mode))
    for extra in (
        "grid shape=(11,)\ntimefunction u\neq u.forward = u + 0.5*u.dx\n",
        "grid shape=(11,) extent=(10.0,) origin=(1.0,)\nfunction f\n"
        "eq f = sin(f) + sqrt(f + 2)\n",
        "grid shape=(9, 9)\ntimefunction u\n"
        "eq u.forward = u.dx2 + u.dy2 region=interior\n",
    ):
        specs.append(extra)
    return specs


class TestRoundTrip:
    def test_pretty_print_reparses(self):
        for text in _corpus():
            spec = parse_spec(text)
            again = parse_spec(pretty_print(spec))
            assert again.signature() == spec.signature()


class TestDriver:
    def _write(self, tmp_path, text=ACOUSTIC):
        path = tmp_path / "problem.spec"
        path.write_text(text)
        return str(path)

    def test_compile(self, tmp_path, capsys):
        path = self._write(tmp_path)
        cpath = tmp_path / "kernel.c"
        assert main(["compile", path, "--emit-c", str(cpath)]) == 0
        out = capsys.readouterr().out
        assert "compiled 3 equations" in out
        assert "int kernel(" in cpath.read_text()

    def test_run_and_dump(self, tmp_path, capsys):
        path = self._write(tmp_path)
        dump_path = tmp_path / "u.bin"
        rc = main(["run", path, "--steps", "5", "--dump",
                   "u=%s" % dump_path])
        assert rc == 0
        out = capsys.readouterr().out
        assert "points=" in out
        raw = dump_path.read_bytes()
        header, _, payload = raw.partition(b"\n")
        name, dtype, ndim, *extents = header.decode().split()
        assert (name, dtype, ndim) == ("u", "f64", "2")
        shape = tuple(int(e) for e in extents)
        assert len(payload) == int(np.prod(shape)) * 8
        arr = np.frombuffer(payload, dtype="<f8").reshape(shape)
        assert arr.shape == (3, 23)

    def test_run_blocked_workers(self, tmp_path):
        text = ACOUSTIC.replace("shape=(21,)", "shape=(24, 24)") \
                       .replace("coords=((10.0,),)", "coords=((10.0, 10.0),)")
        path = self._write(tmp_path, text)
        assert main(["run", path, "--steps", "3", "--block", "8x8",
                     "--workers", "2"]) == 0

    def test_run_block_auto(self, tmp_path, capsys):
        # Autotuning times short runs, which need the caller's dt
        path = self._write(tmp_path)
        outs = []
        for extra in ([], ["--block", "auto"]):
            assert main(["run", path, "--steps", "3"] + extra) == 0
            outs.append(capsys.readouterr().out)
        assert "points=" in outs[0] and outs[1] == outs[0]
        assert main(["compile", path, "--block", "auto"]) == 0

    def test_compile_zero_block(self, tmp_path, capsys):
        # Operator rejects it: its C loop would step by 0 and never end
        path = self._write(tmp_path)
        assert main(["compile", path, "--block", "0"]) == 1
        assert "bad block" in capsys.readouterr().err

    def test_report_deterministic(self, tmp_path):
        path = self._write(tmp_path)
        spec = parse_spec(ACOUSTIC)
        first = report_text(spec, "aggressive")
        second = report_text(parse_spec(ACOUSTIC), "aggressive")
        assert first == second
        assert "total after:" in first
        assert "for t = t_m to t_M:" in first

    def test_report_modes_ordered(self):
        spec = parse_spec(ACOUSTIC)
        totals = {}
        for mode in ("basic", "aggressive"):
            text = report_text(parse_spec(ACOUSTIC), mode)
            line = [ln for ln in text.splitlines()
                    if ln.startswith("total after:")][0]
            totals[mode] = int(line.split(":")[1])
        assert totals["aggressive"] <= totals["basic"]

    def test_report_empty(self):
        assert report_text(ProblemSpec(), "basic") == "clusters: 0\n"

    def test_error_exit_code(self, tmp_path, capsys):
        path = self._write(tmp_path, "grid shape=(11,)\neq u = 1\n")
        assert main(["compile", path]) == 1
        err = capsys.readouterr().err
        assert "undeclared identifier" in err
        assert "line 2" in err
