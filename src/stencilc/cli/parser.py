"""Line-oriented problem specifications.

A spec is a sequence of declarations, equation statements, and run
parameters:

    grid shape=(64, 64)
    function m space_order=2
    timefunction u space_order=2 time_order=2
    sparsetimefunction src npoint=1 coords=((32.0, 32.0),)
    eq u.forward = solve(m*u.dt2 - u.laplace, u.forward)
    src.inject(field=u.forward, expr=src * dt**2 / m)
    params steps=50 mode=advanced precision=f64

Equations and sparse statements are Python syntax, read from the tree
of ``ast.parse``: numbers, names, unary minus, ``+ - * /``, ``**`` with an
integer exponent, sin/cos/sqrt, solve(expr, target), derivative suffixes
(.dx, .dy, .dz, .dx2, ..., .dt, .dt2, .laplace) and time offsets
(.forward, .backward). Declaration values are Python literals, read with
``ast.literal_eval``; spec text is never executed. Errors carry the line
and 1-based column of the offending token.
"""

from __future__ import annotations

import ast
import keyword
import operator
import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from ..symbolic import (Eq, Equation, FunctionDecl, Grid, Symbol, call,
                        derivative, dt, dt2, inject, interpolate, laplace,
                        num, solve_for)
from ..symbolic.expr import Access, Constant, ExprError, mul, pow_
from ..symbolic.grid import DeclarationError, Dimension

FUNC_KINDS = ("function", "timefunction", "sparsetimefunction")
PARAM_KEYS = ("steps", "mode", "block", "precision", "workers")
#: the options of each declaration: the grid's take numbers, ``coords`` a
#: tuple of points, and the other ones non-negative integers
_OPTIONS = {"grid": ("shape", "extent", "origin"),
            "function": ("space_order", "time_order", "save", "factor",
                         "npoint", "coords")}
_BINOPS = {ast.Add: operator.add, ast.Sub: operator.sub,
           ast.Mult: operator.mul, ast.Div: operator.truediv}
#: the calls an expression may make, and their parameters
_CALLS = {"solve": ("expr", "target"), "sin": ("x",), "cos": ("x",),
          "sqrt": ("x",)}
_SUFFIXES = {"forward": lambda f: f.forward, "backward": lambda f: f.backward,
             "laplace": laplace, "dt": dt, "dt2": dt2}


class SpecError(ValueError):
    def __init__(self, msg: str, line: int, col: int):
        super().__init__("line %d, col %d: %s" % (line, col, msg))
        self.msg = msg
        self.line = line
        self.col = col


@dataclass
class ProblemSpec:
    grid: Optional[Grid] = None
    grid_args: dict = field(default_factory=dict)
    functions: Dict[str, FunctionDecl] = field(default_factory=dict)
    func_args: List[Tuple[str, str, dict]] = field(default_factory=list)
    equations: List[Equation] = field(default_factory=list)
    statements: List[str] = field(default_factory=list)
    params: dict = field(default_factory=dict)

    def signature(self) -> tuple:
        funcs = tuple((kind, name, tuple(sorted(kw.items())))
                      for kind, name, kw in self.func_args)
        return (tuple(sorted(self.grid_args.items())), funcs,
                tuple(repr((eq.lhs, eq.rhs, eq.region, eq.is_increment))
                      for eq in self.equations),
                tuple(sorted(self.params.items())))


# -- Statements --------------------------------------------------------------


class _Reader:
    """The tree of one statement, ``text``, which starts at 0-based column
    ``off`` of line ``line``, read into spec expressions. Every node kind
    outside the spec language is a ``SpecError`` at its column."""

    def __init__(self, spec: ProblemSpec, line: int, off: int, text: str):
        self.spec, self.line, self.off, self.text = spec, line, off, text
        try:
            body = ast.parse(text).body
        except SyntaxError as err:
            raise SpecError(err.msg, line, off + (err.offset or 1)) from None
        if len(body) != 1:
            raise SpecError("expected one statement", line, off + 1)
        self.stmt = body[0]

    def fail(self, msg: str, node, col: Optional[int] = None):
        """Raise at ``col`` of the statement, 0-based, or at ``node``."""
        col = node.col_offset if col is None else col
        raise SpecError(msg, self.line, self.off + col + 1)

    def unsupported(self, node):
        """Fail at the operator of an operation, or else at ``node``."""
        left = node.values[0] if isinstance(node, ast.BoolOp) else \
            getattr(node, "left", None)
        rest = self.text[left.end_col_offset:node.end_col_offset].lstrip(
            " \t)") if left else None
        self.fail("unsupported syntax %r" % ast.unparse(node), node,
                  None if rest is None else node.end_col_offset - len(rest))

    def expr(self, node):
        if isinstance(node, ast.Constant) and type(node.value) in (int, float):
            return num(node.value)
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            return mul(num(-1), self.expr(node.operand))
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow):
            base, exp = self.expr(node.left), self.expr(node.right)
            if not (isinstance(exp, Constant) and isinstance(
                    exp.value, Fraction) and exp.value.denominator == 1):
                self.fail("exponent must be an integer", node.right)
            return pow_(base, int(exp.value))
        if isinstance(node, ast.BinOp) and type(node.op) in _BINOPS:
            left, right = self.expr(node.left), self.expr(node.right)
            try:
                return _BINOPS[type(node.op)](left, right)
            except ExprError as err:
                self.fail(str(err), node.right)
        if isinstance(node, ast.Call):
            return self.call(node)
        if not isinstance(node, (ast.Name, ast.Attribute)):
            self.unsupported(node)
        ref = self.ref(node)
        return ref.at if isinstance(ref, FunctionDecl) else ref

    def call(self, node: ast.Call):
        name = getattr(node.func, "id", None)
        if name not in _CALLS:
            self.fail("unknown call %r" % ast.unparse(node.func), node)
        if node.keywords or len(node.args) != len(_CALLS[name]):
            self.fail("%s takes (%s)" % (name, ", ".join(_CALLS[name])), node)
        args = [self.expr(a) for a in node.args]
        if name != "solve":
            return call(name, *args)
        if not isinstance(args[1], Access):
            self.fail("solve target must be a function reference",
                      node.args[1])
        try:
            return solve_for(*args)
        except ValueError as err:
            self.fail(str(err), node)

    def resolve(self, node: ast.Name):
        if node.id in self.spec.functions:
            return self.spec.functions[node.id]
        g = self.spec.grid
        if node.id in ["dt"] + [s.name for s in g.spacing_symbols
                                + g.origin_symbols]:
            return Symbol(node.id)
        self.fail("undeclared identifier %r" % node.id, node)

    def ref(self, node):
        """A name and its suffixes: a declaration, or what the last suffix
        made of it."""
        if isinstance(node, ast.Name):
            return self.resolve(node)
        if not isinstance(node, ast.Attribute):
            self.fail("expected a name", node)
        cur, name = self.ref(node.value), node.attr
        col = node.end_col_offset - len(name)
        if not isinstance(cur, FunctionDecl):
            self.fail("suffix .%s needs a declared function" % name, node, col)
        m = re.fullmatch(r"d([a-z])(2?)", name)
        dim = next((d for d in cur.grid.dimensions
                    if m and d.name == m.group(1)), None)
        if name not in _SUFFIXES and dim is None:
            self.fail("unknown dimension %s" % m.group(1) if m else
                      "unknown suffix %r" % name, node, col)
        try:
            if name in _SUFFIXES:
                return _SUFFIXES[name](cur)
            return derivative(cur, dim, cur.space_order,
                              2 if m.group(2) else 1)
        except (DeclarationError, ValueError) as err:
            self.fail(str(err), node, col)

    def equation(self, region: str) -> Equation:
        """``f = expr``, ``f.forward = expr`` or ``f.backward = expr``."""
        stmt = self.stmt
        if not (isinstance(stmt, ast.Assign) and len(stmt.targets) == 1):
            self.fail("expected one assignment", stmt)
        target = stmt.targets[0]
        if isinstance(target, ast.Attribute) and \
                target.attr not in ("forward", "backward"):
            self.fail("only .forward/.backward allowed on the left", target,
                      target.end_col_offset - len(target.attr))
        lhs = self.ref(target)
        if not isinstance(lhs, (FunctionDecl, Access)):
            self.fail("left side must be a declared function", target)
        rhs = self.expr(stmt.value)
        try:
            return Eq(lhs, rhs, region=region)
        except DeclarationError as err:
            self.fail(str(err), stmt)

    def sparse(self) -> List[Equation]:
        """``s.inject(field=f, expr=e)`` or ``s.interpolate(e)``."""
        node = self.stmt.value if isinstance(self.stmt, ast.Expr) \
            else self.stmt
        op = getattr(node, "func", None)
        if not isinstance(op, ast.Attribute):
            self.fail("expected s.inject(...) or s.interpolate(...)", node)
        col = op.end_col_offset - len(op.attr)
        if op.attr not in ("inject", "interpolate"):
            self.fail("unknown statement .%s" % op.attr, op, col)
        decl = self.ref(op.value)
        if not isinstance(decl, FunctionDecl):
            self.fail("expected a sparse function", op.value)
        try:
            if op.attr == "interpolate":
                if len(node.args) != 1 or node.keywords:
                    self.fail("interpolate takes one expression", node)
                return interpolate(decl, self.expr(node.args[0]))
            kw = {k.arg: k.value for k in node.keywords}
            if node.args or set(kw) != {"field", "expr"}:
                self.fail("inject takes field=... and expr=...", node)
            target = self.expr(kw["field"])
            if not isinstance(target, Access):
                self.fail("inject field must be a function reference",
                          kw["field"])
            return inject(decl, target, self.expr(kw["expr"]))
        except DeclarationError as err:
            self.fail(str(err), op, col)


# -- Declarations ------------------------------------------------------------


def _numbers(v) -> Optional[tuple]:
    """``v`` as a tuple of numbers, from a number or a tuple of them."""
    v = v if isinstance(v, tuple) else (v,)
    return v if all(type(x) in (int, float) for x in v) else None


def _value(key: str, v):
    """The literal ``v`` of option ``key`` in the form its declaration
    takes, or None when it is not a value of that option."""
    if key == "coords":
        points = tuple(map(_numbers, v)) if isinstance(v, tuple) else (None,)
        return None if None in points else points
    if key in _OPTIONS["grid"]:
        return _numbers(v)
    return v if type(v) is int and v >= 0 else None


def _options(kind: str, text: str, line: int, off: int) -> Tuple[str, dict]:
    """The text before the first ``key=`` of a declaration tail that starts
    at 0-based column ``off``, and each key's value. An unknown key or a bad
    value is a ``SpecError`` at its key."""
    marks = list(re.finditer(r"([A-Za-z_]\w*)\s*=", text))
    ends = [m.start() for m in marks[1:]] + [len(text)]
    out = {}
    for m, end in zip(marks, ends):
        key, col, value = m.group(1), off + m.start() + 1, text[m.end():end]
        if key not in _OPTIONS[kind]:
            raise SpecError("unknown option %r" % key, line, col)
        try:
            out[key] = _value(key, ast.literal_eval(value.strip()))
        except (SyntaxError, TypeError, ValueError):
            out[key] = None
        if out[key] is None:
            raise SpecError("bad value for %s: %s" % (key, value.strip()),
                            line, col)
    return text[:marks[0].start()] if marks else text, out


def _require_grid(spec: ProblemSpec, line: int, col: int) -> Grid:
    if spec.grid is None:
        raise SpecError("no grid declared", line, col)
    return spec.grid


def _grid(spec, tail, line, off):
    if spec.grid is not None:
        raise SpecError("grid already declared", line, off + 1)
    rest, opts = _options("grid", tail, line, off)
    if rest.strip():
        raise SpecError("unexpected %r" % rest.strip(), line, off + 1)
    if "shape" not in opts:
        raise SpecError("grid needs shape=(...)", line, off + 1)
    try:
        spec.grid = Grid(**opts)
    except DeclarationError as err:
        raise SpecError(str(err), line, off + 1)
    spec.grid_args = opts


def _function(spec, kind, tail, line, off):
    g = _require_grid(spec, line, off + 1)
    name, kwargs = _options("function", tail, line, off)
    name = name.strip()
    if not (name.isascii() and name.isidentifier()) or \
            keyword.iskeyword(name):
        raise SpecError("expected a function name, got %r" % name,
                        line, off + 1)
    if name in spec.functions:
        raise SpecError("duplicate name %r" % name, line, off + 1)
    build = {k: v for k, v in kwargs.items() if k not in ("factor", "coords")}
    try:
        if kind == "timefunction" and "factor" in kwargs:
            build["time_dim"] = Dimension("t" + name, "conditional",
                                          parent=g.time_dim,
                                          factor=kwargs["factor"])
        if kind == "sparsetimefunction" and "coords" in kwargs:
            build["coordinates"] = [tuple(map(float, pt))
                                    for pt in kwargs["coords"]]
        decl = FunctionDecl(name, kind, g, **build)
    except (DeclarationError, TypeError) as err:
        raise SpecError(str(err), line, off + 1)
    spec.functions[name] = decl
    spec.func_args.append((kind, name, kwargs))


def _params(spec, tail, line, off):
    for m in re.finditer(r"\S+", tail):
        key, eq, value = m.group().partition("=")
        col = off + m.start() + 1
        if not eq:
            raise SpecError("expected key=value", line, col)
        if key not in PARAM_KEYS:
            raise SpecError("unknown parameter %r" % key, line, col)
        if key in ("steps", "workers"):
            try:
                spec.params[key] = int(value)
            except ValueError:
                raise SpecError("bad integer %r" % value, line, col)
        else:
            spec.params[key] = value


def _equation(spec, tail, line, off) -> Equation:
    """The equation of an ``eq`` statement's ``tail``, which starts at
    0-based column ``off``."""
    region = "domain"
    r = re.search(r"\bregion\s*=\s*(\w+)\s*$", tail)
    if r:
        region = r.group(1)
        if region != "interior":
            raise SpecError("bad region %r" % region, line,
                            off + r.start(1) + 1)
        tail = tail[:r.start()].rstrip()
    return _Reader(spec, line, off, tail).equation(region)


def parse_spec(text: str) -> ProblemSpec:
    spec = ProblemSpec()
    for line, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].rstrip()
        m = re.match(r"\s*(\S+)\s*", stripped)
        if m is None:
            continue
        head, off, tail = m.group(1), m.end(), stripped[m.end():]
        if head == "grid":
            _grid(spec, tail, line, off)
        elif head in FUNC_KINDS:
            _function(spec, head, tail, line, off)
        elif head == "params":
            _params(spec, tail, line, off)
        elif head == "eq" or "." in head:
            start = m.start(1)
            _require_grid(spec, line, start + 1)
            spec.equations.extend(
                [_equation(spec, tail, line, off)] if head == "eq" else
                _Reader(spec, line, start, stripped[start:]).sparse())
            spec.statements.append(" ".join(stripped.split()))
        else:
            raise SpecError("unknown statement %r" % head, line,
                            m.start(1) + 1)
    return spec


# -- Printing ----------------------------------------------------------------


def pretty_print(spec: ProblemSpec) -> str:
    lines = []
    if spec.grid_args:
        lines.append(" ".join(["grid"] + [
            "%s=%r" % item for item in spec.grid_args.items()]))
    for kind, name, kw in spec.func_args:
        lines.append(" ".join([kind, name] + [
            "%s=%r" % (k, kw[k]) for k in _OPTIONS["function"] if k in kw]))
    lines.extend(spec.statements)
    if spec.params:
        lines.append("params " + " ".join(
            "%s=%s" % item for item in sorted(spec.params.items())))
    return "\n".join(lines) + "\n"
