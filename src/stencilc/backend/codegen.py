"""C source emission.

Produces a single C99-compatible translation unit from a placed,
annotated loop tree: one entry function taking every array as a
``dataobj`` (flat buffer plus extents) and every free scalar as a typed
parameter. Parallel and vectorizable annotations become OpenMP-style
pragma lines. The output is a pure function of the tree, so identical
input yields byte-identical text.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Optional, Sequence

from ..iet import (ATOMIC, PARALLEL, VECTORIZABLE, Block,
                   Conditional, Declaration, ExpressionStmt, Iteration,
                   Section, iterations, statements, walk)
from ..lowering import collect_functions
from ..symbolic.expr import (Access, Add, Call, Constant, Expr, Mul, Pow,
                             Symbol, free_symbols)

_HEADER = """\
#include <math.h>
#include <stdlib.h>

#define MIN(a, b) (((a) < (b)) ? (a) : (b))
#define MAX(a, b) (((a) > (b)) ? (a) : (b))

struct dataobj
{
  void *restrict data;
  int size[8];
};
"""


def _ctype(dtype: str) -> str:
    return "float" if dtype == "f32" else "double"


class _Emitter:
    def __init__(self, dtype: str):
        self.ctype = _ctype(dtype)
        self.lines: List[str] = []
        self.depth = 0

    def put(self, text: str = ""):
        self.lines.append(("  " * self.depth + text).rstrip())

    # -- expressions ---------------------------------------------------------

    def const(self, c: Constant) -> str:
        v = c.value
        if isinstance(v, Fraction) and v.denominator == 1:
            return str(v.numerator)
        return repr(float(v))

    def factor(self, e: Expr, in_index: bool) -> str:
        text = self.expr(e, in_index)
        if isinstance(e, Add) or text.startswith("-"):
            return "(%s)" % text
        return text

    def expr(self, e: Expr, in_index: bool = False) -> str:
        if isinstance(e, Constant):
            return self.const(e)
        if isinstance(e, Symbol):
            return e.name
        if isinstance(e, Access):
            return self.access(e)
        if isinstance(e, Add):
            return " + ".join(self.factor(c, in_index) for c in e.children)
        if isinstance(e, Mul):
            return "*".join(self.factor(c, in_index) for c in e.children)
        if isinstance(e, Pow):
            base = self.factor(e.base, in_index)
            n = e.exponent
            if n > 1 and n <= 4:
                return "(" + "*".join([base] * n) + ")"
            if n < 0 and n >= -4:
                return "(1.0F/%s)" % ("(" + "*".join([base] * -n) + ")"
                                      if n < -1 else base)
            return "pow(%s, %d)" % (base, n)
        if isinstance(e, Call):
            args = [self.expr(a, in_index) for a in e.args]
            if e.name == "idiv":
                return "(%s) / (%s)" % tuple(args)
            if e.name == "floor" and in_index:
                return "(int)floor(%s)" % args[0]
            if e.name in ("min", "max"):
                out = args[0]
                for a in args[1:]:
                    out = "%s(%s, %s)" % (e.name.upper(), out, a)
                return out
            return "%s(%s)" % (e.name, ", ".join(args))
        raise ValueError("cannot emit %r" % (e,))

    def _temp_sizes(self, decl) -> List[str]:
        return [str(k) if bound is None else "(%s + %d)" % (bound, k)
                for bound, k in decl.temp_extents()]

    def access(self, acc: Access) -> str:
        f = acc.func
        if f.kind == "temp" and not acc.indices:
            return f.name
        idx = [self.expr(i, in_index=True) for i in acc.indices]
        if f.is_modulo_time:
            # C's % keeps the sign of the dividend: (t - 1)%3 is -1 at t=0
            m = f.time_dim.modulo
            idx[0] = "((%s)%%%d + %d)%%%d" % (idx[0], m, m, m)
        if f.kind == "temp":
            sizes = self._temp_sizes(f)
            base = f.name
        else:
            sizes = ["%s_vec->size[%d]" % (f.name, i)
                     for i in range(len(acc.indices))]
            base = "%s_vec_data" % f.name
        flat = "(%s)" % idx[0] if len(idx) > 1 else idx[0]
        for i in range(1, len(idx)):
            flat = "(%s)*%s + (%s)" % (flat, sizes[i], idx[i])
        return "%s[%s]" % (base, flat)

    # -- statements and structure --------------------------------------------

    def declaration(self, d: Declaration):
        f = d.decl
        if not f.dims:
            self.put("%s %s;" % (self.ctype, f.name))
            return
        sizes = self._temp_sizes(f)
        self.put("%s *restrict %s = (%s*) calloc(%s, sizeof(%s));"
                 % (self.ctype, f.name, self.ctype, "*".join(sizes),
                    self.ctype))

    def free_decls(self, decls):
        for d in decls:
            if d.decl.dims:
                self.put("free(%s);" % d.decl.name)

    def stmt(self, s: ExpressionStmt, atomic: bool):
        eq = s.eq
        op = "+=" if eq.is_increment else "="
        if atomic and eq.is_increment:
            self.put("#pragma omp atomic")
        self.put("%s %s %s;" % (self.access(eq.lhs), op, self.expr(eq.rhs)))

    def body(self, node, atomic: bool):
        for d in getattr(node, "declarations", ()):
            self.declaration(d)
        for c in node.children:
            self.node(c, atomic)
        self.free_decls(getattr(node, "declarations", ()))

    def node(self, n, atomic: bool = False):
        if isinstance(n, ExpressionStmt):
            self.stmt(n, atomic)
        elif isinstance(n, Iteration):
            if PARALLEL in n.properties:
                if VECTORIZABLE in n.properties:
                    self.put("#pragma omp simd")
                else:
                    self.put("#pragma omp parallel for")
            step = "%s += %d" % (n.dim.name, n.step) if n.step != 1 \
                else "%s += 1" % n.dim.name
            if n.direction == "-":
                head = "for (int %s = %s; %s >= %s; %s -= %d)" % (
                    n.dim.name, self.expr(n.upper), n.dim.name,
                    self.expr(n.lower), n.dim.name, n.step)
            else:
                head = "for (int %s = %s; %s <= %s; %s)" % (
                    n.dim.name, self.expr(n.lower), n.dim.name,
                    self.expr(n.upper), step)
            self.put(head)
            self.put("{")
            self.depth += 1
            self.body(n, atomic or ATOMIC in n.properties)
            self.depth -= 1
            self.put("}")
        elif isinstance(n, Conditional):
            pred = " && ".join("(%s)%%%d == 0" % (g.dim.name, g.factor)
                               for g in n.guards)
            self.put("if (%s)" % pred)
            self.put("{")
            self.depth += 1
            self.body(n, atomic)
            self.depth -= 1
            self.put("}")
        elif isinstance(n, Section):
            self.put("/* section %s */" % n.name)
            self.body(n, atomic)
        elif isinstance(n, Block):
            self.body(n, atomic)
        else:
            raise ValueError("cannot emit node %r" % (n,))


def _scalar_params(iet) -> List[str]:
    names = set()
    for it in iterations(iet):
        free_symbols(it.lower, names)
        free_symbols(it.upper, names)
    for s in statements(iet):
        free_symbols(s.eq.rhs, names)
        for i in s.eq.lhs.indices:
            free_symbols(i, names)
    loop_names = {it.dim.name for it in iterations(iet)}
    for n in walk(iet):
        if isinstance(n, Conditional):
            loop_names |= {g.dim.name for g in n.guards}
    # Temporaries are sized by the _M bounds of their dimensions
    for s in statements(iet):
        f = s.eq.lhs.func
        if f.kind == "temp":
            names |= {bound for bound, _ in f.temp_extents() if bound}
    names -= loop_names
    return sorted(names)


def emit_c(iet, functions: Optional[Sequence] = None,
           dtype: str = "f64") -> str:
    """Render the tree as deterministic C text with one entry function,
    ``kernel``."""
    if functions is None:
        functions = list(collect_functions(
            s.eq for s in statements(iet)).values())
    em = _Emitter(dtype)
    params = _scalar_params(iet)
    args = ["struct dataobj *restrict %s_vec" % f.name for f in functions]
    for p in params:
        if p.endswith("_m") or p.endswith("_M"):
            args.append("const int %s" % p)
        else:
            args.append("const %s %s" % (em.ctype, p))
    # Loop variables bound outside any emitted loop (shared time loops
    # never are; keep the signature total regardless)
    em.lines.append(_HEADER)
    em.put("int kernel(%s)" % ", ".join(args))
    em.put("{")
    em.depth += 1
    for f in functions:
        em.put("%s *restrict %s_vec_data = (%s*) %s_vec->data;"
               % (em.ctype, f.name, em.ctype, f.name))
    if functions:
        em.put()
    em.node(iet)
    em.put("return 0;")
    em.depth -= 1
    em.put("}")
    return "\n".join(em.lines) + "\n"
