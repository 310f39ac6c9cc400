"""Immutable symbolic expression trees.

The node kinds are deliberately minimal: constants (exact rationals or
floats), named symbols, indexed array accesses, flattened n-ary sums and
products, integer powers, and a handful of builtin calls. Division is
represented as multiplication by a negative power. All constructors
normalize, so client code can rely on the flattened-form invariants:
no Add directly under Add, no Mul under Mul, deterministic child order.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Mapping, Optional, Union

Number = Union[int, float, Fraction]

#: Builtin call weight used by op_count (transcendentals cost tens of flops).
CALL_WEIGHT = 50

#: Calls understood by the evaluator and the C emitter. ``idiv`` is exact
#: integer division, used for sub-sampled (conditional) time indices;
#: ``min``/``max`` appear in loop-bound arithmetic (blocking remainders).
KNOWN_CALLS = ("sin", "cos", "sqrt", "floor", "idiv", "min", "max")


class ExprError(ValueError):
    """Raised on malformed expression construction."""


class Expr:
    """Base class for all expression nodes. Instances are immutable.

    The slots cache a node's hash, its sort key and its operation count on
    first use (a Mul also its coefficient split, an Access its offsets).
    They are not dataclass fields, so equality and pickled state ignore
    them, and they die with the node."""

    __slots__ = ("_hash", "_key", "_ops")

    def __add__(self, other):
        return add(self, _coerce(other))

    def __radd__(self, other):
        return add(_coerce(other), self)

    def __sub__(self, other):
        return add(self, mul(num(-1), _coerce(other)))

    def __rsub__(self, other):
        return add(_coerce(other), mul(num(-1), self))

    def __mul__(self, other):
        return mul(self, _coerce(other))

    def __rmul__(self, other):
        return mul(_coerce(other), self)

    def __truediv__(self, other):
        return mul(self, pow_(_coerce(other), -1))

    def __rtruediv__(self, other):
        return mul(_coerce(other), pow_(self, -1))

    def __pow__(self, exponent):
        return pow_(self, exponent)

    def __neg__(self):
        return mul(num(-1), self)


def _node(cls):
    """A frozen dataclass whose hash, the value the dataclass generates
    (``hash`` of the tuple of compared fields), is computed once per node."""
    cls = dataclass(frozen=True, slots=True)(cls)
    generated = cls.__hash__

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            h = generated(self)
            object.__setattr__(self, "_hash", h)
            return h

    cls.__hash__ = __hash__
    return cls


@_node
class Constant(Expr):
    value: Union[Fraction, float]

    def __repr__(self):
        if isinstance(self.value, Fraction):
            if self.value.denominator == 1:
                return str(self.value.numerator)
            return "%d/%d" % (self.value.numerator, self.value.denominator)
        return repr(self.value)


@_node
class Symbol(Expr):
    name: str

    def __repr__(self):
        return self.name


class _Indexed(Expr):
    __slots__ = ("_offsets",)  # an Access's ``lowering._access_offsets``


class _Product(Expr):
    __slots__ = ("_split",)  # a Mul's ``_as_coeff_term``, if it has a constant


@_node
class Access(_Indexed):
    """Indexed access into a declared function. ``func`` is compared by
    identity; two accesses are equal iff they target the same declaration
    with structurally equal index expressions."""

    func: "object"  # FunctionDecl; identity-hashed
    indices: tuple

    def __repr__(self):
        if not self.indices:
            return self.func.name
        return "%s[%s]" % (self.func.name, ", ".join(map(repr, self.indices)))


@_node
class Add(Expr):
    children: tuple

    def __repr__(self):
        return "(" + " + ".join(map(repr, self.children)) + ")"


@_node
class Mul(_Product):
    children: tuple

    def __repr__(self):
        return "*".join(map(repr, self.children))


@_node
class Pow(Expr):
    base: Expr
    exponent: int

    def __repr__(self):
        return "%r**%d" % (self.base, self.exponent)


@_node
class Call(Expr):
    name: str
    args: tuple

    def __repr__(self):
        return "%s(%s)" % (self.name, ", ".join(map(repr, self.args)))


ZERO = Constant(Fraction(0))
ONE = Constant(Fraction(1))
# The accumulators ``add`` and ``mul`` start from; Fractions are immutable.
_FZERO, _FONE = ZERO.value, ONE.value


def num(value: Number) -> Constant:
    """Wrap a Python number. Ints become exact rationals."""
    if isinstance(value, (int, Fraction)):
        return Constant(Fraction(value))
    if isinstance(value, float):
        return Constant(value)
    raise ExprError("not a number: %r" % (value,))


def _coerce(value) -> Expr:
    if isinstance(value, Expr):
        return value
    return num(value)


def _sort_key(e: Expr):
    """Deterministic child-order key, computed once per node."""
    try:
        return e._key
    except AttributeError:
        key = _build_sort_key(e)
        object.__setattr__(e, "_key", key)
        return key


def _build_sort_key(e: Expr):
    if isinstance(e, Constant):
        return (0, "", float(e.value))
    if isinstance(e, Symbol):
        return (1, e.name, 0.0)
    if isinstance(e, Access):
        return (2, e.func.name, 0.0, tuple(_sort_key(i) for i in e.indices))
    if isinstance(e, Call):
        return (3, e.name, 0.0, tuple(_sort_key(a) for a in e.args))
    if isinstance(e, Pow):
        return (4, "", float(e.exponent), _sort_key(e.base))
    if isinstance(e, Mul):
        return (5, "", 0.0, tuple(_sort_key(c) for c in e.children))
    if isinstance(e, Add):
        return (6, "", 0.0, tuple(_sort_key(c) for c in e.children))
    raise ExprError("unknown node %r" % (e,))


def _as_coeff_term(e: Expr):
    """Split ``e`` into (numeric coefficient, residual term). A Mul that
    holds a constant keeps its split, so the residual is built once per
    node; one without a constant splits into ``(1, e)``, which is not kept
    because it would hold the node itself."""
    if isinstance(e, Mul):
        try:
            return e._split
        except AttributeError:
            pass
        consts = [c.value for c in e.children if isinstance(c, Constant)]
        if not consts:
            return _FONE, e
        coeff = consts[0]
        for c in consts[1:]:
            coeff = coeff * c
        rest = [c for c in e.children if not isinstance(c, Constant)]
        term = Mul(tuple(rest)) if len(rest) > 1 else rest[0] if rest else ONE
        split = coeff, term
        object.__setattr__(e, "_split", split)
        return split
    if isinstance(e, Constant):
        return e.value, ONE
    return _FONE, e


def _folded(value, consts: list) -> Constant:
    """``Constant(value)``, or the lone constant of ``consts`` when
    ``value`` is its value, of the same type: ``add`` and ``mul`` fold one
    constant ``c`` into ``0 + c`` and ``1 * c``, which equal ``c`` for
    every Fraction and every non-zero float."""
    if len(consts) == 1 and type(consts[0].value) is type(value):
        return consts[0]
    return Constant(value)


def add(*args) -> Expr:
    """Flattened, like-term-collecting sum with deterministic ordering.
    A term that occurs once keeps the input node it came from."""
    consts: list = []
    terms: dict = {}  # term -> coefficient, in order of first occurrence
    # term -> the input node it came from, while the term occurs only once:
    # that node is already ``coeff * term`` in normal form.
    once: dict = {}
    # Explicit preorder stack: a recursive closure would leave a reference
    # cycle behind on every call.
    stack = list(reversed(args))
    while stack:
        e = _coerce(stack.pop())
        if isinstance(e, Add):
            stack.extend(reversed(e.children))
        elif isinstance(e, Constant):
            consts.append(e)
        else:
            coeff, term = _as_coeff_term(e)
            if term in terms:
                terms[term] = terms[term] + coeff
                once.pop(term, None)
            else:
                terms[term] = coeff
                once[term] = e

    children = []
    for term, coeff in terms.items():
        if coeff == 0 and not isinstance(coeff, float):
            continue
        if coeff == 1:
            children.append(term)
        elif term in once:
            children.append(once[term])
        else:
            children.append(mul(Constant(coeff), term))
    const = _FZERO
    for c in consts:
        const += c.value
    if const != 0:
        children.append(_folded(const, consts))
    children.sort(key=_sort_key)
    if not children:
        return ZERO
    if len(children) == 1:
        return children[0]
    return Add(tuple(children))


def mul(*args) -> Expr:
    """Flattened product; repeated factors merge into powers. A factor
    whose base occurs once is kept as it came."""
    consts: list = []
    powers: dict = {}  # base -> exponent, in order of first occurrence
    # base -> the input factor it came from while the base occurs only
    # once, if that factor is what ``pow_`` would build from it; else None.
    kept: dict = {}
    stack = list(reversed(args))  # preorder, as in ``add``
    while stack:
        e = _coerce(stack.pop())
        if isinstance(e, Mul):
            stack.extend(reversed(e.children))
            continue
        if isinstance(e, Constant):
            consts.append(e)
            continue
        if isinstance(e, Pow):
            base, exp = e.base, e.exponent
            if exp == 1 or isinstance(base, (Constant, Pow, Mul)):
                e = None  # built by hand: not what ``pow_`` builds
        else:
            base, exp = e, 1
        if base in powers:
            powers[base] += exp
            kept[base] = None
        else:
            powers[base] = exp
            kept[base] = e

    const = _FONE
    for c in consts:
        const *= c.value
    if const == 0 and not isinstance(const, float):
        return ZERO
    children = []
    for base, exp in powers.items():
        if exp == 0:
            continue
        factor = kept[base]
        children.append(pow_(base, exp) if factor is None else factor)
    children.sort(key=_sort_key)
    if const == 0 and isinstance(const, float):
        return Constant(0.0)
    if const != 1:
        children.insert(0, _folded(const, consts))
    if not children:
        return ONE
    if len(children) == 1:
        return children[0]
    return Mul(tuple(children))


def pow_(base, exponent) -> Expr:
    base = _coerce(base)
    if isinstance(exponent, Expr):
        if isinstance(exponent, Constant) and isinstance(exponent.value, Fraction) \
                and exponent.value.denominator == 1:
            exponent = exponent.value.numerator
        else:
            raise ExprError("power exponent must be an integer, got %r" % (exponent,))
    if not isinstance(exponent, int):
        raise ExprError("power exponent must be an integer, got %r" % (exponent,))
    if exponent == 0:
        return ONE
    if exponent == 1:
        return base
    if isinstance(base, Constant):
        if base.value == 0 and exponent < 0:
            raise ExprError("division by symbolic zero")
        return Constant(base.value ** exponent)
    if isinstance(base, Pow):
        return pow_(base.base, base.exponent * exponent)
    if isinstance(base, Mul):
        return mul(*[pow_(c, exponent) for c in base.children])
    return Pow(base, exponent)


def call(name: str, *args) -> Expr:
    if name not in KNOWN_CALLS:
        raise ExprError("unknown builtin call %r" % name)
    args = tuple(_coerce(a) for a in args)
    if name == "floor" and len(args) == 1 and isinstance(args[0], Constant):
        return Constant(Fraction(math.floor(args[0].value)))
    if name == "idiv" and all(isinstance(a, Constant) for a in args):
        a, b = args
        return Constant(Fraction(math.floor(Fraction(a.value) / Fraction(b.value))))
    if name in ("min", "max") and all(isinstance(a, Constant) for a in args):
        fold = min if name == "min" else max
        return Constant(fold(a.value for a in args))
    return Call(name, args)


def access(func, indices: Iterable[Expr]) -> Access:
    return Access(func, tuple(_coerce(i) for i in indices))


# -- Traversal helpers -------------------------------------------------------


_CHILDREN = {
    Constant: lambda e: (),
    Symbol: lambda e: (),
    Access: operator.attrgetter("indices"),
    Add: operator.attrgetter("children"),
    Mul: operator.attrgetter("children"),
    Pow: lambda e: (e.base,),
    Call: operator.attrgetter("args"),
}


def children_of(e: Expr) -> tuple:
    return _CHILDREN[type(e)](e)


def rebuild(e: Expr, new_children) -> Expr:
    if isinstance(e, Add):
        return add(*new_children)
    if isinstance(e, Mul):
        return mul(*new_children)
    if isinstance(e, Pow):
        return pow_(new_children[0], e.exponent)
    if isinstance(e, Call):
        return call(e.name, *new_children)
    if isinstance(e, Access):
        return Access(e.func, tuple(new_children))
    return e


def rewrite(e: Expr, fn: Callable[[Expr], Optional[Expr]],
            memo: Optional[dict] = None) -> Expr:
    """``e`` rewritten top-down: ``fn(node)`` returns the node's
    replacement, or None to rewrite its children instead. A node none of
    whose children changed is returned as is. Each node is visited once:
    ``memo`` maps ``id(node)`` to its result, so a caller that shares a
    memo across calls, or calls ``rewrite`` from ``fn``, keeps those
    inputs alive while the memo is. It is keyed by identity, not equality,
    because equal nodes are not interchangeable:
    ``Constant(2.0) == Constant(2)``."""
    if memo is None:
        memo = {}
    out = memo.get(id(e))
    if out is None:
        out = fn(e)
        if out is None:
            kids = children_of(e)
            new = [rewrite(c, fn, memo) for c in kids]
            out = rebuild(e, new) if any(map(operator.is_not, new, kids)) \
                else e
        memo[id(e)] = out
    return out


def substitute(e: Expr, rules: Mapping[Expr, Expr]) -> Expr:
    """Simultaneous structural replacement; constant folding happens as a
    side effect of rebuilding through the normalizing constructors."""
    return rewrite(e, rules.get) if rules else e


def free_symbols(e: Expr, into=None) -> set:
    if into is None:
        into = set()
    if isinstance(e, Symbol):
        into.add(e.name)
    for c in children_of(e):
        free_symbols(c, into)
    return into


def op_count(e: Expr) -> int:
    """Floating-point operation count, computed once per node. Index
    arithmetic inside accesses is excluded; builtin calls are weighted at
    CALL_WEIGHT."""
    if isinstance(e, (Constant, Symbol, Access)):
        return 0
    try:
        return e._ops
    except AttributeError:
        n = _build_op_count(e)
        object.__setattr__(e, "_ops", n)
        return n


def _build_op_count(e: Expr) -> int:
    if isinstance(e, Add):
        return len(e.children) - 1 + sum(op_count(c) for c in e.children)
    if isinstance(e, Mul):
        return len(e.children) - 1 + sum(op_count(c) for c in e.children)
    if isinstance(e, Pow):
        inner = op_count(e.base)
        n = e.exponent
        if n > 0:
            return inner + n - 1
        return inner + (-n - 1) + 1  # |n|-1 multiplies plus one division
    if isinstance(e, Call):
        if e.name == "idiv":
            return sum(op_count(a) for a in e.args)
        return CALL_WEIGHT + sum(op_count(a) for a in e.args)
    raise ExprError("unknown node %r" % (e,))


def evaluate(e: Expr, symbols: Mapping[str, float],
             on_access: Callable[[Access], float] = None) -> float:
    """Numerically evaluate ``e``. Symbols resolve through ``symbols``;
    accesses through ``on_access`` (required if any are present)."""
    if isinstance(e, Constant):
        return float(e.value)
    if isinstance(e, Symbol):
        try:
            return float(symbols[e.name])
        except KeyError:
            raise ExprError("unbound symbol %r" % e.name)
    if isinstance(e, Access):
        if on_access is None:
            raise ExprError("no access handler for %r" % (e,))
        return on_access(e)
    if isinstance(e, Add):
        # Left to right from the first term, as the sliced path and the
        # emitted C add. ``sum()`` starts from 0, which turns a sum of
        # -0.0 terms into +0.0, and from Python 3.12 on it compensates.
        out = evaluate(e.children[0], symbols, on_access)
        for c in e.children[1:]:
            out += evaluate(c, symbols, on_access)
        return out
    if isinstance(e, Mul):
        out = 1.0
        for c in e.children:
            out *= evaluate(c, symbols, on_access)
        return out
    if isinstance(e, Pow):
        return evaluate(e.base, symbols, on_access) ** e.exponent
    if isinstance(e, Call):
        args = [evaluate(a, symbols, on_access) for a in e.args]
        if e.name == "sin":
            return math.sin(args[0])
        if e.name == "cos":
            return math.cos(args[0])
        if e.name == "sqrt":
            return math.sqrt(args[0])
        if e.name == "floor":
            return float(math.floor(args[0]))
        if e.name == "idiv":
            return float(int(args[0]) // int(args[1]))
        if e.name == "min":
            return min(args)
        if e.name == "max":
            return max(args)
    raise ExprError("unknown node %r" % (e,))
