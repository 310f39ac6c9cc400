"""Loop-nest construction and optimization.

Clusters are scheduled into an Iteration/Expression Tree: a loop nest per
cluster, with common outer loops shared between consecutive clusters.
Analysis then classifies every Iteration as sequential or parallel using
dependence distance vectors, blocking tiles parallel loops (wrapping
producer/consumer loop pairs of hoisted array temporaries in one shared
block loop), and declaration placement pins every temporary to the
innermost scope dominating its uses.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .clustering import Cluster
from .dependence import REDUCTION, get_dependences
from .lowering import FORWARD, Guard, Interval, LoweredEq
from .symbolic.expr import Expr, Symbol, add, call, num
from .symbolic.grid import Dimension, FunctionDecl

SEQUENTIAL = "sequential"
PARALLEL = "parallel"
ATOMIC = "atomic-updates"
VECTORIZABLE = "vectorizable"
BLOCKED = "blocked"


class IETError(ValueError):
    """Raised on malformed tree construction or transformation requests."""


# -- Node types --------------------------------------------------------------


@dataclass(eq=False)
class Declaration:
    decl: FunctionDecl
    scope: str  # private | shared

    def __repr__(self):
        return "<Decl(%s, %s)>" % (self.decl.name, self.scope)


@dataclass(eq=False)
class ExpressionStmt:
    eq: LoweredEq
    children: tuple = ()


@dataclass(eq=False)
class Iteration:
    dim: Dimension
    lower: Expr
    upper: Expr  # inclusive
    direction: str = FORWARD
    step: int = 1
    properties: set = field(default_factory=set)
    children: list = field(default_factory=list)
    declarations: list = field(default_factory=list)
    #: the (Interval, direction) this loop was built from; used by the
    #: scheduler to decide whether a later cluster may share it
    key: Optional[tuple] = None


@dataclass(eq=False)
class Conditional:
    guards: Tuple[Guard, ...]
    children: list = field(default_factory=list)
    declarations: list = field(default_factory=list)


@dataclass(eq=False)
class Section:
    name: str
    children: list = field(default_factory=list)
    declarations: list = field(default_factory=list)


@dataclass(eq=False)
class Block:
    declarations: list = field(default_factory=list)
    children: list = field(default_factory=list)


def walk(node):
    yield node
    for c in getattr(node, "children", ()):
        yield from walk(c)


def iterations(node) -> List[Iteration]:
    return [n for n in walk(node) if isinstance(n, Iteration)]


def statements(node) -> List[ExpressionStmt]:
    return [n for n in walk(node) if isinstance(n, ExpressionStmt)]


# -- Construction ------------------------------------------------------------


def _bounds(iv: Interval) -> Tuple[Expr, Expr]:
    lo = add(Symbol(iv.dim.name + "_m"), num(iv.lower))
    hi = add(Symbol(iv.dim.name + "_M"), num(iv.upper))
    return lo, hi


def build_iet(clusters: Sequence[Cluster]) -> Block:
    """Schedule clusters into one tree, sharing the longest usable prefix
    of already-built outer loops. Sharing stops at the first differing
    (interval, direction) pair, at a dimension the cluster needs atomic,
    and right after a guarded dimension; guards materialize as Conditional
    nodes, and nothing beneath a Conditional is ever shared."""
    root = Block()
    schedule: List[Iteration] = []
    for c in clusters:
        guard_dims = {g.dim for g in c.guards}
        parent = root
        reused: List[Iteration] = []
        i = 0
        while i < len(c.ispace.entries) and i < len(schedule):
            iv, direction = c.ispace.entries[i]
            it = schedule[i]
            if it.key != (iv, direction) or iv.dim in c.atomics:
                break
            parent = it
            reused.append(it)
            i += 1
            if iv.dim in guard_dims:
                break
        attach = parent
        if c.guards and reused and reused[-1].dim in guard_dims:
            cond = Conditional(c.guards)
            attach.children.append(cond)
            attach = cond
        created: List[Iteration] = []
        for iv, direction in c.ispace.entries[i:]:
            lo, hi = _bounds(iv)
            it = Iteration(iv.dim, lo, hi, direction=direction,
                           key=(iv, direction))
            attach.children.append(it)
            created.append(it)
            attach = it
            if c.guards and iv.dim in guard_dims:
                cond = Conditional(c.guards)
                it.children.append(cond)
                attach = cond
        for eq in c.eqs:
            attach.children.append(ExpressionStmt(eq))
        # Everything strictly below a guarded dimension is never shared
        shareable = created
        if c.guards:
            shareable = []
            for it in created:
                shareable.append(it)
                if it.dim in guard_dims:
                    break
            if reused and reused[-1].dim in guard_dims:
                shareable = []
        schedule = reused + shareable
    return root


# -- Analysis ----------------------------------------------------------------


def _stmt_paths(iet, keep: type = Iteration
                ) -> List[Tuple[ExpressionStmt, Tuple[object, ...]]]:
    """Every statement with its enclosing nodes of type ``keep``,
    outermost first, in preorder."""
    out = []
    # Explicit stack: a recursive closure would leave a reference cycle.
    stack = [(iet, ())]
    while stack:
        node, path = stack.pop()
        if isinstance(node, ExpressionStmt):
            out.append((node, path))
            continue
        if isinstance(node, keep):
            path = path + (node,)
        stack.extend((ch, path)
                     for ch in reversed(getattr(node, "children", ())))
    return out


def _lex_positive(vec) -> bool:
    for v in vec:
        if v is None or v < 0:
            return False
        if v > 0:
            return True
    return False


def analyze_iet(iet) -> object:
    """Attach sequential/parallel/vectorizable properties. A loop at nest
    position i is parallel iff every dependence distance vector D among
    the statements it contains satisfies d_i = 0 (the dependence never
    crosses its iterations) or (d_1..d_{i-1}) > 0 lexicographic (an outer
    loop carries it); unknown entries disqualify. Reductions do not block
    parallelism but demand atomic updates. Scalar temporaries are ignored:
    declaration placement privatizes them per iteration.

    Each outermost loop nest gets one dependence graph, and each dependence
    marks the loops that enclose both its statements: the common prefix of
    their loop paths."""
    nests: Dict[int, list] = {}
    for stmt, path in _stmt_paths(iet):
        if path:
            nests.setdefault(id(path[0]), []).append((stmt, path))
    marks: Dict[int, set] = {}
    for located in nests.values():
        where = {id(s.eq): p for s, p in located}
        for dep in get_dependences([s.eq for s, _ in located]):
            if dep.function.kind == "temp" and not dep.function.dims:
                continue
            mark = ATOMIC if dep.kind == REDUCTION else SEQUENTIAL
            vec = []
            for a, b in zip(where[id(dep.source)], where[id(dep.sink)]):
                if a is not b:
                    break
                vec.append(dep.distance_along(a.dim))
                if not (vec[-1] == 0 or _lex_positive(vec[:-1])):
                    marks.setdefault(id(a), set()).add(mark)
    for it in iterations(iet):
        marked = marks.get(id(it), set())
        it.properties -= {SEQUENTIAL, PARALLEL, ATOMIC}
        if SEQUENTIAL in marked:
            it.properties.add(SEQUENTIAL)
        else:
            it.properties |= {PARALLEL} | marked
        inner = not any(isinstance(n, Iteration)
                        for n in walk(it) if n is not it)
        if inner and PARALLEL in it.properties and it.dim.kind == "space":
            it.properties.add(VECTORIZABLE)
    return iet


# -- Blocking ----------------------------------------------------------------


def _block_chain(it: Iteration, shape: Dict[str, int]) -> List[Iteration]:
    """The maximal nested run of blockable loops starting at ``it``."""
    chain = []
    node = it
    while isinstance(node, Iteration) and node.dim.name in shape and \
            PARALLEL in node.properties and BLOCKED not in node.properties:
        chain.append(node)
        kids = [c for c in node.children if isinstance(c, Iteration)]
        if len(kids) != 1 or len(node.children) != 1:
            break
        node = kids[0]
    return chain


def _array_temp_writes(it: Iteration) -> set:
    return {s.eq.lhs.func for s in statements(it)
            if s.eq.lhs.func.kind == "temp" and s.eq.lhs.indices}


def _reads_temps(it: Iteration, temps: set) -> bool:
    for s in statements(it):
        for a in s.eq.accesses[1:]:
            if a.func in temps:
                return True
    return False


def _block_group(group: List[Iteration], shape: Dict[str, int]
                 ) -> Iteration:
    """Wrap one or more sibling nests over the same dimensions in shared
    block loops. Only the loops change: every access keeps its grid
    indices, and the C emitter lays out the temporaries declared inside
    the block loops one block at a time (``codegen.block_tiles``)."""
    chains = [_block_chain(it, shape) for it in group]
    depth = min(len(ch) for ch in chains)
    # Block along the dims every member agrees on, outermost first
    dims: List[Dimension] = []
    for level in range(depth):
        names = {ch[level].dim.name for ch in chains}
        if len(names) != 1:
            break
        dims.append(chains[0][level].dim)
    if not dims:
        raise IETError("no common blockable dimensions")
    base: Dict[str, Tuple[int, int]] = {}
    for level, d in enumerate(dims):
        lows = [ch[level].key[0].lower for ch in chains]
        ups = [ch[level].key[0].upper for ch in chains]
        base[d.name] = (min(lows), min(ups))
    offsets = {}
    outer: Optional[Iteration] = None
    attach_parent: Optional[Iteration] = None
    for d in dims:
        bs = shape[d.name]
        bdim = Dimension(d.name + "b", "block", parent=d)
        lo = add(Symbol(d.name + "_m"), num(base[d.name][0]))
        hi = add(Symbol(d.name + "_M"), num(base[d.name][1]))
        bit = Iteration(bdim, lo, hi, step=bs,
                        properties={PARALLEL, BLOCKED},
                        key=(Interval(bdim, 0, 0), FORWARD))
        offsets[d.name] = bdim.symbol
        if attach_parent is None:
            outer = bit
        else:
            attach_parent.children.append(bit)
        attach_parent = bit
    for chain, it in zip(chains, group):
        levels = chain[:len(dims)]
        body = levels[-1].children
        rebuilt = body
        for level, d in reversed(list(zip(levels, dims))):
            bs = shape[d.name]
            iv = level.key[0]
            ext = iv.upper - base[d.name][1]
            lo = add(offsets[d.name], num(iv.lower - base[d.name][0]))
            hi = add(call("min", add(offsets[d.name], num(bs - 1)),
                          add(Symbol(d.name + "_M"), num(base[d.name][1]))),
                     num(ext))
            inner = Iteration(level.dim, lo, hi, direction=level.direction,
                              properties=set(level.properties),
                              children=rebuilt, key=level.key)
            rebuilt = [inner]
        attach_parent.children.extend(rebuilt)
    return outer


def block_loops(iet, shape: Optional[Dict[str, int]]):
    """Tile parallel loops named in ``shape``. Consecutive sibling nests
    over the same dimensions that communicate through array temporaries
    are wrapped in one shared block loop, producer first."""
    if not shape:
        return iet
    _block_children(iet, shape)
    return iet


def _block_children(node, shape: Dict[str, int]) -> None:
    """Block the loop nests below ``node`` in place, depth first. A module
    function, not a closure: a recursive closure leaves a reference cycle."""
    kids = getattr(node, "children", None)
    if kids is None:
        return
    out = []
    i = 0
    while i < len(kids):
        c = kids[i]
        if isinstance(c, Iteration) and c.dim.name in shape:
            if PARALLEL not in c.properties:
                raise IETError(
                    "cannot block sequential loop %s" % c.dim.name)
            group = [c]
            produced = _array_temp_writes(c)
            j = i + 1
            while j < len(kids) and isinstance(kids[j], Iteration) and \
                    kids[j].dim.name == c.dim.name and \
                    PARALLEL in kids[j].properties and \
                    produced and _reads_temps(kids[j], produced):
                group.append(kids[j])
                produced |= _array_temp_writes(kids[j])
                j += 1
            out.append(_block_group(group, shape))
            i = j
        else:
            _block_children(c, shape)
            out.append(c)
            i += 1
    node.children = out


def autotune_blocks(runner: Callable[[dict], float],
                    candidates: Sequence[dict]) -> dict:
    """Time each candidate block shape and return the fastest; ties go to
    the earliest candidate, so the result is deterministic for a fixed
    candidate order."""
    if not candidates:
        raise IETError("no block-shape candidates")
    return min(candidates, key=runner)


def default_block_candidates(dims: Sequence[str]) -> List[dict]:
    return [{d: size for d in dims} for size in (4, 8, 16, 32, 64)]


# -- Declaration placement ---------------------------------------------------


def place_declarations(iet):
    """Declare every temporary at the innermost scope containing all its
    definitions and uses. Temporaries scoped inside a parallel loop body
    are per-context (private); everything hoisted above is shared."""
    touches: Dict[FunctionDecl, List[Tuple[object, ...]]] = {}
    # Each statement with every node from the root down to its parent.
    for stmt, path in _stmt_paths(iet, keep=object):
        for f in dict.fromkeys(a.func for a in stmt.eq.accesses
                               if a.func.kind == "temp"):
            touches.setdefault(f, []).append(path)

    for f, paths in touches.items():
        common = paths[0]
        for p in paths[1:]:
            n = 0
            while n < len(common) and n < len(p) and common[n] is p[n]:
                n += 1
            common = common[:n]
        host = next(nd for nd in reversed(common)
                    if hasattr(nd, "declarations"))
        inside_parallel = any(isinstance(nd, Iteration) and
                              PARALLEL in nd.properties
                              for nd in common)
        scope = "private" if inside_parallel else "shared"
        host.declarations.append(Declaration(f, scope))
    return iet


# -- Rendering ---------------------------------------------------------------


def _render_bound(e: Expr) -> str:
    from .symbolic.expr import Add, Call, Constant
    if isinstance(e, Symbol):
        return e.name
    if isinstance(e, Constant):
        return str(e.value)
    if isinstance(e, Add):
        parts = [c for c in e.children]
        syms = [c for c in parts if not isinstance(c, Constant)]
        consts = [c for c in parts if isinstance(c, Constant)]
        text = " + ".join(_render_bound(s) for s in syms)
        for c in consts:
            v = c.value
            text += (" - %s" % (-v)) if v < 0 else (" + %s" % v)
        return text
    if isinstance(e, Call):
        return "%s(%s)" % (e.name,
                           ", ".join(_render_bound(a) for a in e.args))
    return repr(e)


def _node_lines(node) -> List[str]:
    if isinstance(node, ExpressionStmt):
        tag = "Inc" if node.eq.is_increment else "Eq"
        return ["<%s(%r, ...)>" % (tag, node.eq.lhs)]
    if isinstance(node, Declaration):
        return [repr(node)]
    if isinstance(node, Iteration):
        step = "" if node.step == 1 else \
            ", %s += %d" % (node.dim.name, node.step)
        header = "for %s = %s to %s%s:" % (
            node.dim.name, _render_bound(node.lower),
            _render_bound(node.upper), step)
    elif isinstance(node, Conditional):
        header = "if %s:" % " and ".join(g.predicate_repr()
                                         for g in node.guards)
    elif isinstance(node, Section):
        header = "section %s:" % node.name
    else:
        header = None
    out = [header] if header else []
    items = list(getattr(node, "declarations", ())) + list(node.children)
    rendered = [_node_lines(c) for c in items]
    if header is None:
        for i, chunk in enumerate(rendered):
            if i:
                out.append("")
            out.extend(chunk)
        return out
    for i, chunk in enumerate(rendered):
        last = i == len(rendered) - 1
        cont = "      " if last else " |    "
        out.append(" |-- " + chunk[0])
        out.extend((cont + ln).rstrip() for ln in chunk[1:])
        if not last and len(chunk) > 1:
            out.append(" |")
    return out


def dump(iet) -> str:
    """Arrow-style tree rendering, one loop or statement per line."""
    return "\n".join(_node_lines(iet))
