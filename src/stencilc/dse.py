"""Operation-count-reducing cluster rewrites.

Passes: structural common sub-expression elimination, recursive
coefficient factorization, extraction of expensive sub-expressions into
temporaries, detection of cross-iteration redundancies (aliases: the same
computation repeated at translated iteration points) and pivot
construction. Composed into three modes:

  basic      -> CSE only
  advanced   -> basic + factorization + time-invariant extraction/aliases
  aggressive -> advanced + time-varying extraction/aliases

Costs are floating-point operation counts; transcendental calls weigh
tens of operations, so hoisting them out of the time loop dominates the
advanced-mode wins.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, replace
from functools import partial
from typing import Dict, List, Optional, Tuple

from .clustering import Cluster
from .lowering import (OPAQUE, Interval, IterationSpace, LoweredEq,
                       _access_offsets, _map_accesses, collect_accesses)
from .symbolic.expr import (Access, Add, Call, Constant, Expr, Mul, Pow,
                            Symbol, _as_coeff_term, _sort_key, add,
                            children_of, mul, num, op_count, pow_, rewrite)
from .symbolic.grid import Dimension, FunctionDecl

#: Extraction threshold: sub-expressions costing at least this many
#: floating-point operations are candidates for hoisting.
EXTRACT_THRESHOLD = 11

MODES = ("basic", "advanced", "aggressive")

TIME_INVARIANT = "time-invariant"
TIME_VARYING = "time-varying"


class Namer:
    """Deterministic temp-name generator shared across passes."""

    def __init__(self, prefix: str = "temp"):
        self.prefix = prefix
        self.counter = 0

    def __call__(self) -> str:
        name = "%s%d" % (self.prefix, self.counter)
        self.counter += 1
        return name


def _grid_of(cluster: Cluster):
    return cluster.eqs[0].lhs.func.grid


def is_time_varying(e: Expr) -> bool:
    """True when evaluating ``e`` reads data that changes over timesteps."""
    if isinstance(e, Access):
        f = e.func
        if f.kind in ("timefunction", "sparsetimefunction"):
            return True
        return f.kind == "temp" and f.time_varying
    return any(is_time_varying(c) for c in children_of(e))


def _walk_skip_indices(e: Expr) -> List[Expr]:
    """Postorder over ``e`` treating Access nodes as leaves: integer index
    arithmetic is never a rewrite target."""
    out = []
    stack = [(e, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded or isinstance(node, Access):
            out.append(node)
            continue
        stack.append((node, True))
        stack.extend((c, False) for c in reversed(children_of(node)))
    return out


def replace_subtrees(e: Expr, rules: Dict[Expr, Expr]) -> Expr:
    """Structural replacement that does not descend into Access indices."""
    return rewrite(e, lambda n: rules.get(
        n, n if isinstance(n, Access) else None))


def _make_temp(name: str, grid, dims: Tuple[Dimension, ...],
               definition: Expr, span: Optional[Dict[str, int]] = None
               ) -> FunctionDecl:
    decl = FunctionDecl(name, "temp", grid, dims=dims)
    decl.time_varying = is_time_varying(definition)
    decl.span = dict(span or {})
    return decl


def _order_defs(defs: List[LoweredEq]) -> List[LoweredEq]:
    """Topologically order temp definitions so every temp is defined
    before its first read. Temps defined in other clusters impose no
    ordering here."""
    local = {eq.lhs.func.name for eq in defs}
    remaining = list(defs)
    placed: List[LoweredEq] = []
    done: set = set()
    while remaining:
        for eq in remaining:
            needs = {a.func.name for a in eq.accesses[1:]
                     if a.func.kind == "temp" and a.func.name in local}
            if needs <= done:
                placed.append(eq)
                done.add(eq.lhs.func.name)
                remaining.remove(eq)
                break
        else:
            raise ValueError("cyclic temp definitions")
    return placed


def _split_defs(cluster: Cluster):
    defs = [eq for eq in cluster.eqs if eq.lhs.func.kind == "temp"]
    mains = [eq for eq in cluster.eqs if eq.lhs.func.kind != "temp"]
    return defs, mains


# -- Common sub-expression elimination ---------------------------------------


def _cse_counts(e: Expr) -> Counter:
    """Occurrences of each compound, costed sub-expression of ``e``."""
    counts: Counter = Counter()
    for node in _walk_skip_indices(e):
        if not isinstance(node, (Constant, Symbol, Access)) and \
                op_count(node) >= 1:
            counts[node] += 1
    return counts


def _tied_picks(ties: List[Expr], cost: int) -> List[Expr]:
    """The ``ties`` (all costing ``cost``, in sort-key order) that neither
    hold nor sit inside an earlier pick. A sub-expression costs less than
    its parent except under a wrapper that ``op_count`` charges nothing
    for, such as ``idiv``, so only such a wrapper can nest one tie in
    another; the inner or outer one waits for the next round."""
    picks: List[Expr] = []
    chosen: set = set()
    inside: set = set()
    for tie in ties:
        parts = set()
        stack = [c for c in children_of(tie) if op_count(c) == cost]
        while stack:
            node = stack.pop()
            parts.add(node)
            stack.extend(c for c in children_of(node) if op_count(c) == cost)
        if tie in inside or not parts.isdisjoint(chosen):
            continue
        picks.append(tie)
        chosen.add(tie)
        inside |= parts
    return picks


def cse(cluster: Cluster, namer: Optional[Namer] = None) -> Cluster:
    """Hoist repeated compound sub-expressions into scalar temps, cheapest
    first so nested redundancies chain naturally. Each round hoists every
    repeated candidate at the lowest operation count (``_tied_picks``),
    named in sort-key order, and rewrites each expression that holds any
    of them once. Index arithmetic is invisible to the search."""
    namer = namer or Namer()
    defs, mains = _split_defs(cluster)
    exprs = [eq.rhs for eq in defs + mains]
    new_defs: List[LoweredEq] = []
    grid = _grid_of(cluster)
    # One counter per expression (``exprs``, then the new definitions),
    # recounted only when a round rewrites that expression.
    counters = [_cse_counts(e) for e in exprs]
    while True:
        counts: Counter = Counter()
        for c in counters:
            counts.update(c)
        repeated = [n for n, c in counts.items() if c >= 2]
        if not repeated:
            break
        cost = min(map(op_count, repeated))
        picks = _tied_picks(sorted((n for n in repeated
                                    if op_count(n) == cost), key=_sort_key),
                            cost)
        rules = {p: Access(_make_temp(namer(), grid, (), p), ())
                 for p in picks}
        rhss = exprs + [d.rhs for d in new_defs]
        # A counter lists every compound node of its expression, so an
        # expression without a pick in it is left as it is.
        new_rhss = [replace_subtrees(e, rules) if any(p in c for p in picks)
                    else e for c, e in zip(counters, rhss)]
        counters = [c if new is old else _cse_counts(new)
                    for c, old, new in zip(counters, rhss, new_rhss)]
        exprs = new_rhss[:len(exprs)]
        new_defs = [d if e is d.rhs else replace(d, rhs=e)
                    for d, e in zip(new_defs, new_rhss[len(exprs):])]
        for p, temp in rules.items():
            new_defs.append(LoweredEq(temp, p, ispace=cluster.ispace))
            counters.append(_cse_counts(p))
    rewritten = []
    for eq, e in zip(defs + mains, exprs):
        rewritten.append(eq if e is eq.rhs else replace(eq, rhs=e))
    out_defs = _order_defs([r for r in rewritten[:len(defs)]] + new_defs)
    return Cluster(out_defs + rewritten[len(defs):], cluster.ispace,
                   set(cluster.atomics), cluster.guards)


# -- Factorization -----------------------------------------------------------


def _factors_of(term: Expr) -> Dict[Expr, int]:
    if isinstance(term, Mul):
        out: Dict[Expr, int] = {}
        for c in term.children:
            if isinstance(c, Pow):
                out[c.base] = out.get(c.base, 0) + c.exponent
            else:
                out[c] = out.get(c, 0) + 1
        return out
    if isinstance(term, Pow):
        return {term.base: term.exponent}
    return {term: 1}


def _common_factors(terms: List[Expr]) -> Dict[Expr, int]:
    maps = [_factors_of(t) for t in terms]
    common: Dict[Expr, int] = {}
    for base, exp in maps[0].items():
        exps = [m.get(base, 0) for m in maps]
        if all(e > 0 for e in exps):
            common[base] = min(exps)
        elif all(e < 0 for e in exps):
            common[base] = max(exps)
    return common


def _strip_factors(term: Expr, common: Dict[Expr, int]) -> Expr:
    left = dict(_factors_of(term))
    for base, exp in common.items():
        left[base] = left.get(base, 0) - exp
    return mul(*[pow_(b, e) for b, e in left.items() if e != 0])


def factorize(e: Expr) -> Expr:
    """Collect common numeric coefficients (and their shared symbolic
    factors) across the children of every Add node, leaves first, without
    expanding products. Never increases the operation count."""
    memo: dict = {}
    return rewrite(e, partial(_factorize_add, memo=memo), memo)


def _factorize_add(e: Expr, memo: dict) -> Optional[Expr]:
    """``factorize``'s ``rewrite`` callback: an access is left as it is,
    and a sum is factored once its children are."""
    if isinstance(e, Access):
        return e
    if not isinstance(e, Add):
        return None
    fn = partial(_factorize_add, memo=memo)
    kids = [rewrite(c, fn, memo) for c in e.children]
    inner = e if all(a is b for a, b in zip(kids, e.children)) else add(*kids)
    if not isinstance(inner, Add):
        return inner
    groups: Dict[object, List[Expr]] = {}
    order: List[object] = []
    for child in inner.children:
        coeff, term = _as_coeff_term(child)
        if coeff not in groups:
            groups[coeff] = []
            order.append(coeff)
        groups[coeff].append(term)
    commons = {coeff: _common_factors(groups[coeff]) for coeff in order
               if len(groups[coeff]) > 1}
    if all(coeff == 1 and not common for coeff, common in commons.items()):
        return inner  # nothing factors out
    new_children = []
    for coeff in order:
        terms = groups[coeff]
        if len(terms) < 2:
            new_children.append(mul(Constant(coeff), terms[0]))
            continue
        common = commons[coeff]
        residual = add(*[_strip_factors(t, common) for t in terms])
        new_children.append(mul(Constant(coeff),
                                *[pow_(b, x) for b, x in common.items()],
                                residual))
    cand = add(*new_children)
    return cand if op_count(cand) <= op_count(inner) else inner


def factorize_cluster(cluster: Cluster) -> Cluster:
    eqs = []
    for eq in cluster.eqs:
        rhs = factorize(eq.rhs)
        eqs.append(eq if rhs is eq.rhs else replace(eq, rhs=rhs))
    return Cluster(eqs, cluster.ispace, set(cluster.atomics), cluster.guards)


# -- Extraction --------------------------------------------------------------


def _is_pure_varying_operand(term: Expr) -> bool:
    """An alias-candidate operand: scalar coefficients (numbers, spacing
    or step symbols) times at least one time-varying indexed object.
    Time-invariant accesses disqualify: they belong to the invariant
    hoisting pass instead."""
    factors = _factors_of(term)
    if not factors:
        return False
    has_varying = False
    for base in factors:
        if isinstance(base, Access) and is_time_varying(base):
            has_varying = True
        elif isinstance(base, (Symbol, Constant)):
            continue
        else:
            return False
    return has_varying


def _qualifies(e: Expr, klass: str, threshold: int) -> bool:
    if isinstance(e, (Constant, Symbol, Access)):
        return False
    if op_count(e) < threshold:
        return False
    if klass == TIME_INVARIANT:
        return not is_time_varying(e)
    # Time-varying candidates keep the shape alias detection understands:
    # a sum whose addends are coefficient times time-varying accesses.
    addends = e.children if isinstance(e, Add) else (e,)
    for a in addends:
        coeff, term = _as_coeff_term(a)
        if not _is_pure_varying_operand(term):
            return False
    return True


def _find_candidates(e: Expr, klass: str, threshold: int,
                     is_root: bool = True) -> List[Expr]:
    """Maximal qualifying sub-expressions, scanned top-down. The root
    itself is never a candidate: replacing a whole right-hand side buys
    nothing."""
    if isinstance(e, Access):
        return []
    if not is_root and _qualifies(e, klass, threshold):
        return [e]
    out = []
    for c in children_of(e):
        out.extend(_find_candidates(c, klass, threshold, is_root=False))
    return out


def _temp_dims(e: Expr, cluster: Cluster) -> Tuple[Dimension, ...]:
    """Loop dimensions a temp for ``e`` must be stored along: the non-time
    iteration dimensions its value depends on."""
    from .symbolic.expr import free_symbols
    free = free_symbols(e)
    out = []
    for iv, _ in cluster.ispace.entries:
        d = iv.dim
        if not d.is_time and d.name in free:
            out.append(d)
    return tuple(out)


# -- Alias detection ---------------------------------------------------------


@dataclass
class AliasGroup:
    members: List[Expr]
    #: per-member translation vectors relative to the pivot (dim name -> k)
    translations: List[Dict[str, int]]
    pivot: Expr
    #: maximal translation per dimension (minimum is normalized to zero)
    span: Dict[str, int]


def _displacements(e: Expr) -> Optional[List[Dict[str, int]]]:
    """One displacement vector per indexed object, in traversal order;
    None when any index is not a pure dimension-plus-offset."""
    out = []
    for acc in collect_accesses(e):
        disp: Dict[str, int] = {}
        for dim, loop, k in _access_offsets(acc):
            if k is OPAQUE:
                return None
            disp[loop.name] = k
        out.append(disp)
    return out


def _shape(e: Expr):
    """``e``'s operator tree with each access reduced to its function.
    A plain walk: the normalizing constructors would fold it, and a
    derivative's weights, which sum to zero, would fold it to ``0``."""
    if isinstance(e, Access):
        return e.func
    if isinstance(e, Pow):
        return (Pow, e.exponent, _shape(e.base))
    if isinstance(e, Call):
        return (e.name,) + tuple(map(_shape, e.args))
    if isinstance(e, (Add, Mul)):
        return (type(e),) + tuple(map(_shape, e.children))
    return e


def _alias_key(e: Expr, disp: List[Dict[str, int]]):
    """``e``'s translation-invariant key: its shape, and each access's
    displacement relative to the first occurrence of its loop dimension.
    Also returns those first occurrences: two candidates with equal keys
    are translated by the difference of theirs."""
    first: Dict[str, int] = {}
    rel = []
    for vec in disp:
        for d, k in vec.items():
            first.setdefault(d, k)
        rel.append(tuple((d, k - first[d]) for d, k in vec.items()))
    return (_shape(e), tuple(rel)), first


def _shifted(acc: Access, shift: Dict[str, int]) -> Access:
    return Access(acc.func, tuple(
        add(idx, num(shift[d.root.name])) if shift.get(d.root.name) else idx
        for d, idx in zip(acc.func.dims, acc.indices)))


def translate(e: Expr, shift: Dict[str, int]) -> Expr:
    """Shift every affine access index along the given loop dimensions."""
    return _map_accesses(e, partial(_shifted, shift=shift), {})


def detect_aliases(candidates: List[Expr]) -> List[AliasGroup]:
    """Partition candidates into classes of mutually translated
    expressions: equal alias keys, kept in first-seen order, and a class of
    its own for a candidate with an opaque index. Along each dimension, the
    pivot of a class is its leftmost member, and each member's translation
    is its distance from that member; a single candidate is its own pivot,
    at translation zero."""
    classes: Dict[object, list] = {}
    for e in candidates:
        disp = _displacements(e)
        if disp is None:
            classes[object()] = [(e, {})]
            continue
        key, first = _alias_key(e, disp)
        classes.setdefault(key, []).append((e, first))
    groups: List[AliasGroup] = []
    for found in classes.values():
        top, top_first = found[0]
        rel = [{d: first[d] - k for d, k in sorted(top_first.items())}
               for _, first in found]
        low = {d: min(r[d] for r in rel) for d in rel[0]}
        translations = [{d: k - low[d] for d, k in r.items()} for r in rel]
        span = {d: max(t[d] for t in translations) for d in low}
        shift = {d: k for d, k in low.items() if k}
        pivot = translate(top, shift) if shift else top
        groups.append(AliasGroup([e for e, _ in found], translations,
                                 pivot, span))
    return groups


# -- Pivot selection and CIRE ------------------------------------------------


def _producer_ispace(cluster: Cluster, dims: Tuple[Dimension, ...],
                     span: Dict[str, int],
                     keep_time: bool) -> IterationSpace:
    entries = []
    for iv, direction in cluster.ispace.entries:
        d = iv.dim
        if d.is_time:
            if keep_time:
                entries.append(((iv, direction)))
            continue
        if d in dims:
            entries.append((Interval(d, iv.lower,
                                     iv.upper + span.get(d.name, 0)),
                            direction))
    return IterationSpace(tuple(entries))


def select_pivots(groups: List[AliasGroup], cluster: Cluster,
                  namer: Optional[Namer] = None,
                  always: bool = False):
    """Turn alias groups into array temps plus rewrite rules for the
    consumer expressions. Single-member groups stay inline unless
    ``always`` (used for time-invariant hoisting) and hoisting takes the
    member out of at least one loop. Each producer covers the consumer's
    iteration space extended by its own group's span, so it computes only
    points some member reads; producers with equal iteration spaces land
    in one loop nest."""
    namer = namer or Namer()
    grid = _grid_of(cluster)
    # A temp holds one timestep: members translated in time stay inline
    times = [iv.dim.name for iv, _ in cluster.ispace.entries
             if iv.dim.is_time]
    chosen = []
    for g in groups:
        dims = _temp_dims(g.pivot, cluster)
        # The producer loops over ``dims`` only: a lone candidate must
        # leave at least one of the cluster's loops
        leaves = 0 < len(dims) < len(cluster.ispace.entries)
        if not any(g.span.get(t) for t in times) and (
                len(g.members) >= 2 or (always and leaves)):
            chosen.append((g, dims))
    defs: List[LoweredEq] = []
    rules: Dict[Expr, Expr] = {}
    for g, dims in chosen:
        keep_time = is_time_varying(g.pivot)
        decl = _make_temp(namer(), grid, dims, g.pivot, span=g.span)
        ispace = _producer_ispace(cluster, dims, g.span, keep_time)
        defs.append(LoweredEq(Access(decl, tuple(d.symbol for d in dims)),
                              g.pivot, ispace=ispace))
        for member, tr in zip(g.members, g.translations):
            idx = tuple(add(d.symbol, num(tr.get(d.name, 0)))
                        for d in dims)
            rules[member] = Access(decl, idx)
    return defs, rules


def _cire(clusters: List[Cluster], klass: str, namer: Namer
          ) -> List[Cluster]:
    """One extraction + alias-detection + pivot round over all clusters."""
    front: List[Cluster] = []
    out: List[Cluster] = []
    for c in clusters:
        candidates = []
        seen = set()
        for eq in c.eqs:
            for cand in _find_candidates(eq.rhs, klass, EXTRACT_THRESHOLD):
                if cand not in seen:
                    seen.add(cand)
                    candidates.append(cand)
        if not candidates:
            out.append(c)
            continue
        groups = detect_aliases(candidates)
        defs, rules = select_pivots(groups, c, namer,
                                    always=(klass == TIME_INVARIANT))
        if not rules:
            out.append(c)
            continue
        new_eqs = [replace(eq, rhs=replace_subtrees(eq.rhs, rules))
                   for eq in c.eqs]
        consumer = Cluster(new_eqs, c.ispace, set(c.atomics), c.guards)
        by_ispace: Dict[IterationSpace, List[LoweredEq]] = {}
        for d in defs:
            by_ispace.setdefault(d.ispace, []).append(d)
        producers = [Cluster(eqs, ispace, set(), ())
                     for ispace, eqs in by_ispace.items()]
        for p in producers:
            if any(eq.lhs.func.time_varying for eq in p.eqs):
                p.guards = c.guards
                out.append(p)
            else:
                front.append(p)
        out.append(consumer)
    merged_front: List[Cluster] = []
    for p in front:
        for q in merged_front:
            if q.ispace == p.ispace and q.guards == p.guards:
                q.eqs.extend(p.eqs)
                break
        else:
            merged_front.append(p)
    return merged_front + out


# -- Driver ------------------------------------------------------------------


def run_dse(clusters: List[Cluster], mode: str = "advanced"
            ) -> List[Cluster]:
    if mode not in MODES:
        raise ValueError("unknown optimization mode %r" % mode)
    if not clusters:
        return []
    namer = Namer()
    out = list(clusters)
    if mode in ("advanced", "aggressive"):
        out = _cire(out, TIME_INVARIANT, namer)
    if mode == "aggressive":
        out = _cire(out, TIME_VARYING, namer)
    out = [cse(c, namer) for c in out]
    if mode in ("advanced", "aggressive"):
        out = [factorize_cluster(c) for c in out]
    return out


def cluster_op_count(clusters: List[Cluster]) -> int:
    """Flat operation count over all cluster expressions; definitions in
    time-invariant producer clusters are counted once like everything
    else."""
    return sum(op_count(eq.rhs) for c in clusters for eq in c.eqs)
