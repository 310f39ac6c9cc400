"""Grouping of lowered equations into clusters.

A cluster is an ordered run of equations that share an iteration space and
guards and have no dimension-carried anti-dependence among them, so they
can later be scheduled into one loop nest. Grouping scans existing
clusters in reverse. A fence blocks the merge: a carried anti dependence,
or a carried dependence that normalization flipped (its sink precedes its
source in program order), unless it is a reduction or is carried by a
time dimension, whose shared loop keeps that order. The candidate then
starts a new cluster whose ``atomics`` hold the fences' causing
dimensions (as Devito's ``groupby`` records them); ``build_iet`` never
fuses such a cluster into a loop over an atomic dimension. A flow
dependence into a cluster's atomic dimension also stops the scan;
otherwise the candidate may skip over an incompatible predecessor when
no dependence but a reduction links them: moving past a cluster runs the
candidate before every iteration of it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Set, Tuple

from .dependence import (ANTI, FLOW, REDUCTION, Dependence,
                         detect_flow_directions, get_dependences)
from .lowering import ANY, Guard, IterationSpace, LoweredEq
from .symbolic.grid import Dimension


@dataclass
class Cluster:
    eqs: List[LoweredEq]
    ispace: IterationSpace
    atomics: Set[Dimension] = field(default_factory=set)
    guards: Tuple[Guard, ...] = ()

    def __repr__(self):
        names = [eq.lhs.func.name for eq in self.eqs]
        g = " if " + ", ".join(g.predicate_repr() for g in self.guards) \
            if self.guards else ""
        return "<Cluster %s %r%s>" % ("+".join(names), self.ispace, g)


def enforce_directions(eqs: List[LoweredEq],
                       deps: List[Dependence]) -> List[LoweredEq]:
    """Specialize per-equation Any directions using the directions that
    ``deps``, the dependence graph of ``eqs``, requires. A genuine clash
    (both directions demanded) leaves each equation's local choice
    untouched; the clashing equations then end up in distinct loop nests.
    Every equation keeps its position."""
    required = detect_flow_directions(deps)
    out = []
    for eq in eqs:
        updates: Dict[Dimension, str] = {}
        for dim in eq.ispace.dims:
            req = required.get(dim, set())
            if len(req) == 1:
                forced = next(iter(req))
                if eq.ispace.direction_of(dim) == ANY:
                    updates[dim] = forced
        if updates:
            eq = eq.reanalyzed(ispace=eq.ispace.with_directions(updates))
        out.append(eq)
    return out


def _pair_index(eqs: List[LoweredEq], deps: List[Dependence]
                ) -> Dict[Tuple[int, int], List[Dependence]]:
    """The dependences between two distinct equations, in graph order,
    keyed by the equations' positions in ``eqs`` (earlier first), the
    equations ``deps`` was built on. Positions are found by identity:
    LoweredEq compares by value."""
    position = {id(eq): i for i, eq in enumerate(eqs)}
    pairs: Dict[Tuple[int, int], List[Dependence]] = {}
    for d in deps:
        a, b = position[id(d.source)], position[id(d.sink)]
        if a != b:
            pairs.setdefault((min(a, b), max(a, b)), []).append(d)
    return pairs


def _cross_deps(pairs, cluster_positions: List[int],
                pos: int) -> List[Dependence]:
    """The dependences between the equation at ``pos`` and the earlier
    equations of a cluster. A pair's dependences depend only on that pair,
    so this equals the cross dependences of ``get_dependences`` run on the
    cluster plus the candidate."""
    return [d for p in cluster_positions for d in pairs.get((p, pos), ())]


def group(eqs: List[LoweredEq],
          pairs: Dict[Tuple[int, int], List[Dependence]]) -> List[Cluster]:
    """Stable grouping by reverse scan over the clusters built so far,
    against ``pairs``, the ``_pair_index`` of one dependence graph of
    equations at the same positions (enforcing directions changes no
    dependence)."""
    clusters: List[Cluster] = []
    members: List[List[int]] = []  # positions in eqs, per cluster
    for pos, eq in enumerate(eqs):
        placed = False
        atomics: Set[Dimension] = set()
        for c, positions in zip(reversed(clusters), reversed(members)):
            cross = _cross_deps(pairs, positions, pos)
            fences = [d for d in cross if d.is_carried and (
                d.kind == ANTI or d.flipped and d.kind != REDUCTION
                and not d.cause.is_time)]
            if fences:
                # The candidate's new cluster must not share these loops
                # with the clusters before it.
                atomics = {d.cause for d in fences}
                break
            flow_causes = {d.cause for d in cross
                           if d.kind == FLOW and d.is_carried}
            if flow_causes & c.atomics:
                break
            if c.guards != eq.guards:
                break  # conservative: never scan past a guard change
            if c.ispace == eq.ispace:
                c.eqs.append(eq)
                positions.append(pos)
                placed = True
                break
            # Skip over an incompatible predecessor only when no
            # dependence but a reduction ties eq to it.
            if any(d.kind != REDUCTION for d in cross):
                break
        if not placed:
            clusters.append(Cluster([eq], eq.ispace, atomics, eq.guards))
            members.append([pos])
    return clusters


def clusterize(eqs: List[LoweredEq]) -> List[Cluster]:
    """Full pipeline: one dependence graph, direction enforcement, then
    grouping."""
    deps = get_dependences(eqs)
    return group(enforce_directions(eqs, deps), _pair_index(eqs, deps))
