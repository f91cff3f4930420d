"""Derived digraphs (Cartesian product, composition, line, subdivision,
root, middle, total, converse) and the constructive partition lifts that
carry strong in-domatic partitions onto them.

Every construction takes digraphs, checks its own domain, and returns
the derived digraph together with its ``origins``: ``origins[i]`` is
where vertex i comes from (a product or composition pair, an arc of D,
or a ``TaggedVertex``), so partitions can be pushed forward and pulled
back without parsing anything.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple, Union

from .core import (
    Digraph,
    Inapplicable,
    _require_strong,
    make_digraph,
)
from .domination import VertexPartition, is_strong_in_domatic_partition


@dataclass(frozen=True)
class TaggedVertex:
    """Identity of a vertex of a mixed derived digraph: either an original
    vertex (payload: its id) or an arc-vertex (payload: the arc pair)."""

    kind: str  # "vertex" or "arc"
    payload: Union[int, Tuple[int, int]]

    def __post_init__(self):
        if self.kind not in ("vertex", "arc"):
            raise ValueError(f"unknown vertex kind {self.kind!r}")


def cartesian_product(D: Digraph, H: Digraph):
    """Cartesian product: (x,z) -> (u,v) is an arc iff the pair moves along
    exactly one coordinate by an arc of that factor.

    Returns ``(P, origins)``; ``origins[i]`` is the pair (x, z) of vertex
    i, whose id is ``x * |V(H)| + z``.
    """
    if D.vertex_count == 0 or H.vertex_count == 0:
        raise Inapplicable("both factors must be nonempty")
    nh = H.vertex_count
    origins = tuple((x, z) for x in range(D.vertex_count) for z in range(nh))
    arcs = []
    for x in range(D.vertex_count):
        for (z, v) in H.arcs:
            arcs.append((x * nh + z, x * nh + v))
    for (x, u) in D.arcs:
        for z in range(nh):
            arcs.append((x * nh + z, u * nh + z))
    return make_digraph(len(origins), arcs), origins


def _check_parts(host: Digraph, parts) -> tuple:
    """``parts`` as a tuple, one nonempty digraph per host vertex."""
    parts = tuple(parts)
    if len(parts) != host.vertex_count:
        raise ValueError("need exactly one part per host vertex")
    if any(p.vertex_count == 0 for p in parts):
        raise Inapplicable("every part needs at least one vertex")
    return parts


def composition(host: Digraph, parts):
    """Blow every host vertex v up into ``parts[v]`` and join all of
    part(v) to all of part(u) for each host arc (v, u).

    Returns ``(C, origins)``; ``origins[i]`` is the pair (host_vertex,
    part_vertex) of vertex i, part by part in host-vertex order, so parts
    are disjoint by construction.
    """
    parts = _check_parts(host, parts)
    offsets = []
    origins = []
    for hv, part in enumerate(parts):
        offsets.append(len(origins))
        origins += [(hv, pv) for pv in range(part.vertex_count)]
    arcs = []
    for hv, part in enumerate(parts):
        for (u, v) in part.arcs:
            arcs.append((offsets[hv] + u, offsets[hv] + v))
    for (v, u) in host.arcs:
        for pv in range(parts[v].vertex_count):
            for pu in range(parts[u].vertex_count):
                arcs.append((offsets[v] + pv, offsets[u] + pu))
    return make_digraph(len(origins), arcs), tuple(origins)


def _continuations(arcs: list) -> list:
    """The index pairs (i, j) with the head of ``arcs[i]`` the tail of
    ``arcs[j]``: the arcs of the line digraph on ``arcs``."""
    by_tail: Dict[int, list] = {}
    for j, (u, _) in enumerate(arcs):
        by_tail.setdefault(u, []).append(j)
    return [(i, j) for i, (_, v) in enumerate(arcs) for j in by_tail.get(v, ())]


def _sorted_arcs(name: str, D: Digraph) -> list:
    """D's arcs in lexicographic order, for the construction ``name``,
    which exists only on a digraph with arcs."""
    if not D.arcs:
        raise Inapplicable(f"{name} needs at least one arc")
    return D.sorted_arcs()


def line_digraph(D: Digraph):
    """Vertices are the arcs of D; (u,v) -> (w,z) is an arc iff v = w.

    Returns ``(L, origins)``; ``origins[i]`` is the arc of D that vertex i
    stands for, in lexicographic arc order.
    """
    origins = tuple(_sorted_arcs("line", D))
    return make_digraph(len(origins), _continuations(origins)), origins


def _arc_vertex_digraph(name: str, D: Digraph, originals: bool, line: bool):
    """The subdivision of D, plus D's own arcs between the original
    vertices when ``originals`` and the line digraph's arcs between the
    arc-vertices when ``line``; ``name`` is the construction's, for the
    error on an arcless D.  The three kinds of arc are disjoint and each
    is loopless and simple, so the result needs no validation."""
    arcs = _sorted_arcs(name, D)
    n = D.vertex_count
    tags = tuple(
        [TaggedVertex("vertex", v) for v in range(n)]
        + [TaggedVertex("arc", a) for a in arcs]
    )
    new_arcs = []
    for i, (u, v) in enumerate(arcs):
        new_arcs += [(u, n + i), (n + i, v)]
    if originals:
        new_arcs += arcs
    if line:
        new_arcs += [(n + i, n + j) for i, j in _continuations(arcs)]
    return Digraph(n + len(arcs), frozenset(new_arcs)), tags


def subdivision(D: Digraph):
    """Each original vertex points to its outgoing arc-vertices; each
    arc-vertex points to its head.

    Originals keep their ids and arc-vertices follow in lexicographic arc
    order, a layout the root, middle and total digraphs share.
    """
    return _arc_vertex_digraph("subdivision", D, originals=False, line=False)


def root(D: Digraph):
    """Subdivision plus the original arcs between original vertices."""
    return _arc_vertex_digraph("root", D, originals=True, line=False)


def middle(D: Digraph):
    """Subdivision plus arcs from each arc-vertex to the arc-vertices that
    continue it (those whose tail is its head): the line digraph, shifted
    onto the arc-vertices."""
    return _arc_vertex_digraph("middle", D, originals=False, line=True)


def total(D: Digraph):
    """Middle plus the original arcs: the union of every adjacency the
    other three constructions provide.  Restricted to the arc-vertices it
    is exactly the line digraph."""
    return _arc_vertex_digraph("total", D, originals=True, line=True)


# ---------------------------------------------------------------------------
# Constructive partition lifts


def lift_product_partition(P: VertexPartition, D: Digraph, H: Digraph) -> VertexPartition:
    """Lift a strong in-domatic partition of D to one of the Cartesian
    product: the block of (x, y) is the block of x.

    Both factors must be strong; the output is itself a strong in-domatic
    partition of ``cartesian_product(D, H)``.
    """
    for factor in (D, H):
        _require_strong(factor, "both factors must be strong to lift a partition")
    if not is_strong_in_domatic_partition(D, P):
        raise ValueError("input partition is not strong in-domatic on the first factor")
    nh = H.vertex_count
    block_of = [0] * (D.vertex_count * nh)
    for x in range(D.vertex_count):
        for z in range(nh):
            block_of[x * nh + z] = P.block_of[x]
    return VertexPartition(tuple(block_of), P.block_count)


def composition_partition(host: Digraph, parts) -> VertexPartition:
    """The layered partition of a composition over a strong host: with
    n = the smallest part order, block k < n-1 takes the k-th vertex of
    every part and the last block takes everything left over.  Vertex ids
    follow ``composition``'s order, part by part in host-vertex order."""
    parts = _check_parts(host, parts)
    if host.vertex_count < 2:
        raise Inapplicable("host must be nontrivial")
    _require_strong(host, "host must be strong")
    n = min(part.vertex_count for part in parts)
    block_of = tuple(min(pv, n - 1) for part in parts for pv in range(part.vertex_count))
    return VertexPartition(block_of, n)


def _check_lift(P: VertexPartition, D: Digraph, construction: str) -> None:
    """The preconditions shared by the lifts onto a construction on D."""
    if D.vertex_count < 3:
        raise ValueError(f"{construction} lift needs order at least three")
    _require_strong(D, "base digraph must be strong")
    if not is_strong_in_domatic_partition(line_digraph(D)[0], P):
        raise ValueError("input partition is not strong in-domatic on the line digraph")


def lift_middle_partition(P: VertexPartition, D: Digraph) -> VertexPartition:
    """Carry a strong in-domatic partition of the line digraph onto the
    middle digraph: the first block absorbs every original vertex.

    Requires order at least three; at order two the line digraph can have
    a block that is not a strong cover, and the lift breaks down.
    """
    _check_lift(P, D, "middle-digraph")
    return VertexPartition((0,) * D.vertex_count + tuple(P.block_of), P.block_count)


def lift_total_partition(P: VertexPartition, D: Digraph) -> VertexPartition:
    """Carry a strong in-domatic partition of the line digraph onto the
    total digraph: the original vertices become one extra block."""
    _check_lift(P, D, "total-digraph")
    block_of = (0,) * D.vertex_count + tuple(b + 1 for b in P.block_of)
    return VertexPartition(block_of, P.block_count + 1)
