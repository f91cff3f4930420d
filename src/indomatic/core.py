"""Digraph value type and structural queries.

A digraph is loopless and simple: vertex ids are the dense range
``[0, vertex_count)``, arcs are ordered pairs ``(u, v)`` with ``u != v``,
and no arc appears twice.  Vertex sets are plain ``frozenset[int]`` values,
arc sets are ``frozenset[tuple[int, int]]``.  Digraph values are immutable
and hashable, so they may be shared freely.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Optional, Sequence, Tuple


class Inapplicable(ValueError):
    """The operation has nothing to say about this input: the input is
    well formed, but outside the operation's domain."""


class NotStrongError(Inapplicable):
    """An operation that exists only for strongly connected digraphs was
    applied to a digraph that is not strong."""


Arc = Tuple[int, int]


@dataclass(frozen=True)
class Digraph:
    """Immutable loopless simple directed graph.

    ``out_masks`` and ``in_masks`` are computed once per instance, on
    first use; they are not fields, so equality, hashing and ``repr``
    ignore them.
    """

    vertex_count: int
    arcs: frozenset

    def sorted_arcs(self) -> list:
        return sorted(self.arcs)

    @cached_property
    def out_masks(self) -> tuple:
        """Bit w of ``out_masks[v]`` is set iff (v, w) is an arc."""
        return _masks(self.vertex_count, self.arcs)

    @cached_property
    def in_masks(self) -> tuple:
        """Bit w of ``in_masks[v]`` is set iff (w, v) is an arc."""
        return _masks(self.vertex_count, [(v, u) for u, v in self.arcs])

    def __repr__(self) -> str:
        return f"Digraph(n={self.vertex_count}, m={len(self.arcs)})"


def make_digraph(vertex_count: int, arcs: Iterable[Arc]) -> Digraph:
    """Build a validated digraph.

    Rejects loops, endpoints outside ``[0, vertex_count)`` and duplicate
    arcs.  Duplicates are an error rather than being silently merged, so a
    caller that constructs an arc list twice over learns about it.
    """
    arc_list = [(u, v) for u, v in arcs]
    fault = _digraph_fault(vertex_count, arc_list)
    if fault is not None:
        raise ValueError(fault[1])
    return Digraph(vertex_count, frozenset(arc_list))


def _digraph_fault(vertex_count: int, arcs: Sequence[Arc]) -> Optional[tuple]:
    """The first rule that ``vertex_count`` and the pairs ``arcs`` break,
    as ``(index, message)``: index None blames the vertex count, otherwise
    it is the position of the first bad arc.  None if the two make a
    digraph.  Vertex ids are ``int`` values, as in ``_check_vertex``."""
    if type(vertex_count) is not int:
        return None, f"vertex_count must be an int, got {vertex_count!r}"
    if vertex_count < 0:
        return None, f"vertex_count must be nonnegative, got {vertex_count}"
    seen = set()
    for index, (u, v) in enumerate(arcs):
        if u == v:
            return index, f"loop ({u},{v}) not allowed"
        if not (
            type(u) is int and type(v) is int and 0 <= u < vertex_count and 0 <= v < vertex_count
        ):
            return index, f"arc ({u},{v}) has an endpoint outside [0,{vertex_count})"
        if (u, v) in seen:
            return index, f"duplicate arc ({u},{v})"
        seen.add((u, v))
    return None


def _masks(n: int, pairs) -> tuple:
    """One bitmask per vertex of ``range(n)``: bit w of entry v is set for
    each pair (v, w)."""
    masks = [0] * n
    for u, v in pairs:
        masks[u] |= 1 << v
    return tuple(masks)


def _bits(mask: int):
    """The members of the bitmask ``mask``, in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _members(mask: int) -> frozenset:
    return frozenset(_bits(mask))


def _reaches(root: int, masks: Sequence[int], allowed: int, block: int) -> bool:
    """Every member of ``block`` is reachable from some vertex of the mask
    ``root``, which may hold several, along ``masks`` without leaving
    ``allowed``."""
    seen = frontier = root
    while frontier and block & ~seen:
        step = 0
        while frontier:
            low = frontier & -frontier
            step |= masks[low.bit_length() - 1]
            frontier ^= low
        frontier = step & allowed & ~seen
        seen |= frontier
    return not block & ~seen


def _strong_on(
    out_masks: Sequence[int], in_masks: Sequence[int], allowed: int, block: int
) -> bool:
    """Inside ``allowed``, the least member of the nonempty mask ``block``
    reaches every member of ``block`` and is reached by each.  With
    ``allowed == block`` that says the subdigraph induced by ``block`` is
    strong; the one place a forward and a backward closure are paired."""
    root = block & -block
    return _reaches(root, out_masks, allowed, block) and _reaches(root, in_masks, allowed, block)


def _bypassed(masks: Sequence[int], allowed: int, u: int, v: int) -> bool:
    """Inside ``allowed``, which holds u and v, v is still reachable from u
    along ``masks`` without the arc (u, v).  A shortest such walk leaves u
    by another arc and never comes back to u, so one closure that avoids u
    decides it."""
    return _reaches(masks[u] & allowed & ~(1 << v), masks, allowed & ~(1 << u), 1 << v)


def _dominates(masks: Sequence[int], members: int) -> bool:
    """Every vertex outside the mask ``members`` has a neighbor in it along
    ``masks``: in-domination on out-masks, which on a graph (a symmetric
    digraph) is domination."""
    return all(mask & members for x, mask in enumerate(masks) if not members >> x & 1)


def _check_vertex(D, v: int) -> None:
    if type(v) is not int or not (0 <= v < D.vertex_count):
        raise ValueError(f"vertex {v!r} outside [0,{D.vertex_count})")


def _require_arc(D, arc) -> Arc:
    """``arc`` as a tuple, checked to be an arc of D with integer endpoints:
    ``(0.0, 1)`` hashes like ``(0, 1)`` but is not one."""
    u, v = arc
    if type(u) is not int or type(v) is not int or (u, v) not in D.arcs:
        raise ValueError(f"({u},{v}) is not an arc of the digraph")
    return u, v


def _require_arcs(D, E) -> frozenset:
    """The nonempty arc set E, each member checked by ``_require_arc``
    before any of them is hashed."""
    arcs = frozenset([_require_arc(D, a) for a in E])
    if not arcs:
        raise ValueError("arc set must be nonempty")
    return arcs


def _require_subset(D, S) -> int:
    """The bitmask of S, checked nonempty and inside the vertex range of
    the digraph D."""
    members = 0
    for v in S:
        _check_vertex(D, v)
        members |= 1 << v
    if not members:
        raise ValueError("set must be nonempty")
    return members


def min_out_degree(D: Digraph) -> int:
    if D.vertex_count == 0:
        raise Inapplicable("empty digraph has no minimum out-degree")
    return min(mask.bit_count() for mask in D.out_masks)


def min_in_degree(D: Digraph) -> int:
    if D.vertex_count == 0:
        raise Inapplicable("empty digraph has no minimum in-degree")
    return min(mask.bit_count() for mask in D.in_masks)


def is_strong(D: Digraph) -> bool:
    """True iff every ordered vertex pair is joined by a walk.

    The single-vertex digraph counts as strong, so singleton induced
    subdigraphs behave correctly inside partition checks.
    """
    if not D.vertex_count:
        raise Inapplicable("strong connectivity is undefined for the empty digraph")
    full = (1 << D.vertex_count) - 1
    return _strong_on(D.out_masks, D.in_masks, full, full)


def _require_strong(D: Digraph, message: str) -> None:
    """Raise ``NotStrongError(message)`` unless D is strong."""
    if not is_strong(D):
        raise NotStrongError(message)


def is_strong_subset(D: Digraph, S) -> bool:
    """The subdigraph induced by the nonempty vertex set S is strong."""
    members = _require_subset(D, S)
    return _strong_on(D.out_masks, D.in_masks, members, members)


def stays_strong_without(D: Digraph, arc: Arc) -> bool:
    """For a strong ``D``: ``D`` minus ``arc`` is still strong.  That holds
    exactly when the head of (u, v) stays reachable from its tail, since a
    walk through the arc can take that detour instead."""
    u, v = _require_arc(D, arc)
    return _bypassed(D.out_masks, (1 << D.vertex_count) - 1, u, v)


def is_semicomplete(D: Digraph) -> bool:
    """Every vertex pair is joined by at least one arc."""
    full = (1 << D.vertex_count) - 1
    return all(D.out_masks[v] | D.in_masks[v] | 1 << v == full for v in range(D.vertex_count))


def is_complete(D: Digraph) -> bool:
    """Every vertex pair is joined by both arcs."""
    return len(D.arcs) == D.vertex_count * (D.vertex_count - 1)


def converse(D: Digraph) -> Digraph:
    """Reverse every arc.  Reversal keeps a digraph loopless and simple, so
    the converse is not validated again, and its masks are D's, swapped."""
    C = Digraph(D.vertex_count, frozenset([(v, u) for u, v in D.arcs]))
    vars(C).update(out_masks=D.in_masks, in_masks=D.out_masks)
    return C


def delete_arc(D: Digraph, arc: Arc) -> Digraph:
    """Copy of ``D`` without the given arc."""
    return Digraph(D.vertex_count, D.arcs - {_require_arc(D, arc)})
