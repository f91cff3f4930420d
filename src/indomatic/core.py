"""Digraph value type and structural queries.

A digraph is loopless and simple: vertex ids are the dense range
``[0, vertex_count)``, arcs are ordered pairs ``(u, v)`` with ``u != v``,
and no arc appears twice.  Vertex sets are plain ``frozenset[int]`` values,
arc sets are ``frozenset[tuple[int, int]]``.  Digraph values are immutable
and hashable, so they may be shared freely.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Optional, Tuple


class NotStrongError(ValueError):
    """An operation that exists only for strongly connected digraphs was
    applied to a digraph that is not strong."""


Arc = Tuple[int, int]


@dataclass(frozen=True)
class Digraph:
    """Immutable loopless simple directed graph.

    ``labels`` is cosmetic display text per vertex; it never affects any
    computation.
    """

    vertex_count: int
    arcs: frozenset
    labels: Optional[tuple] = None

    @property
    def arc_count(self) -> int:
        return len(self.arcs)

    def sorted_arcs(self) -> list:
        return sorted(self.arcs)

    def __repr__(self) -> str:
        return f"Digraph(n={self.vertex_count}, m={len(self.arcs)})"


def make_digraph(vertex_count: int, arcs: Iterable[Arc], labels=None) -> Digraph:
    """Build a validated digraph.

    Rejects loops, endpoints outside ``[0, vertex_count)`` and duplicate
    arcs.  Duplicates are an error rather than being silently merged, so a
    caller that constructs an arc list twice over learns about it.
    """
    if vertex_count < 0:
        raise ValueError(f"vertex_count must be nonnegative, got {vertex_count}")
    arc_list = [(int(u), int(v)) for u, v in arcs]
    seen = set()
    for u, v in arc_list:
        if u == v:
            raise ValueError(f"loop ({u},{v}) not allowed")
        if not (0 <= u < vertex_count and 0 <= v < vertex_count):
            raise ValueError(f"arc ({u},{v}) has an endpoint outside [0,{vertex_count})")
        if (u, v) in seen:
            raise ValueError(f"duplicate arc ({u},{v})")
        seen.add((u, v))
    if labels is not None:
        labels = tuple(labels)
        if len(labels) != vertex_count:
            raise ValueError("labels must cover every vertex")
    return Digraph(vertex_count, frozenset(arc_list), labels)


@lru_cache(maxsize=None)
def out_adjacency(D: Digraph) -> tuple:
    """Out-neighbor lists indexed by vertex id, each sorted ascending."""
    adj = [[] for _ in range(D.vertex_count)]
    for u, v in D.arcs:
        adj[u].append(v)
    return tuple(tuple(sorted(a)) for a in adj)


@lru_cache(maxsize=None)
def in_adjacency(D: Digraph) -> tuple:
    """In-neighbor lists indexed by vertex id, each sorted ascending."""
    adj = [[] for _ in range(D.vertex_count)]
    for u, v in D.arcs:
        adj[v].append(u)
    return tuple(tuple(sorted(a)) for a in adj)


def _check_vertex(D: Digraph, v: int) -> None:
    if not (0 <= v < D.vertex_count):
        raise ValueError(f"vertex {v} outside [0,{D.vertex_count})")


def out_neighbors(D: Digraph, v: int) -> frozenset:
    """All z with (v, z) an arc."""
    _check_vertex(D, v)
    return frozenset(out_adjacency(D)[v])


def in_neighbors(D: Digraph, v: int) -> frozenset:
    """All z with (z, v) an arc."""
    _check_vertex(D, v)
    return frozenset(in_adjacency(D)[v])


def out_degree(D: Digraph, v: int) -> int:
    _check_vertex(D, v)
    return len(out_adjacency(D)[v])


def in_degree(D: Digraph, v: int) -> int:
    _check_vertex(D, v)
    return len(in_adjacency(D)[v])


def min_out_degree(D: Digraph) -> int:
    if D.vertex_count == 0:
        raise ValueError("empty digraph has no minimum out-degree")
    return min(len(a) for a in out_adjacency(D))


def min_in_degree(D: Digraph) -> int:
    if D.vertex_count == 0:
        raise ValueError("empty digraph has no minimum in-degree")
    return min(len(a) for a in in_adjacency(D))


def induced_subdigraph(D: Digraph, S) -> tuple:
    """Subdigraph induced by the vertex set ``S``.

    Returns ``(H, mapping)`` where ``mapping[i]`` is the original id of the
    new vertex ``i``; vertices are re-indexed so ``H`` keeps dense ids.
    """
    members = sorted(set(S))
    if not members:
        raise ValueError("cannot induce on an empty vertex set")
    for v in members:
        _check_vertex(D, v)
    index = {old: new for new, old in enumerate(members)}
    arcs = [(index[u], index[v]) for u, v in D.arcs if u in index and v in index]
    labels = None if D.labels is None else tuple(D.labels[old] for old in members)
    return make_digraph(len(members), arcs, labels), tuple(members)


def arc_induced_subdigraph(D: Digraph, E) -> tuple:
    """Subdigraph induced by the arc set ``E``: its vertices are exactly the
    end-vertices of arcs in ``E`` and its arcs are exactly ``E``.

    Returns ``(H, mapping)`` with the same re-indexing convention as
    :func:`induced_subdigraph`.
    """
    arcs = set(E)
    if not arcs:
        raise ValueError("cannot induce on an empty arc set")
    for a in arcs:
        if a not in D.arcs:
            raise ValueError(f"{a} is not an arc of the digraph")
    members = sorted({u for u, _ in arcs} | {v for _, v in arcs})
    index = {old: new for new, old in enumerate(members)}
    new_arcs = [(index[u], index[v]) for u, v in arcs]
    labels = None if D.labels is None else tuple(D.labels[old] for old in members)
    return make_digraph(len(members), new_arcs, labels), tuple(members)


def _reaches_all(adj, start: int, n: int) -> bool:
    seen = [False] * n
    seen[start] = True
    queue = deque([start])
    count = 1
    while queue:
        u = queue.popleft()
        for w in adj[u]:
            if not seen[w]:
                seen[w] = True
                count += 1
                queue.append(w)
    return count == n


def is_strong(D: Digraph) -> bool:
    """True iff every ordered vertex pair is joined by a walk.

    The single-vertex digraph counts as strong, so singleton induced
    subdigraphs behave correctly inside partition checks.
    """
    n = D.vertex_count
    if n == 0:
        raise ValueError("strong connectivity is undefined for the empty digraph")
    if n == 1:
        return True
    return _reaches_all(out_adjacency(D), 0, n) and _reaches_all(in_adjacency(D), 0, n)


def is_semicomplete(D: Digraph) -> bool:
    """Every vertex pair is joined by at least one arc."""
    n = D.vertex_count
    for u in range(n):
        for v in range(u + 1, n):
            if (u, v) not in D.arcs and (v, u) not in D.arcs:
                return False
    return True


def is_complete(D: Digraph) -> bool:
    """Every vertex pair is joined by both arcs."""
    return len(D.arcs) == D.vertex_count * (D.vertex_count - 1)


def is_symmetric_arc(D: Digraph, arc: Arc) -> bool:
    """True iff the reverse of ``arc`` is also an arc."""
    u, v = arc
    if (u, v) not in D.arcs:
        raise ValueError(f"({u},{v}) is not an arc of the digraph")
    return (v, u) in D.arcs


def converse(D: Digraph) -> Digraph:
    """Reverse every arc."""
    return make_digraph(D.vertex_count, [(v, u) for u, v in D.arcs], D.labels)


def delete_arc(D: Digraph, arc: Arc) -> Digraph:
    """Copy of ``D`` without the given arc."""
    u, v = arc
    if (u, v) not in D.arcs:
        raise ValueError(f"({u},{v}) is not an arc of the digraph")
    return Digraph(D.vertex_count, D.arcs - {(u, v)}, D.labels)


def _degree_signature(D: Digraph, v: int) -> tuple:
    return (len(out_adjacency(D)[v]), len(in_adjacency(D)[v]))


def are_isomorphic(D: Digraph, H: Digraph) -> bool:
    """Decide isomorphism by backtracking over vertex bijections.

    Vertices are matched by (out-degree, in-degree) signature before the
    arc-preservation check, which keeps the search tractable for the small
    orders (<= 8) this is meant for.
    """
    n = D.vertex_count
    if n != H.vertex_count or len(D.arcs) != len(H.arcs):
        return False
    if n == 0:
        return True
    sig_d = [_degree_signature(D, v) for v in range(n)]
    sig_h = [_degree_signature(H, v) for v in range(n)]
    if sorted(sig_d) != sorted(sig_h):
        return False
    # Map vertices of D in an order that fixes high-degree vertices first.
    order = sorted(range(n), key=lambda v: (-sig_d[v][0] - sig_d[v][1], v))
    mapping = [-1] * n
    used = [False] * n

    def extend(pos: int) -> bool:
        if pos == n:
            return True
        v = order[pos]
        for w in range(n):
            if used[w] or sig_h[w] != sig_d[v]:
                continue
            ok = True
            for prev_pos in range(pos):
                u = order[prev_pos]
                if ((u, v) in D.arcs) != ((mapping[u], w) in H.arcs):
                    ok = False
                    break
                if ((v, u) in D.arcs) != ((w, mapping[u]) in H.arcs):
                    ok = False
                    break
            if ok:
                mapping[v] = w
                used[w] = True
                if extend(pos + 1):
                    return True
                used[w] = False
                mapping[v] = -1
        return False

    return extend(0)
