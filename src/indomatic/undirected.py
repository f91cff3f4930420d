"""Underlying-graph invariants: connectivity, connected domatic number,
clique domination and planarity.

A graph is a symmetric digraph: a ``Digraph`` that has both arcs of every
edge.  On it, domination is in-domination and a connected induced
subgraph is a strong one, so the graph invariants run on the digraph
machinery.  Each public function here but the two builders raises
``ValueError`` on a digraph that is not symmetric.
"""
from __future__ import annotations

from itertools import combinations
from typing import Iterable, Optional, Tuple

from .core import (
    Digraph, Inapplicable, _bits, _reaches, _require_subset, is_complete, make_digraph
)
from .domination import VertexPartition, is_in_dominating, is_strong_in_domatic_partition
from .solver import SolveResult, _largest, _strong_in_domatic_search, search_cap


def make_ugraph(vertex_count: int, edges: Iterable[Tuple[int, int]]) -> Digraph:
    """Build a validated graph: the symmetric digraph with both arcs of
    each edge.  Each edge becomes its sorted pair and the pairs pass
    ``make_digraph``, so an edge given both ways is a duplicate."""
    return underlying_graph(make_digraph(vertex_count, [(min(u, v), max(u, v)) for u, v in edges]))


def underlying_graph(D: Digraph) -> Digraph:
    """Forget orientation: the symmetric digraph with both arcs of every
    arc of D."""
    return Digraph(D.vertex_count, D.arcs | {(v, u) for u, v in D.arcs})


def _require_graph(G: Digraph) -> None:
    """Raise ``ValueError`` unless G is symmetric, that is, a graph."""
    if G.out_masks != G.in_masks:
        raise ValueError("a graph is a symmetric digraph; this one has an arc without its reverse")


def is_connected(G: Digraph) -> bool:
    _require_graph(G)
    if G.vertex_count == 0:
        raise Inapplicable("connectivity is undefined for the empty graph")
    # On a symmetric digraph one closure decides strong connectivity.
    full = (1 << G.vertex_count) - 1
    return _reaches(1, G.out_masks, full, full)


def is_clique(G: Digraph, S) -> bool:
    """Every two members of S are adjacent."""
    _require_graph(G)
    members = _require_subset(G, S)
    return all(
        not members & ~(mask | 1 << v) for v, mask in enumerate(G.out_masks) if members >> v & 1
    )


def vertex_connectivity(G: Digraph) -> int:
    """Minimum number of vertices whose removal disconnects G, found by
    exhaustive cut search; complete graphs return n-1 by convention.
    Raises ``Inapplicable`` unless G is connected of order two or more."""
    n = G.vertex_count
    if n < 2 or not is_connected(G):
        raise Inapplicable(
            "vertex connectivity needs a connected underlying graph of order two or more"
        )
    full = (1 << n) - 1
    bits = [1 << v for v in range(n)]
    for size in range(0, n - 1):
        for cut in combinations(bits, size):
            rest = full - sum(cut)
            # One closure, as in ``is_connected``.
            if not _reaches(rest & -rest, G.out_masks, rest, rest):
                return size
    return n - 1


def connected_domatic_number(G: Digraph) -> SolveResult:
    """Largest k such that the vertices split into k connected dominating
    sets, as a ``SolveResult``: the value, a witness ``VertexPartition``
    and the ``SolveStats`` of the searches.

    On a graph, a connected dominating set is a strong in-dominating set,
    so this is the strong in-domatic search and check on G.  The cap is
    ``search_cap``, lowered to the vertex connectivity off the complete
    case: there kappa <= delta, so it is min(delta + 1, kappa).  Raises
    ``Inapplicable`` unless G is connected, and a failed witness check
    raises ``WitnessCheckError``.
    """
    if not is_connected(G):
        raise Inapplicable("connected domatic number needs a connected underlying graph")
    cap = search_cap(G)
    if not is_complete(G):
        cap = min(cap, vertex_connectivity(G))
    return _largest(
        G, lambda k, counter: _strong_in_domatic_search(G, k, counter),
        cap, G.vertex_count, VertexPartition,
        is_strong_in_domatic_partition, "connected domatic partition",
    )


def clique_domination_number(G: Digraph) -> Optional[int]:
    """Minimum size of a dominating clique, or None when no clique
    dominates."""
    _require_graph(G)
    n = G.vertex_count
    if n == 0:
        raise Inapplicable("empty graph")
    for size in range(1, n + 1):
        for S in combinations(range(n), size):
            if is_clique(G, S) and is_in_dominating(G, S):
                return size
    return None


def is_planar(G: Digraph) -> bool:
    """Planarity decision.  Order and edge count settle most graphs: by
    Kuratowski's theorem K5 is the only non-planar graph on at most five
    vertices, and by Euler's formula a simple planar graph on n >= 3
    vertices has at most 3n - 6 edges.  The rest are decided block by
    biconnected block with the path-embedding test of Demoucron, Malgrange
    and Pertuiset (DMP, 1964) on ``G.out_masks``."""
    _require_graph(G)
    n = G.vertex_count
    m = len(G.arcs) // 2
    if n <= 5:
        return m < 10
    if m > 3 * n - 6:
        return False
    return all(_block_is_planar(G.out_masks, block) for block in _blocks(G.out_masks))


def _blocks(masks):
    """The vertex masks of the biconnected blocks that hold an edge, from
    an iterative lowpoint DFS (Hopcroft and Tarjan, 1973)."""
    order, low = {}, {}
    for root in range(len(masks)):
        if root in order:
            continue
        order[root] = low[root] = len(order)
        trail, frames = [root], [[root, masks[root]]]
        while frames:
            v, todo = frame = frames[-1]
            if todo:
                frame[1] = todo & (todo - 1)
                w = (todo & -todo).bit_length() - 1
                if w in order:
                    low[v] = min(low[v], order[w])
                else:
                    order[w] = low[w] = len(order)
                    trail.append(w)
                    frames.append([w, masks[w]])
                continue
            frames.pop()
            if frames:
                u = frames[-1][0]
                low[u] = min(low[u], low[v])
                if low[v] >= order[u]:  # v's subtree and u make a block
                    block = 1 << u
                    while not block >> v & 1:
                        block |= 1 << trail.pop()
                    yield block


def _route(adj, start: int, inner: int, goal: int) -> list:
    """A path from a vertex of the mask ``goal`` back to ``start`` whose
    inner vertices, one or more, lie in the mask ``inner``."""
    parent, stack, seen = {start: None}, [start], 1 << start
    while stack:
        u = stack.pop()
        if u != start and adj[u] & goal:
            path = [(adj[u] & goal).bit_length() - 1]
            while u is not None:
                path.append(u)
                u = parent[u]
            return path
        fresh = adj[u] & inner & ~seen
        seen |= fresh
        parent.update((x, u) for x in _bits(fresh))
        stack.extend(_bits(fresh))


def _block_is_planar(masks, block: int) -> bool:
    """DMP on a biconnected block past the order and Euler tests: embed a
    cycle; then, while fragments remain (chords, and components of the
    rest with their attachments), fail if one fits in no face, else embed
    a path of one that fits in exactly one face, or of any, in that face."""
    adj = [mask & block for mask in masks]
    k = block.bit_count()
    if k <= 4 or sum(adj[v].bit_count() for v in _bits(block)) > 6 * k - 12:
        return k <= 4
    v = (block & -block).bit_length() - 1
    w = adj[v].bit_length() - 1
    path = _route(adj, w, block & ~(1 << v | 1 << w), 1 << v) + [v]
    faces, placed, laid = [path[:-1]] * 2, 0, [0] * len(masks)
    while True:
        for x, y in zip(path, path[1:]):
            laid[x] |= 1 << y
            laid[y] |= 1 << x
            placed |= 1 << x | 1 << y
        # (attachments, inner vertices) per fragment; a chord has none inside.
        chords = ((x, adj[x] & placed & ~laid[x]) for x in _bits(placed))
        fragments = [(1 << x | 1 << y, 0) for x, ends in chords for y in _bits(ends) if x < y]
        rest = block & ~placed
        while rest:
            inner = new = rest & -rest
            touch = 0
            while new:
                for x in _bits(new):
                    touch |= adj[x]
                new = touch & rest & ~inner
                inner |= new
            fragments.append((touch & placed, inner))
            rest &= ~inner
        if not fragments:
            return True
        rims = [(sum(1 << x for x in f), f) for f in faces]
        fits = [[f for rim, f in rims if not ties & ~rim] for ties, _ in fragments]
        if not all(fits):
            return False
        i = next((i for i, f in enumerate(fits) if len(f) == 1), 0)
        (attach, inner), face = fragments[i], fits[i][0]
        a, b = (attach & -attach).bit_length() - 1, attach.bit_length() - 1
        path = _route(adj, a, inner, attach & attach - 1) if inner else [b, a]
        faces.remove(face)
        i = face.index(path[0])
        face = face[i:] + face[:i]
        j = face.index(path[-1])
        faces += [face[: j + 1] + path[-2:0:-1], face[j:] + face[:1] + path[1:-1]]
