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

from .core import Digraph, Inapplicable, _reaches, _require_subset, is_complete, make_digraph
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
        raise ValueError("connectivity is undefined for the empty graph")
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
        raise ValueError("empty graph")
    for size in range(1, n + 1):
        for S in combinations(range(n), size):
            if is_clique(G, S) and is_in_dominating(G, S):
                return size
    return None


def is_planar(G: Digraph) -> bool:
    """Planarity decision.  Order and edge count settle most graphs: by
    Kuratowski's theorem K5 is the only non-planar graph on at most five
    vertices, and by Euler's formula a simple planar graph on n >= 3
    vertices has at most 3n - 6 edges.  The rest go to networkx's
    left-right embedding algorithm."""
    _require_graph(G)
    n = G.vertex_count
    m = len(G.arcs) // 2
    if n <= 5:
        return m < 10
    if m > 3 * n - 6:
        return False
    # Imported here: loading networkx doubles the memory of `import indomatic`.
    import networkx as nx

    H = nx.Graph()
    H.add_nodes_from(range(G.vertex_count))
    H.add_edges_from(G.arcs)
    planar, _ = nx.check_planarity(H)
    return planar
