"""Underlying-graph invariants: connectivity, connected domatic number,
clique domination and planarity."""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from typing import Iterable, Optional, Tuple

from ._search import partition_search
from .core import Digraph, _digraph_fault, _dominates, _masks, _reaches, _require_subset
from .domination import VertexPartition, _block_masks, _diagnose
from .solver import SolveResult, _largest


@dataclass(frozen=True)
class UGraph:
    """Immutable simple undirected graph; edges are sorted vertex pairs.

    ``masks`` is computed once per instance, on first use; it is not a
    field, so equality, hashing and ``repr`` ignore it.
    """

    vertex_count: int
    edges: frozenset

    @cached_property
    def masks(self) -> tuple:
        """Bit w of ``masks[v]`` is set iff {v, w} is an edge."""
        pairs = [(u, v) for u, v in self.edges] + [(v, u) for u, v in self.edges]
        return _masks(self.vertex_count, pairs)

    def __repr__(self) -> str:
        return f"UGraph(n={self.vertex_count}, m={len(self.edges)})"


def make_ugraph(vertex_count: int, edges: Iterable[Tuple[int, int]]) -> UGraph:
    """Build a validated graph.  Each edge becomes its sorted pair and the
    pairs follow the digraph rules, so an edge given both ways is a
    duplicate."""
    pairs = [(min(u, v), max(u, v)) for u, v in edges]
    fault = _digraph_fault(vertex_count, pairs)
    if fault is not None:
        raise ValueError(fault[1])
    return UGraph(vertex_count, frozenset(pairs))


def underlying_graph(D: Digraph) -> UGraph:
    """Forget orientation; antiparallel arcs merge into one edge."""
    return make_ugraph(
        D.vertex_count, {(min(u, v), max(u, v)) for u, v in D.arcs}
    )


def _connected_on(masks, vertices: int) -> bool:
    return _reaches(vertices & -vertices, masks, vertices, vertices)


def is_connected(G: UGraph) -> bool:
    if G.vertex_count == 0:
        raise ValueError("connectivity is undefined for the empty graph")
    return _connected_on(G.masks, (1 << G.vertex_count) - 1)


def is_connected_subset(G: UGraph, S) -> bool:
    """The subgraph induced by S is connected."""
    return _connected_on(G.masks, _require_subset(G, S))


def is_dominating_set(G: UGraph, S) -> bool:
    """Every vertex outside S has a neighbor in S."""
    return _dominates(G.masks, _require_subset(G, S))


def is_clique(G: UGraph, S) -> bool:
    """Every two members of S are adjacent."""
    members = _require_subset(G, S)
    return all(
        not members & ~(mask | 1 << v) for v, mask in enumerate(G.masks) if members >> v & 1
    )


def vertex_connectivity(G: UGraph) -> int:
    """Minimum number of vertices whose removal disconnects G, found by
    exhaustive cut search; complete graphs return n-1 by convention."""
    n = G.vertex_count
    if n < 2:
        raise ValueError("vertex connectivity needs at least two vertices")
    if not is_connected(G):
        raise ValueError("vertex connectivity is defined for connected graphs")
    full = (1 << n) - 1
    bits = [1 << v for v in range(n)]
    for size in range(0, n - 1):
        for cut in combinations(bits, size):
            if not _connected_on(G.masks, full - sum(cut)):
                return size
    return n - 1


def connected_domatic_number(G: UGraph) -> SolveResult:
    """Largest k such that the vertices split into k connected dominating
    sets, as a ``SolveResult``: the value, a witness ``VertexPartition``
    and the ``SolveStats`` of the searches.

    Merging blocks of such a partition preserves the property (each block
    dominates, so its vertices all touch any other block), hence the
    feasible sizes form a prefix: a partition at the cap is the answer,
    and below a failed cap the first infeasible k ends the search.  The
    witness is checked block by block, and a failed check raises
    ``WitnessCheckError``.
    """
    n = G.vertex_count
    if n == 0:
        raise ValueError("empty graph")
    if not is_connected(G):
        raise ValueError("connected domatic partitions need a connected graph")
    masks = G.masks
    cap = min(mask.bit_count() for mask in masks) + 1 if n > 1 else 1
    if n > 1 and len(G.edges) < n * (n - 1) // 2:
        cap = min(cap, vertex_connectivity(G))
    # Domination and connectivity are in-domination and strongness of the
    # symmetric neighbor relation.
    return _largest(
        G, lambda k, counter: partition_search(n, masks, k, (masks, masks), counter),
        cap, n, VertexPartition,
        lambda _, P: _diagnose(masks, masks, _block_masks(G, P)).ok,
        "connected domatic partition",
    )


def clique_domination_number(G: UGraph) -> Optional[int]:
    """Minimum size of a dominating clique, or None when no clique
    dominates."""
    n = G.vertex_count
    if n == 0:
        raise ValueError("empty graph")
    for size in range(1, n + 1):
        for S in combinations(range(n), size):
            if is_clique(G, S) and is_dominating_set(G, S):
                return size
    return None


def is_planar(G: UGraph) -> bool:
    """Planarity decision.  Order and edge count settle most graphs: by
    Kuratowski's theorem K5 is the only non-planar graph on at most five
    vertices, and by Euler's formula a simple planar graph on n >= 3
    vertices has at most 3n - 6 edges.  The rest go to networkx's
    left-right embedding algorithm."""
    n = G.vertex_count
    m = len(G.edges)
    if n <= 5:
        return m < 10
    if m > 3 * n - 6:
        return False
    # Imported here: loading networkx doubles the memory of `import indomatic`.
    import networkx as nx

    H = nx.Graph()
    H.add_nodes_from(range(G.vertex_count))
    H.add_edges_from(G.edges)
    planar, _ = nx.check_planarity(H)
    return planar
