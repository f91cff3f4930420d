"""Underlying-graph invariants: connectivity, connected domatic number,
clique domination and planarity."""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import Iterable, Tuple, Union

import networkx as nx

from ._search import largest_partition, neighbor_masks, partition_search
from .core import Digraph


@dataclass(frozen=True)
class UGraph:
    """Immutable simple undirected graph; edges are sorted vertex pairs."""

    vertex_count: int
    edges: frozenset

    def __repr__(self) -> str:
        return f"UGraph(n={self.vertex_count}, m={len(self.edges)})"


class NoDominatingClique:
    """Result marker: no vertex set of the graph is simultaneously a clique
    and a dominating set."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "NoDominatingClique"


NO_DOMINATING_CLIQUE = NoDominatingClique()


def make_ugraph(vertex_count: int, edges: Iterable[Tuple[int, int]]) -> UGraph:
    if vertex_count < 0:
        raise ValueError("vertex_count must be nonnegative")
    normalized = set()
    for u, v in edges:
        if u == v:
            raise ValueError(f"self-edge at {u} not allowed")
        if not (0 <= u < vertex_count and 0 <= v < vertex_count):
            raise ValueError(f"edge ({u},{v}) has an endpoint outside [0,{vertex_count})")
        e = (min(u, v), max(u, v))
        if e in normalized:
            raise ValueError(f"duplicate edge {e}")
        normalized.add(e)
    return UGraph(vertex_count, frozenset(normalized))


def underlying_graph(D: Digraph) -> UGraph:
    """Forget orientation; antiparallel arcs merge into one edge."""
    return make_ugraph(
        D.vertex_count, {(min(u, v), max(u, v)) for u, v in D.arcs}
    )


@lru_cache(maxsize=None)
def adjacency(G: UGraph) -> tuple:
    adj = [set() for _ in range(G.vertex_count)]
    for u, v in G.edges:
        adj[u].add(v)
        adj[v].add(u)
    return tuple(frozenset(a) for a in adj)


def neighbors(G: UGraph, v: int) -> frozenset:
    if not (0 <= v < G.vertex_count):
        raise ValueError(f"vertex {v} outside [0,{G.vertex_count})")
    return adjacency(G)[v]


def _connected_on(adj, members) -> bool:
    members = set(members)
    start = next(iter(members))
    seen = {start}
    queue = deque([start])
    while queue:
        u = queue.popleft()
        for w in adj[u]:
            if w in members and w not in seen:
                seen.add(w)
                queue.append(w)
    return seen == members


def is_connected(G: UGraph) -> bool:
    if G.vertex_count == 0:
        raise ValueError("connectivity is undefined for the empty graph")
    return _connected_on(adjacency(G), range(G.vertex_count))


def is_connected_subset(G: UGraph, S) -> bool:
    """The subgraph induced by S is connected."""
    S = _require_subset(G, S)
    return _connected_on(adjacency(G), S)


def _require_subset(G: UGraph, S) -> frozenset:
    S = frozenset(S)
    if not S:
        raise ValueError("set must be nonempty")
    for v in S:
        if not (0 <= v < G.vertex_count):
            raise ValueError(f"vertex {v} outside [0,{G.vertex_count})")
    return S


def is_dominating_set(G: UGraph, S) -> bool:
    """Every vertex outside S has a neighbor in S."""
    S = _require_subset(G, S)
    adj = adjacency(G)
    return all(adj[x] & S for x in range(G.vertex_count) if x not in S)


def is_clique(G: UGraph, S) -> bool:
    S = _require_subset(G, S)
    return all(
        (min(u, v), max(u, v)) in G.edges for u, v in combinations(sorted(S), 2)
    )


def vertex_connectivity(G: UGraph) -> int:
    """Minimum number of vertices whose removal disconnects G, found by
    exhaustive cut search; complete graphs return n-1 by convention."""
    n = G.vertex_count
    if n < 2:
        raise ValueError("vertex connectivity needs at least two vertices")
    if not is_connected(G):
        raise ValueError("vertex connectivity is defined for connected graphs")
    adj = adjacency(G)
    for size in range(0, n - 1):
        for cut in combinations(range(n), size):
            rest = [v for v in range(n) if v not in cut]
            if len(rest) >= 2 and not _connected_on(adj, rest):
                return size
    return n - 1


def connected_domatic_number(G: UGraph):
    """Largest k such that the vertices split into k connected dominating
    sets, along with a witness partition (tuple of frozensets).

    Merging blocks of such a partition preserves the property (each block
    dominates, so its vertices all touch any other block), hence the
    feasible sizes form a prefix and an ascending search is exact.
    """
    n = G.vertex_count
    if n == 0:
        raise ValueError("empty graph")
    if not is_connected(G):
        raise ValueError("connected domatic partitions need a connected graph")
    adj = adjacency(G)
    cover = [sorted(adj[v]) for v in range(n)]
    # Connectivity is strongness of the symmetric neighbor relation.
    masks = neighbor_masks(adj)

    cap = min(len(a) for a in adj) + 1 if n > 1 else 1
    if n > 1 and len(G.edges) < n * (n - 1) // 2:
        cap = min(cap, vertex_connectivity(G))
    best = largest_partition(
        lambda k: partition_search(n, cover, k, (masks, masks)), cap, (frozenset(range(n)),)
    )
    return len(best), best


def clique_domination_number(G: UGraph) -> Union[int, NoDominatingClique]:
    """Minimum size of a dominating clique, or the NoDominatingClique
    marker when no clique dominates."""
    n = G.vertex_count
    if n == 0:
        raise ValueError("empty graph")
    for size in range(1, n + 1):
        for S in combinations(range(n), size):
            S = frozenset(S)
            if is_clique(G, S) and is_dominating_set(G, S):
                return size
    return NO_DOMINATING_CLIQUE


def is_planar(G: UGraph) -> bool:
    """Planarity decision, delegated to networkx's embedding algorithm."""
    H = nx.Graph()
    H.add_nodes_from(range(G.vertex_count))
    H.add_edges_from(G.edges)
    planar, _ = nx.check_planarity(H)
    return planar
