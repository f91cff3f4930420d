"""Predicates for in-dominating sets, strong in-domatic partitions and
strong covers, together with the partition value types.

Direction convention, pinned once and for all: z in-dominates x when
(x, z) is an arc, so a set S is in-dominating iff every vertex x outside
S has an OUT-neighbor inside S.  Getting this backwards is the classic
mistake; the regression test on the directed 3-cycle exists for it.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Tuple

from .core import (
    Digraph,
    NotStrongError,
    arc_induced_subdigraph,
    converse,
    induced_subdigraph,
    is_strong,
    out_adjacency,
)


@dataclass(frozen=True)
class VertexPartition:
    """Partition of a digraph's vertex set into indexed nonempty blocks.

    ``block_of[v]`` is the block index of vertex v; indices run over
    ``range(block_count)`` and every block is nonempty.
    """

    block_of: tuple
    block_count: int

    def __post_init__(self):
        counts = [0] * self.block_count
        for b in self.block_of:
            if not (0 <= b < self.block_count):
                raise ValueError(f"block index {b} outside [0,{self.block_count})")
            counts[b] += 1
        if any(c == 0 for c in counts):
            raise ValueError("every block must be nonempty")

    @classmethod
    def from_blocks(cls, blocks: Iterable[Iterable[int]]) -> "VertexPartition":
        blocks = [sorted(set(b)) for b in blocks]
        if any(not b for b in blocks):
            raise ValueError("empty block in partition")
        members = [v for b in blocks for v in b]
        if len(members) != len(set(members)):
            raise ValueError("blocks overlap")
        if sorted(members) != list(range(len(members))):
            raise ValueError("blocks must cover a dense vertex range exactly once")
        block_of = [0] * len(members)
        for i, b in enumerate(blocks):
            for v in b:
                block_of[v] = i
        return cls(tuple(block_of), len(blocks))

    def blocks(self) -> tuple:
        out = [[] for _ in range(self.block_count)]
        for v, b in enumerate(self.block_of):
            out[b].append(v)
        return tuple(frozenset(b) for b in out)

    def canonical(self) -> "VertexPartition":
        """Relabel blocks in increasing order of their minimum member."""
        order = sorted(range(self.block_count), key=lambda b: min(self.blocks()[b]))
        rename = {old: new for new, old in enumerate(order)}
        return VertexPartition(tuple(rename[b] for b in self.block_of), self.block_count)


@dataclass(frozen=True)
class ArcPartition:
    """Partition of a digraph's arc set into indexed nonempty blocks."""

    block_of: tuple  # tuple of ((u, v), block) pairs, sorted by arc
    block_count: int

    @classmethod
    def from_blocks(cls, blocks: Iterable[Iterable[Tuple[int, int]]]) -> "ArcPartition":
        blocks = [sorted(set(b)) for b in blocks]
        if any(not b for b in blocks):
            raise ValueError("empty block in arc partition")
        assignment = {}
        for i, b in enumerate(blocks):
            for arc in b:
                if arc in assignment:
                    raise ValueError(f"arc {arc} in two blocks")
                assignment[arc] = i
        return cls(tuple(sorted(assignment.items())), len(blocks))

    def mapping(self) -> Dict[Tuple[int, int], int]:
        return dict(self.block_of)

    def blocks(self) -> tuple:
        out = [[] for _ in range(self.block_count)]
        for arc, b in self.block_of:
            out[b].append(arc)
        if any(not b for b in out):
            raise ValueError("every block must be nonempty")
        return tuple(frozenset(b) for b in out)

    def canonical(self) -> "ArcPartition":
        order = sorted(range(self.block_count), key=lambda b: min(self.blocks()[b]))
        rename = {old: new for new, old in enumerate(order)}
        return ArcPartition(
            tuple((arc, rename[b]) for arc, b in self.block_of), self.block_count
        )


@dataclass(frozen=True)
class PartitionDiagnosis:
    """Outcome of a partition predicate with the first failure located."""

    ok: bool
    failing_block: Optional[int] = None
    reason: Optional[str] = None

    def __bool__(self) -> bool:
        return self.ok


def _require_subset(D: Digraph, S) -> frozenset:
    S = frozenset(S)
    if not S:
        raise ValueError("set must be nonempty")
    for v in S:
        if not (0 <= v < D.vertex_count):
            raise ValueError(f"vertex {v} outside [0,{D.vertex_count})")
    return S


def is_in_dominating(D: Digraph, S) -> bool:
    """Every vertex outside S has an out-neighbor inside S."""
    S = _require_subset(D, S)
    adj = out_adjacency(D)
    for x in range(D.vertex_count):
        if x in S:
            continue
        if not any(z in S for z in adj[x]):
            return False
    return True


def is_out_dominating(D: Digraph, S) -> bool:
    """Every vertex outside S has an in-neighbor inside S."""
    return is_in_dominating(converse(D), S)


def is_strong_in_dominating(D: Digraph, S) -> bool:
    """In-dominating with a strongly connected induced subdigraph.

    Singletons induce the one-vertex digraph, which is strong.
    """
    S = _require_subset(D, S)
    if not is_in_dominating(D, S):
        return False
    sub, _ = induced_subdigraph(D, S)
    return is_strong(sub)


def _validate_vertex_partition(D: Digraph, P: VertexPartition) -> None:
    if len(P.block_of) != D.vertex_count:
        raise ValueError(
            f"partition covers {len(P.block_of)} vertices, digraph has {D.vertex_count}"
        )


def check_strong_in_domatic_partition(D: Digraph, P: VertexPartition) -> PartitionDiagnosis:
    """Per-block diagnosis: the first failing block and whether it fails
    in-domination or strongness."""
    _validate_vertex_partition(D, P)
    for i, block in enumerate(P.blocks()):
        if not is_in_dominating(D, block):
            return PartitionDiagnosis(False, i, "not in-dominating")
        sub, _ = induced_subdigraph(D, block)
        if not is_strong(sub):
            return PartitionDiagnosis(False, i, "induced subdigraph not strong")
    return PartitionDiagnosis(True)


def is_strong_in_domatic_partition(D: Digraph, P: VertexPartition) -> bool:
    return check_strong_in_domatic_partition(D, P).ok


def check_strong_out_domatic_partition(D: Digraph, P: VertexPartition) -> PartitionDiagnosis:
    """Out-domination dual: evaluated on the converse digraph."""
    return check_strong_in_domatic_partition(converse(D), P)


def is_strong_out_domatic_partition(D: Digraph, P: VertexPartition) -> bool:
    return check_strong_out_domatic_partition(D, P).ok


def is_in_domatic_partition(D: Digraph, P: VertexPartition) -> bool:
    """Every block in-dominating; induced strongness not required."""
    _validate_vertex_partition(D, P)
    return all(is_in_dominating(D, block) for block in P.blocks())


def in_dominating_vertices(D: Digraph) -> frozenset:
    """Vertices v whose singleton {v} is an in-dominating set."""
    return frozenset(
        v for v in range(D.vertex_count) if is_in_dominating(D, frozenset([v]))
    )


def is_strong_cover(D: Digraph, E) -> bool:
    """E spans every vertex of D and its arc-induced subdigraph is strong."""
    if not is_strong(D):
        raise NotStrongError("strong covers are defined only for strong digraphs")
    E = frozenset(E)
    if not E:
        raise ValueError("arc set must be nonempty")
    for a in E:
        if a not in D.arcs:
            raise ValueError(f"{a} is not an arc of the digraph")
    touched = {u for u, _ in E} | {v for _, v in E}
    if len(touched) != D.vertex_count:
        return False
    sub, _ = arc_induced_subdigraph(D, E)
    return is_strong(sub)


def is_strong_cover_partition(D: Digraph, Q: ArcPartition) -> bool:
    """Every block of the arc partition is a strong cover."""
    if not is_strong(D):
        raise NotStrongError("strong covers are defined only for strong digraphs")
    assignment = Q.mapping()
    if set(assignment) != set(D.arcs):
        raise ValueError("arc partition must cover exactly the digraph's arcs")
    return all(is_strong_cover(D, block) for block in Q.blocks())
