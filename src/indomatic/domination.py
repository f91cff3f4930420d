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
    _dominates,
    _require_arcs,
    _require_strong,
    _require_subset,
    _strong_on,
    is_strong,
)


def _check_block_indices(indices, block_count: int) -> None:
    """Raise ``ValueError`` unless all are integers, ``block_count`` is
    nonnegative, every index lies in ``range(block_count)`` and each block
    gets at least one."""
    if type(block_count) is not int or block_count < 0:
        raise ValueError(f"block count {block_count!r} is not a nonnegative integer")
    counts = [0] * block_count
    for b in indices:
        if type(b) is not int or not (0 <= b < block_count):
            raise ValueError(f"block index {b!r} outside [0,{block_count})")
        counts[b] += 1
    if any(c == 0 for c in counts):
        raise ValueError("every block must be nonempty")


@dataclass(frozen=True)
class VertexPartition:
    """Partition of a digraph's vertex set into indexed nonempty blocks.

    ``block_of[v]`` is the block index of vertex v; indices run over
    ``range(block_count)`` and every block is nonempty.
    """

    block_of: tuple
    block_count: int

    def __post_init__(self):
        _check_block_indices(self.block_of, self.block_count)

    @classmethod
    def from_blocks(cls, blocks: Iterable[Iterable[int]]) -> "VertexPartition":
        blocks = [list(b) for b in blocks]
        dense = "blocks must cover a dense vertex range exactly once"
        # Before any set is built: a member that is a list is unhashable.
        if any(type(v) is not int for b in blocks for v in b):
            raise ValueError(dense)
        blocks = [set(b) for b in blocks]
        if any(not b for b in blocks):
            raise ValueError("empty block in partition")
        members = [v for b in blocks for v in b]
        if len(members) != len(set(members)):
            raise ValueError("blocks overlap")
        if sorted(members) != list(range(len(members))):
            raise ValueError(dense)
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


@dataclass(frozen=True)
class ArcPartition:
    """Partition of a digraph's arc set into indexed nonempty blocks.

    Each arc appears once in ``block_of``, with a block index in
    ``range(block_count)``, and every block is nonempty.
    """

    block_of: tuple  # tuple of ((u, v), block) pairs, sorted by arc
    block_count: int

    def __post_init__(self):
        for arc, _ in self.block_of:
            if type(arc) is not tuple or len(arc) != 2 or any(type(end) is not int for end in arc):
                raise ValueError(f"arc {arc!r} is not a pair of integers")
        if len({arc for arc, _ in self.block_of}) != len(self.block_of):
            raise ValueError("an arc is listed twice")
        _check_block_indices([b for _, b in self.block_of], self.block_count)

    @classmethod
    def from_blocks(cls, blocks: Iterable[Iterable[Tuple[int, int]]]) -> "ArcPartition":
        blocks = [set(b) for b in blocks]
        return cls(tuple(sorted((arc, i) for i, b in enumerate(blocks) for arc in b)), len(blocks))

    def mapping(self) -> Dict[Tuple[int, int], int]:
        return dict(self.block_of)

    def blocks(self) -> tuple:
        out = [[] for _ in range(self.block_count)]
        for arc, b in self.block_of:
            out[b].append(arc)
        return tuple(frozenset(b) for b in out)


@dataclass(frozen=True)
class PartitionDiagnosis:
    """Outcome of a partition predicate with the first failure located."""

    ok: bool
    failing_block: Optional[int] = None
    reason: Optional[str] = None

    def __bool__(self) -> bool:
        return self.ok


def is_in_dominating(D: Digraph, S) -> bool:
    """Every vertex outside S has an out-neighbor inside S."""
    return _dominates(D.out_masks, _require_subset(D, S))


def is_strong_in_dominating(D: Digraph, S) -> bool:
    """In-dominating with a strongly connected induced subdigraph.

    Singletons induce the one-vertex digraph, which is strong.
    """
    return _diagnose(D.out_masks, D.in_masks, [_require_subset(D, S)]).ok


def _block_masks(D: Digraph, P: VertexPartition) -> list:
    """The bitmask of each block of P, in block order, from one pass over
    ``block_of``; P must cover exactly the vertices of D."""
    if len(P.block_of) != D.vertex_count:
        raise ValueError(
            f"partition covers {len(P.block_of)} vertices, digraph has {D.vertex_count}"
        )
    blocks = [0] * P.block_count
    for v, b in enumerate(P.block_of):
        blocks[b] |= 1 << v
    return blocks


def _diagnose(out_masks, in_masks, blocks) -> PartitionDiagnosis:
    """The first of the nonempty vertex masks ``blocks`` that is not
    in-dominating along ``out_masks`` or not strong, and which it fails."""
    for i, block in enumerate(blocks):
        if not _dominates(out_masks, block):
            return PartitionDiagnosis(False, i, "not in-dominating")
        if not _strong_on(out_masks, in_masks, block, block):
            return PartitionDiagnosis(False, i, "induced subdigraph not strong")
    return PartitionDiagnosis(True)


def check_strong_in_domatic_partition(D: Digraph, P: VertexPartition) -> PartitionDiagnosis:
    """Per-block diagnosis: the first failing block and whether it fails
    in-domination or strongness."""
    return _diagnose(D.out_masks, D.in_masks, _block_masks(D, P))


def is_strong_in_domatic_partition(D: Digraph, P: VertexPartition) -> bool:
    return check_strong_in_domatic_partition(D, P).ok


def check_strong_out_domatic_partition(D: Digraph, P: VertexPartition) -> PartitionDiagnosis:
    """Out-domination dual: the in-domatic check on the converse, whose
    out-masks are D's in-masks; induced strongness ignores direction."""
    return _diagnose(D.in_masks, D.out_masks, _block_masks(D, P))


def is_strong_out_domatic_partition(D: Digraph, P: VertexPartition) -> bool:
    return check_strong_out_domatic_partition(D, P).ok


def is_in_domatic_partition(D: Digraph, P: VertexPartition) -> bool:
    """Every block in-dominating; induced strongness not required."""
    return all(_dominates(D.out_masks, block) for block in _block_masks(D, P))


def in_dominating_vertices(D: Digraph) -> frozenset:
    """Vertices v whose singleton {v} is an in-dominating set: bit v is set
    in ``out_masks[x] | 1 << x`` for every vertex x."""
    common = (1 << D.vertex_count) - 1
    for x, mask in enumerate(D.out_masks):
        common &= mask | 1 << x
    return frozenset(v for v in range(D.vertex_count) if common >> v & 1)


def is_strong_cover(D: Digraph, E) -> bool:
    """E spans every vertex of D and its arc-induced subdigraph is strong."""
    _require_strong(D, "strong covers are defined only for strong digraphs")
    E = _require_arcs(D, E)
    # E spans every vertex and is strong exactly when the digraph (V, E)
    # is strong: n >= 2 here, so a vertex E misses is isolated in it.
    return is_strong(Digraph(D.vertex_count, E))


def is_strong_cover_partition(D: Digraph, Q: ArcPartition) -> bool:
    """Every block of the arc partition is a strong cover."""
    _require_strong(D, "strong covers are defined only for strong digraphs")
    if set(Q.mapping()) != set(D.arcs):
        raise ValueError("arc partition must cover exactly the digraph's arcs")
    # Each block is a nonempty set of D's arcs: ``is_strong_cover`` is its last line.
    return all(is_strong(Digraph(D.vertex_count, block)) for block in Q.blocks())
