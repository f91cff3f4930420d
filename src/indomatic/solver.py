"""Exact computation of the strong in-domatic number and its relatives.

All four invariants are maxima over partitions whose feasible sizes form a
prefix of 1..max (merging two blocks of a feasible partition stays
feasible), so the solver searches k = 1, 2, ... and stops at the first
infeasible size.  The search assigns items in fixed order with
block-opening symmetry breaking and cuts a subtree as soon as some block
can no longer become strong (for arc blocks: a strong cover); see
``_search``.  Every returned witness is checked against the public
predicates, and a failed check raises ``WitnessCheckError``.

``brute_force_oracle`` is the trust anchor: it enumerates every set
partition outright and filters with the public predicates, sharing no
pruning machinery with the solver.
"""
from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Iterator, List, Optional, Union

from ._search import SearchCounter, arc_partition_search, largest_partition
from ._search import neighbor_masks, partition_search
from .core import (
    Digraph,
    NotStrongError,
    converse,
    is_semicomplete,
    is_strong,
    min_in_degree,
    min_out_degree,
    out_adjacency,
    in_adjacency,
)
from .undirected import underlying_graph, vertex_connectivity
from .domination import (
    ArcPartition,
    VertexPartition,
    in_dominating_vertices,
    is_in_domatic_partition,
    is_strong_cover_partition,
    is_strong_in_domatic_partition,
    is_strong_out_domatic_partition,
)


@dataclass(frozen=True)
class SolveStats:
    nodes: int
    seconds: float
    # Subtrees cut because a block could no longer become strong.
    strong_prunes: int = 0


@dataclass(frozen=True)
class SolveResult:
    value: int
    witness: Union[VertexPartition, ArcPartition]
    stats: SolveStats


_NO_PARTITION_MSG = (
    "no strong in-domatic partition exists: a digraph has one "
    "if and only if it is strong"
)


class WitnessCheckError(RuntimeError):
    """A solver witness failed the public predicate it must satisfy: the
    search itself is wrong."""


def _check_witness(holds: bool, what: str) -> None:
    if not holds:
        raise WitnessCheckError(f"solver witness is not a valid {what}")


def _require_strong(D: Digraph) -> None:
    if not is_strong(D):
        raise NotStrongError(_NO_PARTITION_MSG)


def _strong_masks(D: Digraph) -> tuple:
    return neighbor_masks(out_adjacency(D)), neighbor_masks(in_adjacency(D))


def _stats(counter: SearchCounter, start: float) -> SolveStats:
    return SolveStats(counter.nodes, time.perf_counter() - start, counter.strong_prunes)


def search_cap(D: Digraph) -> int:
    """Admissible cap on the strong in-domatic number, from the proven
    bounds: minimum out-degree plus one; minimum out-degree when no vertex
    is in-dominating on its own; the underlying graph's vertex
    connectivity when the digraph is not semicomplete.

    Connectivity is exhaustive-search priced, so it only joins the cap at
    small orders where it is cheap; skipping it merely loosens pruning.
    """
    n = D.vertex_count
    if n == 1:
        return 1
    cap = min_out_degree(D) + 1
    if not in_dominating_vertices(D):
        cap = min(cap, min_out_degree(D))
    if 2 <= n <= 8 and not is_semicomplete(D):
        cap = min(cap, vertex_connectivity(underlying_graph(D)))
    return max(cap, 1)


def exists_partition_into_k(D: Digraph, k: int) -> Optional[VertexPartition]:
    """A strong in-domatic partition with exactly k blocks, or None.

    Because the feasible k form a prefix, absence here certifies absence
    for every larger k as well.
    """
    _require_strong(D)
    n = D.vertex_count
    if not (1 <= k <= n):
        raise ValueError(f"k={k} outside [1,{n}]")
    found = next(partition_search(n, out_adjacency(D), k, _strong_masks(D)), None)
    if found is None:
        return None
    return VertexPartition.from_blocks(found)


def strong_in_domatic_number(D: Digraph) -> SolveResult:
    """Maximum number of blocks over strong in-domatic partitions, with a
    canonical witness.  Raises NotStrongError on non-strong input: such a
    digraph has no strong in-domatic partition at all."""
    _require_strong(D)
    start = time.perf_counter()
    counter = SearchCounter()
    n = D.vertex_count
    cover = out_adjacency(D)
    masks = _strong_masks(D)
    found = largest_partition(
        lambda k: partition_search(n, cover, k, masks, counter), search_cap(D), (range(n),)
    )
    witness = VertexPartition.from_blocks(found)
    result = SolveResult(witness.block_count, witness, _stats(counter, start))
    _check_witness(
        is_strong_in_domatic_partition(D, result.witness), "strong in-domatic partition"
    )
    return result


def strong_out_domatic_number(D: Digraph) -> SolveResult:
    """Dual invariant via the converse digraph; the witness is valid as a
    strong out-domatic partition of D itself."""
    _require_strong(D)
    res = strong_in_domatic_number(converse(D))
    _check_witness(
        is_strong_out_domatic_partition(D, res.witness), "strong out-domatic partition"
    )
    return res


def in_domatic_number(D: Digraph) -> SolveResult:
    """Maximum partition of the vertices into in-dominating sets, with no
    strongness requirement; defined for every nonempty digraph."""
    n = D.vertex_count
    if n == 0:
        raise ValueError("empty digraph")
    start = time.perf_counter()
    counter = SearchCounter()
    cover = out_adjacency(D)
    found = largest_partition(
        lambda k: partition_search(n, cover, k, None, counter),
        min_out_degree(D) + 1,
        (range(n),),
    )
    witness = VertexPartition.from_blocks(found)
    result = SolveResult(witness.block_count, witness, _stats(counter, start))
    _check_witness(is_in_domatic_partition(D, result.witness), "in-domatic partition")
    return result


def enumerate_max_partitions(D: Digraph) -> List[VertexPartition]:
    """All strong in-domatic partitions with the maximum block count, each
    reported once with blocks ordered by minimum member."""
    value = strong_in_domatic_number(D).value
    searched = partition_search(D.vertex_count, out_adjacency(D), value, _strong_masks(D))
    return [VertexPartition.from_blocks(parts) for parts in searched]


# ---------------------------------------------------------------------------
# Arc partitions into strong covers


def lambda_number(D: Digraph) -> SolveResult:
    """Maximum number of blocks in a partition of the arcs into strong
    covers.  Unions of strong covers are strong covers, so feasible sizes
    again form a prefix.  Every block spans every vertex with an out-arc
    and an in-arc, so the cap is the smaller minimum degree."""
    if D.vertex_count < 2 or not D.arcs:
        raise ValueError("arc covers need a digraph with at least one arc")
    _require_strong(D)
    start = time.perf_counter()
    counter = SearchCounter()
    cap = min(min_out_degree(D), min_in_degree(D))
    arcs = D.sorted_arcs()
    found = largest_partition(
        lambda k: arc_partition_search(D.vertex_count, arcs, k, counter), cap, (arcs,)
    )
    witness = ArcPartition.from_blocks(found)
    result = SolveResult(witness.block_count, witness, _stats(counter, start))
    _check_witness(
        is_strong_cover_partition(D, result.witness), "partition into strong covers"
    )
    return result


# ---------------------------------------------------------------------------
# Brute-force oracle

ORACLE_VERTEX_CAP = 6
ORACLE_ARC_CAP = 12


def _all_set_partitions(items: list) -> Iterator[list]:
    """Every partition of ``items`` exactly once, blocks ordered by first
    appearance (restricted-growth enumeration, no pruning)."""
    n = len(items)
    blocks: List[list] = []

    def rec(i: int) -> Iterator[list]:
        if i == n:
            yield [list(b) for b in blocks]
            return
        x = items[i]
        for b in blocks:
            b.append(x)
            yield from rec(i + 1)
            b.pop()
        blocks.append([x])
        yield from rec(i + 1)
        blocks.pop()

    if n == 0:
        return
    yield from rec(0)


def brute_force_oracle(D: Digraph, which: str) -> int:
    """Independent value computation by exhaustive set-partition
    enumeration filtered through the public predicates.

    ``which`` selects the invariant: "dsminus", "dsplus", "indomatic" or
    "lambda".  Single-threaded by design; this function is the reference
    the real solver is judged against.
    """
    if which in ("dsminus", "dsplus", "indomatic"):
        if not (1 <= D.vertex_count <= ORACLE_VERTEX_CAP):
            raise ValueError(
                f"oracle handles 1 to {ORACLE_VERTEX_CAP} vertices, got {D.vertex_count}"
            )
        if which == "dsminus":
            _require_strong(D)
            predicate = is_strong_in_domatic_partition
        elif which == "dsplus":
            _require_strong(D)
            predicate = is_strong_out_domatic_partition
        else:
            predicate = is_in_domatic_partition
        best = 0
        for blocks in _all_set_partitions(list(range(D.vertex_count))):
            if len(blocks) <= best:
                continue
            P = VertexPartition.from_blocks(blocks)
            if predicate(D, P):
                best = len(blocks)
        if best == 0:
            raise NotStrongError(_NO_PARTITION_MSG)
        return best
    if which == "lambda":
        if len(D.arcs) > ORACLE_ARC_CAP:
            raise ValueError(
                f"oracle handles at most {ORACLE_ARC_CAP} arcs, got {len(D.arcs)}"
            )
        _require_strong(D)
        if not D.arcs:
            raise ValueError("lambda needs at least one arc")
        best = 0
        for blocks in _all_set_partitions(D.sorted_arcs()):
            if len(blocks) <= best:
                continue
            Q = ArcPartition.from_blocks(blocks)
            if is_strong_cover_partition(D, Q):
                best = len(blocks)
        return best
    raise ValueError(f"unknown invariant selector {which!r}")
