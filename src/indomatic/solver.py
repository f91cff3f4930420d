"""Exact computation of the strong in-domatic number and its relatives.

All four invariants are maxima over partitions whose feasible sizes form a
prefix of 1..max (merging two blocks of a feasible partition stays
feasible), so each is a ladder of decisions "is there a partition into
exactly k blocks?".  The search behind a decision assigns items in fixed
order with block-opening symmetry breaking, places an item at once when
all blocks are open and only one is left to it, and cuts a subtree as
soon as some block can no longer become strong (for arc blocks: a strong
cover); see ``_search``.  One function, ``_largest``, climbs that ladder
for all four maxima (the connected domatic number of ``undirected``
included).  Every partition that decides a value, the maxima's witnesses
and the one of ``exists_partition_into_k`` alike, passes one check,
``_checked``, against the public predicates; a failed check raises
``WitnessCheckError``.

``brute_force_oracle`` is the trust anchor: it enumerates every set
partition outright and filters with the public predicates, sharing no
pruning machinery with the solver.
"""
from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Iterator, List, Optional, Union

from ._search import SearchCounter, arc_partition_search, partition_search
from .core import (
    Digraph,
    Inapplicable,
    NotStrongError,
    _require_strong,
    converse,
    min_in_degree,
    min_out_degree,
)
from .domination import (
    ArcPartition,
    VertexPartition,
    _in_dominators,
    is_in_domatic_partition,
    is_strong_cover_partition,
    is_strong_in_domatic_partition,
    is_strong_out_domatic_partition,
)


@dataclass(frozen=True)
class SolveStats:
    # Search nodes: branching steps, not counting forced placements.
    nodes: int
    seconds: float
    # Subtrees cut because a block could no longer become strong.
    strong_prunes: int = 0
    # Strongness tests computed; a repeat within one search is recalled.
    closures: int = 0
    # Items (vertices, or arcs for lambda_number) placed by propagation,
    # each the one block left to it.
    forced: int = 0
    # One (k, nodes, found) per search for exactly k blocks, in the order
    # tried: the cap first, then k = 2, 3, ... if the cap failed.  Their
    # nodes sum to ``nodes``.
    probes: tuple = ()


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


def _checked(D, labels: tuple, m: int, value: int, witness, predicate, what: str):
    """``witness(labels, value)``, once ``labels`` puts each of the m items
    of D in one of the blocks 0..value-1, using every one, and the witness
    passes ``predicate(D, witness)``; ``WitnessCheckError`` otherwise."""
    _check_witness(len(labels) == m and set(labels) == set(range(value)), what)
    found = witness(labels, value)
    _check_witness(predicate(D, found), what)
    return found


def _largest(D, search, cap: int, m: int, witness, predicate, what: str) -> SolveResult:
    """The maximum over partitions of the m items of D into blocks whose
    feasible counts form a prefix, with its witness: the first labels
    yielded by ``search(k, counter)``, which counts its nodes in
    ``counter``, for the largest feasible k <= cap, passed to ``_checked``.

    The values of most inputs sit at the cap, so k = cap is searched
    first: a partition there is the answer.  Only when the cap fails are
    k = 2, 3, ... searched, up to the first that fails and below the cap.
    When no k >= 2 has a partition, the witness is the one block (all-zero
    labels).  Each search is recorded in ``SolveStats.probes`` as
    ``(k, nodes, found)``, in the order tried."""
    start = time.perf_counter()
    counter = SearchCounter()
    probes = []

    def probe(k: int):
        before = counter.nodes
        found = next(search(k, counter), None)
        probes.append((k, counter.nodes - before, found is not None))
        return found

    value, labels = 1, (0,) * m
    found = probe(cap) if cap >= 2 else None
    if found is not None:
        value, labels = cap, found
    else:
        for k in range(2, cap):
            found = probe(k)
            if found is None:
                break
            value, labels = k, found
    seconds = time.perf_counter() - start
    stats = SolveStats(counter.nodes, seconds, counter.strong_prunes, counter.closures,
                       counter.forced, tuple(probes))
    return SolveResult(value, _checked(D, labels, m, value, witness, predicate, what), stats)


def search_cap(D: Digraph) -> int:
    """Admissible cap on the strong in-domatic number of a strong digraph,
    from the two degree bounds: minimum out-degree plus one, or the
    minimum out-degree when no vertex is in-dominating on its own."""
    return _degree_cap(D.out_masks)


def _degree_cap(out_masks) -> int:
    """``search_cap`` of the strong digraph with ``out_masks``."""
    delta = min(mask.bit_count() for mask in out_masks)
    return delta + 1 if _in_dominators(out_masks) else delta


def _strong_in_domatic_search(
    D: Digraph, k: int, counter: Optional[SearchCounter] = None
) -> Iterator[tuple]:
    """The block labels of every strong in-domatic partition of D with
    exactly k blocks, in canonical order: the one encoding behind the
    number, the partitions and the decision."""
    return partition_search(D.vertex_count, D.out_masks, k, (D.out_masks, D.in_masks), counter)


def _require_block_count(D: Digraph, k: int) -> None:
    """The preconditions of a strong in-domatic partition into exactly k
    blocks: D is strong and 1 <= k <= its order."""
    _require_strong(D, _NO_PARTITION_MSG)
    n = D.vertex_count
    if not (1 <= k <= n):
        raise ValueError(f"k={k} outside [1,{n}]")


def strong_in_domatic_partitions(D: Digraph, k: int) -> Iterator[VertexPartition]:
    """Every strong in-domatic partition of D with exactly k blocks, each
    once, blocks ordered by minimum member; the first is the canonical
    witness for k."""
    _require_block_count(D, k)
    return (VertexPartition(labels, k) for labels in _strong_in_domatic_search(D, k))


def exists_partition_into_k(D: Digraph, k: int) -> Optional[VertexPartition]:
    """The canonical strong in-domatic partition with exactly k blocks,
    checked as every solver witness is, or None.

    Because the feasible k form a prefix, absence here certifies absence
    for every larger k as well.
    """
    _require_block_count(D, k)
    labels = next(_strong_in_domatic_search(D, k), None)
    if labels is None:
        return None
    return _checked(
        D, labels, D.vertex_count, k, VertexPartition,
        is_strong_in_domatic_partition, "strong in-domatic partition",
    )


def strong_in_domatic_number(D: Digraph) -> SolveResult:
    """Maximum number of blocks over strong in-domatic partitions, with a
    canonical witness.  Raises NotStrongError on non-strong input: such a
    digraph has no strong in-domatic partition at all."""
    _require_strong(D, _NO_PARTITION_MSG)
    return _largest(
        D, lambda k, counter: _strong_in_domatic_search(D, k, counter),
        search_cap(D), D.vertex_count, VertexPartition,
        is_strong_in_domatic_partition, "strong in-domatic partition",
    )


def strong_out_domatic_number(D: Digraph) -> SolveResult:
    """Dual invariant via the converse digraph; the witness is valid as a
    strong out-domatic partition of D itself."""
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
        raise Inapplicable("empty digraph")
    return _largest(
        D, lambda k, counter: partition_search(n, D.out_masks, k, None, counter),
        min_out_degree(D) + 1, n, VertexPartition,
        is_in_domatic_partition, "in-domatic partition",
    )


# ---------------------------------------------------------------------------
# Arc partitions into strong covers


def lambda_number(D: Digraph) -> SolveResult:
    """Maximum number of blocks in a partition of the arcs into strong
    covers.  Unions of strong covers are strong covers, so feasible sizes
    again form a prefix.  Every block spans every vertex with an out-arc
    and an in-arc, so the cap is the smaller minimum degree.  Raises
    ``Inapplicable`` on a digraph without arcs."""
    if not D.arcs:
        raise Inapplicable("arc covers need a digraph with at least one arc")
    _require_strong(D, _NO_PARTITION_MSG)
    arcs = D.sorted_arcs()
    return _largest(
        D, lambda k, counter: arc_partition_search(D.vertex_count, arcs, k, counter),
        min(min_out_degree(D), min_in_degree(D)), len(arcs),
        lambda labels, value: ArcPartition(tuple(zip(arcs, labels)), value),
        is_strong_cover_partition, "partition into strong covers",
    )


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
            _require_strong(D, _NO_PARTITION_MSG)
            predicate = is_strong_in_domatic_partition
        elif which == "dsplus":
            _require_strong(D, _NO_PARTITION_MSG)
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
        _require_strong(D, _NO_PARTITION_MSG)
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
