"""Criticality of the strong in-domatic number under single-arc deletion.

A strong digraph is critical when every arc deletion keeps it strong and
drops the strong in-domatic number by exactly one.  The characterization
route checks instead that every maximum partition is rigid: blocks lose
strongness under any internal deletion, and every outside vertex has
exactly one out-neighbor per block.  Both routes are implemented and their
equivalence is itself part of the test suite.

No digraph but D is searched or built.  A deletion profile solves D once
and keeps D's maximum partitions (``MaxPartitions``): the canonical
witness, then the rest of one enumeration of D, pulled only as far as a
deletion needs, each checked on D as it is pulled.  By monotonicity the
partitions of D - e into d(D) blocks are exactly the maximum partitions
of D that survive the deletion, so each deletion is settled by the first
survivor in canonical order, or by a merge of two witness blocks when
none survives.  D - e is never a ``Digraph``: it is D's own masks with
one bit cleared in the tail's out-mask and one in the head's in-mask.
The characterization reads the same partitions, so ``indomatic
critical`` enumerates them at most once.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional, Tuple

from .core import (
    Digraph,
    _bits,
    _bypassed,
    _require_strong,
    _strong_on,
    stays_strong_without,
)
from .domination import VertexPartition, _block_masks, _diagnose
from .solver import (
    WitnessCheckError,
    _degree_cap,
    strong_in_domatic_number,
    strong_in_domatic_partitions,
)

HOLDS = "holds"
FAILS = "fails"
NOT_APPLICABLE = "not-applicable"


@dataclass(frozen=True)
class ArcDeletionRecord:
    arc: Tuple[int, int]
    still_strong: bool
    value_after: Optional[int]


class MaxPartitions:
    """The maximum strong in-domatic partitions of a strong digraph D, in
    canonical order, iterated as (partition, block masks) pairs.  The
    canonical witness comes first; the rest are pulled from one
    enumeration of D, and only as far as they are asked for.  The
    enumeration's first partition must be the witness, and each later one
    must pass the predicate's block-mask check on D, or
    ``WitnessCheckError`` is raised."""

    def __init__(self, D: Digraph, witness: VertexPartition):
        self.digraph = D
        self.value = witness.block_count
        self._found = [(witness, _block_masks(D, witness))]
        self._rest: Optional[Iterator[VertexPartition]] = None

    def _pull(self) -> bool:
        # Keep the enumeration's next partition; False once it is exhausted.
        if self._rest is None:
            self._rest = strong_in_domatic_partitions(self.digraph, self.value)
            if next(self._rest, None) != self._found[0][0]:
                raise WitnessCheckError("the enumeration does not start at the witness")
        P = next(self._rest, None)
        if P is None:
            return False
        D = self.digraph
        blocks = _block_masks(D, P)
        if not _diagnose(D.out_masks, D.in_masks, blocks):
            raise WitnessCheckError("an enumerated maximum partition fails the check on D")
        self._found.append((P, blocks))
        return True

    def __iter__(self) -> Iterator[tuple]:
        i = 0
        while i < len(self._found) or self._pull():
            yield self._found[i]
            i += 1


@dataclass(frozen=True)
class DeletionProfile:
    """Per-arc effect of deletion, arcs in lexicographic order, with the
    maximum partitions of the profiled digraph as far as they were read."""

    value: int
    records: tuple
    partitions: Optional[MaxPartitions] = field(default=None, compare=False, repr=False)

    @property
    def breaking_arc(self) -> Optional[Tuple[int, int]]:
        """The first arc whose deletion destroys strongness, or None."""
        return next((r.arc for r in self.records if not r.still_strong), None)


@dataclass(frozen=True)
class CharacterizationResult:
    """Verdict of the rigidity characterization, with the hypotheses
    treated as a gate: outside them the status is not-applicable rather
    than a truth value."""

    status: str
    reason: Optional[str] = None
    failing_partition: Optional[VertexPartition] = None

    def __bool__(self) -> bool:
        if self.status == NOT_APPLICABLE:
            raise ValueError("characterization not applicable; no truth value")
        return self.status == HOLDS


def deletion_profile(D: Digraph) -> DeletionProfile:
    """Strongness and strong in-domatic number of D minus each arc.

    D is solved once, to value d with canonical witness W, and each
    deletion of an arc (u, v) that leaves H = D - (u, v) strong is settled
    from D's maximum partitions.  Every strong in-domatic partition of H
    is one of D as well, so the partitions of H into d blocks are exactly
    the maximum partitions of D that survive the deletion, in the same
    canonical order.  Only v's block B can fail in H: when u is outside B,
    u must keep an out-neighbor in B; when u is inside B, H[B] must still
    reach v from u.

    1. If W survives, the value stays.
    2. Otherwise merging B with another block of W gives a strong
       in-domatic partition of H, so the value is at least d - 1.  When u
       is outside B, merge B with any block not holding u (or with the
       other block when W has two).  When u is inside B, a path of H from
       u to v enters the vertices that reach v within B from some vertex
       outside B: merge B with that vertex's block.
    3. When ``search_cap(H)`` allows d, the value is d if the first
       maximum partition of D, in canonical order, that survives the
       deletion exists, and d - 1 otherwise.  That partition is the one
       ``exists_partition_into_k(H, d)`` would return.

    H is never built: its masks are D's, with bit v cleared in u's
    out-mask and bit u in v's in-mask (``_without``), strongness is
    ``stays_strong_without`` on D's masks, and the cap is the one helper
    behind ``search_cap``.  Every partition of D read past W passes the
    predicate's block-mask check on D, and every partition that settles
    a value, the merge included, passes it on H.  A missing merge, a cap
    below the merge's bound, a partition that fails either check or an
    enumeration of D that does not start at W raises
    ``WitnessCheckError``.
    """
    _require_strong(D, "deletion profiles are defined for strong digraphs")
    partitions = MaxPartitions(D, strong_in_domatic_number(D).witness)
    full = (1 << D.vertex_count) - 1
    records = []
    for u, v in D.sorted_arcs():
        # ``stays_strong_without``, on an arc known to be D's.
        strong = _bypassed(D.out_masks, full, u, v)
        after = _value_after(partitions, u, v) if strong else None
        records.append(ArcDeletionRecord((u, v), strong, after))
    return DeletionProfile(partitions.value, tuple(records), partitions)


def _without(D: Digraph, u: int, v: int) -> tuple:
    """The out-masks and in-masks of D minus its arc (u, v): D's own, with
    bit v cleared in u's out-mask and bit u in v's in-mask."""
    out_masks, in_masks = list(D.out_masks), list(D.in_masks)
    out_masks[u] &= ~(1 << v)
    in_masks[v] &= ~(1 << u)
    return out_masks, in_masks


def _survives(out_masks, blocks: list, u: int, v: int) -> bool:
    """The strong in-domatic partition ``blocks`` (block masks) of D is
    one of D - (u, v) as well, where ``out_masks`` are D - (u, v)'s.
    Only v's block can fail: it must still in-dominate u and, when it
    holds u, still be strong."""
    block = next(b for b in blocks if b >> v & 1)
    if block >> u & 1:
        return _bypassed(out_masks, block, u, v)
    return bool(out_masks[u] & block)


def _value_after(partitions: MaxPartitions, u: int, v: int) -> int:
    """Strong in-domatic number of the strong digraph D - (u, v), where
    D is the digraph with maximum partitions ``partitions``."""
    out_masks, in_masks = _without(partitions.digraph, u, v)
    candidates = (blocks for _, blocks in partitions)
    witness = next(candidates)
    value = partitions.value
    if _survives(out_masks, witness, u, v):
        return _certified(out_masks, in_masks, witness)
    b = next(block for block in witness if block >> v & 1)
    merges = (
        [b | c] + [x for x in witness if x not in (b, c)] for c in witness if c != b
    )
    if not any(_diagnose(out_masks, in_masks, blocks) for blocks in merges):
        raise WitnessCheckError("no merge of two witness blocks survives the deletion")
    cap = _degree_cap(out_masks)
    if cap < value - 1:
        raise WitnessCheckError(f"search cap {cap} is below the merge bound {value - 1}")
    if cap >= value:
        survivor = next((P for P in candidates if _survives(out_masks, P, u, v)), None)
        if survivor is not None:
            return _certified(out_masks, in_masks, survivor)
    return value - 1


def _certified(out_masks, in_masks, blocks: list) -> int:
    """The block count of ``blocks``, once they pass the predicate's check
    as a strong in-domatic partition of the digraph with ``out_masks`` and
    ``in_masks``; ``WitnessCheckError`` otherwise."""
    if not _diagnose(out_masks, in_masks, blocks):
        raise WitnessCheckError("a surviving maximum partition fails the check on D - e")
    return len(blocks)


def first_failure(profile: DeletionProfile) -> Optional[str]:
    """Why the profiled digraph is not critical: the first arc whose
    deletion destroys strongness or does not lower the value by exactly
    one.  None when the digraph is critical."""
    for r in profile.records:
        if not r.still_strong:
            return f"arc {r.arc} deletion destroys strongness"
        if r.value_after != profile.value - 1:
            return f"arc {r.arc} deletion leaves value {r.value_after}"
    return None


def is_strong_in_domatic_critical(D: Digraph) -> bool:
    """Definitional check: every deletion stays strong and loses exactly
    one from the strong in-domatic number."""
    return first_failure(deletion_profile(D)) is None


def partition_is_rigid(D: Digraph, P: VertexPartition):
    """Single-partition variant of the characterization: condition one,
    every block's induced subdigraph loses strongness under any internal
    arc deletion (vacuous for arcless blocks); condition two, every vertex
    outside a block has exactly one out-neighbor in it.

    Returns (ok, reason) for diagnostics.
    """
    return _blocks_are_rigid(D, _block_masks(D, P))


def _blocks_are_rigid(D: Digraph, blocks: list):
    """``partition_is_rigid`` for a partition given as its block masks."""
    masks = D.out_masks
    for i, block in enumerate(blocks):
        # A block that is not strong stays so under every deletion; in a
        # strong one each deletion is one closure, as in ``stays_strong_without``.
        if _strong_on(masks, D.in_masks, block, block):
            internal = ((u, v) for u in _bits(block) for v in _bits(masks[u] & block))
            for u, v in internal:
                if _bypassed(masks, block, u, v):
                    return False, f"block {i} stays strong after deleting internal arc {(u, v)}"
        for x in range(D.vertex_count):
            if block >> x & 1:
                continue
            hits = (masks[x] & block).bit_count()
            if hits != 1:
                return False, (
                    f"vertex {x} has {hits} out-neighbors in block {i}, expected 1"
                )
    return True, None


def characterization_holds(D: Digraph) -> CharacterizationResult:
    """Rigidity of EVERY maximum partition, under the hypotheses: the
    digraph is strong with value at least two and every single-arc
    deletion preserves strongness."""
    _require_strong(D, "characterization applies to strong digraphs")
    breaking = (a for a in D.sorted_arcs() if not stays_strong_without(D, a))
    partitions = MaxPartitions(D, strong_in_domatic_number(D).witness)
    return characterize(partitions, next(breaking, None))


def characterize(
    partitions: MaxPartitions, breaking_arc: Optional[Tuple[int, int]]
) -> CharacterizationResult:
    """``characterization_holds`` for a strong digraph whose maximum
    partitions and first strongness-destroying arc (None if there is
    none) are already at hand, as a deletion profile's; D is not solved
    again, and its partitions are enumerated only past those already
    read."""
    if partitions.value < 2:
        return CharacterizationResult(
            NOT_APPLICABLE, "strong in-domatic number below two"
        )
    if breaking_arc is not None:
        return CharacterizationResult(
            NOT_APPLICABLE, f"deleting arc {breaking_arc} destroys strongness"
        )
    for P, blocks in partitions:
        ok, reason = _blocks_are_rigid(partitions.digraph, blocks)
        if not ok:
            return CharacterizationResult(FAILS, reason, P)
    return CharacterizationResult(HOLDS)
