"""Criticality of the strong in-domatic number under single-arc deletion.

A strong digraph is critical when every arc deletion keeps it strong and
drops the strong in-domatic number by exactly one.  The characterization
route checks instead that every maximum partition is rigid: blocks lose
strongness under any internal deletion, and every outside vertex has
exactly one out-neighbor per block.  Both routes are implemented and their
equivalence is itself part of the test suite.  A deletion profile solves D
once: D's witness, or a merge of two of its blocks, bounds the value after
each deletion, so at most one decision per deletion is left to search.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from .core import (
    Digraph,
    _bypassed,
    _require_strong,
    _strong_on,
    delete_arc,
    stays_strong_without,
)
from .domination import VertexPartition, _block_masks, _diagnose
from .solver import (
    WitnessCheckError,
    exists_partition_into_k,
    search_cap,
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


@dataclass(frozen=True)
class DeletionProfile:
    """Per-arc effect of deletion, arcs in lexicographic order."""

    value: int
    records: tuple

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

    D is solved once, and each deletion of an arc (u, v) that leaves
    H = D - (u, v) strong is settled from D's canonical witness W:

    1. if W is still a strong in-domatic partition of H, the value stays,
       since every strong in-domatic partition of H is one of D as well;
    2. otherwise merging v's block B with another block of W gives one of
       H, so the value is at least one less.  Only B can fail in H.  When
       u is outside B, merge B with any block not holding u (or with the
       other block when W has two).  When u is inside B, a path of H from
       u to v enters the vertices that reach v within B from some vertex
       outside B: merge B with that vertex's block;
    3. k = value is decided for H when ``search_cap(H)`` allows it; the
       value is k when a partition exists and one less otherwise.

    Every shortcut is certified by the predicate's block-mask check, and
    the decision's partition by ``exists_partition_into_k`` itself.  A
    missing merge, a cap below the merge's bound or a search result that
    fails the predicate raises ``WitnessCheckError``.
    """
    _require_strong(D, "deletion profiles are defined for strong digraphs")
    witness = _block_masks(D, strong_in_domatic_number(D).witness)
    records = []
    for arc in D.sorted_arcs():
        strong = stays_strong_without(D, arc)
        after = _value_after(delete_arc(D, arc), witness, arc[1]) if strong else None
        records.append(ArcDeletionRecord(arc, strong, after))
    return DeletionProfile(len(witness), tuple(records))


def _value_after(H: Digraph, witness: list, v: int) -> int:
    """Strong in-domatic number of the strong digraph H, the deletion of an
    arc (u, v) from a digraph whose canonical witness has block masks ``witness``."""
    value = len(witness)
    if _diagnose(H.out_masks, H.in_masks, witness):
        return value
    b = next(block for block in witness if block >> v & 1)
    merges = (
        [b | c] + [x for x in witness if x not in (b, c)] for c in witness if c != b
    )
    if not any(_diagnose(H.out_masks, H.in_masks, blocks) for blocks in merges):
        raise WitnessCheckError("no merge of two witness blocks survives the deletion")
    cap = search_cap(H)
    if cap < value - 1:
        raise WitnessCheckError(f"search cap {cap} is below the merge bound {value - 1}")
    if cap >= value and exists_partition_into_k(H, value) is not None:
        return value
    return value - 1


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
    masks = D.out_masks
    arcs = D.sorted_arcs()
    for i, block in enumerate(_block_masks(D, P)):
        # A block that is not strong stays so under every deletion; in a
        # strong one each deletion is one closure, as in ``stays_strong_without``.
        if _strong_on(masks, D.in_masks, block, block):
            for u, v in arcs:
                if block >> u & 1 and block >> v & 1 and _bypassed(masks, block, u, v):
                    return False, (
                        f"block {i} stays strong after deleting internal arc {(u, v)}"
                    )
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
    return characterize(D, strong_in_domatic_number(D).value, next(breaking, None))


def characterize(
    D: Digraph, value: int, breaking_arc: Optional[Tuple[int, int]]
) -> CharacterizationResult:
    """``characterization_holds`` for a strong digraph whose strong
    in-domatic number and first strongness-destroying arc (None if there
    is none) are already known; D is not solved again."""
    if value < 2:
        return CharacterizationResult(
            NOT_APPLICABLE, "strong in-domatic number below two"
        )
    if breaking_arc is not None:
        return CharacterizationResult(
            NOT_APPLICABLE, f"deleting arc {breaking_arc} destroys strongness"
        )
    for P in strong_in_domatic_partitions(D, value):
        ok, reason = partition_is_rigid(D, P)
        if not ok:
            return CharacterizationResult(FAILS, reason, P)
    return CharacterizationResult(HOLDS)
