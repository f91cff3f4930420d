"""Executable law suite: every quantitative claim the library rests on,
evaluated with applicability gating on a concrete digraph.

A law whose hypotheses fail reports not-applicable, never a truth value.
A violated entry is a build-failing event somewhere: it means either the
implementation or the mathematics is wrong, and the implementation is the
presumed culprit.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import combinations
from typing import Dict, List

from .core import (
    Digraph,
    Inapplicable,
    NotStrongError,
    _bypassed,
    _members,
    _require_strong,
    _strong_on,
    converse,
    delete_arc,
    is_complete,
    is_semicomplete,
    is_strong,
    min_out_degree,
    stays_strong_without,
)
from .critical import HOLDS, NOT_APPLICABLE, MaxPartitions
from .domination import (
    VertexPartition,
    _block_masks,
    _diagnose,
    in_dominating_vertices,
    is_in_dominating,
    is_strong_in_domatic_partition,
)
from .families import complete_digraph
from .solver import (
    SolveResult,
    exists_partition_into_k,
    lambda_number,
    search_cap,
    strong_in_domatic_number,
    strong_out_domatic_number,
)
from .transforms import cartesian_product, line_digraph, middle, root, subdivision, total
from .undirected import (
    clique_domination_number,
    connected_domatic_number,
    is_planar,
    underlying_graph,
    vertex_connectivity,
)

VIOLATED = "violated"
# A law needing an exact solve above _ORDER_CAP vertices, or L13 on more
# than _ORDER_CAP arcs (the order of the line digraph), reports
# not-applicable.
_ORDER_CAP = 8
# L12's second factor, the complete digraph of order two, keeps the
# product at desk scale.
_SECOND_FACTOR = complete_digraph(2)


LAW_STATEMENTS = {
    "L1": "a digraph admits a strong in-domatic partition exactly when it is strong",
    "L2": "unions of blocks of a strong in-domatic partition are strong in-dominating, "
    "and merging blocks yields another strong in-domatic partition",
    "L3": "for a non-semicomplete strong digraph the strong in-domatic number is at "
    "most the vertex connectivity of the underlying graph",
    "L4": "for a nontrivial strong digraph the strong in-domatic number is at most "
    "the minimum out-degree plus one",
    "L5": "for a strong digraph with no in-dominating vertex the strong in-domatic "
    "number is at most the minimum out-degree",
    "L6": "when the strong in-domatic number equals the minimum out-degree plus one, "
    "every minimum out-degree vertex is in-dominating, those vertices induce a "
    "complete digraph and form an in-dominating set, and the underlying graph has "
    "a dominating clique no larger than that set",
    "L7": "a strong in-domatic partition of a spanning strong subdigraph is one of "
    "the host digraph, so the value never shrinks when arcs come back",
    "L8": "deleting one arc while keeping strongness changes the strong in-domatic "
    "number by at most one, never upward",
    "L9": "the strong in-domatic number is at most the connected domatic number of "
    "the underlying graph",
    "L10": "a planar strong digraph has strong in-domatic number at most four, with "
    "equality exactly for the complete digraph on four vertices",
    "L11": "in a planar strong digraph with strong in-domatic number three, every "
    "maximum partition's blocks induce symmetric paths",
    "L12": "the strong in-domatic number of a Cartesian product is at least the "
    "maximum over its factors",
    "L13": "for a strong digraph of order at least three, the strong in-domatic "
    "number of the line digraph equals the maximum arc partition into strong covers",
    "L14": "subdivision and root digraphs of a strong digraph have strong "
    "in-domatic number one",
    "L15": "for a strong digraph of order at least three, the line digraph's value "
    "is at most the middle digraph's, and strictly below the total digraph's",
    "L16": "the strong in-domatic number equals the strong out-domatic number of "
    "the converse",
}


@dataclass(frozen=True)
class LawEntry:
    law_id: str
    statement: str
    status: str
    details: dict = field(default_factory=dict)


@dataclass(frozen=True)
class LawReport:
    entries: tuple

    def violations(self) -> tuple:
        return tuple(e for e in self.entries if e.status == VIOLATED)

    def to_text(self) -> str:
        lines = []
        for e in self.entries:
            detail = ", ".join(f"{k}={v}" for k, v in sorted(e.details.items()))
            suffix = f" ({detail})" if detail else ""
            lines.append(f"{e.law_id} [{e.status}]{suffix}: {e.statement}")
        return "\n".join(lines) + "\n"

    def to_records(self) -> list:
        return [
            {
                "law": e.law_id,
                "status": e.status,
                "statement": e.statement,
                "details": {k: _plain(v) for k, v in e.details.items()},
            }
            for e in self.entries
        ]


def _plain(value):
    if isinstance(value, (frozenset, set)):
        return sorted(value)
    if isinstance(value, tuple):
        return list(value)
    return value


def upper_bound(D: Digraph) -> int:
    """Best proven cap on the strong in-domatic number of a strong
    digraph: the solver's ``search_cap`` (minimum out-degree plus one, or
    the minimum out-degree without an in-dominating vertex), lowered to the
    underlying vertex connectivity off the semicomplete case, and to four
    on planar input."""
    _require_strong(D, "upper bound applies to strong digraphs")
    bound = search_cap(D)
    UG = underlying_graph(D)
    if not is_semicomplete(D):
        bound = min(bound, vertex_connectivity(UG))
    if is_planar(UG):
        bound = min(bound, 4)
    return bound


def _is_symmetric_path(D: Digraph, block: int) -> bool:
    """The block mask induces a digraph whose underlying graph is a path
    and whose every arc is symmetric; singletons qualify as trivial paths."""
    inside = {v: D.out_masks[v] & block for v in _members(block)}
    if any(D.in_masks[v] & block != mask for v, mask in inside.items()):
        return False
    degrees = [mask.bit_count() for mask in inside.values()]
    return (
        sum(degrees) == 2 * (len(degrees) - 1)
        and max(degrees) <= 2
        and _strong_on(D.out_masks, D.in_masks, block, block)
    )


def _sample_spanning_strong(D: Digraph, rng: random.Random) -> Digraph:
    """A random spanning strong subdigraph of the strong digraph D: delete
    one arc, chosen uniformly among those whose deletion keeps strongness,
    until none is left or a 0.3 coin stops the walk.

    The walk runs on one copy of D's out-masks.  Deleting arcs never
    restores strongness, so an arc that stopped being deletable never
    becomes so again: filtering the previous candidate list is exact, and
    it keeps the sorted order that ``rng.choice`` draws from.
    """
    masks = list(D.out_masks)
    full = (1 << D.vertex_count) - 1
    candidates = D.sorted_arcs()
    deleted = set()
    while True:
        # The test of ``stays_strong_without``, on the arcs still present.
        candidates = [
            (u, v)
            for u, v in candidates
            if masks[u] >> v & 1 and _bypassed(masks, full, u, v)
        ]
        if not candidates or rng.random() < 0.3:
            break
        u, v = rng.choice(candidates)
        masks[u] &= ~(1 << v)
        deleted.add((u, v))
    return Digraph(D.vertex_count, D.arcs - deleted) if deleted else D


def check_all(
    D: Digraph,
    *,
    subdigraph_samples: int = 20,
    seed: int = 0,
) -> LawReport:
    """Evaluate every law on D and assemble the report in law order.

    Laws that would need exact solves beyond the caps report
    not-applicable with the reason, never a guess.
    """
    entries: List[LawEntry] = []

    def entry(law_id: str, status: str, **details) -> None:
        details = {k: v for k, v in details.items() if v is not None}
        entries.append(LawEntry(law_id, LAW_STATEMENTS[law_id], status, details))

    if D.vertex_count == 0:
        raise Inapplicable("law checks need a nonempty digraph")
    if subdigraph_samples < 0:
        raise ValueError(f"subdigraph_samples={subdigraph_samples} is negative")

    # Each digraph the report needs is solved once.
    solves: Dict[Digraph, SolveResult] = {}

    def solve(H: Digraph) -> SolveResult:
        if H not in solves:
            solves[H] = strong_in_domatic_number(H)
        return solves[H]

    if not is_strong(D):
        # The one statement with content for non-strong input: no strong
        # in-domatic partition may exist, and the solver must refuse.
        whole = VertexPartition.from_blocks([range(D.vertex_count)])
        refused = False
        try:
            solve(D)
        except NotStrongError:
            refused = True
        ok = refused and not is_strong_in_domatic_partition(D, whole)
        entry("L1", HOLDS if ok else VIOLATED, strong=False, solver_refused=refused)
        return LawReport(tuple(entries))

    n = D.vertex_count
    m = len(D.arcs)
    if n > _ORDER_CAP:
        entry("L1", NOT_APPLICABLE, reason=f"order {n} above solver cap {_ORDER_CAP}")
        return LawReport(tuple(entries))

    rng = random.Random(seed)
    value, witness = solve(D).value, solve(D).witness
    delta_out = min_out_degree(D)
    in_dom = in_dominating_vertices(D)
    UG = underlying_graph(D)
    planar = is_planar(UG)

    # L1: existence with a verifying witness.
    ok = value >= 1 and is_strong_in_domatic_partition(D, witness)
    entry("L1", HOLDS if ok else VIOLATED, value=value)

    # L2: union and merge closure over the witness's disjoint block masks.
    blocks = _block_masks(D, witness)

    def closure_failure():
        for size in range(1, len(blocks) + 1):
            for chosen in combinations(range(len(blocks)), size):
                union = sum(blocks[i] for i in chosen)
                if not _diagnose(D.out_masks, D.in_masks, [union]):
                    return "union", chosen
                merged = [b for i, b in enumerate(blocks) if i not in chosen] + [union]
                if 1 < size < len(blocks) and not _diagnose(D.out_masks, D.in_masks, merged):
                    return "merge", chosen
        return None

    bad = closure_failure()
    entry("L2", HOLDS if bad is None else VIOLATED, blocks=len(blocks), failure=bad)

    # L3: vertex-connectivity cap off the semicomplete case.
    if is_semicomplete(D):
        entry("L3", NOT_APPLICABLE, reason="semicomplete digraph")
    else:
        kappa = vertex_connectivity(UG)
        entry("L3", HOLDS if value <= kappa else VIOLATED, value=value, kappa=kappa)

    # The solver searches no k past the L4/L5 bounds (search_cap): at that
    # cap, decide the next k once.  Below it the solver has already refuted
    # value + 1, as the cap itself or as the first failure below a failed cap.
    bounded = value
    if value == search_cap(D) < n and exists_partition_into_k(D, value + 1) is not None:
        bounded = value + 1

    # L4: minimum out-degree plus one.
    if n == 1:
        entry("L4", NOT_APPLICABLE, reason="trivial digraph")
    else:
        entry(
            "L4",
            HOLDS if bounded <= delta_out + 1 else VIOLATED,
            value=bounded,
            min_out_degree=delta_out,
        )

    # L5: minimum out-degree without an in-dominating vertex.
    if in_dom:
        entry("L5", NOT_APPLICABLE, reason="digraph has an in-dominating vertex")
    else:
        entry(
            "L5",
            HOLDS if bounded <= delta_out else VIOLATED,
            value=bounded,
            min_out_degree=delta_out,
        )

    # L6: structure forced by meeting the plus-one bound.
    if n >= 2 and value != delta_out + 1:
        entry("L6", NOT_APPLICABLE, reason="value below the plus-one bound")
    else:
        n0 = frozenset(v for v in range(n) if D.out_masks[v].bit_count() == delta_out)
        n0_mask = sum(1 << v for v in n0)
        # n0 induces a complete digraph: each member's out-neighbors
        # include every other member.
        n0_complete = all(n0_mask & ~D.out_masks[v] == 1 << v for v in n0)
        gamma = clique_domination_number(UG)
        ok = (
            n0 <= in_dom
            and n0_complete
            and is_in_dominating(D, n0)
            and gamma is not None
            and gamma <= len(n0)
        )
        entry(
            "L6",
            HOLDS if ok else VIOLATED,
            min_degree_vertices=sorted(n0),
            clique_domination=gamma,
        )

    # L7: monotonicity over sampled spanning strong subdigraphs.
    bad = None
    for _ in range(subdigraph_samples):
        H = _sample_spanning_strong(D, rng)
        sub_solve = solve(H)
        if sub_solve.value > value or not is_strong_in_domatic_partition(
            D, sub_solve.witness
        ):
            bad = sorted(H.arcs)
            break
    status = HOLDS if bad is None else VIOLATED
    entry("L7", status, samples=subdigraph_samples, failure=bad)

    # L8: the deletion sandwich.
    if value < 2:
        entry("L8", NOT_APPLICABLE, reason="strong in-domatic number below two")
    else:
        bad = None
        checked = 0
        for arc in D.sorted_arcs():
            if not stays_strong_without(D, arc):
                continue
            checked += 1
            after = solve(delete_arc(D, arc)).value
            if not (value - 1 <= after <= value):
                bad = {"arc": arc, "after": after}
                break
        status = HOLDS if bad is None else VIOLATED
        entry("L8", status, arcs_checked=checked, failure=bad)

    # L9: connected domatic cap on the underlying graph.
    dc = connected_domatic_number(UG).value
    entry("L9", HOLDS if value <= dc else VIOLATED, value=value, connected_domatic=dc)

    # L10: planar cap and the equality characterization.
    if not planar:
        entry("L10", NOT_APPLICABLE, reason="not planar")
    else:
        complete4 = is_complete(D) and n == 4
        ok = value <= 4 and ((value == 4) == complete4)
        entry("L10", HOLDS if ok else VIOLATED, value=value, complete_order_4=complete4)

    # L11: symmetric-path blocks at planar value three.
    if not (planar and value == 3):
        entry("L11", NOT_APPLICABLE, reason="needs planar input with value three")
    else:
        bad = next(
            (
                {"block": sorted(_members(block))}
                for _, blocks in MaxPartitions(D, witness)
                for block in blocks
                if not _is_symmetric_path(D, block)
            ),
            None,
        )
        entry(
            "L11",
            HOLDS if bad is None else VIOLATED,
            interpretation="a symmetric path induces an underlying path graph "
            "with every arc symmetric",
            failure=bad,
        )

    # L12: product lower bound against the second factor.
    order = n * _SECOND_FACTOR.vertex_count
    if order > _ORDER_CAP:
        entry("L12", NOT_APPLICABLE, reason=f"product order {order} above cap {_ORDER_CAP}")
    else:
        product, _ = cartesian_product(D, _SECOND_FACTOR)
        expected = max(value, solve(_SECOND_FACTOR).value)
        got = solve(product).value
        entry(
            "L12",
            HOLDS if got >= expected else VIOLATED,
            product_value=got,
            factor_max=expected,
        )

    # L13: line digraph value equals the strong-cover partition maximum.
    # L15's gates imply L13's, so L15 reads the same line digraph.
    line = line_digraph(D)[0] if n >= 2 and m <= _ORDER_CAP else None
    if n < 2:
        entry("L13", NOT_APPLICABLE, reason="order below three")
    elif m > _ORDER_CAP:
        entry("L13", NOT_APPLICABLE, reason=f"{m} arcs above cap {_ORDER_CAP}")
    else:
        lv = solve(line).value
        cv = lambda_number(D).value
        if n == 2:
            # Below the order-three hypothesis the identity genuinely
            # fails; record the two values so the gate is visibly
            # load-bearing.
            entry("L13", NOT_APPLICABLE, reason="order below three", line_value=lv, cover_value=cv)
        else:
            entry("L13", HOLDS if lv == cv else VIOLATED, line_value=lv, cover_value=cv)

    # L14: subdivision and root digraphs collapse to one.  Their solves
    # stay cheap at any size here (arc-vertices force minimum out-degree
    # one and no in-dominating vertex), so the cap is looser.
    if m == 0:
        entry("L14", NOT_APPLICABLE, reason="no arcs")
    elif n + m > 20:
        entry("L14", NOT_APPLICABLE, reason=f"derived order {n + m} above cap 20")
    else:
        S, _ = subdivision(D)
        R, _ = root(D)
        sv = solve(S).value
        rv = solve(R).value
        entry(
            "L14",
            HOLDS if sv == 1 and rv == 1 else VIOLATED,
            subdivision_value=sv,
            root_value=rv,
        )

    # L15: middle and total digraph bounds.
    if n < 3:
        entry("L15", NOT_APPLICABLE, reason="order below three")
    elif n + m > _ORDER_CAP:
        entry(
            "L15", NOT_APPLICABLE, reason=f"derived order {n + m} above cap {_ORDER_CAP}"
        )
    else:
        lv = solve(line).value
        qv = solve(middle(D)[0]).value
        tv = solve(total(D)[0]).value
        ok = lv <= qv and lv + 1 <= tv
        entry(
            "L15",
            HOLDS if ok else VIOLATED,
            line_value=lv,
            middle_value=qv,
            total_value=tv,
        )

    # L16: converse duality.
    dual = strong_out_domatic_number(converse(D))
    entry(
        "L16",
        HOLDS if dual.value == value else VIOLATED,
        value=value,
        dual_value=dual.value,
    )

    return LawReport(tuple(entries))
