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
from typing import Dict, List, Optional

from .core import (
    Digraph,
    NotStrongError,
    converse,
    delete_arc,
    induced_subdigraph,
    is_complete,
    is_semicomplete,
    is_strong,
    is_symmetric_arc,
    min_out_degree,
    out_adjacency,
)
from .domination import (
    VertexPartition,
    in_dominating_vertices,
    is_in_dominating,
    is_strong_in_dominating,
    is_strong_in_domatic_partition,
)
from .families import complete_digraph
from .solver import (
    SolveResult,
    enumerate_max_partitions,
    lambda_number,
    strong_in_domatic_number,
    strong_out_domatic_number,
)
from .transforms import cartesian_product, line_digraph, middle, root, subdivision, total
from .undirected import (
    NO_DOMINATING_CLIQUE,
    adjacency,
    clique_domination_number,
    connected_domatic_number,
    is_connected,
    is_planar,
    underlying_graph,
    vertex_connectivity,
)

HOLDS = "holds"
VIOLATED = "violated"
NOT_APPLICABLE = "not-applicable"


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
    digraph: minimum out-degree plus one, tightened to the minimum
    out-degree without an in-dominating vertex, to the underlying vertex
    connectivity off the semicomplete case, and to four on planar input."""
    if not is_strong(D):
        raise NotStrongError("upper bound applies to strong digraphs")
    n = D.vertex_count
    if n == 1:
        return 1
    bound = min_out_degree(D) + 1
    if not in_dominating_vertices(D):
        bound = min(bound, min_out_degree(D))
    if not is_semicomplete(D):
        bound = min(bound, vertex_connectivity(underlying_graph(D)))
    if is_planar(underlying_graph(D)):
        bound = min(bound, 4)
    return max(bound, 1)


def _is_symmetric_path(D: Digraph, block) -> bool:
    """The block induces a digraph whose underlying graph is a path and
    whose every arc is symmetric; singletons qualify as trivial paths."""
    sub, _ = induced_subdigraph(D, block)
    for arc in sub.arcs:
        if not is_symmetric_arc(sub, arc):
            return False
    UG = underlying_graph(sub)
    k = UG.vertex_count
    if len(UG.edges) != k - 1:
        return False
    adj = adjacency(UG)
    if any(len(a) > 2 for a in adj):
        return False
    return is_connected(UG)


def _sample_spanning_strong(D: Digraph, rng: random.Random) -> Digraph:
    current = D
    while True:
        candidates = [
            a for a in current.sorted_arcs() if is_strong(delete_arc(current, a))
        ]
        if not candidates or rng.random() < 0.3:
            return current
        current = delete_arc(current, rng.choice(candidates))


def check_all(
    D: Digraph,
    *,
    second_factor: Optional[Digraph] = None,
    subdigraph_samples: int = 20,
    seed: int = 0,
    order_cap: int = 8,
    arc_cap: int = 12,
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
        raise ValueError("law checks need a nonempty digraph")

    if not is_strong(D):
        # The one statement with content for non-strong input: no strong
        # in-domatic partition may exist, and the solver must refuse.
        whole = VertexPartition.from_blocks([range(D.vertex_count)])
        refused = False
        try:
            strong_in_domatic_number(D)
        except NotStrongError:
            refused = True
        ok = refused and not is_strong_in_domatic_partition(D, whole)
        entry("L1", HOLDS if ok else VIOLATED, strong=False, solver_refused=refused)
        return LawReport(tuple(entries))

    n = D.vertex_count
    m = len(D.arcs)
    if n > order_cap:
        entry("L1", NOT_APPLICABLE, reason=f"order {n} above solver cap {order_cap}")
        return LawReport(tuple(entries))

    rng = random.Random(seed)
    solve = strong_in_domatic_number(D)
    value = solve.value
    witness = solve.witness
    delta_out = min_out_degree(D)
    in_dom = in_dominating_vertices(D)
    UG = underlying_graph(D)
    planar = is_planar(UG)
    derived_solves: Dict[str, SolveResult] = {}

    # L1: existence with a verifying witness.
    ok = value >= 1 and is_strong_in_domatic_partition(D, witness)
    entry("L1", HOLDS if ok else VIOLATED, value=value)

    # L2: union and merge closure over the solver witness.
    blocks = witness.blocks()
    ok = True
    bad = None
    for size in range(1, len(blocks) + 1):
        for chosen in combinations(range(len(blocks)), size):
            union = frozenset().union(*(blocks[i] for i in chosen))
            if not is_strong_in_dominating(D, union):
                ok, bad = False, ("union", chosen)
                break
            if 1 < size < len(blocks):
                merged = [b for i, b in enumerate(blocks) if i not in chosen]
                merged.append(union)
                if not is_strong_in_domatic_partition(
                    D, VertexPartition.from_blocks(merged)
                ):
                    ok, bad = False, ("merge", chosen)
                    break
        if not ok:
            break
    entry("L2", HOLDS if ok else VIOLATED, blocks=len(blocks), failure=bad)

    # L3: vertex-connectivity cap off the semicomplete case.
    if is_semicomplete(D):
        entry("L3", NOT_APPLICABLE, reason="semicomplete digraph")
    else:
        kappa = vertex_connectivity(UG)
        entry("L3", HOLDS if value <= kappa else VIOLATED, value=value, kappa=kappa)

    # L4: minimum out-degree plus one.
    if n == 1:
        entry("L4", NOT_APPLICABLE, reason="trivial digraph")
    else:
        entry(
            "L4",
            HOLDS if value <= delta_out + 1 else VIOLATED,
            value=value,
            min_out_degree=delta_out,
        )

    # L5: minimum out-degree without an in-dominating vertex.
    if in_dom:
        entry("L5", NOT_APPLICABLE, reason="digraph has an in-dominating vertex")
    else:
        entry(
            "L5",
            HOLDS if value <= delta_out else VIOLATED,
            value=value,
            min_out_degree=delta_out,
        )

    # L6: structure forced by meeting the plus-one bound.
    if n >= 2 and value != delta_out + 1:
        entry("L6", NOT_APPLICABLE, reason="value below the plus-one bound")
    else:
        n0 = frozenset(
            v for v in range(n) if len(out_adjacency(D)[v]) == delta_out
        )
        sub, _ = induced_subdigraph(D, n0)
        gamma = clique_domination_number(UG)
        ok = (
            n0 <= in_dom
            and is_complete(sub)
            and is_in_dominating(D, n0)
            and gamma is not NO_DOMINATING_CLIQUE
            and gamma <= len(n0)
        )
        entry(
            "L6",
            HOLDS if ok else VIOLATED,
            min_degree_vertices=sorted(n0),
            clique_domination=None if gamma is NO_DOMINATING_CLIQUE else gamma,
        )

    # L7: monotonicity over sampled spanning strong subdigraphs.
    ok = True
    bad = None
    for _ in range(subdigraph_samples):
        H = _sample_spanning_strong(D, rng)
        sub_solve = strong_in_domatic_number(H)
        if sub_solve.value > value or not is_strong_in_domatic_partition(
            D, sub_solve.witness
        ):
            ok, bad = False, sorted(H.arcs)
            break
    entry("L7", HOLDS if ok else VIOLATED, samples=subdigraph_samples, failure=bad)

    # L8: the deletion sandwich.
    if value < 2:
        entry("L8", NOT_APPLICABLE, reason="strong in-domatic number below two")
    else:
        ok = True
        bad = None
        checked = 0
        for arc in D.sorted_arcs():
            reduced = delete_arc(D, arc)
            if not is_strong(reduced):
                continue
            checked += 1
            after = strong_in_domatic_number(reduced).value
            if not (value - 1 <= after <= value):
                ok, bad = False, {"arc": arc, "after": after}
                break
        entry("L8", HOLDS if ok else VIOLATED, arcs_checked=checked, failure=bad)

    # L9: connected domatic cap on the underlying graph.
    dc, _ = connected_domatic_number(UG)
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
        ok = True
        bad = None
        for P in enumerate_max_partitions(D):
            for i, block in enumerate(P.blocks()):
                if not _is_symmetric_path(D, block):
                    ok, bad = False, {"block": sorted(block)}
                    break
            if not ok:
                break
        entry(
            "L11",
            HOLDS if ok else VIOLATED,
            interpretation="a symmetric path induces an underlying path graph "
            "with every arc symmetric",
            failure=bad,
        )

    # L12: product lower bound, by default against the complete digraph of
    # order two to stay at desk scale.
    factor = second_factor if second_factor is not None else complete_digraph(2)
    if n * factor.vertex_count > order_cap:
        entry(
            "L12",
            NOT_APPLICABLE,
            reason=f"product order {n * factor.vertex_count} above cap {order_cap}",
        )
    elif not is_strong(factor):
        entry("L12", NOT_APPLICABLE, reason="second factor not strong")
    else:
        product, _ = cartesian_product(D, factor)
        expected = max(value, strong_in_domatic_number(factor).value)
        got = strong_in_domatic_number(product).value
        entry(
            "L12",
            HOLDS if got >= expected else VIOLATED,
            product_value=got,
            factor_max=expected,
        )

    # L13: line digraph value equals the strong-cover partition maximum.
    line_cap = min(order_cap, arc_cap)
    if n == 2 and m <= line_cap:
        # Below the order-three hypothesis the identity genuinely fails;
        # record the two values so the gate is visibly load-bearing.
        L, _ = line_digraph(D)
        entry(
            "L13",
            NOT_APPLICABLE,
            reason="order below three",
            line_value=strong_in_domatic_number(L).value,
            cover_value=lambda_number(D).value,
        )
    elif n < 3:
        entry("L13", NOT_APPLICABLE, reason="order below three")
    elif m > line_cap:
        entry("L13", NOT_APPLICABLE, reason=f"{m} arcs above cap {line_cap}")
    else:
        L, _ = line_digraph(D)
        derived_solves["line"] = strong_in_domatic_number(L)
        lv = derived_solves["line"].value
        cv = lambda_number(D).value
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
        sv = strong_in_domatic_number(S).value
        rv = strong_in_domatic_number(R).value
        entry(
            "L14",
            HOLDS if sv == 1 and rv == 1 else VIOLATED,
            subdivision_value=sv,
            root_value=rv,
        )

    # L15: middle and total digraph bounds.
    if n < 3:
        entry("L15", NOT_APPLICABLE, reason="order below three")
    elif n + m > order_cap:
        entry(
            "L15", NOT_APPLICABLE, reason=f"derived order {n + m} above cap {order_cap}"
        )
    else:
        L, _ = line_digraph(D)
        lv = (
            derived_solves["line"].value
            if "line" in derived_solves
            else strong_in_domatic_number(L).value
        )
        Q, _ = middle(D)
        T, _ = total(D)
        qv = strong_in_domatic_number(Q).value
        tv = strong_in_domatic_number(T).value
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
