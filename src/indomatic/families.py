"""Generators for the explicit digraph families with their canonical
partitions and guaranteed invariant values."""
from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Optional

from .core import Digraph, Inapplicable, is_strong, make_digraph
from .domination import VertexPartition
from .transforms import composition, composition_partition


@dataclass(frozen=True)
class FamilyInstance:
    """A generated digraph carrying its claims as data, so test suites can
    compare promised against computed values generically.

    ``claimed_value`` and ``claimed_critical`` are None when the family
    makes no such promise for the given parameters.
    """

    digraph: Digraph
    canonical_partition: Optional[VertexPartition]
    claimed_value: Optional[int]
    claimed_critical: Optional[bool]


def complete_digraph(n: int) -> Digraph:
    if n < 1:
        raise Inapplicable("order must be at least 1")
    return make_digraph(n, [(u, v) for u in range(n) for v in range(n) if u != v])


def directed_cycle(n: int) -> Digraph:
    """Directed cycle; order 2 means the symmetric pair (both arcs), the
    smallest closed walk visiting two vertices."""
    if n < 2:
        raise Inapplicable("cycle order must be at least 2")
    if n == 2:
        return make_digraph(2, [(0, 1), (1, 0)])
    return make_digraph(n, [(i, (i + 1) % n) for i in range(n)])


def empty_digraph(n: int) -> Digraph:
    if n < 1:
        raise Inapplicable("order must be at least 1")
    return make_digraph(n, [])


def pair_critical_family(n: int) -> FamilyInstance:
    """Critical digraph of order 2n with strong in-domatic number n.

    Vertices: u_1..u_n are ids 0..n-1, v_1..v_n are ids n..2n-1.  Arcs,
    for 1-based indices i, j:

      u_i -> u_j  iff i < j        v_i -> v_j  iff i < j
      v_i -> u_j  iff i >= j       u_i -> v_j  iff i >= j

    The canonical maximum partition pairs u_i with v_i; it is also the
    only maximum partition.
    """
    if n < 3:
        raise Inapplicable("family needs n >= 3")

    def u(i: int) -> int:
        return i - 1

    def v(i: int) -> int:
        return n + i - 1

    arcs = []
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i < j:
                arcs.append((u(i), u(j)))
                arcs.append((v(i), v(j)))
            if i >= j:
                arcs.append((v(i), u(j)))
                arcs.append((u(i), v(j)))
    digraph = make_digraph(2 * n, arcs)
    partition = VertexPartition.from_blocks([[u(i), v(i)] for i in range(1, n + 1)])
    return FamilyInstance(digraph, partition, n, True)


def order_value_family(p: int, m: int) -> FamilyInstance:
    """A digraph of order p with strong in-domatic number exactly m, built
    as a composition of empty parts over a cycle.

    Writing p = m*q + r with 0 <= r < m (so q >= 2), the host is the cycle
    of order q and the parts are arcless: q-1 of order m and a last one of
    order m+r.
    """
    if p < 3:
        raise Inapplicable("requires p >= 3")
    if not (0 < m <= p / 2):
        raise Inapplicable("requires 0 < m <= p/2")
    q, r = divmod(p, m)
    host = directed_cycle(q)
    parts = [empty_digraph(m) for _ in range(q - 1)] + [empty_digraph(m + r)]
    digraph, _ = composition(host, parts)
    partition = composition_partition(host, parts)
    # The r = 0, m >= 2 case coincides with the critical composition
    # family; otherwise no criticality claim is made.
    claimed_critical = True if (r == 0 and m >= 2) else None
    return FamilyInstance(digraph, partition, m, claimed_critical)


def critical_composition_family(p: int, n: int) -> FamilyInstance:
    """Critical digraph of order p with strong in-domatic number n, for
    any divisor n >= 2 of p: the complete digraph when p = n, otherwise
    arcless parts of order n over a cycle of order p/n, which is
    ``order_value_family(p, n)``.

    The complete digraph of order 2 is the lone degenerate case: deleting
    either arc destroys strongness, so it is not critical.
    """
    if p < 2 or n < 2:
        raise Inapplicable("requires p >= 2 and n >= 2")
    if p % n != 0:
        raise Inapplicable("requires n to divide p")
    if p == n:
        return replace(_complete_instance(p), claimed_critical=p >= 3)
    return order_value_family(p, n)


def _complete_instance(n: int) -> FamilyInstance:
    """Semicomplete, so its singletons are a maximum partition."""
    D = complete_digraph(n)
    return FamilyInstance(D, VertexPartition.from_blocks([[v] for v in range(n)]), n, None)


def _cycle_instance(n: int) -> FamilyInstance:
    D = directed_cycle(n)
    blocks = [[0], [1]] if n == 2 else [range(n)]
    return FamilyInstance(D, VertexPartition.from_blocks(blocks), len(blocks), None)


def _empty_instance(n: int) -> FamilyInstance:
    return FamilyInstance(empty_digraph(n), None, None, None)


# The families of ``indomatic generate``: each one's parameter names, in the
# order a missing one is reported, and its builder, which takes them so.
GENERATE = {
    "complete": (("n",), _complete_instance),
    "cycle": (("n",), _cycle_instance),
    "empty": (("n",), _empty_instance),
    "pair-critical": (("n",), pair_critical_family),
    "order-value": (("p", "m"), order_value_family),
    "critical-composition": (("p", "n"), critical_composition_family),
}


# ---------------------------------------------------------------------------
# Instances for scans and property suites


def all_labeled_digraphs(n: int):
    """Every labeled loopless digraph on n vertices, one per subset of the
    n(n-1) possible arcs, in mask order."""
    if n < 1:
        raise Inapplicable("order must be at least 1")
    positions = [(u, v) for u in range(n) for v in range(n) if u != v]
    for mask in range(1 << len(positions)):
        arcs = [positions[i] for i in range(len(positions)) if mask >> i & 1]
        yield make_digraph(n, arcs)


def random_digraph(n: int, rng: random.Random, arc_prob: float = 0.5) -> Digraph:
    arcs = [
        (u, v)
        for u in range(n)
        for v in range(n)
        if u != v and rng.random() < arc_prob
    ]
    return make_digraph(n, arcs)


def random_strong_digraph(n: int, rng: random.Random, arc_prob: float = 0.5) -> Digraph:
    """Rejection-sample until strong; cheap at desk scale."""
    if n < 1:
        raise Inapplicable("order must be at least 1")
    while True:
        D = random_digraph(n, rng, arc_prob)
        if is_strong(D):
            return D
