"""The benchmark's three workloads: their seeded inputs, the operation each
input goes through, and the values and verdicts the paper proves for the
family members among them.

Inputs are kept as plain ``(n, arcs)`` data.  Every operation builds its
own ``Digraph`` through the public API, so a pass starts from the same
state as a fresh process once the package caches are cleared.
"""
from __future__ import annotations

import io
import os
import random
from contextlib import redirect_stdout
from dataclasses import dataclass
from typing import Optional

WORKLOADS = ("solve", "law-sweep", "criticality")


@dataclass(frozen=True)
class Claim:
    """What a theorem says about an input: its value and, when the theorem
    covers it, whether it is strong in-domatic critical."""

    value: int
    critical: Optional[bool] = None


# The paper's family theorems, restated here so that answers are never
# compared with the claims the generators attach to their own output.


def pair_critical_claim(n: int) -> Claim:
    """pair_critical_family(n): order 2n, value n, critical."""
    return Claim(n, True)


def critical_composition_claim(p: int, n: int) -> Claim:
    """critical_composition_family(p, n): value n, critical.  For p = n it
    is K_n*, where every singleton in-dominates and deleting (u, v) stops
    {v} dominating u; the exception is K_2*, where a deletion breaks
    strongness."""
    return Claim(n, not (p == n == 2))


def order_value_claim(p: int, m: int) -> Claim:
    """order_value_family(p, m): order p, value m.  With m not dividing p
    the paper makes no criticality claim."""
    return Claim(m, None)


def cycle_claim(n: int) -> Claim:
    """Directed cycle (order 2 is the symmetric pair K_2*): no proper subset
    of order at least two induces a strong digraph, and no singleton
    dominates once n >= 3, so the value is 1 (2 for K_2*).  Every deletion
    breaks strongness, so it is never critical."""
    return Claim(2 if n == 2 else 1, False)


# lambda(K_n*) for n = 3..6.  A strong cover of K_n* needs n arcs, and K_n*
# has no Hamiltonian decomposition for n = 4 and n = 6.
LAMBDA_COMPLETE = {3: 2, 4: 2, 5: 4, 6: 4}


@dataclass(frozen=True)
class Op:
    """One operation of a workload.

    ``kind`` is the solve entry point ("dsminus", "dsplus", "indomatic",
    "lambda"), "laws" for ``check_all`` or "critical" for the CLI command.
    ``claim`` is set when a theorem gives the answer; otherwise the answer
    is checked by counting partitions.  ``path`` is the CLI input file.
    """

    kind: str
    n: int
    arcs: tuple
    claim: Optional[Claim] = None
    path: Optional[str] = None


def strongly_connected(n: int, arcs) -> bool:
    """Strong connectivity by bitmask reachability from vertex 0 in both
    directions; independent of ``indomatic.core``."""
    out_masks = [0] * n
    in_masks = [0] * n
    for u, v in arcs:
        out_masks[u] |= 1 << v
        in_masks[v] |= 1 << u
    full = (1 << n) - 1
    for masks in (out_masks, in_masks):
        reach, frontier = 1, 1
        while frontier:
            step = 0
            for v in range(n):
                if frontier >> v & 1:
                    step |= masks[v]
            frontier = step & ~reach
            reach |= frontier
        if reach != full:
            return False
    return True


def random_strong(n: int, rng, p: float) -> tuple:
    """Random digraph with arc probability p, resampled until strong."""
    while True:
        arcs = tuple(
            (u, v) for u in range(n) for v in range(n) if u != v and rng.random() < p
        )
        if strongly_connected(n, arcs):
            return arcs


def complete_arcs(n: int) -> tuple:
    return tuple((u, v) for u in range(n) for v in range(n) if u != v)


def cycle_arcs(n: int) -> tuple:
    if n == 2:
        return ((0, 1), (1, 0))
    return tuple(sorted((i, (i + 1) % n) for i in range(n)))


def all_strong_labeled(n: int):
    """Every strong labeled loopless digraph on n vertices, in arc-mask order."""
    positions = complete_arcs(n)
    for mask in range(1 << len(positions)):
        arcs = tuple(positions[i] for i in range(len(positions)) if mask >> i & 1)
        if strongly_connected(n, arcs):
            yield arcs


def _raw(D) -> tuple:
    return D.vertex_count, tuple(D.sorted_arcs())


# Family members solved by strong_in_domatic_number and by
# strong_out_domatic_number: critical compositions (complete digraphs when
# p = n) and order/value compositions up to order 16.
CRITICAL_COMPOSITIONS_SOLVE = tuple(
    (p, n) for p in range(3, 17) for n in range(2, p + 1) if p % n == 0
)
ORDER_VALUES_SOLVE = tuple(
    (p, m) for p in range(5, 17) for m in range(2, p // 2 + 1) if p % m
)
# Random inputs drawn once from FIXED_SEED, the same in every run: one per
# (order 10-14, p in {0.3, 0.5}) for strong_in_domatic_number (two at orders
# 13 and 14, p = 0.5), one per (order 10-12, p) for in_domatic_number and
# one at orders 10 and 11, p = 0.5, for strong_out_domatic_number.  Their
# times spread over orders of magnitude (one order-14 input at p = 0.5 takes
# from 1 ms to 4 s), so seeded ones would move wall_s and op_p90_ms with the
# seed more than with the code.
FIXED_SEED = 0
STRATA = tuple((n, p) for p in (0.3, 0.5) for n in range(10, 15))
FIXED_RANDOM_SOLVE = (
    [("dsminus", n, p) for n, p in STRATA]
    + [("dsminus", 13, 0.5), ("dsminus", 14, 0.5)]
    + [("indomatic", n, p) for n, p in STRATA if n <= 12]
    + [("dsplus", 10, 0.5), ("dsplus", 11, 0.5)]
)
# Seeded random inputs, all quick: strong_in_domatic_number and
# in_domatic_number at orders 10-12, p = 0.3, and lambda_number on orders 3
# and 4, which keeps the arc count at 12 or below.
SEEDED_RANDOM_SOLVE = (
    [("dsminus", n, 0.3) for n in (10, 11, 12)]
    + [("indomatic", n, 0.3) for n in (10, 11, 12)]
    + [("lambda", 3, 0.5)] * 5
    + [("lambda", 4, 0.5)] * 5
)


def solve_ops(ind, rng) -> list:
    fam = ind.families
    members = [(fam.pair_critical_family(n), pair_critical_claim(n)) for n in range(3, 9)]
    members += [
        (fam.critical_composition_family(p, n), critical_composition_claim(p, n))
        for p, n in CRITICAL_COMPOSITIONS_SOLVE
    ]
    members += [
        (fam.order_value_family(p, m), order_value_claim(p, m)) for p, m in ORDER_VALUES_SOLVE
    ]
    ops = []
    for inst, claim in members:
        n, arcs = _raw(inst.digraph)
        # Each of these families is closed under taking the converse up to
        # isomorphism: i -> n+1-i on both halves of pair_critical_family,
        # and host vertex i -> -i (then a rotation) on compositions over a
        # directed cycle.  So the strong out-domatic value is the same.
        ops.append(Op("dsminus", n, arcs, Claim(claim.value)))
        ops.append(Op("dsplus", n, arcs, Claim(claim.value)))
    for n in range(2, 17):
        claim = cycle_claim(n)
        ops.append(Op("dsminus", n, cycle_arcs(n), Claim(claim.value)))
        ops.append(Op("dsplus", n, cycle_arcs(n), Claim(claim.value)))
        # A directed cycle is its own only strong cover.
        ops.append(Op("lambda", n, cycle_arcs(n), Claim(1)))
    for n in range(3, 8):
        ops.append(Op("indomatic", *_raw(fam.pair_critical_family(n).digraph)))
    for n, value in LAMBDA_COMPLETE.items():
        ops.append(Op("lambda", n, complete_arcs(n), Claim(value)))
    for source, inputs in (
        (random.Random(FIXED_SEED), FIXED_RANDOM_SOLVE), (rng, SEEDED_RANDOM_SOLVE)
    ):
        for kind, n, p in inputs:
            ops.append(Op(kind, n, random_strong(n, source, p)))
    return ops


def law_ops(rng) -> list:
    ops = [Op("laws", n, arcs) for n in range(1, 5) for arcs in all_strong_labeled(n)]
    for _ in range(200):
        n = rng.choice((5, 6))
        ops.append(Op("laws", n, random_strong(n, rng, 0.5)))
    return ops


# Every critical composition up to order 12 (complete digraphs when p = n)
# except those whose profile alone takes seconds, and every order/value
# composition up to order 11 outside the critical case (m not dividing p).
SLOW_PROFILES = {(12, 6), (10, 10), (11, 11), (12, 12), (11, 4), (11, 5)}
CRITICAL_COMPOSITIONS_CLI = tuple(
    (p, n) for p in range(3, 13) for n in range(2, p + 1)
    if p % n == 0 and (p, n) not in SLOW_PROFILES
)
ORDER_VALUES_CLI = tuple(
    (p, m) for p in range(5, 12) for m in range(2, p // 2 + 1)
    if p % m and (p, m) not in SLOW_PROFILES
)
# Random inputs per order: a sample drawn once from FIXED_SEED, the same in
# every run, and a smaller seeded one.  Profile times of random inputs are
# spread wide and often bimodal (value 1 or 2), so if every random input
# were seeded the per-operation percentiles would move with the seed.  The
# seeded ones are mostly of order 6, whose profiles stay well below
# op_p90_ms.
FIXED_RANDOM_CLI_COUNTS = {6: 40, 7: 20, 8: 10}
SEEDED_RANDOM_CLI_COUNTS = {6: 20, 7: 5}


def critical_ops(ind, rng, workdir: str) -> list:
    fam = ind.families
    inputs = []
    for n in (3, 4, 5, 6):
        inputs.append(_raw(fam.pair_critical_family(n).digraph) + (pair_critical_claim(n),))
    for p, n in CRITICAL_COMPOSITIONS_CLI:
        inputs.append(
            _raw(fam.critical_composition_family(p, n).digraph)
            + (critical_composition_claim(p, n),)
        )
    for p, m in ORDER_VALUES_CLI:
        inputs.append(_raw(fam.order_value_family(p, m).digraph) + (order_value_claim(p, m),))
    for n in range(2, 17):
        inputs.append((n, cycle_arcs(n), cycle_claim(n)))
    for source, counts in (
        (random.Random(FIXED_SEED), FIXED_RANDOM_CLI_COUNTS), (rng, SEEDED_RANDOM_CLI_COUNTS)
    ):
        for n, count in counts.items():
            for _ in range(count):
                inputs.append((n, random_strong(n, source, 0.5), None))
    return [
        Op("critical", n, arcs, claim, write_instance(workdir, f"{i:03d}.dg", n, arcs))
        for i, (n, arcs, claim) in enumerate(inputs)
    ]


def write_instance(workdir: str, name: str, n: int, arcs) -> str:
    """Write a digraph in the CLI's canonical text format."""
    path = os.path.join(workdir, name)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(f"n {n}\n" + "".join(f"{u} {v}\n" for u, v in sorted(arcs)))
    return path


def build(workload: str, ind, rng, workdir: str) -> list:
    """The workload's operations in a seeded random order.  The machine's
    speed drifts over seconds; in generation order, the operations that
    decide a percentile would sit together and share one stretch of it."""
    if workload == "solve":
        ops = solve_ops(ind, rng)
    elif workload == "law-sweep":
        ops = law_ops(rng)
    else:
        ops = critical_ops(ind, rng, workdir)
    rng.shuffle(ops)
    return ops


def warm_up_ops(workload: str, workdir: str) -> list:
    """Small operations of the workload's kinds, on inputs outside it."""
    k3 = complete_arcs(3)
    if workload == "solve":
        return [Op(kind, 3, k3) for kind in ("dsminus", "dsplus", "indomatic", "lambda")]
    if workload == "law-sweep":
        return [Op("laws", 3, k3)]
    return [Op("critical", 3, k3, None, write_instance(workdir, "warm-up.dg", 3, k3))]


SOLVERS = {
    "dsminus": "strong_in_domatic_number",
    "dsplus": "strong_out_domatic_number",
    "indomatic": "in_domatic_number",
    "lambda": "lambda_number",
}


def run_op(ind, op: Op):
    """Run one operation through the public API or the CLI and return its
    answer as hashable data.  Module attributes are looked up on every
    call, so the traced run sees the wrapped functions."""
    if op.kind == "critical":
        out = io.StringIO()
        with redirect_stdout(out):
            code = ind.cli.main(["critical", "--in", op.path])
        return code, out.getvalue()
    D = ind.make_digraph(op.n, op.arcs)
    if op.kind == "laws":
        report = ind.check_all(D, subdigraph_samples=5, seed=1)
        statuses = tuple((e.law_id, e.status) for e in report.entries)
        return statuses, report.entries[0].details.get("value")
    result = getattr(ind, SOLVERS[op.kind])(D)
    return result.value, result.witness.block_of, result.witness.block_count
