"""Answer checks that do not go through the solver's search.

* Values without a theorem behind them are confirmed by counting ordered
  partitions of the ground set into members of a set family, by
  inclusion-exclusion over its subsets (Bjorklund, Husfeldt and Koivisto,
  "Set partitioning via inclusion-exclusion", SIAM J. Comput. 39(2), 2009).
  The families used here (strong in-dominating sets, in-dominating sets,
  strong covers) are closed under the union of two disjoint members, so a
  partition into k members exists for every k up to the maximum and for
  no k above it: value v is confirmed by a nonzero count at v and a zero
  count at v + 1.
* Family members are checked against the theorems restated in
  ``workloads``.
* Every witness is checked with the predicates of ``indomatic.domination``.

The counts are taken modulo two primes below 2**31, so every product of
residues fits in int64.  A count is at most k**g (one block index per
element), and below the product of the primes it is zero exactly when
both residues are.
"""
from __future__ import annotations

import re

import numpy as np

from workloads import Op, strongly_connected

PRIMES = (2147483647, 2147483629)
_MODULI = np.array(PRIMES, dtype=np.int64).reshape(2, 1, 1)


def _masks(n: int, arcs):
    out_masks = [0] * n
    in_masks = [0] * n
    for u, v in arcs:
        out_masks[u] |= 1 << v
        in_masks[v] |= 1 << u
    return out_masks, in_masks


def _closure(start, within, masks):
    """For every entry at once: the vertices reachable from ``start`` inside
    ``within``, stepping along ``masks[v]`` (a number or a per-entry array)."""
    reach = start
    while True:
        step = reach.copy()
        for v, mask in enumerate(masks):
            step |= np.where(reach >> v & 1, mask, 0)
        step &= within
        if np.array_equal(step, reach):
            return reach
        reach = step


def vertex_family(kind: str, n: int, arcs) -> np.ndarray:
    """Membership of every vertex subset (indexed by bitmask) in the family
    whose partitions the invariant ``kind`` counts."""
    if kind == "dsplus":
        arcs = [(v, u) for u, v in arcs]
    out_masks, in_masks = _masks(n, arcs)
    subsets = np.arange(1 << n, dtype=np.int64)
    member = np.ones(1 << n, dtype=bool)
    for x, mask in enumerate(out_masks):
        member &= (subsets >> x & 1).astype(bool) | (subsets & mask != 0)
    if kind in ("dsminus", "dsplus"):
        low = subsets & -subsets
        member &= _closure(low, subsets, out_masks) == subsets
        member &= _closure(low, subsets, in_masks) == subsets
    member[0] = False
    return member


def strong_cover_family(n: int, arcs) -> np.ndarray:
    """Membership of every subset of the sorted arc list in the strong
    covers: arc sets that reach every vertex from vertex 0 both ways."""
    arcs = sorted(arcs)
    subsets = np.arange(1 << len(arcs), dtype=np.int64)
    out_masks = [np.zeros_like(subsets) for _ in range(n)]
    in_masks = [np.zeros_like(subsets) for _ in range(n)]
    for i, (u, v) in enumerate(arcs):
        chosen = subsets >> i & 1
        out_masks[u] |= chosen << v
        in_masks[v] |= chosen << u
    full = np.full_like(subsets, (1 << n) - 1)
    start = np.ones_like(subsets)
    member = (_closure(start, full, out_masks) == full) & (_closure(start, full, in_masks) == full)
    member[0] = False
    return member


def partition_counts(member: np.ndarray, ks) -> dict:
    """Residues of the number of ordered partitions of the ground set into
    k members of the family, for each k in ``ks``.

    Sum over X of (-1)^(g-|X|) [z^g] (sum over members S of X of z^|S|)^k,
    with the inner sums from a ranked zeta transform.
    """
    size = len(member)
    g = size.bit_length() - 1
    subsets = np.arange(size, dtype=np.int64)
    popcount = np.zeros(size, dtype=np.int64)
    for i in range(g):
        popcount += subsets >> i & 1
    ranked = np.zeros((g + 1, size), dtype=np.int64)
    ranked[popcount, subsets] = member
    for i in range(g):
        view = ranked.reshape(g + 1, -1, 2, 1 << i)
        view[:, :, 1, :] += view[:, :, 0, :]
    poly = ranked[None, :, :] % _MODULI
    sign = np.where((g - popcount) % 2, -1, 1)
    counts = {}
    power = poly
    for k in range(1, max(ks) + 1):
        if k > 1:
            power = _multiply(power, poly)
        if k in ks:
            total = (power[:, g, :] * sign).sum(axis=1) % _MODULI[:, 0, 0]
            counts[k] = tuple(int(r) for r in total)
    return counts


def _multiply(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Product of polynomials in z, truncated at degree g, residue-wise."""
    out = np.empty_like(a)
    for d in range(a.shape[1]):
        terms = a[:, : d + 1, :] * b[:, d::-1, :] % _MODULI
        out[:, d, :] = terms.sum(axis=1) % _MODULI[:, 0]
    return out


def confirms_max(member: np.ndarray, value: int) -> bool:
    """A partition into ``value`` members exists and none into value + 1."""
    g = len(member).bit_length() - 1
    if not 1 <= value <= g:
        return False
    ks = (value, value + 1) if value < g else (value,)
    if max(ks) ** g >= PRIMES[0] * PRIMES[1]:
        raise ValueError(f"{max(ks)} blocks on {g} elements is beyond the exact range of the count")
    counts = partition_counts(member, ks)
    return counts[value] != (0, 0) and counts.get(value + 1, (0, 0)) == (0, 0)


def confirms_value(kind: str, n: int, arcs, value: int) -> bool:
    if kind == "lambda":
        return confirms_max(strong_cover_family(n, arcs), value)
    return confirms_max(vertex_family(kind, n, arcs), value)


# ---------------------------------------------------------------------------
# Per-workload answer checks.  Each returns False on a wrong answer and never
# raises for one.

_WITNESS_PREDICATES = {
    "dsminus": ("VertexPartition", "is_strong_in_domatic_partition"),
    "dsplus": ("VertexPartition", "is_strong_out_domatic_partition"),
    "indomatic": ("VertexPartition", "is_in_domatic_partition"),
    "lambda": ("ArcPartition", "is_strong_cover_partition"),
}


def check_solve(ind, op: Op, answer) -> bool:
    value, block_of, block_count = answer
    cls_name, predicate = _WITNESS_PREDICATES[op.kind]
    D = ind.make_digraph(op.n, op.arcs)
    try:
        witness = getattr(ind.domination, cls_name)(block_of, block_count)
        if witness.block_count != value or not getattr(ind.domination, predicate)(D, witness):
            return False
    except ValueError:
        return False
    if op.claim is not None:
        return value == op.claim.value
    return confirms_value(op.kind, op.n, op.arcs, value)


def check_laws(op: Op, answer) -> bool:
    statuses, value = answer
    if any(status == "violated" for _, status in statuses):
        return False
    return value is not None and confirms_value("dsminus", op.n, op.arcs, value)


_RECORD = re.compile(r"\((\d+),(\d+)\)\s+(true|false)\s+(-|\d+)")


def parse_critical(text: str):
    """(value, records, critical, characterization) from the output of
    ``indomatic critical``, or None if it does not have that shape."""
    lines = text.splitlines()
    if len(lines) < 4 or not lines[0].startswith("strong in-domatic number: "):
        return None
    value = int(lines[0].rsplit(" ", 1)[1])
    records = []
    for line in lines[2:-2]:
        m = _RECORD.fullmatch(line.strip())
        if m is None:
            return None
        after = None if m[4] == "-" else int(m[4])
        records.append(((int(m[1]), int(m[2])), m[3] == "true", after))
    if lines[-2] == "critical: yes":
        critical = True
    elif lines[-2].startswith("critical: no"):
        critical = False
    else:
        return None
    if not lines[-1].startswith("characterization: "):
        return None
    characterization = lines[-1][len("characterization: "):].split(" (")[0]
    return value, records, critical, characterization


def check_critical(op: Op, answer) -> bool:
    """Exit code 0; the value and every deletion record right; the verdict
    equal to the definition applied to the right records and to the
    theorem where one covers the input; the rigidity verdict equal to it
    wherever the characterization's hypotheses hold."""
    code, text = answer
    parsed = parse_critical(text) if code == 0 else None
    if parsed is None:
        return False
    value, records, critical, characterization = parsed
    arcs = sorted(op.arcs)
    if [arc for arc, _, _ in records] != arcs:
        return False
    claim = op.claim
    if claim is not None:
        if value != claim.value:
            return False
    elif not confirms_value("dsminus", op.n, arcs, value):
        return False
    for arc, still_strong, after in records:
        rest = [a for a in arcs if a != arc]
        if still_strong != strongly_connected(op.n, rest):
            return False
        if not still_strong:
            if after is not None:
                return False
        elif after not in (value - 1, value):
            return False
        elif claim is not None and claim.critical:
            if after != value - 1:
                return False
        elif not confirms_value("dsminus", op.n, rest, after):
            return False
    definitional = all(s and after == value - 1 for _, s, after in records)
    if critical != definitional:
        return False
    if claim is not None and claim.critical is not None and critical != claim.critical:
        return False
    if value >= 2 and all(s for _, s, _ in records):
        return characterization == ("holds" if critical else "fails")
    return characterization == "not applicable"


def check_answer(ind, op: Op, answer) -> bool:
    if op.kind == "laws":
        return check_laws(op, answer)
    if op.kind == "critical":
        return check_critical(op, answer)
    return check_solve(ind, op, answer)
