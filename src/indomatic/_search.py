"""Backtracking search for partitions into covering blocks.

``partition_search`` partitions vertices.  It serves the directed solver
(every vertex outside a block has an out-neighbor inside it) and the
undirected connected-domatic computation (a neighbor inside it): for every
item x and every block j other than x's own, some member of ``cover[x]``
must land in block j.  ``arc_partition_search`` partitions arcs into
strong covers, which need an out-arc and an in-arc at every vertex.

Items go in fixed order and block j opens only once blocks 0..j-1 are
open, so every set partition is visited once, blocks ordered by first
member: the first witness is canonical and enumeration duplicate-free.

Strongness is checked during the search, not on complete partitions.
After each vertex is placed, every open block B with two or more members
must lie in one strong component of D[B + unassigned] (a forward and a
backward bitmask closure from min(B)).  After each arc is placed, every
open block, and one empty block standing for all unopened ones, must
reach every vertex from vertex 0 and be reached from each, along its own
arcs plus the unassigned arcs it may still take: arc (u, v) is barred
from a block where u has an out-arc already and each remaining out-arc of
u is needed by a distinct block lacking one (likewise v's in-arcs).  A
valid final block lies inside the set a closure runs over, so a cut
subtree holds no valid partition and valid leaves keep their order; once
every item is placed the rules say exactly that every block is strong.
"""
from __future__ import annotations

from functools import reduce
from operator import or_
from typing import Callable, Iterator, Optional, Sequence, Tuple


class SearchCounter:
    """Mutable counters threaded through a search: nodes visited, and
    subtrees cut because a block could no longer become strong."""

    __slots__ = ("nodes", "strong_prunes")

    def __init__(self) -> None:
        self.nodes = 0
        self.strong_prunes = 0


def neighbor_masks(adjacency: Sequence[Sequence[int]]) -> tuple:
    """One bitmask per vertex with bit w set for each listed neighbor w."""
    return tuple(sum(1 << w for w in nbrs) for nbrs in adjacency)


def _reaches(root: int, masks: Sequence[int], allowed: int, block: int) -> bool:
    """Every member of ``block`` is reachable from the single-bit mask
    ``root`` along ``masks`` without leaving ``allowed``."""
    seen = frontier = root
    while frontier and block & ~seen:
        step = 0
        while frontier:
            low = frontier & -frontier
            step |= masks[low.bit_length() - 1]
            frontier ^= low
        frontier = step & allowed & ~seen
        seen |= frontier
    return not block & ~seen


def partition_search(
    n: int,
    cover: Sequence[Sequence[int]],
    k: int,
    strong_masks: Optional[Tuple[Sequence[int], Sequence[int]]] = None,
    counter: Optional[SearchCounter] = None,
) -> Iterator[tuple]:
    """Yield every partition of ``range(n)`` into exactly ``k`` blocks such
    that each item outside a block has a ``cover`` member inside it and,
    when ``strong_masks`` is given, every block is strong.

    Partitions are yielded as tuples of frozensets ordered by minimum
    member.  ``cover[x]`` lists the items whose presence in a block
    satisfies x's requirement toward that block.  ``strong_masks`` is a
    pair of per-item out- and in-neighbor bitmasks (see
    ``neighbor_masks``) of the relation the blocks must be strong in.
    """
    if not (1 <= k <= n):
        return
    if counter is None:
        counter = SearchCounter()

    # covered_by[x] = items y such that x appears in cover[y]; assigning x
    # to a block satisfies those items's requirement toward that block.
    covered_by = [[] for _ in range(n)]
    for x in range(n):
        for y in cover[x]:
            covered_by[y].append(x)

    block_of = [-1] * n
    # members[j]: bitmask of the items assigned to block j.
    members = [0] * k
    # hits[x][j]: number of assigned members of cover[x] sitting in block j.
    hits = [[0] * k for _ in range(n)]
    # zero_blocks[x]: number of blocks j < k with hits[x][j] == 0.
    zero_blocks = [k] * n
    # pending[x]: members of cover[x] not yet assigned.
    pending = [len(cover[x]) for x in range(n)]
    full = (1 << n) - 1

    def violated(x: int) -> bool:
        # x must eventually see a cover member in every block except its
        # own; unopened blocks count as unseen, which is exactly right
        # because all k blocks end up nonempty.
        own_is_zero = block_of[x] == -1 or hits[x][block_of[x]] == 0
        required = zero_blocks[x] - (1 if own_is_zero else 0)
        return required > pending[x]

    def cannot_be_strong(i: int, opened: int) -> bool:
        # Some open block of two or more members has left the strong
        # component of min(block) in D[block + items after i].
        out_masks, in_masks = strong_masks
        rest = full & ~((2 << i) - 1)
        for block in members[:opened]:
            if block & (block - 1):
                root = block & -block
                allowed = block | rest
                if not (
                    _reaches(root, out_masks, allowed, block)
                    and _reaches(root, in_masks, allowed, block)
                ):
                    return True
        return False

    def assign(i: int, opened: int) -> Iterator[tuple]:
        counter.nodes += 1
        if i == n:
            if opened == k:
                blocks = [[] for _ in range(k)]
                for x in range(n):
                    blocks[block_of[x]].append(x)
                yield tuple(frozenset(b) for b in blocks)
            return
        # Not enough unassigned items left to open the remaining blocks.
        if k - opened > n - i:
            return
        top = min(opened + 1, k)
        bit = 1 << i
        for b in range(top):
            block_of[i] = b
            members[b] |= bit
            now_opened = max(opened, b + 1)
            touched = []
            ok = True
            for y in covered_by[i]:
                pending[y] -= 1
                hits[y][b] += 1
                if hits[y][b] == 1:
                    zero_blocks[y] -= 1
                touched.append(y)
            for y in touched:
                if violated(y):
                    ok = False
                    break
            if ok and violated(i):
                ok = False
            if ok and strong_masks is not None and cannot_be_strong(i, now_opened):
                counter.strong_prunes += 1
                ok = False
            if ok:
                yield from assign(i + 1, now_opened)
            for y in touched:
                hits[y][b] -= 1
                if hits[y][b] == 0:
                    zero_blocks[y] += 1
                pending[y] += 1
            members[b] &= ~bit
            block_of[i] = -1

    yield from assign(0, 0)


def largest_partition(search: Callable[[int], Iterator[tuple]], cap: int, whole: tuple):
    """First partition yielded by ``search(k)`` for the largest k <= cap that
    yields one, or ``whole`` when no k >= 2 does.  Feasible k must form a
    prefix, so k = 2, 3, ... are tried only up to the first that fails."""
    best, k = whole, 2
    while k <= cap:
        found = next(search(k), None)
        if found is None:
            break
        best, k = found, k + 1
    return best


def arc_partition_search(
    n: int,
    arcs: Sequence[Tuple[int, int]],
    k: int,
    counter: Optional[SearchCounter] = None,
) -> Iterator[tuple]:
    """Yield every partition of ``arcs``, the arcs of a digraph on
    ``range(n)`` with n >= 2, into exactly ``k`` strong covers, as tuples
    of arc lists in the order of ``arcs``, blocks ordered by first arc."""
    m = len(arcs)
    if not (1 <= k <= m):
        return
    if counter is None:
        counter = SearchCounter()
    blocks = [[] for _ in range(k)]
    # outs[j][u] / ins[j][v]: heads of block j's arcs leaving u / tails of
    # its arcs entering v.
    outs = [[0] * n for _ in range(k)]
    ins = [[0] * n for _ in range(k)]
    # free_out[u] / free_in[v]: heads / tails of unassigned arcs at u / v.
    free_out = [sum(1 << v for u, v in arcs if u == x) for x in range(n)]
    free_in = [sum(1 << u for u, v in arcs if v == x) for x in range(n)]
    # spare_out[v] / spare_in[v]: unassigned arcs leaving / entering v
    # beyond one for each block (unopened ones included) that lacks one.
    spare_out = [mask.bit_count() - k for mask in free_out]
    spare_in = [mask.bit_count() - k for mask in free_in]
    full = (1 << n) - 1

    def cannot_be_strong(opened: int) -> bool:
        # An unassigned arc may go to block j only if its tail has room for
        # another out-arc there (none yet, or spare ones) and its head for
        # another in-arc.
        slack_out = sum(1 << x for x in range(n) if spare_out[x] > 0)
        slack_in = sum(1 << x for x in range(n) if spare_in[x] > 0)
        for j in range(min(opened + 1, k)):
            room_out = slack_out | ~reduce(or_, ins[j])
            room_in = slack_in | ~reduce(or_, outs[j])
            for own, free, room_from, room_to in (
                (outs[j], free_out, room_out, room_in),
                (ins[j], free_in, room_in, room_out),
            ):
                masks = [
                    own[x] | (free[x] & room_to if room_from >> x & 1 else 0)
                    for x in range(n)
                ]
                if not _reaches(1, masks, full, full):
                    return True
        return False

    def assign(i: int, opened: int) -> Iterator[tuple]:
        counter.nodes += 1
        if i == m:
            if opened == k:
                yield tuple(list(block) for block in blocks)
            return
        if k - opened > m - i:
            return
        u, v = arcs[i]
        ubit, vbit = 1 << u, 1 << v
        free_out[u] ^= vbit
        free_in[v] ^= ubit
        spare_out[u] -= 1
        spare_in[v] -= 1
        for b in range(min(opened + 1, k)):
            blocks[b].append(arcs[i])
            new_tail, new_head = not outs[b][u], not ins[b][v]
            outs[b][u] |= vbit
            ins[b][v] |= ubit
            spare_out[u] += new_tail
            spare_in[v] += new_head
            if spare_out[u] >= 0 and spare_in[v] >= 0:
                now_opened = max(opened, b + 1)
                if cannot_be_strong(now_opened):
                    counter.strong_prunes += 1
                else:
                    yield from assign(i + 1, now_opened)
            outs[b][u] ^= vbit
            ins[b][v] ^= ubit
            spare_out[u] -= new_tail
            spare_in[v] -= new_head
            blocks[b].pop()
        free_out[u] |= vbit
        free_in[v] |= ubit
        spare_out[u] += 1
        spare_in[v] += 1

    yield from assign(0, 0)
