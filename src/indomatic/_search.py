"""Backtracking search for partitions into covering blocks.

``partition_search`` partitions vertices.  It serves the directed solver
(every vertex outside a block has an out-neighbor inside it) and the
undirected connected-domatic computation (a neighbor inside it): for every
item x and every block j other than x's own, some member of ``cover[x]``
must land in block j.  ``arc_partition_search`` partitions arcs into
strong covers, which need an out-arc and an in-arc at every vertex.
Covers and the relation blocks must be strong in come in as per-item
bitmasks, the ones ``Digraph`` and ``UGraph`` carry.

Items go in fixed order and block j opens only once blocks 0..j-1 are
open, so every set partition is visited once, blocks ordered by first
member: the first witness is canonical and enumeration duplicate-free.

The cover check weighs, for every item y, its slack: the unassigned
members of cover[y] less the blocks other than y's own that y does not
see yet (blocks holding a member of cover[y]).  Slack below zero cuts the
node.  While fewer than k blocks are open, only the items whose slack the
last placement moved are checked.  Once all k are open, every item is,
and the vertex partition search propagates (forward checking, Haralick
and Elliott, Artificial Intelligence 14(3), 1980): a tight item y (slack
zero) bars each unassigned member of cover[y] from the blocks y sees and
from y's own, and bars an unassigned y from the blocks it sees.  An
unassigned item with no block left cuts the node; one with a single block
left is placed there, and the scan repeats until nothing more is placed.
Bars only grow as items are placed (point 1 below), so a node keeps the
bars found above it, and each scan after the first looks only at the
items whose slack the last placements moved.  The walk then goes on at
the least unassigned item, skipping the forced ones; placements are
undone on the way back.  This keeps every partition and the order they
come in:

1. Placing any item never raises a slack.  A member of cover[y] leaving
   the unassigned set costs one, and shows y at most one new block; y's
   own placement costs nothing, as no item is in its own cover, and can
   only hide a seen block.  So a barred placement, which lowers a tight
   slack below zero, does so in every extension of the node, and the
   strongness closures below only lose vertices as items are placed.
2. Hence no valid leaf below the node puts an item in a barred block: a
   forced item sits in its one allowed block in all of them, and a cut
   node has none.
3. Forcing starts only once all k blocks are open, so it opens none, and
   block labels still follow the first member.
4. The walk, skipping a forced item, visits the surviving leaves in the
   order it would visit them branching on it.

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
from typing import Callable, Iterable, Iterator, Optional, Sequence, Tuple

from .core import _reaches


class SearchCounter:
    """Mutable counters threaded through a search: nodes visited, subtrees
    cut because a block could no longer become strong, and items placed by
    propagation instead of branching."""

    __slots__ = ("nodes", "strong_prunes", "forced")

    def __init__(self) -> None:
        self.nodes = 0
        self.strong_prunes = 0
        self.forced = 0


def partition_search(
    n: int,
    cover: Sequence[int],
    k: int,
    strong_masks: Optional[Tuple[Sequence[int], Sequence[int]]] = None,
    counter: Optional[SearchCounter] = None,
) -> Iterator[tuple]:
    """Yield every partition of ``range(n)`` into exactly ``k`` blocks such
    that each item outside a block has a ``cover`` member inside it and,
    when ``strong_masks`` is given, every block is strong.

    Partitions are yielded as tuples of frozensets ordered by minimum
    member.  ``cover[x]`` is the bitmask of the items whose presence in a
    block satisfies x's requirement toward that block; no item may be in
    its own cover.  ``strong_masks`` is a pair of per-item out- and
    in-neighbor bitmasks (as ``Digraph.out_masks`` and
    ``Digraph.in_masks``) of the relation the blocks must be strong in.
    """
    if not (1 <= k <= n):
        return
    if counter is None:
        counter = SearchCounter()

    # covered_by[x] = items y such that x appears in cover[y]; assigning x
    # to a block satisfies those items' requirement toward that block.
    covered_by = [[y for y in range(n) if cover[y] >> x & 1] for x in range(n)]
    # touched_by[x]: covered_by[x] and x, the items whose slack placing x
    # can move.
    touched_by = [ys + [x] for x, ys in enumerate(covered_by)]

    # members[j]: bitmask of the items assigned to block j.
    members = [0] * k
    # own[x]: the bit of x's block, 0 while x is unassigned.
    own = [0] * n
    # seen[x]: bits of the blocks holding an assigned member of cover[x].
    seen = [0] * n

    def violated(x: int, rest: int) -> bool:
        # x must still see a cover member in every block but its own, and
        # only its unassigned ones (in rest) can supply them; unopened blocks
        # count as unseen, exactly right as all k blocks end up nonempty.
        return k - 1 - (seen[x] & ~own[x]).bit_count() > (cover[x] & rest).bit_count()

    def unplace(items: int) -> None:
        # Take the items placed by propagate out of their blocks again.
        while items:
            low = items & -items
            x = low.bit_length() - 1
            block_bit = own[x]
            b = block_bit.bit_length() - 1
            members[b] &= ~low
            for y in covered_by[x]:
                if not members[b] & cover[y]:
                    seen[y] &= ~block_bit
            own[x] = 0
            items ^= low

    def propagate(rest: int, banned: list, todo: Iterable[int]) -> Tuple[int, list]:
        # With all k blocks open: place every unassigned item that has one
        # block left, until none has.  banned[j] holds the items barred from
        # block j so far (bars only grow as items are placed, so the ones
        # found above this node still stand) and todo the items whose slack
        # may have moved since.  Return the unassigned items left and the
        # bars, or -1, with nothing placed, when some item has no block left
        # or some requirement can no longer be met.
        start = rest
        banned = banned[:]
        while True:
            grew = False
            for y in todo:
                mine = own[y]
                supply = cover[y] & rest
                # y's unassigned cover members less the blocks y still needs
                # to see: below zero y can no longer be satisfied, at zero y
                # is tight.
                slack = supply.bit_count() + (seen[y] & ~mine).bit_count() + 1 - k
                if slack > 0:
                    continue
                if slack:
                    unplace(start & ~rest)
                    return -1, banned
                # Each unassigned cover member of a tight y must bring a block
                # y does not see yet, and an unassigned tight y must not land
                # in one it sees.
                if not mine:
                    supply |= 1 << y
                if not supply:
                    continue
                grew = True
                bad = seen[y] | mine
                while bad:
                    low = bad & -bad
                    banned[low.bit_length() - 1] |= supply
                    bad ^= low
            if not grew:
                # No bar since they were last counted: no item lost a block.
                return rest, banned
            # Count each unassigned item's allowed blocks up to two, bitwise:
            # none = items with no allowed block yet, one = exactly one.
            none, one = rest, 0
            for ban in banned:
                allowed = rest & ~ban
                one = (one & ~allowed) | (none & allowed)
                none &= ~allowed
            if none:
                unplace(start & ~rest)
                return -1, banned
            if not one:
                return rest, banned
            todo = []
            for b, ban in enumerate(banned):
                hits = one & ~ban
                if not hits:
                    continue
                members[b] |= hits
                block_bit = 1 << b
                while hits:
                    low = hits & -hits
                    x = low.bit_length() - 1
                    own[x] = block_bit
                    for y in covered_by[x]:
                        seen[y] |= block_bit
                    todo += touched_by[x]
                    hits ^= low
            counter.forced += one.bit_count()
            rest &= ~one

    def cannot_be_strong(rest: int, opened: int) -> bool:
        # Some open block of two or more members has left the strong
        # component of min(block) in D[block + rest].
        out_masks, in_masks = strong_masks
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

    def assign(i: int, opened: int, rest: int, banned: list) -> Iterator[tuple]:
        # rest: the unassigned items, i the least of them (-1 if none is);
        # banned: the bars of propagate, all 0 while fewer than k blocks are
        # open.
        counter.nodes += 1
        if not rest:
            if opened == k:
                yield tuple(
                    frozenset(x for x in range(n) if block >> x & 1)
                    for block in members
                )
            return
        # Not enough unassigned items left to open the remaining blocks (no
        # item is forced before all k are open, so n - i counts them).
        if k - opened > n - i:
            return
        bit = 1 << i
        rest &= ~bit
        for b in range(min(opened + 1, k)):
            # Placed and unplaced inline, not through unplace: this loop is
            # the search's hot path.
            own[i] = block_bit = 1 << b
            members[b] |= bit
            for y in covered_by[i]:
                seen[y] |= block_bit
            now_opened = max(opened, b + 1)
            if now_opened == k:
                # Once all k blocks are open every slack is new to propagate;
                # after that only those placing i moved.
                todo = touched_by[i] if opened == k else range(n)
                left, bars = propagate(rest, banned, todo)
                ok = left >= 0
            else:
                left, bars = rest, banned
                ok = True
                for y in covered_by[i]:
                    if violated(y, rest):
                        ok = False
                        break
                if ok and violated(i, rest):
                    ok = False
            if ok and strong_masks is not None and cannot_be_strong(left, now_opened):
                counter.strong_prunes += 1
                ok = False
            if ok:
                # Items placed by force are skipped: the walk goes on at the
                # least unassigned item.
                yield from assign((left & -left).bit_length() - 1, now_opened, left, bars)
            # Undo the forced placements; a cut propagation undid its own.
            if 0 <= left != rest:
                unplace(rest & ~left)
            members[b] &= ~bit
            for y in covered_by[i]:
                if not members[b] & cover[y]:
                    seen[y] &= ~block_bit
        own[i] = 0

    yield from assign(0, 0, (1 << n) - 1, [0] * k)


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
