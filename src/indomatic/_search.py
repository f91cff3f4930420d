"""Backtracking search for partitions into blocks that meet every need.

One engine partitions items 0..m-1 into exactly k blocks such that every
block meets every *need*, a bitmask of items, and passes an optional
strongness test ``viable(block, free)``.  ``partition_search`` encodes
vertex partitions: vertex x needs itself or a member of ``cover[x]`` in
every block, and ``viable`` is the induced-strong closure.
``arc_partition_search`` encodes arc partitions into strong covers: each
vertex needs an out-arc and an in-arc in every block, and ``viable`` is the
spanning-strong closure.  The module holds only the engine and these two
encodings: which k to search, and the check of each partition that
decides a value, belong to ``solver``.

Items go in fixed order and block j opens only once blocks 0..j-1 are
open, so every set partition is visited once, blocks ordered by first
member: the first witness is canonical and enumeration duplicate-free.
A partition is yielded as its tuple of block labels, item i's block at
index i; blocks open in order, so the labels are restricted-growth (each
at most one above every earlier label), as ``VertexPartition.block_of``.

The slack of need r is its unassigned members plus the open blocks meeting
it (``hit[r]``), less k: every block not meeting r yet needs a distinct
unassigned member.  Slack below zero cuts the node.  While fewer than k
blocks are open, only the needs holding the item i to be placed are
checked, once per node, before any branch: counted without i, a need two
or more blocks short of k cuts every branch, since placing i adds at most
one block to it; one short by one bars i from the blocks already meeting
it; any other leaves every block open to i.  Every item must lie in at
least one need, as in both encodings (vertex x in its own, arc (u, v) in
u's out-arcs): then that check, made for each item placed, already cuts
every branch left with fewer unassigned items than unopened blocks, so
every leaf the walk reaches has all k open.
Once all k are open, every need is, and the search propagates (forward
checking, Haralick and Elliott, Artificial Intelligence 14(3), 1980): a
tight need (slack zero) bars its unassigned members from the blocks that
meet it.  An unassigned item with no block left cuts the node; one with a
single block left is placed there, until none is.  A node keeps the bars
found above it, and the walk goes on at the least unassigned item.  This
keeps every partition and the order they come in:

1. Placing any item never raises a slack: each need holding it loses one
   unassigned member and gains at most one block.  So a barred placement,
   which lowers a tight slack below zero, does so in every extension of
   the node, and bars only grow.
2. Hence no valid leaf below the node puts an item in a barred block: a
   forced item sits in its one allowed block in all of them, and a cut node
   has none.
3. Forcing starts only once all k blocks are open, so it opens none, and
   block labels still follow the first member.
4. The walk, skipping a forced item, visits the surviving leaves in the
   order it would visit them branching on it.
5. So a barred placement is skipped untried.  Each strongness test below
   is a pure function of its two masks, so a search computes it once and
   then recalls it, keeping up to ``_MEMO_LIMIT`` answers.
6. Deciding the blocks open to i once per node skips exactly the branches
   that placing i and then counting would cut: placing i moves only the
   slacks of the needs holding it, by the amounts counted above.  That
   includes a branch opening the k-th block, which propagate would cut in
   its first pass over the needs, before it forces an item.  A cut branch
   counts no node, forced item, strong prune or closure, so none of these
   counts, and no partition or its place in the order, changes.  Each
   branch starts from the node's own blocks and block bits, copied once
   and put back whole after it, whatever it placed and wherever it was
   cut; a label is read only at a leaf, where the walk has just set every
   item's label.

Strongness is checked during the search: every open block j must pass
``viable(members[j], free)``, free being the unassigned items not barred
from j, which by point 2 holds the rest of every valid final block j.  For
vertices, a block must lie in one strong component of D[block + free] (a
forward and a backward bitmask closure from its least member); for arcs,
the arcs of block + free must reach every vertex from vertex 0 and be
reached from each.  With every item placed, free is empty and the tests
say exactly that every block is strong.
"""
from __future__ import annotations

from typing import Callable, Iterator, Optional, Sequence, Tuple

from .core import _strong_on

# The most strongness answers one search keeps before it forgets them all.
_MEMO_LIMIT = 1 << 16


class SearchCounter:
    """Mutable counters threaded through a search: nodes visited, subtrees
    cut because a block could no longer become strong, strongness closures
    computed, and items placed by propagation instead of branching."""

    __slots__ = ("nodes", "strong_prunes", "closures", "forced")

    def __init__(self) -> None:
        self.nodes = 0
        self.strong_prunes = 0
        self.closures = 0
        self.forced = 0


def _search(
    m: int, needs: Sequence[int], k: int,
    viable: Optional[Callable[[int, int], bool]], counter: Optional[SearchCounter],
) -> Iterator[tuple]:
    """Yield every partition of items 0..m-1 into exactly k blocks, each
    meeting every mask of ``needs`` and, when ``viable`` is given, passing
    ``viable(block, free)``, as tuples of block labels."""
    if not (1 <= k <= m):
        return
    counter = counter or SearchCounter()
    # needs_of[x]: the needs holding x, whose slack placing x moves.
    needs_of = [[] for _ in range(m)]
    for r, need in enumerate(needs):
        while need:
            low = need & -need
            needs_of[low.bit_length() - 1].append(r)
            need ^= low

    # members[j]: bitmask of the items assigned to block j; labels[i]: the
    # block item i was last placed in, so at a leaf item i's block.
    members = [0] * k
    labels = [0] * m
    # hit[r]: bits of the blocks meeting needs[r].
    hit = [0] * len(needs)
    # memo[(block, free)]: what viable answered, so each test runs once.
    memo = {}

    def propagate(rest: int, banned: list, todo: Sequence[int]) -> Tuple[int, list]:
        # With all k blocks open: place every unassigned item that has one
        # block left, until none has.  banned[j] holds the items barred from
        # block j so far (bars only grow as items are placed, so the ones
        # found above this node still stand) and todo the needs whose slack
        # may have moved since.  Return the unassigned items left and the
        # bars, or -1 when some need can no longer be met or some item has
        # no block left.
        banned = banned[:]
        while True:
            grew = False
            for r in todo:
                supply = needs[r] & rest
                slack = supply.bit_count() + hit[r].bit_count() - k
                if slack < 0:
                    return -1, banned
                if slack or not supply:
                    continue
                # Each unassigned member of a tight need must bring a block
                # that does not meet it yet.
                grew = True
                bad = hit[r]
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
                    labels[low.bit_length() - 1] = b
                    moved = needs_of[low.bit_length() - 1]
                    for r in moved:
                        hit[r] |= block_bit
                    todo += moved
                    hits ^= low
            counter.forced += one.bit_count()
            rest &= ~one

    def assign(i: int, opened: int, rest: int, banned: list) -> Iterator[tuple]:
        # rest: the unassigned items, i the least of them (-1 if none is);
        # banned: the bars of propagate, all 0 while fewer than k blocks are
        # open.
        counter.nodes += 1
        if not rest:
            yield tuple(labels)
            return
        bit = 1 << i
        rest &= ~bit
        mine = needs_of[i]
        # barred: bits of the blocks i may not join while fewer than k are
        # open, decided once for every branch (point 6); past that, banned
        # bars a placement that would fail in propagate (point 5).
        barred = 0
        if opened < k:
            for r in mine:
                short = k - (needs[r] & rest).bit_count() - hit[r].bit_count()
                if short > 0:
                    if short > 1:
                        return
                    barred |= hit[r]
        # Every branch starts from this node's blocks and block bits, put
        # back whole after it, whatever it placed (point 6).
        saved_members, saved_hit = members[:], hit[:]
        for b in range(min(opened + 1, k)):
            if barred >> b & 1 or banned[b] & bit:
                continue
            block_bit = 1 << b
            members[b] |= bit
            labels[i] = b
            for r in mine:
                hit[r] |= block_bit
            now_opened = max(opened, b + 1)
            left, bars = rest, banned
            if now_opened == k:
                # Once all k blocks are open every slack is new to propagate;
                # after that only those placing i moved.
                todo = mine if opened == k else range(len(needs))
                left, bars = propagate(rest, banned, todo)
            ok = left >= 0
            if ok and viable is not None:
                for j in range(now_opened):
                    key = (members[j], left & ~bars[j])
                    good = memo.get(key)
                    if good is None:
                        if len(memo) >= _MEMO_LIMIT:
                            memo.clear()
                        good = memo[key] = viable(*key)
                        counter.closures += 1
                    if not good:
                        counter.strong_prunes += 1
                        ok = False
                        break
            if ok:
                # Items placed by force are skipped: the walk goes on at the
                # least unassigned item.
                yield from assign((left & -left).bit_length() - 1, now_opened, left, bars)
            members[:] = saved_members
            hit[:] = saved_hit

    try:
        yield from assign(0, 0, (1 << m) - 1, [0] * k)
    finally:
        # assign refers to itself through its closure: break that cycle, so
        # an exhausted or closed search frees its state, the table included,
        # at once, without the cycle collector.
        memo.clear()
        assign = None


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

    Partitions are yielded as tuples of block labels, blocks ordered by
    minimum member: exactly ``VertexPartition.block_of``.  ``cover[x]`` is
    the bitmask of the items whose presence in a block satisfies x's
    requirement toward that block.  ``strong_masks`` holds the out- and
    in-neighbor bitmasks (as ``Digraph.out_masks`` and ``Digraph.in_masks``)
    of the relation the blocks must be strong in.
    """
    viable = None
    if strong_masks is not None:
        out_masks, in_masks = strong_masks

        def viable(block: int, free: int) -> bool:
            # The members lie in one strong component of D[block + free].
            return _strong_on(out_masks, in_masks, block | free, block)

    return _search(n, [cover[x] | 1 << x for x in range(n)], k, viable, counter)


def arc_partition_search(
    n: int,
    arcs: Sequence[Tuple[int, int]],
    k: int,
    counter: Optional[SearchCounter] = None,
) -> Iterator[tuple]:
    """Yield every partition of ``arcs``, the arcs of a digraph on
    ``range(n)`` with n >= 2, into exactly ``k`` strong covers, as tuples
    of block labels in the order of ``arcs``, blocks ordered by first arc:
    zipped with ``D.sorted_arcs()`` they are ``ArcPartition.block_of``."""
    full = (1 << n) - 1
    # outs[u] / ins[v]: bits of the arcs leaving u / entering v.
    outs, ins = [0] * n, [0] * n
    for i, (u, v) in enumerate(arcs):
        outs[u] |= 1 << i
        ins[v] |= 1 << i

    def viable(block: int, free: int) -> bool:
        # Along the arcs of block + free, vertex 0 reaches and is reached.
        out_masks, in_masks = [0] * n, [0] * n
        allowed = block | free
        while allowed:
            low = allowed & -allowed
            u, v = arcs[low.bit_length() - 1]
            out_masks[u] |= 1 << v
            in_masks[v] |= 1 << u
            allowed ^= low
        return _strong_on(out_masks, in_masks, full, full)

    return _search(len(arcs), outs + ins, k, viable, counter)
