"""Backtracking search for partitions into covering blocks.

One engine serves both the directed solver (blocks must be in-dominating:
every vertex outside a block has an out-neighbor inside it) and the
undirected connected-domatic computation (every vertex outside a block has
a neighbor inside it).  Both are instances of the same constraint: for
every item x and every block j other than x's own, some member of
``cover[x]`` must land in block j.

Vertices are assigned in increasing id order and block j may be opened
only once blocks 0..j-1 are open, so every set partition is visited
exactly once, with blocks already ordered by minimum member.  That makes
the first witness canonical and enumeration duplicate-free.

Blocks may also be required to induce strong subdigraphs (connected
subgraphs, for a symmetric relation).  That is checked during the search,
not on complete partitions: after each vertex is placed, every open block
B with two or more members must lie in one strong component of
D[B + unassigned], tested by a forward and a backward bitmask closure from
min(B).  A strong final block containing B lies inside that subdigraph, so
a cut subtree holds no valid partition, and the search still visits the
valid leaves in the same order.  Once every vertex is placed the rule says
exactly that every block is strong.
"""
from __future__ import annotations

from typing import Iterator, Optional, Sequence, Tuple


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


def first_partition(
    n: int,
    cover: Sequence[Sequence[int]],
    k: int,
    strong_masks: Optional[Tuple[Sequence[int], Sequence[int]]] = None,
    counter: Optional[SearchCounter] = None,
):
    """First (canonical) admissible partition, or None."""
    for parts in partition_search(n, cover, k, strong_masks, counter):
        return parts
    return None
