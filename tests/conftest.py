"""Shared strategies, small named graphs and reference helpers for the test suite."""
from __future__ import annotations

from collections import Counter

import networkx as nx
import pytest
from hypothesis import strategies as st

from indomatic import critical, laws, solver
from indomatic import (
    complete_digraph,
    directed_cycle,
    make_digraph,
    make_ugraph,
)


def all_pairs(n):
    return [(u, v) for u in range(n) for v in range(n) if u != v]


@st.composite
def digraphs(draw, min_n=1, max_n=5):
    """Arbitrary loopless digraphs of small order."""
    n = draw(st.integers(min_n, max_n))
    pairs = all_pairs(n)
    if not pairs:
        return make_digraph(n, [])
    arcs = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs)))
    return make_digraph(n, arcs)


@st.composite
def strong_digraphs(draw, min_n=1, max_n=5, max_arcs=None):
    """Strong digraphs: a spanning cycle through a drawn permutation plus
    arbitrary extra arcs, at most ``max_arcs`` arcs in all when given."""
    n = draw(st.integers(min_n, max_n))
    if n == 1:
        return make_digraph(1, [])
    perm = draw(st.permutations(range(n)))
    base = {(perm[i], perm[(i + 1) % n]) for i in range(n)}
    spare = [p for p in all_pairs(n) if p not in base]
    max_extra = None if max_arcs is None else max(max_arcs - n, 0)
    extra = (
        draw(st.lists(st.sampled_from(spare), unique=True, max_size=max_extra))
        if spare
        else []
    )
    return make_digraph(n, sorted(base | set(extra)))


@st.composite
def two_block_digraphs(draw, min_n=4, max_n=7):
    """Strong digraphs with a strong in-domatic partition into two blocks,
    so of value at least two: a cycle through each block, an arc from
    every vertex into the other block, and arbitrary extra arcs."""
    n = draw(st.integers(min_n, max_n))
    order = draw(st.permutations(range(n)))
    split = draw(st.integers(2, n - 2))
    blocks = (order[:split], order[split:])
    arcs = set()
    for mine, other in (blocks, blocks[::-1]):
        arcs |= {(x, mine[(i + 1) % len(mine)]) for i, x in enumerate(mine)}
        arcs |= {(x, draw(st.sampled_from(other))) for x in mine}
    spare = [p for p in all_pairs(n) if p not in arcs]
    if spare:
        arcs |= set(draw(st.lists(st.sampled_from(spare), unique=True)))
    return make_digraph(n, sorted(arcs))


def isomorphic(D, H):
    """Isomorphism by networkx's VF2 matcher: the suite's reference for
    structural checks."""

    def to_networkx(G):
        N = nx.DiGraph()
        N.add_nodes_from(range(G.vertex_count))
        N.add_edges_from(G.arcs)
        return N

    return nx.is_isomorphic(to_networkx(D), to_networkx(H))


def induced_copy(D, S):
    """The subdigraph of D induced by the vertex set S, with its vertices
    renumbered 0, 1, ... in increasing order of their ids in D."""
    index = {old: new for new, old in enumerate(sorted(S))}
    return make_digraph(
        len(index), [(index[u], index[v]) for u, v in D.arcs if u in index and v in index]
    )


def solve_counts(run) -> Counter:
    """Run ``run()`` with every module binding of strong_in_domatic_number
    replaced by a counting wrapper; return the solves per (order, arcs)."""
    counts = Counter()
    original = solver.strong_in_domatic_number

    def counting(D):
        counts[D.vertex_count, D.arcs] += 1
        return original(D)

    with pytest.MonkeyPatch.context() as patch:
        for module in (solver, laws, critical):
            patch.setattr(module, "strong_in_domatic_number", counting)
        run()
    return counts


@pytest.fixture
def k2():
    return complete_digraph(2)


@pytest.fixture
def k3():
    return complete_digraph(3)


@pytest.fixture
def k4():
    return complete_digraph(4)


@pytest.fixture
def c3():
    return directed_cycle(3)


@pytest.fixture
def c4():
    return directed_cycle(4)


@pytest.fixture
def c5():
    return directed_cycle(5)


def complete_graph(n):
    return make_ugraph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def cycle_graph(n):
    return make_ugraph(n, [(i, (i + 1) % n) for i in range(n)])


def path_graph(n):
    return make_ugraph(n, [(i, i + 1) for i in range(n - 1)])
