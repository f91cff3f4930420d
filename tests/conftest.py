"""Shared strategies and small named graphs for the test suite."""
from __future__ import annotations

import pytest
from hypothesis import strategies as st

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
