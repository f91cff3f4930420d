from itertools import combinations

import networkx as nx
import pytest
from hypothesis import given, settings

from indomatic import (
    ArcPartition,
    VertexPartition,
    all_labeled_digraphs,
    check_strong_in_domatic_partition,
    check_strong_out_domatic_partition,
    complete_digraph,
    converse,
    in_dominating_vertices,
    is_in_dominating,
    is_strong_cover,
    is_strong_cover_partition,
    is_strong_in_dominating,
    is_strong_in_domatic_partition,
    is_strong_out_domatic_partition,
    is_strong_subset,
    line_digraph,
    make_digraph,
    partition_is_rigid,
    strong_in_domatic_number,
)
from indomatic.domination import is_in_domatic_partition
from indomatic.solver import _all_set_partitions

from .conftest import digraphs, strong_digraphs


def singletons(n):
    return VertexPartition.from_blocks([[v] for v in range(n)])


def whole(n):
    return VertexPartition.from_blocks([range(n)])


class TestDirectionRegression:
    """The single most error-prone definitional choice: a vertex outside S
    must have an OUT-neighbor inside S."""

    def test_three_cycle(self, c3):
        # Vertex 1's only out-neighbor is 2, so {0} does not in-dominate.
        assert not is_in_dominating(c3, {0})
        # But 1's out-neighbor 2 makes {2} fail too, except for vertex 0.
        assert not is_in_dominating(c3, {1})
        # Two vertices always in-dominate the remaining one in a 3-cycle.
        assert is_in_dominating(c3, {0, 1})

    def test_in_star(self):
        # All arcs point into the center: the center in-dominates.
        star = make_digraph(4, [(1, 0), (2, 0), (3, 0)])
        assert is_in_dominating(star, {0})
        assert in_dominating_vertices(star) == {0}


class TestInDominating:
    def test_complete_singleton(self, k3):
        assert is_in_dominating(k3, {0})

    def test_whole_set_vacuous(self, c4):
        assert is_in_dominating(c4, set(range(4)))

    def test_empty_rejected(self, k3):
        with pytest.raises(ValueError):
            is_in_dominating(k3, set())

    @pytest.mark.parametrize("S", [{0, 3}, {-1}])
    def test_outside_vertex_rejected(self, k3, S):
        with pytest.raises(ValueError, match="outside"):
            is_in_dominating(k3, S)


class TestStrongInDominating:
    def test_complete_singleton(self, k3):
        assert is_strong_in_dominating(k3, {0})

    def test_cycle_pair_not_strong(self, c4):
        assert not is_strong_in_dominating(c4, {0, 1})

    def test_cycle_whole(self, c4):
        assert is_strong_in_dominating(c4, set(range(4)))


class TestStrongInDomaticPartition:
    def test_complete_singletons(self, k4):
        assert is_strong_in_domatic_partition(k4, singletons(4))

    def test_cycle_alternating_fails_on_strongness(self, c4):
        P = VertexPartition.from_blocks([[0, 2], [1, 3]])
        diagnosis = check_strong_in_domatic_partition(c4, P)
        assert not diagnosis.ok
        assert diagnosis.failing_block == 0
        assert "not strong" in diagnosis.reason

    @settings(max_examples=30, deadline=None)
    @given(strong_digraphs(max_n=5))
    def test_whole_partition_of_strong(self, D):
        assert is_strong_in_domatic_partition(D, whole(D.vertex_count))

    def test_wrong_size_rejected(self, c4):
        with pytest.raises(ValueError):
            is_strong_in_domatic_partition(c4, singletons(3))

    @pytest.mark.parametrize("size", [3, 5])
    @pytest.mark.parametrize(
        "predicate",
        [
            check_strong_in_domatic_partition,
            check_strong_out_domatic_partition,
            is_in_domatic_partition,
            partition_is_rigid,
        ],
    )
    def test_partition_must_cover_the_digraph(self, predicate, size):
        with pytest.raises(ValueError, match=f"partition covers {size} vertices, digraph has 4"):
            predicate(complete_digraph(4), singletons(size))


class TestInDominatingVertices:
    def test_complete(self, k3):
        assert in_dominating_vertices(k3) == {0, 1, 2}

    def test_cycle(self, c4):
        assert in_dominating_vertices(c4) == frozenset()

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_matches_definition(self, n):
        # v in-dominates on its own iff every other vertex has an arc to v.
        for D in all_labeled_digraphs(n):
            expected = {
                v for v in range(n) if all((x, v) in D.arcs for x in range(n) if x != v)
            }
            assert in_dominating_vertices(D) == expected


class TestStrongCover:
    def test_identity(self, c3):
        assert is_strong_cover(c3, c3.arcs)

    def test_sub_cycle_of_complete(self, k3):
        assert is_strong_cover(k3, {(0, 1), (1, 2), (2, 0)})

    def test_not_spanning(self, k3):
        assert not is_strong_cover(k3, {(0, 1), (1, 0)})

    def test_non_strong_rejected(self):
        D = make_digraph(2, [(0, 1)])
        with pytest.raises(ValueError):
            is_strong_cover(D, {(0, 1)})


class TestStrongCoverPartition:
    def test_complete_two_cycles(self, k3):
        # Each directed 3-cycle spans the vertices and is strong.
        Q = ArcPartition.from_blocks(
            [[(0, 1), (1, 2), (2, 0)], [(0, 2), (2, 1), (1, 0)]]
        )
        assert is_strong_cover_partition(k3, Q)

    def test_cycle_whole(self, c4):
        assert is_strong_cover_partition(c4, ArcPartition.from_blocks([c4.sorted_arcs()]))

    def test_cycle_split_fails(self, c4):
        Q = ArcPartition.from_blocks([[(0, 1), (1, 2)], [(2, 3), (3, 0)]])
        assert not is_strong_cover_partition(c4, Q)


class TestArcPartitionValidation:
    def test_arc_in_two_blocks_rejected(self):
        # Were it accepted, K2* would seem to split into two strong covers.
        with pytest.raises(ValueError, match="listed twice"):
            ArcPartition((((0, 1), 0), ((0, 1), 1), ((1, 0), 0), ((1, 0), 1)), 2)

    @pytest.mark.parametrize("index", [-1, 5, 0.0])
    def test_block_index_outside_range_rejected(self, index):
        with pytest.raises(ValueError, match=r"outside \[0,1\)"):
            ArcPartition((((0, 1), index), ((1, 0), index)), 1)

    def test_empty_block_rejected(self):
        with pytest.raises(ValueError, match="nonempty"):
            ArcPartition((((0, 1), 0), ((1, 0), 0)), 2)

    def test_from_blocks_rejects_shared_arc_and_empty_block(self):
        with pytest.raises(ValueError, match="listed twice"):
            ArcPartition.from_blocks([[(0, 1), (1, 0)], [(0, 1)]])
        with pytest.raises(ValueError, match="nonempty"):
            ArcPartition.from_blocks([[(0, 1), (1, 0)], []])


class TestNonIntegerInput:
    # A caller that rejects a malformed witness by catching ValueError must
    # neither see a TypeError nor have the witness accepted.
    @pytest.mark.parametrize(
        "block_of,block_count",
        [((0.0, 1, 2), 3), ((0, 1, 2), 3.0), (("a", 1, 2), 3), ((), -1)],
        ids=["float-index", "float-count", "str-index", "negative-count"],
    )
    def test_vertex_partition(self, block_of, block_count):
        with pytest.raises(ValueError, match="block"):
            VertexPartition(block_of, block_count)

    @pytest.mark.parametrize(
        "block_of,block_count,message",
        [((((0.0, 1), 0), ((1, 0), 0)), 1, "pair of integers"), ((), -2, "block count")],
        ids=["float-endpoint", "negative-count"],
    )
    def test_arc_partition(self, block_of, block_count, message):
        # (0.0, 1) hashes like (0, 1), so a cover check would pass it on.
        with pytest.raises(ValueError, match=message):
            ArcPartition(block_of, block_count)

    @pytest.mark.parametrize(
        "blocks",
        [[[0.0], [1]], [[0], [1.0]], [["a"], [1]], [[[0]]]],
        ids=["float", "float-last", "str", "list"],
    )
    def test_from_blocks_member(self, blocks):
        with pytest.raises(ValueError, match="dense vertex range"):
            VertexPartition.from_blocks(blocks)


class TestOutDomaticDuality:
    def test_complete_singletons(self, k4):
        assert is_strong_out_domatic_partition(k4, singletons(4))

    def test_cycle_whole(self, c3):
        assert is_strong_out_domatic_partition(c3, whole(3))

    @settings(max_examples=30, deadline=None)
    @given(strong_digraphs(max_n=5))
    def test_definitional_identity(self, D):
        P = whole(D.vertex_count)
        assert is_strong_in_domatic_partition(D, P) == is_strong_out_domatic_partition(
            converse(D), P
        )

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_every_partition_matches_the_converse(self, n):
        # The out-dual reads D's in-masks; the reference builds the converse.
        partitions = [
            VertexPartition.from_blocks(blocks)
            for blocks in _all_set_partitions(list(range(n)))
        ]
        for D in all_labeled_digraphs(n):
            C = converse(D)
            for P in partitions:
                dual = check_strong_out_domatic_partition(D, P)
                assert dual == check_strong_in_domatic_partition(C, P)
                assert is_in_domatic_partition(D, P) == all(
                    is_in_dominating(D, b) for b in P.blocks()
                )


class TestClosureProperties:
    @settings(max_examples=25, deadline=None)
    @given(strong_digraphs(min_n=2, max_n=5))
    def test_union_and_merge_closure(self, D):
        P = strong_in_domatic_number(D).witness
        blocks = P.blocks()
        k = len(blocks)
        for size in range(1, k + 1):
            for chosen in combinations(range(k), size):
                union = frozenset().union(*(blocks[i] for i in chosen))
                assert is_strong_in_dominating(D, union)
                if 1 < size < k:
                    merged = [b for i, b in enumerate(blocks) if i not in chosen]
                    merged.append(union)
                    assert is_strong_in_domatic_partition(
                        D, VertexPartition.from_blocks(merged)
                    )


class TestCoverLineCorrespondence:
    @settings(max_examples=40, deadline=None)
    @given(strong_digraphs(min_n=3, max_n=5))
    def test_cover_iff_strong_in_dominating_in_line(self, D):
        # The equivalence needs order at least three: for the complete
        # digraph of order two a lone arc is strong in-dominating in the
        # line digraph yet not a cover.
        L, origins = line_digraph(D)
        arcs = D.sorted_arcs()
        for size in range(1, min(3, len(arcs)) + 1):
            for E in combinations(arcs, size):
                lhs = is_strong_cover(D, E)
                rhs = is_strong_in_dominating(L, {origins.index(a) for a in E})
                assert lhs == rhs

    def test_k2_counterexample(self, k2):
        L, origins = line_digraph(k2)
        single = {origins.index((1, 0))}
        assert is_strong_in_dominating(L, single)
        assert not is_strong_cover(k2, {(1, 0)})


def _nx_digraph(D):
    G = nx.DiGraph()
    G.add_nodes_from(range(D.vertex_count))
    G.add_edges_from(D.arcs)
    return G


def _nx_block_reason(G, S):
    """Why S fails as a block of a strong in-domatic partition, from the
    definitions and networkx alone; None when it does not fail."""
    if not all(any(z in S for z in G.successors(x)) for x in G if x not in S):
        return "not in-dominating"
    if not nx.is_strongly_connected(G.subgraph(S)):
        return "induced subdigraph not strong"
    return None


def _check_subsets_against_networkx(D):
    G = _nx_digraph(D)
    n = D.vertex_count
    for size in range(1, n + 1):
        for S in map(frozenset, combinations(range(n), size)):
            reason = _nx_block_reason(G, S)
            assert is_strong_subset(D, S) == nx.is_strongly_connected(G.subgraph(S))
            assert is_strong_in_dominating(D, S) == (reason is None)
            blocks = [S] if size == n else [S, frozenset(range(n)) - S]
            reasons = [_nx_block_reason(G, B) for B in blocks]
            failing = [i for i, why in enumerate(reasons) if why is not None]
            expected = (failing[0], reasons[failing[0]]) if failing else (None, None)
            diagnosis = check_strong_in_domatic_partition(
                D, VertexPartition.from_blocks(blocks)
            )
            assert (diagnosis.failing_block, diagnosis.reason) == expected
            assert diagnosis.ok == (expected == (None, None))


def _check_covers_against_networkx(D):
    arcs = D.sorted_arcs()
    for size in range(1, len(arcs) + 1):
        for E in combinations(arcs, size):
            H = nx.DiGraph(E)  # its vertices are exactly the end-vertices of E
            spans = H.number_of_nodes() == D.vertex_count
            assert is_strong_cover(D, E) == (spans and nx.is_strongly_connected(H))


class TestAgainstNetworkx:
    """The predicates behind ``brute_force_oracle`` and the search's
    pruning share one bitmask closure; networkx is the outside reference."""

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_every_subset_of_every_small_digraph(self, n):
        for D in all_labeled_digraphs(n):
            _check_subsets_against_networkx(D)

    @settings(max_examples=60, deadline=None)
    @given(digraphs(min_n=4, max_n=7))
    def test_every_subset_of_drawn_digraphs(self, D):
        _check_subsets_against_networkx(D)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_strong_cover_on_every_arc_subset(self, n):
        strong = [
            D
            for D in all_labeled_digraphs(n)
            if len(D.arcs) <= 6 and nx.is_strongly_connected(_nx_digraph(D))
        ]
        assert strong
        for D in strong:
            _check_covers_against_networkx(D)

    @settings(max_examples=30, deadline=None)
    @given(strong_digraphs(min_n=5, max_n=6, max_arcs=6))
    def test_strong_cover_on_every_arc_subset_drawn(self, D):
        _check_covers_against_networkx(D)
