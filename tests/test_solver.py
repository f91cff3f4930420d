from collections import defaultdict

import pytest
from hypothesis import given, settings

from indomatic import solver
from indomatic._search import arc_partition_search
from indomatic import (
    ArcPartition,
    NotStrongError,
    VertexPartition,
    WitnessCheckError,
    all_labeled_digraphs,
    brute_force_oracle,
    complete_digraph,
    enumerate_max_partitions,
    exists_partition_into_k,
    in_domatic_number,
    is_strong,
    is_strong_cover_partition,
    is_strong_in_domatic_partition,
    is_strong_out_domatic_partition,
    lambda_number,
    make_digraph,
    pair_critical_family,
    strong_in_domatic_number,
    strong_out_domatic_number,
    upper_bound,
)

from .conftest import strong_digraphs


def strong_in_domatic_partitions_by_size(D):
    """Every strong in-domatic partition of D, grouped by block count, in
    the order of the pruning-free set-partition enumeration."""
    by_size = defaultdict(list)
    for blocks in solver._all_set_partitions(list(range(D.vertex_count))):
        P = VertexPartition.from_blocks(blocks)
        if is_strong_in_domatic_partition(D, P):
            by_size[len(blocks)].append(P)
    return by_size


def strong_cover_partitions_by_size(D):
    """Every partition of A(D) into strong covers, grouped by block count,
    in the order of the pruning-free set-partition enumeration.  A strong
    cover has an out-arc and an in-arc at every vertex, so partitions with
    a block lacking one are skipped before the predicate."""
    by_size = defaultdict(list)
    arcs = D.sorted_arcs()
    vertices = set(range(D.vertex_count))
    for blocks in solver._all_set_partitions(arcs):
        if len(blocks) * len(vertices) > len(arcs) or any(
            {u for u, _ in b} != vertices or {v for _, v in b} != vertices for b in blocks
        ):
            continue
        Q = ArcPartition.from_blocks(blocks)
        if is_strong_cover_partition(D, Q):
            by_size[len(blocks)].append(Q)
    return by_size


class TestExistsPartitionIntoK:
    def test_complete3_two_blocks(self, k3):
        P = exists_partition_into_k(k3, 2)
        assert P is not None and P.block_count == 2
        assert is_strong_in_domatic_partition(k3, P)

    def test_cycle5_two_blocks_absent(self, c5):
        # Brute force over all 2-block partitions of 5 vertices finds none.
        assert exists_partition_into_k(c5, 2) is None

    def test_k_one_is_whole(self, c5):
        P = exists_partition_into_k(c5, 1)
        assert P is not None and P.block_count == 1

    def test_non_strong_rejected(self):
        with pytest.raises(NotStrongError):
            exists_partition_into_k(make_digraph(2, [(0, 1)]), 1)

    def test_k_out_of_range(self, k3):
        with pytest.raises(ValueError):
            exists_partition_into_k(k3, 4)

    @settings(max_examples=25, deadline=None)
    @given(strong_digraphs(max_n=5))
    def test_prefix_property(self, D):
        value = strong_in_domatic_number(D).value
        for k in range(1, D.vertex_count + 1):
            assert (exists_partition_into_k(D, k) is not None) == (k <= value)


class TestStrongInDomaticNumber:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_complete(self, n):
        assert strong_in_domatic_number(complete_digraph(n)).value == n

    def test_cycle5(self, c5):
        assert strong_in_domatic_number(c5).value == 1

    def test_pair_critical(self):
        inst = pair_critical_family(3)
        assert strong_in_domatic_number(inst.digraph).value == 3

    def test_non_strong_is_error_not_zero(self):
        with pytest.raises(NotStrongError, match="if and only if"):
            strong_in_domatic_number(make_digraph(3, [(0, 1), (1, 2)]))

    @settings(max_examples=25, deadline=None)
    @given(strong_digraphs(max_n=5))
    def test_witness_verifies_and_counts(self, D):
        result = strong_in_domatic_number(D)
        assert result.witness.block_count == result.value
        assert is_strong_in_domatic_partition(D, result.witness)

    @settings(max_examples=20, deadline=None)
    @given(strong_digraphs(max_n=5))
    def test_deterministic(self, D):
        a = strong_in_domatic_number(D)
        b = strong_in_domatic_number(D)
        assert a.value == b.value and a.witness == b.witness


class TestStrongOutDomaticNumber:
    def test_complete4(self, k4):
        assert strong_out_domatic_number(k4).value == 4

    def test_cycle5(self, c5):
        assert strong_out_domatic_number(c5).value == 1

    def test_complete3(self, k3):
        assert strong_out_domatic_number(k3).value == 3

    @settings(max_examples=20, deadline=None)
    @given(strong_digraphs(max_n=5))
    def test_witness_is_out_domatic(self, D):
        result = strong_out_domatic_number(D)
        assert is_strong_out_domatic_partition(D, result.witness)


class TestLambdaNumber:
    def test_complete3(self, k3):
        result = lambda_number(k3)
        assert result.value == 2
        assert is_strong_cover_partition(k3, result.witness)

    def test_cycle4(self, c4):
        assert lambda_number(c4).value == 1

    def test_complete2(self, k2):
        # Feeds the order-three hypothesis check of the line identity.
        assert lambda_number(k2).value == 1

    def test_trivial_rejected(self):
        with pytest.raises(ValueError):
            lambda_number(make_digraph(1, []))

    @pytest.mark.parametrize("n, value", [(3, 2), (4, 2), (5, 4), (6, 4)])
    def test_complete(self, n, value):
        # K4* and K6* are the complete digraphs without a Hamiltonian
        # decomposition, so they stop one short of n - 1.
        D = complete_digraph(n)
        result = lambda_number(D)
        assert result.value == value
        assert is_strong_cover_partition(D, result.witness)
        if n >= 5:
            assert result.stats.strong_prunes > 0
        if n == 6:
            # Proving that K6* has no Hamiltonian decomposition takes about
            # 211k nodes when strongness is only checked at the leaves.
            assert result.stats.nodes < 50_000

    def check_against_unpruned(self, D):
        by_size = strong_cover_partitions_by_size(D)
        arcs = D.sorted_arcs()
        for k in range(1, len(arcs) + 1):
            found = next(arc_partition_search(D.vertex_count, arcs, k), None)
            if k in by_size:
                assert ArcPartition.from_blocks(found) == by_size[k][0]
            else:
                assert found is None
        result = lambda_number(D)
        assert result.value == max(by_size)
        assert result.witness == by_size[result.value][0]

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_pruning_drops_nothing_exhaustively(self, n):
        for D in all_labeled_digraphs(n):
            if is_strong(D) and len(D.arcs) <= 8:
                self.check_against_unpruned(D)

    @settings(max_examples=25, deadline=None)
    @given(strong_digraphs(min_n=2, max_n=6, max_arcs=9))
    def test_pruning_drops_nothing(self, D):
        self.check_against_unpruned(D)


class TestInDomaticNumber:
    def test_complete4(self, k4):
        assert in_domatic_number(k4).value == 4

    def test_cycle4(self, c4):
        # The minimum-out-degree-plus-one cap is 2 and alternating blocks
        # reach it.
        assert in_domatic_number(c4).value == 2

    def test_single_vertex(self):
        assert in_domatic_number(make_digraph(1, [])).value == 1

    def test_non_strong_allowed(self):
        D = make_digraph(3, [(0, 1), (1, 2)])
        result = in_domatic_number(D)
        assert result.value == 1


class TestEnumerateMaxPartitions:
    def test_complete3_unique(self, k3):
        partitions = enumerate_max_partitions(k3)
        assert len(partitions) == 1
        assert partitions[0].blocks() == (
            frozenset([0]),
            frozenset([1]),
            frozenset([2]),
        )

    def test_pair_critical_unique(self):
        inst = pair_critical_family(3)
        partitions = enumerate_max_partitions(inst.digraph)
        assert len(partitions) == 1
        assert partitions[0].canonical() == inst.canonical_partition.canonical()

    def test_cycle4_unique_whole(self, c4):
        partitions = enumerate_max_partitions(c4)
        assert len(partitions) == 1 and partitions[0].block_count == 1

    @settings(max_examples=15, deadline=None)
    @given(strong_digraphs(max_n=4))
    def test_all_are_maximum_and_valid(self, D):
        value = strong_in_domatic_number(D).value
        seen = set()
        for P in enumerate_max_partitions(D):
            assert P.block_count == value
            assert is_strong_in_domatic_partition(D, P)
            key = frozenset(P.blocks())
            assert key not in seen
            seen.add(key)


    def check_against_unpruned(self, D):
        by_size = strong_in_domatic_partitions_by_size(D)
        assert enumerate_max_partitions(D) == by_size[max(by_size)]
        for k in range(1, D.vertex_count + 1):
            found = exists_partition_into_k(D, k)
            if by_size[k]:
                assert found == by_size[k][0]
            else:
                assert found is None

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_pruning_drops_nothing_exhaustively(self, n):
        for D in all_labeled_digraphs(n):
            if is_strong(D):
                self.check_against_unpruned(D)

    @settings(max_examples=30, deadline=None)
    @given(strong_digraphs(min_n=5, max_n=6))
    def test_pruning_drops_nothing(self, D):
        self.check_against_unpruned(D)


class TestWitnessChecks:
    @pytest.mark.parametrize(
        "predicate, solve",
        [
            ("is_strong_in_domatic_partition", strong_in_domatic_number),
            ("is_strong_out_domatic_partition", strong_out_domatic_number),
            ("is_in_domatic_partition", in_domatic_number),
            ("is_strong_cover_partition", lambda_number),
        ],
    )
    def test_failed_predicate_raises(self, monkeypatch, k3, predicate, solve):
        monkeypatch.setattr(solver, predicate, lambda D, P: False)
        with pytest.raises(WitnessCheckError):
            solve(k3)


class TestSolveStats:
    def test_strong_prunes_counted(self):
        D = pair_critical_family(4).digraph
        assert strong_in_domatic_number(D).stats.strong_prunes > 0
        assert in_domatic_number(D).stats.strong_prunes == 0


class TestBruteForceOracle:
    def test_complete4(self, k4):
        assert brute_force_oracle(k4, "dsminus") == 4

    def test_cycle5(self, c5):
        assert brute_force_oracle(c5, "dsminus") == 1

    def test_lambda_complete3(self, k3):
        assert brute_force_oracle(k3, "lambda") == 2

    def test_vertex_cap(self):
        with pytest.raises(ValueError, match="to 6 vertices"):
            brute_force_oracle(complete_digraph(7), "dsminus")

    def test_arc_cap(self):
        with pytest.raises(ValueError, match="at most 12"):
            brute_force_oracle(complete_digraph(5), "lambda")

    def test_unknown_selector(self, k3):
        with pytest.raises(ValueError):
            brute_force_oracle(k3, "nonsense")


class TestOracleEquivalence:
    def test_exhaustive_order_3(self):
        for D in all_labeled_digraphs(3):
            if not is_strong(D):
                continue
            assert strong_in_domatic_number(D).value == brute_force_oracle(D, "dsminus")
            assert lambda_number(D).value == brute_force_oracle(D, "lambda")

    @settings(max_examples=40, deadline=None)
    @given(strong_digraphs(min_n=4, max_n=6))
    def test_random_instances(self, D):
        assert strong_in_domatic_number(D).value == brute_force_oracle(D, "dsminus")

    @settings(max_examples=30, deadline=None)
    @given(strong_digraphs(min_n=2, max_n=5))
    def test_in_domatic_against_oracle(self, D):
        assert in_domatic_number(D).value == brute_force_oracle(D, "indomatic")

    @settings(max_examples=30, deadline=None)
    @given(strong_digraphs(min_n=2, max_n=5))
    def test_out_domatic_against_oracle(self, D):
        assert strong_out_domatic_number(D).value == brute_force_oracle(D, "dsplus")


class TestBounds:
    @settings(max_examples=30, deadline=None)
    @given(strong_digraphs(max_n=5))
    def test_upper_bound_admissible(self, D):
        assert strong_in_domatic_number(D).value <= upper_bound(D)
