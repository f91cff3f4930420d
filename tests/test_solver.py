import gc
import os
import random
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

import pytest
from hypothesis import given, settings

import indomatic
from indomatic import _search, solver
from indomatic._search import arc_partition_search, partition_search
from indomatic.domination import is_in_domatic_partition
from indomatic.solver import search_cap
from indomatic import (
    ArcPartition,
    NotStrongError,
    VertexPartition,
    WitnessCheckError,
    all_labeled_digraphs,
    brute_force_oracle,
    complete_digraph,
    exists_partition_into_k,
    in_domatic_number,
    is_strong,
    is_strong_cover_partition,
    is_strong_in_domatic_partition,
    is_strong_out_domatic_partition,
    lambda_number,
    make_digraph,
    pair_critical_family,
    random_strong_digraph,
    strong_in_domatic_number,
    strong_in_domatic_partitions,
    strong_out_domatic_number,
    underlying_graph,
    upper_bound,
)
from indomatic.undirected import connected_domatic_number

from .conftest import digraphs, strong_digraphs


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


# Strong in-domatic number 1 under a cap of 3: the cap and k = 2 both fail.
GAP_TWO = make_digraph(
    5,
    [(0, 1), (0, 3), (1, 0), (1, 3), (2, 0), (2, 3), (3, 2), (3, 4), (4, 0), (4, 1), (4, 2),
     (4, 3)],
)


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

    @pytest.mark.parametrize(
        "labels",
        [
            (0, 1, 1, 1, 1),  # well-formed, but {0} does not in-dominate 1
            (0, 0, 2, 2, 2),  # block 1 is empty
            (0, 1, 1, 1),  # vertex 4 is left out
        ],
    )
    def test_planted_partition_raises(self, monkeypatch, c5, labels):
        # The decision's partition passes the solver's real check, also
        # under python -O: a malformed tuple is a failed check too, not a
        # ValueError from VertexPartition.
        monkeypatch.setattr(solver, "partition_search", lambda *args: iter([labels]))
        with pytest.raises(WitnessCheckError):
            exists_partition_into_k(c5, 2)

    @settings(max_examples=25, deadline=None)
    @given(strong_digraphs(max_n=5))
    def test_prefix_property(self, D):
        value = strong_in_domatic_number(D).value
        for k in range(1, D.vertex_count + 1):
            assert (exists_partition_into_k(D, k) is not None) == (k <= value)


class TestStrongInDomaticPartitions:
    def check_every_k(self, D):
        by_size = strong_in_domatic_partitions_by_size(D)
        for k in range(1, D.vertex_count + 1):
            assert list(strong_in_domatic_partitions(D, k)) == by_size[k]

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_every_k_matches_unpruned_enumeration(self, n):
        for D in all_labeled_digraphs(n):
            if is_strong(D):
                self.check_every_k(D)

    @settings(max_examples=60, deadline=None)
    @given(strong_digraphs(min_n=5, max_n=7))
    def test_every_k_matches_unpruned_enumeration_past_order_4(self, D):
        # From order 5 on, all k blocks open with items left to place, and
        # the search places some of them by force.
        self.check_every_k(D)

    # The preconditions are checked at the call, before any iteration.
    def test_non_strong_rejected(self):
        with pytest.raises(NotStrongError):
            strong_in_domatic_partitions(make_digraph(2, [(0, 1)]), 1)

    def test_k_out_of_range(self, k3):
        with pytest.raises(ValueError, match=r"k=0 outside \[1,3\]"):
            strong_in_domatic_partitions(k3, 0)


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

    @pytest.mark.parametrize(
        "n, value", [(3, 2), (4, 2), (5, 4), (6, 4), (7, 6), (8, 7), (9, 8), (10, 9)]
    )
    def test_complete(self, n, value):
        # Tillson (JCTB 29, 1980): K_n* decomposes into n - 1 Hamiltonian
        # cycles except for n = 4 and 6, which stop one short.
        D = complete_digraph(n)
        result = lambda_number(D)
        assert result.value == value
        assert is_strong_cover_partition(D, result.witness)
        if n >= 5:
            assert result.stats.strong_prunes > 0
        if n == 6:
            # Proving that K6* has no Hamiltonian decomposition takes about
            # 211k nodes when strongness is only checked at the leaves, and
            # 2,148 with strong-cover pruning and forced arcs.
            assert result.stats.nodes < 50_000
        if n == 10:
            # The decomposition at the cap is searched first: 656 nodes,
            # against 17,759 finding strong covers for k = 2, ..., 8 first.
            assert result.stats.nodes < 2_000

    @pytest.mark.parametrize(
        "n, value, labels",
        [
            (4, 2, "001001010101"),
            (5, 4, "01231230031232012130"),
            (6, 4, "001230012301032123103022123130"),
            (7, 6, "012345103254234501025413543120314502452013"),
        ],
    )
    def test_complete_witnesses(self, n, value, labels):
        # The canonical witnesses: the block of each arc, arcs in sorted order.
        result = lambda_number(complete_digraph(n))
        assert result.value == value
        assert "".join(str(b) for _, b in result.witness.block_of) == labels

    def check_against_unpruned(self, D):
        # Pruning and forced arcs keep every partition and their order.
        by_size = strong_cover_partitions_by_size(D)
        arcs = D.sorted_arcs()
        for k in range(1, len(arcs) + 1):
            found = [
                ArcPartition(tuple(zip(arcs, labels)), k)
                for labels in arc_partition_search(D.vertex_count, arcs, k)
            ]
            assert found == by_size.get(k, [])
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

    def check_search(self, D, partitions):
        # Without strong masks the cover check is the search's only pruning.
        n = D.vertex_count
        for k in range(1, n + 1):
            found = [VertexPartition(labels, k) for labels in partition_search(n, D.out_masks, k)]
            assert found == [
                P
                for P in partitions
                if P.block_count == k and is_in_domatic_partition(D, P)
            ]

    @staticmethod
    def all_partitions(n):
        return [
            VertexPartition.from_blocks(blocks)
            for blocks in solver._all_set_partitions(list(range(n)))
        ]

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_search_matches_unpruned_enumeration(self, n):
        partitions = self.all_partitions(n)
        for D in all_labeled_digraphs(n):
            self.check_search(D, partitions)

    @settings(max_examples=60, deadline=None)
    @given(digraphs(min_n=5, max_n=7))
    def test_search_matches_unpruned_enumeration_past_order_4(self, D):
        self.check_search(D, self.all_partitions(D.vertex_count))


def max_partitions(D):
    """Every strong in-domatic partition of D with the maximum block count."""
    return list(strong_in_domatic_partitions(D, strong_in_domatic_number(D).value))


class TestEnumerateMaxPartitions:
    def test_complete3_unique(self, k3):
        partitions = max_partitions(k3)
        assert len(partitions) == 1
        assert partitions[0].blocks() == (
            frozenset([0]),
            frozenset([1]),
            frozenset([2]),
        )

    def test_pair_critical_unique(self):
        inst = pair_critical_family(3)
        partitions = max_partitions(inst.digraph)
        assert len(partitions) == 1
        assert set(partitions[0].blocks()) == set(inst.canonical_partition.blocks())

    def test_cycle4_unique_whole(self, c4):
        partitions = max_partitions(c4)
        assert len(partitions) == 1 and partitions[0].block_count == 1

    @settings(max_examples=15, deadline=None)
    @given(strong_digraphs(max_n=4))
    def test_all_are_maximum_and_valid(self, D):
        value = strong_in_domatic_number(D).value
        seen = set()
        for P in max_partitions(D):
            assert P.block_count == value
            assert is_strong_in_domatic_partition(D, P)
            key = frozenset(P.blocks())
            assert key not in seen
            seen.add(key)


    def check_against_unpruned(self, D):
        by_size = strong_in_domatic_partitions_by_size(D)
        assert max_partitions(D) == by_size[max(by_size)]
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

    def test_forced_placements_counted(self):
        # Found at the cap, pair_critical_family(9) takes 322 nodes branching
        # on every vertex, 182 barring vertices from blocks without placing
        # them, and 138 placing forced vertices once all blocks are open.
        result = strong_in_domatic_number(pair_critical_family(9).digraph)
        assert result.value == 9
        assert result.stats.nodes < 160
        assert result.stats.forced > 0
        assert in_domatic_number(pair_critical_family(4).digraph).stats.forced > 0
        # The arc search forces arcs too: proving that K6* has no Hamiltonian
        # decomposition takes 42,829 nodes branching on every arc, 8,512
        # barring arcs without placing them, and 2,148 with forced arcs.
        result = lambda_number(complete_digraph(6))
        assert result.value == 4
        assert result.stats.nodes < 4_000
        assert result.stats.forced > 0

    def test_barred_arcs_leave_the_strong_closure(self):
        # An arc barred from a block cannot complete its strong cover, so the
        # closure leaves it out: lambda(K7*) takes 36 nodes, and 95 with
        # barred arcs left in.
        result = lambda_number(complete_digraph(7))
        assert result.value == 6
        assert result.stats.nodes < 60

    def test_probes(self):
        # The value of K7* is its cap: one search, at k = 6, settles it.
        result = lambda_number(complete_digraph(7))
        assert [(k, found) for k, _, found in result.stats.probes] == [(6, True)]
        assert sum(nodes for _, nodes, _ in result.stats.probes) == result.stats.nodes
        # Value 1 under a cap of 3: the cap fails, then k = 2 does too.
        result = strong_in_domatic_number(GAP_TWO)
        assert (result.value, search_cap(GAP_TWO)) == (1, 3)
        assert [(k, found) for k, _, found in result.stats.probes] == [(3, False), (2, False)]
        assert sum(nodes for _, nodes, _ in result.stats.probes) == result.stats.nodes

    def test_witness_checks_survive_optimize_flag(self):
        # The post-conditions must not be asserts, which python -O strips.
        code = (
            "from indomatic import complete_digraph, solver\n"
            "solver.is_strong_in_domatic_partition = lambda D, P: False\n"
            "try:\n"
            "    solver.strong_in_domatic_number(complete_digraph(3))\n"
            "except solver.WitnessCheckError:\n"
            "    print('raised')\n"
        )
        src = str(Path(indomatic.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run(
            [sys.executable, "-O", "-c", code],
            env=env,
            capture_output=True,
            text=True,
            check=True,
        )
        assert out.stdout == "raised\n"


# Two searches pinned walk and all: an engine that saves work must still
# visit the same nodes, prune and force the same items, probe the same k
# and find the same witness.  lambda(K6*) proves that K6* has no
# Hamiltonian decomposition; the other is the first random strong digraph
# of order 12 drawn from seed 2, with 75 arcs.
PINNED_WALKS = [
    pytest.param(
        lambda_number, lambda: complete_digraph(6),
        (4, (0, 0, 1, 2, 3, 0, 0, 1, 2, 3, 0, 1, 0, 3, 2, 1, 2, 3, 1, 0, 3, 0, 2, 2, 1, 2, 3, 1, 3, 0),
         2148, 2876, 26031, ((5, 2077, False), (2, 21, True), (3, 23, True), (4, 27, True))),
        id="lambda-K6*",
    ),
    pytest.param(
        strong_in_domatic_number, lambda: random_strong_digraph(12, random.Random(2), 0.5),
        (4, (0, 1, 0, 0, 0, 2, 2, 1, 2, 3, 3, 1), 1046, 324, 1812, ((4, 1046, True),)),
        id="dsminus-random-12",
    ),
]


def walk(result):
    """A solve's value, witness labels (in arc order for an arc partition)
    and search counts, without time."""
    labels = result.witness.block_of
    if isinstance(result.witness, ArcPartition):
        labels = tuple(label for _, label in labels)
    stats = result.stats
    return (result.value, labels, stats.nodes, stats.strong_prunes, stats.forced, stats.probes)


class TestSearchWalk:
    @pytest.mark.parametrize("solve, build, pinned", PINNED_WALKS)
    def test_walk_pinned(self, solve, build, pinned):
        assert walk(solve(build())) == pinned

    @pytest.mark.parametrize("solve, build, pinned", PINNED_WALKS)
    def test_walk_without_memo(self, monkeypatch, solve, build, pinned):
        # A table that forgets every answer before it keeps the next one
        # changes the cost of the walk, not the walk.
        monkeypatch.setattr(_search, "_MEMO_LIMIT", 1)
        assert walk(solve(build())) == pinned

    @pytest.mark.parametrize("solve, build, pinned", PINNED_WALKS)
    def test_each_closure_once_per_search(self, monkeypatch, solve, build, pinned):
        # Every test viable runs is new to its search, and each runs one
        # closure pair, counted in closures.  Without the table lambda(K6*)
        # ran 17,967 of them, on fewer than 900 distinct pairs.
        asked, runs = [], []
        engine, closure = _search._search, _search._strong_on

        def search(m, needs, k, viable, counter):
            pairs = []
            asked.append(pairs)
            return engine(m, needs, k, lambda *pair: pairs.append(pair) or viable(*pair), counter)

        def strong_on(*args):
            runs.append(args)
            return closure(*args)

        monkeypatch.setattr(_search, "_search", search)
        monkeypatch.setattr(_search, "_strong_on", strong_on)
        result = solve(build())
        assert all(len(set(pairs)) == len(pairs) for pairs in asked)
        assert len(runs) == sum(map(len, asked)) == result.stats.closures
        if solve is lambda_number:
            assert result.stats.closures < 900

    def test_table_emptied_when_search_ends(self):
        # The table is the search's own: closing the search frees it at
        # once, without waiting for the cycle collector.
        D = complete_digraph(6)
        search = arc_partition_search(6, D.sorted_arcs(), 4)
        assert next(search) is not None
        memo = search.gi_frame.f_locals["memo"]
        assert memo
        search.close()
        assert memo == {}

    def test_ended_search_leaves_nothing_to_the_cycle_collector(self):
        # assign refers to itself through its closure; a search that ends,
        # closed or exhausted, breaks that cycle, so its state goes at once.
        D = complete_digraph(6)
        strong = (D.out_masks, D.in_masks)
        gc.collect()
        gc.disable()
        try:
            search = partition_search(6, D.out_masks, 3, strong)
            first = next(search)
            search.close()
            del search
            closed = gc.collect()
            exhausted = list(partition_search(6, D.out_masks, 2, strong))
            assert (first is not None, closed, gc.collect()) == (True, 0, 0)
            assert exhausted
        finally:
            gc.enable()


def ascending_ladder(search, whole):
    """The first labels ``search(k)`` yields for the last k of
    k = 2, 3, ... before the first that yields none, or ``whole``, the
    all-zero labels: the largest feasible size, found with no cap, when
    feasible sizes form a prefix."""
    best, k = whole, 2
    while (found := next(search(k), None)) is not None:
        best, k = found, k + 1
    return best


class TestCapFirst:
    """The solvers search the cap first; their values and witnesses are
    those of an uncapped ascending ladder over the same engine."""

    def check(self, D):
        # D is strong.
        n, out_masks = D.vertex_count, D.out_masks
        strong = (out_masks, D.in_masks)
        found = ascending_ladder(lambda k: partition_search(n, out_masks, k, strong), (0,) * n)
        assert strong_in_domatic_number(D).witness == VertexPartition(found, max(found) + 1)
        found = ascending_ladder(lambda k: partition_search(n, out_masks, k), (0,) * n)
        assert in_domatic_number(D).witness == VertexPartition(found, max(found) + 1)
        if n >= 2:
            arcs = D.sorted_arcs()
            found = ascending_ladder(lambda k: arc_partition_search(n, arcs, k), (0,) * len(arcs))
            Q = ArcPartition(tuple(zip(arcs, found)), max(found) + 1)
            assert lambda_number(D).witness == Q

    def check_graph(self, G):
        masks, n = G.out_masks, G.vertex_count
        found = ascending_ladder(lambda k: partition_search(n, masks, k, (masks, masks)), (0,) * n)
        P = VertexPartition(found, max(found) + 1)
        assert connected_domatic_number(G).witness == P

    def test_every_strong_digraph_to_order_4(self):
        graphs = set()
        for n in range(1, 5):
            for D in all_labeled_digraphs(n):
                if is_strong(D):
                    self.check(D)
                    graphs.add(underlying_graph(D))
        for G in graphs:
            self.check_graph(G)

    @pytest.mark.parametrize("n", [5, 6, 7, 8, 9])
    def test_random_digraphs(self, n):
        rng = random.Random(n)
        for _ in range(6):
            D = random_strong_digraph(n, rng, rng.choice([0.3, 0.5, 0.7]))
            self.check(D)
            self.check_graph(underlying_graph(D))

    def test_gap_two(self):
        self.check(GAP_TWO)
        self.check_graph(underlying_graph(GAP_TWO))


def is_restricted_growth(labels, k):
    """The labels start at 0, none is more than one above every earlier
    label, and exactly k are used."""
    top = -1
    for b in labels:
        if b > top + 1:
            return False
        top = max(top, b)
    return top == k - 1


class TestSearchLabels:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_labels_are_restricted_growth(self, n):
        # Every partition either search yields, on every strong labeled
        # digraph of order n and for every k.
        for D in all_labeled_digraphs(n):
            if not is_strong(D):
                continue
            arcs, strong = D.sorted_arcs(), (D.out_masks, D.in_masks)
            for k in range(1, n + 1):
                for strong_masks in (None, strong):
                    for labels in partition_search(n, D.out_masks, k, strong_masks):
                        assert len(labels) == n and is_restricted_growth(labels, k)
            for k in range(1, len(arcs) + 1):
                for labels in arc_partition_search(n, arcs, k):
                    assert len(labels) == len(arcs) and is_restricted_growth(labels, k)


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

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_search_cap_on_every_strong_digraph(self, n):
        for D in all_labeled_digraphs(n):
            if is_strong(D):
                assert search_cap(D) == written_out_search_cap(D)

    @settings(max_examples=40, deadline=None)
    @given(strong_digraphs(min_n=5, max_n=9))
    def test_search_cap_formula(self, D):
        assert search_cap(D) == written_out_search_cap(D)

    def test_search_cap_ignores_connectivity(self):
        # Two complete digraphs of order four sharing vertex 0: vertex 0
        # cuts the underlying graph, but the cap is the degree bound.
        halves = ([0, 1, 2, 3], [0, 4, 5, 6])
        D = make_digraph(7, {(u, v) for h in halves for u in h for v in h if u != v})
        assert search_cap(D) == 4
        assert strong_in_domatic_number(D).value == 1


def written_out_search_cap(D):
    """Minimum out-degree plus one, or the minimum out-degree when no
    vertex has an arc from every other."""
    n = D.vertex_count
    delta = min(sum((u, v) in D.arcs for v in range(n)) for u in range(n))
    if any(all((x, v) in D.arcs for x in range(n) if x != v) for v in range(n)):
        return delta + 1
    return delta
