from itertools import product

import pytest

from indomatic import (
    FamilyInstance,
    Inapplicable,
    all_labeled_digraphs,
    complete_digraph,
    composition,
    composition_partition,
    critical_composition_family,
    directed_cycle,
    empty_digraph,
    in_dominating_vertices,
    is_strong,
    is_strong_in_domatic_critical,
    is_strong_in_domatic_partition,
    order_value_family,
    pair_critical_family,
    strong_in_domatic_number,
)
from indomatic.families import GENERATE


class TestBasicGenerators:
    def test_complete(self):
        assert len(complete_digraph(3).arcs) == 6

    def test_cycle(self):
        assert len(directed_cycle(4).arcs) == 4

    def test_cycle_order_two_is_symmetric_pair(self):
        C2 = directed_cycle(2)
        assert C2.arcs == frozenset([(0, 1), (1, 0)])

    def test_empty(self):
        assert len(empty_digraph(2).arcs) == 0

    def test_bad_orders(self):
        with pytest.raises(ValueError):
            complete_digraph(0)
        with pytest.raises(ValueError):
            directed_cycle(1)


class TestPairCriticalFamily:
    def test_order_and_arc_count(self):
        inst = pair_critical_family(3)
        assert inst.digraph.vertex_count == 6
        # 3 + 3 forward arcs within each chain, 6 + 6 cross arcs.
        assert len(inst.digraph.arcs) == 18

    def test_arc_rules(self):
        inst = pair_critical_family(3)
        D = inst.digraph
        # 1-based u_i is id i-1, v_i is id 3+i-1.
        assert (0, 1) in D.arcs  # u1 -> u2 (i < j)
        assert (1, 0) not in D.arcs  # u2 -> u1 absent
        assert (3, 3 + 1) in D.arcs  # v1 -> v2
        assert (3 + 1, 0) in D.arcs  # v2 -> u1 (i >= j)
        assert (3, 1) not in D.arcs  # v1 -> u2 absent (1 < 2)
        assert (1, 3 + 1) in D.arcs  # u2 -> v2 (i >= j)

    def test_claims_match_solver(self):
        for n in (3, 4):
            inst = pair_critical_family(n)
            assert inst.digraph.vertex_count == 2 * n
            assert strong_in_domatic_number(inst.digraph).value == n == inst.claimed_value
            assert is_strong_in_domatic_partition(inst.digraph, inst.canonical_partition)

    def test_critical(self):
        inst = pair_critical_family(3)
        assert inst.claimed_critical is True
        assert is_strong_in_domatic_critical(inst.digraph)

    def test_too_small(self):
        with pytest.raises(ValueError):
            pair_critical_family(2)


class TestOrderValueFamily:
    @pytest.mark.parametrize("p,m", [(6, 2), (7, 3), (9, 4)])
    def test_claimed_values(self, p, m):
        inst = order_value_family(p, m)
        assert inst.digraph.vertex_count == p
        assert inst.claimed_value == m
        assert strong_in_domatic_number(inst.digraph).value == m
        assert is_strong_in_domatic_partition(inst.digraph, inst.canonical_partition)

    def test_euclidean_split(self):
        inst = order_value_family(7, 3)
        # 7 = 3*2 + 1: two parts, orders 3 and 4.
        assert inst.digraph.vertex_count == 7

    def test_no_in_dominating_vertex(self):
        for p, m in [(6, 2), (7, 3), (9, 4)]:
            inst = order_value_family(p, m)
            assert in_dominating_vertices(inst.digraph) == frozenset()

    def test_parameter_violations(self):
        with pytest.raises(ValueError):
            order_value_family(6, 4)  # m > p/2
        with pytest.raises(ValueError):
            order_value_family(2, 1)  # p < 3
        with pytest.raises(ValueError):
            order_value_family(6, 0)

    def test_claimed_critical_matches_verdict_when_claimed(self):
        # Zero remainder coincides with the critical composition family and
        # claims criticality; a positive remainder claims nothing.
        zero_r = order_value_family(6, 2)
        assert zero_r.claimed_critical is True
        assert is_strong_in_domatic_critical(zero_r.digraph)
        with_r = order_value_family(7, 3)
        assert with_r.claimed_critical is None


class TestCriticalCompositionFamily:
    @pytest.mark.parametrize("p,n", [(6, 2), (6, 3), (8, 2), (9, 3)])
    def test_claims(self, p, n):
        inst = critical_composition_family(p, n)
        assert inst.digraph.vertex_count == p
        assert strong_in_domatic_number(inst.digraph).value == n == inst.claimed_value
        assert inst.claimed_critical is True
        assert is_strong_in_domatic_critical(inst.digraph)
        assert is_strong_in_domatic_partition(inst.digraph, inst.canonical_partition)

    def test_equals_order_value_family_off_the_complete_case(self):
        # Built here as the composition the family describes: arcless parts
        # of order n over the cycle of order p/n.
        for p in range(4, 25):
            for n in range(2, p // 2 + 1):
                if p % n:
                    continue
                host, parts = directed_cycle(p // n), [empty_digraph(n)] * (p // n)
                expected = FamilyInstance(
                    composition(host, parts)[0], composition_partition(host, parts), n, True
                )
                assert critical_composition_family(p, n) == expected
                assert order_value_family(p, n) == expected

    def test_complete_case(self):
        inst = critical_composition_family(4, 4)
        assert inst.digraph == complete_digraph(4)
        assert strong_in_domatic_number(inst.digraph).value == 4
        assert is_strong_in_domatic_critical(inst.digraph)

    def test_order_two_complete_not_critical(self):
        # Deleting either arc of the complete digraph of order two destroys
        # strongness, so no criticality claim is made there.
        inst = critical_composition_family(2, 2)
        assert inst.claimed_critical is False
        assert not is_strong_in_domatic_critical(inst.digraph)

    def test_divisibility(self):
        with pytest.raises(ValueError):
            critical_composition_family(7, 2)
        with pytest.raises(ValueError):
            critical_composition_family(6, 1)


class TestGenerateTable:
    # The largest parameter tried for each family (every family needs one).
    # Each parameter runs from 0 up to it; values the builder rejects are
    # skipped.
    LARGEST = {
        "complete": 6,
        "cycle": 8,
        "empty": 4,
        "pair-critical": 5,
        "order-value": 9,
        "critical-composition": 8,
    }

    @pytest.mark.parametrize("family", sorted(GENERATE))
    def test_claims_match_solver(self, family):
        names, build = GENERATE[family]
        built = 0
        for params in product(range(self.LARGEST[family] + 1), repeat=len(names)):
            try:
                inst = build(*params)
            except ValueError:
                continue
            built += 1
            D, P = inst.digraph, inst.canonical_partition
            if P is not None:
                assert is_strong_in_domatic_partition(D, P), params
            if inst.claimed_value is not None:
                assert strong_in_domatic_number(D).value == inst.claimed_value, params
            if inst.claimed_critical is not None:
                assert is_strong_in_domatic_critical(D) == inst.claimed_critical, params
        assert built


class TestScanHelpers:
    def test_all_labeled_count(self):
        assert sum(1 for _ in all_labeled_digraphs(2)) == 4
        assert sum(1 for _ in all_labeled_digraphs(3)) == 64

    def test_random_strong(self):
        import random

        from indomatic import random_strong_digraph

        rng = random.Random(11)
        for _ in range(5):
            assert is_strong(random_strong_digraph(5, rng))

    def test_random_reproducible(self):
        import random

        from indomatic import random_strong_digraph

        a = random_strong_digraph(5, random.Random(3))
        b = random_strong_digraph(5, random.Random(3))
        assert a == b

    def test_all_labeled_order_zero_inapplicable(self):
        with pytest.raises(Inapplicable, match="^order must be at least 1$"):
            next(all_labeled_digraphs(0))

    def test_random_strong_order_zero_inapplicable(self):
        import random

        from indomatic import random_strong_digraph

        with pytest.raises(Inapplicable, match="^order must be at least 1$"):
            random_strong_digraph(0, random.Random(3))
