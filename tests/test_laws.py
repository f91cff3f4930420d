import dataclasses
import random

import pytest
from hypothesis import given, settings

from indomatic import (
    NotStrongError,
    PartitionDiagnosis,
    VertexPartition,
    all_labeled_digraphs,
    check_all,
    complete_digraph,
    delete_arc,
    directed_cycle,
    is_planar,
    is_semicomplete,
    is_strong,
    make_digraph,
    min_out_degree,
    pair_critical_family,
    random_strong_digraph,
    stays_strong_without,
    strong_in_domatic_number,
    underlying_graph,
    upper_bound,
    vertex_connectivity,
)
from indomatic import critical, laws
from indomatic.laws import HOLDS, NOT_APPLICABLE, VIOLATED
from indomatic.solver import WitnessCheckError, search_cap

from .conftest import solve_counts, strong_digraphs


def statuses(report):
    return {e.law_id: e.status for e in report.entries}


def details(report, law_id):
    return next(e.details for e in report.entries if e.law_id == law_id)


def written_out_upper_bound(D):
    """Minimum out-degree plus one; the minimum out-degree when no vertex
    has an arc from every other; vertex connectivity of the underlying
    graph off the semicomplete case; four on planar input."""
    n = D.vertex_count
    if n == 1:
        return 1
    delta = min_out_degree(D)
    bound = delta + 1
    if not any(all((x, v) in D.arcs for x in range(n) if x != v) for v in range(n)):
        bound = min(bound, delta)
    if not is_semicomplete(D):
        bound = min(bound, vertex_connectivity(underlying_graph(D)))
    if is_planar(underlying_graph(D)):
        bound = min(bound, 4)
    return max(bound, 1)


def coverage_corpus():
    return [
        complete_digraph(2),
        complete_digraph(3),
        complete_digraph(4),
        directed_cycle(3),
        directed_cycle(4),
        directed_cycle(5),
        pair_critical_family(3).digraph,
    ]


class TestUpperBound:
    def test_cycle5(self, c5):
        # Out-degree one everywhere and no in-dominating vertex.
        assert upper_bound(c5) == 1

    def test_complete4(self, k4):
        assert upper_bound(k4) == 4

    def test_pair_family(self):
        inst = pair_critical_family(3)
        assert upper_bound(inst.digraph) >= 3
        assert strong_in_domatic_number(inst.digraph).value == 3

    def test_non_strong_rejected(self):
        with pytest.raises(NotStrongError):
            upper_bound(make_digraph(2, [(0, 1)]))

    @settings(max_examples=30, deadline=None)
    @given(strong_digraphs(max_n=5))
    def test_admissible(self, D):
        assert upper_bound(D) >= strong_in_domatic_number(D).value

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_formula_on_every_strong_digraph(self, n):
        for D in all_labeled_digraphs(n):
            if is_strong(D):
                assert upper_bound(D) == written_out_upper_bound(D)

    # Orders past the exhaustive scan, where hypothesis draws the inputs.
    @settings(max_examples=40, deadline=None)
    @given(strong_digraphs(min_n=5, max_n=9))
    def test_formula(self, D):
        assert upper_bound(D) == written_out_upper_bound(D)

    def test_connectivity_below_the_solver_cap(self):
        # Two complete digraphs of order five sharing vertex 0: order 9,
        # minimum out-degree four, and vertex 0 cuts the underlying graph.
        halves = ([0, 1, 2, 3, 4], [0, 5, 6, 7, 8])
        D = make_digraph(9, {(u, v) for h in halves for u in h for v in h if u != v})
        assert search_cap(D) == 5
        assert upper_bound(D) == written_out_upper_bound(D) == 1


class TestCheckAll:
    def test_negative_sample_count_rejected(self, k3):
        with pytest.raises(ValueError, match="subdigraph_samples=-2 is negative"):
            check_all(k3, subdigraph_samples=-2)

    def test_complete4_all_applicable_hold(self, k4):
        report = check_all(k4)
        assert not report.violations()
        st = statuses(report)
        assert st["L10"] == HOLDS
        assert details(report, "L10")["complete_order_4"] is True

    def test_cycle5_zero_violations(self, c5):
        report = check_all(c5)
        assert not report.violations()
        st = statuses(report)
        for law in ("L1", "L2", "L3", "L4", "L5", "L9", "L13", "L14", "L16"):
            assert st[law] == HOLDS
        assert st["L8"] == NOT_APPLICABLE

    def test_k2_line_identity_gate(self, k2):
        report = check_all(k2)
        st = statuses(report)
        assert st["L13"] == NOT_APPLICABLE
        side = details(report, "L13")
        assert side["line_value"] == 2 and side["cover_value"] == 1

    def test_non_strong_single_entry(self):
        report = check_all(make_digraph(3, [(0, 1), (1, 2)]))
        assert len(report.entries) == 1
        assert report.entries[0].law_id == "L1"
        assert report.entries[0].status == HOLDS

    def test_planar_three_law_runs(self, k3):
        report = check_all(k3)
        assert statuses(report)["L11"] == HOLDS

    def test_l11_reads_the_maximum_partitions_from_the_witness(self, monkeypatch):
        # L11 reads D's maximum partitions through critical.MaxPartitions,
        # which checks that the enumeration starts at the report's witness.
        def misordered(D, k):
            yield VertexPartition((0, 2, 1), 3)

        monkeypatch.setattr(critical, "strong_in_domatic_partitions", misordered)
        with pytest.raises(WitnessCheckError, match="^the enumeration does not start at the witness$"):
            check_all(complete_digraph(3))

    @pytest.mark.parametrize(
        "kind, planted, chosen",
        [
            # K3*'s witness is its singletons, block masks 0b001, 0b010, 0b100.
            ("union", [0b011], (0, 1)),
            ("merge", [0b001, 0b110], (1, 2)),
        ],
    )
    def test_l2_names_the_failing_union_or_merge(self, monkeypatch, k3, kind, planted, chosen):
        real = laws._diagnose

        def diagnose(out_masks, in_masks, blocks):
            if blocks == planted:
                return PartitionDiagnosis(False, 0, "planted")
            return real(out_masks, in_masks, blocks)

        monkeypatch.setattr(laws, "_diagnose", diagnose)
        report = check_all(k3)
        assert statuses(report)["L2"] == VIOLATED
        assert details(report, "L2") == {"blocks": 3, "failure": (kind, chosen)}

    def test_symmetric_path_needs_every_arc_both_ways(self, k3, c3):
        assert laws._is_symmetric_path(k3, 0b011)
        assert not laws._is_symmetric_path(c3, 0b011)
        assert not laws._is_symmetric_path(c3, 0b111)
        # Out-degrees 1, 2, 1 inside, as on a path, and strong: only the
        # one-way arcs 1 -> 2 and 2 -> 0 rule it out.
        D = make_digraph(3, [(0, 1), (1, 0), (1, 2), (2, 0)])
        assert not laws._is_symmetric_path(D, 0b111)

    def test_l11_names_the_failing_block(self, monkeypatch, k3):
        monkeypatch.setattr(laws, "_is_symmetric_path", lambda D, block: block != 0b010)
        report = check_all(k3)
        assert statuses(report)["L11"] == VIOLATED
        assert details(report, "L11")["failure"] == {"block": [1]}

    def test_fixed_law_order(self, k3):
        report = check_all(k3)
        ids = [e.law_id for e in report.entries]
        assert ids == [f"L{i}" for i in range(1, 17)]

    def test_text_and_records(self, k3):
        report = check_all(k3)
        text = report.to_text()
        assert "L1 [holds]" in text
        records = report.to_records()
        assert len(records) == 16
        assert all(set(r) == {"law", "status", "statement", "details"} for r in records)

    @settings(max_examples=20, deadline=None)
    @given(strong_digraphs(max_n=5))
    def test_no_violations_on_random_strong(self, D):
        report = check_all(D, subdigraph_samples=3, seed=5)
        assert report.violations() == ()

    @pytest.mark.parametrize(
        "D, law",
        [
            # Value 1 = cap, no in-dominating vertex.
            (directed_cycle(4), "L5"),
            # Value 3 = cap < 4, in-dominating vertices {0, 2, 3}.
            (make_digraph(4, complete_digraph(4).arcs - {(0, 1)}), "L4"),
        ],
    )
    def test_bound_is_checked_past_the_cap(self, monkeypatch, D, law):
        # A partition one block past the solver's cap must show as a
        # violation, not be hidden by the cap.
        asked = []

        def beyond_cap(H, k):
            asked.append((H, k))
            singletons = [[v] for v in range(k - 1)]
            return VertexPartition.from_blocks(singletons + [range(k - 1, H.vertex_count)])

        value = strong_in_domatic_number(D).value
        assert value == search_cap(D) < D.vertex_count
        monkeypatch.setattr(laws, "exists_partition_into_k", beyond_cap)
        report = check_all(D, subdigraph_samples=1)
        assert asked == [(D, value + 1)]
        assert statuses(report)[law] == VIOLATED
        assert details(report, law)["value"] == value + 1

    def test_oversize_is_honestly_capped(self):
        big = directed_cycle(9)
        report = check_all(big)
        assert report.entries[0].status == NOT_APPLICABLE

    def test_second_factor(self, c3):
        # L12's second factor is K2*: the product with C3 has order 6.
        report = check_all(c3)
        assert statuses(report)["L12"] == HOLDS


class TestLawCoverage:
    def test_every_law_holds_somewhere(self):
        """Across a small corpus every law must fire at least once (no law
        is permanently gated off)."""
        seen = set()
        for D in coverage_corpus():
            for e in check_all(D).entries:
                if e.status == HOLDS:
                    seen.add(e.law_id)
                assert e.status != VIOLATED
        assert seen == {f"L{i}" for i in range(1, 17)}


def assert_each_digraph_solved_once(D, **options):
    counts = solve_counts(lambda: check_all(D, **options))
    # The one repeat is L16's by construction: strong_out_domatic_number
    # solves converse(converse(D)), which is D again.
    assert counts.pop((D.vertex_count, D.arcs)) == 2
    assert set(counts.values()) <= {1}


class TestOneSolvePerDigraph:
    def test_coverage_corpus(self):
        for D in coverage_corpus():
            assert_each_digraph_solved_once(D)

    @settings(max_examples=30, deadline=None)
    @given(strong_digraphs(max_n=5))
    def test_random_strong(self, D):
        assert_each_digraph_solved_once(D, subdigraph_samples=5, seed=1)


def reference_spanning_sample(D, rng):
    """L7's sampler written plainly: recompute the deletable arcs of the
    current digraph from scratch and build a digraph per deletion."""
    current = D
    while True:
        candidates = [a for a in current.sorted_arcs() if stays_strong_without(current, a)]
        if not candidates or rng.random() < 0.3:
            return current
        current = delete_arc(current, rng.choice(candidates))


def sampler_inputs():
    for n in range(1, 5):
        yield from (D for D in all_labeled_digraphs(n) if is_strong(D))
    for n in range(5, 8):
        source = random.Random(n)
        for _ in range(10):
            yield random_strong_digraph(n, source, 0.5)


class TestSpanningSample:
    def test_matches_the_reference_loop(self):
        checked = 0
        for D in sampler_inputs():
            for seed in range(5):
                expected_rng, rng = random.Random(seed), random.Random(seed)
                expected = reference_spanning_sample(D, expected_rng)
                H = laws._sample_spanning_strong(D, rng)
                assert H.arcs == expected.arcs
                assert (H is D) == (H.arcs == D.arcs)
                assert rng.getstate() == expected_rng.getstate()
                checked += 1
        assert checked == 5 * (1626 + 30)

    def test_planted_violation_is_reported(self, monkeypatch):
        D = complete_digraph(4)
        value = strong_in_domatic_number(D).value
        rng = random.Random(0)
        samples = [laws._sample_spanning_strong(D, rng) for _ in range(5)]
        planted = next(H for H in samples if H != D)
        solve = laws.strong_in_domatic_number

        def overstated(H):
            result = solve(H)
            return dataclasses.replace(result, value=value + 1) if H == planted else result

        monkeypatch.setattr(laws, "strong_in_domatic_number", overstated)
        report = check_all(D, subdigraph_samples=5, seed=0)
        assert statuses(report)["L7"] == VIOLATED
        assert details(report, "L7")["failure"] == sorted(planted.arcs)
