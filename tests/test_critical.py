import random

import pytest
from hypothesis import given, settings

from indomatic import (
    NotStrongError,
    PartitionDiagnosis,
    VertexPartition,
    WitnessCheckError,
    all_labeled_digraphs,
    characterization_holds,
    complete_digraph,
    critical_composition_family,
    delete_arc,
    deletion_profile,
    is_strong,
    is_strong_in_domatic_critical,
    is_strong_in_domatic_partition,
    is_strong_subset,
    make_digraph,
    order_value_family,
    pair_critical_family,
    partition_is_rigid,
    random_strong_digraph,
    stays_strong_without,
    strong_in_domatic_number,
)
from indomatic import _search, critical, solver
from indomatic.cli import main
from indomatic.critical import (
    FAILS,
    HOLDS,
    NOT_APPLICABLE,
    ArcDeletionRecord,
    DeletionProfile,
    characterize,
    first_failure,
)
from indomatic.fileio import write_digraph
from indomatic.solver import _all_set_partitions

from .conftest import solve_counts, strong_digraphs, two_block_digraphs

# A digraph meeting the characterization's hypotheses (value two, every
# deletion keeps it strong) that is not critical.
NOT_CRITICAL_4 = make_digraph(
    4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 0), (2, 1), (3, 0), (3, 1)]
)


class TestFirstFailure:
    def test_critical_has_none(self, k3):
        assert first_failure(deletion_profile(k3)) is None

    def test_bridge(self, c3):
        reason = first_failure(deletion_profile(c3))
        assert reason == "arc (0, 1) deletion destroys strongness"

    def test_value_kept(self):
        D = make_digraph(3, [(0, 1), (0, 2), (1, 0), (2, 1)])
        reason = first_failure(deletion_profile(D))
        assert reason == "arc (0, 1) deletion leaves value 1"


class TestDeletionProfile:
    def test_cycle_arcs_are_bridges(self, c3):
        profile = deletion_profile(c3)
        assert all(not r.still_strong for r in profile.records)

    def test_complete3(self, k3):
        profile = deletion_profile(k3)
        assert profile.value == 3
        assert all(r.still_strong and r.value_after == 2 for r in profile.records)

    def test_complete4(self, k4):
        profile = deletion_profile(k4)
        assert all(r.still_strong and r.value_after == 3 for r in profile.records)

    def test_records_sorted(self, k3):
        arcs = [r.arc for r in deletion_profile(k3).records]
        assert arcs == sorted(arcs)

    def test_non_strong_rejected(self):
        with pytest.raises(NotStrongError):
            deletion_profile(make_digraph(2, [(0, 1)]))

    @settings(max_examples=20, deadline=None)
    @given(strong_digraphs(min_n=2, max_n=5))
    def test_deletion_sandwich(self, D):
        profile = deletion_profile(D)
        if profile.value < 2:
            return
        for r in profile.records:
            if r.still_strong:
                assert profile.value - 1 <= r.value_after <= profile.value


def profile_by_resolves(D):
    """``deletion_profile`` with every strong deletion solved from
    scratch, independently of D's witness."""
    records = []
    for arc in D.sorted_arcs():
        strong = stays_strong_without(D, arc)
        after = strong_in_domatic_number(delete_arc(D, arc)).value if strong else None
        records.append(ArcDeletionRecord(arc, strong, after))
    return DeletionProfile(strong_in_domatic_number(D).value, tuple(records))


def own_needs(D):
    """The needs ``partition_search`` gives the engine for D."""
    return tuple(mask | 1 << x for x, mask in enumerate(D.out_masks))


def search_log(monkeypatch):
    """A list that every later engine search appends its needs and k to."""
    log = []
    engine = _search._search

    def search(m, needs, k, viable, counter):
        log.append((tuple(needs), k))
        return engine(m, needs, k, viable, counter)

    monkeypatch.setattr(_search, "_search", search)
    return log


class TestProfileFromWitness:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_matches_resolves_on_every_labeled_digraph(self, n):
        for D in all_labeled_digraphs(n):
            if is_strong(D):
                assert deletion_profile(D) == profile_by_resolves(D)

    @pytest.mark.parametrize("n", [5, 6, 7, 8, 9])
    def test_matches_resolves_on_random_digraphs(self, n):
        rng = random.Random(n)
        for _ in range(12):
            D = random_strong_digraph(n, rng, rng.choice([0.3, 0.5, 0.7]))
            assert deletion_profile(D) == profile_by_resolves(D)

    def test_one_solve_and_no_search_where_the_witness_survives(self, monkeypatch):
        # No digraph but D is searched: D's solve is one cap-first ladder,
        # and the deletions the witness does not settle read D's maximum
        # partitions from one enumeration at k = value.
        D = order_value_family(5, 2).digraph
        result = strong_in_domatic_number(D)
        W = result.witness
        solved = []
        original_solve = critical.strong_in_domatic_number

        def solve(G):
            solved.append(G)
            return original_solve(G)

        monkeypatch.setattr(critical, "strong_in_domatic_number", solve)
        searches = search_log(monkeypatch)
        profile = deletion_profile(D)
        assert solved == [D]
        assert sum(r.value_after == 2 for r in profile.records) == 6
        survivors = [
            r.arc
            for r in profile.records
            if is_strong_in_domatic_partition(delete_arc(D, r.arc), W)
        ]
        assert survivors == [(1, 2), (1, 3)]
        assert {needs for needs, _ in searches} == {own_needs(D)}
        ladder = [k for k, _, _ in result.stats.probes]
        assert [k for _, k in searches] == ladder + [profile.value]

    @settings(max_examples=25, deadline=None)
    @given(two_block_digraphs(min_n=5, max_n=7))
    def test_matches_resolves_past_the_witness(self, D):
        # With value two or more a deletion can need the partitions after
        # the witness.
        assert strong_in_domatic_number(D).value >= 2
        assert deletion_profile(D) == profile_by_resolves(D)

    def test_cap_below_the_merge_bound_raises(self, monkeypatch):
        # K4* minus an arc keeps a merged witness of three blocks.
        monkeypatch.setattr(critical, "search_cap", lambda H: 1)
        with pytest.raises(WitnessCheckError):
            deletion_profile(complete_digraph(4))

    def test_missing_merge_raises(self, monkeypatch):
        # Every partition check on block masks fails, the merges included.
        failing = PartitionDiagnosis(False, 0, "planted")
        monkeypatch.setattr(critical, "_diagnose", lambda out_masks, in_masks, blocks: failing)
        with pytest.raises(WitnessCheckError):
            deletion_profile(complete_digraph(3))

    def test_invalid_search_result_raises(self, monkeypatch):
        # order_value_family(5, 2) has deletions that its witness does not
        # settle.  D's own solve is fixed first; then the enumeration of D
        # yields the witness and the planted labels, a well-formed
        # partition into the k = 2 blocks {0} and {1, 2, 3, 4} that is not
        # strong in-domatic after the deletion.
        D = order_value_family(5, 2).digraph
        solved = strong_in_domatic_number(D)
        planted = [solved.witness.block_of, (0, 1, 1, 1, 1)]
        monkeypatch.setattr(critical, "strong_in_domatic_number", lambda G: solved)
        monkeypatch.setattr(solver, "partition_search", lambda *args: iter(planted))
        with pytest.raises(WitnessCheckError, match="fails the check"):
            deletion_profile(D)

    def test_enumeration_not_starting_at_the_witness_raises(self, monkeypatch):
        D = order_value_family(5, 2).digraph
        solved = strong_in_domatic_number(D)
        monkeypatch.setattr(critical, "strong_in_domatic_number", lambda G: solved)
        monkeypatch.setattr(solver, "partition_search", lambda *args: iter([(0, 1, 1, 1, 1)]))
        with pytest.raises(WitnessCheckError, match="does not start at the witness"):
            deletion_profile(D)


class TestLargeProfiles:
    @pytest.mark.parametrize(
        "D",
        [
            pair_critical_family(7).digraph,
            critical_composition_family(12, 6).digraph,
            complete_digraph(10),
            complete_digraph(11),
            complete_digraph(12),
        ],
        ids=["pair-critical-7", "composition-12-6", "K10", "K11", "K12"],
    )
    def test_critical(self, D):
        assert first_failure(deletion_profile(D)) is None

    @pytest.mark.parametrize("m", [4, 5])
    def test_order_value_not_critical(self, m):
        reason = first_failure(deletion_profile(order_value_family(11, m).digraph))
        assert reason.endswith(f"deletion leaves value {m}")


class TestDefinitionalCriticality:
    def test_complete3(self, k3):
        assert is_strong_in_domatic_critical(k3)

    def test_pair_family(self):
        assert is_strong_in_domatic_critical(pair_critical_family(3).digraph)

    def test_cycle_not_critical(self, c4):
        assert not is_strong_in_domatic_critical(c4)


class TestCharacterization:
    def test_pair_family(self):
        assert characterization_holds(pair_critical_family(3).digraph).status == HOLDS

    def test_complete3(self, k3):
        # Unique maximum partition of singletons: no internal arcs, and
        # completeness pins every cross count at one.
        assert characterization_holds(k3).status == HOLDS

    def test_critical_composition(self):
        D = critical_composition_family(6, 2).digraph
        assert characterization_holds(D).status == HOLDS

    def test_not_applicable_low_value(self, c4):
        result = characterization_holds(c4)
        assert result.status == NOT_APPLICABLE
        with pytest.raises(ValueError):
            bool(result)

    def test_not_applicable_fragile_arc(self, k2):
        # Value two, but deletions destroy strongness.
        result = characterization_holds(k2)
        assert result.status == NOT_APPLICABLE

    def test_failing_example(self):
        # A maximum partition gives some outside vertex two out-neighbors
        # in one block, so the digraph is not critical.
        D = NOT_CRITICAL_4
        result = characterization_holds(D)
        assert result.status == FAILS
        assert not is_strong_in_domatic_critical(D)
        assert strong_in_domatic_number(D).value == 2


class TestRigidityDiagnostics:
    def test_reports_extra_neighbor(self, k4):
        P = VertexPartition.from_blocks([[0, 1], [2, 3]])
        ok, reason = partition_is_rigid(k4, P)
        assert not ok
        assert "expected 1" in reason or "stays strong" in reason

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_matches_deletion_builds_on_every_partition(self, n):
        partitions = [
            VertexPartition.from_blocks(blocks)
            for blocks in _all_set_partitions(list(range(n)))
        ]
        for D in all_labeled_digraphs(n):
            if is_strong(D):
                for P in partitions:
                    assert partition_is_rigid(D, P) == rigid_by_deletion_builds(D, P)


def rigid_by_deletion_builds(D, P):
    """``partition_is_rigid`` with each internal deletion built as a new
    digraph and each block's strongness asked of it."""
    for i, block in enumerate(P.blocks()):
        for arc in sorted(a for a in D.arcs if a[0] in block and a[1] in block):
            if is_strong_subset(delete_arc(D, arc), block):
                return False, f"block {i} stays strong after deleting internal arc {arc}"
        for x in range(D.vertex_count):
            if x not in block:
                hits = sum((x, y) in D.arcs for y in block)
                if hits != 1:
                    return False, (
                        f"vertex {x} has {hits} out-neighbors in block {i}, expected 1"
                    )
    return True, None


class TestCriticalityRouteEquivalence:
    @settings(max_examples=40, deadline=None)
    @given(strong_digraphs(min_n=2, max_n=5))
    def test_definitional_matches_characterization(self, D):
        result = characterization_holds(D)
        if result.status == NOT_APPLICABLE:
            return
        assert (result.status == HOLDS) == is_strong_in_domatic_critical(D)


ONE_SOLVE_INPUTS = [
    pair_critical_family(3).digraph,
    critical_composition_family(6, 2).digraph,
    NOT_CRITICAL_4,
    make_digraph(2, [(0, 1), (1, 0)]),
    make_digraph(4, [(0, 1), (1, 2), (2, 3), (3, 0)]),
]


class TestOneSolveOfD:
    @pytest.mark.parametrize("D", ONE_SOLVE_INPUTS)
    def test_characterization(self, D):
        counts = solve_counts(lambda: characterization_holds(D))
        assert counts == {(D.vertex_count, D.arcs): 1}

    @pytest.mark.parametrize("D", ONE_SOLVE_INPUTS)
    def test_cli_critical(self, D, tmp_path, capsys):
        path = tmp_path / "d.dg"
        path.write_text(write_digraph(D))
        counts = solve_counts(lambda: main(["critical", "--in", str(path)]))
        assert counts[D.vertex_count, D.arcs] == 1
        assert set(counts.values()) == {1}
        assert "characterization:" in capsys.readouterr().out

    @settings(max_examples=30, deadline=None)
    @given(strong_digraphs(min_n=2, max_n=5))
    def test_profile_inputs_give_the_same_verdict(self, D):
        profile = deletion_profile(D)
        assert characterize(profile.partitions, profile.breaking_arc) == (
            characterization_holds(D)
        )


class TestOneEnumerationOfD:
    @pytest.mark.parametrize(
        "D",
        [
            order_value_family(10, 3).digraph,
            random_strong_digraph(8, random.Random(8), 0.5),
        ],
        ids=["order-value-10-3", "random-8"],
    )
    def test_cli_critical_searches_only_d(self, D, monkeypatch, tmp_path, capsys):
        path = tmp_path / "d.dg"
        path.write_text(write_digraph(D))
        ladder = [k for k, _, _ in strong_in_domatic_number(D).stats.probes]
        value = strong_in_domatic_number(D).value
        enumerations = []
        enumerate_partitions = critical.strong_in_domatic_partitions

        def counting(G, k):
            enumerations.append((G, k))
            return enumerate_partitions(G, k)

        monkeypatch.setattr(critical, "strong_in_domatic_partitions", counting)
        searches = search_log(monkeypatch)
        code = main(["critical", "--in", str(path)])
        assert code == 0
        assert "characterization:" in capsys.readouterr().out
        assert {needs for needs, _ in searches} == {own_needs(D)}
        assert [k for _, k in searches] in (ladder, ladder + [value])
        assert len(enumerations) <= 1
