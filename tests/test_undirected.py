import os
import random
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import indomatic
from indomatic import solver
from indomatic import (
    WitnessCheckError,
    clique_domination_number,
    complete_digraph,
    connected_domatic_number,
    directed_cycle,
    is_clique,
    is_in_dominating,
    is_planar,
    is_strong_subset,
    make_ugraph,
    strong_in_domatic_number,
    underlying_graph,
    vertex_connectivity,
)
from indomatic.solver import _all_set_partitions
from indomatic.undirected import is_connected

from .conftest import complete_graph, cycle_graph, path_graph


def edges(G):
    """The edges of the graph G as sorted vertex pairs."""
    return {(u, v) for u, v in G.arcs if u < v}


def labeled_graphs(n):
    """Every labeled graph on n vertices."""
    pairs = list(combinations(range(n), 2))
    for chosen in range(1 << len(pairs)):
        yield make_ugraph(n, [e for i, e in enumerate(pairs) if chosen >> i & 1])


@st.composite
def connected_graphs(draw, min_n=2, max_n=6):
    """Random connected graphs: a drawn spanning tree plus extra edges."""
    n = draw(st.integers(min_n, max_n))
    edges = set()
    for v in range(1, n):
        parent = draw(st.integers(0, v - 1))
        edges.add((parent, v))
    spare = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if (u, v) not in edges
    ]
    extra = draw(st.lists(st.sampled_from(spare), unique=True)) if spare else []
    return make_ugraph(n, sorted(edges | set(extra)))


class TestUnderlyingGraph:
    def test_cycle(self, c3):
        assert edges(underlying_graph(c3)) == {(0, 1), (1, 2), (0, 2)}

    def test_complete(self, k4):
        assert underlying_graph(k4) == complete_graph(4)

    def test_single_arc(self):
        from indomatic import make_digraph

        D = make_digraph(2, [(0, 1)])
        assert edges(underlying_graph(D)) == {(0, 1)}

    def test_antiparallel_merge(self, k2):
        assert len(edges(underlying_graph(k2))) == 1


class TestMakeUgraph:
    @pytest.mark.parametrize(
        "n, edges, message",
        [
            (-1, [], "vertex_count must be nonnegative"),
            (3, [(0, 1), (1, 1)], r"^loop \(1,1\) not allowed$"),
            (3, [(0, 3)], r"^arc \(0,3\) has an endpoint outside \[0,3\)$"),
            # An edge given both ways is one edge given twice.
            (3, [(0, 1), (1, 0)], r"^duplicate arc \(0,1\)$"),
        ],
    )
    def test_rejected(self, n, edges, message):
        with pytest.raises(ValueError, match=message):
            make_ugraph(n, edges)

    def test_float_endpoints_rejected(self):
        # As in make_digraph: a float endpoint fails here, not later as a mask index.
        with pytest.raises(ValueError, match=r"^arc \(0.0,1\) has an endpoint outside \[0,3\)$"):
            make_ugraph(3, [(0.0, 1), (2, 1.0)])


class TestNeighborMasks:
    @given(connected_graphs(min_n=1, max_n=6))
    def test_bits_are_edges(self, G):
        n = G.vertex_count
        for v in range(n):
            for w in range(n):
                edge = (min(v, w), max(v, w)) in edges(G)
                assert bool(G.out_masks[v] >> w & 1) == edge

    def test_masks_are_not_fields(self):
        G, fresh = cycle_graph(5), cycle_graph(5)
        assert G.out_masks
        assert "out_masks" in vars(G) and "out_masks" not in vars(fresh)
        assert fresh == G and hash(fresh) == hash(G)
        assert repr(fresh) == repr(G)
        assert {G: "value"}[fresh] == "value"


class TestVertexConnectivity:
    def test_cycle(self):
        assert vertex_connectivity(cycle_graph(4)) == 2

    def test_path(self):
        assert vertex_connectivity(path_graph(3)) == 1

    def test_complete_convention(self):
        assert vertex_connectivity(complete_graph(4)) == 3

    def test_disconnected_rejected(self):
        with pytest.raises(ValueError):
            vertex_connectivity(make_ugraph(3, [(0, 1)]))

    @settings(max_examples=40, deadline=None)
    @given(connected_graphs())
    def test_matches_optimized_method(self, G):
        # Exhaustive cut search versus networkx's flow-based computation.
        H = nx.Graph()
        H.add_nodes_from(range(G.vertex_count))
        H.add_edges_from(edges(G))
        assert vertex_connectivity(G) == nx.node_connectivity(H)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_matches_optimized_method_exhaustively(self, n):
        from itertools import combinations

        pairs = list(combinations(range(n), 2))
        for mask in range(1 << len(pairs)):
            edges = [pairs[i] for i in range(len(pairs)) if mask >> i & 1]
            G = make_ugraph(n, edges)
            if not is_connected(G):
                continue
            H = nx.Graph()
            H.add_nodes_from(range(n))
            H.add_edges_from(edges)
            assert vertex_connectivity(G) == nx.node_connectivity(H)


class TestConnectedDomatic:
    def test_complete4(self):
        assert connected_domatic_number(complete_graph(4)).value == 4

    def test_single_vertex(self):
        result = connected_domatic_number(make_ugraph(1, []))
        assert result.value == 1 and result.witness.blocks() == (frozenset([0]),)

    def test_cycle4(self):
        # Brute force over all partitions of 4 vertices gives 2.
        assert connected_domatic_number(cycle_graph(4)).value == 2

    def test_cycle4_stats(self):
        # kappa(C4) = 2 is the cap: one search, at k = 2, finds a partition.
        stats = connected_domatic_number(cycle_graph(4)).stats
        assert len(stats.probes) == 1
        k, nodes, found = stats.probes[0]
        assert (k, found) == (2, True) and nodes == stats.nodes

    def test_disconnected_rejected(self):
        with pytest.raises(ValueError):
            connected_domatic_number(make_ugraph(2, []))

    @pytest.mark.parametrize(
        "witness",
        [
            (0, 1, 1, 1),  # {0} does not dominate 2
            (0, 1, 0, 1),  # both blocks dominate, neither is connected
            (0, 0, 0),  # 3 is left out
            (0, 0, 1, 1, 1),  # labels a fifth vertex
            (0, 0, 2, 2),  # block 1 is empty
        ],
    )
    def test_failed_witness_raises(self, monkeypatch, witness):
        # A real check, not an assert: CI also runs this file under python -O.
        # The cap of C4 is kappa = 2, so one search runs, at k = 2, and the
        # planted labels are its answer; a malformed tuple is a failed check
        # too, not a ValueError from VertexPartition.
        monkeypatch.setattr(solver, "partition_search", lambda *args: iter([witness]))
        with pytest.raises(WitnessCheckError):
            connected_domatic_number(cycle_graph(4))

    @settings(max_examples=30, deadline=None)
    @given(connected_graphs(max_n=6))
    def test_witness_and_connectivity_bound(self, G):
        result = connected_domatic_number(G)
        value, blocks = result.value, result.witness.blocks()
        assert len(blocks) == value
        for block in blocks:
            assert is_in_dominating(G, block)
            assert is_strong_subset(G, block)
        if len(edges(G)) < G.vertex_count * (G.vertex_count - 1) // 2:
            assert value <= vertex_connectivity(G)


    @staticmethod
    def check_against_unpruned(G):
        best = None
        for blocks in _all_set_partitions(list(range(G.vertex_count))):
            if (best is None or len(blocks) > len(best)) and all(
                is_strong_subset(G, b) and is_in_dominating(G, b) for b in blocks
            ):
                best = blocks
        result = connected_domatic_number(G)
        value, witness = result.value, result.witness.blocks()
        assert value == len(best) == len(witness)
        for block in witness:
            assert is_strong_subset(G, block) and is_in_dominating(G, block)
        assert witness == tuple(frozenset(b) for b in best)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_matches_unpruned_exhaustively(self, n):
        pairs = list(combinations(range(n), 2))
        for mask in range(1 << len(pairs)):
            G = make_ugraph(n, [e for i, e in enumerate(pairs) if mask >> i & 1])
            if is_connected(G):
                self.check_against_unpruned(G)

    @settings(max_examples=25, deadline=None)
    @given(connected_graphs(min_n=6, max_n=7))
    def test_matches_unpruned(self, G):
        self.check_against_unpruned(G)


class TestGraphsAreSymmetricDigraphs:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_connected_domatic_is_strong_in_domatic(self, n):
        # On a graph, connected dominating sets are strong in-dominating sets.
        for G in labeled_graphs(n):
            if is_connected(G):
                dc, ds = connected_domatic_number(G), strong_in_domatic_number(G)
                assert (dc.value, dc.witness) == (ds.value, ds.witness)

    @pytest.mark.parametrize(
        "entry",
        [
            is_connected,
            lambda G: is_clique(G, {0, 1}),
            vertex_connectivity,
            connected_domatic_number,
            clique_domination_number,
            is_planar,
        ],
        ids=[
            "is_connected",
            "is_clique",
            "vertex_connectivity",
            "connected_domatic_number",
            "clique_domination_number",
            "is_planar",
        ],
    )
    def test_non_symmetric_digraph_rejected(self, c3, entry):
        with pytest.raises(ValueError, match="symmetric"):
            entry(c3)


class TestCliqueDomination:
    def test_complete(self):
        assert clique_domination_number(complete_graph(4)) == 1

    def test_five_cycle_has_none(self):
        # Exhausting every clique of the 5-cycle (vertices and edges only)
        # finds no dominating one.
        assert clique_domination_number(cycle_graph(5)) is None

    def test_star_center(self):
        star = make_ugraph(4, [(0, 1), (0, 2), (0, 3)])
        assert clique_domination_number(star) == 1


class TestPlanarity:
    def test_k4(self):
        assert is_planar(complete_graph(4))

    def test_k5(self):
        assert not is_planar(complete_graph(5))

    def test_k33(self):
        k33 = make_ugraph(6, [(u, v) for u in range(3) for v in range(3, 6)])
        assert not is_planar(k33)

    @staticmethod
    def networkx_loaded_after(code):
        """Run ``code`` after importing the package and its CLI, in a fresh
        interpreter where ``import networkx`` fails outright; True iff
        something tried to import it."""
        code = f"import sys\nsys.modules['networkx'] = None\nimport indomatic, indomatic.cli\n{code}"
        src = str(Path(indomatic.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
        if "import of networkx halted" in out.stderr:
            return True
        assert out.returncode == 0, out.stderr
        return False

    def test_importing_the_package_leaves_networkx_unloaded(self):
        assert not self.networkx_loaded_after("pass")

    def test_order_five_is_decided_without_networkx(self):
        k5 = "indomatic.make_ugraph(5, [(u, v) for u in range(5) for v in range(u + 1, 5)])"
        c5 = "indomatic.make_ugraph(5, [(i, (i + 1) % 5) for i in range(5)])"
        code = f"assert not indomatic.is_planar({k5}); assert indomatic.is_planar({c5})"
        assert not self.networkx_loaded_after(code)

    def test_laws_on_a_six_cycle_leave_networkx_unloaded(self):
        # The underlying C6 has 6 <= 3n - 6 edges, so order and Euler's
        # bound do not settle it.
        code = (
            "D = indomatic.directed_cycle(6); "
            "indomatic.check_all(D, subdigraph_samples=5, seed=1); indomatic.upper_bound(D)"
        )
        assert not self.networkx_loaded_after(code)

    def test_every_subcommand_runs_without_networkx(self, tmp_path):
        # Each subcommand through cli.main, with its documented exit code.
        code = f"""
import os
from indomatic.cli import _INVARIANTS, _TRANSFORMS, main
os.chdir({str(tmp_path)!r})

def run(expected, *argv):
    got = main(list(argv))
    assert got == expected, (argv, got)

run(0, "generate", "--family", "pair-critical", "--params", "n=3", "--out", "pc3.dg")
run(0, "generate", "--family", "empty", "--params", "n=2", "--out", "e2.dg")
for what in _INVARIANTS:
    run(0, "compute", "--in", "pc3.dg", "--what", what)
run(0, "compute", "--in", "pc3.dg", "--what", "dsminus", "--witness-out", "pc3.part")
run(0, "verify", "--in", "pc3.dg", "--partition", "pc3.part")
run(3, "compute", "--in", "e2.dg", "--what", "dsminus")
extra = {{"product": ["--with", "pc3.dg"], "compose": ["--with", "e2.dg"] * 6}}
for op in _TRANSFORMS:
    run(0, "transform", "--in", "pc3.dg", "--op", op, *extra.get(op, []), "--out", op + ".dg")
run(0, "critical", "--in", "pc3.dg")
run(0, "laws", "--in", "pc3.dg")
run(0, "oracle", "--max-n", "3")
"""
        assert not self.networkx_loaded_after(code)

    @staticmethod
    def networkx_planar(G):
        H = nx.Graph()
        H.add_nodes_from(range(G.vertex_count))
        H.add_edges_from(edges(G))
        return nx.check_planarity(H)[0]

    def test_matches_networkx_on_order_six_near_eulers_bound(self):
        # Every labeled graph of order six with 9 to 12 edges (3n - 6 = 12).
        pairs = list(combinations(range(6), 2))
        checked = non_planar = 0
        for m in range(9, 13):
            for chosen in combinations(pairs, m):
                G = make_ugraph(6, chosen)
                planar = is_planar(G)
                assert planar == self.networkx_planar(G)
                checked += 1
                non_planar += not planar
        assert (checked, non_planar) == (9828, 576)

    @staticmethod
    def from_networkx(H):
        H = nx.convert_node_labels_to_integers(H)
        return make_ugraph(H.number_of_nodes(), H.edges())

    @pytest.mark.parametrize(
        "H, planar",
        [
            # Cut vertices and several components.
            (nx.compose(nx.complete_graph(5), nx.complete_graph(range(4, 9))), False),
            (nx.compose(nx.complete_graph(4), nx.complete_graph(range(3, 7))), True),
            (nx.disjoint_union(nx.complete_graph(4), nx.complete_bipartite_graph(3, 3)), False),
            (nx.petersen_graph(), False),
            (nx.complete_bipartite_graph(4, 4), False),
            # K5 with every edge subdivided once.
            (nx.Graph([(w, i) for i, e in enumerate(combinations(range(5), 2), 5) for w in e]), False),
            (nx.dodecahedral_graph(), True),
            (nx.icosahedral_graph(), True),
            (nx.grid_2d_graph(6, 6), True),
            (nx.wheel_graph(7), True),
        ],
    )
    def test_matches_networkx_on_named_graphs(self, H, planar):
        G = self.from_networkx(H)
        assert is_planar(G) == self.networkx_planar(G) == planar

    def test_long_cycle_is_decided_without_recursion(self):
        assert is_planar(cycle_graph(3000))

    def test_matches_networkx_up_to_order_five(self):
        checked = 0
        for n in range(1, 6):
            pairs = list(combinations(range(n), 2))
            for chosen in range(1 << len(pairs)):
                G = make_ugraph(n, [e for i, e in enumerate(pairs) if chosen >> i & 1])
                assert is_planar(G) == self.networkx_planar(G)
                checked += 1
        assert checked == 1 + 2 + 8 + 64 + 1024

    @pytest.mark.parametrize("n", range(6, 11))
    def test_matches_networkx_around_eulers_bound(self, n):
        # Edge counts from three below to two above 3n - 6.
        rng = random.Random(n)
        pairs = list(combinations(range(n), 2))
        outcomes = set()
        for m in range(3 * n - 9, 3 * n - 3):
            for _ in range(20):
                G = make_ugraph(n, rng.sample(pairs, m))
                planar = is_planar(G)
                assert planar == self.networkx_planar(G)
                outcomes.add((m <= 3 * n - 6, planar))
        assert outcomes == {(True, True), (True, False), (False, False)}


class TestSetPredicates:
    def test_triangle(self):
        tri = complete_graph(3)
        assert is_in_dominating(tri, {0}) and is_clique(tri, {0})

    def test_path_endpoints(self):
        p3 = path_graph(3)
        assert not is_in_dominating(p3, {0})
        assert is_in_dominating(p3, {1})

    def test_connected_subset(self):
        p3 = path_graph(3)
        assert is_strong_subset(p3, {0, 1})
        assert not is_strong_subset(p3, {0, 2})

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            is_in_dominating(path_graph(2), set())

    @pytest.mark.parametrize("predicate", [is_clique, is_strong_subset, is_in_dominating])
    @pytest.mark.parametrize("S", [{0, 3}, {-1}])
    def test_outside_vertex_rejected(self, predicate, S):
        with pytest.raises(ValueError, match="outside"):
            predicate(path_graph(3), S)

    def test_clique_matches_pairwise_adjacency(self):
        # Every subset of every labeled graph of order at most five.
        checked = 0
        for n in range(1, 6):
            pairs = list(combinations(range(n), 2))
            for chosen in range(1 << len(pairs)):
                G = make_ugraph(n, [e for i, e in enumerate(pairs) if chosen >> i & 1])
                for size in range(1, n + 1):
                    for S in combinations(range(n), size):
                        expected = all(e in edges(G) for e in combinations(S, 2))
                        assert is_clique(G, S) == expected
                        checked += 1
        assert checked == 1 + 2 * 3 + 8 * 7 + 64 * 15 + 1024 * 31


def test_planar_digraph_examples():
    assert is_planar(underlying_graph(complete_digraph(4)))
    assert not is_planar(underlying_graph(complete_digraph(5)))
    assert is_planar(underlying_graph(directed_cycle(6)))
