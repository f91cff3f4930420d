"""The benchmark's answer checks accept right answers and reject planted
wrong ones.  Run with ``python3 -m pytest bench/test_checks.py``."""
from __future__ import annotations

import random
import sys
from itertools import product
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import pytest  # noqa: E402

import indomatic as ind  # noqa: E402
import indomatic.cli  # noqa: E402,F401
import checks  # noqa: E402
import tracing  # noqa: E402
import workloads as W  # noqa: E402
from indomatic.solver import brute_force_oracle  # noqa: E402


def _op_and_answer(kind, n, arcs, claim=None):
    op = W.Op(kind, n, tuple(arcs), claim)
    return op, W.run_op(ind, op)


def test_counting_agrees_with_the_oracle():
    rng = random.Random(3)
    for _ in range(40):
        n = rng.choice((2, 3, 4, 5, 6))
        arcs = W.random_strong(n, rng, rng.choice((0.3, 0.5, 0.8)))
        D = ind.make_digraph(n, arcs)
        kinds = ["dsminus", "dsplus", "indomatic"] + (["lambda"] if len(arcs) <= 8 else [])
        for kind in kinds:
            value = brute_force_oracle(D, kind)
            assert checks.confirms_value(kind, n, arcs, value)
            assert not checks.confirms_value(kind, n, arcs, value + 1)
            assert value == 1 or not checks.confirms_value(kind, n, arcs, value - 1)


@pytest.mark.parametrize("kind", ["dsminus", "dsplus", "indomatic", "lambda"])
def test_solve_check_rejects_off_by_one_values(kind):
    rng = random.Random(5)
    n = 4 if kind == "lambda" else 8
    op, answer = _op_and_answer(kind, n, W.random_strong(n, rng, 0.6))
    assert checks.check_solve(ind, op, answer)
    value, block_of, block_count = answer
    assert not checks.check_solve(ind, op, (value + 1, block_of, block_count))
    assert not checks.check_solve(ind, op, (value - 1, block_of, block_count))


def _merge_last_two_blocks(block_of, block_count):
    return tuple(min(b, block_count - 2) for b in block_of), block_count - 1


def test_solve_check_rejects_a_valid_witness_below_the_maximum():
    # The witness verifies, so only the value reference can catch it: the
    # theorem for a family member, the count for a random input.
    D = ind.pair_critical_family(4).digraph
    op, (value, block_of, count) = _op_and_answer(
        "dsminus", 8, D.sorted_arcs(), W.pair_critical_claim(4))
    merged = _merge_last_two_blocks(block_of, count)
    assert ind.is_strong_in_domatic_partition(D, ind.VertexPartition(*merged))
    assert not checks.check_solve(ind, op, (value - 1,) + merged)
    assert not checks.check_solve(ind, W.Op("dsminus", 8, op.arcs), (value - 1,) + merged)


def test_solve_check_rejects_a_witness_with_a_non_strong_block():
    D = ind.pair_critical_family(3).digraph
    op, answer = _op_and_answer("dsminus", 6, D.sorted_arcs(), W.pair_critical_claim(3))
    assert checks.check_solve(ind, op, answer)
    for labels in product(range(3), repeat=6):
        if sorted(set(labels)) != [0, 1, 2]:
            continue
        P = ind.VertexPartition(labels, 3)
        if ind.check_strong_in_domatic_partition(D, P).reason == "induced subdigraph not strong":
            break
    else:
        pytest.fail("no partition with a non-strong block")
    assert not checks.check_solve(ind, op, (3, labels, 3))


def test_law_check_rejects_violations_and_wrong_values():
    op, (statuses, value) = _op_and_answer("laws", 4, W.complete_arcs(4))
    assert checks.check_laws(op, (statuses, value))
    assert not checks.check_laws(op, (statuses, value - 1))
    violated = ((statuses[0][0], "violated"),) + statuses[1:]
    assert not checks.check_laws(op, (violated, value))


def _critical_op(tmp_path, n, arcs, claim):
    path = W.write_instance(str(tmp_path), "d.dg", n, arcs)
    op = W.Op("critical", n, tuple(arcs), claim, path)
    return op, W.run_op(ind, op)


def test_critical_check_rejects_a_wrong_verdict(tmp_path):
    claim = W.critical_composition_claim(4, 4)
    op, (code, text) = _critical_op(tmp_path, 4, W.complete_arcs(4), claim)
    assert checks.check_critical(op, (code, text))
    assert "critical: yes" in text
    flipped = text.replace("critical: yes", "critical: no (planted)")
    assert not checks.check_critical(op, (code, flipped))
    rigidity = text.replace("characterization: holds", "characterization: fails")
    assert not checks.check_critical(op, (code, rigidity))
    assert not checks.check_critical(op, (1, text))
    # Without the theorem the verdict is judged from the counted values.
    assert not checks.check_critical(W.Op("critical", 4, op.arcs, None, op.path), (code, flipped))


def test_critical_check_rejects_a_wrong_value_after(tmp_path):
    rng = random.Random(8)
    op, (code, text) = _critical_op(tmp_path, 7, W.random_strong(7, rng, 0.5), None)
    assert checks.check_critical(op, (code, text))
    value = int(text.splitlines()[0].rsplit(" ", 1)[1])
    lines = text.splitlines()
    for i, line in enumerate(lines[2:-2], start=2):
        if line.endswith(f" {value}"):
            lines[i] = line[: -len(str(value))] + str(value - 1)
            break
    else:
        pytest.fail("no deletion that keeps the value")
    assert not checks.check_critical(op, (code, "\n".join(lines) + "\n"))


def test_tracer_counts_repeat_solves_and_restores_bindings():
    original = ind.strong_in_domatic_number
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert ind.strong_in_domatic_number is not original
        tracer.begin_op()
        D = ind.make_digraph(3, W.complete_arcs(3))
        first = ind.strong_in_domatic_number(D)
        ind.strong_out_domatic_number(D)
        tracer.end_op()
    finally:
        tracer.uninstall()
    assert ind.strong_in_domatic_number is original
    # strong_out solves the converse, which for K_3* is D itself again.
    assert (tracer.solves, tracer.repeat_solves) == (3, 1)
    assert tracer.search_nodes == 2 * first.stats.nodes
    assert tracer.calls["core.make_digraph"] >= 1
