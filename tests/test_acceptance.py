"""Acceptance suite: one test per criterion, each printing a pass/fail
line.  All comparisons are exact integer equality; run with ``pytest -s
tests/test_acceptance.py`` to watch the lines appear."""
import random


from indomatic import (
    all_labeled_digraphs,
    brute_force_oracle,
    characterization_holds,
    check_all,
    complete_digraph,
    composition,
    composition_partition,
    critical_composition_family,
    directed_cycle,
    empty_digraph,
    is_strong,
    is_strong_in_domatic_critical,
    is_strong_in_domatic_partition,
    lambda_number,
    lift_middle_partition,
    lift_product_partition,
    lift_total_partition,
    line_digraph,
    middle,
    order_value_family,
    pair_critical_family,
    random_strong_digraph,
    root,
    strong_in_domatic_number,
    subdivision,
    total,
    cartesian_product,
)
from indomatic.cli import main
from indomatic.critical import NOT_APPLICABLE
from indomatic.fileio import parse_digraph, write_digraph

from .conftest import isomorphic


def report(number, name, ok, detail=""):
    verdict = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number} [{name}]: {verdict}{suffix}")
    assert ok, f"criterion {number} ({name}) failed: {detail}"


def test_criterion_1_oracle_equivalence():
    mismatches = 0
    strong_count = 0
    for n in (3, 4):
        for D in all_labeled_digraphs(n):
            if not is_strong(D):
                continue
            strong_count += 1
            if strong_in_domatic_number(D).value != brute_force_oracle(D, "dsminus"):
                mismatches += 1
    report(
        1,
        "oracle equivalence",
        mismatches == 0,
        f"{strong_count} strong digraphs over 64+4096 scanned, {mismatches} mismatches",
    )


def test_criterion_2_known_value_regression():
    failures = []

    for n in range(1, 6):
        if strong_in_domatic_number(complete_digraph(n)).value != n:
            failures.append(f"complete({n})")

    for n in (3, 4):
        inst = pair_critical_family(n)
        ok = (
            inst.digraph.vertex_count == 2 * n
            and strong_in_domatic_number(inst.digraph).value == n
            and is_strong_in_domatic_critical(inst.digraph)
        )
        if not ok:
            failures.append(f"pair_critical({n})")

    for p, m in ((6, 2), (7, 3), (9, 4)):
        if strong_in_domatic_number(order_value_family(p, m).digraph).value != m:
            failures.append(f"order_value({p},{m})")

    for p, n in ((6, 2), (6, 3), (8, 2)):
        inst = critical_composition_family(p, n)
        ok = (
            strong_in_domatic_number(inst.digraph).value == n
            and is_strong_in_domatic_critical(inst.digraph)
        )
        if not ok:
            failures.append(f"critical_composition({p},{n})")

    for name, D in (("C3", directed_cycle(3)), ("K3", complete_digraph(3)), ("K4", complete_digraph(4))):
        S, _ = subdivision(D)
        R, _ = root(D)
        if strong_in_domatic_number(S).value != 1 or strong_in_domatic_number(R).value != 1:
            failures.append(f"S/R({name})")

    report(2, "known-value regression", not failures, ", ".join(failures) or "all exact")


def test_criterion_3_line_identity():
    checked = 0
    bad = []
    for n in (3, 4):
        for D in all_labeled_digraphs(n):
            if len(D.arcs) > 10 or not is_strong(D):
                continue
            L, _ = line_digraph(D)
            if strong_in_domatic_number(L).value != lambda_number(D).value:
                bad.append(D.sorted_arcs())
            checked += 1
    k2 = complete_digraph(2)
    L2, _ = line_digraph(k2)
    k2_side_note = (
        strong_in_domatic_number(L2).value == 2 and lambda_number(k2).value == 1
    )
    report(
        3,
        "line identity",
        not bad and k2_side_note,
        f"{checked} digraphs checked, K2 non-example reproduced={k2_side_note}",
    )


def test_criterion_4_law_suite():
    violated = []
    count = 0
    for n in (1, 2, 3, 4):
        for D in all_labeled_digraphs(n):
            if not is_strong(D):
                continue
            rep = check_all(D, subdigraph_samples=5, seed=1)
            count += 1
            for e in rep.violations():
                violated.append((n, D.sorted_arcs(), e.law_id))
    rng = random.Random(7)
    for _ in range(200):
        n = rng.randint(5, 6)
        D = random_strong_digraph(n, rng)
        rep = check_all(D, subdigraph_samples=5, seed=1)
        count += 1
        for e in rep.violations():
            violated.append((n, D.sorted_arcs(), e.law_id))
    report(
        4,
        "law suite",
        not violated,
        f"{count} digraphs, violations={violated[:3] if violated else 0}",
    )


def test_criterion_5_criticality_equivalence():
    applicable = 0
    disagreements = []
    for n in (2, 3, 4):
        for D in all_labeled_digraphs(n):
            if not is_strong(D):
                continue
            result = characterization_holds(D)
            if result.status == NOT_APPLICABLE:
                continue
            applicable += 1
            if (result.status == "holds") != is_strong_in_domatic_critical(D):
                disagreements.append(D.sorted_arcs())
    report(
        5,
        "criticality equivalence",
        not disagreements,
        f"{applicable} digraphs met the hypotheses, disagreements={len(disagreements)}",
    )


def test_criterion_6_constructive_lifts():
    rng = random.Random(2024)
    failures = []

    for trial in range(50):
        D = random_strong_digraph(rng.randint(2, 3), rng)
        H = random_strong_digraph(rng.randint(2, 3), rng)
        P = strong_in_domatic_number(D).witness
        lifted = lift_product_partition(P, D, H)
        prod, _ = cartesian_product(D, H)
        if not is_strong_in_domatic_partition(prod, lifted):
            failures.append(f"product trial {trial}")

    for trial in range(50):
        host = random_strong_digraph(rng.randint(2, 3), rng)
        parts = [empty_digraph(rng.randint(1, 3)) for _ in range(host.vertex_count)]
        P = composition_partition(host, parts)
        C, _ = composition(host, parts)
        if not is_strong_in_domatic_partition(C, P):
            failures.append(f"composition trial {trial}")

    for trial in range(50):
        while True:
            D = random_strong_digraph(rng.randint(3, 4), rng)
            if len(D.arcs) <= 8:
                break
        L, _ = line_digraph(D)
        P = strong_in_domatic_number(L).witness
        lifted = lift_middle_partition(P, D)
        Q, _ = middle(D)
        if not is_strong_in_domatic_partition(Q, lifted):
            failures.append(f"middle trial {trial}")

    for trial in range(50):
        while True:
            D = random_strong_digraph(rng.randint(3, 4), rng)
            if len(D.arcs) <= 8:
                break
        L, _ = line_digraph(D)
        P = strong_in_domatic_number(L).witness
        lifted = lift_total_partition(P, D)
        T, _ = total(D)
        if lifted.block_count != P.block_count + 1:
            failures.append(f"total count trial {trial}")
        elif not is_strong_in_domatic_partition(T, lifted):
            failures.append(f"total trial {trial}")

    report(6, "constructive lifts", not failures, ", ".join(failures) or "4x50 trials")


def test_criterion_7_cli_contract(tmp_path, capsys):
    scenarios = []

    def scenario(name, expected, *argv):
        code = main(list(argv))
        capsys.readouterr()
        scenarios.append((name, expected, code))

    k4 = tmp_path / "k4.dg"
    k4.write_text(write_digraph(complete_digraph(4)))
    c4 = tmp_path / "c4.dg"
    c4.write_text(write_digraph(directed_cycle(4)))
    c3 = tmp_path / "c3.dg"
    c3.write_text(write_digraph(directed_cycle(3)))
    path_file = tmp_path / "path.dg"
    path_file.write_text("n 3\n0 1\n1 2\n")
    bad_file = tmp_path / "bad.dg"
    bad_file.write_text("not a digraph\n")
    good_part = tmp_path / "good.part"
    good_part.write_text("0\n1\n2\n3\n")
    bad_part = tmp_path / "bad.part"
    bad_part.write_text("0 2\n1 3\n")
    whole_part = tmp_path / "whole.part"
    whole_part.write_text("0 1 2\n")
    witness = tmp_path / "witness.part"

    # Round-trip byte identity on a canonical file.
    original = k4.read_text()
    assert write_digraph(parse_digraph(original)) == original

    scenario(
        "compute dsminus K4",
        0,
        "compute", "--in", str(k4), "--what", "dsminus", "--witness-out", str(witness),
    )
    scenario(
        "emitted witness re-verifies",
        0,
        "verify", "--in", str(k4), "--partition", str(witness),
    )
    scenario("compute on non-strong input", 3, "compute", "--in", str(path_file), "--what", "dsminus")
    scenario("compute on malformed file", 2, "compute", "--in", str(bad_file), "--what", "dsminus")
    scenario("verify valid singletons", 0, "verify", "--in", str(k4), "--partition", str(good_part))
    scenario("verify failing blocks", 1, "verify", "--in", str(c4), "--partition", str(bad_part))
    scenario("verify whole cycle", 0, "verify", "--in", str(c3), "--partition", str(whole_part))
    out_file = tmp_path / "line.dg"
    scenario(
        "transform line of C3",
        0,
        "transform", "--in", str(c3), "--op", "line", "--out", str(out_file),
    )
    scenario(
        "generate with violated constraint",
        3,
        "generate", "--family", "order-value", "--params", "p=6", "m=4",
        "--out", str(tmp_path / "x.dg"),
    )
    scenario("oracle scan order 3", 0, "oracle", "--max-n", "3")

    line_result = parse_digraph(out_file.read_text())
    structure_ok = isomorphic(line_result, directed_cycle(3))

    bad = [s for s in scenarios if s[1] != s[2]]
    report(
        7,
        "cli contract",
        not bad and structure_ok,
        f"{len(scenarios)} scenarios; " + (f"failed: {bad}" if bad else "all exit codes as documented"),
    )
