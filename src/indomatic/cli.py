"""Command-line front end.

Exit codes are a stable scripting contract: 0 success (or: every checked
law holds), 1 semantic negative (verification or comparison failed),
2 malformed input, 3 inapplicable operation or parameter violation.
"""
from __future__ import annotations

import argparse
import json
import sys
from random import Random
from typing import List, Optional

from . import families, fileio, laws, transforms
from .core import Digraph, NotStrongError, converse, is_strong
from .critical import (
    NOT_APPLICABLE,
    characterization_holds,
    deletion_profile,
)
from .domination import (
    VertexPartition,
    check_strong_in_domatic_partition,
    check_strong_out_domatic_partition,
)
from .fileio import ParseError
from .solver import (
    ORACLE_VERTEX_CAP,
    brute_force_oracle,
    in_domatic_number,
    lambda_number,
    strong_in_domatic_number,
    strong_out_domatic_number,
)
from .undirected import (
    NO_DOMINATING_CLIQUE,
    clique_domination_number,
    connected_domatic_number,
    is_connected,
    underlying_graph,
    vertex_connectivity,
)

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INPUT = 2
EXIT_INAPPLICABLE = 3

ORACLE_LAMBDA_ARCS = 8  # arc partitions are only cross-checked below this


class Inapplicable(Exception):
    """Requested operation has nothing to say about this input."""


def _read_text(path: str) -> str:
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _read_digraph(path: str) -> Digraph:
    return fileio.parse_digraph(_read_text(path))


def _write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)


# ---------------------------------------------------------------------------
# compute


def cmd_compute(args) -> int:
    D = _read_digraph(args.infile)
    what = args.what
    witness_text = None
    if what == "dsminus":
        result = strong_in_domatic_number(D)
        value = result.value
        witness_text = fileio.write_partition(result.witness)
    elif what == "dsplus":
        result = strong_out_domatic_number(D)
        value = result.value
        witness_text = fileio.write_partition(result.witness)
    elif what == "lambda":
        if D.vertex_count < 2 or not D.arcs:
            raise Inapplicable("arc covers need a digraph with at least one arc")
        result = lambda_number(D)
        value = result.value
        witness_text = fileio.write_arc_partition(result.witness)
    elif what == "indomatic":
        result = in_domatic_number(D)
        value = result.value
        witness_text = fileio.write_partition(result.witness)
    elif what == "dc":
        G = underlying_graph(D)
        if not is_connected(G):
            raise Inapplicable("connected domatic number needs a connected underlying graph")
        value, blocks = connected_domatic_number(G)
        lines = [" ".join(str(v) for v in sorted(b)) for b in blocks]
        witness_text = "\n".join(lines) + "\n"
    elif what == "kappa":
        G = underlying_graph(D)
        if G.vertex_count < 2 or not is_connected(G):
            raise Inapplicable(
                "vertex connectivity needs a connected underlying graph of order two or more"
            )
        value = vertex_connectivity(G)
    elif what == "gammacl":
        G = underlying_graph(D)
        result = clique_domination_number(G)
        if result is NO_DOMINATING_CLIQUE:
            print("none")
            return EXIT_OK
        value = result
    else:  # pragma: no cover - argparse restricts choices
        raise ValueError(f"unknown invariant {what!r}")
    print(value)
    if witness_text is not None:
        if args.witness_out:
            _write_text(args.witness_out, witness_text)
        else:
            sys.stdout.write(witness_text)
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify


def cmd_verify(args) -> int:
    D = _read_digraph(args.infile)
    P = fileio.parse_partition(_read_text(args.partition), D)
    if args.mode == "out":
        diagnosis = check_strong_out_domatic_partition(D, P)
        kind = "strong out-domatic"
    else:
        diagnosis = check_strong_in_domatic_partition(D, P)
        kind = "strong in-domatic"
    if diagnosis.ok:
        print(f"valid {kind} partition with {P.block_count} blocks")
        return EXIT_OK
    print(f"block {diagnosis.failing_block}: {diagnosis.reason}")
    return EXIT_NEGATIVE


# ---------------------------------------------------------------------------
# transform


def cmd_transform(args) -> int:
    D = _read_digraph(args.infile)
    extra = [_read_digraph(path) for path in args.with_files or []]
    op = args.op
    tags = None
    if op in ("product", "compose"):
        if op == "product":
            if len(extra) != 1:
                raise ParseError("product needs exactly one --with digraph")
            out, _ = transforms.cartesian_product(D, extra[0])
        else:
            if len(extra) != D.vertex_count:
                raise ParseError(
                    f"compose needs one --with digraph per host vertex "
                    f"({D.vertex_count}), got {len(extra)}"
                )
            out, _ = transforms.composition(transforms.CompositionSpec.of(D, extra))
    elif op == "converse":
        out = converse(D)
    else:
        if not D.arcs:
            raise Inapplicable(f"{op} needs at least one arc")
        builder = {
            "line": transforms.line_digraph,
            "subdivision": transforms.subdivision,
            "root": transforms.root,
            "middle": transforms.middle,
            "total": transforms.total,
        }[op]
        out, mapping = builder(D)
        if op != "line":
            tags = mapping
    _write_text(args.out, fileio.write_digraph(out))
    if args.dot:
        _write_text(args.dot, fileio.write_dot(out, tags))
    return EXIT_OK


# ---------------------------------------------------------------------------
# generate


def _parse_params(pairs: Optional[List[str]]) -> dict:
    params = {}
    for pair in pairs or []:
        if "=" not in pair:
            raise ParseError(f"parameter {pair!r} is not key=value")
        key, _, value = pair.partition("=")
        try:
            params[key] = int(value)
        except ValueError:
            raise ParseError(f"parameter {pair!r} needs an integer value")
    return params


def cmd_generate(args) -> int:
    params = _parse_params(args.params)
    family = args.family
    partition = None
    claimed_value = None
    claimed_critical = None
    try:
        if family == "complete":
            D = families.complete_digraph(params["n"])
            partition = VertexPartition.from_blocks([[v] for v in range(params["n"])])
            claimed_value = params["n"]
        elif family == "cycle":
            D = families.directed_cycle(params["n"])
            if params["n"] == 2:
                partition = VertexPartition.from_blocks([[0], [1]])
                claimed_value = 2
            else:
                partition = VertexPartition.from_blocks([range(params["n"])])
                claimed_value = 1
        elif family == "empty":
            D = families.empty_digraph(params["n"])
        elif family == "pair-critical":
            inst = families.pair_critical_family(params["n"])
            D, partition = inst.digraph, inst.canonical_partition
            claimed_value, claimed_critical = inst.claimed_value, inst.claimed_critical
        elif family == "order-value":
            inst = families.order_value_family(params["p"], params["m"])
            D, partition = inst.digraph, inst.canonical_partition
            claimed_value, claimed_critical = inst.claimed_value, inst.claimed_critical
        elif family == "critical-composition":
            inst = families.critical_composition_family(params["p"], params["n"])
            D, partition = inst.digraph, inst.canonical_partition
            claimed_value, claimed_critical = inst.claimed_value, inst.claimed_critical
        else:  # pragma: no cover - argparse restricts choices
            raise ValueError(f"unknown family {family!r}")
    except KeyError as exc:
        raise ParseError(f"family {family!r} needs parameter {exc.args[0]!r}")
    except ValueError as exc:
        raise Inapplicable(str(exc))
    _write_text(args.out, fileio.write_digraph(D))
    if partition is not None:
        _write_text(args.out + ".partition", fileio.write_partition(partition))
    claims = {
        "family": family,
        "params": params,
        "claimed_value": claimed_value,
        "claimed_critical": claimed_critical,
    }
    _write_text(args.out + ".claims.json", json.dumps(claims, sort_keys=True) + "\n")
    print(f"wrote {args.out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# critical


def cmd_critical(args) -> int:
    D = _read_digraph(args.infile)
    profile = deletion_profile(D)
    print(f"strong in-domatic number: {profile.value}")
    print("arc        still-strong  value-after")
    critical = True
    reason = None
    for record in profile.records:
        after = "-" if record.value_after is None else str(record.value_after)
        print(f"({record.arc[0]},{record.arc[1]})".ljust(11) + f"{str(record.still_strong).lower():<14}{after}")
        if not record.still_strong:
            critical = False
            if reason is None:
                reason = f"arc {record.arc} deletion destroys strongness"
        elif record.value_after != profile.value - 1:
            critical = False
            if reason is None:
                reason = (
                    f"arc {record.arc} deletion leaves value {record.value_after}"
                )
    print(f"critical: {'yes' if critical else 'no' + (' (' + reason + ')' if reason else '')}")
    result = characterization_holds(D)
    if result.status == NOT_APPLICABLE:
        print(f"characterization: not applicable ({result.reason})")
    else:
        print(f"characterization: {result.status}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# laws


def cmd_laws(args) -> int:
    D = _read_digraph(args.infile)
    report = laws.check_all(D)
    if args.json:
        print(json.dumps(report.to_records(), indent=2, sort_keys=True))
    else:
        sys.stdout.write(report.to_text())
    return EXIT_OK if not report.violations() else EXIT_NEGATIVE


# ---------------------------------------------------------------------------
# oracle


def cmd_oracle(args) -> int:
    if args.max_n not in (3, 4):
        raise Inapplicable("exhaustive scan supports orders 3 and 4")
    if args.up_to > ORACLE_VERTEX_CAP:
        raise Inapplicable(f"oracle cross-checks are capped at order {ORACLE_VERTEX_CAP}")
    scanned = strong = mismatches = lambda_checked = 0
    for D in families.all_labeled_digraphs(args.max_n):
        scanned += 1
        if not is_strong(D):
            continue
        strong += 1
        if strong_in_domatic_number(D).value != brute_force_oracle(D, "dsminus"):
            mismatches += 1
            print(f"dsminus mismatch on arcs={D.sorted_arcs()}")
        if 1 <= len(D.arcs) <= ORACLE_LAMBDA_ARCS:
            lambda_checked += 1
            if lambda_number(D).value != brute_force_oracle(D, "lambda"):
                mismatches += 1
                print(f"lambda mismatch on arcs={D.sorted_arcs()}")
    random_checked = 0
    if args.random:
        rng = Random(args.seed)
        low = args.max_n + 1
        if low > args.up_to:
            raise Inapplicable("--up-to must exceed --max-n for random instances")
        while random_checked < args.random:
            order = rng.randint(low, args.up_to)
            D = families.random_strong_digraph(order, rng)
            random_checked += 1
            if strong_in_domatic_number(D).value != brute_force_oracle(D, "dsminus"):
                mismatches += 1
                print(f"dsminus mismatch on n={order} arcs={D.sorted_arcs()}")
    print(
        f"scanned={scanned} strong={strong} lambda_checked={lambda_checked} "
        f"random={random_checked} mismatches={mismatches}"
    )
    return EXIT_OK if mismatches == 0 else EXIT_NEGATIVE


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="indomatic",
        description="Exact strong in-domatic invariants of digraphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compute", help="compute an invariant of a digraph file")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument(
        "--what",
        required=True,
        choices=["dsminus", "dsplus", "lambda", "indomatic", "dc", "kappa", "gammacl"],
    )
    p.add_argument("--witness-out", dest="witness_out")
    p.set_defaults(func=cmd_compute)

    p = sub.add_parser("verify", help="verify a partition file against a digraph")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--partition", required=True)
    p.add_argument("--mode", choices=["in", "out"], default="in")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("transform", help="build a derived digraph")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument(
        "--op",
        required=True,
        choices=[
            "line",
            "subdivision",
            "root",
            "middle",
            "total",
            "converse",
            "product",
            "compose",
        ],
    )
    p.add_argument("--with", dest="with_files", action="append")
    p.add_argument("--out", required=True)
    p.add_argument("--dot")
    p.set_defaults(func=cmd_transform)

    p = sub.add_parser("generate", help="generate a named digraph family")
    p.add_argument(
        "--family",
        required=True,
        choices=[
            "complete",
            "cycle",
            "empty",
            "pair-critical",
            "order-value",
            "critical-composition",
        ],
    )
    p.add_argument("--params", nargs="*", metavar="KEY=VALUE")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("critical", help="per-arc deletion profile and criticality")
    p.add_argument("--in", dest="infile", required=True)
    p.set_defaults(func=cmd_critical)

    p = sub.add_parser("laws", help="evaluate the full law suite")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_laws)

    p = sub.add_parser("oracle", help="exhaustive solver-vs-oracle comparison")
    p.add_argument("--max-n", dest="max_n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--random", type=int, default=0)
    p.add_argument("--up-to", dest="up_to", type=int, default=6)
    p.set_defaults(func=cmd_oracle)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except OSError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (NotStrongError, Inapplicable) as exc:
        print(f"not applicable: {exc}", file=sys.stderr)
        return EXIT_INAPPLICABLE
    except ValueError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
