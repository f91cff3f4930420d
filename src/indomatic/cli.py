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
from .core import Digraph, Inapplicable, converse, is_strong
from .critical import (
    NOT_APPLICABLE,
    characterize,
    deletion_profile,
    first_failure,
)
from .domination import (
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
    clique_domination_number,
    connected_domatic_number,
    underlying_graph,
    vertex_connectivity,
)

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INPUT = 2
EXIT_INAPPLICABLE = 3

ORACLE_LAMBDA_ARCS = 8  # arc partitions are only cross-checked below this


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


def _on_graph(invariant):
    """``invariant`` of the underlying graph of the digraph read."""
    return lambda D: invariant(underlying_graph(D))


# Each --what value: its function of the digraph read, and the writer of
# its witness.  The function returns a SolveResult, or, where the writer
# is None, a bare number (None, when there is none, prints as ``none``).
_INVARIANTS = {
    "dsminus": (strong_in_domatic_number, fileio.write_partition),
    "dsplus": (strong_out_domatic_number, fileio.write_partition),
    "lambda": (lambda_number, fileio.write_arc_partition),
    "indomatic": (in_domatic_number, fileio.write_partition),
    "dc": (_on_graph(connected_domatic_number), fileio.write_partition),
    "kappa": (_on_graph(vertex_connectivity), None),
    "gammacl": (_on_graph(clique_domination_number), None),
}


def cmd_compute(args) -> int:
    compute, write = _INVARIANTS[args.what]
    if args.witness_out and write is None:
        raise Inapplicable(f"{args.what} has no witness to write")
    result = compute(_read_digraph(args.infile))
    if write is None:
        print("none" if result is None else result)
        return EXIT_OK
    print(result.value)
    witness = write(result.witness)
    if args.witness_out:
        _write_text(args.witness_out, witness)
    else:
        sys.stdout.write(witness)
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


# Each op: its builder, called with D and the --with digraphs and
# returning (digraph, origins); how many --with digraphs it takes (None:
# one per vertex of D); and the error when it gets another number.
_NO_WITH = "{op} takes no --with digraph, got {got}"
_TRANSFORMS = {
    "line": (transforms.line_digraph, 0, _NO_WITH),
    "subdivision": (transforms.subdivision, 0, _NO_WITH),
    "root": (transforms.root, 0, _NO_WITH),
    "middle": (transforms.middle, 0, _NO_WITH),
    "total": (transforms.total, 0, _NO_WITH),
    "converse": (lambda D: (converse(D), None), 0, _NO_WITH),
    "product": (transforms.cartesian_product, 1, "product needs exactly one --with digraph"),
    "compose": (
        lambda D, *parts: transforms.composition(D, parts),
        None,
        "compose needs one --with digraph per host vertex ({need}), got {got}",
    ),
}


def cmd_transform(args) -> int:
    D = _read_digraph(args.infile)
    extra = [_read_digraph(path) for path in args.with_files or []]
    op = args.op
    build, count, error = _TRANSFORMS[op]
    need = D.vertex_count if count is None else count
    if len(extra) != need:
        raise ParseError(error.format(op=op, need=need, got=len(extra)))
    out, origins = build(D, *extra)
    _write_text(args.out, fileio.write_digraph(out))
    if args.dot:
        _write_text(args.dot, fileio.write_dot(out, origins))
    return EXIT_OK


# ---------------------------------------------------------------------------
# generate


def _parse_params(family: str, names: tuple, pairs: Optional[List[str]]) -> dict:
    params = {}
    for pair in pairs or []:
        if "=" not in pair:
            raise ParseError(f"parameter {pair!r} is not key=value")
        key, _, value = pair.partition("=")
        if key not in names:
            raise ParseError(f"family {family!r} takes no parameter {key!r}")
        if key in params:
            raise ParseError(f"parameter {key!r} is given twice")
        try:
            params[key] = int(value)
        except ValueError:
            raise ParseError(f"parameter {pair!r} needs an integer value")
    for key in names:
        if key not in params:
            raise ParseError(f"family {family!r} needs parameter {key!r}")
    return params


def cmd_generate(args) -> int:
    family = args.family
    names, build = families.GENERATE[family]
    params = _parse_params(family, names, args.params)
    inst = build(*(params[key] for key in names))
    _write_text(args.out, fileio.write_digraph(inst.digraph))
    if inst.canonical_partition is not None:
        _write_text(args.out + ".partition", fileio.write_partition(inst.canonical_partition))
    claims = {
        "family": family,
        "params": params,
        "claimed_value": inst.claimed_value,
        "claimed_critical": inst.claimed_critical,
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
    for record in profile.records:
        after = "-" if record.value_after is None else str(record.value_after)
        print(f"({record.arc[0]},{record.arc[1]})".ljust(11) + f"{str(record.still_strong).lower():<14}{after}")
    reason = first_failure(profile)
    print(f"critical: {'yes' if reason is None else f'no ({reason})'}")
    result = characterize(profile.partitions, profile.breaking_arc)
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
    if args.random < 0:
        raise Inapplicable("--random must be nonnegative")
    low = args.max_n + 1
    if args.random and low > args.up_to:
        raise Inapplicable("--up-to must exceed --max-n for random instances")

    def mismatch(D: Digraph, kind: str, where: str = "") -> bool:
        # The --what solver of ``kind`` against the oracle; a disagreement is printed.
        if _INVARIANTS[kind][0](D).value == brute_force_oracle(D, kind):
            return False
        print(f"{kind} mismatch on {where}arcs={D.sorted_arcs()}")
        return True

    scanned = strong = mismatches = lambda_checked = 0
    for D in families.all_labeled_digraphs(args.max_n):
        scanned += 1
        if not is_strong(D):
            continue
        strong += 1
        mismatches += mismatch(D, "dsminus")
        if 1 <= len(D.arcs) <= ORACLE_LAMBDA_ARCS:
            lambda_checked += 1
            mismatches += mismatch(D, "lambda")
    rng = Random(args.seed)
    for _ in range(args.random):
        D = families.random_strong_digraph(rng.randint(low, args.up_to), rng)
        mismatches += mismatch(D, "dsminus", f"n={D.vertex_count} ")
    print(
        f"scanned={scanned} strong={strong} lambda_checked={lambda_checked} "
        f"random={args.random} mismatches={mismatches}"
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
    # The --in digraph file of every subcommand that reads one.
    reads = argparse.ArgumentParser(add_help=False)
    reads.add_argument("--in", dest="infile", required=True)

    p = sub.add_parser("compute", parents=[reads], help="compute an invariant of a digraph file")
    p.add_argument(
        "--what",
        required=True,
        choices=list(_INVARIANTS),
    )
    p.add_argument("--witness-out", dest="witness_out")
    p.set_defaults(func=cmd_compute)

    p = sub.add_parser("verify", parents=[reads], help="verify a partition file against a digraph")
    p.add_argument("--partition", required=True)
    p.add_argument("--mode", choices=["in", "out"], default="in")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("transform", parents=[reads], help="build a derived digraph")
    p.add_argument("--op", required=True, choices=list(_TRANSFORMS))
    p.add_argument("--with", dest="with_files", action="append")
    p.add_argument("--out", required=True)
    p.add_argument("--dot")
    p.set_defaults(func=cmd_transform)

    p = sub.add_parser("generate", help="generate a named digraph family")
    p.add_argument("--family", required=True, choices=list(families.GENERATE))
    p.add_argument("--params", nargs="*", metavar="KEY=VALUE")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser(
        "critical", parents=[reads], help="per-arc deletion profile and criticality"
    )
    p.set_defaults(func=cmd_critical)

    p = sub.add_parser("laws", parents=[reads], help="evaluate the full law suite")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_laws)

    p = sub.add_parser("oracle", help="exhaustive solver-vs-oracle comparison")
    p.add_argument("--max-n", dest="max_n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--random", type=int, default=0)
    p.add_argument("--up-to", dest="up_to", type=int, default=6)
    p.set_defaults(func=cmd_oracle)

    return parser


# Built by the first ``main`` call and reused: building costs far more than
# parsing, and parsing leaves the parser as it was.
_parser: Optional[argparse.ArgumentParser] = None


def main(argv=None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    try:
        return args.func(args)
    # Inapplicable (NotStrongError among them) is a ValueError, and so is
    # ParseError: order matters.
    except Inapplicable as exc:
        print(f"not applicable: {exc}", file=sys.stderr)
        return EXIT_INAPPLICABLE
    except (OSError, ValueError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
