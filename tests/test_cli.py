import json
import re

import pytest

from indomatic import (
    all_labeled_digraphs,
    complete_digraph,
    directed_cycle,
    is_strong,
    make_digraph,
)
from indomatic import cli
from indomatic.cli import main
from indomatic.fileio import parse_digraph, parse_partition, write_digraph

from .conftest import isomorphic


@pytest.fixture
def workdir(tmp_path):
    def save(name, digraph):
        path = tmp_path / name
        path.write_text(write_digraph(digraph))
        return str(path)

    return tmp_path, save


def run(*argv):
    return main(list(argv))


class TestCompute:
    def test_dsminus_complete4(self, workdir, capsys):
        tmp, save = workdir
        path = save("k4.dg", complete_digraph(4))
        witness = str(tmp / "w.part")
        assert run("compute", "--in", path, "--what", "dsminus", "--witness-out", witness) == 0
        assert capsys.readouterr().out.strip() == "4"
        assert run("verify", "--in", path, "--partition", witness) == 0

    def test_dsminus_cycle5(self, workdir, capsys):
        _, save = workdir
        path = save("c5.dg", directed_cycle(5))
        assert run("compute", "--in", path, "--what", "dsminus") == 0
        assert capsys.readouterr().out.splitlines()[0] == "1"

    def test_dsminus_path_inapplicable(self, workdir, capsys):
        tmp, _ = workdir
        path = tmp / "path.dg"
        path.write_text("n 3\n0 1\n1 2\n")
        assert run("compute", "--in", str(path), "--what", "dsminus") == 3
        assert "if and only if" in capsys.readouterr().err

    def test_lambda(self, workdir, capsys):
        _, save = workdir
        path = save("k3.dg", complete_digraph(3))
        assert run("compute", "--in", path, "--what", "lambda") == 0
        assert capsys.readouterr().out.splitlines()[0] == "2"

    def test_lambda_witness_bytes(self, workdir, capsys):
        _, save = workdir
        path = save("k5.dg", complete_digraph(5))
        assert run("compute", "--in", path, "--what", "lambda") == 0
        assert capsys.readouterr().out == (
            "4\n"
            "0,1 1,4 2,0 3,2 4,3\n"
            "0,2 1,0 2,3 3,4 4,1\n"
            "0,3 1,2 2,4 3,1 4,0\n"
            "0,4 1,3 2,1 3,0 4,2\n"
        )

    def test_kappa_gammacl_dc(self, workdir, capsys):
        _, save = workdir
        path = save("k4.dg", complete_digraph(4))
        assert run("compute", "--in", path, "--what", "kappa") == 0
        assert capsys.readouterr().out.strip() == "3"
        assert run("compute", "--in", path, "--what", "gammacl") == 0
        assert capsys.readouterr().out.strip() == "1"
        assert run("compute", "--in", path, "--what", "dc") == 0
        assert capsys.readouterr().out.splitlines()[0] == "4"

    @pytest.mark.parametrize(
        "digraph, value, witness",
        [
            (directed_cycle(4), "2\n", "0 1\n2 3\n"),
            (complete_digraph(4), "4\n", "0\n1\n2\n3\n"),
        ],
    )
    def test_dc_witness_bytes(self, workdir, capsys, digraph, value, witness):
        tmp, save = workdir
        path = save("d.dg", digraph)
        assert run("compute", "--in", path, "--what", "dc") == 0
        assert capsys.readouterr().out == value + witness
        out = tmp / "w.part"
        assert run("compute", "--in", path, "--what", "dc", "--witness-out", str(out)) == 0
        assert capsys.readouterr().out == value
        assert out.read_text() == witness

    @pytest.mark.parametrize("what", ["kappa", "gammacl"])
    def test_witness_out_rejected_without_witness(self, workdir, capsys, what):
        tmp, save = workdir
        path = save("k4.dg", complete_digraph(4))
        out = tmp / "w.part"
        assert run("compute", "--in", path, "--what", what, "--witness-out", str(out)) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"not applicable: {what} has no witness to write\n"
        assert not out.exists()

    def test_gammacl_absent(self, workdir, capsys):
        _, save = workdir
        path = save("c5.dg", directed_cycle(5))
        assert run("compute", "--in", path, "--what", "gammacl") == 0
        assert capsys.readouterr().out.strip() == "none"

    def test_parse_error(self, workdir, capsys):
        tmp, _ = workdir
        path = tmp / "bad.dg"
        path.write_text("garbage\n")
        assert run("compute", "--in", str(path), "--what", "dsminus") == 2

    def test_missing_file(self):
        assert run("compute", "--in", "/nonexistent.dg", "--what", "dsminus") == 2

    _NOT_STRONG = (
        "not applicable: no strong in-domatic partition exists: "
        "a digraph has one if and only if it is strong\n"
    )
    _NO_ARCS = "not applicable: arc covers need a digraph with at least one arc\n"
    _DC_DISCONNECTED = (
        "not applicable: connected domatic number needs a connected underlying graph\n"
    )
    _KAPPA = (
        "not applicable: vertex connectivity needs a connected underlying graph "
        "of order two or more\n"
    )
    _TWO_COMPONENTS = "n 4\n0 1\n1 0\n2 3\n3 2\n"
    # The order-0 digraph is well formed: an invariant undefined on it is
    # inapplicable (exit 3), not an input error.
    _EMPTY_NOT_STRONG = "not applicable: strong connectivity is undefined for the empty digraph\n"

    @pytest.mark.parametrize(
        "text,what,code,out,err",
        [
            (
                "garbage\n",
                "dsminus",
                2,
                "",
                "input error: line 1: expected 'n <vertex_count>', got 'garbage'\n",
            ),
            (None, "dsminus", 2, "", "input error: [Errno 2] No such file or directory: {path!r}\n"),
            ("n 3\n0 1\n1 2\n", "dsminus", 3, "", _NOT_STRONG),
            ("n 0\n", "dsminus", 3, "", _EMPTY_NOT_STRONG),
            ("n -1\n", "dsminus", 2, "", "input error: line 1: vertex_count must be nonnegative, got -1\n"),
            (
                "n -1\n0 1\n",
                "dsminus",
                2,
                "",
                "input error: line 1: vertex_count must be nonnegative, got -1\n",
            ),
            ("n 0\n", "lambda", 3, "", _NO_ARCS),
            ("n 1\n", "lambda", 3, "", _NO_ARCS),
            ("n 3\n", "lambda", 3, "", _NO_ARCS),
            (_TWO_COMPONENTS, "lambda", 3, "", _NOT_STRONG),
            ("n 0\n", "dc", 3, "", "not applicable: connectivity is undefined for the empty graph\n"),
            ("n 1\n", "dc", 0, "1\n0\n", ""),
            ("n 3\n", "dc", 3, "", _DC_DISCONNECTED),
            (_TWO_COMPONENTS, "dc", 3, "", _DC_DISCONNECTED),
            ("n 0\n", "kappa", 3, "", _KAPPA),
            ("n 1\n", "kappa", 3, "", _KAPPA),
            ("n 3\n", "kappa", 3, "", _KAPPA),
            (_TWO_COMPONENTS, "kappa", 3, "", _KAPPA),
            ("n 0\n", "gammacl", 3, "", "not applicable: empty graph\n"),
            ("n 1\n", "gammacl", 0, "1\n", ""),
            ("n 3\n", "gammacl", 0, "none\n", ""),
            (_TWO_COMPONENTS, "gammacl", 0, "none\n", ""),
            ("n 0\n", "dsplus", 3, "", _EMPTY_NOT_STRONG),
            ("n 0\n", "indomatic", 3, "", "not applicable: empty digraph\n"),
            ("n x\n", "dsminus", 2, "", "input error: line 1: vertex count 'x' is not an integer\n"),
            ("n 3\n0 1 2\n", "dsminus", 2, "", "input error: line 2: expected 'u v', got '0 1 2'\n"),
        ],
        ids=[
            "malformed", "missing", "not-strong", "empty", "negative", "negative-with-arc",
            *(
                f"{what}-{graph}"
                for what in ("lambda", "dc", "kappa", "gammacl")
                for graph in ("empty", "single", "arcless", "two-components")
            ),
            "dsplus-empty", "indomatic-empty", "non-integer-order", "three-field-arc",
        ],
    )
    def test_error_bytes(self, tmp_path, capsys, text, what, code, out, err):
        path = tmp_path / "in.dg"
        if text is not None:
            path.write_text(text)
        assert run("compute", "--in", str(path), "--what", what) == code
        captured = capsys.readouterr()
        assert captured.out == out
        assert captured.err == err.format(path=str(path))


class TestVerify:
    def test_valid_singletons(self, workdir, capsys):
        tmp, save = workdir
        path = save("k4.dg", complete_digraph(4))
        part = tmp / "p.part"
        part.write_text("0\n1\n2\n3\n")
        assert run("verify", "--in", path, "--partition", str(part)) == 0

    def test_invalid_blocks(self, workdir, capsys):
        tmp, save = workdir
        path = save("c4.dg", directed_cycle(4))
        part = tmp / "p.part"
        part.write_text("0 2\n1 3\n")
        assert run("verify", "--in", path, "--partition", str(part)) == 1
        assert "block 0" in capsys.readouterr().out

    def test_whole_cycle(self, workdir):
        tmp, save = workdir
        path = save("c3.dg", directed_cycle(3))
        part = tmp / "p.part"
        part.write_text("0 1 2\n")
        assert run("verify", "--in", path, "--partition", str(part)) == 0

    def test_out_mode(self, workdir):
        tmp, save = workdir
        path = save("k4.dg", complete_digraph(4))
        part = tmp / "p.part"
        part.write_text("0\n1\n2\n3\n")
        assert run("verify", "--in", path, "--partition", str(part), "--mode", "out") == 0

    def test_malformed_partition(self, workdir):
        tmp, save = workdir
        path = save("c3.dg", directed_cycle(3))
        part = tmp / "p.part"
        part.write_text("0 1\n")
        assert run("verify", "--in", path, "--partition", str(part)) == 2

    def test_non_integer_member(self, workdir, capsys):
        tmp, save = workdir
        path = save("c3.dg", directed_cycle(3))
        part = tmp / "p.part"
        part.write_text("0 a\n")
        assert run("verify", "--in", path, "--partition", str(part)) == 2
        assert capsys.readouterr().err == "input error: line 1: non-integer vertex id 'a'\n"


class TestTransform:
    def test_line_of_cycle(self, workdir, tmp_path):
        _, save = workdir
        path = save("c3.dg", directed_cycle(3))
        out = str(tmp_path / "out.dg")
        assert run("transform", "--in", path, "--op", "line", "--out", out) == 0
        result = parse_digraph(open(out).read())
        assert isomorphic(result, directed_cycle(3))

    def test_subdivision_of_cycle(self, workdir, tmp_path):
        _, save = workdir
        path = save("c3.dg", directed_cycle(3))
        out = str(tmp_path / "out.dg")
        dot = str(tmp_path / "out.dot")
        assert run("transform", "--in", path, "--op", "subdivision", "--out", out, "--dot", dot) == 0
        result = parse_digraph(open(out).read())
        assert isomorphic(result, directed_cycle(6))
        assert 'label="a(0,1)"' in open(dot).read()

    def test_product(self, workdir, tmp_path):
        _, save = workdir
        a = save("k2a.dg", complete_digraph(2))
        b = save("k2b.dg", complete_digraph(2))
        out = str(tmp_path / "out.dg")
        assert run("transform", "--in", a, "--op", "product", "--with", b, "--out", out) == 0
        result = parse_digraph(open(out).read())
        assert result.vertex_count == 4 and len(result.arcs) == 8

    def test_product_missing_factor(self, workdir, tmp_path):
        _, save = workdir
        a = save("k2.dg", complete_digraph(2))
        assert run("transform", "--in", a, "--op", "product", "--out", str(tmp_path / "x")) == 2

    def test_compose(self, workdir, tmp_path):
        _, save = workdir
        host = save("c3.dg", directed_cycle(3))
        e2 = save("e2.dg", make_digraph(2, []))
        out = str(tmp_path / "out.dg")
        assert (
            run(
                "transform", "--in", host, "--op", "compose",
                "--with", e2, "--with", e2, "--with", e2, "--out", out,
            )
            == 0
        )
        result = parse_digraph(open(out).read())
        assert result.vertex_count == 6 and len(result.arcs) == 12

    @pytest.mark.parametrize("op", ["line", "subdivision", "root", "middle", "total"])
    def test_line_of_arcless_inapplicable(self, workdir, tmp_path, capsys, op):
        _, save = workdir
        path = save("e2.dg", make_digraph(2, []))
        out, dot = tmp_path / "x", tmp_path / "x.dot"
        assert run("transform", "--in", path, "--op", op, "--out", str(out), "--dot", str(dot)) == 3
        assert capsys.readouterr().err == f"not applicable: {op} needs at least one arc\n"
        assert not out.exists() and not dot.exists()

    @pytest.mark.parametrize(
        "op, message",
        [
            ("product", "both factors must be nonempty"),
            ("compose", "every part needs at least one vertex"),
        ],
    )
    def test_order_zero_factor_or_part_inapplicable(self, workdir, tmp_path, capsys, op, message):
        _, save = workdir
        k1 = save("k1.dg", make_digraph(1, []))
        e0 = save("e0.dg", make_digraph(0, []))
        out = tmp_path / "x.dg"
        assert run("transform", "--in", k1, "--op", op, "--with", e0, "--out", str(out)) == 3
        assert capsys.readouterr().err == f"not applicable: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("op", ["line", "subdivision", "converse"])
    def test_with_rejected_where_unused(self, workdir, tmp_path, capsys, op):
        _, save = workdir
        path = save("c3.dg", directed_cycle(3))
        k2 = save("k2.dg", complete_digraph(2))
        out = tmp_path / "x.dg"
        assert run("transform", "--in", path, "--op", op, "--with", k2, "--out", str(out)) == 2
        assert capsys.readouterr().err == f"input error: {op} takes no --with digraph, got 1\n"
        assert not out.exists()

    def test_compose_count_bytes(self, workdir, tmp_path, capsys):
        _, save = workdir
        path = save("c3.dg", directed_cycle(3))
        k2 = save("k2.dg", complete_digraph(2))
        argv = ["transform", "--in", path, "--op", "compose", "--with", k2, "--out", str(tmp_path / "x")]
        assert run(*argv) == 2
        assert capsys.readouterr().err == (
            "input error: compose needs one --with digraph per host vertex (3), got 1\n"
        )

    # DOT bytes of every op on the directed 3-cycle, with K2* as each --with
    # digraph: only subdivision-family origins are labelled.
    @pytest.mark.parametrize(
        "op,dot",
        [
            (
                "line",
                "digraph G {\n  0;\n  1;\n  2;\n  0 -> 1;\n  1 -> 2;\n  2 -> 0;\n}\n"
            ),
            (
                "subdivision",
                'digraph G {\n  0 [label="v0"];\n  1 [label="v1"];\n'
                '  2 [label="v2"];\n  3 [label="a(0,1)"];\n  4 [label="a(1,2)"];\n'
                '  5 [label="a(2,0)"];\n  0 -> 3;\n  1 -> 4;\n  2 -> 5;\n  3 -> 1;\n'
                "  4 -> 2;\n  5 -> 0;\n}\n"
            ),
            (
                "root",
                'digraph G {\n  0 [label="v0"];\n  1 [label="v1"];\n'
                '  2 [label="v2"];\n  3 [label="a(0,1)"];\n  4 [label="a(1,2)"];\n'
                '  5 [label="a(2,0)"];\n  0 -> 1;\n  0 -> 3;\n  1 -> 2;\n  1 -> 4;\n'
                "  2 -> 0;\n  2 -> 5;\n  3 -> 1;\n  4 -> 2;\n  5 -> 0;\n}\n"
            ),
            (
                "middle",
                'digraph G {\n  0 [label="v0"];\n  1 [label="v1"];\n'
                '  2 [label="v2"];\n  3 [label="a(0,1)"];\n  4 [label="a(1,2)"];\n'
                '  5 [label="a(2,0)"];\n  0 -> 3;\n  1 -> 4;\n  2 -> 5;\n  3 -> 1;\n'
                "  3 -> 4;\n  4 -> 2;\n  4 -> 5;\n  5 -> 0;\n  5 -> 3;\n}\n"
            ),
            (
                "total",
                'digraph G {\n  0 [label="v0"];\n  1 [label="v1"];\n'
                '  2 [label="v2"];\n  3 [label="a(0,1)"];\n  4 [label="a(1,2)"];\n'
                '  5 [label="a(2,0)"];\n  0 -> 1;\n  0 -> 3;\n  1 -> 2;\n  1 -> 4;\n'
                "  2 -> 0;\n  2 -> 5;\n  3 -> 1;\n  3 -> 4;\n  4 -> 2;\n  4 -> 5;\n"
                "  5 -> 0;\n  5 -> 3;\n}\n"
            ),
            (
                "converse",
                "digraph G {\n  0;\n  1;\n  2;\n  0 -> 2;\n  1 -> 0;\n  2 -> 1;\n}\n"
            ),
            (
                "product",
                "digraph G {\n  0;\n  1;\n  2;\n  3;\n  4;\n  5;\n  0 -> 1;\n"
                "  0 -> 2;\n  1 -> 0;\n  1 -> 3;\n  2 -> 3;\n  2 -> 4;\n  3 -> 2;\n"
                "  3 -> 5;\n  4 -> 0;\n  4 -> 5;\n  5 -> 1;\n  5 -> 4;\n}\n"
            ),
            (
                "compose",
                "digraph G {\n  0;\n  1;\n  2;\n  3;\n  4;\n  5;\n  0 -> 1;\n"
                "  0 -> 2;\n  0 -> 3;\n  1 -> 0;\n  1 -> 2;\n  1 -> 3;\n  2 -> 3;\n"
                "  2 -> 4;\n  2 -> 5;\n  3 -> 2;\n  3 -> 4;\n  3 -> 5;\n  4 -> 0;\n"
                "  4 -> 1;\n  4 -> 5;\n  5 -> 0;\n  5 -> 1;\n  5 -> 4;\n}\n"
            ),
        ],
    )
    def test_dot_bytes(self, workdir, tmp_path, op, dot):
        _, save = workdir
        path = save("c3.dg", directed_cycle(3))
        k2 = save("k2.dg", complete_digraph(2))
        extra = {"product": ["--with", k2], "compose": ["--with", k2] * 3}.get(op, [])
        out, dot_path = tmp_path / "out.dg", tmp_path / "out.dot"
        argv = ["transform", "--in", path, "--op", op, *extra, "--out", str(out)]
        assert run(*argv, "--dot", str(dot_path)) == 0
        assert dot_path.read_text() == dot


class TestGenerate:
    def test_pair_critical(self, tmp_path, capsys):
        out = str(tmp_path / "pc.dg")
        assert run("generate", "--family", "pair-critical", "--params", "n=3", "--out", out) == 0
        D = parse_digraph(open(out).read())
        assert D.vertex_count == 6 and len(D.arcs) == 18
        P = parse_partition(open(out + ".partition").read(), D)
        assert P.block_count == 3
        claims = json.loads(open(out + ".claims.json").read())
        assert claims["claimed_value"] == 3 and claims["claimed_critical"] is True

    def test_order_value(self, tmp_path):
        out = str(tmp_path / "ov.dg")
        assert run("generate", "--family", "order-value", "--params", "p=7", "m=3", "--out", out) == 0
        D = parse_digraph(open(out).read())
        assert D.vertex_count == 7
        claims = json.loads(open(out + ".claims.json").read())
        assert claims["claimed_value"] == 3

    def test_order_value_violation(self, tmp_path, capsys):
        out = str(tmp_path / "x.dg")
        assert run("generate", "--family", "order-value", "--params", "p=6", "m=4", "--out", out) == 3
        assert "m <= p/2" in capsys.readouterr().err

    def test_missing_param(self, tmp_path):
        assert run("generate", "--family", "complete", "--out", str(tmp_path / "x")) == 2

    @pytest.mark.parametrize(
        "family,params,err",
        [
            ("complete", ["n=3", "m=4"], "input error: family 'complete' takes no parameter 'm'\n"),
            ("order-value", ["p=5", "n=2"], "input error: family 'order-value' takes no parameter 'n'\n"),
            ("complete", ["n=3", "n=5"], "input error: parameter 'n' is given twice\n"),
            ("order-value", ["p=5", "m=2", "p=7"], "input error: parameter 'p' is given twice\n"),
        ],
        ids=["unknown", "unknown-of-two", "repeated", "repeated-of-two"],
    )
    def test_unknown_or_repeated_param(self, tmp_path, capsys, family, params, err):
        out = tmp_path / "x.dg"
        assert run("generate", "--family", family, "--params", *params, "--out", str(out)) == 2
        assert capsys.readouterr().err == err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "family,params,err",
        [
            ("complete", [], "input error: family 'complete' needs parameter 'n'\n"),
            ("order-value", ["m=2"], "input error: family 'order-value' needs parameter 'p'\n"),
            ("order-value", ["p=5"], "input error: family 'order-value' needs parameter 'm'\n"),
            ("critical-composition", ["p=4", "n=3"], "not applicable: requires n to divide p\n"),
            ("complete", ["n=0"], "not applicable: order must be at least 1\n"),
            ("cycle", ["n=1"], "not applicable: cycle order must be at least 2\n"),
            ("empty", ["n=0"], "not applicable: order must be at least 1\n"),
            ("pair-critical", ["n=2"], "not applicable: family needs n >= 3\n"),
            ("order-value", ["p=2", "m=1"], "not applicable: requires p >= 3\n"),
            ("critical-composition", ["p=1", "n=2"], "not applicable: requires p >= 2 and n >= 2\n"),
            ("complete", ["n"], "input error: parameter 'n' is not key=value\n"),
            ("complete", ["n=x"], "input error: parameter 'n=x' needs an integer value\n"),
        ],
    )
    def test_param_error_bytes(self, tmp_path, capsys, family, params, err):
        out = tmp_path / "x.dg"
        code = 2 if err.startswith("input") else 3
        assert run("generate", "--family", family, "--params", *params, "--out", str(out)) == code
        assert capsys.readouterr().err == err
        assert not out.exists()

    @pytest.mark.parametrize(
        "family,params,digraph,partition,claims",
        [
            (
                "complete", ["n=3"], "n 3\n0 1\n0 2\n1 0\n1 2\n2 0\n2 1\n", "0\n1\n2\n",
                '{"claimed_critical": null, "claimed_value": 3, "family": "complete", '
                '"params": {"n": 3}}\n',
            ),
            (
                "cycle", ["n=2"], "n 2\n0 1\n1 0\n", "0\n1\n",
                '{"claimed_critical": null, "claimed_value": 2, "family": "cycle", '
                '"params": {"n": 2}}\n',
            ),
            (
                "cycle", ["n=4"], "n 4\n0 1\n1 2\n2 3\n3 0\n", "0 1 2 3\n",
                '{"claimed_critical": null, "claimed_value": 1, "family": "cycle", '
                '"params": {"n": 4}}\n',
            ),
            (
                "empty", ["n=3"], "n 3\n", None,
                '{"claimed_critical": null, "claimed_value": null, "family": "empty", '
                '"params": {"n": 3}}\n',
            ),
            (
                "pair-critical", ["n=3"],
                "n 6\n0 1\n0 2\n0 3\n1 2\n1 3\n1 4\n2 3\n2 4\n2 5\n"
                "3 0\n3 4\n3 5\n4 0\n4 1\n4 5\n5 0\n5 1\n5 2\n",
                "0 3\n1 4\n2 5\n",
                '{"claimed_critical": true, "claimed_value": 3, "family": "pair-critical", '
                '"params": {"n": 3}}\n',
            ),
            (
                "order-value", ["p=5", "m=2"],
                "n 5\n0 2\n0 3\n0 4\n1 2\n1 3\n1 4\n2 0\n2 1\n3 0\n3 1\n4 0\n4 1\n",
                "0 2\n1 3 4\n",
                '{"claimed_critical": null, "claimed_value": 2, "family": "order-value", '
                '"params": {"m": 2, "p": 5}}\n',
            ),
            (
                "critical-composition", ["p=4", "n=2"],
                "n 4\n0 2\n0 3\n1 2\n1 3\n2 0\n2 1\n3 0\n3 1\n", "0 2\n1 3\n",
                '{"claimed_critical": true, "claimed_value": 2, "family": "critical-composition", '
                '"params": {"n": 2, "p": 4}}\n',
            ),
            (
                "critical-composition", ["p=3", "n=3"],
                "n 3\n0 1\n0 2\n1 0\n1 2\n2 0\n2 1\n", "0\n1\n2\n",
                '{"claimed_critical": true, "claimed_value": 3, "family": "critical-composition", '
                '"params": {"n": 3, "p": 3}}\n',
            ),
        ],
    )
    def test_output_bytes(self, tmp_path, capsys, family, params, digraph, partition, claims):
        out = tmp_path / "g.dg"
        assert run("generate", "--family", family, "--params", *params, "--out", str(out)) == 0
        assert capsys.readouterr().out == f"wrote {out}\n"
        assert out.read_text() == digraph
        part = tmp_path / "g.dg.partition"
        assert (part.read_text() if part.exists() else None) == partition
        assert (tmp_path / "g.dg.claims.json").read_text() == claims


class TestCriticalCommand:
    def test_pair_family(self, tmp_path, capsys):
        from indomatic import pair_critical_family

        out = tmp_path / "pc.dg"
        out.write_text(write_digraph(pair_critical_family(3).digraph))
        assert run("critical", "--in", str(out)) == 0
        text = capsys.readouterr().out
        assert "critical: yes" in text
        assert "characterization: holds" in text

    def test_cycle(self, workdir, capsys):
        _, save = workdir
        path = save("c4.dg", directed_cycle(4))
        assert run("critical", "--in", path) == 0
        text = capsys.readouterr().out
        assert "critical: no" in text
        assert "destroys strongness" in text

    def test_complete3(self, workdir, capsys):
        _, save = workdir
        path = save("k3.dg", complete_digraph(3))
        assert run("critical", "--in", path) == 0
        assert "critical: yes" in capsys.readouterr().out

    def test_order_zero_is_inapplicable(self, tmp_path, capsys):
        path = tmp_path / "in.dg"
        path.write_text("n 0\n")
        assert run("critical", "--in", str(path)) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "not applicable: strong connectivity is undefined for the empty digraph\n"
        )


class TestLawsCommand:
    def test_order_zero_is_inapplicable(self, tmp_path, capsys):
        path = tmp_path / "in.dg"
        path.write_text("n 0\n")
        assert run("laws", "--in", str(path)) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "not applicable: law checks need a nonempty digraph\n"

    def test_complete4(self, workdir, capsys):
        _, save = workdir
        path = save("k4.dg", complete_digraph(4))
        assert run("laws", "--in", path) == 0
        assert "violated" not in capsys.readouterr().out.split("statement")[0]

    def test_json(self, workdir, capsys):
        _, save = workdir
        path = save("c5.dg", directed_cycle(5))
        assert run("laws", "--in", path, "--json") == 0
        records = json.loads(capsys.readouterr().out)
        assert len(records) == 16
        assert all(r["status"] != "violated" for r in records)

    def test_k2_side_note(self, workdir, capsys):
        _, save = workdir
        path = save("k2.dg", complete_digraph(2))
        assert run("laws", "--in", path, "--json") == 0
        records = json.loads(capsys.readouterr().out)
        l13 = next(r for r in records if r["law"] == "L13")
        assert l13["status"] == "not-applicable"
        assert l13["details"]["line_value"] == 2
        assert l13["details"]["cover_value"] == 1


class TestOracleCommand:
    def test_order3(self, capsys):
        assert run("oracle", "--max-n", "3") == 0
        out = capsys.readouterr().out
        assert "scanned=64" in out and "mismatches=0" in out

    def test_random(self, capsys):
        assert run("oracle", "--max-n", "3", "--random", "5", "--up-to", "5", "--seed", "9") == 0
        assert "random=5" in capsys.readouterr().out

    def test_cap(self, capsys):
        assert run("oracle", "--max-n", "5") == 3

    @staticmethod
    def overstate(monkeypatch, kind):
        # The oracle reads one more than the true value for ``kind``.
        oracle = cli.brute_force_oracle
        monkeypatch.setattr(
            cli, "brute_force_oracle", lambda D, what: oracle(D, what) + (what == kind)
        )

    @pytest.mark.parametrize("kind", ["lambda", "dsminus"])
    def test_mismatches_are_printed_and_counted(self, monkeypatch, capsys, kind):
        strong = [D for D in all_labeled_digraphs(3) if is_strong(D)]
        self.overstate(monkeypatch, kind)
        assert run("oracle", "--max-n", "3") == 1
        lines = capsys.readouterr().out.splitlines()
        # Every strong digraph of order 3 has 3 to 6 arcs, so each gets a lambda check.
        assert lines == [f"{kind} mismatch on arcs={D.sorted_arcs()}" for D in strong] + [
            f"scanned=64 strong=18 lambda_checked=18 random=0 mismatches={len(strong)}"
        ]

    def test_random_mismatches_name_the_order(self, monkeypatch, capsys):
        self.overstate(monkeypatch, "dsminus")
        assert run("oracle", "--max-n", "3", "--random", "3", "--up-to", "5", "--seed", "9") == 1
        lines = capsys.readouterr().out.splitlines()
        randoms = [line for line in lines if line.startswith("dsminus mismatch on n=")]
        assert len(randoms) == 3
        assert all(re.fullmatch(r"dsminus mismatch on n=[45] arcs=\[\(.*\)\]", r) for r in randoms)
        assert lines[-1] == "scanned=64 strong=18 lambda_checked=18 random=3 mismatches=21"

    def test_random_bounds_checked_before_the_scan(self, monkeypatch, capsys):
        def no_scan(n):
            raise AssertionError("scanned before checking --up-to")

        monkeypatch.setattr(cli.families, "all_labeled_digraphs", no_scan)
        assert run("oracle", "--max-n", "4", "--random", "1", "--up-to", "4") == 3
        assert capsys.readouterr().err == (
            "not applicable: --up-to must exceed --max-n for random instances\n"
        )

    def test_negative_random_rejected_before_the_scan(self, monkeypatch, capsys):
        def no_scan(n):
            raise AssertionError("scanned before checking --random")

        monkeypatch.setattr(cli.families, "all_labeled_digraphs", no_scan)
        assert run("oracle", "--max-n", "3", "--random", "-2") == 3
        assert capsys.readouterr() == ("", "not applicable: --random must be nonnegative\n")
