import hashlib
import importlib.util
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

import esymfano
from esymfano import fano, invariants, poly
from esymfano.cli import EXIT_PIPE, build_parser, main, parse_matrix_document, InputError
from esymfano.poly import default_names, format_monomial, grlex_key

from conftest import DISTINCT_ROWS, REPEATED_ROWS, reciprocal_relation_holds

MATCHING_DOC = "Q\n1 0 -1 0\n0 1 0 -1\n"
REPEAT_DOC = "Q\n1 0 1 0\n0 1 0 1\n"


def run(capsys, argv, stdin=None, monkeypatch=None):
    if stdin is not None:
        import io, sys

        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def flip_classify(monkeypatch):
    """Invert every structural verdict so that it disagrees with the expansion
    (a flipped non-member gets a bogus zero-pair certificate)."""
    original = fano.classify

    def flipped(T, *args):
        if original(T, *args).member:
            return fano.MembershipVerdict(False)
        return fano.MembershipVerdict(True, fano.ZeroPair(0, 1))

    monkeypatch.setattr(fano, "classify", flipped)


class TestMatrixDocuments:
    def test_rational_parse(self):
        field, rows = parse_matrix_document("Q\n1/2 -3\n0 1\n")
        assert repr(field) == "Q"
        assert rows[0][0] == field.parse("1/2")

    def test_prime_field_parse(self):
        field, rows = parse_matrix_document("F5\n7 -1\n")
        assert rows == ((2, 4),)

    def test_bad_scalar(self):
        with pytest.raises(InputError):
            parse_matrix_document("Q\n1/0\n")

    def test_comments_ignored(self):
        _, rows = parse_matrix_document("# doc\nQ\n1 2  # row\n")
        assert len(rows) == 1


class TestClassifyCommand:
    def test_member(self, capsys, tmp_path):
        doc = tmp_path / "m.txt"
        doc.write_text(MATCHING_DOC)
        code, out, _ = run(capsys, ["--json", "classify", str(doc)])
        assert code == 0
        rep = json.loads(out)
        assert rep["member"] and rep["direct_member"]
        assert rep["certificate"]["kind"] == "partition"
        assert rep["certificate"]["num_classes"] == 2

    def test_nonmember(self, capsys, tmp_path):
        doc = tmp_path / "m.txt"
        doc.write_text(REPEAT_DOC)
        code, out, _ = run(capsys, ["--json", "classify", str(doc)])
        assert code == 1
        rep = json.loads(out)
        assert not rep["member"]
        assert "witness_monomial" in rep

    def test_nonmember_witness(self, capsys, tmp_path):
        # the witness is the grlex-least term of the expansion the CLI compares
        doc = tmp_path / "m.txt"
        doc.write_text(REPEAT_DOC)
        _, out, _ = run(capsys, ["--json", "classify", str(doc)])
        expansion = fano.membership_expansion(
            fano.PlaneMatrix(*parse_matrix_document(REPEAT_DOC))
        )
        least = min(expansion.terms, key=grlex_key)
        assert expansion.coefficient(least) != 0
        assert json.loads(out)["witness_monomial"] == format_monomial(
            least, default_names(2, "s")
        )

    def test_disagreement_exit_3(self, capsys, tmp_path, monkeypatch):
        flip_classify(monkeypatch)
        doc = tmp_path / "m.txt"
        doc.write_text(MATCHING_DOC)
        code, out, _ = run(capsys, ["classify", str(doc)])
        assert code == 3
        assert "internal_error: structural and direct verdicts disagree\n" in out

    def test_stdin(self, capsys, monkeypatch):
        code, out, _ = run(
            capsys, ["--json", "classify"], stdin=MATCHING_DOC, monkeypatch=monkeypatch
        )
        assert code == 0

    def test_bad_scalar_exit_2(self, capsys, tmp_path):
        doc = tmp_path / "m.txt"
        doc.write_text("Q\n1/0 1\n")
        code, _, err = run(capsys, ["classify", str(doc)])
        assert code == 2
        assert "error" in err

    def test_rank_deficient_exit_2(self, capsys, tmp_path):
        doc = tmp_path / "m.txt"
        doc.write_text("Q\n1 1\n2 2\n")
        code, _, _ = run(capsys, ["classify", str(doc)])
        assert code == 2


ZERO_PAIR_DOC = "Q\n1 0 0 0\n0 1 0 0\n"
ONE_ZERO_DOC = "Q\n1 0 -1 0\n0 1 0 0\n"

# (document, exit status, text stdout, --json stdout) for one plane of each
# kind: partition certificate, repeat non-member, zero pair, one zero column.
GOLDEN_CLASSIFY = {
    "partition": (
        MATCHING_DOC,
        0,
        """\
command: classify
field: Q
d: 2
m: 4
matrix.[0]: [1, 0, -1, 0]
matrix.[1]: [0, 1, 0, -1]
member: true
direct_member: true
certificate.kind: partition
certificate.classes.[0]: [1, 3]
certificate.classes.[1]: [2, 4]
certificate.num_classes: 2
certificate.scalars: [1, 1, -1, -1]
certificate.spans_full_span_space: true
""",
        '{"command": "classify", "field": "Q", "d": 2, "m": 4, "matrix": '
        '[["1", "0", "-1", "0"], ["0", "1", "0", "-1"]], "member": true, '
        '"direct_member": true, "certificate": {"kind": "partition", '
        '"classes": [[1, 3], [2, 4]], "num_classes": 2, '
        '"scalars": ["1", "1", "-1", "-1"], "spans_full_span_space": true}}\n',
    ),
    "repeat": (
        REPEAT_DOC,
        1,
        """\
command: classify
field: Q
d: 2
m: 4
matrix.[0]: [1, 0, 1, 0]
matrix.[1]: [0, 1, 0, 1]
member: false
direct_member: false
witness_monomial: s1*s2^2
""",
        '{"command": "classify", "field": "Q", "d": 2, "m": 4, "matrix": '
        '[["1", "0", "1", "0"], ["0", "1", "0", "1"]], "member": false, '
        '"direct_member": false, "witness_monomial": "s1*s2^2"}\n',
    ),
    "zero_pair": (
        ZERO_PAIR_DOC,
        0,
        """\
command: classify
field: Q
d: 2
m: 4
matrix.[0]: [1, 0, 0, 0]
matrix.[1]: [0, 1, 0, 0]
member: true
direct_member: true
certificate.kind: zero_pair
certificate.columns: [3, 4]
""",
        '{"command": "classify", "field": "Q", "d": 2, "m": 4, "matrix": '
        '[["1", "0", "0", "0"], ["0", "1", "0", "0"]], "member": true, '
        '"direct_member": true, "certificate": {"kind": "zero_pair", '
        '"columns": [3, 4]}}\n',
    ),
    "one_zero_column": (
        ONE_ZERO_DOC,
        1,
        """\
command: classify
field: Q
d: 2
m: 4
matrix.[0]: [1, 0, -1, 0]
matrix.[1]: [0, 1, 0, 0]
member: false
direct_member: false
witness_monomial: s1^2*s2
""",
        '{"command": "classify", "field": "Q", "d": 2, "m": 4, "matrix": '
        '[["1", "0", "-1", "0"], ["0", "1", "0", "0"]], "member": false, '
        '"direct_member": false, "witness_monomial": "s1^2*s2"}\n',
    ),
}


class TestClassifyGolden:
    @pytest.mark.parametrize("kind", sorted(GOLDEN_CLASSIFY))
    def test_text(self, capsys, tmp_path, kind):
        text, code, expected, _ = GOLDEN_CLASSIFY[kind]
        doc = tmp_path / "m.txt"
        doc.write_text(text)
        assert run(capsys, ["classify", str(doc)]) == (code, expected, "")

    @pytest.mark.parametrize("kind", sorted(GOLDEN_CLASSIFY))
    def test_json(self, capsys, tmp_path, kind):
        text, code, _, expected = GOLDEN_CLASSIFY[kind]
        doc = tmp_path / "m.txt"
        doc.write_text(text)
        assert run(capsys, ["--json", "classify", str(doc)]) == (code, expected, "")


SWAP_SCENARIO = {
    "field": "Q",
    "generators": [[[0, 1], [1, 0]]],
    "seeds": [[1, 0]],
    "degree": 4,
}

# (argv, (name, text) of a file in the working directory or None, exit status,
# text stdout, --json stdout) for each subcommand other than classify.
GOLDEN_OTHER = {
    "isolated": (
        ["isolated", "--d", "2"],
        None,
        0,
        """\
command: isolated
d: 2
m: 4
count: 3
points.[0].matching.[0]: [1, 2]
points.[0].matching.[1]: [3, 4]
points.[0].matrix.[0]: [1, -1, 0, 0]
points.[0].matrix.[1]: [0, 0, 1, -1]
points.[1].matching.[0]: [1, 3]
points.[1].matching.[1]: [2, 4]
points.[1].matrix.[0]: [1, 0, -1, 0]
points.[1].matrix.[1]: [0, 1, 0, -1]
points.[2].matching.[0]: [1, 4]
points.[2].matching.[1]: [2, 3]
points.[2].matrix.[0]: [1, 0, 0, -1]
points.[2].matrix.[1]: [0, 1, -1, 0]
""",
        '{"command": "isolated", "d": 2, "m": 4, "count": 3, "points": '
        '[{"matching": [[1, 2], [3, 4]], "matrix": [["1", "-1", "0", "0"], '
        '["0", "0", "1", "-1"]]}, {"matching": [[1, 3], [2, 4]], "matrix": '
        '[["1", "0", "-1", "0"], ["0", "1", "0", "-1"]]}, {"matching": '
        '[[1, 4], [2, 3]], "matrix": [["1", "0", "0", "-1"], '
        '["0", "1", "-1", "0"]]}]}\n',
    ),
    "xcheck": (
        ["xcheck", "--d", "2", "--m", "4", "--prime", "3"],
        None,
        0,
        """\
command: xcheck
d: 2
m: 4
p: 3
total: 130
members: 9
mismatches: 0
certificate_histogram.zero_pair: 6
certificate_histogram.partition: 3
class_count_histogram.2: 3
""",
        '{"command": "xcheck", "d": 2, "m": 4, "p": 3, "total": 130, '
        '"members": 9, "mismatches": 0, "certificate_histogram": '
        '{"zero_pair": 6, "partition": 3}, "class_count_histogram": {"2": 3}}\n',
    ),
    "brute": (
        ["brute", "--d", "1", "--m", "2", "--prime", "3"],
        None,
        0,
        """\
command: brute
d: 1
m: 2
p: 3
total: 4
members: 1
member_matrices.[0].[0]: [1, 2]
""",
        '{"command": "brute", "d": 1, "m": 2, "p": 3, "total": 4, '
        '"members": 1, "member_matrices": [[["1", "2"]]]}\n',
    ),
    "equations": (
        ["equations", "--d", "1", "--m", "3"],
        None,
        0,
        """\
command: equations
d: 1
m: 3
avoided_columns: [2, 3]
identity_columns: [1]
unknowns: [a1_1, a1_2]
equation_count: 1
equations.[0].monomial: s1^2
equations.[0].coefficient: a1_2 + a1_1 + a1_1*a1_2
""",
        '{"command": "equations", "d": 1, "m": 3, "avoided_columns": [2, 3], '
        '"identity_columns": [1], "unknowns": ["a1_1", "a1_2"], '
        '"equation_count": 1, "equations": [{"monomial": "s1^2", '
        '"coefficient": "a1_2 + a1_1 + a1_1*a1_2"}]}\n',
    ),
    "reciprocals": (
        ["reciprocals", "forms.txt"],
        ("forms.txt", "Q\n1 0\n0 1\n1 1\n"),
        0,
        """\
command: reciprocals
field: Q
num_forms: 3
num_classes: 3
relation_space_dim: 0
basis: []
""",
        '{"command": "reciprocals", "field": "Q", "num_forms": 3, '
        '"num_classes": 3, "relation_space_dim": 0, "basis": []}\n',
    ),
    # nonzero relation spaces pin the basis values and their order
    "reciprocals-q-basis": (
        ["reciprocals", "forms.txt"],
        ("forms.txt", "Q\n1 2 3\n2 4 6\n1 0 1\n-1 -2 -3\n0 1 1\n"),
        0,
        """\
command: reciprocals
field: Q
num_forms: 5
num_classes: 3
relation_space_dim: 2
basis.[0]: [-1/2, 1, 0, 0, 0]
basis.[1]: [1, 0, 0, 1, 0]
""",
        '{"command": "reciprocals", "field": "Q", "num_forms": 5, '
        '"num_classes": 3, "relation_space_dim": 2, "basis": '
        '[["-1/2", "1", "0", "0", "0"], ["1", "0", "0", "1", "0"]]}\n',
    ),
    "reciprocals-f7-basis": (
        ["reciprocals", "forms.txt"],
        ("forms.txt", "F7\n1 2\n2 4\n3 6\n0 1\n"),
        0,
        """\
command: reciprocals
field: F7
num_forms: 4
num_classes: 2
relation_space_dim: 2
basis.[0]: [3, 1, 0, 0]
basis.[1]: [2, 0, 1, 0]
""",
        '{"command": "reciprocals", "field": "F7", "num_forms": 4, '
        '"num_classes": 2, "relation_space_dim": 2, "basis": '
        '[["3", "1", "0", "0"], ["2", "0", "1", "0"]]}\n',
    ),
    "invariants": (
        ["invariants", "swap.json"],
        ("swap.json", json.dumps(SWAP_SCENARIO)),
        0,
        "command: invariants\nscenario: swap.json\ngroup_order: 2\n"
        "generator_count: 2\nmax_degree: 4\n"
        + "".join(
            f"per_degree.[{k}].degree: {k}\n"
            f"per_degree.[{k}].invariant_dim: {dim}\n"
            f"per_degree.[{k}].subalgebra_dim: {dim}\n"
            f"per_degree.[{k}].equal: true\n"
            for k, dim in enumerate([1, 1, 2, 2, 3])
        )
        + "generated: true\n",
        '{"command": "invariants", "scenario": "swap.json", "group_order": 2, '
        '"generator_count": 2, "max_degree": 4, "per_degree": ['
        + ", ".join(
            f'{{"degree": {k}, "invariant_dim": {dim}, '
            f'"subalgebra_dim": {dim}, "equal": true}}'
            for k, dim in enumerate([1, 1, 2, 2, 3])
        )
        + '], "generated": true}\n',
    ),
}


class TestOtherCommandsGolden:
    @pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
    @pytest.mark.parametrize("command", sorted(GOLDEN_OTHER))
    def test_stdout(self, capsys, tmp_path, monkeypatch, command, as_json):
        argv, document, code, text, json_text = GOLDEN_OTHER[command]
        monkeypatch.chdir(tmp_path)
        if document is not None:
            name, content = document
            (tmp_path / name).write_text(content)
        flag = ["--json"] if as_json else []
        expected = json_text if as_json else text
        assert run(capsys, flag + argv) == (code, expected, "")


class TestOtherCommands:
    @pytest.mark.parametrize("d,count", [(1, 1), (2, 3), (3, 15)])
    def test_isolated_counts(self, capsys, d, count):
        code, out, _ = run(capsys, ["--json", "isolated", "--d", str(d)])
        assert code == 0
        rep = json.loads(out)
        assert rep["count"] == count

    def test_isolated_budget_exit_2(self, capsys, monkeypatch):
        # 13!! = 135,135 points exceed the budget of 10^5 before any is built;
        # for d = 10^5 the product stops at the first factor past the budget
        def refuse(two_d):
            raise AssertionError("matchings enumerated past the budget")

        monkeypatch.setattr(fano, "matchings", refuse)
        for d in (7, 100000):
            code, out, err = run(capsys, ["isolated", "--d", str(d)])
            assert code == 2
            assert out == ""
            assert err.startswith("error: ") and err.count("\n") == 1
            assert "budget of 100000" in err

    def test_isolated_d1_row(self, capsys):
        _, out, _ = run(capsys, ["--json", "isolated", "--d", "1"])
        rep = json.loads(out)
        assert rep["points"][0]["matrix"] == [["1", "-1"]]

    def test_closed_stdout_exit_pipe(self):
        # isolated --d 5 prints about 430 KB, more than a pipe holds, so the
        # writer is still printing when the reader closes its end
        src = os.path.dirname(os.path.dirname(esymfano.__file__))
        proc = subprocess.Popen(
            [sys.executable, "-m", "esymfano.cli", "isolated", "--d", "5"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=dict(os.environ, PYTHONPATH=src),
        )
        assert proc.stdout.readline() == b"command: isolated\n"
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
        assert proc.returncode == EXIT_PIPE
        assert err == b""

    def test_equations(self, capsys):
        code, out, _ = run(capsys, ["--json", "equations", "--d", "1", "--m", "3"])
        assert code == 0
        rep = json.loads(out)
        assert rep["equation_count"] == 1
        assert rep["equations"][0]["coefficient"] == "a1_2 + a1_1 + a1_1*a1_2"

    def test_equations_budget_exit_2(self, capsys, monkeypatch):
        # (7, 14) expands to 7**6 * 56 = 6,588,344 terms, past the budget of
        # 3 * 10**6, and is refused before the expansion starts; the two huge
        # sizes are refused on the bound 2**(m-d-1), before the exact count
        def refuse(polys):
            raise AssertionError("chart expanded past the budget")

        monkeypatch.setattr(fano, "esym_almost_top", refuse)
        for d, m in [(7, 14), (1000, 200000), (100000, 3000000)]:
            code, out, err = run(capsys, ["equations", "--d", str(d), "--m", str(m)])
            assert code == 2
            assert out == ""
            assert err.startswith("error: ") and err.count("\n") == 1
            assert "budget of 3000000" in err

    def test_equations_count_budget_exit_2(self, capsys, monkeypatch):
        # (20, 21) expands to only 401 terms but has C(39, 19), about 6.9e10,
        # equations; (30, 31) is refused on the bound 2**(d-1)
        def refuse(polys):
            raise AssertionError("chart expanded past the budget")

        monkeypatch.setattr(fano, "esym_almost_top", refuse)
        for d, m, count in [(20, 21, "68923264410"), (30, 31, "at least 2^29")]:
            code, out, err = run(capsys, ["equations", "--d", str(d), "--m", str(m)])
            assert code == 2
            assert out == ""
            assert err == f"error: {count} chart equations exceed the budget of 3000000\n"

    def test_equations_d1_blowup_exit_2(self, capsys, monkeypatch):
        # (1, 50000) has 50,000 terms and one equation, within both bounds,
        # but 2.5e9 exponent cells: it is refused before any column is built
        def refuse(*args):
            raise AssertionError("chart column built past the budget")

        monkeypatch.setattr(fano, "Polynomial", refuse)
        start = time.perf_counter()
        code, out, err = run(capsys, ["equations", "--d", "1", "--m", "50000"])
        assert time.perf_counter() - start < 1
        assert code == 2
        assert out == ""
        assert err == (
            "error: chart expansion of 50000 terms in 50000 variables "
            "(2500000000 exponent cells) exceeds the budget of 3000000\n"
        )

    @pytest.mark.parametrize("d,m", [(0, 3), (3, 3)])
    def test_equations_size_out_of_range_exit_2(self, capsys, d, m):
        code, out, err = run(capsys, ["equations", "--d", str(d), "--m", str(m)])
        assert code == 2
        assert out == ""
        assert err == f"error: need 1 <= d < m, got d={d}, m={m}\n"

    def test_classify_expansion_budget_exit_2(self, capsys, tmp_path, monkeypatch):
        # a 7 x 24 plane costs 24 * C(29, 6) = 11,400,480 term steps, past
        # the budget of 3 * 10**6, and is refused before the expansion starts
        def refuse(polys):
            raise AssertionError("plane expanded past the budget")

        monkeypatch.setattr(fano, "esym_almost_top", refuse)
        rows = [
            [int(i == j) if j < 7 else (i * j + 1) % 5 for j in range(24)]
            for i in range(7)
        ]
        doc = tmp_path / "m.txt"
        doc.write_text("F5\n" + "".join(" ".join(map(str, r)) + "\n" for r in rows))
        code, out, err = run(capsys, ["classify", str(doc)])
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_xcheck(self, capsys):
        code, out, _ = run(
            capsys, ["--json", "xcheck", "--d", "2", "--m", "4", "--prime", "3"]
        )
        assert code == 0
        rep = json.loads(out)
        assert rep["total"] == 130
        assert rep["mismatches"] == 0

    def test_xcheck_mismatch_exit_3(self, capsys, monkeypatch):
        argv = ["xcheck", "--d", "2", "--m", "4", "--prime", "3"]
        _, clean, _ = run(capsys, argv)
        assert "mismatch_examples" not in clean
        flip_classify(monkeypatch)
        code, out, _ = run(capsys, ["--json"] + argv)
        assert code == 3
        rep = json.loads(out)
        assert rep["mismatches"] == 130
        assert rep["mismatch_examples"][0] == [["1", "0", "0", "0"], ["0", "1", "0", "0"]]
        assert len(rep["mismatch_examples"]) == 5

    def test_xcheck_budget_exit_2(self, capsys):
        code, _, _ = run(
            capsys, ["xcheck", "--d", "4", "--m", "9", "--prime", "5"]
        )
        assert code == 2
        # 3,000,000 columns are refused on the bound 3**(d*(m-d)) before the
        # exact count, a number of more than a million digits, is formed
        code, out, err = run(
            capsys, ["xcheck", "--d", "2", "--m", "3000000", "--prime", "3"]
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "budget of 1000000" in err

    @pytest.mark.parametrize("d,m", [(0, 3), (4, 3)])
    @pytest.mark.parametrize("command", ["xcheck", "brute"])
    def test_subspace_size_out_of_range_exit_2(self, capsys, command, d, m):
        code, out, err = run(
            capsys, [command, "--d", str(d), "--m", str(m), "--prime", "3"]
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_brute(self, capsys):
        code, out, _ = run(
            capsys, ["--json", "brute", "--d", "1", "--m", "2", "--prime", "3"]
        )
        rep = json.loads(out)
        assert code == 0
        assert rep["members"] == 1
        assert rep["member_matrices"] == [[["1", "2"]]]

    def test_reciprocals(self, capsys, monkeypatch):
        code, out, _ = run(
            capsys,
            ["--json", "reciprocals"],
            stdin="Q\n1 0\n0 1\n1 1\n",
            monkeypatch=monkeypatch,
        )
        rep = json.loads(out)
        assert code == 0
        assert rep["relation_space_dim"] == 0

    def test_reciprocals_24_forms_exit_0(self, capsys, monkeypatch):
        # the basis comes from the proportionality classes, so no size of
        # input expands a product or meets a budget
        def refuse(r, polys):
            raise AssertionError("reciprocals expanded a product")

        monkeypatch.setattr(poly, "esym", refuse)
        monkeypatch.setattr(fano, "esym", refuse, raising=False)
        doc = "Q\n" + "".join(" ".join(map(str, row)) + "\n" for row in REPEATED_ROWS)
        code, out, _ = run(
            capsys, ["--json", "reciprocals"], stdin=doc, monkeypatch=monkeypatch
        )
        rep = json.loads(out)
        assert code == 0
        assert rep["num_forms"] == 24 and rep["num_classes"] == len(DISTINCT_ROWS)
        assert rep["relation_space_dim"] == rep["num_forms"] - rep["num_classes"]
        rng = random.Random(7)
        assert all(reciprocal_relation_holds(REPEATED_ROWS, vec, rng) for vec in rep["basis"])

    def test_invariants_builtin(self, capsys):
        code, out, _ = run(capsys, ["--json", "invariants", "z2-example"])
        assert code == 0
        rep = json.loads(out)
        assert rep["xy_invariant"]
        assert rep["single_image_membership_hits"] == 0

    def test_invariants_scenario(self, capsys, tmp_path):
        scenario = tmp_path / "swap.json"
        scenario.write_text(
            json.dumps(
                {
                    "field": "Q",
                    "generators": [[[0, 1], [1, 0]]],
                    "seeds": [[1, 0]],
                    "degree": 4,
                }
            )
        )
        code, out, _ = run(capsys, ["--json", "invariants", str(scenario)])
        assert code == 0
        rep = json.loads(out)
        assert rep["generated"]

    def test_invariants_characteristic_exit_2(self, capsys, tmp_path):
        scenario = tmp_path / "bad.json"
        scenario.write_text(
            json.dumps(
                {
                    "field": "F2",
                    "generators": [[[0, 1], [1, 0]]],
                    "seeds": [[1, 0]],
                    "degree": 2,
                }
            )
        )
        code, _, _ = run(capsys, ["invariants", str(scenario)])
        assert code == 2


    @pytest.mark.parametrize(
        "scenario",
        [
            {"generators": 5, "seeds": [[1, 0]]},
            {"generators": [[[0, 1], [1, 0]]], "seeds": 3},
            {"generators": [[]], "seeds": [[1]]},
            [{"generators": [[[0, 1], [1, 0]]], "seeds": [[1, 0]]}],
            {"generators": [[[0, 1], [1, 0]]], "seeds": [[1, 0, 0]]},
            {"generators": [[[0, 1], [1]]], "seeds": [[1, 0]]},
            {"generators": [[[0, 1], [1, 0]]], "seeds": [[1, 0]], "degree": -1},
            {"generators": [[[0, 1], [1, 0]]], "seeds": [[1, 0]], "degree": 1e400},
            {"generators": [[[0, 1], [1, 0]]], "seeds": [[1, 0]], "degree": 2.7},
            {"generators": [[[0, 1], [1, 0]]], "seeds": [[1, 0]], "degree": True},
            {"generators": [[[0, 1], [1, 0]]], "seeds": [[1, 0]], "degree": "3"},
        ],
        ids=["int-generators", "int-seeds", "empty-generator", "top-level-list",
             "seed-length", "ragged-generator", "negative-degree", "infinite-degree",
             "fractional-degree", "bool-degree", "string-degree"],
    )
    def test_invariants_bad_shape_exit_2(self, capsys, tmp_path, scenario):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(scenario))
        code, out, err = run(capsys, ["invariants", str(path)])
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_invariants_closure_budget_exit_2(self, capsys, tmp_path, monkeypatch):
        # the shear [[1, 1], [0, 1]] has infinite order over Q
        monkeypatch.setattr(invariants, "CLOSURE_BUDGET", 50)
        path = tmp_path / "shear.json"
        path.write_text(json.dumps({"generators": [[[1, 1], [0, 1]]], "seeds": [[1, 0]]}))
        code, out, err = run(capsys, ["invariants", str(path)])
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "scenario",
        [
            {"generators": [[["1e400"]]], "seeds": [[1]]},
            {"generators": [[["1e40"]]], "seeds": [[1]]},
            # det 1, trace 10**40 + 2
            {"generators": [[[10**40 + 1, 10**40], [1, 1]]], "seeds": [[1, 0]]},
        ],
        ids=["1e400", "1e40", "det-1"],
    )
    def test_invariants_infinite_group_exit_2(self, capsys, tmp_path, monkeypatch, scenario):
        """A trace that is not an integer in [-n, n] proves the group infinite:
        refused on that, before the closure budget is reached."""
        monkeypatch.setattr(invariants, "CLOSURE_BUDGET", 3)
        path = tmp_path / "infinite.json"
        path.write_text(json.dumps(scenario))
        code, out, err = run(capsys, ["invariants", str(path)])
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "finite" in err and "budget" not in err

    def test_invariants_span_budget_exit_2(self, capsys, tmp_path, monkeypatch):
        """S_4 to degree 30 ranks 8.5M cells: refused before any span."""
        def refuse(*args):
            raise AssertionError("span formed before the budget was checked")

        for name in ("subalgebra_graded_dims", "_invariant_dims", "_molien_dims"):
            monkeypatch.setattr(invariants, name, refuse)
        path = tmp_path / "s4.json"
        path.write_text(json.dumps({
            "generators": [
                [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
                [[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0]],
            ],
            "seeds": [[1, 0, 0, 0]],
        }))
        code, out, err = run(capsys, ["invariants", str(path), "--degree", "30"])
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("degree", ["-1", "3"])
    def test_invariants_builtin_degree_exit_2(self, capsys, degree):
        code, out, err = run(capsys, ["invariants", "z2-example", "--degree", degree])
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "command,document",
        [
            ("classify", "missing"),
            ("reciprocals", "missing"),
            ("classify", "directory"),
            ("classify", "non-utf8"),
            ("invariants", "non-utf8"),
        ],
    )
    def test_unreadable_document_exit_2(self, capsys, tmp_path, command, document):
        latin1 = tmp_path / "latin1.txt"
        latin1.write_bytes("Q\n1 0 \xe9\n".encode("latin-1"))
        path = {
            "missing": tmp_path / "missing.txt",
            "directory": tmp_path,
            "non-utf8": latin1,
        }[document]
        code, out, err = run(capsys, [command, str(path)])
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1


class TestParser:
    def test_each_caller_gets_its_own_parser(self):
        first, second = build_parser(), build_parser()
        assert first is not second
        first.marker = True
        assert not hasattr(build_parser(), "marker")

    def test_json_does_not_leak_into_the_next_call(self, capsys):
        _, out1, _ = run(capsys, ["--json", "isolated", "--d", "1"])
        _, out2, _ = run(capsys, ["isolated", "--d", "1"])
        assert json.loads(out1)["count"] == 1
        assert out2.startswith("command: isolated\n")


class TestReportDeterminism:
    def test_round_trip_and_stability(self, capsys, tmp_path):
        doc = tmp_path / "m.txt"
        doc.write_text(MATCHING_DOC)
        _, out1, _ = run(capsys, ["--json", "classify", str(doc)])
        _, out2, _ = run(capsys, ["--json", "classify", str(doc)])
        assert out1 == out2
        rep = json.loads(out1)
        assert json.loads(json.dumps(rep)) == rep

    def test_text_output_stable(self, capsys):
        _, out1, _ = run(capsys, ["isolated", "--d", "2"])
        _, out2, _ = run(capsys, ["isolated", "--d", "2"])
        assert out1 == out2
        assert "count: 3" in out1


@pytest.fixture(scope="module")
def bench_digests():
    """The stdout digests recorded in bench/oracles.py, read and not edited."""
    path = Path(__file__).resolve().parents[1] / "bench" / "oracles.py"
    spec = importlib.util.spec_from_file_location("oracles", path)
    oracles = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(oracles)
    return oracles.DIGESTS


@pytest.mark.parametrize(
    "command",
    [
        "equations --d 2 --m 5",
        "equations --d 3 --m 6",
        "equations --d 4 --m 10",
        "equations --d 5 --m 10",
        "xcheck --d 2 --m 4 --prime 3",
    ],
)
def test_stdout_matches_bench_digest(capsys, bench_digests, command):
    # the benchmark rejects a run whose stdout differs from its digest; this
    # catches a rendering change without a bench run, on the full equations
    # sizes the benchmark renders too (about 0.5 s)
    code, out, _ = run(capsys, command.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == bench_digests[command]
