import json

import pytest

from esymfano import fano
from esymfano.cli import main, parse_matrix_document, InputError
from esymfano.poly import default_names, format_monomial, grlex_key

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

    def flipped(T):
        if original(T).member:
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
        ["equations", "--d", "1", "--m", "3", "--avoid", "2,3"],
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

    def test_isolated_d1_row(self, capsys):
        _, out, _ = run(capsys, ["--json", "isolated", "--d", "1"])
        rep = json.loads(out)
        assert rep["points"][0]["matrix"] == [["1", "-1"]]

    def test_equations(self, capsys):
        code, out, _ = run(
            capsys, ["--json", "equations", "--d", "1", "--m", "3", "--avoid", "2,3"]
        )
        assert code == 0
        rep = json.loads(out)
        assert rep["equation_count"] == 1
        assert rep["equations"][0]["coefficient"] == "a1_2 + a1_1 + a1_1*a1_2"

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
