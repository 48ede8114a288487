import json
import os
import subprocess
import sys

import pytest
from helpers import fixture

import inss.cli
import inss.oracle
from inss import CellAudit, ComparisonMatrix
from inss.cli import main, split_parameter_list

DECIDE_GOLDEN = """\
Decision table
U   Bright           Costly           Polystyreneing   Colorful         Cheap
b1  (0.6, 0.3, 0.4)  (0.5, 0.2, 0.6)  (0.5, 0.3, 0.4)  (0.8, 0.2, 0.3)  (0.6, 0.3, 0.2)
b2  (0.7, 0.2, 0.5)  (0.6, 0.3, 0.4)  (0.4, 0.2, 0.6)  (0.4, 0.8, 0.3)  (0.8, 0.1, 0.2)
b3  (0.8, 0.3, 0.4)  (0.8, 0.5, 0.1)  (0.3, 0.5, 0.6)  (0.7, 0.2, 0.1)  (0.7, 0.2, 0.5)
b4  (0.7, 0.5, 0.2)  (0.4, 0.8, 0.3)  (0.8, 0.2, 0.4)  (0.8, 0.3, 0.4)  (0.8, 0.3, 0.4)
b5  (0.3, 0.8, 0.4)  (0.3, 0.6, 0.1)  (0.7, 0.3, 0.2)  (0.6, 0.2, 0.4)  (0.6, 0.4, 0.2)

Comparison matrix
U   Bright      Costly      Polystyreneing  Colorful    Cheap
b1  0 = 1+2-3   -2 = 2+0-4  3 = 2+3-2       4 = 4+2-2   2 = 1+3-2
b2  -1 = 3+0-4  1 = 3+1-3   -2 = 1+1-4      2 = 0+4-2   2 = 4+0-2
b3  3 = 4+2-3   5 = 4+2-1   0 = 0+4-4       4 = 2+2-0   -1 = 2+1-4
b4  6 = 3+3-0   3 = 1+4-2   3 = 4+1-2       3 = 4+3-4   4 = 4+3-3
b5  1 = 0+4-3   2 = 0+3-1   6 = 3+3-0       -1 = 1+2-4  3 = 1+4-2

Scores
b1  7
b2  2
b3  11
b4  19
b5  11

Ranking
1. b4 (19)
2. b3 (11)
3. b5 (11)
4. b1 (7)
5. b2 (2)

Reference comparison
2 cell(s) differ:
  (b1, Colorful): computed 4, reference 0
  (b5, Bright): computed 1, reference 7

Audit
oracle recount agrees with production matrix

Selected: b4
"""


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSplitParameterList:
    def test_plain_commas(self):
        assert split_parameter_list("a, b ,c") == ["a", "b", "c"]

    def test_commas_inside_parentheses_are_kept(self):
        assert split_parameter_list("Bright, (Cheap, Colorful), Costly") == [
            "Bright",
            "(Cheap, Colorful)",
            "Costly",
        ]

    def test_nested_parentheses(self):
        assert split_parameter_list("((a, b), c), d") == ["((a, b), c)", "d"]

    def test_blank_entries_dropped(self):
        assert split_parameter_list(" a,, b, ") == ["a", "b"]
        assert split_parameter_list("") == []


class TestValidate:
    def test_reports_size(self, capsys):
        code, out, err = run(capsys, "validate", fixture("attractiveness.json"))
        assert code == 0
        assert out == "ok: 5 elements, 4 parameters\n"
        assert err == ""

    def test_rejects_out_of_bounds_grades(self, capsys):
        code, out, err = run(capsys, "validate", fixture("distributive_b.json"))
        assert code == 1
        assert out == ""
        assert err.startswith("error: ConstraintViolation:")
        assert "grades['quality']['b3']" in err

    def test_missing_file_is_a_usage_error(self, capsys):
        code, out, err = run(capsys, "validate", "no_such_file.json")
        assert code == 2
        assert "error:" in err


class TestEmptyPath:
    """An empty path names no file, not the current directory, whether read or written."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["validate", ""],
            ["union", "", fixture("qualities_a.json")],
            ["decide", fixture("shopping.json"), "--reference-matrix", ""],
            ["complement", fixture("attractiveness.json"), "-o", ""],
        ],
        ids=["validate", "union", "reference", "out"],
    )
    def test_is_a_missing_file(self, capsys, monkeypatch, tmp_path, argv):
        monkeypatch.chdir(tmp_path)
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.endswith("''\n") and err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []


class TestUsage:
    def test_no_arguments(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([])
        assert excinfo.value.code == 2

    def test_unknown_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["decide", "--nope"])
        assert excinfo.value.code == 2


class TestShow:
    def test_renders_table(self, capsys):
        code, out, _ = run(capsys, "show", fixture("qualities_b.json"))
        assert code == 0
        assert out.splitlines()[0] == "U   Costly           Colorful"
        assert out.splitlines()[1] == "b1  (0.6, 0.2, 0.3)  (0.4, 0.6, 0.2)"

    def test_ci_fixture_holds_the_shopping_table(self, capsys):
        code, out, _ = run(capsys, "show", fixture("shopping.json"))
        assert code == 0
        assert out == fixture("shopping_show.txt").read_text(encoding="utf-8")


class TestSetOperations:
    def test_union_stdout_matches_golden_fixture(self, capsys):
        code, out, _ = run(
            capsys, "union", fixture("qualities_a.json"), fixture("qualities_b.json")
        )
        assert code == 0
        assert out == fixture("qualities_union.json").read_text(encoding="utf-8")

    def test_intersect_stdout_matches_golden_fixture(self, capsys):
        code, out, _ = run(
            capsys, "intersect", fixture("qualities_a.json"), fixture("qualities_b.json")
        )
        assert code == 0
        assert out == fixture("qualities_intersection.json").read_text(encoding="utf-8")

    def test_and_stdout_matches_golden_fixture(self, capsys):
        code, out, _ = run(
            capsys, "and", fixture("qualities_a.json"), fixture("qualities_b.json")
        )
        assert code == 0
        assert out == fixture("qualities_and.json").read_text(encoding="utf-8")

    def test_or_stdout_matches_golden_fixture(self, capsys):
        code, out, _ = run(
            capsys, "or", fixture("qualities_a.json"), fixture("qualities_b.json")
        )
        assert code == 0
        assert out == fixture("qualities_or.json").read_text(encoding="utf-8")

    def test_complement_writes_file_with_out_flag(self, capsys, tmp_path):
        target = tmp_path / "complement.json"
        code, out, _ = run(capsys, "complement", fixture("attractiveness.json"), "-o", target)
        assert code == 0
        assert out == ""
        assert target.read_text(encoding="utf-8") == fixture(
            "not_attractiveness.json"
        ).read_text(encoding="utf-8")

    def test_intersect_without_shared_parameters_fails_cleanly(self, capsys):
        code, out, err = run(
            capsys, "intersect", fixture("attractiveness.json"), fixture("shopping.json")
        )
        assert code == 1
        assert err.startswith("error: EmptyParameterIntersection:")

    def test_a_complement_whose_labels_collide_fails_cleanly(self, capsys, tmp_path):
        source = tmp_path / "collide.json"
        source.write_text(json.dumps({
            "format_version": 1,
            "universe": ["b1"],
            "parameters": [{"name": "not x", "negated": True}, {"name": "x", "negated": False}],
            "grades": {label: {"b1": ["0", "0", "0"]} for label in ("not not x", "x")},
        }), encoding="utf-8")
        assert run(capsys, "validate", source) == (0, "ok: 1 elements, 2 parameters\n", "")
        assert run(capsys, "complement", source) == (1, "", (
            "error: DuplicateParameter: parameters[1]: Parameter(name='not x', negated=False) and "
            "Parameter(name='x', negated=True) share label 'not x'\n"
        ))

    def test_mismatched_universes_fail_cleanly(self, capsys):
        code, _, err = run(
            capsys, "union", fixture("attractiveness.json"), fixture("sizes.json")
        )
        assert code == 1
        assert err.startswith("error: UniverseMismatch:")


class TestPredicates:
    def test_subset_true_and_false(self, capsys):
        code, out, _ = run(capsys, "subset", fixture("sizes.json"), fixture("textures.json"))
        assert (code, out) == (0, "true\n")
        code, out, _ = run(capsys, "subset", fixture("textures.json"), fixture("sizes.json"))
        assert (code, out) == (0, "false\n")

    def test_equals(self, capsys):
        code, out, _ = run(
            capsys, "equals", fixture("attractiveness.json"), fixture("attractiveness.json")
        )
        assert (code, out) == (0, "true\n")
        code, out, _ = run(
            capsys, "equals", fixture("attractiveness.json"), fixture("not_attractiveness.json")
        )
        assert (code, out) == (0, "false\n")


class TestDecide:
    def test_full_report_is_byte_stable(self, capsys):
        args = (
            "decide",
            fixture("shopping.json"),
            "--reference-matrix",
            fixture("shopping_matrix_printed.json"),
            "--audit",
        )
        code, out, err = run(capsys, *args)
        assert code == 0
        assert err == ""
        assert out == DECIDE_GOLDEN
        code_again, out_again, _ = run(capsys, *args)
        assert (code_again, out_again) == (code, out)

    def test_audit_refuses_when_the_oracle_disagrees(self, capsys, monkeypatch):
        recount = inss.oracle.oracle_matrix

        def one_cell_off(table):
            matrix = recount(table)
            (first, *rest), *other_rows = matrix.audits
            first = CellAudit(first.truth_wins + 1, first.indeterminacy_wins, first.falsity_wins)
            return ComparisonMatrix(matrix.objects, matrix.parameters, ((first, *rest), *other_rows))

        monkeypatch.setattr(inss.oracle, "oracle_matrix", one_cell_off)
        code, out, err = run(capsys, "decide", fixture("shopping.json"), "--audit")
        assert (code, out, err) == (1, "", "error: oracle recount disagrees with production matrix\n")

    def test_ci_fixture_holds_the_same_report(self):
        assert fixture("shopping_decide.txt").read_text(encoding="utf-8") == DECIDE_GOLDEN

    def test_without_reference_or_audit_sections(self, capsys):
        code, out, _ = run(capsys, "decide", fixture("shopping.json"))
        assert code == 0
        assert "Reference comparison" not in out
        assert "Audit" not in out
        assert "Selected: b4" in out
        assert "1. b4 (19)" in out

    def test_ci_fixture_holds_the_plain_report(self, capsys):
        code, out, _ = run(capsys, "decide", fixture("shopping.json"))
        assert code == 0
        assert out == fixture("shopping_decide_plain.txt").read_text(encoding="utf-8")

    def test_matching_reference_is_reported(self, capsys, tmp_path):
        reference = json.loads(fixture("shopping_matrix_printed.json").read_text(encoding="utf-8"))
        reference["entries"][0][3] = 4  # (b1, Colorful), a typo in the printed matrix
        reference["entries"][4][0] = 1  # (b5, Bright), the other one
        path = tmp_path / "ref.json"
        path.write_text(json.dumps(reference), encoding="utf-8")
        code, out, err = run(capsys, "decide", fixture("shopping.json"), "--reference-matrix", path)
        assert (code, err) == (0, "")
        assert "Reference comparison\ncomputed matrix matches the reference\n\nSelected: b4\n" in out

    def test_score_lines_pad_ids_to_the_longest(self, capsys, tmp_path):
        doc = {
            "format_version": 1,
            "universe": ["a", "long id", "mid"],
            "parameters": [{"name": "p", "negated": False}],
            "grades": {"p": {"a": ["0.1", "0", "0"], "long id": ["0.3", "0", "0"], "mid": ["0.2", "0", "0"]}},
        }
        path = tmp_path / "ids.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, out, _ = run(capsys, "decide", path)
        assert code == 0
        scores = out[out.index("Scores\n") : out.index("\n\nRanking")]
        assert scores == "Scores\na        0\nlong id  2\nmid      1"

    def test_params_selection(self, capsys):
        code, out, _ = run(
            capsys, "decide", fixture("shopping.json"), "--params", "Cheap, Bright"
        )
        assert code == 0
        assert "U   Cheap            Bright" in out
        assert "Selected: b4" in out

    def test_params_with_compound_labels(self, capsys):
        code, out, _ = run(
            capsys,
            "decide",
            fixture("qualities_and.json"),
            "--params",
            "(Bright, Costly), (Cheap, Colorful)",
        )
        assert code == 0
        assert "Selected:" in out

    def test_unknown_param_label(self, capsys):
        code, _, err = run(
            capsys, "decide", fixture("shopping.json"), "--params", "Sturdy"
        )
        assert code == 1
        assert err.startswith("error: UnknownParameter:")

    def test_tie_is_reported(self, capsys, tmp_path):
        doc = """{
  "format_version": 1,
  "universe": ["x", "y"],
  "parameters": [{"name": "p", "negated": false}],
  "grades": {"p": {"x": ["0.4", "0.2", "0.3"], "y": ["0.4", "0.2", "0.3"]}}
}
"""
        path = tmp_path / "tie.json"
        path.write_text(doc, encoding="utf-8")
        code, out, _ = run(capsys, "decide", path)
        assert code == 0
        assert "Selected: x (tied at top score)" in out

    def test_empty_reference_path_is_a_usage_error(self, capsys):
        code, out, err = run(capsys, "decide", fixture("shopping.json"), "--reference-matrix", "")
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_misaligned_reference_fails_cleanly(self, capsys, tmp_path):
        path = tmp_path / "ref.json"
        path.write_text(
            '{"format_version": 1, "objects": ["b1"], "parameters": ["Bright"], "entries": [[1]]}',
            encoding="utf-8",
        )
        code, _, err = run(
            capsys, "decide", fixture("shopping.json"), "--reference-matrix", path
        )
        assert code == 1
        assert err.startswith("error: ReferenceMismatch:")


class TestLoneSurrogates:
    """JSON can spell U+D800-U+DFFF alone, but no UTF-8 output can print it."""

    CASES = {
        "id": (
            ["e\ud800"],
            "p",
            r"universe[0]: element id must not contain a lone surrogate, got 'e\ud800'",
        ),
        "name": (
            ["e"],
            "\udfff",
            r"parameters[0].name: parameter name must not contain a lone surrogate, got '\udfff'",
        ),
    }

    @pytest.mark.parametrize("command", ["validate", "show", "decide"])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_rejected_at_load_with_exit_1(self, capsys, tmp_path, command, case):
        universe, name, message = self.CASES[case]
        doc = {
            "format_version": 1,
            "universe": universe,
            "parameters": [{"name": name, "negated": False}],
            "grades": {name: {element: ["0.5", "0.2", "0.3"] for element in universe}},
        }
        path = tmp_path / "surrogate.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, out, err = run(capsys, command, path)
        assert code == 1
        assert out == ""
        assert err == f"error: ParseError: {message}\n"


class TestParserReuse:
    """Consecutive ``main`` calls in one process leave nothing behind."""

    def test_params_do_not_stick(self, capsys):
        code, out, _ = run(capsys, "decide", fixture("shopping.json"), "--params", "Cheap")
        assert code == 0
        assert "U   Cheap\n" in out
        code, out, _ = run(capsys, "decide", fixture("shopping.json"))
        assert code == 0
        assert "U   Bright      Costly      Polystyreneing  Colorful    Cheap\n" in out

    def test_out_file_does_not_stick(self, capsys, tmp_path):
        left, right = fixture("qualities_a.json"), fixture("qualities_b.json")
        expected = fixture("qualities_union.json").read_text(encoding="utf-8")
        target = tmp_path / "union.json"
        assert run(capsys, "union", left, right, "-o", target) == (0, "", "")
        assert target.read_text(encoding="utf-8") == expected
        target.unlink()
        assert run(capsys, "union", left, right) == (0, expected, "")
        assert not target.exists()

    @pytest.mark.parametrize(
        "command, name",
        [
            ("union", "union"),
            ("intersect", "intersection"),
            ("and", "and_op"),
            ("or", "or_op"),
            ("subset", "is_subset"),
            ("equals", "equals"),
            ("complement", "complement"),
            ("show", "render_table"),
            ("validate", "load_soft_set"),
            ("union", "load_soft_set"),
            ("complement", "serialize_soft_set"),
            ("and", "serialize_soft_set"),
        ],
    )
    def test_operations_are_looked_up_per_call(self, capsys, monkeypatch, command, name):
        """A name rebound on ``inss.cli`` after the parser exists is the one called."""
        operands = [fixture("qualities_a.json"), fixture("qualities_b.json")]
        if command in ("complement", "show", "validate"):
            operands = operands[:1]
        first = run(capsys, command, *operands)
        original, calls = getattr(inss.cli, name), []

        def wrapper(*args):
            calls.append(name)
            return original(*args)

        monkeypatch.setattr(inss.cli, name, wrapper)
        assert run(capsys, command, *operands) == first
        assert calls == [name] * (len(operands) if name == "load_soft_set" else 1)


class TestArguments:
    """Each command's operands, and which commands write a document to ``-o/--out``."""

    OPERANDS = {
        "validate": 1, "show": 1, "complement": 1, "decide": 1,
        "union": 2, "intersect": 2, "and": 2, "or": 2, "subset": 2, "equals": 2,
    }

    @pytest.mark.parametrize("extra", [-1, 1])
    @pytest.mark.parametrize("command", sorted(OPERANDS))
    def test_one_operand_too_few_or_too_many(self, capsys, command, extra):
        with pytest.raises(SystemExit) as excinfo:
            main([command, *[str(fixture("qualities_a.json"))] * (self.OPERANDS[command] + extra)])
        assert excinfo.value.code == 2

    @pytest.mark.parametrize("flag", ["-o", "--out"])
    @pytest.mark.parametrize("command", ["complement", "union", "intersect", "and", "or"])
    def test_document_commands_accept_out(self, capsys, tmp_path, command, flag):
        operands = [fixture("qualities_a.json"), fixture("qualities_b.json")][: self.OPERANDS[command]]
        code, expected, _ = run(capsys, command, *operands)
        target = tmp_path / "out.json"
        assert run(capsys, command, *operands, flag, target) == (code, "", "")
        assert target.read_text(encoding="utf-8") == expected

    @pytest.mark.parametrize("command", ["validate", "show", "subset", "equals", "decide"])
    def test_other_commands_refuse_out(self, capsys, tmp_path, command):
        target = tmp_path / "out.json"
        operands = [str(fixture("qualities_a.json"))] * self.OPERANDS[command]
        with pytest.raises(SystemExit) as excinfo:
            main([command, *operands, "-o", str(target)])
        assert excinfo.value.code == 2
        assert not target.exists()


# What ``import inss`` exported when the package listed its names by hand.
PACKAGE_NAMES_BEFORE_RE_EXPORT = (
    "CellAudit", "ComparisonMatrix", "CompoundParameter", "ConstraintViolation", "DecisionTable",
    "DuplicateElement", "DuplicateParameter", "EmptyParameterIntersection", "EmptyParameterSet", "EmptyUniverse",
    "FORMAT_VERSION", "GRADE_SCALE", "Grade", "GradeTriple", "InsSet", "InssError", "MatrixDiff", "OutOfRange",
    "Parameter", "ParseError", "PrecisionLoss", "ReferenceMatrix", "ReferenceMismatch", "ScoreVector",
    "SelectionReport", "SoftSet", "UniverseMismatch", "UnknownLaw", "UnknownParameter", "__version__", "and_op",
    "canonicalize", "comparison_matrix", "complement", "complement_triple", "equals", "intersection", "is_null",
    "is_subset", "load_reference_matrix", "load_soft_set", "not_parameters", "or_op", "render_table",
    "save_soft_set", "scores", "select_best", "serialize_soft_set", "soft_set_to_document", "union",
    "validate_triple",
)


class TestImports:
    def test_cli_import_leaves_the_oracle_out(self):
        code = "import sys, inss.cli; print('inss.oracle' in sys.modules)"
        result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert (result.returncode, result.stdout, result.stderr) == (0, "False\n", "")

    def test_cli_import_loads_neither_dataclasses_nor_inspect(self):
        code = "import sys, inss.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
        result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert (result.returncode, result.stdout, result.stderr) == (0, "[]\n", "")

    def test_the_package_re_exports_each_module_s_public_names(self):
        modules = (inss.grades, inss.algebra, inss.decision, inss.documents, inss.errors)
        assert inss.__all__ == ["__version__", *(name for module in modules for name in module.__all__)]
        assert len(set(inss.__all__)) == len(inss.__all__)
        for module in modules:
            for name in module.__all__:
                assert getattr(inss, name) is getattr(module, name)
        assert not {"oracle", "cli"} & set(inss.__all__)

    def test_every_name_exported_before_still_imports(self):
        for name in PACKAGE_NAMES_BEFORE_RE_EXPORT:
            assert name in inss.__all__ and hasattr(inss, name)


class TestModuleEntryPoint:
    def test_python_dash_mInvocation(self):
        result = subprocess.run(
            [sys.executable, "-m", "inss", "validate", str(fixture("shopping.json"))],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0
        assert result.stdout == "ok: 5 elements, 5 parameters\n"

    @pytest.mark.parametrize("command", ["show", "decide"])
    def test_output_the_terminal_cannot_encode_is_an_output_error(self, tmp_path, command):
        doc = {
            "format_version": 1,
            "universe": ["x"],
            "parameters": [{"name": "h\u00e9llo", "negated": False}],
            "grades": {"h\u00e9llo": {"x": ["0.5", "0.2", "0.3"]}},
        }
        path = tmp_path / "accent.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        result = subprocess.run(
            [sys.executable, "-m", "inss", command, str(path)],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONIOENCODING": "ascii"},
        )
        assert (result.returncode, result.stdout) == (2, "")
        assert result.stderr.startswith("error: ") and result.stderr.count("\n") == 1

    def test_python_dash_m_error_path(self):
        result = subprocess.run(
            [sys.executable, "-m", "inss", "validate", "missing.json"],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 2
