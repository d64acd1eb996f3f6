import json
import subprocess
import sys

import pytest

from morsebott import ArrowSet
from morsebott.cli import report, run
from morsebott import DiscreteFunction

TRIANGLE = "simplex a b c\n"
TRIANGLE_DIM = (
    "value a 0\nvalue b 0\nvalue c 0\n"
    "value a-b 1\nvalue a-c 1\nvalue b-c 1\nvalue a-b-c 2\n"
)
SEGMENT = "simplex v w\n"
SEGMENT_PAIR = "value v 1\nvalue v-w 1\nvalue w 0\n"
HOLLOW = "simplex a b\nsimplex b c\nsimplex a c\n"
HOLLOW_CONST = (
    "value a 0\nvalue b 0\nvalue c 0\nvalue a-b 0\nvalue a-c 0\nvalue b-c 0\n"
)
BROKEN = "cell v 0\ncell e 1\nface e v 2 r\n"
DUPLICATE = (
    "cell v 0\ncell w 0\ncell e 1\nface e v 1 r\nface e v 1 r\nface e w -1 r\n"
)
IRREGULAR_BROKEN = (
    "cell a 0\ncell b 0\ncell c 0\ncell ab 1\ncell ac 1\ncell bc 1\ncell t 2\n"
    "face ab a -1 r\nface ab b 1 r\nface ac a -1 r\nface ac c 1 i\n"
    "face bc b -1 r\nface bc c 1 r\nface t ab 1 r\nface t ac 1 r\nface t bc 1 r\n"
)
STAR = "simplex a n\nsimplex b n\nsimplex c n\n"
STAR_BAD = (
    "value n 3\nvalue a-n 1\nvalue b-n 2\nvalue c-n 3\n"
    "value a 1\nvalue b 2\nvalue c 3\n"
)


@pytest.fixture
def files(tmp_path):
    def write(name, text):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    return write


def run_json(capsys, argv):
    code = run(["--json", *argv])
    return code, json.loads(capsys.readouterr().out)


class TestReportCommand:
    def test_triangle_dimension_function(self, files, capsys):
        argv = ["report", files("k.cw", TRIANGLE), files("f.val", TRIANGLE_DIM)]
        code, data = run_json(capsys, argv)
        assert code == 0
        assert data["ok"] is True
        assert data["inequalities"]["correction"]["coeffs"] == [2, 1]
        assert data["conley"]["conley_sum"]["coeffs"] == [3, 3, 1]

    def test_segment_pair(self, files, capsys):
        code, data = run_json(
            capsys, ["report", files("k.cw", SEGMENT), files("f.val", SEGMENT_PAIR)]
        )
        assert code == 0
        assert data["inequalities"]["correction"]["coeffs"] == []
        assert len(data["conley"]["per_set"]) == 1

    def test_circle_constant(self, files, capsys):
        code, data = run_json(
            capsys, ["report", files("k.cw", HOLLOW), files("f.val", HOLLOW_CONST)]
        )
        assert code == 0
        assert data["ok"] is True
        assert data["flow"]["closed_orbits"] > 0
        assert data["flow"]["cross_collection_orbits"] == []

    def test_not_morse_bott_exits_2(self, files, capsys):
        code, data = run_json(
            capsys, ["report", files("k.cw", STAR), files("f.val", STAR_BAD)]
        )
        assert code == 2
        assert data["ok"] is False

    def test_text_and_json_agree(self, files, capsys):
        argv = ["report", files("k.cw", TRIANGLE), files("f.val", TRIANGLE_DIM)]
        json_code = run(["--json", *argv])
        json_out = capsys.readouterr().out
        text_code = run(argv)
        text_out = capsys.readouterr().out
        assert json_code == text_code == 0
        assert "2 + t" in json_out and "2 + t" in text_out


class TestMorseCheckCommand:
    def test_violation_reported(self, files, capsys):
        code, data = run_json(
            capsys, ["morse-check", files("k.cw", STAR), files("f.val", STAR_BAD)]
        )
        assert code == 2
        assert data["morse_bott"]["violations"][0]["cell"] == "n"
        assert data["morse_bott"]["violations"][0]["rule"] == "U_exceeds_1"

    def test_ok(self, files, capsys):
        code, data = run_json(
            capsys, ["morse-check", files("k.cw", TRIANGLE), files("f.val", TRIANGLE_DIM)]
        )
        assert code == 0
        assert data["morse_bott"]["ok"] and data["discrete_morse"]["ok"]


class TestValidateCommand:
    def test_broken_chain_condition(self, files, capsys):
        assert run(["validate", files("bad.cw", BROKEN)]) == 2

    def test_ok(self, files, capsys):
        assert run(["validate", files("k.cw", TRIANGLE)]) == 0

    def test_duplicate_record(self, files, capsys):
        path = files("dup.cw", DUPLICATE)
        code, data = run_json(capsys, ["validate", path])
        assert code == 2
        assert [v["rule"] for v in data["violations"]] == ["duplicate-record"]
        assert run(["homology", path]) == 2

    def test_irregular_record_breaks_chain_condition(self, files, capsys):
        path = files("bad.cw", IRREGULAR_BROKEN)
        code, data = run_json(capsys, ["validate", path])
        assert code == 2 and not data["ok"]
        assert [(v["rule"], v["cells"]) for v in data["violations"]] == [
            ("chain-condition", ["t", "a"]),
            ("chain-condition", ["t", "c"]),
        ]
        assert run(["homology", path]) == 2
        assert capsys.readouterr().err == (
            "invalid complex: sum of incidences between 't' and 'a' is -2; "
            "sum of incidences between 't' and 'c' is 2\n"
        )

    def test_no_validate_lets_broken_load(self, files, capsys):
        code, data = run_json(capsys, ["--no-validate", "homology", files("bad.cw", BROKEN)])
        assert code == 0


class TestHomologyCommand:
    def test_rp2_over_z2(self, files, capsys):
        text = "\n".join(
            "simplex " + " ".join(str(v) for v in tri)
            for tri in [
                (1, 2, 5), (1, 2, 6), (1, 3, 4), (1, 3, 6), (1, 4, 5),
                (2, 3, 4), (2, 3, 5), (2, 4, 6), (3, 5, 6), (4, 5, 6),
            ]
        )
        path = files("rp2.cw", text + "\n")
        code, data = run_json(capsys, ["homology", "--coeff", "z2", path])
        assert code == 0 and data["summary"]["betti"] == [1, 1, 1]
        code, data = run_json(capsys, ["homology", path])
        assert data["summary"]["betti"] == [1, 0, 0]
        assert data["summary"]["torsion"][1] == [2]


class TestFlowCommand:
    def test_constant_circle(self, files, tmp_path, capsys):
        dot = tmp_path / "field.dot"
        code, data = run_json(
            capsys,
            [
                "flow",
                "--dot",
                str(dot),
                files("k.cw", HOLLOW),
                files("f.val", HOLLOW_CONST),
            ],
        )
        assert code == 0
        assert len(data["arrows"]) == 6
        assert data["closed_orbits"] and data["cross_collection_orbits"] == []
        assert dot.read_text().startswith("digraph")

    def test_max_orbits_truncates(self, files, capsys):
        code, data = run_json(
            capsys,
            [
                "flow",
                "--max-orbits",
                "1",
                files("k.cw", HOLLOW),
                files("f.val", HOLLOW_CONST),
            ],
        )
        assert len(data["closed_orbits"]) == 1 and data["truncated"]

    def test_negative_max_orbits_is_usage_error(self, files, capsys):
        paths = [files("k.cw", HOLLOW), files("f.val", HOLLOW_CONST)]
        for command in ("flow", "report"):
            assert run(["--json", command, "--max-orbits", "-1", *paths]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("error:") and "--max-orbits" in captured.err
            code, data = run_json(capsys, [command, "--max-orbits", "0", *paths])
            assert code == 0 and data.get("flow", data)["truncated"]


class TestInequalitiesAndConley:
    def test_inequalities(self, files, capsys):
        code, data = run_json(
            capsys,
            ["inequalities", files("k.cw", SEGMENT), files("f.val", SEGMENT_PAIR)],
        )
        assert code == 0
        assert data["inequalities"]["correction"]["pretty"] == "0"
        assert data["kernel_inequalities"] == {"1": True}

    def test_conley(self, files, capsys):
        code, data = run_json(
            capsys, ["conley", files("k.cw", TRIANGLE), files("f.val", TRIANGLE_DIM)]
        )
        assert code == 0
        assert data["conley"]["correction"]["coeffs"] == [2, 1]
        assert len(data["index_pairs"]) == 5


class TestPerturbCommand:
    def test_explicit_epsilon(self, files, capsys):
        code = run(
            ["perturb", "--epsilon", "1/2", files("k.cw", TRIANGLE), files("f.val", TRIANGLE_DIM)]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "value a -1/2" in out
        assert "value a-b-c 11/6" in out

    def test_bad_epsilon_is_usage_error(self, files, capsys):
        for eps in ("0", "-1", "x"):
            code = run(
                ["perturb", "--epsilon", eps, files("k.cw", TRIANGLE), files("f.val", TRIANGLE_DIM)]
            )
            assert code == 1


class TestCollectionsCommand:
    def test_listing(self, files, capsys):
        code, data = run_json(
            capsys, ["collections", files("k.cw", SEGMENT), files("f.val", SEGMENT_PAIR)]
        )
        assert code == 0
        assert len(data["collections"]) == 2
        reduced = {tuple(entry["cells"]): entry for entry in map(dict, data["reduced"])}
        assert reduced[("v", "v-w")]["noncritical_pair"] is True


class TestErrorPaths:
    def test_unknown_subcommand(self, capsys):
        assert run(["frobnicate"]) == 1

    def test_unknown_flag(self, files, capsys):
        assert run(["validate", "--wat", files("k.cw", TRIANGLE)]) == 1

    def test_missing_file(self, capsys):
        assert run(["validate", "/nonexistent/k.cw"]) == 1

    def test_syntax_error_is_1(self, files, capsys):
        assert run(["validate", files("k.cw", "junk line\n")]) == 1

    def test_function_error_is_1(self, files, capsys):
        assert (
            run(["morse-check", files("k.cw", TRIANGLE), files("f.val", "value a 1\n")])
            == 1
        )

    def test_help_exits_0(self, capsys):
        assert run(["--help"]) == 0

    def test_unwritable_dot_path_is_1(self, files, tmp_path, capsys):
        dot = tmp_path / "missing" / "field.dot"
        paths = [files("k.cw", HOLLOW), files("f.val", HOLLOW_CONST)]
        assert run(["flow", "--dot", str(dot), *paths]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and captured.err.count("\n") == 1

    def test_non_utf8_file_is_1(self, files, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"cell v 0\n\xff\n")
        for argv in (["validate", str(bad)], ["morse-check", files("k.cw", TRIANGLE), str(bad)]):
            assert run(argv) == 1
            err = capsys.readouterr().err
            assert err.startswith(f"error: {bad}: 'utf-8' codec can't decode")


def test_dimension_bomb_is_a_parse_error(tmp_path):
    # Two cells, one of dimension 10^8: rejected at parse, before any work
    # dense in the degree, with one error line and no traceback.
    k, f = tmp_path / "k.cw", tmp_path / "f.val"
    k.write_text("cell a 0\ncell b 100000000\n")
    f.write_text("value a 0\nvalue b 1\n")
    for argv in (["homology", k], ["report", k, f]):
        proc = subprocess.run(
            [sys.executable, "-m", "morsebott", *map(str, argv)],
            capture_output=True,
            text=True,
            timeout=10,
        )
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr == "error: line 2: dimension 100000000 exceeds the limit 1024\n"


def test_report_with_injected_arrows(hollow_triangle):
    f = DiscreteFunction(
        {"a": 0, "b": 0, "a-b": 0, "c": 1, "b-c": 1, "a-c": 1}
    )
    V = ArrowSet(frozenset({("a", "a-b"), ("b", "b-c"), ("c", "a-c")}))
    document = report(hollow_triangle, f, arrows=V)
    assert document.data["flow"]["cross_collection_orbits"]
    assert document.data["ok"] is False


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "morsebott", "validate", "/nonexistent"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 1
