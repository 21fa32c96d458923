"""CLI contract: subcommands, exit codes, formats, determinism."""

import gc
import io
import json
import os
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import canonical_lie
from canonical_lie import (
    OracleRecord,
    RatMatrix,
    Spectrum,
    Verdict,
    VerdictReason,
    canonical,
    cli,
    half_integral_count,
    half_integral_spectra,
    liegraded,
    oracle_record,
)
from canonical_lie.cli import MAX_LAMBDA, MAX_N, MAX_SWEEP, main
from helpers import (
    _record_json,
    conjugated_normal_form,
    enumerate_doc,
    spec,
    table_row,
    verify_by_dumps,
    zeros,
)

GOOD_SO4 = '{"n":4,"entries":[{"lambda":"1/2","mult":2}]}'
BAD_SO4 = '{"n":4,"entries":[{"lambda":"1/2","mult":1},{"lambda":"3/2","mult":1}]}'


def write_matrix(path, m):
    path.write_text(json.dumps([[str(v) for v in row] for row in m.entries]))
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCheckSpectrum:
    def test_both_methods_agree_on_canonical(self, capsys):
        code, out, _ = run_cli(capsys, "check", "--spectrum", GOOD_SO4, "--method", "both")
        assert code == 0
        assert "agreement: yes" in out
        assert "verdict: canonical" in out

    def test_disagreement_is_exit_two(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "prop3_report", lambda s: (False, "forced"))
        code, out, _ = run_cli(capsys, "check", "--spectrum", GOOD_SO4, "--method", "both")
        assert (code, out) == (
            2,
            "input: spectrum {1/2:2} (n=4)\n"
            "DISCREPANCY: theorem2 says canonical but prop3 says not canonical\n",
        )
        code, out, _ = run_cli(
            capsys, "check", "--spectrum", GOOD_SO4, "--method", "both", "--format", "json"
        )
        doc = json.loads(out)
        assert (code, doc["agree"], doc["theorem2"]["canonical"]) == (2, False, True)
        assert doc["prop3"] == {"canonical": False, "detail": "forced"}

    def test_default_method_reports_generation_failure(self, capsys):
        code, out, _ = run_cli(capsys, "check", "--spectrum", BAD_SO4)
        assert code == 1
        assert "GenerationFails at grade 2" in out
        assert "achieved dim 0, required dim 1" in out

    def test_strict_method(self, capsys):
        code, out, _ = run_cli(capsys, "check", "--spectrum", GOOD_SO4, "--method", "strict")
        assert code == 1
        assert "generated dim 3 of 6" in out

    def test_prop3_method(self, capsys):
        code, out, _ = run_cli(capsys, "check", "--spectrum", BAD_SO4, "--method", "prop3")
        assert code == 1
        assert "mult(1/2) = 1 < 2" in out

    def test_json_format(self, capsys):
        code, out, _ = run_cli(capsys, "check", "--spectrum", GOOD_SO4, "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["canonical"] is True
        assert doc["reason"] == "Canonical"
        assert {"grade": "1", "dim": 1} in doc["grading"]
        assert Spectrum.from_json(doc["input"]["spectrum"]) is not None

    def test_spectrum_from_file(self, capsys, tmp_path):
        path = tmp_path / "s.json"
        path.write_text(GOOD_SO4)
        code, out, _ = run_cli(capsys, "check", "--spectrum", str(path))
        assert code == 0

    def test_malformed_json_reports_location(self, capsys):
        code, _, err = run_cli(capsys, "check", "--spectrum", '{"n":4,')
        assert code == 2
        assert "line 1" in err and "column" in err

    def test_oversized_spectrum_rejected(self, capsys):
        n = MAX_N + 1
        code, out, err = run_cli(
            capsys, "check", "--spectrum", json.dumps(spec(n, ("0", n)).to_json())
        )
        assert (code, out) == (2, "")
        assert f"at most {MAX_N}" in err

    def test_integer_over_digit_limit_is_input_error(self, capsys):
        code, out, err = run_cli(
            capsys, "check", "--spectrum", '{"n": ' + "1" * 5000 + ', "entries": []}'
        )
        assert (code, out) == (2, "")
        assert err.startswith("error: inline spectrum: ")

    def test_invalid_spectrum_is_input_error(self, capsys):
        code, _, err = run_cli(
            capsys, "check", "--spectrum", '{"n":4,"entries":[{"lambda":"1/2","mult":1}]}'
        )
        assert code == 2
        assert "dimensions" in err


class TestCheckMatrix:
    def test_csv_matrix(self, capsys, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("0,-1,0\n1,0,0\n0,0,0\n")
        code, out, _ = run_cli(capsys, "check", "--matrix", str(path))
        assert code == 0
        assert "extracted spectrum {0:1, 1:1}" in out

    def test_json_matrix(self, capsys, tmp_path):
        path = tmp_path / "m.json"
        path.write_text('[["0","-1","0"],["1","0","0"],["0","0","0"]]')
        code, out, _ = run_cli(capsys, "check", "--matrix", str(path), "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["input"]["extracted_spectrum"]["n"] == 3

    def test_non_skew_matrix_is_input_error(self, capsys, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("1,0,0\n0,1,0\n0,0,1\n")
        code, _, err = run_cli(capsys, "check", "--matrix", str(path))
        assert code == 2
        assert "negative" in err

    def test_too_small_matrix_is_input_error(self, capsys, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("0,-1\n1,0\n")
        code, _, err = run_cli(capsys, "check", "--matrix", str(path))
        assert code == 2
        assert "n >= 3" in err

    def test_non_half_integral_matrix_is_negative_verdict(self, capsys, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("0,-1/3,0\n1/3,0,0\n0,0,0\n")
        code, out, _ = run_cli(capsys, "check", "--matrix", str(path))
        assert code == 1
        assert "NonIntegralAdSpectrum" in out

    def test_float_entries_rejected(self, capsys, tmp_path):
        path = tmp_path / "m.json"
        path.write_text("[[0, -0.5], [0.5, 0]]")
        code, _, err = run_cli(capsys, "check", "--matrix", str(path))
        assert code == 2
        assert "float" in err

    def test_huge_magnitude_fails_fast_at_grade_two(self, capsys, tmp_path):
        s = spec(5, ("0", 1), ("2", 1), (10**9, 1))
        a = RatMatrix(
            [
                [0, 1, 0, 2, 0],
                [-1, 0, 1, 0, 0],
                [0, -1, 0, 0, 3],
                [-2, 0, 0, 0, 1],
                [0, 0, -3, -1, 0],
            ]
        )
        path = write_matrix(tmp_path / "m.json", conjugated_normal_form(s, a))
        code, out, _ = run_cli(capsys, "check", "--matrix", path)
        assert code == 1
        assert "extracted spectrum {0:1, 2:1, 1000000000:1}" in out
        assert "GenerationFails at grade 2" in out

    def test_oversized_matrix_rejected_before_extraction(self, capsys, tmp_path, monkeypatch):
        def unreachable(m):
            raise AssertionError("extraction ran on an oversized matrix")

        monkeypatch.setattr(cli, "spectrum_from_matrix", unreachable)
        n = MAX_N + 1
        path = write_matrix(tmp_path / "m.json", zeros(n, n))
        code, out, err = run_cli(capsys, "check", "--matrix", path)
        assert (code, out) == (2, "")
        assert f"at most {MAX_N}" in err

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_oversized_matrix_rejected_before_cells_are_converted(
        self, capsys, tmp_path, monkeypatch, fmt
    ):
        def unreachable(value, where):
            raise AssertionError(f"{where} was converted in an oversized matrix")

        monkeypatch.setattr(cli, "_parse_matrix_cell", unreachable)
        n = MAX_N + 1
        rows = [["0"] * n for _ in range(n)]
        path = tmp_path / f"m.{fmt}"
        if fmt == "json":
            path.write_text(json.dumps(rows))
        else:  # blank lines are not rows
            path.write_text("\n\n".join(",".join(row) for row in rows))
        code, out, err = run_cli(capsys, "check", "--matrix", str(path))
        assert (code, out) == (2, "")
        assert err == f"error: matrix {path} has {n} rows; n must be at most {MAX_N}\n"

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_overlong_row_rejected_before_cells_are_converted(
        self, capsys, tmp_path, monkeypatch, fmt
    ):
        def unreachable(value, where):
            raise AssertionError(f"{where} was converted in a matrix with an overlong row")

        monkeypatch.setattr(cli, "_parse_matrix_cell", unreachable)
        width = MAX_N + 1
        rows = [["0"] * 3, ["1/3"] * width, ["0"] * 3]
        path = tmp_path / f"m.{fmt}"
        if fmt == "json":
            path.write_text(json.dumps(rows))
        else:
            path.write_text("\n".join(",".join(row) for row in rows))
        code, out, err = run_cli(capsys, "check", "--matrix", str(path))
        assert (code, out) == (2, "")
        assert err == f"error: matrix {path} row 1 has {width} entries; n must be at most {MAX_N}\n"

    def test_integer_over_digit_limit_is_input_error(self, capsys, tmp_path):
        path = tmp_path / "m.json"
        path.write_text("[[0, " + "1" * 5000 + "], [0, 0]]")
        code, out, err = run_cli(capsys, "check", "--matrix", str(path))
        assert (code, out) == (2, "")
        assert err.startswith(f"error: matrix file {path}: ")

    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "check", "--matrix", "/nonexistent/m.csv")
        assert code == 2

    def test_csv_line_ends(self, capsys, tmp_path):
        # CR LF and a lone CR end rows as LF does; a form feed, a file
        # separator or a line separator inside a row does not, and is
        # stripped from its cell as whitespace
        for text in ("0,-1,0\r\n1,0,0\r0,0,0\r\n", "0,-1\f,0\n1,0\x1c,0\n0,0\u2028,0\n"):
            path = tmp_path / "m.csv"
            path.write_bytes(text.encode("utf-8"))
            code, out, err = run_cli(capsys, "check", "--matrix", str(path))
            assert (code, err) == (0, "")
            assert f"input: matrix 3x3 from {path}; extracted spectrum {{0:1, 1:1}}" in out

    @pytest.mark.parametrize(
        "text",
        ["", "a", "a\n", "\n\n", "a\nb", "a,\"1\n2\"\nb\n", "a\fb\x85c\u2028d\n", "\na\n\n"],
    )
    def test_lines_match_string_io(self, text):
        assert list(cli._lines(text)) == list(io.StringIO(text))


class TestMalformedFile:
    """An input file that is not UTF-8, nests JSON too deeply for the parser
    or holds a CSV field too long for the reader is an input error: exit 2
    and one `error:` line that names the file."""

    CONTENTS = {
        "not-utf8": b"\xff\xfe",
        "nested-997": b"[" * 997 + b"]" * 997,
        "nested-100000": b"[" * 100_000 + b"]" * 100_000,
        "long-field": b"a" * 200_000,  # past the CSV reader's field limit
    }

    @pytest.mark.parametrize("option", ["--matrix", "--spectrum"])
    @pytest.mark.parametrize("name", list(CONTENTS))
    def test_in_process(self, capsys, tmp_path, option, name):
        path = tmp_path / name
        path.write_bytes(self.CONTENTS[name])
        code, out, err = run_cli(capsys, "check", option, str(path))
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and str(path) in err and err.count("\n") == 1

    @pytest.mark.parametrize("option", ["--matrix", "--spectrum"])
    @pytest.mark.parametrize("name", ["not-utf8", "nested-997", "long-field"])
    def test_process(self, tmp_path, option, name):
        # the depth at which the parser gives up depends on the stack under it
        path = tmp_path / name
        path.write_bytes(self.CONTENTS[name])
        src = str(Path(canonical_lie.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-m", "canonical_lie", "check", option, str(path)],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=src),
        )
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr.startswith("error: ") and str(path) in proc.stderr
        assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr

    def test_nested_inline_spectrum(self, capsys):
        code, out, err = run_cli(capsys, "check", "--spectrum", "[" * 100_000 + "]" * 100_000)
        assert (code, out) == (2, "") and err.startswith("error: inline spectrum: maximum recursion")


class TestEchoedValueIsCut:
    """An input error echoes a fixed prefix of an overlong offending value,
    with a marker and the length of the whole, so the `error:` line stays
    short however large the value is."""

    @pytest.mark.parametrize(
        "cell,detail",
        [
            (
                "1" * 999_999 + "x",
                "not a rational 'p/q' string: '1111111111111111111111111111111... "
                "(1000002 characters)",
            ),
            (
                [0] * 100_000,
                "unsupported entry [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0... (300000 characters)",
            ),
        ],
        ids=["string", "array"],
    )
    def test_matrix_cell(self, capsys, tmp_path, cell, detail):
        path = tmp_path / "m.json"
        path.write_text(json.dumps([["0", cell, "0"], ["0", "0", "0"], ["0", "0", "0"]]))
        code, out, err = run_cli(capsys, "check", "--matrix", str(path))
        assert (code, out) == (2, "") and len(err.encode()) < 300
        assert err == f"error: {path} row 0 column 1: {detail}\n"

    def test_inline_lambda(self, capsys):
        lam = "9" * 99_999 + "."
        arg = json.dumps({"n": 3, "entries": [{"lambda": lam, "mult": 1}]})
        code, out, err = run_cli(capsys, "check", "--spectrum", arg)
        assert (code, out) == (2, "") and len(err.encode()) < 300
        assert err == (
            "error: inline spectrum: not a rational 'p/q' string: "
            "'9999999999999999999999999999999... (100002 characters)\n"
        )

    def test_process(self, tmp_path):
        # the million-character cell through a whole process, stderr in bytes
        path = tmp_path / "m.json"
        path.write_text(json.dumps([["0", "x" * 1_000_000, "0"], ["0", "0", "0"], ["0", "0", "0"]]))
        src = str(Path(canonical_lie.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-m", "canonical_lie", "check", "--matrix", str(path)],
            capture_output=True,
            env=dict(os.environ, PYTHONPATH=src),
        )
        assert (proc.returncode, proc.stdout) == (2, b"") and len(proc.stderr) < 300

    BIG = "1" * 4000

    @pytest.mark.parametrize(
        "argv",
        [
            ["check", "--spectrum", '{"n": -%s, "entries": []}' % BIG],
            ["check", "--spectrum", '{"n": %s, "entries": [{"lambda": "0", "mult": %s}]}' % (BIG, BIG)],
            ["check", "--spectrum", '{"n": 4, "entries": [{"lambda": "1", "mult": %s}]}' % BIG],
            ["enumerate", "--n", BIG],
            ["verify", "--max-n", BIG],
            ["verify", "--max-n", "5", "--max-lambda", BIG],
            ["verify", "--max-n", "5", "--max-lambda", "-" + BIG],
        ],
        ids=["n-below-3", "n-above-max", "mult-total", "enumerate-n", "max-n", "max-lambda",
             "negative-max-lambda"],
    )
    def test_huge_integer(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "") and err.count("\n") == 1
        assert len(err.encode()) < 200 and "... (400" in err


def loads_or_message(text, origin):
    """What `_parse_json` gave when it read every document with json.loads:
    ("value", v) or ("error", the InputError's message)."""
    try:
        return "value", json.loads(text)
    except json.JSONDecodeError as exc:
        return "error", f"{origin}: JSON parse error at line {exc.lineno} column {exc.colno}: {exc.msg}"
    except (ValueError, RecursionError) as exc:
        return "error", f"{origin}: {exc}"


class TestJsonSubset:
    """`cli._read_json` reads the JSON subset of the CLI's inputs with `str`
    methods and gives up (None) on anything else, which json.loads then
    reads; `cli._dumps` writes what json.dumps(v, indent=2) writes.  Values
    are compared as json.dumps text, which tells 1 from 1.0 and True and
    keeps key order."""

    MARK = 987654321987654321  # a leaf that a near miss replaces

    @staticmethod
    def subset_values():
        """Values inside the subset: string keys, at most MAX_N items per
        array, containers at most three deep, ints, and strings with no
        backslash, quote or character below U+0020."""
        plain = st.text(st.characters(blacklist_characters='"\\', min_codepoint=0x20), max_size=8)
        ints = st.integers() | st.integers(-(10**300), 10**300)
        leaf = plain | ints | st.just(TestJsonSubset.MARK)

        def nest(inner):
            return st.lists(inner, max_size=MAX_N) | st.dictionaries(plain, inner, max_size=5)

        depth1 = nest(leaf)
        return st.one_of(leaf, depth1, nest(leaf | depth1), nest(leaf | nest(leaf | depth1)))

    @staticmethod
    @st.composite
    def documents(draw):
        """A value of the subset as json.dumps writes it, in one of its
        layouts, with CR LF line ends at times."""
        value = draw(TestJsonSubset.subset_values())
        layout = draw(st.sampled_from([{}, {"indent": 2}, {"indent": "\t"}, {"separators": (",", ":")}]))
        text = json.dumps(value, ensure_ascii=False, **layout)
        if draw(st.booleans()):
            text = text.replace("\n", "\r\n")
        return draw(st.sampled_from(["", " ", "\n", "\t\r\n"])) + text + draw(st.sampled_from(["", " \n"]))

    NEAR_MISSES = [
        "1.0", "1e3", "1E3", "-0", "+1", "01", "-01", "1_0", "-", "--1", "0x1", "\u0663", "\u00b2", "1\u0663",
        "true", "false", "null", "NaN", "Infinity", "-Infinity", '"a\\nb"', '"\\u0041"', '"\\""', '"\t"',
        '"\x1f"', '"\x7f"', '"\u00fc"', "'a'", '{"a": 1, "a": 2}', '{"b": 1, "a": [2], "b": 3}',
        "1" * 5000, "-" + "1" * 4300, "1" * 4300, "[" * 1000 + "]" * 1000, "[[[[1]]]]", "{1: 2}",
        '{"a" 1}', '{"a": 1,}', "[1,]", "[,1]", "[1 2]", '"a" "b"', "[]", "{}", "\f1", "\u00a01",
        "[" + ",".join(["0"] * (MAX_N + 1)) + "]",
    ]

    @staticmethod
    @st.composite
    def near_misses(draw):
        """A document of the subset cut short, with a BOM, with trailing data,
        or with one leaf in place of the mark swapped for a near miss."""
        text = draw(TestJsonSubset.documents())
        how = draw(st.sampled_from(["cut", "bom", "trail", "swap"]))
        if how == "cut":
            return text[: draw(st.integers(0, max(0, len(text) - 1)))]
        if how == "bom":
            return "\ufeff" + text
        if how == "trail":
            return text + draw(st.sampled_from([" x", "]", "}", ",", "0", "\f", "\u00a0"]))
        miss = draw(st.sampled_from(TestJsonSubset.NEAR_MISSES))
        mark = str(TestJsonSubset.MARK)
        return text.replace(mark, miss, 1) if mark in text else miss

    @settings(max_examples=400, deadline=None)
    @given(documents())
    def test_reads_the_subset(self, text):
        value = cli._read_json(text)
        assert value is not None and json.dumps(value) == json.dumps(json.loads(text))

    @settings(max_examples=600, deadline=None)
    @given(documents() | near_misses())
    def test_reads_as_json_loads_or_gives_up(self, text):
        value = cli._read_json(text)
        kind, want = loads_or_message(text, "doc")
        if value is not None:
            assert (kind, json.dumps(value)) == ("value", json.dumps(want))
        try:
            got = "value", cli._parse_json(text, "doc")
        except cli.InputError as exc:
            got = "error", str(exc)
        assert (got[0], json.dumps(got[1])) == (kind, json.dumps(want))

    @pytest.mark.parametrize("miss", NEAR_MISSES)
    def test_each_near_miss(self, miss):
        for text in (miss, f'{{"n": {miss}}}', f"[[{miss}]]"):
            value = cli._read_json(text)
            kind, want = loads_or_message(text, "doc")
            assert value is None or (kind, json.dumps(value)) == ("value", json.dumps(want))

    def test_gives_up_outside_the_subset(self):
        for text in ("1.0", "-01", "true", '"\\u0041"', "\ufeff[]", "[" * 4 + "]" * 4, "1" * 5000,
                     "[" + ",".join(["0"] * (MAX_N + 1)) + "]", '["a" "b"]', '"\t"'):
            assert cli._read_json(text) is None, text

    payloads = st.recursive(
        st.none() | st.booleans() | st.integers() | st.integers(-(10**40), 10**40) | st.text(),
        lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
        max_leaves=25,
    )

    @settings(max_examples=400, deadline=None)
    @given(payloads)
    def test_dumps_is_json_dumps(self, value):
        assert cli._dumps(value) == json.dumps(value, indent=2)

    @pytest.mark.parametrize(
        "text", ["", "a", '"', "\\", 'a"b\\c', "\x00", "\x1f", "\n\t", "\x7f", "\u00fc", " ", "~ "]
    )
    def test_dumps_strings(self, text):
        value = {text: [text, {"k": text}]}
        assert cli._dumps(value) == json.dumps(value, indent=2)

    def test_check_echoes_a_path_that_needs_escapes(self, capsys, tmp_path):
        path = tmp_path / 'm "q" \\ \u00fc.json'
        path.write_text('[["0","-1","0"],["1","0","0"],["0","0","0"]]')
        code, out, err = run_cli(capsys, "check", "--matrix", str(path), "--format", "json")
        assert (code, err) == (0, "")
        doc = json.loads(out)
        assert doc["input"]["matrix"] == str(path)
        assert out == json.dumps(doc, indent=2) + "\n"
        assert '\\"q\\" \\\\ \\u00fc.json"' in out


class TestEnumerate:
    def test_n3_has_two_classes(self, capsys):
        code, out, _ = run_cli(capsys, "enumerate", "--n", "3")
        assert code == 0
        assert "2 classes" in out

    def test_n4_has_three_classes(self, capsys):
        code, out, _ = run_cli(capsys, "enumerate", "--n", "4")
        assert code == 0
        assert "3 classes" in out
        assert "{1/2:2}" in out

    def test_json_round_trips_through_schema(self, capsys):
        code, out, _ = run_cli(capsys, "enumerate", "--n", "4", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["count"] == 3
        spectra = [Spectrum.from_json(cls["spectrum"]) for cls in doc["classes"]]
        assert len(set(spectra)) == 3

    @pytest.mark.parametrize("n", range(3, MAX_N + 1))
    def test_json_template_is_json_dumps(self, capsys, n):
        code, out, err = run_cli(capsys, "enumerate", "--n", str(n), "--format", "json")
        assert (code, out, err) == (0, json.dumps(enumerate_doc(n), indent=2) + "\n", "")

    def test_n_too_small(self, capsys):
        code, _, err = run_cli(capsys, "enumerate", "--n", "2")
        assert code == 2


    def test_n_too_large(self, capsys):
        code, out, err = run_cli(capsys, "enumerate", "--n", str(MAX_N + 1))
        assert (code, out) == (2, "")
        assert f"at most {MAX_N}" in err


class TestVerify:
    def test_small_sweep_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--max-n", "4", "--max-lambda", "3/2")
        assert code == 0
        assert "discrepancies: 0" in out
        # the multiplicity-one case appears in the report with its failure
        assert "{1/2:1, 3/2:1}" in out
        assert "GenerationFails at 2" in out

    def test_json_output(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--max-n", "3", "--max-lambda", "1", "--format", "json"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["tested"] == len(doc["results"])
        assert doc["discrepancies"] == []
        assert all(r["agree"] for r in doc["results"])
        for r in doc["results"]:
            assert Spectrum.from_json(r["spectrum"]).n == r["n"]

    def test_record_template_is_json_dumps_at_depth_two(self):
        records = [oracle_record(s) for n in range(3, 9) for s in half_integral_spectra(n, "7/2")]
        # every reason, a failing block, and theorem1 both true and null
        assert {r.verdict.reason for r in records} == set(VerdictReason)
        assert any(r.verdict.failing for r in records)
        assert {r.theorem1_ok for r in records} == {True, None}
        # forged records reach the JSON tails and table cells no real sweep
        # makes: theorem1 false and disagreements, over every reason and
        # several failing grades
        verdicts = [
            Verdict(VerdictReason.CANONICAL),
            Verdict(VerdictReason.NON_INTEGRAL),
            *(Verdict(VerdictReason.GENERATION_FAILS, f) for f in [(1, 0, 2), (2, 0, 1), (5, 3, 4)]),
        ]
        shapes = [(v, p3, t1) for v in verdicts for p3 in (True, False) for t1 in (True, False, None)]
        # every shape twice, each time after a different one, so a text kept
        # under the wrong key would show; as in a request, each format keeps
        # one dict of shared texts for all its records
        forged = [OracleRecord(records[i].spectrum, *s) for i, s in enumerate(shapes + shapes)]
        shared, cells = {}, {}
        for rec in records + forged:
            want = textwrap.indent(json.dumps(_record_json(rec), indent=2), "    ")
            assert cli._record_text(rec, shared) == want
            assert cli._table_cells(rec, cells) == table_row(rec)

    @pytest.mark.parametrize("fmt", ["table", "json"])
    @pytest.mark.parametrize("max_n,bound", [(3, "1/2"), (6, "5/2"), (8, "7/2")])
    def test_streamed_output_matches_json_dumps(self, capsys, fmt, max_n, bound):
        code, out, err = run_cli(
            capsys, "verify", "--max-n", str(max_n), "--max-lambda", bound, "--format", fmt
        )
        assert (code, out, err) == (*verify_by_dumps(max_n, bound, fmt), "")

    @pytest.mark.parametrize("fmt", ["table", "json"])
    @pytest.mark.parametrize(
        "name,forced",
        [
            ("prop3_check", lambda s: False),
            ("_theorem1", lambda table, gm: ({"forced": False}, [])),
        ],
    )
    def test_discrepancies_match_json_dumps(self, capsys, monkeypatch, fmt, name, forced):
        monkeypatch.setattr(canonical, name, forced)
        code, out, err = run_cli(
            capsys, "verify", "--max-n", "5", "--max-lambda", "2", "--format", fmt
        )
        assert code == 1
        assert (code, out, err) == (*verify_by_dumps(5, "2", fmt), "")
        if fmt == "json":
            bad = json.loads(out)["discrepancies"]
            assert bad and all(r["theorem2"]["canonical"] for r in bad)

    def test_sweep_builds_no_table_and_no_grading(self, capsys, monkeypatch):
        # theorem2 and Theorem 1 decide on g_0-cells, so a sweep neither
        # brackets wedges, counts grade dimensions nor expands cells to wedges;
        # `enumerate` shows that the counted names are the ones called
        calls = []
        for name in ("_witt_bracket", "grade_dims", "_wedge_indices"):

            def counted(*args, fn=getattr(liegraded, name), name=name):
                calls.append(name)
                return fn(*args)

            for module in (liegraded, canonical, cli):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, counted)
        code, _, _ = run_cli(capsys, "verify", "--max-n", "7", "--max-lambda", "7/2")
        assert (code, calls) == (0, [])
        code, _, _ = run_cli(capsys, "enumerate", "--n", "4")
        assert (code, calls) == (0, ["grade_dims"] * 3)

    def test_sweep_words_no_reason_and_keeps_no_trace(self, capsys, monkeypatch):
        # a record takes prop3's answer from prop3_check and theorem2's from its
        # generation loop, so neither prop3_report nor theorem2_check runs
        calls = []
        for name in ("prop3_report", "theorem2_check"):

            def counted(*args, fn=getattr(canonical, name), name=name):
                calls.append(name)
                return fn(*args)

            for module in (canonical, cli):
                monkeypatch.setattr(module, name, counted)
        code, _, _ = run_cli(capsys, "verify", "--max-n", "7", "--max-lambda", "7/2")
        assert (code, calls) == (0, [])

    def test_max_n_too_small(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--max-n", "2")
        assert code == 2

    def test_max_n_too_large(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--max-n", str(MAX_N + 1))
        assert (code, out) == (2, "")
        assert f"at most {MAX_N}" in err

    def test_bad_max_lambda(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--max-n", "3", "--max-lambda", "1/3")
        assert code == 2
        assert "half-integer" in err

    def test_largest_max_lambda_accepted(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--max-n", "3", "--max-lambda", str(MAX_LAMBDA))
        assert code == 0
        assert f"tested: {2 * MAX_LAMBDA + 1} " in out

    @pytest.mark.parametrize("bound", [f"{2 * MAX_LAMBDA + 1}/2", "9" * 4000])
    def test_max_lambda_cap(self, capsys, bound):
        code, out, err = run_cli(capsys, "verify", "--max-n", "3", "--max-lambda", bound)
        assert (code, out) == (2, "")
        # an overlong bound is echoed cut, as exactlin.shown cuts any value
        echoed = bound if len(bound) < 10 else "9" * 32 + "... (4000 characters)"
        assert err == f"error: --max-lambda must be at most {MAX_LAMBDA}, got {echoed}\n"

    def test_max_lambda_over_the_digit_limit(self, capsys):
        # read as ints, the bound gets int's own error, as Fraction gave it
        bound = "1" * 5000
        with pytest.raises(ValueError) as exc:
            int(bound)
        code, out, err = run_cli(capsys, "verify", "--max-n", "3", "--max-lambda", bound)
        assert (code, out, err) == (2, "", f"error: {exc.value}\n")
        assert str(exc.value).startswith("Exceeds the limit")

    def test_sweep_cap_is_the_default_sweep_at_max_n(self):
        default = Fraction(7, 2)
        assert sum(half_integral_count(n, default) for n in range(3, MAX_N + 1)) == MAX_SWEEP

    @pytest.mark.parametrize("max_n,bound", [(str(MAX_N), "4"), ("4", "20000")])
    def test_sweep_cap_rejects_before_building_spectra(self, capsys, monkeypatch, max_n, bound):
        def unreachable(n, max_lambda):
            raise AssertionError("spectra built for an oversized sweep")

        monkeypatch.setattr(cli, "half_integral_spectra", unreachable)
        monkeypatch.setattr(cli, "MAX_LAMBDA", 20000)
        code, out, err = run_cli(capsys, "verify", "--max-n", max_n, "--max-lambda", bound)
        assert (code, out) == (2, "")
        assert f"at most {MAX_SWEEP} are allowed" in err


class TestNoCyclicGarbage:
    """`run` turns the cyclic collector off because no request leaves a
    reference cycle behind: with the collector off through a request on the
    success path of each command, the next collection finds nothing."""

    LADDER = spec(5, ("0", 1), ("1", 1), ("2", 1))  # canonical, and strictly generated

    @pytest.fixture
    def matrix_files(self, tmp_path):
        a = RatMatrix([[0, 1, 0, 2, 0], [-1, 0, 1, 0, 0], [0, -1, 0, 0, 3],
                       [-2, 0, 0, 0, 1], [0, 0, -3, -1, 0]])
        m = conjugated_normal_form(self.LADDER, a)
        csv_path = tmp_path / "m.csv"
        csv_path.write_text("\n".join(",".join(str(v) for v in row) for row in m.entries))
        return write_matrix(tmp_path / "m.json", m), str(csv_path)

    def requests(self, matrix_files):
        inline = json.dumps(self.LADDER.to_json())
        for fmt in ("table", "json"):
            yield ["verify", "--max-n", "8", "--format", fmt]
            yield ["enumerate", "--n", "12", "--format", fmt]
            for method in ("theorem2", "prop3", "both", "strict"):
                for option, value in [("--spectrum", inline), *(("--matrix", f) for f in matrix_files)]:
                    yield ["check", option, value, "--method", method, "--format", fmt]

    def test_requests_leave_none(self, capsys, matrix_files):
        gc.collect()
        gc.disable()
        try:
            for argv in self.requests(matrix_files):
                code = main(argv)
                capsys.readouterr()
                assert (argv, code, gc.collect()) == (argv, 0, 0)
        finally:
            gc.enable()

    @pytest.mark.parametrize("collecting", [True, False])
    def test_package_import_collects_nothing(self, collecting):
        # the package loads its modules on first use, so importing it makes no
        # collection and leaves the collector as the caller set it; `python -m
        # canonical_lie` then loads them with the collector off and makes none
        src = str(Path(canonical_lie.__file__).resolve().parents[1])
        code = (
            "import gc, os, runpy, sys\n"
            f"gc.enable() if {collecting} else gc.disable()\n"
            "starts = []\n"
            "gc.callbacks.append(lambda phase, info: starts.append(phase == 'start'))\n"
            "import canonical_lie\n"
            "print(sum(starts), gc.isenabled(), flush=True)\n"
            "sys.argv = ['-m', 'enumerate', '--n', '3']\n"
            "gc.callbacks.append(lambda phase, info: os.write(2, b'collected'))\n"
            "runpy._run_module_as_main('canonical_lie')\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=src),
        )
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout.splitlines()[0] == f"0 {collecting}"

    def test_import_leaves_none(self):
        # `python -m canonical_lie` turns the collector off before `cli` loads
        src = str(Path(canonical_lie.__file__).resolve().parents[1])
        code = "import gc; gc.disable(); import canonical_lie.cli; print(gc.collect())"
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=src),
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "0\n", "")


class TestContract:
    def test_output_is_deterministic(self, capsys):
        runs = [
            run_cli(capsys, "verify", "--max-n", "4", "--max-lambda", "3/2"),
            run_cli(capsys, "verify", "--max-n", "4", "--max-lambda", "3/2"),
        ]
        assert runs[0] == runs[1]

    def test_usage_error_exit_code(self, capsys):
        assert main(["check"]) == 2
        assert main(["nonsense"]) == 2

    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "canonical_lie", "enumerate", "--n", "3"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "2 classes" in proc.stdout

    def test_process_pool_not_imported_at_load(self):
        probe = "import sys, canonical_lie.cli; print('concurrent.futures.process' in sys.modules)"
        proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
        assert (proc.returncode, proc.stdout) == (0, "False\n")


class TestGrammar:
    """`main` reads argv through `_parse` and the `_GRAMMAR` table, and falls
    back to the argparse parser only where `_parse` returns None."""

    # the benchmark's three request forms and its warm-up request
    BENCHMARK = [
        ["verify", "--max-n", "7", "--max-lambda", "7/2", "--format", "json"],
        ["enumerate", "--n", "9", "--format", "json"],
        ["check", "--matrix", ".perfbench/matrix-1-0/inputs/m000.json", "--format", "json"],
        ["check", "--spectrum", GOOD_SO4, "--format", "json"],
    ]
    GOLDEN = json.loads((Path(__file__).parent / "golden" / "cli.json").read_text("utf-8"))

    @staticmethod
    def argparse_vars(argv):
        return vars(cli._build_parser().parse_args(argv))

    def test_every_recorded_request_takes_the_table_path(self):
        for argv in [e["argv"] for e in self.GOLDEN] + self.BENCHMARK:
            args = cli._parse(argv)
            assert args is not None, argv
            assert vars(args) == self.argparse_vars(argv)

    @pytest.mark.parametrize(
        "argv",
        [
            [],
            ["-h"],
            ["--help"],
            ["check", "--help"],
            ["check", "--spectrum", GOOD_SO4, "-h"],
            ["enumerate", "--n", "9", "--format"],
            ["enumerate", "--n", "9", "extra"],
            ["verify", "--max", "7"],
            ["verify", "--max-n", "7", "--form", "json"],
            ["enumerate", "--n=9"],
            ["enumerate", "--n", "9", "--n", "9"],
            ["enumerate", "--", "--n", "9"],
            ["enumerate", "--n", "-3"],
            ["verify", "--max-n", "7", "--max-lambda", "-1/2"],
            ["enumerate", "--n", "x"],
            ["enumerate", "--n", ""],
            ["enumerate", "--format", "json"],
            ["verify", "--max-n", "7", "--format", "xml"],
            ["check", "--method", "prop3"],
            ["check", "--spectrum", GOOD_SO4, "--matrix", "m.json"],
            ["check", "--n", "9"],
            ["nonsense"],
        ],
    )
    def test_rejects_what_argparse_must_answer(self, argv):
        assert cli._parse(argv) is None

    OWN = {
        "check": ["--spectrum", "--matrix", "--method", "--format"],
        "enumerate": ["--n", "--format"],
        "verify": ["--max-n", "--max-lambda", "--format"],
    }
    FLAGS = sorted({f for flags in OWN.values() for f in flags}) + [
        "--max", "--form", "--n=9", "-h", "--help", "--",
    ]
    VALUES = ["9", "-3", "", "\u0663", " 9", "json", "xml", "both", "7/2", GOOD_SO4]
    SENSIBLE = {
        "--spectrum": [GOOD_SO4, "s.json"],
        "--matrix": ["m.json", "m.csv"],
        "--method": ["theorem2", "prop3", "both", "strict"],
        "--format": ["table", "json"],
        "--n": ["3", "9", "+9", "\u0663", " 9", "9_0"],
        "--max-n": ["3", "7"],
        "--max-lambda": ["7/2", "1/2"],
    }

    @staticmethod
    @st.composite
    def argvs(draw):
        """A command and some of its flags in any order, each with a value
        mostly of its kind; at times a flag is swapped for any flag, and at
        times a stray token goes in.  About one argv in ten is accepted."""
        g = TestGrammar
        command = draw(st.sampled_from(list(g.OWN)))
        argv = [command]
        for flag in draw(st.permutations(g.OWN[command]))[: draw(st.integers(0, 4))]:
            if draw(st.integers(0, 4)) == 0:
                flag = draw(st.sampled_from(g.FLAGS))
            argv += [flag, draw(st.sampled_from(g.SENSIBLE.get(flag, []) * 3 + g.VALUES))]
        if draw(st.integers(0, 3)) == 0:
            stray = draw(st.sampled_from(g.FLAGS + g.VALUES + ["nonsense"]))
            argv.insert(draw(st.integers(0, len(argv))), stray)
        return argv

    @settings(max_examples=400, deadline=None)
    @given(argvs())
    def test_parse_agrees_with_argparse(self, argv):
        args = cli._parse(argv)
        assert args is None or vars(args) == self.argparse_vars(argv)


USAGE = json.loads((Path(__file__).parent / "golden" / "usage.json").read_text("utf-8"))


@pytest.mark.parametrize(
    "entry", USAGE, ids=[f"{i:02d}-{(e['argv'] or ['empty'])[0]}" for i, e in enumerate(USAGE)]
)
def test_help_and_usage_match_golden(entry, capsys, monkeypatch):
    """`golden/usage.json` pins argparse's help and usage errors, recorded with
    COLUMNS=80 as {"argv", "exit", "stdout", "stderr"}: `--help` at the top
    and for each command, empty argv, an unknown command, a missing,
    conflicting or ambiguous option, a bad int or choice, a flag without its
    value and a stray argument."""
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps to the terminal's width
    assert run_cli(capsys, *entry["argv"]) == (entry["exit"], entry["stdout"], entry["stderr"])


class TestProcessMatchesMain:
    """A `python -m canonical_lie` process, which ends in `run()` through a
    flush and `os._exit`, prints what `main()` prints in process and exits
    with the code it returns, whether its stdout is buffered or not and when
    the output is larger than a pipe's buffer (6.2 MB for enumerate)."""

    COMMANDS = {
        "help": (0, ["--help"]),
        "enumerate": (0, ["enumerate", "--n", "24", "--format", "json"]),
        "verify": (0, ["verify", "--max-n", "12", "--format", "json"]),
        "negative": (1, ["check", "--spectrum", BAD_SO4]),
        "usage": (2, ["check"]),
        "bad_input": (2, ["check", "--spectrum", '{"n":4,']),
    }

    @pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_same_output_and_code(self, capsys, monkeypatch, command, unbuffered):
        code, argv = self.COMMANDS[command]
        monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help to the terminal's width
        want = run_cli(capsys, *argv)
        assert want[0] == code
        src = str(Path(canonical_lie.__file__).resolve().parents[1])
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = src
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        proc = subprocess.run(
            [sys.executable, "-m", "canonical_lie", *argv], capture_output=True, text=True, env=env
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == want


class TestClosedPipe:
    """A reader that closes stdout before the end gets exit 141, the shell's
    SIGPIPE code, and no traceback, whether the child's stdout is buffered
    or not.  The read end is closed before the child starts, so its first
    write to stdout, or its final flush, certainly fails with EPIPE."""

    COMMANDS = {
        "check": ["check", "--spectrum", '{"n":24,"entries":[{"lambda":"0","mult":24}]}'],
        "enumerate": ["enumerate", "--n", "24", "--format", "json"],
        "verify": ["verify", "--max-n", "12"],
    }

    @pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_exit_141_without_traceback(self, command, unbuffered):
        src = str(Path(canonical_lie.__file__).resolve().parents[1])
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = src
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "canonical_lie", *self.COMMANDS[command]],
                stdout=write_end,
                stderr=subprocess.PIPE,
                text=True,
                env=env,
            )
        finally:
            os.close(write_end)
        assert "Traceback" not in proc.stderr
        assert (proc.returncode, proc.stderr) == (141, "")


class TestImportBudget:
    """Start-up every request pays: `dataclasses` pulls in `inspect`, `ast`,
    `dis` and `tokenize`, and `_csv`, csv's reader without the `csv` module
    and the `re` it loads, serves CSV input alone.  `argparse`, with
    the `gettext` and `locale` its parser loads, serves help and usage errors
    alone.  `fractions`, with the `decimal` and `numbers` it loads, serves
    non-integral grades and callers that read Fractions back alone: spectra
    are ints from parse to render, and so are matrices, held as ints over
    one denominator through extraction and elimination.  `json`, with its
    `_json` scanner and the `re` its decoder loads, serves only malformed,
    oversized or escaped JSON input: `check` reads the JSON its inputs use
    with `str` methods and writes its answer itself, and rationals are read
    with `str` methods too, so `re` comes with the `json` decoder alone.  No
    module postpones its annotations, so no request loads `__future__`."""

    HEAVY = {"dataclasses", "inspect", "csv", "_csv", "__future__"}
    JSON = {"json", "json.decoder", "json.scanner", "json.encoder", "_json"}
    ARGPARSE = {"argparse", "gettext", "locale"}
    FRACTIONS = {"fractions", "decimal", "numbers"}
    RE = {"re"}

    @staticmethod
    def request(*argv):
        """Run `python -m canonical_lie ARGV` and return (process, the names of
        the modules it imported).  `-X importtime` lists every module on
        stderr; `-S` keeps site-packages start-up hooks out of the list."""
        src = str(Path(canonical_lie.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-S", "-X", "importtime", "-m", "canonical_lie", *argv],
            capture_output=True,
            text=True,
            env=env,
        )
        lines = [line for line in proc.stderr.splitlines() if line.startswith("import time:")]
        return proc, {line.rsplit("|", 1)[1].strip() for line in lines}

    def test_cli_import_loads_every_module(self):
        # perfbench/tracer.py looks up each of the five modules in
        # sys.modules after importing the CLI, and raises KeyError for one
        # that is missing
        src = str(Path(canonical_lie.__file__).resolve().parents[1])
        code = "import sys, canonical_lie.cli; print(*sorted(sys.modules))"
        proc = subprocess.run(
            [sys.executable, "-S", "-c", code],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=src),
        )
        assert (proc.returncode, proc.stderr) == (0, "")
        layers = {m for m in proc.stdout.split() if m.startswith("canonical_lie.")}
        names = ("exactlin", "liegraded", "sonreal", "canonical", "cli")
        assert layers == {f"canonical_lie.{name}" for name in names}

    def test_help(self):
        proc, modules = self.request("--help")
        assert proc.returncode == 0 and "canonical_lie.cli" in modules
        assert modules & self.HEAVY == set()
        assert "argparse" in modules

    def test_usage_error_loads_argparse(self):
        proc, modules = self.request("enumerate", "--n", "x")
        assert proc.returncode == 2 and "invalid int value: 'x'" in proc.stderr
        assert "argparse" in modules and modules & self.HEAVY == set()

    def test_json_verify_skips_json(self):
        # the sweep writes its records from templates, so `json` is not needed
        proc, modules = self.request("verify", "--max-n", "3", "--format", "json")
        assert proc.returncode == 0 and '"tested": 8' in proc.stdout
        assert "json" not in modules and modules & (self.HEAVY | self.ARGPARSE) == set()

    def test_json_enumerate_skips_json(self):
        # enumerate writes its document from templates too
        proc, modules = self.request("enumerate", "--n", "4", "--format", "json")
        assert proc.returncode == 0 and '"count": 3' in proc.stdout
        assert "json" not in modules and modules & (self.HEAVY | self.ARGPARSE) == set()

    def test_json_matrix_check(self, tmp_path):
        s = spec(3, ("0", 1), ("1", 1))
        a = RatMatrix([[0, 1, 2], [-1, 0, 1], [-2, -1, 0]])
        path = write_matrix(tmp_path / "m.json", conjugated_normal_form(s, a))
        proc, modules = self.request("check", "--matrix", path, "--format", "json")
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["input"]["extracted_spectrum"] == s.to_json()
        assert "canonical_lie.sonreal" in modules
        assert modules & (self.HEAVY | self.ARGPARSE | self.FRACTIONS | self.JSON | self.RE) == set()

    @pytest.mark.parametrize("method", ["theorem2", "prop3", "both", "strict"])
    @pytest.mark.parametrize("fmt", ["json", "table"])
    def test_matrix_check_skips_fractions(self, tmp_path, method, fmt):
        # magnitudes 1/2 and 3/2, mult(1/2) = 2: every grade is an integer;
        # cells with denominators 1, 2 and 5, read as ints over one denominator
        s = spec(6, ("1/2", 2), ("3/2", 1))
        a = RatMatrix([[0, "1/2", 1, 0, 2, "-1/5"]] + [[0] * 6] * 5)
        a = RatMatrix([[a[i, j] - a[j, i] for j in range(6)] for i in range(6)])
        path = write_matrix(tmp_path / "m.json", conjugated_normal_form(s, a))
        proc, modules = self.request("check", "--matrix", path, "--method", method, "--format", fmt)
        assert proc.returncode == 0, proc.stderr
        assert ("{1/2:2, 3/2:1}" if fmt == "table" else '"lambda": "3/2"') in proc.stdout
        assert modules & (self.HEAVY | self.ARGPARSE | self.FRACTIONS | self.JSON | self.RE) == set()

    @pytest.mark.parametrize(
        "argv",
        [
            ("verify", "--max-n", "5", "--max-lambda", "5/2", "--format", "json"),
            ("verify", "--max-n", "5", "--max-lambda", "5/2"),
            ("enumerate", "--n", "10", "--format", "json"),
            ("enumerate", "--n", "10"),
        ],
        ids=" ".join,
    )
    def test_sweeps_skip_fractions(self, argv):
        # every reason and both parities of magnitude are rendered
        proc, modules = self.request(*argv)
        assert proc.returncode == 0 and "1/2" in proc.stdout and "3/2" in proc.stdout
        if argv[0] == "verify":
            assert "GenerationFails" in proc.stdout and "NonIntegralAdSpectrum" in proc.stdout
        assert "canonical_lie.cli" in modules
        assert modules & (self.FRACTIONS | self.HEAVY | self.ARGPARSE | self.RE) == set()

    def test_spectrum_check_skips_argparse(self):
        proc, modules = self.request("check", "--spectrum", GOOD_SO4)
        assert proc.returncode == 0 and "verdict: canonical" in proc.stdout
        assert modules & (self.HEAVY | self.ARGPARSE | self.JSON | self.RE) == set()

    @pytest.mark.parametrize("method", ["theorem2", "prop3", "both", "strict"])
    @pytest.mark.parametrize("fmt", ["json", "table"])
    @pytest.mark.parametrize("source", ["inline", "file"])
    def test_spectrum_check_skips_json(self, tmp_path, source, fmt, method):
        # an indented file, as json.dumps(..., indent=2) writes one
        arg = GOOD_SO4
        if source == "file":
            arg = str(tmp_path / "s.json")
            Path(arg).write_text(json.dumps(json.loads(GOOD_SO4), indent=2) + "\n")
        proc, modules = self.request("check", "--spectrum", arg, "--method", method, "--format", fmt)
        assert proc.returncode == (1 if method == "strict" else 0), proc.stderr
        assert ("{1/2:2}" if fmt == "table" else '"lambda": "1/2"') in proc.stdout
        assert modules & (self.HEAVY | self.ARGPARSE | self.JSON | self.RE) == set()

    def test_malformed_spectrum_loads_json(self):
        # text the reader leaves goes to json.loads, whose message is printed
        proc, modules = self.request("check", "--spectrum", '{"n":4,')
        assert (proc.returncode, proc.stdout) == (2, "")
        errors = [line for line in proc.stderr.splitlines() if not line.startswith("import time:")]
        assert errors == [
            "error: inline spectrum: JSON parse error at line 1 column 8: "
            "Expecting property name enclosed in double quotes"
        ]
        assert {"json", "_json", "re"} <= modules

    def test_csv_matrix_check_imports_csv(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("0,-1,0\n1,0,0\n0,0,0\n")
        proc, modules = self.request("check", "--matrix", str(path))
        assert proc.returncode == 0
        assert "extracted spectrum {0:1, 1:1}" in proc.stdout
        assert modules & self.HEAVY == {"_csv"}
        assert modules & (self.FRACTIONS | self.JSON | self.RE) == set()

    @pytest.mark.parametrize("method", ["theorem2", "strict"])
    def test_csv_matrix_check_skips_fractions(self, tmp_path, method):
        # {0:1, 1:1}: the first row and column hold the unit vector (3/5, -4/5)
        path = tmp_path / "m.csv"
        path.write_text("0,3/5,-4/5\n-3/5,0,0\n4/5,0,0\n")
        proc, modules = self.request("check", "--matrix", str(path), "--method", method)
        assert proc.returncode == 0, proc.stderr
        assert "extracted spectrum {0:1, 1:1}" in proc.stdout
        assert modules & (self.FRACTIONS | self.JSON | self.RE) == set()
