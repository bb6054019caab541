import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import charprod
from charprod.cli import main
from charprod.errors import CharprodError


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_catalog_lists_builtins(capsys):
    code, out, _ = run_cli(["catalog"], capsys)
    assert code == 0
    for gid in ("dihedral8", "sl23", "heisenberg3"):
        assert gid in out


def test_catalog_json(capsys):
    code, out, _ = run_cli(["catalog", "--format", "json"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert any(entry["id"] == "quaternion16" for entry in payload)


def test_table_text_and_json(capsys):
    code, out, _ = run_cli(["table", "dihedral8"], capsys)
    assert code == 0 and "sizes" in out

    code, out, _ = run_cli(["table", "dihedral8", "--format", "json"], capsys)
    payload = json.loads(out)
    assert payload["order"] == 8
    assert sorted(r["degree"] for r in payload["irreducibles"]) == [1, 1, 1, 1, 2]


def test_product_fixture(capsys):
    code, out, _ = run_cli(
        ["product", "dihedral8", "--chi", "4", "--psi", "4", "--format", "json"], capsys
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["eta"] == 4
    assert [c["degree"] for c in payload["constituents"]] == [1, 1, 1, 1]
    assert all(c["multiplicity"] == 1 for c in payload["constituents"])


def test_product_bad_index(capsys):
    code, _, err = run_cli(["product", "dihedral8", "--chi", "9", "--psi", "0"], capsys)
    assert code == 2 and "charprod" in err


def test_verify_single_group(capsys):
    code, out, _ = run_cli(
        ["verify", "heisenberg3", "--statements", "A,B,C,lemma,bound"], capsys
    )
    assert code == 0
    assert "fail 0" in out


def test_verify_json_round_trip(capsys):
    code, out, _ = run_cli(
        ["verify", "dihedral8", "--statements", "A,bound", "--format", "json"], capsys
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["groups"][0]["group"]["id"] == "dihedral8"
    assert payload["groups"][0]["summary"]["fail"] == 0


def test_verify_prints_each_failure(capsys, monkeypatch):
    """A failed check's record is printed with its instance and witness, and
    the run exits 1."""
    from charprod import verify

    record = {"statement": "bound", "instance": {"chi": 4}, "status": "fail", "witness": {"required": 3, "eta": 1}}
    monkeypatch.setitem(verify._CHECKERS, "bound", lambda *args, **kwargs: [record])
    code, out, _ = run_cli(["verify", "dihedral8", "--statements", "bound"], capsys)
    assert code == 1
    assert out.splitlines() == [
        "dihedral8: pass 0, fail 1, hypothesis-not-met 0, skipped 0",
        '  FAIL bound {"chi": 4} {"eta": 1, "required": 3}',
        "total: pass 0, fail 1, hypothesis-not-met 0, skipped 0",
    ]


def test_verify_unknown_statement(capsys):
    code, _, err = run_cli(["verify", "dihedral8", "--statements", "Z"], capsys)
    assert code == 2 and "unknown statements" in err


def test_verify_needs_source(capsys):
    code, _, err = run_cli(["verify"], capsys)
    assert code == 2


def test_verify_needs_a_statement(capsys):
    code, out, err = run_cli(["verify", "dihedral8", "--statements", ","], capsys)
    assert code == 2 and out == ""
    assert "at least one statement" in err


def test_verify_takes_a_group_or_the_catalog_not_both(capsys):
    code, out, err = run_cli(["verify", "dihedral8", "--catalog"], capsys)
    assert code == 2 and out == ""
    assert "either a group source or --catalog" in err


def test_only_the_requested_format_is_built(capsys, monkeypatch):
    """table and verify build the text or the JSON form, never both."""
    from charprod.chartab import CharacterTable
    from charprod.verify import SuiteReport

    def refuse(self):
        raise AssertionError("the other format was built")

    monkeypatch.setattr(CharacterTable, "to_text", refuse)
    monkeypatch.setattr(SuiteReport, "to_json", refuse)
    code, out, _ = run_cli(["table", "dihedral8", "--format", "json"], capsys)
    assert code == 0 and json.loads(out)["order"] == 8
    code, out, _ = run_cli(["verify", "dihedral8", "--statements", "A"], capsys)
    assert code == 0 and out.startswith("dihedral8: pass")
    monkeypatch.undo()
    monkeypatch.setattr(CharacterTable, "to_json", refuse)
    code, out, _ = run_cli(["table", "dihedral8"], capsys)
    assert code == 0 and "sizes" in out


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_verify_counts_each_groups_statuses_once(fmt, capsys, monkeypatch):
    """Both formats read every group's status counts from one pass over its
    records, and the totals from those counts."""
    from charprod import verify

    scans, counter = [], verify.Counter

    def counted(*args):
        scans.append(1)
        return counter(*args)

    monkeypatch.setattr(verify, "Counter", counted)
    code, out, _ = run_cli(["verify", "dihedral8", "--statements", "A,B", "--format", fmt], capsys)
    assert code == 0 and len(scans) == 1
    if fmt == "json":
        assert json.loads(out)["summary"] == {"pass": 28, "fail": 0, "hypothesis_not_met": 2, "skipped": 20}
    else:
        assert out.splitlines()[-1] == "total: pass 28, fail 0, hypothesis-not-met 2, skipped 20"


def test_witness_command(capsys):
    code, out, _ = run_cli(["witness", "heisenberg3", "--chi", "9"], capsys)
    assert code == 0
    assert "order 9" in out and "(alpha^2)^G" in out


def test_group_file_source(tmp_path, capsys):
    path = tmp_path / "d8.gens"
    path.write_text("# dihedral of order 8\n(1 2 3 4)\n(1 3)\n")
    code, out, _ = run_cli(["table", str(path), "--format", "json"], capsys)
    assert code == 0
    assert json.loads(out)["order"] == 8


def test_parse_error_exit_code(tmp_path, capsys):
    path = tmp_path / "bad.gens"
    path.write_text("(1 2)(3\n")
    code, _, err = run_cli(["table", str(path)], capsys)
    assert code == 2 and "charprod" in err


def test_non_decimal_digit_is_a_parse_error(tmp_path, capsys):
    path = tmp_path / "superscript.gens"
    path.write_text("(1 \u00b2)\n", encoding="utf-8")
    code, out, err = run_cli(["table", str(path)], capsys)
    assert code == 2 and out == ""
    assert "line 1, column 4" in err and "Traceback" not in err


# the decimal digits, then superscript 2, circled 1, Arabic-Indic 3 and full-width 1
_FUZZ_DIGITS = "0123456789\u00b2\u2460\u0663\uff11"


def _group_files():
    """Group files line by line: cycles of points, ``degree=`` headers,
    ``#`` comments, or runs of the separators (parentheses, spaces, ``#``,
    ``degree=``), with digit runs of at most 2 characters throughout."""
    point = st.text(_FUZZ_DIGITS, min_size=1, max_size=2)
    cycle = st.lists(point, max_size=4).map(lambda points: "(" + " ".join(points) + ")")
    noise = st.lists(st.tuples(st.text(_FUZZ_DIGITS, max_size=2), st.sampled_from(["(", ")", " ", "#", "degree="])))
    line = st.one_of(
        st.lists(cycle, max_size=3).map("".join),
        point.map(lambda p: "degree=" + p),
        point.map(lambda p: "# " + p),
        noise.map(lambda pieces: "".join(digits + separator for digits, separator in pieces)),
    )
    return st.lists(line, max_size=4).map("\n".join)


def test_random_group_files_exit_with_0_or_2(tmp_path, monkeypatch):
    """``charprod table`` on drawn group files, under a small closure cap:
    a table or a ``charprod:`` line, never an exception."""
    monkeypatch.setenv("CHARPROD_CLOSURE_CAP", "48")
    path = tmp_path / "drawn.gens"

    @settings(max_examples=150, deadline=None)
    @given(text=_group_files())
    def run(text):
        path.write_text(text, encoding="utf-8")
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(["table", str(path)])
        assert (code, bool(out.getvalue())) in ((0, True), (2, False))
        assert code == 0 or err.getvalue().startswith("charprod: ")

    run()


def test_non_utf8_file_is_a_parse_error(tmp_path, capsys):
    path = tmp_path / "utf16.gens"
    path.write_bytes(b"\xff\xfe(1 2)")
    code, out, err = run_cli(["table", str(path)], capsys)
    assert code == 2 and out == ""
    assert "not UTF-8" in err and "Traceback" not in err


def test_unknown_builtin(capsys):
    code, _, err = run_cli(["table", "nosuchgroup"], capsys)
    assert code == 2 and "unknown catalog id" in err


def test_usage_error(capsys):
    assert main(["frobnicate"]) == 2


def test_output_file(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code = main(["verify", "cyclic4", "--statements", "A", "--format", "json",
                 "--output", str(out_path)])
    assert code == 0
    payload = json.loads(out_path.read_text())
    assert payload["groups"][0]["group"]["order"] == 4


def test_a_failed_run_leaves_its_output_file(tmp_path, capsys):
    out_path = tmp_path / "out.txt"
    out_path.write_text("earlier output\n")
    code, out, err = run_cli(["table", "no_such_group", "--output", str(out_path)], capsys)
    assert code == 2 and out == "" and "unknown catalog id" in err
    assert out_path.read_text() == "earlier output\n"


@pytest.mark.parametrize("outcome", [0, 1, CharprodError("failed after writing")])
def test_the_output_file_is_written_when_the_command_returns(outcome, tmp_path, capsys, monkeypatch):
    """Exit codes 0 and 1 both write the file; a command that raises after
    writing part of its output leaves the file as it was."""
    from charprod import cli

    def command(args, out):
        out.write("part\n")
        if isinstance(outcome, Exception):
            raise outcome
        out.write("rest\n")
        return outcome

    monkeypatch.setitem(cli._COMMANDS, "catalog", command)
    out_path = tmp_path / "out.txt"
    out_path.write_text("earlier output\n")
    code, _, err = run_cli(["catalog", "--output", str(out_path)], capsys)
    if isinstance(outcome, Exception):
        assert code == 2 and "failed after writing" in err
        assert out_path.read_text() == "earlier output\n"
    else:
        assert code == outcome and out_path.read_text() == "part\nrest\n"


def test_an_output_path_that_cannot_be_opened_fails_first(tmp_path, capsys, monkeypatch):
    from charprod import cli

    def command(args, out):
        raise AssertionError("the command ran")

    monkeypatch.setitem(cli._COMMANDS, "catalog", command)
    code, _, err = run_cli(["catalog", "--output", str(tmp_path / "no_such_dir" / "out.txt")], capsys)
    assert code == 2 and "No such file or directory" in err


def test_a_shorter_output_replaces_all_of_a_longer_one(tmp_path, capsys):
    out_path = tmp_path / "out.txt"
    out_path.write_text("earlier output, longer than the table of C2\n" * 10)
    assert main(["table", "cyclic2", "--output", str(out_path)]) == 0
    _, out, _ = run_cli(["table", "cyclic2"], capsys)
    assert out_path.read_text() == out


def test_an_output_link_is_written_through(tmp_path, capsys):
    """The output path is opened as open(path, "w") opens it: a symbolic
    link stays a link, and its target gets the output."""
    target = tmp_path / "target.txt"
    target.write_text("earlier output\n")
    link = tmp_path / "link.txt"
    link.symlink_to(target)
    assert main(["table", "cyclic2", "--output", str(link)]) == 0
    _, out, _ = run_cli(["table", "cyclic2"], capsys)
    assert link.is_symlink() and target.read_text() == out


def test_byte_identical_runs(capsys):
    a = run_cli(["verify", "dihedral8", "--statements", "A,B,C,lemma,bound",
                 "--format", "json"], capsys)
    b = run_cli(["verify", "dihedral8", "--statements", "A,B,C,lemma,bound",
                 "--format", "json"], capsys)
    assert a == b


def test_closure_cap_env(tmp_path, capsys, monkeypatch):
    path = tmp_path / "s7.gens"
    path.write_text("(1 2 3 4 5 6 7)\n(1 2)\n")
    monkeypatch.setenv("CHARPROD_CLOSURE_CAP", "100")
    code, _, err = run_cli(["table", str(path)], capsys)
    assert code == 2 and "cap" in err


def test_witness_negative_index(capsys):
    code, out, err = run_cli(["witness", "heisenberg3", "--chi", "-1"], capsys)
    assert code == 2 and out == ""
    assert "character index -1" in err


def test_witness_index_past_the_table(capsys):
    code, out, err = run_cli(["witness", "heisenberg3", "--chi", "99"], capsys)
    assert code == 2 and out == ""
    assert "character index 99" in err


def test_closure_cap_env_not_an_integer(tmp_path, capsys, monkeypatch):
    path = tmp_path / "c3.gens"
    path.write_text("(1 2 3)\n")
    monkeypatch.setenv("CHARPROD_CLOSURE_CAP", "abc")
    code, out, err = run_cli(["table", str(path)], capsys)
    assert code == 2 and out == ""
    assert "must be an integer" in err and "'abc'" in err


class _Sink:
    """A text stream that keeps only a digest and a count of what it is sent."""

    def __init__(self):
        import hashlib

        self.digest, self.size, self.writes = hashlib.sha256(), 0, 0

    def write(self, text):
        self.digest.update(text.encode())
        self.size += len(text)
        self.writes += 1


@pytest.fixture(scope="module")
def catalog_report():
    """One run of every statement over the catalog, shared by the tests that
    print it."""
    from charprod import catalog, verify

    return verify.run_suite(catalog.builtin_ids(), verify.STATEMENTS)


def _serve(monkeypatch, report):
    """Make ``verify --catalog`` print ``report`` without running the suite
    again, after checking that it asks for the catalog and every statement."""
    from charprod import catalog, verify

    def run_suite(groups, statements):
        assert list(groups) == list(catalog.builtin_ids()) and tuple(statements) == verify.STATEMENTS
        return report

    monkeypatch.setattr(verify, "run_suite", run_suite)


def test_json_output_streams_the_bytes_of_json_dumps(capsys, monkeypatch, catalog_report):
    """The streamed catalog report is json.dumps(indent=2, sort_keys=True)
    plus a newline, byte for byte."""
    _serve(monkeypatch, catalog_report)
    code, out, _ = run_cli(["verify", "--catalog", "--format", "json"], capsys)
    assert code == 0
    assert out == json.dumps(catalog_report.to_json(), indent=2, sort_keys=True) + "\n"


CATALOG_REPORT_SHA256 = {
    "json": "aa8c75340217e21e636d281713201a2190f58feae71ca655fee6c00919eba36c",
    "text": "a815c8951823faefb1a9b023407511fbe049a9fcbe944854e9763d250000d98f",
}


@pytest.mark.parametrize("fmt", sorted(CATALOG_REPORT_SHA256))
def test_catalog_report_bytes_are_pinned(fmt, capsys, monkeypatch, catalog_report):
    """The bytes of ``charprod verify --catalog`` in each format, pinned: a
    change to any check, record or rendering of the catalog shows here."""
    import hashlib

    _serve(monkeypatch, catalog_report)
    code, out, _ = run_cli(["verify", "--catalog", "--format", fmt], capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == CATALOG_REPORT_SHA256[fmt]


def test_json_output_memory_stays_flat():
    """Writing a multi-MB payload holds a buffer of about JSON_BUFFER
    characters, not the text: the tracemalloc peak stays far below its size."""
    import argparse
    import hashlib
    import tracemalloc

    from charprod.cli import JSON_BUFFER, _emit

    payload = {"rows": [{"index": i, "values": [str(i * j) for j in range(12)]} for i in range(12_000)]}
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    assert len(text) > 3_000_000
    sink = _Sink()
    tracemalloc.start()
    try:
        _emit(argparse.Namespace(format="json"), sink, lambda: payload, None)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sink.digest.hexdigest() == hashlib.sha256(text.encode()).hexdigest()
    assert sink.size == len(text) and sink.writes <= len(text) // JSON_BUFFER + 1
    assert peak < len(text) // 4


def test_python_dash_m_prints_the_same_bytes(capsys):
    """``python -m charprod`` from a source checkout runs the same main."""
    src = str(Path(charprod.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    argv = ["table", "cyclic3"]
    proc = subprocess.run([sys.executable, "-m", "charprod", *argv], env=env, capture_output=True, timeout=120)
    code, out, _ = run_cli(argv, capsys)
    assert proc.returncode == code == 0
    assert proc.stdout == out.encode()


@pytest.mark.parametrize("text", ["(1 200000000)\n", "degree=400000000\n"])
def test_a_group_too_large_for_memory_fails_with_a_message(text, tmp_path):
    """A generator file whose degree needs more memory than the process may
    take ends with a ``charprod:`` line and exit code 2, not a traceback.
    The child process alone runs under a 2 GB address-space limit."""
    resource = pytest.importorskip("resource")
    limit = 2 * 1024**3
    path = tmp_path / "huge.txt"
    path.write_text(text)
    src = str(Path(charprod.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
               OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-m", "charprod", "table", str(path)], env=env, capture_output=True,
                          timeout=120, preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)))
    err = proc.stderr.decode()
    assert proc.returncode == 2
    assert err.startswith("charprod: ") and "Traceback" not in err
