"""End-to-end CLI tests: exit codes, JSON shape (validated against the
shipped schema), determinism, golden documents, batch mode, error
handling."""

import argparse
import contextlib
import hashlib
import io
import json
import subprocess
import sys

import jsonschema
import pytest
from hypothesis import given, settings, strategies as st

from linmono import cli
from linmono.cli import schema_text
from linmono.engine import Evidence, recheck
from linmono.ff import make_field
from linmono.linpoly import parse_linpoly


def run_cli(*args):
    proc = subprocess.run([sys.executable, "-m", "linmono", *args],
                          capture_output=True, text=True, timeout=300)
    return proc.returncode, proc.stdout, proc.stderr


SCHEMA = json.loads(schema_text())
VALIDATOR = jsonschema.Draft202012Validator(SCHEMA)


def check(doc):
    VALIDATOR.validate(doc)
    return doc


def test_json_schema_flag_ships_the_schema():
    code, out, _ = run_cli("--json-schema")
    assert code == 0
    assert json.loads(out) == SCHEMA
    jsonschema.Draft202012Validator.check_schema(SCHEMA)


def test_analyze_monomial_exit0():
    code, out, err = run_cli("analyze", "--q", "3", "--lin", "0,0,0,1")
    assert code == 0
    doc = check(json.loads(out))
    assert doc["verdict"] == "GammaL"
    assert doc["group"] == "GammaL(1,27)"
    assert doc["order"] == 78
    assert doc["basis"] == "MainTheorem"
    assert "analyze:" in err


def test_analyze_gl_exit0():
    code, out, _ = run_cli("analyze", "--q", "3", "--lin", "0,1,0,1")
    assert code == 0
    doc = check(json.loads(out))
    assert doc["verdict"] == "GL"
    assert doc["group"] == "GL(3,3)"
    assert doc["order"] == 11232
    kinds = {e["kind"] for e in doc["evidence"]}
    assert "DiscWitness" in kinds
    samples = [e for e in doc["evidence"] if e["kind"] == "CycleTypeSample"]
    assert samples
    assert any(e["payload"]["in_normalizer_census"] is False
               for e in samples)


def test_analyze_inconclusive_exit2():
    code, out, _ = run_cli("analyze", "--q", "2", "--lin", "0,1,0,1")
    assert code == 2
    doc = check(json.loads(out))
    assert doc["verdict"] == "Inconclusive"
    assert doc["order"] is None


def test_analyze_deterministic_bytes():
    _, out1, _ = run_cli("analyze", "--q", "3", "--lin", "0,1,0,1")
    _, out2, _ = run_cli("analyze", "--q", "3", "--lin", "0,1,0,1")
    assert out1 == out2


def test_p_m_flags_equal_q_flag():
    _, out1, _ = run_cli("analyze", "--p", "3", "--lin", "0,0,1")
    _, out2, _ = run_cli("analyze", "--q", "3", "--lin", "0,0,1")
    assert out1 == out2


def test_out_file_matches_stdout(tmp_path):
    target = tmp_path / "report.json"
    code, out, _ = run_cli("analyze", "--q", "3", "--lin", "0,0,0,1",
                           "--out", str(target))
    assert code == 0
    assert out == ""
    _, plain, _ = run_cli("analyze", "--q", "3", "--lin", "0,0,0,1")
    assert target.read_text(encoding="utf-8") == plain


def test_usage_errors_exit1():
    code, _, _ = run_cli()
    assert code == 1
    code, _, _ = run_cli("analyze", "--no-such-flag")
    assert code == 1
    code, _, _ = run_cli("frobnicate")
    assert code == 1


@pytest.mark.parametrize("argv, digest", [
    ("--help",
     "5ce1cfa8cf9bda3fabc5591dac1549f7c8ebfd794d571b73694a3febe2dddf43"),
    ("analyze --help",
     "b711a5f2d9a35ab3792f92bc13e311da9f3c9903fc76134edd476406e4a285a0"),
    ("sample --help",
     "6a64493b640cf09e076a3d0e1c8161e1334690097d7457e1096e899bccee2fe6"),
    ("census --help",
     "dbd46f5b4b70e1e9c3ff9344ec504355dc48cc65aed9d3f7257104ecb1b03028"),
    ("singer --help",
     "c9ddd912ad87b903f114686b7df1ec668a0c5f64bc0c945ca6bdcba45b880dc1"),
    ("verify --help",
     "96cf95bd534c49e00cf9de7fa2fd1695c1a0333d6d13549be586acc1d9fb8de4"),
])
def test_help_text_pinned(argv, digest, monkeypatch):
    """sha256 of each --help text at 80 columns: how the parsers are
    built may change, the flags, order and wording they print may not."""
    monkeypatch.setenv("COLUMNS", "80")
    code, out = _call_main(argv.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest, out


def test_unwritable_out_is_json_exit1(tmp_path):
    """A document that cannot be written is a run error like any other:
    one error document on stdout, exit 1, no traceback."""
    target = tmp_path / "missing" / "x.json"
    code, out, err = run_cli("census", "--q", "3", "--n", "2",
                             "--out", str(target))
    assert code == 1
    assert str(target) in check(json.loads(out))["error"]
    assert "Traceback" not in err
    assert not target.exists()


def test_runtime_error_is_json_exit1():
    code, out, err = run_cli("analyze", "--q", "3", "--lin", "0,1,0,2")
    assert code == 1
    doc = check(json.loads(out))
    assert "monic" in doc["error"]
    assert "error" in err


def test_field_flag_conflicts_and_omissions():
    code, out, _ = run_cli("analyze", "--q", "3", "--p", "3",
                           "--lin", "0,0,1")
    assert code == 1 and "error" in json.loads(out)
    code, out, _ = run_cli("analyze", "--lin", "0,0,1")
    assert code == 1 and "error" in json.loads(out)
    code, out, _ = run_cli("analyze", "--p", "4", "--lin", "0,0,1")
    assert code == 1 and "prime" in json.loads(out)["error"]


def test_m_flag_goes_with_p_only():
    """--m next to --q is refused, not dropped: --q 3 --m 5 would
    otherwise analyze over F_3.  With --p it still picks the degree."""
    for m in ("5", "1"):
        code, out, _ = run_cli("analyze", "--q", "3", "--m", m,
                               "--lin", "0,0,1")
        assert code == 1 and "--m" in json.loads(out)["error"], m
    _, out1, _ = run_cli("analyze", "--p", "3", "--m", "2", "--lin", "0,0,1")
    _, out2, _ = run_cli("analyze", "--q", "9", "--lin", "0,0,1")
    assert out1 == out2
    assert check(json.loads(out1))["group"] == "GammaL(1,81)"


def test_verify_gmg_refuses_n():
    """--n means nothing to verify gmg, so it is refused, not dropped
    (the golden verify gmg documents pin the run without it)."""
    code, out, _ = run_cli("verify", "gmg", "--q", "27", "--n", "5")
    assert code == 1 and "--n" in check(json.loads(out))["error"]


def test_analyze_n_mismatch_exit1():
    code, out, _ = run_cli("analyze", "--q", "3", "--lin", "0,0,0,1",
                           "--n", "2")
    assert code == 1
    assert "error" in json.loads(out)


def test_sample_document_shape():
    code, out, _ = run_cli("sample", "--q", "3", "--lin", "0,1,0,1",
                           "--kmax", "3", "--budget", "12")
    assert code == 0
    doc = check(json.loads(out))
    assert len(doc["samples"]) == 12
    for s in doc["samples"]:
        assert sum(s["cycle_type"]) == 26
        assert 1 <= s["k"] <= 3
    assert doc["skipped_alphas"] == 0


def test_sample_extension_base_alpha_vectors():
    code, out, _ = run_cli("sample", "--q", "3^2", "--lin", "0,0,1",
                           "--kmax", "2", "--budget", "10")
    assert code == 0
    doc = check(json.loads(out))
    assert doc["q"] == 9
    for s in doc["samples"]:
        assert sum(s["cycle_type"]) == 80
        assert isinstance(s["alpha"], list)


def test_census_gl23():
    code, out, _ = run_cli("census", "--q", "3", "--n", "2")
    assert code == 0
    doc = check(json.loads(out))
    assert doc["group"] == "GL(2,3)"
    assert doc["order"] == 48
    assert sum(row["count"] for row in doc["census"]) == 48
    for row in doc["census"]:
        assert sum(row["cycle_type"]) == 8


def test_census_beyond_enumeration():
    code, out, _ = run_cli("census", "--q", "3", "--n", "4")
    assert code == 0
    doc = check(json.loads(out))
    assert doc["group"] == "GL(4,3)"
    assert doc["order"] == 24261120
    assert sum(row["count"] for row in doc["census"]) == 24261120


def test_census_above_class_cap_exit1():
    code, out, err = run_cli("census", "--q", "3", "--n", "6")
    assert code == 1
    doc = check(json.loads(out))
    assert "refused" in doc["error"]
    assert "error" in err


def test_verify_alt2_gl52():
    code, out, _ = run_cli("verify", "alt2", "--q", "2", "--n", "5")
    assert code == 0
    doc = check(json.loads(out))
    assert doc["passed"] is True
    assert doc["all_even"] is True
    assert doc["group_order"] == 9999360


def test_census_normalizer_only():
    code, out, _ = run_cli("census", "--q", "3", "--n", "2",
                           "--normalizer-only")
    assert code == 0
    doc = check(json.loads(out))
    assert doc["group"] == "SingerNormalizer(2,3)"
    assert doc["order"] == 16
    assert sum(row["count"] for row in doc["census"]) == 16


def test_census_normalizer_only_keeps_its_refusals():
    """The closed-form census refuses what the closure refused, with the
    same error documents."""
    for argv, error in ((("--n", "21"), "too many vectors to permute"),
                        (("--n", "0"), "degree must be >= 1")):
        code, out, _ = run_cli("census", "--normalizer-only", "--q", "2",
                               *argv)
        assert code == 1
        assert out == json.dumps({"error": error}, indent=2) + "\n"


def test_singer_document():
    code, out, _ = run_cli("singer", "--q", "3", "--n", "3")
    assert code == 0
    doc = check(json.loads(out))
    assert doc["conjugation_ok"] is True
    assert doc["singer_order"] == 26
    assert doc["frobenius_order"] == 3
    assert doc["normalizer_order"] == 78
    assert len(doc["modulus"]) == 4
    assert len(doc["singer"]) == 3 and len(doc["singer"][0]) == 3


@pytest.mark.parametrize("q, n, spelled", [("2", "61", "2^61"),
                                           ("3", "100000000", "3^100000000")])
def test_singer_above_the_cardinality_cap_exit1(q, n, spelled):
    """q^n above ff.CARDINALITY_CAP gets the usual error document before
    q^n - 1 is factored, which at these sizes would not finish."""
    code, out, err = run_cli("singer", "--q", q, "--n", n)
    assert code == 1
    assert out == json.dumps(
        {"error": "q^n = %s exceeds the cardinality cap" % spelled},
        indent=2) + "\n"
    assert "error" in err


@pytest.mark.parametrize("q, n", [("2", "13"), ("2", "14"), ("3", "8")])
def test_verify_normalizer_past_4096_vectors_exit1(q, n):
    """Inside GROUP_CAP, but past the sizes whose closure fits in
    memory: the usual error document, at once."""
    code, out, err = run_cli("verify", "normalizer", "--q", q, "--n", n)
    assert code == 1
    assert out == json.dumps(
        {"error": "normalizer closure refused above q^n = 4096 vectors"},
        indent=2) + "\n"
    assert "error" in err


@pytest.mark.parametrize("argv", [
    ("verify", "disc", "--q", "3", "--n", "1"),
    ("verify", "normalizer", "--q", "3", "--n", "2"),
    ("verify", "identity", "--q", "2", "--n", "2"),
    ("verify", "alt2", "--q", "2", "--n", "2"),
    ("verify", "gmg", "--q", "3"),
])
def test_verify_subcommands_pass(argv):
    code, out, err = run_cli(*argv)
    assert code == 0
    doc = check(json.loads(out))
    assert doc["passed"] is True
    assert "PASS" in err


def test_verify_missing_n_exit1():
    code, out, _ = run_cli("verify", "disc", "--q", "3")
    assert code == 1
    assert "error" in json.loads(out)


@pytest.mark.parametrize("argv, word", [
    ("verify disc --q 3 --n 0", "n must be >= 1"),
    ("verify disc --q 3 --n -1", "n must be >= 1"),
    ("verify identity --q 3 --n 0", "n must be >= 1"),
    ("verify identity --q 3 --n -1", "n must be >= 1"),
    ("census --q 3 --n 0", "--n must be >= 1"),
    ("census --q 3 --n -1", "--n must be >= 1"),
    ("verify alt2 --q 2 --n 0", "--n must be >= 1"),
    ("verify alt2 --q 4 --n -1", "--n must be >= 1"),
    ("sample --q 3 --lin 0,1,0,1 --budget -3", "budget must be >= 0"),
    ("analyze --q 3 --lin 0,1,0,1 --budget -1", "budget must be >= 0"),
    ("analyze --q 3 --lin 0,1,1 --budget -1", "budget must be >= 0"),
])
def test_out_of_range_n_and_budget_exit1(argv, word):
    """Refused up front with an error naming the flag, not an internal
    error from deeper down and not an empty document."""
    code, out, err = run_cli(*argv.split())
    assert code == 1
    assert word in check(json.loads(out))["error"]
    assert word in err


@pytest.mark.parametrize("flags, shown", [
    ("--q 3^1000000000", "p^m = 3^1000000000"),
    ("--q 3+1000000000", "extension of order 3^1000000000"),
    ("--q 2305843009213693951", "p^m = 2305843009213693951"),
    ("--p 2305843009213693951", "p^m = 2305843009213693951"),
    ("--p 3 --m 1000000000", "p^m = 3^1000000000"),
    ("--q 2^41", "p^m = 2199023255552"),
])
def test_huge_field_specs_are_refused_at_once(flags, shown):
    """A field above the cardinality cap is refused with a cap error
    before p^m, q^k, a primality test or a trial division of its size
    is computed; each of those would run for hours."""
    proc = subprocess.run([sys.executable, "-m", "linmono", "analyze",
                           *flags.split(), "--lin", "0,1"],
                          capture_output=True, text=True, timeout=30)
    assert proc.returncode == 1
    assert (shown + " exceeds the cardinality cap"
            in check(json.loads(proc.stdout))["error"])


_DENSE_REFUSAL = ("dense form of q-degree %d over F_3 has degree 3^%d; "
                  "use evaluate instead")


@pytest.mark.parametrize("argv, error", [
    ("census --q 3 --n 100000000",
     "general-linear census refused above q^n = 343 vectors"),
    ("census --normalizer-only --q 3 --n 100000000",
     "too many vectors to permute"),
    ("verify normalizer --q 3 --n 100000000", "too many vectors to permute"),
    # the Singer model would factor 2^61 - 1 by trial division first
    ("verify normalizer --q 2 --n 61", "too many vectors to permute"),
    ("verify disc --q 3 --n 100000000", _DENSE_REFUSAL % (10 ** 8, 10 ** 8)),
    ("verify identity --q 3 --n 100000000",
     _DENSE_REFUSAL % (10 ** 8, 10 ** 8)),
    # 3^10000 has more digits than Python prints as a decimal
    ("verify disc --q 3 --n 10000", _DENSE_REFUSAL % (10000, 10000)),
    ("verify identity --q 3 --n 10000", _DENSE_REFUSAL % (10000, 10000)),
])
def test_huge_n_is_refused_before_q_to_the_n(argv, error):
    """Each cap is tested by ff.exceeds_cap before q^n is taken and
    before any L, Singer model or vector is built, so each of these
    exits 1 at once with the cap's own error document."""
    proc = subprocess.run([sys.executable, "-m", "linmono", *argv.split()],
                          capture_output=True, text=True, timeout=10)
    assert proc.returncode == 1
    assert proc.stdout == json.dumps({"error": error}, indent=2) + "\n"


@pytest.mark.parametrize("n, degree", [
    (23, str(3 ** 23)),
    (9012, str(3 ** 9012)),  # 4300 digits, the most Python prints
    (9013, "3^9013"),
])
def test_dense_refusal_keeps_every_printable_degree(n, degree):
    """Where Python prints q^n in decimal, the dense-cap refusal keeps
    the number it always printed; only past that it writes q^n."""
    code, out, _ = run_cli("verify", "disc", "--q", "3", "--n", str(n))
    assert code == 1
    assert json.loads(out)["error"] == (
        "dense form of q-degree %d over F_3 has degree %s; use evaluate "
        "instead" % (n, degree))


@pytest.mark.parametrize("command, code", [("sample", 0), ("analyze", 2)])
def test_huge_kmax_returns_promptly(command, code):
    """A kmax of 100000 at budget 12 gives the documents of kmax 60, but
    for the echoed kmax: only the ks that get samples are walked."""
    argv = (command, "--q", "3", "--lin", "0,1,1", "--budget", "12")
    proc = subprocess.run([sys.executable, "-m", "linmono", *argv,
                           "--kmax", "100000"],
                          capture_output=True, text=True, timeout=30)
    assert proc.returncode == code
    huge = check(json.loads(proc.stdout))
    small_code, small_out, _ = run_cli(*argv, "--kmax", "60")
    assert small_code == code
    assert huge.pop("kmax") == 100000
    small = json.loads(small_out)
    assert small.pop("kmax") == 60
    assert huge == small
    if command == "sample":
        assert (len(huge["samples"]), huge["skipped_alphas"]) == (10, 2)
    else:
        assert huge["verdict"] == "Inconclusive"


def test_batch_mixed(tmp_path):
    src = tmp_path / "batch.txt"
    src.write_text("0,0,0,1\n# comment\n\n0,1,0,1\n0,1,0,2\n",
                   encoding="utf-8")
    code, out, err = run_cli("analyze", "--q", "3", "--batch", str(src))
    assert code == 1  # the non-monic line is an error
    lines = out.splitlines()
    assert len(lines) == 3
    d0, d1, d2 = (json.loads(ln) for ln in lines)
    assert d0["verdict"] == "GammaL" and d1["verdict"] == "GL"
    assert d2["lin_input"] == "0,1,0,2" and "monic" in d2["error"]
    # compact one-line serialization: re-encoding reproduces the line
    assert json.dumps(d0, sort_keys=True, separators=(",", ":")) \
        == lines[0]
    assert "batch: 3 analyzed, 1 errors" in err


def test_batch_exit_precedence(tmp_path):
    clean = tmp_path / "clean.txt"
    clean.write_text("0,1,1,1\n", encoding="utf-8")
    code, out, _ = run_cli("analyze", "--q", "2", "--batch", str(clean))
    assert code == 0
    assert json.loads(out.splitlines()[0])["verdict"] == "GL"
    inconc = tmp_path / "inconc.txt"
    inconc.write_text("0,1,1,1\n0,1,0,1\n", encoding="utf-8")
    code, out, _ = run_cli("analyze", "--q", "2", "--batch", str(inconc))
    assert code == 2


def test_batch_conflicts_with_lin(tmp_path):
    src = tmp_path / "b.txt"
    src.write_text("0,0,1\n", encoding="utf-8")
    code, out, _ = run_cli("analyze", "--q", "3", "--lin", "0,0,1",
                           "--batch", str(src))
    assert code == 1
    assert "error" in json.loads(out)


@pytest.mark.parametrize("q, lines", [
    ("3", ["0,0,0,1", "0,1,0,1", "2,1,1", "0,2,1"]),
    ("2", ["0,1,1,1", "0,1,0,1"]),
])
def test_batch_line_equals_single_analyze(q, lines, tmp_path):
    """Each batch line, parsed, is the document analyze --lin prints for
    that line with the same flags; the batch exit code puts 1 over 2
    over 0 of theirs."""
    src = tmp_path / "batch.txt"
    src.write_text("".join(ln + "\n" for ln in lines), encoding="utf-8")
    flags = ["--q", q, "--seed", "5", "--kmax", "4", "--budget", "7"]
    code, out = _call_main(["analyze", "--batch", str(src), *flags])
    batch = out.splitlines()
    assert len(batch) == len(lines)
    codes = []
    for ln, got in zip(lines, batch):
        single_code, single = _call_main(["analyze", "--lin", ln, *flags])
        codes.append(single_code)
        assert json.loads(got) == json.loads(single), ln
    assert code == (1 if 1 in codes else 2 if 2 in codes else 0)


def _error_run(*argv):
    """The error of a run that must fail as a run error: exit 1, one
    {"error": ...} document on stdout, no traceback on stderr."""
    code, out, err = run_cli(*argv)
    assert code == 1
    doc = check(json.loads(out))
    assert list(doc) == ["error"]
    assert out == json.dumps(doc, indent=2, sort_keys=True) + "\n"
    assert "Traceback" not in err
    return doc["error"]


def test_analyze_field_error_comes_before_missing_lin():
    assert "extension degree" in _error_run("analyze", "--q", "3^0")


def test_batch_missing_file_is_json_exit1(tmp_path):
    missing = tmp_path / "absent.txt"
    assert str(missing) in _error_run("analyze", "--q", "3",
                                      "--batch", str(missing))


def test_batch_unwritable_out_is_json_exit1(tmp_path):
    src = tmp_path / "b.txt"
    src.write_text("0,0,1\n", encoding="utf-8")
    target = tmp_path / "missing" / "x.json"
    assert str(target) in _error_run("analyze", "--q", "3", "--batch",
                                     str(src), "--out", str(target))
    assert not target.exists()


# Strings that exercise every escape json writes: quotes, backslashes,
# control characters, DEL, non-ASCII, non-BMP and a lone surrogate.
_TEXT = st.text(st.one_of(st.sampled_from('"\\/\x00\x1f\x7f\u00e9\u2028'
                                          '\ud800\U0001f600'),
                          st.characters()))
_SCALARS = st.one_of(_TEXT, st.integers(), st.integers(-2 ** 200, 2 ** 200),
                     st.booleans(), st.none(), st.floats())
_DOCS = st.recursive(
    _SCALARS,
    lambda kids: st.one_of(st.lists(kids), st.lists(kids).map(tuple),
                           st.lists(st.integers(), min_size=1),
                           st.dictionaries(_TEXT, kids)),
    max_leaves=30)


@settings(max_examples=300, deadline=None)
@given(_DOCS)
def test_emitter_equals_json_dumps(doc):
    assert cli._dumps(doc) == json.dumps(doc, indent=2, sort_keys=True)


@pytest.mark.parametrize("doc", [{1: 2}, {"a": {None: 0}}, [{(1,): 2}]])
def test_emitter_refuses_keys_that_are_not_str(doc):
    with pytest.raises(TypeError, match="keys must be str"):
        cli._dumps(doc)


def test_error_document_reencodes_to_the_same_bytes():
    code, out, _ = run_cli("analyze", "--q", "3", "--lin", '0,1,"\u00e9\\')
    assert code == 1
    assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"


class _PurePythonEncoder(Exception):
    pass


@pytest.mark.parametrize("argv", [
    "census --q 3 --n 2", "census --normalizer-only --q 2 --n 4",
    "analyze --q 3 --lin 0,1,0,1", "sample --q 9 --lin 0,1,1 --budget 8",
    "verify normalizer --q 9 --n 2",
])
def test_documents_never_reach_the_pure_python_encoder(argv, monkeypatch):
    """json.dumps with indent runs json.encoder._make_iterencode, a
    Python loop over every value; no document may take that path."""
    def refuse(*args, **kwargs):
        raise _PurePythonEncoder(argv)

    monkeypatch.setattr(json.encoder, "_make_iterencode", refuse)
    code, out = _call_main(argv.split())
    assert code in (0, 2)
    doc = json.loads(out)
    monkeypatch.undo()
    assert out == json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _call_main(argv):
    """(exit code, stdout) of cli.main(argv) in this process, output
    captured the way the benchmark client captures it."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue()


def test_repeated_main_calls_match_fresh_processes(tmp_path, monkeypatch):
    batch = tmp_path / "batch.txt"
    batch.write_text("0,0,0,1\n0,1,0,1\n", encoding="utf-8")
    runs = [
        ["census", "--q", "3"],  # usage error: --n is required
        ["--json-schema"],
        ["census", "--q", "3", "--n", "2"],
        ["sample", "--q", "3", "--lin", "0,1,0,1", "--budget", "5",
         "--out", "OUT"],
        ["analyze", "--q", "3", "--batch", str(batch)],
        ["verify", "gmg", "--q", "9"],
        ["census", "--q", "3", "--n", "2"],
    ]
    here, fresh = tmp_path / "in-process.json", tmp_path / "fresh.json"
    built = []
    init = cli._Parser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(cli._Parser, "__init__", counting_init)
    cli.build_parser.cache_clear()
    for argv in runs:
        code, out = _call_main([str(here) if a == "OUT" else a
                                for a in argv])
        fresh_code, fresh_out, _ = run_cli(*(str(fresh) if a == "OUT" else a
                                             for a in argv))
        assert (code, out) == (fresh_code, fresh_out), argv
        if "OUT" in argv:
            assert here.read_bytes() == fresh.read_bytes()
        # top parser plus five subparsers on the first call, none after
        assert len(built) == 6, argv
    assert built[0].prog == "linmono"


def test_cached_parser_defaults_are_immutable():
    """The reused parser is safe only while no action can carry state
    from one parse to the next: a list default or an append action
    would.  Every default must be None or an immutable scalar."""
    pending = [cli.build_parser()]
    seen = 0
    while pending:
        parser = pending.pop()
        seen += 1
        for action in parser._actions:
            assert (action.default is None
                    or type(action.default) in (bool, int, str)), \
                (parser.prog, action.dest, action.default)
            if isinstance(action, argparse._SubParsersAction):
                pending.extend(action.choices.values())
    assert seen == 6


def _lin(*coeffs):
    return ",".join(str(c) for c in coeffs)


@pytest.mark.parametrize("lin,verdict,basis", [
    # x^(2^23) + x: the pure twist after a_0 is absorbed
    (_lin(1, *[0] * 22, 1), "GammaL", "MainTheorem"),
    # coefficient sum a_1 + a_2 + a_23 = 1: the characteristic-2 criterion
    (_lin(0, 1, 1, *[0] * 20, 1), "GL", "Char2Theorem"),
])
def test_analyze_decided_above_dense_cap(lin, verdict, basis):
    """q^n = 2^23 is over the dense cap, so no cycle type is sampled, but
    a theorem decides the group and the run must not fail on that.  With
    nothing to flag, neither family builds or mentions the normalizer
    census."""
    code, out, _ = run_cli("analyze", "--q", "2", "--lin", lin)
    assert code == 0
    doc = check(json.loads(out))
    assert doc["verdict"] == verdict
    assert doc["basis"] == basis
    assert not [e for e in doc["evidence"]
                if e["kind"] == "CycleTypeSample"]
    assert any(note.startswith("no cycle-type samples")
               for note in doc["notes"])
    assert not [note for note in doc["notes"] if "census" in note]


def test_analyze_inconclusive_above_dense_cap_exit1():
    # coefficient sum a_1 + a_23 = 0: no theorem applies, so the cap
    # error stands
    code, out, _ = run_cli("analyze", "--q", "2", "--lin",
                           _lin(0, 1, *[0] * 21, 1))
    assert code == 1
    assert "dense form" in json.loads(out)["error"]


def test_extension_field_analyze():
    code, out, _ = run_cli("analyze", "--q", "9", "--lin", "0,0,1")
    assert code == 0
    doc = check(json.loads(out))
    assert doc["verdict"] == "GammaL"
    assert doc["group"] == "GammaL(1,81)"
    assert doc["order"] == 160


def test_analyze_document_rechecks_where_mu_of_e0_leaves_f_q():
    """x^16 + x^8 + x^4 + x over F_2: at k = 3 the first dependence of
    e_0 under N has coefficients outside F_2 at alpha-indices 2, 4 and 7
    (type (1,7,7)), and every item of the document still rechecks."""
    code, out, _ = run_cli("analyze", "--q", "2", "--lin", "1,0,1,1,1")
    doc = check(json.loads(out))
    L = parse_linpoly(make_field(2), "1,0,1,1,1")
    samples = {(e["payload"]["k"], e["payload"]["alpha_index"])
               for e in doc["evidence"] if e["kind"] == "CycleTypeSample"}
    assert {(3, 2), (3, 4), (3, 7)} <= samples
    assert "OrderLcm" in {e["kind"] for e in doc["evidence"]}
    for e in doc["evidence"]:
        assert recheck(L, Evidence(e["kind"], e["payload"], e["note"]),
                       seed=doc["seed"]), e


def test_seed_recorded_and_exhaust_is_seed_independent():
    a = run_cli("sample", "--q", "3", "--lin", "0,1,0,1", "--kmax", "8",
                "--budget", "4", "--seed", "0")[1]
    b = run_cli("sample", "--q", "3", "--lin", "0,1,0,1", "--kmax", "8",
                "--budget", "4", "--seed", "1")[1]
    da, db = json.loads(a), json.loads(b)
    # small fields are exhausted in index order regardless of seed
    assert [s["alpha_index"] for s in da["samples"]] \
        == [s["alpha_index"] for s in db["samples"]]
    assert da["seed"] == 0 and db["seed"] == 1


_TWIST_23 = _lin(1, *[0] * 22, 1)
_CHAR2_23 = _lin(0, 1, 1, *[0] * 20, 1)


@pytest.mark.parametrize("argv,digest", [
    # GammaL with the normalizer census, without and with the a_0 shift
    ("analyze --q 3 --lin 0,0,0,1",
     "d62f4524cb8a41623ab292b3434dd03da51c71e25e632d2542ab3b53f62f303f"),
    ("analyze --q 3 --lin 2,0,0,1",
     "dd819fdcc29a4bcf40be48f47a611c09817efa437c371ae1dfc657e742186c31"),
    # GammaL of order 4368: flagged samples, as at any order
    ("analyze --q 3 --lin 0,0,0,0,0,0,1 --kmax 1 --budget 4",
     "e83d771dfef02e308a751153e20fa881ddee8f5a070b7db0368cb574606f8827"),
    # GL by the main theorem: a DiscWitness, and every sample flagged
    # outside the normalizer census
    ("analyze --q 3 --lin 0,1,0,1",
     "0ac9129a1ae394fdf54aea928a2c6a03b83010630367e38fc4c38fba3a91ca5c"),
    ("analyze --q 3 --lin 0,1,1,1",
     "973b3479f33ed39bd4f8e1b96e9944465ec817751d3d151a1dd8e5be61a16198"),
    # GL with no witness and no samples
    ("analyze --q 3 --lin 0,2,0,1 --kmax 1",
     "0556c3580135f271553959907980142e26bab8f5129f98b7f7e6683d700d0ae5"),
    # Inconclusive, n even: samples flagged both ways
    ("analyze --q 3 --lin 0,1,1",
     "1bb061c78eb8665cc611067a51f713896d7f2b3839ade77a3b1bedbdb79e4f46"),
    ("analyze --q 3 --lin 0,2,1",
     "2685239b8484254f32bdacdb3b1ad98eee1d0908c22eab2542300b66ef4eafc0"),
    # error document
    ("analyze --q 3 --lin 0,0,0,1 --kmax 0",
     "148f87e8116e65722c0262a35df67425fe788fcd5bc627ba77f610b9b3687b5f"),
    # GL by the main theorem: no DiscWitness at k = 1, so the samples
    # flagged outside the normalizer census carry the exclusion
    ("analyze --q 7 --lin 0,1,0,1 --kmax 1",
     "e3ce0b6416f14f819b84198ab11b3712fa4ac465cba7fe1841517463f2894fa9"),
    # characteristic 2: nonzero and vanishing coefficient sum, n = 4
    ("analyze --q 2 --lin 0,1,1,1",
     "eca58dee1b3aed32a298860d854f464f77777427092ed703018d47a3c02075f8"),
    ("analyze --q 2 --lin 0,1,0,1",
     "3a9e037c9782ae61fd94dd14ea4ef1739f1c5a0c8f406a578e8f0e05b682e82b"),
    ("analyze --q 2 --lin 0,1,0,0,1",
     "2c8c7315589ff8051001c4c43c4795f8a41594f368b3ff128655c2dba64833fe"),
    ("analyze --q 2^2+2 --lin 0,1,1",
     "c535103ab751e11f00f82f59a1a81b9e7c37d500dfbc63f818884d543fa098c8"),
    # decided above the dense cap: cap note, no samples, so no
    # normalizer census
    ("analyze --q 2 --lin " + _TWIST_23,
     "4fa251cf4e1134fbfad889387fd36e8bd498a9d5b4e1559f17e94ba843ff5f1e"),
    ("analyze --q 2 --lin " + _CHAR2_23,
     "867f163eb78e92dd178b0a6eccbd4cb99adbbc7d9efb840a33b3084c9c8e1473"),
    ("sample --q 3 --lin 0,1,0,1 --kmax 4 --budget 50",
     "014297839fd9d40e2dad6bf32d6739194255fbcf57f24c32b95c0587c4d28c35"),
    # every alpha skipped
    ("sample --q 3 --lin 0,2,1 --kmax 1 --budget 5",
     "00ca893b30acd7b451229e6da310323cf5a7b2b93f61e3c488b407d23fd59e4e"),
    # seeded draws in F_81
    ("sample --q 9 --lin 1,2,1 --seed 3 --budget 40",
     "1eb0f39d85f10ccaf36cf60c85d775e7d0b25bd3c7c57d06624ca3f5983856a6"),
    # GL class censuses: prime fields, a tower, and the cap refusal
    ("census --q 3 --n 3",
     "e62e9dd5f40a587ba82c97873edd98f24e63dd1cd53f427737cf90274e8814ab"),
    ("census --q 7 --n 3",
     "517bf532a87ae759094ca3bcd2176981c722a201a2d5df3b000255842b22c182"),
    ("census --q 2^2+2 --n 2",
     "b7dfb701974b9e1fdee1ecc803fb656db4e0dbc73b279a28294f8adcb3dc5628"),
    ("census --q 3 --n 6",
     "6e632ba3a884853dcce5d3874b1744f7c519d777f2e22b669702fe0ac27c06cf"),
    ("census --q 5 --n 2",
     "f2eda1cacaae2e8aaaffcf1cf6d671b8906c7cdd4c7e985867943d6b7f528615"),
    # the Singer normalizer census, read off fixed-space counts
    ("census --normalizer-only --q 5 --n 3",
     "38026489d62f9eb450c00d3394131c5fce520da7c7cfff398f8bc0d0686acbe2"),
    # alternating containment, read off GL censuses
    ("verify alt2 --q 2 --n 3",
     "ad210133d1222edee4f54f78e69a3871014d977d68c362139a3f8d5d56dd643e"),
    ("verify alt2 --q 8 --n 2",
     "467618a31e23869c553246bb17c17da15791946e7614fea591b029f395ae7cc2"),
    # the Singer conjugation check, in both places it is reported
    ("singer --q 5 --n 3",
     "0347a74071fc74fca2d4b75fa8fcf3d3a8ff12440eaf1d8ea394c72e45cae6a8"),
    ("verify normalizer --q 9 --n 2",
     "302fc4de5c3f0920339328fdd25b665c1f09b439e47e16655f77154e22fc5d37"),
    # Singer moduli over prime fields and extensions, n = 2 to 5
    ("singer --q 3 --n 5",
     "fb1dc91fce6d66a0534bbaced7e56872203f5e29ed9fb6d340c978b85b980fc5"),
    ("singer --q 4 --n 4",
     "8384babda3ae0aad51f6c72a784c703832477276799669623fa5bd184a42dc71"),
    ("singer --q 7 --n 3",
     "2c9d6c3df5bed21611790a8148ade014905a494048347a1c04d1043df949f3b3"),
    ("singer --q 9 --n 3",
     "3599e761b26fbc93b4ead97f89daeaca05aa7946f3ed32732b99af9fe4971513"),
    ("singer --q 25 --n 2",
     "a94d7650e3363c2d84aecb8f8c2faf3ac3b53aba9332d57c5bd4a3d63311c2e3"),
    # the normalizer walk up to the 2^12 refusal
    ("verify normalizer --q 2 --n 10",
     "cc6a70227282a8aabce22ec8cf0e4f2cffe49b4441a623ba666896aa892cc906"),
    ("verify normalizer --q 3 --n 6",
     "d9c9fe959d715c2f47b6898115771b9935493796715e2b314e666d7abb16245b"),
    ("verify normalizer --q 4 --n 5",
     "be3d388331fd3cf91bab9e9aded3746b5526b0c3efec0cec4941cc89cded4e34"),
    ("verify normalizer --q 64 --n 2",
     "e1d97616d6d6c8f0ee1dd180afcad9e9625b13cdde6a040af2e3a893e0b61190"),
    ("verify normalizer --q 3 --n 7",
     "515590fedc7fb2e71c6f9334b7ef602c88b8c48b95357d88149a02bafb72b929"),
    ("verify normalizer --q 2 --n 12",
     "4d1098263515dac2aebe5cb611a603416057d964711704db9d7316e52fcf190a"),
    # image-in-squares classification, the map cap and the odd-q refusal
    ("verify gmg --q 9",
     "e92d15c5a8c6e18660da1c284ce753a0bbc73be0a1dc02f29215f5bebb723455"),
    ("verify gmg --q 25",
     "5655e0c689f728148e888e0100bf105fd5770505ec0a19a9cf53efe7df409681"),
    ("verify gmg --q 27",
     "d1e7010362a5d86bd7f5ab8c676ba611b4123553333dd5d1bb9b4bc3ae93b1c7"),
    ("verify gmg --q 49",
     "1b01d036a264a6c026c6f75fe7e0e664d39d3ba88645e040dd46752ef2e61773"),
    ("verify gmg --q 121",
     "8af7f4e79f9ade84d360383c0c8aba96d1917e5346423b64828d2278495d76ec"),
    ("verify gmg --q 81",
     "23ef6c309f57c09b7867cd980c4fb0911fd3f68774577dcfa7bd8494f90ce953"),
    ("verify gmg --q 4",
     "f7fee50359d134ff1a8b902882bcd6d05695cf9ad8127c510d0e13f4643d1dbc"),
    # necklace counts and the forcing step: prime fields, F_4 and a tower
    ("verify identity --q 3 --n 3",
     "f0fdf8624c19401f5dc8001ad45b127ad2cc157b03b3b9fa4e957d3edb1e198d"),
    ("verify identity --q 2 --n 8",
     "467ac6bfa4e96f8711242cb404f56a1255e9b8b4638fa3faa8b804221563b132"),
    ("verify identity --q 4 --n 2",
     "a59fa7ddbbbf2a8a4e9497209df66d16a5638d6ef55b27d57ed729934b8b906d"),
    ("verify identity --q 2^2+2 --n 2",
     "43754585957005a72440c46bbb115c0b7ba67508665a224c8a4a4dcf9d16df41"),
    # q - 1 > 1 alphas per L, and q = 2 at n = 10
    ("verify identity --q 5 --n 3",
     "b28b60a0e16a64b01e82b797b9945fed821ad8ebd74ea8ece8a49d23f8287314"),
    ("verify identity --q 3 --n 6",
     "40ff63cf180ab77c556565a976145096088fab134a3f3a0c818bdcd57c0eb32d"),
    ("verify identity --q 2 --n 10",
     "7de7899955fc42c9bc2cd066f0afa29ed5c0956c91cbcbfc0f68959ba8c43aa9"),
])
def test_golden_documents(argv, digest):
    """sha256 of the exit code and stdout, pinned across versions: the
    same argv and seed must keep producing the same document."""
    code, out, _ = run_cli(*argv.split())
    assert hashlib.sha256(("%d\n" % code + out).encode()).hexdigest() \
        == digest
