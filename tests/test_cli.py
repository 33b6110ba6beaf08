"""End-to-end CLI tests: exit codes, JSON shape (validated against the
shipped schema), determinism, batch mode, error handling."""

import json
import subprocess
import sys

import jsonschema
import pytest

from linmono.cli import schema_text


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
    assert "DiscWitness" in kinds or "FixedPointOddness" in kinds
    assert "CycleTypeSample" in kinds


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


def test_extension_field_analyze():
    code, out, _ = run_cli("analyze", "--q", "9", "--lin", "0,0,1")
    assert code == 0
    doc = check(json.loads(out))
    assert doc["verdict"] == "GammaL"
    assert doc["group"] == "GammaL(1,81)"
    assert doc["order"] == 160


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
