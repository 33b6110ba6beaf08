"""End-to-end CLI tests: exit codes, JSON shape (validated against the
shipped schema), determinism, golden documents, batch mode, error
handling."""

import hashlib
import json
import subprocess
import sys

import jsonschema
import pytest

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


@pytest.mark.parametrize("argv, word", [
    ("verify disc --q 3 --n 0", "n must be >= 1"),
    ("verify disc --q 3 --n -1", "n must be >= 1"),
    ("verify identity --q 3 --n 0", "n must be >= 1"),
    ("verify identity --q 3 --n -1", "n must be >= 1"),
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
    a theorem decides the group and the run must not fail on that."""
    code, out, _ = run_cli("analyze", "--q", "2", "--lin", lin)
    assert code == 0
    doc = check(json.loads(out))
    assert doc["verdict"] == verdict
    assert doc["basis"] == basis
    assert not [e for e in doc["evidence"]
                if e["kind"] == "CycleTypeSample"]
    assert any(note.startswith("no cycle-type samples")
               for note in doc["notes"])


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
    # GammaL above the normalizer census cap
    ("analyze --q 3 --lin 0,0,0,0,0,0,1 --kmax 1 --budget 4",
     "e4e668ca2957e685cf13cc9674e2c2b9678624642426d6691e44a6efc5c4e961"),
    # GL by the main theorem: DiscWitness, one after four skipped alphas
    ("analyze --q 3 --lin 0,1,0,1",
     "a107a8ab38be256c3053ea4d597d39c5a90b2642c802a7754dc28b6743418db1"),
    ("analyze --q 3 --lin 0,1,1,1",
     "b6be3e70d34b684ec8435057557620cf0629a39ff36529de72515cda1b127355"),
    # GL with no witness and no samples
    ("analyze --q 3 --lin 0,2,0,1 --kmax 1",
     "0556c3580135f271553959907980142e26bab8f5129f98b7f7e6683d700d0ae5"),
    # Inconclusive, n even
    ("analyze --q 3 --lin 0,1,1",
     "68317324a5857b2dc33587f11099d47d04cb5a4d3ebeaabe646c1dfbbb20ab5f"),
    ("analyze --q 3 --lin 0,2,1",
     "8aee2e838989e2e6c1436d3cfffa109ddd6e52979d0fa3a60752f2a5761d5e50"),
    # error document
    ("analyze --q 3 --lin 0,0,0,1 --kmax 0",
     "148f87e8116e65722c0262a35df67425fe788fcd5bc627ba77f610b9b3687b5f"),
    # GL by the main theorem: FixedPointOddness
    ("analyze --q 7 --lin 0,1,0,1 --kmax 1",
     "479925fff613016b3b5087799e34245ce056e85b4a3f8f3c06905f817ded79ce"),
    # characteristic 2: nonzero and vanishing coefficient sum, n = 4
    ("analyze --q 2 --lin 0,1,1,1",
     "464f2896a5c5fdfd2d1eca5ec6708121dafc52e0d2779d06e7fbadf7220ebea6"),
    ("analyze --q 2 --lin 0,1,0,1",
     "8f5b945238877a86ffa8fca0a43dd046ab77cdc38ef2403da2dcc26bc8a59b06"),
    ("analyze --q 2 --lin 0,1,0,0,1",
     "5bc1b8dd996697c580c6a8d15a1cacce548bdcff9c13c256fec311e4e472f8f1"),
    ("analyze --q 2^2+2 --lin 0,1,1",
     "c535103ab751e11f00f82f59a1a81b9e7c37d500dfbc63f818884d543fa098c8"),
    # decided above the dense cap: cap note, no samples
    ("analyze --q 2 --lin " + _TWIST_23,
     "16338c49e69ea6af8db177207d7649829f1009ffbc2ed6d700a07f414c752a9f"),
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
])
def test_golden_documents(argv, digest):
    """sha256 of the exit code and stdout, pinned across versions: the
    same argv and seed must keep producing the same document."""
    code, out, _ = run_cli(*argv.split())
    assert hashlib.sha256(("%d\n" % code + out).encode()).hexdigest() \
        == digest
