"""Command-line frontend: one JSON document per run on stdout, a short
human summary on stderr.

Subcommands: analyze, sample, census, singer, verify {gmg, disc,
identity, alt2, normalizer}.  Exit codes: 0 decided/pass, 2 Inconclusive,
1 error.  The same argv and seed always produce byte-identical output.

A document, error documents included, is exactly
json.dumps(doc, indent=2, sort_keys=True) + "\n", written by _dumps
without json's pure-Python encoder; analyze --batch prints one compact
line per document, json.dumps(doc, sort_keys=True,
separators=(",", ":")).

main(argv) returns the exit code and can be called repeatedly in one
process: the parser is built on the first call and reused, which is safe
because no action keeps state between parses (every default is an
immutable constant).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import engine, group as group_mod, linpoly as lin_mod
from .ff import (CapExceededError, FieldMismatchError, make_field,
                 parse_field_spec)

_RUN_ERRORS = (ValueError, TypeError, KeyError, ZeroDivisionError,
               OverflowError, RuntimeError, AssertionError, OSError,
               FieldMismatchError, CapExceededError)


class _Parser(argparse.ArgumentParser):
    """argparse that exits 1 on usage errors (2 is reserved for
    Inconclusive verdicts)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, "%s: error: %s\n" % (self.prog, message))


def schema_text():
    import importlib.resources  # only --json-schema pays for its imports
    return (importlib.resources.files("linmono")
            .joinpath("report_schema.json").read_text(encoding="utf-8"))


def _field_flags():
    """Parent parser of every subcommand: the field, seed and output
    flags, built once and copied into each subparser by parents=."""
    p = argparse.ArgumentParser(add_help=False)
    p.add_argument("--q", metavar="SPEC", default=None,
                   help='field spec: prime power or "p^m", with optional '
                        '"+k" tower steps (e.g. "3^2+3")')
    p.add_argument("--p", type=int, default=None,
                   help="characteristic (alternative to --q)")
    p.add_argument("--m", type=int, default=None,
                   help="extension degree used with --p (default 1)")
    p.add_argument("--seed", type=int, default=0,
                   help="seed for every pseudorandom choice (default 0)")
    p.add_argument("--out", metavar="PATH", default=None,
                   help="write the JSON document here instead of stdout")
    return p


def _resolve_field(args):
    if args.q is not None:
        if args.p is not None:
            raise ValueError("give --q or --p, not both")
        if args.m is not None:
            raise ValueError("--m goes with --p; give the degree in --q "
                             'instead (e.g. "3^5")')
        return parse_field_spec(args.q, seed=args.seed)
    if args.p is not None:
        return make_field(args.p, 1 if args.m is None else args.m,
                          seed=args.seed)
    raise ValueError("a field is required: --q SPEC or --p P [--m M]")


@functools.cache
def build_parser():
    top = _Parser(prog="linmono",
                  description="Galois groups of L(x) + tx over F_q(t) "
                              "for q-linearized L: verdicts, sampled "
                              "cycle-type evidence, group censuses, and "
                              "exhaustive verifiers.")
    top.add_argument("--json-schema", action="store_true",
                     help="print the JSON schema all reports validate "
                          "against, then exit")
    sub = top.add_subparsers(dest="command")
    common = [_field_flags()]

    pa = sub.add_parser("analyze", parents=common,
                        help="decide the Galois group of L(x) + tx")
    pa.add_argument("--lin", metavar="COEFFS", default=None,
                    help='q-linearized coefficients "a0,a1,...,an" '
                         "(bracketed vectors for extension elements)")
    pa.add_argument("--n", type=int, default=None,
                    help="expected q-degree (checked against --lin)")
    pa.add_argument("--kmax", type=int, default=None,
                    help="largest extension degree searched (default n+3)")
    pa.add_argument("--budget", type=int, default=12,
                    help="total cycle-type samples (default 12)")
    pa.add_argument("--batch", metavar="FILE", default=None,
                    help="read one coefficient list per line; emit one "
                         "compact JSON document per line")

    ps = sub.add_parser("sample", parents=common,
                        help="sample Frobenius cycle types by factoring "
                             "specializations")
    ps.add_argument("--lin", metavar="COEFFS", required=True)
    ps.add_argument("--n", type=int, default=None)
    ps.add_argument("--kmax", type=int, default=None,
                    help="largest extension degree sampled (default n+3)")
    ps.add_argument("--budget", type=int, default=100,
                    help="total samples (default 100)")

    pc = sub.add_parser("census", parents=common,
                        help="cycle-type census of GL(n, q) or of the "
                             "Singer normalizer")
    pc.add_argument("--n", type=int, required=True)
    pc.add_argument("--normalizer-only", action="store_true",
                    help="census of the Singer normalizer instead of "
                         "all of GL(n, q)")

    pg = sub.add_parser("singer", parents=common,
                        help="Singer generator, Frobenius matrix, and "
                             "their verified orders")
    pg.add_argument("--n", type=int, required=True)

    pv = sub.add_parser("verify", parents=common,
                        help="exhaustive verifiers")
    pv.add_argument("check",
                    choices=["gmg", "disc", "identity", "alt2",
                             "normalizer"],
                    help="gmg: image-in-squares classification; disc: "
                         "discriminant square-class formula; identity: "
                         "factorization of x^(q^n) - x and the forcing "
                         "step; alt2: alternating containment in "
                         "characteristic 2; normalizer: Singer-"
                         "normalizer order and stabilizers")
    pv.add_argument("--n", type=int, default=None,
                    help="q-degree (required by every check except gmg, "
                         "which refuses it)")
    return top


# -- document builders -----------------------------------------------------

def _parse_lin(field, text):
    L = lin_mod.parse_linpoly(field, text)
    if not L.is_monic:
        raise ValueError("leading coefficient a_n must be 1 (monic)")
    return L


def _analyze_doc(field, args, lin):
    if lin is None:
        raise ValueError("analyze needs --lin (or --batch)")
    L = _parse_lin(field, lin)
    kmax = engine.checked_kmax(L, args.n, args.kmax)
    v = engine.verdict(L, kmax=kmax, budget=args.budget, seed=args.seed)
    return ({"lin": L.coeff_objs(), "kmax": kmax, "budget": args.budget,
             **v.to_json()}, 0 if v.family in ("GL", "GammaL") else 2)


def _sample_doc(field, args, lin):
    L = _parse_lin(field, lin)
    kmax = engine.checked_kmax(L, args.n, args.kmax)
    run = engine.sample_cycle_types(L, range(1, kmax + 1),
                                    budget=args.budget, seed=args.seed)
    notes = []
    if not run.samples and run.skipped > 0:
        notes.append("no samples: every drawn alpha had L(alpha) = 0")
    return {
        "q": L.q, "n": L.qdeg, "lin": L.coeff_objs(),
        "kmax": kmax, "budget": args.budget,
        "samples": [s.to_json() for s in run.samples],
        "skipped_alphas": run.skipped,
        "notes": notes,
    }, 0


def _positive_n(n):
    """n, refused up front when below 1."""
    if n < 1:
        raise ValueError("--n must be >= 1, got %d" % n)
    return n


def _census_doc(field, args, lin):
    n = args.n
    if args.normalizer_only:
        cen = group_mod.normalizer_census(n, field, args.seed)
        label = "SingerNormalizer(%d,%d)" % (n, field.order)
    else:
        cen = group_mod.gl_census(_positive_n(n), field)
        label = "GL(%d,%d)" % (n, field.order)
    return {"q": field.order, "n": n, "group": label, **cen.to_json()}, 0


def _singer_doc(field, args, lin):
    n = args.n
    q = field.order
    f = group_mod.singer_modulus(n, field, args.seed)
    S = group_mod.singer_generator(n, field, args.seed)
    F = group_mod.frobenius_matrix(n, field, args.seed)
    return {
        "q": q, "n": n,
        "modulus": [field.rep_to_obj(c) for c in f.coeffs],
        "singer": group_mod.mat_to_obj(field, S),
        "frobenius": group_mod.mat_to_obj(field, F),
        "singer_order": q ** n - 1,
        "frobenius_order": n,
        "normalizer_order": n * (q ** n - 1),
        "conjugation_ok": group_mod.conjugation_ok(field, S, F),
    }, 0


def _verify_doc(field, args, lin):
    check = args.check
    if check == "gmg":
        if args.n is not None:
            raise ValueError("verify gmg takes no --n: it checks every "
                             "p-linearized map of F_q itself")
        rep = engine.verify_gmg(field)
    else:
        if args.n is None:
            raise ValueError("verify %s needs --n" % check)
        if check == "disc":
            rep = engine.verify_disc_lemma(field, args.n)
        elif check == "identity":
            rep = engine.verify_factor_identity(field, args.n)
        elif check == "alt2":
            rep = engine.verify_alternating_char2(field,
                                                  _positive_n(args.n))
        else:
            rep = engine.verify_normalizer(args.n, field, args.seed)
    return rep, (0 if rep["passed"] else 1)


_BUILDERS = {"analyze": _analyze_doc, "sample": _sample_doc,
             "census": _census_doc, "singer": _singer_doc,
             "verify": _verify_doc}


def _document(field, args, lin):
    """(document, exit code) of one run of args.command: its builder's
    body under the command, field and seed.  lin stands for --lin;
    analyze --batch passes each line of its file."""
    body, code = _BUILDERS[args.command](field, args, lin)
    return {"command": args.command, "field": field.spec_string(),
            "seed": args.seed, **body}, code


# -- emission --------------------------------------------------------------

_encode_str = json.encoder.encode_basestring_ascii


def _dumps(obj, pad=""):
    """json.dumps(obj, indent=2, sort_keys=True) for an obj nested at
    indentation pad, laid out here and not by json's pure-Python
    encoder, which indent selects: every scalar is written by a C-level
    call, a flat list of ints by one join.  Dict keys must be str."""
    if isinstance(obj, str):
        return _encode_str(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    inner = pad + "  "
    sep = ",\n" + inner
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        for k in obj:
            if not isinstance(k, str):
                raise TypeError("keys must be str, not %s"
                                % type(k).__name__)
        body = sep.join([_encode_str(k) + ": " + _dumps(obj[k], inner)
                         for k in sorted(obj)])
        return "{\n" + inner + body + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        if set(map(type, obj)) == {int}:
            body = sep.join(map(int.__repr__, obj))
        else:
            body = sep.join([_dumps(v, inner) for v in obj])
        return "[\n" + inner + body + "\n" + pad + "]"
    return json.dumps(obj)


def _write(text, out_path):
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _summary_line(doc, code):
    cmd = doc.get("command")
    if cmd == "analyze":
        return "%s: %s (order %s), basis %s, %d evidence items" % (
            cmd, doc["group"], doc["order"], doc["basis"],
            len(doc["evidence"]))
    if cmd == "sample":
        return "sample: %d cycle types over F_%d^k, k <= %d (%d skipped)" \
            % (len(doc["samples"]), doc["q"], doc["kmax"],
               doc["skipped_alphas"])
    if cmd == "census":
        return "census: %s, order %d, %d distinct cycle types" % (
            doc["group"], doc["order"], len(doc["census"]))
    if cmd == "singer":
        return "singer: orders %d and %d over F_%d verified" % (
            doc["singer_order"], doc["frobenius_order"], doc["q"])
    if cmd == "verify":
        return "verify %s: %s" % (doc["check"],
                                  "PASS" if code == 0 else "FAIL")
    return cmd or "?"


def _run_batch(field, args):
    with open(args.batch, "r", encoding="utf-8") as fh:
        lines = [ln.strip() for ln in fh]
    codes = []
    out_lines = []
    for ln in lines:
        if not ln or ln.startswith("#"):
            continue
        try:
            doc, code = _document(field, args, ln)
        except _RUN_ERRORS as exc:
            doc, code = {"error": str(exc), "lin_input": ln}, 1
        codes.append(code)
        out_lines.append(json.dumps(doc, sort_keys=True,
                                    separators=(",", ":")) + "\n")
    _write("".join(out_lines), args.out)
    print("batch: %d analyzed, %d errors, %d inconclusive"
          % (len(codes), codes.count(1), codes.count(2)), file=sys.stderr)
    return 1 if 1 in codes else 2 if 2 in codes else 0


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.json_schema:
        sys.stdout.write(schema_text())
        return 0
    if args.command is None:
        parser.error("a subcommand is required (or --json-schema)")
    lin = getattr(args, "lin", None)
    batch = getattr(args, "batch", None)
    try:
        if batch is not None and lin is not None:
            raise ValueError("give --lin or --batch, not both")
        field = _resolve_field(args)
        if batch is not None:
            return _run_batch(field, args)
        doc, code = _document(field, args, lin)
        _write(_dumps(doc) + "\n", args.out)
    except _RUN_ERRORS as exc:
        _write(_dumps({"error": str(exc)}) + "\n", None)
        print("error: %s" % exc, file=sys.stderr)
        return 1
    print(_summary_line(doc, code), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
