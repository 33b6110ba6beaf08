"""Command-line frontend: one JSON document per run on stdout, a short
human summary on stderr.

Subcommands: analyze, sample, census, singer, verify {gmg, disc,
identity, alt2, normalizer}.  Exit codes: 0 decided/pass, 2 Inconclusive,
1 error.  The same argv and seed always produce byte-identical output.
"""

from __future__ import annotations

import argparse
import importlib.resources
import json
import sys

from . import engine, group as group_mod, linpoly as lin_mod
from . import poly as poly_mod
from .ff import (CapExceededError, FieldMismatchError, is_prime,
                 make_field, parse_field_spec)

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
    return (importlib.resources.files("linmono")
            .joinpath("report_schema.json").read_text(encoding="utf-8"))


def _add_field_flags(p):
    p.add_argument("--q", metavar="SPEC", default=None,
                   help='field spec: prime power or "p^m", with optional '
                        '"+k" tower steps (e.g. "3^2+3")')
    p.add_argument("--p", type=int, default=None,
                   help="characteristic (alternative to --q)")
    p.add_argument("--m", type=int, default=1,
                   help="extension degree used with --p (default 1)")
    p.add_argument("--seed", type=int, default=0,
                   help="seed for every pseudorandom choice (default 0)")
    p.add_argument("--out", metavar="PATH", default=None,
                   help="write the JSON document here instead of stdout")


def _resolve_field(args):
    if args.q is not None:
        if args.p is not None:
            raise ValueError("give --q or --p, not both")
        return parse_field_spec(args.q, seed=args.seed)
    if args.p is not None:
        if not is_prime(args.p):
            raise ValueError("--p must be prime, got %d" % args.p)
        return make_field(args.p, args.m, seed=args.seed)
    raise ValueError("a field is required: --q SPEC or --p P [--m M]")


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

    pa = sub.add_parser("analyze",
                        help="decide the Galois group of L(x) + tx")
    _add_field_flags(pa)
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

    ps = sub.add_parser("sample",
                        help="sample Frobenius cycle types by factoring "
                             "specializations")
    _add_field_flags(ps)
    ps.add_argument("--lin", metavar="COEFFS", required=True)
    ps.add_argument("--n", type=int, default=None)
    ps.add_argument("--kmax", type=int, default=None,
                    help="largest extension degree sampled (default n+3)")
    ps.add_argument("--budget", type=int, default=100,
                    help="total samples (default 100)")

    pc = sub.add_parser("census",
                        help="cycle-type census of GL(n, q) or of the "
                             "Singer normalizer")
    _add_field_flags(pc)
    pc.add_argument("--n", type=int, required=True)
    pc.add_argument("--normalizer-only", action="store_true",
                    help="census of the Singer normalizer instead of "
                         "all of GL(n, q)")

    pg = sub.add_parser("singer",
                        help="Singer generator, Frobenius matrix, and "
                             "their verified orders")
    _add_field_flags(pg)
    pg.add_argument("--n", type=int, required=True)

    pv = sub.add_parser("verify", help="exhaustive verifiers")
    pv.add_argument("check",
                    choices=["gmg", "disc", "identity", "alt2",
                             "normalizer"],
                    help="gmg: image-in-squares classification; disc: "
                         "discriminant square-class formula; identity: "
                         "factorization of x^(q^n) - x and the forcing "
                         "step; alt2: alternating containment in "
                         "characteristic 2; normalizer: Singer-"
                         "normalizer order and stabilizers")
    _add_field_flags(pv)
    pv.add_argument("--n", type=int, default=None,
                    help="q-degree (required by every check except gmg)")
    return top


# -- document builders -----------------------------------------------------

def _parse_lin(field, text):
    L = lin_mod.parse_linpoly(field, text)
    if not L.is_monic:
        raise ValueError("leading coefficient a_n must be 1 (monic)")
    return L


def _analyze_doc(field, L, args):
    v = engine.verdict(L, n=args.n, kmax=args.kmax, budget=args.budget,
                       seed=args.seed)
    doc = {"command": "analyze", "field": field.spec_string(),
           "lin": L.coeff_objs(),
           "kmax": args.kmax if args.kmax is not None else L.qdeg + 3,
           "budget": args.budget, "seed": args.seed}
    doc.update(v.to_json())
    return doc, (0 if v.family in ("GL", "GammaL") else 2)


def _sample_doc(field, L, args):
    kmax = args.kmax if args.kmax is not None else L.qdeg + 3
    if args.n is not None and args.n != L.qdeg:
        raise ValueError("q-degree mismatch: polynomial has %d, caller "
                         "said %d" % (L.qdeg, args.n))
    run = engine.sample_cycle_types(L, range(1, kmax + 1),
                                    budget=args.budget, seed=args.seed)
    notes = []
    if not run.samples and run.skipped > 0:
        notes.append("no samples: every drawn alpha had L(alpha) = 0")
    return {
        "command": "sample", "field": field.spec_string(),
        "q": L.q, "n": L.qdeg, "lin": L.coeff_objs(),
        "kmax": kmax, "budget": args.budget, "seed": args.seed,
        "samples": [s.to_json() for s in run.samples],
        "skipped_alphas": run.skipped,
        "notes": notes,
    }, 0


def _census_doc(field, args):
    n = args.n
    if args.normalizer_only:
        cen = group_mod.normalizer_census(n, field, args.seed)
        label = "SingerNormalizer(%d,%d)" % (n, field.order)
    else:
        cen = group_mod.gl_census(n, field)
        label = "GL(%d,%d)" % (n, field.order)
    doc = {"command": "census", "field": field.spec_string(),
           "q": field.order, "n": n, "seed": args.seed, "group": label}
    doc.update(cen.to_json())
    return doc, 0


def _singer_doc(field, args):
    n = args.n
    q = field.order
    f = group_mod.singer_modulus(n, field, args.seed)
    S = group_mod.singer_generator(n, field, args.seed)
    F = group_mod.frobenius_matrix(n, field, args.seed)
    return {
        "command": "singer", "field": field.spec_string(),
        "q": q, "n": n, "seed": args.seed,
        "modulus": [field.rep_to_obj(c) for c in f.coeffs],
        "singer": group_mod.mat_to_obj(field, S),
        "frobenius": group_mod.mat_to_obj(field, F),
        "singer_order": q ** n - 1,
        "frobenius_order": n,
        "normalizer_order": n * (q ** n - 1),
        "conjugation_ok": group_mod.conjugation_ok(field, S, F),
    }, 0


def _verify_doc(field, args):
    check = args.check
    if check == "gmg":
        rep = engine.verify_gmg(field)
    else:
        if args.n is None:
            raise ValueError("verify %s needs --n" % check)
        if check == "disc":
            rep = engine.verify_disc_lemma(field, args.n)
        elif check == "identity":
            rep = engine.verify_factor_identity(field, args.n)
        elif check == "alt2":
            rep = engine.verify_alternating_char2(field, args.n)
        else:
            rep = engine.verify_normalizer(args.n, field, args.seed)
    doc = {"command": "verify", "field": field.spec_string(),
           "seed": args.seed}
    doc.update(rep)
    return doc, (0 if rep["passed"] else 1)


# -- emission --------------------------------------------------------------

def _emit(doc, out_path):
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
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


def _run_batch(args):
    field = _resolve_field(args)
    codes = []
    with open(args.batch, "r", encoding="utf-8") as fh:
        lines = [ln.strip() for ln in fh]
    out_lines = []
    for ln in lines:
        if not ln or ln.startswith("#"):
            continue
        try:
            L = _parse_lin(field, ln)
            doc, code = _analyze_doc(field, L, args)
        except _RUN_ERRORS as exc:
            doc, code = {"error": str(exc), "lin_input": ln}, 1
        codes.append(code)
        out_lines.append(json.dumps(doc, sort_keys=True,
                                    separators=(",", ":")))
    text = "".join(ln + "\n" for ln in out_lines)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    print("batch: %d analyzed, %d errors, %d inconclusive"
          % (len(codes), codes.count(1), codes.count(2)), file=sys.stderr)
    if 1 in codes:
        return 1
    if 2 in codes:
        return 2
    return 0


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.json_schema:
        sys.stdout.write(schema_text())
        return 0
    if args.command is None:
        parser.error("a subcommand is required (or --json-schema)")
    try:
        if args.command == "analyze" and args.batch is not None:
            if args.lin is not None:
                raise ValueError("give --lin or --batch, not both")
            return _run_batch(args)
        field = _resolve_field(args)
        if args.command == "analyze":
            if args.lin is None:
                raise ValueError("analyze needs --lin (or --batch)")
            doc, code = _analyze_doc(field, _parse_lin(field, args.lin),
                                     args)
        elif args.command == "sample":
            doc, code = _sample_doc(field, _parse_lin(field, args.lin),
                                    args)
        elif args.command == "census":
            doc, code = _census_doc(field, args)
        elif args.command == "singer":
            doc, code = _singer_doc(field, args)
        else:
            doc, code = _verify_doc(field, args)
    except _RUN_ERRORS as exc:
        _emit({"error": str(exc)}, None)
        print("error: %s" % exc, file=sys.stderr)
        return 1
    _emit(doc, args.out)
    print(_summary_line(doc, code), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
