"""perfbench: end-to-end and per-layer benchmark of linmono.

    python3 perfbench/run.py --workload verdict-mix --seed 1 --seconds 30 \
        --trace 0

Run from anywhere; the program is imported from src/ next to this
directory.  Workloads (inputs in workloads.py, a pure function of --seed):

* verdict-mix: analyze on seeded random monic L over seven (q, n)
  classes, then engine.recheck of every evidence item read back from the
  document.  The user's main path: decision tree, witness search,
  factoring at small k and recheck.
* sample-deep: large-budget sample runs.  Dedekind sampling at depth:
  dense distinct-degree factoring over F_{q^k} and extension arithmetic.
* census-verify: group censuses and the exhaustive verifiers.  No
  sampling, so a sampling or recheck change must read flat here.

Each workload is one client in one process, closed loop, no threads.  A
pass is one call of every op of the workload, in a freshly imported
linmono, so module caches start cold in every pass.  Passes repeat
identical inputs, at least MIN_PASSES of them and more while the next
one would end within --seconds; every repeat must emit byte-identical
documents, and each pass runs the ops in a fresh seeded order.  Every
timed call (op, recheck, import) is scaled by the machine's speed at
that moment, as speed.py measures it, to seconds at a reference speed;
wall_latency_ms_p50 prints the unscaled figure.  ops_per_s and the
latency percentiles take every op run of every pass.  setup_s is the
median time of the fresh imports (SETUP_REPEATS before the first pass,
one before each later one).

--trace 0 prints the end-to-end metrics.  --trace 1 runs one untraced
pass, one pass with a span around each public linmono function
(tracing.py) and one pass counting field operations, and prints the
per-layer metrics.  Outputs are checked against facts the benchmark
derives itself; every failed check counts as a failed op.  The last line
of stdout is one JSON object: correct, attempted, failed, metrics.
Spans, results and document digests go to .perfbench/ at the root of
the checkout.  Exit code 0 means the run completed, even with failures.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import math
import os
import platform
import random
import resource
import statistics
import sys
import time
from pathlib import Path

import speed
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

MODULES = ("cli", "engine", "ff", "poly", "linpoly", "group")

SETUP_REPEATS = 5
MIN_PASSES = 3

# Oracle censuses are built for groups at most this large.
ORACLE_ORDER_CAP = 12000

# Field micro-timings: fixed fields and fixed operand pairs.
MICRO_FIELDS = (("F7", "7"), ("F3-6", "3^6"), ("F2-12", "2^12"),
                ("F9-3", "3^2+3"))
MICRO_PAIRS = 64
MICRO_REPEATS = 5

END_TO_END = (("setup_s", "s"), ("ops_per_s", "1/s"),
              ("latency_ms_p50", "ms"), ("peak_rss_mib", "MiB"))

# Per-layer metrics in the result line.  Times of layers that one of the
# workloads never calls are printed but left out of the line, which
# would otherwise carry a constant 0.
PER_LAYER = (
    ("poly.factor_degrees.calls", "count"),
    ("poly.factor_degrees.self_s", "s"),
    ("poly.factor_degrees.degree_sum", "count"),
    ("linpoly.reduced.total_s", "s"),
    ("linpoly.reduced.degree_sum", "count"),
    ("engine.sample_cycle_types.calls", "count"),
    ("engine.sample.useful_ratio", "ratio"),
    ("engine.recheck.calls", "count"),
    ("engine.recheck.pass_ratio", "ratio"),
    ("engine.recheck.factor_calls", "count"),
    ("engine.disc_nonsquare_witness.calls", "count"),
    ("engine.disc_witness.found_ratio", "ratio"),
    ("linpoly.evaluate.calls", "count"),
    ("linpoly.evaluate.total_s", "s"),
    ("linpoly.square_class.calls", "count"),
    ("engine.verdict.calls", "count"),
    ("cli.main.self_s", "s"),
    ("ff.Field.mul.calls", "count"),
    ("ff.Field.add.calls", "count"),
    ("ff.Field.pow.calls", "count"),
    ("ff.Field.inv.calls", "count"),
    ("ff.mul_ns.F7", "ns"),
    ("ff.mul_ns.F3-6", "ns"),
    ("ff.mul_ns.F2-12", "ns"),
    ("ff.mul_ns.F9-3", "ns"),
    ("ff.inv_ns.F3-6", "ns"),
    ("ff.extend_field.calls", "count"),
    ("ff.extend_field.total_s", "s"),
    ("poly.is_irreducible.calls", "count"),
    ("poly.is_irreducible.total_s", "s"),
    ("group.singer_modulus.calls", "count"),
    ("group.gl_census.calls", "count"),
    ("group.cycle_type_of.calls", "count"),
    ("group.generate_group.calls", "count"),
    ("group.normalizer_census.calls", "count"),
    ("poly.pow_mod.calls", "count"),
    ("poly.gcd.calls", "count"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.unattributed_share", "ratio"),
)

# Span times printed by the traced run on top of PER_LAYER.
PRINTED_TIMES = (
    "engine.sample_cycle_types.self_s", "engine.sample_cycle_types.total_s",
    "engine.recheck.total_s", "engine.disc_nonsquare_witness.total_s",
    "engine.verdict.self_s", "group.singer_modulus.total_s",
    "group.gl_census.total_s", "group.gl_elements.total_s",
    "group.cycle_type_of.total_s", "group.generate_group.total_s",
    "group.normalizer_census.total_s", "engine.verify_normalizer.total_s",
    "engine.verify_gmg.total_s", "engine.verify_disc_lemma.total_s",
    "engine.verify_factor_identity.total_s",
    "engine.verify_alternating_char2.total_s", "poly.factor.total_s",
    "poly.resultant.total_s",
)


class BenchError(Exception):
    """The benchmark cannot run here."""


# -- the program -----------------------------------------------------------

def fresh_import():
    """Import linmono from SRC with empty module state; its modules."""
    for name in [m for m in sys.modules
                 if m == "linmono" or m.startswith("linmono.")]:
        del sys.modules[name]
    importlib.import_module("linmono")
    mods = {m: importlib.import_module("linmono." + m) for m in MODULES}
    if Path(mods["cli"].__file__).resolve().parent != SRC / "linmono":
        raise BenchError("linmono imported from %s, not %s"
                         % (mods["cli"].__file__, SRC))
    return mods


def timed_import(probe, setup_times):
    """fresh_import(), its scaled time appended to setup_times."""
    mods, dt, scale = probe.time(fresh_import)
    setup_times.append(dt / scale)
    return mods


def call_cli(cli, argv):
    """(exit code, stdout text) of cli.main(argv), output captured."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue()


def run_op(mods, op, probe):
    """One op: the CLI call, then for analyze the recheck of every
    evidence item read back from the document.  latency and recheck are
    net seconds divided by the probe's scale."""
    (code, text), latency, scale = probe.time(call_cli, mods["cli"],
                                              op.argv)
    res = {"code": code, "text": text, "latency": latency / scale,
           "wall": latency, "scale": scale, "recheck": 0.0,
           "rechecks": [], "cycle_types": 0}
    try:
        doc = json.loads(text)
    except ValueError:
        return res
    if op.command == "sample":
        res["cycle_types"] = len(doc.get("samples", ()))
    if op.command != "analyze" or "evidence" not in doc:
        return res
    res["cycle_types"] = sum(1 for e in doc["evidence"]
                             if e["kind"] == "CycleTypeSample")
    engine = mods["engine"]
    seed = int(op.argv[op.argv.index("--seed") + 1])
    field = mods["ff"].parse_field_spec(str(op.q), seed=seed)
    L = mods["linpoly"].parse_linpoly(
        field, op.argv[op.argv.index("--lin") + 1])
    items = [engine.Evidence(e["kind"], e["payload"], e["note"])
             for e in doc["evidence"]]
    res["rechecks"], recheck, scale = probe.time(
        lambda: [engine.recheck(L, ev, seed=seed) for ev in items])
    res["recheck"] = recheck / scale
    return res


def run_pass(mods, ops, order=None, tracer=None, probe=None):
    """Every op once, in the given order of indices; per-op results in
    op order.  An op that raises is recorded as failed and the pass goes
    on."""
    probe = probe or speed.NoProbe()
    out = [None] * len(ops)
    for i in order if order is not None else range(len(ops)):
        t0 = time.perf_counter()
        try:
            if tracer is None:
                res = run_op(mods, ops[i], probe)
            else:
                res = tracer.root(i, run_op, mods, ops[i], probe)
        except Exception as exc:  # noqa: BLE001 -- one op must not end the run
            dt = time.perf_counter() - t0
            res = {"code": None, "text": "", "recheck": 0.0, "rechecks": [],
                   "latency": dt, "wall": dt, "scale": 1.0,
                   "cycle_types": 0,
                   "error": "%s: %s" % (type(exc).__name__, exc)}
        out[i] = res
    return out


def pass_seconds(results):
    return sum(r["latency"] + r["recheck"] for r in results)


# -- output checks ---------------------------------------------------------

def build_oracles(mods, ops):
    """Cycle-type censuses that sampled evidence must fall in, by
    (q, n, pure): the Singer normalizer for pure powers, else GL(n, q)
    over a prime field where it is small enough to enumerate."""
    group, ff = mods["group"], mods["ff"]
    oracles = {}
    for op in ops:
        key = (op.q, op.n, op.pure)
        if op.command not in ("analyze", "sample") or key in oracles:
            continue
        field = ff.parse_field_spec(str(op.q), seed=0)
        if op.pure and op.n * (op.q ** op.n - 1) <= ORACLE_ORDER_CAP:
            cen = group.normalizer_census(op.n, field, 0)
        elif (field.base is None
              and workloads.gl_order(op.n, op.q) <= ORACLE_ORDER_CAP):
            cen = group.gl_census(op.n, field)
        else:
            cen = None
        oracles[key] = (None if cen is None
                        else {tuple(t) for t, _ in cen.counts})
    return oracles


def cycle_type_problems(op, cycle_types, oracles):
    """Sampled cycle types must sum to q^n - 1, be those of a linear map
    and, where the census was built, occur in it."""
    N = op.q ** op.n - 1
    allowed = oracles.get((op.q, op.n, op.pure))
    problems = []
    for ct in map(tuple, cycle_types):
        if sum(ct) != N:
            problems.append("cycle type %s does not sum to %d" % (ct, N))
        elif not workloads.is_linear_cycle_type(ct, op.q):
            problems.append("cycle type %s is not that of a linear map"
                            % (ct,))
        elif allowed is not None and ct not in allowed:
            problems.append("cycle type %s not in the census" % (ct,))
    return problems


def check_op(op, res, validator, oracles):
    """Problems with one op's output, as strings (empty: passed)."""
    if "error" in res:
        return [res["error"]]
    try:
        doc = json.loads(res["text"])
    except ValueError:
        return ["output is not JSON (exit %r)" % res["code"]]
    problems = ["schema: %s" % e.message
                for e in validator.iter_errors(doc)][:3]
    if "error" in doc:
        return problems + ["program error: %s" % doc["error"]]
    if op.command == "analyze":
        family, order = workloads.expected_verdict(op)
        if (doc.get("verdict"), doc.get("order")) != (family, order):
            problems.append("verdict %s order %s, expected %s order %s"
                            % (doc.get("verdict"), doc.get("order"),
                               family, order))
        if res["code"] != (2 if family == "Inconclusive" else 0):
            problems.append("exit code %r" % res["code"])
        if not all(res["rechecks"]):
            problems.append("%d of %d evidence items fail recheck"
                            % (res["rechecks"].count(False),
                               len(res["rechecks"])))
        problems += cycle_type_problems(
            op, [e["payload"]["cycle_type"] for e in doc.get("evidence", ())
                 if e["kind"] == "CycleTypeSample"], oracles)
        return problems[:5]
    if res["code"] != 0:
        problems.append("exit code %r" % res["code"])
    if op.command == "sample":
        if not doc.get("samples"):
            problems.append("no samples")
        problems += cycle_type_problems(
            op, [s["cycle_type"] for s in doc.get("samples", ())], oracles)
    elif op.command == "census":
        order = (op.n * (op.q ** op.n - 1) if "--normalizer-only" in op.argv
                 else workloads.gl_order(op.n, op.q))
        counted = sum(c["count"] for c in doc.get("census", ()))
        if counted != order or doc.get("order") != order:
            problems.append("census counts %d, order %s, expected %d"
                            % (counted, doc.get("order"), order))
        if any(sum(c["cycle_type"]) != op.q ** op.n - 1
               for c in doc.get("census", ())):
            problems.append("a census cycle type does not sum to q^n - 1")
    elif doc.get("passed") is not True:
        problems.append("verify did not pass")
    return problems[:5]


def check_run(ops, passes, validator, oracles):
    """(failed op executions, problem lines, digest of the first pass).

    The first pass is checked in full; every later pass must repeat its
    documents byte for byte and recheck cleanly."""
    first = passes[0]
    problems = [check_op(op, res, validator, oracles)
                for op, res in zip(ops, first)]
    failed = 0
    lines = []
    for results in passes:
        for i, (op, res) in enumerate(zip(ops, results)):
            bad = list(problems[i])
            if res is not first[i]:
                if res["text"] != first[i]["text"]:
                    bad.append("document differs from the first pass")
                if not all(res["rechecks"]):
                    bad.append("recheck failed in a repeat pass")
            if bad:
                failed += 1
                lines.append("%s: %s" % (" ".join(op.argv), "; ".join(bad)))
    digest = hashlib.sha256(
        "".join(r["text"] for r in first).encode()).hexdigest()
    return failed, lines, digest


def schema_validator(mods):
    import jsonschema  # after the timed passes: kept out of peak RSS

    schema = json.loads(mods["cli"].schema_text())
    cls = jsonschema.validators.validator_for(schema)
    return cls(schema)


def code_id():
    """Hash of the program and benchmark sources: runs with equal ids
    must emit equal documents for equal seeds."""
    h = hashlib.sha256()
    for base in (SRC / "linmono", HERE):
        for path in sorted(base.glob("*.py")) + sorted(base.glob("*.json")):
            h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def digest_agrees(workload, seed, digest):
    """Record digest for (code, workload, seed); False when an earlier
    run of the same code and seed recorded a different one."""
    OUT.mkdir(exist_ok=True)
    path = OUT / "digests.json"
    try:
        store = json.loads(path.read_text())
    except (OSError, ValueError):
        store = {}
    key = "%s:%s:%d" % (code_id(), workload, seed)
    if store.setdefault(key, digest) != digest:
        return False
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(store, indent=1, sort_keys=True))
    os.replace(tmp, path)
    return True


# -- machine context -------------------------------------------------------

def _read(path):
    try:
        return Path(path).read_text()
    except OSError:
        return ""


def git_commit():
    head = _read(ROOT / ".git" / "HEAD").strip()
    if not head.startswith("ref: "):
        return head or "unknown (not a git checkout)"
    ref = head[5:]
    sha = _read(ROOT / ".git" / ref).strip()
    if sha:
        return sha
    for line in _read(ROOT / ".git" / "packed-refs").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return "unknown"


def machine_context():
    cpu = "unknown"
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    load = _read("/proc/loadavg").split()
    nproc = len(os.sched_getaffinity(0))
    load1 = float(load[0]) if load else -1.0
    return {"python": platform.python_version(), "nproc": nproc,
            "cpu": cpu, "loadavg": load[:3], "commit": git_commit(),
            "load_above_cores": load1 > nproc}


# -- metrics ---------------------------------------------------------------

def percentile_beyond(values, pct):
    """(value at pct, how many values lie above it)."""
    cut = statistics.quantiles(values, n=100)[pct - 1]
    return cut, sum(1 for v in values if v > cut)


def end_to_end(setup_times, passes):
    """(metrics, printed-only metrics as (value, unit, note), notes).

    Times are scaled (speed.py), so every op run counts: ops_per_s is op
    runs over their summed time and the latencies are percentiles over
    all op runs."""
    runs = [r for results in passes for r in results]
    lat = [r["latency"] for r in runs]
    m = {"setup_s": statistics.median(setup_times),
         "ops_per_s": len(runs) / sum(r["latency"] + r["recheck"]
                                      for r in runs),
         "latency_ms_p50": 1000 * statistics.median(lat),
         "peak_rss_mib":
             resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    notes = {"setup_s": "median of %d imports" % len(setup_times),
             "ops_per_s": "%d op runs in %d passes" % (len(runs),
                                                       len(passes)),
             "latency_ms_p50": "%d op runs" % len(runs)}
    extra = {}
    extra["wall_latency_ms_p50"] = (
        1000 * statistics.median(r["wall"] for r in runs), "ms",
        "unscaled latency_ms_p50")
    extra["machine_scale_p50"] = (
        statistics.median(r["scale"] for r in runs), "ratio",
        "kernel time over the reference, %d op runs" % len(runs))
    p90, beyond = percentile_beyond(lat, 90)
    if beyond >= 10:
        extra["latency_ms_p90"] = (
            1000 * p90, "ms", "%d op runs, %d beyond" % (len(lat), beyond))
    if any(r["rechecks"] for r in runs):
        extra["recheck_ms_p50"] = (
            1000 * statistics.median(r["recheck"] for r in runs), "ms",
            "%d op runs" % len(runs))
    types = sum(r["cycle_types"] for r in runs)
    if types:
        extra["cycle_types_per_s"] = (types / sum(lat), "1/s",
                                      "%d cycle types" % types)
    return m, extra, notes


def micro_timings(ff):
    """ns per Field.mul (and Field.inv on F_{3^6}) over fixed operand
    pairs, the minimum of MICRO_REPEATS repeats."""
    rng = random.Random("perfbench:ff-micro")
    out = {}
    for label, spec in MICRO_FIELDS:
        F = ff.parse_field_spec(spec, seed=0)
        pairs = [(F.rep_at(rng.randrange(1, F.order)),
                  F.rep_at(rng.randrange(1, F.order)))
                 for _ in range(MICRO_PAIRS)]
        ops = [("mul", F.mul, 20)]
        if label == "F3-6":
            ops.append(("inv", lambda x, _y, F=F: F.inv(x), 2))
        for kind, fn, loops in ops:
            best = math.inf
            for _ in range(MICRO_REPEATS):
                t0 = time.perf_counter()
                for _ in range(loops):
                    for x, y in pairs:
                        fn(x, y)
                best = min(best, time.perf_counter() - t0)
            out["ff.%s_ns.%s" % (kind, label)] = \
                1e9 * best / (loops * MICRO_PAIRS)
    return out


def per_layer(tracer, counter, untraced_s, traced_s):
    spans = tracer.spans
    st = tracing.layer_stats(spans)
    m = {}
    for name, s in st.items():
        m[name + ".calls"] = s["calls"]
        m[name + ".total_s"] = s["total_s"]
        m[name + ".self_s"] = s["self_s"]

    def values(name, width):
        v = st.get(name, {}).get("values")
        return v or (0,) * width

    def ratio(a, b):
        return a / b if b else 0.0

    m["poly.factor_degrees.degree_sum"] = values("poly.factor_degrees", 1)[0]
    m["linpoly.reduced.degree_sum"] = values("linpoly.reduced", 1)[0]
    useful, drawn = values("engine.sample_cycle_types", 2)
    m["engine.sample.useful_ratio"] = ratio(useful, drawn)
    m["engine.recheck.pass_ratio"] = ratio(
        values("engine.recheck", 1)[0], m.get("engine.recheck.calls", 0))
    m["engine.recheck.factor_calls"] = tracing.calls_under(
        spans, "poly.factor_degrees", "engine.recheck")
    m["engine.disc_witness.found_ratio"] = ratio(
        values("engine.disc_nonsquare_witness", 1)[0],
        m.get("engine.disc_nonsquare_witness.calls", 0))
    m.update({k + ".calls": v for k, v in counter.counts.items()})
    m["trace.overhead_ratio"] = traced_s / untraced_s
    root = st.get(tracing.ROOT)
    m["trace.unattributed_share"] = ratio(root["self_s"], root["total_s"])
    return m


# -- entry point -----------------------------------------------------------

def metric_line(name, value, unit, note=""):
    return "%-40s %16.6f %-6s %s" % (name, value, unit, note)


def run(workload, seed, seconds, trace):
    context = machine_context()
    print("# perfbench %s seed=%d seconds=%d trace=%d"
          % (workload, seed, seconds, trace))
    print("# machine: python %(python)s, nproc %(nproc)d, cpu %(cpu)s, "
          "loadavg %(loadavg)s, commit %(commit)s" % context)
    if context["load_above_cores"]:
        print("# WARNING: load average above the core count at start")
    ops = workloads.generate(workload, seed)

    setup_times = []
    passes = []
    if trace:
        mods = fresh_import()
        passes.append(run_pass(mods, ops))
        untraced_s = pass_seconds(passes[-1])
        mods = fresh_import()
        with tracing.Tracer().install(mods) as tracer:
            passes.append(run_pass(mods, ops, tracer=tracer))
        traced_s = pass_seconds(passes[-1])
        mods = fresh_import()
        with tracing.CallCounter().install(mods) as counter:
            passes.append(run_pass(mods, ops))
    else:
        # Each pass runs the ops in a fresh seeded order, so that a slow
        # spell of the machine does not hit the same ops in every pass.
        order_rng = random.Random("perfbench:order:%d" % seed)
        order = list(range(len(ops)))
        with speed.Probe() as probe:
            for _ in range(SETUP_REPEATS):
                mods = timed_import(probe, setup_times)
            t_start = time.perf_counter()
            while True:
                passes.append(run_pass(mods, ops, order, probe=probe))
                elapsed = time.perf_counter() - t_start
                if (len(passes) >= MIN_PASSES and
                        elapsed * (len(passes) + 1) / len(passes) > seconds):
                    break
                mods = timed_import(probe, setup_times)
                order_rng.shuffle(order)
        metrics, extra, notes = end_to_end(setup_times, passes)

    oracles = build_oracles(mods, ops)
    failed, problems, digest = check_run(ops, passes, schema_validator(mods),
                                         oracles)
    consistent = digest_agrees(workload, seed, digest)
    attempted = sum(len(p) for p in passes)

    print("# %d passes of %d ops; %d failed" % (len(passes), len(ops), failed))
    for line in problems[:20]:
        print("# FAIL " + line)
    print("# documents sha256 %s (%s, seed %d)" % (digest, workload, seed))
    if not consistent:
        print("# FAIL digest differs from an earlier run of this code and "
              "seed")

    print(metric_line("error_rate", failed / attempted, "ratio",
                      "%d of %d op runs" % (failed, attempted)))
    if trace:
        metrics = per_layer(tracer, counter, untraced_s, traced_s)
        metrics.update(micro_timings(mods["ff"]))
        declared = PER_LAYER
        for name in PRINTED_TIMES:
            print(metric_line(name, metrics.get(name, 0.0), "s"))
        write_spans(workload, seed, tracer.spans)
    else:
        declared = END_TO_END
        for name, (value, unit, note) in sorted(extra.items()):
            print(metric_line(name, value, unit, note))
    result = {name: {"value": metrics.get(name, 0), "unit": unit}
              for name, unit in declared}
    for name, unit in declared:
        note = "" if trace else notes.get(name, "")
        print(metric_line(name, result[name]["value"], unit, note))

    line = {"correct": failed == 0 and consistent, "attempted": attempted,
            "failed": failed, "metrics": result}
    OUT.mkdir(exist_ok=True)
    with open(OUT / "results.jsonl", "a", encoding="utf-8") as fh:
        fh.write(json.dumps({"workload": workload, "seed": seed,
                             "seconds": seconds, "trace": trace,
                             "context": context, "digest": digest,
                             "code_id": code_id(),
                             "problems": problems[:20], **line}) + "\n")
    print(json.dumps(line))


def write_spans(workload, seed, spans):
    OUT.mkdir(exist_ok=True)
    path = OUT / ("spans-%s-%d.json" % (workload, seed))
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"fields": ["name", "start", "end", "parent", "op",
                              "value"], "spans": spans}, fh)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "linmono" / "__init__.py").is_file():
        print("perfbench: no linmono sources under %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    try:
        run(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
