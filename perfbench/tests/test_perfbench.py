"""Tests of the benchmark itself.

    python3 -m pytest perfbench/tests
"""

import json
import random
import statistics
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import run  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import Op  # noqa: E402


def test_inputs_are_a_pure_function_of_the_seed():
    for wl in workloads.WORKLOADS:
        first = workloads.generate(wl, 7)
        random.seed(1)
        random.random()
        assert workloads.generate(wl, 7) == first
    assert (workloads.generate("verdict-mix", 7)
            != workloads.generate("verdict-mix", 8))


def test_verdict_mix_makes_every_verdict_occur():
    for seed in range(4):
        seen = set()
        for op in workloads.generate("verdict-mix", seed):
            family, _ = workloads.expected_verdict(op)
            seen.add((family, family == "GL" and op.q == 2))
        assert seen == {("GammaL", False), ("GL", False), ("GL", True),
                        ("Inconclusive", False)}


def test_expected_verdict_follows_the_dichotomy():
    def op(q, n, coeffs):
        return Op((), "analyze", q, n, coeffs)

    assert workloads.expected_verdict(op(3, 3, (2, 0, 0, 1))) \
        == ("GammaL", 78)
    assert workloads.expected_verdict(op(3, 3, (0, 1, 0, 1))) \
        == ("GL", 11232)
    assert workloads.expected_verdict(op(2, 3, (0, 1, 1, 1))) == ("GL", 168)
    assert workloads.expected_verdict(op(2, 3, (0, 1, 0, 1))) \
        == ("Inconclusive", None)
    assert workloads.expected_verdict(op(5, 2, (0, 3, 1))) \
        == ("Inconclusive", None)


def test_linear_cycle_types():
    assert workloads.is_linear_cycle_type((2, 6), 3)
    assert workloads.is_linear_cycle_type((1, 1, 2, 2, 2), 3)
    assert not workloads.is_linear_cycle_type((1, 7), 3)
    assert not workloads.is_linear_cycle_type((2, 2, 4), 3)


def _attributes(mods):
    """Every attribute of every linmono module and of ff.Field."""
    owners = [m for name, m in sys.modules.items()
              if name == "linmono" or name.startswith("linmono.")]
    owners.append(mods["ff"].Field)
    return {(repr(o), k): v for o in owners for k, v in vars(o).items()}


def test_traced_passes_restore_attributes_and_keep_documents():
    ops = [Op(("analyze", "--q", "2", "--lin", "1,1,1,1", "--seed", "3"),
              "analyze", 2, 3, (1, 1, 1, 1)),
           Op(("analyze", "--q", "3", "--lin", "0,0,1", "--seed", "4"),
              "analyze", 3, 2, (0, 0, 1)),
           Op(("census", "--q", "2", "--n", "2", "--seed", "5"),
              "census", 2, 2),
           Op(("verify", "identity", "--q", "2", "--n", "3", "--seed", "6"),
              "verify", 2, 3)]
    mods = run.fresh_import()
    plain = run.run_pass(mods, ops)
    mods = run.fresh_import()
    before = _attributes(mods)
    with tracing.Tracer().install(mods) as tracer:
        traced = run.run_pass(mods, ops, tracer=tracer)
    with tracing.CallCounter().install(mods) as counter:
        counted = run.run_pass(mods, ops)
    after = _attributes(mods)
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)

    validator = run.schema_validator(mods)
    digests = set()
    for results in (plain, traced, counted):
        failed, problems, digest = run.check_run(ops, [results], validator,
                                                 {})
        assert failed == 0, problems
        digests.add(digest)
    assert len(digests) == 1
    names = {s[0] for s in tracer.spans}
    assert {"op", "cli.main", "engine.verdict", "engine.recheck",
            "group.gl_census", "ff.extend_field"} <= names
    assert counter.counts["ff.Field.mul"] > 0


def test_self_time_on_a_synthetic_span_tree():
    spans = [("op", 0.0, 10.0, -1, 0, None),
             ("a", 1.0, 5.0, 0, 0, (3, 1)),
             ("b", 2.0, 3.0, 1, 0, None),
             ("a", 3.5, 4.5, 1, 0, (4, 1)),
             ("b", 6.0, 9.0, 0, 0, None)]
    st = tracing.layer_stats(spans)
    assert st["op"]["calls"] == 1
    assert st["op"]["total_s"] == 10.0 and st["op"]["self_s"] == 3.0
    # the inner a is inside the outer one: it counts in self, not total
    assert st["a"]["calls"] == 2
    assert st["a"]["total_s"] == 4.0 and st["a"]["self_s"] == 3.0
    assert st["a"]["values"] == (7, 2)
    assert st["b"]["total_s"] == 4.0 and st["b"]["self_s"] == 4.0
    assert tracing.calls_under(spans, "a", "a") == 1
    assert tracing.calls_under(spans, "b", "a") == 1
    assert tracing.calls_under(spans, "b", "op") == 2


def test_covered_takes_the_union_of_clipped_intervals():
    assert tracing._covered([(1.0, 3.0), (2.0, 4.0)], 0.0, 10.0) == 3.0
    assert tracing._covered([(-1.0, 2.0), (9.0, 12.0)], 0.0, 10.0) == 3.0
    assert tracing._covered([], 0.0, 1.0) == 0.0


def test_benchmark_json_lists_the_printed_metrics():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] \
        == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] \
        == list(run.PER_LAYER)


def test_probe_samples_during_a_call_and_takes_its_time_out():
    def busy():
        return sum(speed.kernel() for _ in range(150))

    with speed.Probe() as probe:
        t0 = time.perf_counter()
        result, net, scale = probe.time(busy)
        wall = time.perf_counter() - t0
    assert result == busy()
    # the timer fired inside the call, and those kernels are not in net
    assert len(probe.samples) > 2 * speed.EDGE
    assert 0 < net <= wall - sum(probe.samples)
    assert scale == statistics.fmean(probe.samples) / speed.REF_KERNEL_S
    result, net, scale = speed.NoProbe().time(busy)
    assert scale == 1.0 and net > 0
