"""Spans and call counts around linmono's public functions, recorded from
outside the program.

A wrapper replaces a function at every place a caller looks it up: each
attribute of a loaded linmono module bound to that function object.
engine imports extend_field from ff by name, for instance, so both
ff.extend_field and engine.extend_field are replaced.  restore() puts
every original back.

A span is (name, start, end, parent index, op id, value): value is a
tuple of numbers read from the call (a degree, a sample count) or None.
Spans stay in memory until the caller writes them out.
"""

from __future__ import annotations

import sys
import time

# Functions that get a span, by linmono submodule.
SPANNED = {
    "cli": ("main",),
    "engine": ("verdict", "sample_cycle_types", "disc_nonsquare_witness",
               "recheck", "verify_normalizer", "verify_gmg",
               "verify_disc_lemma", "verify_factor_identity",
               "verify_alternating_char2"),
    "ff": ("extend_field",),
    "poly": ("factor_degrees", "is_irreducible", "factor", "resultant"),
    "linpoly": ("reduced", "evaluate", "specialize", "square_class"),
    "group": ("gl_census", "gl_elements", "census", "cycle_type_of",
              "generate_group", "normalizer_census", "singer_modulus"),
}

# Called too often for a span; the counting pass counts them instead.
COUNTED_FUNCTIONS = {"poly": ("pow_mod", "gcd")}
COUNTED_FIELD_METHODS = ("mul", "add", "pow", "inv")

# Numbers read from a spanned call: (args, result) -> tuple.
VALUES = {
    "poly.factor_degrees": lambda args, res: (args[0].degree,),
    "linpoly.reduced": lambda args, res: (res.degree,),
    "engine.sample_cycle_types":
        lambda args, res: (len(res.samples), len(res.samples) + res.skipped),
    "engine.recheck": lambda args, res: (int(bool(res)),),
    "engine.disc_nonsquare_witness":
        lambda args, res: (int(res is not None),),
}

ROOT = "op"


class _Patches:
    """Attribute replacements that restore() undoes in reverse order."""

    def __init__(self):
        self._undo = []

    def _set(self, owner, name, new):
        self._undo.append((owner, name, getattr(owner, name)))
        setattr(owner, name, new)

    def _replace_everywhere(self, orig, new):
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "linmono"
                                   or modname.startswith("linmono.")):
                continue
            for attr, val in list(vars(mod).items()):
                if val is orig:
                    self._set(mod, attr, new)

    def restore(self):
        while self._undo:
            owner, name, orig = self._undo.pop()
            setattr(owner, name, orig)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()
        return False


class Tracer(_Patches):
    """Records a span for every call of a SPANNED function."""

    def __init__(self):
        super().__init__()
        self.spans = []
        self.op = None
        self._stack = []

    def install(self, mods):
        for short, names in SPANNED.items():
            for fname in names:
                name = "%s.%s" % (short, fname)
                orig = getattr(mods[short], fname)
                self._replace_everywhere(
                    orig, self._wrap(name, orig, VALUES.get(name)))
        return self

    def _wrap(self, name, fn, value_of):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (name, t0, t1, parent, self.op, None)
            if value_of is not None:
                spans[idx] = spans[idx][:5] + (value_of(args, result),)
            return result

        return wrapper

    def root(self, op_id, fn, *args):
        """Run fn(*args) as op op_id under a root span."""
        self.op = op_id
        return self._wrap(ROOT, fn, None)(*args)


class CallCounter(_Patches):
    """Counts calls of COUNTED_FUNCTIONS and of ff.Field's arithmetic."""

    def __init__(self):
        super().__init__()
        self.counts = {}

    def install(self, mods):
        for short, names in COUNTED_FUNCTIONS.items():
            for fname in names:
                orig = getattr(mods[short], fname)
                self._replace_everywhere(
                    orig, self._wrap("%s.%s" % (short, fname), orig))
        field_cls = mods["ff"].Field
        for meth in COUNTED_FIELD_METHODS:
            self._set(field_cls, meth,
                      self._wrap("ff.Field.%s" % meth,
                                 getattr(field_cls, meth)))
        return self

    def _wrap(self, name, fn):
        counts = self.counts
        counts[name] = 0

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper


# -- aggregation -----------------------------------------------------------

def _covered(intervals, lo, hi):
    """Length of the union of intervals clipped to [lo, hi]."""
    total = 0.0
    end = lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


def layer_stats(spans):
    """Per span name: calls, total_s, self_s and the summed values.

    total_s counts a span only when no ancestor has the same name, so
    recursion is not counted twice.  self_s is a span's duration minus
    the part of it that its child spans cover."""
    children = {}
    for i, (_, t0, t1, parent, _, _) in enumerate(spans):
        if parent >= 0:
            children.setdefault(parent, []).append((t0, t1))
    stats = {}
    for i, (name, t0, t1, parent, _, value) in enumerate(spans):
        st = stats.setdefault(name, {"calls": 0, "total_s": 0.0,
                                     "self_s": 0.0, "values": None})
        st["calls"] += 1
        dur = t1 - t0
        st["self_s"] += dur - _covered(children.get(i, ()), t0, t1)
        a = parent
        while a >= 0 and spans[a][0] != name:
            a = spans[a][3]
        if a < 0:
            st["total_s"] += dur
        if value is not None:
            old = st["values"] or (0,) * len(value)
            st["values"] = tuple(x + y for x, y in zip(old, value))
    return stats


def calls_under(spans, name, ancestor):
    """How many spans called name have an ancestor called ancestor."""
    count = 0
    for span in spans:
        if span[0] != name:
            continue
        a = span[3]
        while a >= 0 and spans[a][0] != ancestor:
            a = spans[a][3]
        count += a >= 0
    return count
