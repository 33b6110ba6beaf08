"""Verdicts and checkable evidence for the Galois group of L(x) + tx.

For a monic q-linearized L of q-degree n over F_q, the Galois group of
(L(x) + tx)/x over F_q(t) acts on an n-dimensional F_q-space of roots,
so it sits between nothing and GL(n, q).  Tame total ramification above
t = infinity forces a (q^n - 1)-cycle, and for prime n that leaves two
possibilities: all of GL(n, q), or a subgroup of the normalizer N(C) of
a Singer cycle C (order n(q^n - 1)).

Everything this module reports is evidence a referee can recheck:

* CycleTypeSample: factor degrees of L_alpha(x)/x over F_{q^k} are the
  cycle type of a group element (Dedekind reduction at the place t = t_0
  with L_alpha = L - (L(alpha)/alpha) x).  Each sample is flagged by
  membership of its type in the census of GammaL(1, q^n), the Singer
  normalizer (in_normalizer_census).  Cycle types are conjugation
  invariants, so one sample flagged false rules the group out of every
  Singer normalizer: the one exclusion, for every family and every n.
  A sample fixes alpha, so only the census's d(n) fixed-point types
  (group.normalizer_fixed_point_types) can match it, at any q^n.
* DiscWitness: an alpha where the discriminant of L_alpha(x)/x is a
  nonsquare, i.e. the Frobenius element of that specialization is an odd
  permutation.  It also fixes a root (alpha itself), and with n an odd
  prime every fixed-point type of N(C) has only the lengths 1 and n
  (group.normalizer_fixed_point_types), all odd, so it is even --
  contradiction, hence the group is not inside N(C).  Its square class is
  (-1)^((q^n-1)/2) * c modulo squares, where c is the constant term of
  L_alpha(x)/x, namely -L(alpha)/alpha: linpoly.disc_square_class of
  L_alpha, the formula verify_disc_lemma checks exhaustively.
* NCycleGuarantee / Char2SumCondition / OrderLcm: the bookkeeping facts
  backing the decision tree.

recheck re-verifies an item from L and its payload alone.  It computes
the exact cycle type at each recorded alpha from the similarity-class
data of the n x n Frobenius matrix of L_alpha
(linpoly.frobenius_cycle_type): the irreducible factors f of its
characteristic polynomial, each ord(f) found from q^(deg f) - 1 down,
and the partition of each f-primary part, which group.class_cycle_type,
the routine of the GL census, turns into the type.  A claimed cycle
type must equal it, and an OrderLcm's lcm must equal the lcm of the
types it names.  Only that characteristic polynomial, of degree n, is
factored, never L_alpha(x)/x, so the sampler and the recheck reach each
recorded type by different algorithms.  Exact types are kept for the
current L in one functools cache (_exact_types), one per Frobenius
class: alpha's type depends only on k and the closed point
{t, t^q, ...} of the specialization's a_0 = t, so the items of one
document compute each class once and specialize each (k, alpha) once.
Every recorded field beside the claim (alpha and alpha_index, a
sample's census flag, a DiscWitness's constant term and class) must
equal its recomputed value, and a malformed payload rechecks False
instead of raising.

Verdicts: "GammaL" for the pure twist L = x^(q^n) (group GammaL(1, q^n)
of order n(q^n - 1)); "GL" when a theorem applies (q odd with n an odd
prime, or in characteristic 2 the coefficient-sum condition
a_1 + ... + a_{n-1} + 1 != 0 with L != x^(q^n)); "Inconclusive"
otherwise, with the sampled evidence attached.  The decision tree lives
in _decide alone; verdict samples once, flags the samples against the
normalizer census, runs the DiscWitness search for q odd GL, and
assembles the document in one place.  verdict's flags and recheck's
comparison read one primitive (_normalizer_flag), which builds no census
and has no cap.  Sampling and witness search draw their alphas
from one stream (_alphas) under the same budget and exhaustion rule, on
separate seeded streams.
Sampling factors a dense polynomial of degree q^n - 1; above the dense
cap a decided verdict carries a note and no samples, and an undecided
one raises.
"""

from __future__ import annotations

import functools
import math
import random
from collections import Counter, namedtuple
from itertools import product

from . import group as group_mod
from . import linpoly as lin_mod
from . import poly as poly_mod
from .ff import (CapExceededError, FieldElement, divisors, exceeds_cap,
                 extend_field, is_prime, log_tables)

# Fields no larger than this are sampled exhaustively.
EXHAUST_LIMIT = 2000

DISC_SEARCH_BUDGET = 2000

BASIS_MAIN = "MainTheorem"
BASIS_CHAR2 = "Char2Theorem"
BASIS_EVIDENCE = "EvidenceOnly"


class Evidence(namedtuple("Evidence", "kind payload note", defaults=("",))):
    __slots__ = ()

    def to_json(self):
        return {"kind": self.kind, "payload": self.payload, "note": self.note}


class Sample(namedtuple("Sample", ["k", "alpha_index",
                                   "alpha",  # serialized element form
                                   "cycle_type"])):
    __slots__ = ()

    def to_json(self):
        return {"k": self.k, "alpha_index": self.alpha_index,
                "alpha": self.alpha, "cycle_type": list(self.cycle_type)}

    def to_evidence(self, extra=None):
        payload = self.to_json()
        if extra:
            payload.update(extra)
        return Evidence("CycleTypeSample", payload,
                        "factor degrees of the specialization over "
                        "F_{q^%d} = cycle type of a group element" % self.k)


class SampleRun(namedtuple("SampleRun", "samples skipped")):
    __slots__ = ()


class Verdict(namedtuple("Verdict", [
        "family",  # "GL" | "GammaL" | "Inconclusive"
        "n", "q",
        "order",  # int or None
        "basis", "evidence", "notes", "skipped_alphas"],
        defaults=((), (), 0))):
    __slots__ = ()

    @property
    def group_name(self):
        if self.family == "GL":
            return "GL(%d,%d)" % (self.n, self.q)
        if self.family == "GammaL":
            return "GammaL(1,%d)" % (self.q ** self.n)
        return "Inconclusive"

    def to_json(self):
        return {
            "verdict": self.family,
            "group": self.group_name,
            "n": self.n,
            "q": self.q,
            "order": self.order,
            "basis": self.basis,
            "evidence": [e.to_json() for e in self.evidence],
            "notes": list(self.notes),
            "skipped_alphas": self.skipped_alphas,
        }


# -- normalization ---------------------------------------------------------

def normalize(L):
    """(Ln, shifted): Ln is L with a_0 set to 0, and shifted is True when
    a_0 was nonzero (Ln is then a new LinPoly; otherwise L itself).
    Replacing t by t - a_0 absorbs the x coefficient into the
    transcendental, so the Galois group of L(x) + tx only depends on
    a_1, ..., a_n."""
    if L.coeffs[0] == L.field.zero_rep:
        return L, False
    coeffs = (L.field.zero_rep,) + L.coeffs[1:]
    return lin_mod.LinPoly(L.base, coeffs, field=L.field), True


def _require_plain(L):
    if L.field != L.base:
        raise ValueError("engine expects coefficients in the base field F_q")
    if L.qdeg < 1:
        raise ValueError("q-degree must be >= 1")


def _is_pure_power(L):
    """True iff L normalizes to x^(q^n)."""
    z = L.field.zero_rep
    return all(c == z for c in L.coeffs[1:-1]) and L.coeffs[0] == z


# -- alpha selection -------------------------------------------------------

def _alpha_indices(Q, count, rng):
    """Deterministic candidate index stream for one field: ascending
    exhaustion for small fields, sorted seeded draws without replacement
    above.  Caller filters skips and stops when satisfied."""
    if Q <= EXHAUST_LIMIT or count >= Q - 1:
        return list(range(1, Q))
    picked = set()
    while len(picked) < count and len(picked) < Q - 1:
        picked.add(rng.randrange(1, Q))
    return sorted(picked)


def _allocate(ks, q, budget):
    """Per-k sample targets for ascending distinct ks: exhaustible fields
    first (clipped by what remains), then an even split of the remainder
    across the large fields, in ascending k.

    Which fields are large, and which lie above ff.CARDINALITY_CAP, is
    decided by ff.exceeds_cap before any power q^k is taken.  A field
    above the cap takes its whole share: it is refused when it is
    built.  While samples remain each large field gets at least one, so
    only the first `remaining` large fields can get any, and the split
    over them equals the split over all: a huge kmax costs no more than
    the ks that get samples."""
    plan = []
    remaining = budget
    for k in ks:  # the exhaustible fields are a prefix of ks
        if exceeds_cap(q, k, EXHAUST_LIMIT):
            break
        take = min(q ** k - 1, remaining)
        plan.append((k, take))
        remaining -= take
    large = ks[len(plan):len(plan) + remaining]
    for j, k in enumerate(large):
        share = -(-remaining // (len(large) - j))  # ceil
        take = share if exceeds_cap(q, k) else min(q ** k - 1, share)
        plan.append((k, take))
        remaining -= take
    return plan


@functools.lru_cache(maxsize=1)
def _fields_at(base, seed):
    """The extensions of base built so far for this seed, by degree;
    _field_at fills it.  Only the last (base, seed) is kept, like
    group._points and _exact_types: one document samples and rechecks
    over one base and seed, and every other seed would add its fields
    for the life of the module."""
    return {}


def _field_at(base, k, seed):
    """extend_field(base, k, seed), built once per k for the last
    (base, seed)."""
    fields = _fields_at(base, seed)
    if k not in fields:
        fields[k] = extend_field(base, k, seed)
    return fields[k]


def _alphas(Ln, k_range, budget, seed, salt):
    """The alpha stream shared by sampling and witness search: yields
    (k, alpha index, alpha, L_alpha) in ascending (k, index) order, with
    L_alpha = linpoly.specialize(Ln, alpha), so L is evaluated once per
    alpha.  Ln has a_0 = 0 (normalize), so L_alpha's a_0 is
    -L(alpha)/alpha, zero exactly when alpha is a root of L.

    Per-k targets come from _allocate; a k stops once it has yielded its
    target of alphas with L(alpha) != 0.  Those with L(alpha) = 0 are
    yielded too, for the caller to count as skipped.  The seeded draws
    come from the "linmono.<salt>:<seed>" stream.  A negative budget is
    refused (ValueError)."""
    if budget < 0:
        raise ValueError("budget must be >= 0, got %d" % budget)
    if isinstance(k_range, range) and k_range.step > 0:
        ks = k_range  # already ascending and distinct: not materialized
    else:
        ks = sorted(set(int(k) for k in k_range))
    if not ks:
        raise ValueError("need at least one extension degree")
    if ks[0] < 1:
        raise ValueError("extension degrees must be >= 1")
    rng = random.Random("linmono.%s:%d" % (salt, seed))
    for k, want in _allocate(ks, Ln.q, budget):
        if want <= 0:
            continue
        E = _field_at(Ln.base, k, seed)
        got = 0
        for idx in _alpha_indices(E.order, want, rng):
            if got >= want:
                break
            alpha = E.element_at(idx)
            spec = lin_mod.specialize(Ln, alpha)
            if spec.coeffs[0] != E.zero_rep:
                got += 1
            yield k, idx, alpha, spec


def sample_cycle_types(L, k_range, budget=500, seed=0):
    """Cycle types of Frobenius elements, by factoring specializations.

    For each k in k_range and each chosen nonzero alpha in F_{q^k} with
    L(alpha) != 0, the factor degrees (distinct-degree only) of
    L_alpha(x)/x over F_{q^k} form one sampled cycle type.  alpha with
    L(alpha) = 0 are counted in skipped, not sampled.  budget is the
    total number of samples collected; fields with q^k <= 2000 are
    exhausted in ascending index order, larger ones get seeded uniform
    draws.  Results are ordered by (k, alpha index).
    """
    _require_plain(L)
    Ln, _ = normalize(L)
    samples = []
    skipped = 0
    for k, idx, alpha, spec in _alphas(Ln, k_range, budget, seed, "sample"):
        if spec.coeffs[0] == spec.field.zero_rep:  # alpha is a root of L
            skipped += 1
            continue
        ct = poly_mod.factor_degrees(lin_mod.reduced(spec))
        samples.append(Sample(k=k, alpha_index=idx, alpha=alpha.to_obj(),
                              cycle_type=ct))
    return SampleRun(samples=tuple(samples), skipped=skipped)


# -- evidence builders -----------------------------------------------------

def order_lcm_evidence(samples):
    """lcm of all sampled cycle types: a divisor of the group order, by
    Lagrange on the sampled elements."""
    if not samples:
        raise ValueError("need at least one sample")
    out = 1
    for s in samples:
        for d in s.cycle_type:
            out = math.lcm(out, d)
    return out


def disc_nonsquare_witness(L, k_range, budget=DISC_SEARCH_BUDGET, seed=0):
    """Search for alpha making the discriminant of L_alpha(x)/x a
    nonsquare in F_{q^k}.  Cheap per alpha: the specialization L_alpha
    and one Euler criterion on its constant term, by
    linpoly.disc_square_class, the formula verify disc checks.  Returns
    Evidence or None; same budget semantics and k_range checks as
    sample_cycle_types; odd characteristic only."""
    _require_plain(L)
    if L.base.p == 2:
        raise ValueError("discriminant witnesses need odd characteristic")
    Ln, _ = normalize(L)
    for k, idx, alpha, spec in _alphas(Ln, k_range, budget, seed, "disc"):
        if spec.coeffs[0] == spec.field.zero_rep:  # alpha is a root of L
            continue
        cls = lin_mod.disc_square_class(spec)
        if cls is lin_mod.SquareClass.NONSQUARE:
            payload = {"k": k, "alpha_index": idx,
                       "alpha": alpha.to_obj(),
                       "constant_term": spec.coefficient(0).to_obj(),
                       "square_class": cls.value}
            return Evidence(
                "DiscWitness", payload,
                "discriminant of the specialization is a nonsquare "
                "in F_{q^%d}, so its Frobenius element is an odd "
                "permutation that fixes a root; inside the Singer "
                "normalizer a fixed-point element has only odd "
                "cycle lengths and would be even -- so the group "
                "is not inside the normalizer" % k)
    return None


def _ncycle_evidence(q, n, p):
    N = q ** n - 1
    g = math.gcd(N, p)
    return Evidence(
        "NCycleGuarantee",
        {"cycle_length": N, "gcd_with_characteristic": g},
        "t = infinity is tamely and totally ramified in the splitting "
        "field (gcd(q^n - 1, p) = %d), so the group contains a "
        "(q^n - 1)-cycle and q^n - 1 divides its order" % g)


def _char2_sum(Ln):
    """a_1 + ... + a_(n-1) + a_n over F_q (a_n = 1 for monic L)."""
    K = Ln.field
    acc = K.zero_rep
    for c in Ln.coeffs[1:]:
        acc = K.add(acc, c)
    return FieldElement(K, acc)


# -- the verdict -----------------------------------------------------------

def _decide(Ln, n, q, p):
    """The decision tree, before any sampling: (family, basis, order,
    lead evidence, rule notes).  The pure twist gives GammaL(1, q^n); n
    an odd prime gives GL(n, q), by the main theorem for q odd and by the
    coefficient-sum condition for q even; everything else is
    Inconclusive."""
    if _is_pure_power(Ln):
        return ("GammaL", BASIS_MAIN, n * (q ** n - 1), [], [
            "the splitting field of x^(q^n - 1) + t is "
            "F_{q^n}(t^(1/(q^n-1)))",
            "geometric monodromy: cyclic of order q^n - 1 (reported, not "
            "computed)"])
    gl_note = "geometric monodromy: GL(%d,%d) (reported, not computed)" \
        % (n, q)
    cycle_note = ("q^n - 1 = %d divides the group order and a "
                  "(q^n - 1)-cycle is present" % (q ** n - 1))
    if n % 2 == 0 or not is_prime(n):
        return ("Inconclusive", BASIS_EVIDENCE, None, [], [
            "no applicable theorem for q = %d, n = %d (need n an odd "
            "prime for the decided cases)" % (q, n), cycle_note])
    if p != 2:
        return "GL", BASIS_MAIN, group_mod.gl_order(n, q), [], [gl_note]
    s = _char2_sum(Ln)
    cond = Evidence(
        "Char2SumCondition",
        {"coefficient_sum": s.to_obj(), "nonzero": not s.is_zero},
        "a_1 + ... + a_(n-1) + 1 %s 0 in F_%d"
        % ("!=" if not s.is_zero else "=", q))
    if s.is_zero:
        return ("Inconclusive", BASIS_EVIDENCE, None, [cond], [
            "coefficient sum vanishes: the characteristic-2 criterion "
            "does not apply", cycle_note])
    return ("GL", BASIS_CHAR2, group_mod.gl_order(n, q), [cond], [
        "nonzero coefficient sum: some specialization over F_q has an "
        "irreducible factor of degree not dividing n, which rules the "
        "group out of the Singer normalizer", gl_note])


def _normalizer_flag(ct, n, q):
    """Whether ct, a type with a 1-cycle, is in the GammaL(1, q^n) census."""
    return (tuple(sorted(Counter(ct).items()))
            in group_mod.normalizer_fixed_point_types(n, q))


def _normalizer_census_flags(Ln, n, samples):
    """The census step: (per-sample membership in the Singer-normalizer
    census, note), read by _normalizer_flag, as recheck reads it."""
    order = n * (Ln.q ** n - 1)
    flags = [_normalizer_flag(s.cycle_type, n, Ln.q) for s in samples]
    if all(flags):
        return flags, ("all %d sampled cycle types occur in the order-%d "
                       "Singer-normalizer census" % (len(samples), order))
    return flags, ("%d of %d sampled cycle types are missing from the "
                   "order-%d Singer-normalizer census, so the group lies "
                   "in no Singer normalizer"
                   % (flags.count(False), len(samples), order))


def checked_kmax(L, n=None, kmax=None):
    """kmax, or its default L's q-degree + 3, after checking a caller's
    q-degree n (None: no check) against L's."""
    if n is not None and n != L.qdeg:
        raise ValueError("q-degree mismatch: polynomial has %d, caller "
                         "said %d" % (L.qdeg, n))
    return L.qdeg + 3 if kmax is None else kmax


def verdict(L, n=None, kmax=None, budget=12, seed=0):
    """Decide the Galois group of (L(x) + tx)/x over F_q(t) when a
    theorem applies, otherwise return Inconclusive with evidence.

    L must be monic with coefficients in its base F_q.  Decision tree
    (_decide): the pure twist x^(q^n) gives GammaL(1, q^n); q odd with
    n an odd prime gives GL(n, q) with a concrete witness attached when
    the search finds one inside kmax; q even with n an odd prime decides
    by the coefficient-sum condition; everything else is Inconclusive.
    Whatever the family, every sample is flagged by membership in the
    Singer-normalizer census.
    """
    _require_plain(L)
    if not L.is_monic:
        raise ValueError("verdict needs a monic polynomial")
    nv = L.qdeg
    qv = L.q
    kmax = checked_kmax(L, n, kmax)
    ks = range(1, kmax + 1)
    p = L.base.p
    Ln, shifted = normalize(L)
    family, basis, order, lead, rule_notes = _decide(Ln, nv, qv, p)
    notes = []
    if shifted:
        notes.append("a_0 absorbed into the transcendental "
                     "(t -> t - a_0); group unchanged")

    try:
        run = sample_cycle_types(Ln, ks, budget=budget, seed=seed)
    except CapExceededError as exc:
        if family == "Inconclusive":
            raise
        run = SampleRun(samples=(), skipped=0)
        notes.append("no cycle-type samples (%s); the verdict rests on "
                     "the theorem" % exc)
    notes.extend(rule_notes)

    extras = [None] * len(run.samples)
    flags = None
    if run.samples:
        flags, note = _normalizer_census_flags(Ln, nv, run.samples)
        notes.append(note)
        extras = [{"in_normalizer_census": ok} for ok in flags]
    if family == "GL" and p != 2:
        witness = disc_nonsquare_witness(Ln, ks, seed=seed)
        if witness is not None:
            lead.append(witness)
        elif flags is None or all(flags):
            notes.append(
                "witness search exhausted its budget (kmax = %d); the "
                "verdict stands on the theorem, but no specialization "
                "witness is attached -- raise kmax to find one" % kmax)

    evidence = lead + [_ncycle_evidence(qv, nv, p)]
    if run.samples:
        evidence.append(Evidence(
            "OrderLcm",
            {"lcm": order_lcm_evidence(run.samples),
             "sample_refs": [[s.k, s.alpha_index] for s in run.samples]},
            "lcm of sampled cycle types divides the group order"))
    evidence.extend(s.to_evidence(extra)
                    for s, extra in zip(run.samples, extras))
    return Verdict(family, nv, qv, order, basis, evidence=evidence,
                   notes=notes, skipped_alphas=run.skipped)


# -- witness rechecking ----------------------------------------------------

@functools.lru_cache(maxsize=1)
def _exact_types(field, coeffs):
    """The exact cycle types recheck has found for the L with these
    coefficients; _recheck_cycle_type fills it.  An entry
    (E, "alpha", alpha's rep) holds alpha's type (None for a root of L),
    and (E, "t", t's rep) the type of L' + t x over E, L' being L
    without its x term, stored under each conjugate of t.  The field E
    names the F_{q^k} modulus, so two seeds that build different
    extensions never share an entry.  Only the last L is kept, like
    group._points."""
    return {}


def _closed_point(field, t, q):
    """The conjugates t, t^q, t^(q^2), ... of the rep t over F_q, up to
    the first repeat: the closed point of the t-line over F_q at t."""
    orbit = [t]
    while (s := field.pow(orbit[-1], q)) != t:
        orbit.append(s)
    return orbit


def _recheck_cycle_type(Ln, alpha):
    """Cycle type of the Frobenius at alpha, read off the class data of
    the n x n Frobenius matrix of L_alpha (linpoly.frobenius_cycle_type)
    rather than by the sampler's dense factoring; None when L(alpha) = 0.

    L_alpha = L' + t x, where L' is L without its x term and
    t = -L'(alpha)/alpha, so the type depends only on alpha's field E
    and the closed point of t: L' has coefficients in F_q, and
    c -> c^q, an automorphism of E that fixes them, maps L' + t x to
    L' + t^q x and keeps the factor degrees over E.  One type is
    computed per closed point and kept under every conjugate of t
    (_closed_point), and each alpha is specialized once, for the
    current L."""
    types = _exact_types(Ln.field, Ln.coeffs)
    E = alpha.field
    at = (E, "alpha", alpha.rep)
    if at not in types:
        spec = lin_mod.specialize(Ln, alpha)
        t = spec.coefficient(0)  # -L'(alpha)/alpha
        if t.is_zero:  # alpha is a root of L
            types[at] = None
        else:
            point = (E, "t", t.rep)
            if point not in types:
                ct = lin_mod.frobenius_cycle_type(spec)
                for c in _closed_point(E, t.rep, Ln.q):
                    types[E, "t", c] = ct
            types[at] = types[point]
    return types[at]


def _same(claimed, value):
    """claimed == value with the types matching all the way down, so a
    claimed True or 2.0 never stands for a recomputed 1 or 2."""
    if isinstance(value, list):
        return (type(claimed) is list and len(claimed) == len(value)
                and all(map(_same, claimed, value)))
    return type(claimed) is type(value) and claimed == value


def _alpha_at(Ln, k, idx, seed):
    """Element idx of F_{q^k}, or None unless k is an int >= 1 with
    q^k <= ff.CARDINALITY_CAP (ff.exceeds_cap, which refuses a huge k
    before q^k is taken) and idx an int in 1 .. q^k - 1."""
    if type(k) is not int or k < 1 or exceeds_cap(Ln.q, k):
        return None
    E = _field_at(Ln.base, k, seed)
    if type(idx) is not int or not 0 < idx < E.order:
        return None
    return E.element_at(idx)


def _recorded_alpha(Ln, pl, seed):
    """The item's alpha, element alpha_index of F_{q^k}, or None when
    either is invalid or the recorded alpha is not that element's
    serialized form."""
    alpha = _alpha_at(Ln, pl.get("k"), pl.get("alpha_index"), seed)
    if alpha is None or not _same(pl.get("alpha"), alpha.to_obj()):
        return None
    return alpha


def recheck(L, evidence, seed=0):
    """Independently re-verify one Evidence from (L, payload) alone.

    Rebuilds the extension from (k, seed), reconstructs alpha, and checks
    the claimed fact.  The exact cycle type of the Frobenius at alpha is
    read off its similarity-class data (_recheck_cycle_type), a
    different algorithm from the factoring that produced the types, and
    a claimed type must equal it; an OrderLcm's lcm must equal the lcm
    of the exact types of its references.  Exact types are kept while L
    stays the same, one per Frobenius class (k, closed point of t), so
    rechecking a document's items one by one computes each class once;
    a second alpha of a class reads its type, and its claim is compared
    with it like any other.  Every recorded field is verified: an item
    is also refused when its alpha or alpha_index is not the element it
    names, when a CycleTypeSample's in_normalizer_census differs from
    the membership of its type in the normalizer census (read off the
    census's fixed-point types, _normalizer_flag), when a DiscWitness's
    constant_term or square_class differs from the recomputed one, and
    when a NCycleGuarantee's or Char2SumCondition's fields differ from
    theirs.  A malformed payload (a missing field, a value of the wrong
    type, a k or index out of range) rechecks False; only an unknown
    kind raises (ValueError).  Returns True/False.
    """
    _require_plain(L)
    Ln, _ = normalize(L)
    kind = evidence.kind
    pl = evidence.payload if isinstance(evidence.payload, dict) else {}
    if kind == "CycleTypeSample":
        alpha = _recorded_alpha(Ln, pl, seed)
        if alpha is None:
            return False
        ct = _recheck_cycle_type(Ln, alpha)
        if ct is None or not _same(pl.get("cycle_type"), list(ct)):
            return False
        if "in_normalizer_census" in pl:
            return _same(pl["in_normalizer_census"],
                         _normalizer_flag(ct, Ln.qdeg, Ln.q))
        return True
    if kind == "DiscWitness":
        alpha = _recorded_alpha(Ln, pl, seed)
        if alpha is None:
            return False
        spec = lin_mod.specialize(Ln, alpha)
        c = spec.coefficient(0)  # -L(alpha)/alpha
        if c.is_zero:  # alpha is a root of L
            return False
        cls = lin_mod.disc_square_class(spec)
        return (cls is lin_mod.SquareClass.NONSQUARE
                and _same(pl.get("square_class"), cls.value)
                and _same(pl.get("constant_term"), c.to_obj()))
    if kind == "OrderLcm":
        refs = pl.get("sample_refs")
        if type(refs) is not list:
            return False
        lcm = 1
        for ref in refs:
            if type(ref) is not list or len(ref) != 2:
                return False
            alpha = _alpha_at(Ln, ref[0], ref[1], seed)
            ct = None if alpha is None else _recheck_cycle_type(Ln, alpha)
            if ct is None:
                return False
            lcm = math.lcm(lcm, *ct)
        return _same(pl.get("lcm"), lcm)
    if kind == "NCycleGuarantee":
        N = Ln.q ** Ln.qdeg - 1
        g = math.gcd(N, Ln.base.p)
        return (g == 1 and _same(pl.get("cycle_length"), N)
                and _same(pl.get("gcd_with_characteristic"), g))
    if kind == "Char2SumCondition":
        s = _char2_sum(Ln)
        return (_same(pl.get("coefficient_sum"), s.to_obj())
                and _same(pl.get("nonzero"), not s.is_zero))
    raise ValueError("cannot recheck evidence of kind %r" % kind)


# -- verification layer ----------------------------------------------------

def verify_normalizer(n, field, seed=0):
    """Check the Singer-normalizer structure head on: |<S, F>| equals
    n(q^n - 1), F S F^(-1) = S^q, and every nonzero vector's stabilizer
    has order exactly n.

    S and F become permutations of the nonzero vectors once
    (group.permutation_of), and both steps read them.

    The order: G = <S, F> is walked on keys (group.closure), each
    element keyed by the positions of its images of e_0, ..., e_(n-1).
    G acts faithfully on the nonzero vectors and a matrix is fixed by
    its images of the basis, so keys are in bijection with elements and
    |G| is the number of keys walked.

    The stabilizers: G is finite, so every inverse is a positive power
    and every element a word in S and F.  The orbit of v is therefore
    the component of v in the graph with edges i -> pS[i] and
    i -> pF[i], found in one pass over the q^n - 1 positions.  By the
    orbit-stabilizer theorem v's stabilizer has order |G| / |orbit of
    v|.  Violations are listed in rank order.

    q^n above 2^12 is refused (CapExceededError) before S and F are
    built.  The walk holds n(q^n - 1) keys of n positions: at q = 2,
    n = 12 the whole process takes about 0.25 s and peaks at 27 MiB on
    a 2-core machine."""
    q = field.order
    group_mod.check_vectors(q, n)
    if exceeds_cap(q, n, 1 << 12):
        raise CapExceededError("normalizer closure refused above q^n = %d "
                               "vectors" % (1 << 12))
    S = group_mod.singer_generator(n, field, seed)
    F = group_mod.frobenius_matrix(n, field, seed)
    perms = [group_mod.permutation_of(field, S),
             group_mod.permutation_of(field, F)]
    M = q ** n - 1
    expected = n * M
    order = sum(1 for _ in group_mod._walk(
        perms, group_mod._basis_positions(q, n), expected + 8))
    orbit_of = [None] * M
    for start in range(M):
        if orbit_of[start] is None:
            orbit = [start]
            orbit_of[start] = orbit
            for i in orbit:  # grows while it is walked
                for perm in perms:
                    j = perm[i]
                    if orbit_of[j] is None:
                        orbit_of[j] = orbit
                        orbit.append(j)
    order_ok = order == expected
    conj_ok = group_mod.conjugation_ok(field, S, F)
    vecs, _ = group_mod._points(field, n)
    stab_bad = [{"vector": [field.rep_to_obj(c) for c in v], "order": so}
                for v, orbit in zip(vecs, orbit_of)
                if (so := order // len(orbit)) != n]
    passed = order_ok and conj_ok and not stab_bad
    return {
        "check": "normalizer",
        "n": n, "q": q,
        "order": order, "expected_order": expected,
        "order_ok": order_ok,
        "conjugation_ok": conj_ok,
        "stabilizer_violations": stab_bad,
        "passed": passed,
    }


def verify_gmg(field):
    """Image-in-squares classification over F_q, q = p^m odd: among all
    nonzero p-linearized maps sum c_i x^(p^i) (i < m), exactly the maps
    a x^(p^d) with a a nonzero square have image of x -> L(x)/x inside
    the squares (with 0 allowed).  Refused above 20000 maps.

    The search (_gmg_passing) sums one coefficient tail per orbit of the
    nonzero squares acting by scaling, since a L passes exactly when L
    does for a nonzero square a, and reads the rest of each orbit off
    its representative."""
    p = field.p
    if p == 2:
        raise ValueError("squares classification needs odd characteristic")
    q = field.order
    m = math.prod(layer.degree for layer in field.layers())
    total = q ** m - 1
    if total > 20000:
        raise CapExceededError("%d maps exceed the cap 20000" % total)
    squares = {field.mul(x, x) for x in map(field.rep_at, range(1, q))}
    passing = _gmg_passing(field, m, squares)
    expected = set()
    for d in range(m):
        for a in squares:
            cs = [field.zero_rep] * m
            cs[d] = a
            expected.add(tuple(cs))
    missing = sorted(expected - passing)
    extra = sorted(passing - expected)
    return {
        "check": "gmg",
        "q": q, "p": p, "m": m,
        "maps_tested": total,
        "observed_passing": len(passing),
        "expected_passing": len(expected),
        "missing": [[field.rep_to_obj(c) for c in t] for t in missing],
        "extra": [[field.rep_to_obj(c) for c in t] for t in extra],
        "passed": not missing and not extra,
    }


def _gmg_passing(field, m, squares):
    """Coefficient tuples (c_0, ..., c_(m-1)) of the nonzero maps L whose
    L(x)/x is zero or in squares at every nonzero x.

    L(x)/x = c_0 + s(x) with s(x) = sum_(i>=1) c_i x^(p^i - 1), which
    depends only on the tail (c_1, ..., c_(m-1)).  So the c_0 that pass at
    x are squares-or-zero minus s(x), and a tail's passing c_0 are the
    intersection of these translated sets over all nonzero x.  That is
    at most q^(m-1) (q - 1) tail sums, one pass over the points per tail;
    a map-by-map search makes up to (q^m - 1) (q - 1) sums.

    Only one tail per orbit is summed.  Let H be the stabilizer of the
    target set squares (any set of nonzero elements): the a in F_q^*
    with a * squares = squares.  For a in H, (a L)(x)/x = a (L(x)/x) is
    in squares or zero exactly when L(x)/x is, since multiplying by a
    (or by 1/a, also in H) maps squares onto itself and 0 to 0.  So
    (c_0, T) passes exactly when (a c_0, a T) does, and the passing c_0
    of the tail a T are a times those of T.  H is read off the target's
    logs, as the shifts j with t + j in the target for every t; it is
    generated by g^h for the least such h.  The walk sums the tails of
    _orbit_tails, one per orbit, and copies each passing one to the
    rest of its orbit.  For the squares H is the squares and a nonzero
    tail's orbit holds (q - 1)/2 tails; a target with H = {1} walks
    every tail.

    Tail sums work on ff.log_tables indices: the term c_i x^(p^i - 1) has
    log log c_i + (p^i - 1) log x mod q - 1, and terms are added by Zech
    addition.  Each translated set, a bitmask over enumeration indices,
    is built once per value of s that occurs, by Zech addition of
    g^(log s + (q - 1)/2) = -s.  A tail stops at the first point where
    its intersection is empty.  The zero map (c_0 = 0 with a zero tail)
    is left out.  With warm tables and the squares as target this takes
    0.3-0.5 ms at q = 27, 0.2-0.4 ms at q = 49 and 0.5-0.9 ms at
    q = 121, against 1.8-3.5, 0.5-1.0 and 2.5-4.9 ms summing every tail
    and 61-63, 8 and 56-57 ms map by map (best of 7, 2-core Xeon VM,
    CPython 3.11)."""
    exp, log, zech = log_tables(field)
    q = field.order
    n = q - 1
    half = n // 2  # log(-1)
    p = field.p
    target = [k for k in range(n) if field.rep_at(exp[k]) in squares]
    on_target = set(target)
    # H is a subgroup of the cyclic F_q^*, so its least shift h divides
    # q - 1
    h = next(h for h in divisors(n)
             if all((t + h) % n in on_target for t in target))
    translated = {None: 1 | sum(1 << exp[t] for t in target)}  # s = 0
    offsets = [tuple((p ** i - 1) * lx % n for i in range(1, m))
               for lx in range(n)]
    zero = field.zero_rep
    passing = set()
    for terms in _orbit_tails(log, q, m - 1, h):
        allowed = (1 << q) - 1
        for offs in offsets:
            acc = None  # log of s(x), None for zero
            for i, lc in terms:
                t = (lc + offs[i]) % n
                if acc is None:
                    acc = t
                else:
                    z = zech[(t - acc) % n]
                    acc = None if z is None else (acc + z) % n
            shifted = translated.get(acc)
            if shifted is None:
                s = acc + half
                shifted = 1 << exp[s % n]  # 0 - s
                for t in target:  # g^t - s, index 0 where g^t = s
                    z = zech[(s - t) % n]
                    shifted |= 1 if z is None else 1 << exp[(t + z) % n]
                translated[acc] = shifted
            allowed &= shifted
            if not allowed:
                break
        else:
            if not terms:
                allowed &= ~1
            c0s = [log[c] for c in range(q) if allowed >> c & 1]
            # the zero tail is its own orbit
            for j in range(0, n, h) if terms else (0,):
                tail = [zero] * (m - 1)
                for i, lc in terms:
                    tail[i] = field.rep_at(exp[(lc + j) % n])
                tail = tuple(tail)
                passing.update(
                    (field.rep_at(0 if lc is None else exp[(lc + j) % n]),)
                    + tail for lc in c0s)
    return passing


def _orbit_tails(log, q, width, h):
    """One coefficient tail (c_1, ..., c_width) per orbit of the scalars
    g^(jh) (h dividing q - 1) acting on F_q^width, as the pairs
    (i, log c_(i+1)) of its nonzero entries: the zero tail, and each
    tail whose first nonzero entry has log below h.  Scaling by g^(jh)
    adds jh to every log, and exactly one of the (q - 1)/h shifts of a
    log lies below h, so each nonzero tail's orbit has (q - 1)/h members
    and exactly one of them is listed."""
    yield []
    for i in range(width):
        for rest in product(range(q), repeat=width - 1 - i):
            terms = [(i + 1 + k, log[d]) for k, d in enumerate(rest) if d]
            for first in range(h):
                yield [(i, first)] + terms


def _monic_lins(field, n, a0_reps):
    """Every monic q-linearized L of q-degree n over F_q whose a_0 is one
    of a0_reps: a_0 in the given order, and for each a_0 the middle
    coefficients a_1, ..., a_(n-1) as the base-q digits of a counter,
    least significant first."""
    q = field.order
    for a0 in a0_reps:
        for rest in range(q ** (n - 1)):
            coeffs = [a0]
            for _ in range(n - 1):
                coeffs.append(field.rep_at(rest % q))
                rest //= q
            coeffs.append(field.one_rep)
            yield lin_mod.LinPoly(field, coeffs)


def verify_disc_lemma(field, n):
    """Exhaustively compare, over all monic q-linearized L of q-degree n
    over F_q with a_0 != 0, the resultant-based discriminant of L(x)/x
    against the closed form (-1)^((q^n-1)/2) a_0 modulo squares."""
    if n < 1:
        raise ValueError("n must be >= 1, got %d" % n)
    if field.p == 2:
        raise ValueError("discriminant classes need odd characteristic")
    q = field.order
    lin_mod.check_dense(q, n)
    count = 0
    mismatches = []
    for L in _monic_lins(field, n, map(field.rep_at, range(1, q))):
        G = lin_mod.reduced(L)
        D = poly_mod.discriminant(G)
        direct = lin_mod.square_class(D)
        formula = lin_mod.disc_square_class(L)
        count += 1
        if direct is not formula:
            mismatches.append({
                "lin": L.coeff_objs(),
                "resultant_class": direct.value,
                "formula_class": formula.value,
            })
    return {
        "check": "disc",
        "q": q, "n": n,
        "count": count,
        "mismatches": mismatches,
        "passed": not mismatches,
    }


def verify_factor_identity(field, n):
    """Two facts behind the characteristic-2 criterion, checked over F_q:
    x^(q^n) - x factors into exactly the monic irreducibles of degree
    dividing n with necklace-formula counts, read off its squarefree
    distinct-degree split (poly._ddf); and whenever a specialized
    L_alpha (a_0 = 0, alpha in F_q^*, L(alpha) != 0) has all factor
    degrees dividing n, it literally equals x^(q^n) - x.  L_alpha(x) is x
    times L_alpha(x)/x, whose degrees are linpoly.frobenius_cycle_type,
    and it is compared with x^(q^n) - x on its n + 1 coefficients.  Every
    alpha of one L gives the same L_alpha, since L(alpha)/alpha =
    a_1+...+a_n, so L is specialized once, at alpha = 1, and the result
    stands for each of the q - 1 alphas in turn."""
    if n < 1:
        raise ValueError("n must be >= 1, got %d" % n)
    q = field.order
    lin_mod.check_dense(q, n)
    X = lin_mod.LinPoly(field, [-1] + [0] * (n - 1) + [1])  # x^(q^n) - x
    f = lin_mod.to_poly(X)
    observed = {d: h.degree // d for h, d in poly_mod._ddf(f)}
    expected = {d: poly_mod.num_irreducible(q, d)
                for d in range(1, n + 1) if n % d == 0}
    necklace_ok = poly_mod.is_squarefree(f) and observed == expected
    # the forcing step
    checked = 0
    skipped_L = 0
    violations = []
    forced = []
    for L in _monic_lins(field, n, [field.zero_rep]):
        spec = lin_mod.specialize(L, field.one())
        if spec.coeffs[0] == field.zero_rep:  # every alpha is a root of L
            skipped_L += 1
            continue
        checked += q - 1
        degs = (1,) + lin_mod.frobenius_cycle_type(spec)
        if not all(n % d == 0 for d in degs):
            continue
        if spec.coeffs == X.coeffs:
            forced += [{"lin": L.coeff_objs(), "alpha_index": ai}
                       for ai in range(1, q)]
        else:
            violations += [{"lin": L.coeff_objs(), "alpha_index": ai,
                            "degrees": list(degs)} for ai in range(1, q)]
    return {
        "check": "identity",
        "q": q, "n": n,
        "necklace_ok": necklace_ok,
        "expected_counts": {str(d): c for d, c in sorted(expected.items())},
        "observed_counts": {str(d): c for d, c in sorted(observed.items())},
        "forcing_checked": checked,
        "forcing_skipped_lin": skipped_L,
        "forcing_all_dividing": forced,
        "forcing_violations": violations,
        "passed": necklace_ok and not violations,
    }


def verify_alternating_char2(field, n):
    """In characteristic 2 the group lands in the alternating group on
    the q^n - 1 nonzero vectors, except for q = n = 2.  Checked by full
    census: every cycle type must have even sign, and for (2, 2) an odd
    type must show up."""
    if field.p != 2:
        raise ValueError("alternating containment argument needs q even")
    q = field.order
    cen = group_mod.gl_census(n, field)
    odd_types = [t for t, _ in cen.counts if group_mod.perm_sign(t) < 0]
    excluded = (q == 2 and n == 2)
    all_even = not odd_types
    return {
        "check": "alt2",
        "q": q, "n": n,
        "group_order": cen.order,
        "excluded_case": excluded,
        "all_even": all_even,
        "odd_types": [list(t) for t in odd_types],
        "passed": all_even != excluded,
    }
