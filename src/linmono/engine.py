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
  with L_alpha = L - (L(alpha)/alpha) x).
* FixedPointOddness: a sampled element with a fixed point whose cycle
  structure cannot occur in N(C), where nonidentity stabilizers have
  order dividing n (prime), forcing every fixed-point type to consist of
  odd lengths with lcm dividing n.
* DiscWitness: an alpha where the discriminant of L_alpha(x)/x is a
  nonsquare, i.e. the Frobenius element of that specialization is an odd
  permutation.  It also fixes a root (alpha itself), and any fixed-point
  element of N(C) lies in an order-n stabilizer with n an odd prime, so
  its cycle lengths are all odd and it is even -- contradiction, hence
  the group is not inside N(C).  The discriminant class is
  (-1)^((q^n-1)/2) * c modulo squares, where c is the constant term of
  L_alpha(x)/x, namely -L(alpha)/alpha: linpoly.disc_square_class of
  L_alpha, the formula verify_disc_lemma checks exhaustively.
* NCycleGuarantee / Char2SumCondition / OrderLcm: the bookkeeping facts
  backing the decision tree.

recheck re-verifies an item from L and its payload alone.  It checks a
claimed cycle type (or an OrderLcm's lcm) against the similarity-class
data of the n x n Frobenius matrix of L_alpha
(linpoly.frobenius_cycle_type): the irreducible factors f of its minimal
polynomial, each ord(f) found from the claimed lcm down, and the
partition of each f-primary part.  group.class_cycle_type, the routine
of the GL census, turns them into the exact type, which must match, with
every length dividing the claimed lcm.  Only that minimal polynomial,
of degree <= n, is factored, never L_alpha(x)/x, so the sampler and the
recheck reach each recorded type by different algorithms.  Exact types
are kept for the current L, so the items of one document compute each
(k, alpha) once.  The recorded fields beside the claim (alpha_index, a
DiscWitness's constant term and class, a FixedPointOddness's even
lengths and lcm) must equal their recomputed values.

Verdicts: "GammaL" for the pure twist L = x^(q^n) (group GammaL(1, q^n)
of order n(q^n - 1)); "GL" when a theorem applies (q odd with n an odd
prime, or in characteristic 2 the coefficient-sum condition
a_1 + ... + a_{n-1} + 1 != 0 with L != x^(q^n)); "Inconclusive"
otherwise, with the sampled evidence attached.  The decision tree lives
in _decide alone; verdict samples, runs the rule's own step (normalizer
census or witness search) and assembles the document in one place.
Sampling and witness search draw their alphas from one stream (_alphas)
under the same budget and exhaustion rule, on separate seeded streams.
Sampling factors a dense polynomial of degree q^n - 1; above the dense
cap a decided verdict carries a note and no samples, and an undecided
one raises.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field as dc_field

from . import group as group_mod
from . import linpoly as lin_mod
from . import poly as poly_mod
from .ff import (CapExceededError, FieldElement, extend_field, is_prime,
                 log_tables)

# Fields no larger than this are sampled exhaustively.
EXHAUST_LIMIT = 2000

# Normalizer censuses above this order are skipped in verdicts (a note is
# attached instead); they remain available through the census interface.
NORMALIZER_CENSUS_CAP = 1000

DISC_SEARCH_BUDGET = 2000

BASIS_MAIN = "MainTheorem"
BASIS_CHAR2 = "Char2Theorem"
BASIS_EVIDENCE = "EvidenceOnly"


@dataclass(frozen=True)
class Evidence:
    kind: str
    payload: dict
    note: str = ""

    def to_json(self):
        return {"kind": self.kind, "payload": self.payload, "note": self.note}


@dataclass(frozen=True)
class Sample:
    k: int
    alpha_index: int
    alpha: object  # serialized element form
    cycle_type: tuple

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


@dataclass(frozen=True)
class SampleRun:
    samples: tuple
    skipped: int


@dataclass
class Verdict:
    family: str          # "GL" | "GammaL" | "Inconclusive"
    n: int
    q: int
    order: object        # int or None
    basis: str
    evidence: list = dc_field(default_factory=list)
    notes: list = dc_field(default_factory=list)
    skipped_alphas: int = 0

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
    """(L with a_0 zeroed, shifted?).  Replacing t by t - a_0 absorbs the
    x coefficient into the transcendental, so the Galois group of
    L(x) + tx only depends on a_1, ..., a_n."""
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
    """Per-k sample targets: exhaustible fields first (clipped by what
    remains), then an even split of the remainder across the large
    fields."""
    plan = []
    remaining = budget
    large = [k for k in ks if q ** k > EXHAUST_LIMIT]
    for k in ks:
        Q = q ** k
        if Q <= EXHAUST_LIMIT:
            take = min(Q - 1, remaining)
            plan.append((k, take))
            remaining -= take
    for i, k in enumerate(large):
        share = -(-remaining // (len(large) - i))  # ceil
        take = min(q ** k - 1, share)
        plan.append((k, take))
        remaining -= take
    plan.sort()
    return plan


_ext_cache = {}


def _field_at(base, k, seed):
    key = (base, k, seed)
    f = _ext_cache.get(key)
    if f is None:
        f = extend_field(base, k, seed)
        _ext_cache[key] = f
    return f


def _alphas(Ln, k_range, budget, seed, salt):
    """The alpha stream shared by sampling and witness search: yields
    (k, alpha index, alpha, L(alpha)) in ascending (k, index) order.

    Per-k targets come from _allocate; a k stops once it has yielded its
    target of alphas with L(alpha) != 0.  Those with L(alpha) = 0 are
    yielded too, for the caller to count as skipped.  The seeded draws
    come from the "linmono.<salt>:<seed>" stream.  A negative budget is
    refused (ValueError)."""
    if budget < 0:
        raise ValueError("budget must be >= 0, got %d" % budget)
    ks = sorted(set(int(k) for k in k_range))
    if not ks:
        raise ValueError("need at least one extension degree")
    if any(k < 1 for k in ks):
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
            v = lin_mod.evaluate(Ln, alpha)
            if not v.is_zero:
                got += 1
            yield k, idx, alpha, v


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
    for k, idx, alpha, v in _alphas(Ln, k_range, budget, seed, "sample"):
        if v.is_zero:
            skipped += 1
            continue
        spec = lin_mod.specialize(Ln, alpha)
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


def normalizer_incompatibility_witness(samples, n):
    """First sample whose cycle structure cannot live in the Singer
    normalizer: it has a fixed point, yet an even length or an lcm not
    dividing n.  Fixed-point elements of N(C) lie in stabilizers of
    order n (prime), so their types are all-odd with lcm dividing n."""
    if not (is_prime(n) and n % 2 == 1):
        raise ValueError("normalizer incompatibility needs n an odd prime")
    for s in samples:
        if 1 not in s.cycle_type:
            continue
        lcm = 1
        for d in s.cycle_type:
            lcm = math.lcm(lcm, d)
        evens = [d for d in s.cycle_type if d % 2 == 0]
        if evens or n % lcm != 0:
            return Evidence(
                "FixedPointOddness",
                dict(s.to_json(), even_lengths=evens, order_lcm=lcm),
                "fixed point present but cycle structure impossible in "
                "the Singer normalizer (stabilizers have order %d)" % n)
    return None


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
    skipped = 0
    for k, idx, alpha, v in _alphas(Ln, k_range, budget, seed, "disc"):
        if v.is_zero:
            skipped += 1
            continue
        spec = lin_mod.specialize(Ln, alpha)
        cls = lin_mod.disc_square_class(spec)
        if cls is lin_mod.SquareClass.NONSQUARE:
            payload = {"k": k, "alpha_index": idx,
                       "alpha": alpha.to_obj(),
                       "constant_term": spec.coefficient(0).to_obj(),
                       "square_class": cls.value,
                       "skipped_before_hit": skipped}
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


def _normalizer_census_flags(Ln, n, order, samples, seed):
    """GammaL step: (per-sample membership in the Singer-normalizer
    census or None, note).  The census is skipped above
    NORMALIZER_CENSUS_CAP."""
    if order > NORMALIZER_CENSUS_CAP:
        return None, ("normalizer census skipped: order %d above the "
                      "verdict-evidence cap" % order)
    cen = group_mod.normalizer_census(n, Ln.base, seed)
    flags = [s.cycle_type in cen for s in samples]
    if all(flags):
        return flags, ("all %d sampled cycle types occur in the order-%d "
                       "Singer-normalizer census" % (len(samples), order))
    return flags, ("WARNING: a sampled cycle type is missing from the "
                   "normalizer census")


def _gl_witness(Ln, n, ks, samples, budget, seed):
    """GL step for q odd: a DiscWitness, else a FixedPointOddness among
    the samples, else one from a deeper sampling pass at budget 48 (when
    the run had less and the dense form is under the cap); None when all
    three come up empty."""
    witness = disc_nonsquare_witness(Ln, ks, seed=seed)
    if witness is None:
        witness = normalizer_incompatibility_witness(samples, n)
    if witness is None and budget < 48:
        try:
            deeper = sample_cycle_types(Ln, ks, budget=48, seed=seed)
            witness = normalizer_incompatibility_witness(deeper.samples, n)
        except CapExceededError:
            pass
    return witness


def verdict(L, n=None, q=None, kmax=None, budget=12, seed=0):
    """Decide the Galois group of (L(x) + tx)/x over F_q(t) when a
    theorem applies, otherwise return Inconclusive with evidence.

    L must be monic with coefficients in its base F_q.  Decision tree
    (_decide): the pure twist x^(q^n) gives GammaL(1, q^n); q odd with
    n an odd prime gives GL(n, q) with a concrete witness attached when
    the search finds one inside kmax; q even with n an odd prime decides
    by the coefficient-sum condition; everything else is Inconclusive.
    """
    _require_plain(L)
    if not L.is_monic:
        raise ValueError("verdict needs a monic polynomial")
    nv = L.qdeg
    qv = L.q
    if n is not None and n != nv:
        raise ValueError("q-degree mismatch: polynomial has %d, caller "
                         "said %d" % (nv, n))
    if q is not None and q != qv:
        raise ValueError("base order mismatch: polynomial has %d, caller "
                         "said %d" % (qv, q))
    if kmax is None:
        kmax = nv + 3
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
    if family == "GammaL":
        flags, note = _normalizer_census_flags(Ln, nv, order, run.samples,
                                               seed)
        notes.append(note)
        if flags is not None:
            extras = [{"in_normalizer_census": ok} for ok in flags]
    elif family == "GL" and p != 2:
        witness = _gl_witness(Ln, nv, ks, run.samples, budget, seed)
        if witness is not None:
            lead.append(witness)
        else:
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

# Exact cycle types recomputed by recheck, for one L at a time:
# {(L's field, L's coefficients): {(alpha's field, alpha's rep): type}}.
# The key names the F_{q^k} modulus through the field, so two seeds that
# build different extensions never share an entry.
_recheck_types = {}


def _recheck_cycle_type(Ln, alpha, claim):
    """Cycle type of the Frobenius at alpha, read off the class data of
    the n x n Frobenius matrix of L_alpha (linpoly.frobenius_cycle_type)
    rather than by the sampler's dense factoring, if every length
    divides the claimed exponent; None when one does not or when
    L(alpha) = 0.

    Types are exact whatever the claim, so they are kept for the current
    L and shared by every item that names the same alpha; a kept type
    is still checked against each new claim."""
    key = (Ln.field, Ln.coeffs)
    memo = _recheck_types.get(key)
    if memo is None:
        _recheck_types.clear()
        memo = _recheck_types[key] = {}
    at = (alpha.field, alpha.rep)
    ct = memo.get(at)
    if ct is None:
        if lin_mod.evaluate(Ln, alpha).is_zero:
            return None
        ct = lin_mod.frobenius_cycle_type(lin_mod.specialize(Ln, alpha),
                                          claim)
        if ct is None:
            return None
        memo[at] = ct
    return ct if all(claim % d == 0 for d in ct) else None


# Cycle types of the Singer-normalizer census that recheck compares
# in_normalizer_census flags with, for the last (field, n) only, like
# group._points: {(field, n): set of types, or None when refused by a cap}.
_normalizer_types = {}


def _normalizer_types_of(field, n):
    key = (field, n)
    if key not in _normalizer_types:
        try:
            types = group_mod.normalizer_census(n, field).types()
        except CapExceededError:
            types = None
        _normalizer_types.clear()
        _normalizer_types[key] = types
    return _normalizer_types[key]


def _same(claimed, value):
    """claimed == value with the types matching all the way down, so a
    claimed True or 2.0 never stands for a recomputed 1 or 2."""
    if isinstance(value, list):
        return (type(claimed) is list and len(claimed) == len(value)
                and all(map(_same, claimed, value)))
    return type(claimed) is type(value) and claimed == value


def _recorded_alpha(Ln, pl, seed):
    """The item's alpha, rebuilt in F_{q^k} from its k and alpha, or None
    when it is zero or its alpha_index is not its index."""
    E = _field_at(Ln.base, pl["k"], seed)
    alpha = E.elem(E.rep_from_obj(pl["alpha"]))
    if alpha.is_zero or not _same(pl["alpha_index"], alpha.index()):
        return None
    return alpha


def recheck(L, evidence, seed=0):
    """Independently re-verify one Evidence from (L, payload) alone.

    Rebuilds the extension from (k, seed), reconstructs alpha, and checks
    the claimed fact.  A claimed cycle type, or an OrderLcm's lcm, is
    checked rather than searched for: the exact type of the Frobenius at
    alpha is read off its similarity-class data, each order found from
    that lcm down (_recheck_cycle_type), and must match, with every
    length dividing the lcm.  That is a different algorithm from the
    factoring that produced the types.  Exact types are kept while L
    stays the same, so rechecking a document's items one by one computes
    each (k, alpha) once.  An item is also refused when its alpha_index
    is not alpha's index, when a DiscWitness's constant_term or
    square_class, a FixedPointOddness's even_lengths or order_lcm, or a
    CycleTypeSample's in_normalizer_census differs from the recomputed
    one (a normalizer census refused by a cap refuses the item), and
    when its claim is malformed.  Returns True/False.
    """
    _require_plain(L)
    Ln, _ = normalize(L)
    kind = evidence.kind
    pl = evidence.payload
    if kind in ("CycleTypeSample", "FixedPointOddness"):
        claim = pl["cycle_type"]
        if not (isinstance(claim, (list, tuple))
                and all(type(d) is int and d > 0 for d in claim)):
            return False
        alpha = _recorded_alpha(Ln, pl, seed)
        if alpha is None:
            return False
        ct = _recheck_cycle_type(Ln, alpha, math.lcm(*claim))
        if ct != tuple(claim):
            return False
        if kind == "FixedPointOddness":
            lcm = math.lcm(*ct)
            evens = [d for d in ct if d % 2 == 0]
            return (_same(pl["even_lengths"], evens)
                    and _same(pl["order_lcm"], lcm)
                    and 1 in ct and (bool(evens) or Ln.qdeg % lcm != 0))
        if "in_normalizer_census" in pl:
            types = _normalizer_types_of(Ln.base, Ln.qdeg)
            return types is not None and _same(pl["in_normalizer_census"],
                                               ct in types)
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
                and _same(pl["square_class"], cls.value)
                and _same(pl["constant_term"], c.to_obj()))
    if kind == "OrderLcm":
        claim = pl["lcm"]
        if type(claim) is not int or claim < 1:
            return False
        lcm = 1
        for k, idx in pl["sample_refs"]:
            E = _field_at(Ln.base, k, seed)
            ct = _recheck_cycle_type(Ln, E.element_at(idx), claim)
            if ct is None:
                return False
            lcm = math.lcm(lcm, *ct)
        return lcm == claim
    if kind == "NCycleGuarantee":
        N = Ln.q ** Ln.qdeg - 1
        return (pl["cycle_length"] == N
                and math.gcd(N, Ln.base.p) == pl["gcd_with_characteristic"]
                == 1)
    if kind == "Char2SumCondition":
        s = _char2_sum(Ln)
        return (s.to_obj() == pl["coefficient_sum"]
                and (not s.is_zero) == pl["nonzero"])
    raise ValueError("cannot recheck evidence of kind %r" % kind)


# -- verification layer ----------------------------------------------------

def verify_normalizer(n, field, seed=0):
    """Check the Singer-normalizer structure head on: |<S, F>| equals
    n(q^n - 1), F S F^(-1) = S^q, and every nonzero vector's stabilizer
    has order exactly n.

    One pass over the closure that normalizer_census reads: each element
    is counted, and each position its permutation fixes adds one to that
    vector's stabilizer order.  Violations are listed in rank order."""
    q = field.order
    S = group_mod.singer_generator(n, field, seed)
    F = group_mod.frobenius_matrix(n, field, seed)
    expected = n * (q ** n - 1)
    order = 0
    orders = [0] * (q ** n - 1)
    for _, perm in group_mod.closure(field, [S, F], cap=expected + 8):
        order += 1
        for i, j in enumerate(perm):
            if i == j:
                orders[i] += 1
    order_ok = order == expected
    conj_ok = group_mod.conjugation_ok(field, S, F)
    stab_bad = [{"vector": [field.rep_to_obj(c) for c in v], "order": so}
                for v, so in zip(group_mod.nonzero_vectors(field, n), orders)
                if so != n]
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


def verify_gmg(field, map_cap=20000):
    """Image-in-squares classification over F_q, q = p^m odd: among all
    nonzero p-linearized maps sum c_i x^(p^i) (i < m), exactly the maps
    a x^(p^d) with a a nonzero square have image of x -> L(x)/x inside
    the squares (with 0 allowed)."""
    p = field.p
    if p == 2:
        raise ValueError("squares classification needs odd characteristic")
    q = field.order
    m = 0
    w = q
    while w > 1:
        w //= p
        m += 1
    total = q ** m - 1
    if total > map_cap:
        raise CapExceededError("%d maps exceed the cap %d" % (total, map_cap))
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

    Works on ff.log_tables indices: the term c_i x^(p^i) / x has log
    log c_i + (p^i - 1) log x mod q - 1, and terms are summed by Zech
    addition.  Maps run in coefficient-index order and points in
    enumeration order, stopping at a map's first failing point."""
    exp, log, zech = log_tables(field)
    q = field.order
    n = q - 1
    p = field.p
    square = [field.rep_at(i) in squares for i in exp]
    offsets = [tuple((p ** i - 1) * lx % n for i in range(m))
               for lx in log[1:]]
    passing = set()
    for ci in range(1, q ** m):
        digits = []
        v = ci
        for _ in range(m):
            digits.append(v % q)
            v //= q
        terms = [(i, log[d]) for i, d in enumerate(digits) if d]
        for offs in offsets:
            acc = None  # log of the partial sum, None for zero
            for i, lc in terms:
                t = (lc + offs[i]) % n
                if acc is None:
                    acc = t
                else:
                    z = zech[(t - acc) % n]
                    acc = None if z is None else (acc + z) % n
            if acc is not None and not square[acc]:
                break
        else:
            passing.add(tuple(field.rep_at(d) for d in digits))
    return passing


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
    dividing n with necklace-formula counts; and whenever a specialized
    L_alpha (a_0 = 0, alpha in F_q^*, L(alpha) != 0) has all factor
    degrees dividing n, it literally equals x^(q^n) - x."""
    if n < 1:
        raise ValueError("n must be >= 1, got %d" % n)
    q = field.order
    f = (lin_mod.to_poly(lin_mod.LinPoly(
        field, [0] * n + [1]))
        - poly_mod.Poly.x(field))
    factors = poly_mod.factor(f)
    observed = {}
    for g, mult in factors:
        if mult != 1:
            return {"check": "identity", "q": q, "n": n, "passed": False,
                    "error": "repeated factor in x^(q^n) - x"}
        observed[g.degree] = observed.get(g.degree, 0) + 1
    expected = {d: poly_mod.num_irreducible(q, d)
                for d in range(1, n + 1) if n % d == 0}
    necklace_ok = observed == expected
    # the forcing step
    target = f
    checked = 0
    skipped_L = 0
    violations = []
    forced = []
    for L in _monic_lins(field, n, [field.zero_rep]):
        usable = False
        for ai in range(1, q):
            alpha = field.element_at(ai)
            if lin_mod.evaluate(L, alpha).is_zero:
                continue
            usable = True
            spec = lin_mod.specialize(L, alpha)
            dense = lin_mod.to_poly(spec)
            degs = poly_mod.factor_degrees(dense)
            checked += 1
            if all(n % d == 0 for d in degs):
                if dense == target:
                    forced.append({"lin": L.coeff_objs(), "alpha_index": ai})
                else:
                    violations.append({"lin": L.coeff_objs(),
                                       "alpha_index": ai,
                                       "degrees": list(degs)})
        if not usable:
            skipped_L += 1
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
