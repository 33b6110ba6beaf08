"""Small matrix groups over finite fields and their cycle-type censuses.

Matrices are plain tuples of row tuples of raw field reps; the Field
travels alongside as an argument.  That keeps everything hashable and
cheap.  mat_mul runs one multiply-accumulate loop over field.muladd on
every field; which product that step takes (prime, packed, tower or
loop) is ff's choice alone.

The centerpiece is the Singer model: a companion matrix S of a primitive
degree-n polynomial f (a generator of a cyclic group of order q^n - 1
acting irreducibly on F_q^n) and the matrix F of v -> v^q in the same
field model F_q[x]/(f), so that F S F^(-1) = S^q holds on the nose
(conjugation_ok checks it as F S = S^q F, with no inverse).  The model
reuses the primitives every field is built with: f is drawn by
ff._search_modulus, the seeded search behind every field modulus, with
primitivity as its acceptance test.  That test first asks that
(-1)^n f(0), the norm of a root, have order q - 1 in F_q (a cheap
necessary condition, singer_modulus), then that f be irreducible, and
then ff.has_order, which stops at the first prime r of q^n - 1 with
x^((q^n - 1)/r) = 1, on powers of x taken by ff's own product
(poly.x_power_is_one).  That choice of f proves the orders of S and
F, so no matrix is powered to check them.  The columns of F are
poly._frobenius_base(f), the Frobenius base distinct-degree factoring
steps with.  q^n above ff.CARDINALITY_CAP is refused before q^n - 1 is
factored.  The normalizer <S, F> has order n(q^n - 1) and every
nonzero-vector stabilizer in it has order n; both facts are checked by
the verification layer rather than trusted, the order by walking the
group on keys and the stabilizers off its orbits.

Permutation structure: a matrix acts on the q^n - 1 nonzero column
vectors, ranked lexicographically; cycle types are sorted tuples of cycle
lengths of that permutation.  permutation_of builds the images of all
vectors in rank order by linearity, one vector add each, and looks them
up in a vector-to-position dict kept for the last (field, n).  A group
generated by a few matrices is walked on keys, not on matrices or whole
permutations: the action on nonzero vectors is faithful and a matrix is
fixed by where it sends the basis vectors, so the n positions of those
images key an element.  closure turns only the generators into
permutations and reads the key of g m off the key of m, n lookups in
g's permutation; generate_group reads each matrix back off its key.

Censuses enumerate no group and build no matrix; both count fixed-space
dimensions in closed form, and fixed_space_cycle_type, the Mobius step,
turns them into cycle lengths.  The Singer normalizer is GammaL(1, q^n),
whose elements x -> g^t x^(q^i) have fixed spaces read off exponent
arithmetic (normalizer_census); only engine.verify_normalizer, which
checks the group that S and F generate, walks it; the census
flags need only its fixed-point types (normalizer_fixed_point_types).  For
GL(n, q) a cycle type depends only on the similarity class (one
partition lam_f per monic irreducible f != x, as in Green, "The
characters of the finite general linear groups", 1955, and Macdonald,
Symmetric Functions and Hall Polynomials, ch. IV), and both it and the
class size |GL(n, q)| / |centralizer| depend only on the multiset of
(deg f, ord f, lam_f).  So gl_census walks class types: the counts of
irreducibles of each degree and order are integer arithmetic on the
divisors of q^d - 1 (_irreducible_types, by ff.divisors and ff.totient),
and each type's cycle type is read off its parts (class_cycle_type).
class_cycle_type is shared: linpoly.frobenius_cycle_type, which recheck
runs, hands it the class data of a Frobenius matrix.  gl_elements, the
row-by-row enumeration of every invertible matrix, stays as the
brute-force oracle for gl_census.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import Counter, namedtuple
from operator import itemgetter

from . import poly as poly_mod
from .ff import (CapExceededError, _search_modulus, divisors, exceeds_cap,
                 has_order, prime_divisors, totient)

# Full general-linear enumeration (gl_elements, the brute-force oracle)
# is refused above this many candidate entries (q^(n^2)); row-by-row
# construction keeps the work far below the bound, but bigger groups
# stop being desk-checkable.
CENSUS_CAP = 3 ** 9

# Class censuses walk class types, fewer than the q^n similarity
# classes, and read each one's cycle type off its parts, one fixed-space
# count per divisor of its order; the irreducible types of degree
# d <= n come from the divisors of q^d - 1.  The census document
# expands each cycle type to q^n - 1 lengths, so the bound stays: it
# admits GL(4,3), GL(5,2), GL(5,3) and GL(3,7), and raising it would
# change which argv are refused.
CLASS_CENSUS_CAP = 7 ** 3

# Breadth-first closure default bound.
GROUP_CAP = 1 << 20


# -- matrix basics ---------------------------------------------------------

def mat_identity(field, n):
    z, o = field.zero_rep, field.one_rep
    return tuple(tuple(o if i == j else z for j in range(n))
                 for i in range(n))


def mat_mul(field, A, B):
    n = len(A)
    muladd, z = field.muladd, field.zero_rep
    out = []
    for i in range(n):
        row = []
        Ai = A[i]
        for j in range(n):
            acc = z
            for k in range(n):
                a = Ai[k]
                if a != z:
                    b = B[k][j]
                    if b != z:
                        acc = muladd(acc, a, b)
            row.append(acc)
        out.append(tuple(row))
    return tuple(out)


def mat_pow(field, A, e):
    """A^e for e >= 0 by square and multiply."""
    if e < 0:
        raise ValueError("negative exponent")
    r = mat_identity(field, len(A))
    while e:
        if e & 1:
            r = mat_mul(field, r, A)
        A = mat_mul(field, A, A)
        e >>= 1
    return r


def mat_to_obj(field, A):
    return [[field.rep_to_obj(c) for c in row] for row in A]


def companion_matrix(field, f):
    """Matrix of multiplication by x on field[x]/(f) in the power basis:
    column j holds the coordinates of x * x^j mod f (f monic)."""
    n = f.degree
    z = field.zero_rep
    cols = []
    for j in range(n - 1):
        col = [z] * n
        col[j + 1] = field.one_rep
        cols.append(col)
    cols.append([field.neg(c) for c in f.coeffs[:n]])
    return tuple(tuple(cols[j][i] for j in range(n)) for i in range(n))


# -- Singer model ----------------------------------------------------------

@functools.cache
def singer_modulus(n, field, seed=0):
    """Monic primitive polynomial of degree n over field: the first
    candidate of ff._search_modulus's seeded "linmono.singer" stream
    that is irreducible and on which x has order q^n - 1 (ff.has_order
    on poly.x_power_is_one).  Shared by singer_generator and
    frobenius_matrix so both live in the same field model.  q^n above
    ff.CARDINALITY_CAP is refused (CapExceededError) before q^n - 1 is
    taken or trial-divided.

    A cheap necessary condition is tested first, on F_q alone.  If f is
    primitive with root alpha, its roots are alpha^(q^i), i < n, so
    (-1)^n f(0) = prod_i alpha^(q^i) = alpha^((q^n - 1)/(q - 1)), the
    norm of alpha, which has order exactly q - 1 since alpha has order
    q^n - 1.  A candidate whose (-1)^n f(0) has a smaller order in F_q^*
    is never primitive, so skipping it before the irreducibility and
    x-order tests leaves the first accepted candidate unchanged.  For
    q = 2 every candidate passes it."""
    if n < 1:
        raise ValueError("degree must be >= 1")
    if exceeds_cap(field.order, n):
        raise CapExceededError("q^n = %d^%d exceeds the cardinality cap"
                               % (field.order, n))
    q, one = field.order, field.one_rep
    N = q ** n - 1
    primes, unit_primes = prime_divisors(N), prime_divisors(q - 1)
    sign = one if n % 2 == 0 else field.neg(one)

    def primitive(f):
        norm = field.mul(sign, f.coeffs[0])
        return (has_order(q - 1, unit_primes,
                          lambda m: field.pow(norm, m) == one)
                and poly_mod.is_irreducible(f)
                and has_order(N, primes, poly_mod.x_power_is_one(f)))

    return poly_mod.Poly(field, _search_modulus(
        field, n, seed, stream="linmono.singer", accept=primitive))


def singer_generator(n, field, seed=0):
    """Companion matrix S of the primitive modulus f (singer_modulus), a
    cyclic generator of order exactly q^n - 1.  S multiplies by x on
    field[x]/(f) in the power basis, so S^m e_j holds the coordinates of
    x^(m+j) mod f.  Hence S^m = I exactly when x^m = 1 mod f, and S has
    order q^n - 1 by the ff.has_order test singer_modulus accepted f on."""
    return companion_matrix(field, singer_modulus(n, field, seed))


def frobenius_matrix(n, field, seed=0):
    """Matrix F of v -> v^q on F_{q^n} = field[x]/(f) in the power basis,
    with the same modulus f as singer_generator.  Column j is x^(jq) mod
    f, read off poly._frobenius_base(f), the base distinct-degree
    factoring steps with.  ff._search_modulus accepts only irreducible
    f, so field[x]/(f) is F_{q^n} and F, its Frobenius over F_q, has
    order exactly n: F^m = I exactly when every v has v^(q^m) = v, that
    is when n divides m."""
    base = poly_mod._frobenius_base(singer_modulus(n, field, seed))
    z = field.zero_rep
    cols = [g.coeffs + (z,) * (n - len(g.coeffs)) for g in base]
    return tuple(tuple(col[i] for col in cols) for i in range(n))


def conjugation_ok(field, S, F):
    """True when F S F^(-1) = S^q, tested as F S = S^q F (no inverse)."""
    return mat_mul(field, F, S) == mat_mul(
        field, mat_pow(field, S, field.order), F)


# -- group generation and permutation structure ----------------------------

def check_vectors(q, n):
    """Refuse F_q^n when it has more than GROUP_CAP nonzero vectors
    (CapExceededError), by ff.exceeds_cap before q^n is taken."""
    if exceeds_cap(q, n, GROUP_CAP + 1):
        raise CapExceededError("too many vectors to permute")


@functools.lru_cache(maxsize=1)
def _points(field, n):
    """(vectors, position) for F_q^n minus 0: the nonzero vectors in rank
    order and a dict from each to its position (rank - 1).  Refused
    above GROUP_CAP vectors.

    Only the last (field, n) is kept.  A census or closure works in one
    space, and keeping every space would hold up to GROUP_CAP vectors
    per space for the life of the module."""
    check_vectors(field.order, n)
    vecs = nonzero_vectors(field, n)
    return vecs, {v: i for i, v in enumerate(vecs)}


def permutation_of(field, A):
    """A acting on the nonzero vectors as a tuple of positions: the vector
    at position i (rank i + 1) goes to position perm[i].

    The images are built in rank order by linearity, with no matrix
    product: A v = sum_j v_j (A e_j).  Over the last t coordinates, the
    images of the vectors c e_j + w, w ranked over the t - 1 after j,
    are c (A e_j) + A w, so each new image costs one vector add.  A
    singular A sends a nonzero vector to 0, which has no position
    (ValueError)."""
    _, position = _points(field, len(A))
    add, mul = field.add, field.mul
    scalars = [field.rep_at(i) for i in range(1, field.order)]
    images = [(field.zero_rep,) * len(A)]
    for col in reversed(list(zip(*A))):
        images += [tuple(map(add, cv, w))
                   for cv in [[mul(c, a) for a in col] for c in scalars]
                   for w in images]
    try:
        return tuple([position[w] for w in images[1:]])
    except KeyError:
        raise ValueError("matrix is singular") from None


def perm_cycle_type(perm):
    """Sorted cycle lengths of a permutation given as a sequence of
    positions."""
    seen = bytearray(len(perm))
    lengths = []
    for i in range(len(perm)):
        if not seen[i]:
            ln = 0
            j = i
            while not seen[j]:
                seen[j] = 1
                j = perm[j]
                ln += 1
            lengths.append(ln)
    return tuple(sorted(lengths))


def cycle_type_of(field, A):
    """Sorted cycle lengths of A acting on the nonzero vectors."""
    return perm_cycle_type(permutation_of(field, A))


def _basis_positions(q, n):
    """Positions of the basis vectors e_0, ..., e_(n-1): e_j has rank
    q^(n-1-j), so it sits at position q^(n-1-j) - 1."""
    return [q ** (n - 1 - j) - 1 for j in range(n)]


def closure(field, gens, cap=GROUP_CAP):
    """Breadth-first closure of the generators under left multiplication,
    yielding each element's key as the element is expanded: the tuple of
    the n positions it sends e_0, ..., e_(n-1) to.

    The action on the nonzero vectors is faithful, and a matrix is fixed
    by where it sends the basis vectors, so keys are in bijection with
    elements.  Only the generators become permutations (permutation_of);
    (g m) e_b = g (m e_b), so the key of g m is pg[k] for each k in the
    key of m, n lookups in g's permutation pg, and the walk holds keys
    only (_walk).  Elements come in breadth-first order from the
    identity, each new one found as g m for m in that order and g in
    generator order.  Generators must be invertible square matrices of
    one size; for a finite group the multiplicative closure is the
    generated subgroup; a singular generator raises ValueError (from
    permutation_of).  Raises CapExceededError if more than cap elements
    appear.
    """
    gens = [tuple(tuple(row) for row in g) for g in gens]
    if not gens:
        raise ValueError("need at least one generator")
    n = len(gens[0])
    for g in gens:
        if len(g) != n or any(len(r) != n for r in g):
            raise ValueError("generators must be square and of one size")
    perms = [permutation_of(field, g) for g in gens]
    return _walk(perms, _basis_positions(field.order, n), cap)


def _walk(perms, basis, cap):
    """Keys of the group the permutations generate, breadth-first from
    the identity's key (the basis positions), as closure describes.  The
    key list is the queue: it grows while it is walked, and each key is
    yielded once its products are keyed."""
    n = len(basis)
    keys = [tuple(basis)]
    seen = set(keys)
    for key in keys:
        # itemgetter(*key)(pg) is the tuple of pg[k] for k in key, or
        # the bare pg[k] for a one-entry key.
        get = itemgetter(*key)
        for pg in perms:
            new = get(pg) if n > 1 else (get(pg),)
            if new not in seen:
                if len(seen) >= cap:
                    raise CapExceededError(
                        "group closure exceeded cap %d" % cap)
                seen.add(new)
                keys.append(new)
        yield key


def generate_group(field, gens, cap=GROUP_CAP):
    """Every element of the group the generators generate, in closure's
    breadth-first order from the identity.  Each matrix is read off its
    key: column j is the vector at key position j, the image of e_j."""
    keys = list(closure(field, gens, cap))
    vecs, _ = _points(field, len(gens[0]))
    return [tuple(zip(*[vecs[k] for k in key])) for key in keys]


def nonzero_vectors(field, n):
    """All nonzero vectors of F_q^n in lexicographic rank order (first
    coordinate most significant)."""
    reps = [field.rep_at(i) for i in range(field.order)]
    it = itertools.product(reps, repeat=n)
    next(it)  # the all-zero vector comes first; drop it
    return list(it)


def perm_sign(cycle_type):
    """+1 or -1: the sign of any permutation with this cycle type."""
    return -1 if sum(d - 1 for d in cycle_type) % 2 else 1


# -- censuses --------------------------------------------------------------

class CycleCensus(namedtuple("CycleCensus", "order counts")):
    """Cycle-type census of a set of matrices: total count plus a sorted
    (cycle_type, count) table.  `t in census` asks whether cycle type t
    occurs, not tuple membership."""
    __slots__ = ()

    def types(self):
        return {t for t, _ in self.counts}

    def count_of(self, t):
        for ct, c in self.counts:
            if ct == tuple(t):
                return c
        return 0

    def __contains__(self, t):
        return tuple(t) in self.types()

    def to_json(self):
        return {
            "order": self.order,
            "census": [{"cycle_type": list(t), "count": c}
                       for t, c in self.counts],
        }


def census(field, elements):
    """CycleCensus of an explicit list of matrices, merged
    deterministically (sorted by cycle type)."""
    ctr = Counter()
    total = 0
    for A in elements:
        ctr[cycle_type_of(field, A)] += 1
        total += 1
    return CycleCensus(order=total,
                       counts=tuple(sorted(ctr.items())))


def gl_order(n, q):
    """prod_{i<n} (q^n - q^i)."""
    N = q ** n
    out = 1
    for i in range(n):
        out *= N - q ** i
    return out


def gl_elements(n, field):
    """Every invertible n x n matrix over field, built row by row with a
    linear-independence check: the brute-force oracle for gl_census.
    Refused above CENSUS_CAP."""
    if field.order ** (n * n) > CENSUS_CAP:
        raise CapExceededError(
            "full general-linear enumeration refused above %d candidate "
            "entries" % CENSUS_CAP)
    vecs = nonzero_vectors(field, n)
    nonzero_scalars = [field.rep_at(i) for i in range(1, field.order)]
    zero_vec = (field.zero_rep,) * n
    out = []

    def vadd_scaled(u, c, v):
        return tuple(field.muladd(a, c, b) for a, b in zip(u, v))

    def rec(rows, span):
        if len(rows) == n:
            out.append(tuple(rows))
            return
        for v in vecs:
            if v not in span:
                new_span = set(span)
                for s in span:
                    for c in nonzero_scalars:
                        new_span.add(vadd_scaled(s, c, v))
                rec(rows + [v], new_span)

    rec([], {zero_vec})
    assert len(out) == gl_order(n, field.order)
    return out


def partitions(s, largest=None):
    """Partitions of s as non-increasing tuples, largest first part
    first."""
    if largest is None:
        largest = s
    if s == 0:
        yield ()
        return
    for first in range(min(s, largest), 0, -1):
        for rest in partitions(s - first, first):
            yield (first,) + rest


@functools.cache
def primary_centralizer_order(Q, lam):
    """Order of the centralizer of the f-primary part with partition lam,
    where Q = q^deg f: Q^(sum lam'_i^2) prod_i prod_{j <= m_i} (1 - Q^-j),
    m_i the multiplicity of part i (Macdonald, ch. IV, (2.7)).

    Cached: gl_census asks for the same (Q, lam) in every class type
    that gives lam to an irreducible of degree d (Q = q^d), and one
    census of GL(n, q) asks for at most one pair per d <= n and
    partition lam of at most n/d."""
    conj = [sum(1 for part in lam if part > i) for i in range(lam[0])]
    mults = Counter(lam).values()
    out = Q ** (sum(c * c for c in conj)
                - sum(m * (m + 1) // 2 for m in mults))
    for m in mults:
        for j in range(1, m + 1):
            out *= Q ** j - 1
    return out


def fixed_space_cycle_type(q, n, order, dim):
    """Sorted cycle lengths of an invertible linear map A of the given
    order on the nonzero vectors of F_q^n, from dim(d), the dimension of
    the fixed space of A^d, for each divisor d of the order.

    A^d fixes q^dim(d) - 1 nonzero vectors, and Mobius inversion over
    the divisors counts the vectors in cycles of each exact length.  The
    inversion is one difference pass per prime r of the order: walking
    the divisors downwards, the count at d loses the count at d / r.
    Counts that are not a cycle type of F_q^n minus 0 are an internal
    error (AssertionError).  The divisors and primes of each order are
    trial-divided once (_divisors_and_primes): many class types of a
    census, and many t of normalizer_census, share an order."""
    divs, primes = _divisors_and_primes(order)
    exact = {d: q ** dim(d) - 1 for d in divs}
    for r in primes:
        for d in reversed(divs):
            if d % r == 0:
                exact[d] -= exact[d // r]
    lengths = []
    for d in divs:
        if exact[d] % d:
            raise AssertionError("fixed counts are not a cycle type")
        lengths.extend([d] * (exact[d] // d))
    if sum(lengths) != q ** n - 1:
        raise AssertionError("cycle lengths do not cover the nonzero "
                             "vectors")
    return tuple(lengths)


@functools.cache
def _divisors_and_primes(order):
    """(divisors, prime divisors) of order >= 1 as ascending tuples."""
    return tuple(divisors(order)), tuple(prime_divisors(order))


def class_cycle_type(field, parts):
    """Cycle type on the nonzero vectors of the similarity class with
    primary parts ((deg f, ord f, lam_f), ...), one per irreducible f of
    the class; ord f is the order of x modulo f (poly.order_of_x, by
    ff.multiplicative_order).

    On F_q[x]/(f^e), x^d - 1 has f-adic valuation p^v_p(d) when ord(f)
    divides d and 0 otherwise, so the fixed space of A^d has dimension
    sum_f [ord(f) | d] deg(f) sum_(e in lam_f) min(e, p^v_p(d)), and A
    has order lcm_f ord(f) times the least power of p that is >= every
    part."""
    q, p = field.order, field.p
    top = max((lam[0] for _, _, lam in parts), default=1)
    pt = 1
    while pt < top:
        pt *= p
    order = math.lcm(*(o for _, o, _ in parts)) * pt

    def dim(d):
        pv = 1
        while d % (pv * p) == 0:
            pv *= p
        return sum(deg * sum(min(e, pv) for e in lam)
                   for deg, o, lam in parts if d % o == 0)

    n = sum(deg * sum(lam) for deg, _, lam in parts)
    return fixed_space_cycle_type(q, n, order, dim)


def _irreducible_types(q, n):
    """(d, e, count) for each degree d <= n and each order e: count
    monic irreducibles f != x of degree d over F_q have ord f = e.

    The roots of such an f are elements of order e, and their Frobenius
    orbit has length d exactly when q has order d modulo e.  So every
    divisor e of q^d - 1 on which q has order d carries phi(e) / d
    irreducibles, and no other e carries any (Lidl & Niederreiter,
    Finite Fields, Thm 3.5).  x - 1, at d = 1, is the one entry with
    e = 1.  Entries come in ascending d."""
    types = [(1, 1, 1)]
    for d in range(1, n + 1):
        lower = [q ** (d // r) - 1 for r in prime_divisors(d)]
        types.extend((d, e, totient(e) // d)
                     for e in divisors(q ** d - 1)[1:]
                     if all(m % e for m in lower))
    return types


def gl_census(n, field):
    """Cycle-type census of GL(n, q), one class type at a time.

    A similarity class is a partition lam_f for each monic irreducible
    f != x with sum deg(f) |lam_f| = n (Green, 1955; Macdonald, ch. IV),
    and its cycle type and size depend only on the multiset of
    (deg f, ord f, lam_f).  So the walk gives partitions to the
    irreducible types of _irreducible_types, not to irreducibles: a
    class type in which a type of c irreducibles has k of them take
    partitions, m_lam of them lam, stands for c! / ((c - k)! prod
    m_lam!) classes, each of size |GL(n, q)| over the product of the
    primary centralizer orders.  Each recursive step adds one part of
    degree >= 1, so the recursion is at most n deep.  Only field.order
    and field.p are read: no field, table or polynomial is built.
    Refused above CLASS_CENSUS_CAP vectors."""
    q = field.order
    if exceeds_cap(q, n, CLASS_CENSUS_CAP):
        raise CapExceededError(
            "general-linear census refused above q^n = %d vectors"
            % CLASS_CENSUS_CAP)
    if n < 0:
        raise ValueError("degree must be >= 0")
    types = _irreducible_types(q, n)
    lams = [(lam, s) for s in range(1, n + 1) for lam in partitions(s)]
    order = gl_order(n, q)
    ctr = Counter()

    def walk(i, j, remaining, parts, cent, ways, used, run):
        # The last part gave lams[j] to an irreducible of types[i]; used
        # irreducibles of that type have a part, the last run of them
        # lams[j].  Later parts come at (i, j) or after, so each
        # multiset is walked once.
        if remaining == 0:
            size, rest = divmod(order, cent)
            assert rest == 0, "centralizer order does not divide |GL|"
            ctr[class_cycle_type(field, parts)] += ways * size
            return
        for t in range(i, len(types)):
            d, e, count = types[t]
            if d > remaining:
                break
            u = used if t == i else 0
            if u == count:
                continue
            for k in range(j if t == i else 0, len(lams)):
                lam, s = lams[k]
                if d * s > remaining:
                    break
                r = run + 1 if (t, k) == (i, j) else 1
                walk(t, k, remaining - d * s, parts + [(d, e, lam)],
                     cent * primary_centralizer_order(q ** d, lam),
                     ways * (count - u) // r, u + 1, r)

    walk(0, 0, n, [], 1, 1, 0, 0)
    assert sum(ctr.values()) == order, "class sizes do not sum to |GL|"
    return CycleCensus(order=order, counts=tuple(sorted(ctr.items())))


def normalizer_census(n, field, seed=0):
    """Cycle-type census of the Singer normalizer <S, F>, which is
    GammaL(1, q^n): the maps x -> g^t x^(q^i) of F_(q^n), g primitive,
    0 <= t < M = q^n - 1, 0 <= i < n.  Nothing is enumerated, so the
    seed (which Singer cycle) does not matter.

    i = 0 is multiplication by g^t: phi(d) elements of type d^(M/d) for
    each d | M.  For i >= 1, conjugating by g^w shifts t by w(1 - q^i),
    so only t mod R = q^c - 1 matters (c = gcd(i, n)), each residue
    standing for M/R elements.  The m-th power is x -> g^(t S_m)
    x^(q^(im)) with S_m = sum_(r<m) q^(ir); its nonzero fixed points
    number q^h - 1, h = gcd(im, n), when q^h - 1 divides t S_m and none
    otherwise.  The order is m1 R / gcd(t, R) with m1 = n / c, since
    S_m1 = M / R modulo M.  fixed_space_cycle_type turns the fixed
    counts into the cycle type.  Refused as the closure of <S, F> would
    be: n < 1 (ValueError) and more than GROUP_CAP vectors
    (CapExceededError)."""
    if n < 1:
        raise ValueError("degree must be >= 1")
    q = field.order
    check_vectors(q, n)
    M = q ** n - 1
    ctr = Counter({(d,) * (M // d): totient(d) for d in divisors(M)})
    for i in range(1, n):
        c = math.gcd(i, n)
        R = q ** c - 1
        m1 = n // c

        def dim(m):
            h = math.gcd(i * m, n)
            per = h // c  # S_m's terms q^(ir mod h) repeat with this period
            s = m // per * ((q ** h - 1) // R)
            s += sum(q ** (i * r % h) for r in range(m % per))
            return h if t * s % (q ** h - 1) == 0 else 0

        for t in range(R):
            order = m1 * R // math.gcd(t, R)
            ctr[fixed_space_cycle_type(q, n, order, dim)] += M // R
    return CycleCensus(order=n * M, counts=tuple(sorted(ctr.items())))


def normalizer_fixed_point_types(n, q):
    """The cycle types of the elements of GammaL(1, q^n) fixing a nonzero
    vector, as sorted (length, multiplicity) pairs, never expanded.  Fixing
    v, x -> a x^(q^i) is conjugate by x -> v x to x -> x^(q^i), of the type
    of phi^e, e = gcd(i, n): one j-cycle per monic irreducible of degree j
    over F_(q^e), j | n/e."""
    return {((1, q ** e - 1),) + tuple(
                (j, poly_mod.num_irreducible(q ** e, j))
                for j in divisors(n // e)[1:])
            for e in divisors(n)}
