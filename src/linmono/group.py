"""Small matrix groups over finite fields and their cycle-type censuses.

Matrices are plain tuples of row tuples of raw field reps; the Field
travels alongside as an argument.  That keeps everything hashable and
cheap, which is what the breadth-first closures and full censuses want.

The centerpiece is the Singer model: a companion matrix S of a primitive
degree-n polynomial (a generator of a cyclic group of order q^n - 1
acting irreducibly on F_q^n) and the matrix F of v -> v^q in the same
field model F_q[x]/(f), so that F S F^(-1) = S^q holds on the nose.  The
normalizer <S, F> has order n(q^n - 1) and every nonzero-vector
stabilizer in it has order n; both facts are checked directly by the
verification layer rather than trusted.

Permutation structure: a matrix acts on the q^n - 1 nonzero column
vectors, ranked lexicographically; cycle types are sorted tuples of cycle
lengths of that permutation.

Censuses: the Singer normalizer is enumerated by closure.  GL(n, q) is
never enumerated on the census path: a cycle type depends only on the
similarity class, so gl_census walks the classes (one partition per
monic irreducible f != x, as in Green, "The characters of the finite
general linear groups", 1955, and Macdonald, Symmetric Functions and
Hall Polynomials, ch. IV), permutes the vectors once under a
block-companion representative, and weights the type by the class size
|GL(n, q)| / |centralizer|.  gl_elements, the row-by-row enumeration of
every invertible matrix, stays as the brute-force oracle for it.
"""

from __future__ import annotations

import itertools
import random
from collections import Counter, deque
from dataclasses import dataclass

from . import poly as poly_mod
from .ff import CapExceededError, Field, prime_divisors

# Full general-linear enumeration (gl_elements, the brute-force oracle)
# is refused above this many candidate entries (q^(n^2)); row-by-row
# construction keeps the work far below the bound, but bigger groups
# stop being desk-checkable.
CENSUS_CAP = 3 ** 9

# Class censuses permute all q^n - 1 nonzero vectors once per similarity
# class, and there are about q^n classes, so the work grows like q^(2n).
# The bound admits GL(4,3), GL(5,2), GL(5,3) and GL(3,7).
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
    if field.base is None:
        p = field.p
        return tuple(
            tuple(sum(A[i][k] * B[k][j] for k in range(n)) % p
                  for j in range(n))
            for i in range(n))
    add, mul, z = field.add, field.mul, field.zero_rep
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
                        acc = add(acc, mul(a, b))
            row.append(acc)
        out.append(tuple(row))
    return tuple(out)


def mat_vec(field, A, v):
    n = len(A)
    if field.base is None:
        p = field.p
        return tuple(sum(A[i][k] * v[k] for k in range(n)) % p
                     for i in range(n))
    add, mul, z = field.add, field.mul, field.zero_rep
    out = []
    for i in range(n):
        acc = z
        Ai = A[i]
        for k in range(n):
            a = Ai[k]
            if a != z:
                b = v[k]
                if b != z:
                    acc = add(acc, mul(a, b))
        out.append(acc)
    return tuple(out)


def mat_pow(field, A, e):
    n = len(A)
    r = mat_identity(field, n)
    if e < 0:
        A = mat_inv(field, A)
        e = -e
    while e:
        if e & 1:
            r = mat_mul(field, r, A)
        A = mat_mul(field, A, A)
        e >>= 1
    return r


def mat_det(field, A):
    n = len(A)
    rows = [list(r) for r in A]
    z = field.zero_rep
    det = field.one_rep
    for c in range(n):
        pr = None
        for i in range(c, n):
            if rows[i][c] != z:
                pr = i
                break
        if pr is None:
            return z
        if pr != c:
            rows[c], rows[pr] = rows[pr], rows[c]
            det = field.neg(det)
        det = field.mul(det, rows[c][c])
        inv = field.inv(rows[c][c])
        for i in range(c + 1, n):
            if rows[i][c] != z:
                f = field.mul(rows[i][c], inv)
                rows[i] = [field.sub(vi, field.mul(f, vc))
                           for vi, vc in zip(rows[i], rows[c])]
    return det


def mat_inv(field, A):
    n = len(A)
    z, o = field.zero_rep, field.one_rep
    rows = [list(r) + [o if i == j else z for j in range(n)]
            for i, r in enumerate(A)]
    r = 0
    for c in range(n):
        pr = None
        for i in range(r, n):
            if rows[i][c] != z:
                pr = i
                break
        if pr is None:
            raise ZeroDivisionError("matrix is singular")
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = field.inv(rows[r][c])
        rows[r] = [field.mul(inv, v) for v in rows[r]]
        for i in range(n):
            if i != r and rows[i][c] != z:
                f = rows[i][c]
                rows[i] = [field.sub(vi, field.mul(f, vr))
                           for vi, vr in zip(rows[i], rows[r])]
        r += 1
    return tuple(tuple(row[n:]) for row in rows)


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


def block_diagonal(field, blocks):
    """The block-diagonal matrix with the given square blocks in order."""
    n = sum(len(B) for B in blocks)
    z = field.zero_rep
    rows = []
    at = 0
    for B in blocks:
        d = len(B)
        for row in B:
            rows.append((z,) * at + tuple(row) + (z,) * (n - at - d))
        at += d
    return tuple(rows)


# -- Singer model ----------------------------------------------------------

_modulus_cache = {}


def singer_modulus(n, field, seed=0):
    """Monic primitive polynomial of degree n over field, from a seeded
    search.  Shared by singer_generator and frobenius_matrix so both live
    in the same field model."""
    key = (field, n, seed)
    cached = _modulus_cache.get(key)
    if cached is not None:
        return cached
    if n < 1:
        raise ValueError("degree must be >= 1")
    q = field.order
    N = q ** n - 1
    prime_divs = prime_divisors(N)
    rng = random.Random("linmono.singer:%s:%d:%d"
                        % (field.spec_string(), n, seed))
    x = poly_mod.Poly.x(field)
    for _ in range(20000):
        coeffs = [field.rep_at(rng.randrange(1, q))]
        coeffs += [field.rep_at(rng.randrange(q)) for _ in range(n - 1)]
        coeffs.append(field.one_rep)
        f = poly_mod.Poly(field, coeffs)
        if not poly_mod.is_irreducible(f):
            continue
        # primitivity: x has full order N in field[x]/(f)
        one = poly_mod.Poly.constant(field, 1)
        if all(poly_mod.pow_mod(x, N // r, f) != one for r in prime_divs):
            _modulus_cache[key] = f
            return f
    raise RuntimeError("no primitive polynomial found (degree %d over %r)"
                       % (n, field))


def singer_generator(n, field, seed=0):
    """Companion matrix of a primitive degree-n polynomial: a cyclic
    generator of order exactly q^n - 1, verified on the matrix itself."""
    S = companion_matrix(field, singer_modulus(n, field, seed))
    N = field.order ** n - 1
    ident = mat_identity(field, n)
    if mat_pow(field, S, N) != ident:
        raise AssertionError("Singer candidate order does not divide q^n - 1")
    for r in prime_divisors(N):
        if mat_pow(field, S, N // r) == ident:
            raise AssertionError("Singer candidate order below q^n - 1")
    return S


def frobenius_matrix(n, field, seed=0):
    """Matrix of v -> v^q on F_{q^n} = field[x]/(f) in the power basis,
    with the same modulus f as singer_generator.  Order is exactly n."""
    f = singer_modulus(n, field, seed)
    q = field.order
    x = poly_mod.Poly.x(field)
    h = poly_mod.pow_mod(x, q, f)
    z = field.zero_rep
    cols = [[field.one_rep] + [z] * (n - 1)]
    acc = poly_mod.Poly.constant(field, 1)
    for _ in range(1, n):
        acc = (acc * h) % f
        col = list(acc.coeffs) + [z] * (n - len(acc.coeffs))
        cols.append(col)
    F = tuple(tuple(cols[j][i] for j in range(n)) for i in range(n))
    ident = mat_identity(field, n)
    acc_pow = ident
    for d in range(1, n + 1):
        acc_pow = mat_mul(field, acc_pow, F)
        if acc_pow == ident and d < n:
            raise AssertionError("Frobenius matrix order %d below n" % d)
    if acc_pow != ident:
        raise AssertionError("Frobenius matrix order does not divide n")
    return F


# -- group generation and permutation structure ----------------------------

def generate_group(field, gens, cap=GROUP_CAP):
    """Breadth-first closure of the generators under multiplication.

    Generators must be invertible square matrices of one size; for a
    finite group the multiplicative closure is the generated subgroup.
    Raises CapExceededError if more than cap elements appear.
    """
    gens = [tuple(tuple(row) for row in g) for g in gens]
    if not gens:
        raise ValueError("need at least one generator")
    n = len(gens[0])
    for g in gens:
        if len(g) != n or any(len(r) != n for r in g):
            raise ValueError("generators must be square and of one size")
        if mat_det(field, g) == field.zero_rep:
            raise ValueError("generator is singular")
    ident = mat_identity(field, n)
    seen = {ident}
    order_out = [ident]
    queue = deque([ident])
    while queue:
        m = queue.popleft()
        for g in gens:
            w = mat_mul(field, m, g)
            if w not in seen:
                if len(seen) >= cap:
                    raise CapExceededError(
                        "group closure exceeded cap %d" % cap)
                seen.add(w)
                order_out.append(w)
                queue.append(w)
    return order_out


def nonzero_vectors(field, n):
    """All nonzero vectors of F_q^n in lexicographic rank order (first
    coordinate most significant)."""
    reps = [field.rep_at(i) for i in range(field.order)]
    it = itertools.product(reps, repeat=n)
    next(it)  # the all-zero vector comes first; drop it
    return list(it)


def vector_rank(field, v):
    r = 0
    for c in v:
        r = r * field.order + field.index_of(c)
    return r


def cycle_type_of(field, A):
    """Sorted cycle lengths of A acting on the nonzero vectors."""
    n = len(A)
    total = field.order ** n
    if total - 1 > GROUP_CAP:
        raise CapExceededError("too many vectors to permute")
    vecs = nonzero_vectors(field, n)
    perm = [0] * (total - 1)
    for i, v in enumerate(vecs):
        perm[i] = vector_rank(field, mat_vec(field, A, v)) - 1
    seen = bytearray(total - 1)
    lengths = []
    for i in range(total - 1):
        if not seen[i]:
            ln = 0
            j = i
            while not seen[j]:
                seen[j] = 1
                j = perm[j]
                ln += 1
            lengths.append(ln)
    return tuple(sorted(lengths))


def perm_sign(cycle_type):
    """+1 or -1: the sign of any permutation with this cycle type."""
    return -1 if sum(d - 1 for d in cycle_type) % 2 else 1


def stabilizer_order(field, elements, v):
    """How many of the given matrices fix the nonzero vector v."""
    v = tuple(v)
    if all(c == field.zero_rep for c in v):
        raise ValueError("stabilizer of the zero vector is everything")
    return sum(1 for A in elements if mat_vec(field, A, v) == v)


# -- censuses --------------------------------------------------------------

@dataclass(frozen=True)
class CycleCensus:
    """Cycle-type census of a set of matrices: total count plus a sorted
    (cycle_type, count) table."""
    order: int
    counts: tuple

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

    def scaled(c, v):
        if field.base is None:
            p = field.p
            return tuple((c * x) % p for x in v)
        return tuple(field.mul(c, x) for x in v)

    def vadd(u, v):
        if field.base is None:
            p = field.p
            return tuple((a + b) % p for a, b in zip(u, v))
        return tuple(field.add(a, b) for a, b in zip(u, v))

    def rec(rows, span):
        if len(rows) == n:
            out.append(tuple(rows))
            return
        for v in vecs:
            if v not in span:
                new_span = set(span)
                for s in span:
                    for c in nonzero_scalars:
                        new_span.add(vadd(s, scaled(c, v)))
                rec(rows + [v], new_span)

    rec([], {zero_vec})
    assert len(out) == gl_order(n, field.order)
    return out


def monic_irreducibles(field, d):
    """Monic irreducible polynomials of degree d over field other than x,
    in canonical enumeration order of their coefficients."""
    reps = [field.rep_at(i) for i in range(field.order)]
    out = []
    for tail in itertools.product(reps, repeat=d):
        if tail[0] == field.zero_rep:
            continue
        f = poly_mod.Poly(field, list(tail) + [field.one_rep])
        if poly_mod.is_irreducible(f):
            out.append(f)
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


def primary_centralizer_order(Q, lam):
    """Order of the centralizer of the f-primary part with partition lam,
    where Q = q^deg f: Q^(sum lam'_i^2) prod_i prod_{j <= m_i} (1 - Q^-j),
    m_i the multiplicity of part i (Macdonald, ch. IV, (2.7))."""
    conj = [sum(1 for part in lam if part > i) for i in range(lam[0])]
    mults = Counter(lam).values()
    out = Q ** (sum(c * c for c in conj)
                - sum(m * (m + 1) // 2 for m in mults))
    for m in mults:
        for j in range(1, m + 1):
            out *= Q ** j - 1
    return out


def gl_classes(n, field):
    """(representative, class size) for every similarity class of
    GL(n, q).

    A class is a partition lam_f for each monic irreducible f != x with
    sum deg(f) |lam_f| = n.  The representative is block diagonal with
    one companion matrix of f^part per part; the class size is
    |GL(n, q)| over the centralizer order, the product of the primary
    centralizer orders.
    """
    if n < 0:
        raise ValueError("degree must be >= 0")
    q = field.order
    order = gl_order(n, q)
    irreducibles = [f for d in range(1, n + 1)
                    for f in monic_irreducibles(field, d)]

    def walk(i, remaining, blocks, cent):
        if remaining == 0:
            size, rest = divmod(order, cent)
            assert rest == 0, "centralizer order does not divide |GL|"
            yield block_diagonal(field, blocks), size
            return
        if i == len(irreducibles) or irreducibles[i].degree > remaining:
            return
        f = irreducibles[i]
        d = f.degree
        yield from walk(i + 1, remaining, blocks, cent)
        # companions[e - 1] is the companion matrix of f^e
        companions = []
        power = poly_mod.Poly.constant(field, 1)
        for s in range(1, remaining // d + 1):
            power = power * f
            companions.append(companion_matrix(field, power))
            for lam in partitions(s):
                yield from walk(
                    i + 1, remaining - d * s,
                    blocks + [companions[part - 1] for part in lam],
                    cent * primary_centralizer_order(q ** d, lam))

    return walk(0, n, [], 1)


def gl_census(n, field):
    """Cycle-type census of GL(n, q), one similarity class at a time:
    the cycle type of a representative, counted with the class size.
    Refused above CLASS_CENSUS_CAP vectors."""
    q = field.order
    if q ** n > CLASS_CENSUS_CAP:
        raise CapExceededError(
            "general-linear census refused above q^n = %d vectors"
            % CLASS_CENSUS_CAP)
    ctr = Counter()
    for A, size in gl_classes(n, field):
        ctr[cycle_type_of(field, A)] += size
    order = gl_order(n, q)
    assert sum(ctr.values()) == order, "class sizes do not sum to |GL|"
    return CycleCensus(order=order, counts=tuple(sorted(ctr.items())))


def normalizer_elements(n, field, seed=0):
    """The full <S, F> (Singer normalizer), n(q^n - 1) matrices."""
    S = singer_generator(n, field, seed)
    F = frobenius_matrix(n, field, seed)
    expected = n * (field.order ** n - 1)
    return generate_group(field, [S, F], cap=expected + 1)


def normalizer_census(n, field, seed=0):
    return census(field, normalizer_elements(n, field, seed))
