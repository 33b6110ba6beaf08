"""Brute-force oracles for the tests.

Everything here is computed by exhaustive enumeration and trial division
only -- no distinct-degree or equal-degree machinery -- so factorization
results can be checked against an independent path.
"""

import itertools
from collections import Counter, deque

from linmono.group import (CycleCensus, closure, companion_matrix,
                           frobenius_matrix, mat_identity, mat_mul, mat_pow,
                           mat_vec, nonzero_vectors, perm_cycle_type,
                           singer_generator)
from linmono.poly import Poly


def all_monic(field, degree):
    """Every monic polynomial of exactly this degree."""
    reps = [field.rep_at(i) for i in range(field.order)]
    for tail in itertools.product(reps, repeat=degree):
        yield Poly(field, list(tail) + [field.one_rep])


def brute_irreducibles(field, max_degree):
    """Monic irreducibles of degree 1..max_degree by trial division."""
    found = []
    for d in range(1, max_degree + 1):
        for f in all_monic(field, d):
            if not any((f % g).is_zero
                       for g in found if 2 * g.degree <= d):
                found.append(f)
    return found


def brute_factor(f, irreducibles):
    """[(monic irreducible, multiplicity)] by repeated trial division.

    irreducibles must cover every degree up to deg f.  Sorted the same
    way linmono.poly.factor sorts.
    """
    out = {}
    g = f.monic()
    for p in irreducibles:
        if p.degree > g.degree:
            break
        while g.degree >= p.degree:
            q, r = divmod(g, p)
            if not r.is_zero:
                break
            g = q
            key = (p.degree, tuple(p.field.index_of(c) for c in p.coeffs))
            out[key] = out.get(key, (p, 0))[0], out.get(key, (p, 0))[1] + 1
    assert g.degree == 0, "irreducible list did not cover %r" % f
    return sorted(out.values(),
                  key=lambda gm: (gm[0].degree,
                                  tuple(gm[0].field.index_of(c)
                                        for c in gm[0].coeffs)))


def irreducible_by_trial_division(f):
    """Whether f is irreducible, by trial division of f by every monic
    polynomial of degree 1 .. deg f / 2: no squarefree test, no list of
    irreducibles and no Frobenius step."""
    if f.is_zero or f.degree < 1:
        return False
    return not any((f % g).is_zero
                   for d in range(1, f.degree // 2 + 1)
                   for g in all_monic(f.field, d))


def brute_is_irreducible(f, irreducibles):
    f = f.monic()
    for p in irreducibles:
        if 2 * p.degree > f.degree:
            break
        if (f % p).is_zero:
            return False
    return f.degree >= 1


def brute_gmg_passing(field, squares=None):
    """Coefficient tuples of the nonzero p-linearized maps on field whose
    L(x)/x is zero or in squares (by default the nonzero squares) at every
    nonzero x, by evaluating every map at every point with tuple-rep
    arithmetic (no index tables)."""
    p = field.p
    q = field.order
    m = 0
    w = q
    while w > 1:
        w //= p
        m += 1
    reps = [field.rep_at(i) for i in range(q)]
    nonzero = reps[1:]
    if squares is None:
        squares = {field.mul(x, x) for x in nonzero}
    # x -> (x^(p^0), ..., x^(p^(m-1))) and 1/x, precomputed per point
    tables = []
    for x in nonzero:
        pows = [x]
        for _ in range(m - 1):
            pows.append(field.pow(pows[-1], p))
        tables.append((pows, field.inv(x)))
    passing = set()
    for ci in range(1, q ** m):
        cs = []
        v = ci
        for _ in range(m):
            cs.append(reps[v % q])
            v //= q
        ok = True
        for pows, xinv in tables:
            acc = field.zero_rep
            for c, xp in zip(cs, pows):
                if c != field.zero_rep:
                    acc = field.add(acc, field.mul(c, xp))
            val = field.mul(acc, xinv)
            if val != field.zero_rep and val not in squares:
                ok = False
                break
        if ok:
            passing.add(tuple(cs))
    return passing


def brute_closure(field, gens):
    """Breadth-first closure of invertible generators by matrix
    multiplication, elements in discovery order."""
    ident = mat_identity(field, len(gens[0]))
    seen = {ident}
    out = [ident]
    queue = deque([ident])
    while queue:
        m = queue.popleft()
        for g in gens:
            w = mat_mul(field, m, g)
            if w not in seen:
                seen.add(w)
                out.append(w)
                queue.append(w)
    return out


def vector_rank(field, v):
    """1-based position of a nonzero vector in nonzero_vectors order."""
    r = 0
    for c in v:
        r = r * field.order + field.index_of(c)
    return r


def normalizer_elements(n, field, seed=0):
    """The full Singer normalizer <S, F>, n(q^n - 1) matrices, by
    brute_closure of its two generators."""
    return brute_closure(field, [singer_generator(n, field, seed),
                                 frobenius_matrix(n, field, seed)])


def brute_cycle_type(field, A):
    """Sorted cycle lengths of A on the nonzero vectors, by applying A to
    every vector and ranking each image through field.index_of."""
    vecs = nonzero_vectors(field, len(A))
    perm = [vector_rank(field, mat_vec(field, A, v)) - 1 for v in vecs]
    seen = [False] * len(perm)
    lengths = []
    for start in range(len(perm)):
        ln = 0
        j = start
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            ln += 1
        if ln:
            lengths.append(ln)
    return tuple(sorted(lengths))


def stabilizer_order(field, elements, v):
    """How many of the given matrices fix the nonzero vector v."""
    v = tuple(v)
    if all(c == field.zero_rep for c in v):
        raise ValueError("stabilizer of the zero vector is everything")
    return sum(1 for A in elements if mat_vec(field, A, v) == v)


def brute_stabilizer_orders(field, elements):
    """For every nonzero vector in rank order, how many of the elements
    fix it, by applying every element to every vector."""
    n = len(elements[0])
    return [sum(1 for A in elements if mat_vec(field, A, v) == v)
            for v in nonzero_vectors(field, n)]


def mat_det(field, A):
    """Determinant by Gaussian elimination."""
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
    """Inverse by Gauss-Jordan elimination; ZeroDivisionError when A is
    singular."""
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


def mat_pow_signed(field, A, e):
    """A^e for any integer e, negative powers through mat_inv."""
    if e < 0:
        return mat_pow(field, mat_inv(field, A), -e)
    return mat_pow(field, A, e)


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


def class_representative(field, parts):
    """A matrix in the similarity class with primary parts
    ((f, lam_f), ...), as linmono.group.gl_classes yields them: block
    diagonal with one companion matrix of f^e per part e of lam_f."""
    blocks = []
    for f, lam in parts:
        for e in lam:
            power = Poly.constant(field, 1)
            for _ in range(e):
                power = power * f
            blocks.append(companion_matrix(field, power))
    return block_diagonal(field, blocks)


def closure_normalizer_census(n, field, seed=0):
    """Cycle-type census of <S, F>, each element's type read from the
    permutation linmono.group.closure composes for it."""
    S = singer_generator(n, field, seed)
    F = frobenius_matrix(n, field, seed)
    expected = n * (field.order ** n - 1)
    ctr = Counter(perm_cycle_type(perm)
                  for perm in closure(field, [S, F], cap=expected + 1))
    return CycleCensus(order=sum(ctr.values()),
                       counts=tuple(sorted(ctr.items())))


def schoolbook_mul(field, x, y):
    """x y in field by the d^2 schoolbook convolution and a reduction by
    the modulus, one tower step at a time, with base products taken by
    this oracle too: the reference for Field.mul's packed product, in
    which no Field.mul runs."""
    b = field.base
    if b is None:
        return (x * y) % field.p
    d = field.degree
    prod = [b.zero_rep] * (2 * d - 1)
    for i, xi in enumerate(x):
        for j, yj in enumerate(y):
            prod[i + j] = b.add(prod[i + j], schoolbook_mul(b, xi, yj))
    mod = field.modulus
    for k in range(2 * d - 2, d - 1, -1):
        c = prod[k]
        for j in range(d):
            prod[k - d + j] = b.sub(prod[k - d + j],
                                    schoolbook_mul(b, c, mod[j]))
    return tuple(prod[:d])


def square_and_multiply_pow(field, x, e):
    """x^e by the square and multiply loop that starts from one."""
    if e < 0:
        x = field.inv(x)
        e = -e
    r = field.one_rep
    for bit in bin(e)[2:]:
        r = field.mul(r, r)
        if bit == "1":
            r = field.mul(r, x)
    return r
