"""Brute-force oracles for the tests.

Everything here is computed by exhaustive enumeration and trial division
only -- no distinct-degree or equal-degree machinery -- so factorization
results can be checked against an independent path.
"""

import itertools
from collections import deque

from linmono.group import (frobenius_matrix, mat_identity, mat_mul, mat_vec,
                           nonzero_vectors, singer_generator)
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


def brute_stabilizer_orders(field, elements):
    """For every nonzero vector in rank order, how many of the elements
    fix it, by applying every element to every vector."""
    n = len(elements[0])
    return [sum(1 for A in elements if mat_vec(field, A, v) == v)
            for v in nonzero_vectors(field, n)]
