"""Brute-force oracles for the tests.

Everything here is computed by exhaustive enumeration and trial division
only -- no distinct-degree or equal-degree machinery -- so factorization
results can be checked against an independent path.
"""

import functools
import itertools
from collections import Counter, deque
from operator import itemgetter

from linmono.ff import (CapExceededError, FieldElement, FieldMismatchError,
                        multiplicative_order)
from linmono.group import (GROUP_CAP, CycleCensus, class_cycle_type,
                           companion_matrix, frobenius_matrix, gl_order,
                           mat_identity, mat_mul, mat_pow,
                           nonzero_vectors, partitions, perm_cycle_type,
                           permutation_of, primary_centralizer_order,
                           singer_generator)
from linmono.linpoly import _degree_over, evaluate
from linmono.poly import Poly, order_of_x


def trial_prime_divisors(n):
    """Distinct prime divisors of n >= 1, ascending, by trial division
    by every d >= 2."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


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


@functools.cache
def irreducible_orders(field, max_degree):
    """(f, ord f) for every monic irreducible f != x of degree
    1..max_degree, f by trial division (brute_irreducibles) and ord f,
    the order of x modulo f, by poly.order_of_x from q^(deg f) - 1.
    Cached, since the class oracles below ask for it per field."""
    x = Poly.x(field)
    out = []
    for f in brute_irreducibles(field, max_degree):
        if f != x:
            e = field.order ** f.degree - 1
            out.append((f, order_of_x(f, e, trial_prime_divisors(e))))
    return tuple(out)


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
    multiplication on the left (g m for each m in turn and each g),
    elements in discovery order."""
    ident = mat_identity(field, len(gens[0]))
    seen = {ident}
    out = [ident]
    queue = deque([ident])
    while queue:
        m = queue.popleft()
        for g in gens:
            w = mat_mul(field, g, m)
            if w not in seen:
                seen.add(w)
                out.append(w)
                queue.append(w)
    return out


def perm_closure(field, gens, cap=GROUP_CAP):
    """Breadth-first closure of the generators on whole permutations,
    yielding each element's permutation_of in the order brute_closure
    finds it: the oracle the census and fixed-point tallies read.

    The product g m acts as m then g, so its permutation is pg[pm[i]]
    for each position i, composed by one itemgetter over pm.  Elements
    are keyed by the positions their permutations send the basis vectors
    to, and composed only when the key is new.  Raises CapExceededError
    past cap elements."""
    gen_perms = [permutation_of(field, g) for g in gens]
    basis = [field.order ** (len(gens[0]) - 1 - j) - 1
             for j in range(len(gens[0]))]
    ident = tuple(range(len(gen_perms[0])))
    seen = {tuple(basis)}
    queue = deque([ident])
    while queue:
        pm = queue.popleft()
        # A single position (the trivial GL(1, 2)) is never composed,
        # since its one key is already seen.
        compose = itemgetter(*pm)
        for pg in gen_perms:
            key = tuple(pg[pm[b]] for b in basis)
            if key not in seen:
                if len(seen) >= cap:
                    raise CapExceededError(
                        "group closure exceeded cap %d" % cap)
                seen.add(key)
                queue.append(compose(pg))
        yield pm


def basis_key(field, A):
    """The positions of A's columns, the images of e_0, ..., e_(n-1), in
    nonzero_vectors order, by vector_rank: the key group.closure gives
    the element A."""
    return tuple(vector_rank(field, col) - 1 for col in zip(*A))


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


def prime_mat_mul(field, A, B):
    """A B over a prime field by plain integer sums, each entry reduced
    mod p once: the reference for group.mat_mul there, with no Field
    arithmetic."""
    assert field.base is None
    n = len(A)
    return tuple(tuple(sum(A[i][k] * B[k][j] for k in range(n)) % field.p
                       for j in range(n))
                 for i in range(n))


def mat_vec(field, A, v):
    """A v by one multiply-accumulate loop over field.muladd per entry:
    the oracle for group.permutation_of, which builds its images by
    linearity instead."""
    z = field.zero_rep
    out = []
    for row in A:
        acc = z
        for a, b in zip(row, v):
            if a != z and b != z:
                acc = field.muladd(acc, a, b)
        out.append(acc)
    return tuple(out)


def prime_mat_vec(field, A, v):
    """A v over a prime field by plain integer sums: the reference for
    mat_vec there."""
    assert field.base is None
    return tuple(sum(a * c for a, c in zip(row, v)) % field.p for row in A)


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


def kernel_basis(field, A):
    """Basis of {v : A v = 0} for a square matrix A (rows of reps), by
    reduction to reduced row echelon form with field.sub and field.mul
    as in mat_inv: one vector per free column c, 1 at c, 0 at the other
    free columns and minus column c's entries at the pivots."""
    n = len(A)
    z, o = field.zero_rep, field.one_rep
    rows = [list(r) for r in A]
    pivots = []
    for c in range(n):
        r = len(pivots)
        pr = next((i for i in range(r, n) if rows[i][c] != z), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = field.inv(rows[r][c])
        rows[r] = [field.mul(inv, v) for v in rows[r]]
        for i in range(n):
            if i != r and rows[i][c] != z:
                f = rows[i][c]
                rows[i] = [field.sub(vi, field.mul(f, vr))
                           for vi, vr in zip(rows[i], rows[r])]
        pivots.append(c)
    basis = []
    for c in range(n):
        if c not in pivots:
            v = [z] * n
            v[c] = o
            for r, pc in enumerate(pivots):
                v[pc] = field.neg(rows[r][c])
            basis.append(v)
    return basis


def x_order(f):
    """Order of x modulo a monic f with nonzero constant term, by
    multiplying by x one step at a time: x^k mod f is kept as its n
    coefficients, and x x^k drops its top coefficient t into -t f.  x
    has order q^n - 1 exactly when f is primitive: its powers are then
    q^n - 1 units, so every nonzero residue is a unit, F_q[x]/(f) is a
    field and f is irreducible."""
    K, n = f.field, f.degree
    low = f.coeffs[:n]
    one = (K.one_rep,) + (K.zero_rep,) * (n - 1)
    cur, k = one, 0
    while True:
        top = cur[-1]
        cur = tuple(K.sub(prev, K.mul(top, c))
                    for prev, c in zip((K.zero_rep,) + cur[:-1], low))
        k += 1
        if cur == one:
            return k


def unit_order(field, c):
    """Multiplicative order of a nonzero c, by repeated multiplication."""
    a, k = c, 1
    while a != field.one_rep:
        a, k = field.mul(a, c), k + 1
    return k


def matrix_order(field, A, e):
    """Order of the matrix A, a divisor of e, by ff.multiplicative_order
    on powers of A taken by group.mat_pow, with the primes of e by trial
    division; None unless A^e = I."""
    ident = mat_identity(field, len(A))
    return multiplicative_order(e, trial_prime_divisors(e),
                                lambda m: mat_pow(field, A, m) == ident)


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


def gl_classes(n, field):
    """(parts, class size) for every similarity class of GL(n, q), one
    irreducible at a time.

    A class is a partition lam_f for each monic irreducible f != x with
    sum deg(f) |lam_f| = n; parts is the tuple of pairs (f, lam_f) with
    lam_f nonempty, in brute_irreducibles order.  The class size is
    |GL(n, q)| over the centralizer order, the product of the primary
    centralizer orders."""
    irreducibles = [f for f, _ in irreducible_orders(field, n)]
    order = gl_order(n, field.order)

    def walk(i, remaining, parts, cent):
        if remaining == 0:
            size, rest = divmod(order, cent)
            assert rest == 0, "centralizer order does not divide |GL|"
            yield tuple(parts), size
            return
        if i == len(irreducibles) or irreducibles[i].degree > remaining:
            return
        f = irreducibles[i]
        d = f.degree
        yield from walk(i + 1, remaining, parts, cent)
        for s in range(1, remaining // d + 1):
            for lam in partitions(s):
                yield from walk(
                    i + 1, remaining - d * s, parts + [(f, lam)],
                    cent * primary_centralizer_order(field.order ** d, lam))

    return list(walk(0, n, [], 1))


def class_census(n, field):
    """Cycle-type census of GL(n, q) over gl_classes: each class's type
    from linmono.group.class_cycle_type on its (deg f, ord f, lam_f)
    parts, counted with the class size."""
    ords = dict(irreducible_orders(field, n))
    ctr = Counter()
    for parts, size in gl_classes(n, field):
        ctr[class_cycle_type(
            field, [(f.degree, ords[f], lam) for f, lam in parts])] += size
    return CycleCensus(order=sum(ctr.values()),
                       counts=tuple(sorted(ctr.items())))


def class_representative(field, parts):
    """A matrix in the similarity class with primary parts
    ((f, lam_f), ...), as gl_classes yields them: block diagonal with
    one companion matrix of f^e per part e of lam_f."""
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
    permutation perm_closure composes for it."""
    S = singer_generator(n, field, seed)
    F = frobenius_matrix(n, field, seed)
    expected = n * (field.order ** n - 1)
    ctr = Counter(perm_cycle_type(perm)
                  for perm in perm_closure(field, [S, F], cap=expected + 1))
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


def _flatten(ctx, stop, rep, out):
    if ctx == stop:
        out.append(rep)
        return
    b = ctx.base
    if b is None:
        raise FieldMismatchError("%r is not a layer of %r" % (stop, ctx))
    for c in rep:
        _flatten(b, stop, c, out)


def _unflatten(ctx, stop, flat, pos):
    if ctx == stop:
        return flat[pos], pos + 1
    b = ctx.base
    coeffs = []
    for _ in range(ctx.degree):
        c, pos = _unflatten(b, stop, flat, pos)
        coeffs.append(c)
    return tuple(coeffs), pos


def root_space(L, E):
    """Basis (list of FieldElements of E) of the F_q-vector space
    {v in E : L(v) = 0}, where q is L's base order and E a field above
    L's coefficient field.

    E is flattened to an F_q-space of dimension [E : F_q]; v -> L(v) is
    F_q-linear there, and the kernel is read off by the row reduction of
    kernel_basis, written here apart from the elimination the program
    ranks with.  No characteristic polynomial, rank of a Frobenius
    matrix or factoring is involved."""
    K = L.base
    dim = _degree_over(E, K)
    cols = []
    for j in range(dim):
        flat = [K.zero_rep] * dim
        flat[j] = K.one_rep
        e_rep, _ = _unflatten(E, K, flat, 0)
        w = evaluate(L, FieldElement(E, e_rep))
        out = []
        _flatten(E, K, w.rep, out)
        cols.append(out)
    # matrix rows: M[i][j] = coordinate i of L(basis_j)
    M = [[cols[j][i] for j in range(dim)] for i in range(dim)]
    roots = []
    for vec in kernel_basis(K, M):
        rep, _ = _unflatten(E, K, vec, 0)
        roots.append(FieldElement(E, rep))
    return roots
