"""q-linearized polynomials: evaluation, specialization, dense forms,
root spaces, square classes."""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from _oracles import kernel_basis, root_space
from linmono import group as group_mod
from linmono import linpoly
from linmono.ff import (FieldMismatchError, extend_field, make_field,
                        multiplicative_order, parse_field_spec,
                        prime_divisors)
from linmono.linpoly import (LinPoly, SquareClass, disc_square_class,
                             evaluate, frobenius_cycle_type, parse_linpoly,
                             reduced, specialize, square_class, to_poly)
from linmono.poly import (Poly, discriminant, factor_degrees, is_irreducible,
                          order_of_x)

F2 = make_field(2)
F3 = make_field(3)
F5 = make_field(5)
F9 = make_field(3, 2)


def test_construction_and_properties():
    L = LinPoly(F3, [0, 1, 0, 1])
    assert L.q == 3
    assert L.qdeg == 3
    assert L.is_monic
    assert L.coeff_objs() == [0, 1, 0, 1]
    with pytest.raises(ValueError):
        LinPoly(F3, [1, 0])       # zero leading coefficient
    with pytest.raises(ValueError):
        LinPoly(F3, [])


def test_parse_linpoly():
    L = parse_linpoly(F3, "0,1,0,1")
    assert L.coeff_objs() == [0, 1, 0, 1]
    M = parse_linpoly(F9, "0,[1,1],1")
    # serialized form is always the full coefficient vector over the base
    assert M.coeff_objs() == [[0, 0], [1, 1], [1, 0]]


def test_coefficients_above_base_field():
    E = extend_field(F3, 2)
    L = LinPoly(F3, [0, E.element_at(5), E.one()], field=E)
    assert L.q == 3
    assert L.field.order == 9
    with pytest.raises(FieldMismatchError):
        LinPoly(make_field(2), [0, 1], field=F9)


def test_evaluate_is_additive():
    L = LinPoly(F3, [1, 2, 1])  # x^9 + 2x^3 + x
    E = extend_field(F3, 3)
    pts = [E.element_at(i) for i in (0, 1, 5, 11, 20)]
    for a in pts:
        for b in pts:
            assert evaluate(L, a + b) == evaluate(L, a) + evaluate(L, b)
    # F_q-scalar linearity
    for a in pts:
        for c in range(3):
            assert evaluate(L, a * c) == evaluate(L, a) * c


def test_evaluate_agrees_with_dense_poly():
    L = LinPoly(F3, [2, 1, 1])
    dense = to_poly(L)
    for a in F3.elements():
        assert evaluate(L, a) == dense.evaluate(a)
    E = extend_field(F3, 2)
    denseE = to_poly(LinPoly(F3, [2, 1, 1], field=E))  # L's a_i in E
    for i in range(9):
        a = E.element_at(i)
        assert evaluate(L, a) == denseE.evaluate(a)


def test_to_poly_and_reduced_shapes():
    L = LinPoly(F2, [0, 1, 1])  # x^4 + x^2
    dense = to_poly(L)
    assert dense.degree == 4
    assert dense.coefficient(4).to_obj() == 1
    assert dense.coefficient(2).to_obj() == 1
    r = reduced(L)
    assert r.degree == 3
    assert r.coefficient(1).to_obj() == 1  # a_1 at exponent q^1 - 1
    assert r.coefficient(3).to_obj() == 1


def test_specialize_makes_alpha_a_root():
    L = LinPoly(F3, [0, 1, 0, 1])
    for k in (1, 2, 3):
        E = extend_field(F3, k)
        for i in (1, 2, min(5, E.order - 1)):
            alpha = E.element_at(i)
            if evaluate(L, alpha).is_zero:
                continue
            La = specialize(L, alpha)
            assert evaluate(La, alpha).is_zero
            # only the x coefficient moved
            assert La.coeff_objs()[1:] == [
                E.elem(c).to_obj() for c in L.coeffs[1:]]
    with pytest.raises(ValueError):
        specialize(L, F3.zero())


def test_specialized_reduced_is_squarefree_when_value_nonzero():
    from linmono.poly import is_squarefree
    L = LinPoly(F3, [0, 1, 1])  # x^9 + x^3
    E = extend_field(F3, 2)
    for i in range(1, 9):
        alpha = E.element_at(i)
        if evaluate(L, alpha).is_zero:
            continue
        assert is_squarefree(reduced(specialize(L, alpha)))


def test_root_space_dimension_and_membership():
    # x^9 - x kills every element of F_9, so its kernel there is the
    # whole field: dimension 2.  Coefficient i multiplies x^(q^i), so
    # the x coefficient is a_0.
    L = LinPoly(F3, [2, 0, 1])  # x^9 + 2x = x^9 - x
    E = extend_field(F3, 2)
    basis = root_space(L, E)
    assert len(basis) == 2
    # x^3 - x has kernel F_3 inside F_9: dimension 1
    M = LinPoly(F3, [2, 1])
    basisM = root_space(M, E)
    assert len(basisM) == 1
    for b in basisM:
        assert evaluate(M, b).is_zero
    # and the monomial x^3 has trivial kernel
    N = LinPoly(F3, [0, 1])
    assert root_space(N, E) == []


@pytest.mark.parametrize("spec", ["3", "4", "5"])
def test_kernel_basis_counts_the_kernel(spec):
    """The oracle's own elimination against counting every v with
    A v = 0: q^len(basis) kernel vectors, each basis vector among them,
    and linpoly._rank the rest of the 3 columns.  Random 3 x 3
    matrices, some made singular by a repeated row."""
    K = parse_field_spec(spec)
    reps = [K.rep_at(i) for i in range(K.order)]
    rng = random.Random(K.order)

    def apply(A, v):
        out = []
        for row in A:
            acc = K.zero_rep
            for a, x in zip(row, v):
                acc = K.add(acc, K.mul(a, x))
            out.append(acc)
        return out

    zero = [K.zero_rep] * 3
    for trial in range(12):
        A = [[rng.choice(reps) for _ in range(3)] for _ in range(3)]
        if trial % 3 == 0:
            A[2] = list(A[0])
        if trial % 4 == 0:
            A = [[K.zero_rep] * 3] + A[1:]
        kernel = [v for v in itertools.product(reps, repeat=3)
                  if apply(A, v) == zero]
        basis = kernel_basis(K, A)
        assert len(kernel) == K.order ** len(basis)
        assert all(apply(A, v) == zero for v in basis)
        assert linpoly._rank(K, A) == 3 - len(basis)


def test_root_space_spans_distinct_elements():
    L = LinPoly(F2, [0, 1, 1])  # x^4 + x^2 = (x^2 + x)^2: kernel = F_2
    E = extend_field(F2, 3)
    basis = root_space(L, E)
    # kernel of x^4 + x^2 inside F_8: solutions of x^2 = x, i.e. F_2
    assert len(basis) == 1
    assert evaluate(L, basis[0]).is_zero


def test_square_class_partition():
    classes = {i: square_class(F5.element_at(i)) for i in range(5)}
    assert classes[0] is SquareClass.ZERO
    sq = {i for i, c in classes.items() if c is SquareClass.SQUARE}
    ns = {i for i, c in classes.items() if c is SquareClass.NONSQUARE}
    assert sq == {1, 4}
    assert ns == {2, 3}
    # classes of products multiply like signs, zero absorbing
    sign = {SquareClass.ZERO: 0, SquareClass.SQUARE: 1,
            SquareClass.NONSQUARE: -1}
    for i in range(5):
        for j in range(5):
            prod = square_class(F5.element_at(i) * F5.element_at(j))
            assert sign[prod] == sign[classes[i]] * sign[classes[j]]


def test_disc_square_class_matches_resultant_discriminant():
    """The closed form equals the square class of the honest
    discriminant of L(x)/x, across every monic L with a_0 != 0 for
    (q, n) = (3, 2) and (5, 1)."""
    for field, n in ((F3, 2), (F5, 1)):
        q = field.order
        for a0 in range(1, q):
            for rest in range(q ** (n - 1)):
                coeffs = [field.rep_at(a0)]
                v = rest
                for _ in range(n - 1):
                    coeffs.append(field.rep_at(v % q))
                    v //= q
                coeffs.append(field.one_rep)
                L = LinPoly(field, coeffs)
                direct = square_class(discriminant(reduced(L)))
                assert disc_square_class(L) is direct, L.coeff_objs()


def test_disc_square_class_rejects_bad_input():
    with pytest.raises(ValueError):
        disc_square_class(LinPoly(F3, [0, 1]))  # a_0 = 0
    with pytest.raises(ValueError):
        disc_square_class(LinPoly(F2, [1, 1]))  # characteristic 2


def test_monomial_specialization_disc_always_square():
    """For L = x^(q^n), the specialized discriminant class is Square at
    every alpha -- the reason the monomial case has no witness."""
    L = LinPoly(F3, [0, 0, 0, 1])  # x^27
    for k in (1, 2, 3):
        E = extend_field(F3, k)
        for i in range(1, min(E.order, 30)):
            alpha = E.element_at(i)
            La = specialize(L, alpha)
            assert disc_square_class(La) is SquareClass.SQUARE


def test_cross_context_equality_raises():
    L1 = LinPoly(F3, [0, 1])
    L2 = LinPoly(F9, [0, 1])
    with pytest.raises(FieldMismatchError):
        _ = L1 == L2


def test_specialization_factor_degrees_example():
    # L = x^9 over F_3 at alpha = 1: L_alpha = x^9 - x, reduced = x^8 - 1
    L = LinPoly(F3, [0, 0, 1])
    La = specialize(L, F3.one())
    assert La.coeff_objs() == [2, 0, 1]  # x^9 - x: the shift lands on a_0
    assert factor_degrees(reduced(La)) == (1, 1, 2, 2, 2)


BASES = {q: parse_field_spec(str(q)) for q in (2, 3, 4, 5, 7, 9)}


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_frobenius_cycle_type_equals_dense_factor_degrees(data):
    """The n x n linear-algebra path and dense distinct-degree factoring
    agree on random L, k and alpha, over prime fields, F_4 and F_9 (so
    E is a tower over a non-prime base) and characteristic 2.  Sizes are
    kept where the dense side stays fast: n = 3 only below q = 7, and
    k <= 2 once q^n > 27."""
    q = data.draw(st.sampled_from(sorted(BASES)), label="q")
    K = BASES[q]
    n = data.draw(st.integers(1, 3 if q < 7 else 2), label="n")
    k = data.draw(st.integers(1, 4 if q ** n <= 27 else 2), label="k")
    coeffs = [data.draw(st.integers(0, q - 1)) for _ in range(n)]
    coeffs.append(data.draw(st.integers(1, q - 1), label="a_n"))
    L = LinPoly(K, [K.rep_at(c) for c in coeffs])
    E = extend_field(K, k)
    alpha = E.element_at(data.draw(st.integers(1, E.order - 1),
                                   label="alpha"))
    La = specialize(L, alpha)
    if La.coeffs[0] == E.zero_rep:
        with pytest.raises(ValueError):
            frobenius_cycle_type(La)
        return
    dense = factor_degrees(reduced(La))
    assert frobenius_cycle_type(La) == dense


@pytest.mark.parametrize("spec,n,kmax", [("2", 3, 3), ("3", 2, 2),
                                          ("3", 3, 2), ("4", 2, 2),
                                          ("2", 4, 3)])
def test_frobenius_cycle_type_exhaustive(spec, n, kmax):
    """Every monic L with a_0 = 0 and every alpha in F_{q^k}, k <= kmax:
    the linear path equals dense factoring, cyclic N or not.  At q = 2,
    n = 4, k = 3 some e_0 is not a cyclic vector of N and its first
    dependence has coefficients outside F_q (x^16 + x^8 + x^4 and
    x^16 + x^4 + x^2)."""
    K = parse_field_spec(spec)
    q = K.order
    for mid in itertools.product(range(q), repeat=n - 1):
        L = LinPoly(K, [0] + [K.rep_at(c) for c in mid] + [1])
        for k in range(1, kmax + 1):
            E = extend_field(K, k)
            for i in range(1, E.order):
                La = specialize(L, E.element_at(i))
                if La.coeffs[0] != E.zero_rep:
                    dense = factor_degrees(reduced(La))
                    assert frobenius_cycle_type(La) == dense, (mid, k, i)


@pytest.mark.parametrize("spec,lin,k", [
    ("3", "0,1,0,1", 2),     # x^27 + x^3, alpha in F_9
    ("3", "1,2,1", 2),
    ("2", "0,1,1,1", 3),     # characteristic 2
    ("2", "0,1,1,1", 2),     # N not cyclic: ranks of f(N)^j
    ("3", "0,2,1,1", 2),     # the same for q = 3
    ("3", "0,0,1", 2),       # x^9 - x over F_9: N = I
    ("4", "0,[0,1],1", 2),   # F_16 as a tower over F_4
    ("5", "0,3,1", 1),
    # n = 23: N is not cyclic at every alpha of F_4
    ("2", "0,1,1," + "0," * 20 + "1", 2),
])
def test_fixed_counts_equal_root_space_dimensions(spec, lin, k):
    """The m-th Frobenius power fixes 1 + (sum of the cycle lengths that
    divide m) roots, and those are exactly the roots of L_alpha in
    F_{q^(km)}: q^dim root_space."""
    K = parse_field_spec(spec)
    L = parse_linpoly(K, lin)
    E = extend_field(K, k)
    seen = 0
    for i in range(1, E.order):
        La = specialize(L, E.element_at(i))
        if La.coeffs[0] == E.zero_rep:
            continue
        ct = frobenius_cycle_type(La)
        for m in (1, 2, 3):
            fixed = 1 + sum(d for d in ct if m % d == 0)
            assert K.order ** len(root_space(La, extend_field(E, m))) \
                == fixed, (i, m, ct)
        seen += 1
        if seen == 4:
            break
    assert seen > 0


@pytest.mark.parametrize("spec,lin,k,idx,ct", [
    ("2", "0,1,1,1", 2, 1, (1, 1, 1, 2, 2)),
    ("3", "0,0,1,1", 4, 10, (1,) * 8 + (3,) * 6),
])
def test_frobenius_cycle_type_repeated_linear_factor(spec, lin, k, idx, ct):
    """mu = (x - 1)^2 with n = 3: N - I is nonzero and squares to zero,
    so N is not cyclic and its 1-primary part is (2, 1).  The linear
    factor's order comes from field powers, the partition from ranks."""
    K = parse_field_spec(spec)
    E = extend_field(K, k)
    La = specialize(parse_linpoly(K, lin), E.element_at(idx))
    N = linpoly._frobenius_matrix(La)
    A = [[E.sub(v, E.one_rep if i == j else E.zero_rep)
          for j, v in enumerate(row)] for i, row in enumerate(N)]
    zero = tuple((E.zero_rep,) * 3 for _ in range(3))
    assert tuple(map(tuple, A)) != zero
    assert group_mod.mat_mul(E, A, A) == zero
    assert frobenius_cycle_type(La) == ct == factor_degrees(reduced(La))


def _test_matrices(K, rng):
    """Seeded n x n matrices over K, n <= 8, as lists of rows: dense,
    singular, nilpotent (strictly lower triangular), already Hessenberg,
    one whose first subdiagonal entry is 0 above a nonzero entry (the row
    and column swap), and one whose first column is cleared below the
    diagonal (the skipped column)."""
    z = K.zero_rep
    for n in range(1, 9):
        M = [[K.random_rep(rng) for _ in range(n)] for _ in range(n)]
        yield M
        yield M[:-1] + [M[0]]
        yield [[v if j < i else z for j, v in enumerate(row)]
               for i, row in enumerate(M)]
        yield [[v if i <= j + 1 else z for j, v in enumerate(row)]
               for i, row in enumerate(M)]
        if n >= 3:
            S = [row[:] for row in M]
            S[1][0], S[2][0] = z, K.rep_at(1 + rng.randrange(K.order - 1))
            yield S
            yield [row if i == 0 else [z] + row[1:]
                   for i, row in enumerate(M)]


def _companions(K, rng):
    """(f, C(f)) for seeded monic f of degree 1..8 over K."""
    for n in range(1, 9):
        f = Poly(K, [K.random_rep(rng) for _ in range(n)] + [K.one_rep])
        yield f, group_mod.companion_matrix(K, f)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_charpoly_matches_sympy(p):
    """_charpoly's Hessenberg reduction and block recurrence give sympy's
    characteristic polynomial reduced mod p, swap and skipped column
    included, and a companion matrix gives its own polynomial."""
    sympy = pytest.importorskip("sympy")
    K = make_field(p)
    rng = random.Random("linmono.test.charpoly:%d" % p)
    for M in _test_matrices(K, rng):
        want = sympy.Matrix(M).charpoly().all_coeffs()[::-1]
        assert linpoly._charpoly(K, M) == [int(c) % p for c in want], M
    for f, C in _companions(K, rng):
        assert linpoly._charpoly(K, C) == list(f.coeffs)


@pytest.mark.parametrize("spec", ["4", "9", "2^2+2"])
def test_charpoly_over_extension_fields(spec):
    """Over F_4, F_9 and the tower F_16 over F_4: chi is monic of
    degree n, its x^(n-1) coefficient is minus the trace, chi(M) = 0,
    and a companion matrix gives its own polynomial."""
    K = parse_field_spec(spec)
    rng = random.Random("linmono.test.charpoly:%s" % spec)
    for M in _test_matrices(K, rng):
        n = len(M)
        chi = linpoly._charpoly(K, M)
        assert len(chi) == n + 1 and chi[n] == K.one_rep
        trace = K.zero_rep
        for i in range(n):
            trace = K.add(trace, M[i][i])
        assert chi[n - 1] == K.neg(trace)
        A = group_mod.mat_identity(K, n)
        for c in reversed(chi[:-1]):  # Horner: chi(M)
            A = [[K.add(v, c) if i == j else v for j, v in enumerate(row)]
                 for i, row in enumerate(group_mod.mat_mul(K, A, M))]
        assert all(v == K.zero_rep for row in A for v in row), M
    for f, C in _companions(K, rng):
        assert linpoly._charpoly(K, C) == list(f.coeffs)


def _conjugate(K, A, rng):
    """P A P^-1 for a seeded product P of transvections: row i += u row
    j, then column j -= u column i."""
    A = [list(row) for row in A]
    n = len(A)
    for _ in range(4 * n):
        i, j = rng.sample(range(n), 2)
        u = K.random_rep(rng)
        A[i] = [K.muladd(a, u, b) for a, b in zip(A[i], A[j])]
        for row in A:
            row[j] = K.muladd(row[j], K.neg(u), row[i])
    return A


@pytest.mark.parametrize("spec", ["2", "3", "2^2+2"])
def test_primary_partition_of_block_sums(spec):
    """N = P (C(f^l_1) + C(f^l_2) + ...) P^-1 has f-primary partition
    lam = (l_1, l_2, ...): for every partition of every m >= 2 with
    deg f * m <= 8, for f = x - 1, x - c and an irreducible quadratic."""
    K = parse_field_spec(spec)
    rng = random.Random("linmono.test.primary:%s" % spec)
    fs = [Poly(K, [K.neg(K.rep_at(c)), K.one_rep])
          for c in (1, 2) if c < K.order]
    fs.append(next(f for f in (Poly(K, [K.rep_at(i), K.one_rep,
                                        K.one_rep])
                               for i in range(K.order))
                   if is_irreducible(f)))
    for f in fs:
        for m in range(2, 8 // f.degree + 1):
            for lam in group_mod.partitions(m):
                n = f.degree * m
                D = [[K.zero_rep] * n for _ in range(n)]
                at = 0
                for part in lam:
                    g = Poly.constant(K, 1)
                    for _ in range(part):
                        g = g * f
                    for i, row in enumerate(group_mod.companion_matrix(K, g)):
                        D[at + i][at:at + g.degree] = row
                    at += g.degree
                N = _conjugate(K, D, rng)
                assert linpoly._primary_partition(K, N, f, m) == lam, \
                    (f, lam)


@pytest.mark.parametrize("spec,lin,k", [("3", "0,1,0,1", 3),
                                        ("2", "1,0,1,1", 4),
                                        ("4", "0,[0,1],1", 3)])
def test_frobenius_matrix_equals_companion_product(spec, lin, k):
    """The column-shift product equals the matrix product of the twisted
    companion matrices C, C^(q), ..., C^(q^(k-1)) in the same order."""
    K = parse_field_spec(spec)
    E = extend_field(K, k)
    L = parse_linpoly(K, lin)
    for i in range(1, E.order, max(1, E.order // 12)):
        La = specialize(L, E.element_at(i))
        lead = E.inv(La.coeffs[-1])
        cs = [E.mul(c, lead) for c in La.coeffs[:-1]]
        N = None
        for _ in range(k):
            C = group_mod.companion_matrix(E, Poly(E, cs + [E.one_rep]))
            N = C if N is None else group_mod.mat_mul(E, N, C)
            cs = [E.pow(c, K.order) for c in cs]
        assert linpoly._frobenius_matrix(La) == N


@pytest.mark.parametrize("spec", ["2", "7", "3^2", "2^2+2"])
def test_linear_factor_order_is_the_order_of_x(spec):
    """x mod x - c has the order of c in F_q*, which
    frobenius_cycle_type finds by ff.multiplicative_order on K.pow; x
    itself has none."""
    K = parse_field_spec(spec)
    q = K.order
    primes = prime_divisors(q - 1)

    def order_in_k(c):
        return multiplicative_order(q - 1, primes,
                                    lambda m: K.pow(c, m) == K.one_rep)

    for i in range(1, q):
        c = K.rep_at(i)
        f = Poly(K, [K.neg(c), K.one_rep])
        assert order_in_k(c) == order_of_x(f, q - 1, primes)
    assert order_in_k(K.zero_rep) is None


def test_frobenius_cycle_type_errors():
    with pytest.raises(ValueError):
        frobenius_cycle_type(LinPoly(F3, [0, 1, 1]))  # a_0 = 0
    E = extend_field(F3, 2)
    # an element of F_9 outside F_3 is an internal failure, not bad input
    with pytest.raises(AssertionError):
        linpoly._down(E, F3, E.element_at(4).rep)
    assert linpoly._down(E, F3, E.element_at(2).rep) == 2
