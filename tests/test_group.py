"""Matrix groups over finite fields: Singer cycles, Frobenius conjugation,
group closure, cycle types, censuses."""

import pytest

from linmono.ff import CapExceededError, make_field
from linmono.group import (CLASS_CENSUS_CAP, census, companion_matrix,
                           cycle_type_of, frobenius_matrix, generate_group,
                           gl_census, gl_classes, gl_elements, gl_order,
                           mat_det, mat_identity, mat_inv, mat_mul, mat_pow,
                           mat_vec, monic_irreducibles, normalizer_census,
                           normalizer_elements, nonzero_vectors, partitions,
                           perm_sign, primary_centralizer_order,
                           singer_generator, singer_modulus,
                           stabilizer_order, vector_rank)
from linmono.poly import Poly, is_irreducible, num_irreducible

F2 = make_field(2)
F3 = make_field(3)
F4 = make_field(2, 2)
F5 = make_field(5)
F7 = make_field(7)


def test_matrix_arithmetic_basics():
    I = mat_identity(F3, 2)
    A = ((F3.scalar_rep(1), F3.scalar_rep(2)),
         (F3.scalar_rep(0), F3.scalar_rep(1)))
    assert mat_mul(F3, A, I) == A
    assert mat_mul(F3, I, A) == A
    assert mat_pow(F3, A, 0) == I
    assert mat_pow(F3, A, 3) == mat_mul(F3, A, mat_mul(F3, A, A))
    Ainv = mat_inv(F3, A)
    assert mat_mul(F3, A, Ainv) == I
    assert mat_det(F3, A) == F3.scalar_rep(1)
    singular = ((F3.scalar_rep(1), F3.scalar_rep(2)),
                (F3.scalar_rep(2), F3.scalar_rep(1)))
    assert mat_det(F3, singular) == F3.scalar_rep(0)
    with pytest.raises(ZeroDivisionError):
        mat_inv(F3, singular)


def test_det_multiplicative():
    import random
    rng = random.Random(3)
    mats = []
    while len(mats) < 6:
        A = tuple(tuple(F3.rep_at(rng.randrange(3)) for _ in range(3))
                  for _ in range(3))
        if mat_det(F3, A) != F3.zero_rep:
            mats.append(A)
    for A in mats:
        for B in mats:
            lhs = mat_det(F3, mat_mul(F3, A, B))
            rhs = F3.mul(mat_det(F3, A), mat_det(F3, B))
            assert lhs == rhs


def test_singer_modulus_is_primitive():
    f = singer_modulus(3, F3)
    assert f.degree == 3
    assert is_irreducible(f)
    # primitivity shows as the companion matrix having full order, which
    # singer_generator asserts internally
    S = singer_generator(3, F3)
    I = mat_identity(F3, 3)
    assert mat_pow(F3, S, 26) == I
    assert mat_pow(F3, S, 13) != I
    assert mat_pow(F3, S, 2) != I


def test_singer_deterministic_and_seed_sensitive():
    assert singer_modulus(3, F3, 0) == singer_modulus(3, F3, 0)
    assert singer_generator(2, F3, 0) == singer_generator(2, F3, 0)


def test_frobenius_conjugation_relation():
    """F S F^-1 = S^q: conjugation by the field Frobenius raises the
    Singer generator to the q-th power."""
    for n, field in ((2, F3), (3, F3), (3, F2), (2, F2)):
        q = field.order
        S = singer_generator(n, field)
        F = frobenius_matrix(n, field)
        lhs = mat_mul(field, mat_mul(field, F, S), mat_inv(field, F))
        assert lhs == mat_pow(field, S, q)
        assert mat_pow(field, F, n) == mat_identity(field, n)


def test_generate_group_small():
    # <S> alone is cyclic of order q^n - 1
    S = singer_generator(2, F3)
    els = generate_group(F3, [S])
    assert len(els) == 8
    # adding F gives the full normalizer
    F = frobenius_matrix(2, F3)
    els2 = generate_group(F3, [S, F])
    assert len(els2) == 16
    with pytest.raises(CapExceededError):
        generate_group(F3, [S, F], cap=10)
    with pytest.raises(ValueError):
        generate_group(F3, [((F3.zero_rep,),)])  # singular


def test_nonzero_vectors_and_rank():
    vecs = nonzero_vectors(F3, 2)
    assert len(vecs) == 8
    assert len(set(vecs)) == 8
    for i, v in enumerate(vecs):
        assert vector_rank(F3, v) == i + 1


def test_cycle_type_identity_and_singer():
    I = mat_identity(F3, 2)
    assert cycle_type_of(F3, I) == (1,) * 8
    S = singer_generator(2, F3)
    assert cycle_type_of(F3, S) == (8,)
    S3 = singer_generator(3, F3)
    assert cycle_type_of(F3, S3) == (26,)


def test_cycle_type_lengths_divide_element_order():
    S = singer_generator(3, F2)
    F = frobenius_matrix(3, F2)
    for A in generate_group(F2, [S, F]):
        ct = cycle_type_of(F2, A)
        assert sum(ct) == 7
        # each cycle length divides the matrix order
        order = 1
        M = A
        I = mat_identity(F2, 3)
        while M != I:
            M = mat_mul(F2, M, A)
            order += 1
        for d in ct:
            assert order % d == 0


def test_perm_sign():
    assert perm_sign((1, 1, 1)) == 1
    assert perm_sign((2,)) == -1
    assert perm_sign((1, 2)) == -1
    assert perm_sign((3,)) == 1
    assert perm_sign((2, 2)) == 1
    assert perm_sign((26,)) == -1  # a 26-cycle is odd


def test_stabilizer_orders_in_normalizer():
    for n, field in ((2, F3), (3, F2)):
        els = normalizer_elements(n, field)
        for v in nonzero_vectors(field, n):
            assert stabilizer_order(field, els, v) == n


def test_gl_order_formula():
    assert gl_order(1, 3) == 2
    assert gl_order(2, 2) == 6
    assert gl_order(3, 2) == 168
    assert gl_order(2, 3) == 48
    assert gl_order(3, 3) == 11232


def test_gl_elements_count_and_invertibility():
    els = gl_elements(2, F3)
    assert len(els) == 48
    for A in els:
        assert mat_det(F3, A) != F3.zero_rep
    assert len(set(els)) == 48


def test_gl_census_2_2_contains_transposition():
    cen = gl_census(2, F2)
    assert cen.order == 6
    # GL(2,2) acting on 3 nonzero vectors is the full symmetric group:
    # it contains odd elements
    assert any(perm_sign(t) == -1 for t, _ in cen.counts)
    assert (1, 1, 1) in cen
    assert (3,) in cen
    assert (1, 2) in cen


def test_census_counts_sum_to_order():
    cen = gl_census(2, F3)
    assert cen.order == 48
    assert sum(c for _, c in cen.counts) == 48
    assert (8,) in cen  # the Singer cycle
    assert cen.count_of((1,) * 8) == 1  # only the identity fixes all


def test_normalizer_census_subset_of_gl_census():
    gl = gl_census(2, F3)
    nc = normalizer_census(2, F3)
    assert nc.order == 16
    assert nc.types() <= gl.types()
    assert sum(c for _, c in nc.counts) == 16


def test_normalizer_census_fixed_point_types_all_odd():
    """The load-bearing structure fact for (n, q) = (3, 3): every
    normalizer element with a fixed point has only odd cycle lengths
    with lcm dividing 3.  The normalizer as a whole is NOT inside the
    alternating group -- multiplication by -1 is thirteen 2-cycles --
    so only the fixed-point condition separates it from GL."""
    import math
    nc = normalizer_census(3, F3)
    assert nc.order == 78
    for t, _ in nc.counts:
        if 1 in t:
            lcm = 1
            for d in t:
                lcm = math.lcm(lcm, d)
            assert all(d % 2 == 1 for d in t)
            assert 3 % lcm == 0
    # the odd element of order 2 really is present
    assert (2,) * 13 in nc
    assert perm_sign((2,) * 13) == -1


def test_gl_census_cap():
    with pytest.raises(CapExceededError):
        gl_elements(3, F5)  # 5^9 > 3^9 cap


# -- class census ------------------------------------------------------------

def test_partitions_and_irreducibles():
    assert list(partitions(0)) == [()]
    assert list(partitions(4)) == [(4,), (3, 1), (2, 2), (2, 1, 1),
                                   (1, 1, 1, 1)]
    assert [len(list(partitions(s))) for s in range(1, 8)] \
        == [1, 2, 3, 5, 7, 11, 15]
    for field in (F2, F3, F4):
        for d in (1, 2, 3):
            irr = monic_irreducibles(field, d)
            # x is the one monic irreducible left out
            assert len(irr) == num_irreducible(field.order, d) - (d == 1)
            assert all(f.degree == d and is_irreducible(f) for f in irr)


def test_primary_centralizer_orders():
    Q = 5
    # a regular semisimple part: GL(1, Q)
    assert primary_centralizer_order(Q, (1,)) == Q - 1
    # a scalar part: all of GL(2, Q) or GL(3, Q)
    assert primary_centralizer_order(Q, (1, 1)) == gl_order(2, Q)
    assert primary_centralizer_order(Q, (1, 1, 1)) == gl_order(3, Q)
    # a single Jordan block: polynomials in it, Q^(k-1) (Q - 1)
    assert primary_centralizer_order(Q, (3,)) == Q ** 2 * (Q - 1)


def test_companion_matrix_is_a_root_of_its_polynomial():
    f = Poly(F3, [1, 2, 0, 1])   # x^3 + 2x + 1
    C = companion_matrix(F3, f)
    # Horner: acc <- acc * C + c * I, from the leading coefficient down
    acc = tuple((F3.zero_rep,) * 3 for _ in range(3))
    for c in reversed(f.coeffs):
        acc = mat_mul(F3, acc, C)
        acc = tuple(tuple(F3.add(a, c) if i == j else a
                          for j, a in enumerate(row))
                    for i, row in enumerate(acc))
    assert all(a == F3.zero_rep for row in acc for a in row)


@pytest.mark.parametrize("field, n", [(F2, 2), (F3, 2), (F4, 2), (F5, 2),
                                      (F2, 3), (F3, 3)])
def test_class_census_equals_enumeration(field, n):
    """The class census against brute force: every invertible matrix,
    each permuting every nonzero vector."""
    assert gl_census(n, field) == census(field, gl_elements(n, field))


@pytest.mark.parametrize("field", [F2, F3, F4, F5, F7])
def test_class_counts_and_sizes(field):
    q = field.order
    for n, expected in ((1, q - 1), (2, q * q - 1), (3, q ** 3 - q)):
        classes = list(gl_classes(n, field))
        assert len(classes) == expected
        assert sum(size for _, size in classes) == gl_order(n, q)
        assert all(mat_det(field, A) != field.zero_rep for A, _ in classes)


def _fixed_point_test(q, cycle_type):
    """The points fixed by g^m form a subspace: for every m, 1 plus the
    points in cycles of length dividing m is a power of q."""
    for m in range(1, max(cycle_type) + 1):
        fixed = 1 + sum(c for c in cycle_type if m % c == 0)
        while fixed % q == 0:
            fixed //= q
        if fixed != 1:
            return False
    return True


@pytest.mark.parametrize("field, n", [(F3, 4), (F2, 5), (F7, 3)])
def test_class_census_beyond_enumeration(field, n):
    q = field.order
    cen = gl_census(n, field)
    assert cen.order == gl_order(n, q)
    assert sum(c for _, c in cen.counts) == cen.order
    assert cen.count_of((1,) * (q ** n - 1)) == 1
    for t, _ in cen.counts:
        assert sum(t) == q ** n - 1
        assert _fixed_point_test(q, t)
    # a Singer cycle lies in GL(n, q)
    assert (q ** n - 1,) in cen


def test_class_census_cap():
    assert 3 ** 5 <= CLASS_CENSUS_CAP < 3 ** 6
    with pytest.raises(CapExceededError):
        gl_census(6, F3)
    with pytest.raises(ValueError):
        list(gl_classes(-1, F3))
