"""q-linearized polynomials: evaluation, specialization, dense forms,
root spaces, square classes."""

import itertools
import math

import pytest
from hypothesis import given, settings, strategies as st

from linmono import linpoly
from linmono.ff import (FieldMismatchError, extend_field, make_field,
                        parse_field_spec, prime_divisors)
from linmono.linpoly import (LinPoly, SquareClass, disc_square_class,
                             evaluate, frobenius_cycle_type, parse_linpoly,
                             reduced, root_space, specialize, square_class,
                             to_poly)
from linmono.poly import Poly, discriminant, factor_degrees

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
    denseE = to_poly(L, target=E)
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
    k <= 2 once q^n > 27.  With a claimed exponent the result is the
    dense type when every dense length divides it and None otherwise:
    the lcm passes, the lcm over any of its primes does not."""
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
    lcm = math.lcm(*dense)
    assert frobenius_cycle_type(La, lcm) == dense
    for r in prime_divisors(lcm):
        assert frobenius_cycle_type(La, lcm // r) is None
    claim = data.draw(st.integers(1, 4 * lcm), label="claim")
    want = dense if all(claim % d == 0 for d in dense) else None
    assert frobenius_cycle_type(La, claim) == want


@pytest.mark.parametrize("spec,n,kmax", [("2", 3, 3), ("3", 2, 2),
                                          ("3", 3, 2), ("4", 2, 2),
                                          ("2", 4, 3)])
def test_frobenius_cycle_type_exhaustive(spec, n, kmax):
    """Every monic L with a_0 = 0 and every alpha in F_{q^k}, k <= kmax:
    the linear path equals dense factoring, cyclic N or not, with and
    without the lcm as a claimed exponent.  At q = 2, n = 4, k = 3 some
    e_0 is not a cyclic vector of N and its first dependence has
    coefficients outside F_q (x^16 + x^8 + x^4 and x^16 + x^4 + x^2)."""
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
                    assert frobenius_cycle_type(La, math.lcm(*dense)) \
                        == dense, (mid, k, i)


@pytest.mark.parametrize("spec,lin,k", [
    ("3", "0,1,0,1", 2),     # x^27 + x^3, alpha in F_9
    ("3", "1,2,1", 2),
    ("2", "0,1,1,1", 3),     # characteristic 2
    ("2", "0,1,1,1", 2),     # mu of degree 2 < n: ranks from N^j
    ("3", "0,2,1,1", 2),     # the same for q = 3
    ("3", "0,0,1", 2),       # x^9 - x over F_9: N = I
    ("4", "0,[0,1],1", 2),   # F_16 as a tower over F_4
    ("5", "0,3,1", 1),
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


def test_frobenius_cycle_type_errors():
    with pytest.raises(ValueError):
        frobenius_cycle_type(LinPoly(F3, [0, 1, 1]))  # a_0 = 0
    E = extend_field(F3, 2)
    # an element of F_9 outside F_3 is an internal failure, not bad input
    with pytest.raises(AssertionError):
        linpoly._down(E, F3, E.element_at(4).rep)
    assert linpoly._down(E, F3, E.element_at(2).rep) == 2
