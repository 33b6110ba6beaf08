"""Field towers: construction, arithmetic laws, enumeration, embedding."""

import random

import pytest

from linmono.ff import (TABLE_CAP, CapExceededError, Field, FieldElement,
                        FieldMismatchError, embed, extend_field, frobenius,
                        is_prime, is_square, log_tables, make_field,
                        parse_field_spec, prime_divisors)


def test_is_prime_small():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43,
              47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97, 101}
    for n in range(-2, 102):
        assert is_prime(n) == (n in primes)


def test_prime_divisors():
    assert prime_divisors(1) == []
    for n in range(2, 200):
        divs = prime_divisors(n)
        assert divs == sorted({d for d in range(2, n + 1)
                               if n % d == 0 and is_prime(d)})


def test_prime_field_basics():
    F5 = make_field(5)
    assert F5.order == 5
    assert F5.p == 5
    assert F5.degree == 1
    assert F5.spec_string() == "5"
    a = F5.elem(3)
    b = F5.elem(4)
    assert (a + b).to_obj() == 2
    assert (a * b).to_obj() == 2
    assert (a - b).to_obj() == 4
    assert (a / b).to_obj() == 2  # 3 * 4^-1 = 3 * 4 = 12 = 2
    assert (-a).to_obj() == 2
    assert (a ** 4).to_obj() == 1


def test_make_field_rejects_nonprime():
    with pytest.raises(ValueError):
        make_field(6)
    with pytest.raises(ValueError):
        make_field(1)


def test_extension_field_shape():
    F9 = make_field(3, 2)
    assert F9.order == 9
    assert F9.p == 3
    assert F9.degree == 2
    assert F9.base.order == 3
    assert F9.spec_string() == "3^2"
    # the modulus is a monic irreducible quadratic with nonzero constant
    assert len(F9.modulus) == 3
    assert F9.modulus[-1] == F9.base.one_rep
    assert F9.modulus[0] != F9.base.zero_rep


def test_structural_equality_and_determinism():
    a = make_field(3, 2)
    b = make_field(3, 2)
    assert a == b
    assert hash(a) == hash(b)
    assert a.modulus == b.modulus
    c = make_field(3, 2, seed=1)
    assert (c == a) == (c.modulus == a.modulus)


def test_tower_layers():
    T = parse_field_spec("3^2+3")
    assert T.order == 9 ** 3
    assert T.degree == 3
    assert T.base.order == 9
    layers = [f.order for f in T.layers()]
    assert layers == [729, 9, 3]
    assert T.has_layer(make_field(3))
    assert T.has_layer(make_field(3, 2))
    assert not T.has_layer(make_field(2))


def test_parse_field_spec_forms():
    assert parse_field_spec("7").order == 7
    assert parse_field_spec("2^5").order == 32
    assert parse_field_spec("49").order == 49       # plain prime power
    assert parse_field_spec("49").p == 7
    assert parse_field_spec("3^2+3+2").order == (9 ** 3) ** 2
    with pytest.raises(ValueError):
        parse_field_spec("6")
    with pytest.raises(ValueError):
        parse_field_spec("")
    with pytest.raises(ValueError):
        parse_field_spec("3^0")


def test_cardinality_cap():
    with pytest.raises(CapExceededError):
        make_field(3, 40)


@pytest.mark.parametrize("spec", ["2", "5", "3^2", "2^3", "3^2+2"])
def test_field_axioms_exhaustive(spec):
    """Commutativity, associativity, distributivity, inverses on the
    whole field (all orders here are <= 81)."""
    F = parse_field_spec(spec)
    els = list(F.elements())
    assert len(els) == F.order
    assert len({e.rep for e in els}) == F.order
    zero, one = F.zero(), F.one()
    for a in els:
        assert a + zero == a
        assert a * one == a
        assert a - a == zero
        assert a * zero == zero
        if not a.is_zero:
            assert a * a.inverse() == one
    rng = random.Random(7)
    triples = [(random.Random(i).randrange(F.order),
                rng.randrange(F.order), rng.randrange(F.order))
               for i in range(40)]
    for i, j, k in triples:
        a, b, c = F.element_at(i), F.element_at(j), F.element_at(k)
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


def test_multiplicative_group_order():
    for spec in ("5", "3^2", "2^3"):
        F = parse_field_spec(spec)
        for a in F.elements():
            if not a.is_zero:
                assert a ** (F.order - 1) == F.one()


def test_enumeration_roundtrip():
    F = make_field(3, 2)
    for i in range(F.order):
        assert F.index_of(F.rep_at(i)) == i
    # index 0 is zero; scalar images sit at indices 0..p-1
    assert F.rep_at(0) == F.zero_rep
    for c in range(3):
        assert F.scalar_rep(c) == F.rep_at(c)


def test_element_obj_roundtrip():
    T = parse_field_spec("3^2+2")
    for i in (0, 1, 17, 45, 80):
        e = T.element_at(i)
        assert T.rep_from_obj(e.to_obj()) == e.rep
    # ints embed as scalars, short vectors zero-pad
    assert T.rep_from_obj(2) == T.scalar_rep(2)
    F9 = make_field(3, 2)
    assert F9.rep_from_obj([1]) == F9.rep_from_obj([1, 0])


def test_cross_field_operations_raise():
    F9a = make_field(3, 2)
    F9b = make_field(3, 2, seed=1)
    assert F9a.modulus != F9b.modulus
    a = F9a.one()
    b = F9b.one()
    with pytest.raises(FieldMismatchError):
        _ = a + b
    with pytest.raises(FieldMismatchError):
        _ = a * b
    with pytest.raises(FieldMismatchError):
        _ = a == b


def test_scalar_mixing_with_ints():
    F9 = make_field(3, 2)
    g = F9.element_at(3)  # a non-scalar element
    assert g + 0 == g
    assert g * 1 == g
    assert (g + 2) - 2 == g
    assert 2 * g == g + g


def test_frobenius_is_field_automorphism_fixing_base():
    F9 = make_field(3, 2)
    T = extend_field(F9, 3)
    for i in (0, 1, 5, 100, 700):
        a = T.element_at(i % T.order)
        b = T.element_at((i * 7 + 3) % T.order)
        assert frobenius(a + b, F9) == frobenius(a, F9) + frobenius(b, F9)
        assert frobenius(a * b, F9) == frobenius(a, F9) * frobenius(b, F9)
    # fixes the embedded base pointwise
    for a in F9.elements():
        assert frobenius(embed(a, T), F9) == embed(a, T)


def test_embedding_is_ring_homomorphism():
    F3 = make_field(3)
    T = parse_field_spec("3^2+2")
    for i in range(3):
        for j in range(3):
            a, b = F3.element_at(i), F3.element_at(j)
            assert embed(a + b, T) == embed(a, T) + embed(b, T)
            assert embed(a * b, T) == embed(a, T) * embed(b, T)
    assert embed(F3.one(), T) == T.one()


def test_is_square_euler_counts():
    for spec in ("3", "7", "3^2", "5^2"):
        F = parse_field_spec(spec)
        squares = {(a * a).rep for a in F.elements() if not a.is_zero}
        for a in F.elements():
            if a.is_zero:
                continue
            assert is_square(a) == (a.rep in squares)
        assert len(squares) == (F.order - 1) // 2
    F4 = make_field(2, 2)
    with pytest.raises(ValueError):
        is_square(F4.one())


def test_extend_field_identity_step():
    F9 = make_field(3, 2)
    assert extend_field(F9, 1) is F9


def test_element_hash_consistency():
    F9 = make_field(3, 2)
    s = {F9.element_at(i) for i in range(9)}
    assert len(s) == 9
    assert F9.element_at(4) in s


def test_str_forms():
    F3 = make_field(3)
    assert str(F3.elem(2)) == "2"
    F9 = make_field(3, 2)
    assert str(F9.element_at(5)).startswith("[")


def test_fieldelement_requires_wrapping():
    F3 = make_field(3)
    e = FieldElement(F3, F3.scalar_rep(2))
    assert e == F3.elem(2)


def _mult_order(F, x):
    k, y = 1, x
    while y != F.one_rep:
        y = F.mul(y, x)
        k += 1
    return k


@pytest.mark.parametrize("spec", ["2", "3", "5", "7", "2^2", "2^3", "3^2",
                                  "2^4", "5^2", "3^3", "7^2", "3^2+2"])
def test_log_tables_exhaustive(spec):
    F = parse_field_spec(spec)
    q, n = F.order, F.order - 1
    exp, log, zech = log_tables(F)
    assert log_tables(parse_field_spec(spec)) is log_tables(F)
    assert len(exp) == len(zech) == n and len(log) == q
    # exp and log are inverse bijections between Z/(q-1) and indices 1..q-1
    assert sorted(exp) == list(range(1, q))
    assert log[0] is None
    assert all(log[exp[k]] == k for k in range(n))
    assert exp[0] == F.index_of(F.one_rep)
    reps = [F.rep_at(i) for i in range(q)]
    for a in range(1, q):
        for b in range(1, q):
            assert (exp[(log[a] + log[b]) % n]
                    == F.index_of(F.mul(reps[a], reps[b])))
    for k in range(n):
        s = F.index_of(F.add(F.one_rep, reps[exp[k]]))
        assert zech[k] == (None if s == 0 else log[s])
    # the generator is the smallest index of order q - 1
    g = exp[1 % n]
    assert _mult_order(F, reps[g]) == n
    assert all(_mult_order(F, reps[i]) < n for i in range(1, g))


def test_log_tables_cap(monkeypatch):
    F = make_field(2, 17)
    assert F.order > TABLE_CAP

    def no_arithmetic(*args):
        raise AssertionError("table built above the cap")

    for meth in ("add", "mul", "pow", "rep_at", "index_of"):
        monkeypatch.setattr(Field, meth, no_arithmetic)
    with pytest.raises(CapExceededError):
        log_tables(F)
