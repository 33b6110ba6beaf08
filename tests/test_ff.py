"""Field towers: construction, arithmetic laws, enumeration, embedding,
and the integer routines every module reads."""

import math
import random

import pytest

from _oracles import (schoolbook_mul, square_and_multiply_pow,
                      trial_prime_divisors)
from linmono.ff import (CARDINALITY_CAP, TABLE_CAP, CapExceededError, Field,
                        FieldElement, FieldMismatchError, _prime_power_split,
                        divisors, embed_rep, extend_field, has_order,
                        is_prime, is_square, log_tables, make_field, mobius,
                        multiplicative_order, parse_field_spec,
                        prime_divisors, totient)
from linmono.group import (gl_elements, gl_order, mat_identity, mat_mul,
                           mat_pow)


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
    # against trial division by every d, for every n < 10^5 (every
    # q^d - 1 the GL census factors at q^d <= 343 among them) and every
    # q^d - 1 up to 3^11 - 1, as far as the census past its cap reaches
    for n in range(1, 10 ** 5):
        assert prime_divisors(n) == trial_prime_divisors(n)
    for q in range(2, 344):
        if len(trial_prime_divisors(q)) == 1:
            Q = q
            while Q <= 3 ** 11:
                assert prime_divisors(Q - 1) == trial_prime_divisors(Q - 1)
                Q *= q


def _least_power(one, mul, g):
    """The least m >= 1 with g^m = one, by repeated multiplication."""
    m, y = 1, g
    while y != one:
        y, m = mul(y, g), m + 1
    return m


def _check_orders(elements, one, mul, power, e):
    """multiplicative_order from the exponent e (and 2e) against the
    least power for each element; a proper divisor order - 1 of the
    order is refused (None)."""
    primes = trial_prime_divisors(e)
    for g in elements:
        order = _least_power(one, mul, g)

        def is_one(m, g=g):
            return power(g, m) == one

        assert multiplicative_order(e, primes, is_one) == order
        assert multiplicative_order(2 * e, trial_prime_divisors(2 * e),
                                    is_one) == order
        if order > 1:
            assert multiplicative_order(order - 1, primes, is_one) is None


@pytest.mark.parametrize("spec", [str(q) for q in range(2, 50)
                                  if len(trial_prime_divisors(q)) == 1]
                         + ["2^2+2", "3^2+2"])
def test_multiplicative_order_in_fields(spec):
    F = parse_field_spec(spec)
    _check_orders([F.rep_at(i) for i in range(1, F.order)], F.one_rep,
                  F.mul, F.pow, F.order - 1)


@pytest.mark.parametrize("q", [2, 3])
def test_multiplicative_order_of_matrices(q):
    """Every invertible 2 x 2 matrix over F_2 and F_3, from the exponent
    |GL(2, q)|."""
    F = make_field(q)
    elements = gl_elements(2, F)
    assert len(elements) == gl_order(2, q)
    _check_orders(elements, mat_identity(F, 2),
                  lambda A, B: mat_mul(F, A, B),
                  lambda A, m: mat_pow(F, A, m), gl_order(2, q))


@pytest.mark.parametrize("spec", ["7", "9", "2^2+2", "27", "49"])
def test_has_order_is_the_full_order_equal_to_e(spec):
    """has_order(e, ...) is multiplicative_order(e, ...) == e for every
    element, zero too, at every divisor e of q - 1 and at 2(q - 1); at
    each divisor e it holds for exactly phi(e) elements."""
    F = parse_field_spec(spec)
    q = F.order
    exponents = divisors(q - 1) + [2 * (q - 1)]
    hits = dict.fromkeys(exponents, 0)
    for g in map(F.rep_at, range(q)):

        def is_one(m, g=g):
            return F.pow(g, m) == F.one_rep

        for e in exponents:
            primes = trial_prime_divisors(e)
            got = has_order(e, primes, is_one)
            assert got == (multiplicative_order(e, primes, is_one) == e)
            hits[e] += got
    assert hits == {e: totient(e) if (q - 1) % e == 0 else 0
                    for e in exponents}


def test_divisors_totient_mobius_by_definition():
    for n in range(1, 2000):
        divs = [d for d in range(1, n + 1) if n % d == 0]
        assert divisors(n) == divs
        assert totient(n) == sum(math.gcd(k, n) == 1
                                 for k in range(1, n + 1))
        factors, m = [], n  # prime factors with multiplicity
        for r in trial_prime_divisors(n):
            while m % r == 0:
                factors.append(r)
                m //= r
        squarefree = len(set(factors)) == len(factors)
        assert mobius(n) == ((-1) ** len(factors) if squarefree else 0)
        assert sum(mobius(d) for d in divs) == (n == 1)
    with pytest.raises(ValueError):
        mobius(0)


def test_is_prime_and_prime_power_split_below_10_000():
    bound = 10 ** 4
    sieve = bytearray([1]) * bound
    sieve[:2] = b"\0\0"
    for r in range(2, math.isqrt(bound) + 1):
        if sieve[r]:
            sieve[r * r::r] = bytes(len(range(r * r, bound, r)))
    powers = {}
    for p in range(2, bound):
        if sieve[p]:
            m, v = 1, p
            while v < bound:
                powers[v] = (p, m)
                m, v = m + 1, v * p
    for v in range(-2, bound):
        assert is_prime(v) == (v >= 2 and bool(sieve[v]))
        if v in powers:
            assert _prime_power_split(v) == powers[v]
            continue
        with pytest.raises(ValueError) as exc:
            _prime_power_split(v)
        assert str(exc.value) == ("field order must be >= 2, got %d" % v
                                  if v < 2 else "%d is not a prime power" % v)


def test_is_prime_and_prime_power_split_near_the_cap():
    """2^40 - 87 is prime; 2 (2^39 - 7) = 2^40 - 14 is not a prime
    power, and is refused with the message of any other composite."""
    prime, composite = 2 ** 40 - 87, 2 * (2 ** 39 - 7)
    assert trial_prime_divisors(prime) == [prime]
    assert trial_prime_divisors(composite) == [2, 2 ** 39 - 7]
    assert is_prime(prime) and is_prime(2 ** 39 - 7)
    assert not is_prime(composite)
    assert _prime_power_split(prime) == (prime, 1)
    with pytest.raises(ValueError) as exc:
        _prime_power_split(composite)
    assert str(exc.value) == "%d is not a prime power" % composite
    assert parse_field_spec(str(prime)).order == prime


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
    # each of these computes p^m, q^k or a trial division of its size
    # unless the cap is checked first
    for build in (lambda: make_field(3, 10 ** 9),
                  lambda: make_field(2 ** 61 - 1),
                  lambda: extend_field(make_field(3), 10 ** 9),
                  lambda: parse_field_spec("2305843009213693951")):
        with pytest.raises(CapExceededError):
            build()
    with pytest.raises(ValueError, match="prime"):
        make_field(4, 30)


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


@pytest.mark.parametrize("spec", ["2", "7", "2^7", "3^6", "5^3", "11^3",
                                  "13^2", "2^2+3", "3^2+2", "2^2+2+2"])
def test_inverse_by_euclid_equals_fermat(spec):
    """Every nonzero x: inv(x) x = 1, and inv(x) is the Fermat power
    x^(Q-2); prime fields, and the one Euclid over the base's arithmetic
    on packed and unpacked prime-base extensions, towers and a tower of
    towers."""
    F = parse_field_spec(spec)
    for i in range(1, F.order):
        x = F.rep_at(i)
        y = F.inv(x)
        assert F.mul(y, x) == F.one_rep
        assert y == F.pow(x, F.order - 2)
    with pytest.raises(ZeroDivisionError):
        F.inv(F.zero_rep)


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
    """x -> x^9 on F_{9^3}, by Field.pow, is additive and
    multiplicative and fixes the embedded F_9 pointwise."""
    F9 = make_field(3, 2)
    T = extend_field(F9, 3)

    def frob(x):
        return T.pow(x, F9.order)

    for i in (0, 1, 5, 100, 700):
        a = T.rep_at(i % T.order)
        b = T.rep_at((i * 7 + 3) % T.order)
        assert frob(T.add(a, b)) == T.add(frob(a), frob(b))
        assert frob(T.mul(a, b)) == T.mul(frob(a), frob(b))
    for i in range(F9.order):
        a = embed_rep(T, F9, F9.rep_at(i))
        assert frob(a) == a


def test_embedding_is_ring_homomorphism():
    F3 = make_field(3)
    T = parse_field_spec("3^2+2")

    def embed(x):
        return embed_rep(T, F3, x)

    for a in range(3):
        for b in range(3):
            assert embed(F3.add(a, b)) == T.add(embed(a), embed(b))
            assert embed(F3.mul(a, b)) == T.mul(embed(a), embed(b))
    assert embed(F3.one_rep) == T.one_rep
    with pytest.raises(FieldMismatchError):
        embed_rep(F3, T, T.one_rep)


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


# (p, d) on both sides of the packed product's byte bound
# d (p - 1)^2 < 256, and of the wider bound (2d - 1)(p - 1)^2 < 256.
# Those past CARDINALITY_CAP are quotient rings F_p[x]/(m) with a random
# monic m: the product and its reduction do not need m irreducible.
_PACKED_CASES = ([(2, d) for d in range(2, 41)]
                 + [(2, 255), (2, 256), (3, 2), (3, 5), (3, 6), (3, 25),
                    (3, 32), (3, 33), (3, 63), (3, 64), (5, 2), (5, 8),
                    (5, 9), (5, 15), (5, 16), (7, 2), (7, 4), (7, 5),
                    (7, 7), (7, 8), (11, 2), (11, 3), (13, 2), (13, 3)])


def _field_or_ring(p, d):
    if p ** d <= CARDINALITY_CAP:
        return make_field(p, d)
    rng = random.Random("ring:%d:%d" % (p, d))
    modulus = ((rng.randrange(1, p),)
               + tuple(rng.randrange(p) for _ in range(d - 1)) + (1,))
    return Field(p, make_field(p), d, modulus)


def _mul_inputs(F, rng):
    """Zero, one, x^(d-1), the rep with every coefficient p - 1 (each
    product slot at its bound) and random reps."""
    top = F.base.order - 1
    if F.base.base is None:
        full = (top,) * F.degree
    else:
        full = (F.base.rep_at(top),) * F.degree
    xd = (F.base.zero_rep,) * (F.degree - 1) + (F.base.one_rep,)
    return ([F.zero_rep, F.one_rep, xd, full]
            + [F.random_rep(rng) for _ in range(5)])


@pytest.mark.parametrize("p,d", _PACKED_CASES)
def test_mul_equals_schoolbook(p, d):
    """Field.mul equals the schoolbook convolution on zero, one, x^(d-1),
    the all-(p - 1) rep and random reps; the packed product is chosen
    exactly where every slot fits in a byte."""
    F = _field_or_ring(p, d)
    assert (F._packed is not None) == (d * (p - 1) ** 2 < 256)
    rng = random.Random("mul:%d:%d" % (p, d))
    xs = _mul_inputs(F, rng)
    pairs = [(x, y) for x in xs for y in xs]
    if d > 64:  # the oracle is quadratic: keep the edge pairs only
        pairs = [(x, y) for x, y in pairs if x == xs[3] or y == xs[3]]
    for x, y in pairs:
        assert F.mul(x, y) == schoolbook_mul(F, x, y), (x, y)


@pytest.mark.parametrize("spec", ["2^2+3", "3^2+2", "3^2+3"])
def test_tower_mul_equals_schoolbook(spec):
    """Towers over a packed base multiply by the packed tower product."""
    F = parse_field_spec(spec)
    xs = _mul_inputs(F, random.Random(spec))
    for x in xs:
        for y in xs:
            assert F.mul(x, y) == schoolbook_mul(F, x, y), (x, y)


@pytest.mark.parametrize("p,d", [(2, 12), (3, 6), (5, 3), (7, 4)])
def test_mul_by_seed_uses_that_seeds_modulus(p, d):
    """Two seeds that build different moduli for one (p, d) each multiply
    modulo their own modulus."""
    F0 = make_field(p, d, seed=0)
    F1 = next(F for s in range(1, 50)
              for F in [make_field(p, d, seed=s)]
              if F.modulus != F0.modulus)
    rng = random.Random("seeds")
    xs = _mul_inputs(F0, rng)
    differ = 0
    for x in xs:
        for y in xs:
            a, b = F0.mul(x, y), F1.mul(x, y)
            assert a == schoolbook_mul(F0, x, y)
            assert b == schoolbook_mul(F1, x, y)
            differ += a != b
    assert differ > 0


@pytest.mark.parametrize("spec", ["7", "2^6", "3^2+2"])
def test_pow_equals_square_and_multiply_from_one(spec):
    F = parse_field_spec(spec)
    rng = random.Random(spec)
    xs = [F.one_rep] + [F.rep_at(rng.randrange(1, F.order))
                        for _ in range(3)]
    for e in range(-5, 301):
        for x in xs:
            assert F.pow(x, e) == square_and_multiply_pow(F, x, e), (x, e)
        if e >= 0:
            assert F.pow(F.zero_rep, e) == \
                square_and_multiply_pow(F, F.zero_rep, e)


@pytest.mark.parametrize("spec", ["7", "2^6", "3^2+2"])
def test_pow_makes_bitlen_plus_popcount_minus_two_products(monkeypatch,
                                                           spec):
    """x^e starts from x at the leading bit: bitlen(e) - 1 squarings and
    popcount(e) - 1 multiplies by x, none for e = 0 or 1.  Only products
    in F itself count, not those of its base field."""
    F = parse_field_spec(spec)
    calls = []
    real_mul = Field.mul

    def counting_mul(self, x, y):
        if self is F:
            calls.append(1)
        return real_mul(self, x, y)

    monkeypatch.setattr(Field, "mul", counting_mul)
    x = F.rep_at(F.order - 1)
    for e in range(-5, 301):
        calls.clear()
        F.pow(x, e)
        m = abs(e)
        assert len(calls) == max(0, m.bit_length() + bin(m).count("1") - 2), e


# Every shape of field product, by the path Field.mul takes: "prime",
# "packed" (one integer product over the prime field), "tower" (one
# integer product over a packed base, D e (p - 1)^2 < 256) and "loop"
# (the loop over the base's muladd: a prime base past the packed bound,
# towers past the tower bound, towers of towers and towers over
# unpacked bases).
_PATHS = [("7", "prime"), ("3^6", "packed"), ("2^12", "packed"),
          ("7^7", "packed"), ("11^3", "loop"), ("13^2", "loop"),
          ("3^2+2", "tower"), ("3^2+3", "tower"), ("3^2+6", "tower"),
          ("2^2+2", "tower"), ("2^2+3", "tower"), ("2^2+20", "tower"),
          ("5^2+7", "tower"), ("7^2+3", "tower"), ("5^2+8", "loop"),
          ("7^2+4", "loop"), ("2^2+2+2", "loop"), ("13^2+2", "loop")]


def _path(F):
    if F.base is None:
        return "prime"
    if F._packed is not None:
        return "packed"
    if F._tower is not None:
        return "tower"
    return "loop"


@pytest.mark.parametrize("spec,path", _PATHS)
def test_product_path_follows_the_slot_bound(spec, path):
    """Each spec takes the pinned path, and a tower over a packed base of
    degree e is packed exactly where D e (p - 1)^2 < 256: F_{25^7}
    (224) is the widest packed 5^2 tower and F_{25^8} (256) loops."""
    F = parse_field_spec(spec)
    assert _path(F) == path
    b = F.base
    if b is not None and b._packed is not None:
        assert (path == "tower") == (
            F.degree * b.degree * (F.p - 1) ** 2 < 256)


@pytest.mark.parametrize("spec", [spec for spec, _ in _PATHS])
def test_muladd_equals_add_of_mul(spec):
    """muladd(acc, x, y) = add(acc, mul(x, y)), and mul equals the
    schoolbook oracle, on every product path, on zero, one, x^(d-1), the
    all-(p - 1) rep and random reps.  At F_{7^7} the all-6 product's
    middle slot is 7 * 36 = 252, so an acc of 6 added to that slot
    before its reduction would carry; at F_{25^8} the all-(4, 4)
    product's middle slot is 8 * 2 * 16 = 256."""
    F = parse_field_spec(spec)
    rng = random.Random("muladd:" + spec)
    if F.base is None:
        xs = [0, 1, F.p - 1] + [F.random_rep(rng) for _ in range(5)]
    else:
        xs = _mul_inputs(F, rng)
    accs = xs[:4] + [F.random_rep(rng) for _ in range(2)]
    for x in xs:
        for y in xs:
            assert F.mul(x, y) == schoolbook_mul(F, x, y), (x, y)
            for acc in accs:
                assert F.muladd(acc, x, y) == F.add(acc, F.mul(x, y)), \
                    (acc, x, y)


@pytest.mark.parametrize("spec", [spec for spec, path in _PATHS
                                  if path == "tower"])
def test_packed_tower_product_equals_the_loop(spec):
    """The packed tower product and muladd equal the loop over the base's
    muladd, run on the same field with the packing switched off, on
    random pairs and on the all-(p - 1) rep."""
    F = parse_field_spec(spec)
    loop = Field(F.p, F.base, F.degree, F.modulus)
    loop._tower = None
    assert loop == F
    rng = random.Random("tower:" + spec)
    full = _mul_inputs(F, rng)[3]
    pairs = [(full, full)] + [(F.random_rep(rng), F.random_rep(rng))
                              for _ in range(40)]
    for x, y in pairs:
        assert F.mul(x, y) == loop.mul(x, y), (x, y)
        assert F.muladd(full, x, y) == loop.muladd(full, x, y), (x, y)
        assert F.muladd(y, x, y) == loop.muladd(y, x, y), (x, y)


def test_packed_fields_of_one_characteristic_share_the_mod_p_table():
    """The 256-byte reduction table is built once per p, not once per
    packed field; each is byte v to v mod p."""
    F9, F243 = make_field(3, 2), make_field(3, 5, seed=7)
    tower = parse_field_spec("3^2+3")
    table = F9._packed[0]
    assert F243._packed[0] is table
    assert tower._tower[1] is table
    assert table == bytes(v % 3 for v in range(256))
    assert make_field(5, 2)._packed[0] == bytes(v % 5 for v in range(256))
