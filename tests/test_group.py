"""Matrix groups over finite fields: Singer cycles, Frobenius conjugation,
group closure, cycle types, censuses."""

import itertools
from collections import Counter

import pytest

from _oracles import (basis_key, brute_closure, brute_cycle_type,
                      brute_stabilizer_orders, class_census,
                      class_representative, closure_normalizer_census,
                      gl_classes, irreducible_orders, mat_det, mat_inv,
                      mat_pow_signed, mat_vec, matrix_order,
                      normalizer_elements, perm_closure, prime_mat_mul,
                      prime_mat_vec, stabilizer_order, unit_order,
                      vector_rank, x_order)
from linmono import ff as ff_mod
from linmono import group as group_mod
from linmono import poly as poly_mod
from linmono.ff import (CapExceededError, make_field, parse_field_spec,
                        prime_divisors)
from linmono.group import (CLASS_CENSUS_CAP, CycleCensus, _irreducible_types,
                           census, class_cycle_type, closure,
                           companion_matrix, conjugation_ok, cycle_type_of,
                           frobenius_matrix, generate_group, gl_census,
                           gl_elements, gl_order, mat_identity, mat_mul,
                           mat_pow, normalizer_census,
                           normalizer_fixed_point_types, nonzero_vectors,
                           partitions, perm_cycle_type, perm_sign,
                           permutation_of, primary_centralizer_order,
                           singer_generator, singer_modulus)
from linmono.poly import Poly, is_irreducible, num_irreducible, pow_mod

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
    with pytest.raises(ValueError):
        mat_pow(F3, A, -1)
    Ainv = mat_inv(F3, A)
    assert mat_mul(F3, A, Ainv) == I
    assert mat_mul(F3, mat_pow_signed(F3, A, -3), mat_pow(F3, A, 3)) == I
    assert mat_det(F3, A) == F3.scalar_rep(1)
    singular = ((F3.scalar_rep(1), F3.scalar_rep(2)),
                (F3.scalar_rep(2), F3.scalar_rep(1)))
    assert mat_det(F3, singular) == F3.scalar_rep(0)
    with pytest.raises(ZeroDivisionError):
        mat_inv(F3, singular)


@pytest.mark.parametrize("p", [2, 7, 13])
def test_prime_field_matrix_ops_equal_integer_sums(p):
    """mat_mul, mat_pow and the oracle mat_vec over F_p equal the
    integer-sum reference (mat_pow against repeated reference products)
    on seeded random 4 x 4 matrices and vectors."""
    import random
    F = make_field(p)
    rng = random.Random("matrix ops:%d" % p)

    def rand_mat():
        return tuple(tuple(rng.randrange(p) for _ in range(4))
                     for _ in range(4))

    for _ in range(10):
        A, B = rand_mat(), rand_mat()
        v = tuple(rng.randrange(p) for _ in range(4))
        assert mat_mul(F, A, B) == prime_mat_mul(F, A, B)
        assert mat_vec(F, A, v) == prime_mat_vec(F, A, v)
        power = mat_identity(F, 4)
        for e in range(9):
            assert mat_pow(F, A, e) == power, e
            power = prime_mat_mul(F, power, A)


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
    # primitivity shows as the companion matrix having full order
    S = singer_generator(3, F3)
    I = mat_identity(F3, 3)
    assert mat_pow(F3, S, 26) == I
    assert mat_pow(F3, S, 13) != I
    assert mat_pow(F3, S, 2) != I


def _singer_oracle_cases():
    """(field spec, n) for q in {3, 4, 5, 7, 8, 9, 16, 25} and every
    n >= 1 with q^n <= 1024."""
    return [(str(q), n) for q in (3, 4, 5, 7, 8, 9, 16, 25)
            for n in range(1, 7) if q ** n <= 1024]


@pytest.mark.parametrize("spec, n", _singer_oracle_cases())
def test_singer_modulus_equals_search_without_the_norm_test(spec, n,
                                                            monkeypatch):
    """At seeds 0-9, the modulus is the first candidate of the same
    stream on which x has order q^n - 1 by stepping (x_order), with no
    norm test; the norm test skips candidates before any irreducibility
    test, and over the ten seeds at least one."""
    field = parse_field_spec(spec)
    N = field.order ** n - 1
    drawn, tested = [], []
    is_irr = poly_mod.is_irreducible
    monkeypatch.setattr(poly_mod, "is_irreducible",
                        lambda f: tested.append(f) or is_irr(f))
    for seed in range(10):
        want = ff_mod._search_modulus(
            field, n, seed, stream="linmono.singer",
            accept=lambda f: drawn.append(f) or x_order(f) == N)
        assert singer_modulus.__wrapped__(n, field, seed).coeffs == want
    assert 0 < len(tested) < len(drawn)


@pytest.mark.parametrize("spec", ["2", "3", "4", "5", "7", "8", "9"])
def test_norm_of_a_primitive_root_has_order_q_minus_1(spec):
    """For every monic primitive f of degree n <= 3 over F_q (x of
    order q^n - 1 by stepping), (-1)^n f(0), the norm of its root x,
    has order q - 1 by repeated multiplication: the condition
    singer_modulus tests first.  Some irreducible f fail it when
    q > 2."""
    field = parse_field_spec(spec)
    q, one = field.order, field.one_rep
    reps = [field.rep_at(i) for i in range(q)]
    skipped = 0
    for n in (1, 2, 3):
        for low in itertools.product(reps, repeat=n):
            if low[0] == field.zero_rep:
                continue
            f = Poly(field, low + (one,))
            norm = low[0] if n % 2 == 0 else field.neg(low[0])
            if x_order(f) == q ** n - 1:
                assert unit_order(field, norm) == q - 1, f
            elif unit_order(field, norm) != q - 1 and is_irreducible(f):
                skipped += 1
    assert (skipped > 0) == (q > 2)


def test_singer_modulus_refuses_above_the_cardinality_cap():
    """q^n above ff.CARDINALITY_CAP is refused before q^n - 1 is
    trial-divided (2^61 - 1 would take about 7e8 steps, and 3^(10^8)
    would not even be taken); q^n at the cap is still served."""
    for n, field in ((41, F2), (61, F2), (10 ** 8, F3)):
        with pytest.raises(CapExceededError, match="cardinality cap"):
            singer_modulus(n, field)
    assert 2 ** 40 == ff_mod.CARDINALITY_CAP
    assert singer_modulus(40, F2).degree == 40


@pytest.mark.parametrize("spec, n", [("3", 3), ("5", 3), ("4", 3),
                                     ("2^2+2", 2), ("2", 16), ("3", 8)])
@pytest.mark.parametrize("seed", [0, 3])
def test_singer_and_frobenius_orders_by_matrix_powers(spec, n, seed):
    """S has order exactly q^n - 1 and F exactly n, found by the order
    search on powers of the matrices themselves: the check that the
    choice of the primitive modulus makes unnecessary at run time."""
    field = parse_field_spec(spec)
    N = field.order ** n - 1
    assert matrix_order(field, singer_generator(n, field, seed), N) == N
    assert matrix_order(field, frobenius_matrix(n, field, seed), n) == n


def test_singer_model_powers_no_matrix(monkeypatch):
    """singer_generator and frobenius_matrix take no matrix power and run
    no order search: S is the companion matrix of the primitive modulus
    and F is read off its Frobenius base, up to the cardinality cap."""
    def refuse(*args, **kwargs):
        raise AssertionError("the Singer model powered a matrix")

    assert not hasattr(group_mod, "multiplicative_order")
    monkeypatch.setattr(group_mod, "mat_pow", refuse)
    monkeypatch.setattr(ff_mod, "multiplicative_order", refuse)
    monkeypatch.setattr(poly_mod, "multiplicative_order", refuse)
    for n, field, seed in ((3, F3, 0), (2, F4, 3), (40, F2, 0)):
        f = singer_modulus(n, field, seed)
        assert singer_generator(n, field, seed) == companion_matrix(field, f)
        want = pow_mod(Poly.x(field), field.order, f).coeffs
        want += (field.zero_rep,) * (n - len(want))
        assert tuple(row[1] for row in frobenius_matrix(n, field, seed)) \
            == want


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
        assert conjugation_ok(field, S, F)
        # S^q != S, so the identity does not conjugate S to S^q
        assert not conjugation_ok(field, S, mat_identity(field, n))
        assert mat_pow(field, F, n) == mat_identity(field, n)


@pytest.mark.parametrize("field", [F2, F3, F4, F5],
                         ids=lambda K: K.spec_string())
@pytest.mark.parametrize("n", [2, 3, 4, 5])
@pytest.mark.parametrize("seed", [0, 3])
def test_frobenius_matrix_columns_are_powers_of_x(field, n, seed):
    """Column j of F is x^(jq) mod f, each powered from x alone."""
    f = singer_modulus(n, field, seed)
    F = frobenius_matrix(n, field, seed)
    x = Poly.x(field)
    for j in range(n):
        want = pow_mod(x, j * field.order, f).coeffs
        want += (field.zero_rep,) * (n - len(want))
        assert tuple(row[j] for row in F) == want, j


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


@pytest.mark.parametrize("spec, n", [("2", 1), ("3", 2), ("2^2+2", 2)])
def test_closure_refusals(spec, n):
    """The closure itself, not only generate_group, refuses a group past
    its cap, a singular generator, no generators and mixed sizes; a cap
    of exactly the order is enough."""
    field = parse_field_spec(spec)
    gens = [singer_generator(n, field), frobenius_matrix(n, field)]
    order = n * (field.order ** n - 1)
    assert len(list(closure(field, gens, cap=order))) == order
    if order > 1:
        with pytest.raises(CapExceededError, match="exceeded cap"):
            list(closure(field, gens, cap=order - 1))
    singular = [[field.zero_rep] * n for _ in range(n)]
    with pytest.raises(ValueError, match="singular"):
        list(closure(field, [gens[0], singular]))
    with pytest.raises(ValueError, match="at least one generator"):
        list(closure(field, []))
    with pytest.raises(ValueError, match="square and of one size"):
        list(closure(field, [gens[0], mat_identity(field, n + 1)]))


def test_generate_group_reads_tower_matrices_off_permutations():
    """Over the tower F_16 = F_4[x]/(m), n = 2: each matrix read back
    off its key, the positions of its basis images in the permutations
    of the vectors, equals the one multiplied out."""
    field = parse_field_spec("2^2+2")
    gens = [singer_generator(2, field), frobenius_matrix(2, field)]
    elements = generate_group(field, gens)
    assert len(elements) == 2 * 255
    assert elements == brute_closure(field, gens)


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


@pytest.mark.parametrize("spec, n", [("5", 3), ("2^3", 3), ("2^2+2", 2)])
def test_permutation_of_equals_mat_vec_on_random_matrices(spec, n):
    """The images permutation_of builds by linearity equal the mat_vec
    oracle's, on seeded random invertible matrices over a prime, a
    packed and a tower field; a singular matrix still raises
    ValueError."""
    import random
    field = parse_field_spec(spec)
    rng = random.Random("permutation_of:%s:%d" % (spec, n))
    vecs = nonzero_vectors(field, n)
    invertible = 0
    while invertible < 6:
        A = tuple(tuple(field.random_rep(rng) for _ in range(n))
                  for _ in range(n))
        if mat_det(field, A) == field.zero_rep:
            with pytest.raises(ValueError, match="singular"):
                permutation_of(field, A)
            continue
        invertible += 1
        perm = permutation_of(field, A)
        assert [vecs[j] for j in perm] == [mat_vec(field, A, v)
                                           for v in vecs]
    c = field.random_rep(rng)
    row = tuple(field.random_rep(rng) for _ in range(n))
    singular = (row,) + tuple(tuple(field.mul(c, a) for a in row)
                              for _ in range(n - 1))
    with pytest.raises(ValueError, match="singular"):
        permutation_of(field, singular)


def test_permutation_of_and_cycle_type_against_brute_force():
    for field, n in ((F3, 2), (F2, 3), (F4, 2)):
        vecs = nonzero_vectors(field, n)
        for A in gl_elements(n, field):
            perm = permutation_of(field, A)
            assert [vecs[j] for j in perm] == [mat_vec(field, A, v)
                                               for v in vecs]
            assert cycle_type_of(field, A) == brute_cycle_type(field, A)
    with pytest.raises(ValueError):
        permutation_of(F3, ((F3.one_rep, F3.zero_rep),
                            (F3.one_rep, F3.zero_rep)))


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


def _normalizer_cases():
    """(field spec, n) for every prime power q and n >= 1 with
    q^n <= 81, plus the towers F_16 over F_4 and F_81 over F_9."""
    qs = [q for q in range(2, 82) if len(prime_divisors(q)) == 1]
    cases = [(str(q), n) for q in qs for n in range(1, 7) if q ** n <= 81]
    return cases + [("2^2+2", 1), ("3^2+2", 1)]


@pytest.mark.parametrize("spec, n", _normalizer_cases())
def test_normalizer_census_equals_brute_census(spec, n):
    """The census read from composed permutations against matrices
    multiplied out one by one and applied to every vector.  The closure
    yields each brute-force element's basis images, in the same order,
    perm_closure each one's permutation, and generate_group reads the
    same matrices back off the keys."""
    field = parse_field_spec(spec)
    S = singer_generator(n, field)
    F = frobenius_matrix(n, field)
    elements = brute_closure(field, [S, F])
    assert len(elements) == n * (field.order ** n - 1)
    assert list(closure(field, [S, F])) == [basis_key(field, A)
                                            for A in elements]
    perms = list(perm_closure(field, [S, F]))
    assert perms == [permutation_of(field, A) for A in elements]
    assert generate_group(field, [S, F]) == elements
    brute = Counter()
    for A, perm in zip(elements, perms):
        brute[brute_cycle_type(field, A)] += 1
        assert perm_cycle_type(perm) == brute_cycle_type(field, A)
    assert normalizer_census(n, field) == CycleCensus(
        order=len(elements), counts=tuple(sorted(brute.items())))


def _prime_powers_up_to(bound):
    return [q for q in range(2, bound + 1) if len(prime_divisors(q)) == 1]


@pytest.mark.parametrize("spec, n", [
    (str(q), n) for q in _prime_powers_up_to(343) for n in range(1, 9)
    if q ** n <= 343] + [("2^2+2", 1), ("2^2+2", 2), ("3^2+2", 1),
                         ("3^2+2", 2)])
def test_normalizer_census_equals_closure(spec, n):
    """The closed form against the census the closure of <S, F> gives,
    element by element, at two seeds for the closure."""
    field = parse_field_spec(spec)
    cen = normalizer_census(n, field)
    assert cen == closure_normalizer_census(n, field)
    if field.order ** n <= 81:
        assert cen == closure_normalizer_census(n, field, seed=1)


def test_normalizer_census_does_not_walk(monkeypatch):
    """No matrix is built and no group element is enumerated."""
    expected = {(n, spec): normalizer_census(n, parse_field_spec(spec))
                for spec, n in (("2", 8), ("3", 3), ("4", 3), ("9", 2))}

    def refuse(*args, **kwargs):
        raise AssertionError("normalizer_census walked the group")

    for name in ("closure", "singer_generator", "frobenius_matrix",
                 "singer_modulus", "permutation_of", "mat_mul"):
        monkeypatch.setattr(group_mod, name, refuse)
    for (n, spec), cen in expected.items():
        assert normalizer_census(n, parse_field_spec(spec), seed=5) == cen


@pytest.mark.parametrize("n", [16, 20])
def test_normalizer_census_past_the_closure(n):
    """GammaL(1, 2^16) and GammaL(1, 2^20), about 10^6 and 2 * 10^7
    elements, far past what the closure could walk."""
    N = 2 ** n - 1
    cen = normalizer_census(n, F2)
    assert cen.order == n * N
    assert sum(c for _, c in cen.counts) == cen.order
    assert all(sum(t) == N for t, _ in cen.counts)
    assert (N,) in cen  # the Singer cycles
    assert cen.count_of((1,) * N) == 1


def test_normalizer_census_refusals():
    """The refusals the closure gave: n < 1, and more than GROUP_CAP
    nonzero vectors."""
    for n in (0, -1):
        with pytest.raises(ValueError, match="degree must be >= 1"):
            normalizer_census(n, F3)
    assert 2 ** 20 - 1 <= group_mod.GROUP_CAP < 2 ** 21 - 1
    with pytest.raises(CapExceededError, match="too many vectors"):
        normalizer_census(21, F2)


def test_normalizer_cases_cover_the_required_fields():
    specs = {spec for spec, _ in _normalizer_cases()}
    assert {"4", "8", "9", "16", "27", "81", "2^2+2"} <= specs
    assert ("2", 6) in _normalizer_cases() and ("3", 4) in _normalizer_cases()


def _non_transitive_gens(n, field):
    """Generating sets with more than one orbit on the nonzero vectors:
    <F>, and <S^e>, <S^e, F> for the smallest prime e dividing q^n - 1
    when that is not q^n - 1 itself."""
    N = field.order ** n - 1
    S = singer_generator(n, field)
    F = frobenius_matrix(n, field)
    out = [[F]]
    e = min(prime_divisors(N))
    if e < N:
        out += [[mat_pow(field, S, e)], [mat_pow(field, S, e), F]]
    return out


@pytest.mark.parametrize("spec, n", [("2", 3), ("2", 4), ("3", 2),
                                     ("3", 3), ("4", 2), ("5", 2),
                                     ("9", 2)])
def test_stabilizer_orders_of_non_transitive_groups(spec, n):
    """Stabilizer orders as fixed points of perm_closure's permutations,
    against every element applied to every vector.  The permutations
    are the brute-force elements', in order, the closure yields their
    basis images in that order, and generate_group reads those elements
    back."""
    field = parse_field_spec(spec)
    sizes_seen = set()
    for gens in _non_transitive_gens(n, field):
        perms = list(perm_closure(field, gens))
        elements = brute_closure(field, gens)
        assert perms == [permutation_of(field, A) for A in elements]
        assert list(closure(field, gens)) == [basis_key(field, A)
                                              for A in elements]
        assert generate_group(field, gens) == elements
        orders = [sum(perm[i] == i for perm in perms)
                  for i in range(field.order ** n - 1)]
        assert orders == brute_stabilizer_orders(field, elements)
        sizes_seen.add(len(set(orders)))
    assert max(sizes_seen) > 1  # stabilizers differ between orbits


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


def test_normalizer_fixed_point_types_are_the_census_types_with_a_1():
    """For every q <= 16 and n with q^n - 1 <= GROUP_CAP, the compact
    fixed-point types are the closed-form census's types that have a
    1-cycle, and each sums to q^n - 1."""
    pairs = 0
    for q in _prime_powers_up_to(16):
        field = parse_field_spec(str(q))
        n = 1
        while q ** n - 1 <= group_mod.GROUP_CAP:
            fixed = normalizer_fixed_point_types(n, q)
            assert fixed == {tuple(sorted(Counter(t).items())) for t in
                             normalizer_census(n, field).types() if 1 in t}
            assert all(sum(d * c for d, c in t) == q ** n - 1
                       for t in fixed)
            pairs += 1
            n += 1
    assert pairs == 84


@pytest.mark.parametrize("q, n", [(2, 2), (2, 3), (3, 3), (4, 5),
                                  (2, 23), (3, 43), (2, 101)])
def test_normalizer_fixed_point_types_at_prime_n(q, n):
    """For prime n, the identity and the type of phi: 1^(q^n - 1) and
    1^(q - 1) n^((q^n - q)/n), whose lengths are odd for odd n -- the
    fact the DiscWitness exclusion rests on."""
    fixed = normalizer_fixed_point_types(n, q)
    assert fixed == {((1, q ** n - 1),),
                     ((1, q - 1), (n, (q ** n - q) // n))}
    if n % 2:
        assert all(d % 2 for t in fixed for d, _ in t)


def test_normalizer_fixed_point_types_are_never_expanded():
    """At q = 2, n = 101 the type of phi has about 10^28 lengths; the
    compact form takes well under 10 ms."""
    import time
    start = time.perf_counter()
    normalizer_fixed_point_types(101, 2)
    assert time.perf_counter() - start < 0.01


@pytest.mark.parametrize("spec, n", [("2", 3), ("3", 3), ("4", 3),
                                     ("5", 3), ("7", 3), ("2", 5),
                                     ("3", 5), ("2", 7)])
def test_stabilizer_excluded_types_miss_the_normalizer_census(spec, n):
    """The census flag subsumes the stabilizer argument: a fixed-point
    element of GammaL(1, q^n), n an odd prime, lies in a stabilizer of
    order n, so every GL(n, q) type with a fixed point and an even length
    or an lcm not dividing n is missing from the normalizer census, and
    a sample of that type is flagged out of it."""
    import math
    field = parse_field_spec(spec)
    members = normalizer_census(n, field).types()
    shaped = [t for t, _ in gl_census(n, field).counts
              if 1 in t and (any(d % 2 == 0 for d in t)
                             or n % math.lcm(*t) != 0)]
    assert shaped
    assert not [t for t in shaped if t in members]


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
    # the irreducible types count every monic irreducible but x, also
    # past the degrees trial division reaches
    for q, n in ((2, 17), (3, 11), (4, 8), (47, 3), (101, 2)):
        types = _irreducible_types(q, n)
        for d in range(1, n + 1):
            assert sum(c for dd, _, c in types if dd == d) \
                == num_irreducible(q, d) - (d == 1)


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


@pytest.mark.parametrize("spec, d", [
    (str(q), d) for q in _prime_powers_up_to(343) for d in range(1, 9)
    if q ** d <= 343] + [("2^2+2", 1), ("2^2+2", 2), ("3^2+2", 1)])
def test_irreducible_orders_equal_brute_force(spec, d):
    """The irreducible types of degree d against the irreducibles found
    by trial division, each with its order from poly.order_of_x: for
    every order e, the count of degree-d irreducibles with ord f = e.
    The counts sum to every monic irreducible of degree d but x."""
    field = parse_field_spec(spec)
    q = field.order
    brute = Counter(o for f, o in irreducible_orders(field, d)
                    if f.degree == d)
    types = {e: c for dd, e, c in _irreducible_types(q, d) if dd == d}
    assert types == brute
    assert sum(types.values()) == num_irreducible(q, d) - (d == 1)


def test_gl_census_builds_no_field(monkeypatch):
    """The census builds no extension field, log table or polynomial and
    runs no irreducibility test or order search: it reads only the
    field's order and characteristic."""
    from types import SimpleNamespace
    expected = gl_census(3, F7)
    F16 = parse_field_spec("2^2+2")

    def refuse(*args, **kwargs):
        raise AssertionError("gl_census built a field or searched")

    monkeypatch.setattr(ff_mod, "extend_field", refuse)
    monkeypatch.setattr(ff_mod, "log_tables", refuse)
    monkeypatch.setattr(poly_mod, "is_irreducible", refuse)
    monkeypatch.setattr(poly_mod, "order_of_x", refuse)
    assert gl_census(3, F7) == expected
    assert gl_census(3, SimpleNamespace(order=7, p=7)) == expected
    assert gl_census(2, SimpleNamespace(order=16, p=2)) \
        == gl_census(2, F16)


@pytest.mark.parametrize("spec, n", [
    (str(q), n) for q in _prime_powers_up_to(343) for n in range(1, 9)
    if q ** n <= 343] + [("2^2+2", 1), ("2^2+2", 2), ("3^2+2", 1)])
def test_type_census_equals_class_census(spec, n):
    """The census by class types against the oracle's census by
    similarity classes, one partition per irreducible found by trial
    division."""
    field = parse_field_spec(spec)
    assert gl_census(n, field) == class_census(n, field)


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
        classes = gl_classes(n, field)
        assert len(classes) == expected
        assert sum(size for _, size in classes) == gl_order(n, q)
        assert all(sum(f.degree * sum(lam) for f, lam in parts) == n
                   for parts, _ in classes)
        assert all(mat_det(field, class_representative(field, parts))
                   != field.zero_rep for parts, _ in classes)


@pytest.mark.parametrize("spec, n", _normalizer_cases())
def test_class_cycle_type_equals_representative(spec, n):
    """The cycle type read off class data against a block-companion
    representative of the class applied to every vector."""
    field = parse_field_spec(spec)
    ords = dict(irreducible_orders(field, n))
    for parts, _ in gl_classes(n, field):
        A = class_representative(field, parts)
        assert class_cycle_type(
            field, [(f.degree, ords[f], lam) for f, lam in parts]) \
            == cycle_type_of(field, A)


def _fixed_point_test(q, cycle_type):
    """The points fixed by g^m form a subspace: for every m, 1 plus the
    points in cycles of length dividing m is a power of q.  g^m fixes
    what g^gcd(m, ord g) fixes, and ord g is the lcm of the lengths, so
    the divisors m of that lcm cover every m."""
    import math
    lengths = Counter(cycle_type)
    lcm = math.lcm(*lengths)
    low = [m for m in range(1, math.isqrt(lcm) + 1) if lcm % m == 0]
    for m in low + [lcm // m for m in low]:
        fixed = 1 + sum(c * k for c, k in lengths.items() if m % c == 0)
        while fixed % q == 0:
            fixed //= q
        if fixed != 1:
            return False
    return True


@pytest.mark.parametrize("field, n", [
    (F3, 4), (F2, 5), (F7, 3),
    # past CLASS_CENSUS_CAP, about 0.7 s together
    (F2, 13), (F3, 9), (F5, 6), (F7, 5), (make_field(101), 2)])
def test_class_census_beyond_enumeration(field, n, monkeypatch):
    q = field.order
    monkeypatch.setattr(group_mod, "CLASS_CENSUS_CAP", q ** n)
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
        gl_census(-1, F3)
