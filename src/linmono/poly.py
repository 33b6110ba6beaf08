"""Dense univariate polynomials over a Field, with factorization.

Coefficients are stored constant-first as raw field reps (trailing zeros
stripped; the zero polynomial has an empty tuple).  Degree counting,
division, gcd, distinct-degree factorization, full factorization with a
seeded equal-degree split, and resultant-based discriminants all live
here.  Everything is deterministic given the explicit seeds.

Distinct-degree factoring builds one Frobenius base per input polynomial
and takes each gcd against the shrinking cofactor, so the base is never
rebuilt after a split.  The irreducibility test is that split too.
Division by a monic polynomial needs no inverse.
"""

from __future__ import annotations

import random

from .ff import Field, FieldElement, FieldMismatchError

# to_dense-style materialization guard: a dense vector longer than this is
# a sign the caller wanted the evaluation path instead.
DENSE_CAP = 1 << 20


class Poly:
    """A dense polynomial over a Field.

    Construct with any mix of ints (scalars), FieldElements of the same
    field, or serialized obj forms.  Internally coefficients are raw reps;
    coefficient(i) hands back a FieldElement.
    """

    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs=()):
        if not isinstance(field, Field):
            raise TypeError("field must be a Field")
        reps = [field.coerce_rep(c) for c in coeffs]
        while reps and reps[-1] == field.zero_rep:
            reps.pop()
        self.field = field
        self.coeffs = tuple(reps)

    # internal: wrap an already-coerced rep list
    @classmethod
    def _mk(cls, field, reps):
        z = field.zero_rep
        n = len(reps)
        while n and reps[n - 1] == z:
            n -= 1
        p = object.__new__(cls)
        p.field = field
        p.coeffs = tuple(reps[:n])
        return p

    @classmethod
    def x(cls, field):
        return cls._mk(field, [field.zero_rep, field.one_rep])

    @classmethod
    def constant(cls, field, c):
        return cls._mk(field, [field.coerce_rep(c)])

    @property
    def degree(self):
        return len(self.coeffs) - 1

    @property
    def is_zero(self):
        return not self.coeffs

    def coefficient(self, i):
        if 0 <= i < len(self.coeffs):
            return FieldElement(self.field, self.coeffs[i])
        return self.field.zero()

    def lc(self):
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return FieldElement(self.field, self.coeffs[-1])

    def _check(self, other):
        if not isinstance(other, Poly):
            raise TypeError("expected a Poly, got %r" % (other,))
        if other.field != self.field:
            raise FieldMismatchError("polynomials over %r and %r"
                                     % (self.field, other.field))

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        self._check(other)
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.field, self.coeffs))

    def __add__(self, other):
        self._check(other)
        K = self.field
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = K.add(out[i], c)
        return Poly._mk(K, out)

    def __sub__(self, other):
        self._check(other)
        K = self.field
        a, b = self.coeffs, other.coeffs
        out = list(a) + [K.zero_rep] * (len(b) - len(a))
        for i, c in enumerate(b):
            out[i] = K.sub(out[i], c)
        return Poly._mk(K, out)

    def __neg__(self):
        K = self.field
        return Poly._mk(K, [K.neg(c) for c in self.coeffs])

    def __mul__(self, other):
        self._check(other)
        K = self.field
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return Poly._mk(K, [])
        z = K.zero_rep
        out = [z] * (len(a) + len(b) - 1)
        # add(mul), not muladd, until perfbench collects between passes:
        # with muladd here sample-deep runs almost no full collections,
        # so the module generations each pass leaves pile up and its
        # peak_rss_mib reads 9-12% higher (ROADMAP item 1).
        for i, ai in enumerate(a):
            if ai != z:
                for j, bj in enumerate(b):
                    if bj != z:
                        out[i + j] = K.add(out[i + j], K.mul(ai, bj))
        return Poly._mk(K, out)

    def scale(self, c):
        """Multiply by a scalar (int, element, or rep obj)."""
        K = self.field
        r = K.coerce_rep(c)
        return Poly._mk(K, [K.mul(r, ci) for ci in self.coeffs])

    def __divmod__(self, other):
        self._check(other)
        K = self.field
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        db = other.degree
        if self.degree < db:
            return Poly._mk(K, []), self
        z = K.zero_rep
        a = list(self.coeffs)
        b = other.coeffs
        # a monic divisor needs no inverse and no per-step scaling
        inv_lc = None if b[-1] == K.one_rep else K.inv(b[-1])
        # a -= c x^i b as a += c x^i (-b), over b's nonzero low terms
        neg_b = [(j, K.neg(bj)) for j, bj in enumerate(b[:db]) if bj != z]
        q = [z] * (len(a) - db)
        for i in range(len(q) - 1, -1, -1):
            c = a[i + db]
            if c != z:
                if inv_lc is not None:
                    c = K.mul(c, inv_lc)
                q[i] = c
                for j, nbj in neg_b:
                    a[i + j] = K.muladd(a[i + j], c, nbj)
        return Poly._mk(K, q), Poly._mk(K, a[:db])

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def monic(self):
        if self.is_zero:
            return self
        K = self.field
        top = self.coeffs[-1]
        if top == K.one_rep:
            return self
        inv = K.inv(top)
        return Poly._mk(K, [K.mul(inv, c) for c in self.coeffs])

    def derivative(self):
        K = self.field
        out = [K.mul(K.scalar_rep(i), c)
               for i, c in enumerate(self.coeffs) if i >= 1]
        return Poly._mk(K, out)

    def evaluate(self, x):
        K = self.field
        r = K.coerce_rep(x)
        acc = K.zero_rep
        for c in reversed(self.coeffs):
            acc = K.muladd(c, acc, r)
        return FieldElement(K, acc)

    def __str__(self):
        if self.is_zero:
            return "0"
        from .ff import format_element_obj
        K = self.field
        return ",".join(format_element_obj(K.rep_to_obj(c))
                        for c in self.coeffs)

    def __repr__(self):
        return "Poly(%s: %s)" % (self.field.spec_string(), self)


# -- gcd, powering ---------------------------------------------------------

def gcd(a, b):
    """Monic gcd (zero if both inputs are zero)."""
    a._check(b)
    while not b.is_zero:
        a, b = b, a % b
    return a.monic()


def pow_mod(a, e, m):
    """a^e mod m by square and multiply; e >= 0."""
    if e < 0:
        raise ValueError("negative exponent")
    a._check(m)
    if m.degree < 1:
        raise ValueError("modulus must be nonconstant")
    K = a.field
    r = Poly.constant(K, 1)
    a = a % m
    if e == 0:
        return r
    for bit in bin(e)[2:]:
        r = (r * r) % m
        if bit == "1":
            r = (r * a) % m
    return r


def order_of_x(f, e, primes):
    """Multiplicative order of x modulo f, from a claimed exponent e with
    x^e = 1 mod f: each of the given primes (every prime that may divide
    e over the order) is divided out of e while x^e stays 1.  None when
    x^e != 1, so the claim is false."""
    x = Poly.x(f.field)
    one = Poly.constant(f.field, 1)
    if pow_mod(x, e, f) != one:
        return None
    for r in primes:
        while e % r == 0 and pow_mod(x, e // r, f) == one:
            e //= r
    return e


# -- squarefree structure --------------------------------------------------

def is_squarefree(f):
    """True iff f is nonzero and has no repeated irreducible factor."""
    if f.is_zero:
        return False
    if f.degree == 0:
        return True
    return gcd(f, f.derivative()).degree == 0


def _pth_root(f):
    """For f = g(x^p), the polynomial g (coefficientwise p-th roots)."""
    K = f.field
    p = K.p
    e = K.order // p  # c -> c^(Q/p) inverts c -> c^p
    out = []
    for i, c in enumerate(f.coeffs):
        if i % p == 0:
            out.append(K.pow(c, e))
        elif c != K.zero_rep:
            raise ValueError("not a p-th power")
    return Poly._mk(K, out)


def squarefree_decomposition(f):
    """[(g, m)] with g monic squarefree and pairwise coprime such that
    f = lc(f) * prod g^m.  Classic characteristic-p method: split off the
    multiplicity-not-divisible-by-p part, take p-th roots of the rest."""
    if f.is_zero:
        raise ValueError("zero polynomial")
    if f.degree == 0:
        return []
    K = f.field
    p = K.p
    f = f.monic()
    out = []
    scale = 1
    while f.degree > 0:
        df = f.derivative()
        if df.is_zero:
            f = _pth_root(f)
            scale *= p
            continue
        g = gcd(f, df)
        w = f // g
        i = 1
        while w.degree > 0:
            y = gcd(w, g)
            z = w // y
            if z.degree > 0:
                out.append((z, i * scale))
            w = y
            g = g // y
            i += 1
        # whatever is left of g has all multiplicities divisible by p
        f = g
    out.sort(key=lambda t: (t[1], t[0].degree, t[0].coeffs))
    return out


# -- distinct-degree and full factorization --------------------------------

def _frobenius_base(f):
    """[x^(i*Q) mod f for i < deg f], Q the coefficient field order.

    Since c^Q = c for every coefficient, g -> g^Q mod f is the linear map
    g_i -> sum g_i * base[i]; the base makes repeated Frobenius steps a
    matter of deg^2 coefficient operations instead of a fresh powering.
    Read as coordinate columns, the base is also the matrix of v -> v^Q
    on K[x]/(f) (group.frobenius_matrix).
    """
    K = f.field
    d = f.degree
    base = [Poly.constant(K, 1)]
    if d > 1:
        xq = pow_mod(Poly.x(K), K.order, f)
        base.append(xq)
        for _ in range(2, d):
            base.append((base[-1] * xq) % f)
    return base


def _frobenius_map(g, f, base):
    """g^Q mod f for deg g < deg f, via the precomputed monomial base."""
    K = f.field
    z = K.zero_rep
    acc = [z] * f.degree
    for i, gi in enumerate(g.coeffs):
        if gi != z:
            for j, bj in enumerate(base[i].coeffs):
                if bj != z:
                    acc[j] = K.muladd(acc[j], gi, bj)
    return Poly._mk(K, acc)


def _ddf(f):
    """Distinct-degree split of a monic f: [(product, d)] with d
    ascending.  For a squarefree f each product collects all irreducible
    factors of degree exactly d; factor_degrees and factor read it so,
    and f is irreducible exactly when the split is [(f, deg f)].  A
    non-squarefree f can never come back as [(f, deg f)]: it is
    reducible, and is_irreducible shows that the split of a reducible f
    has a slice of degree at most deg f / 2.

    One Frobenius base on f serves every step: g = x^(Q^d) mod f advances
    by one linear map, and each split takes gcd(cur, g - x) against the
    shrinking cofactor cur.  Since cur divides f, that gcd equals the one
    against x^(Q^d) - x reduced mod cur.
    """
    K = f.field
    x = Poly.x(K)
    cur = f
    base = _frobenius_base(f)
    g = x
    out = []
    d = 0
    while True:
        d += 1
        if 2 * d > cur.degree:
            break
        g = _frobenius_map(g, f, base)
        h = gcd(cur, g - x)
        if h.degree > 0:
            out.append((h, d))
            cur = cur // h
            if cur.degree == 0:
                break
    if cur.degree > 0:
        out.append((cur, cur.degree))
    return out


def factor_degrees(f):
    """Sorted degree multiset of the irreducible factors of a squarefree f.

    Distinct-degree factorization only: the degree-d slice of total degree
    D contributes D/d copies of d.  No equal-degree split happens, so the
    result is seedless and deterministic.
    """
    if f.is_zero or f.degree == 0:
        raise ValueError("need a nonconstant polynomial")
    f = f.monic()
    if not is_squarefree(f):
        raise ValueError("polynomial is not squarefree")
    degs = []
    for h, d in _ddf(f):
        degs.extend([d] * (h.degree // d))
    return tuple(sorted(degs))


def _random_poly(K, deg_lt, rng):
    return Poly._mk(K, [K.random_rep(rng) for _ in range(deg_lt)])


def _edf(f, d, rng):
    """Equal-degree split of monic squarefree f whose irreducible factors
    all have degree d.  Odd characteristic: power-((Q^d-1)/2) splitter;
    characteristic 2: trace-map splitter."""
    if f.degree == d:
        return [f]
    K = f.field
    Q = K.order
    pieces = None
    while pieces is None:
        r = _random_poly(K, f.degree, rng)
        if r.degree < 1:
            continue
        if K.p != 2:
            s = pow_mod(r, (Q ** d - 1) // 2, f)
            g = gcd(f, s - Poly.constant(K, 1))
        else:
            e = (Q.bit_length() - 1) * d  # Q^d = 2^e
            s = r % f
            acc = s
            for _ in range(e - 1):
                s = (s * s) % f
                acc = acc + s
            g = gcd(f, acc)
            if not 0 < g.degree < f.degree:
                g = gcd(f, acc - Poly.constant(K, 1))
        if 0 < g.degree < f.degree:
            pieces = (g, f // g)
    left, right = pieces
    return _edf(left, d, rng) + _edf(right, d, rng)


def factor(f, seed=0):
    """Full factorization: [(monic irreducible, multiplicity)], sorted by
    (degree, coefficient index tuple).  f = lc(f) * prod g^m.

    Squarefree decomposition, then distinct-degree split, then seeded
    equal-degree split; the same seed reproduces the identical run.
    """
    if f.is_zero:
        raise ValueError("zero polynomial")
    if f.degree == 0:
        return []
    K = f.field
    rng = random.Random("linmono.factor:%d" % seed)
    out = []
    for g, mult in squarefree_decomposition(f):
        for h, d in _ddf(g):
            for irr in _edf(h, d, rng):
                out.append((irr, mult))
    out.sort(key=lambda t: (t[0].degree,
                            tuple(K.index_of(c) for c in t[0].coeffs)))
    return out


def is_irreducible(f):
    """True iff f is irreducible: nonconstant, and split by _ddf into the
    one slice [(f, deg f)].  That is at most deg f / 2 Frobenius steps on
    the one base of f.

    No squarefree test is needed.  A reducible f of degree n has an
    irreducible factor g of least degree d <= n / 2.  No step before d
    finds a factor, since f has none of degree below d, so _ddf reaches
    step d (2 d <= n) while cur is still f.  There gcd(f, x^(Q^d) - x),
    the product of f's distinct irreducible factors of degree dividing
    d, contains g, so _ddf splits off a slice of degree d < n, and the
    split is not [(f, n)].  This holds for a non-squarefree f too."""
    if f.is_zero or f.degree == 0:
        return False
    f = f.monic()
    return [d for _, d in _ddf(f)] == [f.degree]


def mobius(n):
    if n < 1:
        raise ValueError("mobius needs n >= 1")
    m = 1
    d = 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            m = -m
        d += 1
    if n > 1:
        m = -m
    return m


def num_irreducible(q, d):
    """Number of monic irreducibles of degree d over F_q (necklace count):
    (1/d) * sum over e | d of mobius(e) * q^(d/e)."""
    total = 0
    for e in range(1, d + 1):
        if d % e == 0:
            total += mobius(e) * q ** (d // e)
    assert total % d == 0
    return total // d


# -- resultant and discriminant --------------------------------------------

def resultant(f, g):
    """Res(f, g) via the Euclidean remainder sequence; exact, no floats."""
    f._check(g)
    K = f.field
    if f.is_zero or g.is_zero:
        return K.zero()
    res = K.one_rep
    a, b = f, g
    while b.degree > 0:
        r = a % b
        if r.is_zero:
            return K.zero()
        sign_exp = a.degree * b.degree
        lc_exp = a.degree - r.degree
        res = K.mul(res, K.pow(b.coeffs[-1], lc_exp))
        if sign_exp % 2:
            res = K.neg(res)
        a, b = b, r
    res = K.mul(res, K.pow(b.coeffs[0], a.degree))
    return FieldElement(K, res)


def discriminant(f):
    """disc(f) = (-1)^(m(m-1)/2) * Res(f, f') / lc(f), m = deg f.

    Zero exactly when f has a repeated root; in characteristic p this
    includes every f with vanishing derivative.
    """
    if f.is_zero or f.degree < 1:
        raise ValueError("discriminant needs degree >= 1")
    K = f.field
    df = f.derivative()
    if df.is_zero:
        return K.zero()
    m = f.degree
    r = resultant(f, df).rep
    if (m * (m - 1) // 2) % 2:
        r = K.neg(r)
    return FieldElement(K, K.div(r, f.coeffs[-1]))


# -- serialization ---------------------------------------------------------

def _parse_element_obj(token):
    token = token.strip()
    if token.startswith("["):
        if not token.endswith("]"):
            raise ValueError("unbalanced brackets in %r" % token)
        inner = token[1:-1].strip()
        if not inner:
            return []
        return [_parse_element_obj(t) for t in split_top_level(inner)]
    return int(token)


def split_top_level(s):
    """Split on commas at bracket depth zero."""
    parts = []
    depth = 0
    cur = []
    for ch in s:
        if ch == "[":
            depth += 1
        elif ch == "]":
            depth -= 1
            if depth < 0:
                raise ValueError("unbalanced brackets in %r" % s)
        if ch == "," and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    if depth != 0:
        raise ValueError("unbalanced brackets in %r" % s)
    parts.append("".join(cur))
    return parts


def parse_poly(field, s):
    """Poly from its string form: comma-separated coefficients, constant
    first, each an int or a bracketed vector."""
    tokens = split_top_level(s)
    return Poly(field, [_parse_element_obj(t) for t in tokens])
