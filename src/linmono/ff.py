"""Finite field towers with explicit, deterministically chosen moduli.

Fields are built as towers: a prime field F_p at the bottom, and above it
one-step extensions, each defined by a monic irreducible modulus over the
field below.  Subfield membership, embedding and Frobenius maps are then
structural walks down the tower instead of isomorphism searches.  Moduli
are found by a seeded pseudorandom search, so the same (p, degrees, seed)
always reconstructs bit-identical fields.

Field arithmetic itself uses no lookup tables.  log_tables builds, on
request and cached per field, exp/log/Zech tables over enumeration
indices for fields of at most TABLE_CAP elements; engine.verify_gmg
runs its exhaustive loop on them.

Elements have two faces.  The public one is FieldElement.  The internal
one is a raw "rep": an int in [0, p) for a prime field, a tuple of base
reps for an extension.  The polynomial and matrix layers work on reps
directly, which keeps inner loops free of wrapper allocation.

All arithmetic is exact integer arithmetic; there are no floats anywhere.
"""

from __future__ import annotations

import random

# Hard cap on field cardinality.  Exponent arithmetic (Frobenius, Euler
# criterion) stays cheap below this, and nothing in the intended scale
# needs more.
CARDINALITY_CAP = 1 << 40

# Exhaustive-enumeration guard for elements().
ENUM_CAP = 1 << 22

# Largest field log_tables will tabulate.
TABLE_CAP = 1 << 16

_MODULUS_TRIES = 20000


class FieldMismatchError(ValueError):
    """Elements or layers of two different field contexts were mixed."""


class CapExceededError(ValueError):
    """A construction or enumeration would exceed a hard cap."""


def is_prime(n):
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def prime_divisors(n):
    """Distinct prime divisors of n >= 1, ascending."""
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


class Field:
    """A prime field or a one-step extension of another Field.

    Use make_field / extend_field / parse_field_spec to construct one.
    Equality is structural (same tower shape and same moduli), so two
    independently built towers with the same parameters and seed compare
    equal and their elements interoperate.

    Attributes:
        p: characteristic.
        base: the Field one step down, or None for a prime field.
        degree: extension degree over base (1 for a prime field).
        modulus: tuple of base reps, length degree+1, monic; None for a
            prime field.
        order: number of elements.
    """

    __slots__ = ("p", "base", "degree", "modulus", "order", "key",
                 "zero_rep", "one_rep", "_hash")

    def __init__(self, p, base, degree, modulus):
        self.p = p
        self.base = base
        self.degree = degree
        self.modulus = modulus
        if base is None:
            self.order = p
            self.key = ("prime", p)
            self.zero_rep = 0
            self.one_rep = 1 % p
        else:
            self.order = base.order ** degree
            self.key = ("ext", base.key, degree, modulus)
            self.zero_rep = (base.zero_rep,) * degree
            self.one_rep = (base.one_rep,) + (base.zero_rep,) * (degree - 1)
        self._hash = hash(self.key)

    # -- identity ----------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Field):
            return NotImplemented
        return self.key == other.key

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return "Field(%s)" % self.spec_string()

    def spec_string(self):
        """Field spec in "p^m" form, tower steps joined with "+"."""
        if self.base is None:
            return str(self.p)
        if self.base.base is None:
            return "%d^%d" % (self.p, self.degree)
        return self.base.spec_string() + "+%d" % self.degree

    def layers(self):
        """Yield this field, then each base down to the prime field."""
        f = self
        while f is not None:
            yield f
            f = f.base

    def has_layer(self, sub):
        return any(layer == sub for layer in self.layers())

    # -- rep arithmetic ----------------------------------------------------

    def add(self, x, y):
        if self.base is None:
            return (x + y) % self.p
        b = self.base
        if b.base is None:
            p = b.p
            return tuple((xi + yi) % p for xi, yi in zip(x, y))
        return tuple(b.add(xi, yi) for xi, yi in zip(x, y))

    def sub(self, x, y):
        if self.base is None:
            return (x - y) % self.p
        b = self.base
        if b.base is None:
            p = b.p
            return tuple((xi - yi) % p for xi, yi in zip(x, y))
        return tuple(b.sub(xi, yi) for xi, yi in zip(x, y))

    def neg(self, x):
        if self.base is None:
            return (-x) % self.p
        b = self.base
        if b.base is None:
            p = b.p
            return tuple((-xi) % p for xi in x)
        return tuple(b.neg(xi) for xi in x)

    def mul(self, x, y):
        if self.base is None:
            return (x * y) % self.p
        b = self.base
        d = self.degree
        if b.base is None:
            # Coefficients are plain ints; delay the mod until the end of
            # each convolution slot.
            p = b.p
            prod = [0] * (2 * d - 1)
            for i, xi in enumerate(x):
                if xi:
                    for j, yj in enumerate(y):
                        prod[i + j] += xi * yj
            mod = self.modulus
            for k in range(2 * d - 2, d - 1, -1):
                c = prod[k] % p
                if c:
                    off = k - d
                    for j in range(d):
                        mj = mod[j]
                        if mj:
                            prod[off + j] -= c * mj
            return tuple(v % p for v in prod[:d])
        bz = b.zero_rep
        prod = [bz] * (2 * d - 1)
        for i, xi in enumerate(x):
            if xi != bz:
                for j, yj in enumerate(y):
                    if yj != bz:
                        prod[i + j] = b.add(prod[i + j], b.mul(xi, yj))
        mod = self.modulus
        for k in range(2 * d - 2, d - 1, -1):
            c = prod[k]
            if c != bz:
                off = k - d
                for j in range(d):
                    mj = mod[j]
                    if mj != bz:
                        prod[off + j] = b.sub(prod[off + j], b.mul(c, mj))
        return tuple(prod[:d])

    def pow(self, x, e):
        if e < 0:
            x = self.inv(x)
            e = -e
        r = self.one_rep
        if e == 0:
            return r
        for bit in bin(e)[2:]:
            r = self.mul(r, r)
            if bit == "1":
                r = self.mul(r, x)
        return r

    def inv(self, x):
        if x == self.zero_rep:
            raise ZeroDivisionError("inverse of zero in %r" % self)
        # Fermat: x^(Q-2).  Fine at these cardinalities and avoids a
        # second extended-Euclid code path.
        return self.pow(x, self.order - 2)

    def div(self, x, y):
        return self.mul(x, self.inv(y))

    # -- rep construction and enumeration ----------------------------------

    def scalar_rep(self, c):
        """Rep of the image of the integer c (i.e. c times one)."""
        if self.base is None:
            return c % self.p
        b = self.base
        return (b.scalar_rep(c),) + (b.zero_rep,) * (self.degree - 1)

    def rep_at(self, i):
        """Rep of the element with enumeration index i (0 is zero).

        Indexing is base-order positional: index digits, least significant
        first, are the coefficient indices of the rep.
        """
        if not 0 <= i < self.order:
            raise ValueError("index %d out of range for %r" % (i, self))
        if self.base is None:
            return i
        b = self.base
        bo = b.order
        out = []
        for _ in range(self.degree):
            out.append(b.rep_at(i % bo))
            i //= bo
        return tuple(out)

    def index_of(self, rep):
        if self.base is None:
            return rep
        b = self.base
        bo = b.order
        i = 0
        for c in reversed(rep):
            i = i * bo + b.index_of(c)
        return i

    def coerce_rep(self, x):
        """Rep from an int (scalar), a FieldElement, or an obj-form value."""
        if isinstance(x, FieldElement):
            if x.field != self:
                raise FieldMismatchError(
                    "element of %r used in %r" % (x.field, self))
            return x.rep
        if isinstance(x, int):
            return self.scalar_rep(x)
        if isinstance(x, (list, tuple)):
            return self.rep_from_obj(x)
        raise TypeError("cannot coerce %r into %r" % (x, self))

    def rep_from_obj(self, obj):
        """Rep from the serialized form: int for prime fields, nested list
        of base objs (coefficient of the generator's 0th power first) for
        extensions.  Short lists are zero-padded; bare ints embed as
        scalars at any level."""
        if self.base is None:
            if not isinstance(obj, int):
                raise ValueError("prime field element must be an int, got %r"
                                 % (obj,))
            return obj % self.p
        if isinstance(obj, int):
            return self.scalar_rep(obj)
        if len(obj) > self.degree:
            raise ValueError("element vector of length %d too long for %r"
                             % (len(obj), self))
        b = self.base
        coeffs = [b.rep_from_obj(c) for c in obj]
        coeffs += [b.zero_rep] * (self.degree - len(coeffs))
        return tuple(coeffs)

    def rep_to_obj(self, rep):
        if self.base is None:
            return rep
        b = self.base
        return [b.rep_to_obj(c) for c in rep]

    def elem(self, x):
        return FieldElement(self, self.coerce_rep(x))

    def zero(self):
        return FieldElement(self, self.zero_rep)

    def one(self):
        return FieldElement(self, self.one_rep)

    def element_at(self, i):
        return FieldElement(self, self.rep_at(i))

    def elements(self):
        """All elements in enumeration-index order."""
        if self.order > ENUM_CAP:
            raise CapExceededError("refusing to enumerate %d elements"
                                   % self.order)
        for i in range(self.order):
            yield FieldElement(self, self.rep_at(i))

    def random_rep(self, rng):
        return self.rep_at(rng.randrange(self.order))


class FieldElement:
    """An element of a Field.  Immutable; arithmetic via operators.

    Mixing elements of different contexts raises FieldMismatchError, also
    for equality: cross-context comparison is an error, not False.  Ints
    interoperate as scalars.
    """

    __slots__ = ("field", "rep")

    def __init__(self, field, rep):
        self.field = field
        self.rep = rep

    def _coerce(self, other):
        if isinstance(other, FieldElement):
            if other.field != self.field:
                raise FieldMismatchError(
                    "cannot combine elements of %r and %r"
                    % (self.field, other.field))
            return other.rep
        if isinstance(other, int):
            return self.field.scalar_rep(other)
        return None

    def __add__(self, other):
        r = self._coerce(other)
        if r is None:
            return NotImplemented
        return FieldElement(self.field, self.field.add(self.rep, r))

    __radd__ = __add__

    def __sub__(self, other):
        r = self._coerce(other)
        if r is None:
            return NotImplemented
        return FieldElement(self.field, self.field.sub(self.rep, r))

    def __rsub__(self, other):
        r = self._coerce(other)
        if r is None:
            return NotImplemented
        return FieldElement(self.field, self.field.sub(r, self.rep))

    def __mul__(self, other):
        r = self._coerce(other)
        if r is None:
            return NotImplemented
        return FieldElement(self.field, self.field.mul(self.rep, r))

    __rmul__ = __mul__

    def __truediv__(self, other):
        r = self._coerce(other)
        if r is None:
            return NotImplemented
        return FieldElement(self.field, self.field.div(self.rep, r))

    def __rtruediv__(self, other):
        r = self._coerce(other)
        if r is None:
            return NotImplemented
        return FieldElement(self.field, self.field.div(r, self.rep))

    def __neg__(self):
        return FieldElement(self.field, self.field.neg(self.rep))

    def __pow__(self, e):
        if not isinstance(e, int):
            return NotImplemented
        return FieldElement(self.field, self.field.pow(self.rep, e))

    def __eq__(self, other):
        r = self._coerce(other)
        if r is None:
            return NotImplemented
        return self.rep == r

    def __hash__(self):
        return hash((self.field._hash, self.rep))

    def __bool__(self):
        return self.rep != self.field.zero_rep

    @property
    def is_zero(self):
        return self.rep == self.field.zero_rep

    def inverse(self):
        return FieldElement(self.field, self.field.inv(self.rep))

    def to_obj(self):
        return self.field.rep_to_obj(self.rep)

    def index(self):
        return self.field.index_of(self.rep)

    def __str__(self):
        return format_element_obj(self.to_obj())

    def __repr__(self):
        return "FieldElement(%s, %s)" % (self.field.spec_string(), self)


def format_element_obj(obj):
    if isinstance(obj, int):
        return str(obj)
    return "[" + ",".join(format_element_obj(c) for c in obj) + "]"


# -- construction ----------------------------------------------------------

def make_field(p, m=1, seed=0):
    """F_{p^m} as a single extension step over the prime field F_p.

    The degree-m modulus is the first irreducible hit by a seeded
    pseudorandom search, so the construction is reproducible from
    (p, m, seed) alone.
    """
    if not isinstance(p, int) or not is_prime(p):
        raise ValueError("characteristic must be a prime integer, got %r" % (p,))
    if m < 1:
        raise ValueError("extension degree must be >= 1, got %d" % m)
    if p ** m > CARDINALITY_CAP:
        raise CapExceededError("p^m = %d exceeds the cardinality cap" % p ** m)
    prime = Field(p, None, 1, None)
    if m == 1:
        return prime
    return extend_field(prime, m, seed)


def extend_field(base, k, seed=0):
    """Degree-k extension of base by a seeded-search irreducible modulus.

    k = 1 returns base unchanged.
    """
    if not isinstance(base, Field):
        raise TypeError("base must be a Field")
    if k < 1:
        raise ValueError("extension degree must be >= 1, got %d" % k)
    if k == 1:
        return base
    if base.order ** k > CARDINALITY_CAP:
        raise CapExceededError(
            "extension of order %d^%d exceeds the cardinality cap"
            % (base.order, k))
    modulus = _search_modulus(base, k, seed)
    return Field(base.p, base, k, modulus)


def _search_modulus(base, k, seed):
    """First monic irreducible of degree k over base in a seeded
    pseudorandom candidate stream.  Candidates have nonzero constant term
    (x itself is never wanted as a modulus)."""
    from . import poly  # deferred: poly builds on this module

    rng = random.Random("linmono.modulus:%s:%d:%d"
                        % (base.spec_string(), k, seed))
    bo = base.order
    for _ in range(_MODULUS_TRIES):
        coeffs = [base.rep_at(rng.randrange(1, bo))]
        coeffs += [base.rep_at(rng.randrange(bo)) for _ in range(k - 1)]
        coeffs.append(base.one_rep)
        cand = poly.Poly(base, coeffs)
        if poly.is_irreducible(cand):
            return tuple(coeffs)
    raise RuntimeError("no irreducible modulus found (degree %d over %r)"
                       % (k, base))


def parse_field_spec(spec, seed=0):
    """Field from a spec string: "p^m" (or a plain prime power like "9"),
    with optional tower steps appended as "+k", e.g. "3^2+3" for F_{9^3}."""
    parts = str(spec).strip().split("+")
    head = parts[0]
    if "^" in head:
        ps, ms = head.split("^", 1)
        p, m = int(ps), int(ms)
    else:
        p, m = _prime_power_split(int(head))
    f = make_field(p, m, seed)
    for step in parts[1:]:
        f = extend_field(f, int(step), seed)
    return f


def _prime_power_split(v):
    if v < 2:
        raise ValueError("field order must be >= 2, got %d" % v)
    p = v
    for cand in range(2, v + 1):
        if cand * cand > v:
            break
        if v % cand == 0:
            p = cand
            break
    m = 0
    w = v
    while w % p == 0 and w > 1:
        w //= p
        m += 1
    if w != 1 or not is_prime(p):
        raise ValueError("%d is not a prime power" % v)
    return p, m


# -- index tables ----------------------------------------------------------

_log_tables_cache = {}


def log_tables(field):
    """(exp, log, zech) over enumeration indices, cached per field.

    g is the smallest index of multiplicative order q - 1.  exp[k] is the
    index of g^k (0 <= k < q - 1); log[i] is its inverse, None at i = 0;
    zech[k] is log(1 + g^k), None where 1 + g^k = 0 (Zech's logarithm;
    Lidl & Niederreiter, Finite Fields), so g^i + g^j is
    g^(i + zech[(j - i) mod (q - 1)]), or 0 where that entry is None.
    Built from Field.mul (and Field.pow over it) and Field.add only.
    """
    cached = _log_tables_cache.get(field)
    if cached is not None:
        return cached
    q = field.order
    if q > TABLE_CAP:
        raise CapExceededError("%d elements exceed the table cap %d"
                               % (q, TABLE_CAP))
    n = q - 1
    one = field.one_rep
    checks = [n // r for r in prime_divisors(n)]
    gi = next(i for i in range(1, q)
              if all(field.pow(field.rep_at(i), e) != one for e in checks))
    g = field.rep_at(gi)
    powers = [one]
    for _ in range(n - 1):
        powers.append(field.mul(powers[-1], g))
    exp = tuple(field.index_of(x) for x in powers)
    log = [None] * q
    for k, i in enumerate(exp):
        log[i] = k
    if None in log[1:]:
        raise AssertionError("g^k misses a nonzero element of %r" % field)
    zech = tuple(log[field.index_of(field.add(one, x))] for x in powers)
    cached = _log_tables_cache[field] = (exp, tuple(log), zech)
    return cached


# -- maps ------------------------------------------------------------------

def frobenius(a, sub):
    """a raised to the |sub| power: the Frobenius of a relative to the
    tower layer sub, which must appear in a's tower."""
    if not isinstance(a, FieldElement):
        raise TypeError("frobenius expects a FieldElement")
    if not a.field.has_layer(sub):
        raise FieldMismatchError("%r is not a layer of %r" % (sub, a.field))
    return a ** sub.order


def is_square(a):
    """Euler criterion.  Errors in characteristic 2, where squaring is a
    bijection and the question signals a misuse."""
    if not isinstance(a, FieldElement):
        raise TypeError("is_square expects a FieldElement")
    f = a.field
    if f.p == 2:
        raise ValueError("square class is degenerate in characteristic 2")
    if a.is_zero:
        return True
    return f.pow(a.rep, (f.order - 1) // 2) == f.one_rep


def embed(a, target):
    """Image of a in target, which must contain a's field as a tower layer."""
    if not isinstance(a, FieldElement):
        raise TypeError("embed expects a FieldElement")
    return FieldElement(target, embed_rep(target, a.field, a.rep))


def embed_rep(target, source, rep):
    if target == source:
        return rep
    b = target.base
    if b is None:
        raise FieldMismatchError("%r is not a layer of %r" % (source, target))
    inner = embed_rep(b, source, rep)
    return (inner,) + (b.zero_rep,) * (target.degree - 1)
