"""Finite field towers with explicit, deterministically chosen moduli.

Fields are built as towers: a prime field F_p at the bottom, and above it
one-step extensions, each defined by a monic irreducible modulus over the
field below.  Subfield membership, embedding and Frobenius maps are then
structural walks down the tower instead of isomorphism searches.  Moduli
are found by a seeded pseudorandom search, so the same (p, degrees, seed)
always reconstructs bit-identical fields.

Field arithmetic itself uses no lookup tables, and an inverse is an
extended Euclidean algorithm against the modulus.  log_tables builds, on
request and cached per field, exp/log/Zech tables over enumeration
indices for fields of at most TABLE_CAP elements.  engine.verify_gmg
runs its exhaustive search on them, and group.irreducible_orders, and
through it group.gl_census, finds the irreducibles of each degree and
their orders on the tables of the extension of that degree.

A product in F_{p^d} over the prime field is one integer product
(Kronecker substitution).  Each rep packs into an int with one byte per
coefficient, constant term lowest.  The product's 2d - 1 byte slots are
reduced mod p by one bytes.translate, and its d - 1 high slots fold back
onto x^k mod the modulus, k = d .. 2d - 2, packed once per field.  A
product slot sums at most d terms below (p - 1)^2, and a folded slot one
reduced coefficient and d - 1 such terms, so no slot carries into the
next while d (p - 1)^2 < 256: for p = 2 every d below the cardinality
cap, and d <= 63, 15, 7 and 2 for p = 3, 5, 7 and 11.  Past that bound
the d^2 schoolbook convolution runs.

Field.muladd(acc, x, y) is acc + x y, the step of the
multiply-accumulate loops in poly (all but Poly.__mul__, which says
why), linpoly, group and the loops below; a subtraction negates its
multiplier once.  On the packed product it adds the packed acc into
the folded slots, which then hold at most 2(p - 1) + (d - 1)(p - 1)^2:
within d (p - 1)^2 for p >= 3, and d + 1 < 256 for p = 2, since
d <= 40 under the cap.  (Added to the product's slots before the first
reduction, acc would carry at F_{7^7}: 7 * 36 + 6 = 258.)

A tower of degree D over a packed F_{p^e} multiplies by one integer
product too, while D e (p - 1)^2 < 256: for F_{9^D} every D under the
cap, for F_{25^D} D <= 7, for F_{49^D} D <= 3.  Each operand packs with
3e - 2 bytes per base coefficient, so a z-coefficient of the product,
of y-degree 2e - 2, leaves room for y-degree 3e - 3.  A product slot
sums at most D e terms below (p - 1)^2.  After one translate, each
high z-coefficient k = D .. 2D - 2 is reduced by one big-int
multiply-add against z^k mod the modulus, packed once per field: a slot
then holds two reduced coefficients (the low product's and acc's) and
D - 1 sums of e terms, within D e (p - 1)^2.  After a second translate,
every z-coefficient's y-slots e .. 3e - 3 fold onto y^t mod the base's
modulus in one pass of masked multiply-adds, a slot summing one reduced
coefficient and 2e - 2 terms, below 2e (p - 1)^2 <= D e (p - 1)^2; a
third translate ends it.  Towers past that bound, towers of towers and
towers over a schoolbook base keep the loop over the base's muladd.

Elements have two faces.  The public one is FieldElement.  The internal
one is a raw "rep": an int in [0, p) for a prime field, a tuple of base
reps for an extension.  The polynomial and matrix layers work on reps
directly, which keeps inner loops free of wrapper allocation.

All arithmetic is exact integer arithmetic; there are no floats anywhere.
"""

from __future__ import annotations

import functools
import random
from operator import mul as _int_mul

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


def _high_powers(base, modulus, count):
    """x^k mod the monic modulus over base, k = deg .. deg + count - 1,
    as reps (tuples of base reps), deg the modulus's degree."""
    d = len(modulus) - 1
    cur = tuple(base.neg(c) for c in modulus[:d])  # x^d
    out = []
    for _ in range(count):
        out.append(cur)
        top = base.neg(cur[-1])
        cur = tuple(base.muladd(lo, top, c)
                    for lo, c in zip((base.zero_rep,) + cur[:-1], modulus))
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
                 "zero_rep", "one_rep", "_hash", "_packed", "_tower")

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
        # The packed products wherever no byte slot can carry (see the
        # module docstring); the loops in muladd otherwise.
        self._packed = self._tower = None
        if base is None:
            return
        if base.base is None:
            if degree * (p - 1) ** 2 < 256:
                self._packed = (
                    bytes(v % p for v in range(256)),
                    tuple(int.from_bytes(bytes(r), "little")
                          for r in _high_powers(base, modulus, degree - 1)))
        elif (base._packed is not None
              and degree * base.degree * (p - 1) ** 2 < 256):
            self._tower = self._tower_layout()

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
        if self._packed is not None:
            return self._packed_product(x, y, 0)
        if self._tower is not None:
            return self._tower_product(x, y, 0)
        return self.muladd(self.zero_rep, x, y)

    def muladd(self, acc, x, y):
        """acc + x y, the step of a multiply-accumulate loop: one
        packed product where mul has one, with acc added before its last
        reductions (see the module docstring)."""
        b = self.base
        if b is None:
            return (acc + x * y) % self.p
        if self._packed is not None:
            return self._packed_product(
                x, y, int.from_bytes(bytes(acc), "little"))
        if self._tower is not None:
            return self._tower_product(x, y, int.from_bytes(
                self._tower[0].join(map(bytes, acc)), "little"))
        d = self.degree
        mod = self.modulus
        if b.base is None:
            # Coefficients are plain ints; delay the mod until the end of
            # each convolution slot.
            p = b.p
            prod = list(acc) + [0] * (d - 1)
            for i, xi in enumerate(x):
                if xi:
                    for j, yj in enumerate(y):
                        prod[i + j] += xi * yj
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
        prod = list(acc) + [bz] * (d - 1)
        for i, xi in enumerate(x):
            if xi != bz:
                for j, yj in enumerate(y):
                    if yj != bz:
                        prod[i + j] = b.muladd(prod[i + j], xi, yj)
        for k in range(2 * d - 2, d - 1, -1):
            c = prod[k]
            if c != bz:
                c = b.neg(c)
                off = k - d
                for j in range(d):
                    mj = mod[j]
                    if mj != bz:
                        prod[off + j] = b.muladd(prod[off + j], c, mj)
        return tuple(prod[:d])

    def _packed_product(self, x, y, acc):
        """acc + x y over the prime field, acc packed: one integer
        product with a byte per coefficient, then the high slots folded
        back onto x^k mod m, k = d .. 2d - 2."""
        d = self.degree
        mod_p, high = self._packed
        prod = (int.from_bytes(bytes(x), "little")
                * int.from_bytes(bytes(y), "little"))
        slots = prod.to_bytes(2 * d - 1, "little").translate(mod_p)
        low = (int.from_bytes(slots[:d], "little") + acc
               + sum(map(_int_mul, slots[d:], high)))
        return tuple(low.to_bytes(d, "little").translate(mod_p))

    def _tower_layout(self):
        """The constants of _tower_product: the pad between base
        coefficients, the mod-p table, z^k mod M, k = D .. 2D - 2,
        packed with 3e - 2 bytes per base coefficient, y^t mod m,
        t = e .. 3e - 3, packed with a byte per coefficient, and the
        byte counts, masks and slices that cut a packed product."""
        b, D = self.base, self.degree
        e = b.degree
        s = 3 * e - 2
        pad = bytes(s - e)
        mod_p = b._packed[0]
        high_z = [(8 * s * k, (1 << 8 * (2 * e - 1)) - 1,
                   int.from_bytes(pad.join(map(bytes, r)), "little"))
                  for k, r in enumerate(_high_powers(b, self.modulus, D - 1),
                                        D)]
        high_y = [(8 * t, int.from_bytes(bytes(r), "little"))
                  for t, r in enumerate(_high_powers(b.base, b.modulus,
                                                     2 * e - 2), e)]
        low_y = sum(((1 << 8 * e) - 1) << 8 * s * k for k in range(D))
        unit = sum(255 << 8 * s * k for k in range(D))
        return (pad, mod_p, (2 * D - 1) * s, D * s, (1 << 8 * s * D) - 1,
                high_z, low_y, unit, high_y,
                tuple(slice(s * k, s * k + e) for k in range(D)))

    def _tower_product(self, x, y, acc):
        """acc + x y in a tower over a packed base, acc packed: one
        integer product of the operands packed with 3e - 2 bytes per
        base coefficient, one multiply-add per high z-coefficient
        against z^k mod M, and one fold of every z-coefficient's high
        y-slots onto y^t mod m."""
        (pad, mod_p, nprod, nout, low_z, high_z, low_y, unit, high_y,
         slices) = self._tower
        prod = (int.from_bytes(pad.join(map(bytes, x)), "little")
                * int.from_bytes(pad.join(map(bytes, y)), "little"))
        prod = int.from_bytes(
            prod.to_bytes(nprod, "little").translate(mod_p), "little")
        acc += prod & low_z
        for shift, mask, zk in high_z:
            acc += ((prod >> shift) & mask) * zk
        acc = int.from_bytes(
            acc.to_bytes(nout, "little").translate(mod_p), "little")
        low = acc & low_y
        for shift, yt in high_y:
            low += ((acc >> shift) & unit) * yt
        out = low.to_bytes(nout, "little").translate(mod_p)
        return tuple([tuple(out[sl]) for sl in slices])

    def pow(self, x, e):
        """x^e by left-to-right square and multiply from x at the
        leading bit: bitlen(|e|) + popcount(|e|) - 2 products for
        e != 0, and x^(-1) by inv for e < 0."""
        if e < 0:
            x = self.inv(x)
            e = -e
        if e == 0:
            return self.one_rep
        r = x
        for bit in bin(e)[3:]:
            r = self.mul(r, r)
            if bit == "1":
                r = self.mul(r, x)
        return r

    def inv(self, x):
        """x^(-1), by the extended Euclidean algorithm: u with
        u x = 1 modulo the modulus, whose remainder sequence ends in a
        nonzero constant because the modulus is irreducible."""
        if x == self.zero_rep:
            raise ZeroDivisionError("inverse of zero in %r" % self)
        b = self.base
        if b is None:
            return pow(x, -1, self.p)
        d = self.degree
        if b.base is None:
            # Plain int coefficients, as in mul: the mod is delayed to
            # the end of each division and each cofactor update.
            p = b.p
            r0, r1 = list(self.modulus), list(x)
            s0, s1 = [0], [1]  # r_i = s_i x modulo the modulus
            while not r1[-1]:
                r1.pop()
            while len(r1) > 1:
                top = len(r1) - 1
                lead = pow(r1[-1], -1, p)
                quo = [0] * (len(r0) - top)
                for k in range(len(quo) - 1, -1, -1):
                    c = quo[k] = r0[k + top] * lead % p
                    if c:
                        for j in range(top):
                            r0[k + j] -= c * r1[j]
                rem = [v % p for v in r0[:top]]
                while rem and not rem[-1]:
                    rem.pop()
                s2 = s0 + [0] * (len(quo) + len(s1) - 1 - len(s0))
                for i, qi in enumerate(quo):
                    if qi:
                        for j, sj in enumerate(s1):
                            s2[i + j] -= qi * sj
                r0, r1, s0, s1 = r1, rem, s1, [v % p for v in s2]
            c = pow(r1[0], -1, p)
            return tuple((v * c) % p for v in (s1 + [0] * d)[:d])
        bz = b.zero_rep
        r0, r1 = list(self.modulus), list(x)
        s0, s1 = [bz], [b.one_rep]
        while r1[-1] == bz:
            r1.pop()
        while len(r1) > 1:
            top = len(r1) - 1
            lead = b.inv(r1[-1])
            quo = [bz] * (len(r0) - top)
            for k in range(len(quo) - 1, -1, -1):
                c = quo[k] = b.mul(r0[k + top], lead)
                if c != bz:
                    c = b.neg(c)
                    for j in range(top):
                        r0[k + j] = b.muladd(r0[k + j], c, r1[j])
            rem = r0[:top]
            while rem and rem[-1] == bz:
                rem.pop()
            s2 = s0 + [bz] * (len(quo) + len(s1) - 1 - len(s0))
            for i, qi in enumerate(quo):
                if qi != bz:
                    qi = b.neg(qi)
                    for j, sj in enumerate(s1):
                        s2[i + j] = b.muladd(s2[i + j], qi, sj)
            r0, r1, s0, s1 = r1, rem, s1, s2
        c = b.inv(r1[0])
        return tuple(b.mul(v, c) for v in (s1 + [bz] * d)[:d])

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
    # A p above the cap is refused by the cap check below, before its
    # trial division could run for hours.
    if not isinstance(p, int) or not (p > CARDINALITY_CAP or is_prime(p)):
        raise ValueError("characteristic must be a prime integer, got %r" % (p,))
    if m < 1:
        raise ValueError("extension degree must be >= 1, got %d" % m)
    if exceeds_cap(p, m):
        # spelled out as a number only where that number is small
        small = m == 1 or (p <= CARDINALITY_CAP
                           and m <= CARDINALITY_CAP.bit_length())
        raise CapExceededError("p^m = %s exceeds the cardinality cap"
                               % (p ** m if small else "%d^%d" % (p, m)))
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
    if exceeds_cap(base.order, k):
        raise CapExceededError(
            "extension of order %d^%d exceeds the cardinality cap"
            % (base.order, k))
    modulus = _search_modulus(base, k, seed)
    return Field(base.p, base, k, modulus)


def exceeds_cap(b, e, cap=CARDINALITY_CAP):
    """Whether b^e > cap, for ints b >= 2, e >= 1 and cap >= 1.  A b
    above the cap, or an e of the cap's bit length or more (b^e >= 2^e
    is then above it), is refused before b^e is taken, which for a huge
    e would not finish."""
    return b > cap or e >= cap.bit_length() or b ** e > cap


def _search_modulus(base, k, seed, stream="linmono.modulus", accept=None):
    """First monic irreducible of degree k over base, as a coefficient
    tuple, in the seeded pseudorandom candidate stream named stream that
    also passes accept (a Poly predicate) when one is given.  Candidates
    have nonzero constant term (x itself is never wanted as a modulus).
    Field moduli use the default stream; group.singer_modulus draws from
    "linmono.singer" and accepts only primitive candidates."""
    from . import poly  # deferred: poly builds on this module

    rng = random.Random("%s:%s:%d:%d" % (stream, base.spec_string(), k, seed))
    bo = base.order
    for _ in range(_MODULUS_TRIES):
        coeffs = [base.rep_at(rng.randrange(1, bo))]
        coeffs += [base.rep_at(rng.randrange(bo)) for _ in range(k - 1)]
        coeffs.append(base.one_rep)
        cand = poly.Poly(base, coeffs)
        if poly.is_irreducible(cand) and (accept is None or accept(cand)):
            return tuple(coeffs)
    raise RuntimeError("no modulus found in stream %s (degree %d over %r)"
                       % (stream, k, base))


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
    if v > CARDINALITY_CAP:  # before trial division up to sqrt(v)
        raise CapExceededError("p^m = %d exceeds the cardinality cap" % v)
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

@functools.cache
def log_tables(field):
    """(exp, log, zech) over enumeration indices, cached per field.

    g is the smallest index of multiplicative order q - 1.  exp[k] is the
    index of g^k (0 <= k < q - 1); log[i] is its inverse, None at i = 0;
    zech[k] is log(1 + g^k), None where 1 + g^k = 0 (Zech's logarithm;
    Lidl & Niederreiter, Finite Fields), so g^i + g^j is
    g^(i + zech[(j - i) mod (q - 1)]), or 0 where that entry is None.
    Built from Field.mul (and Field.pow over it) and Field.add only.
    """
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
    return exp, tuple(log), zech


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
