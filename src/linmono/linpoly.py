"""q-linearized polynomials: L(x) = a_0 x + a_1 x^q + ... + a_n x^(q^n).

A LinPoly keeps the compact coefficient vector (a_0, ..., a_n) together
with two field contexts: `base`, the F_q that fixes the meaning of q, and
`field`, where the coefficients live (equal to base, or an extension layer
above it; specialization moves coefficients up the tower).  Evaluation
walks iterated Frobenius powers and never materializes the dense degree
q^n polynomial, so the q-degree can be large even when to_poly would be
refused.

The additive structure is what the rest of the package leans on: the
roots of L form an F_q-vector space, the Frobenius acts on that space
as an n x n matrix, so the factor
degrees of L(x)/x over the coefficient field are its cycle type on the
nonzero roots (frobenius_cycle_type), and the square class of the
discriminant of L(x)/x is readable off the constant coefficient
(disc_square_class).
"""

from __future__ import annotations

import enum
import sys

from . import group as group_mod
from . import poly as poly_mod
from .ff import (CapExceededError, Field, FieldElement, FieldMismatchError,
                 embed_rep, exceeds_cap, is_square, multiplicative_order,
                 prime_divisors)


class SquareClass(enum.Enum):
    ZERO = "Zero"
    SQUARE = "Square"
    NONSQUARE = "NonSquare"


def square_class(a):
    """SquareClass of a field element (odd characteristic only)."""
    if not isinstance(a, FieldElement):
        raise TypeError("square_class expects a FieldElement")
    if a.is_zero:
        return SquareClass.ZERO
    return SquareClass.SQUARE if is_square(a) else SquareClass.NONSQUARE


class LinPoly:
    """A q-linearized polynomial with an explicit base F_q.

    coeffs is (a_0, ..., a_n) with a_n nonzero; n is the q-degree.  The
    coefficient field must be base itself or an extension with base as a
    tower layer.
    """

    __slots__ = ("base", "field", "coeffs")

    def __init__(self, base, coeffs, field=None):
        if not isinstance(base, Field):
            raise TypeError("base must be a Field")
        if field is None:
            field = base
        if not field.has_layer(base):
            raise FieldMismatchError(
                "coefficient field %r does not contain base %r"
                % (field, base))
        reps = tuple(field.coerce_rep(c) for c in coeffs)
        if not reps:
            raise ValueError("need at least one coefficient")
        if reps[-1] == field.zero_rep:
            raise ValueError("leading coefficient a_n must be nonzero")
        self.base = base
        self.field = field
        self.coeffs = reps

    @property
    def q(self):
        return self.base.order

    @property
    def qdeg(self):
        return len(self.coeffs) - 1

    @property
    def is_monic(self):
        return self.coeffs[-1] == self.field.one_rep

    def coefficient(self, i):
        if 0 <= i < len(self.coeffs):
            return FieldElement(self.field, self.coeffs[i])
        return self.field.zero()

    def coeff_objs(self):
        return [self.field.rep_to_obj(c) for c in self.coeffs]

    def __eq__(self, other):
        if not isinstance(other, LinPoly):
            return NotImplemented
        if other.base != self.base or other.field != self.field:
            raise FieldMismatchError("linearized polynomials over "
                                     "different contexts")
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.base, self.field, self.coeffs))

    def __str__(self):
        from .ff import format_element_obj
        return ",".join(format_element_obj(o) for o in self.coeff_objs())

    def __repr__(self):
        return "LinPoly(q=%d over %s: %s)" % (
            self.q, self.field.spec_string(), self)


def parse_linpoly(base, s, field=None):
    """LinPoly from "a0,a1,...,an" with each a_i an int or a bracketed
    element vector over the coefficient field."""
    tokens = poly_mod.split_top_level(s)
    objs = [poly_mod._parse_element_obj(t) for t in tokens]
    return LinPoly(base, objs, field=field)


# -- dense forms -----------------------------------------------------------

def to_poly(L):
    """The dense polynomial of degree q^n over the coefficient field.
    Refused when q^n would exceed the dense cap; use evaluate for large
    q-degrees."""
    return _dense(L, 0)


def reduced(L):
    """L(x)/x as a dense polynomial of degree q^n - 1: coefficient a_i
    lands at exponent q^i - 1.  Refused as to_poly is."""
    return _dense(L, 1)


def check_dense(q, n):
    """Refuse a dense form of degree q^n above poly.DENSE_CAP, by
    ff.exceeds_cap before q^n is taken; the degree is written "q^n"
    where Python would not print it (sys.get_int_max_str_digits())."""
    if exceeds_cap(q, n, poly_mod.DENSE_CAP):
        digits = sys.get_int_max_str_digits()
        huge = digits and exceeds_cap(q, n, 10 ** digits - 1)
        raise CapExceededError(
            "dense form of q-degree %d over F_%d has degree %s; "
            "use evaluate instead"
            % (n, q, "%d^%d" % (q, n) if huge else q ** n))


def _dense(L, shift):
    """to_poly (shift 0) or reduced (shift 1): a_i at exponent
    q^i - shift."""
    K = L.field
    n = L.qdeg
    q = L.q
    check_dense(q, n)
    out = [K.zero_rep] * (q ** n + 1 - shift)
    for i, c in enumerate(L.coeffs):
        out[q ** i - shift] = c
    return poly_mod.Poly._mk(K, out)


# -- evaluation and specialization -----------------------------------------

def evaluate(L, x):
    """L(x) for x in the coefficient field or any extension layer above
    it.  Computed as sum a_i * x^(q^i) with iterated Frobenius powers;
    cost is n field powerings, independent of q^n."""
    if not isinstance(x, FieldElement):
        raise TypeError("evaluate expects a FieldElement")
    E = x.field
    if not E.has_layer(L.field):
        raise FieldMismatchError(
            "point lies in %r which does not contain %r" % (E, L.field))
    q = L.q
    t = x.rep
    acc = E.zero_rep
    for i, c in enumerate(L.coeffs):
        if i > 0:
            t = E.pow(t, q)
        if c != L.field.zero_rep:
            cr = c if E == L.field else embed_rep(E, L.field, c)
            acc = E.muladd(acc, cr, t)
    return FieldElement(E, acc)


def specialize(L, alpha):
    """L_alpha = L - (L(alpha)/alpha) x: the unique shift of the x
    coefficient that makes alpha a root.  Coefficients live in alpha's
    field afterwards; the q-degree and leading coefficient are unchanged."""
    if not isinstance(alpha, FieldElement):
        raise TypeError("specialize expects a FieldElement")
    if alpha.is_zero:
        raise ValueError("specialization point must be nonzero")
    if L.qdeg < 1:
        raise ValueError("q-degree must be >= 1 to specialize")
    E = alpha.field
    ratio = (evaluate(L, alpha) / alpha).rep
    coeffs = [c if E == L.field else embed_rep(E, L.field, c)
              for c in L.coeffs]
    coeffs[0] = E.sub(coeffs[0], ratio)
    return LinPoly(L.base, coeffs, field=E)


# -- linear algebra --------------------------------------------------------

def _degree_over(E, K):
    """[E : K] for a tower layer K of E."""
    dim = 1
    for layer in E.layers():
        if layer == K:
            break
        dim *= layer.degree
    return dim


def _rank(K, M):
    """Rank of a matrix over K given as rows of raw reps, by row
    echelon form."""
    rows = [list(r) for r in M]
    z = K.zero_rep
    r = 0
    for c in range(len(rows[0])):
        pr = next((i for i in range(r, len(rows)) if rows[i][c] != z), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = K.inv(rows[r][c])
        for i in range(r + 1, len(rows)):
            if rows[i][c] != z:
                f = K.neg(K.mul(rows[i][c], inv))
                rows[i] = [K.muladd(vi, f, vr)
                           for vi, vr in zip(rows[i], rows[r])]
        r += 1
    return r


# -- Frobenius cycle type --------------------------------------------------

def frobenius_cycle_type(L):
    """Sorted cycle lengths of the Frobenius v -> v^(q^k) on the nonzero
    roots of L, where L has coefficients in E = F_{q^k} and a_0 != 0.
    These are the factor degrees of L(x)/x over E, found by n x n linear
    algebra over E instead of factoring the degree q^n - 1 polynomial.

    If M is the Moore matrix (row i = q^i-th powers) of a basis of the
    root space V, then M^(q) = C M with C the companion matrix of the
    recurrence v^(q^n) = -sum (a_i / a_n) v^(q^i), and applying that k
    times gives M^(q^k) = N M for N = C^(q^(k-1)) ... C^(q) C, where
    C^(q) raises each entry to the q-th power.  So N is similar to the
    Frobenius on V, and its m-th power fixes q^(n - rank(N^m - I))
    roots.

    The cycle type depends only on N's similarity class, and
    group.class_cycle_type, the routine gl_census runs, reads it off the
    class data: for each irreducible factor f^m of the characteristic
    polynomial chi of N (which has coefficients in F_q), the part
    (deg f, ord f, lam_f), with ord f the order of x modulo f and lam_f
    the partition of m into the block sizes of the f-primary part.
    _charpoly finds chi in O(n^3) and poly.factor splits it; ord(f)
    divides q^(deg f) - 1, and ff.multiplicative_order finds it from
    there: on powers of x modulo f (poly.order_of_x), or for a linear
    f = x - c, the most common kind, on powers of c in F_q*.  lam_f = (1)
    when m = 1; otherwise _primary_partition reads it off the ranks of
    the powers of f(N).  x^(q^(deg f) - 1) != 1 modulo f (c^(q - 1) != 1
    for f = x - c) would mean poly.factor returned a reducible f, or x:
    an internal failure (AssertionError).
    """
    E, K = L.field, L.base
    n, q = L.qdeg, L.q
    if n < 1 or L.coeffs[0] == E.zero_rep:
        raise ValueError("need q-degree >= 1 and a_0 != 0")
    N = _frobenius_matrix(L)
    chi = poly_mod.Poly._mk(K, [_down(E, K, c) for c in _charpoly(E, N)])
    parts = []
    for f, m in poly_mod.factor(chi):
        e = q ** f.degree - 1
        if f.degree == 1:  # x = c modulo x - c: the order of c in F_q*
            c = K.neg(f.coeffs[0])
            o = multiplicative_order(e, prime_divisors(e),
                                     lambda j: K.pow(c, j) == K.one_rep)
        else:
            o = poly_mod.order_of_x(f, e, prime_divisors(e))
        if o is None:
            raise AssertionError("x^(q^%d - 1) is not 1 modulo %s"
                                 % (f.degree, f))
        lam = (1,) if m == 1 else _primary_partition(E, N, f, m)
        parts.append((f.degree, o, lam))
    return group_mod.class_cycle_type(K, parts)


def _charpoly(E, A):
    """Coefficient reps, constant first, of the characteristic polynomial
    of the square matrix A over E, in O(n^3) (H. Cohen, A Course in
    Computational Algebraic Number Theory, Alg. 2.2.9).  A similarity
    brings A to upper Hessenberg form H column by column: a row and
    column swap moves a nonzero entry to the subdiagonal (a column with
    none is skipped), and row operations, undone on the columns, clear
    the entries under it.  The leading blocks of H then have p_i =
    (x - h_ii) p_(i-1) - sum_(j<i) h_ji h_(j+1,j)...h_(i,i-1) p_(j-1)."""
    n, z = len(A), E.zero_rep
    H = [list(row) for row in A]
    for m in range(1, n - 1):
        i = next((i for i in range(m, n) if H[i][m - 1] != z), None)
        if i is None:
            continue
        H[i], H[m] = H[m], H[i]
        for row in H:
            row[i], row[m] = row[m], row[i]
        inv = E.inv(H[m][m - 1])
        for j in range(m + 1, n):
            u = E.mul(H[j][m - 1], inv)
            if u != z:  # row j -= u row m, then column m += u column j
                nu = E.neg(u)
                H[j] = [E.muladd(a, nu, b) for a, b in zip(H[j], H[m])]
                for row in H:
                    row[m] = E.muladd(row[m], u, row[j])
    p = [[E.one_rep]]
    for i in range(n):
        pi, t = [z] + p[i], E.one_rep
        for j in range(i, -1, -1):  # t = h_(j+1,j) ... h_(i,i-1)
            c = E.neg(E.mul(t, H[j][i]))
            if c != z:
                for d, v in enumerate(p[j]):
                    pi[d] = E.muladd(pi[d], c, v)
            t = E.mul(t, H[j][j - 1]) if j else z
            if t == z:
                break
        p.append(pi)
    return p[n]


def _primary_partition(E, N, f, m):
    """The partition lam of m into the block sizes of the f-primary part
    of N, for f irreducible over a layer of E with multiplicity m >= 2 in
    N's characteristic polynomial.  The steps of dim ker f(N)^j / deg f
    = sum_(e in lam) min(e, j), j = 1, 2, ..., are the conjugate of lam.
    After a step of 1 one part is left, so the steps are 1 up to m from
    there, and a cyclic primary part, lam = (m), stops at j = 1."""
    n = len(N)
    A = group_mod.mat_identity(E, n)
    for c in reversed(f.coeffs[:-1]):  # Horner
        c = embed_rep(E, f.field, c)
        A = [[E.add(v, c) if i == j else v for j, v in enumerate(row)]
             for i, row in enumerate(group_mod.mat_mul(E, A, N))]
    steps, dim, P = [], 0, A
    while True:
        d = (n - _rank(E, P)) // f.degree
        steps.append(d - dim)
        dim = d
        if steps[-1] == 1 or dim == m:
            break
        P = group_mod.mat_mul(E, P, A)
    steps += [1] * (m - dim)
    return tuple(sum(1 for s in steps if s > i) for i in range(steps[0]))


def _frobenius_matrix(L):
    """The transpose of N = C^(q^(k-1)) ... C^(q) C over L's field.
    group.companion_matrix of the monic recurrence polynomial is C
    transposed, so the product runs in the opposite order; a transpose
    has the same ranks and characteristic polynomial.  Each factor is a
    column shift plus one new column, O(n^2) field operations."""
    E = L.field
    lead = E.inv(L.coeffs[-1])
    coeffs = [E.mul(c, lead) for c in L.coeffs[:-1]]
    z = E.zero_rep
    N = group_mod.companion_matrix(
        E, poly_mod.Poly._mk(E, coeffs + [E.one_rep]))
    for _ in range(_degree_over(E, L.base) - 1):
        coeffs = [E.pow(c, L.q) for c in coeffs]
        # Times the companion matrix of coeffs: columns 1 .. n-1 move one
        # place left, and the new last column is N times -coeffs.
        rows = []
        for row in N:
            acc = z
            for v, c in zip(row, coeffs):
                if v != z and c != z:
                    acc = E.muladd(acc, v, c)
            rows.append(row[1:] + (E.neg(acc),))
        N = tuple(rows)
    return N


def _down(E, K, rep):
    """The rep over the tower layer K of an element of E lying in K."""
    while E != K:
        if any(c != E.base.zero_rep for c in rep[1:]):
            raise AssertionError("characteristic polynomial has a "
                                 "coefficient outside F_q")
        E, rep = E.base, rep[0]
    return rep


# -- discriminant square class ---------------------------------------------

def disc_square_class(L):
    """Square class of (-1)^((q^n - 1)/2) * a_0 in the coefficient field.

    For monic L with a_0 != 0 this is the square class of the
    discriminant of L(x)/x (whose constant term is a_0 and whose
    derivative is the constant a_0).  Odd characteristic only.
    """
    if L.base.p == 2:
        raise ValueError("square class is degenerate in characteristic 2")
    c = L.coefficient(0)
    if c.is_zero:
        raise ValueError("constant coefficient a_0 is zero; "
                         "the reduced polynomial is not squarefree")
    parity = ((L.q ** L.qdeg - 1) // 2) % 2
    val = -c if parity else c
    return square_class(val)
