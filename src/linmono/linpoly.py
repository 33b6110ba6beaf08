"""q-linearized polynomials: L(x) = a_0 x + a_1 x^q + ... + a_n x^(q^n).

A LinPoly keeps the compact coefficient vector (a_0, ..., a_n) together
with two field contexts: `base`, the F_q that fixes the meaning of q, and
`field`, where the coefficients live (equal to base, or an extension layer
above it; specialization moves coefficients up the tower).  Evaluation
walks iterated Frobenius powers and never materializes the dense degree
q^n polynomial, so the q-degree can be large even when to_poly would be
refused.

The additive structure is what the rest of the package leans on: the
roots of L form an F_q-vector space (root_space computes it as a kernel),
the Frobenius acts on that space as an n x n matrix, so the factor
degrees of L(x)/x over the coefficient field are its cycle type on the
nonzero roots (frobenius_cycle_type), and the square class of the
discriminant of L(x)/x is readable off the constant coefficient
(disc_square_class).
"""

from __future__ import annotations

import enum

from . import group as group_mod
from . import poly as poly_mod
from .ff import (CapExceededError, Field, FieldElement, FieldMismatchError,
                 embed_rep, is_square, prime_divisors)


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


def _dense(L, shift):
    """to_poly (shift 0) or reduced (shift 1): a_i at exponent
    q^i - shift."""
    K = L.field
    n = L.qdeg
    q = L.q
    if q ** n > poly_mod.DENSE_CAP:
        raise CapExceededError(
            "dense form of q-degree %d over F_%d has degree %d; "
            "use evaluate instead" % (n, q, q ** n))
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
    if not E.has_layer(L.field):
        raise FieldMismatchError(
            "point lies in %r which does not contain %r" % (E, L.field))
    ratio = (evaluate(L, alpha) / alpha).rep
    coeffs = [c if E == L.field else embed_rep(E, L.field, c)
              for c in L.coeffs]
    coeffs[0] = E.sub(coeffs[0], ratio)
    return LinPoly(L.base, coeffs, field=E)


# -- root space ------------------------------------------------------------

def _flatten(ctx, stop, rep, out):
    if ctx == stop:
        out.append(rep)
        return
    b = ctx.base
    if b is None:
        raise FieldMismatchError("%r is not a layer of %r" % (stop, ctx))
    for c in rep:
        _flatten(b, stop, c, out)


def _unflatten(ctx, stop, flat, pos):
    if ctx == stop:
        return flat[pos], pos + 1
    b = ctx.base
    coeffs = []
    for _ in range(ctx.degree):
        c, pos = _unflatten(b, stop, flat, pos)
        coeffs.append(c)
    return tuple(coeffs), pos


def root_space(L, E):
    """Basis (list of FieldElements of E) of the F_q-vector space
    {v in E : L(v) = 0}, where q is L's base order.

    E is flattened to an F_q-space of dimension [E : F_q]; v -> L(v) is
    F_q-linear there, and the kernel is read off by Gaussian elimination.
    """
    if not isinstance(E, Field):
        raise TypeError("E must be a Field")
    if not E.has_layer(L.base):
        raise FieldMismatchError(
            "%r does not contain the base field %r" % (E, L.base))
    if not E.has_layer(L.field):
        raise FieldMismatchError(
            "%r does not contain the coefficient field %r" % (E, L.field))
    K = L.base
    dim = _degree_over(E, K)
    cols = []
    for j in range(dim):
        flat = [K.zero_rep] * dim
        flat[j] = K.one_rep
        e_rep, _ = _unflatten(E, K, flat, 0)
        w = evaluate(L, FieldElement(E, e_rep))
        out = []
        _flatten(E, K, w.rep, out)
        cols.append(out)
    # matrix rows: M[i][j] = coordinate i of L(basis_j)
    M = [[cols[j][i] for j in range(dim)] for i in range(dim)]
    kernel = _kernel_basis(K, M, dim)
    roots = []
    for vec in kernel:
        rep, _ = _unflatten(E, K, vec, 0)
        roots.append(FieldElement(E, rep))
    return roots


def _degree_over(E, K):
    """[E : K] for a tower layer K of E."""
    dim = 1
    for layer in E.layers():
        if layer == K:
            break
        dim *= layer.degree
    return dim


def _kernel_basis(K, M, n):
    """Kernel basis of a matrix over K with n columns (rows of raw reps).

    The basis vector of a free column c is 1 at c and 0 at every other
    free column and at every pivot after c, so the first one is the first
    linear dependence among the columns."""
    rows = [list(r) for r in M]
    nrows = len(rows)
    z = K.zero_rep
    pivots = []
    r = 0
    for c in range(n):
        pr = None
        for i in range(r, nrows):
            if rows[i][c] != z:
                pr = i
                break
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = K.inv(rows[r][c])
        rows[r] = [K.mul(inv, v) for v in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][c] != z:
                f = K.neg(rows[i][c])
                rows[i] = [K.muladd(vi, f, vr)
                           for vi, vr in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    pivot_set = set(pivots)
    basis = []
    for fc in range(n):
        if fc in pivot_set:
            continue
        v = [z] * n
        v[fc] = K.one_rep
        for pi, pc in enumerate(pivots):
            v[pc] = K.neg(rows[pi][fc])
        basis.append(v)
    return basis


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
    class data: for each irreducible factor f of the minimal polynomial
    mu of N (which has coefficients in F_q), the order of x modulo f and
    the partition lam_f of the f-primary part.  poly.factor splits mu,
    of degree <= n; ord(f) divides q^(deg f) - 1 and poly.order_of_x
    finds it from there; for a linear f = x - c, the most common kind,
    it is the order of c in F_q*, found from q - 1 by field powers.
    When deg mu = n (N is cyclic, the usual case) a factor f^m of mu
    has lam_f = (m); otherwise the ranks of f(N)^j, j <= m, built from
    the powers N^j, give dim ker f(N)^j = deg f * sum_(e in lam_f)
    min(e, j), and lam_f is the conjugate of the rank differences.
    x^(q^(deg f) - 1) != 1 modulo f (c^(q - 1) != 1 for f = x - c)
    would mean poly.factor returned a reducible f, or x: an internal
    failure (AssertionError).
    """
    E, K = L.field, L.base
    n, q = L.qdeg, L.q
    z = E.zero_rep
    if n < 1 or L.coeffs[0] == z:
        raise ValueError("need q-degree >= 1 and a_0 != 0")
    N = _frobenius_matrix(L)
    # mu of one vector divides mu of N; degree n means they are equal.
    # Below degree n it may have coefficients outside F_q, so it is only
    # taken down to F_q at degree n.
    vecs = [(E.one_rep,) + (z,) * (n - 1)]
    for _ in range(n):
        vecs.append(group_mod.mat_vec(E, N, vecs[-1]))
    dep = _kernel_basis(E, [list(col) for col in zip(*vecs)], n + 1)[0]
    powers = None
    if dep[n] == z:
        powers = [group_mod.mat_identity(E, n)]
        for _ in range(n):
            powers.append(group_mod.mat_mul(E, powers[-1], N))
        dep = _kernel_basis(E, [[P[i][j] for P in powers]
                                for i in range(n) for j in range(n)],
                            n + 1)[0]
    deg = max(j for j, c in enumerate(dep) if c != z)
    mu = poly_mod.Poly._mk(K, [_down(E, K, c) for c in dep[:deg + 1]])
    parts, ords = [], {}
    for f, m in poly_mod.factor(mu):
        e = q ** f.degree - 1
        if f.degree == 1:  # x = c modulo x - c: the order of c in F_q*
            ords[f] = _order_in(K, K.neg(f.coeffs[0]), e)
        else:
            ords[f] = poly_mod.order_of_x(f, e, prime_divisors(e))
        if ords[f] is None:
            raise AssertionError("x^(q^%d - 1) is not 1 modulo %s"
                                 % (f.degree, f))
        if deg == n:
            parts.append((f, (m,)))
            continue
        dims, g = [0], poly_mod.Poly.constant(K, 1)
        for _ in range(m):
            g = g * f
            dims.append(n - _rank_at(E, g, powers))
        conj = [(b - a) // f.degree for a, b in zip(dims, dims[1:])]
        parts.append((f, tuple(sum(1 for c in conj if c > i)
                               for i in range(conj[0]))))
    return group_mod.class_cycle_type(K, parts, ords)


def _rank_at(E, g, powers):
    """Rank over E of g(N), g over a tower layer of E, from the powers
    N^j."""
    n = len(powers[0])
    A = [[E.zero_rep] * n for _ in range(n)]
    for j, c in enumerate(g.coeffs):
        if c != g.field.zero_rep:
            c = embed_rep(E, g.field, c)
            for row, prow in zip(A, powers[j]):
                for i, v in enumerate(prow):
                    row[i] = E.muladd(row[i], c, v)
    return n - len(_kernel_basis(E, A, n))


def _frobenius_matrix(L):
    """The transpose of N = C^(q^(k-1)) ... C^(q) C over L's field.
    group.companion_matrix of the monic recurrence polynomial is C
    transposed, so the product runs in the opposite order; a transpose
    has the same ranks and minimal polynomial.  Each factor is a column
    shift plus one new column, O(n^2) field operations."""
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


def _order_in(K, c, e):
    """Multiplicative order of c in K, from an exponent e with c^e = 1,
    as poly.order_of_x finds the order of x; None when c^e != 1."""
    one = K.one_rep
    if K.pow(c, e) != one:
        return None
    for r in prime_divisors(e):
        while e % r == 0 and K.pow(c, e // r) == one:
            e //= r
    return e


def _down(E, K, rep):
    """The rep over the tower layer K of an element of E lying in K."""
    while E != K:
        if any(c != E.base.zero_rep for c in rep[1:]):
            raise AssertionError("minimal polynomial has a coefficient "
                                 "outside F_q")
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
