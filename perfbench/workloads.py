"""Inputs of the perfbench workloads, each a pure function of the seed.

A workload is a list of Ops: one CLI invocation each, with its argv and
the facts the output checks need (q, n and the coefficient indices of
L).  The workload seed fixes the coefficients of every random L and the
--seed every invocation passes to the program; nothing else varies.

Coefficients of L are drawn stratified: the middle coefficients
a_1..a_(n-1), which decide the verdict, cycle through seeded
permutations of a fixed set of choices, so each seed gets the same mix
of pure powers, decided and inconclusive cases.  a_0 is drawn freely
(the program absorbs it into t).
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

WORKLOADS = ("verdict-mix", "sample-deep", "census-verify")

# Middle coefficients a_1..a_(n-1) of random L cycle through seeded
# permutations of every choice (ALL) or of a fixed list.
ALL = "all"

# verdict-mix: (q, n, ops per pass, middles).  Small prime-field cases
# dominate the count; (9,2), (2,5) and (5,3) are the heavy tail.  The mix
# makes GammaL, MainTheorem GL, Char2 GL and Inconclusive verdicts all
# occur.  (2,5) and (5,3) take fixed middles (GL cases of both): their
# cost varies up to tenfold with L, so a random pick there would move a
# pass's time by more than the benchmark's bounds.
VERDICT_MIX = ((2, 3, 24, ALL), (3, 2, 18, ALL), (3, 3, 9, ALL),
               (5, 2, 5, ALL), (9, 2, 1, ALL), (2, 5, 1, ((0, 1, 0, 1),)),
               (5, 3, 1, ((1, 3),)))

# sample-deep: (q, n, middles, kmax, budget, ops per pass).  The
# criterion-4 pair x^27 + x^3 and x^27 (plus a_0 x) are sampled up to
# F_{3^5} and F_{3^6}, and a (9,2) case that is not a pure power up to
# F_{9^2} (tower arithmetic); these three
# take more than a second.  The median op is x^8 + x^4 + x^2 (GL by the
# characteristic-2 criterion) sampled up to F_{2^7}, about half a second;
# the three cheap ones are a random (3,3) case, (5,2), and (3,5), which
# factors degree-242 polynomials over F_3.  With fixed L where the cost
# depends on L, the median stays the same op from seed to seed.
SAMPLE_DEEP = ((3, 3, ((1, 0),), 5, 120, 1),
               (3, 3, ((0, 0),), 6, 380, 1),
               (9, 2, tuple((i,) for i in range(1, 9)), 2, 30, 1),
               (2, 3, ((1, 1),), 12, 150, 1),
               (3, 3, ALL, 3, 30, 1),
               (5, 2, ALL, 3, 60, 1),
               (3, 5, ((1, 2, 0, 1),), 1, 2, 1))

# census-verify: argv without --seed.  Group enumeration and the
# exhaustive verifiers; no sampling and no recheck.
CENSUS_VERIFY = (
    ("census", "--q", "3", "--n", "3"),
    ("census", "--q", "2", "--n", "2"),
    ("census", "--q", "3", "--n", "2"),
    ("census", "--q", "4", "--n", "2"),
    ("census", "--q", "5", "--n", "2"),
    ("census", "--q", "7", "--n", "2"),
    ("census", "--normalizer-only", "--q", "5", "--n", "3"),
    ("census", "--normalizer-only", "--q", "3", "--n", "4"),
    ("census", "--normalizer-only", "--q", "2", "--n", "5"),
    ("verify", "normalizer", "--q", "5", "--n", "3"),
    ("verify", "normalizer", "--q", "9", "--n", "2"),
    ("verify", "alt2", "--q", "2", "--n", "3"),
    ("verify", "alt2", "--q", "2", "--n", "2"),
    ("verify", "gmg", "--q", "27"),
    ("verify", "gmg", "--q", "49"),
    ("verify", "gmg", "--q", "25"),
    ("verify", "disc", "--q", "5", "--n", "3"),
    ("verify", "identity", "--q", "3", "--n", "3"),
)


@dataclass(frozen=True)
class Op:
    """One CLI invocation and what its checks need to know."""
    argv: tuple
    command: str
    q: int
    n: int
    coeffs: tuple = ()  # enumeration indices of a_0..a_n in F_q

    @property
    def pure(self):
        """L is x^(q^n) once a_0 is absorbed into t."""
        return all(c == 0 for c in self.coeffs[1:-1])


def prime_power(q):
    """(p, m) with p^m = q."""
    for p in range(2, q + 1):
        if q % p == 0:
            m = 0
            while q % p == 0:
                q //= p
                m += 1
            if q != 1:
                raise ValueError("not a prime power")
            return p, m
    raise ValueError("not a prime power")


def coeff_text(q, index):
    """CLI text of the element of F_q with this enumeration index: an
    int over a prime field, else the digit vector base p, constant
    coordinate first."""
    p, m = prime_power(q)
    if m == 1:
        return str(index)
    digits = []
    for _ in range(m):
        digits.append(str(index % p))
        index //= p
    return "[" + ",".join(digits) + "]"


def lin_text(q, coeffs):
    return ",".join(coeff_text(q, c) for c in coeffs)


def _random_lins(rng, q, n, count, middles):
    """count coefficient tuples (a_0, ..., a_(n-1), 1): a_0 random, the
    middle coefficients cycling through seeded permutations of middles."""
    if middles == ALL:
        choices = list(itertools.product(range(q), repeat=n - 1))
    else:
        choices = list(middles)
    out = []
    order = []
    for _ in range(count):
        if not order:
            order = choices[:]
            rng.shuffle(order)
        out.append((rng.randrange(q),) + tuple(order.pop()) + (1,))
    return out


def _program_seed(rng):
    return rng.randrange(1 << 16)


def generate(workload, seed):
    """The Ops of one pass of workload, a pure function of seed."""
    rng = random.Random("perfbench:%s:%d" % (workload, seed))
    ops = []
    if workload == "verdict-mix":
        for q, n, count, middles in VERDICT_MIX:
            for coeffs in _random_lins(rng, q, n, count, middles):
                s = _program_seed(rng)
                ops.append(Op(("analyze", "--q", str(q), "--lin",
                               lin_text(q, coeffs), "--seed", str(s)),
                              "analyze", q, n, coeffs))
        rng.shuffle(ops)
    elif workload == "sample-deep":
        for q, n, middles, kmax, budget, count in SAMPLE_DEEP:
            for coeffs in _random_lins(rng, q, n, count, middles):
                s = _program_seed(rng)
                ops.append(Op(("sample", "--q", str(q), "--lin",
                               lin_text(q, coeffs), "--kmax", str(kmax),
                               "--budget", str(budget), "--seed", str(s)),
                              "sample", q, n, coeffs))
    elif workload == "census-verify":
        for argv in CENSUS_VERIFY:
            q = int(argv[argv.index("--q") + 1])
            n = int(argv[argv.index("--n") + 1]) if "--n" in argv else 0
            ops.append(Op(argv + ("--seed", str(_program_seed(rng))),
                          argv[0], q, n))
    else:
        raise ValueError("unknown workload %r" % (workload,))
    return ops


def gl_order(n, q):
    out = 1
    for i in range(n):
        out *= q ** n - q ** i
    return out


def expected_verdict(op):
    """(family, order) by the paper's dichotomy, computed here rather
    than by the program: a pure power gives GammaL(1, q^n); q odd with n
    an odd prime gives GL(n, q); q = 2 with n an odd prime gives GL(n, 2)
    exactly when a_1 + ... + a_n != 0; anything else is Inconclusive."""
    q, n = op.q, op.n
    if op.pure:
        return "GammaL", n * (q ** n - 1)
    odd_prime_n = n > 2 and all(n % d for d in range(2, n))
    if odd_prime_n and q % 2:
        return "GL", gl_order(n, q)
    if odd_prime_n and q != 2:
        raise ValueError("coefficient sums are only computed over F_2")
    if odd_prime_n and sum(op.coeffs[1:]) % 2:
        return "GL", gl_order(n, q)
    return "Inconclusive", None


def is_linear_cycle_type(cycle_type, q):
    """Whether cycle_type can be that of an F_q-linear map on the nonzero
    vectors: the points in cycles of length dividing m are the nonzero
    vectors of ker(g^m - 1), so with zero added they number a power of
    q, for every m."""
    for m in {1, *cycle_type}:
        count = 1 + sum(d for d in cycle_type if m % d == 0)
        while count % q == 0:
            count //= q
        if count != 1:
            return False
    return True
