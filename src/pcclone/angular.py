"""Exact angular-momentum coefficient theory.

Everything here is arbitrary-precision: Clebsch-Gordan coefficients in the
Condon-Shortley convention, the cloning expansion coefficients, the
symmetrization norm, and the reduced-state weight gamma(P), all as exact
square roots of rationals or exact rationals. No floating point enters any
computation in this module.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from math import comb, isqrt


class IncommensurableRadicalsError(ArithmeticError):
    """Sum of two sqrt-rationals is not itself a sqrt-rational."""


@dataclass(frozen=True)
class SignedSqrtRational:
    """Exact value sign * sqrt(radicand) with nonnegative rational radicand."""

    sign: int
    radicand: Fraction

    def __post_init__(self):
        if self.sign not in (-1, 0, 1):
            raise ValueError("sign must be -1, 0 or +1")
        if self.radicand < 0:
            raise ValueError("radicand must be nonnegative")
        if (self.sign == 0) != (self.radicand == 0):
            raise ValueError("sign is 0 iff radicand is 0")

    @classmethod
    def zero(cls):
        return cls(0, Fraction(0))

    @classmethod
    def sqrt(cls, r):
        """+sqrt(r) of a nonnegative rational."""
        r = Fraction(r)
        if r < 0:
            raise ValueError("cannot take sqrt of a negative rational")
        return cls(0 if r == 0 else 1, r)

    @classmethod
    def from_rational(cls, r):
        r = Fraction(r)
        if r == 0:
            return cls.zero()
        return cls(1 if r > 0 else -1, r * r)

    def value(self):
        return self.sign * math.sqrt(self.radicand)

    def square(self):
        """Exact rational self**2."""
        return self.radicand

    def __mul__(self, other):
        sign = self.sign * other.sign
        if sign == 0:
            return SignedSqrtRational.zero()
        return SignedSqrtRational(sign, self.radicand * other.radicand)

    def __neg__(self):
        return SignedSqrtRational(-self.sign, self.radicand)

    def __add__(self, other):
        """Guarded sum: only legal when the radicands are commensurable.

        a*sqrt(r1) + b*sqrt(r2) is again sign*sqrt(r) only when r1/r2 is the
        square of a rational; anything else raises.
        """
        if self.sign == 0:
            return other
        if other.sign == 0:
            return self
        a, b = self.radicand, other.radicand
        sign, num, den = _radical_sum((self.sign, a.numerator, a.denominator),
                                      (other.sign, b.numerator, b.denominator))
        return SignedSqrtRational(sign, Fraction(num, den))

    def __sub__(self, other):
        return self + (-other)


def _validate_jm(tj, tm):
    """Check one doubled pair 2j, 2m; an error prints j and m as half-integers."""
    if tj < 0:
        raise ValueError(f"negative angular momentum j={Fraction(tj, 2)}")
    if abs(tm) > tj:
        raise ValueError(f"|m|={Fraction(abs(tm), 2)} exceeds j={Fraction(tj, 2)}")
    if (tj - tm) % 2 != 0:
        raise ValueError(f"j-m must be integral (j={Fraction(tj, 2)}, m={Fraction(tm, 2)})")


def _allowed(tj1, tj2, tm1, tm2, tJ, tM):
    """Validate the doubled labels 2j1, 2j2, 2m1, 2m2, 2J, 2M, which must be
    integers (a float raises TypeError). Returns them as Python ints, as a
    numpy integer would overflow in the factorial products, or None when a
    selection rule zeroes the coefficient."""
    labels = tuple(map(operator.index, (tj1, tj2, tm1, tm2, tJ, tM)))
    tj1, tj2, tm1, tm2, tJ, tM = labels
    for tj, tm in ((tj1, tm1), (tj2, tm2), (tJ, tM)):
        _validate_jm(tj, tm)
    allowed = (tm1 + tm2 == tM
               and abs(tj1 - tj2) <= tJ <= tj1 + tj2
               and (tj1 + tj2 + tJ) % 2 == 0)
    return labels if allowed else None


_FACTORIALS = [1]  # n! at index n, grown on demand: the only state kept between calls


def _factorials(n):
    """The shared table of k! for every k <= n."""
    table = _FACTORIALS
    for k in range(len(table), n + 1):
        table.append(table[-1] * k)
    return table


def _racah(a, b, x, y, c, z):
    """The triple (sign, n, d) of <j1 m1; j2 m2 | J M> = sign sqrt(n/d), reduced.

    Doubled labels 2j1, 2j2, 2m1, 2m2, 2J, 2M that pass ``_allowed``; (0, 0, 1)
    for a zero. Racah's closed form on plain integers: the alternating sum over
    one common denominator, times the square root of a rational prefactor.
    """
    # every factorial argument below is whole once _allowed has passed
    n1, n2, n3 = (a + b - c) // 2, (a - b + c) // 2, (b - a + c) // 2
    p1, p2, q1, q2 = (a - x) // 2, (b + y) // 2, (c - b + x) // 2, (c - a - y) // 2
    f = _factorials((a + b + c) // 2 + 1)
    pre_num = ((c + 1) * f[n1] * f[n2] * f[n3] * f[(c + z) // 2] * f[(c - z) // 2]
               * f[p1] * f[(a + x) // 2] * f[(b - y) // 2] * f[p2])
    ks = range(max(0, -q1, -q2), min(n1, p1, p2) + 1)
    dens = [f[k] * f[n1 - k] * f[p1 - k] * f[p2 - k] * f[q1 + k] * f[q2 + k] for k in ks]
    common = math.lcm(*dens)
    num = sum((-1) ** k * (common // d) for k, d in zip(ks, dens))
    sign = (num > 0) - (num < 0)
    return _scaled((sign, pre_num, f[n1 + n2 + n3 + 1]), num * num, common * common)


def cg(tj1, tj2, tm1, tm2, tJ, tM):
    """Exact Clebsch-Gordan coefficient <j1 m1; j2 m2 | J M> from the doubled
    labels 2j1, 2j2, 2m1, 2m2, 2J, 2M, plain integers.

    Condon-Shortley phase convention. Returns zero (not an error) when the
    selection rules m1+m2=M or |j1-j2| <= J <= j1+j2 fail; otherwise the
    ``_racah`` triple as a ``SignedSqrtRational``.
    """
    labels = _allowed(tj1, tj2, tm1, tm2, tJ, tM)
    if labels is None:
        return SignedSqrtRational.zero()
    sign, n, d = _racah(*labels)
    return SignedSqrtRational(sign, Fraction(n, d))


def cg_ladder(tj1, tj2, tm1, tm2, tJ, tM):
    """Independent Clebsch-Gordan oracle: a lookup in ``ladder_states``, with
    the doubled integer labels of ``cg``."""
    labels = _allowed(tj1, tj2, tm1, tm2, tJ, tM)
    if labels is None:
        return SignedSqrtRational.zero()
    tj1, tj2, tm1, _, tJ, tM = labels
    for tm, table in ladder_states(tj1, tj2, tJ):
        if tm == tM:
            return table.get(tm1, SignedSqrtRational.zero())


def _lower_factor(twice_j, twice_m):
    """4 (j(j+1) - m(m-1)), an exact int, from doubled arguments."""
    return twice_j * (twice_j + 2) - twice_m * (twice_m - 2)


def _scaled(c, num, den):
    """The triple c * sqrt(num/den), reduced; a triple (sign, n, d) is sign sqrt(n/d)."""
    sign, n, d = c
    n, d = n * num, d * den
    g = math.gcd(n, d)
    return sign, n // g, d // g


def _radical_sum(a, b):
    """The triple a + b of two nonzero triples, legal only when the ratio of
    their radicands is the square of a rational; anything else raises."""
    (sa, na, da), (sb, nb, db) = a, b
    g = math.gcd(na * db, da * nb)
    p, q = na * db // g, da * nb // g
    rp, rq = isqrt(p), isqrt(q)
    if rp * rp != p or rq * rq != q:
        raise IncommensurableRadicalsError(
            f"sqrt({na}/{da}) and sqrt({nb}/{db}) are incommensurable")
    coef = sa * rp + sb * rq  # a + b = (coef / rq) sqrt(nb / db)
    return _scaled(((coef > 0) - (coef < 0), nb, db), coef * coef, q)


def _ladder_triples(tj1, tj2, tJ):
    """Yield (2M, {2*m1: (sign, n, d)}) for M = J, J-1, ..., -J, exact.

    Doubled arguments, triangle rule assumed; each triple is the reduced
    sign sqrt(n/d) of <m1, M-m1 | J M>, and zeros are left out. |J,J> is fixed
    by J+ |J,J> = 0 (Condon-Shortley sign); one J- step per M lowers it
    through every M. The ladder never meets ``cg`` or ``_racah``.
    """
    # top state |J,J>: c(m1) / c(m1+1) fixed by J+ |J,J> = 0
    lo = max(-tj1, tJ - tj2)
    coeffs = {tj1: (1, 1, 1)}
    tm1 = tj1
    while tm1 - 2 >= lo:
        tm1 -= 2
        raise1 = _lower_factor(tj1, tm1 + 2)          # <- J1+ from m1 up
        raise2 = _lower_factor(tj2, tJ - tm1)          # J2+ from m2 = J-m1-1 up
        sign, n, d = _scaled(coeffs[tm1 + 2], raise2, raise1)
        coeffs[tm1] = (-sign, n, d)
    common = math.lcm(*(d for _, _, d in coeffs.values()))
    norm = sum(n * (common // d) for _, n, d in coeffs.values())  # norm^2 = norm / common
    coeffs = {k: _scaled(c, common, norm) for k, c in coeffs.items()}

    for tm in range(tJ, -tJ - 2, -2):
        yield tm, coeffs
        if tm == -tJ:
            return
        denom = _lower_factor(tJ, tm)
        nxt = {}
        for tm1c, c in coeffs.items():
            # J1- lowers m1, J2- lowers m2 = tm - tm1c
            for key, tj, tmc in ((tm1c - 2, tj1, tm1c), (tm1c, tj2, tm - tm1c)):
                if tmc - 2 >= -tj:
                    add = _scaled(c, _lower_factor(tj, tmc), denom)
                    nxt[key] = _radical_sum(nxt[key], add) if key in nxt else add
        coeffs = {k: v for k, v in nxt.items() if v[0] != 0}


def ladder_states(tj1, tj2, tJ):
    """Yield (2M, {2*m1: <m1, M-m1 | J M>}) for M = J, J-1, ..., -J, exact:
    the ``_ladder_triples`` tables as ``SignedSqrtRational`` values."""
    for tm, coeffs in _ladder_triples(tj1, tj2, tJ):
        yield tm, {k: SignedSqrtRational(s, Fraction(n, d)) for k, (s, n, d) in coeffs.items()}


def b_coef(P, k):
    """Expansion coefficient of the universal-cloner output over Dicke pairs,
    (-1)^k sqrt(2 (P-k) / (P (P+1))): 2 (P-1)! (P-k)! / ((P+1) P! (P-1-k)!) cancelled."""
    if P < 1:
        raise ValueError("P must be >= 1")
    if not 0 <= k <= P - 1:
        raise ValueError(f"k={k} out of range for P={P}")
    return SignedSqrtRational((-1) ** k, Fraction(2 * (P - k), P * (P + 1)))


def d_coef(P, k):
    """Expansion coefficient after the final symmetrization (unnormalized)."""
    if P < 1:
        raise ValueError("P must be >= 1")
    if not 0 <= k <= P - 1:
        raise ValueError(f"k={k} out of range for P={P}")
    rad = Fraction(2, P + 1) * Fraction(comb(P - 1, k) ** 2, comb(2 * P - 1, 2 * k))
    return SignedSqrtRational((-1) ** k, rad)


def d_coef_via_cg(P, k):
    """Cross-check route: b_k times the stretched-J Clebsch-Gordan factor
    <P/2, P/2 - k; (P-1)/2, (P-1)/2 - k | M/2, M/2 - 2k>, M = 2P-1, whose
    doubled labels are the integers passed to ``cg``."""
    return b_coef(P, k) * cg(P, P - 1, P - 2 * k, P - 1 - 2 * k, 2 * P - 1, 2 * P - 1 - 4 * k)


def central_binomials(P, table=None):
    """The list c_n = C(2n, n) grown in place to at least P entries.

    A sweep over P passes the same list each time, so each entry is computed
    once; by default a new list of P entries is built.
    """
    c = [] if table is None else table
    if not c:
        c.append(1)
    for n in range(len(c), P):
        c.append(c[-1] * (4 * n - 2) // n)
    return c


def _dicke_sums(P, table=None):
    """(T, W): sums over k < P of t_k and (M-2k) t_k, t_k = c_k c_j (M-2k).

    M = 2P-1, j = P-1-k, c_n = C(2n, n) read from ``table`` (at least P
    entries, from ``central_binomials``; by default built here). Each
    unordered pair k < j is multiplied once. With w = 2n+1, w_k + w_j = 2P and
    w_k^2 + w_j^2 = 4P^2 - 2 w_k w_j, so the pass sums S = sum c_k c_j and
    S_w = sum c_k c_j w_k w_j, and T = 2P S, W = 4P^2 S - 2 S_w; odd P adds
    the middle term k = j once. d_k^2 = 2 (P-1)!^2 t_k / ((P+1) M!), so both
    sums run on integers near 4^P rather than near M!.
    """
    if table is None:
        table = central_binomials(P)
    elif len(table) < P:
        raise ValueError(f"central-binomial table has {len(table)} entries, P={P} needs {P}")
    pairs = weighted_pairs = 0
    for k in range(P // 2):
        pair = table[k] * table[P - 1 - k]
        pairs += pair
        weighted_pairs += pair * ((2 * k + 1) * (2 * P - 2 * k - 1))
    total, weighted = 2 * P * pairs, 4 * P * P * pairs - 2 * weighted_pairs
    if P % 2:
        mid = P // 2
        term = table[mid] * table[mid] * P  # w = 2 mid + 1 = P
        total += term
        weighted += term * P
    return total, weighted


def projection_norm_sq(P, table=None):
    """Exact squared norm of the symmetrized state, sum_k d_k^2 = 2 (P-1)!^2 T / ((P+1) M!)
    = 2 T / ((P+1) (2P-1) c_{P-1}), with T from ``_dicke_sums(P, table)`` and
    c_{P-1} = C(2P-2, P-1) from the same table, as M! = (2P-1) (P-1)!^2 c_{P-1}."""
    if P < 1:
        raise ValueError("P must be >= 1")
    table = central_binomials(P) if table is None else table
    total, _ = _dicke_sums(P, table)
    return Fraction(2 * total, (P + 1) * (2 * P - 1) * table[P - 1])


def gamma(P, table=None):
    """Exact weight of |phi><phi| in the reduced single-clone state.

    W / (M T) from the O(P) term-by-term integer sums of ``_dicke_sums``; a
    sweep over P passes one ``central_binomials`` table to every call.
    ``gamma_closed_form`` is the value it is checked against.
    """
    if P < 1:
        raise ValueError("P must be >= 1")
    total, weighted = _dicke_sums(P, table)
    return Fraction(weighted, (2 * P - 1) * total)


def gamma_closed_form(P):
    """(1/2)(1 + (M+1)/(2M)) with M = 2P-1, exact."""
    M = 2 * P - 1
    return Fraction(1, 2) * (1 + Fraction(M + 1, 2 * M))


def fidelity_formula(kind, N, M=None):
    """Closed-form optimal cloning/estimation fidelities.

    kind: one of 'cov_odd', 'cov_even', 'universal', 'estimation',
    'phase_estimation'. M may be None (or math.inf) for the estimation kinds
    and for the M -> infinity limit of 'universal'. Rational results are
    returned as exact Fractions; 'cov_even' is irrational and returned as a
    float.
    """
    unbounded = M is None or M == math.inf
    if kind == "universal":
        if N < 1:
            raise ValueError("universal requires N >= 1")
        if unbounded:
            return Fraction(N + 1, N + 2)
        if M < N:
            raise ValueError("universal requires N <= M")
        return Fraction(N + 1 + Fraction(N, M), N + 2)
    if kind == "estimation":
        if N < 1:
            raise ValueError("estimation requires N >= 1")
        return Fraction(N + 1, N + 2)
    if kind == "phase_estimation":
        if N != 1:
            raise ValueError("phase estimation fidelity is only tabulated for N=1")
        return Fraction(3, 4)
    if kind == "cov_odd":
        if N != 1:
            raise ValueError("cov_odd requires N=1")
        if unbounded:
            return Fraction(3, 4)
        if M % 2 == 0 or M < 1:
            raise ValueError("cov_odd requires odd M >= 1")
        return Fraction(1, 2) * (1 + Fraction(M + 1, 2 * M))
    if kind == "cov_even":
        if N != 1:
            raise ValueError("cov_even requires N=1")
        if unbounded:
            return Fraction(3, 4)
        if M % 2 != 0 or M < 2:
            raise ValueError("cov_even requires even M >= 2")
        return 0.5 * (1 + math.sqrt(M * (M + 2)) / (2 * M))
    raise ValueError(f"unknown fidelity kind {kind!r}")
