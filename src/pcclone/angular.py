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
from collections import namedtuple
from fractions import Fraction
from functools import partial
from math import comb, isqrt


class IncommensurableRadicalsError(ArithmeticError):
    """Sum of two sqrt-rationals is not itself a sqrt-rational."""


class SignedSqrtRational(namedtuple("SignedSqrtRational", "sign n d")):
    """Exact value sign * sqrt(n / d), held as the reduced integer triple itself.

    sign is -1, 0 or +1, n = 0 exactly when sign = 0, d >= 1 and
    gcd(n, d) = 1, so equal values are equal triples and zero is (0, 0, 1).
    The constructor checks all four; this module's arithmetic, which reduces
    as it goes, builds its triples through ``_triple`` without the check.
    """

    __slots__ = ()

    def __new__(cls, sign, n, d):
        if sign not in (-1, 0, 1):
            raise ValueError("sign must be -1, 0 or +1")
        if n < 0:
            raise ValueError("n must be nonnegative")
        if (sign == 0) != (n == 0):
            raise ValueError("sign is 0 iff n is 0")
        if d < 1:
            raise ValueError("d must be >= 1")
        if math.gcd(n, d) != 1:
            raise ValueError(f"{n}/{d} is not reduced")
        return _triple((sign, n, d))

    @classmethod
    def zero(cls):
        return _ZERO

    def value(self):
        return self.sign * math.sqrt(self.n / self.d)

    def square(self):
        """Exact rational self**2."""
        return Fraction(self.n, self.d)

    def __mul__(self, other):
        sign = self.sign * other.sign
        if sign == 0:
            return _ZERO
        return _scaled((sign, self.n, self.d), other.n, other.d)

    def __neg__(self):
        return _triple((-self.sign, self.n, self.d))


# _triple((sign, n, d)) is that SignedSqrtRational, unchecked: the caller has reduced it
_triple = partial(tuple.__new__, SignedSqrtRational)
_ZERO = _triple((0, 0, 1))


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
    numpy integer would overflow in the binomial products, or None when a
    selection rule zeroes the coefficient."""
    labels = tuple(map(operator.index, (tj1, tj2, tm1, tm2, tJ, tM)))
    tj1, tj2, tm1, tm2, tJ, tM = labels
    for tj, tm in ((tj1, tm1), (tj2, tm2), (tJ, tM)):
        _validate_jm(tj, tm)
    allowed = (tm1 + tm2 == tM
               and abs(tj1 - tj2) <= tJ <= tj1 + tj2
               and (tj1 + tj2 + tJ) % 2 == 0)
    return labels if allowed else None


# C(2n, n) at index n, grown on demand: the only state kept between calls
_CENTRAL_BINOMIALS = [1]


def _central_binomials(P):
    """The shared table of C(2n, n) for every n < P, by c_n = c_{n-1} (4n-2) / n."""
    table = _CENTRAL_BINOMIALS
    for n in range(len(table), P):
        table.append(table[-1] * (4 * n - 2) // n)
    return table


def _racah(a, b, x, y, c, z):
    """<j1 m1; j2 m2 | J M> as the reduced ``SignedSqrtRational`` (sign, n, d).

    Doubled labels 2j1, 2j2, 2m1, 2m2, 2J, 2M that pass ``_allowed``; (0, 0, 1)
    for a zero. Racah's sum in binomials: with n = j1+j2-J, s1 = j1-j2+J,
    s2 = j2-j1+J, p = j1-m1 and q = j2+m2 it is Z / (n! s1! s2!) for the integer
    Z = sum_k (-1)^k C(n,k) C(s1,p-k) C(s2,q-k), and the coefficient is sign(Z)
    sqrt(Z^2 C(2j1,n) C(2j2,n) / (C(j1+j2+J+1,n) C(2j1,p) C(2j2,j2-m2) C(2J,J-M))).
    """
    # every binomial argument below is whole once _allowed has passed
    n, s1, s2 = (a + b - c) // 2, (a - b + c) // 2, (b - a + c) // 2
    p, q = (a - x) // 2, (b + y) // 2
    total = 0
    for k in range(max(0, p - s1, q - s2), min(n, p, q) + 1):
        term = comb(n, k) * comb(s1, p - k) * comb(s2, q - k)
        total += -term if k % 2 else term
    sign = (total > 0) - (total < 0)
    den = (comb((a + b + c) // 2 + 1, n) * comb(a, p)
           * comb(b, (b - y) // 2) * comb(c, (c - z) // 2))
    return _scaled((sign, comb(a, n) * comb(b, n), den), total * total, 1)


def cg(tj1, tj2, tm1, tm2, tJ, tM):
    """Exact Clebsch-Gordan coefficient <j1 m1; j2 m2 | J M> from the doubled
    labels 2j1, 2j2, 2m1, 2m2, 2J, 2M, plain integers.

    Condon-Shortley phase convention. Returns zero (not an error) when the
    selection rules m1+m2=M or |j1-j2| <= J <= j1+j2 fail; otherwise ``_racah``'s
    ``SignedSqrtRational``.
    """
    labels = _allowed(tj1, tj2, tm1, tm2, tJ, tM)
    if labels is None:
        return _ZERO
    return _racah(*labels)


def cg_ladder(tj1, tj2, tm1, tm2, tJ, tM):
    """Independent Clebsch-Gordan oracle for the tests: a lookup in
    ``ladder_states``, with the doubled integer labels of ``cg``."""
    labels = _allowed(tj1, tj2, tm1, tm2, tJ, tM)
    if labels is None:
        return _ZERO
    tj1, tj2, tm1, _, tJ, tM = labels
    for tm, table in ladder_states(tj1, tj2, tJ):
        if tm == tM:
            return table.get(tm1, _ZERO)


def _lower_factor(twice_j, twice_m):
    """4 (j(j+1) - m(m-1)), an exact int, from doubled arguments."""
    return twice_j * (twice_j + 2) - twice_m * (twice_m - 2)


def _scaled(c, num, den):
    """c * sqrt(num/den) for a triple c = (sign, n, d), reduced."""
    sign, n, d = c
    n, d = n * num, d * den
    g = math.gcd(n, d)
    return _triple((sign, n // g, d // g))


def _radical_sum(a, b):
    """a + b of two nonzero triples, legal only when the ratio of
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


def ladder_states(tj1, tj2, tJ):
    """Yield (2M, {2*m1: <m1, M-m1 | J M>}) for M = J, J-1, ..., -J, exact.

    Doubled arguments, triangle rule assumed; each value is a reduced
    ``SignedSqrtRational``, and zeros are left out. |J,J> is fixed
    by J+ |J,J> = 0 (Condon-Shortley sign); one J- step per M lowers it
    through every M. The ladder never meets ``cg`` or ``_racah``.
    """
    # top state |J,J>: c(m1) / c(m1+1) fixed by J+ |J,J> = 0
    lo = max(-tj1, tJ - tj2)
    coeffs = {tj1: _triple((1, 1, 1))}
    tm1 = tj1
    while tm1 - 2 >= lo:
        tm1 -= 2
        raise1 = _lower_factor(tj1, tm1 + 2)          # <- J1+ from m1 up
        raise2 = _lower_factor(tj2, tJ - tm1)          # J2+ from m2 = J-m1-1 up
        coeffs[tm1] = -_scaled(coeffs[tm1 + 2], raise2, raise1)
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
        coeffs = {k: v for k, v in nxt.items() if v.sign != 0}


def b_coef(P, k):
    """Expansion coefficient of the universal-cloner output over Dicke pairs,
    (-1)^k sqrt(2 (P-k) / (P (P+1))): 2 (P-1)! (P-k)! / ((P+1) P! (P-1-k)!) cancelled."""
    if P < 1:
        raise ValueError("P must be >= 1")
    if not 0 <= k <= P - 1:
        raise ValueError(f"k={k} out of range for P={P}")
    rad = Fraction(2 * (P - k), P * (P + 1))
    return SignedSqrtRational((-1) ** k, rad.numerator, rad.denominator)


def d_coef(P, k):
    """Expansion coefficient after the final symmetrization (unnormalized)."""
    if P < 1:
        raise ValueError("P must be >= 1")
    if not 0 <= k <= P - 1:
        raise ValueError(f"k={k} out of range for P={P}")
    rad = Fraction(2, P + 1) * Fraction(comb(P - 1, k) ** 2, comb(2 * P - 1, 2 * k))
    return SignedSqrtRational((-1) ** k, rad.numerator, rad.denominator)


def d_coef_via_cg(P, k):
    """Cross-check route: b_k times the stretched-J Clebsch-Gordan factor
    <P/2, P/2 - k; (P-1)/2, (P-1)/2 - k | M/2, M/2 - 2k>, M = 2P-1, whose
    doubled labels are the integers passed to ``cg``."""
    return b_coef(P, k) * cg(P, P - 1, P - 2 * k, P - 1 - 2 * k, 2 * P - 1, 2 * P - 1 - 4 * k)


def _dicke_sums(P):
    """(T, W): sums over k < P of t_k and (M-2k) t_k, t_k = c_k c_j (M-2k).

    M = 2P-1, j = P-1-k, c_n = C(2n, n) read from the shared table. Each
    unordered pair k < j is multiplied once. With w = 2n+1, w_k + w_j = 2P and
    w_k^2 + w_j^2 = 4P^2 - 2 w_k w_j, so T = 2P S and W = 4P^2 S - 2 S_w for
    S = sum a_k and S_w = sum a_k w_k w_j, a_k = c_k c_j over k < h = P//2; odd
    P adds the middle term k = j once. With r = h-k, w_k w_j = (u-2r) (v+2r) for
    u = 2h+1 and v = 2P-2h-1, so S_w = uv A + 2 (u-v) B - 4 (2C - B) from the
    running sums A = sum a_k, B = sum r a_k and C = sum r (r+1)/2 a_k.
    d_k^2 = 2 (P-1)!^2 t_k / ((P+1) M!), so all sums run on integers near 4^P
    rather than near M!.
    """
    table = _central_binomials(P)
    h = P // 2
    pairs = ramp = wedge = 0  # A, B, C: a_k enters ramp r times and wedge r (r+1)/2 times
    for k in range(h):
        pairs += table[k] * table[P - 1 - k]
        ramp += pairs
        wedge += ramp
    u, v = 2 * h + 1, 2 * P - 2 * h - 1
    weighted_pairs = u * v * pairs + 2 * (u - v) * ramp - 4 * (2 * wedge - ramp)
    total, weighted = 2 * P * pairs, 4 * P * P * pairs - 2 * weighted_pairs
    if P % 2:
        term = table[h] * table[h] * P  # the middle term: k = j = h, w = 2h + 1 = P
        total += term
        weighted += term * P
    return total, weighted


def _norm_from_sums(P, total):
    """sum_k d_k^2 = 2 (P-1)!^2 T / ((P+1) M!) = 2 T / ((P+1) (2P-1) c_{P-1}),
    as M! = (2P-1) (P-1)!^2 c_{P-1}."""
    return Fraction(2 * total, (P + 1) * (2 * P - 1) * _central_binomials(P)[P - 1])


def _gamma_from_sums(P, total, weighted):
    """W / (M T)."""
    return Fraction(weighted, (2 * P - 1) * total)


def projection_norm_sq(P):
    """Exact squared norm of the symmetrized state, sum_k d_k^2, from the T of
    ``_dicke_sums``."""
    if P < 1:
        raise ValueError("P must be >= 1")
    return _norm_from_sums(P, _dicke_sums(P)[0])


def gamma(P):
    """Exact weight of |phi><phi| in the reduced single-clone state.

    W / (M T) from the O(P) term-by-term integer sums of ``_dicke_sums``.
    ``gamma_closed_form`` is the value it is checked against.
    """
    if P < 1:
        raise ValueError("P must be >= 1")
    return _gamma_from_sums(P, *_dicke_sums(P))


def gamma_closed_form(P):
    """The optimal fidelity at M = 2P-1, exact, which ``gamma(P)`` must equal."""
    return fidelity_formula("cov_odd", 1, 2 * P - 1)


def fidelity_formula(kind, N, M=None):
    """Closed-form optimal cloning and phase-estimation fidelities, exact Fractions.

    kind: one of 'cov_odd', 'universal', 'phase_estimation'. M may be None
    (or math.inf) for the M -> infinity limit of 'cov_odd' and 'universal';
    'phase_estimation' takes no M.
    """
    unbounded = M is None or M == math.inf
    if kind == "universal":
        if N < 1:
            raise ValueError("universal requires N >= 1")
        if unbounded:
            return Fraction(N + 1, N + 2)
        if M < N:
            raise ValueError("universal requires N <= M")
        return Fraction(M * (N + 1) + N, M * (N + 2))
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
        return Fraction(3 * M + 1, 4 * M)  # (1 + (M+1)/(2M)) / 2
    raise ValueError(f"unknown fidelity kind {kind!r}")
