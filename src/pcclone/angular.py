"""Exact angular-momentum coefficient theory.

Everything here is arbitrary-precision: Clebsch-Gordan coefficients in the
Condon-Shortley convention, the cloning expansion coefficients, the
symmetrization norm, and the reduced-state weight gamma(P), all as exact
square roots of rationals or exact rationals. No floating point enters any
computation in this module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial, isqrt


class IncommensurableRadicalsError(ArithmeticError):
    """Sum of two sqrt-rationals is not itself a sqrt-rational."""


def _is_square(n):
    return n >= 0 and isqrt(n) ** 2 == n


@dataclass(frozen=True)
class HalfInt:
    """Half-integer stored exactly as twice its value."""

    twice: int

    @classmethod
    def of(cls, value):
        tw = Fraction(value) * 2
        if tw.denominator != 1:
            raise ValueError(f"{value} is not a half-integer")
        return cls(int(tw))

    @property
    def value(self):
        return Fraction(self.twice, 2)

    def __add__(self, other):
        return HalfInt(self.twice + other.twice)

    def __sub__(self, other):
        return HalfInt(self.twice - other.twice)

    def __neg__(self):
        return HalfInt(-self.twice)

    def __le__(self, other):
        return self.twice <= other.twice

    def __lt__(self, other):
        return self.twice < other.twice


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
        if isinstance(other, (int, Fraction)):
            other = SignedSqrtRational.from_rational(other)
        sign = self.sign * other.sign
        if sign == 0:
            return SignedSqrtRational.zero()
        return SignedSqrtRational(sign, self.radicand * other.radicand)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            other = SignedSqrtRational.from_rational(other)
        if other.sign == 0:
            raise ZeroDivisionError
        return SignedSqrtRational(self.sign * other.sign, self.radicand / other.radicand)

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
        ratio = self.radicand / other.radicand
        if not (_is_square(ratio.numerator) and _is_square(ratio.denominator)):
            raise IncommensurableRadicalsError(
                f"sqrt({self.radicand}) and sqrt({other.radicand}) are incommensurable"
            )
        coef = self.sign * Fraction(isqrt(ratio.numerator), isqrt(ratio.denominator)) + other.sign
        if coef == 0:
            return SignedSqrtRational.zero()
        sign = 1 if coef > 0 else -1
        return SignedSqrtRational(sign, coef * coef * other.radicand)

    def __sub__(self, other):
        return self + (-other)


def _validate_jm(j, m):
    if j.twice < 0:
        raise ValueError(f"negative angular momentum j={j.value}")
    if abs(m.twice) > j.twice:
        raise ValueError(f"|m|={abs(m.value)} exceeds j={j.value}")
    if (j.twice - m.twice) % 2 != 0:
        raise ValueError(f"j-m must be integral (j={j.value}, m={m.value})")


def cg(j1, j2, m1, m2, J, M):
    """Exact Clebsch-Gordan coefficient <j1 m1; j2 m2 | J M>.

    Condon-Shortley phase convention. Returns zero (not an error) when the
    selection rules m1+m2=M or |j1-j2| <= J <= j1+j2 fail.
    """
    _validate_jm(j1, m1)
    _validate_jm(j2, m2)
    _validate_jm(J, M)
    if m1.twice + m2.twice != M.twice:
        return SignedSqrtRational.zero()
    if not (abs(j1.twice - j2.twice) <= J.twice <= j1.twice + j2.twice):
        return SignedSqrtRational.zero()
    if (j1.twice + j2.twice + J.twice) % 2 != 0:
        return SignedSqrtRational.zero()

    def f(twice):
        # factorial of an exact integer given as twice its value
        if twice % 2 != 0:
            raise ValueError("expected an integer")
        return factorial(twice // 2)

    # Racah's closed form: rational sum times sqrt of a rational prefactor.
    pre = Fraction(J.twice + 1) * Fraction(
        f(j1.twice + j2.twice - J.twice)
        * f(j1.twice - j2.twice + J.twice)
        * f(-j1.twice + j2.twice + J.twice),
        f(j1.twice + j2.twice + J.twice + 2),
    )
    pre *= Fraction(
        f(J.twice + M.twice) * f(J.twice - M.twice)
        * f(j1.twice - m1.twice) * f(j1.twice + m1.twice)
        * f(j2.twice - m2.twice) * f(j2.twice + m2.twice)
    )

    total = Fraction(0)
    k_min = max(0, -(J.twice - j2.twice + m1.twice) // 2, -(J.twice - j1.twice - m2.twice) // 2)
    k_max = min(
        (j1.twice + j2.twice - J.twice) // 2,
        (j1.twice - m1.twice) // 2,
        (j2.twice + m2.twice) // 2,
    )
    for k in range(k_min, k_max + 1):
        denom = (
            factorial(k)
            * f(j1.twice + j2.twice - J.twice - 2 * k)
            * f(j1.twice - m1.twice - 2 * k)
            * f(j2.twice + m2.twice - 2 * k)
            * f(J.twice - j2.twice + m1.twice + 2 * k)
            * f(J.twice - j1.twice - m2.twice + 2 * k)
        )
        total += Fraction((-1) ** k, denom)
    return SignedSqrtRational.from_rational(total) * SignedSqrtRational.sqrt(pre)


def cg_ladder(j1, j2, m1, m2, J, M):
    """Independent Clebsch-Gordan oracle via ladder-operator recursion.

    Builds the top state |J,J> from the requirement that the raising operator
    annihilates it (two-term exact recursion, Condon-Shortley sign), then
    lowers with J- down to M. Exact throughout.
    """
    _validate_jm(j1, m1)
    _validate_jm(j2, m2)
    _validate_jm(J, M)
    if m1.twice + m2.twice != M.twice:
        return SignedSqrtRational.zero()
    if not (abs(j1.twice - j2.twice) <= J.twice <= j1.twice + j2.twice):
        return SignedSqrtRational.zero()
    if (j1.twice + j2.twice + J.twice) % 2 != 0:
        return SignedSqrtRational.zero()
    table = _coupled_state(j1.twice, j2.twice, J.twice, M.twice)
    return table.get(m1.twice, SignedSqrtRational.zero())


def _lower_factor(twice_j, twice_m):
    """j(j+1) - m(m-1), exact, from doubled arguments."""
    return Fraction(twice_j * (twice_j + 2) - twice_m * (twice_m - 2), 4)


def _coupled_state(tj1, tj2, tJ, tM):
    """Coefficient table {2*m1: amplitude} of |J,M> over |m1,m2=M-m1>."""
    # top state |J,J>: c(m1) / c(m1+1) fixed by J+ |J,J> = 0
    lo = max(-tj1, tJ - tj2)
    coeffs = {tj1: SignedSqrtRational.sqrt(1)}
    tm1 = tj1
    while tm1 - 2 >= lo:
        tm1 -= 2
        raise1 = _lower_factor(tj1, tm1 + 2)          # <- J1+ from m1 up
        raise2 = _lower_factor(tj2, tJ - tm1)          # J2+ from m2 = J-m1-1 up
        coeffs[tm1] = -coeffs[tm1 + 2] * SignedSqrtRational.sqrt(raise2 / raise1)
    norm_sq = sum((c.square() for c in coeffs.values()), Fraction(0))
    inv = SignedSqrtRational.sqrt(1 / norm_sq)
    coeffs = {k: c * inv for k, c in coeffs.items()}

    tm = tJ
    while tm > tM:
        denom = SignedSqrtRational.sqrt(_lower_factor(tJ, tm))
        nxt = {}
        for tm1c, c in coeffs.items():
            tm2c = tm - tm1c
            # J1- contribution
            if tm1c - 2 >= -tj1:
                add = c * SignedSqrtRational.sqrt(_lower_factor(tj1, tm1c)) / denom
                nxt[tm1c - 2] = nxt.get(tm1c - 2, SignedSqrtRational.zero()) + add
            # J2- contribution
            if tm2c - 2 >= -tj2:
                add = c * SignedSqrtRational.sqrt(_lower_factor(tj2, tm2c)) / denom
                nxt[tm1c] = nxt.get(tm1c, SignedSqrtRational.zero()) + add
        coeffs = {k: v for k, v in nxt.items() if v.sign != 0}
        tm -= 2
    return coeffs


def b_coef(P, k):
    """Expansion coefficient of the universal-cloner output over Dicke pairs."""
    if P < 1:
        raise ValueError("P must be >= 1")
    if not 0 <= k <= P - 1:
        raise ValueError(f"k={k} out of range for P={P}")
    rad = Fraction(2, P + 1) * Fraction(
        factorial(P - 1) * factorial(P - k), factorial(P) * factorial(P - 1 - k)
    )
    return SignedSqrtRational((-1) ** k, rad)


def d_coef(P, k):
    """Expansion coefficient after the final symmetrization (unnormalized)."""
    if P < 1:
        raise ValueError("P must be >= 1")
    if not 0 <= k <= P - 1:
        raise ValueError(f"k={k} out of range for P={P}")
    rad = Fraction(2, P + 1) * Fraction(comb(P - 1, k) ** 2, comb(2 * P - 1, 2 * k))
    return SignedSqrtRational((-1) ** k, rad)


def d_coef_via_cg(P, k):
    """Cross-check route: b_k times the stretched-J Clebsch-Gordan factor."""
    tP = P  # j_C = P/2, j_AC = (P-1)/2
    return b_coef(P, k) * cg(
        HalfInt(tP),
        HalfInt(tP - 1),
        HalfInt(tP - 2 * k),
        HalfInt(tP - 1 - 2 * k),
        HalfInt(2 * tP - 1),
        HalfInt(2 * tP - 1 - 4 * k),
    )


def projection_norm_sq(P):
    """Exact squared norm of the symmetrized state: sum_k d_k^2."""
    if P < 1:
        raise ValueError("P must be >= 1")
    return sum(
        (Fraction(2, P + 1) * Fraction(comb(P - 1, k) ** 2, comb(2 * P - 1, 2 * k))
         for k in range(P)),
        Fraction(0),
    )


def gamma(P):
    """Exact weight of |phi><phi| in the reduced single-clone state.

    Computed as the combinatorial ratio; integer-scaled so that the whole
    sweep up to P ~ 1000 stays fast despite ~6000-digit factorials.
    """
    if P < 1:
        raise ValueError("P must be >= 1")
    M = 2 * P - 1
    # t_k = C(P-1,k)^2 (2k)! (M-2k)!  -- integer, built by exact ratio steps
    t = factorial(M)
    total = 0
    weighted = 0
    for k in range(P):
        total += t
        weighted += (M - 2 * k) * t
        if k < P - 1:
            t = t * ((P - 1 - k) ** 2 * (2 * k + 1) * (2 * k + 2))
            t //= (k + 1) ** 2 * (M - 2 * k) * (M - 2 * k - 1)
    return Fraction(weighted, M * total)


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
