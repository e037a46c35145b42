import os
import re
import subprocess
import sys
from fractions import Fraction
from math import comb, factorial, gcd, lcm
from pathlib import Path

import numpy as np
import pytest

import pcclone
from pcclone import verify
from pcclone.angular import (
    IncommensurableRadicalsError,
    SignedSqrtRational,
    _allowed,
    _central_binomials,
    _dicke_sums,
    _racah,
    _radical_sum,
    b_coef,
    cg,
    cg_ladder,
    d_coef,
    d_coef_via_cg,
    fidelity_formula,
    gamma,
    gamma_closed_form,
    ladder_states,
    projection_norm_sq,
)

SSR = SignedSqrtRational


def h(x):
    """The doubled label 2x of a half-integer x."""
    twice = 2 * Fraction(x)
    assert twice.denominator == 1, f"{x} is not a half-integer"
    return int(twice)


class TestSignedSqrtRational:
    def test_product(self):
        assert SSR(1, 2, 3) * SSR(-1, 1, 3) == SSR(-1, 2, 9)
        assert SSR(1, 2, 3) * SSR(1, 3, 2) == SSR(1, 1, 1)
        assert SSR(1, 2, 3) * SSR.zero() == SSR.zero() == (0, 0, 1)

    def test_invalid_triples_raise(self):
        # unreduced, mis-signed, a sign out of range, a zero denominator
        for triple in ((1, 2, 4), (0, 1, 1), (2, 1, 1), (1, 1, 0)):
            with pytest.raises(ValueError):
                SSR(*triple)

    def test_ladder_sum_guard_raises(self):
        # the integer-triple sum the ladder uses, on sqrt(2) + sqrt(3)
        with pytest.raises(IncommensurableRadicalsError):
            _radical_sum((1, 2, 1), (1, 3, 1))
        assert _radical_sum((1, 2, 1), (1, 8, 1)) == (1, 18, 1)
        assert _radical_sum((1, 5, 7), (-1, 5, 7)) == (0, 0, 1)

    def test_value(self):
        assert abs(SSR(-1, 1, 2).value() + 0.7071067811865476) < 1e-15
        assert SSR(-1, 1, 2).square() == Fraction(1, 2)


class TestClebschGordan:
    def test_stretched(self):
        assert cg(h("1/2"), h("1/2"), h("1/2"), h("1/2"), h(1), h(1)) == SSR(1, 1, 1)

    def test_triplet_zero(self):
        assert cg(h("1/2"), h("1/2"), h("1/2"), h("-1/2"), h(1), h(0)) == SSR(1, 1, 2)

    def test_singlet_antisymmetric(self):
        up_down = cg(h("1/2"), h("1/2"), h("1/2"), h("-1/2"), h(0), h(0))
        down_up = cg(h("1/2"), h("1/2"), h("-1/2"), h("1/2"), h(0), h(0))
        assert up_down == -down_up
        assert up_down.square() == Fraction(1, 2)

    def test_one_half_coupling(self):
        # frozen from the ladder-operator oracle
        val = cg(h(1), h("1/2"), h(0), h("1/2"), h("3/2"), h("1/2"))
        assert val == SSR(1, 2, 3)
        assert val == cg_ladder(h(1), h("1/2"), h(0), h("1/2"), h("3/2"), h("1/2"))

    def test_selection_rules_return_zero(self):
        assert cg(h(1), h(1), h(1), h(1), h(1), h(1)) == SSR.zero()  # m1+m2 != M
        assert cg(h(1), h(1), h(0), h(0), h(3), h(0)) == SSR.zero()  # triangle

    def test_malformed_inputs_raise(self):
        with pytest.raises(ValueError):
            cg(h(-1), h(1), h(0), h(0), h(1), h(0))
        with pytest.raises(ValueError):
            cg(h(1), h(1), h(2), h(0), h(1), h(0))
        with pytest.raises(ValueError):  # j - m not integral
            cg(h(1), h(1), h("1/2"), h("1/2"), h(1), h(1))
        with pytest.raises(ValueError):  # |M| > J
            cg(h(1), h(1), h(1), h(1), h(1), h(2))

    def test_float_label_raises(self):
        with pytest.raises(TypeError):
            cg(1.0, 1, 1, 1, 2, 2)
        with pytest.raises(TypeError):
            cg_ladder(1, 1, 1, 1, 2, 2.0)

    def test_numpy_integer_labels(self):
        # a numpy label is read as a Python int, so the factorial products cannot overflow
        for labels in ((10, 10, 2, 0, 10, 2), (40, 39, 20, 19, 79, 39)):
            as_numpy = [np.int64(t) for t in labels]
            assert cg(*as_numpy) == cg(*labels) != SSR.zero()
            assert cg_ladder(*as_numpy[:5], np.int32(labels[5])) == cg(*labels)

    def test_errors_print_half_integers(self):
        for labels, message in (
            ((-1, 1, 0, 0, 1, 0), "negative angular momentum j=-1/2"),
            ((1, 1, 3, 0, 1, 0), "|m|=3/2 exceeds j=1/2"),
            ((2, 1, 1, 1, 2, 2), "j-m must be integral (j=1, m=1/2)"),
        ):
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                cg(*labels)

    def test_closed_form_matches_ladder_small(self):
        # one ladder walk per (j1, j2, J) yields the table for every M
        compared = 0
        for tj1 in range(0, 7):
            for tj2 in range(0, 7):
                for tJ in range(abs(tj1 - tj2), tj1 + tj2 + 1, 2):
                    tables = list(ladder_states(tj1, tj2, tJ))
                    assert [tM for tM, _ in tables] == list(range(tJ, -tJ - 1, -2))
                    for tM, table in tables:
                        for tm1 in range(-tj1, tj1 + 1, 2):
                            tm2 = tM - tm1
                            if abs(tm2) > tj2:
                                continue
                            want = table.get(tm1, SSR.zero())
                            assert cg(tj1, tj2, tm1, tm2, tJ, tM) == want
                            compared += 1
        assert compared == 2408

    def test_matches_sympy(self):
        # a third oracle, independent of Racah's sum and of the ladder
        wigner = pytest.importorskip("sympy.physics.wigner")
        from sympy import Rational, sign

        compared = 0
        for tj1, tj2, tJ, tM, tm1 in _labels(6):
            args = [Rational(t, 2) for t in (tj1, tj2, tm1, tM - tm1, tJ, tM)]
            ref = wigner.clebsch_gordan(*args[:2], args[4], *args[2:4], args[5])
            square = Rational(ref ** 2)
            want = SSR(int(sign(ref)), int(square.p), int(square.q))
            assert cg(*(int(2 * a) for a in args)) == want
            compared += 1
        assert compared == 2408

    def test_ladder_yields_reduced_radicals(self):
        for tj1 in range(0, 11):
            for tj2 in range(0, 11):
                for tJ in range(abs(tj1 - tj2), tj1 + tj2 + 1, 2):
                    for _, table in ladder_states(tj1, tj2, tJ):
                        for value in table.values():
                            assert type(value) is SSR and value.sign != 0
                            r = value.square()
                            assert (r.numerator, r.denominator) == (value.n, value.d)
                            assert gcd(value.n, value.d) == 1

    def test_factorial_table_not_built_at_import(self):
        env = dict(os.environ, PYTHONPATH=str(Path(pcclone.__file__).resolve().parents[1]))
        code = "import pcclone.angular as a; print(a._FACTORIALS, a._CENTRAL_BINOMIALS)"
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env=env, check=True)
        assert out.stdout.strip() == "[1] [1]"

    def test_racah_matches_cg(self):
        # every J and every m1 + m2 = M with 2j <= 10: selection-rule and accidental zeros
        compared = accidental_zeros = 0
        for tj1 in range(11):
            for tj2 in range(11):
                for tJ in range(11):
                    for tm1 in range(-tj1, tj1 + 1, 2):
                        for tm2 in range(-tj2, tj2 + 1, 2):
                            tM = tm1 + tm2
                            if abs(tM) > tJ or (tJ - tM) % 2:
                                continue
                            labels = (tj1, tj2, tm1, tm2, tJ, tM)
                            want = (0, 0, 1)
                            if _allowed(*labels) is not None:
                                want = _racah(tj1, tj2, tm1, tm2, tJ, tM)
                                accidental_zeros += want == (0, 0, 1)
                            got = cg(*labels)
                            r = got.square()
                            assert (got.sign, r.numerator, r.denominator) == want
                            compared += 1
        assert compared == 13860 and accidental_zeros > 0

    def test_orthogonality_exact(self):
        for tj1, tj2, tm1, tm2 in [(2, 1, 0, 1), (3, 3, 1, -1), (4, 2, -2, 0)]:
            total = sum(
                (
                    cg(tj1, tj2, tm1, tm2, tJ, tm1 + tm2).square()
                    for tJ in range(max(abs(tj1 - tj2), abs(tm1 + tm2)), tj1 + tj2 + 1, 2)
                ),
                Fraction(0),
            )
            assert total == 1


def _labels(max_twice):
    """Every (2j1, 2j2, 2J, 2M, 2m1) with 2j1, 2j2 <= max_twice, J in the
    triangle and |m2| <= j2."""
    for tj1 in range(max_twice + 1):
        for tj2 in range(max_twice + 1):
            for tJ in range(abs(tj1 - tj2), tj1 + tj2 + 1, 2):
                for tM in range(-tJ, tJ + 1, 2):
                    for tm1 in range(-tj1, tj1 + 1, 2):
                        if abs(tM - tm1) <= tj2:
                            yield tj1, tj2, tJ, tM, tm1


class TestCloningCoefficients:
    def test_b_p2(self):
        assert b_coef(2, 0) == SSR(1, 2, 3)
        assert b_coef(2, 1) == SSR(-1, 1, 3)

    def test_b_p1(self):
        assert b_coef(1, 0) == SSR(1, 1, 1)

    def test_b_out_of_range(self):
        with pytest.raises(ValueError):
            b_coef(2, 2)
        with pytest.raises(ValueError):
            b_coef(3, -1)

    def test_b_normalized(self):
        for P in range(1, 51):
            assert sum((b_coef(P, k).square() for k in range(P)), Fraction(0)) == 1

    def test_b_matches_factorial_ratio(self):
        for P in range(1, 61):
            for k in range(P):
                rad = Fraction(2, P + 1) * Fraction(factorial(P - 1) * factorial(P - k),
                                                    factorial(P) * factorial(P - 1 - k))
                assert b_coef(P, k) == SSR((-1) ** k, rad.numerator, rad.denominator)

    def test_d_p2(self):
        assert d_coef(2, 0) == SSR(1, 2, 3)
        assert d_coef(2, 1) == SSR(-1, 2, 9)

    def test_d_two_routes_agree(self):
        for P in range(1, 21):
            for k in range(P):
                assert d_coef(P, k) == d_coef_via_cg(P, k)

    def test_projection_norm(self):
        assert projection_norm_sq(1) == 1
        assert projection_norm_sq(2) == Fraction(8, 9)

    def test_projection_norm_is_sum_of_d_squares(self):
        for P in range(1, 41):
            expected = sum((d_coef(P, k).square() for k in range(P)), Fraction(0))
            assert projection_norm_sq(P) == expected

    def test_projection_norm_closed_form(self):
        for P in range(1, 301):
            assert projection_norm_sq(P) == Fraction(4 ** P, (P + 1) * comb(2 * P, P))

    def test_projection_norm_matches_factorial_form(self):
        for P in range(1, 301):
            want = Fraction(2 * factorial(P - 1) ** 2 * _dicke_sums(P)[0],
                            (P + 1) * factorial(2 * P - 1))
            assert projection_norm_sq(P) == want

    def test_scheme_a_total_equals_scheme_b(self):
        # UQCM stage (P+1)/2^P times the final projection, against scheme B's one stage
        for P in range(1, 301):
            total_a = Fraction(P + 1, 2 ** P) * projection_norm_sq(P)
            assert total_a == Fraction(2 ** (P - 1), comb(2 * P - 1, P))


class TestGamma:
    def test_anchors(self):
        assert gamma(2) == Fraction(5, 6)
        assert gamma(3) == Fraction(4, 5)

    def test_closed_form_small_range(self):
        for P in range(1, 60):
            assert gamma(P) == gamma_closed_form(P)

    def test_closed_form_large(self):
        assert gamma(1001) == gamma_closed_form(1001)
        assert gamma(5001) == gamma_closed_form(5001)

    def test_matches_binomial_ratio(self):
        for P in range(1, 61):
            assert gamma(P) == _gamma_by_binomials(P)


def _gamma_by_binomials(P):
    """The defining ratio over the weights C(P-1,k)^2 / C(M,2k), summed over
    the lcm of their denominators."""
    M = 2 * P - 1
    dens = [comb(M, 2 * k) for k in range(P)]
    common = lcm(*dens)
    weights = [comb(P - 1, k) ** 2 * (common // d) for k, d in enumerate(dens)]
    return Fraction(sum((M - 2 * k) * w for k, w in enumerate(weights)), M * sum(weights))


class TestDickeSums:
    def test_paired_sum_equals_term_by_term(self):
        # the unpaired oracle: every k < P on its own, t_k = c_k c_j (2j+1)
        c = [comb(2 * n, n) for n in range(300)]
        for P in range(1, 301):
            total = weighted = 0
            for k in range(P):
                j = P - 1 - k
                term = c[k] * c[j] * (2 * j + 1)
                total += term
                weighted += term * (2 * j + 1)
            assert _dicke_sums(P) == (total, weighted), P

    def test_central_binomials(self):
        # one shared table, grown on demand and never shrunk
        table = _central_binomials(40)
        assert len(table) >= 40 and table[:40] == [comb(2 * n, n) for n in range(40)]
        assert _central_binomials(10) is table and len(table) >= 40

    def test_grown_table_matches_binomial_oracles(self):
        # every P <= 300 reads a table already grown past it, here to P = 1001
        assert gamma(1001) == gamma_closed_form(1001)
        assert len(_central_binomials(1)) >= 1001
        for P in range(1, 301):
            assert gamma(P) == _gamma_by_binomials(P), P
            assert projection_norm_sq(P) == Fraction(4 ** P, (P + 1) * comb(2 * P, P)), P


class TestFidelityFormula:
    def test_cov_odd(self):
        assert fidelity_formula("cov_odd", 1, 3) == Fraction(5, 6)
        assert fidelity_formula("cov_odd", 1, 5) == Fraction(4, 5)

    def test_universal(self):
        assert fidelity_formula("universal", 1, 3) == Fraction(7, 9)
        assert fidelity_formula("universal", 1, 2) == Fraction(5, 6)

    def test_limits(self):
        assert fidelity_formula("universal", 1, None) == Fraction(2, 3)
        assert fidelity_formula("phase_estimation", 1) == Fraction(3, 4)
        assert fidelity_formula("cov_odd", 1, None) == Fraction(3, 4)

    def test_phase_gap(self):
        for M in (3, 5, 7, 21):
            gap = fidelity_formula("cov_odd", 1, M) - fidelity_formula("phase_estimation", 1)
            assert gap == Fraction(1, 4 * M)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            fidelity_formula("cov_odd", 1, 4)
        with pytest.raises(ValueError):
            fidelity_formula("cov_odd", 2, 3)
        with pytest.raises(ValueError):
            fidelity_formula("universal", 2, 1)
        with pytest.raises(ValueError):
            fidelity_formula("bogus", 1, 3)


class TestAngularChecks:
    """The integer-triple checks of ``verify --suite angular`` still catch errors."""

    @staticmethod
    def _defects(monkeypatch, label, result):
        real = verify._racah
        monkeypatch.setattr(verify, "_racah",
                            lambda *a: result(real(*a)) if a == label else real(*a))
        return {name: defect for name, defect, _ in verify.angular_checks()}

    def test_flipped_sign_fails_ladder_check(self, monkeypatch):
        # <1/2 1/2; 1/2 -1/2 | 0 0> = +sqrt(1/2): squares, and so orthogonality, cannot see the sign
        defects = self._defects(monkeypatch, (1, 1, 1, -1, 0, 0), lambda t: (-t[0], *t[1:]))
        assert defects["cg closed form == ladder oracle (2j <= 10)"] == 1.0
        assert defects["cg orthogonality (2j <= 6) exact"] == 0.0

    def test_dropped_term_fails_orthogonality(self, monkeypatch):
        # <1 0; 1 0 | 2 0> = sqrt(2/3) read as zero drops the J = 2 term of its sum
        defects = self._defects(monkeypatch, (2, 2, 0, 0, 4, 0), lambda t: (0, 0, 1))
        assert defects["cg orthogonality (2j <= 6) exact"] == 1.0
