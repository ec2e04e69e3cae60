"""Characteristic polynomials, cyclotomic stripping and Salem roots,
cross-checked against sympy as an independent oracle."""

from fractions import Fraction

import pytest
import sympy

from cremona.polynomials import IntegerPolynomial
from cremona.spectra import (
    GAMMA_BIPROJ_FINITE,
    GAMMA_PK_FINITE,
    char_poly_biproj,
    char_poly_pk,
    count_real_roots,
    cyclotomic,
    gamma_biproj_lists,
    gamma_pk_lists,
    leading_salem_root,
    spectral_report,
    strip_cyclotomic,
    sturm_sequence,
)

X = sympy.symbols("x")

LEHMER = IntegerPolynomial([1, 1, 0, -1, -1, -1, -1, -1, 0, 1, 1])


def to_sympy(p: IntegerPolynomial):
    return sum(c * X ** i for i, c in enumerate(p.coeffs))


def test_char_poly_pk_matches_sympy():
    for k in range(2, 6):
        for n in range(1, 8):
            ours = to_sympy(char_poly_pk(k, n))
            if n == 1:
                theirs = sympy.expand((X ** (n + k) - 1) * (X ** 2 - 1))
            else:
                theirs = sympy.expand(
                    (X ** (n + k) - 1) * (X ** 2 - 1)
                    - X * (X ** (k + 1) - 1) * (X ** (n - 1) - 1)
                )
            assert sympy.expand(ours - theirs) == 0


def test_char_poly_biproj_matches_sympy():
    for k in range(2, 6):
        for n in range(1, 7):
            ours = to_sympy(char_poly_biproj(k, n))
            c = 1 + sum(2 * X ** j for j in range(1, k)) + X ** k
            theirs = sympy.expand(
                X ** n * (X ** (k + 2) - c) + X ** 2 * c - 1
            )
            assert sympy.expand(ours - theirs) == 0


def test_cyclotomic_matches_sympy():
    for d in (1, 2, 3, 4, 6, 12, 15, 24, 30):
        assert to_sympy(cyclotomic(d)) == sympy.expand(
            sympy.cyclotomic_poly(d, X)
        )


def test_strip_reconstructs_input():
    for poly in (char_poly_pk(2, 8), char_poly_pk(3, 6), char_poly_biproj(2, 5)):
        factors, core = strip_cyclotomic(poly)
        rebuilt = core
        for d, mult in factors:
            for _ in range(mult):
                rebuilt = rebuilt * cyclotomic(d)
        assert rebuilt == poly


def test_lehmer_is_salem_core_of_2_8():
    _, core = strip_cyclotomic(char_poly_pk(2, 8))
    assert core == LEHMER or -core == LEHMER
    assert core.is_reciprocal()


def test_gamma_literal_lists():
    assert gamma_pk_lists(2, 7)
    assert gamma_pk_lists(5, 3)  # n <= 3 blanket
    assert not gamma_pk_lists(2, 8)
    assert gamma_biproj_lists(2, 4)
    assert not gamma_biproj_lists(2, 5)
    assert (2, 7) in GAMMA_PK_FINITE and (5, 3) in GAMMA_BIPROJ_FINITE


def test_count_real_roots_vs_sympy():
    for poly in (LEHMER, char_poly_pk(2, 8), IntegerPolynomial([-2, 0, 1])):
        expr = to_sympy(poly)
        distinct = {sympy.nsimplify(r, rational=False) for r in sympy.real_roots(expr)}
        expected = sum(1 for r in distinct if r.evalf(30) > 1)
        got = count_real_roots(poly, Fraction(1), Fraction(10 ** 6))
        assert got == expected


def test_sturm_chain_endpoints():
    chain = sturm_sequence(LEHMER)
    assert chain[0] == LEHMER
    assert chain[1] == LEHMER.derivative()
    assert chain[-1].degree <= 0 or not chain[-1].is_zero()


def test_leading_salem_root_certificate():
    iso = leading_salem_root(LEHMER, 128)
    assert iso is not None
    assert iso.width < Fraction(1, 2 ** 128)
    # certified sign change across the interval
    assert LEHMER.sign_at(iso.low) * LEHMER.sign_at(iso.high) < 0
    assert abs(float(iso.value) - 1.17628081825991750) < 1e-12


def test_no_salem_root_in_cyclotomic():
    assert leading_salem_root(cyclotomic(12), 64) is None


def test_spectral_report_pk_2_8():
    rep = spectral_report("pk", 2, 8, 128)
    assert not rep.exceptional
    assert rep.salem_factor == LEHMER
    assert rep.gamma_agrees
    assert abs(float(rep.delta.value) - 1.17628081825991750) < 1e-12


def test_spectral_report_exceptional():
    rep = spectral_report("pk", 2, 7, 64)
    assert rep.exceptional
    assert rep.salem_factor is None


def test_unknown_family_rejected():
    with pytest.raises(ValueError):
        spectral_report("nope", 2, 8)


def test_biproj_closed_forms():
    for k in range(2, 9):
        lhs = char_poly_biproj(k, 1)
        rhs = IntegerPolynomial([-1] + [0] * k + [1]) * IntegerPolynomial(
            [1, 1, 1]
        )
        assert lhs == rhs
        assert char_poly_biproj(k, 2) == IntegerPolynomial(
            [-1] + [0] * (k + 3) + [1]
        )


def test_salem_factor_reciprocity():
    for family, k, n in (("pk", 2, 8), ("pk", 3, 6), ("biproj", 2, 5)):
        rep = spectral_report(family, k, n, 64)
        assert rep.salem_factor.is_reciprocal()


@pytest.mark.parametrize("factors", [
    ([-4, 1], [-24, 0, 1]),   # bisection hits the root 4 just below sqrt(24)
    ([-8, 1], [-112, 0, 1]),  # likewise 8 just below sqrt(112)
    ([-4, 1], [-2, 0, 1]),    # the largest root is itself a midpoint
])
def test_leading_root_past_a_rational_midpoint(factors):
    poly = IntegerPolynomial.one()
    for f in factors:
        poly = poly * IntegerPolynomial(f)
    iso = leading_salem_root(poly, 64)
    largest = max(sympy.real_roots(to_sympy(poly)))
    assert sympy.Rational(iso.low.numerator, iso.low.denominator) <= largest
    assert largest <= sympy.Rational(iso.high.numerator, iso.high.denominator)
    assert iso.width < Fraction(1, 2 ** 64)
