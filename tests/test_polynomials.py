"""Integer polynomial arithmetic, cross-checked against sympy."""

from fractions import Fraction

import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from cremona.polynomials import IntegerPolynomial

small_polys = st.lists(st.integers(-9, 9), min_size=0, max_size=6).map(
    IntegerPolynomial
)
nonzero_polys = small_polys.filter(lambda p: not p.is_zero())


def test_monomial_and_degree():
    p = IntegerPolynomial.monomial(3, 2)
    assert p.coeffs == (0, 0, 0, 2)
    assert p.degree == 3
    assert IntegerPolynomial([]).degree == -1
    assert IntegerPolynomial.one().coeffs == (1,)


def test_trailing_zeros_trimmed():
    assert IntegerPolynomial([1, 2, 0, 0]).coeffs == (1, 2)


def test_evaluation_and_sign():
    p = IntegerPolynomial([-2, 0, 1])  # x^2 - 2
    assert p(2) == 2
    assert p.sign_at(Fraction(1)) == -1
    assert p.sign_at(Fraction(3, 2)) == 1
    assert IntegerPolynomial([0, 1]).sign_at(Fraction(0)) == 0


def test_divmod_exact_and_try_divide():
    a = IntegerPolynomial([-1, 0, 0, 1])  # x^3 - 1
    b = IntegerPolynomial([-1, 1])  # x - 1
    quot = a.try_divide(b)
    assert quot == IntegerPolynomial([1, 1, 1])
    assert a.try_divide(IntegerPolynomial([1, 1, 1, 7])) is None


def test_derivative_reciprocal_content():
    p = IntegerPolynomial([1, -1, -1, 1])
    assert p.derivative() == IntegerPolynomial([-1, -2, 3])
    assert p.is_reciprocal()
    assert not IntegerPolynomial([1, 2]).is_reciprocal()
    assert IntegerPolynomial([6, -9, 12]).content() == 3


@given(small_polys, nonzero_polys)
@settings(max_examples=150, deadline=None)
def test_product_division_roundtrip(a, b):
    quot = (a * b).try_divide(b)
    assert quot == a


@given(small_polys, small_polys, st.integers(-5, 5))
@settings(max_examples=150, deadline=None)
def test_ring_identities(a, b, x):
    assert (a + b)(x) == a(x) + b(x)
    assert (a * b)(x) == a(x) * b(x)
    assert (a - b)(x) == a(x) - b(x)


@given(
    st.lists(st.integers(-10 ** 6, 10 ** 6), max_size=12).map(IntegerPolynomial),
    st.fractions(max_denominator=10 ** 9),
)
@settings(max_examples=300, deadline=None)
def test_sign_at_is_the_sign_of_the_value(p, x):
    value = p(x)
    assert p.sign_at(x) == (value > 0) - (value < 0)


@given(
    st.lists(st.integers(-3, 3), min_size=1, max_size=5).map(IntegerPolynomial),
    st.integers(-4, 4),
    st.integers(0, 3),
)
@settings(max_examples=150, deadline=None)
def test_sign_at_is_zero_at_rational_roots(cofactor, num, log_den):
    root = Fraction(num, 2 ** log_den)
    p = cofactor * IntegerPolynomial([-root.numerator, root.denominator])
    assert p.sign_at(root) == 0


def test_divmod_exact_rejects_inexact():
    a = IntegerPolynomial([1, 1])
    b = IntegerPolynomial([0, 2])
    assert a.divmod_exact(b) is None or a.try_divide(b) is None


X = sympy.symbols("x")


def _sympy_gcd(a, b):
    expr = sympy.gcd(sum(c * X ** i for i, c in enumerate(a.coeffs)),
                     sum(c * X ** i for i, c in enumerate(b.coeffs)))
    return IntegerPolynomial(reversed(sympy.Poly(expr, X).all_coeffs()))


@given(
    st.lists(st.integers(-30, 30), max_size=4).map(IntegerPolynomial),
    small_polys,
    small_polys,
    st.integers(-6, 6),
    st.integers(-6, 6),
)
@settings(max_examples=200, deadline=None)
def test_gcd_matches_sympy(common, a, b, sa, sb):
    # a planted common factor, each side times a scalar of either sign;
    # a, b and common may be constant, coprime or zero
    x, y = a * common * sa, b * common * sb
    g = x.gcd(y)
    assert g == _sympy_gcd(x, y)
    assert g == y.gcd(x)
    if not g.is_zero():
        assert g.leading() > 0
        assert x.try_divide(g) is not None and y.try_divide(g) is not None


def test_gcd_of_coprime_and_constant_inputs():
    x2 = IntegerPolynomial([-2, 0, 1])
    assert x2.gcd(IntegerPolynomial([-1, 1])) == IntegerPolynomial.one()
    assert IntegerPolynomial([6, 0, -12]).gcd(IntegerPolynomial([4])) == IntegerPolynomial([2])
    assert (-x2).gcd(IntegerPolynomial([])) == x2
    assert IntegerPolynomial([]).gcd(IntegerPolynomial([])).is_zero()


@given(
    st.lists(st.integers(-2 ** 70, 2 ** 70), max_size=12).map(IntegerPolynomial),
    st.integers(-2 ** 1200, 2 ** 1200),
    st.integers(0, 1100),
)
@settings(max_examples=300, deadline=None)
def test_sign_at_dyadic_points(p, num, log_den):
    # a power-of-two denominator takes the shift branch
    x = Fraction(num, 2 ** log_den)
    value = p(x)
    assert p.sign_at(x) == (value > 0) - (value < 0)


@given(
    st.lists(st.integers(-2 ** 40, 2 ** 40), min_size=1, max_size=8).map(IntegerPolynomial),
    st.integers(-2 ** 1100, 2 ** 1100).map(lambda a: 2 * a + 1),
    st.integers(0, 1100),
    st.integers(-3, 3),
)
@settings(max_examples=200, deadline=None)
def test_sign_at_dyadic_roots(cofactor, odd, log_den, offset):
    # (2^m x - a) times a cofactor is zero at a / 2^m, and its sign at
    # dyadic neighbours one unit of 2^-(m + 1) away is the exact one
    root = Fraction(odd, 2 ** log_den)
    p = cofactor * IntegerPolynomial([-root.numerator, root.denominator])
    assert p.sign_at(root) == 0
    x = root + Fraction(offset, 2 ** (log_den + 1))
    value = p(x)
    assert p.sign_at(x) == (value > 0) - (value < 0)


def test_sign_at_half_of_a_dyadic_root():
    p = IntegerPolynomial([-1, 2]) * IntegerPolynomial([5, -3, 0, 7])
    assert p.sign_at(Fraction(1, 2)) == 0
    assert p.sign_at(Fraction(1, 4)) == -1
    assert p.sign_at(Fraction(3, 4)) == 1
    assert p.sign_at(Fraction(-1, 2 ** 1100)) == -1
