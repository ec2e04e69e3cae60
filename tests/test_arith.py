"""Number field and big-float arithmetic."""

import operator
from fractions import Fraction
from functools import lru_cache
from math import gcd

import mpmath
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import libmp

from cremona import _libmpf, arith
from cremona.arith import (
    BigFloat,
    InconsistentEmbeddingError,
    NumberField,
    ZeroDivisorError,
    dot,
    nf_embed,
)
from cremona.polynomials import IntegerPolynomial
from cremona.spectra import char_poly_pk, leading_salem_root, salem_factor

LEHMER = IntegerPolynomial([1, 1, 0, -1, -1, -1, -1, -1, 0, 1, 1])
FIELD = NumberField(LEHMER)

elements = st.lists(
    st.fractions(
        min_value=-4, max_value=4, max_denominator=5
    ),
    min_size=0,
    max_size=10,
).map(FIELD.element)


def test_modulus_must_be_monic_nonconstant():
    with pytest.raises(ValueError):
        NumberField(IntegerPolynomial([2]))
    with pytest.raises(ValueError):
        NumberField(IntegerPolynomial([1, 2]))


def test_gen_satisfies_modulus():
    x = FIELD.gen()
    acc = FIELD.zero()
    for i, c in enumerate(LEHMER.coeffs):
        acc = acc + x ** i * Fraction(c)
    assert acc.is_zero()


def test_rational_coercion():
    x = FIELD.gen()
    assert (x + 1) - x == FIELD.one()
    assert x * Fraction(1, 2) + x * Fraction(1, 2) == x
    assert (FIELD.element([Fraction(3, 2)])).as_rational() == Fraction(3, 2)


def test_rational_elements_hash_like_their_fractions():
    half = FIELD.element([Fraction(1, 2)])
    assert FIELD.one() == 1 and hash(FIELD.one()) == hash(1)
    assert half == Fraction(1, 2) and hash(half) == hash(Fraction(1, 2))
    assert hash(FIELD.zero()) == hash(0)
    assert len({FIELD.one(), 1}) == 1
    assert len({half, Fraction(1, 2)}) == 1
    assert len({FIELD.gen(), FIELD.gen() * 1, FIELD.one()}) == 2


@given(elements, elements, elements)
@settings(max_examples=100, deadline=None)
def test_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c
    assert (a * b) * c == a * (b * c)
    assert a + (-a) == FIELD.zero()


@given(elements.filter(lambda e: not e.is_zero()))
@settings(max_examples=60, deadline=None)
def test_inverse(a):
    assert a * a.inverse() == FIELD.one()


def test_pow_matches_repeated_multiplication():
    x = FIELD.element([Fraction(1, 2), 3, 0, -1])
    x_inv = x.inverse()
    for exp in range(-5, 41):
        expected = FIELD.one()
        for _ in range(abs(exp)):
            expected = expected * (x if exp > 0 else x_inv)
        assert x ** exp == expected, exp


def test_pow_of_a_power_of_two_is_squarings_only(monkeypatch):
    # x ** 2**m: m squarings, no product with 1 and no squaring past the top bit
    calls = []
    real = arith._convolve

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(arith, "_convolve", counting)
    x = FIELD.gen() + 2
    for m in range(7):
        calls.clear()
        x ** (2 ** m)
        assert len(calls) == m, m


def test_small_inverse_is_reconstructed_before_any_lift(monkeypatch):
    # an inverse within Wang's bound modulo the first prime is reconstructed
    # there: its one product is the certificate.  A tall inverse still
    # lifts, and is still certified.
    calls = []
    real = arith._convolve

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(arith, "_convolve", counting)
    for small in (FIELD.gen() + 2, FIELD.element([Fraction(1, 2), 3, 0, -1])):
        calls.clear()
        inv = small.inverse()
        assert len(calls) == 1
        assert small * inv == FIELD.one()
    tall = FIELD.element([10 ** 12, 3, 7 ** 15])
    calls.clear()
    inv = tall.inverse()
    assert len(calls) > 1
    assert tall * inv == FIELD.one()


def test_zero_divisor_reports_factor():
    # x^2 - 1 is reducible; x - 1 is a zero divisor there
    fld = NumberField(IntegerPolynomial([-1, 0, 1]))
    a = fld.gen() - 1
    with pytest.raises(ZeroDivisorError) as exc:
        a.inverse()
    assert exc.value.factor == (Fraction(-1), Fraction(1))  # the factor x - 1


def test_bigfloat_precision_floor():
    with pytest.raises(ValueError):
        BigFloat(1.0, 32)
    x = BigFloat(Fraction(1, 3), 128)
    assert x.precision_bits == 128
    y = x * BigFloat(3, 192)
    assert y.precision_bits == 192
    assert abs(float(y) - 1.0) < 1e-30


def test_bigfloat_arithmetic():
    a = BigFloat(2, 128)
    assert float(a ** 10) == 1024.0
    assert float(abs(-a)) == 2.0
    assert a == 2
    assert BigFloat(1, 64) < BigFloat(2, 64)


def test_bigfloat_is_false_only_at_zero():
    assert not BigFloat(0, 64)
    assert not -BigFloat(0, 64)
    assert BigFloat(2.0 ** -200, 64)
    assert BigFloat(1, 64) / 2 ** 10000


def test_nf_embed_linearity():
    root = leading_salem_root(LEHMER, 192).value
    x = FIELD.gen()
    a = x ** 3 - x + 1
    b = x ** 2 + Fraction(1, 2)
    lhs = nf_embed(a * b, root)
    rhs = nf_embed(a, root) * nf_embed(b, root)
    assert float(abs(lhs - rhs)) < 1e-40


def test_nf_embed_rejects_non_root():
    # a failed check is not remembered: the second call checks again
    for value in (2.5, float("nan"), float("inf")):
        for _ in range(2):
            with pytest.raises(InconsistentEmbeddingError):
                nf_embed(FIELD.gen(), BigFloat(value, 128))


def test_bigfloat_orders_against_exact_scalars():
    one = BigFloat(1, 64)
    assert one < Fraction(3, 2) and one <= Fraction(3, 2)
    assert not one < Fraction(1, 2) and not one <= Fraction(1, 2)
    assert one > Fraction(1, 2) and one >= Fraction(1, 2)
    assert Fraction(3, 2) > one and Fraction(1, 2) <= one
    assert one <= 1 and one >= 1 and not one < 1 and one < 2 and one > 0.5
    assert max(BigFloat(2, 64), Fraction(3, 2)) == 2
    # an exact operand is rounded to the BigFloat's precision, as == does
    wide = 2 ** 70 + 1
    assert BigFloat(wide, 64) == wide and BigFloat(wide, 64) <= wide
    assert not BigFloat(wide, 64) < wide


# ---------------------------------------------------------------------------
# the kernel against sympy: Lehmer's polynomial and the degree-14 Salem
# factor of pk (3, 12), x^14 - x^11 - ... - x^3 + 1

SALEM_3_12 = IntegerPolynomial([1, 0, 0] + [-1] * 9 + [0, 0, 1])
ORACLE_FIELDS = [FIELD, NumberField(SALEM_3_12)]
X = sympy.Symbol("x")


def _sympy_poly(coeffs):
    return sympy.Poly([sympy.Rational(c.numerator, c.denominator)
                       for c in reversed(coeffs)] or [0], X, domain=sympy.QQ)


def _residue(poly):
    coeffs = [Fraction(int(c.p), int(c.q)) for c in reversed(poly.all_coeffs())]
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def _oracle_elements(field):
    """Rational elements, drawn with up to four coefficients past the
    degree so that construction has to reduce them."""
    return st.lists(
        st.fractions(min_value=-50, max_value=50, max_denominator=40),
        max_size=field.degree + 4,
    ).map(field.element)


@pytest.mark.parametrize("field", ORACLE_FIELDS, ids=["lehmer", "pk-3-12"])
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_kernel_matches_sympy(field, data):
    a = data.draw(_oracle_elements(field))
    b = data.draw(_oracle_elements(field))
    S = _sympy_poly(field.modulus.to_rational())
    A, B = _sympy_poly(a.residue), _sympy_poly(b.residue)
    results = [(a * b, (A * B).rem(S)), (a + b, A + B), (a - b, A - B)]
    if not a.is_zero():
        results.append((a.inverse(), sympy.invert(A, S)))
    for got, expected in results:
        assert got.residue == _residue(expected)
    assert field.element(a.residue) == a
    assert field.element(a.residue).residue == a.residue


@given(elements, elements)
@settings(max_examples=60, deadline=None)
def test_elements_are_stored_in_lowest_terms(a, b):
    results = [a, a * b, a + b, a - b] + ([a.inverse()] if a else [])
    for e in results:
        assert e.den > 0 and gcd(e.den, *e.num) == 1
        assert len(e.num) <= FIELD.degree and (not e.num or e.num[-1] != 0)


operands = st.one_of(
    elements,
    st.integers(min_value=-10**30, max_value=10**30),
    st.fractions(min_value=-50, max_value=50, max_denominator=10**12),
)


@given(elements, operands)
@settings(max_examples=100, deadline=None)
def test_subtraction_is_adding_the_negation(a, b):
    # __sub__ subtracts in one pass; its result is a + (-b), stored the same
    # way, with an int, a Fraction or an element on the right and, through
    # __rsub__, on the left
    assert (a - b).num == (a + (-b)).num and (a - b).den == (a + (-b)).den
    assert b - a == -(a - b) and (a - a).is_zero()
    assert (a - b) + b == a


def _general_product(a, b):
    """a * b for elements by convolution and reduction, the path of two
    irrational elements."""
    if not a or not b:
        return FIELD.zero()
    return FIELD._element(arith._convolve(a.num, b.num), a.den * b.den)


@given(elements, operands)
@settings(max_examples=200, deadline=None)
def test_scalar_product_is_the_general_product(a, b):
    # an int, a Fraction or a rational element scales a's numerator and
    # denominator; the result is stored as the general product is
    element = b if isinstance(b, arith.NumberFieldElement) else FIELD.element([b])
    expected = _general_product(a, element)
    for got in (a * b, b * a, a * element, element * a):
        assert (got.num, got.den) == (expected.num, expected.den)


def test_scalar_products_make_no_convolution(monkeypatch):
    x = FIELD.element([Fraction(3, 4), -6, 0, Fraction(9, 2)])
    scalars = (3, -4, 0, Fraction(2, 9), Fraction(-8, 3))
    expected = [_general_product(x, FIELD.element([q])) for q in scalars]
    calls = []
    real = arith._convolve

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(arith, "_convolve", counting)
    for q, product in zip(scalars, expected):
        for scalar in (q, FIELD.element([q])):
            assert x * scalar == product and scalar * x == product
    assert calls == []
    x * x
    assert len(calls) == 1


@pytest.mark.parametrize("field", ORACLE_FIELDS, ids=["lehmer", "pk-3-12"])
@given(data=st.data())
@settings(max_examples=15, deadline=None)
def test_nf_embed_matches_sympy_to_60_digits(field, data):
    a = data.draw(_oracle_elements(field))
    root = leading_salem_root(field.modulus, 256).value
    S = _sympy_poly(field.modulus.to_rational())
    exact_root = sympy.N(max(S.real_roots()), 90)
    expected = sum(
        (sympy.Rational(c.numerator, c.denominator) * exact_root ** i
         for i, c in enumerate(a.residue)),
        sympy.Float(0, 90),
    )
    got = sympy.Float(mpmath.nstr(nf_embed(a, root).value, 75), 90)
    assert abs(got - expected) <= sympy.Float(10, 90) ** -60 * max(1, abs(expected))


# ---------------------------------------------------------------------------
# inversion at the frontier: the Salem factors of pk (2, 40) and pk (2, 60),
# of degrees 36 and 62

SALEM_2_40 = salem_factor(char_poly_pk(2, 40))[1]
SALEM_2_60 = salem_factor(char_poly_pk(2, 60))[1]


def _sparse_elements(field):
    """Elements with one to three small nonzero coefficients.  Their inverses
    are dense, with hundreds of bits, yet sympy finds them in well under a
    second; a dense element takes sympy seconds at degree 36 and minutes at
    degree 62."""
    return st.dictionaries(
        st.integers(0, field.degree - 1),
        st.fractions(min_value=-9, max_value=9, max_denominator=9).filter(bool),
        min_size=1,
        max_size=3,
    ).map(lambda terms: field.element(
        [terms.get(i, 0) for i in range(field.degree)]
    ))


@pytest.mark.parametrize(
    "field", [NumberField(SALEM_2_40), NumberField(SALEM_2_60)],
    ids=["pk-2-40", "pk-2-60"],
)
@given(data=st.data())
@settings(max_examples=6, deadline=None)
def test_inverse_matches_sympy_at_the_frontier(field, data):
    a = data.draw(_sparse_elements(field))
    S = _sympy_poly(field.modulus.to_rational())
    expected = sympy.invert(_sympy_poly(a.residue), S)
    assert a.inverse().residue == _residue(expected)


def test_zero_divisor_reports_factor_at_degree_38():
    # the Salem factor of pk (2, 40) times Phi_3, where Phi_3 itself is a
    # zero divisor: every prime fails, and gcd over Q names the factor
    phi3 = IntegerPolynomial([1, 1, 1])
    fld = NumberField(SALEM_2_40 * phi3)
    assert fld.degree == 38
    with pytest.raises(ZeroDivisorError) as exc:
        fld.element(phi3.coeffs).inverse()
    assert exc.value.factor == phi3.to_rational()


def test_unlucky_primes_are_skipped(monkeypatch):
    # the resultant of x + 6 and Lehmer's polynomial is 23 * 89 * 24733; with
    # those as the fixed primes, inversion modulo each fails, gcd over Q is
    # constant, and the inverse comes from a prime drawn afterwards
    a = FIELD.gen() + 6
    A, S = _sympy_poly(a.residue), _sympy_poly(LEHMER.to_rational())
    unlucky = tuple(sympy.primefactors(sympy.resultant(A, S)))
    assert unlucky == (23, 89, 24733)
    monkeypatch.setattr(arith, "_PRIMES", unlucky)
    tried = []
    real = arith._inverse_mod_p

    def recording(num, modulus, p):
        u = real(num, modulus, p)
        tried.append((p, u is None))
        return u

    monkeypatch.setattr(arith, "_inverse_mod_p", recording)
    assert a.inverse().residue == _residue(sympy.invert(A, S))
    assert tried[:3] == [(p, True) for p in unlucky]
    assert tried[-1][0] not in unlucky and not tried[-1][1]


def test_prime_sequence():
    # the fixed primes, then the primes below 2^62 that follow them
    expected, p = [], 1 << 62
    for _ in range(7):
        p = sympy.prevprime(p)
        expected.append(p)
    primes = arith._primes()
    assert [next(primes) for _ in range(7)] == expected
    assert arith._PRIMES == tuple(expected[:len(arith._PRIMES)])
    small = [n for n in range(2, 2000) if arith._is_prime(n)]
    assert small == list(sympy.primerange(2000))


scalars = st.one_of(
    st.integers(-9, 9),
    st.fractions(min_value=-4, max_value=4, max_denominator=5),
    elements,
)
floats = st.one_of(
    st.integers(-9, 9),
    st.floats(-4, 4).map(lambda v: BigFloat(v, 128)),
)


@given(st.integers(1, 5).flatmap(lambda n: st.tuples(
    st.lists(scalars, min_size=n, max_size=n),
    st.lists(scalars, min_size=n, max_size=n),
    st.lists(floats, min_size=n, max_size=n),
)))
@settings(max_examples=50, deadline=None)
def test_dot_is_the_plain_sum(vectors):
    row, vec, float_vec = vectors
    for r, v in [(row, vec), (row, row), (float_vec, float_vec)]:
        got, expected = dot(r, v), sum(x * y for x, y in zip(r, v))
        assert type(got) is type(expected)
        assert got == expected


# ---------------------------------------------------------------------------
# BigFloat against mpmath: every operation is bit for bit the mpmath
# expression under workprec at the larger precision of its operands

PRECISIONS = (64, 128, 256, 512)
# numerators wider than the precision, where rounding the numerator first
# and then the quotient can differ from rounding the quotient once
wide_ints = st.one_of(st.integers(-(2 ** 80), 2 ** 80),
                      st.integers(2 ** 64, 2 ** 600).map(lambda n: n | 1))
wide_fractions = st.builds(Fraction, wide_ints, st.integers(3, 2 ** 200))


@st.composite
def bigfloats(draw):
    """BigFloats at mixed precisions, some holding an mpf 16 bits wider than
    their precision, as the certified root does."""
    prec = draw(st.sampled_from(PRECISIONS))
    value = draw(st.one_of(
        wide_ints, st.floats(allow_nan=False, allow_infinity=False), wide_fractions
    ))
    if draw(st.booleans()):
        with mpmath.workprec(prec + 16):
            q = Fraction(value)
            value = mpmath.mpf(q.numerator) / q.denominator
    return BigFloat(value, prec)


def _mp(x):
    """The mpmath value an operand stands for at the working precision."""
    if isinstance(x, BigFloat):
        return x.value
    if isinstance(x, Fraction):
        return mpmath.mpf(x.numerator) / x.denominator
    return mpmath.mpf(x)


BINARY = [operator.add, operator.sub, operator.mul, operator.truediv]


def _same(got, expected, prec):
    assert got.value._mpf_ == expected._mpf_
    assert got.precision_bits == prec


@given(bigfloats(), st.one_of(bigfloats(), wide_ints, wide_fractions),
       st.integers(-6, 12))
@settings(max_examples=300, deadline=None)
def test_bigfloat_is_bit_identical_to_mpmath(x, y, exp):
    prec = max(x.precision_bits, getattr(y, "precision_bits", 0))
    if not isinstance(y, BigFloat):
        with mpmath.workprec(prec):
            expected = _mp(y)
        _same(BigFloat(y, prec), expected, prec)
    for op in BINARY:
        for a, b in [(x, y), (y, x)]:  # the reflected forms when y is exact
            with mpmath.workprec(prec):
                try:
                    expected = op(_mp(a), _mp(b))
                except ZeroDivisionError:
                    with pytest.raises(ZeroDivisionError):
                        op(a, b)
                    continue
            _same(op(a, b), expected, prec)
    prec = x.precision_bits
    with mpmath.workprec(prec):
        unary = [(-x, -x.value), (abs(x), abs(x.value))]
        if x.value or exp >= 0:
            unary.append((x ** exp, x.value ** exp))
    for got, expected in unary:
        _same(got, expected, prec)


# ---------------------------------------------------------------------------
# the float kernel: BigFloat holds mpmath's raw tuple, and dot accumulates
# raw tuples


@given(st.lists(st.tuples(*[st.one_of(
    bigfloats(), st.sampled_from(PRECISIONS).map(lambda p: BigFloat(0, p)),
)] * 2), min_size=1, max_size=6))
@settings(max_examples=200, deadline=None)
def test_float_dot_is_the_plain_sum_bit_for_bit(pairs):
    row, vec = zip(*pairs)
    got, expected = dot(row, vec), sum(r * v for r, v in zip(row, vec))
    assert got.raw == expected.raw
    assert got.precision_bits == expected.precision_bits


def test_bigfloat_keeps_an_mpf_unrounded():
    with mpmath.workprec(300):
        wide = mpmath.mpf(1) / 3
    x = BigFloat(wide, 64)
    assert x.raw == wide._mpf_ and x.value == wide
    assert BigFloat(x, 128).raw == wide._mpf_
    for y in (x, BigFloat(Fraction(-7, 3), 128), BigFloat(5, 64), BigFloat(0, 64)):
        assert hash(y) == hash(y.value)
    with pytest.raises(TypeError):  # not taken for an mpf by mpmath
        mpmath.sqrt(x)


def test_float_walk_builds_no_mpf(monkeypatch):
    from cremona import verify
    from cremona.construct import construct_pk

    construction = construct_pk(2, 26)
    mats = verify._prepare(construction, "float", 256).L
    wrapped = []
    make_mpf = arith._make_mpf
    monkeypatch.setattr(arith, "_make_mpf",
                        lambda raw: wrapped.append(raw) or make_mpf(raw))
    _, dead = verify._walk(mats, construction.n - 1, lambda i, point: None)
    assert dead is None
    assert wrapped == []


# ---------------------------------------------------------------------------
# the kernel against mpmath.libmp: each ported function returns mpmath's raw
# tuple bit for bit, rounding to nearest, at 53 to 2048 bits

RND = libmp.round_nearest
SPECIALS = (_libmpf.fzero, _libmpf.fnan, _libmpf.finf, _libmpf.fninf)
kernel_precs = st.integers(53, 2048)


def _mantissas(max_bits=2100):
    """Integers of up to max_bits bits, runs of ones among them, so that
    rounding carries into a new bit."""
    return st.integers(0, max_bits).flatmap(
        lambda bits: st.integers(0, (1 << bits) - 1) | st.just((1 << bits) - 1))


@st.composite
def raws(draw, exps=st.integers(-4200, 4200), specials=False):
    """Canonical raw tuples of either sign, zero among them."""
    if specials and draw(st.integers(0, 9)) == 0:
        return draw(st.sampled_from(SPECIALS))
    man = draw(_mantissas()) * draw(st.sampled_from((1, -1)))
    return libmp.from_man_exp(man, draw(exps))


@st.composite
def raw_pairs(draw, specials=False):
    """(s, t) with t's exponent drawn relative to s's: equal, near, or more
    than 100 bits apart, where addition perturbs instead of adding."""
    s = draw(raws(specials=specials))
    offset = draw(st.integers(-3000, 3000) | st.integers(-150, 150)
                  | st.sampled_from((0, 101, -101, 2100, -2100)))
    t = draw(raws(exps=st.just(s[2] + offset), specials=specials))
    return s, t


def _agree(ours, theirs):
    """ours() == theirs(), or both raise ZeroDivisionError."""
    try:
        expected = theirs()
    except ZeroDivisionError:
        with pytest.raises(ZeroDivisionError):
            ours()
        return
    assert ours() == expected


@given(st.sampled_from((1, 0)), _mantissas(), st.integers(-4200, 4200), kernel_precs)
@settings(max_examples=300, deadline=None)
def test_kernel_normalize_is_mpmaths(sign, man, exp, prec):
    bc = man.bit_length()
    assert (_libmpf.normalize(sign, man, exp, bc, prec)
            == libmp.normalize(sign, man, exp, bc, prec, RND))
    odd = man | 1
    assert (_libmpf.normalize1(sign, odd, exp, odd.bit_length(), prec)
            == libmp.normalize1(sign, odd, exp, odd.bit_length(), prec, RND))


@given(_mantissas(), st.sampled_from((1, -1)), st.integers(-4200, 4200),
       kernel_precs | st.just(0), st.floats() | st.sampled_from((-0.0, 5e-324)),
       raws(specials=True))
@settings(max_examples=300, deadline=None)
def test_kernel_conversions_are_mpmaths(man, sign, exp, prec, x, raw):
    n = sign * man
    assert _libmpf.from_int(n, prec) == libmp.from_int(n, prec, RND)
    assert _libmpf.from_man_exp(n, exp, prec) == libmp.from_man_exp(n, exp, prec, RND)
    float_prec = prec or 53
    assert _libmpf.from_float(x, float_prec) == libmp.from_float(x, float_prec, RND)
    ours, theirs = _libmpf.to_float(raw), libmp.to_float(raw, rnd=RND)
    assert ours == theirs or (ours != ours and theirs != theirs)


@given(raw_pairs(specials=True), kernel_precs | st.just(0))
@settings(max_examples=500, deadline=None)
def test_kernel_add_and_sub_are_mpmaths(pair, prec):
    s, t = pair
    assert _libmpf.mpf_add(s, t, prec) == libmp.mpf_add(s, t, prec, RND)
    assert _libmpf.mpf_sub(s, t, prec) == libmp.mpf_sub(s, t, prec, RND)
    assert _libmpf.mpf_sub(t, s, prec) == libmp.mpf_sub(t, s, prec, RND)


def test_kernel_add_perturbs_below_the_precision():
    # a term more than 100 bits below the other's last bit only perturbs
    # it, 4 bits below the precision: at a tie the perturbation's sign
    # decides the rounding, as the full sum would
    tie = libmp.from_man_exp((1 << 60) + 1, 0)
    for tiny in (libmp.from_man_exp(3, -200), libmp.from_man_exp(-3, -200)):
        for prec in (53, 59, 60, 61, 128):
            for s, t in ((tie, tiny), (tiny, tie)):
                assert (_libmpf.mpf_add(s, t, prec)
                        == libmp.mpf_add(s, t, prec, RND))
                assert (_libmpf.mpf_sub(s, t, prec)
                        == libmp.mpf_sub(s, t, prec, RND))


@given(raw_pairs(specials=True), kernel_precs, st.booleans())
@settings(max_examples=500, deadline=None)
def test_kernel_mul_and_div_are_mpmaths(pair, prec, exact):
    s, t = pair
    assert _libmpf.mpf_mul(s, t, prec) == libmp.mpf_mul(s, t, prec, RND)
    assert _libmpf.mpf_mul(s, t) == libmp.mpf_mul(s, t)
    if exact:  # a quotient with no remainder
        s = libmp.mpf_mul(s, t)
    _agree(lambda: _libmpf.mpf_div(s, t, prec),
           lambda: libmp.mpf_div(s, t, prec, RND))


@given(raws(exps=st.integers(-300, 300), specials=True),
       st.integers(-60, 60) | st.integers(-1000, 1000), kernel_precs)
@settings(max_examples=400, deadline=None)
def test_kernel_pow_int_is_mpmaths(s, n, prec):
    # bc n >= 1000 takes binary powering with truncated partial products,
    # and a negative power the reciprocal of the positive one
    _agree(lambda: _libmpf.mpf_pow_int(s, n, prec),
           lambda: libmp.mpf_pow_int(s, n, prec, RND))


def test_kernel_pow_int_takes_each_path():
    wide = libmp.from_man_exp((1 << 700) - 3, -650)
    # at 53 bits, the cube of the first would round otherwise with one guard
    # bit less in its partial products, and the reciprocal of the second's
    # ninth power otherwise with the power formed at prec + 4 bits
    truncated = libmp.from_man_exp(int(
        "284ed54a792802b3a1a5f83273635a312517d7f21dd07d2f"
        "9f6e5f260f9c15ae36894d69453960a9ce6ce5e8afbeefdf", 16), -382)
    reciprocal = libmp.from_man_exp(223803562854357453, -59)
    for s, n in [(wide, 2), (wide, 3), (wide, 40), (wide, -7), (wide, 1),
                 (wide, 0), (libmp.from_int(3), 600), (libmp.from_int(-3), 601),
                 (truncated, 3), (reciprocal, -9)]:
        for prec in (53, 64, 256, 2048):
            assert (_libmpf.mpf_pow_int(s, n, prec)
                    == libmp.mpf_pow_int(s, n, prec, RND))


@given(st.sampled_from((1, 0)), st.integers(0, 2 ** 2048), st.integers(1, 200),
       st.integers(-4200, 4200), kernel_precs)
@settings(max_examples=200, deadline=None)
def test_kernel_normalize_rounds_ties_to_even(sign, head, k, exp, prec):
    # prec bits of head, then one half-unit bit: an exact tie
    head = head % (1 << prec) | (1 << prec - 1)
    man = (head << k) | (1 << k - 1)
    for m in (man, man | 1):
        assert (_libmpf.normalize(sign, m, exp, m.bit_length(), prec)
                == libmp.normalize(sign, m, exp, m.bit_length(), prec, RND))


@given(raws(specials=True), kernel_precs | st.just(0))
@settings(max_examples=300, deadline=None)
def test_kernel_sign_functions_are_mpmaths(s, prec):
    assert _libmpf.mpf_neg(s, prec) == libmp.mpf_neg(s, prec, RND)
    assert _libmpf.mpf_abs(s, prec) == libmp.mpf_abs(s, prec, RND)
    assert _libmpf.mpf_pos(s, prec) == libmp.mpf_pos(s, prec, RND)


@st.composite
def compared_pairs(draw):
    """Pairs that often share their leading bit, where only a subtraction
    orders them, and some special values."""
    s, t = draw(raw_pairs(specials=True))
    if s[1] and draw(st.booleans()):
        sign, man, exp, bc = s
        other = man ^ draw(st.integers(0, (1 << bc - 1) - 1))
        shift = draw(st.integers(0, 5))
        t = libmp.from_man_exp((-1) ** sign * (other << shift), exp - shift)
    return s, t


@given(compared_pairs())
@settings(max_examples=500, deadline=None)
def test_kernel_comparisons_and_hash_are_mpmaths(pair):
    s, t = pair
    for name in ("mpf_cmp", "mpf_eq", "mpf_lt", "mpf_le", "mpf_gt", "mpf_ge"):
        ours, theirs = getattr(_libmpf, name), getattr(libmp, name)
        assert ours(s, t) == theirs(s, t) and ours(t, s) == theirs(t, s), name
    assert _libmpf.mpf_hash(s) == libmp.mpf_hash(s)


def test_kernel_hash_is_pythons():
    # -1 hashes to -2 in Python, and so do the values congruent to it
    for n in (-1, 1, -(2 ** 61 - 2), 2 ** 61, -(2 ** 122), 0):
        for exp in (0, -61, 61, -5):
            s = libmp.from_man_exp(n, exp)
            assert _libmpf.mpf_hash(s) == libmp.mpf_hash(s) == hash(
                Fraction(n) * Fraction(2) ** exp)
    for s in SPECIALS:
        assert _libmpf.mpf_hash(s) == libmp.mpf_hash(s)


@given(raws(exps=st.integers(-3400, 3400), specials=True), st.integers(1, 60),
       st.booleans())
@settings(max_examples=400, deadline=None)
def test_kernel_to_str_is_mpmaths(s, dps, strip_zeros):
    if s[1]:
        assert _libmpf.to_digits_exp(s, dps) == libmp.to_digits_exp(s, dps)
    assert (_libmpf.to_str(s, dps, strip_zeros=strip_zeros)
            == libmp.to_str(s, dps, strip_zeros=strip_zeros))


@given(st.sampled_from((1, -1)), _mantissas(5000), st.integers(-3400, 3400)
       | st.integers(-10 ** 7, 10 ** 7), st.integers(1, 60))
@settings(max_examples=300, deadline=None)
def test_kernel_to_str_beyond_ten_to_the_1050(sign, man, shift, dps):
    # beyond 2^3500 the digits are those of |s| / 10^b, b found from ln 2
    # and ln 10 and the power rounded toward or away from zero
    bc = (man | 1).bit_length()
    s = libmp.from_man_exp(sign * (man | 1), shift - bc + 3501 * (1 if shift >= 0 else -1))
    assert _libmpf.to_digits_exp(s, dps) == libmp.to_digits_exp(s, dps)
    assert _libmpf.to_str(s, dps, strip_zeros=False) == libmp.to_str(
        s, dps, strip_zeros=False)


def test_kernel_constants_and_powers_of_ten_are_mpmaths():
    from mpmath.libmp import libelefun

    for prec in range(5, 300):
        assert _libmpf._ln_floor(2, prec) == libelefun.mpf_ln2(prec)
        assert _libmpf._ln_floor(10, prec) == libelefun.mpf_ln10(prec)
    for n in (0, 1, 2, 3, 333, 334, 1000, 4321, -1, -2, -333, -334, -4321):
        for prec in (53, 64, 1000, 2048):
            assert _libmpf._ten_power(n, prec) == libmp.mpf_pow_int(
                libmp.ften, n, prec, libmp.round_down)
            assert _libmpf._ten_power(abs(n), prec, up=True) == libmp.mpf_pow_int(
                libmp.ften, abs(n), prec, libmp.round_up)


def _runs_of_nines():
    """Values whose leading 30 to 33 digits are 9s, which round up into a
    new leading digit: 10^e (1 - 2^-j)."""
    for e in (-40, -1, 0, 5, 29, 30, 31):
        for j in (96, 100, 104, 110, 120):
            yield Fraction(10) ** e * (1 - Fraction(1, 2 ** j))


@pytest.mark.parametrize("prec", [64, 128, 256, 1024])
def test_decimal_str_is_mpmath_nstr(prec):
    from cremona.cli import decimal_str

    values = [*_runs_of_nines(), Fraction(-389, 10 ** 41), Fraction(798, 10 ** 51),
              Fraction(-1, 3), Fraction(2, 3) * 10 ** 40, 0, 1, -7,
              Fraction(123456789, 10 ** 35)]
    for q in values:
        for x in (BigFloat(q, prec), BigFloat(-q, prec)):
            assert decimal_str(x) == mpmath.nstr(x.value, 30, strip_zeros=False)


@given(bigfloats())
@settings(max_examples=300, deadline=None)
def test_decimal_str_is_mpmath_nstr_on_bigfloats(x):
    from cremona.cli import decimal_str

    assert decimal_str(x) == mpmath.nstr(x.value, 30, strip_zeros=False)


# ---------------------------------------------------------------------------
# nf_embed against exact evaluation at the ends of the certified interval

EMBED_FIELDS = [*ORACLE_FIELDS, NumberField(SALEM_2_60)]
_isolated = lru_cache(maxsize=None)(leading_salem_root)


def _horner(coeffs, x):
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _exact(x: BigFloat) -> Fraction:
    sign, man, exp, _ = x.value._mpf_
    value = Fraction(man) * Fraction(2) ** exp
    return -value if sign else value


def _near_cancelling(field, iso, prec):
    """tail(x) + q with S = x^d + tail and q a dyadic close to delta^d:
    tail(delta) = -delta^d, so the element is tiny at delta while its terms
    are not."""
    d = field.degree
    scale = 2 ** (prec + 8)
    q = Fraction(round(iso.low ** d * scale), scale)
    tail = list(field.modulus.coeffs[:d])
    return field.element([tail[0] + q, *tail[1:]])


def _assert_within_bound(a, iso, prec):
    r = _exact(iso.value)
    assert iso.low <= r <= iso.high
    ends = sorted((_horner(a.residue, iso.low), _horner(a.residue, iso.high)))
    # the docstring's bound, 2^-(p-1) sum |c_i| r^i, plus 2^-2p sum |c_i|
    # i^2 R^i for a value that a turning point lifts past both ends
    eps, big = Fraction(1, 2 ** prec), max(r, iso.high)
    tol = (2 * eps * sum(abs(c) * r ** i for i, c in enumerate(a.residue))
           + eps * eps * sum(abs(c) * i * i * big ** i
                             for i, c in enumerate(a.residue)))
    got = nf_embed(a, iso.value)
    assert got.precision_bits == prec
    assert ends[0] - tol <= _exact(got) <= ends[1] + tol


@pytest.mark.parametrize("prec", [64, 256, 1024])
@pytest.mark.parametrize("field", EMBED_FIELDS, ids=["lehmer", "pk-3-12", "pk-2-60"])
@given(data=st.data())
@settings(max_examples=8, deadline=None)
def test_nf_embed_within_its_bound_of_the_certified_root(field, prec, data):
    iso = _isolated(field.modulus, prec)
    _assert_within_bound(data.draw(_oracle_elements(field)), iso, prec)


@pytest.mark.parametrize("prec", [64, 256, 1024])
@pytest.mark.parametrize("field", EMBED_FIELDS, ids=["lehmer", "pk-3-12", "pk-2-60"])
def test_nf_embed_within_its_bound_where_it_nearly_cancels(field, prec):
    iso = _isolated(field.modulus, prec)
    a = _near_cancelling(field, iso, prec)
    _assert_within_bound(a, iso, prec)
    # the value is small beside its terms: most of the p bits cancel
    terms = sum(abs(c) * iso.low ** i for i, c in enumerate(a.residue))
    assert abs(_exact(nf_embed(a, iso.value))) < terms * Fraction(1, 2 ** (prec // 2))
