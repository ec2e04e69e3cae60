"""Characteristic polynomials, cyclotomic stripping and Salem roots,
cross-checked against sympy as an independent oracle."""

from fractions import Fraction
from unittest import mock

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from cremona import spectra
from cremona.polynomials import IntegerPolynomial
from cremona.spectra import (
    GAMMA_BIPROJ_FINITE,
    GAMMA_PK_FINITE,
    char_poly_biproj,
    char_poly_pk,
    coxeter_polynomial,
    cyclotomic,
    gamma_biproj_lists,
    gamma_pk_lists,
    leading_salem_root,
    root_bound,
    salem_factor,
    sign_variations_above_one,
    spectral_report,
    strip_cyclotomic,
    _cyclotomic_indices,
    _isolate_largest,
    _squarefree_part,
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


def test_coxeter_polynomial_is_the_lattice_charpoly():
    # det(xI - C) of the product of the simple reflections of T(p, q, r),
    # sign included, by Berkowitz on the lattice matrix
    from cremona.picard import berkowitz_charpoly, coxeter_element_tpqr

    for p in range(1, 6):
        for q in range(1, 6):
            for r in range(1, 14):
                assert coxeter_polynomial(p, q, r) == berkowitz_charpoly(
                    coxeter_element_tpqr(p, q, r)), (p, q, r)


def _binomial(n):
    return IntegerPolynomial.monomial(n) - IntegerPolynomial.one()


def test_char_polys_are_the_printed_formulas():
    # the paper's printed formulas, in IntegerPolynomial arithmetic, as the
    # oracle of the T(2, k+1, n-1) and T(3, k+1, n-1) closed forms
    x = IntegerPolynomial.monomial(1)
    for k in range(2, 21):
        c = IntegerPolynomial([1] + [2] * (k - 1) + [1])
        inner = IntegerPolynomial.monomial(k + 2) - c
        for n in range(1, 201):
            pk = _binomial(n + k) * _binomial(2)
            if n > 1:
                pk = pk - x * _binomial(k + 1) * _binomial(n - 1)
            biproj = (IntegerPolynomial.monomial(n) * inner
                      + IntegerPolynomial.monomial(2) * c
                      - IntegerPolynomial.one())
            assert char_poly_pk(k, n) == pk, (k, n)
            assert char_poly_biproj(k, n) == biproj, (k, n)


def test_coxeter_polynomial_arm_of_length_zero():
    # E(p, q, 0) = (x^p - 1)(x^q - 1) / (x - 1)^2, so pk at n = 1 is
    # (x^2 - 1)(x^{k+1} - 1)
    square = _binomial(1) * _binomial(1)
    for p in (2, 3):
        for q in range(3, 9):
            assert coxeter_polynomial(p, q, 0) * square == (
                _binomial(p) * _binomial(q))
    for k in range(2, 8):
        assert char_poly_pk(k, 1) == _binomial(2) * _binomial(k + 1)


def test_cyclotomic_matches_sympy():
    for d in range(1, 1001):
        expected = sympy.cyclotomic_poly(d, X, polys=True).all_coeffs()
        assert list(cyclotomic(d).coeffs) == expected[::-1], d
        assert spectra._cyclotomic_value(d) == cyclotomic(d)(2 ** 16), d


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


def test_cyclotomic_indices_match_sympy_totients():
    # phi(d) >= sqrt(d/2), so the d with phi(d) <= degree lie below 2 degree^2
    phi = [0] + [int(sympy.totient(d)) for d in range(1, 2 * 50 ** 2 + 1)]
    for degree in range(51):
        expected = tuple((d, phi[d]) for d in range(1, 2 * degree ** 2 + 1)
                         if phi[d] <= degree)
        assert _cyclotomic_indices(degree) == expected, degree


def _sympy_cyclotomic_split(poly):
    """({Phi_d as a sympy expression: multiplicity}, the rest) from sympy's
    factorization of ``poly``."""
    content, sympy_factors = sympy.factor_list(to_sympy(poly))
    cyclotomic_part = {}
    rest = content
    for f, mult in sympy_factors:
        if sympy.Poly(f, X).is_cyclotomic:
            cyclotomic_part[sympy.expand(f)] = mult
        else:
            rest *= f ** mult
    return cyclotomic_part, rest


@pytest.mark.parametrize("planted, core", [
    ({300: 1, 8: 3, 13: 2}, [10, -29, 7, -26]),
    ({168: 1, 56: 1, 1: 3}, [-9, -6, -26, 39, -17, 4]),
    ({216: 1, 6: 1, 30: 3}, [26, 28, 20, 3, -22, -15]),
    ({150: 1, 20: 3, 2: 2}, [15, -37, 38, 5]),
    ({210: 2, 4: 1}, [-29, 30, 14, -33, 32]),
])
def test_strip_finds_planted_cyclotomic_factors(planted, core):
    # cores drawn at random with coefficients in [-40, 40]; sympy needs from
    # 0.3 s to 30 s to factor such products, so these are fixed inputs
    core = IntegerPolynomial(core)
    assert not _sympy_cyclotomic_split(core)[0]
    poly = core
    for d, m in planted.items():
        for _ in range(m):
            poly = poly * cyclotomic(d)
    factors, stripped = strip_cyclotomic(poly)
    assert factors == sorted(planted.items())
    assert stripped == core
    cyclotomic_part, rest = _sympy_cyclotomic_split(poly)
    assert cyclotomic_part == {to_sympy(cyclotomic(d)): m for d, m in factors}
    assert sympy.expand(rest - to_sympy(stripped)) == 0


def test_forced_false_positives_change_no_factor(monkeypatch):
    # every integer is 0 mod 1: with that modulus every candidate d passes
    # the screen, Phi_d divides or not, and trial division alone decides
    polys = [char_poly_pk(3, 40), char_poly_biproj(4, 30), char_poly_pk(2, 8),
             _product([1, 1], [1, 1], [1, 1, 1], [3, -7, 11, 0, 5])]
    expected = [strip_cyclotomic(p) for p in polys]
    tries = []
    try_divide = IntegerPolynomial.try_divide
    monkeypatch.setattr(IntegerPolynomial, "try_divide",
                        lambda self, other: tries.append(other) or try_divide(self, other))
    monkeypatch.setattr(spectra, "_cyclotomic_value", lambda d: 1)
    assert [strip_cyclotomic(p) for p in polys] == expected
    confirmed = sum(m for factors, _ in expected for _, m in factors)
    assert len(tries) > 2 * confirmed


def test_trial_divisions_stay_within_budget(monkeypatch):
    # without the screen pk (10, 200) takes a trial division for each of the
    # hundreds of d with phi(d) <= 212; with it each division finds a factor,
    # the derivative screen stopping each d at its multiplicity, plus a
    # slack of 2 for chance zeros
    planted = _product([10, -29, 7, -26], *[cyclotomic(d).coeffs for d in (300, 8, 8, 8, 13, 13)])
    try_divide = IntegerPolynomial.try_divide
    for poly in (char_poly_pk(10, 200), char_poly_pk(3, 40), planted):
        tries = []
        monkeypatch.setattr(IntegerPolynomial, "try_divide",
                            lambda self, other: tries.append(other) or try_divide(self, other))
        factors, _ = strip_cyclotomic(poly)
        monkeypatch.undo()
        assert len(tries) <= sum(m for _, m in factors) + 2, factors


@pytest.mark.parametrize("poly", [char_poly_pk(10, 60), char_poly_biproj(5, 40)],
                         ids=["pk-10-60", "biproj-5-40"])
def test_strip_cyclotomic_matches_sympy_factorization(poly):
    factors, core = strip_cyclotomic(poly)
    cyclotomic_part, rest = _sympy_cyclotomic_split(poly)
    assert cyclotomic_part == {to_sympy(cyclotomic(d)): m for d, m in factors}
    assert sympy.expand(rest - to_sympy(core)) == 0


@pytest.mark.parametrize("factors", [
    ([-2, 1], [-2, 1], [-3, 0, 1], [-5, 0, 1]),  # (x-2)^2 (x^2-3)(x^2-5)
    ([-3, 0, 1], [-3, 0, 1], [-3, 0, 1], [1, 1]),  # (x^2-3)^3 (x+1)
    ([1, -1, 0, 1], [1, -1, 0, 1], [-7, 1]),  # a repeated irreducible cubic
])
def test_count_real_roots_of_repeated_factors(factors, monkeypatch):
    poly = _product(*factors)
    roots = sympy.real_roots(to_sympy(poly))
    for lo, hi in ((-10, 10), (1, 10), (2, 3), (-2, 2)):
        expected = len({r for r in roots if lo < r <= hi})
        assert count_real_roots(poly, Fraction(lo), Fraction(hi)) == expected
    squarefree = _squarefree_part(poly)
    assert sympy.expand(to_sympy(squarefree) - sympy.sqf_part(to_sympy(poly))) == 0
    # the Salem root isolates on the squarefree part whenever Descartes'
    # rule on poly(x + 1) leaves it undecided
    calls = []
    monkeypatch.setattr(spectra, "_squarefree_part",
                        lambda p: calls.append(p) or _squarefree_part(p))
    expected = all_chain_bisection(poly, ALL_BITS)
    for bits in ALL_BITS:
        iso = leading_salem_root(poly, bits)
        assert (iso.low, iso.high) == expected[bits], bits
    assert bool(calls) == (sign_variations_above_one(poly) >= 2)


def test_squarefree_chain_skips_the_fallback(monkeypatch):
    def refuse(p):
        raise AssertionError("squarefree input needs no gcd")

    monkeypatch.setattr(spectra, "_squarefree_part", refuse)
    # three sign variations at x + 1, one root above 1
    core = _product([-2, 1], [3, -3, 2])
    lo, hi = _isolate_largest(core, root_bound(core))
    assert lo < 2 <= hi and count_real_roots(core, lo, hi) == 1
    assert leading_salem_root(_core("pk", 3, 20), 64) is not None


def test_largest_root_at_a_cell_end():
    # (x - 3)(x - 4), B = 13: the cells (1, 4] and (5/2, 4] end at the root
    # 4 but hold 3 too, and (13/4, 4] holds it alone
    core = _product([-3, 1], [-4, 1])
    assert sign_variations_above_one(core) == 2
    assert _isolate_largest(core, root_bound(core)) == (Fraction(13, 4), Fraction(4))
    expected = all_chain_bisection(core, ALL_BITS)
    for bits in ALL_BITS:
        iso = leading_salem_root(core, bits)
        assert (iso.low, iso.high) == expected[bits], bits
        assert iso.high == 4


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


# ---------------------------------------------------------------------------
# oracle: the bisection leading_salem_root ran before it refined by signs,
# with the Sturm chain of the squarefree part and the sign kernel of that time


def _old_sign_at(poly, x):
    p, q = x.numerator, x.denominator
    acc = 0
    n = len(poly.coeffs)
    for i in range(n - 1, -1, -1):
        acc = acc * p + poly.coeffs[i] * q ** (n - 1 - i)
    return (acc > 0) - (acc < 0)


def _old_sturm_chain(p):
    p = _squarefree_part(p)
    chain = [p, p.derivative()]
    while not chain[-1].is_zero() and chain[-1].degree > 0:
        a, b = chain[-2], chain[-1]
        scaled = a * abs(b.leading()) ** (a.degree - b.degree + 1)
        _, rem = scaled.divmod_exact(b)
        if rem.is_zero():
            break
        g = rem.content()
        chain.append(IntegerPolynomial([-c // g for c in rem.coeffs]))
    return chain


def _old_sign_changes(chain, x):
    signs = [s for s in (_old_sign_at(q, x) for q in chain) if s != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def count_real_roots(p, lo, hi):
    """Number of distinct real roots in the half-open interval (lo, hi],
    from the Sturm chain of the squarefree part."""
    chain = _old_sturm_chain(p)
    return _old_sign_changes(chain, lo) - _old_sign_changes(chain, hi)


def all_chain_bisection(core, precisions):
    """{bits: (low, high)}, every step deciding by Sturm counts over the
    whole chain.  The counts at lo and hi are carried along rather than
    recounted, which changes no decision.  Bisection is deterministic, so
    one run to the finest precision passes through the interval each
    coarser one stops at."""
    chain = _old_sturm_chain(core)
    lo, hi = Fraction(1), root_bound(core)
    v_lo, v_hi = _old_sign_changes(chain, lo), _old_sign_changes(chain, hi)
    assert v_lo - v_hi >= 1
    out = {}
    pending = sorted(precisions)
    while pending:
        if hi - lo < Fraction(1, 2 ** pending[0]) and v_lo - v_hi <= 1:
            out[pending.pop(0)] = (lo, hi)
            continue
        mid = (lo + hi) / 2
        v_mid = _old_sign_changes(chain, mid)
        if v_mid - v_hi >= 1:
            lo, v_lo = mid, v_mid
        else:
            hi, v_hi = mid, v_mid
    return out


def _product(*factors):
    poly = IntegerPolynomial.one()
    for f in factors:
        poly = poly * IntegerPolynomial(f)
    return poly


def _core(family, k, n):
    poly = (char_poly_pk if family == "pk" else char_poly_biproj)(k, n)
    return salem_factor(poly)[1]


# At 1024 bits the all-chain oracle takes 1-5 s per sweep core, over two
# minutes for all 45, so those cores are checked at 64 and 256 bits and the
# short ones at all three.
ALL_BITS, SWEEP_BITS = (64, 256, 1024), (64, 256)
ORACLE_INPUTS = (
    [pytest.param(LEHMER, ALL_BITS, id="lehmer")]
    + [pytest.param(("pk", k, n), SWEEP_BITS, id=f"pk-{k}-{n}")
       for k in range(2, 5) for n in range(20, 29)]
    + [pytest.param(("biproj", k, n), SWEEP_BITS, id=f"biproj-{k}-{n}")
       for k in range(2, 4) for n in range(20, 29)]
    + [
        pytest.param(_product([-4, 1], [-24, 0, 1]), ALL_BITS,
                     id="(x-4)(x^2-24)"),
        # two roots above 1 a quarter apart: isolation must split them
        pytest.param(_product([-8, 0, 1], [-9, 0, 1]), ALL_BITS,
                     id="(x^2-8)(x^2-9)"),
        # B = 3, so the first midpoint is the root 2
        pytest.param(_product([-2, 1], [1, 0, 1]), ALL_BITS,
                     id="(x-2)(x^2+1)"),
        # roots 1 + 2^-100 and 1 + 2^-99: isolation alone ends below
        # 2^-64, so no sign halving is left at 64 bits
        pytest.param(_product([-(2 ** 100 + 1), 2 ** 100],
                              [-(2 ** 100 + 2), 2 ** 100]), ALL_BITS,
                     id="(2^100x-2^100-1)(2^100x-2^100-2)"),
    ]
)


@pytest.mark.parametrize("core, precisions", ORACLE_INPUTS)
def test_sign_refinement_matches_all_chain_bisection(core, precisions):
    if isinstance(core, tuple):
        core = _core(*core)
    expected = all_chain_bisection(core, precisions)
    for bits in precisions:
        iso = leading_salem_root(core, bits)
        assert (iso.low, iso.high) == expected[bits], bits


def test_halvings_match_repeated_halving():
    for width in (Fraction(3), Fraction(1, 3), Fraction(5, 2 ** 70),
                  Fraction(1, 2 ** 64), Fraction(2 ** 80 + 1, 7)):
        for bits in (0, 1, 24, 64, 256):
            m, w = 0, width
            while w >= Fraction(1, 2 ** bits):
                m, w = m + 1, w / 2
            assert spectra._halvings(width, bits) == m, (width, bits)


def _guess_at(offset):
    """A stand-in for the Newton step that guesses its start point plus
    ``offset``."""
    return lambda coeffs, x, bits: x + offset


# the start point is the guess in doubles, next to the root: 2^-27 off is
# some 2^(bits-27) cells away from the root, and 1 off is below 1, left of
# the isolating interval (1, B], so the guess lands on its first cell
@pytest.mark.parametrize("offset", [Fraction(-1, 2 ** 27), Fraction(1, 2 ** 27),
                                    Fraction(-1)], ids=["far-low", "far-high", "lo"])
@pytest.mark.parametrize("core, bits", [(LEHMER, 256), (("pk", 3, 20), 64),
                                        (("biproj", 2, 25), 512)],
                         ids=["lehmer-256", "pk-3-20-64", "biproj-2-25-512"])
def test_wrong_guess_falls_back_to_bisection(core, bits, offset, monkeypatch):
    if isinstance(core, tuple):
        core = _core(*core)
    expected = all_chain_bisection(core, (bits,))[bits]
    fallbacks = []
    bisect = spectra._sign_bisect
    monkeypatch.setattr(spectra, "_newton", _guess_at(offset))
    monkeypatch.setattr(spectra, "_sign_bisect",
                        lambda *args: fallbacks.append(args) or bisect(*args))
    iso = leading_salem_root(core, bits)
    assert (iso.low, iso.high) == expected
    # no candidate cell is certified, so one exact bisection makes every
    # halving left of the isolating interval
    assert len(fallbacks) == 1
    _, lo, hi, steps = fallbacks[0]
    assert (hi - lo) / 2 ** steps == iso.width


linear = st.tuples(st.integers(1, 2 ** 40), st.integers(-2 ** 42, 2 ** 42)).map(
    lambda ab: [-ab[1], ab[0]])
quadratic = st.tuples(st.integers(-2 ** 20, 2 ** 20), st.integers(-2 ** 20, 2 ** 20)).map(
    lambda bc: [bc[1], bc[0], 1])
# a root a/b > 1 makes sure there is a largest root to find
above_one = st.tuples(st.integers(1, 2 ** 30), st.integers(1, 2 ** 30)).map(
    lambda ab: [-(ab[0] + ab[1]), ab[1]])


@given(above_one, st.lists(st.one_of(linear, quadratic), max_size=4))
@settings(max_examples=40, deadline=None)
def test_cell_certificate_matches_sign_bisection(root_factor, factors):
    poly = _product(root_factor, *factors)
    for bits in (64, 256, 512):
        with mock.patch.object(spectra, "_certified_cell", lambda *args: None):
            expected = leading_salem_root(poly, bits)
        iso = leading_salem_root(poly, bits)
        assert (iso.low, iso.high) == (expected.low, expected.high), bits
        assert iso.value.value == expected.value.value


# ---------------------------------------------------------------------------
# Descartes' rule: on p(x + 1), and on the dyadic cells of (1, B] when that
# leaves the count undecided


def test_sweep_cores_need_no_sturm_chain(monkeypatch):
    # one sign variation of core(x + 1) proves the one root above 1, so no
    # Salem core of the sweep range needs a subdivision
    def refuse(*args):
        raise AssertionError("one sign variation needs no subdivision")

    monkeypatch.setattr(spectra, "_isolate_largest", refuse)
    for family in ("pk", "biproj"):
        for k in range(2, 11):
            for n in range(1, 61):
                core = _core(family, k, n)
                if core is None:
                    continue
                assert sign_variations_above_one(core) == 1, (family, k, n)
                assert leading_salem_root(core, 64) is not None, (family, k, n)


def test_sign_variations_count_the_shifted_coefficients():
    # (x-2)(2x^2-3x+3) = 2x^3-7x^2+9x-6 and at x+1: 2x^3-x^2+x-2
    assert sign_variations_above_one(_product([-2, 1], [3, -3, 2])) == 3
    assert sign_variations_above_one(LEHMER) == 1
    assert sign_variations_above_one(cyclotomic(12)) == 0
    assert sign_variations_above_one(IntegerPolynomial([-1, 1])) == 0  # root 1


FALLBACK_INPUTS = [
    # one root above 1, but the complex pair 3/4 +- i sqrt(15)/4 adds two
    # sign variations
    pytest.param(_product([-2, 1], [3, -3, 2]), id="(x-2)(2x^2-3x+3)"),
] + [p for p in ORACLE_INPUTS if p.id in (
    "(x-4)(x^2-24)", "(x^2-8)(x^2-9)", "(2^100x-2^100-1)(2^100x-2^100-2)")]


@pytest.mark.parametrize("core", [p.values[0] for p in FALLBACK_INPUTS],
                         ids=[p.id for p in FALLBACK_INPUTS])
def test_undecided_variations_fall_back_to_sturm(core, monkeypatch):
    assert sign_variations_above_one(core) >= 2
    calls = []
    monkeypatch.setattr(spectra, "_isolate_largest",
                        lambda *args: calls.append(args) or _isolate_largest(*args))
    expected = all_chain_bisection(core, ALL_BITS)
    for bits in ALL_BITS:
        iso = leading_salem_root(core, bits)
        assert (iso.low, iso.high) == expected[bits], bits
    assert len(calls) == len(ALL_BITS)


@given(st.lists(st.one_of(linear, quadratic, above_one), min_size=1, max_size=5))
@settings(max_examples=60, deadline=None)
def test_sign_variations_bound_the_sturm_count(factors):
    poly = _product(*factors)
    variations = sign_variations_above_one(poly)
    count = count_real_roots(poly, Fraction(1), root_bound(poly))
    assert variations >= count
    if _squarefree_part(poly).degree == poly.degree:
        # a repeated root counts once here but twice for Descartes
        assert (variations - count) % 2 == 0
    if variations <= 1:
        # the interval Descartes subdivision isolates, when the count at
        # x + 1 is ignored
        with mock.patch.object(spectra, "sign_variations_above_one", lambda p: 2):
            expected = leading_salem_root(poly, 64)
        iso = leading_salem_root(poly, 64)
        assert (iso is None) == (expected is None) == (variations == 0)
        if iso is not None:
            assert (iso.low, iso.high) == (expected.low, expected.high)


# ---------------------------------------------------------------------------
# the guess in doubles: a certified cell without exact bisection, and the
# exact sequence whenever the guess is missing or wrong


def test_sweep_cores_isolate_delta_without_exact_bisection(monkeypatch):
    # the cell holding the Newton refinement of the guess in doubles is
    # certified at once: its two ends are the only exact signs taken
    def refuse(*args):
        raise AssertionError("the guessed cell was not certified")

    points = []
    sign_at = IntegerPolynomial.sign_at
    monkeypatch.setattr(spectra, "_sign_bisect", refuse)
    monkeypatch.setattr(IntegerPolynomial, "sign_at",
                        lambda self, x: points.append(x) or sign_at(self, x))
    for family in ("pk", "biproj"):
        for k in range(2, 11):
            for n in range(1, 61):
                core = _core(family, k, n)
                if core is None:
                    continue
                points.clear()
                iso = leading_salem_root(core)
                assert sorted(points) == [iso.low, iso.high], (family, k, n)


# sqrt 7 is the root above 1; the leading coefficient is no finite double
OVERFLOW_CORE = _product([-7, 0, 1], [1, 0, 2 ** 1100])


@pytest.mark.parametrize("bits", [64, 256])
def test_coefficients_beyond_doubles_fall_back_to_bisection(bits, monkeypatch):
    core = OVERFLOW_CORE
    assert spectra._float_guess(core.coeffs, Fraction(1), root_bound(core)) is None
    fallbacks = []
    bisect = spectra._sign_bisect
    monkeypatch.setattr(spectra, "_sign_bisect",
                        lambda *args: fallbacks.append(args[-1]) or bisect(*args))
    iso = leading_salem_root(core, bits)
    assert (iso.low, iso.high) == all_chain_bisection(core, (bits,))[bits]
    assert fallbacks


@pytest.mark.parametrize("point", [
    lambda lo, hi: lo, lambda lo, hi: hi, lambda lo, hi: Fraction(0),
], ids=["lo", "hi", "zero"])
@pytest.mark.parametrize("core, bits", [(LEHMER, 256), (("pk", 3, 20), 64),
                                        (("biproj", 2, 25), 512)],
                         ids=["lehmer-256", "pk-3-20-64", "biproj-2-25-512"])
def test_wrong_float_guess_falls_back_to_bisection(core, bits, point, monkeypatch):
    if isinstance(core, tuple):
        core = _core(*core)
    expected = all_chain_bisection(core, (bits,))[bits]
    fallbacks = []
    bisect = spectra._sign_bisect
    monkeypatch.setattr(spectra, "_float_guess",
                        lambda coeffs, lo, hi: point(lo, hi))
    monkeypatch.setattr(spectra, "_sign_bisect",
                        lambda *args: fallbacks.append(args[-1]) or bisect(*args))
    iso = leading_salem_root(core, bits)
    assert (iso.low, iso.high) == expected
    # Newton from these points stays far from the root within its few
    # steps, so no cell of the first try is certified
    assert fallbacks
