"""Characteristic polynomials of the map families, cyclotomic stripping and
Salem root isolation.

Every family's polynomial is one Coxeter polynomial E(p, q, r) of the
T-shaped diagram T(p, q, r) (``coxeter_polynomial``), from its closed form
of ten monomials over (x - 1)^3: ``char_poly_pk`` is (x - 1)^2 E(2, k+1, n-1),
the printed (x^{n+k}-1)(x^2-1) - x(x^{k+1}-1)(x^{n-1}-1) of the
projective-space family, ``char_poly_biproj`` is (x - 1) E(3, k+1, n-1), and
the lines family's field comes from E(m+1, k+1, n(k+1)).
``strip_cyclotomic`` removes every cyclotomic factor Phi_d with
phi(d) <= deg: an exact certificate, the value at x = 2^16 modulo the
integer Phi_d(2^16), rules out almost every d, and exact trial division
confirms the rest, leaving a Salem core (or a constant for the exceptional
parameter pairs); ``salem_factor`` is the one place that turns that core into
the Salem factor every caller uses.
Root isolation reports the interval that bisection of (1, B] ends in, in
three phases, all by Descartes' rule of signs and exact signs.  The sign
variations of p(x + 1) isolate the largest root when they prove that
(1, B] holds none or exactly one root, as they do for every pk and biproj
Salem core with k <= 10 and n <= 200; otherwise Descartes' rule on the
dyadic cells of (1, B] isolates it from the squarefree part (p divided by
its gcd with p').  A sign bisection in doubles and fixed-point Newton steps
then guess the dyadic cell of the final width that holds it, which is
accepted only on an exact certificate, the signs of the squarefree
polynomial at the cell's two ends; if no candidate cell is certified, the
exact sequence of sign bisection, Newton and certificate finishes.
Every decision is exact, so each reported root carries a certified
isolating interval.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from math import ceil, isfinite, isqrt, perm
from typing import Optional

from .arith import DEFAULT_PRECISION_BITS, BigFloat
from .polynomials import IntegerPolynomial

# Parameter pairs whose characteristic polynomial is purely cyclotomic,
# as listed in the source construction (finite part; n <= 3 resp. n <= 2
# always included).
GAMMA_PK_FINITE = {(2, 4), (2, 5), (2, 6), (2, 7), (3, 4), (3, 5), (4, 4), (5, 4)}
GAMMA_BIPROJ_FINITE = {(2, 3), (2, 4), (3, 3), (4, 3), (5, 3)}


def gamma_pk_lists(k: int, n: int) -> bool:
    """Literal membership of (k, n) in the published exceptional list (pk)."""
    return n <= 3 or (k, n) in GAMMA_PK_FINITE


def gamma_biproj_lists(k: int, n: int) -> bool:
    return n <= 2 or (k, n) in GAMMA_BIPROJ_FINITE


def _check_kn(k: int, n: int) -> None:
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")


def _tpqr(p: int, q: int, r: int, times: int) -> IntegerPolynomial:
    """(x - 1)^(3 - times) E for E the Coxeter polynomial of T(p, q, r).
    With s = p + q + r, (x - 1)^3 E is the ten monomials
    x^{s+1} - 2 x^s + 2 x - 1 + sum over a in (p, q, r) of (x^{s-a} - x^{a+1})
    (collected from (x + 1) prod_a (x^a - 1) - sum_a (x^a - x) prod_{b != a}
    (x^b - 1)); an arm may have length 0.  Each exact division by x - 1 is
    one pass of running sums from the top."""
    s = p + q + r
    coeffs = [0] * (s + 2)
    for e, c in ((s + 1, 1), (s, -2), (1, 2), (0, -1)):
        coeffs[e] += c
    for a in (p, q, r):
        coeffs[s - a] += 1
        coeffs[a + 1] -= 1
    for _ in range(times):
        coeffs = list(accumulate(coeffs[:0:-1]))[::-1]
    return IntegerPolynomial(coeffs)


def coxeter_polynomial(p: int, q: int, r: int) -> IntegerPolynomial:
    """det(xI - C) for C the Coxeter element of the T(p, q, r) diagram,
    arms of p - 1, q - 1 and r - 1 nodes at one branch node."""
    return _tpqr(p, q, r, 3)


def char_poly_pk(k: int, n: int) -> IntegerPolynomial:
    """(x - 1)^2 E(2, k+1, n-1), degree n+k+2: the printed
    (x^{n+k}-1)(x^2-1) - x(x^{k+1}-1)(x^{n-1}-1)."""
    _check_kn(k, n)
    return _tpqr(2, k + 1, n - 1, 1)


def char_poly_biproj(k: int, n: int) -> IntegerPolynomial:
    """(x - 1) E(3, k+1, n-1), degree n+k+2: the printed
    x^n (x^{k+2} - sum c_j x^j) + x^2 sum c_j x^j - 1, with
    c_0 = c_k = 1 and c_1 = ... = c_{k-1} = 2."""
    _check_kn(k, n)
    return _tpqr(3, k + 1, n - 1, 2)


# family -> (characteristic polynomial, membership in the published
# exceptional list)
FAMILY_POLYS = {
    "pk": (char_poly_pk, gamma_pk_lists),
    "biproj": (char_poly_biproj, gamma_biproj_lists),
}


def _mobius_divisors(d: int):
    """(r, [(e, mu(r/e)) for every e | r]) for r the product of the primes
    dividing d; then Phi_d(x) = prod over e | r of (x^(e d/r) - 1)^mu(r/e)."""
    signed, radical, rest, f = [(1, 1)], 1, d, 2
    while rest > 1:
        if f * f > rest:
            f = rest  # what is left is prime
        if rest % f == 0:
            signed = [(e, -mu) for e, mu in signed] + [(e * f, mu) for e, mu in signed]
            radical *= f
            while rest % f == 0:
                rest //= f
        f += 1
    return radical, signed


@lru_cache(maxsize=None)
def cyclotomic(d: int) -> IntegerPolynomial:
    """The d-th cyclotomic polynomial.

    Phi_d(x) = Phi_r(x^(d/r)) for r the product of the primes dividing d.
    For squarefree r > 1, Phi_r(x) is the product over e | r of
    (1 - x^e)^mu(r/e) (the signs of the binomials x^e - 1 cancel, since the
    mu(r/e) sum to 0), a power series with constant term 1 known from its
    first phi(r) + 1 coefficients: multiplying by 1 - x^e, or dividing by it
    exactly, is one pass over them."""
    if d < 1:
        raise ValueError("cyclotomic index must be positive")
    if d == 1:
        return IntegerPolynomial([-1, 1])
    radical, signed = _mobius_divisors(d)
    degree = sum(mu * e for e, mu in signed)  # phi(r)
    series = [1] + [0] * degree
    for e, mu in signed:
        if e > degree:
            continue  # 1 - x^e is 1 to this order
        if mu > 0:
            for i in range(degree, e - 1, -1):
                series[i] -= series[i - e]
        else:
            for i in range(e, degree + 1):
                series[i] += series[i - e]
    step = d // radical
    coeffs = [0] * (degree * step + 1)
    coeffs[::step] = series
    return IntegerPolynomial(coeffs)


@lru_cache(maxsize=None)
def _cyclotomic_indices(degree: int) -> tuple:
    """(d, phi(d)) for every d with phi(d) <= degree, ascending in d.

    phi is multiplicative and phi(p^a) = p^(a-1) (p - 1) >= p - 1, so each
    such d is a product of powers of primes p <= degree + 1.  The products
    are enumerated depth first over ascending primes, and a branch ends
    once its totient exceeds the degree, which a further factor cannot undo.
    """
    primes = [p for p in range(2, degree + 2)
              if all(p % r for r in range(2, isqrt(p) + 1))]
    found = []

    def extend(d, phi, start):
        found.append((d, phi))
        for i in range(start, len(primes)):
            p = primes[i]
            d_p, phi_p = d * p, phi * (p - 1)
            if phi_p > degree:
                break
            while phi_p <= degree:
                extend(d_p, phi_p, i + 1)
                d_p, phi_p = d_p * p, phi_p * p

    if degree > 0:
        extend(1, 1, 0)
    return tuple(sorted(found))


_POINT_BITS = 16  # the cyclotomic screen evaluates at the integer x = 2^16


@lru_cache(maxsize=None)
def _cyclotomic_value(d: int) -> int:
    """Phi_d(2^_POINT_BITS), an integer of about _POINT_BITS * phi(d) bits,
    from the Mobius product of the integers 2^(_POINT_BITS e d/r) - 1
    (``_mobius_divisors``) without building Phi_d."""
    radical, signed = _mobius_divisors(d)
    bits = _POINT_BITS * (d // radical)
    num = den = 1
    for e, mu in signed:
        if mu > 0:
            num *= (1 << bits * e) - 1
        else:
            den *= (1 << bits * e) - 1
    return num // den


def _derivative_at_point(coeffs, m: int) -> int:
    """p^(m)(2^_POINT_BITS) = sum of c_e e!/(e - m)! 2^(_POINT_BITS (e - m))
    for p = sum c_e x^e, an exact integer by Horner's rule in shifts."""
    acc = 0
    for e in range(len(coeffs) - 1, m - 1, -1):
        acc = (acc << _POINT_BITS) + coeffs[e] * perm(e, m)
    return acc


def strip_cyclotomic(p: IntegerPolynomial):
    """Split p = +-(core) * prod Phi_d^mult with a cyclotomic-free core.

    The candidates are the d with phi(d) <= deg p (``_cyclotomic_indices``),
    and each is screened by an exact modular certificate before any
    division.  Let a = 2^_POINT_BITS and q = Phi_d(a) (``_cyclotomic_value``),
    so that a is a root of Phi_d modulo q.  If Phi_d^(m+1) divides the core,
    it divides p, and every term of the m-th derivative p^(m) keeps a factor
    Phi_d: p^(m) = Phi_d h with h in Z[x], so p^(m)(a) = q h(a) = 0 mod q.
    A nonzero p^(m)(a) mod q therefore proves that the core has no further
    factor Phi_d, and d is done.  Each value p^(m)(a) is one exact integer,
    computed when some d first needs it and reduced modulo every q after.
    A zero residue proves nothing: exact trial division decides, so every
    reported factor is confirmed by division and the factor list
    reconstructs the input exactly.
    """
    if p.is_zero():
        raise ValueError("cannot strip the zero polynomial")
    core = p
    degree = p.degree
    values = []  # p^(m)(a) for m = 0, 1, ..., each once
    factors = []
    for d, phi in _cyclotomic_indices(degree):
        if degree == 0:
            break
        if phi > degree:
            continue
        q = _cyclotomic_value(d)
        mult = 0
        while True:
            if mult == len(values):
                values.append(_derivative_at_point(p.coeffs, mult))
            if values[mult] % q:
                break
            quot = core.try_divide(cyclotomic(d))
            if quot is None:
                break
            core, degree = quot, quot.degree
            mult += 1
        if mult:
            factors.append((d, mult))
    return factors, core


def salem_factor(p: IntegerPolynomial):
    """(cyclotomic factors, core with positive leading coefficient) from
    ``strip_cyclotomic``; the core is None when p is purely cyclotomic."""
    factors, core = strip_cyclotomic(p)
    if core.degree == 0:
        return factors, None
    return factors, core if core.leading() > 0 else -core


# ---------------------------------------------------------------------------
# root isolation: Descartes' rule of signs, on p(x + 1) and on dyadic cells


def _squarefree_part(p: IntegerPolynomial) -> IntegerPolynomial:
    """p / gcd(p, p'), primitive with a positive leading coefficient; p
    itself when it is squarefree."""
    g = p.gcd(p.derivative())
    if g.degree < 1:
        return p
    quot, _ = p.divmod_exact(g)
    return quot.primitive()


def root_bound(p: IntegerPolynomial) -> Fraction:
    """Cauchy bound: all roots have modulus < 1 + max|a_i| / |a_n|."""
    lead = abs(p.leading())
    return 1 + Fraction(max(abs(c) for c in p.coeffs), lead)


@dataclass
class IsolatedRoot:
    low: Fraction
    high: Fraction
    value: BigFloat

    @property
    def width(self) -> Fraction:
        return self.high - self.low


def _halvings(width: Fraction, bits: int) -> int:
    """The least m >= 0 with width / 2^m < 2^-bits, from bit lengths."""
    scaled = width.numerator << bits
    den = width.denominator
    if den > scaled:
        return 0
    m = scaled.bit_length() - den.bit_length()
    return m if den << m > scaled else m + 1


def _sign_bisect(squarefree, lo, hi, steps):
    """``steps`` halvings of (lo, hi], keeping the half that holds the one
    simple root r: r > mid iff r = hi or p changes sign across (mid, hi)."""
    s_hi = squarefree.sign_at(hi)
    for _ in range(steps):
        mid = (lo + hi) / 2
        s_mid = squarefree.sign_at(mid)
        if s_mid != 0 and (s_hi == 0 or s_mid != s_hi):
            lo = mid
        else:
            hi, s_hi = mid, s_mid
    return lo, hi


def _newton(coeffs, x: Fraction, bits: int):
    """Approximation X / 2^P of the simple root near x, by one Newton step
    in fixed-point integers at each of a doubling sequence of precisions P,
    up to ``bits`` plus the bits Horner's rule loses at x.  A guess only:
    the caller trusts no cell without an exact sign certificate."""
    deg = len(coeffs) - 1
    # Horner at x loses up to log2((deg + 1) max(1, |x|)^deg) bits
    magnitude = (abs(x.numerator) // x.denominator).bit_length()
    guard = 16 + (deg + 1).bit_length() + deg * magnitude
    # each step roughly doubles the correct bits; 16 spare bits a level
    # absorb the constant |p''/2p'| of that doubling
    precisions = [bits + guard]
    while precisions[-1] > 48:
        precisions.append(precisions[-1] // 2 + 16)
    prev = precisions[-1]
    big = (x.numerator << prev) // x.denominator
    for prec in reversed(precisions):
        big <<= prec - prev
        prev = prec
        value, slope = coeffs[-1] << prec, 0
        for c in reversed(coeffs[:-1]):
            slope = (slope * big >> prec) + value
            value = (value * big >> prec) + (c << prec)
        if slope == 0:
            break
        big -= (value << prec) // slope
    return Fraction(big, 1 << prev)


def _certified_cell(squarefree, lo: Fraction, width: Fraction, guess: Fraction,
                    cells: int):
    """The cell (lo + j w, lo + (j + 1) w] holding the one root of the
    squarefree polynomial in (lo, lo + cells w], tried at the cell of the
    guess and its two neighbours; None if none of them is certified.

    A cell is certified when p(c_hi) = 0, or when p(c_lo) != 0 and the signs
    at its ends differ: both say the root of (lo, lo + cells w] is in it.
    """
    j = min(max(ceil((guess - lo) / width) - 1, 0), cells - 1)
    signs = {}

    def sign(i):
        if i not in signs:
            signs[i] = squarefree.sign_at(lo + i * width)
        return signs[i]

    for cell in (j, j - 1, j + 1):
        if 0 <= cell < cells:
            s_lo, s_hi = sign(cell), sign(cell + 1)
            if s_hi == 0 or (s_lo != 0 and s_lo != s_hi):
                return lo + cell * width, lo + (cell + 1) * width
    return None


def _float_guess(coeffs, lo: Fraction, hi: Fraction):
    """A point near the one simple root in (lo, hi], 1 <= lo, by the
    halvings of ``_sign_bisect`` in doubles until they stop moving; None
    when a coefficient or an end of the interval is not a finite double.
    The sign of p(x) for x >= 1 is that of the reversed polynomial
    sum c_i y^(d - i) at y = 1/x, which is p(x) / x^d and stays within
    sum |c_i|, so its Horner sums cannot overflow.  A guess only: rounding
    can flip a sign near the root, and the caller trusts no cell without an
    exact certificate."""
    try:
        floats = [float(c) for c in coeffs]
        a, b = float(lo), float(hi)
    except OverflowError:
        return None
    if not isfinite(sum(map(abs, floats))):
        return None

    def sign(x):
        y, acc = 1 / x, 0.0
        for c in floats:
            acc = acc * y + c
        return (acc > 0) - (acc < 0)

    s_b = sign(b)
    mid = (a + b) / 2
    while a < mid < b:
        s_mid = sign(mid)
        if s_mid != 0 and (s_b == 0 or s_mid != s_b):
            a = mid
        else:
            b, s_b = mid, s_mid
        mid = (a + b) / 2
    return Fraction(mid)


def _shift_by_one(coeffs) -> list:
    """The coefficients of p(x + 1) from those of p, both leading one
    first: d passes of running sums, O(d^2) integer additions."""
    shifted = list(coeffs)
    for end in range(len(shifted), 1, -1):
        shifted[:end] = accumulate(shifted[:end])
    return shifted


def _variations(coeffs) -> int:
    signs = [c > 0 for c in coeffs if c]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def sign_variations_above_one(p: IntegerPolynomial) -> int:
    """Sign variations V of the coefficients of p(x + 1).

    By Descartes' rule of signs V bounds the number of roots of p in
    (1, oo), counted with multiplicity, and exceeds it by an even number:
    V = 0 proves there is none and V = 1 that there is exactly one, and
    that it is simple."""
    return _variations(_shift_by_one(p.coeffs[::-1]))


def _isolate_largest(p: IntegerPolynomial, bound: Fraction):
    """The cell (lo, hi] of the dyadic subdivision of (1, bound] that holds
    the largest root of the squarefree p and no other root, or None when
    (1, bound] holds no root.

    Collins and Akritas' bisection by Descartes' rule of signs.  A cell of
    width w carries an integer polynomial q(y) whose roots in (0, 1) are
    p's roots in the open cell, p(lo + w y) up to a positive factor (the
    lists hold coefficients leading one first).  Its halves carry
    2^d q(y / 2) and that polynomial shifted by 1, and the sign variations
    of the reversed q shifted by 1 bound its roots in (0, 1) as
    ``sign_variations_above_one`` bounds them in (1, oo).  The right half
    is searched first, so the first root met is the largest.  q(1) = 0 puts
    it at the cell's right end, and the cell holds it alone once its open
    interior counts 0; otherwise it holds it alone when the interior counts
    1.  Squarefree p ends the search: a small enough cell counts its roots
    exactly."""
    width = bound - 1
    num, den = width.numerator, width.denominator
    d = p.degree
    shifted = _shift_by_one(p.coeffs[::-1])  # p(1 + x)
    q = [c * num ** (d - j) * den ** j for j, c in enumerate(shifted)]
    cells = [(0, 0, q)]  # (depth, index, q): lo = 1 + index width / 2^depth
    while cells:
        depth, index, q = cells.pop()
        at_end = not sum(q)  # q(1) = 0
        count = _variations(_shift_by_one(q[::-1]))
        if count == (0 if at_end else 1):
            step = width / (1 << depth)
            return 1 + index * step, 1 + (index + 1) * step
        if count:
            half = [c << j for j, c in enumerate(q)]
            cells.append((depth + 1, 2 * index, half))
            cells.append((depth + 1, 2 * index + 1, _shift_by_one(half)))
    return None


def leading_salem_root(
    core: IntegerPolynomial, precision_bits: int = DEFAULT_PRECISION_BITS
) -> Optional[IsolatedRoot]:
    """Certified isolating interval for the largest real root > 1, if any.

    The interval is the cell of the bisection of (1, B] that holds the
    largest root: the first one narrower than 2^-precision_bits that lies
    in a cell Descartes' rule proves to hold that root alone.  On every
    input tested it is the cell that Sturm counts at every step give; it
    can only be deeper, where complex roots near the real axis keep
    Descartes' rule undecided below that width.  It is found in three
    phases.  First the largest root is isolated.  Descartes' rule on
    core(x + 1) (``sign_variations_above_one``) settles the common cases at
    once: no sign variation proves that (1, B] holds no root, and one
    variation that it holds exactly one, simple root.  Any other count
    decides nothing, and ``_isolate_largest`` subdivides (1, B] by
    Descartes' rule on the squarefree part until one cell holds the largest
    root alone.  The halvings left to make are then counted, and the dyadic
    cells of (lo, hi] of the final width are indexed.  A sign bisection in
    doubles (``_float_guess``) and fixed-point Newton steps guess the root,
    and the cell holding the guess (or a neighbour) is accepted on an exact
    certificate, the signs of the squarefree polynomial at its two ends; the
    cell's index is computed from the guess, so the cells are never listed.
    When the coefficients are not finite doubles, or no candidate is
    certified, exact sign bisection (``_sign_bisect``) makes every halving
    left; it ends on the same cell, the one cell of the final width that
    holds the root.  Floats only propose a cell; every decision is exact.
    Returns None when the core has no real root exceeding 1.
    """
    if core.degree < 1:
        return None
    lo, hi = Fraction(1), root_bound(core)
    variations = sign_variations_above_one(core)
    if variations == 0:
        return None
    if variations == 1:
        # the core's repeated factors have no root in (1, B] and none at 1
        # that its squarefree part lacks, so on [1, B] the core's signs are
        # the squarefree part's up to one constant sign: they make the same
        # decisions
        squarefree = core
    else:
        squarefree = _squarefree_part(core)
        cell = _isolate_largest(squarefree, hi)
        if cell is None:
            return None
        lo, hi = cell
    # one simple root in (lo, hi], which bisection would halve `halvings`
    # more times: the cell of that final width holding a guess from doubles
    # is tried first, and exact bisection runs when it is not certified
    halvings = _halvings(hi - lo, precision_bits)
    if halvings:
        guess = _float_guess(squarefree.coeffs, lo, hi)
        cell = None if guess is None else _certified_cell(
            squarefree, lo, (hi - lo) / (1 << halvings),
            _newton(squarefree.coeffs, guess, precision_bits), 1 << halvings)
        lo, hi = cell or _sign_bisect(squarefree, lo, hi, halvings)
    guard = precision_bits + 16
    midf = (BigFloat(lo, guard) + BigFloat(hi, guard)) / 2
    return IsolatedRoot(lo, hi, BigFloat(midf, precision_bits))


# ---------------------------------------------------------------------------


@dataclass
class SpectralReport:
    family: str
    k: int
    n: int
    full_poly: IntegerPolynomial
    cyclotomic_factors: list
    salem_factor: Optional[IntegerPolynomial]
    delta: Optional[IsolatedRoot]
    exceptional: bool
    literal_gamma_member: bool = False
    gamma_agrees: bool = True
    notes: list = field(default_factory=list)


def spectral_report(
    family: str, k: int, n: int, precision_bits: int = DEFAULT_PRECISION_BITS
) -> SpectralReport:
    """Full spectral pipeline for one (family, k, n) cell."""
    if family not in FAMILY_POLYS:
        raise ValueError(f"unknown family {family!r}")
    char_poly, listed = FAMILY_POLYS[family]
    poly = char_poly(k, n)
    literal = listed(k, n)
    factors, salem = salem_factor(poly)
    exceptional = salem is None
    delta = None
    notes = []
    if not exceptional:
        delta = leading_salem_root(salem, precision_bits)
        if delta is None:
            notes.append("nonconstant core without real root > 1")
    agrees = literal == exceptional
    if not agrees:
        notes.append(
            f"published exceptional list {'contains' if literal else 'omits'} "
            f"({k},{n}) but computation says "
            f"{'exceptional' if exceptional else 'non-exceptional'}"
        )
    return SpectralReport(
        family=family,
        k=k,
        n=n,
        full_poly=poly,
        cyclotomic_factors=factors,
        salem_factor=salem,
        delta=delta,
        exceptional=exceptional,
        literal_gamma_member=literal,
        gamma_agrees=agrees,
        notes=notes,
    )
