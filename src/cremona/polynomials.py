"""Dense univariate polynomials with exact integer coefficients.

Coefficient lists are indexed by degree (coeffs[i] is the coefficient of x^i).
``IntegerPolynomial`` is the workhorse for characteristic polynomials and
cyclotomic factors; its ``gcd`` in Z[x] gives the squarefree part of a
characteristic polynomial and the factor a number-field zero divisor shares
with its modulus.  ``_convolve`` is the one schoolbook product kernel: the
polynomial product here and the number-field product in ``arith`` both
call it.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Iterable, Sequence


def trim(coeffs: Sequence) -> tuple:
    """Drop trailing zeros so the highest-index coefficient is nonzero."""
    n = len(coeffs)
    while n > 0 and coeffs[n - 1] == 0:
        n -= 1
    return tuple(coeffs[:n])


def _convolve(a, b, out=None, scale=1) -> list:
    """The coefficients of a(x) b(x), each times ``scale``, added into
    ``out`` (a new list when None); a and b are nonempty."""
    if out is None:
        out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            ai *= scale
            for j, bj in enumerate(b, i):
                out[j] += ai * bj
    return out


class IntegerPolynomial:
    """Univariate polynomial with exact integer coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int]):
        cs = [int(c) for c in coeffs]
        self.coeffs = trim(cs)

    @classmethod
    def monomial(cls, degree: int, coeff: int = 1) -> "IntegerPolynomial":
        return cls([0] * degree + [coeff])

    @classmethod
    def one(cls) -> "IntegerPolynomial":
        return cls([1])

    @property
    def degree(self) -> int:
        """Degree, with the convention deg 0 = -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def leading(self) -> int:
        return self.coeffs[-1] if self.coeffs else 0

    def __eq__(self, other) -> bool:
        return isinstance(other, IntegerPolynomial) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __neg__(self) -> "IntegerPolynomial":
        return IntegerPolynomial([-c for c in self.coeffs])

    def __add__(self, other: "IntegerPolynomial") -> "IntegerPolynomial":
        a, b = self.coeffs, other.coeffs
        n = max(len(a), len(b))
        return IntegerPolynomial(
            [(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n)]
        )

    def __sub__(self, other: "IntegerPolynomial") -> "IntegerPolynomial":
        return self + (-other)

    def __mul__(self, other) -> "IntegerPolynomial":
        if isinstance(other, int):
            return IntegerPolynomial([c * other for c in self.coeffs])
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return IntegerPolynomial([])
        return IntegerPolynomial(_convolve(a, b))

    __rmul__ = __mul__

    def divmod_exact(self, divisor: "IntegerPolynomial"):
        """Quotient and remainder when the divisor's leading coefficient divides
        every intermediate leading term; returns None if division leaves Z[x]."""
        if divisor.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        rem = list(self.coeffs)
        d = divisor.degree
        lead = divisor.leading()
        if len(rem) - 1 < d:
            return IntegerPolynomial([]), IntegerPolynomial(rem)
        quot = [0] * (len(rem) - d)
        for i in range(len(rem) - 1, d - 1, -1):
            if rem[i] == 0:
                continue
            if rem[i] % lead != 0:
                return None
            q = rem[i] // lead
            quot[i - d] = q
            for j, c in enumerate(divisor.coeffs):
                rem[i - d + j] -= q * c
        return IntegerPolynomial(quot), IntegerPolynomial(rem)

    def try_divide(self, divisor: "IntegerPolynomial"):
        """Exact quotient self / divisor in Z[x], or None if it does not divide."""
        res = self.divmod_exact(divisor)
        if res is None:
            return None
        quot, rem = res
        return quot if rem.is_zero() else None

    def __call__(self, x):
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def sign_at(self, x: Fraction) -> int:
        """Sign of the value at a rational point, computed in integers.

        Homogeneous Horner: sum c_i p^i q^(n-1-i) has the sign of the value
        at p/q, and the power of q is carried along instead of recomputed;
        when q = 2^m, as at every certificate point of a monic core, its
        powers are shifts.
        """
        p, q = x.numerator, x.denominator
        coeffs = self.coeffs
        acc = coeffs[-1] if coeffs else 0
        if q & (q - 1):
            q_pow = 1
            for c in reversed(coeffs[:-1]):
                q_pow *= q
                acc = acc * p + c * q_pow
        else:
            m, shift = q.bit_length() - 1, 0
            for c in reversed(coeffs[:-1]):
                shift += m
                acc = acc * p + (c << shift)
        return (acc > 0) - (acc < 0)

    def derivative(self) -> "IntegerPolynomial":
        return IntegerPolynomial([i * c for i, c in enumerate(self.coeffs)][1:])

    def is_reciprocal(self) -> bool:
        """Palindromic coefficient test (x^deg * p(1/x) == p)."""
        return self.coeffs == self.coeffs[::-1] and not self.is_zero()

    def content(self) -> int:
        g = 0
        for c in self.coeffs:
            g = gcd(g, c)
        return g

    def primitive(self) -> "IntegerPolynomial":
        """The polynomial divided by its content and made to lead with a
        positive coefficient; the zero polynomial stays zero."""
        g = self.content()
        if self.leading() < 0:
            g = -g
        if g in (0, 1):
            return self
        return IntegerPolynomial([c // g for c in self.coeffs])

    def gcd(self, other: "IntegerPolynomial") -> "IntegerPolynomial":
        """Greatest common divisor in Z[x], with a positive leading coefficient.

        The gcd of the contents times the last nonzero term of the primitive
        pseudo-remainder sequence of the primitive parts: a remainder of
        a lead(b)^(deg a - deg b + 1) by b lies in Z[x], and dividing each by
        its content keeps the coefficients from growing.  By Gauss's lemma
        the gcd of primitive polynomials is primitive, so no content is lost.
        """
        a, b = self.primitive(), other.primitive()
        if a.degree < b.degree:
            a, b = b, a
        while not b.is_zero():
            scaled = a * abs(b.leading()) ** (a.degree - b.degree + 1)
            _, rem = scaled.divmod_exact(b)
            a, b = b, rem.primitive()
        return a * gcd(self.content(), other.content())

    def to_rational(self) -> tuple:
        return tuple(Fraction(c) for c in self.coeffs)

    def __repr__(self):
        return f"IntegerPolynomial({list(self.coeffs)})"
