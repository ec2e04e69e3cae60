"""Scalar backends: exact arithmetic in Q[x]/(S(x)) and big-float numerics.

The number-field side models Q(delta) for a monic integer modulus S of degree
d.  An element is stored as FLINT/Antic's ``nf_elem`` stores it: integer
numerator coefficients of degree < d over one positive common denominator,
in lowest terms, so that equal elements have equal representations.
Multiplication is an integer convolution followed by reduction modulo S,
which needs no division because S is monic; addition cross-multiplies the
denominators.  Inversion is fraction-free: Bareiss elimination solves the
integer system "numerator times u = 1 modulo S".  A singular system means a
nontrivial gcd with the modulus, which is surfaced as a ``ZeroDivisorError``
carrying that factor, since it certifies that the claimed Salem factor is
reducible.

Heights are controlled where orbits are iterated: ``normalize`` scales an
exact point with an irrational coordinate to a unit leading coordinate, so
the coefficients of an orbit point depend on the point alone and do not grow
with the number of steps.

The float side is a thin wrapper over mpmath carrying an explicit bit
precision; mixed-precision operations carry the max precision of the operands.

The scalar protocol at the end of the module (``is_exact``, ``is_zero``,
``one_like``, ``inverse``, ``embed``, ``gap``/``close`` and the vector
rescalings ``normalize``/``align``) is the one place that tells exact scalars
from floats; everything else calls it or the overloaded operators.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

import mpmath

from .polynomials import IntegerPolynomial, rat_gcd_monic

DEFAULT_PRECISION_BITS = 256


class ArithmeticError_(Exception):
    pass


class ZeroDivisorError(ArithmeticError_):
    """Inversion hit a zero divisor; ``factor`` is a nontrivial factor of the
    modulus found along the way."""

    def __init__(self, factor):
        self.factor = factor
        super().__init__(f"zero divisor modulo reducible modulus; factor {factor}")


class InconsistentEmbeddingError(ArithmeticError_):
    pass


class NumberField:
    """The quotient field Q[x]/(S(x)) for a monic integer polynomial S."""

    def __init__(self, modulus: IntegerPolynomial):
        if modulus.degree < 1:
            raise ValueError("modulus must be nonconstant")
        if not modulus.is_monic():
            raise ValueError("modulus must be monic")
        self.modulus = modulus
        # x^d = -(s_0 + s_1 x + ... + s_{d-1} x^{d-1}) modulo S; only the
        # nonzero s_j take part in a reduction
        self._tail = tuple((j, c) for j, c in enumerate(modulus.coeffs[:-1]) if c)

    @property
    def degree(self) -> int:
        return self.modulus.degree

    def element(self, coeffs) -> "NumberFieldElement":
        """Element from rational coefficients (reduced modulo S)."""
        fracs = [Fraction(c) for c in coeffs]
        den = lcm(*(f.denominator for f in fracs))
        return self._element([f.numerator * (den // f.denominator) for f in fracs], den)

    def _element(self, num: list, den: int) -> "NumberFieldElement":
        """The element num(x) / den for integers num (consumed) and den > 0:
        num is reduced modulo S, which needs no division since S is monic,
        and the fraction is put in lowest terms."""
        d = self.degree
        for i in range(len(num) - 1, d - 1, -1):
            c = num[i]
            if c:
                base = i - d
                for j, s in self._tail:
                    num[base + j] -= c * s
        del num[d:]
        while num and not num[-1]:
            num.pop()
        if not num:
            return NumberFieldElement(self, (), 1)
        g = gcd(den, *num)
        if g != 1:
            num = [c // g for c in num]
            den //= g
        return NumberFieldElement(self, tuple(num), den)

    def gen(self) -> "NumberFieldElement":
        """The residue class of x, i.e. the root delta itself."""
        return self.element([0, 1])

    def zero(self) -> "NumberFieldElement":
        return NumberFieldElement(self, (), 1)

    def one(self) -> "NumberFieldElement":
        return NumberFieldElement(self, (1,), 1)

    def __eq__(self, other):
        return isinstance(other, NumberField) and self.modulus == other.modulus

    def __hash__(self):
        return hash(self.modulus)

    def __repr__(self):
        return f"NumberField({self.modulus})"


class NumberFieldElement:
    """num(x) / den in Q[x]/(S); immutable and canonical: num is a tuple of
    integers, constant term first, of degree < deg S with a nonzero last
    entry (empty for zero), den > 0, and gcd(den, *num) = 1, so equal
    elements have equal (num, den)."""

    __slots__ = ("field", "num", "den")

    def __init__(self, field: NumberField, num: tuple, den: int):
        self.field = field
        self.num = num
        self.den = den

    @property
    def modulus(self) -> IntegerPolynomial:
        return self.field.modulus

    @property
    def residue(self) -> tuple:
        """The rational coefficients num[i] / den, constant term first."""
        return tuple(Fraction(c, self.den) for c in self.num)

    def is_zero(self) -> bool:
        return not self.num

    def is_rational(self) -> bool:
        return len(self.num) <= 1

    def as_rational(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self} is not rational")
        return Fraction(self.num[0], self.den) if self.num else Fraction(0)

    def _coerce(self, other):
        if isinstance(other, NumberFieldElement):
            if other.field != self.field:
                raise ValueError("mixed number fields")
            return other
        if isinstance(other, (int, Fraction)):
            q = Fraction(other)
            return NumberFieldElement(
                self.field, (q.numerator,) if q else (), q.denominator
            )
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        a, b, den = self.num, o.num, self.den
        if o.den != den:
            a = [c * o.den for c in a]
            b = [c * den for c in b]
            den *= o.den
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return self.field._element(out, den)

    __radd__ = __add__

    def __neg__(self):
        return NumberFieldElement(self.field, tuple(-c for c in self.num), self.den)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        a, b = self.num, o.num
        if not a or not b:
            return self.field.zero()
        out = [0] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b, i):
                    out[j] += ai * bj
        return self.field._element(out, self.den * o.den)

    __rmul__ = __mul__

    def inverse(self) -> "NumberFieldElement":
        return nf_invert(self)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return self * nf_invert(o)

    def __rtruediv__(self, other):
        return self.field.element([other]) * nf_invert(self)

    def __pow__(self, exp: int):
        if exp < 0:
            return nf_invert(self) ** (-exp)
        result = self.field.one()
        base = self
        while exp:
            if exp & 1:
                result = result * base
            base = base * base
            exp >>= 1
        return result

    def __eq__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self.num == o.num and self.den == o.den

    def __hash__(self):
        # a rational element equals its Fraction, so it must hash like it
        if self.is_rational():
            return hash(self.as_rational())
        return hash((self.field.modulus, self.num, self.den))

    def __bool__(self):
        return not self.is_zero()

    def __repr__(self):
        return f"NFE({list(self.residue)} mod {self.modulus})"


def nf_invert(a: NumberFieldElement) -> NumberFieldElement:
    """1 / a, fraction-free: Bareiss elimination solves M u = e_0 over the
    integers, M being the matrix of multiplication by a's numerator modulo S
    (column j holds num(x) x^j mod S); then 1/a = den u(x).  A singular M
    means num shares a factor with S, which is raised."""
    if a.is_zero():
        raise ZeroDivisionError("inverse of zero in number field")
    field, num, den = a.field, a.num, a.den
    if len(num) == 1:
        c = num[0]
        return NumberFieldElement(field, (den if c > 0 else -den,), abs(c))
    d = field.degree
    cols = [list(num) + [0] * (d - len(num))]
    for _ in range(d - 1):
        nxt = field._element([0] + cols[-1], 1)
        cols.append(list(nxt.num) + [0] * (d - len(nxt.num)))
    rows = [[col[i] for col in cols] + [int(i == 0)] for i in range(d)]
    prev = 1
    for k in range(d):
        piv = next((r for r in range(k, d) if rows[r][k]), None)
        if piv is None:
            # gcd(num, S) is nonconstant: S is reducible and it is a witness
            modulus = field.modulus.to_rational()
            raise ZeroDivisorError(rat_gcd_monic(a.residue, modulus))
        rows[k], rows[piv] = rows[piv], rows[k]
        top = rows[k]
        p = top[k]
        for r in range(k + 1, d):
            row = rows[r]
            f = row[k]
            row[k + 1:] = [
                (p * x - f * y) // prev for x, y in zip(row[k + 1:], top[k + 1:])
            ]
        prev = p
    # back substitution for y = det u, which Cramer's rule makes integral
    det = prev
    y = [0] * d
    for i in range(d - 1, -1, -1):
        row = rows[i]
        acc = det * row[d] - sum(row[j] * y[j] for j in range(i + 1, d))
        y[i] = acc // row[i]
    if det < 0:
        det, den = -det, -den
    return field._element([den * c for c in y], det)


class BigFloat:
    """Arbitrary-precision real/complex value with explicit bit precision."""

    __slots__ = ("value", "precision_bits")

    def __init__(self, value, precision_bits: int = DEFAULT_PRECISION_BITS):
        if precision_bits < 64:
            raise ValueError("precision_bits must be >= 64")
        self.precision_bits = precision_bits
        with mpmath.workprec(precision_bits):
            if isinstance(value, BigFloat):
                value = value.value
            if isinstance(value, Fraction):
                self.value = mpmath.mpf(value.numerator) / value.denominator
            elif isinstance(value, complex):
                self.value = mpmath.mpc(value)
            else:
                self.value = mpmath.mpf(value) if not isinstance(
                    value, (mpmath.mpf, mpmath.mpc)
                ) else value

    def _binop(self, other, op):
        if isinstance(other, BigFloat):
            prec = max(self.precision_bits, other.precision_bits)
            ov = other.value
        elif isinstance(other, (int, float, Fraction)):
            prec = self.precision_bits
            ov = BigFloat(other, prec).value
        else:
            return NotImplemented
        with mpmath.workprec(prec):
            return BigFloat(op(self.value, ov), prec)

    def __add__(self, other):
        return self._binop(other, lambda a, b: a + b)

    __radd__ = __add__

    def __sub__(self, other):
        return self._binop(other, lambda a, b: a - b)

    def __rsub__(self, other):
        return self._binop(other, lambda a, b: b - a)

    def __mul__(self, other):
        return self._binop(other, lambda a, b: a * b)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self._binop(other, lambda a, b: a / b)

    def __rtruediv__(self, other):
        return self._binop(other, lambda a, b: b / a)

    def __neg__(self):
        return BigFloat(-self.value, self.precision_bits)

    def __pow__(self, exp: int):
        with mpmath.workprec(self.precision_bits):
            return BigFloat(self.value ** exp, self.precision_bits)

    def __abs__(self):
        with mpmath.workprec(self.precision_bits):
            return BigFloat(abs(self.value), self.precision_bits)

    def __float__(self):
        return float(self.value)

    def __repr__(self):
        return f"BigFloat({self.value}, bits={self.precision_bits})"

    def __eq__(self, other):
        if isinstance(other, BigFloat):
            return self.value == other.value
        if isinstance(other, (int, float, Fraction)):
            return self.value == BigFloat(other, self.precision_bits).value
        return NotImplemented

    def __lt__(self, other):
        ov = other.value if isinstance(other, BigFloat) else other
        return self.value < ov

    def __le__(self, other):
        ov = other.value if isinstance(other, BigFloat) else other
        return self.value <= ov

    def __hash__(self):
        return hash(self.value)


@lru_cache(maxsize=64)
def _check_root(modulus: IntegerPolynomial, value, prec: int) -> None:
    """Raise ``InconsistentEmbeddingError`` unless ``value`` solves the
    modulus at ``prec`` bits.  Only a passing check is remembered, so each
    (modulus, root) pair is evaluated once and a bad root raises every time."""
    with mpmath.workprec(prec):
        mod_val = modulus(value)
        # scale-aware tolerance: Horner on a degree-d poly loses O(d) bits
        scale = max(1, max(abs(c) for c in modulus.coeffs)) * max(
            1, abs(value)
        ) ** max(1, modulus.degree)
        tol = mpmath.mpf(2) ** (-(prec - 16))
        if abs(mod_val) > scale * tol:
            raise InconsistentEmbeddingError(
                f"claimed root is off by {mod_val} at {prec} bits"
            )


def nf_embed(a: NumberFieldElement, root: BigFloat) -> BigFloat:
    """Evaluate the residue at a numerical root of the modulus.

    ``root`` must actually solve the modulus at its stated precision; this is
    checked once per (modulus, root) and violations raise
    ``InconsistentEmbeddingError``.
    """
    prec = root.precision_bits
    _check_root(a.modulus, root.value, prec)
    with mpmath.workprec(prec):
        acc = mpmath.mpf(0)
        for c in reversed(a.residue):
            acc = acc * root.value + mpmath.mpf(c.numerator) / c.denominator
    return BigFloat(acc, prec)


# ---------------------------------------------------------------------------
# the scalar protocol
#
# Exact scalars (int, Fraction, NumberFieldElement) are compared by equality.
# A BigFloat of precision p counts as zero below 2^-max(48, p-16), and two
# scalars agree when they differ by at most 2^-(p//2) relative to
# max(|a|, |b|, 1), p being the larger precision of the two.


def is_exact(x) -> bool:
    return isinstance(x, (int, Fraction, NumberFieldElement))


def is_zero(x) -> bool:
    if isinstance(x, BigFloat):
        return abs(x.value) <= mpmath.ldexp(1, -max(48, x.precision_bits - 16))
    return not x


def one_like(x):
    """The unit of x's kind: 1 in x's number field, a BigFloat 1 at x's
    precision, or Fraction(1)."""
    if isinstance(x, NumberFieldElement):
        return x.field.one()
    if isinstance(x, BigFloat):
        return BigFloat(1, x.precision_bits)
    return Fraction(1)


def inverse(x):
    """1 / x, exact for exact x (an int inverts to a Fraction)."""
    if isinstance(x, NumberFieldElement):
        return nf_invert(x)
    return one_like(x) / x


def embed(x, root: BigFloat | None):
    """x as a scalar of the backend that ``root`` stands for: x itself when
    root is None (the exact backend), else x evaluated at the numerical
    root of its field's modulus."""
    if root is None:
        return x
    if isinstance(x, NumberFieldElement):
        return nf_embed(x, root)
    return BigFloat(x, root.precision_bits)


def _precision(xs) -> int:
    return max([x.precision_bits for x in xs if isinstance(x, BigFloat)] + [53])


def _mpf(x):
    if isinstance(x, BigFloat):
        return x.value
    if isinstance(x, Fraction):
        return mpmath.mpf(x.numerator) / x.denominator
    return mpmath.mpf(x)


def gap(a, b):
    """How far apart two scalars are: 0 or 1 when both are exact, else
    |a - b| / max(|a|, |b|, 1) as a BigFloat."""
    if is_exact(a) and is_exact(b):
        return int(a != b)
    prec = _precision((a, b))
    with mpmath.workprec(prec):
        av, bv = _mpf(a), _mpf(b)
        return BigFloat(abs(av - bv) / max(abs(av), abs(bv), 1), prec)


def close(a, b) -> bool:
    """Whether two scalars agree: exactly, or for floats within the
    tolerance their precision allows."""
    if is_exact(a) and is_exact(b):
        return a == b
    g = gap(a, b)
    return g.value <= mpmath.ldexp(1, -(g.precision_bits // 2))


def _unit(coords, prec: int) -> list:
    """Float entries divided by the entry of largest modulus, at ``prec``."""
    with mpmath.workprec(prec):
        vals = [_mpf(c) for c in coords]
        top = max(vals, key=abs)
        return [BigFloat(v / top, prec) for v in vals]


def normalize(coords) -> tuple:
    """A coordinate vector rescaled to a canonical representative that keeps
    its entries small, or returned unchanged when it already is one.

    An exact vector with an irrational number-field entry is divided by its
    first nonzero entry (one field inversion), so that entry becomes 1: the
    representative then depends only on the projective point, and the
    heights of an orbit's points stay bounded instead of growing with each
    step.  An exact vector of rationals is divided by its rational content
    (gcd of the numerators over lcm of the denominators).  A float vector is
    divided by its entry of largest modulus."""
    if not all(map(is_exact, coords)):
        return tuple(_unit(coords, _precision(coords)))
    if any(isinstance(c, NumberFieldElement) and not c.is_rational() for c in coords):
        lead = next(c for c in coords if c)
        if lead == 1:
            return coords
        scale = inverse(lead)
        return tuple(c * scale for c in coords)
    rats = [c.as_rational() if isinstance(c, NumberFieldElement) else Fraction(c)
            for c in coords]
    content = Fraction(gcd(*(r.numerator for r in rats)) or 1,
                       lcm(*(r.denominator for r in rats)))
    if content == 1:
        return coords
    scale = 1 / content
    return tuple(c * scale for c in coords)


def align(a, b):
    """Two coordinate vectors rescaled so that they agree entry by entry
    exactly when they are the same projective point (float vectors: up to
    sign).  Exact vectors are cross-multiplied by each other's entry at a's
    first nonzero slot; otherwise each is divided by its entry of largest
    modulus."""
    if all(map(is_exact, a)) and all(map(is_exact, b)):
        i = next(j for j, c in enumerate(a) if not is_zero(c))
        return [c * b[i] for c in a], [c * a[i] for c in b]
    prec = _precision((*a, *b))
    return _unit(a, prec), _unit(b, prec)
