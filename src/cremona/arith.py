"""Scalar backends: exact arithmetic in Q[x]/(S(x)) and big-float numerics.

The number-field side models Q(delta) for a monic integer modulus S, with all
results kept reduced (residue degree < deg S). Inversion goes through the
extended Euclidean algorithm; a nontrivial gcd with the modulus is surfaced as
a ``ZeroDivisorError`` carrying the discovered factor, since it certifies that
the claimed Salem factor is reducible.

The float side is a thin wrapper over mpmath carrying an explicit bit
precision; mixed-precision operations carry the max precision of the operands.

The scalar protocol at the end of the module (``is_exact``, ``is_zero``,
``one_like``, ``inverse``, ``embed``, ``gap``/``close`` and the vector
rescalings ``normalize``/``align``) is the one place that tells exact scalars
from floats; everything else calls it or the overloaded operators.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

import mpmath

from .polynomials import (
    IntegerPolynomial,
    rat_add,
    rat_divmod,
    rat_mul,
    rat_neg,
    rat_trim,
    rat_xgcd,
)

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
        self._mod_rat = modulus.to_rational()

    @property
    def degree(self) -> int:
        return self.modulus.degree

    def element(self, coeffs) -> "NumberFieldElement":
        """Element from rational coefficients (reduced modulo S)."""
        res = rat_trim([Fraction(c) for c in coeffs])
        if len(res) - 1 >= self.degree:
            _, res = rat_divmod(res, self._mod_rat)
        return NumberFieldElement(self, res)

    def gen(self) -> "NumberFieldElement":
        """The residue class of x, i.e. the root delta itself."""
        return self.element([0, 1])

    def zero(self) -> "NumberFieldElement":
        return NumberFieldElement(self, ())

    def one(self) -> "NumberFieldElement":
        return self.element([1])

    def __eq__(self, other):
        return isinstance(other, NumberField) and self.modulus == other.modulus

    def __hash__(self):
        return hash(self.modulus)

    def __repr__(self):
        return f"NumberField({self.modulus})"


class NumberFieldElement:
    """Reduced residue in Q[x]/(S); immutable."""

    __slots__ = ("field", "residue")

    def __init__(self, field: NumberField, residue):
        self.field = field
        self.residue = residue  # tuple of Fraction, degree < deg S

    @property
    def modulus(self) -> IntegerPolynomial:
        return self.field.modulus

    def is_zero(self) -> bool:
        return not self.residue

    def is_rational(self) -> bool:
        return len(self.residue) <= 1

    def as_rational(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self} is not rational")
        return self.residue[0] if self.residue else Fraction(0)

    def _coerce(self, other):
        if isinstance(other, NumberFieldElement):
            if other.field != self.field:
                raise ValueError("mixed number fields")
            return other
        if isinstance(other, (int, Fraction)):
            return self.field.element([other])
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return NumberFieldElement(self.field, rat_add(self.residue, o.residue))

    __radd__ = __add__

    def __neg__(self):
        return NumberFieldElement(self.field, rat_neg(self.residue))

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
        prod = rat_mul(self.residue, o.residue)
        _, red = rat_divmod(prod, self.field._mod_rat)
        return NumberFieldElement(self.field, red)

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
        return self.residue == o.residue

    def __hash__(self):
        return hash((self.field.modulus, self.residue))

    def __bool__(self):
        return not self.is_zero()

    def __repr__(self):
        return f"NFE({list(self.residue)} mod {self.modulus})"


def nf_invert(a: NumberFieldElement) -> NumberFieldElement:
    if a.is_zero():
        raise ZeroDivisionError("inverse of zero in number field")
    g, u, _ = rat_xgcd(a.residue, a.field._mod_rat)
    if len(g) != 1:
        # gcd(residue, S) nonconstant: S is reducible and g is a witness
        raise ZeroDivisorError(g)
    _, red = rat_divmod(u, a.field._mod_rat)
    return NumberFieldElement(a.field, red)


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


def nf_embed(a: NumberFieldElement, root: BigFloat) -> BigFloat:
    """Evaluate the residue at a numerical root of the modulus.

    ``root`` must actually solve the modulus at its stated precision; this is
    checked and violations raise ``InconsistentEmbeddingError``.
    """
    prec = root.precision_bits
    with mpmath.workprec(prec):
        mod_val = a.modulus(root.value)
        # scale-aware tolerance: Horner on a degree-d poly loses O(d) bits
        scale = max(1, max(abs(c) for c in a.modulus.coeffs)) * max(
            1, abs(root.value)
        ) ** max(1, a.modulus.degree)
        tol = mpmath.mpf(2) ** (-(prec - 16))
        if abs(mod_val) > scale * tol:
            raise InconsistentEmbeddingError(
                f"claimed root is off by {mod_val} at {prec} bits"
            )
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
    """A coordinate vector rescaled to keep its entries small: divided by its
    rational content (gcd of the numerators over lcm of the denominators of
    every rational coefficient) when all entries are exact, and returned
    unchanged when that is 1; else divided by its entry of largest modulus."""
    if not all(map(is_exact, coords)):
        return tuple(_unit(coords, _precision(coords)))
    nums, dens = [0], [1]
    for c in coords:
        for r in c.residue if isinstance(c, NumberFieldElement) else (Fraction(c),):
            if r:
                nums.append(abs(r.numerator))
                dens.append(r.denominator)
    content = Fraction(gcd(*nums) or 1, lcm(*dens))
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
