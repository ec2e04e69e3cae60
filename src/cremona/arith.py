"""Scalar backends: exact arithmetic in Q[x]/(S(x)) and big-float numerics.

The number-field side models Q(delta) for a monic integer modulus S of degree
d.  An element is stored as FLINT/Antic's ``nf_elem`` stores it: integer
numerator coefficients of degree < d over one positive common denominator,
in lowest terms, so that equal elements have equal representations.
Multiplication is an integer convolution followed by reduction modulo S,
which needs no division because S is monic; addition cross-multiplies the
denominators, and ``dot`` sums a row of products over one denominator with
one reduction.  Inversion is p-adic: the numerator is inverted modulo
(S, p) for a 62-bit prime p and rationally reconstructed, the inverse being
lifted by Newton's iteration modulo p^2, p^4, ... until that succeeds, and
a candidate is accepted only when its product with the element is exactly
1, which certifies it; intermediate values stay near the size of the
inverse.  A numerator that shares a factor with the modulus is surfaced as
a ``ZeroDivisorError`` carrying that factor, since it certifies that the
claimed Salem factor is reducible.

Heights are controlled where orbits are iterated: ``normalize`` scales an
exact point to a unit leading coordinate, so the coefficients of an orbit
point depend on the point alone and do not grow with the number of steps.

The float side is ``BigFloat``, mpmath's raw ``(sign, mantissa, exponent,
bit count)`` tuple with an explicit bit precision.  Its arithmetic calls
mpmath's raw kernels (``mpmath.libmp``) directly at the larger precision of
the operands, rounding to nearest, so results are bit for bit those of
mpmath under ``workprec`` without entering a precision context per
operation, and one object is built per result; ``dot`` of a float row
accumulates raw tuples with no object per product.  ``nf_embed`` evaluates
an element at the root in the manner of Arb's ``arb_dot``: the root's powers
are rounded once into a fixed-point table per (modulus, root, precision),
the element's integer numerators are summed against it exactly, and the sum
is rounded once.

The scalar protocol at the end of the module (``is_exact``, ``one_like``,
``inverse``, ``embed``, ``gap``/``close`` and the vector rescalings
``normalize``/``align``) is the one place that tells exact scalars from
floats; everything else calls it or the overloaded operators.  A scalar of
any kind is zero only when it equals 0, so a zero test is plain truthiness,
and ``close``, agreement relative to the larger operand, is the protocol's
one float tolerance.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt, lcm
from operator import mul

import mpmath
from mpmath.libmp import (
    fone,
    fzero,
    from_float,
    from_int,
    from_man_exp,
    mpf_abs,
    mpf_add,
    mpf_div,
    mpf_eq,
    mpf_ge,
    mpf_gt,
    mpf_hash,
    mpf_le,
    mpf_lt,
    mpf_mul,
    mpf_neg,
    mpf_pos,
    mpf_pow_int,
    mpf_sub,
    round_nearest,
    to_float,
)

from .polynomials import IntegerPolynomial, _convolve

DEFAULT_PRECISION_BITS = 256


class ZeroDivisorError(Exception):
    """Inversion hit a zero divisor; ``factor`` is a nontrivial factor of the
    modulus found along the way."""

    def __init__(self, factor):
        self.factor = factor
        super().__init__(f"zero divisor modulo reducible modulus; factor {factor}")

    def __reduce__(self):
        return type(self), (self.factor,)


class InconsistentEmbeddingError(Exception):
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

    def _reduce(self, num: list) -> list:
        """num(x) modulo S, in place: integer coefficients, constant term
        first, of which the first deg S are kept.  S is monic, so this needs
        no division."""
        d = self.degree
        for i in range(len(num) - 1, d - 1, -1):
            c = num[i]
            if c:
                base = i - d
                for j, s in self._tail:
                    num[base + j] -= c * s
        del num[d:]
        return num

    def _element(self, num: list, den: int) -> "NumberFieldElement":
        """The element num(x) / den for integers num (consumed) and den > 0:
        num is reduced modulo S and the fraction is put in lowest terms."""
        self._reduce(num)
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
            if other.field is not self.field and other.field != self.field:
                raise ValueError("mixed number fields")
            return other
        if isinstance(other, (int, Fraction)):
            q = Fraction(other)
            return NumberFieldElement(
                self.field, (q.numerator,) if q else (), q.denominator
            )
        return NotImplemented

    def _over_common_den(self, o):
        """(self's numerator, o's numerator, their common denominator)."""
        a, b, den = self.num, o.num, self.den
        if o.den != den:
            a = [c * o.den for c in a]
            b = [c * den for c in b]
            den *= o.den
        return a, b, den

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        a, b, den = self._over_common_den(o)
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
        """self - other in one pass, with no negated copy of other."""
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        a, b, den = self._over_common_den(o)
        out = list(a)
        out += [0] * (len(b) - len(a))
        for i, c in enumerate(b):
            out[i] -= c
        return self.field._element(out, den)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        if not self.num or not o.num:
            return self.field.zero()
        return self.field._element(_convolve(self.num, o.num), self.den * o.den)

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
        """Binary powering: one squaring per bit below the top one and one
        product per further set bit, so x ** 2**m costs m products."""
        if exp < 0:
            return nf_invert(self) ** (-exp)
        if not exp:
            return self.field.one()
        base, result = self, None
        while True:
            if exp & 1:
                result = base if result is None else result * base
            exp >>= 1
            if not exp:
                return result
            base = base * base

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


def dot(row, vec):
    """sum(r * v for r, v in zip(row, vec)).  When the entries are exact and
    one lies in a number field, the products' integer convolutions are
    summed over one common denominator and the sum is reduced modulo S and
    put in lowest terms once, instead of once per product.  When every entry
    is a ``BigFloat``, products and partial sums stay raw mpf tuples, each
    rounded at the precision the plain sum uses (a product at the larger
    precision of its factors, a partial sum at the larger precision of its
    two terms), so the result is bit for bit that sum's."""
    if row and vec and all(isinstance(x, BigFloat) for x in (*row, *vec)):
        return _float_dot(row, vec)
    field = next(
        (x.field for x in (*row, *vec) if isinstance(x, NumberFieldElement)), None
    )
    if field is None or not all(map(is_exact, (*row, *vec))):
        return sum(r * v for r, v in zip(row, vec))
    one = field.one()
    terms = []
    for r, v in zip(row, vec):
        r, v = one._coerce(r), one._coerce(v)
        if r.num and v.num:
            terms.append((r.num, v.num, r.den * v.den))
    if not terms:
        return field.zero()
    den = lcm(*(t[2] for t in terms))
    out = [0] * max(len(a) + len(b) - 1 for a, b, _ in terms)
    for a, b, t_den in terms:
        _convolve(a, b, out, den // t_den)
    return field._element(out, den)


# The four largest primes below 2^62.  A prime that divides the resultant of
# an element's numerator and the modulus cannot invert it and is skipped.
_PRIMES = (
    4611686018427387847,
    4611686018427387817,
    4611686018427387787,
    4611686018427387761,
)


def _is_prime(n: int) -> bool:
    """Miller-Rabin with the first twelve prime bases, for 2 <= n < 2^64,
    where these bases make it exact."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    for b in bases:
        if n % b == 0:
            return n == b
    odd, twos = n - 1, 0
    while not odd & 1:
        odd >>= 1
        twos += 1
    for b in bases:
        x = pow(b, odd, n)
        if x in (1, n - 1):
            continue
        for _ in range(twos - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _primes():
    """``_PRIMES``, then the other primes below 2^62 in descending order,
    found lazily; the sequence is the same on every run."""
    yield from _PRIMES
    n = 1 << 62
    while True:
        n -= 1
        if n not in _PRIMES and _is_prime(n):
            yield n


def _inverse_mod_p(a: tuple, s: tuple, p: int):
    """u with a u = 1 modulo (s, p) by the extended Euclidean algorithm over
    F_p, or None when gcd(a, s) mod p is not a unit.  Coefficient lists are
    constant term first; s is monic and longer than a."""
    r0, r1 = [c % p for c in s], [c % p for c in a]
    while r1 and not r1[-1]:
        r1.pop()
    t0, t1 = [], [1]  # t_i a = r_i modulo s
    while len(r1) > 1:
        # r0 = q r1 + r, then t0 - q t1 goes with r
        r = r0[:]
        inv_lead = pow(r1[-1], -1, p)
        shift = len(r0) - len(r1)
        q = [0] * (shift + 1)
        for i in range(shift, -1, -1):
            c = r[i + len(r1) - 1] * inv_lead % p
            if c:
                q[i] = c
                for j, b in enumerate(r1, i):
                    r[j] = (r[j] - c * b) % p
        del r[len(r1) - 1:]
        while r and not r[-1]:
            r.pop()
        t = t0 + [0] * (len(q) + len(t1) - 1 - len(t0))
        for i, c in enumerate(q):
            if c:
                for j, b in enumerate(t1, i):
                    t[j] = (t[j] - c * b) % p
        while t and not t[-1]:
            t.pop()
        r0, r1, t0, t1 = r1, r, t1, t
    if not r1:
        return None  # the gcd is r0, of positive degree
    inv = pow(r1[0], -1, p)
    return [c * inv % p for c in t1]


def _rational_reconstruction(c: int, m: int, bound: int):
    """(n, d) with n = c d modulo m, |n| <= bound, 0 < d <= bound and
    gcd(n, d) = 1, or None; Wang's half-extended Euclidean algorithm.  Such
    a fraction is unique when 2 bound^2 < m."""
    r0, r1, t0, t1 = m, c, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1, t0, t1 = r1, r0 - q * r1, t1, t0 - q * t1
    if abs(t1) > bound or gcd(r1, t1) != 1:
        return None
    return (r1, t1) if t1 > 0 else (-r1, -t1)


def _reconstruct(u: list, m: int):
    """Integers (nums, den) with u_i = nums_i / den modulo m, all within
    Wang's bound sqrt(m/2), or None.  Each coefficient is reconstructed
    after multiplying it by the denominator found so far, so a common
    denominator costs its size once, not once per coefficient."""
    bound = isqrt(m // 2)
    nums, den = [], 1
    for c in u:
        frac = _rational_reconstruction(c * den % m, m, bound)
        if frac is None:
            return None
        n, d = frac
        if d != 1:
            den *= d
            if den > bound:
                return None
            nums = [x * d for x in nums]
        nums.append(n)
    return nums, den


def nf_invert(a: NumberFieldElement) -> NumberFieldElement:
    """1 / a by p-adic lifting with a certificate.

    The numerator is inverted modulo (S, p) by Euclid over F_p, for the
    first prime p of a fixed sequence that does not divide its resultant
    with S; its coefficients are rationally reconstructed over a running
    common denominator, and while that fails Newton's iteration
    u <- u (2 - num u) lifts the inverse modulo p^2, p^4, ... and
    reconstruction is tried again, so a small inverse needs no lift.  A
    candidate is returned only when candidate * num = 1 holds exactly
    modulo S: that product is the certificate, so no bound on the inverse's
    height is needed, and a failed one lifts further.  If every fixed prime
    fails, gcd(num, S) is computed in Z[x]: a nonconstant gcd is raised as
    a ``ZeroDivisorError`` (it certifies that S is reducible), a constant
    one means the primes were unlucky and further primes are drawn."""
    if a.is_zero():
        raise ZeroDivisionError("inverse of zero in number field")
    field, num, den = a.field, a.num, a.den
    if len(num) == 1:
        c = num[0]
        return NumberFieldElement(field, (den if c > 0 else -den,), abs(c))
    modulus = field.modulus.coeffs
    for tried, p in enumerate(_primes()):
        if tried == len(_PRIMES):
            # a primitive factor of the monic S leads with 1, so it is monic
            factor = IntegerPolynomial(num).gcd(field.modulus)
            if factor.degree > 0:
                raise ZeroDivisorError(factor.to_rational())
        u = _inverse_mod_p(num, modulus, p)
        if u is not None:
            break
    d = field.degree
    u += [0] * (d - len(u))
    m = p
    while True:
        found = _reconstruct(u, m)
        if found is not None:
            nums, inv_den = found
            if field._reduce(_convolve(num, nums)) == [inv_den] + [0] * (d - 1):
                return field._element([den * c for c in nums], inv_den)
        # num u = 1 - m h modulo S with h integral, and u (1 + m h) inverts
        # num modulo m^2
        e = field._reduce(_convolve(num, u))
        e[0] -= 1
        h = [-(c // m) for c in e]
        uh = field._reduce(_convolve(u, h))
        u = [c + m * (x % m) for c, x in zip(u, uh)]
        m *= m


# mpmath's raw kernels act on (sign, mantissa, exponent, bit count) tuples
# and take the precision and rounding mode as arguments, so no context is
# entered; every BigFloat result is rounded to nearest.
_RND = round_nearest
_make_mpf = mpmath.mp.make_mpf


def _raw(x, prec: int) -> tuple:
    """An int, float or Fraction as a raw mpf rounded to ``prec`` bits; a
    Fraction's numerator is rounded first and then the quotient, as
    ``mpf(numerator) / denominator`` does at that precision."""
    if isinstance(x, int):
        return from_int(x, prec, _RND)
    if isinstance(x, float):
        return from_float(x, prec, _RND)
    if isinstance(x, Fraction):
        return mpf_div(from_int(x.numerator, prec, _RND), from_int(x.denominator),
                       prec, _RND)
    raise TypeError(f"cannot make a BigFloat from {type(x).__name__}")


def _bigfloat(raw: tuple, prec: int) -> "BigFloat":
    """The BigFloat of a raw mpf, with no conversion or check."""
    out = object.__new__(BigFloat)
    out.raw = raw
    out.precision_bits = prec
    return out


def _float_dot(row, vec) -> "BigFloat":
    """``dot`` of nonempty BigFloat rows, from 0 as the plain sum starts."""
    total, total_prec = fzero, 0
    for r, v in zip(row, vec):
        prec = r.precision_bits
        if v.precision_bits > prec:
            prec = v.precision_bits
        if prec > total_prec:
            total_prec = prec
        total = mpf_add(total, mpf_mul(r.raw, v.raw, prec, _RND), total_prec, _RND)
    return _bigfloat(total, total_prec)


def _rsub(a, b, prec, rnd):
    return mpf_sub(b, a, prec, rnd)


def _rdiv(a, b, prec, rnd):
    return mpf_div(b, a, prec, rnd)


class BigFloat:
    """Arbitrary-precision real with an explicit bit precision.

    ``raw`` is mpmath's raw mpf tuple (sign, mantissa, exponent, bit count),
    held as it is rather than in an ``mpf``; ``value`` wraps it in one for
    mpmath's own functions.  (The slot is not named ``_mpf_``: mpmath would
    take a BigFloat with that attribute for an ``mpf`` and compute with it
    at its context precision, where a BigFloat passed to mpmath by mistake
    raises ``TypeError``.)
    Arithmetic calls mpmath's raw kernels at the larger precision of the
    operands, rounding to nearest, so each result is bit for bit the same
    mpmath expression evaluated under ``workprec`` at that precision.  An
    int, float or Fraction operand, in arithmetic and in comparisons alike,
    is first rounded to this value's precision.  A BigFloat or ``mpf``
    passed in is kept as it is, unrounded."""

    __slots__ = ("raw", "precision_bits")

    def __init__(self, value, precision_bits: int = DEFAULT_PRECISION_BITS):
        if precision_bits < 64:
            raise ValueError("precision_bits must be >= 64")
        self.precision_bits = precision_bits
        if isinstance(value, BigFloat):
            self.raw = value.raw
        elif isinstance(value, mpmath.mpf):
            self.raw = value._mpf_
        else:
            self.raw = _raw(value, precision_bits)

    @property
    def value(self) -> mpmath.mpf:
        """The raw tuple as an mpmath ``mpf``."""
        return _make_mpf(self.raw)

    def _binop(self, other, op):
        prec = self.precision_bits
        if isinstance(other, BigFloat):
            if other.precision_bits > prec:
                prec = other.precision_bits
            ov = other.raw
        elif isinstance(other, (int, float, Fraction)):
            ov = _raw(other, prec)
        else:
            return NotImplemented
        return _bigfloat(op(self.raw, ov, prec, _RND), prec)

    def __add__(self, other):
        return self._binop(other, mpf_add)

    __radd__ = __add__

    def __sub__(self, other):
        return self._binop(other, mpf_sub)

    def __rsub__(self, other):
        return self._binop(other, _rsub)

    def __mul__(self, other):
        return self._binop(other, mpf_mul)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self._binop(other, mpf_div)

    def __rtruediv__(self, other):
        return self._binop(other, _rdiv)

    def __neg__(self):
        prec = self.precision_bits
        return _bigfloat(mpf_neg(self.raw, prec, _RND), prec)

    def __pow__(self, exp: int):
        if not isinstance(exp, int):
            return NotImplemented
        prec = self.precision_bits
        return _bigfloat(mpf_pow_int(self.raw, exp, prec, _RND), prec)

    def __abs__(self):
        prec = self.precision_bits
        return _bigfloat(mpf_abs(self.raw, prec, _RND), prec)

    def __float__(self):
        return to_float(self.raw, rnd=_RND)

    def __bool__(self):
        return bool(self.raw[1])

    def __repr__(self):
        return f"BigFloat({self.value}, bits={self.precision_bits})"

    def _compare(self, other, relation):
        if isinstance(other, BigFloat):
            ov = other.raw
        elif isinstance(other, (int, float, Fraction)):
            ov = _raw(other, self.precision_bits)
        else:
            return NotImplemented
        return relation(self.raw, ov)

    def __eq__(self, other):
        return self._compare(other, mpf_eq)

    def __lt__(self, other):
        return self._compare(other, mpf_lt)

    def __le__(self, other):
        return self._compare(other, mpf_le)

    def __gt__(self, other):
        return self._compare(other, mpf_gt)

    def __ge__(self, other):
        return self._compare(other, mpf_ge)

    def __hash__(self):
        return mpf_hash(self.raw)


@lru_cache(maxsize=None)
def _pow2(exp: int) -> tuple:
    """2^exp as a raw mpf."""
    return from_man_exp(1, exp)


def _check_root(modulus: IntegerPolynomial, raw: tuple, prec: int) -> None:
    """Raise ``InconsistentEmbeddingError`` unless the raw mpf ``raw`` is
    finite and solves the modulus at ``prec`` bits."""
    value = _make_mpf(raw)
    with mpmath.workprec(prec):
        mod_val = modulus(value)
        # scale-aware tolerance: Horner on a degree-d poly loses O(d) bits
        scale = max(1, max(abs(c) for c in modulus.coeffs)) * max(
            1, abs(value)
        ) ** max(1, modulus.degree)
        tol = mpmath.mpf(2) ** (-(prec - 16))
        if not (mpmath.isfinite(value) and abs(mod_val) <= scale * tol):
            raise InconsistentEmbeddingError(
                f"claimed root is off by {mod_val} at {prec} bits"
            )


@lru_cache(maxsize=64)
def _power_table(modulus: IntegerPolynomial, raw: tuple, prec: int) -> tuple:
    """(w, P) with P_i = round(value^i 2^w) for i < deg S, the powers of a
    checked root, given as a raw mpf, in fixed point with w fractional bits
    (see ``nf_embed``).  The root is checked first; a failed check raises
    and, not being a result, is not cached, so a bad root raises on every
    call."""
    _check_root(modulus, raw, prec)
    sign, man, exp, bc = raw
    if sign:
        man = -man
    d = modulus.degree
    # 2^(top-1) <= |value| < 2^top; below 1, the powers shrink and need
    # (d-1)(1-top) guard bits
    top = exp + bc
    w = prec + max(0, (d - 1) * (1 - top))
    table, power = [], 1  # power = man^i, exactly
    for i in range(d):
        shift = i * exp + w  # value^i 2^w = power 2^shift
        if shift >= 0:
            table.append(power << shift)
        else:
            table.append((power + (1 << (-shift - 1))) >> -shift)
        power *= man
    return w, tuple(table)


def nf_embed(a: NumberFieldElement, root: BigFloat) -> BigFloat:
    """The residue evaluated at a numerical root of the modulus, at the
    root's precision p.

    ``root`` must actually solve the modulus at precision p; the first
    embedding at a (modulus, root, p) checks it, and a root that fails
    raises ``InconsistentEmbeddingError`` on every call.  The check passed,
    the powers r^i of the root's value r, i < d = deg S, are rounded once
    each to fixed point with w fractional bits and cached; an element
    num / den is then the integer sum of num_i P_i, scaled by 2^-w and
    divided by den with one rounding to p bits.

    Error bound.  With c_i = num_i / den and N = sum |c_i| |r|^i, the
    integer sum is within E = 2^-(w+1) sum |c_i| of a(r) = sum c_i r^i,
    and the result is its rounding to p bits, so
    |nf_embed(a, root) - a(r)| <= 2^-p (|a(r)| + E) + E.  The guard width
    w - p = max(0, (d-1)(1-t)), for 2^(t-1) <= |r| < 2^t, makes
    E <= 2^-(p+1) N (a root below 1 needs guard bits because its powers
    shrink), so the error is at most 2^-(p-1) N: within Horner's bound
    gamma_2d N, gamma_n = n 2^-p / (1 - n 2^-p), for the evaluation at p
    bits that this replaces.  The error is absolute, so an element that
    nearly cancels at r keeps few correct bits, as it did with Horner."""
    prec = root.precision_bits
    w, table = _power_table(a.modulus, root.raw, prec)
    total = from_man_exp(sum(map(mul, a.num, table)), -w)
    if a.den == 1:
        return _bigfloat(mpf_pos(total, prec, _RND), prec)
    return _bigfloat(mpf_div(total, from_int(a.den), prec, _RND), prec)


# ---------------------------------------------------------------------------
# the scalar protocol
#
# Exact scalars (int, Fraction, NumberFieldElement) are compared by equality.
# Any scalar is zero only when it is 0 (a BigFloat when its mantissa is).
# Two scalars, one of them a float, agree when they differ by at most
# 2^-(p//2) relative to max(|a|, |b|, 1), p being the larger precision of
# the two; this is the protocol's only float tolerance.


def is_exact(x) -> bool:
    # field elements first: they skip Fraction's ABCMeta instance check
    return isinstance(x, NumberFieldElement) or isinstance(x, (int, Fraction))


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


def embed(x, root: BigFloat, precision_bits: int) -> BigFloat:
    """x evaluated at ``root``, a numerical root of its field's modulus (a
    rational x as it is), and rounded to ``precision_bits`` bits."""
    if isinstance(x, NumberFieldElement):
        x = nf_embed(x, root)
    if isinstance(x, BigFloat):
        return _bigfloat(mpf_pos(x.raw, precision_bits, _RND),
                         precision_bits)
    return BigFloat(x, precision_bits)


def _precision(xs) -> int:
    return max([x.precision_bits for x in xs if isinstance(x, BigFloat)] + [53])


def _raw_at(x, prec: int) -> tuple:
    """A real scalar as a raw mpf: a BigFloat's value as it is, anything
    else rounded to ``prec`` bits."""
    return x.raw if isinstance(x, BigFloat) else _raw(x, prec)


def gap(a, b):
    """How far apart two scalars are: 0 or 1 when both are exact, else
    |a - b| / max(|a|, |b|, 1) as a BigFloat."""
    if is_exact(a) and is_exact(b):
        return int(a != b)
    prec = _precision((a, b))
    av, bv = _raw_at(a, prec), _raw_at(b, prec)
    top = fone
    for v in (av, bv):
        v = mpf_abs(v, prec, _RND)
        if mpf_gt(v, top):
            top = v
    diff = mpf_abs(mpf_sub(av, bv, prec, _RND))
    return _bigfloat(mpf_div(diff, top, prec, _RND), prec)


def close(a, b) -> bool:
    """Whether two scalars agree: exactly, or for floats within the
    tolerance their precision allows."""
    if is_exact(a) and is_exact(b):
        return a == b
    g = gap(a, b)
    return mpf_le(g.raw, _pow2(-(g.precision_bits // 2)))


def _unit(coords, prec: int) -> list:
    """Float entries divided by the first entry of largest modulus (rounded
    to ``prec``), at ``prec``."""
    vals = [_raw_at(c, prec) for c in coords]
    top, top_abs = vals[0], mpf_abs(vals[0], prec, _RND)
    for v in vals[1:]:
        v_abs = mpf_abs(v, prec, _RND)
        if mpf_gt(v_abs, top_abs):
            top, top_abs = v, v_abs
    return [_bigfloat(mpf_div(v, top, prec, _RND), prec) for v in vals]


def normalize(coords) -> tuple:
    """A coordinate vector rescaled to a canonical representative that keeps
    its entries small, or returned unchanged when it already is one.

    An exact vector is divided by its first nonzero entry (for a
    number-field entry, one field inversion), so that entry becomes 1: the
    representative then depends only on the projective point, and the
    heights of an orbit's points stay bounded instead of growing with each
    step; that entry is set to 1, not multiplied by its inverse.  A float
    vector is divided by its entry of largest modulus."""
    if not all(map(is_exact, coords)):
        return tuple(_unit(coords, _precision(coords)))
    i, lead = next((i, c) for i, c in enumerate(coords) if c)
    if lead == 1:
        return coords
    scale, one = inverse(lead), one_like(lead)
    return tuple(one if j == i else c * scale for j, c in enumerate(coords))


def align(a, b):
    """Two coordinate vectors rescaled so that they agree entry by entry
    exactly when they are the same projective point (float vectors: up to
    sign).  Exact vectors are cross-multiplied by each other's entry at a's
    first nonzero slot; otherwise each is divided by its entry of largest
    modulus."""
    if all(map(is_exact, a)) and all(map(is_exact, b)):
        i = next(j for j, c in enumerate(a) if c)
        return [c * b[i] for c in a], [c * a[i] for c in b]
    prec = _precision((*a, *b))
    return _unit(a, prec), _unit(b, prec)
