"""Binary floating point rounded to nearest: the kernel of ``arith.BigFloat``.

A value is mpmath's raw mpf tuple ``(sign, man, exp, bc)``: the number
(-1)^sign man 2^exp, with man odd (or 0 for zero) and bc its bit count.
Zero is ``fzero``; nan and the infinities have a zero mantissa and a nonzero
exponent.  Each function below is a port of the function of the same name
in mpmath's ``libmp.libmpf`` (1.3), for the one rounding mode this package
uses, round to nearest with ties to even, and returns the same tuple bit for
bit.  mpmath's algorithms are kept where they are not correctly rounded:
``mpf_pow_int`` above 1000 mantissa bits truncates its partial products at a
working precision, and ``to_str`` rounds a truncated digit string, which
beyond 2^±3500 comes from a quotient by a power of ten rounded toward and
away from zero, as mpmath rounds it there.  A precision of 0, where a
function takes one, means an exact result.

mpmath's notice, which the license requires this port to carry:

    Copyright (c) 2005-2021 Fredrik Johansson and mpmath contributors

    All rights reserved.

    Redistribution and use in source and binary forms, with or without
    modification, are permitted provided that the following conditions are
    met:

      a. Redistributions of source code must retain the above copyright
         notice, this list of conditions and the following disclaimer.
      b. Redistributions in binary form must reproduce the above copyright
         notice, this list of conditions and the following disclaimer in
         the documentation and/or other materials provided with the
         distribution.
      c. Neither the name of the copyright holder nor the names of its
         contributors may be used to endorse or promote products derived
         from this software without specific prior written permission.

    THIS SOFTWARE IS PROVIDED BY THE COPYRIGHT HOLDERS AND CONTRIBUTORS "AS
    IS" AND ANY EXPRESS OR IMPLIED WARRANTIES, INCLUDING, BUT NOT LIMITED TO,
    THE IMPLIED WARRANTIES OF MERCHANTABILITY AND FITNESS FOR A PARTICULAR
    PURPOSE ARE DISCLAIMED. IN NO EVENT SHALL THE REGENTS OR CONTRIBUTORS BE
    LIABLE FOR ANY DIRECT, INDIRECT, INCIDENTAL, SPECIAL, EXEMPLARY, OR
    CONSEQUENTIAL DAMAGES (INCLUDING, BUT NOT LIMITED TO, PROCUREMENT OF
    SUBSTITUTE GOODS OR SERVICES; LOSS OF USE, DATA, OR PROFITS; OR BUSINESS
    INTERRUPTION) HOWEVER CAUSED AND ON ANY THEORY OF LIABILITY, WHETHER IN
    CONTRACT, STRICT LIABILITY, OR TORT (INCLUDING NEGLIGENCE OR OTHERWISE)
    ARISING IN ANY WAY OUT OF THE USE OF THIS SOFTWARE, EVEN IF ADVISED OF
    THE POSSIBILITY OF SUCH DAMAGE.
"""

from __future__ import annotations

import math
import sys

fzero = (0, 0, 0, 0)
fone = (0, 1, 0, 1)
fnan = (0, 0, -123, -1)
finf = (0, 0, -456, -2)
fninf = (1, 0, -789, -3)

_HASH_MODULUS = sys.hash_info.modulus
_HASH_BITS = 31 if sys.hash_info.width == 32 else 61


def normalize1(sign, man, exp, bc, prec):
    """The raw mpf (-1)^sign man 2^exp for an odd or zero man of bit count
    bc, rounded to prec bits."""
    if not man:
        return fzero
    if bc <= prec:
        return sign, man, exp, bc
    n = bc - prec
    t = man >> (n - 1)
    if t & 1 and (t & 2 or man & ((1 << (n - 1)) - 1)):
        man = (t >> 1) + 1
    else:
        man = t >> 1
    exp += n
    bc = prec
    if not man & 1:
        t = (man & -man).bit_length() - 1
        man >>= t
        exp += t
        bc -= t
        # rounding 2^prec - 1 up carries into one more bit
        if man == 1:
            bc = 1
    return sign, man, exp, bc


def normalize(sign, man, exp, bc, prec):
    """``normalize1`` for any man >= 0: its trailing zero bits are stripped
    first, which moves no bit of the value."""
    if man and not man & 1:
        t = (man & -man).bit_length() - 1
        man >>= t
        exp += t
        bc -= t
    return normalize1(sign, man, exp, bc, prec)


def from_man_exp(man, exp, prec=0):
    """The raw mpf man 2^exp of a signed integer man."""
    sign = 0
    if man < 0:
        sign, man = 1, -man
    bc = man.bit_length()
    return normalize(sign, man, exp, bc, prec or bc)


def from_int(n, prec=0):
    return from_man_exp(n, 0, prec)


def from_float(x, prec=53):
    if x != x:
        return fnan
    if x in (math.inf, -math.inf):
        return finf if x > 0 else fninf
    m, e = math.frexp(x)
    return from_man_exp(int(m * (1 << 53)), e - 53, prec)


def to_float(s):
    """The nearest double; 0.0 or an infinity beyond the double range."""
    sign, man, exp, bc = s
    if not man:
        return {fzero: 0.0, finf: math.inf, fninf: -math.inf}.get(s, math.nan)
    if bc > 53:
        sign, man, exp, bc = normalize1(sign, man, exp, bc, 53)
    try:
        return math.ldexp(-man if sign else man, exp)
    except OverflowError:
        if exp + bc > 0:
            return -math.inf if sign else math.inf
        return 0.0


def _sign(s):
    """-1, 0 or 1 as s is negative, zero (or nan) or positive."""
    sign, man, exp, bc = s
    if not man:
        return 1 if s == finf else -1 if s == fninf else 0
    return -1 if sign else 1


def mpf_pos(s, prec=0):
    """s rounded to prec bits."""
    sign, man, exp, bc = s
    if not prec or (not man and exp):
        return s
    return normalize1(sign, man, exp, bc, prec)


def mpf_neg(s, prec=0):
    sign, man, exp, bc = s
    if not man:
        return {finf: fninf, fninf: finf}.get(s, s)
    if not prec:
        return 1 - sign, man, exp, bc
    return normalize1(1 - sign, man, exp, bc, prec)


def mpf_abs(s, prec=0):
    sign, man, exp, bc = s
    if not man and exp:
        return finf if s == fninf else s
    if not prec:
        return (0, man, exp, bc) if sign else s
    return normalize1(0, man, exp, bc, prec)


def mpf_add(s, t, prec=0, _sub=0):
    """s + t (s - t with _sub = 1).  When the exponents are more than 100
    bits apart and the smaller term lies wholly below the result's last
    bit, the larger term is perturbed by one unit 4 bits below its
    precision instead of being added in full."""
    ssign, sman, sexp, sbc = s
    tsign, tman, texp, tbc = t
    tsign ^= _sub
    if sman and tman:
        offset = sexp - texp
        if offset > 0:
            if offset > 100 and prec and sbc + sexp - tbc - texp > prec + 4:
                sman = (sman << prec + 4) + (1 if tsign == ssign else -1)
                return normalize1(ssign, sman, sexp - prec - 4,
                                  sman.bit_length(), prec)
            sman <<= offset
            exp = texp
        elif offset < 0:
            if offset < -100 and prec and tbc + texp - sbc - sexp > prec + 4:
                tman = (tman << prec + 4) + (1 if ssign == tsign else -1)
                return normalize1(tsign, tman, texp - prec - 4,
                                  tman.bit_length(), prec)
            tman <<= -offset
            exp = sexp
        else:
            exp = texp
        if ssign == tsign:
            man = sman + tman
        else:
            man = sman - tman if not ssign else tman - sman
            ssign = 0
            if man < 0:
                man, ssign = -man, 1
        bc = man.bit_length()
        # a shifted term and an odd one make an odd sum; only equal
        # exponents can leave an even one
        if offset:
            return normalize1(ssign, man, exp, bc, prec or bc)
        return normalize(ssign, man, exp, bc, prec or bc)
    if _sub:
        t = mpf_neg(t)
    if not sman:
        if sexp:
            return s if s == t or tman or not texp else fnan
        if tman:
            return normalize1(tsign, tman, texp, tbc, prec or tbc)
        return t
    if texp:
        return t
    return normalize1(ssign, sman, sexp, sbc, prec or sbc)


def mpf_sub(s, t, prec=0):
    return mpf_add(s, t, prec, 1)


def mpf_mul(s, t, prec=0):
    ssign, sman, sexp, sbc = s
    tsign, tman, texp, tbc = t
    man = sman * tman
    if man:
        bc = man.bit_length()
        if prec and bc > prec:
            return normalize1(ssign ^ tsign, man, sexp + texp, bc, prec)
        return ssign ^ tsign, man, sexp + texp, bc
    s_special = not sman and sexp
    t_special = not tman and texp
    if not s_special and not t_special:
        return fzero
    if fnan in (s, t):
        return fnan
    if t_special:
        s, t = t, s
    if t == fzero:
        return fnan
    return finf if _sign(s) * _sign(t) == 1 else fninf


def mpf_div(s, t, prec):
    """s / t: the quotient is formed to prec + 5 bits or more, and a nonzero
    remainder is kept as a sticky bit below them."""
    ssign, sman, sexp, sbc = s
    tsign, tman, texp, tbc = t
    if not sman or not tman:
        if t == fzero:
            raise ZeroDivisionError
        if s == fzero:
            return fnan if t == fnan else fzero
        s_special = not sman and sexp
        t_special = not tman and texp
        if (s_special and t_special) or fnan in (s, t):
            return fnan
        if not t_special:
            return finf if _sign(s) * _sign(t) == 1 else fninf
        return fzero
    sign = ssign ^ tsign
    if tman == 1:
        return normalize1(sign, sman, sexp - texp, sbc, prec)
    extra = max(prec - sbc + tbc + 5, 5)
    quot, rem = divmod(sman << extra, tman)
    if rem:
        quot = (quot << 1) + 1
        extra += 1
        return normalize1(sign, quot, sexp - texp - extra, quot.bit_length(),
                          prec)
    return normalize(sign, quot, sexp - texp - extra, quot.bit_length(), prec)


def mpf_pow_int(s, n, prec):
    """s^n for an integer n.  When the exact power would have 1000 bits or
    more, binary powering truncates each partial product to
    prec + 4 bitcount(n) + 4 bits, as mpmath does; a negative power is
    the reciprocal of the positive one formed at prec + 5 bits."""
    sign, man, exp, bc = s
    if not man and exp:
        if s == fnan or n == 0:
            return fnan
        if n < 0:
            return fzero
        return fninf if s == fninf and n & 1 else finf
    if n == 0:
        return fone
    if n == 1:
        return mpf_pos(s, prec)
    if n == 2:
        if not man:
            return fzero
        man *= man
        return normalize1(0, man, exp + exp, man.bit_length(), prec)
    if n == -1:
        return mpf_div(fone, s, prec)
    if n < 0:
        return mpf_div(fone, mpf_pow_int(s, -n, prec + 5), prec)
    result_sign = sign & n
    if man == 1:
        return result_sign, 1, exp * n, 1
    if bc * n < 1000:
        man **= n
        return normalize1(result_sign, man, exp * n, man.bit_length(), prec)
    man, exp = _binary_power(man, exp, n, prec, False)
    return normalize(result_sign, man, exp, man.bit_length(), prec)


def _binary_power(man, exp, n, prec, up):
    """(man 2^exp)^n by binary powering, n > 0, as (mantissa, exponent):
    each partial product is cut to prec + 4 bitcount(n) + 4 bits, toward
    zero, or away from zero when ``up``."""
    workprec = prec + 4 * n.bit_length() + 4
    pm, pe = 1, 0
    while True:
        if n & 1:
            pm *= man
            pe += exp
            cut = pm.bit_length() - workprec
            if cut > 0:
                pm = -(-pm >> cut) if up else pm >> cut
                pe += cut
            n -= 1
            if not n:
                return pm, pe
        man *= man
        exp += exp
        cut = man.bit_length() - workprec
        if cut > 0:
            man = -(-man >> cut) if up else man >> cut
            exp += cut
        n //= 2


def mpf_eq(s, t):
    if not s[1] or not t[1]:
        if s == fnan or t == fnan:
            return False
    return s == t


def mpf_hash(s):
    """Python's hash of the number s, so that equal ints, floats and
    Fractions hash alike."""
    sign, man, exp, bc = s
    if not man:
        if s == fnan:
            return sys.hash_info.nan
        if s == finf:
            return sys.hash_info.inf
        if s == fninf:
            return -sys.hash_info.inf
    h = man % _HASH_MODULUS
    if exp >= 0:
        exp %= _HASH_BITS
    else:
        exp = _HASH_BITS - 1 - ((-1 - exp) % _HASH_BITS)
    h = (h << exp) % _HASH_MODULUS
    if sign:
        h = -h
    return -2 if h == -1 else h


def mpf_cmp(s, t):
    """-1, 0 or 1 as s <, == or > t, with nan placed as mpmath places it."""
    ssign, sman, sexp, sbc = s
    tsign, tman, texp, tbc = t
    if not sman or not tman:
        if s == fzero:
            return -_sign(t)
        if t == fzero:
            return _sign(s)
        if s == t:
            return 0
        if t == fnan or s == finf or t == fninf:
            return 1
        return -1
    if ssign != tsign:
        return -1 if ssign else 1
    if sexp == texp:
        if sman == tman:
            return 0
        above = sman > tman
    else:
        # the position of the leading bit decides, unless it is the same
        a, b = sbc + sexp, tbc + texp
        if a == b:
            return -1 if mpf_sub(s, t, 5)[0] else 1
        above = a > b
    # |s| > |t|: s > t for positive operands, s < t for negative ones
    return -1 if above == bool(ssign) else 1


def mpf_lt(s, t):
    return s != fnan and t != fnan and mpf_cmp(s, t) < 0


def mpf_le(s, t):
    return s != fnan and t != fnan and mpf_cmp(s, t) <= 0


def mpf_gt(s, t):
    return s != fnan and t != fnan and mpf_cmp(s, t) > 0


def mpf_ge(s, t):
    return s != fnan and t != fnan and mpf_cmp(s, t) >= 0


def prec_to_dps(n):
    """The number of decimal digits that n bits carry."""
    return max(1, int(round(int(n) / 3.3219280948873626) - 1))


def to_digits_exp(s, dps):
    """(sign, digits, exponent): "" or "-", at least dps decimal digits of
    |s| truncated toward zero, and the decimal exponent of the first."""
    sign = "-" if s[0] else ""
    _, man, exp, bc = s
    if not man:
        return "", "0", 0
    bitprec = int(dps * math.log(10, 2)) + 10
    exponent = 0
    if abs(exp + bc) > 3500:
        # beyond 2^±3500, |s| is first divided by 10^b, b = exp ln 2 / ln 10
        # cut toward zero, each step rounded as mpmath rounds it
        expprec = abs(exp).bit_length() + 5
        _, ln2, ln2_exp, _ = _ln_floor(2, expprec)
        bsign, bman, bexp, _ = _quotient_down(
            from_man_exp(exp * ln2, ln2_exp), _ln_floor(10, expprec), expprec)
        exponent = bman << bexp if bexp >= 0 else bman >> -bexp
        if bsign:
            exponent = -exponent
        _, man, exp, bc = _quotient_down((0, man, exp, bc),
                                         _ten_power(exponent, bitprec), bitprec)
    fixprec = max(bitprec - exp - bc, 0)
    fixdps = int(fixprec / math.log(10, 2) + 0.5)
    offset = exp + fixprec
    fixed = man << offset if offset >= 0 else man >> -offset
    digits = str(fixed * 10 ** fixdps >> fixprec)
    return sign, digits, exponent + len(digits) - fixdps - 1


def _directed(man, exp, prec, up):
    """The positive man 2^exp rounded to prec bits toward zero, or away
    from zero when ``up``: mpmath's round_down and round_up."""
    cut = man.bit_length() - prec
    if cut > 0:
        man = -(-man >> cut) if up else man >> cut
        exp += cut
    return from_man_exp(man, exp)


def _quotient_down(s, t, prec):
    """s / t for nonzero finite t, rounded toward zero to prec bits, as
    mpmath's ``mpf_div`` with round_down."""
    ssign, sman, sexp, sbc = s
    tsign, tman, texp, tbc = t
    extra = max(prec - sbc + tbc + 5, 5)
    _, man, exp, bc = _directed((sman << extra) // tman, sexp - texp - extra,
                                prec, False)
    return (ssign ^ tsign if man else 0), man, exp, bc


def _ln_floor(base, prec):
    """mpmath's ``mpf_ln2(prec)`` or ``mpf_ln10(prec)``, rounded toward
    zero: ln base cut to prec bits, from atanh series at 64 more bits.
    ln 2 = 2 atanh(1/3) and ln 10 = 3 ln 2 + 2 atanh(1/9)."""
    wide = prec + 64

    def atanh_inv(m):
        total, power, j = 0, (1 << wide) // m, 1
        while power:
            total += power // j
            power //= m * m
            j += 2
        return 2 * total

    value = atanh_inv(3) if base == 2 else 3 * atanh_inv(3) + atanh_inv(9)
    return _directed(value, -wide, prec, False)


def _ten_power(n, prec, up=False):
    """mpmath's ``mpf_pow_int`` of 10 at prec bits rounded toward zero, or
    away from zero when ``up``; a negative power is the reciprocal of the
    positive one rounded away from zero at prec + 5 bits."""
    if n < 0:
        return _quotient_down(fone, _ten_power(-n, prec + 5, True), prec)
    if 3 * n < 1000:
        return _directed(5 ** n, n, prec, up)
    return _directed(*_binary_power(5, 1, n, prec, up), prec, up)


def to_str(s, dps, strip_zeros=True):
    """s as a decimal literal of dps >= 1 significant digits: dps + 3
    digits truncated toward zero, rounded half up to dps, in fixed point
    when the leading digit's exponent lies strictly between
    min(-(dps // 3), -5) and dps; trailing zeros are stripped unless
    ``strip_zeros`` is false."""
    if not s[1]:
        if s == fzero:
            return "0.0"
        return {finf: "+inf", fninf: "-inf"}.get(s, "nan")
    sign, digits, exponent = to_digits_exp(s, dps + 3)
    if len(digits) > dps and digits[dps] in "56789":
        digits = digits[:dps]
        i = dps - 1
        while i >= 0 and digits[i] == "9":
            i -= 1
        if i >= 0:
            digits = digits[:i] + str(int(digits[i]) + 1) + "0" * (dps - i - 1)
        else:
            digits = "1" + "0" * (dps - 1)
            exponent += 1
    else:
        digits = digits[:dps]
    split = 1
    if min(-(dps // 3), -5) < exponent < dps:
        if exponent < 0:
            digits = "0" * -exponent + digits
        else:
            split = exponent + 1
            if split > dps:
                digits += "0" * (split - dps)
        exponent = 0
    digits = digits[:split] + "." + digits[split:]
    if strip_zeros:
        digits = digits.rstrip("0")
        if digits[-1] == ".":
            digits += "0"
    if exponent == 0:
        return sign + digits
    return f"{sign}{digits}e{'+' if exponent > 0 else ''}{exponent}"
