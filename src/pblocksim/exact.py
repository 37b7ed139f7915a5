"""Exact scalar arithmetic over the field Q(i, sqrt(2)).

Every amplitude, gate entry and probability handled by the exact engines is a
value (a + b*i) + (c + d*i)*sqrt(2) with rational a, b, c, d.  Internally a
scalar is five integers (xa, xb, xc, xd, den) meaning
(xa + xb*i + xc*sqrt2 + xd*i*sqrt2) / den, kept canonical:

    den > 0   and   gcd(xa, xb, xc, xd, den) == 1

Since sqrt(2) is irrational over Q(i) the representation of a value is
unique, so equality is plain component comparison and hashing works.

A product with the shared ``ONE`` on either side is the other factor itself,
made without arithmetic; ``ONE * ONE`` is ``ONE``, so a state built from the
basis blocks keeps that shortcut from step to step.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

_SQRT2_FLOAT = math.sqrt(2.0)
# sqrt(2) to 60 decimal digits, for the high-precision float conversion path.
_SQ2_PREC_DEN = 10**60
_SQ2_PREC_NUM = math.isqrt(2 * _SQ2_PREC_DEN * _SQ2_PREC_DEN)
_FAST_LIMIT = 1 << 50
# log10(2) rounded down to 40 decimals: floor((b - 1) log10 2) computed with
# it is exact for bit lengths b far past any int that fits in memory
_LOG10_2_NUM = 3010299956639811952137388947244930267681
_LOG10_2_DEN = 10**40


class ExactScalar:
    __slots__ = ("xa", "xb", "xc", "xd", "den")

    def __init__(self, a=0, b=0, c=0, d=0):
        """Build (a + b*i) + (c + d*i)*sqrt2 from ints/Fractions."""
        fa, fb, fc, fd = Fraction(a), Fraction(b), Fraction(c), Fraction(d)
        den = math.lcm(fa.denominator, fb.denominator,
                       fc.denominator, fd.denominator)
        xa = fa.numerator * (den // fa.denominator)
        xb = fb.numerator * (den // fb.denominator)
        xc = fc.numerator * (den // fc.denominator)
        xd = fd.numerator * (den // fd.denominator)
        g = math.gcd(xa, xb, xc, xd, den)
        if g > 1:
            xa //= g
            xb //= g
            xc //= g
            xd //= g
            den //= g
        self.xa, self.xb, self.xc, self.xd, self.den = xa, xb, xc, xd, den

    @classmethod
    def _raw(cls, xa, xb, xc, xd, den):
        """Construct from integer components, normalizing sign and gcd."""
        if den < 0:
            xa, xb, xc, xd, den = -xa, -xb, -xc, -xd, -den
        g = math.gcd(xa, xb, xc, xd, den)
        if g > 1:
            xa //= g
            xb //= g
            xc //= g
            xd //= g
            den //= g
        out = object.__new__(cls)
        out.xa, out.xb, out.xc, out.xd, out.den = xa, xb, xc, xd, den
        return out

    # -- component views (the four rational components, reduced) ---

    @property
    def a(self) -> Fraction:
        return Fraction(self.xa, self.den)

    @property
    def b(self) -> Fraction:
        return Fraction(self.xb, self.den)

    @property
    def c(self) -> Fraction:
        return Fraction(self.xc, self.den)

    @property
    def d(self) -> Fraction:
        return Fraction(self.xd, self.den)

    # -- predicates ---

    def is_zero(self) -> bool:
        return self.xa == 0 and self.xb == 0 and self.xc == 0 and self.xd == 0

    def is_real(self) -> bool:
        return self.xb == 0 and self.xd == 0

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __eq__(self, other) -> bool:
        if not isinstance(other, ExactScalar):
            return NotImplemented
        return (self.xa == other.xa and self.xb == other.xb
                and self.xc == other.xc and self.xd == other.xd
                and self.den == other.den)

    def __hash__(self):
        return hash((self.xa, self.xb, self.xc, self.xd, self.den))

    # -- field operations ---

    def __add__(self, other: "ExactScalar") -> "ExactScalar":
        sd, od = self.den, other.den
        if sd == od:
            return ExactScalar._raw(self.xa + other.xa, self.xb + other.xb,
                                    self.xc + other.xc, self.xd + other.xd, sd)
        return ExactScalar._raw(self.xa * od + other.xa * sd,
                                self.xb * od + other.xb * sd,
                                self.xc * od + other.xc * sd,
                                self.xd * od + other.xd * sd, sd * od)

    def __neg__(self) -> "ExactScalar":
        out = object.__new__(ExactScalar)
        out.xa, out.xb, out.xc, out.xd = -self.xa, -self.xb, -self.xc, -self.xd
        out.den = self.den
        return out

    def __sub__(self, other: "ExactScalar") -> "ExactScalar":
        sd, od = self.den, other.den
        if sd == od:
            return ExactScalar._raw(self.xa - other.xa, self.xb - other.xb,
                                    self.xc - other.xc, self.xd - other.xd, sd)
        return ExactScalar._raw(self.xa * od - other.xa * sd,
                                self.xb * od - other.xb * sd,
                                self.xc * od - other.xc * sd,
                                self.xd * od - other.xd * sd, sd * od)

    def __mul__(self, other: "ExactScalar") -> "ExactScalar":
        # x * 1 is x itself, and ONE * ONE stays the shared ONE
        if other is ONE:
            return self
        if self is ONE:
            return other
        if self.is_zero() or other.is_zero():
            return ZERO
        xa, xb, xc, xd = self.xa, self.xb, self.xc, self.xd
        ya, yb, yc, yd = other.xa, other.xb, other.xc, other.xd
        # (z1 + w1*sqrt2)(z2 + w2*sqrt2) = z1*z2 + 2*w1*w2 + (z1*w2 + w1*z2)*sqrt2
        na = xa * ya - xb * yb + 2 * (xc * yc - xd * yd)
        nb = xa * yb + xb * ya + 2 * (xc * yd + xd * yc)
        nc = xa * yc - xb * yd + xc * ya - xd * yb
        nd = xa * yd + xb * yc + xc * yb + xd * ya
        return ExactScalar._raw(na, nb, nc, nd, self.den * other.den)

    def conjugate(self) -> "ExactScalar":
        # a real scalar is its own conjugate, so ZERO stays the shared ZERO
        if not (self.xb or self.xd):
            return self
        out = object.__new__(ExactScalar)
        out.xa, out.xb, out.xc, out.xd = self.xa, -self.xb, self.xc, -self.xd
        out.den = self.den
        return out

    def inverse(self) -> "ExactScalar":
        """Exact 1/x; rationalize over sqrt2 first, then over i."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero scalar")
        xa, xb, xc, xd, den = self.xa, self.xb, self.xc, self.xd, self.den
        # x = (z + w*sqrt2)/den with Gaussian integers z, w.
        # y = z^2 - 2 w^2 satisfies x * den * (z - w*sqrt2) = y (Gaussian).
        yr = xa * xa - xb * xb - 2 * (xc * xc - xd * xd)
        yi = 2 * (xa * xb - 2 * xc * xd)
        ynorm = yr * yr + yi * yi  # |y|^2, positive since x != 0
        # 1/x = den * (z - w*sqrt2) * conj(y) / |y|^2
        na = den * (xa * yr + xb * yi)
        nb = den * (xb * yr - xa * yi)
        nc = -den * (xc * yr + xd * yi)
        nd = -den * (xd * yr - xc * yi)
        return ExactScalar._raw(na, nb, nc, nd, ynorm)

    def abs_squared(self) -> "ExactScalar":
        """Exact |x|^2 = x * conj(x), a real element of Q(sqrt2)."""
        return self * self.conjugate()

    # -- conversions ---

    def to_complex(self) -> complex:
        """Double-precision value; relative error a few ulp per component."""
        xa, xb, xc, xd, den = self.xa, self.xb, self.xc, self.xd, self.den
        if (-_FAST_LIMIT < xa < _FAST_LIMIT and -_FAST_LIMIT < xb < _FAST_LIMIT
                and -_FAST_LIMIT < xc < _FAST_LIMIT
                and -_FAST_LIMIT < xd < _FAST_LIMIT and den < _FAST_LIMIT):
            inv = 1.0 / den
            return complex((xa + xc * _SQRT2_FLOAT) * inv,
                           (xb + xd * _SQRT2_FLOAT) * inv)
        re = Fraction(xa * _SQ2_PREC_DEN + xc * _SQ2_PREC_NUM,
                      den * _SQ2_PREC_DEN)
        im = Fraction(xb * _SQ2_PREC_DEN + xd * _SQ2_PREC_NUM,
                      den * _SQ2_PREC_DEN)
        return complex(float(re), float(im))

    def to_float(self) -> float:
        """Real value of a scalar with zero imaginary components."""
        if not self.is_real():
            raise ValueError("scalar has imaginary components")
        return self.to_complex().real

    def real_sign(self) -> int:
        """Sign (-1, 0, 1) of a real scalar a + c*sqrt2, decided exactly."""
        if not self.is_real():
            raise ValueError("sign of a non-real scalar")
        a, c = self.xa, self.xc
        if c == 0:
            return 0 if a == 0 else (1 if a > 0 else -1)
        if a == 0:
            return 1 if c > 0 else -1
        if (a > 0) == (c > 0):
            return 1 if a > 0 else -1
        # opposite signs: |a| vs sqrt2*|c| decided by squaring
        if a * a > 2 * c * c:
            return 1 if a > 0 else -1
        return 1 if c > 0 else -1

    def digit_count(self) -> int:
        """Max decimal digit count over the four numerators and denominator,
        counted without str(), which refuses ints past 4300 digits."""
        return _decimal_digits(max(abs(self.xa), abs(self.xb),
                                   abs(self.xc), abs(self.xd), self.den))

    # -- text form ---

    def to_text(self) -> str:
        """Canonical literal, e.g. '1/2*r2 + 1/2*i*r2' or '-1'."""
        terms = []
        for frac, suffix in ((self.a, ""), (self.b, "*i"),
                             (self.c, "*r2"), (self.d, "*i*r2")):
            if frac == 0:
                continue
            mag = abs(frac)
            body = str(mag.numerator) if mag.denominator == 1 \
                else f"{mag.numerator}/{mag.denominator}"
            terms.append(("-" if frac < 0 else "+", body + suffix))
        if not terms:
            return "0"
        first_sign, first_body = terms[0]
        out = ("-" if first_sign == "-" else "") + first_body
        for sign, body in terms[1:]:
            out += f" {sign} {body}"
        return out

    def __repr__(self):
        return f"ExactScalar({self.to_text()})"


def _decimal_digits(v: int) -> int:
    """len(str(v)) for an int v >= 0, from its bit length.  With b bits,
    2^(b-1) <= v < 2^b, so v has k + 1 or k + 2 digits, k being
    floor((b - 1) log10 2); one comparison with 10^(k+1) decides."""
    bits = v.bit_length()
    if bits == 0:
        return 1
    k = (bits - 1) * _LOG10_2_NUM // _LOG10_2_DEN
    return k + 1 + (v >= 10 ** (k + 1))


ZERO = ExactScalar(0)
ONE = ExactScalar(1)
MINUS_ONE = ExactScalar(-1)
I_UNIT = ExactScalar(0, 1)
SQRT2 = ExactScalar(0, 0, 1)
HALF_SQRT2 = ExactScalar(0, 0, Fraction(1, 2))
TWO = ExactScalar(2)
HALF = ExactScalar(Fraction(1, 2))


# -- parsing ---

_TERM_RE = re.compile(r"[+-]|[^+-]+")
_RAT_RE = re.compile(r"^\d+(/\d+)?$")


def parse_scalar(text: str) -> ExactScalar:
    """Parse a scalar literal: terms 'p/q', 'p/q*i', 'p/q*r2', 'p/q*i*r2'
    joined by '+'/'-'; whitespace-insensitive; coefficient may be omitted
    ('i', 'r2', 'i*r2' mean coefficient 1)."""
    compact = "".join(text.split())
    if not compact:
        raise ValueError("empty scalar literal")
    tokens = _TERM_RE.findall(compact)
    result = ZERO
    sign = 1
    expecting_term = True
    for tok in tokens:
        if tok in "+-":
            if expecting_term and tok == "-":
                sign = -sign
                continue
            if expecting_term:
                continue
            sign = 1 if tok == "+" else -1
            expecting_term = True
            continue
        if not expecting_term:
            raise ValueError(f"unexpected term {tok!r} in scalar literal")
        result = result + _parse_term(tok, sign, text)
        sign = 1
        expecting_term = False
    if expecting_term:
        raise ValueError(f"dangling sign in scalar literal {text!r}")
    return result


def _parse_term(term: str, sign: int, whole: str) -> ExactScalar:
    coeff = None
    has_i = False
    has_r2 = False
    for factor in term.split("*"):
        if factor == "i":
            if has_i:
                raise ValueError(f"repeated 'i' in term of {whole!r}")
            has_i = True
        elif factor == "r2":
            if has_r2:
                raise ValueError(f"repeated 'r2' in term of {whole!r}")
            has_r2 = True
        elif _RAT_RE.match(factor):
            if coeff is not None:
                raise ValueError(f"two coefficients in term of {whole!r}")
            if "/" in factor:
                num, den = factor.split("/")
                if int(den) == 0:
                    raise ValueError(f"zero denominator in {whole!r}")
                coeff = Fraction(int(num), int(den))
            else:
                coeff = Fraction(int(factor))
        else:
            raise ValueError(f"bad factor {factor!r} in scalar literal {whole!r}")
    value = (coeff if coeff is not None else Fraction(1)) * sign
    if has_i and has_r2:
        return ExactScalar(0, 0, 0, value)
    if has_i:
        return ExactScalar(0, value)
    if has_r2:
        return ExactScalar(0, 0, value)
    return ExactScalar(value)
