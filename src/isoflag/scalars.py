"""Exact Gaussian-rational arithmetic, and the text form of rationals.

Every scalar in this package is an element of Q(i): a complex number whose
real and imaginary parts are rational.  Rank, isotropy and degree decisions
are exact at this field, so there is no tolerance management anywhere;
equality is equality.

The decisions run on Gaussian integers over integer denominators (linalg),
from parsing to the printed certificate, and instance generation draws its
flags and rows straight into that form.  Every matrix io reads (a flag
basis, A, an eigenbasis, a subspace's rows) is read into it as well.
Scalar, a pair of Fractions, is built only by the readers that return
Scalars (io.scalar_from_json and vector_from_json) and by the Scalar views
and constructors kept for them (Subspace.rows, Subspace.from_vectors, the
ExtensionLine constructor); no decision and no generated instance builds
one.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from math import gcd

from .errors import InputError, ParseError


def _coerce(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise InputError(f"expected int or Fraction, got {type(x).__name__}")


class Scalar:
    """A Gaussian rational re + im*i.  Treat instances as immutable."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = _coerce(re)
        self.im = _coerce(im)

    def __add__(self, other: "Scalar") -> "Scalar":
        return Scalar(self.re + other.re, self.im + other.im)

    def __sub__(self, other: "Scalar") -> "Scalar":
        return Scalar(self.re - other.re, self.im - other.im)

    def __neg__(self) -> "Scalar":
        return Scalar(-self.re, -self.im)

    def __mul__(self, other: "Scalar") -> "Scalar":
        return Scalar(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    def __truediv__(self, other: "Scalar") -> "Scalar":
        n = other.norm()
        if n == 0:
            raise ZeroDivisionError("division by zero Scalar")
        # z / w = z * conj(w) / |w|^2
        re = (self.re * other.re + self.im * other.im) / n
        im = (self.im * other.re - self.re * other.im) / n
        return Scalar(re, im)

    def norm(self) -> Fraction:
        """re^2 + im^2, a nonnegative rational."""
        return self.re * self.re + self.im * self.im

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __eq__(self, other) -> bool:
        if not isinstance(other, Scalar):
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self) -> int:
        return hash((self.re, self.im))

    def __repr__(self) -> str:
        if self.im == 0:
            return f"Scalar({self.re})"
        return f"Scalar({self.re}, {self.im})"


ZERO = Scalar(0)
ONE = Scalar(1)


_RATIONAL = re.compile(r"([+-]?[0-9]+)(?:/([+-]?[0-9]+))?")
# every character _RATIONAL can match
_RATIONAL_CHARS = "0123456789+-/"


def parse_rational(text: str, path: str = "") -> tuple[int, int]:
    """Parse a rational written as 'p/q' or 'p': ASCII decimal digits with an
    optional sign on each side, and nothing else (no spaces, no '_', no
    other digit scripts).  Returns it reduced, as (numerator, denominator)
    with a positive denominator.

    The grammar is _RATIONAL.  A string of its characters only is first
    read by int() on each side of one '/': on such strings int() accepts
    exactly an optionally signed run of digits (whitespace, '_' and other
    digit scripts, the other things it allows, are not among the
    characters), so a string it
    reads is one _RATIONAL matches, with the same value.  Everything else,
    a negative or zero denominator included, goes through the regular
    expression, which gives every error.  A numeral past int()'s digit limit
    (Python >= 3.11) is a ParseError too: it is bad input, not a bug."""
    if type(text) is str and not text.strip(_RATIONAL_CHARS):
        num, slash, den = text.partition("/")
        try:
            n = int(num)
            if not slash:
                return n, 1
            d = int(den)
        except ValueError:
            pass
        else:
            if d > 0:
                g = gcd(n, d)
                return (n, d) if g == 1 else (n // g, d // g)
    if not isinstance(text, str):
        raise ParseError(path, f"expected a rational string, got {type(text).__name__}")
    match = _RATIONAL.fullmatch(text)
    if match is None:
        raise ParseError(path, f"malformed rational {text!r}")
    num, den = match.groups()
    try:
        n, d = int(num), int(den or 1)
    except ValueError:
        # only past int()'s digit limit: the match is digits with a sign
        raise ParseError(path, f"numeral too long (over {sys.get_int_max_str_digits()} "
                               "digits)") from None
    if d == 0:
        raise ParseError(path, "zero denominator")
    if d < 0:
        n, d = -n, -d
    g = gcd(n, d)
    return n // g, d // g


def parse_fraction(text: str, path: str = "") -> Fraction:
    """parse_rational as a Fraction."""
    return Fraction(*parse_rational(text, path))


def format_fraction(x: Fraction) -> str:
    """Canonical rendering: 'p' for integers, 'p/q' otherwise, q > 0."""
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"
