"""Exact scalar arithmetic: arbitrary-precision rationals and prime fields F_p.

Scalars are plain Python values (fractions.Fraction for the rationals,
ints in [0, p) for F_p); a field object supplies the operations and the
parsing/formatting used at the I/O boundary.  No rounding ever occurs.
"""

from __future__ import annotations

from fractions import Fraction


class FieldError(ValueError):
    """Raised on malformed scalars or incompatible field operands."""


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


class RationalField:
    """The rationals; elements are Fraction (always in lowest terms)."""

    characteristic = 0
    zero = Fraction(0)
    one = Fraction(1)

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("Q")

    def __repr__(self):
        return "Q"

    def from_int(self, n):
        return Fraction(n)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return 1 / a

    def parse(self, s: str):
        try:
            return Fraction(s.strip())
        except (ValueError, ZeroDivisionError) as e:
            raise FieldError(f"bad rational scalar {s!r}: {e}") from None

    def fmt(self, a) -> str:
        return str(a)


class PrimeField:
    """F_p for a prime p < 2**31; elements are ints reduced to [0, p)."""

    zero = 0
    one = 1

    def __init__(self, p: int):
        if not (2 <= p < 2**31):
            raise FieldError(f"modulus {p} out of range")
        if not _is_prime(p):
            raise FieldError(f"modulus {p} is not prime")
        self.p = p

    @property
    def characteristic(self):
        return self.p

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("F", self.p))

    def __repr__(self):
        return f"F{self.p}"

    def from_int(self, n):
        return n % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def inv(self, a):
        a %= self.p
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, self.p - 2, self.p)

    def parse(self, s: str):
        try:
            return int(s.strip(), 10) % self.p
        except ValueError:
            raise FieldError(f"bad F_{self.p} scalar {s!r}") from None

    def fmt(self, a) -> str:
        return str(a % self.p)


QQ = RationalField()


def field_from_descriptor(desc: str):
    """'Q' -> the rationals; 'F<p>' or 'Fp <p>' -> the prime field."""
    d = desc.strip()
    if d in ("Q", "QQ"):
        return QQ
    if d.startswith("F"):
        rest = d[1:].strip()
        if rest.startswith("p"):
            rest = rest[1:].strip()
        try:
            p = int(rest, 10)
        except ValueError:
            raise FieldError(f"bad field descriptor {desc!r}") from None
        return PrimeField(p)
    raise FieldError(f"bad field descriptor {desc!r}")
