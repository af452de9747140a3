"""Exact arithmetic in rings of integers of imaginary quadratic fields.

Elements are stored in integral-basis coordinates x + y*w.  The generator w
depends on the squarefree parameter d: w = sqrt(-d) when d is 1 or 2 mod 4
("sqrt" basis) and w = (1 + sqrt(-d))/2 when d is 3 mod 4 ("half" basis).
A degenerate rational mode (d = 0: the ring is plain Z, trivial conjugation)
lets the same pipelines run against ordinary integers.  Every ring is Z[w] with
w^2 = T*w - N (T = omega_trace, N = omega_norm; T = N = 0 and y = 0 in
rational mode), so products, conjugates, norms and powers follow one rule.
Powers, exact or modular, come from _pair_pow, the package's one
left-to-right square-and-multiply on raw coordinate pairs.

Everything here is immutable and pure; no floating point appears anywhere.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property

from .intfactor import as_index, factorize

BASIS_SQRT = "sqrt"
BASIS_HALF = "half"


class InexactDivisionError(ArithmeticError):
    """Requested ring quotient does not exist (divisor does not divide)."""


class InvariantViolation(AssertionError):
    """A machine-checked identity the library guarantees has failed."""


def is_squarefree(n: int) -> bool:
    """n >= 1 has no square factor, by one factorize under the default budget,
    so a huge n costs a bounded attempt; ValueError when that is incomplete."""
    if n < 1:
        return False
    result = factorize(n)
    if not result.complete:
        raise ValueError(f"cannot decide whether {n} is squarefree within the factoring budget")
    return all(e == 1 for e in result.factors.values())


@dataclass(frozen=True)
class FieldSpec:
    """An imaginary quadratic field Q(sqrt(-d)), or Q itself (rational mode) when d = 0."""

    d: int

    def __post_init__(self) -> None:
        d = as_index(self.d, "d")
        object.__setattr__(self, "d", d)
        if d and (d < 1 or not is_squarefree(d)):
            raise ValueError(f"d must be a squarefree integer >= 1, got {d!r}")

    @classmethod
    def from_d(cls, d: int) -> FieldSpec:
        """FieldSpec(d) under its named-constructor spelling."""
        return cls(d)

    @property
    def is_rational(self) -> bool:
        return self.d == 0

    @property
    def degree(self) -> int:
        return 1 if self.is_rational else 2

    @cached_property
    def basis_kind(self) -> str | None:
        if self.is_rational:
            return None
        return BASIS_HALF if self.d % 4 == 3 else BASIS_SQRT

    @cached_property
    def discriminant(self) -> int:
        if self.is_rational:
            return 1
        return -self.d if self.d % 4 == 3 else -4 * self.d

    # w satisfies w^2 = omega_trace*w - omega_norm; rational mode has 0 and 0
    @cached_property
    def omega_trace(self) -> int:
        return 1 if self.basis_kind == BASIS_HALF else 0

    @cached_property
    def omega_norm(self) -> int:
        if self.is_rational:
            return 0
        return (1 + self.d) // 4 if self.basis_kind == BASIS_HALF else self.d

    def omega_name(self) -> str:
        if self.is_rational:
            return ""
        if self.d == 1:
            return "i"
        root = f"sqrt(-{self.d})"
        return root if self.basis_kind == BASIS_SQRT else f"(1+{root})/2"

    def element(self, x: int, y: int = 0) -> QuadInt:
        return QuadInt(as_index(x, "x"), as_index(y, "y"), self)

    def zero(self) -> QuadInt:
        return self.element(0)

    def one(self) -> QuadInt:
        return self.element(1)

    def parse_element(self, text: str) -> QuadInt:
        """Parse the CLI element syntax "x" or "x,y" (integral-basis coordinates)."""
        parts = [piece.strip() for piece in text.split(",")]
        if len(parts) not in (1, 2) or any(not piece for piece in parts):
            raise ValueError(f"element syntax is 'x' or 'x,y', got {text!r}")
        try:
            coords = [int(piece) for piece in parts]
        except ValueError:
            raise ValueError(f"element coordinates must be integers, got {text!r}") from None
        y = coords[1] if len(coords) == 2 else 0
        if self.is_rational and y != 0:
            raise ValueError("rational mode elements take a single coordinate")
        return self.element(coords[0], y)

    def describe(self) -> dict:
        if self.is_rational:
            return {"mode": "rational", "ring": "Z", "degree": 1}
        return {
            "mode": "imaginary-quadratic",
            "d": self.d,
            "discriminant": self.discriminant,
            "basis_kind": self.basis_kind,
            "omega": self.omega_name(),
            "integral_basis": ["1", self.omega_name()],
            "degree": 2,
        }

    def __str__(self) -> str:
        return "Q" if self.is_rational else f"Q(sqrt(-{self.d}))"


def _pair_pow(x: int, y: int, e: int, mod: int | None, trace: int, nm: int) -> tuple[int, int]:
    """(x + y*w)**e as a coordinate pair, e >= 0, with w**2 = trace*w - nm.

    The package's one square-and-multiply.  Left to right, so each
    multiplication is by the base itself; mod=None gives the exact power,
    otherwise both coordinates are reduced mod `mod` once per exponent bit.
    """
    rx, ry = (x, y) if e else (1, 0)
    if mod is not None:
        rx, ry = rx % mod, ry % mod
    for bit in bin(e)[3:]:  # empty for e in (0, 1)
        yy = ry * ry
        rx, ry = rx * rx - nm * yy, 2 * rx * ry + trace * yy
        if bit == "1":
            yy = ry * y
            rx, ry = rx * x - nm * yy, rx * y + ry * x + trace * yy
        if mod is not None:
            rx, ry = rx % mod, ry % mod
    return rx, ry


@dataclass(frozen=True)
class QuadInt:
    """An algebraic integer x + y*w in the fixed integral basis of its field."""

    x: int
    y: int
    field: FieldSpec

    def __post_init__(self) -> None:
        if self.field.is_rational and self.y != 0:
            raise ValueError("rational-mode elements have no w component")

    def _coerce(self, other) -> QuadInt:
        if isinstance(other, int):
            return QuadInt(other, 0, self.field)
        if isinstance(other, QuadInt):
            if other.field != self.field:
                raise ValueError(f"mixed fields: {self.field} vs {other.field}")
            return other
        raise TypeError(f"cannot combine QuadInt with {type(other).__name__}")

    def __add__(self, other) -> QuadInt:
        other = self._coerce(other)
        return QuadInt(self.x + other.x, self.y + other.y, self.field)

    __radd__ = __add__

    def __sub__(self, other) -> QuadInt:
        other = self._coerce(other)
        return QuadInt(self.x - other.x, self.y - other.y, self.field)

    def __rsub__(self, other) -> QuadInt:
        return self._coerce(other) - self

    def __neg__(self) -> QuadInt:
        return QuadInt(-self.x, -self.y, self.field)

    def __mul__(self, other) -> QuadInt:
        other = self._coerce(other)
        f = self.field
        yy = self.y * other.y
        return QuadInt(
            self.x * other.x - f.omega_norm * yy,
            self.x * other.y + self.y * other.x + f.omega_trace * yy,
            f,
        )

    __rmul__ = __mul__

    def __pow__(self, e: int, mod: int | None = None) -> QuadInt:
        """self**e; pow(self, e, mod) reduces both coordinates mod `mod`."""
        if e < 0:
            raise ValueError("negative exponents leave the ring")
        f = self.field
        return QuadInt(*_pair_pow(self.x, self.y, e, mod, f.omega_trace, f.omega_norm), f)

    def conjugate(self) -> QuadInt:
        # the conjugate of w is trace - w
        return QuadInt(self.x + self.field.omega_trace * self.y, -self.y, self.field)

    def norm(self) -> int:
        """Field norm.  Non-negative in imaginary quadratic mode; the element
        itself (signed) in rational mode."""
        f = self.field
        if f.is_rational:
            return self.x
        return self.x * self.x + f.omega_trace * self.x * self.y + f.omega_norm * self.y * self.y

    def abs_norm(self) -> int:
        return abs(self.norm())

    @property
    def is_zero(self) -> bool:
        return self.x == 0 and self.y == 0

    def is_unit(self) -> bool:
        return self.abs_norm() == 1

    def exact_div(self, other) -> QuadInt:
        """Quotient self/other inside the ring.

        Computed as self * conjugate(other) with coordinatewise division by
        the divisor norm.  Raises InexactDivisionError when the divisor does
        not divide self, ZeroDivisionError on a zero divisor.
        """
        other = self._coerce(other)
        if other.is_zero:
            raise ZeroDivisionError("division by zero element")
        f = self.field
        if f.is_rational:
            if self.x % other.x:
                raise InexactDivisionError(f"{other} does not divide {self}")
            return QuadInt(self.x // other.x, 0, f)
        nm = other.norm()
        num = self * other.conjugate()
        if num.x % nm or num.y % nm:
            raise InexactDivisionError(f"{other} does not divide {self}")
        return QuadInt(num.x // nm, num.y // nm, f)

    def coords(self) -> str:
        return f"{self.x},{self.y}" if not self.field.is_rational else str(self.x)

    def __str__(self) -> str:
        if self.field.is_rational or self.y == 0:
            return str(self.x)
        w = self.field.omega_name()
        if abs(self.y) == 1:
            ypart = w
        else:
            ypart = f"{abs(self.y)}*{w}"
        if self.x == 0:
            return ypart if self.y > 0 else f"-{ypart}"
        sign = "+" if self.y > 0 else "-"
        return f"{self.x}{sign}{ypart}"


class BaseClass(enum.Enum):
    """Bucket of a base element by the squared magnitude of its embeddings."""

    ZERO = "zero"
    ROOT_OF_UNITY = "root-of-unity"
    SMALL = "small"
    ELIGIBLE = "eligible"


def embedding_magnitude_sq(a: QuadInt) -> int:
    """min over embeddings sigma of |sigma(a)|^2, exactly.

    In imaginary quadratic mode the two embeddings are complex conjugates, so
    this is the norm.  In rational mode the single embedding is the identity
    and the value is a^2 (the degree-1 norm is signed and not a magnitude).
    """
    return a.x * a.x if a.field.is_rational else a.norm()


def classify_base(a: QuadInt) -> BaseClass:
    """zero / root-of-unity / small (magnitude^2 in {2,3}) / eligible (>= 4).

    Eligible matches min |sigma(a)| >= 2, the threshold the progression
    census needs; small bases still support the plain census pipeline.
    """
    if a.is_zero:
        return BaseClass.ZERO
    m = embedding_magnitude_sq(a)
    if m == 1:
        return BaseClass.ROOT_OF_UNITY
    if m <= 3:
        return BaseClass.SMALL
    return BaseClass.ELIGIBLE
