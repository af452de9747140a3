"""Prime ideals of the supported rings: splitting, valuations, residue rings.

A prime ideal is recorded as (p, kind, t): the rational prime below it, how p
decomposes (split / inert / ramified, or the degenerate rational kind), and
for kinds with residue degree one the root t of the generator's minimal
polynomial mod p that pins down which prime above p is meant.  Valuations at
split primes use Newton lifting of t to exactly the p-adic precision the
element's norm demands.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .intfactor import FactorBudget, certify_prime, factorize, padic_valuation, sqrt_mod_prime
from .qfield import FieldSpec, InvariantViolation, QuadInt

KIND_SPLIT = "split"
KIND_INERT = "inert"
KIND_RAMIFIED = "ramified"
KIND_RATIONAL = "rational"

_KINDS = (KIND_RATIONAL, KIND_SPLIT, KIND_RAMIFIED, KIND_INERT)
_KIND_ORDER = {kind: rank for rank, kind in enumerate(_KINDS)}


class BudgetExhausted(RuntimeError):
    """A step needed a complete factorization the effort budget could not deliver."""


@dataclass(frozen=True)
class PrimeIdeal:
    """A maximal ideal above the rational prime p."""

    field: FieldSpec
    p: int
    kind: str
    t: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"unknown prime kind {self.kind!r}")
        if (self.kind == KIND_RATIONAL) != self.field.is_rational:
            raise ValueError("rational kind is exactly the rational-mode case")
        if self.kind in (KIND_SPLIT, KIND_RAMIFIED):
            if self.t is None or not 0 <= self.t < self.p:
                raise ValueError(f"kind {self.kind} needs a root t in [0, p)")
        elif self.t is not None:
            raise ValueError(f"kind {self.kind} carries no root parameter")

    @property
    def norm(self) -> int:
        return self.p * self.p if self.kind == KIND_INERT else self.p

    def sort_key(self) -> tuple[int, int, int]:
        return (self.p, _KIND_ORDER[self.kind], -1 if self.t is None else self.t)

    def as_dict(self) -> dict:
        """The place as the leading keys of an output row; t is None unless split or ramified."""
        return {"p": self.p, "kind": self.kind, "t": self.t, "norm": self.norm}

    def label(self) -> str:
        if self.t is None:
            return f"({self.p},{self.kind})"
        return f"({self.p},{self.kind},{self.t})"

    def __str__(self) -> str:
        return self.label()


def _place_roots(field: FieldSpec, p: int) -> tuple[int, ...]:
    """The roots t mod the prime p of w**2 - T*w + N in a quadratic ring.

    Two sorted roots when p splits, the double root when p ramifies, none
    when p is inert; each root names the place P = (p, w - t).
    """
    trace, nm = field.omega_trace, field.omega_norm
    if p == 2:
        # T even means p ramifies; with T odd, w**2 + w + N has both roots or none
        if trace % 2 == 0:
            return (nm % 2,)
        return (0, 1) if nm % 2 == 0 else ()
    inv2 = (p + 1) // 2
    disc = field.discriminant
    if disc % p == 0:
        return (trace * inv2 % p,)
    s = sqrt_mod_prime(disc, p)
    if s is None:
        return ()
    return tuple(sorted(((trace + s) * inv2 % p, (trace - s) * inv2 % p)))


def _places_over(field: FieldSpec, p: int) -> tuple[PrimeIdeal, ...]:
    """The primes of the ring over p, which the caller knows to be prime."""
    if field.is_rational:
        return (PrimeIdeal(field, p, KIND_RATIONAL),)
    roots = _place_roots(field, p)
    if not roots:
        return (PrimeIdeal(field, p, KIND_INERT),)
    kind = KIND_SPLIT if len(roots) == 2 else KIND_RAMIFIED
    return tuple(PrimeIdeal(field, p, kind, t) for t in roots)


def primes_above(field: FieldSpec, p: int) -> tuple[PrimeIdeal, ...]:
    """The primes of the ring over the rational prime p, split pair sorted by t.

    p must be proved prime by certify_prime, which reads p alone.
    """
    verdict = certify_prime(p)
    if verdict is False:
        raise ValueError(f"{p} is not prime")
    if verdict is None:
        raise ValueError(f"no proof reached the probable prime {p}")
    return _places_over(field, p)


def lifted_root(P: PrimeIdeal, precision: int) -> int:
    """Newton-lift P's simple root t of x^2 - trace*x + norm mod p to mod p**precision."""
    if P.kind != KIND_SPLIT:
        raise ValueError("root lifting applies to split primes only")
    trace, nm, p = P.field.omega_trace, P.field.omega_norm, P.p
    root = P.t
    prec = 1
    while prec < precision:
        prec = min(2 * prec, precision)
        mod = p**prec
        fval = (root * root - trace * root + nm) % mod
        # derivative 2t - trace is a unit mod p exactly because the root is simple
        fder = (2 * root - trace) % mod
        root = (root - fval * pow(fder, -1, mod)) % mod
    return root


def _check_field(P: PrimeIdeal, gamma: QuadInt) -> None:
    if gamma.field != P.field:
        raise ValueError("element and prime live in different fields")


def element_valuation(P: PrimeIdeal, gamma: QuadInt) -> int:
    """The exponent of P in the principal ideal (gamma), gamma != 0."""
    _check_field(P, gamma)
    if gamma.is_zero:
        raise ValueError("the zero element has infinite valuation")
    p = P.p
    if P.kind == KIND_RATIONAL:
        return padic_valuation(gamma.x, p)
    norm_val = gamma.norm()
    if norm_val % p:
        return 0
    full = padic_valuation(norm_val, p)
    if P.kind == KIND_INERT:
        # the norm of an inert prime contributes in squares
        if full % 2:
            raise InvariantViolation(f"odd valuation {full} of a norm at the inert prime {p}")
        return full // 2
    if P.kind == KIND_RAMIFIED:
        return full
    residue = residue_reduce(P, gamma, full)
    return full if residue == 0 else padic_valuation(residue, p)


def _residue_model(P: PrimeIdeal, m: int) -> tuple[int, int | None]:
    """How O/P^m is represented: (modulus, root) maps x + y*w to (x + y*root) % modulus,
    and (modulus, None) keeps the coordinate pair (x % modulus, y % modulus)."""
    if m < 1:
        raise ValueError("precision must be >= 1")
    if P.kind == KIND_RATIONAL:
        return P.p**m, 0
    if P.kind == KIND_INERT:
        return P.p**m, None
    if m == 1:
        return P.p, P.t
    if P.kind == KIND_SPLIT:
        return P.p**m, lifted_root(P, m)
    if m % 2 == 0:
        # P**m is generated by the rational prime power p**(m/2)
        return P.p ** (m // 2), None
    raise ValueError("odd precision above 1 at a ramified prime has no plain integer model")


def residue_reduce(P: PrimeIdeal, gamma: QuadInt, m: int = 1):
    """Canonical image of gamma in O/P^m (int, or coordinate pair)."""
    _check_field(P, gamma)
    mod, root = _residue_model(P, m)
    if root is None:
        return (gamma.x % mod, gamma.y % mod)
    return (gamma.x + gamma.y * root) % mod


def residue_pow(a: QuadInt, e: int, P: PrimeIdeal, m: int = 1):
    """a**e in O/P^m, in the canonical encoding of residue_reduce."""
    if e < 0:
        raise ValueError("exponent must be >= 0")
    _check_field(P, a)
    mod, root = _residue_model(P, m)
    if root is None:
        power = pow(a, e, mod)
        return (power.x, power.y)
    return pow(a.x + a.y * root, e, mod)


def is_unit_mod(P: PrimeIdeal, a: QuadInt) -> bool:
    return residue_reduce(P, a, 1) not in (0, (0, 0))


def _order_dividing(P: PrimeIdeal, a: QuadInt, multiple: int, primes) -> int:
    """The order of a in (O/P)*, given a multiple of it and every prime dividing that multiple."""
    order = multiple
    for ell in primes:
        while order % ell == 0 and residue_pow(a, order // ell, P, 1) in (1, (1, 0)):
            order //= ell
    return order


def residue_order(P: PrimeIdeal, a: QuadInt, budget: FactorBudget | None = None) -> int:
    """Multiplicative order of a in (O/P)*, reduced from Nm(P) - 1; needs that fully factored."""
    if not is_unit_mod(P, a):
        raise ValueError(f"{a} is not a unit modulo {P.label()}")
    group_size = P.norm - 1
    if group_size == 0:
        return 1
    budget = budget or FactorBudget()
    # trial division to past sqrt(group_size) already completes the factorization;
    # the power of two bounds the sieve limits primes_up_to caches
    limit = min(budget.trial_limit, 1 << math.isqrt(group_size).bit_length())
    decomposition = factorize(group_size, FactorBudget(limit, budget.rho_iterations))
    if not decomposition.complete:
        raise BudgetExhausted(f"cannot fully factor {group_size} to compute an order")
    return _order_dividing(P, a, group_size, decomposition.factors)


class IdealFactorization:
    """A nonzero integral ideal as known prime exponents plus an unfactored tail.

    `cofactor` is the portion of the norm that the budget could not resolve
    into primes; everything in `exponents` is certified.  Products of these
    objects multiply exponents and cofactors independently.
    """

    __slots__ = ("field", "exponents", "cofactor")

    def __init__(self, field: FieldSpec, exponents: dict[PrimeIdeal, int] | None = None, cofactor: int = 1):
        self.field = field
        self.exponents = {P: e for P, e in (exponents or {}).items() if e}
        self.cofactor = int(cofactor)
        if any(e < 0 for e in self.exponents.values()) or self.cofactor < 1:
            raise ValueError("ideal exponents and cofactor must be nonnegative")

    @property
    def complete(self) -> bool:
        return self.cofactor == 1

    def items_sorted(self) -> list[tuple[PrimeIdeal, int]]:
        return sorted(self.exponents.items(), key=lambda item: item[0].sort_key())

    def exponent(self, P: PrimeIdeal) -> int:
        return self.exponents.get(P, 0)

    def norm(self) -> int:
        out = self.cofactor
        for P, e in self.exponents.items():
            out *= P.norm**e
        return out

    def norm_radical(self) -> int:
        """Norm of the radical of the known part (cofactor excluded)."""
        out = 1
        for P in self.exponents:
            out *= P.norm
        return out

    def is_trivial(self) -> bool:
        return not self.exponents and self.cofactor == 1

    def mul(self, other: IdealFactorization) -> IdealFactorization:
        if other.field != self.field:
            raise ValueError("cannot multiply ideals of different fields")
        merged = dict(self.exponents)
        for P, e in other.exponents.items():
            merged[P] = merged.get(P, 0) + e
        return IdealFactorization(self.field, merged, self.cofactor * other.cofactor)

    def gcd(self, other: IdealFactorization) -> IdealFactorization:
        if other.field != self.field:
            raise ValueError("cannot intersect ideals of different fields")
        if not (self.complete and other.complete):
            raise BudgetExhausted("gcd of partially factored ideals is not determined")
        shared = {
            P: min(e, other.exponents[P])
            for P, e in self.exponents.items()
            if P in other.exponents
        }
        return IdealFactorization(self.field, shared)

    def restrict(self, keep) -> IdealFactorization:
        """Sub-ideal of the known part keeping primes with keep(P, e) true."""
        return IdealFactorization(
            self.field, {P: e for P, e in self.exponents.items() if keep(P, e)}
        )

    def squarefree_part(self) -> IdealFactorization:
        return self.restrict(lambda P, e: e == 1)

    def powerful_part(self) -> IdealFactorization:
        return self.restrict(lambda P, e: e >= 2)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, IdealFactorization)
            and self.field == other.field
            and self.exponents == other.exponents
            and self.cofactor == other.cofactor
        )

    def __repr__(self) -> str:
        body = " * ".join(
            f"{P.label()}^{e}" if e > 1 else P.label() for P, e in self.items_sorted()
        )
        if self.cofactor != 1:
            body = f"{body} * <unfactored {self.cofactor}>" if body else f"<unfactored {self.cofactor}>"
        return f"IdealFactorization({body or '(1)'})"


def _exact_factorization(gamma: QuadInt, rational_primes) -> IdealFactorization:
    """(gamma) with exact valuations at every prime above the given rational primes.

    The rest of the norm is the cofactor, so it is coprime to those primes:
    none of them can hide there with an undercounted exponent.
    """
    field = gamma.field
    nm = gamma.abs_norm()
    exponents: dict[PrimeIdeal, int] = {}
    for p in rational_primes:
        above = _places_over(field, p)
        exponents[above[0]] = element_valuation(above[0], gamma)
        if len(above) == 2:
            # both places above a split p have norm p
            exponents[above[1]] = padic_valuation(nm, p) - exponents[above[0]]
    known = 1
    for P, e in exponents.items():
        known *= P.norm**e
    return IdealFactorization(field, exponents, nm // known)


def factor_principal(gamma: QuadInt, budget: FactorBudget | None = None) -> IdealFactorization:
    """Factor the principal ideal (gamma) within the effort budget."""
    if gamma.is_zero:
        raise ValueError("cannot factor the zero ideal")
    nm = gamma.abs_norm()
    if nm == 1:
        return IdealFactorization(gamma.field)
    return _exact_factorization(gamma, sorted(factorize(nm, budget).factors))
