"""Cyclotomic values at ring elements, arithmetic functions, level splitting.

Phi_n(a) is evaluated through the Mobius product prod over d | n of
(a^d - 1)**mu(n/d) with exact ring division, so no coefficient tables are
needed at large n.  Zero and magnitude-one bases, where that product
degenerates, are rejected.

For a fixed base a the identity (a^n - 1) = prod over d | n of (Phi_d(a))
means every prime of (a^n - 1) lies in some divisor level, so a sweep over
levels n factors each cyclotomic value once.  When every divisor level is
complete, (a^n - 1) is the product of their ideals; otherwise the exact
valuations of the rational primes certified at the divisor levels are read
off a^n - 1.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import repeat
from math import gcd
from operator import gt, mul

from . import workers
from .intfactor import FactorBudget, small_factors
from .ideals import IdealFactorization, _exact_factorization, factor_principal
from .qfield import QuadInt


def divisors(n: int) -> list[int]:
    if n < 1:
        raise ValueError("divisors of positive integers only")
    out = [1]
    for p, e in small_factors(n).items():
        out = [d * p**k for d in out for k in range(e + 1)]
    return sorted(out)


def euler_phi(n: int) -> int:
    if n < 1:
        raise ValueError("totient of positive integers only")
    out = n
    for p in small_factors(n):
        out -= out // p
    return out


def mobius(n: int) -> int:
    if n < 1:
        raise ValueError("mobius of positive integers only")
    factors = small_factors(n)
    return 0 if any(e > 1 for e in factors.values()) else (-1) ** len(factors)


def totient_sieve(limit: int) -> list[int]:
    """phi(0..limit) with phi(0) = 0, by the standard multiplicative sieve."""
    phi = list(range(limit + 1))
    for p in range(2, limit + 1):
        if phi[p] == p:
            for multiple in range(p, limit + 1, p):
                phi[multiple] -= phi[multiple] // p
    return phi


def totient_density_constant(k: int) -> Fraction:
    """prod over primes p | k of (1 - gcd(k, p)/p**2), exactly.

    Since gcd(k, p) = p for p | k each factor is 1 - 1/p, so the product
    equals phi(k)/k; the literal product form is kept as the definition.
    """
    if k < 1:
        raise ValueError("constant defined for positive moduli")
    value = Fraction(1)
    for p in small_factors(k):
        value *= 1 - Fraction(gcd(k, p), p * p)
    return value


@lru_cache(maxsize=1)
def _totient_table(limit: int) -> tuple[int, ...]:
    """phi(0..limit) from one totient_sieve call, immutable, kept for the last limit only."""
    return tuple(totient_sieve(limit))


def high_totient_count(x: int, k: int) -> int:
    """How many n <= x satisfy phi(n*k) > (2/3) * c(k) * n * k, strictly.

    c(k) is totient_density_constant(k).  With g = gcd(n, k),
    phi(n*k) = phi(n) * phi(k) * g / phi(g), and g <= n, so one table of
    phi(0..x) serves every n and every k.  The comparison is multiplied
    through by phi(g) and cleared of denominators, so it runs on exact
    integers and ties (for instance n = 3, k = 1) are excluded.

    The table is built once per x and kept for the last x only: calls for
    many k at one x sieve once, and the table holds x + 1 ints while the
    process lives (about 1.1 MB at x = 30000).  Every n = r (mod k) has
    gcd(n, k) = gcd(r, k), so each residue class r in 1..min(k, x) is
    counted in one pass over phi[r::k].
    """
    if x < 1 or k < 1:
        raise ValueError("both arguments must be >= 1")
    c = totient_density_constant(k)
    phi = _totient_table(x)
    left = 3 * c.denominator * euler_phi(k)
    right = 2 * c.numerator * k
    count = 0
    for r in range(1, min(k, x) + 1):
        g = gcd(r, k)
        count += sum(map(gt, map(mul, phi[r::k], repeat(left * g)),
                         map(mul, range(r, x + 1, k), repeat(right * phi[g]))))
    return count


def cyclotomic_eval(n: int, a: QuadInt) -> QuadInt:
    """Phi_n(a) via the Mobius product over a^d - 1 with exact division."""
    if a.is_zero or a.is_unit():
        raise ValueError("base must be neither zero nor of magnitude one")
    numerator = a.field.one()
    denominator = a.field.one()
    for d in divisors(n):
        sign = mobius(n // d)
        if sign == 0:
            continue
        factor = a**d - 1
        if sign == 1:
            numerator = numerator * factor
        else:
            denominator = denominator * factor
    return numerator.exact_div(denominator)


class CycloFactorCache:
    """The one carrier of a base a and its effort budget; factors Phi_n(a) once per level.

    value(n) holds Phi_n(a) and level(n) its ideal factorization, one copy
    each.  level(n) and factor_levels are the readers of cache.budget: level
    readers that share a sweep take the cache, so a base and the budget its
    levels are factored under cannot disagree.  factor_levels(levels)
    factors many levels at once on the process's CPUs, ahead of level(n),
    which then returns each finished level, or raises the exception its
    factorization raised: every result is the one level(n) alone gives."""

    def __init__(self, a: QuadInt, budget: FactorBudget | None = None):
        if a.is_zero or a.is_unit():
            raise ValueError("base must be neither zero nor of magnitude one")
        self.a = a
        self.budget = budget or FactorBudget()
        self._values: dict[int, QuadInt] = {}
        # a worker's exception stays here until level(n) raises it
        self._levels: dict[int, IdealFactorization | Exception] = {}
        self._decompositions: list[Decomposition] = []

    def value(self, n: int) -> QuadInt:
        """Phi_n(a), evaluated once per cache."""
        if n not in self._values:
            self._values[n] = cyclotomic_eval(n, self.a)
        return self._values[n]

    def level(self, n: int) -> IdealFactorization:
        """The ideal factorization of Phi_n(a) under cache.budget, factored once per cache."""
        if isinstance(self._levels.get(n), Exception):
            raise self._levels.pop(n)
        if n not in self._levels:
            self._levels[n] = factor_principal(self.value(n), self.budget)
        return self._levels[n]

    def factor_levels(self, levels: Iterable[int]) -> None:
        """Factor the given levels and their divisor levels now, in forked
        workers on every usable CPU.

        The parent evaluates each Phi_d(a).  Through workers.fork_map, one
        worker per usable CPU, and at most one per norm above trial_limit**2
        (which trial division alone cannot finish), takes the levels largest
        norm first (Graham's longest-processing-time rule), each as soon as it
        is free, and returns factor_principal's finished level; all have
        exited when this returns.  level(d) then gives exactly what it gives
        without this call, exceptions included, and factors in-process any
        level whose worker died.  With one usable CPU (see
        workers.usable_cpus) or fewer than two such norms, nothing happens
        here.
        """
        cpus = workers.usable_cpus()
        if cpus < 2:
            return
        closure = {d for n in levels for d in divisors(n)} - self._levels.keys()
        norms = {d: self.value(d).abs_norm() for d in closure}
        large = sum(nm > self.budget.trial_limit**2 for nm in norms.values())
        if large < 2:
            return
        order = sorted(norms, key=norms.get, reverse=True)
        done = workers.fork_map(factor_principal, [(self.value(d), self.budget) for d in order],
                                min(cpus, large))
        # a level no worker finished is left to level(d)
        self._levels.update((order[i], result) for i, result in done.items())

    def sweep(self, n_max: int) -> list[Decomposition]:
        """Decompositions of levels 1..n_max; each level is decomposed once per cache."""
        for n in range(len(self._decompositions) + 1, n_max + 1):
            self._decompositions.append(decompose(self, n))
        return self._decompositions[: max(n_max, 0)]


@dataclass(frozen=True)
class Decomposition:
    """Squarefree/powerful split of (a^n - 1) and its cyclotomic-level slice.

    squarefree carries each certified prime of exponent exactly 1, powerful
    the full prime powers of exponent >= 2.  level_squarefree and
    level_powerful are the gcds of (Phi_n(a)) against those two parts.  When
    complete is false some primes are still hidden in cofactors and only the
    certified portion is reported.
    """

    a: QuadInt
    n: int
    power_value: QuadInt
    power_ideal: IdealFactorization
    level_value: QuadInt
    level_ideal: IdealFactorization
    squarefree: IdealFactorization
    powerful: IdealFactorization
    level_squarefree: IdealFactorization
    level_powerful: IdealFactorization

    @property
    def complete(self) -> bool:
        return self.power_ideal.complete

    def norm_summary(self) -> dict:
        return {
            "n": self.n,
            "norm_power_minus_one": abs(self.power_value.norm()),
            "norm_level_value": abs(self.level_value.norm()),
            "norm_squarefree": self.squarefree.norm(),
            "norm_powerful": self.powerful.norm(),
            "norm_level_squarefree": self.level_squarefree.norm(),
            "norm_level_powerful": self.level_powerful.norm(),
            "complete": self.complete,
        }


def decompose(cache: CycloFactorCache, n: int) -> Decomposition:
    """Split (a^n - 1), a = cache.a, into squarefree and powerful parts, plus
    the level slice; the levels d | n are read from the cache."""
    if n < 1:
        raise ValueError("level must be >= 1")
    a = cache.a
    power_value = a**n - 1
    levels = [cache.level(d) for d in divisors(n)]
    if all(level.complete for level in levels):
        # (a^n - 1) is the product of the Phi_d(a), d | n
        power_ideal = reduce(IdealFactorization.mul, levels)
    else:
        primes = {P.p for level in levels for P in level.exponents}
        power_ideal = _exact_factorization(power_value, sorted(primes))
    level = cache.level(n)
    squarefree = power_ideal.squarefree_part()
    powerful = power_ideal.powerful_part()

    def level_slice(part: IdealFactorization) -> IdealFactorization:
        return IdealFactorization(
            a.field, {P: min(e, part.exponent(P)) for P, e in level.exponents.items()}
        )

    return Decomposition(
        a=a,
        n=n,
        power_value=power_value,
        power_ideal=power_ideal,
        level_value=cache.value(n),
        level_ideal=level,
        squarefree=squarefree,
        powerful=powerful,
        level_squarefree=level_slice(squarefree),
        level_powerful=level_slice(powerful),
    )
