"""Cyclotomic values at ring elements, arithmetic functions, level splitting.

For a fixed base a, a^n - 1 = prod over d | n of Phi_d(a).  CycloFactorCache
evaluates Phi_n(a) from that identity alone: a^n - 1 divided exactly by the
values it already holds at the proper divisors of n, so neither coefficient
tables nor Mobius signs are needed at large n.  Zero and magnitude-one bases,
where some Phi_d(a) vanishes and the division above it fails, are rejected.

The same identity means every prime of (a^n - 1) lies in some divisor level,
so a sweep over levels factors each cyclotomic value once.  When every
divisor level is complete, (a^n - 1) is the product of their ideals;
otherwise the exact valuations of the rational primes certified at the
divisor levels are read off a^n - 1.

Density counts of n with phi(n*k) > (2/3) * c(k) * n * k compare integers
only and build no totient table: one byte row of verdicts per x and
g = gcd(n, k), shared by every k that has that g, in which the multiples of
each minimal failing product of primes prime to g are struck.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, reduce
from math import gcd, isqrt, prod
from operator import mul

from . import workers
from .intfactor import FactorBudget, _prime_stream, as_index, small_factors
from .ideals import IdealFactorization, _exact_factorization, factor_principal
from .qfield import QuadInt


def divisors(n: int) -> list[int]:
    out = [1]
    for p, e in small_factors(n).items():
        out = [d * p**k for d in out for k in range(e + 1)]
    return sorted(out)


def euler_phi(n: int) -> int:
    return prod((p - 1) * p ** (e - 1) for p, e in small_factors(n).items())


def mobius(n: int) -> int:
    factors = small_factors(n)
    return 0 if any(e > 1 for e in factors.values()) else (-1) ** len(factors)


def totient_sieve(limit: int) -> list[int]:
    """phi(0..limit) with phi(0) = 0, by the standard multiplicative sieve."""
    limit = as_index(limit, "limit")
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
    value = Fraction(1)
    for p in small_factors(k):
        value *= 1 - Fraction(gcd(k, p), p * p)
    return value


def _failing_products(limit: int, g: int) -> list[int]:
    """prod S <= limit for each prime set S, prime to g, that fails
    3 * prod(p - 1) > 2 * prod(p) while S less its largest prime passes.

    A depth-first walk over sets in increasing order of their primes.  A set
    passing with num = prod(p - 1), den = prod(p) fails with one larger prime
    q exactly when q * (3 * num - 2 * den) <= 3 * num, so its failing last
    primes are the smallest ones and the walk goes on from the rest, while
    den * q * (q + 1) <= limit leaves room for another prime.  Primes come from
    intfactor._prime_stream: up to isqrt(limit) for the walk, and further only
    when a failing last prime needs them.
    """
    sieved = isqrt(limit)
    primes = list(_prime_stream(sieved))
    products: list[int] = []

    def walk(num: int, den: int, start: int) -> None:
        nonlocal sieved
        fail_top = min(3 * num // (3 * num - 2 * den), limit // den)
        if fail_top > sieved:
            primes.extend(_prime_stream(fail_top, start=sieved + 1))
            sieved = fail_top
        for i in range(start, len(primes)):
            q = primes[i]
            if den * q > limit or (q > fail_top and den * q * (q + 1) > limit):
                return
            if g % q == 0:
                continue
            if q <= fail_top:
                products.append(den * q)
            else:
                walk(num * (q - 1), den * q, i + 1)

    walk(1, 1, 0)
    return products


def _verdict_row(x: int, g: int) -> bytes:
    """g's verdict row at x: byte m - 1 is 1 when n = g*m has 3 * g * phi(n) >
    2 * phi(g) * n, else 0, for m = 1..x // g.

    n passes exactly when its primes prime to g pass as a set (see
    high_totient_count), so the row starts as all ones and one slice
    assignment zeroes the multiples of each of _failing_products(x // g, g).
    """
    limit = x // g
    row = bytearray(b"\x01") * limit
    for product in _failing_products(limit, g):
        row[product - 1 :: product] = bytes(limit // product)
    return bytes(row)


@lru_cache(maxsize=1)
def _verdict_rows(x: int) -> dict[int, bytes]:
    """The verdict rows built so far at x, by g; kept for the last x only."""
    return {}


def high_totient_count(x: int, k: int) -> int:
    """How many n <= x satisfy phi(n*k) > (2/3) * c(k) * n * k, strictly.

    c(k) is totient_density_constant(k), which equals phi(k)/k.  With
    g = gcd(n, k), phi(n*k) = phi(n) * phi(k) * g / phi(g), so the condition
    reads 3 * g * phi(n) > 2 * phi(g) * n, and k enters only through g.
    Writing n = g*m, phi(n)/n = (phi(g)/g) * prod over the set T of primes of
    m prime to g of (1 - 1/p), so n passes exactly when
    3 * prod_T (p - 1) > 2 * prod_T p.  Adding a prime never makes a failing
    set pass, so n fails exactly when m is a multiple of the product of a
    failing set that passes without its largest prime: _verdict_row strikes
    those multiples, on integers, with no totient table.  Every n = r (mod k) has
    gcd(n, k) = gcd(r, k), so residue class r in 1..min(k, x) is the slice of
    g's row from m = r/g in steps of k/g.

    The rows are kept for the last x only, so calls for many k at one x build
    each g's row once; for k = 1..10 at x = 30000 they hold about 2.9 * x
    bytes.
    """
    x, k = as_index(x, "x"), as_index(k, "k")
    if x < 1 or k < 1:
        raise ValueError("both arguments must be >= 1")
    rows = _verdict_rows(x)
    count = 0
    for r in range(1, min(k, x) + 1):
        g = gcd(r, k)
        if g not in rows:
            rows[g] = _verdict_row(x, g)
        count += rows[g][r // g - 1 :: k // g].count(1)
    return count


def cyclotomic_eval(n: int, a: QuadInt) -> QuadInt:
    """Phi_n(a), as CycloFactorCache(a).value(n): every divisor level of n is
    evaluated on the way, and the cache is dropped on return."""
    return CycloFactorCache(a).value(n)


class CycloFactorCache:
    """The one carrier of a base a and its effort budget; factors Phi_n(a) once per level.

    value(n) holds Phi_n(a) and level(n) its ideal factorization, one copy
    each.  level(n) and factor_levels are the readers of cache.budget: level
    readers that share a sweep take the cache, so a base and the budget its
    levels are factored under cannot disagree.  factor_levels(levels)
    runs level(n) for many levels at once in forked workers, ahead of the
    sweep: every result is the one level(n) alone gives."""

    def __init__(self, a: QuadInt, budget: FactorBudget | None = None):
        if a.is_zero or a.is_unit():
            raise ValueError("base must be neither zero nor of magnitude one")
        self.a = a
        self.budget = budget or FactorBudget()
        self._values: dict[int, QuadInt] = {}
        self._levels: dict[int, IdealFactorization] = {}
        self._decompositions: list[Decomposition] = []

    def value(self, n: int) -> QuadInt:
        """Phi_n(a), evaluated once per cache: a^n - 1 divided exactly by the
        product of value(d) over the proper divisors d of n."""
        if n not in self._values:
            below = reduce(mul, map(self.value, divisors(n)[:-1]), self.a.field.one())
            self._values[n] = (self.a**n - 1).exact_div(below)
        return self._values[n]

    def level(self, n: int) -> IdealFactorization:
        """The ideal factorization of Phi_n(a) under cache.budget, factored once
        per cache, here or in a worker of factor_levels."""
        if n not in self._levels:
            self._levels[n] = factor_principal(self.value(n), self.budget)
        return self._levels[n]

    def factor_levels(self, levels: Iterable[int]) -> None:
        """Factor the given levels and their divisor levels now, in forked workers.

        The parent evaluates each Phi_d(a).  workers.fork_map runs level(d)
        over them largest norm first (Graham's longest-processing-time rule),
        each level as soon as a worker is free, with at most one worker per
        norm above trial_limit**2 (which trial division alone cannot finish),
        and the levels the workers finished are kept.  Any other level,
        whether its job raised, its worker died or nothing forked, is left to
        level(d) in-process, so every level and every exception is the one
        level(d) gives without this call.
        """
        closure = {d for n in levels for d in divisors(n)} - self._levels.keys()
        norms = {d: self.value(d).abs_norm() for d in closure}
        large = sum(nm > self.budget.trial_limit**2 for nm in norms.values())
        order = sorted(norms, key=norms.get, reverse=True)
        done = workers.fork_map(self.level, [(d,) for d in order], large)
        self._levels.update((order[i], level) for i, level in done.items())

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
    complete is false some primes are still hidden in a cofactor of (a^n - 1)
    or of (Phi_n(a)) and only the certified portion is reported.
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
        return self.power_ideal.complete and self.level_ideal.complete

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
