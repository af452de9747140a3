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

import os
import sys
import threading
from collections.abc import Iterable
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from math import gcd

from .intfactor import FactorBudget, FactorResult, factorize, small_factors
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


def high_totient_count(x: int, k: int) -> int:
    """How many n <= x satisfy phi(n*k) > (2/3) * c(k) * n * k, strictly.

    c(k) is totient_density_constant(k).  With g = gcd(n, k),
    phi(n*k) = phi(n) * phi(k) * g / phi(g), and g <= n, so one sieve of phi
    up to x serves every n.  The comparison is multiplied through by phi(g)
    and cleared of denominators, so it runs on exact integers and ties (for
    instance n = 3, k = 1) are excluded.
    """
    if x < 1 or k < 1:
        raise ValueError("both arguments must be >= 1")
    c = totient_density_constant(k)
    phi = totient_sieve(x)
    left = 3 * c.denominator * euler_phi(k)
    right = 2 * c.numerator * k
    count = 0
    for n in range(1, x + 1):
        g = gcd(n, k)
        if left * phi[n] * g > right * n * phi[g]:
            count += 1
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
    factors the norms of many levels at once on the process's CPUs, ahead of
    level(n), which then reads each level off its norm's factorization;
    every result, and every exception, is the one level(n) alone gives."""

    def __init__(self, a: QuadInt, budget: FactorBudget | None = None):
        if a.is_zero or a.is_unit():
            raise ValueError("base must be neither zero nor of magnitude one")
        self.a = a
        self.budget = budget or FactorBudget()
        self._values: dict[int, QuadInt] = {}
        self._levels: dict[int, IdealFactorization] = {}
        # factorize(|Nm Phi_n(a)|, budget), or the exception it raised, until level(n) reads it
        self._norms: dict[int, FactorResult | Exception] = {}
        self._decompositions: list[Decomposition] = []

    def value(self, n: int) -> QuadInt:
        """Phi_n(a), evaluated once per cache."""
        if n not in self._values:
            self._values[n] = cyclotomic_eval(n, self.a)
        return self._values[n]

    def level(self, n: int) -> IdealFactorization:
        """The ideal factorization of Phi_n(a) under cache.budget, factored once per cache."""
        if n not in self._levels:
            norm = self._norms.pop(n, None)
            if isinstance(norm, Exception):
                raise norm
            self._levels[n] = factor_principal(self.value(n), self.budget, norm)
        return self._levels[n]

    def factor_levels(self, levels: Iterable[int]) -> None:
        """Factor the norms of the given levels now, in forked workers on every usable CPU.

        The parent evaluates each Phi_n(a); one worker per CPU in the
        affinity mask, and at most one per norm that trial division alone
        cannot finish (above trial_limit**2), factors the norms, largest
        first (Graham's longest-processing-time rule).  Every worker has
        exited when this returns.  factorize is a pure function of (norm,
        budget), so level(n) then gives exactly what it gives without this
        call, exceptions included.  With one CPU, fewer than two such norms,
        no fork, or other threads running, nothing happens here, and
        level(n) factors each level in-process when it is first read.
        """
        cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") and hasattr(os, "fork") else 1
        # a fork copies no other thread, but it does copy the locks they hold
        if cpus < 2 or threading.active_count() > 1:
            return
        norms = {n: self.value(n).abs_norm() for n in set(levels) - self._levels.keys()}
        large = sum(nm > self.budget.trial_limit**2 for nm in norms.values())
        if large < 2:
            return
        try:
            self._norms.update(_factor_in_pool(norms, self.budget, min(cpus, large)))
        except OSError:
            pass  # the pool could not start: level(n) factors in-process

    def sweep(self, n_max: int) -> list[Decomposition]:
        """Decompositions of levels 1..n_max; each level is decomposed once per cache."""
        for n in range(len(self._decompositions) + 1, n_max + 1):
            self._decompositions.append(decompose(self, n))
        return self._decompositions[: max(n_max, 0)]


def _factor_in_pool(norms: dict[int, int], budget: FactorBudget,
                    workers: int) -> dict[int, FactorResult | Exception]:
    """factorize(norm, budget), or the exception it raised, for each level's
    norm, in forked workers that take the largest norm first."""
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    # no worker may replay output still buffered in the parent
    sys.stdout.flush()
    sys.stderr.flush()
    pool = ProcessPoolExecutor(workers, multiprocessing.get_context("fork"), _start_worker, (os.getpid(),))
    try:
        jobs = {n: pool.submit(factorize, norms[n], budget) for n in sorted(norms, key=norms.get, reverse=True)}
        # a worker that died leaves its levels to level(n)
        return {n: job.exception() or job.result() for n, job in jobs.items()
                if not isinstance(job.exception(), BrokenProcessPool)}
    except BaseException:
        # stop the workers now rather than wait for their current norms;
        # the executor has no public call for that before Python 3.14
        for process in pool._processes.values():
            process.kill()
        raise
    finally:
        pool.shutdown(cancel_futures=True)


def _start_worker(parent: int) -> None:
    """Ignore SIGINT, which the parent handles, and exit soon after the parent dies."""
    import signal
    import time

    signal.signal(signal.SIGINT, signal.SIG_IGN)

    def watch() -> None:
        while os.getppid() == parent:
            time.sleep(0.1)
        os._exit(1)

    threading.Thread(target=watch, daemon=True).start()


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
