"""Effort-bounded integer factorization with honest primality reporting.

Factorization runs trial division over the primes of a segmented sieve of
Eratosthenes, then perfect power peeling, then Brent's rho with batched gcds,
all under an explicit budget.  Trial division takes batched gcds over prime
blocks (Bernstein, "How to find small factors of integers", 2002): one gcd
against the product of each block of consecutive primes, and division prime
by prime only inside a block whose gcd exceeds 1.

Primality is certified, never assumed: below the published deterministic
Miller-Rabin bound the fixed-base test is exact, above it a Pocklington
certificate is attempted from a partial factorization of n - 1.  When the
budget runs out the result carries the unfactored cofactor and is
flagged incomplete instead of silently pretending.
"""

from __future__ import annotations

import math
import random
from collections.abc import Iterator
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import compress

# Largest bound with a known 12-base deterministic Miller-Rabin witness set.
DETERMINISTIC_MR_BOUND = 3_317_044_064_679_887_385_961_981
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_EXTRA_PROBABLE_ROUNDS = 16
_MAX_CERT_DEPTH = 6
_TRIAL_BLOCK = 512
_SIEVE_SEGMENT = 1 << 15


@dataclass(frozen=True)
class FactorBudget:
    """Effort caps: trial division bound and total rho iterations per cofactor."""

    trial_limit: int = 10**6
    rho_iterations: int = 10**6

    def __post_init__(self) -> None:
        if self.trial_limit < 2 or self.rho_iterations < 0:
            raise ValueError("budget parameters out of range")


@dataclass(frozen=True)
class FactorResult:
    """Outcome of factoring n >= 1: n == cofactor * prod(p**e).

    Every key of `factors` is a certified prime.  `cofactor` collects
    whatever the budget could not resolve (1 when factorization completed).
    """

    n: int
    factors: dict[int, int] = field(default_factory=dict)
    cofactor: int = 1

    @property
    def complete(self) -> bool:
        return self.cofactor == 1


@lru_cache(maxsize=8)
def primes_up_to(limit: int) -> tuple[int, ...]:
    """All primes <= limit, from the segmented sieve."""
    return tuple(_prime_stream(limit))


def _prime_stream(bound: int, segment: int = _SIEVE_SEGMENT) -> Iterator[int]:
    """Yield the primes <= bound in increasing order from a segmented sieve.

    Each segment is a bytearray over `segment` consecutive odd numbers, crossed
    off by the odd primes <= sqrt(bound), so memory stays flat as bound grows.
    Those come from the stream itself, a recursion that ends below 2 and
    leaves primes_up_to's cache alone.
    """
    if bound < 2:
        return
    yield 2
    sieving = list(_prime_stream(math.isqrt(bound)))[1:]
    for lo in range(3, bound + 1, 2 * segment):
        hi = min(lo + 2 * segment, bound + 1)
        size = (hi - lo + 1) // 2  # slot i stands for lo + 2*i
        marks = bytearray(b"\x01") * size
        for p in sieving:
            first = p * p
            if first >= hi:
                break
            if first < lo:
                first = lo + (-lo) % p
                if first % 2 == 0:
                    first += p
            start = (first - lo) // 2
            marks[start::p] = bytes(len(range(start, size, p)))
        yield from compress(range(lo, hi, 2), marks)


@lru_cache(maxsize=8)
def _prime_blocks(limit: int) -> tuple[tuple[int, int, int], ...]:
    """(start, end, product) of each run of _TRIAL_BLOCK consecutive primes <= limit.

    start and end index into primes_up_to(limit).
    """
    primes = primes_up_to(limit)
    return tuple(
        (start, min(start + _TRIAL_BLOCK, len(primes)), math.prod(primes[start : start + _TRIAL_BLOCK]))
        for start in range(0, len(primes), _TRIAL_BLOCK)
    )


def small_factors(n: int) -> dict[int, int]:
    """Prime factorization {p: e} of a small n >= 1 by plain trial division."""
    if n < 1:
        raise ValueError("small_factors of positive integers only")
    factors: dict[int, int] = {}
    f = 2
    while f * f <= n:
        while n % f == 0:
            factors[f] = factors.get(f, 0) + 1
            n //= f
        f += 1
    if n > 1:
        factors[n] = factors.get(n, 0) + 1
    return factors


def padic_valuation(n: int, p: int) -> int:
    """Exponent of the prime p in n != 0."""
    if n == 0:
        raise ValueError("0 has infinite valuation")
    n = abs(n)
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def _miller_rabin_round(n: int, a: int, d: int, s: int) -> bool:
    """True when base a passes (n still possibly prime)."""
    x = pow(a, d, n)
    if x == 1 or x == n - 1:
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def is_probable_prime(n: int) -> bool:
    """Exact for n below DETERMINISTIC_MR_BOUND, strong probable prime above."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n == p:
            return True
        if n % p == 0:
            return False
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        if not _miller_rabin_round(n, a, d, s):
            return False
    if n >= DETERMINISTIC_MR_BOUND:
        rng = random.Random(n)
        for _ in range(_EXTRA_PROBABLE_ROUNDS):
            if not _miller_rabin_round(n, rng.randrange(2, n - 1), d, s):
                return False
    return True


def certify_prime(n: int, budget: FactorBudget | None = None, _depth: int = 0) -> bool | None:
    """True (proved prime), False (proved composite), None (undecided in budget)."""
    if n < 2:
        return False
    if n < DETERMINISTIC_MR_BOUND:
        return is_probable_prime(n)
    if not is_probable_prime(n):
        return False
    if _depth >= _MAX_CERT_DEPTH:
        return None
    return _pocklington(n, budget or FactorBudget(), _depth)


def _pocklington(n: int, budget: FactorBudget, depth: int) -> bool | None:
    """Pocklington-Lehmer certificate using a partial factorization of n - 1.

    Requires the certified-prime part F of n - 1 to exceed sqrt(n); every
    prime divisor of n is then 1 mod F, which is impossible for composite n.
    """
    nm1 = n - 1
    partial = _factor_with_budget(nm1, budget, depth + 1)
    factored_part = 1
    for p, e in partial.factors.items():
        factored_part *= p**e
    if factored_part * factored_part <= n:
        return None
    for q in partial.factors:
        settled = False
        for a in range(2, 64):
            if pow(a, nm1, n) != 1:
                return False
            g = math.gcd(pow(a, nm1 // q, n) - 1, n)
            if g == n:
                continue
            if g > 1:
                return False
            settled = True
            break
        if not settled:
            return None
    return True


def _integer_nth_root(n: int, k: int) -> int:
    """Floor of the k-th root of n >= 1."""
    if k == 1:
        return n
    if k == 2:
        return math.isqrt(n)
    x = 1 << (-(-n.bit_length() // k))
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def perfect_power(n: int) -> tuple[int, int]:
    """(root, k) with root**k == n and k maximal; (n, 1) when n is no power."""
    if n < 4:
        return n, 1
    for k in range(n.bit_length(), 1, -1):
        root = _integer_nth_root(n, k)
        if root >= 2 and root**k == n:
            return root, k
    return n, 1


def _brent_rho(n: int, max_iters: int, attempt: int) -> tuple[int | None, int]:
    """One Brent rho attempt on odd composite n.  Returns (factor or None, iterations)."""
    rng = random.Random(n * 1000003 + attempt)
    y = rng.randrange(1, n)
    c = rng.randrange(1, n)
    m = 128
    g, r, q = 1, 1, 1
    count = 0
    x = ys = y
    while g == 1:
        x = y
        for _ in range(r):
            y = (y * y + c) % n
        count += r
        k = 0
        while k < r and g == 1:
            ys = y
            chunk = min(m, r - k)
            for _ in range(chunk):
                y = (y * y + c) % n
                q = q * abs(x - y) % n
            count += chunk
            g = math.gcd(q, n)
            k += m
        r *= 2
        if count >= max_iters and g == 1:
            return None, count
    if g == n:
        g = 1
        while g == 1:
            ys = (ys * ys + c) % n
            g = math.gcd(abs(x - ys), n)
    if g == n:
        return None, count
    return g, count


def _split_composite(n: int, rho_budget: int) -> int | None:
    """Find a nontrivial factor of odd composite n within the iteration budget."""
    remaining = rho_budget
    attempt = 0
    while remaining > 0:
        factor, used = _brent_rho(n, remaining, attempt)
        remaining -= max(used, 1)
        attempt += 1
        if factor is not None:
            return factor
    return None


def _factor_with_budget(n: int, budget: FactorBudget, depth: int) -> FactorResult:
    if n < 1:
        raise ValueError("factorization target must be >= 1")
    if n == 1:
        return FactorResult(1)
    original = n
    factors: dict[int, int] = {}
    primes = primes_up_to(budget.trial_limit)
    for start, end, product in _prime_blocks(budget.trial_limit):
        if primes[start] * primes[start] > n:
            break
        if math.gcd(n, product) == 1:
            continue
        for p in primes[start:end]:
            if p * p > n:
                break
            while n % p == 0:
                factors[p] = factors.get(p, 0) + 1
                n //= p
    if n == 1:
        return FactorResult(original, factors)
    if n <= budget.trial_limit * budget.trial_limit:
        # all prime factors below the trial limit were removed
        factors[n] = factors.get(n, 0) + 1
        return FactorResult(original, factors)

    cofactor = 1
    stack: list[tuple[int, int]] = [(n, 1)]
    while stack:
        value, mult = stack.pop()
        root, power = perfect_power(value)
        if power > 1:
            stack.append((root, mult * power))
            continue
        verdict = certify_prime(value, budget, depth)
        if verdict is True:
            factors[value] = factors.get(value, 0) + mult
            continue
        if verdict is None:
            cofactor *= value**mult
            continue
        piece = _split_composite(value, budget.rho_iterations)
        if piece is None:
            cofactor *= value**mult
            continue
        stack.append((piece, mult))
        stack.append((value // piece, mult))
    # an unsplit piece may still hold copies of a prime certified from another piece
    for p in factors:
        while cofactor % p == 0:
            factors[p] += 1
            cofactor //= p
    return FactorResult(original, factors, cofactor)


def factorize(n: int, budget: FactorBudget | None = None) -> FactorResult:
    """Factor n >= 1 within the given effort budget."""
    return _factor_with_budget(n, budget or FactorBudget(), 0)
