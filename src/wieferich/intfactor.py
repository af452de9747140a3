"""Effort-bounded integer factorization with honest primality reporting.

Factorization runs trial division over the primes of a segmented sieve of
Eratosthenes, then perfect power peeling, then Brent's rho with batched gcds
and the elliptic curve method, all under an explicit budget.  Trial division
takes batched gcds over prime blocks (Bernstein, "How to find small factors
of integers", 2002): one gcd against the product of each block of consecutive
primes, and division prime by prime only inside a block whose gcd exceeds 1,
up to the last prime of that gcd.  It stops at the first cofactor that is a
prime below psi_13 (see below), where one Miller-Rabin test is a proof: the
cofactor is tested before the first block and after each block that divides
it.  Past trial division every piece has no prime factor up to the trial
limit L, so a perfect power r**k among them has r > L and only the k with
(L + 1)**k <= n are tried.

Each composite cofactor gets a splitting effort counted in rho iterations
(FactorBudget.rho_iterations).  Rho is given the first _RHO_SHARE = 10**5
of it, which Brent's doubling rounds may overrun; whatever rho leaves buys
ECM curves at _ECM_CURVE_PRICE = 2**15 iterations each (Lenstra, Ann. Math.
126, 1987).  The curves are Suyama's, sigma = 6, 7, ... in order, one
sequence per factorization, so no curve is retried on a piece of a number it
already failed on and every result is deterministic.  Each curve runs
Montgomery's x-only ladder to B1 = 2000 from the affine start point
u**3 / v**3, then a baby-step giant-step stage 2 with D = 2310 that covers
the primes up to B2 = 100 * B1 and normalises all its points with one
inversion (Montgomery, Math. Comp. 48, 1987).

Primality is certified, never assumed.  Below psi_13, the least strong
pseudoprime to the 13 prime bases 2..41, those bases are exact.  Above it
certify_prime needs an Atkin-Morain ECPP chain (Goldwasser-Kilian, J. ACM 46,
1999; Atkin-Morain, Math. Comp. 61, 1993) whose curves have complex
multiplication by one of the nine class-number-one discriminants, so their
j-invariants are integers and no class polynomial is needed.  Each step is
checked with the affine group law mod q: a slope denominator that is no unit
mod q, or equal x with y neither equal nor opposite, proves q composite.  A
curve order whose part left after the primes below 2**16 is still composite
is peeled by short rho runs, within the chain's fixed node count.  No proof
reads the budget.  When the budget runs out the factorization carries the
unfactored cofactor and is flagged incomplete instead of silently pretending.
"""

from __future__ import annotations

import math
import operator
import random
from array import array
from bisect import bisect_right
from collections.abc import Iterator
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import accumulate, compress, count

# psi_13, the least strong pseudoprime to the 13 prime bases 2..41
# (Sorenson-Webster, Math. Comp. 86, 2017): below it those bases are exact.
# Base 41 is needed: psi_12 = 318665857834031151167461 fools 2..37.
DETERMINISTIC_MR_BOUND = 3_317_044_064_679_887_385_961_981
# the packed trial-division primes and their block products take about 4.5 MiB at 10**7
_MAX_TRIAL_LIMIT = 10**7
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# psi_t for t = 1..13 (OEIS A014233; Jaeschke, Math. Comp. 61, 1993;
# Sorenson-Webster): the least strong pseudoprime to the first t prime bases,
# so below psi_t those t bases are exact
_MR_PSI = (
    2047, 1_373_653, 25_326_001, 3_215_031_751, 2_152_302_898_747, 3_474_749_660_383,
    341_550_071_728_321, 341_550_071_728_321, 3_825_123_056_546_413_051,
    3_825_123_056_546_413_051, 3_825_123_056_546_413_051, 318_665_857_834_031_151_167_461,
    DETERMINISTIC_MR_BOUND,
)
_EXTRA_PROBABLE_ROUNDS = 16
_TRIAL_BLOCK = 512
_SIEVE_SEGMENT = 1 << 15
_RHO_SHARE = 10**5
_ECM_CURVE_PRICE = 1 << 15
_ECM_FIRST_SIGMA = 6
_ECM_B1 = 2000
_ECM_B2 = 100 * _ECM_B1
_ECM_D = 2310
# the class-number-one discriminants -D and the j-invariants of their CM curves
_CM_J_INVARIANTS = {
    3: 0, 4: 1728, 7: -3375, 8: 8000, 11: -32768, 19: -884736,
    43: -884736000, 67: -147197952000, 163: -262537412640768000,
}
# ECPP strips the primes below this bound from curve orders, peels what
# stays composite by rho runs of _ECPP_RHO iterations, and spends at most
# _ECPP_MAX_NODES candidate orders and rho runs together per chain
_ECPP_STRIP_BOUND = 1 << 16
_ECPP_MAX_NODES = 64
_ECPP_RHO = 1 << 13
# the odd primes q up to 73 with their nonzero squares mod q, from which
# sqrt_mod_prime reads (q/p) by reciprocity
_RECIPROCITY_SQUARES = tuple(
    (q, frozenset(x * x % q for x in range(1, q)))
    for q in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73)
)
# (q, D, a, b, m, r, P): the curve y^2 = x^3 + a*x + b mod q with CM by D,
# an order m = k * r and the point P = (x, y)
EcppStep = tuple[int, int, int, int, int, int, tuple[int, int]]


@dataclass(frozen=True)
class FactorBudget:
    """Effort caps: the trial division bound, 2 to 10**7, and the splitting
    effort per composite cofactor counted in rho iterations.

    Rho is given min(rho_iterations, 10**5) of that effort; what it leaves
    buys ECM curves (B1 = 2000, B2 = 2 * 10**5, Suyama sigma = 6, 7, ...)
    at 2**15 iterations each.  At the default 10**6, Brent's doubling rounds
    stop rho at 131 070 iterations, which leaves 26 curves.
    """

    trial_limit: int = 10**6
    rho_iterations: int = 10**6

    def __post_init__(self) -> None:
        for name in ("trial_limit", "rho_iterations"):
            object.__setattr__(self, name, as_index(getattr(self, name), name))
        if not 2 <= self.trial_limit <= _MAX_TRIAL_LIMIT or self.rho_iterations < 0:
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
def primes_up_to(limit: int) -> memoryview:
    """All primes <= limit < 2**32, from the segmented sieve, in increasing order.

    They are packed as 4-byte unsigned integers behind a read-only view, so
    the cached table cannot change and costs 4 bytes per prime instead of a
    Python int each; indexing, slicing and iteration work as on a tuple.
    """
    return memoryview(array("I", _prime_stream(limit))).toreadonly()


def _prime_stream(bound: int, segment: int = _SIEVE_SEGMENT, start: int = 0) -> Iterator[int]:
    """Yield the primes p with start <= p <= bound in increasing order from a
    segmented sieve.

    Each segment is a bytearray over `segment` consecutive odd numbers from
    the first odd number >= max(start, 3), crossed off by the odd primes
    <= sqrt(bound), so memory stays flat as bound - start grows.  Those come
    from the stream itself, a recursion that ends below 2 and leaves
    primes_up_to's cache alone.
    """
    if bound < max(start, 2):
        return
    if start <= 2:
        yield 2
    sieving = list(_prime_stream(math.isqrt(bound)))[1:]
    for lo in range(max(start, 3) | 1, bound + 1, 2 * segment):
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
            slot = (first - lo) // 2
            marks[slot::p] = bytes(len(range(slot, size, p)))
        yield from compress(range(lo, hi, 2), marks)


@lru_cache(maxsize=8)
def _prime_blocks(limit: int) -> tuple[int, ...]:
    """The product of each run of _TRIAL_BLOCK consecutive primes <= limit.

    Block i holds primes_up_to(limit)[i * _TRIAL_BLOCK : (i + 1) * _TRIAL_BLOCK].
    """
    primes = primes_up_to(limit)
    return tuple(
        math.prod(primes[start : start + _TRIAL_BLOCK]) for start in range(0, len(primes), _TRIAL_BLOCK)
    )


def as_index(value: int, name: str) -> int:
    """value as an int by operator.index (so a bool reads as 0 or 1), or a
    TypeError that names the argument: a float or Fraction is never truncated."""
    try:
        return operator.index(value)
    except TypeError:
        raise TypeError(f"{name} must be an integer, not {value!r}") from None


def small_factors(n: int) -> dict[int, int]:
    """Prime factorization {p: e} of a small n >= 1 by plain trial division."""
    n = as_index(n, "n")
    if n < 1:
        raise ValueError("n must be a positive integer")
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
    if n == 0 or p < 2:
        raise ValueError("valuations are of n != 0 at primes p >= 2")
    n = abs(n)
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def sqrt_mod_prime(n: int, p: int) -> int | None:
    """A square root of n modulo the odd prime p, or None for a non-residue.

    One power and a square check at p = 3 mod 4, Atkin's formula (one power
    and a square check) at p = 5 mod 8.  At p = 1 mod 8 Tonelli-Shanks
    (Shanks, 1973; Cohen, GTM 138, Alg. 1.5.1) starts from the least
    non-residue z, read by reciprocity from the residues mod the odd primes
    up to 73 and found by Euler's criterion only past them, and from one
    power w = n**((q-1)/2), where p - 1 = q * 2**s with q odd: r = n*w and
    t = r*w.  A non-residue shows itself when the squaring loop reaches s
    squarings, so no Euler test of n is made.
    """
    n %= p
    if n == 0:
        return 0
    if p % 4 == 3:
        r = pow(n, (p + 1) // 4, p)
        return r if r * r % p == n else None
    if p % 8 == 5:
        # 2 is a non-residue, so i = (2n)**((p-1)/4) is a square root of -1 for residue n
        v = pow(2 * n, (p - 5) // 8, p)
        i = 2 * n * v * v % p
        r = n * v * (i - 1) % p
        return r if r * r % p == n else None
    # 2 is a residue and products of residues are residues, so the least
    # non-residue is an odd prime z < p, and (z/p) = (p mod z / z) as p = 1 mod 4
    for z, squares in _RECIPROCITY_SQUARES:
        if p % z not in squares:
            break
    else:
        z, half = z + 2, (p - 1) // 2
        while pow(z, half, p) != p - 1:
            z += 2
    s = ((p - 1) & (1 - p)).bit_length() - 1  # p - 1 = q * 2**s with q odd
    q = (p - 1) >> s
    w = pow(n, (q - 1) // 2, p)
    r = n * w % p  # n**((q+1)/2)
    m, c, t = s, pow(z, q, p), r * w % p  # t = n**q
    while t != 1:
        i, probe = 0, t
        while probe != 1:
            probe = probe * probe % p
            i += 1
            if i == m:
                return None
        b = pow(c, 1 << (m - i - 1), p)
        m, c, t, r = i, b * b % p, t * b * b % p, r * b % p
    return r


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
    """Exact for n below DETERMINISTIC_MR_BOUND, strong probable prime above.

    Below psi_t only the first t bases run, which are exact there; psi_t
    itself gets at least t + 1.
    """
    if n < 2:
        return False
    for p in _MR_BASES:
        if n == p:
            return True
        if n % p == 0:
            return False
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d * 2**s with d odd
    d = (n - 1) >> s
    for a in _MR_BASES[: bisect_right(_MR_PSI, n) + 1]:
        if not _miller_rabin_round(n, a, d, s):
            return False
    if n >= DETERMINISTIC_MR_BOUND:
        rng = random.Random(n)
        for _ in range(_EXTRA_PROBABLE_ROUNDS):
            if not _miller_rabin_round(n, rng.randrange(2, n - 1), d, s):
                return False
    return True


def certify_prime(n: int) -> bool | None:
    """True (proved prime), False (proved composite), None (undecided).

    Above DETERMINISTIC_MR_BOUND a probable prime is proved only by an
    Atkin-Morain ECPP chain, so the verdict depends on n alone.
    """
    n = as_index(n, "n")
    if n < 2:
        return False
    if n < DETERMINISTIC_MR_BOUND:
        return is_probable_prime(n)
    if not is_probable_prime(n):
        return False
    return True if _ecpp_chain(n) is not None else None


def _ecpp_bound(q: int) -> int:
    """(floor(q**(1/4)) + 2)**2 > (q**(1/4) + 1)**2: a prime order r above it proves q."""
    return (math.isqrt(math.isqrt(q)) + 2) ** 2


@lru_cache(maxsize=1)
def _ecpp_strip_product() -> int:
    """The product of the primes below 2**16, which ECPP strips from curve orders.

    Multiplied pairwise up a product tree, so that the large products meet
    only numbers of their own size.
    """
    layer = list(_prime_stream(_ECPP_STRIP_BOUND - 1))
    while len(layer) > 1:
        layer = [math.prod(layer[i : i + 2]) for i in range(0, len(layer), 2)]
    return layer[0]


def _ec_multiple(k: int, x: int, y: int, a: int, q: int) -> tuple[int, int] | None:
    """k * (x, y) for k >= 1 on y^2 = x^3 + a*x + b mod q, as an affine point; None is O.

    Left-to-right double-and-add with the affine group law.  Each slope's
    denominator is inverted by pow(den, -1, q), which raises ValueError when
    it is no unit mod q, and a sum of two points with equal x but y neither
    equal nor opposite raises ValueError too: for (x, y) on the curve either
    shows q composite.  Otherwise every denominator is nonzero and every test
    of x and y reads the same modulo each prime p | q, so each branch taken
    mod q is the one taken mod p and the result reduces to k * (x, y) over F_p.
    """

    def add(P1: tuple[int, int] | None, P2: tuple[int, int] | None) -> tuple[int, int] | None:
        # P2 is O only when P1 is: the loop adds R to itself or to P
        if P1 is None:
            return P2
        (x1, y1), (x2, y2) = P1, P2
        if x1 == x2:
            if (y1 + y2) % q == 0:
                return None
            if y1 != y2:
                raise ValueError("equal x with y neither equal nor opposite: q is composite")
            slope = (3 * x1 * x1 + a) * pow(2 * y1, -1, q) % q
        else:
            slope = (y2 - y1) * pow(x2 - x1, -1, q) % q
        x3 = (slope * slope - x1 - x2) % q
        return x3, (slope * (x1 - x3) - y1) % q

    P = R = (x % q, y % q)
    for bit in bin(k)[3:]:
        R = add(R, R)
        if bit == "1":
            R = add(R, P)
    return R


def _ecpp_step_holds(q: int, a: int, b: int, m: int, r: int, P: tuple[int, int]) -> bool:
    """True when P on y^2 = x^3 + a*x + b proves q prime, given that r is prime.

    The Goldwasser-Kilian criterion: Q = (m / r) * P is affine, so no O
    modulo any prime p | q, while r * Q = O, so Q has order r on the curve
    mod p, and r <= (p**(1/2) + 1)**2 together with r > (q**(1/4) + 1)**2
    leaves no p <= q**(1/2).  A ValueError of _ec_multiple shows q composite.
    """
    if q < 5 or math.gcd(q, 6) != 1 or math.gcd(4 * a**3 + 27 * b**2, q) != 1:
        return False
    x, y = P[0] % q, P[1] % q
    if (y * y - x**3 - a * x - b) % q != 0:
        return False
    if r <= _ecpp_bound(q) or m < r or m % r != 0:
        return False
    try:
        Q = _ec_multiple(m // r, x, y, a, q)
        return Q is not None and _ec_multiple(r, *Q, a, q) is None
    except ValueError:
        return False


def _cornacchia(q: int, d: int) -> tuple[int, int] | None:
    """(t, s) with t**2 + d*s**2 = 4*q for the odd prime q, or None (Cohen, Algorithm 1.5.3)."""
    x = sqrt_mod_prime(-d, q)
    if x is None or (x * x + d) % q != 0:
        return None
    if (x - d) % 2:
        x = q - x
    a, t = 2 * q, x
    limit = math.isqrt(4 * q)
    while t > limit:
        a, t = t, a % t
    c, rest = divmod(4 * q - t * t, d)
    s = math.isqrt(c)
    return (t, s) if rest == 0 and s * s == c else None


def _ecpp_candidates(q: int, nodes: Iterator[int]) -> Iterator[tuple[int, int, int]]:
    """(r, d, m) for CM curve orders m of q with a probable prime r | m past
    _ecpp_bound(q) and below m.

    First come the orders whose part r prime to the primes below 2**16 is
    such a prime, smallest r first.  Then each order whose part is still
    composite, smallest first, is peeled by _brent_rho runs of _ECPP_RHO
    iterations, each taking one of the nodes and keeping the larger piece,
    until that piece is a probable prime past the bound, falls to the bound,
    or a run finds no factor.
    """
    bound = _ecpp_bound(q)
    found, composite = [], []
    for d in _CM_J_INVARIANTS:
        ts = _cornacchia(q, d)
        if ts is None:
            continue
        t, s = ts
        traces = {3: (t, (t + 3 * s) // 2, (t - 3 * s) // 2), 4: (t, 2 * s)}.get(d, (t,))
        for m in {q + 1 + sign * u for u in traces for sign in (1, -1)}:
            r = m
            g = math.gcd(_ecpp_strip_product() % m, m)
            while g > 1:
                r //= g
                g = math.gcd(r, g)
            if bound < r < m:
                (found if is_probable_prime(r) else composite).append((r, d, m))
    yield from sorted(found)
    for r, d, m in sorted(composite):
        for _ in nodes:
            factor = _brent_rho(r, _ECPP_RHO, 0)[0]
            if factor is None:
                break
            r = max(factor, r // factor)
            if r <= bound:
                break
            if is_probable_prime(r):
                yield r, d, m
                break
        else:
            return


def _ecpp_twists(q: int, d: int) -> list[tuple[int, int]]:
    """(a, b) of every twist of the curve with CM by discriminant -d over F_q.

    c is a non-square, and at d = 3 also a non-cube, so its powers run
    through the classes of F_q* modulo squares, fourth or sixth powers.
    """
    c = 2
    while pow(c, (q - 1) // 2, q) == 1 or (d == 3 and pow(c, (q - 1) // 3, q) == 1):
        c += 1
    if d == 3:
        return [(0, pow(c, i, q)) for i in range(6)]
    if d == 4:
        return [(pow(c, i, q), 0) for i in range(4)]
    j = _CM_J_INVARIANTS[d]
    k = j * pow(1728 - j, -1, q) % q
    return [(3 * k % q, 2 * k % q), (3 * k * c * c % q, 2 * k * c**3 % q)]


def _ecpp_chain(n: int) -> tuple[EcppStep, ...] | None:
    """An Atkin-Morain proof of the probable prime n, or None.

    A depth-first search over the candidates, which spends at most
    _ECPP_MAX_NODES candidate orders and rho runs in all.  Once the search
    from r has proved r, q's step is built on the first twist whose
    random.Random(q) point passes _ecpp_step_holds; when none does, the
    search moves on to q's next candidate.  Each step (q, D, a, b, m, r, P)
    is accepted by _ecpp_step_holds, and each r is proved by the next step;
    the last r passed is_probable_prime below DETERMINISTIC_MR_BOUND, where
    it is exact.
    """
    nodes = iter(range(_ECPP_MAX_NODES))

    def search(q: int) -> tuple[EcppStep, ...] | None:
        if q < DETERMINISTIC_MR_BOUND:
            return ()
        for r, d, m in _ecpp_candidates(q, nodes):
            if next(nodes, None) is None:
                return None
            rest = search(r)
            if rest is None:
                continue
            rng = random.Random(q)
            for a, b in _ecpp_twists(q, d):
                while True:
                    x = rng.randrange(q)
                    y = sqrt_mod_prime(x**3 + a * x + b, q)
                    if y is not None:
                        break
                if _ecpp_step_holds(q, a, b, m, r, (x, y)):
                    return ((q, -d, a, b, m, r, (x, y)), *rest)
        return None

    return search(n)


def _integer_nth_root(n: int, k: int) -> int:
    """Floor of the k-th root of n >= 1."""
    if k == 2:
        return math.isqrt(n)
    x = 1 << (-(-n.bit_length() // k))
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def perfect_power(n: int, least_root: int = 2) -> tuple[int, int]:
    """(root, k) with root**k == n, root >= least_root and k maximal; (n, 1)
    when there is none.

    Only the k with least_root**k <= n are tried.  factorize passes
    trial_limit + 1, since its pieces have no prime factor up to the trial
    limit; the default 2 finds every power.  least_root < 2 raises ValueError.
    """
    if least_root < 2:
        raise ValueError("least_root must be >= 2")
    if n < 4:
        return n, 1
    # least_root >= 2**(b - 1) with b its bit length, so this k bounds the answer
    top = (n.bit_length() - 1) // (least_root.bit_length() - 1)
    while least_root**top > n:
        top -= 1
    for k in range(top, 1, -1):
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
                q = q * (x - y) % n
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


def _x_double(x: int, z: int, a24: int, n: int) -> tuple[int, int]:
    """2P from P = (x : z) on the Montgomery curve with a24 = (A + 2) / 4."""
    s = (x + z) * (x + z) % n
    d = (x - z) * (x - z) % n
    t = s - d
    return s * d % n, t * (d + a24 * t) % n


def _x_add(p: tuple[int, int], q: tuple[int, int], diff: tuple[int, int], n: int) -> tuple[int, int]:
    """P + Q from P, Q and their difference P - Q, x-only."""
    u = (p[0] - p[1]) * (q[0] + q[1])
    v = (p[0] + p[1]) * (q[0] - q[1])
    return diff[1] * (u + v) * (u + v) % n, diff[0] * (u - v) * (u - v) % n


def _x_ladder(k: int, x: int, a24: int, n: int) -> tuple[int, int]:
    """k * (x : 1) for k >= 1 by Montgomery's ladder; R1 - R0 = (x : 1) throughout."""
    x0, z0, (x1, z1) = x, 1, _x_double(x, 1, a24, n)
    for bit in bin(k)[3:]:
        p0, m0, p1, m1 = x0 + z0, x0 - z0, x1 + z1, x1 - z1
        u, v = m0 * p1 % n, p0 * m1 % n
        xa, za = (u + v) * (u + v) % n, x * (u - v) * (u - v) % n  # R0 + R1, the difference's z = 1
        if bit == "1":
            s, d = p1 * p1 % n, m1 * m1 % n
            x0, z0, x1, z1 = xa, za, s * d % n, (t := s - d) * (d + a24 * t) % n
        else:
            s, d = p0 * p0 % n, m0 * m0 % n
            x0, z0, x1, z1 = s * d % n, (t := s - d) * (d + a24 * t) % n, xa, za
    return x0, z0


@lru_cache(maxsize=1)
def _ecm_plan() -> tuple[int, tuple[int, ...], tuple[tuple[int, bytes], ...]]:
    """Stage 1 multiplier, baby steps and stage 2 schedule, built once per process.

    The multiplier is the product of the largest power <= B1 of each prime
    <= B1.  Stage 2 covers each prime q in (B1, B2] as q = m*D +- j, with j
    one of the residues below D/2 that are prime to D.  The schedule lists
    every giant step m with the positions of its j among those residues, one
    byte each, since it stays resident for the life of the process.
    """
    multiplier = 1
    residues = tuple(j for j in range(1, _ECM_D // 2, 2) if math.gcd(j, _ECM_D) == 1)
    position = {j: i for i, j in enumerate(residues)}
    marks: dict[int, bytearray] = {}
    for q in _prime_stream(_ECM_B2):
        if q <= _ECM_B1:
            multiplier *= q ** next(e for e in count(1) if q ** (e + 1) > _ECM_B1)
            continue
        m = (q + _ECM_D // 2) // _ECM_D
        marks.setdefault(m, bytearray(len(residues)))[position[abs(q - m * _ECM_D)]] = 1
    schedule = tuple((m, bytes(compress(range(len(residues)), row))) for m, row in sorted(marks.items()))
    return multiplier, residues, schedule


def _ecm_curve(n: int, sigma: int) -> int | None:
    """One ECM curve on odd composite n: a proper factor of n, or None.

    Stage 1 runs from the affine x = u**3 / v**3 of Suyama's curve.  Stage 2
    inverts the product of all its points' z once, after taking its gcd with
    n, and recovers each 1 / z from prefix and suffix products (Montgomery 1987).
    """
    multiplier, residues, schedule = _ecm_plan()
    u, v = (sigma * sigma - 5) % n, 4 * sigma % n
    denominator = 16 * pow(u, 3, n) * v % n
    g = math.gcd(denominator, n)
    if g > 1:
        return g if g < n else None
    a24 = pow(v - u, 3, n) * (3 * u + v) * pow(denominator, -1, n) % n
    # v is a unit once the denominator is, so x = u**3 / v**3 exists
    q = _x_ladder(multiplier, pow(u, 3, n) * pow(v, -3, n) % n, a24, n)
    g = math.gcd(q[1], n)
    if g > 1:
        return g if g < n else None
    xq = q[0] * pow(q[1], -1, n) % n
    # baby steps j*Q for j < D/2 prime to 6, which covers the residues prime to
    # D that stage 2 reads, from (j + 6)Q = jQ + 6Q with difference (j - 6)Q
    one = (xq, 1)
    twice = _x_double(xq, 1, a24, n)
    thrice = _x_add(twice, one, one, n)
    five, six = _x_add(thrice, twice, one, n), _x_double(*thrice, a24, n)
    babies = {1: one, 5: five, 7: _x_add(six, one, five, n), 11: _x_add(five, six, one, n)}
    for j in range(13, _ECM_D // 2, 2):
        if j % 3:
            babies[j] = _x_add(babies[j - 6], six, babies[j - 12], n)
    # giant steps m*G, G = D*Q, from (m + 1)G = mG + G with difference (m - 1)G
    giant = _x_ladder(_ECM_D, xq, a24, n)
    giants = {1: giant, 2: _x_double(*giant, a24, n)}
    for m in range(3, schedule[-1][0] + 1):
        giants[m] = _x_add(giants[m - 1], giant, giants[m - 2], n)
    points = [*(babies[j] for j in residues), *giants.values()]
    prefix = list(accumulate((z for _, z in points), lambda a, z: a * z % n, initial=1))
    g = math.gcd(prefix[-1], n)
    if g > 1:
        return g if g < n else None
    inverse = pow(prefix[-1], -1, n)
    # suffix[i] = z[i] * ... * z[-1] / prefix[-1], so x[i] / z[i] = x[i] * prefix[i] * suffix[i + 1]
    suffix = [*accumulate((z for _, z in reversed(points)), lambda a, z: a * z % n, initial=inverse)][::-1]
    affine = [x * before * after % n for (x, _), before, after in zip(points, prefix, suffix[1:])]
    baby_x, giant_x = affine, dict(zip(giants, affine[len(residues):]))
    product = 1
    for m, steps in schedule:
        xm = giant_x[m]
        for i in steps:
            product = product * (xm - baby_x[i]) % n
    g = math.gcd(product, n)
    return g if 1 < g < n else None


def _split_composite(n: int, effort: int, sigmas: Iterator[int]) -> int | None:
    """Find a nontrivial factor of odd composite n within the effort, in rho iterations.

    Rho is given _RHO_SHARE of it and may overrun to the end of a doubling
    round; the rest buys ECM curves whose sigma values are drawn from the
    factorization's one sequence.
    """
    remaining = min(effort, _RHO_SHARE)
    effort -= remaining
    attempt = 0
    while remaining > 0:
        factor, used = _brent_rho(n, remaining, attempt)
        remaining -= max(used, 1)
        attempt += 1
        if factor is not None:
            return factor
    for _ in range((effort + remaining) // _ECM_CURVE_PRICE):
        factor = _ecm_curve(n, next(sigmas))
        if factor is not None:
            return factor
    return None


def factorize(n: int, budget: FactorBudget | None = None) -> FactorResult:
    """Factor n >= 1 within the given effort budget.

    Trial division stops once the cofactor is a prime below
    DETERMINISTIC_MR_BOUND, where is_probable_prime is a proof: it is tested
    before the first prime block and after each block that divides it, and
    on a pass it is recorded as the last factor.  Every later piece has no
    prime factor up to the trial limit, so its perfect power search tries only
    roots above the limit.
    """
    n, budget = as_index(n, "n"), budget or FactorBudget()
    if n < 1:
        raise ValueError("factorization target must be >= 1")
    if n == 1:
        return FactorResult(1)
    if n < DETERMINISTIC_MR_BOUND and is_probable_prime(n):
        return FactorResult(n, {n: 1})
    original = n
    factors: dict[int, int] = {}
    primes = primes_up_to(budget.trial_limit)
    for start, product in zip(count(0, _TRIAL_BLOCK), _prime_blocks(budget.trial_limit)):
        # the block's primes that divide n, each once, so the scan ends at the last of them
        shared = math.gcd(n, product)
        if shared == 1:
            continue
        for p in primes[start : start + _TRIAL_BLOCK]:
            if shared % p == 0:
                while n % p == 0:
                    factors[p] = factors.get(p, 0) + 1
                    n //= p
                shared //= p
                if shared == 1:
                    break
        if n == 1:
            return FactorResult(original, factors)
        if n < DETERMINISTIC_MR_BOUND and is_probable_prime(n):
            # n has no prime factor up to this block, so it follows every prime in factors
            factors[n] = 1
            return FactorResult(original, factors)

    cofactor = 1
    sigmas = count(_ECM_FIRST_SIGMA)
    stack: list[tuple[int, int]] = [(n, 1)]
    while stack:
        value, mult = stack.pop()
        root, power = perfect_power(value, budget.trial_limit + 1)
        if power > 1:
            stack.append((root, mult * power))
            continue
        verdict = certify_prime(value)
        if verdict is True:
            factors[value] = factors.get(value, 0) + mult
            continue
        if verdict is None:
            cofactor *= value**mult
            continue
        piece = _split_composite(value, budget.rho_iterations, sigmas)
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
