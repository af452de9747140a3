"""Effort-bounded factorization against naive trial-division oracles."""

import json
import random
from itertools import combinations, compress
from math import isqrt
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from wieferich import FactorBudget, certify_prime, factorize, intfactor, is_probable_prime
from wieferich.intfactor import (
    DETERMINISTIC_MR_BOUND,
    _ECM_B1,
    _ECM_B2,
    _ECM_D,
    _SIEVE_SEGMENT,
    _ecm_curve,
    _prime_stream,
    padic_valuation,
    perfect_power,
    primes_up_to,
    small_factors,
)


def naive_factor(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def reassembled(result) -> int:
    """The cofactor times every certified prime power."""
    out = result.cofactor
    for p, e in result.factors.items():
        out *= p**e
    return out


def full_array_sieve(limit: int) -> list[int]:
    """All primes <= limit from one bytearray over 0..limit, independent of the stream."""
    if limit < 2:
        return []
    sieve = bytearray([1]) * (limit + 1)
    sieve[0] = sieve[1] = 0
    for p in range(2, isqrt(limit) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(range(p * p, limit + 1, p)))
    return list(compress(range(limit + 1), sieve))


def naive_prime(n: int) -> bool:
    if n < 2:
        return False
    return all(n % p for p in range(2, int(n**0.5) + 1))


class TestPrimality:
    def test_small_agreement(self):
        for n in range(2, 5000):
            assert is_probable_prime(n) == naive_prime(n), n

    def test_sieve_matches_naive(self):
        for limit in (0, 1, 2, 3, 200, 10**4):
            assert list(primes_up_to(limit)) == [p for p in range(2, limit + 1) if naive_prime(p)]

    def test_sieve_fills_one_cache_entry(self):
        primes_up_to.cache_clear()
        primes_up_to(10**6)
        assert primes_up_to.cache_info().currsize == 1

    def test_stream_matches_sieve(self):
        for bound in (0, 1, 2, 3, 10**5):
            assert list(_prime_stream(bound)) == full_array_sieve(bound), bound

    @pytest.mark.parametrize("segment", [1, 2, 7, _SIEVE_SEGMENT])
    def test_stream_at_segment_edges(self, segment):
        # segment k covers the odd numbers from 3 + 2*segment*k up to the next edge
        edges = [3 + 2 * segment * k for k in (1, 2, 3)]
        for bound in {edge + delta for edge in edges for delta in (-1, 0, 1)}:
            assert list(_prime_stream(bound, segment)) == full_array_sieve(bound), bound

    @pytest.mark.parametrize("segment", [7, _SIEVE_SEGMENT])
    def test_stream_at_largest_base_prime_square(self, segment):
        # at bound q*q the largest sieving prime q crosses off the bound itself
        for q in (7, 13, 313, 317):
            for bound in (q * q - 1, q * q, q * q + 1):
                assert list(_prime_stream(bound, segment)) == full_array_sieve(bound), bound

    def test_known_composites_and_primes(self):
        assert is_probable_prime(2**61 - 1)
        assert is_probable_prime(2**89 - 1)
        assert not is_probable_prime(561)          # Carmichael
        assert not is_probable_prime(41041)        # Carmichael
        assert not is_probable_prime(3215031751)   # strong pseudoprime to 2,3,5,7
        assert not is_probable_prime(1)
        assert not is_probable_prime(0)

    def test_certify_below_deterministic_bound(self):
        assert certify_prime(10**9 + 7) is True
        assert certify_prime(10**9 + 9) is True
        assert certify_prime(561) is False
        assert DETERMINISTIC_MR_BOUND > 10**18

    def test_certify_above_deterministic_bound(self):
        # 25-digit prime needs an explicit certificate, not just the fixed bases
        p = 2**89 - 1
        assert p > DETERMINISTIC_MR_BOUND
        assert certify_prime(p) is True
        assert certify_prime(p * (2**61 - 1)) is False


class TestHelpers:
    @given(st.integers(min_value=1, max_value=10**6), st.sampled_from([2, 3, 5, 7, 11]))
    def test_padic_valuation(self, n, p):
        v = padic_valuation(n, p)
        assert n % p**v == 0
        assert n % p ** (v + 1) != 0

    @given(st.integers(min_value=1, max_value=10**6))
    def test_small_factors_match_naive(self, n):
        factors = small_factors(n)
        product = 1
        for p, e in factors.items():
            assert naive_prime(p)
            product *= p**e
        assert product == n
        assert factors == naive_factor(n)

    def test_small_factors_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            small_factors(0)

    def test_perfect_power(self):
        assert perfect_power(1024) == (2, 10)
        assert perfect_power(36) == (6, 2)
        assert perfect_power(27) == (3, 3)
        assert perfect_power(2**6 * 3**6) == (6, 6)
        # non-powers report themselves with exponent 1
        assert perfect_power(12) == (12, 1)
        assert perfect_power(2) == (2, 1)


class TestFactorize:
    @given(st.integers(min_value=2, max_value=10**6))
    def test_matches_naive(self, n):
        result = factorize(n)
        assert result.complete
        assert result.cofactor == 1
        assert result.factors == naive_factor(n)
        assert reassembled(result) == n

    def test_large_semiprime(self):
        p, q = 1000003, 1000033
        result = factorize(p * q)
        assert result.complete
        assert result.factors == {p: 1, q: 1}

    def test_rho_beyond_trial_range(self):
        # both factors exceed the trial bound, so rho has to do the work
        p, q = 15485867, 32452843
        result = factorize(p * q, FactorBudget(trial_limit=10**4, rho_iterations=10**6))
        assert result.complete
        assert result.factors == {p: 1, q: 1}

    def test_budget_exhaustion_flags_cofactor(self):
        p, q = 2**61 - 1, 2**89 - 1
        result = factorize(p * q, FactorBudget(trial_limit=10**3, rho_iterations=50))
        assert not result.complete
        assert result.cofactor > 1
        assert reassembled(result) == p * q
        for prime in result.factors:
            assert certify_prime(prime, FactorBudget(trial_limit=10**3, rho_iterations=50)) is True

    def test_perfect_power_peeling(self):
        n = (15485867) ** 3
        result = factorize(n, FactorBudget(trial_limit=10**4, rho_iterations=10**6))
        assert result.complete
        assert result.factors == {15485867: 3}

    def test_certified_prime_leaves_no_copy_in_the_cofactor(self):
        # rho splits off 101 and cannot split the other piece, 101 * 541
        result = factorize(101**2 * 541, FactorBudget(trial_limit=2, rho_iterations=1))
        assert result.factors == {101: 2}
        assert result.cofactor == 541

    @given(st.integers(min_value=2, max_value=10**9))
    def test_tiny_budget_exponents_are_exact(self, n):
        result = factorize(n, FactorBudget(trial_limit=2, rho_iterations=1))
        assert reassembled(result) == n
        for p, e in result.factors.items():
            assert e == padic_valuation(n, p)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            factorize(0)
        with pytest.raises(ValueError):
            factorize(-6)

    def test_factor_one_is_trivial(self):
        result = factorize(1)
        assert result.complete and result.factors == {} and reassembled(result) == 1


def per_prime_trial_division(n: int, budget: FactorBudget) -> tuple[list[tuple[int, int]], int]:
    """factorize's result as ordered (factors items, cofactor), trial-dividing prime by prime.

    One modulo per prime <= the trial limit, then the n <= limit**2 shortcut.
    Whatever is left has no prime factor <= the limit, so factorize hands it
    straight to the later stages, whose primes follow the trial primes.
    """
    factors: dict[int, int] = {}
    for p in primes_up_to(budget.trial_limit):
        if p * p > n:
            break
        while n % p == 0:
            factors[p] = factors.get(p, 0) + 1
            n //= p
    cofactor = 1
    if 1 < n <= budget.trial_limit**2:
        factors[n] = factors.get(n, 0) + 1
    elif n > 1:
        tail = factorize(n, budget)
        factors.update(tail.factors)
        cofactor = tail.cofactor
    return list(factors.items()), cofactor


def next_prime(n: int) -> int:
    n += 1
    while not is_probable_prime(n):
        n += 1
    return n


class TestTrialDivisionBlocks:
    """Trial division by prime blocks removes exactly what the per-prime loop removes."""

    @pytest.mark.parametrize("limit", [2, 3, 100, 10**4, 10**6])
    def test_matches_per_prime_loop_at_block_edges(self, limit):
        small = primes_up_to(10**4)
        # the last and first primes of adjacent 512-prime blocks
        edges = [small[511], small[512], small[1023], small[1024]]
        top = primes_up_to(limit)[-1]
        above = next_prime(limit)
        pieces = edges + [top, above, above * above, limit]
        inputs = pieces + [a * b for a, b in combinations(pieces, 2)]
        inputs += [piece**2 for piece in pieces]
        inputs += [piece * (2**61 - 1) for piece in pieces]
        inputs.append(top * above * small[511] * small[512] * small[1024] ** 3)
        budget = FactorBudget(trial_limit=limit, rho_iterations=10**5)
        for n in dict.fromkeys(inputs):
            result = factorize(n, budget)
            assert (list(result.factors.items()), result.cofactor) == per_prime_trial_division(
                n, budget
            ), n


def ecm_multiplier(b1: int) -> int:
    """The product of the largest power <= b1 of each prime <= b1, from naive primality."""
    out = 1
    for p in filter(naive_prime, range(2, b1 + 1)):
        power = p
        while power * p <= b1:
            power *= p
        out *= power
    return out


def affine_multiple(k: int, point, a: int, b: int, p: int):
    """k * point on b*y**2 = x**3 + a*x**2 + x over F_p in affine coordinates; None is O."""

    def add(s, t):
        if s is None or t is None:
            return t if s is None else s
        (x1, y1), (x2, y2) = s, t
        if x1 == x2:
            if (y1 + y2) % p == 0:
                return None
            slope = (3 * x1 * x1 + 2 * a * x1 + 1) * pow(2 * b * y1, -1, p) % p
        else:
            slope = (y2 - y1) * pow(x2 - x1, -1, p) % p
        x3 = (b * slope * slope - a - x1 - x2) % p
        return x3, (slope * (x1 - x3) - y1) % p

    out = None
    for bit in bin(k)[2:]:
        out = add(out, out)
        if bit == "1":
            out = add(out, point)
    return out


class TestECM:
    """The elliptic curve stage that spends the splitting effort rho leaves."""

    def test_fixed_split_needs_the_curves(self):
        # 42- and 43-bit primes: beyond the 10**5 rho share, within two curves
        n = 14850591850825378499362969
        result = factorize(n)
        assert result.factors == {2301199186613: 1, 6453414349013: 1}
        rho_only = factorize(n, FactorBudget(rho_iterations=10**5))
        assert rho_only.factors == {} and rho_only.cofactor == n

    def test_agrees_with_sympy(self):
        sympy = pytest.importorskip("sympy")
        rng = random.Random(2026)

        def prime(bits):
            while True:
                candidate = rng.getrandbits(bits) | (1 << (bits - 1)) | 1
                if is_probable_prime(candidate):
                    return candidate

        completed = 0
        for _ in range(6):
            p, q = prime(rng.randint(30, 60)), prime(rng.randint(30, 60))
            result = factorize(p * q)
            expected = sympy.factorint(p * q)
            assert reassembled(result) == p * q
            for prime_factor, e in result.factors.items():
                assert expected[prime_factor] == e
            if result.complete:
                completed += 1
                assert result.factors == expected
            else:
                # only an unsplit product of two large primes may stay behind
                assert result.cofactor == p * q and min(p, q).bit_length() > 40
        assert completed >= 5

    def test_factor_found_in_the_last_giant_step(self):
        # for p = 2399027 the Suyama curve sigma = 7 starts at a point whose
        # order is a B1-smooth multiple of q = 199889, a prime that stage 2
        # meets only in its last giant step
        p, sigma, q = 2399027, 7, 199889
        assert (q + _ECM_D // 2) // _ECM_D == (_ECM_B2 + _ECM_D // 2) // _ECM_D
        u, v = sigma * sigma - 5, 4 * sigma
        a = (pow(v - u, 3, p) * (3 * u + v) * pow(4 * u**3 * v, -1, p) - 2) % p
        x = u**3 * pow(v**3, -1, p) % p
        b = (x**3 + a * x * x + x) % p
        after_stage1 = affine_multiple(ecm_multiplier(_ECM_B1), (x, 1), a, b, p)
        assert after_stage1 is not None
        assert affine_multiple(q, after_stage1, a, b, p) is None
        assert _ecm_curve(p * (2**61 - 1), sigma) == p

    def test_sigma_runs_on_across_the_cofactors(self, monkeypatch):
        # three primes of 40-42 bits: a curve splits the product, and the next
        # split of the remaining 83-bit piece draws the next sigma values
        n = 3623335297434550893903761212351234723
        sigmas = []

        def spy(value, sigma):
            sigmas.append(sigma)
            return _ecm_curve(value, sigma)

        monkeypatch.setattr(intfactor, "_ecm_curve", spy)
        assert factorize(n).complete
        first = list(sigmas)
        assert len(first) >= 3 and first == list(range(6, 6 + len(first)))
        sigmas.clear()
        assert factorize(n).complete
        assert sigmas == first

    @pytest.mark.parametrize(
        "effort, curves",
        [(10**5, 0), (10**5 + 2**15, 0), (10**5 + 3 * 2**15, 2), (10**6, 26)],
    )
    def test_effort_buys_curves_after_rho(self, monkeypatch, effort, curves):
        # two 64-bit primes: neither rho nor a B1 = 2000 curve splits their product,
        # and rho's doubling rounds end at 131 070 iterations
        n = next_prime(2**64) * next_prime(2**65)
        calls = []

        def spy(value, sigma):
            calls.append(sigma)
            return _ecm_curve(value, sigma)

        monkeypatch.setattr(intfactor, "_ecm_curve", spy)
        result = factorize(n, FactorBudget(rho_iterations=effort))
        assert result.cofactor == n
        assert calls == list(range(6, 6 + curves))


def budget_table() -> list[dict]:
    with open(Path(__file__).parent / "data" / "factor_budget_table.json") as handle:
        return json.load(handle)["rows"]


@pytest.mark.parametrize(
    "row", budget_table(), ids=lambda row: f"{row['n']}-{row['trial_limit']}-{row['rho_iterations']}"
)
def test_efforts_within_the_rho_share_keep_their_results(row):
    # captured from the rho-only engine: an effort of at most 10**5 buys no curve
    result = factorize(row["n"], FactorBudget(row["trial_limit"], row["rho_iterations"]))
    assert sorted([p, e] for p, e in result.factors.items()) == row["factors"]
    assert result.cofactor == row["cofactor"]
