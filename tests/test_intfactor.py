"""Effort-bounded factorization against naive trial-division oracles."""

import json
import math
import os
import random
import subprocess
import sys
import tracemalloc
from decimal import Decimal, getcontext
from fractions import Fraction
from itertools import combinations, compress, pairwise
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


PSI_12 = 318665857834031151167461
# psi_1..psi_13 (OEIS A014233): the least strong pseudoprime to the first t prime bases
PSI = (
    2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383, 341550071728321,
    341550071728321, 3825123056546413051, 3825123056546413051, 3825123056546413051, PSI_12,
    3317044064679887385961981,
)
THIRTEEN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def odd_part(n: int) -> tuple[int, int]:
    """(d, s) with n = d * 2**s and d odd."""
    s = (n & -n).bit_length() - 1
    return n >> s, s


def thirteen_base_verdict(n: int) -> bool:
    """Miller-Rabin to all 13 prime bases 2..41, exact below psi_13."""
    if n < 2:
        return False
    for p in THIRTEEN_BASES:
        if n % p == 0:
            return n == p
    d, s = odd_part(n - 1)
    for a in THIRTEEN_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


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

    def test_table_at_the_trial_cap_is_packed_and_read_only(self):
        table = primes_up_to(10**7)
        assert len(table) == 664_579
        assert table[-1] == 9_999_991
        assert table.itemsize == 4
        with pytest.raises(TypeError):
            table[0] = 3

    @pytest.mark.parametrize("limit", [2, 1000, 10**6])
    def test_block_products(self, limit):
        primes, size = list(primes_up_to(limit)), intfactor._TRIAL_BLOCK
        blocks = [primes[i : i + size] for i in range(0, len(primes), size)]
        assert intfactor._prime_blocks(limit) == tuple(math.prod(block) for block in blocks)

    def test_trial_tables_allocate_under_one_mib(self):
        # a tuple of Python ints took about 3.3 MiB here
        primes_up_to.cache_clear()
        intfactor._prime_blocks.cache_clear()
        tracemalloc.start()
        try:
            intfactor._prime_blocks(10**6)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert held < peak < 2**20

    def test_stream_matches_sieve(self):
        for bound in (0, 1, 2, 3, 10**5):
            assert list(_prime_stream(bound)) == full_array_sieve(bound), bound

    @pytest.mark.parametrize("segment", [1, 2, 7, _SIEVE_SEGMENT])
    def test_stream_at_segment_edges(self, segment):
        # segment k covers the odd numbers from 3 + 2*segment*k up to the next edge
        edges = [3 + 2 * segment * k for k in (1, 2, 3)]
        for bound in {edge + delta for edge in edges for delta in (-1, 0, 1)}:
            assert list(_prime_stream(bound, segment)) == full_array_sieve(bound), bound

    @pytest.mark.parametrize("segment", [1, 2, 7, _SIEVE_SEGMENT])
    def test_stream_from_a_lower_bound(self, segment):
        # the segments start at the first odd number >= max(start, 3)
        top = 3 + 8 * segment
        primes = full_array_sieve(top)
        edge = 3 + 2 * segment
        for start in (-1, 0, 1, 2, 3, 4, 5, edge - 1, edge, edge + 1, top // 2):
            # empty, one number, just inside one segment, across one and two edges
            for bound in (start - 1, start, start + 2 * segment - 1, start + 2 * segment,
                          start + 4 * segment + 1, top):
                expected = [p for p in primes if start <= p <= bound]
                assert list(_prime_stream(bound, segment, start)) == expected, (start, bound)

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

    def test_twelve_base_pseudoprime_is_refused(self):
        # psi_12 is a strong pseudoprime to the 12 prime bases 2..37; base 41
        # exposes it below the bound
        p, q = 399165290221, 798330580441
        assert p * q == PSI_12 < DETERMINISTIC_MR_BOUND
        assert all(
            intfactor._miller_rabin_round(PSI_12, a, *odd_part(PSI_12 - 1))
            for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
        )
        assert not intfactor._miller_rabin_round(PSI_12, 41, *odd_part(PSI_12 - 1))
        assert not is_probable_prime(PSI_12)
        assert certify_prime(PSI_12) is False
        result = factorize(PSI_12)
        assert result.factors == {p: 1, q: 1} and result.complete

    def test_bound_is_the_thirteen_base_pseudoprime(self):
        assert not is_probable_prime(DETERMINISTIC_MR_BOUND)
        assert all(
            intfactor._miller_rabin_round(DETERMINISTIC_MR_BOUND, a, *odd_part(DETERMINISTIC_MR_BOUND - 1))
            for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
        )
        assert certify_prime(DETERMINISTIC_MR_BOUND) is False

    def test_agrees_with_a_sieve_below_1e5(self):
        primes = set(full_array_sieve(10**5 - 1))
        assert [n for n in range(10**5) if is_probable_prime(n) != (n in primes)] == []

    @pytest.mark.parametrize("t", range(1, 13))
    def test_each_psi_is_rejected(self, t):
        psi = PSI[t - 1]
        assert all(intfactor._miller_rabin_round(psi, a, *odd_part(psi - 1)) for a in THIRTEEN_BASES[:t])
        assert not is_probable_prime(psi)

    def test_below_psi_only_the_bases_needed_run(self, monkeypatch):
        spy = CallSpy(intfactor._miller_rabin_round)
        monkeypatch.setattr(intfactor, "_miller_rabin_round", spy)
        for psi in PSI:
            p = psi - 2
            while not thirteen_base_verdict(p):
                p -= 2
            spy.calls.clear()
            assert is_probable_prime(p)
            # the least t with p < psi_t
            t = next(t for t, bound in enumerate(PSI, 1) if p < bound)
            assert [call[1] for call in spy.calls] == list(THIRTEEN_BASES[:t]), psi

    # one band between consecutive distinct psi_t, so every base count is drawn
    @given(st.sampled_from(list(pairwise(sorted({0, *PSI})))).flatmap(
        lambda band: st.integers(band[0], band[1] - 1)))
    def test_agrees_with_thirteen_bases_below_psi_13(self, n):
        assert is_probable_prime(n) == thirteen_base_verdict(n)


class TestHelpers:
    @given(st.integers(min_value=1, max_value=10**6), st.sampled_from([2, 3, 5, 7, 11]))
    def test_padic_valuation(self, n, p):
        v = padic_valuation(n, p)
        assert n % p**v == 0
        assert n % p ** (v + 1) != 0

    @pytest.mark.parametrize("p", [1, 0, -1, -2])
    def test_padic_valuation_rejects_non_primes_below_two(self, p):
        with pytest.raises(ValueError):
            padic_valuation(5, p)

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

    def test_small_factors_rejects_non_integers(self):
        # a float used to be trial-divided: 10.5 gave {10.5: 1}
        for value in (10.5, 10.0, Fraction(21, 2), "10"):
            with pytest.raises(TypeError, match="n must be an integer"):
                small_factors(value)
        assert small_factors(True) == {}

    def test_perfect_power(self):
        assert perfect_power(1024) == (2, 10)
        assert perfect_power(36) == (6, 2)
        assert perfect_power(27) == (3, 3)
        assert perfect_power(2**6 * 3**6) == (6, 6)
        # non-powers report themselves with exponent 1
        assert perfect_power(12) == (12, 1)
        assert perfect_power(2) == (2, 1)

    @pytest.mark.parametrize("least_root", [1, 0, -5])
    def test_perfect_power_refuses_least_root_below_two(self, least_root):
        # 1 and 0 would divide by zero, and -5 would give (4, 3) for 64 = 2**6
        with pytest.raises(ValueError, match="least_root must be >= 2"):
            perfect_power(64, least_root)

    @given(st.integers(min_value=2, max_value=10**7), st.integers(min_value=1, max_value=12),
           st.integers(min_value=2, max_value=10**7))
    def test_least_root_finds_the_largest_index_whose_root_reaches_it(self, root, k, least_root):
        n = root**k
        base, top = perfect_power(n)
        # n = (base**(top // j))**j for each j | top
        expected = max(
            ((base ** (top // j), j) for j in range(1, top + 1) if top % j == 0 and base ** (top // j) >= least_root),
            key=lambda pair: pair[1],
            default=(n, 1),
        )
        assert perfect_power(n, least_root) == expected

    def test_least_root_at_its_own_powers(self):
        for k in range(1, 8):
            assert perfect_power(1000001**k, 1000001) == (1000001, k)
            assert perfect_power(1000001**k - 1, 1000001)[1] == 1


def shanks_sqrt_reference(n: int, p: int) -> int | None:
    """sqrt_mod_prime as it stood before reciprocity: an Euler test, the least
    non-residue by Euler's criterion from z = 2, then Tonelli-Shanks from
    n**q and n**((q+1)/2).  The oracle for the root sqrt_mod_prime returns."""
    n %= p
    if n == 0:
        return 0
    if p % 4 == 3:
        r = pow(n, (p + 1) // 4, p)
        return r if r * r % p == n else None
    if p % 8 == 5:
        v = pow(2 * n, (p - 5) // 8, p)
        i = 2 * n * v * v % p
        r = n * v * (i - 1) % p
        return r if r * r % p == n else None
    half = (p - 1) // 2
    if pow(n, half, p) != 1:
        return None
    s = ((p - 1) & (1 - p)).bit_length() - 1
    q = (p - 1) >> s
    z = 2
    while pow(z, half, p) != p - 1:
        z += 1
    m, c, t, r = s, pow(z, q, p), pow(n, q, p), pow(n, (q + 1) // 2, p)
    while t != 1:
        i, probe = 0, t
        while probe != 1:
            probe = probe * probe % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c, t, r = i, b * b % p, t * b * b % p, r * b % p
    return r


def primes_one_mod_eight(rng: random.Random, count: int) -> list[int]:
    """Probable primes of 60 to 200 bits, p = 1 mod 8, half of them with a
    2-adic part of p - 1 between 2**20 and 2**40, so the squaring loop runs long."""
    found = []
    while len(found) < count:
        bits = rng.randrange(60, 201)
        s = rng.randrange(20, 41) if len(found) % 2 else 3
        p = (rng.getrandbits(bits - s) | 1 << (bits - s - 1)) << s | 1
        while not is_probable_prime(p):
            p += 1 << s
        found.append(p)
    return found


class TestSqrtModPrime:
    """sqrt_mod_prime returns the root, or the None, of the algorithm it replaced."""

    def test_every_residue_below_3000(self):
        for p in primes_up_to(3000)[1:]:
            for n in range(p):
                assert intfactor.sqrt_mod_prime(n, p) == shanks_sqrt_reference(n, p), (n, p)

    @pytest.mark.parametrize("p", [17, 41, 73, 427733329])
    def test_random_residues(self, p):
        # 17, 41 and 73 are in the reciprocity tuple; 427733329 = 1 mod 8 has
        # least non-residue 79, past the tuple, so the Euler search finds it
        assert p % 8 == 1
        if p > 73:
            least = min(z for z in range(2, 80) if pow(z, (p - 1) // 2, p) == p - 1)
            assert least == 79 > intfactor._RECIPROCITY_SQUARES[-1][0]
        rng = random.Random(p)
        for _ in range(2000):
            n = rng.randrange(-p, 2 * p)
            assert intfactor.sqrt_mod_prime(n, p) == shanks_sqrt_reference(n, p), (n, p)
            x = rng.randrange(p)
            assert intfactor.sqrt_mod_prime(x * x, p) == shanks_sqrt_reference(x * x, p), (x, p)

    def test_large_primes_one_mod_eight(self):
        rng = random.Random(26)
        for p in primes_one_mod_eight(rng, 24):
            assert p % 8 == 1 and 60 <= p.bit_length() <= 200
            for _ in range(40):
                n = rng.randrange(p)
                root = intfactor.sqrt_mod_prime(n, p)
                assert root == shanks_sqrt_reference(n, p), (n, p)
                x = rng.randrange(1, p)
                root = intfactor.sqrt_mod_prime(x * x, p)
                assert root == shanks_sqrt_reference(x * x, p) and root * root % p == x * x % p


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
            assert certify_prime(prime) is True

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

    def test_non_integers_are_rejected(self):
        # certify_prime(7.0) once said True, and factorize(2.5) died on a bit operation
        for value in (7.0, 2.5, Fraction(7), "7"):
            with pytest.raises(TypeError, match="n must be an integer"):
                certify_prime(value)
            with pytest.raises(TypeError, match="n must be an integer"):
                factorize(value)
        assert certify_prime(True) is False
        assert factorize(True) == factorize(1)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            factorize(0)
        with pytest.raises(ValueError):
            factorize(-6)

    def test_budget_fields_must_be_integers(self):
        # FactorBudget(1000.0) once passed, and math.isqrt then failed inside factorize;
        # a float effort failed only once ECM was reached
        for value in (1000.0, 2.5, Fraction(1000), "1000"):
            with pytest.raises(TypeError, match="trial_limit must be an integer"):
                FactorBudget(value)
            with pytest.raises(TypeError, match="rho_iterations must be an integer"):
                FactorBudget(1000, value)
        budget = FactorBudget(1000, True)
        assert type(budget.rho_iterations) is int and budget == FactorBudget(1000, 1)

    def test_trial_limit_is_capped_where_its_sieve_stays_small(self):
        assert FactorBudget(10**7).trial_limit == 10**7
        with pytest.raises(ValueError, match="budget parameters out of range"):
            FactorBudget(10**7 + 1)

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


def previous_prime(n: int) -> int:
    n -= 1
    while not is_probable_prime(n):
        n -= 1
    return n


def assert_matches_per_prime_loop(inputs, budget: FactorBudget) -> None:
    for n in dict.fromkeys(inputs):
        result = factorize(n, budget)
        assert (list(result.factors.items()), result.cofactor) == per_prime_trial_division(n, budget), n


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
        assert_matches_per_prime_loop(inputs, FactorBudget(trial_limit=limit, rho_iterations=10**5))

    @pytest.mark.parametrize("effort", [0, 10])
    @pytest.mark.parametrize("limit", [2, 3, 100, 10**4, 10**6])
    def test_matches_per_prime_loop_where_the_cofactor_turns_prime(self, limit, effort):
        # efforts that split almost nothing, so only trial division and the
        # proofs can decide what is a factor
        small = primes_up_to(10**4)
        top = primes_up_to(limit)[-1]
        above = next_prime(limit)
        below_psi, above_psi = previous_prime(DETERMINISTIC_MR_BOUND), next_prime(DETERMINISTIC_MR_BOUND)
        # primes left alone after the first block: in the second block, just
        # past the limit, of 61 bits, and on either side of psi_13
        turning = [small[600], above, 2**61 - 1, below_psi, above_psi]
        multipliers = [1, 2, 6, 2**5 * 3**2 * small[511], small[100] * small[511] ** 2, top, top**2]
        inputs = [m * p for m in multipliers for p in turning]
        inputs += [top * above, top**3 * above, top * above**2, top * next_prime(above)]
        inputs += [above**k for k in range(2, 8)]
        inputs += [small[3] * above**k for k in range(2, 8)]
        budget = FactorBudget(trial_limit=limit, rho_iterations=effort)
        assert_matches_per_prime_loop(inputs, budget)
        # the oracle hands these to factorize itself, so pin their root search directly
        for k in range(2, 8):
            assert list(factorize(above**k, budget).factors.items()) == [(above, k)]
            assert list(factorize(2 * above**k, budget).factors.items()) == [(2, 1), (above, k)]


class CallSpy:
    """Wraps a function, recording the arguments of each call."""

    def __init__(self, fn):
        self.fn, self.calls = fn, []

    def __call__(self, *args):
        self.calls.append(args)
        return self.fn(*args)


class TestTrialDivisionStops:
    """What factorize skips once the outcome is decided, seen through spies on its helpers."""

    @staticmethod
    def spies(monkeypatch) -> tuple[CallSpy, CallSpy, CallSpy]:
        gcd, certify, root = CallSpy(math.gcd), CallSpy(certify_prime), CallSpy(intfactor._integer_nth_root)
        proxy = type(math)("math")
        proxy.__dict__.update(vars(math))
        proxy.gcd = gcd
        monkeypatch.setattr(intfactor, "math", proxy)
        monkeypatch.setattr(intfactor, "certify_prime", certify)
        monkeypatch.setattr(intfactor, "_integer_nth_root", root)
        return gcd, certify, root

    def test_proved_prime_cofactor_ends_trial_division(self, monkeypatch):
        gcd, certify, root = self.spies(monkeypatch)
        result = factorize(2 * 3 * (2**61 - 1))
        assert list(result.factors.items()) == [(2, 1), (3, 1), (2**61 - 1, 1)]
        assert len(gcd.calls) == 1
        assert certify.calls == [] and root.calls == []

    def test_prime_input_takes_no_block(self, monkeypatch):
        gcd, certify, root = self.spies(monkeypatch)
        assert list(factorize(2**61 - 1).factors.items()) == [(2**61 - 1, 1)]
        assert gcd.calls == certify.calls == root.calls == []

    def test_two_primes_past_the_limit_scan_every_block(self, monkeypatch):
        gcd, certify, _ = self.spies(monkeypatch)
        n = next_prime(10**6) * next_prime(10**7)
        result = factorize(n, FactorBudget(10**6, 0))
        assert result.cofactor == n
        assert [args[1] for args in gcd.calls] == list(intfactor._prime_blocks(10**6))
        assert certify.calls == [(n,)]

    @pytest.mark.parametrize("small", [1, 6])
    def test_prime_past_psi13_scans_every_block_and_is_certified(self, monkeypatch, small):
        gcd, certify, _ = self.spies(monkeypatch)
        p = next_prime(DETERMINISTIC_MR_BOUND)
        result = factorize(small * p, FactorBudget(10**6, 0))
        assert list(result.factors.items()) == [*factorize(small).factors.items(), (p, 1)]
        blocks = intfactor._prime_blocks(10**6)
        # the proof's own gcds follow the blocks
        assert [args[1] for args in gcd.calls[: len(blocks)]] == list(blocks)
        assert certify.calls == [(p,)]

    @pytest.mark.parametrize(
        "n",
        [next_prime(2**100) * next_prime(2**101), next_prime(10**6) ** 7, next_prime(2**40) ** 3],
        ids=["semiprime", "seventh-power", "cube"],
    )
    def test_root_search_stops_at_the_least_root_past_the_limit(self, monkeypatch, n):
        # no prime factor <= 10**6, so a root r**k == n has r >= 10**6 + 1
        _, _, root = self.spies(monkeypatch)
        factorize(n, FactorBudget(10**6, 0))
        top = max(k for k in range(1, n.bit_length()) if (10**6 + 1) ** k <= n)
        assert root.calls and max(k for _, k in root.calls) <= top


def ecm_multiplier(b1: int) -> int:
    """The product of the largest power <= b1 of each prime <= b1, from naive primality."""
    out = 1
    for p in filter(naive_prime, range(2, b1 + 1)):
        power = p
        while power * p <= b1:
            power *= p
        out *= power
    return out


def affine_add(s, t, a: int, b: int, p: int):
    """s + t on b*y**2 = x**3 + a*x**2 + x over F_p in affine coordinates; None is O."""
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


def affine_multiple(k: int, point, a: int, b: int, p: int):
    """k * point on b*y**2 = x**3 + a*x**2 + x over F_p in affine coordinates; None is O."""
    out = None
    for bit in bin(k)[2:]:
        out = affine_add(out, out, a, b, p)
        if bit == "1":
            out = affine_add(out, point, a, b, p)
    return out


def suyama_curve(sigma: int, p: int) -> tuple[int, int, int] | None:
    """(a, b, x) of Suyama's curve for sigma over F_p, with its start point (x, 1); None when degenerate."""
    u, v = sigma * sigma - 5, 4 * sigma
    if (u * v * (v - u) * (3 * u + v)) % p == 0:
        return None
    a = (pow(v - u, 3, p) * (3 * u + v) * pow(4 * u**3 * v, -1, p) - 2) % p
    x = u**3 * pow(v**3, -1, p) % p
    b = (x**3 + a * x * x + x) % p
    return (a, b, x) if b and (a * a - 4) % p else None


def dies_through_one_prime(point, a: int, b: int, p: int, primes: list[int]):
    """The prime q of `primes` with q * point = O, walking q * point up the increasing primes; or None."""
    steps = {gap: affine_multiple(gap, point, a, b, p) for gap in {t - s for s, t in zip(primes, primes[1:])}}
    walk = affine_multiple(primes[0], point, a, b, p)
    for q, following in zip(primes, [*primes[1:], None]):
        if walk is None:
            return q
        if following is not None:
            walk = affine_add(walk, steps[following - q], a, b, p)
    return None


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
        a, b, x = suyama_curve(sigma, p)
        after_stage1 = affine_multiple(ecm_multiplier(_ECM_B1), (x, 1), a, b, p)
        assert after_stage1 is not None
        assert affine_multiple(q, after_stage1, a, b, p) is None
        assert _ecm_curve(p * (2**61 - 1), sigma) == p

    def test_curve_finds_every_prime_the_oracle_kills(self):
        # a 61-bit cofactor whose curves never die: whenever the point dies mod
        # p in stage 1, or through one prime q in (B1, B2] in stage 2, the
        # curve must return p
        rng = random.Random(1987)
        stage2_primes = [q for q in full_array_sieve(_ECM_B2) if q > _ECM_B1]
        multiplier = ecm_multiplier(_ECM_B1)
        deaths = {"stage 1": 0, "stage 2": 0}
        for _ in range(20):
            p = next_prime(rng.getrandbits(rng.randint(16, 22)) | 1 << 15)
            for sigma in (6, 7, 11, 23):
                curve = suyama_curve(sigma, p)
                if curve is None:
                    continue
                a, b, x = curve
                after_stage1 = affine_multiple(multiplier, (x, 1), a, b, p)
                if after_stage1 is None:
                    deaths["stage 1"] += 1
                elif dies_through_one_prime(after_stage1, a, b, p, stage2_primes) is not None:
                    deaths["stage 2"] += 1
                else:
                    continue
                assert _ecm_curve(p * (2**61 - 1), sigma) == p, (p, sigma)
        assert min(deaths.values()) >= 5, deaths

    def test_a_full_curve_adds_only_the_points_stage2_reads(self, monkeypatch):
        # one addition each for 3Q, 5Q, 7Q, 11Q and the 381 j < D/2 prime to 6
        # from 13 on, and 85 for the giant steps mG, m = 3..87; stepping
        # through every odd j < D/2 took 576 baby additions, 661 in all
        n = next_prime(2**64) * next_prime(2**65)
        calls = []
        real = intfactor._x_add

        def spy(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(intfactor, "_x_add", spy)
        assert _ecm_curve(n, 6) is None
        assert intfactor._ecm_plan()[2][-1][0] == 87
        assert len(calls) == 470

    def test_plan_covers_each_stage2_prime_once(self):
        multiplier, residues, schedule = intfactor._ecm_plan()
        assert multiplier == ecm_multiplier(_ECM_B1)
        assert residues == tuple(j for j in range(1, _ECM_D // 2, 2) if all(j % q for q in (3, 5, 7, 11)))
        assert len(residues) == 240
        scheduled = [(m, i) for m, steps in schedule for i in steps]
        assert len(set(scheduled)) == len(scheduled)
        stage2_primes = {q for q in full_array_sieve(_ECM_B2) if q > _ECM_B1}
        covers = {q: 0 for q in stage2_primes}
        for m, i in scheduled:
            hits = {m * _ECM_D + residues[i], m * _ECM_D - residues[i]} & stage2_primes
            assert hits, (m, i)
            for q in hits:
                covers[q] += 1
        assert set(covers.values()) == {1}

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


def ecm_curve_table() -> list[dict]:
    with open(Path(__file__).parent / "data" / "ecm_curve_table.json") as handle:
        return json.load(handle)["rows"]


def test_ecm_curves_keep_their_captured_results():
    rows = ecm_curve_table()
    assert {"stage 1", "stage 2 points", "stage 2", "none"} <= {row["stage"] for row in rows}
    assert any(row["result"] is None and row["stage"] != "none" for row in rows)
    for row in rows:
        assert _ecm_curve(row["n"], row["sigma"]) == row["result"], row


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


# the primes above DETERMINISTIC_MR_BOUND that census -d 1 -a 2,1 --n-max 80 proves
CENSUS_GAUSS_PRIMES = (
    3550878809978795277956310481,
    2329648300071491261807194529161,
    1313756387718033230092827753030509,
    4083812675629167639309400035131744437,
    5551115123125782699294073819827146561,
    355417856903951625637926246979059221821,
    2060217667404538867445649680592653838363544001,
)
# the 280-bit probable prime of level 139 of census -d 1 -a 2,1, which no chain reaches
LEVEL_139_PRIME = 1373598218259996285644462524008538599438107346003212393523675170048618217618375922993


def ecpp_step(q: int):
    """The first step of q's ECPP chain: (q, D, a, b, m, r, P)."""
    chain = intfactor._ecpp_chain(q)
    assert chain is not None and chain[0][0] == q
    return chain[0]


def twist_points(q: int, d: int, skip: tuple[int, int], rng: random.Random):
    """A point on each twist of discriminant -d other than the curve `skip`."""
    for a, b in intfactor._ecpp_twists(q, d):
        if (a, b) == skip:
            continue
        while True:
            x = rng.randrange(q)
            y = intfactor.sqrt_mod_prime(x**3 + a * x + b, q)
            if y is not None:
                yield a, b, (x, y)
                break


def group_checks_hold(q, a, m, r, P) -> bool:
    """r * ((m / r) * P) = O with (m / r) * P affine: the checker minus its other conditions."""
    Q = intfactor._ec_multiple(m // r, *P, a, q)
    return Q is not None and intfactor._ec_multiple(r, *Q, a, q) is None


def step_holds_with_bound(q, a, b, m, r, P, bound) -> bool:
    """The checker's verdict with `bound` in place of q's least proving order."""
    saved = intfactor._ecpp_bound
    intfactor._ecpp_bound = lambda n: bound if n == q else saved(n)
    try:
        return intfactor._ecpp_step_holds(q, a, b, m, r, P)
    finally:
        intfactor._ecpp_bound = saved


def safe_prime_above(n: int) -> tuple[int, int]:
    """(q, r) with q = 2r + 1 > n and both prime."""
    r = n // 2 | 1
    while not (is_probable_prime(r) and is_probable_prime(2 * r + 1)):
        r += 2
    return 2 * r + 1, r


def mutation_verdicts() -> dict[str, bool]:
    """The checker's verdict on steps that each break one condition; all must be False.

    Each mutant except the singular and composite ones is built so that the
    rest of the step is right, and the case asserts it, so the verdict rests
    on the one broken condition.
    """
    verdicts = {}
    q, D, a, b, m, r, P = ecpp_step(CENSUS_GAUSS_PRIMES[-1])
    d = -D
    if not intfactor._ecpp_step_holds(q, a, b, m, r, P):
        raise AssertionError("the unmutated step must hold")
    k = m // r
    # a wrong r: the next prime, with m = k * r kept consistent
    wrong = next_prime(r)
    verdicts["wrong r"] = intfactor._ecpp_step_holds(q, a, b, k * wrong, wrong, P)
    # a point of another twist, whose group order is not m
    for index, (ta, tb, point) in enumerate(twist_points(q, d, (a, b), random.Random(q))):
        verdicts[f"twist {index}"] = intfactor._ecpp_step_holds(q, ta, tb, m, r, point)
    # a point off the curve, and a curve that misses P: the group law never
    # reads b, so the order checks alone would pass the second
    verdicts["off curve"] = intfactor._ecpp_step_holds(q, a, b, m, r, (P[0], P[1] + 1))
    verdicts["curve misses P"] = intfactor._ecpp_step_holds(q, a, b + 1, m, r, P)
    # an m that is no multiple of r
    verdicts["r does not divide m"] = intfactor._ecpp_step_holds(q, a, b, m + 1, r, P)
    # r far below the bound: a prime of k whose order checks hold
    ell = next(ell for ell in small_factors(k) if group_checks_hold(q, a, m, ell, P))
    verdicts["small r"] = intfactor._ecpp_step_holds(q, a, b, m, ell, P)
    # the step's own r at the bound, and one past it as the control
    verdicts["r at the bound"] = step_holds_with_bound(q, a, b, m, r, P, r)
    if not step_holds_with_bound(q, a, b, m, r, P, r - 1):
        raise AssertionError("r past the bound must hold")
    # the nodal cubic y^2 = (x - 1)^2 (x + 2) over a safe prime q = 2r + 1: its
    # smooth points form F_q*, so every group check holds with m = q - 1
    q2, r2 = safe_prime_above(2**100)
    t = 12345
    node = ((t * t - 2) % q2, (t * t - 3) * t % q2)
    if not group_checks_hold(q2, q2 - 3, q2 - 1, r2, node):
        raise AssertionError("the nodal cubic must pass the order checks")
    verdicts["singular"] = intfactor._ecpp_step_holds(q2, q2 - 3, 2, q2 - 1, r2, node)
    return verdicts


def composite_verdicts(n: int, rng: random.Random) -> list[bool]:
    """The checker's verdicts on random curves over Z/n and orders k * r with r a prime past the bound."""
    verdicts = []
    r = next_prime(intfactor._ecpp_bound(n))
    for _ in range(6):
        a, x, y = rng.randrange(n), rng.randrange(n), rng.randrange(n)
        b = (y * y - x**3 - a * x) % n
        for k in (2, 12, math.lcm(*range(1, 30)), n + 1):
            verdicts.append(intfactor._ecpp_step_holds(n, a, b, k * r, r, (x, y)))
    return verdicts


def chernick_carmichael(k0: int) -> int:
    """The first (6k + 1)(12k + 1)(18k + 1) with k >= k0 and all three factors prime."""
    k = k0
    while not all(is_probable_prime(c * k + 1) for c in (6, 12, 18)):
        k += 1
    return (6 * k + 1) * (12 * k + 1) * (18 * k + 1)


def naive_multiples(P, a: int, p: int) -> list:
    """[O, P, 2P, ..., (o - 1)P] for P of order o on y^2 = x^3 + a*x + b over
    F_p, p prime, by the textbook affine law with Fermat inverses; None is O."""
    multiples, Q = [None], P
    while Q is not None:
        multiples.append(Q)
        (x1, y1), (x2, y2) = Q, P
        if x1 == x2 and (y1 + y2) % p == 0:
            Q = None
            continue
        if Q == P:
            slope = (3 * x1 * x1 + a) * pow(2 * y1, p - 2, p) % p
        else:
            slope = (y2 - y1) * pow(x2 - x1, p - 2, p) % p
        x3 = (slope * slope - x1 - x2) % p
        Q = (x3, (slope * (x1 - x3) - y1) % p)
    return multiples


def random_curve_points(q: int, rng: random.Random, count: int):
    """(a, P) for `count` random points P = (x, y) mod q with b = y^2 - x^3 - a*x
    nonsingular modulo every prime below 200 that divides q."""
    found = 0
    while found < count:
        a, x, y = rng.randrange(q), rng.randrange(q), rng.randrange(q)
        b = (y * y - x**3 - a * x) % q
        if all((4 * a**3 + 27 * b * b) % p for p in full_array_sieve(200) if q % p == 0):
            found += 1
            yield a, (x, y)


class TestAffineGroupLaw:
    """_ec_multiple, the group law under every ECPP step, against the textbook law."""

    @pytest.mark.parametrize("p", [5, 7, 11, 13, 101, 199])
    def test_every_multiple_matches_mod_a_prime(self, p):
        for a, P in random_curve_points(p, random.Random(p), 8):
            multiples = naive_multiples(P, a, p)
            for k in range(1, len(multiples) + 1):
                assert intfactor._ec_multiple(k, *P, a, p) == multiples[k % len(multiples)], (p, a, P, k)

    def test_a_composite_modulus_raises_or_reduces_mod_each_prime(self):
        # over Z/(p1 p2) every call either raises ValueError, which shows the
        # modulus composite, or returns a point that reduces to k * P mod both
        # primes; None only where k * P is O mod both
        outcomes = set()
        for p1, p2 in [(5, 7), (7, 13), (11, 17), (13, 19), (23, 29), (37, 41)]:
            q = p1 * p2
            for a, P in random_curve_points(q, random.Random(q), 8):
                tables = [naive_multiples((P[0] % p, P[1] % p), a % p, p) for p in (p1, p2)]
                for k in range(1, math.lcm(*map(len, tables)) + 1):
                    want = [table[k % len(table)] for table in tables]
                    try:
                        got = intfactor._ec_multiple(k, *P, a, q)
                    except ValueError as error:
                        outcomes.add("equal x" if "equal x" in str(error) else "no unit")
                        continue
                    if got is None:
                        outcomes.add("O")
                        assert want == [None, None], (q, a, P, k)
                    else:
                        outcomes.add("affine")
                        assert [(got[0] % p, got[1] % p) for p in (p1, p2)] == want, (q, a, P, k)
        assert outcomes == {"equal x", "no unit", "O", "affine"}


class TestECPP:
    """The Atkin-Morain chain that proves primes past the Miller-Rabin bound."""

    @staticmethod
    def rho_spy(monkeypatch) -> list[int]:
        """The n of every _brent_rho run from now on."""
        calls = []
        rho = intfactor._brent_rho

        def spy(n, max_iters, attempt):
            calls.append(n)
            return rho(n, max_iters, attempt)

        monkeypatch.setattr(intfactor, "_brent_rho", spy)
        return calls

    def test_census_gauss_primes_need_no_peel(self, monkeypatch):
        # each of them has a chain through orders whose stripped part is prime,
        # so census-gauss pays for no rho run inside a proof
        calls = self.rho_spy(monkeypatch)
        for p in CENSUS_GAUSS_PRIMES:
            assert certify_prime(p) is True, p
        assert calls == []

    def test_peeled_order_proves_a_prime_the_strip_misses(self):
        # a 139-bit prime of level 160 of census -d 1 -a 2,1: no order's part
        # prime to the primes below 2**16 is prime, and rho peels 113017 off one
        q = 433680868994201773602564634132105306674641
        assert certify_prime(q) is True
        _, _, a, b, m, r, P = ecpp_step(q)
        assert max(small_factors(m // r)) > intfactor._ECPP_STRIP_BOUND
        assert intfactor._ecpp_step_holds(q, a, b, m, r, P)

    def test_peel_gives_up_within_the_nodes(self, monkeypatch):
        calls = self.rho_spy(monkeypatch)
        assert certify_prime(LEVEL_139_PRIME) is None
        assert 0 < len(calls) <= intfactor._ECPP_MAX_NODES

    def test_chain_steps_link_and_hold(self):
        chain = intfactor._ecpp_chain(CENSUS_GAUSS_PRIMES[-1])
        assert chain[0][0] == CENSUS_GAUSS_PRIMES[-1]
        for (q, D, a, b, m, r, P), following in zip(chain, [*chain[1:], None]):
            assert D in (-3, -4, -7, -8, -11, -19, -43, -67, -163)
            assert intfactor._ecpp_step_holds(q, a, b, m, r, P)
            assert m // r > 1 and m % r == 0
            assert (r >= DETERMINISTIC_MR_BOUND) == (following is not None)
            if following is not None:
                assert following[0] == r
        assert is_probable_prime(chain[-1][5])

    def test_chain_is_deterministic(self):
        p = CENSUS_GAUSS_PRIMES[-2]
        assert intfactor._ecpp_chain(p) == intfactor._ecpp_chain(p)

    def test_agrees_with_sympy(self):
        # every prime of the sample has a chain once composite orders are peeled
        sympy = pytest.importorskip("sympy")
        rng = random.Random(2024)
        proved = 0
        for bits in range(90, 341, 25):
            p = sympy.nextprime(rng.getrandbits(bits) | 1 << (bits - 1))
            chain = intfactor._ecpp_chain(p)
            if chain is not None:
                proved += 1
                assert chain[0][0] == p
                assert all(sympy.isprime(step[5]) for step in chain)
            assert certify_prime(p * sympy.nextprime(p)) is False
        assert proved == 11

    def test_mutations_are_rejected(self):
        verdicts = mutation_verdicts()
        assert len(verdicts) >= 8
        assert not any(verdicts.values()), verdicts

    def test_mutations_are_rejected_under_optimize(self):
        script = (
            "import json, sys\n"
            "sys.path.insert(0, sys.argv[1])\n"
            "import test_intfactor\n"
            "print(json.dumps(test_intfactor.mutation_verdicts()))\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(Path(intfactor.__file__).parents[1]), env.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-O", "-c", script, str(Path(__file__).parent)],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == mutation_verdicts()

    def test_point_that_k_sends_to_o_is_rejected(self):
        # k * (r * P) = m * P = O, and r * O = O: only "k * P is affine" refuses it
        q, _, a, b, m, r, P = ecpp_step(CENSUS_GAUSS_PRIMES[-1])
        killed = intfactor._ec_multiple(r, *P, a, q)
        assert killed is not None and intfactor._ec_multiple(m // r, *killed, a, q) is None
        assert intfactor._ecpp_step_holds(q, a, b, m, r, killed) is False

    def test_semiprimes_yield_no_step(self):
        rng = random.Random(60)
        for _ in range(4):
            n = next_prime(rng.getrandbits(60) | 1 << 59) * next_prime(rng.getrandbits(60) | 1 << 59)
            assert not any(composite_verdicts(n, rng)), n

    def test_carmichael_numbers_yield_no_step(self):
        rng = random.Random(561)
        for k0 in (10**12, 10**16, 10**20):
            n = chernick_carmichael(k0)
            assert pow(2, n - 1, n) == 1
            assert not any(composite_verdicts(n, rng)), n

    def test_thirteen_base_pseudoprime_yields_no_step(self):
        assert not any(composite_verdicts(DETERMINISTIC_MR_BOUND, random.Random(13)))

    def test_order_prime_to_one_factor_only_is_caught(self):
        # y^2 = x^3 + x has p + 1 points mod a prime p = 3 mod 4, so with
        # n = p1 * p2 and m = (p1 + 1) * (p2 + 1), (m / r) * P is O mod p1 but
        # not mod p2: a slope's denominator meets p1, and the checker must refuse it
        p1 = next_prime(2**40)
        while p1 % 4 != 3:
            p1 = next_prime(p1)
        r = next_prime(2**86)
        while not (is_probable_prime(4 * r - 1) and r > intfactor._ecpp_bound(p1 * (4 * r - 1))):
            r = next_prime(r)
        p2 = 4 * r - 1
        n = p1 * p2
        rng = random.Random(7)
        while True:
            x = rng.randrange(n)
            y1 = intfactor.sqrt_mod_prime(x**3 + x, p1)
            y2 = intfactor.sqrt_mod_prime(x**3 + x, p2)
            if y1 and y2:
                break
        y = (y1 * p2 * pow(p2, -1, p1) + y2 * p1 * pow(p1, -1, p2)) % n
        m = (p1 + 1) * (p2 + 1)
        with pytest.raises(ValueError):
            intfactor._ec_multiple(m // r, x, y, 1, n)
        assert intfactor._ecpp_step_holds(n, 1, 0, m, r, (x, y)) is False

    def test_bound_exceeds_the_theorem_bound(self):
        # (floor(q**(1/4)) + 2)**2 > (q**(1/4) + 1)**2, checked in exact decimals
        getcontext().prec = 120
        for q in (DETERMINISTIC_MR_BOUND, *CENSUS_GAUSS_PRIMES, 10**100 + 267, 2**340 - 3):
            fourth = Decimal(q).sqrt().sqrt()
            assert Decimal(intfactor._ecpp_bound(q)) > (fourth + 1) ** 2

    def test_strip_product_leaves_no_sieve_resident(self):
        primes_up_to.cache_clear()
        intfactor._ecpp_strip_product.cache_clear()
        assert intfactor._ecpp_strip_product() == math.prod(full_array_sieve(2**16))
        assert primes_up_to.cache_info().currsize == 0


def test_ecpp_chains_keep_their_captured_steps():
    # the chains of the census-gauss primes, the peeled 139-bit prime and the
    # sympy sample of TestECPP, captured by tests/data/capture_ecpp_chains.py
    with open(Path(__file__).parent / "data" / "ecpp_chain_table.json") as handle:
        rows = json.load(handle)["rows"]
    assert len(rows) == 20
    assert [row["q"] for row in rows if row["chain"] is None] == [LEVEL_139_PRIME]
    for row in rows:
        chain = intfactor._ecpp_chain(row["q"])
        if row["chain"] is None:
            assert chain is None, row["q"]
            continue
        assert len(chain) == len(row["chain"]), row["q"]
        for step, stored in zip(chain, row["chain"]):
            assert [*step[:6], list(step[6])] == stored, row["q"]


def test_workload_factorizations_keep_their_captured_results():
    # every factorization above trial_limit**2 of census-gauss and the seed-1
    # verify-sweep, captured by tests/data/capture_factorize_table.py
    with open(Path(__file__).parent / "data" / "factorize_table.json") as handle:
        rows = json.load(handle)["rows"]
    assert len(rows) == 192 and {row["from"] for row in rows} == {"census-gauss", "verify-sweep"}
    for row in rows:
        result = factorize(row["n"], FactorBudget(row["trial_limit"], row["rho_iterations"]))
        assert [list(item) for item in result.factors.items()] == row["factors"], row["n"]
        assert result.cofactor == row["cofactor"], row["n"]
