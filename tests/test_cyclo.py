"""Cyclotomic evaluation, divisor lattice helpers, and totient densities.

The polynomial oracle builds each cyclotomic polynomial by the recursive
definition: divide x**n - 1 by the product of all lower-level cyclotomic
polynomials, with naive integer polynomial long division.
"""

import ast
import json
import os
import subprocess
import sys
import tracemalloc
from decimal import Decimal
from fractions import Fraction
from math import gcd, prod
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

import wieferich
from wieferich import cyclo
from wieferich import (
    CycloFactorCache,
    FactorBudget,
    FieldSpec,
    QuadInt,
    check_pairwise_coprime,
    check_squarefree_nonwieferich,
    cyclotomic_eval,
    decompose,
    divisors,
    euler_phi,
    high_totient_count,
    totient_density_constant,
)
from wieferich.intfactor import small_factors
from wieferich.verify import bound_trend_report


def poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return out


def poly_divide_exact(num, den):
    num = list(num)
    out = [0] * (len(num) - len(den) + 1)
    for shift in range(len(out) - 1, -1, -1):
        coeff = num[shift + len(den) - 1]
        assert coeff % den[-1] == 0
        q = coeff // den[-1]
        out[shift] = q
        for j, dj in enumerate(den):
            num[shift + j] -= q * dj
    assert all(c == 0 for c in num)
    return out


def oracle_cyclotomic(n, _memo={}):
    if n in _memo:
        return _memo[n]
    num = [-1] + [0] * (n - 1) + [1]  # x**n - 1, constant first
    den = [1]
    for d in range(1, n):
        if n % d == 0:
            den = poly_mul(den, oracle_cyclotomic(d))
    result = poly_divide_exact(num, den)
    _memo[n] = result
    return result


def naive_phi(n):
    return sum(1 for k in range(1, n + 1) if gcd(k, n) == 1)


def integer_count(x, k):
    """high_totient_count by the integer comparison it made before its float table.

    With g = gcd(n, k), phi(n) * left * g > n * right * phi(g) is the
    condition multiplied through by phi(g) and cleared of denominators.
    """
    c = totient_density_constant(k)
    phi = cyclo.totient_sieve(x)
    left = 3 * c.denominator * euler_phi(k)
    right = 2 * c.numerator * k
    return sum(1 for n in range(1, x + 1) if phi[n] * left * gcd(n, k) > n * right * phi[gcd(n, k)])


def class_threshold(n, k):
    """The exact num/den that phi(n)/n must exceed, for n's residue class mod k."""
    c, g = totient_density_constant(k), gcd(n, k)
    return Fraction(2 * c.numerator * k * euler_phi(g), 3 * c.denominator * euler_phi(k) * g)


def naive_mobius(n):
    if n == 1:
        return 1
    out, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            out = -out
        p += 1
    return -out if n > 1 else out


class TestDivisorLattice:
    @given(st.integers(1, 3000))
    def test_divisors(self, n):
        assert divisors(n) == [d for d in range(1, n + 1) if n % d == 0]

    @given(st.integers(1, 2000))
    def test_phi(self, n):
        assert euler_phi(n) == naive_phi(n)

    @given(st.integers(1, 500))
    def test_phi_sum_identity(self, n):
        assert sum(euler_phi(d) for d in divisors(n)) == n

    @pytest.mark.parametrize("value", [10.5, 10.0, 0.5, Fraction(21, 2), Decimal(10), "10"])
    def test_non_integers_are_rejected(self, value):
        for helper in (divisors, euler_phi, totient_density_constant):
            with pytest.raises(TypeError, match="n must be an integer"):
                helper(value)
        with pytest.raises(TypeError, match="limit must be an integer"):
            cyclo.totient_sieve(value)
        with pytest.raises(TypeError, match="x must be an integer"):
            high_totient_count(value, 1)
        with pytest.raises(TypeError, match="k must be an integer"):
            high_totient_count(10, value)

    @pytest.mark.parametrize("value", [0, -1, -12, False])
    def test_non_positive_values_are_rejected(self, value):
        for helper in (divisors, euler_phi, totient_density_constant):
            with pytest.raises(ValueError, match="n must be a positive integer"):
                helper(value)

    def test_bools_read_as_integers(self):
        assert divisors(True) == [1]
        assert euler_phi(True) == 1
        assert type(euler_phi(True)) is int
        assert cyclo.totient_sieve(True) == [0, 1]
        assert cyclo.totient_sieve(False) == [0]
        assert totient_density_constant(True) == 1
        assert high_totient_count(True, True) == 1
        with pytest.raises(ValueError):
            high_totient_count(False, 1)


def horner(coefficients, a):
    """Value at a of the polynomial with these coefficients, constant first."""
    acc = a.field.zero()
    for c in reversed(coefficients):
        acc = acc * a + c
    return acc


class TestCyclotomicPolynomials:
    @pytest.mark.parametrize("n", list(range(1, 31)) + [36, 48, 60, 100, 105, 120])
    def test_matches_recursive_oracle(self, n):
        # the Mobius product over x**d - 1 on polynomials: a second oracle,
        # against the divisor recursion that oracle_cyclotomic and
        # cyclotomic_eval both follow
        num, den = [1], [1]
        for d in range(1, n + 1):
            if n % d == 0 and naive_mobius(n // d):
                factor = [-1] + [0] * (d - 1) + [1]
                if naive_mobius(n // d) == 1:
                    num = poly_mul(num, factor)
                else:
                    den = poly_mul(den, factor)
        assert poly_divide_exact(num, den) == oracle_cyclotomic(n)

    def test_degree_is_phi(self):
        for n in range(1, 80):
            assert len(oracle_cyclotomic(n)) == euler_phi(n) + 1

    def test_105_has_minus_two(self):
        # the first index with a coefficient outside {-1, 0, 1}
        assert oracle_cyclotomic(105)[7] == -2

    def test_small_table(self):
        assert oracle_cyclotomic(1) == [-1, 1]
        assert oracle_cyclotomic(2) == [1, 1]
        assert oracle_cyclotomic(4) == [1, 0, 1]
        assert oracle_cyclotomic(6) == [1, -1, 1]


# prime powers and levels with many divisors, where the most divisor levels
# are read back from the cache
HORNER_EXTRA_LEVELS = [64, 81, 105, 120, 128, 210]


class TestEvaluation:
    @pytest.mark.parametrize("n", [*range(1, 61), *HORNER_EXTRA_LEVELS])
    def test_rational_eval_matches_horner(self, n):
        field = FieldSpec.from_d(0)
        for base in (2, 3, 10, -2):
            a = field.element(base)
            assert cyclotomic_eval(n, a) == horner(oracle_cyclotomic(n), a)

    @pytest.mark.parametrize("n", [*range(1, 41), *HORNER_EXTRA_LEVELS])
    def test_quadratic_eval_matches_coeff_path(self, n, gauss_field, d2_field):
        for a in (gauss_field.element(2, 1), d2_field.element(1, 2)):
            assert cyclotomic_eval(n, a) == horner(oracle_cyclotomic(n), a)

    @pytest.mark.parametrize("n", range(1, 61))
    def test_product_identity(self, n, gauss_field):
        for a in (gauss_field.element(2, 1), FieldSpec.from_d(0).element(2)):
            prod = a.field.one()
            for d in divisors(n):
                prod = prod * cyclotomic_eval(d, a)
            assert prod == a**n - 1

    def test_cache_fill_divides_once_per_level_without_mobius(self, gauss_field, monkeypatch):
        # each level is a**n - 1 over the cached values at its proper divisors
        calls = {"exact_div": 0}
        real_exact_div = QuadInt.exact_div

        def counting_exact_div(self, other):
            calls["exact_div"] += 1
            return real_exact_div(self, other)

        monkeypatch.setattr(QuadInt, "exact_div", counting_exact_div)
        cache = CycloFactorCache(gauss_field.element(2, 1))
        for n in range(1, 61):
            cache.value(n)
        assert calls == {"exact_div": 60}

    def test_root_of_unity_base(self, d3_field):
        # omega is a primitive sixth root of unity: Phi_6(omega) = 0, so every
        # multiple of 6 above 6 would divide by zero; the evaluation rejects it
        omega = d3_field.element(0, 1)
        assert horner(oracle_cyclotomic(6), omega).is_zero
        with pytest.raises(ValueError, match="neither zero nor of magnitude one"):
            cyclotomic_eval(6, omega)


class TestTotientDensity:
    def test_constant_values(self):
        assert totient_density_constant(1) == Fraction(1)
        assert totient_density_constant(2) == Fraction(1, 2)
        assert totient_density_constant(6) == Fraction(1, 3)
        assert totient_density_constant(30) == Fraction(4, 15)

    @given(st.integers(1, 200))
    def test_constant_is_phi_over_k(self, k):
        # gcd(k, p) = p for every prime p dividing k, so the product telescopes
        assert totient_density_constant(k) == Fraction(euler_phi(k), k)

    def test_small_count_by_hand(self):
        # thresholds: phi(n) > (2/3) n strictly; ties at n = 3, 9 excluded
        assert high_totient_count(10, 1) == 3
        assert high_totient_count(3, 1) == high_totient_count(2, 1) == 1
        assert high_totient_count(9, 1) == high_totient_count(8, 1) == 3

    @staticmethod
    def sieve_count(x, k):
        """The count read off one totient sieve up to x*k, phi(n*k) taken directly."""
        c = totient_density_constant(k)
        phi = cyclo.totient_sieve(x * k)
        return sum(
            1 for n in range(1, x + 1) if 3 * c.denominator * phi[n * k] > 2 * c.numerator * n * k
        )

    # k = 6, 30 and 60 above x <= 5: residue classes r > x hold no n <= x
    @pytest.mark.parametrize("x", [1, 2, 3, 4, 5, 10, 97, 1000])
    def test_counts_match_sieve_to_x_times_k(self, x):
        for k in [*range(1, 31), 60]:
            assert high_totient_count(x, k) == self.sieve_count(x, k), k

    @given(st.integers(1, 500), st.integers(1, 60))
    def test_counts_match_sieve_property(self, x, k):
        assert high_totient_count(x, k) == self.sieve_count(x, k)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_counts_match_naive(self, k):
        threshold = Fraction(2, 3) * totient_density_constant(k)
        for x in (10, 50, 137):
            expected = sum(
                1 for n in range(1, x + 1) if Fraction(naive_phi(n * k)) > threshold * n * k
            )
            assert high_totient_count(x, k) == expected

    def test_positive_density(self):
        for k in range(1, 11):
            assert high_totient_count(1000, k) > 0

    def test_changing_x_never_reads_a_stale_table(self):
        for x in (10**4, 97, 10**4, 1):
            for k in (1, 2, 6, 7, 30):
                assert high_totient_count(x, k) == self.sieve_count(x, k), (x, k)

    def test_mutating_a_sieve_leaves_counts_alone(self):
        expected = [self.sieve_count(500, k) for k in (1, 6)]
        assert [high_totient_count(500, k) for k in (1, 6)] == expected
        phi = cyclo.totient_sieve(500)
        phi[:] = [0] * len(phi)
        assert [high_totient_count(500, k) for k in (1, 6)] == expected

    # 3**9 is a tie at k = 1; 99991 is prime
    @pytest.mark.parametrize("x", [3**8, 3**9 - 1, 3**9, 10**4, 3 * 10**4, 99991, 10**5])
    def test_counts_match_the_integer_comparison(self, x):
        for k in [*range(1, 31), 60, 210, 2310]:
            assert high_totient_count(x, k) == integer_count(x, k), k

    def test_counts_match_one_sieve_for_every_small_x(self):
        # the struck rows change whenever x // g crosses a failing product
        phi = cyclo.totient_sieve(400)
        for k in range(1, 13):
            expected = 0
            for x in range(1, 401):
                g = gcd(x, k)
                expected += 3 * g * phi[x] > 2 * phi[g] * x
                assert high_totient_count(x, k) == expected, (x, k)

    @pytest.mark.parametrize("x", [1, 2, 3, 4, 35, 385, 4096, 3 * 10**4])
    def test_each_verdict_row_is_built_once(self, x, monkeypatch):
        cyclo._verdict_rows.cache_clear()
        built = []
        real = cyclo._verdict_row

        def spy(x, g):
            built.append((x, g))
            return real(x, g)

        monkeypatch.setattr(cyclo, "_verdict_row", spy)
        for k in range(1, 11):
            high_totient_count(x, k)
        gs = {gcd(r, k) for k in range(1, 11) for r in range(1, min(k, x) + 1)}
        assert sorted(built) == [(x, g) for g in sorted(gs)]
        rows = cyclo._verdict_rows(x)
        assert sorted(rows) == sorted(gs)
        phi = cyclo.totient_sieve(x)
        for g in gs:
            assert list(rows[g]) == [
                int(3 * g * phi[n] > 2 * phi[g] * n) for n in range(g, x + 1, g)
            ], g

    def test_exact_ties_count_nothing(self):
        # phi(n)/n is 2/3 exactly at n = 3**j, the threshold of g = 1 (k = 1,
        # and odd n at k = 2); it is 1/3 exactly at n = 2**a * 3**b, the
        # threshold of g = 2 (even n at k = 2)
        x = 3**9
        powers_of_3 = {3**j for j in range(1, 10)}
        mixed = {2**a * 3**b for a in range(1, 15) for b in range(1, 9)}
        ties = {1: powers_of_3, 2: powers_of_3 | {n for n in mixed if n <= x}}
        phi = cyclo.totient_sieve(x)
        for k, expected in ties.items():
            count = high_totient_count(x, k)
            rows = cyclo._verdict_rows(x)
            equal = {n for n in range(1, x + 1) if Fraction(phi[n], n) == class_threshold(n, k)}
            assert equal == expected
            assert not any(rows[gcd(n, k)][n // gcd(n, k) - 1] for n in equal)
            assert count == integer_count(x, k)

    @staticmethod
    def set_fails(primes):
        return 3 * prod(p - 1 for p in primes) <= 2 * prod(primes)

    @pytest.mark.parametrize("g", [*range(1, 13), 30, 210, 2310])
    def test_walk_strikes_exactly_the_failing_sets(self, g):
        limit = 5000 // g
        products = cyclo._failing_products(limit, g)
        assert len(products) == len(set(products))
        for product in products:
            primes = sorted(small_factors(product))
            assert prod(primes) == product <= limit and gcd(product, g) == 1
            assert self.set_fails(primes) and not self.set_fails(primes[:-1]), product
        for m in range(1, limit + 1):
            factors = small_factors(m)
            if gcd(m, g) == 1 and all(e == 1 for e in factors.values()):
                struck = any(m % product == 0 for product in products)
                assert struck == self.set_fails(factors), m
        # a smaller x keeps exactly the products that still fit
        for smaller in [*range(1, 120), limit // 3, limit // 2, limit - 1]:
            expected = sorted(p for p in products if p <= smaller)
            assert sorted(cyclo._failing_products(smaller, g)) == expected, smaller

    def test_failing_products_at_30000(self):
        assert sorted(cyclo._failing_products(30000, 1)) == [
            2, 3, 385, 455, 595, 665, 805, 1015, 1085, 12155, 13585, 16445, 17765,
            20735, 20995, 21505, 22165, 24035, 25415, 26455, 27115, 28985, 29315,
        ]

    def test_reduction_matches_the_definition(self):
        # the rows compare phi(n)/n with 2 * phi(g) / (3 * g); the definition's
        # threshold for phi(n)/n, with c = c(k), is the right-hand side
        for k in range(1, 301):
            c = totient_density_constant(k)
            for g in divisors(k):
                assert Fraction(2 * euler_phi(g), 3 * g) == Fraction(
                    2 * c.numerator * k * euler_phi(g), 3 * c.denominator * euler_phi(k) * g
                ), (k, g)

    def test_counts_unchanged_under_optimize(self):
        script = (
            "import json\n"
            "from wieferich.cyclo import high_totient_count\n"
            "print(json.dumps([high_totient_count(3**9, k) for k in range(1, 11)]))\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(Path(cyclo.__file__).parents[1]), env.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-O", "-c", script],
                              capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == [high_totient_count(3**9, k) for k in range(1, 11)]

    def test_no_totient_sieve_is_run(self, monkeypatch):
        high_totient_count(1, 1)  # leave no rows for x = 3000 behind
        calls = []
        real = cyclo.totient_sieve

        def spy(limit):
            calls.append(limit)
            return real(limit)

        monkeypatch.setattr(cyclo, "totient_sieve", spy)
        counts = [high_totient_count(3000, k) for k in range(1, 11)]
        high_totient_count(2999, 1)
        assert calls == []
        assert counts == [integer_count(3000, k) for k in range(1, 11)]

    def test_counts_at_a_million_stay_in_small_memory(self):
        # the rows for g = 1..10 hold about 2.9 * 10**6 bytes; a totient table
        # of 10**6 + 1 ints peaked at about 41 MiB
        cyclo._verdict_rows.cache_clear()
        tracemalloc.start()
        try:
            counts = [high_totient_count(10**6, k) for k in range(1, 11)]
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
            cyclo._verdict_rows.cache_clear()
        assert peak < 8 * 2**20, peak
        # the count the totient sieve gives at k = 1
        assert counts[0] == 329493


class TestCacheAndDecompose:
    def test_cache_levels(self, base_2i, cache_2i):
        lv = cache_2i.level(12)
        assert lv.complete
        assert cache_2i.value(12) == cyclotomic_eval(12, base_2i)
        assert lv.norm() == cache_2i.value(12).abs_norm()

    def test_power_ideal_merges(self, base_2i, cache_2i):
        merged = decompose(cache_2i, 10).power_ideal
        assert merged.complete
        assert merged.norm() == (base_2i**10 - 1).abs_norm()

    def test_rejects_degenerate_bases(self, gauss_field):
        with pytest.raises(ValueError):
            CycloFactorCache(gauss_field.zero())
        with pytest.raises(ValueError):
            CycloFactorCache(gauss_field.element(0, 1))

    def test_decompose_example(self, base_2i, cache_2i):
        dec = decompose(cache_2i, 2)
        assert dec.complete
        assert [(P.label(), e) for P, e in dec.squarefree.items_sorted()] == [("(5,split,2)", 1)]
        assert [(P.label(), e) for P, e in dec.powerful.items_sorted()] == [("(2,ramified,1)", 2)]
        assert [(P.label(), e) for P, e in dec.level_squarefree.items_sorted()] == [
            ("(5,split,2)", 1)
        ]
        assert dec.norm_summary()["norm_level_squarefree"] == 5

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 6, 8, 12, 15, 20])
    def test_split_reassembles(self, base_2i, cache_2i, n):
        dec = decompose(cache_2i, n)
        assert dec.complete
        total = (base_2i**n - 1).abs_norm()
        assert dec.squarefree.norm() * dec.powerful.norm() == total
        assert all(e == 1 for _, e in dec.squarefree.items_sorted())
        assert all(e >= 2 for _, e in dec.powerful.items_sorted())
        level_total = cyclotomic_eval(n, base_2i).abs_norm()
        assert dec.level_squarefree.norm() * dec.level_powerful.norm() == level_total

    @pytest.mark.parametrize("budget", [FactorBudget(), FactorBudget(50, 0)], ids=["default", "tiny"])
    def test_norm_level_value_is_the_level_norm(self, budget):
        # the level ideal's norm keeps its cofactor, so it is |Nm Phi_n(a)|
        # at the levels the tiny budget leaves incomplete as well
        incomplete = 0
        for d, x, y in ((1, 2, 1), (3, 1, 1), (0, 3, 0)):
            a = FieldSpec.from_d(d).element(x, y)
            cache = CycloFactorCache(a, budget)
            for n in range(1, 31):
                summary = decompose(cache, n).norm_summary()
                assert summary["norm_level_value"] == abs(cyclotomic_eval(n, a).norm()), (a, n)
                incomplete += not cache.level(n).complete
        assert (incomplete > 0) == (budget.trial_limit == 50)

    def test_incomplete_is_flagged(self, d2_field):
        outlier = d2_field.element(2, 1)
        cache = CycloFactorCache(outlier, FactorBudget(trial_limit=10**3, rho_iterations=10))
        dec = decompose(cache, 37)
        assert not dec.complete

    def test_decompose_checks_level_and_base(self, cache_2i, gauss_field):
        with pytest.raises(ValueError, match="level must be >= 1"):
            decompose(cache_2i, 0)
        with pytest.raises(ValueError, match="neither zero nor of magnitude one"):
            decompose(CycloFactorCache(gauss_field.element(0, 1)), 3)


# Default-budget caches shared across examples, one per base: the default
# budget factors every level from scratch, so each base pays for it once.
_DEFAULT_CACHES: dict = {}


def _default_cache(a):
    key = (a.field, a.x, a.y)
    if key not in _DEFAULT_CACHES:
        _DEFAULT_CACHES[key] = CycloFactorCache(a)
    return _DEFAULT_CACHES[key]


@st.composite
def small_bases(draw):
    """A base of coordinates in [-2, 2] in one of the rings d = 0, 1, 2, 3, 7."""
    field = FieldSpec.from_d(draw(st.sampled_from([0, 1, 2, 3, 7])))
    a = field.element(draw(st.integers(-2, 2)), 0 if field.is_rational else draw(st.integers(-2, 2)))
    assume(not a.is_zero and not a.is_unit())
    return a


tiny_budgets = st.builds(
    FactorBudget, trial_limit=st.integers(2, 100), rho_iterations=st.integers(0, 1000)
)


class TestBudgetIndependence:
    """What a budget certifies never depends on how large the budget is."""

    @settings(max_examples=15)
    @given(small_bases(), st.integers(1, 40), tiny_budgets)
    def test_tiny_budget_certifies_default_exponents(self, a, n, budget):
        tiny = decompose(CycloFactorCache(a, budget), n)
        full = decompose(_default_cache(a), n)
        for part, reference in ((tiny.power_ideal, full.power_ideal),
                                (tiny.level_ideal, full.level_ideal)):
            for P, e in part.exponents.items():
                assert reference.exponent(P) == e, (a, n, budget, P.label())

    def test_prime_hidden_in_another_levels_cofactor(self, gauss_field):
        # Nm Phi_3(2i) = 13 is certified, while the 13 in Phi_39(2i) stays
        # in that level's cofactor below a trial limit of 2 without rho
        a = gauss_field.element(0, 2)
        tiny = decompose(CycloFactorCache(a, FactorBudget(trial_limit=2, rho_iterations=0)), 39)
        full = decompose(CycloFactorCache(a), 39)
        assert {P.label(): e for P, e in tiny.power_ideal.items_sorted() if P.p == 13} == {
            "(13,split,8)": 2
        }
        assert tiny.powerful.exponents == full.powerful.exponents

    @pytest.mark.parametrize("n", [61, 73, 79])
    def test_ecm_budget_certifies_default_exponents(self, base_2i, n):
        # 10**5 + 3 * 2**15 is past the rho share and buys two ECM curves after
        # rho's 131 070 iterations; they split level 79's 84-bit composite.
        # Levels 61 and 73 hold only primes that ECPP proves at any budget.
        budgets = (FactorBudget(rho_iterations=10**5), FactorBudget(rho_iterations=10**5 + 3 * 2**15))
        full = decompose(_default_cache(base_2i), n)
        assert full.complete
        completed = []
        for budget in budgets:
            part = decompose(CycloFactorCache(base_2i, budget), n)
            completed.append(part.level_ideal.complete)
            for ideal, reference in ((part.power_ideal, full.power_ideal),
                                     (part.level_ideal, full.level_ideal)):
                for P, e in ideal.exponents.items():
                    assert reference.exponent(P) == e, (n, budget, P.label())
        assert completed == [n != 79, True]

    @settings(max_examples=15)
    @given(small_bases(), st.integers(1, 40), tiny_budgets)
    def test_small_budget_only_skips_levels(self, a, n_max, budget):
        tiny = CycloFactorCache(a, budget)
        full = _default_cache(a)
        for n in range(1, n_max + 1):
            level = tiny.level(n)
            if level.complete:
                reference = full.level(n)
                assert reference.complete, (a, n, budget)
                assert level.exponents == reference.exponents, (a, n, budget)


class TestSweep:
    def test_levels_are_built_once(self, base_2i):
        cache = CycloFactorCache(base_2i)
        longer = cache.sweep(12)
        shorter = cache.sweep(10)
        assert [dec.n for dec in longer] == list(range(1, 13))
        assert len(shorter) == 10
        assert all(shorter[i] is longer[i] for i in range(10))
        assert cache.sweep(12)[11] is longer[11]
        assert cache.sweep(0) == cache.sweep(-3) == []

    def test_checks_share_one_sweep(self, base_2i, monkeypatch):
        calls = []
        original = cyclo.decompose

        def counting(cache, n):
            calls.append(n)
            return original(cache, n)

        monkeypatch.setattr(cyclo, "decompose", counting)
        cache = CycloFactorCache(base_2i)
        assert check_pairwise_coprime(cache, 10).passed
        assert calls == list(range(1, 11))
        assert check_squarefree_nonwieferich(cache, 10).passed
        assert check_pairwise_coprime(cache, 10).passed
        assert not bound_trend_report(cache, 10).identity_violations
        assert calls == list(range(1, 11))


class TestInvariants:
    def test_no_assert_statements_in_package(self):
        package = Path(cyclo.__file__).parent
        for path in sorted(package.glob("*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))
            asserts = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
            assert not asserts, (path.name, asserts)

    def test_only_workers_forks_or_counts_cpus(self):
        """Whether to fork, and how wide, is decided in workers.py alone."""
        package = Path(cyclo.__file__).parent
        decision = {"fork", "usable_cpus"}
        for path in sorted(package.glob("*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))
            names = set()
            for node in ast.walk(tree):
                if isinstance(node, ast.Attribute):
                    names.add(node.attr)
                elif isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.alias):
                    names.add(node.asname or node.name)
            if path.name == "workers.py":
                assert names >= decision
            else:
                assert not names & decision, path.name

    def test_public_names_resolve_once(self):
        names = wieferich.__all__
        assert len(names) == len(set(names))
        missing = [name for name in names if not hasattr(wieferich, name)]
        assert not missing
