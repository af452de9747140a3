"""Exact bound checks, exception-set enumeration, and quality statistics."""

import dataclasses
import math
import sys
from fractions import Fraction
from itertools import combinations

import pytest

from wieferich import (
    BudgetExhausted,
    CycloFactorCache,
    FactorBudget,
    FieldSpec,
    IdealFactorization,
    abc_quality,
    check_cyclotomic_norm_lower_bound,
    check_order_consistency_range,
    check_pairwise_coprime,
    check_sandwich,
    check_squarefree_nonwieferich,
    check_upper_norm_bound,
    cyclotomic_eval,
    decompose,
    divisors,
    euler_phi,
    exception_set,
    exception_set_union,
    factorize,
    primes_above,
    run_full_verification,
)
from wieferich import verify
from wieferich.verify import bound_trend_report

from test_cyclo import naive_mobius


SANDWICH_BASES = [2, 3, 10, Fraction(5, 2), Fraction(7, 3)]
# the twenty b = 2 + 8i/19 of the acceptance sweep, the bases above, and a
# fraction just above 2 with a larger numerator
EXACT_SANDWICH_BASES = [*(2 + Fraction(8 * i, 19) for i in range(20)), *SANDWICH_BASES,
                        Fraction(101, 50)]


def brute_norm_le_3(d):
    """Direct lattice scan with the norm form, independent of the package path."""
    half = d % 4 == 3
    out = set()
    for x in range(-8, 9):
        for y in range(-8, 9):
            norm = x * x + x * y + ((1 + d) // 4) * y * y if half else x * x + d * y * y
            if norm <= 3:
                out.add((x, y))
    return out


class TestBoundChecks:
    def test_upper_norm_bound_rational(self, rational_field):
        report = check_upper_norm_bound(rational_field.element(2), 30)
        assert report.passed and report.checked == 30
        # n = 1 is tight: max(|2-1|, |2+1|) = 3 against 2 * 2
        assert report.min_slack == 1

    def test_upper_norm_bound_quadratic(self, base_2i):
        report = check_upper_norm_bound(base_2i, 40)
        assert report.passed
        assert report.checked == 40
        assert not report.skipped

    def test_upper_bound_skips_vanishing_level(self, d3_field):
        # 2*omega - 1 = sqrt(-3) has norm 3 but its square is -3: (a**2 - 1) has norm 4
        root = d3_field.element(-1, 2)
        report = check_upper_norm_bound(root, 6)
        assert report.passed

    def test_lower_bound_example(self, rational_field):
        report = check_cyclotomic_norm_lower_bound(CycloFactorCache(rational_field.element(2)), 30)
        assert report.passed
        # n = 6: 2**phi(6) = 4 against 2 * |Phi_6(2)| = 6
        assert 2 ** euler_phi(6) <= 2 * abs(cyclotomic_eval(6, rational_field.element(2)).x)

    def test_lower_bound_requires_eligible(self, gauss_field):
        with pytest.raises(ValueError):
            check_cyclotomic_norm_lower_bound(CycloFactorCache(gauss_field.element(1, 1)), 10)

    @pytest.mark.parametrize("b", SANDWICH_BASES)
    def test_sandwich_certifies(self, b):
        report = check_sandwich(b, 60)
        assert report.passed
        assert report.checked == 59
        assert report.min_slack is not None and report.min_slack > 0

    def test_sandwich_rejects_small_base(self):
        with pytest.raises(ValueError):
            check_sandwich(Fraction(3, 2), 10)

    def test_sandwich_against_float_reference(self):
        # crude float recomputation stays inside the certified corridor
        for n in (2, 12, 30):
            signs = {d: naive_mobius(n // d) for d in divisors(n)}
            total = sum(sign * math.log(1 - 2.0**-d) for d, sign in signs.items() if sign)
            assert abs(total) <= math.log(2) + 1e-9
        # the reported slack is the smallest distance to +-log 2 over the levels;
        # at b = 2 the d = 1 term is exactly -log 2, so it is kept as a multiple
        # of log 2 and the slack near a prime level is the tiny remainder itself
        for b in SANDWICH_BASES:
            slacks = []
            for n in range(2, 61):
                halves, rest = 0, 0.0
                for d in divisors(n):
                    sign = naive_mobius(n // d)
                    if b == 2 and d == 1:
                        halves -= sign
                    elif sign:
                        rest += sign * math.log1p(-float(Fraction(1) / Fraction(b) ** d))
                slacks.append((1 - halves) * math.log(2) - rest)
                slacks.append((1 + halves) * math.log(2) + rest)
            assert min(slacks) > 0
            assert math.isclose(check_sandwich(b, 60).min_slack, min(slacks), rel_tol=1e-12)

    @pytest.mark.parametrize("b", EXACT_SANDWICH_BASES, ids=str)
    def test_sandwich_levels_equal_the_mobius_product(self, b, monkeypatch):
        # check_sandwich divides ints, and int / int is correctly rounded, so
        # at each level its two log1p arguments are exactly the floats of
        # 2/P_n - 1 and 2*P_n - 1 for the Fraction product P_n of the definition
        seen = []
        log1p = math.log1p
        monkeypatch.setattr(verify.math, "log1p", lambda x: seen.append(x) or log1p(x))
        report = check_sandwich(b, 200)
        expected = []
        for n in range(2, 201):
            product = math.prod(
                (1 - 1 / Fraction(b) ** d) ** naive_mobius(n // d) for d in divisors(n)
            )
            expected += [float(2 / product - 1), float(2 * product - 1)]
        assert seen == expected
        assert report.min_slack == min(map(log1p, expected))

    def test_pairwise_coprime(self, cache_2i):
        report = check_pairwise_coprime(cache_2i, 12)
        assert report.passed
        assert report.checked == 66

    def test_pairwise_coprime_matches_every_pair_on_planted_places(self, gauss_field, base_2i):
        # a place above 13 goes into the slices of levels 3, 4 and 9, one above
        # 29 into those of 3, 5 and 9; level 2 is made unfinished, so it is
        # skipped and paired with nothing
        cache = CycloFactorCache(base_2i)
        cache.sweep(10)
        p13, p29 = primes_above(gauss_field, 13)[0], primes_above(gauss_field, 29)[0]
        plants = {3: [p13, p29], 4: [p13], 5: [p29], 9: [p13, p29]}
        for n, planted in plants.items():
            dec = cache._decompositions[n - 1]
            exponents = {**dec.level_squarefree.exponents, **dict.fromkeys(planted, 1)}
            cache._decompositions[n - 1] = dataclasses.replace(
                dec, level_squarefree=IdealFactorization(gauss_field, exponents)
            )
        cache._decompositions[1] = dataclasses.replace(
            cache._decompositions[1], power_ideal=IdealFactorization(gauss_field, {}, 3)
        )
        slices = {dec.n: dec.level_squarefree for dec in cache.sweep(10) if dec.complete}
        expected = []
        for m, n in combinations(sorted(slices), 2):
            shared = slices[m].gcd(slices[n])
            if shared.exponents:
                expected.append({"m": m, "n": n, "gcd": repr(shared)})
        report = check_pairwise_coprime(cache, 10)
        assert report.violations == expected
        assert [(v["m"], v["n"]) for v in expected] == [(3, 4), (3, 5), (3, 9), (4, 9), (5, 9)]
        assert report.checked == 9 * 8 // 2
        assert report.skipped == [{"n": 2, "reason": "incomplete factorization"}]

    def test_squarefree_nonwieferich(self, cache_2i):
        report = check_squarefree_nonwieferich(cache_2i, 12)
        assert report.passed
        assert report.checked > 0

    def test_squarefree_nonwieferich_tests_each_place_once(self, monkeypatch, rational_field):
        cache = CycloFactorCache(rational_field.element(2))
        pairs = [(dec.n, P) for dec in cache.sweep(40) for P, _ in dec.squarefree.items_sorted()]
        real = verify.is_wieferich_place
        calls = []

        def verdict(P, a):
            # the place above 3 is flagged, so the report has violations to compare
            return P.p == 3 or real(P, a)

        def spy(P, a):
            calls.append(P)
            return verdict(P, a)

        uncached = [{"n": n, "place": P.label()} for n, P in pairs if verdict(P, cache.a)]
        monkeypatch.setattr(verify, "is_wieferich_place", spy)
        report = check_squarefree_nonwieferich(cache, 40)
        places = {P for _, P in pairs}
        assert len(calls) == len(places) == len(set(calls))
        assert report.checked == len(pairs) > len(places)
        assert report.violations == uncached
        assert len(uncached) > 1

    def test_order_consistency_range(self, cache_2i):
        report = check_order_consistency_range(cache_2i, 12)
        assert report.passed

    def test_order_consistency_catches_a_planted_place(self, gauss_field, base_2i):
        # (13, split, 5) has order 12 for 2 + i: at level 6 the base's power is
        # not 1 there, and at level 24 the order proved from n falls short of n
        planted = primes_above(gauss_field, 13)[0]
        assert planted.t == 5
        details = {}
        for n in (6, 24):
            cache = CycloFactorCache(base_2i)
            exponents = {**cache.level(n).exponents, planted: 1}
            cache._levels[n] = IdealFactorization(gauss_field, exponents)
            details[n] = [v["detail"] for v in check_order_consistency_range(cache, n).violations]
        assert details == {
            6: ["(13,split,5): a**n is not 1 at level 6"],
            24: ["(13,split,5): order 12 != expected 24 at level 24"],
        }

    def test_order_consistency_skips_only_unfinished_levels(self, d2_field):
        # no Nm(P) - 1 is factored, so a budget too small for those leaves
        # every place of a finished level checked
        cache = CycloFactorCache(d2_field.element(2, 1), FactorBudget(1000, 10))
        report = check_order_consistency_range(cache, 40)
        assert report.passed
        assert {s["reason"] for s in report.skipped} == {"incomplete factorization"}
        assert report.checked == 40

    def test_order_consistency_factors_nothing_on_a_warm_cache(self, monkeypatch, cache_2i):
        cache_2i.sweep(24)
        calls = []

        def spy(*args, **kwargs):
            calls.append(args)
            return factorize(*args, **kwargs)

        for module in [m for name, m in sys.modules.items() if name.startswith("wieferich.")]:
            if getattr(module, "factorize", None) is factorize:
                monkeypatch.setattr(module, "factorize", spy)
        report = check_order_consistency_range(cache_2i, 24)
        assert report.passed and report.checked > 0
        assert calls == []

    def test_level_with_a_cofactor_is_skipped(self, d3_field):
        # at trial limit 50 without rho, Phi_30(1 + w) keeps 16531 = 61 * 271
        # while a**30 - 1 is accounted for by primes certified at other levels
        cache = CycloFactorCache(d3_field.element(1, 1), FactorBudget(50, 0))
        dec = decompose(cache, 30)
        assert dec.power_ideal.complete and dec.level_ideal.cofactor == 16531
        assert not dec.complete
        assert 30 in [s["n"] for s in check_pairwise_coprime(cache, 30).skipped]
        assert 30 in bound_trend_report(cache, 30).skipped_levels
        # the squarefree part of a**30 - 1 is exact, so that check reads level 30
        squarefree = check_squarefree_nonwieferich(cache, 30)
        assert 30 not in [s["n"] for s in squarefree.skipped]
        assert squarefree.passed
        assert squarefree.checked > check_squarefree_nonwieferich(cache, 29).checked

    def test_full_verification_sweeps_use_its_budget(self, d2_field):
        # each sweep report of the bundle equals the standalone check on a
        # fresh cache of the same base and budget
        a, budget = d2_field.element(2, 1), FactorBudget(1000, 10)
        full = run_full_verification(a, 40, budget)
        by_tag = {r.tag: r.as_dict() for r in full.reports}
        for check in (check_pairwise_coprime, check_squarefree_nonwieferich,
                      check_order_consistency_range):
            alone = check(CycloFactorCache(a, budget), 40).as_dict()
            assert by_tag[alone["tag"]] == alone
        trend = bound_trend_report(CycloFactorCache(a, budget), 40)
        assert full.trend.summary() == trend.summary()
        assert full.trend.entries == trend.entries
        assert full.trend.skipped_levels  # the small budget leaves levels unfinished

    def test_report_serialization(self, base_2i):
        report = check_upper_norm_bound(base_2i, 5)
        payload = report.as_dict()
        assert payload["tag"] == "upper-norm-bound"
        assert payload["checked"] == 5
        assert payload["violations"] == []


class TestTrend:
    def test_identity_and_ratios(self, cache_2i):
        trend = bound_trend_report(cache_2i, 20)
        assert not trend.identity_violations
        for entry in trend.entries:
            assert set(entry) == {"n", "squarefree_ratio", "powerful_ratio"}
            assert 0 <= entry["powerful_ratio"] <= 1
        summary = trend.summary()
        assert summary["last_quartile_max_powerful_ratio"] <= 1

    def test_requires_growing_base(self, gauss_field):
        with pytest.raises(ValueError, match="neither zero nor of magnitude one"):
            bound_trend_report(CycloFactorCache(gauss_field.element(0, 1)), 10)


class TestExceptionSet:
    @pytest.mark.parametrize("d", [1, 2, 3, 5, 6, 7, 10, 11])
    def test_matches_lattice_scan(self, d):
        field = FieldSpec.from_d(d)
        got = {(a.x, a.y) for a in exception_set(d)}
        assert got == brute_norm_le_3(d)

    def test_rejects_rational_and_bad_d(self):
        for bad in (0, 4, -1):
            with pytest.raises(ValueError, match="squarefree integer >= 1"):
                exception_set(bad)

    def test_counts(self):
        assert {d: len(exception_set(d)) for d in (1, 2, 3, 5, 7, 11)} == {
            1: 9,
            2: 9,
            3: 13,
            5: 3,
            7: 7,
            11: 7,
        }

    @pytest.mark.parametrize("d", [1, 2, 3, 7, 11])
    def test_closed_under_negation_and_conjugation(self, d):
        elems = set(exception_set(d))
        zero = FieldSpec.from_d(d).zero()
        for a in elems:
            assert (zero - a) in elems
            assert a.conjugate() in elems

    def test_union_structure(self):
        union = exception_set_union(12)
        # rational entries deduplicate 0 and +-1 across fields
        by_d = {}
        for d, a in union:
            by_d.setdefault(d, []).append(a)
        assert {d: len(v) for d, v in by_d.items()} == {0: 3, 1: 6, 2: 6, 3: 10, 7: 4, 11: 4}
        assert len(union) == 33
        for _, a in union:
            assert abs(a.norm()) <= 3

    def test_fields_past_11_add_nothing(self):
        # |disc| > 12 leaves only the rational -1, 0 and 1, which d = 1 adds
        for d in range(12, 200):
            if all(d % (p * p) for p in range(2, 15)):
                assert {(a.x, a.y) for a in exception_set(d)} == {(-1, 0), (0, 0), (1, 0)}, d

    def test_union_work_is_bounded_for_huge_d_max(self, monkeypatch):
        calls = []
        real = verify.is_squarefree

        def spy(d):
            calls.append(d)
            if len(calls) > 50:
                raise AssertionError("exception_set_union walks every d up to d_max")
            return real(d)

        monkeypatch.setattr(verify, "is_squarefree", spy)
        assert exception_set_union(10**12) == exception_set_union(11)


class TestQuality:
    def test_rational_example(self, rational_field):
        report = abc_quality(rational_field.element(9), rational_field.element(-8))
        assert report.max_norm == 9
        assert report.radical_product == 6
        assert report.quality == pytest.approx(math.log(9) / math.log(6))

    def test_gauss_example(self, gauss_field):
        alpha = gauss_field.element(2, 1) ** 2
        beta = gauss_field.zero() - gauss_field.element(2, 1) ** 2 + gauss_field.one()
        report = abc_quality(alpha, beta)
        assert report.max_norm == 25
        assert report.radical_product == 50
        assert report.quality == pytest.approx(math.log(25) / math.log(50))
        assert report.height == pytest.approx(5.0)
        assert report.conductor == pytest.approx(math.sqrt(50))

    def test_swap_invariance(self, gauss_field):
        alpha = gauss_field.element(3, 4)
        beta = gauss_field.element(-2, -4)
        assert abc_quality(alpha, beta).quality == abc_quality(beta, alpha).quality

    def test_unit_scaling_invariance(self, gauss_field):
        alpha = gauss_field.element(3, 4)
        beta = gauss_field.element(-2, -4)
        unit = gauss_field.element(0, 1)
        scaled = abc_quality(alpha * unit, beta * unit)
        assert scaled.quality == pytest.approx(abc_quality(alpha, beta).quality)

    def test_rejects_degenerate(self, gauss_field):
        one = gauss_field.one()
        with pytest.raises(ValueError):
            abc_quality(one, gauss_field.zero() - one)  # sums to zero
        with pytest.raises(ValueError):
            abc_quality(gauss_field.zero(), one)
        with pytest.raises(ValueError):
            abc_quality(gauss_field.element(2, 0), gauss_field.element(3, 0))  # sum not a unit

    def test_budget_exhaustion(self, rational_field):
        big = rational_field.element(2) ** 101
        with pytest.raises(BudgetExhausted):
            abc_quality(
                big,
                rational_field.one() - big,
                FactorBudget(trial_limit=100, rho_iterations=0),
            )

    def test_unit_radical_gives_no_quality(self, d3_field):
        # omega + (1 - omega) = 1 with all three elements units
        report = abc_quality(d3_field.element(0, 1), d3_field.element(1, -1))
        assert report.radical_product == 1
        assert report.quality is None


class TestFullVerification:
    def test_passes_for_eligible_base(self, base_2i):
        outcome = run_full_verification(base_2i, 8)
        assert outcome.passed
        tags = [r.tag for r in outcome.reports]
        assert tags == [
            "upper-norm-bound",
            "cyclotomic-norm-lower-bound",
            "sandwich",
            "pairwise-coprime-level-slices",
            "squarefree-places-nonwieferich",
            "order-consistency",
        ]
        payload = outcome.as_dict()
        assert payload["passed"] is True
        assert payload["base"] == "2,1"

    def test_small_base_skips_lower_bound(self, gauss_field):
        outcome = run_full_verification(gauss_field.element(1, 1), 6)
        tags = [r.tag for r in outcome.reports]
        assert "cyclotomic-norm-lower-bound" not in tags
        assert outcome.passed

    def test_rejects_empty_level_range(self, base_2i):
        with pytest.raises(ValueError, match="n_max must be >= 1"):
            run_full_verification(base_2i, 0)

    def test_n_max_reads_as_an_index(self, base_2i):
        for value in (6.0, Fraction(6), "6"):
            with pytest.raises(TypeError, match="n_max must be an integer"):
                run_full_verification(base_2i, value)
        outcome = run_full_verification(base_2i, True)
        assert type(outcome.n_max) is int and outcome.as_dict() == run_full_verification(base_2i, 1).as_dict()
