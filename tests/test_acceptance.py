"""Acceptance gate: ten end-to-end criteria, one printed pass/fail line each.

Expensive cyclotomic factorizations are shared through module-scoped caches.
Every numeric expectation here is frozen; quantities that depend on the
factoring budget are quantified over budget-complete levels only.
"""

from fractions import Fraction

import pytest

from wieferich import (
    CycloFactorCache,
    FieldSpec,
    STRATEGY_PRIME_LEVELS,
    census,
    check_cyclotomic_norm_lower_bound,
    check_order_consistency_range,
    check_pairwise_coprime,
    check_sandwich,
    check_squarefree_nonwieferich,
    check_upper_norm_bound,
    classify_base,
    element_valuation,
    exception_set_union,
    high_totient_count,
    primes_above,
    scan_wieferich_places,
)
from wieferich.qfield import BaseClass
from wieferich.verify import bound_trend_report


def verdict(num: int, ok: bool, detail: str) -> None:
    print(f"CRITERION {num:02d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="module")
def sweep():
    """Base -> shared factorization cache for the level sweeps."""
    gauss = FieldSpec.from_d(1)
    d2 = FieldSpec.from_d(2)
    bases = [
        gauss.element(2, 1),
        gauss.element(1, 2),
        gauss.element(3, 0),
        d2.element(2, 1),
        d2.element(1, 2),
    ]
    return [(a, CycloFactorCache(a)) for a in bases]


def test_criterion_01_rational_wieferich_census(rational_field):
    two = rational_field.element(2)
    hits2, tested2 = scan_wieferich_places(two, 10**5)
    found2 = sorted(r.place.p for r in hits2)
    three = rational_field.element(3)
    hits3, tested3 = scan_wieferich_places(three, 1_100_000)
    found3 = sorted(r.place.p for r in hits3)
    ok = found2 == [1093, 3511] and found3 == [11, 1006003]
    verdict(
        1,
        ok,
        f"base 2 over p <= 1e5 gives {found2}, base 3 over p <= 1.1e6 gives {found3} "
        f"({tested2} and {tested3} places tested)",
    )


def test_criterion_02_gauss_places_above_rational_wieferich(gauss_field):
    two = gauss_field.element(2, 0)
    hits, tested = scan_wieferich_places(two, 10**4)
    labels = sorted(r.place.label() for r in hits)
    expected = sorted(
        P.label() for p in (1093, 3511) for P in primes_above(gauss_field, p)
    )
    split_count = sum(1 for r in hits if r.place.p == 1093)
    inert_count = sum(1 for r in hits if r.place.p == 3511)
    # independent re-check through valuations instead of residue arithmetic
    one = gauss_field.one()
    revalidated = all(
        element_valuation(r.place, two ** (r.norm - 1) - one) >= 2 for r in hits
    )
    ok = labels == expected and split_count == 2 and inert_count == 1 and revalidated
    verdict(
        2,
        ok,
        f"hits over p <= 1e4: {labels} ({tested} places tested), "
        f"valuation route agrees: {revalidated}",
    )


def test_criterion_03_exception_set_equals_displayed_31():
    displayed = {(0, 0, 0), (0, 1, 0), (0, -1, 0)}
    displayed |= {(1, 0, 1), (1, 0, -1), (1, 1, 1), (1, 1, -1), (1, -1, 1), (1, -1, -1)}
    displayed |= {(2, 0, 1), (2, 0, -1), (2, 1, 1), (2, 1, -1), (2, -1, 1), (2, -1, -1)}
    displayed |= {(3, 0, 1), (3, 1, -1), (3, -1, 1), (3, 0, -1)}       # (+-1 +- sqrt(-3))/2
    displayed |= {(3, 1, 1), (3, 2, -1), (3, -2, 1), (3, -1, -1)}      # (+-3 +- sqrt(-3))/2
    displayed |= {(7, 0, 1), (7, 1, -1), (7, -1, 1), (7, 0, -1)}
    displayed |= {(11, 0, 1), (11, 1, -1), (11, -1, 1), (11, 0, -1)}
    assert len(displayed) == 31
    enumerated = {(d, a.x, a.y) for d, a in exception_set_union(12)}
    extra = sorted(enumerated - displayed)
    missing = sorted(displayed - enumerated)
    ok = enumerated == displayed
    verdict(
        3,
        ok,
        f"enumeration yields {len(enumerated)} elements; extra beyond the displayed "
        f"31: {extra}; missing: {missing}",
    )


def test_criterion_04_squarefree_part_places_nonwieferich(sweep):
    details = []
    ok = True
    for a, cache in sweep:
        report = check_squarefree_nonwieferich(cache, 40)
        ok = ok and report.passed and report.checked > 0
        details.append(f"{a}: {report.checked} places, {len(report.violations)} violations")
    verdict(4, ok, "; ".join(details))


def test_criterion_05_level_slices_pairwise_coprime(sweep):
    details = []
    ok = True
    for a, cache in sweep:
        report = check_pairwise_coprime(cache, 40)
        ok = ok and report.passed and report.checked > 0
        details.append(f"{a}: {report.checked} pairs, {len(report.violations)} violations")
    verdict(5, ok, "; ".join(details))


def test_criterion_06_norm_bounds_and_sandwich():
    sample = [FieldSpec.rational().element(n) for n in (2, 3, 5, 7, 10)]
    for d in (1, 2, 3, 5, 6, 7, 10, 11, 13, 15):
        field = FieldSpec.from_d(d)
        found = 0
        for y in range(3):
            for x in range(-3, 4):
                a = field.element(x, y)
                if classify_base(a) is BaseClass.ELIGIBLE and found < 5:
                    sample.append(a)
                    found += 1
    assert len(sample) >= 50
    bound_violations = 0
    for a in sample:
        bound_violations += len(check_upper_norm_bound(a, 60).violations)
        bound_violations += len(check_cyclotomic_norm_lower_bound(CycloFactorCache(a), 60).violations)
    sandwich_violations = 0
    for i in range(20):
        b = Fraction(2) + Fraction(8 * i, 19)
        sandwich_violations += len(check_sandwich(b, 200).violations)
    ok = bound_violations == 0 and sandwich_violations == 0
    verdict(
        6,
        ok,
        f"{len(sample)} bases at n <= 60 with {bound_violations} bound violations; "
        f"20 rational b in [2,10] at n <= 200 with {sandwich_violations} sandwich violations",
    )


def test_criterion_07_order_consistency(sweep):
    details = []
    ok = True
    for a, cache in sweep:
        report = check_order_consistency_range(cache, 40)
        ok = ok and report.passed and report.checked > 0
        details.append(f"{a}: {report.checked} orders, {len(report.violations)} violations")
    verdict(7, ok, "; ".join(details))


def test_criterion_08_distinct_new_primes_and_log_growth(sweep):
    # the census owns its sweep, so it builds its own cache per call
    a = sweep[0][0]
    ok = True
    details = []
    for k in (1, 3):
        primes_only = census(a, k, 37, strategy=STRATEGY_PRIME_LEVELS)
        first = {}
        for r in primes_only.records:
            first.setdefault(r.discovered_at_level, r.place)
        complete_hits = [first.get(k * q) for q in primes_only.complete_multipliers]
        distinct = len({P.label() for P in complete_hits if P is not None})
        all_fresh = all(P is not None for P in complete_hits)
        pairwise_distinct = distinct == len(complete_hits)

        result = census(a, k, 37)
        summary = result.summary()
        entries = summary["counts_by_level"]
        counts = summary["counts"]
        nondecreasing = counts == sorted(counts)
        within_grid = all(e["norms_within_grid"] for e in entries)
        mult = [e["multiplier"] for e in entries]
        cum = [e["cumulative_records"] for e in entries]
        growth = all(
            cum[j] - cum[i] >= sum(1 for m in mult if mult[i] < m < mult[j])
            for i in range(len(mult))
            for j in range(i + 1, len(mult))
        )
        ok = ok and all_fresh and pairwise_distinct and nondecreasing and within_grid and growth
        details.append(
            f"k={k}: {len(complete_hits)} complete prime levels, distinct={pairwise_distinct}, "
            f"count nondecreasing={nondecreasing}, log-growth inequality={growth}"
        )
    verdict(8, ok, "; ".join(details))


def test_criterion_09_totient_density_positive_and_stable():
    hand = high_totient_count(10, 1)
    # all k at one x, then all k at the other: high_totient_count keeps the
    # totient table of the last x only
    at_1e5 = [high_totient_count(10**5, k) / 10**5 for k in range(1, 11)]
    at_1e4 = [high_totient_count(10**4, k) / 10**4 for k in range(1, 11)]
    ok = hand == 3 and all(hi > 0 and abs(hi - lo) <= 0.05 for hi, lo in zip(at_1e5, at_1e4))
    rows = [f"k={k}: {density:.4f}" for k, density in enumerate(at_1e5, 1)]
    verdict(
        9,
        ok,
        f"hand case count(10, 1) = {hand}; densities at 1e5 all positive and within "
        f"0.05 of 1e4 values ({'; '.join(rows)})",
    )


def test_criterion_10_powerful_ratio_envelope(sweep):
    trend = bound_trend_report(sweep[0][1], 40)
    ratio = trend.summary()["last_quartile_max_powerful_ratio"]
    ok = not trend.identity_violations and ratio is not None and ratio <= 0.5
    verdict(
        10,
        ok,
        f"last-quartile powerful-part ratio {ratio:.4f} <= 0.5 with "
        f"{len(trend.identity_violations)} norm identity violations over "
        f"{len(trend.entries)} complete levels",
    )
