"""Wieferich classification, the census, and its first-occurrence bookkeeping."""

import tracemalloc
from functools import partial
from math import gcd

import pytest

from wieferich import (
    CycloFactorCache,
    FactorBudget,
    FieldSpec,
    KIND_INERT,
    KIND_RAMIFIED,
    KIND_SPLIT,
    STRATEGY_ALL_LEVELS,
    STRATEGY_PRIME_LEVELS,
    census,
    check_order_consistency_range,
    check_squarefree_nonwieferich,
    cyclotomic_eval,
    decompose,
    divisors,
    element_valuation,
    is_wieferich_place,
    place_report,
    primes_above,
    scan_wieferich_places,
)
from wieferich import cyclo, ideals, intfactor, places, workers
from wieferich.ideals import is_unit_mod
from wieferich.intfactor import padic_valuation, primes_up_to
from wieferich.places import CensusRecord, CensusResult


def brute_multiplicative_order(a: int, modulus: int) -> int:
    value, k = a % modulus, 1
    while value != 1:
        value = value * a % modulus
        k += 1
    return k


class TestWieferichTest:
    def test_classical_rational_hits(self, rational_field):
        two = rational_field.element(2)
        for p, expected in ((1093, True), (3511, True), (5, False), (1091, False)):
            P = primes_above(rational_field, p)[0]
            assert is_wieferich_place(P, two) == expected

    def test_base_in_place_rejected(self, gauss_field):
        P = primes_above(gauss_field, 5)[1]
        assert (P.kind, P.t) == (KIND_SPLIT, 3)
        with pytest.raises(ValueError):
            is_wieferich_place(P, gauss_field.element(2, 1))

    def test_report_fields(self, gauss_field):
        P = primes_above(gauss_field, 5)[0]
        assert (P.kind, P.t) == (KIND_SPLIT, 2)
        report = place_report(P, gauss_field.element(2, 1))
        assert report.norm == 5
        assert report.order == 2
        assert report.wieferich is False
        assert report.as_dict() == {
            "p": 5,
            "kind": "split",
            "t": 2,
            "norm": 5,
            "order": 2,
            "wieferich": False,
        }

    def test_order_divides_norm_minus_one(self, gauss_field):
        a = gauss_field.element(2, 1)
        for p in (3, 7, 11, 13, 17, 29):
            for P in primes_above(gauss_field, p):
                if element_valuation(P, a):
                    continue
                report = place_report(P, a)
                assert (P.norm - 1) % report.order == 0

    def test_scan_adds_no_lifted_roots(self, gauss_field, monkeypatch):
        # 4+i has no Wieferich place below 2*10**4, so no report lifts a root either
        calls = []
        lift = ideals.lifted_root
        monkeypatch.setattr(ideals, "lifted_root", lambda P, m: calls.append(P) or lift(P, m))
        hits, tested = scan_wieferich_places(gauss_field.element(4, 1), 2 * 10**4)
        assert (hits, tested) == ([], 3386)
        assert calls == []

    def test_scan_memory_stays_flat(self, rational_field, monkeypatch):
        # tracemalloc slows every pow about 30-fold, so the scan runs to 10**4 and
        # 10**5 on segments of 1024 odd numbers: both bounds span many segments
        monkeypatch.setattr(places, "_prime_stream", partial(intfactor._prime_stream, segment=1024))
        two = rational_field.element(2)
        # a small trial limit keeps the hits' order computations off the big sieve;
        # this first scan builds what they use
        budget = FactorBudget(trial_limit=1000)
        scan_wieferich_places(two, 4000, budget)
        peaks = []
        for bound in (10**4, 10**5):
            tracemalloc.start()
            try:
                hits, _ = scan_wieferich_places(two, bound, budget)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert [r.place.p for r in hits] == [1093, 3511]
        assert peaks[1] <= 1.5 * peaks[0], peaks

    def test_scan_finds_norm_17_example(self, gauss_field):
        # (2+i)**16 == 1 mod (17, split, 4)**2: substituting the lifted root 38
        # sends 2+i to 40 mod 289 and 40**16 == 1 mod 289
        a = gauss_field.element(2, 1)
        hits, tested = scan_wieferich_places(a, 50)
        assert [r.place.label() for r in hits] == ["(17,split,4)"]
        assert hits[0].order == 16
        assert pow(40, 16, 289) == 1
        assert tested == sum(
            1
            for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)
            for P in primes_above(gauss_field, p)
            if not element_valuation(P, a)
        )


def reference_scan(a, p):
    """(Wieferich places, places tested) above p by the single-place reference."""
    verdicts = [(P, is_wieferich_place(P, a)) for P in primes_above(a.field, p) if is_unit_mod(P, a)]
    return [P for P, wieferich in verdicts if wieferich], len(verdicts)


# Per ring, bases that lie in a split, an inert and a ramified place (in that
# order where the ring has an odd ramified prime), plus a few units everywhere
# else; base 2 in Z[i] also has the inert Wieferich place above 3511, and the
# rational base 5 == 1 mod 4 is Wieferich at 2.
KERNEL_BASES = {
    0: [(2,), (3,), (-5,), (6,), (5,)],
    1: [(2, 1), (3, 0), (1, 1), (2, 0), (-3, 4)],
    2: [(1, 1), (5, 0), (0, 1), (-3, 2)],
    3: [(2, 1), (5, 0), (1, 1), (2, 0)],
    7: [(1, 2), (3, 0), (-1, 2), (1, 1)],
    11: [(0, 1), (7, 0), (-1, 2), (2, -1)],
}

# Rings scanned in one kernel call over all primes to 5000, so that a class of
# p mod |D| is looked up as well as filled: D = -20; D = -4036, ramified at
# 1009; D = -100003, whose |D| exceeds every scanned prime, so every class is new.
WIDE_KERNEL_BASES = {
    5: [(2, 1), (3, -1)],
    1009: [(2, 1), (1, 3)],
    100003: [(2, 1), (0, 1)],
}


class TestScanKernel:
    """The scan kernel decides every place exactly as is_wieferich_place does."""

    @pytest.mark.parametrize("d", sorted(KERNEL_BASES))
    def test_matches_reference_on_every_place(self, d):
        field = FieldSpec.from_d(d)
        outside = set()
        for coords in KERNEL_BASES[d]:
            a = field.element(*coords)
            for p in primes_up_to(10**4):
                assert places._wieferich_kernel(a, [p]) == reference_scan(a, p), (coords, p)
                outside.update(P.kind for P in primes_above(field, p) if not is_unit_mod(P, a))
        if d:
            assert outside == {KIND_SPLIT, KIND_INERT, KIND_RAMIFIED}

    @pytest.mark.parametrize("d", sorted(WIDE_KERNEL_BASES))
    def test_one_call_matches_reference(self, d):
        field = FieldSpec.from_d(d)
        primes = primes_up_to(5000)
        kinds = {P.kind for p in primes for P in primes_above(field, p)}
        assert kinds == {KIND_SPLIT, KIND_INERT} | ({KIND_RAMIFIED} if d < 5000 else set())
        for coords in WIDE_KERNEL_BASES[d]:
            a = field.element(*coords)
            expected_hits, expected_tested = [], 0
            for p in primes:
                hits, tested = reference_scan(a, p)
                expected_hits += hits
                expected_tested += tested
            assert places._wieferich_kernel(a, primes) == (expected_hits, expected_tested), coords

    def test_square_roots_only_at_odd_split_primes(self, gauss_field, monkeypatch):
        # p mod 4 decides split or inert in Z[i]; only a split p needs its roots
        sqrt_mod_prime, calls = ideals.sqrt_mod_prime, []

        def traced_sqrt(n, p):
            calls.append(p)
            return sqrt_mod_prime(n, p)

        monkeypatch.setattr(ideals, "sqrt_mod_prime", traced_sqrt)
        bound = 2 * 10**4
        scan_wieferich_places(gauss_field.element(2, 1), bound)
        assert calls == [p for p in primes_up_to(bound) if p % 4 == 1]

    def test_hits_cover_every_kind(self):
        covered = set()
        for d, bases in KERNEL_BASES.items():
            field = FieldSpec.from_d(d)
            for coords in bases:
                hits, _ = places._wieferich_kernel(field.element(*coords), primes_up_to(10**4))
                covered.update((P.kind, P.p == 2) for P in hits)
        for kind in (KIND_SPLIT, KIND_INERT, KIND_RAMIFIED):
            assert {(kind, True), (kind, False)} <= covered, kind

    def test_natural_inert_hit(self, gauss_field):
        (P,) = primes_above(gauss_field, 3511)
        assert P.kind == KIND_INERT
        assert places._wieferich_kernel(gauss_field.element(2), [3511]) == ([P], 1)

    @pytest.mark.parametrize("d", [1, 2, 3, 7, 11])
    def test_forced_inert_wieferich_elements(self, d):
        field = FieldSpec.from_d(d)
        inert = [p for p in primes_up_to(100)[1:] if primes_above(field, p)[0].kind == KIND_INERT]
        assert inert
        for p in inert:
            pp = p * p
            (P,) = primes_above(field, p)
            for t in (2, 3, 5, 7):
                if t % p == 0:
                    continue
                c = pow(t, p, pp)  # c**(p-1) == 1 mod p**2
                # a == c mod p**2 O: a**(p+1) has w-coordinate 0 mod p**2
                for a in (field.element(c), field.element(c + pp, pp), field.element(c - 3 * pp, -2 * pp)):
                    assert reference_scan(a, p) == ([P], 1)
                    assert places._wieferich_kernel(a, [p]) == ([P], 1)
                # c + p*w passes the rational test on its norm but not the w-coordinate test
                a = field.element(c, p)
                assert reference_scan(a, p) == ([], 1)
                assert places._wieferich_kernel(a, [p]) == ([], 1)

    def test_near_miss_reaches_the_pair_power(self, gauss_field, monkeypatch):
        # the norm test rejects almost every inert place; c + p*w must pass it
        # and be rejected only by the w-coordinate of a**(p+1)
        pair_pow, powers = places._pair_pow, []

        def traced_pair_pow(*args):
            powers.append(pair_pow(*args))
            return powers[-1]

        monkeypatch.setattr(places, "_pair_pow", traced_pair_pow)
        for p in (3, 7, 11, 19, 23, 31, 43):
            pp = p * p
            assert primes_above(gauss_field, p)[0].kind == KIND_INERT
            c = pow(2, p, pp)
            a = gauss_field.element(c, p)
            assert pow(a.abs_norm(), p - 1, pp) == 1
            powers.clear()
            assert places._wieferich_kernel(a, [p]) == ([], 1)
            ((bx, by),) = powers
            assert pow(bx, p - 1, pp) == 1 and by % pp != 0


class TestPlaceRows:
    """PrimeIdeal.as_dict is the one spelling of a place in an output row."""

    @pytest.mark.parametrize("d, p, expected", [
        (0, 7, [{"p": 7, "kind": "rational", "t": None, "norm": 7}]),
        (1, 5, [{"p": 5, "kind": "split", "t": 2, "norm": 5}, {"p": 5, "kind": "split", "t": 3, "norm": 5}]),
        (1, 2, [{"p": 2, "kind": "ramified", "t": 1, "norm": 2}]),
        (1, 3, [{"p": 3, "kind": "inert", "t": None, "norm": 9}]),
        (2, 5, [{"p": 5, "kind": "inert", "t": None, "norm": 25}]),
    ])
    def test_prime_ideal_row(self, d, p, expected):
        rows = [P.as_dict() for P in primes_above(FieldSpec.from_d(d), p)]
        assert rows == expected
        for row in rows:
            assert list(row) == ["p", "kind", "t", "norm"]
            assert row["norm"] == (p * p if row["kind"] == KIND_INERT else p)

    def test_report_and_record_rows_begin_with_the_place(self, gauss_field):
        a = gauss_field.element(2, 1)
        for P in (*primes_above(gauss_field, 13), *primes_above(gauss_field, 3)):
            row = place_report(P, a).as_dict()
            assert list(row.items())[:4] == list(P.as_dict().items())
            assert list(row)[4:] == ["order", "wieferich"]
        records = census(a, 1, 8).records
        assert KIND_INERT in {r.place.kind for r in records}
        for record in records:
            row = record.as_dict()
            assert list(row.items())[:4] == list(record.place.as_dict().items())
            assert list(row)[4:] == ["level", "residue_class"]


class TestSquarefreeRoute:
    def test_split_example(self, base_2i, cache_2i):
        dec = decompose(cache_2i, 2)
        assert [(P.label(), e) for P, e in dec.squarefree.items_sorted()] == [("(5,split,2)", 1)]

    def test_squarefree_places_are_nonwieferich(self, base_2i, cache_2i):
        report = check_squarefree_nonwieferich(cache_2i, 12)
        assert report.passed
        assert not report.skipped
        for n in (2, 3, 5, 8, 12):
            squarefree = decompose(cache_2i, n).squarefree.items_sorted()
            assert squarefree, n
            for P, _ in squarefree:
                assert is_wieferich_place(P, base_2i) is False
                diff = base_2i ** (P.norm - 1) - base_2i.field.one()
                assert element_valuation(P, diff) == 1

    def test_rejects_degenerate_base(self, gauss_field):
        with pytest.raises(ValueError, match="neither zero nor of magnitude one"):
            decompose(CycloFactorCache(gauss_field.element(0, 1)), 3)

    def test_incomplete_level_is_skipped(self, d2_field):
        outlier = d2_field.element(2, 1)
        cache = CycloFactorCache(outlier, FactorBudget(trial_limit=10**3, rho_iterations=10))
        report = check_squarefree_nonwieferich(cache, 37)
        assert 37 in [entry["n"] for entry in report.skipped]


class TestFirstOccurrence:
    def test_worked_example(self, base_2i):
        result = census(base_2i, 1, 2)
        assert result.records[0].place.label() == "(5,split,2)"
        assert result.records[0].discovered_at_level == 2
        # level 1 holds only the ramified place, which is excluded
        assert [e["reason"] for e in result.excluded] == ["ramified"]

    def test_base_and_modulus_must_match(self, base_2i):
        with pytest.raises(ValueError, match="progression modulus"):
            census(base_2i, 0, 2)

    def test_fresh_primes_never_repeat(self, base_2i):
        result = census(base_2i, 1, 20)
        assert result.skipped_levels == []
        seen = [r.place.label() for r in result.records]
        seen += [e["place"] for e in result.excluded]
        assert len(seen) == len(set(seen))


class TestCensus:
    def test_rational_base2_zsygmondy_pattern(self, rational_field):
        result = census(rational_field.element(2), 1, 30)
        assert result.skipped_levels == []
        by_level = {}
        for r in result.records:
            by_level.setdefault(r.discovered_at_level, []).append(r.place.p)
        assert sorted(by_level) == [n for n in range(2, 31) if n != 6]
        assert by_level[2] == [3]
        assert by_level[11] == [23, 89]
        assert by_level[12] == [13]
        for r in result.records:
            assert brute_multiplicative_order(2, r.place.p) == r.discovered_at_level

    def test_gauss_excludes_ramified(self, base_2i):
        result = census(base_2i, 1, 6)
        assert result.excluded == [
            {"place": "(2,ramified,1)", "level": 1, "reason": "ramified"}
        ]
        assert [r.place.label() for r in result.records] == [
            "(5,split,2)",
            "(61,split,11)",
            "(1601,split,40)",
            "(13,split,8)",
        ]

    def test_modulus_filter(self, base_2i):
        result = census(base_2i, 3, 8)
        for r in result.records:
            assert r.norm % 3 == 1
            assert r.residue_class == 1

    def test_records_coprime_to_modulus(self, rational_field, base_2i):
        # a record at level k*m has order k*m modulo its place and a residue
        # characteristic prime to k*m, so it is prime to k and its norm is
        # 1 mod k*m
        for result in (
            census(rational_field.element(2), 3, 6),
            census(base_2i, 3, 8),
        ):
            for r in result.records:
                assert gcd(r.place.p, result.k) == 1
                assert r.norm % result.k == 1

    def test_prime_levels_strategy(self, base_2i):
        full = census(base_2i, 1, 10)
        primes_only = census(base_2i, 1, 10, strategy=STRATEGY_PRIME_LEVELS)
        assert {r.discovered_at_level for r in primes_only.records} <= {2, 3, 5, 7}
        full_at_primes = [r for r in full.records if r.discovered_at_level in (2, 3, 5, 7)]
        assert [r.place for r in full_at_primes] == [r.place for r in primes_only.records]

    def test_prime_levels_factor_only_the_divisors_of_recorded_levels(self, base_2i, monkeypatch):
        # -k 3 --n-max 26: the levels 3p for the nine primes p <= 23 and
        # their divisors are 19 levels; no level 3m with m composite is read
        values = []
        real_factor = cyclo.factor_principal

        def counting_factor(gamma, budget=None):
            values.append(gamma)
            return real_factor(gamma, budget)

        monkeypatch.setattr(workers, "usable_cpus", lambda: 1)
        monkeypatch.setattr(cyclo, "factor_principal", counting_factor)
        census(base_2i, 3, 26, strategy=STRATEGY_PRIME_LEVELS)
        closure = {d for p in primes_up_to(26) for d in divisors(3 * p)}
        assert len(closure) == len(values) == 19
        assert sorted(map(repr, values)) == sorted(repr(cyclotomic_eval(d, base_2i)) for d in closure)

    def test_small_base_warns(self, gauss_field):
        result = census(gauss_field.element(1, 1), 1, 6)
        assert result.warnings

    def test_degenerate_bases_rejected(self, gauss_field):
        with pytest.raises(ValueError, match="exception set"):
            census(gauss_field.element(0, 1), 1, 5)
        with pytest.raises(ValueError):
            census(gauss_field.zero(), 1, 5)

    def test_summary_shape(self, base_2i):
        result = census(base_2i, 1, 8)
        summary = result.summary()
        assert summary["record_count"] == len(result.records)
        assert summary["x_grid"] == [5**n for n in range(1, 9)]
        assert summary["counts"] == sorted(summary["counts"])
        assert len(summary["counts_by_level"]) == 8
        assert result.count_upto(5) == 1

    def test_skip_policy(self, d2_field):
        outlier = d2_field.element(2, 1)
        result = census(
            outlier, 1, 8, budget=FactorBudget(trial_limit=100, rho_iterations=0)
        )
        assert result.skipped_levels  # tiny budget cannot finish every level
        complete_levels = set(result.complete_multipliers)
        assert all(r.discovered_at_level in complete_levels for r in result.records)

    def test_budget_is_never_overridden(self, d2_field):
        # the levels a small budget leaves unfinished for 2 + w in d = 2
        result = census(d2_field.element(2, 1), 1, 40, FactorBudget(1000, 10))
        assert result.skipped_levels == [13, 17, 19, 23, 25, 26, 28, 29, 32, 33, 34, 37, 38, 39, 40]
        assert len(result.records) == 34


def decompose_census(a, k, n_max, budget=None, strategy=STRATEGY_ALL_LEVELS):
    """The census as it decomposed (a**(k*m) - 1) at every level, kept as the oracle.

    Every level k*m up to the last multiplier is decomposed; a level is
    complete when (a**(k*m) - 1) is, and the places of a complete level's
    squarefree slice that no smaller complete level held are fresh.
    """
    cache = CycloFactorCache(a, budget)
    if strategy == STRATEGY_PRIME_LEVELS:
        record_at = set(primes_up_to(n_max))
    else:
        record_at = set(range(1, n_max + 1))
    result = CensusResult(a, k, n_max, strategy)
    seen = set()
    for m in range(1, max(record_at, default=0) + 1):
        level = k * m
        dec = decompose(cache, level)
        recorded = m in record_at
        if not dec.power_ideal.complete:
            if recorded:
                result.skipped_levels.append(level)
            continue
        fresh = [P for P, _ in dec.level_squarefree.items_sorted() if P not in seen]
        seen.update(fresh)
        if not recorded:
            continue
        result.complete_multipliers.append(m)
        for P in fresh:
            if P.kind == KIND_RAMIFIED:
                result.excluded.append({"place": P.label(), "level": level, "reason": "ramified"})
            elif k % P.p == 0:
                result.excluded.append({"place": P.label(), "level": level,
                                        "reason": "residue characteristic divides the modulus"})
            else:
                result.records.append(CensusRecord(P, level, P.norm, P.norm % k))
    return result


def census_by_level(result):
    """{level: (records, exclusions)} over the levels a census completed."""
    out = {result.k * m: ([], []) for m in result.complete_multipliers}
    for r in result.records:
        out[r.discovered_at_level][0].append(r.as_dict())
    for entry in result.excluded:
        out[entry["level"]][1].append(entry)
    return out


# one base per ring; small budgets leave 2 + w in d = 2 with many unfinished
# levels, and 1 + w in d = 3 with levels 30, 42, 60 and 78, whose cofactors
# hide places while other levels certify their rational primes
CENSUS_GRID_BASES = {0: (3,), 1: (2, 1), 2: (2, 1), 3: (1, 1), 7: (1, 1), 11: (1, 1)}
CENSUS_GRID_N_MAX = 14
TINY_BUDGETS = [FactorBudget(50, 0), FactorBudget(7, 100), FactorBudget(2, 10)]
_DEFAULT_CENSUSES = {}


def grid_base(d):
    return FieldSpec.from_d(d).element(*CENSUS_GRID_BASES[d])


def default_census(d, k):
    if (d, k) not in _DEFAULT_CENSUSES:
        _DEFAULT_CENSUSES[d, k] = census(grid_base(d), k, CENSUS_GRID_N_MAX)
    return _DEFAULT_CENSUSES[d, k]


class TestCensusReadsLevels:
    """A level's records come from that level alone, and never depend on the budget."""

    def test_level_with_a_cofactor_is_skipped(self, d3_field):
        # at trial limit 50 without rho, Phi_30(1 + w) keeps 16531 = 61 * 271
        # and Phi_42(1 + w) keeps 1241143, although 61, 271 and the primes of
        # level 42's divisors are certified elsewhere
        result = census(d3_field.element(1, 1), 3, 14, FactorBudget(50, 0))
        assert {30, 42} <= set(result.skipped_levels)
        full = census(d3_field.element(1, 1), 3, 14)
        assert full.skipped_levels == []
        assert {r.place.label() for r in full.records if r.discovered_at_level in (30, 42)} >= {
            "(61,split,48)", "(271,split,29)", "(547,split,41)", "(2269,split,2187)"
        }

    @pytest.mark.parametrize("k", [1, 2, 3, 6])
    @pytest.mark.parametrize("d", [0, 1, 2, 3, 7])
    def test_small_budget_completes_only_default_levels(self, d, k):
        reference = census_by_level(default_census(d, k))
        for budget in TINY_BUDGETS:
            small = census_by_level(census(grid_base(d), k, CENSUS_GRID_N_MAX, budget))
            for level, found in small.items():
                assert found == reference.get(level), (d, k, budget, level)

    @pytest.mark.parametrize("strategy", [STRATEGY_ALL_LEVELS, STRATEGY_PRIME_LEVELS])
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 6])
    @pytest.mark.parametrize("d", [0, 1, 2, 3, 7, 11])
    def test_matches_the_decompose_census(self, d, k, strategy):
        a = grid_base(d)
        for budget in (None, FactorBudget(1000, 10)):
            new = census(a, k, CENSUS_GRID_N_MAX, budget, strategy)
            old = decompose_census(a, k, CENSUS_GRID_N_MAX, budget, strategy)
            assert census_by_level(new) == census_by_level(old), (d, k, budget)
            assert new.skipped_levels == old.skipped_levels, (d, k, budget)
        for budget in TINY_BUDGETS:
            new = census_by_level(census(a, k, CENSUS_GRID_N_MAX, budget, strategy))
            old = census_by_level(decompose_census(a, k, CENSUS_GRID_N_MAX, budget, strategy))
            # the new census may only skip a level the old one completed
            assert new.keys() <= old.keys(), (d, k, budget)
            assert new == {level: old[level] for level in new}, (d, k, budget)


class TestOrderConsistency:
    def test_known_level(self, base_2i, cache_2i):
        report = check_order_consistency_range(cache_2i, 12)
        assert report.passed
        assert report.skipped == []
        assert report.checked > check_order_consistency_range(cache_2i, 11).checked

    def test_expected_order_formula(self, base_2i, cache_2i):
        # every unramified prime of the level ideal has order n / p**v_p(n)
        from wieferich import residue_order

        for n in (6, 10, 12, 18):
            dec = decompose(cache_2i, n)
            for P, _ in dec.level_ideal.items_sorted():
                if P.kind == "ramified":
                    continue
                expected = n // P.p ** padic_valuation(n, P.p)
                assert residue_order(P, base_2i) == expected
                assert (P.norm - 1) % expected == 0

    def test_incomplete_checks_nothing(self, d2_field):
        outlier = d2_field.element(2, 1)
        cache = CycloFactorCache(outlier, FactorBudget(trial_limit=10**3, rho_iterations=10))
        report = check_order_consistency_range(cache, 37)
        assert {"n": 37, "reason": "incomplete factorization"} in report.skipped
        assert report.checked == check_order_consistency_range(cache, 36).checked


class TestInertRationalCorrespondence:
    """For rational bases, the inert place is Wieferich iff the rational prime is."""

    def test_inert_iff_rational(self, gauss_field, rational_field):
        two_q = gauss_field.element(2, 0)
        two_r = rational_field.element(2)
        for p in (3, 7, 11, 19, 23, 1091):
            inert = primes_above(gauss_field, p)
            if inert[0].kind != KIND_INERT:
                continue
            rational = primes_above(rational_field, p)[0]
            assert is_wieferich_place(inert[0], two_q) == is_wieferich_place(rational, two_r)

    def test_split_tracks_rational(self, gauss_field, rational_field):
        two_q = gauss_field.element(2, 0)
        two_r = rational_field.element(2)
        for p in (5, 13, 17, 29, 1093):
            for P in primes_above(gauss_field, p):
                if P.kind != KIND_SPLIT:
                    continue
                rational = primes_above(rational_field, p)[0]
                assert is_wieferich_place(P, two_q) == is_wieferich_place(rational, two_r)
