"""Machine checks of the exact inequalities and identities the library uses.

Every check here is a falsifiable statement: violations lists must come
back empty, and a nonempty list means an implementation bug, not news about
number theory.  No floating-point comparison decides a pass: every bound is
checked on exact integers, and floats appear only in reported slacks and
ratios.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from itertools import combinations

from .cyclo import CycloFactorCache, divisors, euler_phi
from .ideals import KIND_RAMIFIED, BudgetExhausted, _order_dividing, factor_principal, residue_pow
from .intfactor import FactorBudget, as_index, padic_valuation, small_factors
from .places import is_wieferich_place
from .qfield import BaseClass, FieldSpec, QuadInt, classify_base, is_squarefree


@dataclass
class BoundCheckReport:
    """Result of sweeping one exact inequality over a parameter range."""

    tag: str
    parameters: dict
    checked: int = 0
    skipped: list = dc_field(default_factory=list)
    violations: list = dc_field(default_factory=list)
    min_slack: object = None

    @property
    def passed(self) -> bool:
        return not self.violations

    def record_slack(self, slack) -> None:
        if self.min_slack is None or slack < self.min_slack:
            self.min_slack = slack

    def as_dict(self) -> dict:
        return {
            "tag": self.tag,
            "parameters": self.parameters,
            "checked": self.checked,
            "skipped": self.skipped,
            "violations": self.violations,
            "min_slack": str(self.min_slack) if self.min_slack is not None else None,
            "passed": self.passed,
        }


def _report(tag: str, a: QuadInt, n_max: int) -> BoundCheckReport:
    return BoundCheckReport(
        tag=tag, parameters={"a": a.coords(), "field": str(a.field), "n_max": n_max}
    )


def check_upper_norm_bound(a: QuadInt, n_max: int) -> BoundCheckReport:
    """max(|Nm(a^n - 1)|, |Nm(a^n + 1)|) <= 2**deg * |Nm(a)|**n for n <= n_max.

    Needs every embedding of a at magnitude >= 1, i.e. a nonzero.  Levels
    where a power hits 1 or -1 exactly (magnitude-one bases) are reported as
    skipped rather than compared against a zero norm.
    """
    if a.is_zero:
        raise ValueError("bound needs every embedding at magnitude >= 1; zero fails")
    deg = a.field.degree
    base = a.abs_norm()
    report = _report("upper-norm-bound", a, n_max)
    power = a.field.one()
    for n in range(1, n_max + 1):
        power = power * a
        minus = power - 1
        plus = power + 1
        if minus.is_zero or plus.is_zero:
            report.skipped.append({"n": n, "reason": "power of base is a unit, zero value"})
            continue
        value = max(abs(minus.norm()), abs(plus.norm()))
        bound = 2**deg * base**n
        report.checked += 1
        if value > bound:
            report.violations.append({"n": n, "value": value, "bound": bound})
        else:
            report.record_slack(bound - value)
    return report


def check_cyclotomic_norm_lower_bound(cache: CycloFactorCache, n_max: int) -> BoundCheckReport:
    """|Nm(a)|**phi(n) <= 2**deg * |Nm(Phi_n(a))| for 2 <= n <= n_max, a = cache.a.

    Needs an eligible base: every embedding at magnitude >= 2.  The values
    Phi_n(a) are read from the cache, so a sweep over the same cache does not
    evaluate them again.
    """
    a = cache.a
    if classify_base(a) is not BaseClass.ELIGIBLE:
        raise ValueError("lower bound needs every embedding at magnitude >= 2")
    deg = a.field.degree
    base = a.abs_norm()
    report = _report("cyclotomic-norm-lower-bound", a, n_max)
    for n in range(2, n_max + 1):
        lhs = base ** euler_phi(n)
        rhs = 2**deg * abs(cache.value(n).norm())
        report.checked += 1
        if lhs > rhs:
            report.violations.append({"n": n, "lhs": lhs, "rhs": rhs})
        else:
            report.record_slack(rhs - lhs)
    return report


def check_sandwich(b, n_max: int) -> BoundCheckReport:
    """-log 2 <= sum over d|n of mu(n/d) log(1 - b**-d) <= log 2, 2 <= n <= n_max.

    b is any exact rational >= 2 (integers welcome).  The sum is log P_n for
    P_n = prod over d|n of (1 - b**-d)**mu(n/d), which equals
    Psi_n(p, q) / p**phi(n) for b = p/q, where Psi_d(p, q) = q**phi(d) Phi_d(b)
    and p**n - q**n = prod over d|n of Psi_d(p, q).  Psi_n(p, q) is p**n - q**n
    divided by the Psi_d(p, q) already held for d < n, so each level is
    decided exactly by 1/2 <= P_n <= 2.
    """
    b = Fraction(b)
    if b < 2:
        raise ValueError("sandwich bound needs b >= 2")
    p, q = b.numerator, b.denominator
    report = BoundCheckReport(tag="sandwich", parameters={"b": f"{p}/{q}", "n_max": n_max})
    psi = {1: p - q}
    for n in range(2, n_max + 1):
        num = psi[n] = (p**n - q**n) // math.prod(map(psi.get, divisors(n)[:-1]))
        den = p ** euler_phi(n)
        report.checked += 1
        if den <= 2 * num and num <= 2 * den:
            report.record_slack(min(math.log1p((2 * den - num) / num),
                                    math.log1p((2 * num - den) / den)))
        else:
            report.violations.append({"n": n, "product": f"{num}/{den}"})
    return report


def check_pairwise_coprime(cache: CycloFactorCache, n_max: int) -> BoundCheckReport:
    """Level slices of the squarefree parts of cache.a are pairwise coprime.

    For all complete levels m < n <= n_max of the cache's sweep the gcd of
    the two level squarefree slices must be the unit ideal.  Every pair is
    counted in checked, but a gcd is taken only for the pairs whose slices
    share a place, read from an index of the levels holding each place.
    """
    report = _report("pairwise-coprime-level-slices", cache.a, n_max)
    slices = {}
    holders = {}
    for dec in cache.sweep(n_max):
        if not dec.complete:
            report.skipped.append({"n": dec.n, "reason": "incomplete factorization"})
            continue
        slices[dec.n] = dec.level_squarefree
        for P in dec.level_squarefree.exponents:
            holders.setdefault(P, []).append(dec.n)
    report.checked = len(slices) * (len(slices) - 1) // 2
    sharing = sorted({pair for levels in holders.values() for pair in combinations(levels, 2)})
    for m, n in sharing:
        report.violations.append({"m": m, "n": n, "gcd": repr(slices[m].gcd(slices[n]))})
    return report


def check_squarefree_nonwieferich(cache: CycloFactorCache, n_max: int) -> BoundCheckReport:
    """Every prime of the squarefree part of (a^n - 1), a = cache.a, tests non-Wieferich.

    Each (level, place) pair is counted in checked, but each distinct place
    is tested once per call.  A level is skipped only while (a^n - 1) keeps a
    cofactor: once it has none, its squarefree part is exact.
    """
    a = cache.a
    report = _report("squarefree-places-nonwieferich", a, n_max)
    verdicts = {}
    for dec in cache.sweep(n_max):
        if not dec.power_ideal.complete:
            report.skipped.append({"n": dec.n, "reason": "incomplete factorization"})
            continue
        for P, _ in dec.squarefree.items_sorted():
            report.checked += 1
            if P not in verdicts:
                verdicts[P] = is_wieferich_place(P, a)
            if verdicts[P]:
                report.violations.append({"n": dec.n, "place": P.label()})
    return report


def check_order_consistency_range(cache: CycloFactorCache, n_max: int) -> BoundCheckReport:
    """At each unramified prime P of a level value, n <= n_max, the order of
    the base cache.a is n stripped of its residue-characteristic part, and
    Nm(P) is 1 modulo that.  Each order is proved from n: a**n = 1 mod P,
    then n is reduced by its own prime factors, so no Nm(P) - 1 is factored
    and only the levels depend on cache.budget.  Ramified primes are passed
    over."""
    a = cache.a
    report = _report("order-consistency", a, n_max)
    for dec in cache.sweep(n_max):
        n = dec.n
        if not dec.level_ideal.complete:
            report.skipped.append({"n": n, "reason": "incomplete factorization"})
            continue
        primes = small_factors(n)
        for P, _ in dec.level_ideal.items_sorted():
            if P.kind == KIND_RAMIFIED:
                continue
            report.checked += 1
            expected = n // P.p ** padic_valuation(n, P.p)
            if residue_pow(a, n, P) not in (1, (1, 0)):
                detail = f"{P.label()}: a**n is not 1 at level {n}"
            elif (order := _order_dividing(P, a, n, primes)) != expected:
                detail = f"{P.label()}: order {order} != expected {expected} at level {n}"
            elif (P.norm - 1) % expected:
                detail = f"{P.label()}: norm {P.norm} is not 1 mod {expected}"
            else:
                continue
            report.violations.append({"n": n, "detail": detail})
    return report


@dataclass
class TrendReport:
    """Per-level exponent ratios of the powerful and squarefree parts.

    Ratios compare log-norms against n log|Nm a| (or phi(n) log|Nm a| for the
    level slice); no assertion is attached since the underlying asymptotics
    carry unspecified constants.  The exact integer identity
    Nm(squarefree) * Nm(powerful) = |Nm(a^n - 1)| is verified per level.
    """

    base: QuadInt
    n_max: int
    entries: list[dict] = dc_field(default_factory=list)
    skipped_levels: list[int] = dc_field(default_factory=list)
    identity_violations: list[int] = dc_field(default_factory=list)

    def last_quartile_entries(self) -> list[dict]:
        if not self.entries:
            return []
        start = (3 * len(self.entries)) // 4
        return self.entries[start:]

    def summary(self) -> dict:
        quartile = self.last_quartile_entries()
        return {
            "base": self.base.coords(),
            "field": str(self.base.field),
            "n_max": self.n_max,
            "complete_levels": len(self.entries),
            "skipped_levels": self.skipped_levels,
            "identity_violations": self.identity_violations,
            "last_quartile_max_powerful_ratio": (
                max(e["powerful_ratio"] for e in quartile) if quartile else None
            ),
            "last_quartile_min_squarefree_ratio": (
                min(e["squarefree_ratio"] for e in quartile) if quartile else None
            ),
        }


def bound_trend_report(cache: CycloFactorCache, n_max: int) -> TrendReport:
    """Ratio series for the powerful, squarefree, and level-slice norms of cache.a.

    The cache refuses zero and unit bases, so |Nm a| > 1 and the ratios exist.
    """
    report = TrendReport(cache.a, n_max)
    log_base = math.log(cache.a.abs_norm())
    for dec in cache.sweep(n_max):
        n = dec.n
        if not dec.complete:
            report.skipped_levels.append(n)
            continue
        norm_squarefree = dec.squarefree.norm()
        norm_powerful = dec.powerful.norm()
        norm_total = abs(dec.power_value.norm())
        if norm_squarefree * norm_powerful != norm_total:
            report.identity_violations.append(n)
        norm_slice = dec.level_squarefree.norm()
        report.entries.append(
            {
                "n": n,
                "norm_squarefree": norm_squarefree,
                "norm_powerful": norm_powerful,
                "norm_total": norm_total,
                "norm_level_squarefree": norm_slice,
                "squarefree_ratio": math.log(norm_squarefree) / (n * log_base),
                "powerful_ratio": math.log(norm_powerful) / (n * log_base),
                "level_squarefree_ratio": (
                    math.log(norm_slice) / (euler_phi(n) * log_base)
                ),
            }
        )
    return report


@dataclass(frozen=True)
class QualityReport:
    """Quality statistic of a pair summing to a root of unity.

    quality = log max(|Nm alpha|, |Nm beta|) / log(Nm rad(alpha) Nm rad(beta));
    height and conductor are the degree-normalized versions of numerator and
    denominator, so quality is independent of that normalization.
    """

    alpha: QuadInt
    beta: QuadInt
    max_norm: int
    radical_product: int
    height: float
    conductor: float
    quality: float | None

    def as_dict(self) -> dict:
        return {
            "alpha": self.alpha.coords(),
            "beta": self.beta.coords(),
            "max_norm": self.max_norm,
            "radical_product": self.radical_product,
            "height": self.height,
            "conductor": self.conductor,
            "quality": self.quality,
        }


def abc_quality(alpha: QuadInt, beta: QuadInt, budget: FactorBudget | None = None) -> QualityReport:
    """Measure how close (alpha, beta, unit) comes to violating the radical bound.

    Requires alpha and beta nonzero with alpha + beta a unit (root of unity),
    and complete factorizations of both within the budget.
    """
    if alpha.field != beta.field:
        raise ValueError("both elements must live in the same field")
    if alpha.is_zero or beta.is_zero:
        raise ValueError("quality needs both elements nonzero")
    total = alpha + beta
    if not total.is_unit():
        raise ValueError("quality is defined only when the sum is a root of unity")
    fa = factor_principal(alpha, budget)
    fb = factor_principal(beta, budget)
    if not (fa.complete and fb.complete):
        raise BudgetExhausted("quality needs complete factorizations of both elements")
    max_norm = max(alpha.abs_norm(), beta.abs_norm(), total.abs_norm())
    radical_product = fa.norm_radical() * fb.norm_radical()
    deg = alpha.field.degree
    quality = None
    if radical_product > 1:
        quality = math.log(max_norm) / math.log(radical_product)
    return QualityReport(
        alpha=alpha,
        beta=beta,
        max_norm=max_norm,
        radical_product=radical_product,
        height=max_norm ** (1 / deg),
        conductor=radical_product ** (1 / deg),
        quality=quality,
    )


def exception_set(d_list) -> dict[int, list[QuadInt]]:
    """Per-field lists of all ring elements with norm at most 3.

    These are exactly the elements with some embedding at magnitude below 2,
    the bases excluded from the progression growth statement.  Enumeration is
    over the exact norm-form lattice, no floating point.
    """
    out: dict[int, list[QuadInt]] = {}
    for d in d_list:
        spec = FieldSpec(d)
        if spec.is_rational:
            raise ValueError("d must be a squarefree integer >= 1, got 0")
        trace, disc = spec.omega_trace, -spec.discriminant
        found = []
        # 4*Nm(x + y*w) = (2x + trace*y)^2 + |disc|*y^2 <= 12
        y_bound = math.isqrt(12 // disc)
        for y in range(-y_bound, y_bound + 1):
            span = math.isqrt(12 - disc * y * y)
            for x in range(-((span + trace * y) // 2), (span - trace * y) // 2 + 1):
                found.append(spec.element(x, y))
        out[d] = sorted(found, key=lambda e: (e.x, e.y))
    return out


def exception_set_union(d_max: int) -> list[tuple[int, QuadInt]]:
    """Union of exception sets over squarefree d <= d_max, rational entries once.

    Returns (d, element) pairs: rational integers are tagged with d = 0 and
    deduplicated across fields; everything else keeps its field's d.  No
    field with d > 11 adds an element, so every d_max >= 11 gives the same
    union and the work is bounded whatever d_max is.
    """
    union: list[tuple[int, QuadInt]] = []
    seen_rational: set[int] = set()
    # for d > 11, |disc| > 12 leaves only y = 0 and x in {-1, 0, 1}, which d = 1 adds
    for d in range(1, min(d_max, 11) + 1):
        if not is_squarefree(d):
            continue
        for element in exception_set([d])[d]:
            if element.y == 0:
                if element.x not in seen_rational:
                    seen_rational.add(element.x)
                    union.append((0, element))
            else:
                union.append((d, element))
    union.sort(key=lambda pair: (pair[0], pair[1].x, pair[1].y))
    return union


@dataclass
class FullVerification:
    """Bundle of every check suite at one base."""

    base: QuadInt
    n_max: int
    reports: list[BoundCheckReport] = dc_field(default_factory=list)
    trend: TrendReport | None = None

    @property
    def violations_total(self) -> int:
        total = sum(len(r.violations) for r in self.reports)
        if self.trend is not None:
            total += len(self.trend.identity_violations)
        return total

    @property
    def passed(self) -> bool:
        return self.violations_total == 0

    def as_dict(self) -> dict:
        out = {
            "base": self.base.coords(),
            "field": str(self.base.field),
            "n_max": self.n_max,
            "passed": self.passed,
            "violations_total": self.violations_total,
            "reports": [r.as_dict() for r in self.reports],
        }
        if self.trend is not None:
            out["trend_summary"] = self.trend.summary()
        return out


def run_full_verification(a: QuadInt, n_max: int,
                          budget: FactorBudget | None = None) -> FullVerification:
    """Run every applicable check at one base over levels up to n_max."""
    bucket = classify_base(a)
    if bucket in (BaseClass.ZERO, BaseClass.ROOT_OF_UNITY):
        raise ValueError("verification sweeps need a base of magnitude above 1")
    if (n_max := as_index(n_max, "n_max")) < 1:
        raise ValueError("n_max must be >= 1")
    cache = CycloFactorCache(a, budget)
    result = FullVerification(a, n_max)
    result.reports.append(check_upper_norm_bound(a, n_max))
    if bucket is BaseClass.ELIGIBLE:
        result.reports.append(check_cyclotomic_norm_lower_bound(cache, n_max))
    result.reports.append(check_sandwich(a.abs_norm(), n_max))
    result.reports.append(check_pairwise_coprime(cache, n_max))
    result.reports.append(check_squarefree_nonwieferich(cache, n_max))
    result.reports.append(check_order_consistency_range(cache, n_max))
    result.trend = bound_trend_report(cache, n_max)
    return result
