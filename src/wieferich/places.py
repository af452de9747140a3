"""Wieferich place tests, non-Wieferich extraction, and the progression census.

A place P of norm q is Wieferich for the base a when a**(q-1) - 1 lands in
P squared, i.e. the Fermat-quotient valuation jumps above one.  The census
reads each level Phi_n(a) on its own: a place P over p with p not dividing n
and P exactly dividing Phi_n(a) has order n, so it is non-Wieferich and first
occurs at level n, whatever the other levels hold (Silverman, J. Number
Theory 30, 1988).  It counts such places whose norms fall in a fixed residue
class, with every claimed property re-checked at emission time.

The Wieferich scan makes one pass over a segmented sieve, so its memory stays
flat as the bound grows; a long scan hands its segments to workers.fork_map,
as the census does with its levels, scans in-process any segment no worker
finished and joins their hits in order.  An odd p prime to the discriminant D
splits or stays inert as (D/p) is 1 or -1, a character mod |D| since D is
fundamental, so each segment makes one Euler test per class of p mod |D|.
A split p, p = 2 and p | D are sorted by the roots of the generator's
minimal polynomial mod p, the rule primes_above uses.  A split place costs
one built-in pow mod p**2 after a square root and a lifted root; a ramified
place costs one pair power a**(p-1) mod p; an inert place takes no square
root and costs one built-in pow on the norm of a, and only the rare places
that pass it pay a pair power a**(p+1) and one more built-in pow; rational
mode is one built-in pow per place.  Only the hits get a full report, whose
verdict is re-checked by is_wieferich_place, the single-place reference.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass, field as dc_field

from . import workers
from .cyclo import CycloFactorCache, divisors
from .ideals import (
    BudgetExhausted,
    KIND_INERT,
    KIND_RAMIFIED,
    KIND_RATIONAL,
    KIND_SPLIT,
    PrimeIdeal,
    _place_roots,
    is_unit_mod,
    residue_order,
    residue_pow,
)
from .intfactor import _SIEVE_SEGMENT, FactorBudget, _prime_stream, primes_up_to
from .qfield import BaseClass, InvariantViolation, QuadInt, _pair_pow, classify_base


def is_wieferich_place(P: PrimeIdeal, a: QuadInt) -> bool:
    """True iff a**(q-1) is the identity in O/P**2, q = Nm(P).  Needs a not in P."""
    if not is_unit_mod(P, a):
        raise ValueError(f"base {a} lies in {P.label()}; the place test needs a unit")
    return residue_pow(a, P.norm - 1, P, 2) in (1, (1, 0))


@dataclass(frozen=True)
class PlaceReport:
    """One classified place: norm, multiplicative order of the base, verdict.

    order is None when the norm-minus-one factorization resisted the budget.
    """

    place: PrimeIdeal
    base: QuadInt
    norm: int
    order: int | None
    wieferich: bool

    def __post_init__(self) -> None:
        if self.order is not None and (self.norm - 1) % self.order:
            raise InvariantViolation(
                f"order {self.order} does not divide {self.norm} - 1 at {self.place.label()}"
            )

    def as_dict(self) -> dict:
        return {**self.place.as_dict(), "order": self.order, "wieferich": self.wieferich}


def place_report(P: PrimeIdeal, a: QuadInt, budget: FactorBudget | None = None) -> PlaceReport:
    try:
        order = residue_order(P, a, budget)
    except BudgetExhausted:
        order = None
    return PlaceReport(P, a, P.norm, order, is_wieferich_place(P, a))


@dataclass(frozen=True)
class CensusRecord:
    """A first-occurrence non-Wieferich place found by the progression census."""

    place: PrimeIdeal
    discovered_at_level: int
    norm: int
    residue_class: int

    def as_dict(self) -> dict:
        return {**self.place.as_dict(), "level": self.discovered_at_level,
                "residue_class": self.residue_class}


@dataclass
class CensusResult:
    """Census output: records plus the bookkeeping needed to audit them."""

    base: QuadInt
    k: int
    n_max: int
    strategy: str
    records: list[CensusRecord] = dc_field(default_factory=list)
    skipped_levels: list[int] = dc_field(default_factory=list)
    excluded: list[dict] = dc_field(default_factory=list)
    warnings: list[str] = dc_field(default_factory=list)
    complete_multipliers: list[int] = dc_field(default_factory=list)

    def grid_base(self) -> int:
        return self.base.abs_norm()

    def count_upto(self, x: int) -> int:
        return sum(1 for r in self.records if r.norm <= x)

    def summary(self) -> dict:
        base_norm = self.grid_base()
        x_grid = [base_norm ** (self.k * m) for m in self.complete_multipliers]
        counts = [self.count_upto(x) for x in x_grid]
        ratios = [c / math.log(x) if x > 1 else None for c, x in zip(counts, x_grid)]
        counts_by_level = []
        cumulative = 0
        by_level: dict[int, list[CensusRecord]] = {}
        for record in self.records:
            by_level.setdefault(record.discovered_at_level, []).append(record)
        certified = True
        for m in self.complete_multipliers:
            level = self.k * m
            found = by_level.get(level, ())
            cumulative += len(found)
            certified = certified and all(r.norm <= base_norm**level for r in found)
            counts_by_level.append(
                {
                    "multiplier": m,
                    "level": level,
                    "new_records": len(found),
                    "cumulative_records": cumulative,
                    "norms_within_grid": certified,
                }
            )
        return {
            "base": self.base.coords(),
            "field": str(self.base.field),
            "k": self.k,
            "n_max": self.n_max,
            "strategy": self.strategy,
            "record_count": len(self.records),
            "skipped_levels": self.skipped_levels,
            "excluded_count": len(self.excluded),
            "warnings": self.warnings,
            "x_grid": x_grid,
            "counts": counts,
            "count_over_log_x": ratios,
            "counts_by_level": counts_by_level,
        }


STRATEGY_ALL_LEVELS = "all-levels"
STRATEGY_PRIME_LEVELS = "prime-levels"


def census(a: QuadInt, k: int, n_max: int, budget: FactorBudget | None = None,
           strategy: str = STRATEGY_ALL_LEVELS) -> CensusResult:
    """Count non-Wieferich places with norm in the class 1 mod k, by level sweep.

    The census classifies the base first, then reads the levels k*m in one
    CycloFactorCache(a, budget) of its own, in increasing order for m up to
    n_max, or for the primes m <= n_max under the prime-levels strategy.  A
    level k*m is skipped unless every level d | k*m is complete.  Otherwise
    its records are the places P of Phi_{k*m}(a) of exponent one whose
    residue characteristic p does not divide k*m: such a P has order k*m,
    occurs at no other level and is non-Wieferich.  A place with p | k*m
    also divides Phi_d(a) for some proper divisor d, so its exponent in
    a**(k*m) - 1 is at least two and it is never a record.  Ramified places
    are logged as excluded, and each record is re-verified non-Wieferich
    with norm 1 mod k on the way out.

    Before the sweep, cache.factor_levels factors the levels k*m and their
    divisor levels in forked workers, which have exited before the sweep
    starts; the sweep factors in-process any level they did not finish.  The
    result, failures included, is the one-CPU result, byte for byte.
    """
    bucket = classify_base(a)
    if bucket not in (BaseClass.SMALL, BaseClass.ELIGIBLE):
        raise ValueError(
            "census needs a base of magnitude above one; zero and magnitude-one "
            "bases belong to the finite exception set where no growth holds"
        )
    if strategy not in (STRATEGY_ALL_LEVELS, STRATEGY_PRIME_LEVELS):
        raise ValueError(f"unknown census strategy {strategy!r}")
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    if k < 1:
        raise ValueError("progression modulus must be >= 1")
    result = CensusResult(a, k, n_max, strategy)
    if bucket is BaseClass.SMALL:
        result.warnings.append(
            "base magnitude squared is below 4; the logarithmic growth guarantee "
            "needs every embedding at magnitude 2 or more"
        )
    cache = CycloFactorCache(a, budget)
    if strategy == STRATEGY_PRIME_LEVELS:
        multipliers = primes_up_to(n_max)
    else:
        multipliers = range(1, n_max + 1)
    cache.factor_levels(k * m for m in multipliers)
    for m in multipliers:
        level = k * m
        if not all(cache.level(d).complete for d in divisors(level)):
            result.skipped_levels.append(level)
            continue
        result.complete_multipliers.append(m)
        for P, e in cache.level(level).items_sorted():
            if e > 1 or level % P.p == 0:
                continue
            if P.kind == KIND_RAMIFIED:
                result.excluded.append(
                    {"place": P.label(), "level": level, "reason": "ramified"}
                )
                continue
            if is_wieferich_place(P, a):
                raise InvariantViolation(
                    f"{P.label()} of exponent one at level {level} tested Wieferich"
                )
            if (P.norm - 1) % k:
                raise InvariantViolation(
                    f"{P.label()} has norm {P.norm} outside the class 1 mod {k}"
                )
            result.records.append(CensusRecord(P, level, P.norm, P.norm % k))
    return result


def _wieferich_kernel(a: QuadInt, primes: Iterable[int]) -> tuple[list[PrimeIdeal], int]:
    """The Wieferich places above the given primes, and how many places were tested.

    Places where a is not a unit are skipped, and every place is tested on
    raw integers.  Rational p is one built-in pow mod p**2.  In a quadratic
    ring an odd p prime to the discriminant D is split exactly when
    D**((p-1)/2) == 1 mod p.  The Kronecker symbol (D/p) of the fundamental
    D is a character mod |D|, so that power is taken once per class of p
    mod |D| met in this call, and the verdicts live in a dict that dies with
    the call.  An inert p then takes no square root; a split p, p = 2 and
    p | D get their roots from _place_roots, which tell split, ramified and
    inert apart.  A split p lifts its root to p**2 by one Newton step and
    takes one built-in pow per place.  A ramified P has P**2 = pO, so
    a**(p-1) must be 1 as a pair mod p.  An inert p first tests the norm: the norm from
    O/p**2 O to Z/p**2 is multiplicative and Nm(a)**(p*p-1) == Nm(a)**(p-1)
    mod p**2, so a hit needs Nm(a)**(p-1) == 1 mod p**2, one built-in pow
    that rejects almost every inert place.  The few that pass use Frobenius,
    a**p == conj(a) mod p, so b = a**(p+1) is rational mod p and
    a**(p*p-1) == b**(p-1) == 1 mod p**2 exactly when b's w-coordinate
    vanishes mod p**2 and b's rational coordinate passes the rational test.
    """
    field = a.field
    x, y = a.x, a.y
    hits: list[PrimeIdeal] = []
    tested = 0
    if field.is_rational:
        for p in primes:
            if x % p:
                tested += 1
                if pow(x, p - 1, p * p) == 1:
                    hits.append(PrimeIdeal(field, p, KIND_RATIONAL))
        return hits, tested
    trace, nm = field.omega_trace, field.omega_norm
    norm = a.norm()
    disc = field.discriminant
    # the split verdict of each class of odd p mod |disc| met so far
    split_classes: dict[int, bool] = {}
    for p in primes:
        if p > 2 and disc % p:
            key = p % disc
            split = split_classes.get(key)
            if split is None:
                split = split_classes[key] = pow(disc, (p - 1) // 2, p) == 1
            roots = _place_roots(field, p) if split else ()
        else:
            roots = _place_roots(field, p)
        pp = p * p
        if len(roots) == 2:
            t, other = roots
            # one Newton step lifts the root t of w**2 - trace*w + nm to p**2
            root = (t - (t * t - trace * t + nm) * pow(2 * t - trace, -1, p)) % pp
            # the other root is trace - t, lifted to trace - root
            for place_t, lift in ((t, root), (other, (trace - root) % pp)):
                u = (x + y * lift) % pp
                if u % p:
                    tested += 1
                    if pow(u, p - 1, pp) == 1:
                        hits.append(PrimeIdeal(field, p, KIND_SPLIT, place_t))
        elif roots:
            if (x + y * roots[0]) % p:
                tested += 1
                if _pair_pow(x, y, p - 1, p, trace, nm) == (1, 0):
                    hits.append(PrimeIdeal(field, p, KIND_RAMIFIED, roots[0]))
        elif x % p or y % p:
            tested += 1
            if pow(norm, p - 1, pp) != 1:
                continue
            bx, by = _pair_pow(x, y, p + 1, pp, trace, nm)
            if by == 0 and pow(bx, p - 1, pp) == 1:
                hits.append(PrimeIdeal(field, p, KIND_INERT))
    return hits, tested


def scan_wieferich_places(a: QuadInt, p_bound: int,
                          budget: FactorBudget | None = None) -> tuple[list[PlaceReport], int]:
    """Classify every place of residue characteristic <= p_bound coprime to a.

    Returns (Wieferich hits as full reports, number of places tested).
    _wieferich_kernel decides every place, one sieve segment at a time, and
    only the hits get a report, whose verdict comes from is_wieferich_place.

    When the bound spans two whole segments, the segments are jobs for
    workers.fork_map, at most one worker each.  The parent joins the hits
    and counts in segment order, and scans in-process any segment no worker
    finished: its job raised, its worker died or nothing forked.  The result
    is the same either way.
    """
    if p_bound < 2:
        raise ValueError("p_max must be >= 2")
    width = 2 * _SIEVE_SEGMENT
    # each stream is sieved where it is consumed: in a worker, or here
    jobs = [(a, _prime_stream(min(lo + width - 1, p_bound), start=lo))
            for lo in range(1, p_bound + 1, width)]
    done = workers.fork_map(_wieferich_kernel, jobs, len(jobs) if p_bound >= 2 * width else 0)
    parts = [done[i] if i in done else _wieferich_kernel(*job) for i, job in enumerate(jobs)]
    found = [P for hits, _ in parts for P in hits]
    tested = sum(count for _, count in parts)
    hits = [place_report(P, a, budget) for P in found]
    for report in hits:
        if not report.wieferich:
            raise InvariantViolation(
                f"the scan kernel and the place test disagree at {report.place.label()}"
            )
    return hits, tested
