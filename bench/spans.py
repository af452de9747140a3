"""Spans around the package's public functions, for the traced run.

Each traced function is replaced by a wrapper that records one span per
call (name, start, end, parent span) in memory and passes the return value
or exception through untouched.  The wrapper is bound wherever the package
binds the function, so calls through a module that imported the name (for
example `factorize` inside `ideals`) and recursive calls through module
globals (`certify_prime` inside Pocklington's n - 1 step) are both caught.
Per-layer numbers come from the spans after the sample ends: call counts,
self time (duration minus the part covered by child spans) and a few
counters observed on return.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
import weakref
from array import array
from collections import Counter

MODULES = ("qfield", "intfactor", "ideals", "cyclo", "places", "verify", "cli")

TRACED = (
    ("qfield", "QuadInt.__pow__"),
    ("qfield", "QuadInt.exact_div"),
    ("intfactor", "factorize"),
    ("intfactor", "certify_prime"),
    ("intfactor", "is_probable_prime"),
    ("intfactor", "primes_up_to"),
    ("ideals", "factor_principal"),
    ("ideals", "element_valuation"),
    ("ideals", "primes_above"),
    ("ideals", "residue_pow"),
    ("ideals", "residue_order"),
    ("ideals", "IdealFactorization.mul"),
    ("ideals", "IdealFactorization.gcd"),
    ("cyclo", "decompose"),
    ("cyclo", "CycloFactorCache.level"),
    ("cyclo", "cyclotomic_eval"),
    ("cyclo", "totient_sieve"),
    ("cyclo", "high_totient_count"),
    ("places", "is_wieferich_place"),
    ("places", "place_report"),
    ("places", "census"),
    ("places", "scan_wieferich_places"),
    ("verify", "check_upper_norm_bound"),
    ("verify", "check_cyclotomic_norm_lower_bound"),
    ("verify", "check_sandwich"),
    ("verify", "check_pairwise_coprime"),
    ("verify", "check_squarefree_nonwieferich"),
    ("verify", "check_order_consistency_range"),
    ("verify", "bound_trend_report"),
    ("cli", "main"),
)


class Tracer:
    """In-memory span store for one sample (single-threaded)."""

    def __init__(self, sample_id: int, clock=time.perf_counter):
        self.sample_id = sample_id
        self.clock = clock
        self.names: list[str] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.counters: Counter[str] = Counter()
        self._stack: list[int] = []
        self._seen_levels: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()

    def wrap(self, name: str, fn, observe=None):
        """A wrapper of fn recording one span per call; observe(args, result, exc)
        runs after the span closes."""
        name_id = len(self.names)
        self.names.append(name)
        names, parents, starts, ends = self.span_name, self.span_parent, self.span_start, self.span_end
        stack, clock = self._stack, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(starts)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                ends[index] = clock()
                stack.pop()
                if observe is not None:
                    observe(args, None, exc)
                raise
            ends[index] = clock()
            stack.pop()
            if observe is not None:
                observe(args, result, None)
            return result

        return traced

    def _observers(self) -> dict:
        from wieferich.ideals import BudgetExhausted

        counters = self.counters

        def factorize(args, result, exc):
            if result is not None:
                counters["intfactor.factorize.input_bits"] += result.n.bit_length()
                counters["intfactor.factorize.incomplete"] += not result.complete

        def certify_prime(args, result, exc):
            counters["intfactor.certify_prime.proved"] += result is True
            counters["intfactor.certify_prime.undecided"] += exc is None and result is None

        def residue_order(args, result, exc):
            counters["ideals.residue_order.budget_exhausted"] += isinstance(exc, BudgetExhausted)

        def level(args, result, exc):
            seen = self._seen_levels.setdefault(args[0], set())
            counters["cyclo.CycloFactorCache.level.hits"] += args[1] in seen
            seen.add(args[1])

        return {
            "intfactor.factorize": factorize,
            "intfactor.certify_prime": certify_prime,
            "ideals.residue_order": residue_order,
            "cyclo.CycloFactorCache.level": level,
        }

    def install(self):
        """Wrap every TRACED function in place; returns a function undoing it."""
        importlib.import_module("wieferich")
        package = [m for key, m in sys.modules.items()
                   if key == "wieferich" or key.startswith("wieferich.")]
        observers = self._observers()
        undo = []
        for module_name, qualname in TRACED:
            module = importlib.import_module(f"wieferich.{module_name}")
            name = f"{module_name}.{qualname}"
            owner_name, _, attr = qualname.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                original = owner.__dict__[attr]
                setattr(owner, attr, self.wrap(name, original, observers.get(name)))
                undo.append((owner, attr, original))
                continue
            original = getattr(module, attr)
            wrapper = self.wrap(name, original, observers.get(name))
            for m in package:
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, wrapper)
                        undo.append((m, key, original))

        def restore() -> None:
            for target, key, original in reversed(undo):
                setattr(target, key, original)

        return restore

    def layer_metrics(self) -> dict[str, float]:
        """Calls and self time per traced function and per module, plus counters.

        Ratios with nothing to divide by read 0.
        """
        out: dict[str, float] = {}
        for module_name, qualname in TRACED:
            out[f"{module_name}.{qualname}.calls"] = 0
            out[f"{module_name}.{qualname}.self_s"] = 0.0
        for module_name in MODULES:
            out[f"{module_name}.self_s"] = 0.0
        own = self_times(self.span_parent, self.span_start, self.span_end)
        for name_id, seconds in zip(self.span_name, own):
            name = self.names[name_id]
            out[name + ".calls"] += 1
            out[name + ".self_s"] += seconds
            out[name.partition(".")[0] + ".self_s"] += seconds
        c = self.counters
        out["intfactor.factorize.incomplete"] = c["intfactor.factorize.incomplete"]
        out["intfactor.factorize.input_bits"] = c["intfactor.factorize.input_bits"]
        out["intfactor.certify_prime.undecided"] = c["intfactor.certify_prime.undecided"]
        asked = c["intfactor.certify_prime.proved"] + c["intfactor.certify_prime.undecided"]
        out["intfactor.certify_prime.proved_ratio"] = (
            c["intfactor.certify_prime.proved"] / asked if asked else 0.0)
        out["ideals.residue_order.budget_exhausted"] = c["ideals.residue_order.budget_exhausted"]
        level_calls = out["cyclo.CycloFactorCache.level.calls"]
        out["cyclo.CycloFactorCache.level.hit_ratio"] = (
            c["cyclo.CycloFactorCache.level.hits"] / level_calls if level_calls else 0.0)
        return out

    def write_spans(self, path) -> None:
        """All spans as CSV, times in seconds from the first span's start."""
        origin = self.span_start[0] if self.span_start else 0.0
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("sample,span,parent,name,start_s,end_s\n")
            for index, (name_id, parent, start, end) in enumerate(
                    zip(self.span_name, self.span_parent, self.span_start, self.span_end)):
                handle.write(f"{self.sample_id},{index},{parent},{self.names[name_id]},"
                             f"{start - origin:.9f},{end - origin:.9f}\n")


def self_times(parents, starts, ends) -> list[float]:
    """Each span's duration minus the part of its interval its children cover.

    Children are clipped to the parent and overlapping children are counted
    once, so the result never goes below zero.
    """
    children: dict[int, list[int]] = {}
    for index, parent in enumerate(parents):
        if parent >= 0:
            children.setdefault(parent, []).append(index)
    out = []
    for index, (start, end) in enumerate(zip(starts, ends)):
        covered, reach = 0.0, start
        for child in sorted(children.get(index, ()), key=starts.__getitem__):
            lo, hi = max(starts[child], reach), min(ends[child], end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(end - start - covered)
    return out
