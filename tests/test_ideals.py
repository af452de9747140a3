"""Prime splitting, valuations, and residue arithmetic against brute oracles.

The splitting oracle counts roots of t**2 - trace*t + norm mod p by direct
scan; the residue-field oracle multiplies pairs (u, v) = u + v*omega with
omega**2 = trace*omega - norm reduced naively; orders come from stepping
powers one by one.
"""

import itertools
import pickle

import pytest
from hypothesis import given, strategies as st

from wieferich import (
    BudgetExhausted,
    FactorBudget,
    FieldSpec,
    IdealFactorization,
    InexactDivisionError,
    KIND_INERT,
    KIND_RAMIFIED,
    KIND_RATIONAL,
    KIND_SPLIT,
    PrimeIdeal,
    element_valuation,
    factor_principal,
    primes_above,
    residue_order,
    residue_pow,
)
from wieferich import cli, ideals
from wieferich.ideals import _lift_root, sqrt_mod_prime
from wieferich.intfactor import padic_valuation, primes_up_to

FIELD_DS = [1, 2, 3, 5, 6, 7, 10, 11, 13, 15]


def min_poly_roots(field, p):
    trace, norm = field.omega_trace, field.omega_norm
    return [t for t in range(p) if (t * t - trace * t + norm) % p == 0]


def naive_pair_pow(field, base, exponent, modulus):
    trace, norm = field.omega_trace, field.omega_norm

    def mul(a, b):
        u1, v1 = a
        u2, v2 = b
        cross = u1 * v2 + u2 * v1
        sq = v1 * v2
        return ((u1 * u2 - sq * norm) % modulus, (cross + sq * trace) % modulus)

    out = (1, 0)
    for _ in range(exponent):
        out = mul(out, base)
    return out


class TestSplitting:
    @pytest.mark.parametrize("d", FIELD_DS)
    def test_matches_root_scan(self, d):
        field = FieldSpec.from_d(d)
        for p in primes_up_to(200):
            roots = min_poly_roots(field, p)
            above = primes_above(field, p)
            if field.discriminant % p == 0:
                assert len(above) == 1 and above[0].kind == KIND_RAMIFIED
                assert roots in ([above[0].t], [above[0].t, above[0].t]) or len(set(roots)) == 1
                assert above[0].t in roots
            elif len(roots) == 2:
                assert [P.kind for P in above] == [KIND_SPLIT, KIND_SPLIT]
                assert sorted(P.t for P in above) == sorted(roots)
            else:
                assert roots == []
                assert len(above) == 1 and above[0].kind == KIND_INERT

    def test_gauss_small_cases(self, gauss_field):
        assert [P.label() for P in primes_above(gauss_field, 5)] == [
            "(5,split,2)",
            "(5,split,3)",
        ]
        assert primes_above(gauss_field, 2)[0].label() == "(2,ramified,1)"
        assert primes_above(gauss_field, 3)[0].label() == "(3,inert)"

    def test_two_splits_when_disc_is_one_mod_eight(self):
        F7 = FieldSpec.from_d(7)
        above = primes_above(F7, 2)
        assert [P.kind for P in above] == [KIND_SPLIT, KIND_SPLIT]
        assert sorted(P.t for P in above) == min_poly_roots(F7, 2) == [0, 1]
        F3 = FieldSpec.from_d(3)
        assert primes_above(F3, 2)[0].kind == KIND_INERT

    def test_norm_and_degree(self, gauss_field):
        split, other = primes_above(gauss_field, 5)
        (inert,) = primes_above(gauss_field, 3)
        (ram,) = primes_above(gauss_field, 2)
        assert (split.kind, split.t) == (KIND_SPLIT, 2)
        assert (inert.kind, ram.kind) == (KIND_INERT, KIND_RAMIFIED)
        # Nm P = p**f for residue degrees f = 1, 2, 1; (p) = P**e for e = 1, 1, 2
        assert (split.norm, inert.norm, ram.norm) == (5**1, 3**2, 2**1)
        assert factor_principal(gauss_field.element(5)).exponents == {
            split: 1, other: 1
        }
        assert factor_principal(gauss_field.element(3)).exponents == {inert: 1}
        assert factor_principal(gauss_field.element(2)).exponents == {ram: 2}

    def test_rational_kind(self, rational_field):
        above = primes_above(rational_field, 7)
        assert len(above) == 1 and above[0].kind == KIND_RATIONAL
        assert above[0].norm == 7

    def test_rejects_composite(self, gauss_field):
        with pytest.raises(ValueError):
            primes_above(gauss_field, 6)

    def test_large_prime_is_proved(self, gauss_field):
        # 2**127 - 1 is 3 mod 4, so inert in Z[i]; ECPP proves it
        (P,) = primes_above(gauss_field, 2**127 - 1)
        assert P.kind == KIND_INERT and P.p == 2**127 - 1

    def test_prime_ideal_reads_p_and_t_as_indices(self, gauss_field, rational_field):
        with pytest.raises(ValueError, match="p must be a prime >= 2"):
            PrimeIdeal(rational_field, 0, KIND_RATIONAL)
        with pytest.raises(ValueError, match="p must be a prime >= 2"):
            PrimeIdeal(gauss_field, 1, KIND_INERT)
        with pytest.raises(TypeError, match="p must be an integer"):
            PrimeIdeal(gauss_field, 5.0, KIND_INERT)
        with pytest.raises(TypeError, match="t must be an integer"):
            PrimeIdeal(gauss_field, 5, KIND_SPLIT, 2.0)
        P = PrimeIdeal(gauss_field, 2, KIND_RAMIFIED, True)
        assert (P.label(), P.norm) == ("(2,ramified,1)", 2)
        assert type(P.t) is int

    def test_prime_ideal_checks_its_root(self, gauss_field):
        # (5, w - 1) would be the whole ring: 1 is no root of w**2 + 1 mod 5
        with pytest.raises(ValueError, match="no root"):
            PrimeIdeal(FieldSpec(1), 5, KIND_SPLIT, 1)
        with pytest.raises(ValueError, match="no root"):
            PrimeIdeal(gauss_field, 2, KIND_RAMIFIED, 0)
        for d in FIELD_DS:
            field = FieldSpec.from_d(d)
            for p in primes_up_to(30):
                roots = min_poly_roots(field, p)
                kind = KIND_RAMIFIED if field.discriminant % p == 0 else KIND_SPLIT
                for t in range(p):
                    if t in roots:
                        assert PrimeIdeal(field, p, kind, t).t == t
                    else:
                        with pytest.raises(ValueError, match="no root"):
                            PrimeIdeal(field, p, kind, t)

    def test_unproved_probable_prime_is_refused(self, gauss_field, monkeypatch, capsys):
        p = 2**127 - 1
        monkeypatch.setattr(ideals, "certify_prime", lambda n: None)
        with pytest.raises(ValueError, match=str(p)):
            primes_above(gauss_field, p)
        monkeypatch.delenv(cli.ENV_TRIAL_LIMIT, raising=False)
        assert cli.main(["classify", "-d", "1", "-a", "2,1", "--prime", str(p)]) == 1
        assert capsys.readouterr() == ("", f"error: no proof reached the probable prime {p}\n")


class TestModularHelpers:
    # 17, 41, 73, 113 and 257 are 1 mod 8 and take Tonelli-Shanks from the least
    # non-residue, read by reciprocity (3, 3, 5, 3 and 3);
    # 5, 13, 29, 37, 53, 61, 101, 109 and 173 are 5 mod 8 and take Atkin's formula
    @pytest.mark.parametrize(
        "p", [3, 5, 7, 11, 13, 17, 29, 37, 41, 53, 61, 73, 101, 109, 113, 173, 257, 997]
    )
    def test_sqrt_mod_prime(self, p):
        squares = {x * x % p for x in range(p)}
        for n in range(p):
            if n in squares:
                r = sqrt_mod_prime(n, p)
                assert r * r % p == n
            else:
                assert sqrt_mod_prime(n, p) is None

    @pytest.mark.parametrize("d", [1, 2, 7, 11])
    def test_lift_root_every_split_prime(self, d):
        field = FieldSpec.from_d(d)
        trace, norm = field.omega_trace, field.omega_norm
        for p in primes_up_to(60):
            for P in primes_above(field, p):
                if P.kind != KIND_SPLIT:
                    continue
                t = _lift_root(field, p, P.t)
                assert 0 <= t < p * p
                assert (t * t - trace * t + norm) % (p * p) == 0
                assert t % p == P.t


class TestValuations:
    def test_ramified_power(self, gauss_field):
        (P,) = primes_above(gauss_field, 2)
        assert P.kind == KIND_RAMIFIED
        gamma = gauss_field.element(1, 1) ** 5
        assert element_valuation(P, gamma) == 5
        assert element_valuation(P, gauss_field.element(2, 0)) == 2

    def test_split_constructed(self, gauss_field):
        P2, P3 = primes_above(gauss_field, 5)  # P3 contains 2+i
        assert (P3.kind, P3.t) == (KIND_SPLIT, 3)
        gamma = gauss_field.element(2, 1) ** 3 * gauss_field.element(2, -1) ** 2
        assert element_valuation(P3, gamma) == 3
        assert element_valuation(P2, gamma) == 2

    @given(st.integers(-30, 30), st.integers(-30, 30), st.sampled_from([1, 2, 3, 7, 11]))
    def test_valuations_account_for_norm(self, x, y, d):
        field = FieldSpec.from_d(d)
        gamma = field.element(x, y)
        if gamma.is_zero:
            return
        nm = gamma.abs_norm()
        for p in (2, 3, 5, 7, 11, 13):
            total = 0
            for P in primes_above(field, p):
                v = element_valuation(P, gamma)
                total += v * padic_valuation(P.norm, p)
                # membership agrees with the root test for split primes
                if P.kind == KIND_SPLIT:
                    assert (v >= 1) == ((x + y * P.t) % p == 0)
            assert total == padic_valuation(nm, p)

    @given(st.integers(-15, 15), st.integers(-15, 15), st.integers(-15, 15), st.integers(-15, 15))
    def test_multiplicative(self, x1, y1, x2, y2):
        field = FieldSpec.from_d(1)
        a, b = field.element(x1, y1), field.element(x2, y2)
        if a.is_zero or b.is_zero:
            return
        for p in (2, 5, 13):
            for P in primes_above(field, p):
                assert element_valuation(P, a * b) == element_valuation(P, a) + element_valuation(P, b)

    @pytest.mark.parametrize("d", [1, 2, 3, 7, 11])
    def test_split_valuation_counts_divisions_by_a_generator(self, d):
        # in these class-number-one rings each split P is (pi); v_P(gamma) is
        # how often pi divides gamma exactly, read with no residue or gcd rule
        field = FieldSpec.from_d(d)
        cofactors = [field.element(x, y) for x, y in ((1, 0), (2, 1), (3, -1), (1, 4), (-5, 2))]

        def divisions(gamma, pi):
            count = 0
            while True:
                try:
                    gamma = gamma.exact_div(pi)
                except InexactDivisionError:
                    return count
                count += 1

        for p in primes_up_to(50):
            for P in primes_above(field, p):
                if P.kind != KIND_SPLIT:
                    continue
                pi = next(
                    g for y in range(-12, 13) for x in range(-12, 13)
                    if (g := field.element(x, y)).abs_norm() == p and (x + y * P.t) % p == 0
                )
                for c in cofactors:
                    if c.abs_norm() % p == 0:
                        continue
                    for k, i, j in itertools.product(range(4), repeat=3):
                        gamma = field.element(p) ** k * pi**i * pi.conjugate() ** j * c
                        count = divisions(gamma, pi)
                        assert count == k + i
                        assert element_valuation(P, gamma) == count, (P, gamma)

    def test_rational_mode(self, rational_field):
        P = primes_above(rational_field, 3)[0]
        assert element_valuation(P, rational_field.element(-54)) == 3
        with pytest.raises(ValueError):
            element_valuation(P, rational_field.element(0))


class TestResidues:
    def test_split_reduction_is_root_substitution(self, gauss_field):
        P = primes_above(gauss_field, 5)[0]
        assert (P.kind, P.t) == (KIND_SPLIT, 2)
        a = gauss_field.element(2, 1)
        assert residue_pow(a, 1, P) == (2 + 1 * 2) % 5
        # 7 is the root 2 of w**2 + 1 lifted to 25
        assert residue_pow(a, 1, P, 2) == (2 + 1 * 7) % 25
        assert residue_pow(a, 4, P, 2) == 11
        assert residue_pow(a, 0, P, 2) == 1

    def test_inert_pair_matches_naive(self, gauss_field):
        (P,) = primes_above(gauss_field, 3)
        assert P.kind == KIND_INERT
        a = gauss_field.element(2, 1)
        for e in range(0, 12):
            assert residue_pow(a, e, P, 1) == naive_pair_pow(gauss_field, (2, 1), e, 3)
            assert residue_pow(a, e, P, 2) == naive_pair_pow(gauss_field, (2, 1), e, 9)

    @pytest.mark.parametrize("d", [1, 2, 3, 7])
    def test_fermat_in_residue_field(self, d):
        field = FieldSpec.from_d(d)
        for p in (3, 5, 7, 11):
            for P in primes_above(field, p):
                if P.kind == KIND_RAMIFIED:
                    continue
                for (x, y) in ((1, 1), (2, 1), (0, 1), (3, 2)):
                    a = field.element(x, y)
                    if element_valuation(P, a):
                        continue
                    assert residue_pow(a, P.norm - 1, P) == ((1, 0) if P.kind == KIND_INERT else 1)

    def test_ramified_square_modulus(self, gauss_field):
        (P,) = primes_above(gauss_field, 2)
        assert P.kind == KIND_RAMIFIED
        a = gauss_field.element(2, 1)
        # P**2 = (2), so pairs mod 2 encode residues mod P**2
        assert residue_pow(a, 0, P, 2) == (1, 0)
        assert residue_pow(a, 1, P, 2) == (0, 1)
        with pytest.raises(ValueError):
            residue_pow(a, 1, P, 3)

    def test_only_p_and_p_squared_have_models(self, gauss_field, rational_field):
        # one place of each kind: split (5, w - 2), inert 3 and ramified (2, w - 1) in Z[i], rational 3
        places = [primes_above(gauss_field, p)[0] for p in (5, 3, 2)]
        places.append(primes_above(rational_field, 3)[0])
        assert [P.kind for P in places] == [KIND_SPLIT, KIND_INERT, KIND_RAMIFIED, KIND_RATIONAL]
        for P in places:
            a = P.field.element(2) if P.field.is_rational else P.field.element(2, 1)
            for m in (0, 3, 4):
                with pytest.raises(ValueError, match=f"not P\\*\\*{m}"):
                    residue_pow(a, 1, P, m)
            with pytest.raises(TypeError, match="m must be an integer"):
                residue_pow(a, 1, P, 2.0)
            assert residue_pow(a, 1, P, True) == residue_pow(a, 1, P, 1)

    def test_rejects_an_element_of_another_field(self, gauss_field, d2_field):
        P = primes_above(d2_field, 3)[0]
        a = gauss_field.element(2, 1)
        for m in (1, 2):
            with pytest.raises(ValueError, match="different fields"):
                residue_pow(a, 1, P, m)
            with pytest.raises(ValueError, match="different fields"):
                residue_pow(a, 2, P, m)

    def test_order_matches_stepping(self, gauss_field, d2_field, rational_field):
        cases = [
            (gauss_field.element(2, 1), gauss_field),
            (d2_field.element(1, 2), d2_field),
            (rational_field.element(2), rational_field),
        ]
        for a, field in cases:
            for p in primes_up_to(103):
                for P in primes_above(field, p):
                    if P.kind == KIND_RAMIFIED or element_valuation(P, a):
                        continue
                    expected = residue_order(P, a)
                    value = residue_pow(a, 1, P)
                    stepped, power = 1, value
                    one = (1, 0) if P.kind == KIND_INERT else 1
                    while power != one:
                        power = residue_pow(a, stepped + 1, P)
                        stepped += 1
                    assert expected == stepped
                    assert (P.norm - 1) % expected == 0

    def test_order_budget_exhaustion(self, rational_field):
        q = 2**89 - 1
        P = primes_above(rational_field, q)[0]
        with pytest.raises(BudgetExhausted):
            residue_order(P, rational_field.element(3), FactorBudget(trial_limit=10, rho_iterations=0))


def _pow_mod_square(a, e, p):
    """a**e by square and multiply, both coordinates reduced mod p**2 after each product."""
    field, m = a.field, p * p

    def reduce(z):
        return field.element(z.x % m, z.y % m)

    result, square = field.one(), reduce(a)
    while e:
        if e & 1:
            result = reduce(result * square)
        square = reduce(square * square)
        e >>= 1
    return result


class TestWieferichCrossOracle:
    """The residue route and the valuation route must agree everywhere."""

    @pytest.mark.parametrize(
        "coords,d",
        [((2, 1), 1), ((1, 2), 1), ((3, 0), 1), ((2, 1), 2), ((2, 0), 0), ((3, 0), 0)],
    )
    def test_routes_agree_up_to_1000(self, coords, d):
        from wieferich import is_wieferich_place

        field = FieldSpec.from_d(d)
        a = field.element(*coords) if not field.is_rational else field.element(coords[0])
        for p in primes_up_to(1000):
            for P in primes_above(field, p):
                if P.kind == KIND_RAMIFIED or element_valuation(P, a):
                    continue
                via_residue = is_wieferich_place(P, a)
                # P unramified, so p**2 O lies in P**2 and reducing mod p**2 keeps v_P >= 2
                diff = _pow_mod_square(a, P.norm - 1, p) - field.one()
                diff = field.element(diff.x % (p * p), diff.y % (p * p))
                via_valuation = diff.is_zero or element_valuation(P, diff) >= 2
                assert via_residue == via_valuation, P.label()


class TestIdealFactorization:
    def test_factor_principal_examples(self, gauss_field):
        fac = factor_principal(gauss_field.element(1, 1))
        assert [(P.label(), e) for P, e in fac.items_sorted()] == [("(2,ramified,1)", 1)]
        fac = factor_principal(gauss_field.element(3, 1))  # norm 10
        assert [(P.label(), e) for P, e in fac.items_sorted()] == [
            ("(2,ramified,1)", 1),
            ("(5,split,2)", 1),
        ]
        fac = factor_principal(gauss_field.element(9, 0))
        assert [(P.label(), e) for P, e in fac.items_sorted()] == [("(3,inert)", 2)]

    def test_norm_product(self, gauss_field):
        gamma = gauss_field.element(7, 4) * gauss_field.element(1, 1) ** 3
        fac = factor_principal(gamma)
        assert fac.complete
        assert fac.norm() == gamma.abs_norm()

    def test_rational(self, rational_field):
        fac = factor_principal(rational_field.element(-360))
        assert fac.complete
        assert {P.p: e for P, e in fac.items_sorted()} == {2: 3, 3: 2, 5: 1}

    def test_algebra(self, gauss_field):
        a = factor_principal(gauss_field.element(2, 1))
        b = factor_principal(gauss_field.element(2, -1))
        ab = a.mul(b)
        assert ab.norm() == 25
        assert a.gcd(b) == IdealFactorization(gauss_field)
        five = factor_principal(gauss_field.element(5, 0))
        assert five.gcd(a) == a
        assert five.gcd(a) != IdealFactorization(gauss_field)

    def test_squarefree_powerful_parts(self, gauss_field):
        gamma = gauss_field.element(2, 1) ** 2 * gauss_field.element(1, 1) * gauss_field.element(3, 0)
        fac = factor_principal(gamma)
        sf = fac.squarefree_part()
        pw = fac.powerful_part()
        assert all(e == 1 for _, e in sf.items_sorted())
        assert all(e >= 2 for _, e in pw.items_sorted())
        assert sf.norm() * pw.norm() == gamma.abs_norm()
        assert {P.label() for P, _ in pw.items_sorted()} == {"(5,split,3)"}
        assert {P.label() for P, _ in sf.items_sorted()} == {"(2,ramified,1)", "(3,inert)"}

    def test_certified_exponents_are_exact_under_tiny_budget(self, rational_field, gauss_field):
        # trial division to 2 and one rho iteration certify 101 in the norm
        # 101^2 * 541 but leave 101 * 541 unsplit in the cofactor
        tiny = FactorBudget(trial_limit=2, rho_iterations=1)
        for gamma in (rational_field.element(101**2 * 541),
                      gauss_field.element(10, 1) ** 2 * gauss_field.element(10, 21)):
            fac = factor_principal(gamma, tiny)
            assert {P.p: e for P, e in fac.items_sorted()} == {101: 2}
            assert fac.cofactor == 541

    def test_incomplete_gcd_raises(self, gauss_field):
        big = gauss_field.element(2, 1) ** 2
        ok = factor_principal(big)
        bad = factor_principal(
            gauss_field.element(0, 1) + gauss_field.element(2, 1) ** 40,
            FactorBudget(trial_limit=10**3, rho_iterations=5),
        )
        if bad.complete:
            pytest.skip("budget unexpectedly sufficed")
        with pytest.raises(BudgetExhausted):
            ok.gcd(bad)

    def test_record_drops_zero_exponents_and_reads_cofactor_as_index(self, gauss_field):
        split, other = primes_above(gauss_field, 5)
        fac = IdealFactorization(gauss_field, {split: 2, other: 0}, 3)
        assert fac.exponents == {split: 2}
        assert fac == IdealFactorization(gauss_field, {split: 2}, 3)
        assert fac != IdealFactorization(gauss_field, {split: 2})
        with pytest.raises(TypeError, match="cofactor must be an integer"):
            IdealFactorization(gauss_field, {}, 2.5)
        for exponents, cofactor in (({split: -1}, 1), ({}, 0)):
            with pytest.raises(ValueError, match="nonnegative"):
                IdealFactorization(gauss_field, exponents, cofactor)

    def test_pickle_round_trip(self, gauss_field):
        # census workers send their levels back to the parent by pickle
        fac = factor_principal(gauss_field.element(10, 1) ** 2 * gauss_field.element(10, 21),
                               FactorBudget(trial_limit=2, rho_iterations=1))
        assert fac.cofactor == 541
        assert pickle.loads(pickle.dumps(fac)) == fac

    def test_restrict_and_exponent(self, gauss_field):
        fac = factor_principal(gauss_field.element(3, 1))
        small = fac.restrict(lambda P, e: P.kind == KIND_SPLIT)
        assert [P.label() for P, _ in small.items_sorted()] == ["(5,split,2)"]
        split, other = primes_above(gauss_field, 5)
        assert small.exponent(split) == 1
        assert fac.exponent(other) == 0
