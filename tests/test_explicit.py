"""Tests for the density expansion and the three prime-power sums.

Every prime sum is checked against a hand enumeration over an independent
prime list (sympy), the one-walk ``prime_sums`` is checked bit for bit
against each sum transcribed as its own per-prime loop at its own natural
bound, with angles, eigenvalues and window transforms from the scalar
oracles in ``test_forms`` and a bracket built on them here, the
telescoping identities of the eigenvalue kernel are checked against the
three routes of the unit power sum in ``oracles``, and the exact-zero
sieve-enlargement invariance is asserted as an equality, not a tolerance.
"""

import dataclasses
import functools
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
import sympy

import symlow.constants
import symlow.forms
from symlow.constants import compute_constants, nu_max
from symlow.explicit import (
    REMAINDER_MARKER,
    _power_brackets,
    density_prediction,
    prime_cutoffs,
    prime_sums,
)
from symlow.forms import SyntheticForm, _eigenvalue_powers, fejer_test_function

import random

from oracles import ReflectedForm, primes_up_to, reflected, satake_power_sum_routes
from sampled_kernel import sampled_test_function
from test_constants import traced_peak
from test_forms import (
    scalar_angle,
    scalar_eigenvalue_power,
    scalar_fejer_hat,
    scalar_sampled_hat,
)

SMALL_BUNDLES = {
    (r, kappa): compute_constants(r, kappa, 10**4)
    for r in (1, 2, 3, 4, 5, 6)
    for kappa in (12,)
}


def make_form(q=11, seed=1729, distribution="sato-tate"):
    return SyntheticForm(q=q, seed=seed, distribution=distribution)


class TestDensityPrediction:
    def test_main_term_first_power(self):
        report = density_prediction(11, fejer_test_function(0.5), SMALL_BUNDLES[(1, 12)])
        assert report.main_term == 1.25  # hat(0) + window(0)/2 = 1 + 0.25

    def test_main_term_second_power(self):
        report = density_prediction(11, fejer_test_function(0.25), SMALL_BUNDLES[(2, 12)])
        assert report.main_term == 1.0 - 0.125

    def test_breakdown_keys_and_terms(self):
        bundle = SMALL_BUNDLES[(1, 12)]
        report = density_prediction(11, fejer_test_function(0.5), bundle)
        assert set(report.breakdown) == {
            "phi_hat_zero",
            "phi_zero",
            "c_infty",
            "c_pnt_term",
            "c_term",
        }
        assert report.breakdown["c_term"] == 0.0  # odd rank: no even-square constant
        assert report.breakdown["c_pnt_term"] == 2.0 * bundle.c_pnt_value
        assert report.breakdown["c_infty"] == bundle.c_infty_value

    def test_even_rank_terms(self):
        bundle = SMALL_BUNDLES[(2, 12)]
        report = density_prediction(11, fejer_test_function(0.25), bundle)
        assert report.breakdown["c_term"] == -2.0 * bundle.c_value
        assert report.breakdown["c_pnt_term"] == -2.0 * bundle.c_pnt_value

    def test_lower_term_assembly(self):
        bundle = SMALL_BUNDLES[(3, 12)]
        report = density_prediction(13, fejer_test_function(0.125), bundle)
        assert report.scale == 3 * math.log(13)
        assert report.lower_term == report.lower_coefficient * report.breakdown[
            "phi_hat_zero"
        ] / report.scale
        assert report.lower_coefficient == (
            bundle.c_infty_value + report.breakdown["c_pnt_term"] + report.breakdown["c_term"]
        )

    def test_remainder_marker(self):
        report = density_prediction(11, fejer_test_function(0.5), SMALL_BUNDLES[(1, 12)])
        assert report.remainder == REMAINDER_MARKER == "O(1/log^3(q^r))"

    def test_admissibility_boundary(self):
        limit = nu_max(1, 12)
        bundle = SMALL_BUNDLES[(1, 12)]
        # Exactly at the limit: not admissible (strict inequality), warns.
        with pytest.warns(UserWarning):
            at = density_prediction(11, fejer_test_function(limit), bundle)
        assert not at.admissible
        # One part in 10^6 below: admissible, silent.
        just_under = limit * Fraction(999999, 1000000)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            under = density_prediction(11, fejer_test_function(just_under), bundle)
        assert under.admissible
        assert under.nu_limit == limit

    def test_as_dict_round_trip_fields(self):
        report = density_prediction(11, fejer_test_function(0.5), SMALL_BUNDLES[(1, 12)])
        doc = dataclasses.asdict(report)
        assert doc["main_term"] == report.main_term
        assert doc["constants"]["c_pnt_value"] == report.constants.c_pnt_value
        assert doc["nu_limit"] == nu_max(1, 12)

    def test_rejections(self):
        with pytest.raises(ValueError):
            density_prediction(12, fejer_test_function(0.5), SMALL_BUNDLES[(1, 12)])


class TestFirstPowerSum:
    def test_hand_enumeration(self):
        # q = 11, nu = 1/2: the transform support only reaches p in {2, 3}.
        form = make_form(q=11)
        phi = fejer_test_function(0.5)
        scale = math.log(11)
        primes = (2, 3)
        lam = _eigenvalue_powers(np.array([form.angle(p) for p in primes]), 1).tolist()
        expected = -(2.0 / scale) * math.fsum(
            lam_p * math.log(p) / math.sqrt(p) * phi.phi_hat(math.log(p) / scale)
            for p, lam_p in zip(primes, lam)
        )
        assert prime_sums(form, phi, 1)["first_power"] == expected

    def test_empty_support_is_exact_zero(self):
        form = make_form()
        assert prime_sums(form, fejer_test_function(0.1), 1)["first_power"] == 0.0

    def test_sieve_enlargement_invariance(self):
        # Terms beyond the natural bound carry weight exactly 0, so pushing
        # the sieve 250x further must not move the value by one ulp.
        form = make_form(q=11)
        phi = fejer_test_function(0.5)
        natural = prime_sums(form, phi, 1)["first_power"]
        enlarged = prime_sums(form, phi, 1, prime_limit=1000)["first_power"]
        assert natural == enlarged

    def test_level_prime_excluded(self):
        form = make_form(q=3)
        phi = fejer_test_function(1.0)
        scale = math.log(3)
        limit = int(math.exp(scale)) + 1
        primes = [p for p in sympy.primerange(2, limit + 1) if p != 3]
        lam = _eigenvalue_powers(np.array([form.angle(p) for p in primes]), 1).tolist()
        expected = -(2.0 / scale) * math.fsum(
            lam_p * math.log(p) / math.sqrt(p) * phi.phi_hat(math.log(p) / scale)
            for p, lam_p in zip(primes, lam)
        )
        assert abs(prime_sums(form, phi, 1)["first_power"] - expected) < 1e-15

    def test_parity_under_angle_flip(self):
        form = make_form(q=11)
        flipped = reflected(form)
        phi = fejer_test_function(1.0)
        for r in (1, 3, 5):
            a = prime_sums(form, phi, r)["first_power"]
            b = prime_sums(flipped, phi, r)["first_power"]
            assert abs(a + b) < 1e-12, r
        for r in (2, 4):
            a = prime_sums(form, phi, r)["first_power"]
            b = prime_sums(flipped, phi, r)["first_power"]
            assert abs(a - b) < 1e-12, r

    def test_rejections(self):
        with pytest.raises(ValueError):
            prime_sums(make_form(), fejer_test_function(0.5), 0)


class TestSquarePowerSum:
    def test_hand_enumeration_rank_one(self):
        form = make_form(q=11)
        phi = fejer_test_function(1.0)
        scale = math.log(11)
        limit = int(math.exp(scale / 2.0)) + 1
        primes = [p for p in sympy.primerange(2, limit + 1) if p != 11]
        lam = _eigenvalue_powers(np.array([form.angle(p) for p in primes]), 2).tolist()
        expected = -(2.0 / scale) * math.fsum(
            lam_p * math.log(p) / p * phi.phi_hat(2.0 * math.log(p) / scale)
            for p, lam_p in zip(primes, lam)
        )
        assert abs(prime_sums(form, phi, 1)["square_power"][0] - expected) < 1e-15

    def test_alternating_sum_matches_power_sum_route(self):
        # Folding the m-ladder with alternating signs reproduces the doubled
        # power sum minus its rank parity, weight by weight.
        form = make_form(q=13)
        phi = fejer_test_function(1.5)
        for r in (1, 2, 3):
            scale = r * math.log(13)
            squares = prime_sums(form, phi, r)["square_power"]
            ladder = math.fsum((-1.0) ** m * squares[m] for m in range(r))
            limit = int(math.exp(phi.nu * scale / 2.0)) + 1
            via_power_sum = -(2.0 / scale) * math.fsum(
                (satake_power_sum_routes(form.angle(p), 2, r)[0] - (-1.0) ** r)
                * math.log(p)
                / p
                * phi.phi_hat(2.0 * math.log(p) / scale)
                for p in sympy.primerange(2, limit + 1)
                if p != 13
            )
            assert abs(ladder - via_power_sum) < 1e-12, r

    def test_flip_invariance(self):
        # Only even eigenvalue powers enter, so the flip never changes it.
        form = make_form(q=11)
        phi = fejer_test_function(1.0)
        for r, m in ((1, 0), (2, 0), (2, 1), (3, 1)):
            a = prime_sums(form, phi, r)["square_power"][m]
            b = prime_sums(reflected(form), phi, r)["square_power"][m]
            assert abs(a - b) < 1e-12

    def test_sieve_enlargement_invariance(self):
        form = make_form(q=11)
        phi = fejer_test_function(0.9)
        natural = prime_sums(form, phi, 2)["square_power"][1]
        enlarged = prime_sums(form, phi, 2, prime_limit=5000)["square_power"][1]
        assert natural == enlarged


class TestHigherPowerSum:
    def test_trivial_zero_below_first_cube(self):
        # Support bound under 8 leaves no admissible prime power p^n, n >= 3.
        form = make_form(q=11)
        assert prime_sums(form, fejer_test_function(0.2), 1)["higher_power"] == 0.0

    def test_single_term_window(self):
        # q = 5, nu = 3/2: the bound is e^{1.5 log 5} = 5^{1.5} ~ 11.18, so
        # p = 2, n = 3 is the only contribution.
        form = make_form(q=5)
        phi = fejer_test_function(1.5)
        scale = math.log(5)
        theta = np.array([form.angle(2)])
        bracket = _eigenvalue_powers(theta, 3)[0] - _eigenvalue_powers(theta, 1)[0]
        expected = -(2.0 / scale) * (
            bracket * math.log(2) / 2**1.5 * phi.phi_hat(3.0 * math.log(2) / scale)
        )
        assert prime_sums(form, phi, 1)["higher_power"] == expected

    def test_bracket_telescopes_to_power_sum(self):
        # n >= 2 keeps every eigenvalue index nonnegative (the sum itself
        # only ever uses n >= 3).
        rng = random.Random(5)
        for _ in range(500):
            theta = rng.uniform(0.0, math.pi)
            n = rng.randint(2, 9)
            r = rng.randint(1, 8)
            direct = _power_brackets(np.array([theta]), n, r)[0]
            telescoped = satake_power_sum_routes(theta, n, r)[0] - (1.0 if r % 2 == 0 else 0.0)
            assert abs(direct - telescoped) < 1e-10

    def test_parity_under_angle_flip(self):
        # Odd rank: a term at power n picks up (-1)^n under the flip, so
        # clean antisymmetry needs a window whose support stops before any
        # even power enters.  Both configurations below admit only n = 3.
        for q, r, nu in ((3, 1, 2.5), (3, 3, 0.75)):
            form = make_form(q=q)
            phi = fejer_test_function(nu)
            a = prime_sums(form, phi, r)["higher_power"]
            assert a != 0.0
            b = prime_sums(reflected(form), phi, r)["higher_power"]
            assert abs(a + b) < 1e-12, (q, r, nu)
        # Even rank: every bracket index is even, so any window works.
        form = make_form(q=3)
        phi = fejer_test_function(2.5)
        for r in (2, 4):
            a = prime_sums(form, phi, r)["higher_power"]
            b = prime_sums(reflected(form), phi, r)["higher_power"]
            assert abs(a - b) < 1e-12

    def test_sieve_enlargement_invariance(self):
        form = make_form(q=3)
        phi = fejer_test_function(2.5)
        natural = prime_sums(form, phi, 2)["higher_power"]
        # natural bound is e^{2.5 * 2 log 3} ~ 243; quadruple it
        enlarged = prime_sums(form, phi, 2, prime_limit=1000)["higher_power"]
        assert natural == enlarged


@functools.lru_cache(maxsize=None)
def oracle_angle(seed, distribution, p):
    return scalar_angle(seed, distribution, p)


@functools.lru_cache(maxsize=None)
def oracle_primes(limit):
    return tuple(sympy.primerange(2, limit + 1))


def oracle_bracket(theta, n, r):
    """Sum over j = r mod 2, 1 <= j <= r, of lambda(p^{jn}) - lambda(p^{jn-2})."""
    start = 1 if r % 2 else 2
    return math.fsum(
        scalar_eigenvalue_power(theta, j * n) - scalar_eigenvalue_power(theta, j * n - 2)
        for j in range(start, r + 1, 2)
    )


class TestPowerBrackets:
    def test_equal_to_oracle(self):
        # r up to 8 reaches brackets of three and four columns, one fsum per angle.
        rng = random.Random(11)
        angles = [0.0, math.pi, 1e-9, math.pi - 1e-9] + [rng.uniform(0.0, math.pi) for _ in range(200)]
        theta = np.array(angles)
        for r in range(1, 9):
            for n in range(2, 10):
                expected = [oracle_bracket(t, n, r) for t in angles]
                assert _power_brackets(theta, n, r).tolist() == expected, (n, r)


def window(nu, samples=None):
    """A Fejer (no samples) or sampled test function and its transform's
    scalar oracle."""
    if samples is None:
        return fejer_test_function(nu), scalar_fejer_hat(nu)
    return sampled_test_function(nu, samples), scalar_sampled_hat(nu, samples)


def separate_sums(form, hat, nu, r, prime_limit=None):
    """The three prime sums as three separate loops over their own primes.

    hat is the window transform, of support radius nu, one point at a time.
    Without prime_limit each loop stops at its own natural bound, so the
    square loop sieves only to exp(nu * scale / 2).  Term expressions and
    summation follow the historical per-sum implementations exactly; each
    angle, eigenvalue and weight is a scalar oracle's, not the program's.
    """

    def angle(p):
        theta = oracle_angle(form.seed, form.distribution, p)
        return math.pi - theta if isinstance(form, ReflectedForm) else theta

    scale = r * math.log(form.q)
    nu = float(nu)

    def natural(factor):
        return int(math.floor(math.exp(nu * scale / factor))) + 1

    def primes(limit):
        return [p for p in oracle_primes(limit) if p != form.q]

    first_limit = natural(1.0) if prime_limit is None else prime_limit
    square_limit = natural(2.0) if prime_limit is None else prime_limit
    first = []
    for p in primes(first_limit):
        lp = math.log(p)
        weight = hat(lp / scale)
        if weight != 0.0:
            first.append(scalar_eigenvalue_power(angle(p), r) * lp / math.sqrt(p) * weight)
    squares = []
    for m in range(r):
        terms = []
        for p in primes(square_limit):
            lp = math.log(p)
            weight = hat(2.0 * lp / scale)
            if weight != 0.0:
                lam = scalar_eigenvalue_power(angle(p), 2 * (r - m))
                terms.append(lam * lp / p * weight)
        squares.append(-(2.0 / scale) * math.fsum(terms))
    higher = []
    for p in primes(round(first_limit ** (1.0 / 3.0)) + 1):
        theta = angle(p)
        lp = math.log(p)
        n = 3
        while p**n <= first_limit:
            weight = hat(n * lp / scale)
            if weight != 0.0:
                higher.append(oracle_bracket(theta, n, r) * lp / p ** (n / 2.0) * weight)
            n += 1
    return {
        "first_power": -(2.0 / scale) * math.fsum(first),
        "square_power": squares,
        "higher_power": -(2.0 / scale) * math.fsum(higher),
    }


WALK_CASES = [
    (q, r, nu)
    for q in (2, 3, 11, 101)
    for r in (1, 2, 3, 4)
    for nu in (Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(5, 2))
    if q ** (r * nu) <= 20000
]


class TestOneWalk:
    """prime_sums against separate_sums with ==, not a tolerance."""

    @pytest.mark.parametrize("kind", ["fejer", "sampled"])
    @pytest.mark.parametrize("variant", ["sato-tate", "uniform", "flipped"])
    def test_bit_identical_to_separate_loops(self, kind, variant):
        samples = [1.0, 0.9, 0.75, 0.2, -0.1, 0.05, 0.0]
        for q, r, nu in WALK_CASES:
            form = make_form(q=q, distribution="uniform" if variant == "uniform" else "sato-tate")
            if variant == "flipped":
                form = reflected(form)
            phi, hat = window(nu, samples if kind == "sampled" else None)
            own_bounds = separate_sums(form, hat, nu, r)
            assert prime_sums(form, phi, r) == own_bounds, (q, r, nu)
            # An enlarged sieve only appends terms of weight exactly 0.
            wide = 3 * prime_cutoffs(q, r, nu)["first_power"]
            enlarged = prime_sums(form, phi, r, prime_limit=wide)
            assert enlarged == own_bounds == separate_sums(form, hat, nu, r, wide), (q, r, nu)
            # A limit of 2^11 cuts some supports short, right at a prime power.
            cut = prime_sums(form, phi, r, prime_limit=2**11)
            assert cut == separate_sums(form, hat, nu, r, 2**11), (q, r, nu)

    def test_prime_weighted_only_at_a_higher_power(self):
        # hat vanishes on [0, 1/2]: at q = 101, p = 3 has log p/scale in
        # (1/6, 1/4), so its first and square weights are 0 and its cube's not.
        phi, hat = window(1, [0.0, 0.0, 0.0, 1.0, 0.0])
        for variant in (make_form(q=101), reflected(make_form(q=101))):
            sums = prime_sums(variant, phi, 1)
            assert sums == separate_sums(variant, hat, 1, 1)
            assert sums["higher_power"] != 0.0

    def test_angles_drawn_only_where_some_weight_is_nonzero(self, monkeypatch):
        # Past the natural bound every weight is 0, so no angle is drawn there.
        draws = []
        draw = symlow.forms._uniform_units

        def counted(seed, primes):
            draws.extend(primes.tolist())
            return draw(seed, primes)

        monkeypatch.setattr(symlow.forms, "_uniform_units", counted)
        symlow.forms._angle_batch.cache_clear()
        form, phi, r = make_form(q=3, seed=99), sampled_test_function(1, [1.0, 0.0, 0.5, 0.0]), 2
        scale = r * math.log(3)
        limit = 3 * prime_cutoffs(3, r, 1)["first_power"]
        prime_sums(form, phi, r, prime_limit=limit)
        weighted = [
            p for p in sympy.primerange(2, limit + 1) if p != 3 and any(
                phi.phi_hat(n * math.log(p) / scale) != 0.0
                for n in range(1, 40) if n <= 2 or p**n <= limit
            )
        ]
        assert draws == weighted
        assert len(weighted) < len(list(sympy.primerange(2, limit + 1))) - 1

    def test_limits_below_two_give_zero_sums(self):
        form, phi = make_form(), fejer_test_function(Fraction(1, 2))
        for limit in (-3, 0, 1):
            assert prime_sums(form, phi, 2, prime_limit=limit) == {
                "first_power": 0.0, "square_power": [0.0, 0.0], "higher_power": 0.0
            }

    def test_warm_walk_holds_a_few_arrays_over_the_primes(self):
        # The first-power and square terms stream a block at a time, so a
        # walk whose angles are cached peaks at a few full-length arrays
        # (primes, logs, weights, angles), not at one array per term class.
        form, phi = make_form(q=10007), fejer_test_function(Fraction(3, 2))
        n = primes_up_to(1_001_051).size - 1  # the primes below the natural bound, besides q
        try:
            prime_sums(form, phi, 1)  # draws and caches the angle batch
            peak = traced_peak(lambda: prime_sums(form, phi, 1))
        finally:
            symlow.forms._angle_batch.cache_clear()
        assert peak <= 7 * 8 * n + 2**20

    def test_cold_walk_holds_segment_arrays_only(self, monkeypatch):
        # pterms --r 1 --q 10007 at nu = 17/10 walks the 433,165 primes up to
        # its natural bound 6,317,084 in four segments of 2^21 integers, three
        # of them full.  At most 16 MiB, fixed from the sizes: the sieve's
        # buffers (2 MiB) and a dozen arrays of the largest segment (155,611
        # entries, 1.19 MiB): its primes, the logs, the weights and the
        # window's temporaries, the mask, the weighted primes, the angles,
        # and the three earlier batches in the cache.  A table of the primes
        # (3.3 MiB) and its half dozen companions would fail it.  What a walk
        # holds does not depend on its draws, so they are stubbed.
        form, phi = make_form(q=10007, distribution="uniform"), fejer_test_function(Fraction(17, 10))
        assert prime_cutoffs(10007, 1, Fraction(17, 10))["first_power"] > 3 * 2**21
        monkeypatch.setattr(symlow.forms, "_draw_angles", lambda s, d, p: np.zeros(p.size))
        symlow.forms._angle_batch.cache_clear()
        try:
            peak = traced_peak(lambda: prime_sums(form, phi, 1))
        finally:
            symlow.forms._angle_batch.cache_clear()
        assert peak <= 16 * 2**20

    @pytest.mark.parametrize("distribution", ["sato-tate", "uniform"])
    def test_short_segments_keep_every_sum(self, distribution, monkeypatch):
        # 64 odd numbers a segment: each walk spans hundreds of segments of
        # a few dozen primes, each its own short block and angle batch, and
        # evicts its first batches from the cache of four; the sums stay.
        cases = [(10007, 1, Fraction(6, 5), None), (101, 2, Fraction(6, 5), None),
                 (11, 3, Fraction(3, 2), None), (101, 2, Fraction(6, 5), 30_000)]
        walks = [(make_form(q=q, distribution=distribution), fejer_test_function(nu), r, limit)
                 for q, r, nu, limit in cases]
        default = [prime_sums(*walk) for walk in walks]
        monkeypatch.setattr(symlow.constants, "_SEGMENT", 64)
        symlow.forms._angle_batch.cache_clear()
        assert [prime_sums(*walk) for walk in walks] == default
        assert symlow.forms._angle_batch.cache_info().misses > 4 * 200

    def test_window_evaluated_about_once_per_prime(self):
        # Each power n evaluates the window only on its own prefix of the
        # sieve: the first power on every prime, the square and higher powers
        # on the few below their natural bounds.
        entries = []
        phi = fejer_test_function(Fraction(3, 2))

        def counted(u):
            entries.append(u.size)
            return phi.phi_hat_array(u)

        n = 78_577  # the primes below the natural bound 1,001,051, besides q
        prime_sums(make_form(q=10007), dataclasses.replace(phi, phi_hat_array=counted), 1)
        assert sum(entries) <= n + 500

    def test_limit_given_with_a_natural_bound_past_every_float(self):
        # exp(nu * log 11) overflows at nu = 400; an explicit limit still sums.
        phi, hat = window(400)
        assert prime_sums(make_form(q=11), phi, 1, prime_limit=300) == separate_sums(
            make_form(q=11), hat, 400, 1, 300
        )

    def test_cases_reach_every_class(self):
        # The grid is only a check if each class has nonzero values in it.
        values = [prime_sums(make_form(q=q), fejer_test_function(nu), r)
                  for q, r, nu in WALK_CASES]
        assert len(WALK_CASES) >= 20
        assert any(v["first_power"] != 0.0 for v in values)
        assert any(v["square_power"][-1] != 0.0 for v in values)
        assert any(v["higher_power"] != 0.0 for v in values)


def alternating_square_sums(theta: np.ndarray, r: int) -> np.ndarray:
    """sum_{m=0}^{r-1} (-1)^m lambda(p^{2(r-m)}) + (-1)^r at every angle of
    theta, one fsum per angle, from the kernel _eigenvalue_powers.

    The doubled-argument power sum S(2, r) telescopes against the eigenvalues
    of even powers, so this equals S(2, r) up to rounding.
    """
    columns = [((-1.0) ** m * _eigenvalue_powers(theta, 2 * (r - m))).tolist() for m in range(r)]
    return np.fromiter((math.fsum(c) + (-1.0) ** r for c in zip(*columns)), np.float64, theta.size)


def square_identity_gaps(theta: list[float], r: int) -> list[float]:
    """Per angle, the largest |S(2, r) - alternating_square_sums| over the
    three routes of S(2, r)."""
    kernel = alternating_square_sums(np.array(theta), r).tolist()
    return [max(abs(s - k) for s in satake_power_sum_routes(t, 2, r)) for t, k in zip(theta, kernel)]


class TestSquareIdentity:
    def test_zero_angle(self):
        for r in range(1, 9):
            assert square_identity_gaps([0.0], r)[0] < 1e-12

    def test_right_angle_rank_one(self):
        # S(2,1) at theta = pi/2 is -2; lambda(p^2) = -1 and (-1)^1 = -1.
        assert square_identity_gaps([math.pi / 2], 1)[0] < 1e-12

    def test_random_sweep(self):
        rng = random.Random(11)
        draws = [(rng.uniform(0.0, math.pi), rng.randint(1, 8)) for _ in range(1000)]
        for r in range(1, 9):
            assert max(square_identity_gaps([t for t, s in draws if s == r], r)) < 1e-10, r


class TestPrimeCutoffs:
    def test_structure_and_monotonicity(self):
        cuts = prime_cutoffs(11, 1, 0.5)
        assert set(cuts) == {"first_power", "square_power", "higher_power"}
        assert cuts["first_power"] == cuts["higher_power"]
        assert cuts["square_power"] <= cuts["first_power"]
        wider = prime_cutoffs(11, 1, 1.5)
        assert wider["first_power"] > cuts["first_power"]

    def test_zero_support(self):
        assert prime_cutoffs(11, 1, 0) == {
            "first_power": 0,
            "square_power": 0,
            "higher_power": 0,
        }
