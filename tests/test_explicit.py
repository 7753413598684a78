"""Tests for the density expansion and the three prime-power sums.

Every prime sum is checked against a hand enumeration over an independent
prime list (sympy), the telescoping identities are cross-checked between
modules, and the exact-zero sieve-enlargement invariance is asserted as an
equality, not a tolerance.
"""

import dataclasses
import math
import warnings
from fractions import Fraction

import pytest
import sympy

from symlow.constants import compute_constants, nu_max
from symlow.explicit import (
    REMAINDER_MARKER,
    _power_bracket,
    density_prediction,
    first_power_prime_sum,
    higher_power_prime_sum,
    prime_cutoffs,
    square_power_identity_gap,
    square_power_prime_sum,
)
from symlow.forms import (
    SyntheticForm,
    eigenvalue_power,
    fejer_test_function,
    satake_power_sum,
)

import random

SMALL_BUNDLES = {
    (r, kappa): compute_constants(r, kappa, pnt_cutoff=10**4, c_cutoff=10**4)
    for r in (1, 2, 3, 4, 5, 6)
    for kappa in (12,)
}


def make_form(q=11, seed=1729, kappa=12, eps_f=1, distribution="sato-tate"):
    return SyntheticForm(kappa=kappa, q=q, eps_f=eps_f, seed=seed, distribution=distribution)


class TestDensityPrediction:
    def test_main_term_first_power(self):
        report = density_prediction(1, 12, 11, fejer_test_function(0.5), SMALL_BUNDLES[(1, 12)])
        assert report.main_term == 1.25  # hat(0) + window(0)/2 = 1 + 0.25

    def test_main_term_second_power(self):
        report = density_prediction(2, 12, 11, fejer_test_function(0.25), SMALL_BUNDLES[(2, 12)])
        assert report.main_term == 1.0 - 0.125

    def test_breakdown_keys_and_terms(self):
        bundle = SMALL_BUNDLES[(1, 12)]
        report = density_prediction(1, 12, 11, fejer_test_function(0.5), bundle)
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
        report = density_prediction(2, 12, 11, fejer_test_function(0.25), bundle)
        assert report.breakdown["c_term"] == -2.0 * bundle.c_value
        assert report.breakdown["c_pnt_term"] == -2.0 * bundle.c_pnt_value

    def test_lower_term_assembly(self):
        bundle = SMALL_BUNDLES[(3, 12)]
        report = density_prediction(3, 12, 13, fejer_test_function(0.125), bundle)
        assert report.scale == 3 * math.log(13)
        assert report.lower_term == report.lower_coefficient * report.breakdown[
            "phi_hat_zero"
        ] / report.scale
        assert report.lower_coefficient == (
            bundle.c_infty_value + report.breakdown["c_pnt_term"] + report.breakdown["c_term"]
        )

    def test_remainder_marker(self):
        report = density_prediction(1, 12, 11, fejer_test_function(0.5), SMALL_BUNDLES[(1, 12)])
        assert report.remainder == REMAINDER_MARKER == "O(1/log^3(q^r))"

    def test_admissibility_boundary(self):
        limit = nu_max(1, 12)
        bundle = SMALL_BUNDLES[(1, 12)]
        # Exactly at the limit: not admissible (strict inequality), warns.
        with pytest.warns(UserWarning):
            at = density_prediction(1, 12, 11, fejer_test_function(limit), bundle)
        assert not at.admissible
        # One part in 10^6 below: admissible, silent.
        just_under = limit * Fraction(999999, 1000000)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            under = density_prediction(1, 12, 11, fejer_test_function(just_under), bundle)
        assert under.admissible
        assert under.nu_limit == limit

    def test_as_dict_round_trip_fields(self):
        report = density_prediction(1, 12, 11, fejer_test_function(0.5), SMALL_BUNDLES[(1, 12)])
        doc = report.as_dict()
        assert doc["main_term"] == report.main_term
        assert doc["constants"]["c_pnt_value"] == report.constants.c_pnt_value
        assert doc["nu_limit"] == nu_max(1, 12)

    def test_sign_convention_mismatch_raises(self):
        # NaN never equals itself, so the two foldings of the coefficient
        # disagree; the check is a raised error, so it survives python -O.
        bundle = dataclasses.replace(SMALL_BUNDLES[(1, 12)], c_pnt_value=float("nan"))
        with pytest.raises(ArithmeticError):
            density_prediction(1, 12, 11, fejer_test_function(0.5), bundle)

    def test_rejections(self):
        with pytest.raises(ValueError):
            density_prediction(1, 12, 12, fejer_test_function(0.5), SMALL_BUNDLES[(1, 12)])
        with pytest.raises(ValueError):
            density_prediction(2, 12, 11, fejer_test_function(0.5), SMALL_BUNDLES[(1, 12)])


class TestFirstPowerSum:
    def test_hand_enumeration(self):
        # q = 11, nu = 1/2: the transform support only reaches p in {2, 3}.
        form = make_form(q=11)
        phi = fejer_test_function(0.5)
        scale = math.log(11)
        expected = -(2.0 / scale) * math.fsum(
            eigenvalue_power(form.angle(p), 1)
            * math.log(p)
            / math.sqrt(p)
            * phi.phi_hat(math.log(p) / scale)
            for p in (2, 3)
        )
        assert first_power_prime_sum(form, phi, 1) == expected

    def test_empty_support_is_exact_zero(self):
        form = make_form()
        assert first_power_prime_sum(form, fejer_test_function(0.1), 1) == 0.0

    def test_sieve_enlargement_invariance(self):
        # Terms beyond the natural bound carry weight exactly 0, so pushing
        # the sieve 250x further must not move the value by one ulp.
        form = make_form(q=11)
        phi = fejer_test_function(0.5)
        natural = first_power_prime_sum(form, phi, 1)
        enlarged = first_power_prime_sum(form, phi, 1, prime_limit=1000)
        assert natural == enlarged

    def test_level_prime_excluded(self):
        form = make_form(q=3)
        phi = fejer_test_function(1.0)
        scale = math.log(3)
        limit = int(math.exp(scale)) + 1
        expected = -(2.0 / scale) * math.fsum(
            eigenvalue_power(form.angle(p), 1)
            * math.log(p)
            / math.sqrt(p)
            * phi.phi_hat(math.log(p) / scale)
            for p in sympy.primerange(2, limit + 1)
            if p != 3
        )
        assert abs(first_power_prime_sum(form, phi, 1) - expected) < 1e-15

    def test_parity_under_angle_flip(self):
        form = make_form(q=11)
        flipped = form.flipped()
        phi = fejer_test_function(1.0)
        for r in (1, 3, 5):
            a = first_power_prime_sum(form, phi, r)
            b = first_power_prime_sum(flipped, phi, r)
            assert abs(a + b) < 1e-12, r
        for r in (2, 4):
            a = first_power_prime_sum(form, phi, r)
            b = first_power_prime_sum(flipped, phi, r)
            assert abs(a - b) < 1e-12, r

    def test_rejections(self):
        with pytest.raises(ValueError):
            first_power_prime_sum(make_form(), fejer_test_function(0.5), 0)


class TestSquarePowerSum:
    def test_order_validation(self):
        form = make_form()
        phi = fejer_test_function(0.5)
        with pytest.raises(ValueError):
            square_power_prime_sum(form, phi, 2, -1)
        with pytest.raises(ValueError):
            square_power_prime_sum(form, phi, 2, 2)

    def test_hand_enumeration_rank_one(self):
        form = make_form(q=11)
        phi = fejer_test_function(1.0)
        scale = math.log(11)
        limit = int(math.exp(scale / 2.0)) + 1
        expected = -(2.0 / scale) * math.fsum(
            eigenvalue_power(form.angle(p), 2)
            * math.log(p)
            / p
            * phi.phi_hat(2.0 * math.log(p) / scale)
            for p in sympy.primerange(2, limit + 1)
            if p != 11
        )
        assert abs(square_power_prime_sum(form, phi, 1, 0) - expected) < 1e-15

    def test_alternating_sum_matches_power_sum_route(self):
        # Folding the m-ladder with alternating signs reproduces the doubled
        # power sum minus its rank parity, weight by weight.
        form = make_form(q=13)
        phi = fejer_test_function(1.5)
        for r in (1, 2, 3):
            scale = r * math.log(13)
            ladder = math.fsum(
                (-1.0) ** m * square_power_prime_sum(form, phi, r, m) for m in range(r)
            )
            limit = int(math.exp(phi.nu * scale / 2.0)) + 1
            via_power_sum = -(2.0 / scale) * math.fsum(
                (satake_power_sum(form.angle(p), 2, r) - (-1.0) ** r)
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
            a = square_power_prime_sum(form, phi, r, m)
            b = square_power_prime_sum(form.flipped(), phi, r, m)
            assert abs(a - b) < 1e-12

    def test_sieve_enlargement_invariance(self):
        form = make_form(q=11)
        phi = fejer_test_function(0.9)
        natural = square_power_prime_sum(form, phi, 2, 1)
        enlarged = square_power_prime_sum(form, phi, 2, 1, prime_limit=5000)
        assert natural == enlarged


class TestHigherPowerSum:
    def test_trivial_zero_below_first_cube(self):
        # Support bound under 8 leaves no admissible prime power p^n, n >= 3.
        form = make_form(q=11)
        assert higher_power_prime_sum(form, fejer_test_function(0.2), 1) == 0.0

    def test_single_term_window(self):
        # q = 5, nu = 3/2: the bound is e^{1.5 log 5} = 5^{1.5} ~ 11.18, so
        # p = 2, n = 3 is the only contribution.
        form = make_form(q=5)
        phi = fejer_test_function(1.5)
        scale = math.log(5)
        theta = form.angle(2)
        bracket = eigenvalue_power(theta, 3) - eigenvalue_power(theta, 1)
        expected = -(2.0 / scale) * (
            bracket * math.log(2) / 2**1.5 * phi.phi_hat(3.0 * math.log(2) / scale)
        )
        assert higher_power_prime_sum(form, phi, 1) == expected

    def test_bracket_telescopes_to_power_sum(self):
        # n >= 2 keeps every eigenvalue index nonnegative (the sum itself
        # only ever uses n >= 3).
        rng = random.Random(5)
        for _ in range(500):
            theta = rng.uniform(0.0, math.pi)
            n = rng.randint(2, 9)
            r = rng.randint(1, 8)
            direct = _power_bracket(theta, n, r)
            telescoped = satake_power_sum(theta, n, r) - (1.0 if r % 2 == 0 else 0.0)
            assert abs(direct - telescoped) < 1e-10

    def test_parity_under_angle_flip(self):
        # Odd rank: a term at power n picks up (-1)^n under the flip, so
        # clean antisymmetry needs a window whose support stops before any
        # even power enters.  Both configurations below admit only n = 3.
        for q, r, nu in ((3, 1, 2.5), (3, 3, 0.75)):
            form = make_form(q=q)
            phi = fejer_test_function(nu)
            a = higher_power_prime_sum(form, phi, r)
            assert a != 0.0
            b = higher_power_prime_sum(form.flipped(), phi, r)
            assert abs(a + b) < 1e-12, (q, r, nu)
        # Even rank: every bracket index is even, so any window works.
        form = make_form(q=3)
        phi = fejer_test_function(2.5)
        for r in (2, 4):
            a = higher_power_prime_sum(form, phi, r)
            b = higher_power_prime_sum(form.flipped(), phi, r)
            assert abs(a - b) < 1e-12

    def test_sieve_enlargement_invariance(self):
        form = make_form(q=3)
        phi = fejer_test_function(2.5)
        natural = higher_power_prime_sum(form, phi, 2)
        # natural bound is e^{2.5 * 2 log 3} ~ 243; quadruple it
        enlarged = higher_power_prime_sum(form, phi, 2, prime_limit=1000)
        assert natural == enlarged


class TestSquareIdentity:
    def test_zero_angle(self):
        for r in range(1, 9):
            assert square_power_identity_gap(0.0, r) < 1e-12

    def test_right_angle_rank_one(self):
        # S(2,1) at theta = pi/2 is -2; lambda(p^2) = -1 and (-1)^1 = -1.
        assert square_power_identity_gap(math.pi / 2, 1) < 1e-12

    def test_random_sweep(self):
        rng = random.Random(11)
        for _ in range(1000):
            theta = rng.uniform(0.0, math.pi)
            r = rng.randint(1, 8)
            assert square_power_identity_gap(theta, r) < 1e-10

    def test_rejections(self):
        with pytest.raises(ValueError):
            square_power_identity_gap(1.0, 0)


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
