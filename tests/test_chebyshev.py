"""Exact integer polynomial engine: oracles and frozen identities.

Numeric cross-checks integrate against the semicircle weight with scipy;
everything else is exact integer arithmetic, so expected residuals are
literally zero, not small.  The product routes (the whole
product p*q weighted by the moments, U_{n-2}^j by repeated products, one
bracket per chain, one scaled U_j per term of a U-basis sum) live here only,
and the chain enumeration, the per-K odd reduction and ``power``, n
products from ONE, in ``oracles``: they are the
oracles for the moment-vector, Horner, tail-recurrence, running-sum and
coefficient-wise routes of ``symlow.chebyshev``.  A counted
``ExactPoly.__mul__`` bounds the polynomial products of the CLI's identity
suite and a counted ``math.comb`` the binomials of the chain checks.
"""

import contextlib
import io
import math
from fractions import Fraction
from operator import mul

import numpy
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

import symlow.chebyshev
from symlow.chebyshev import (
    ONE,
    T,
    ZERO,
    ExactPoly,
    _tail_weights,
    catalan,
    chain_decomposition_residual,
    cheb_coefficients,
    cheb_poly,
    cheb_sum,
    difference_monomial_coeff,
    difference_monomial_residual,
    moment_vector,
    monomial_expansion,
    odd_reduction_residuals,
    orthonormality_residual,
    power_sum_identity_residuals,
    semicircle_moment,
    vanishing_chain_sum,
)
from symlow.cli import main, run_identity_suite

from oracles import chains, odd_reduction_residual, power


def horner(p: ExactPoly, x):
    """p at x by Horner's rule: exact at an int x, floating point at a float x."""
    acc = 0
    for c in reversed(p.coeffs):
        acc = acc * x + c
    return acc


def moment_pairing(p: ExactPoly, q: ExactPoly) -> int:
    """<p, q> as q's coefficients against p's moment vector."""
    return sum(map(mul, q.coeffs, moment_vector(p, q.degree)))


def quad_inner_product(p: ExactPoly, q: ExactPoly) -> float:
    """Independent route: quadrature of p*q against the weight.

    Substituting x = 2 cos(theta) removes the square-root endpoints, so the
    adaptive rule converges to machine accuracy.
    """

    def integrand(theta: float) -> float:
        x = 2.0 * math.cos(theta)
        s = math.sin(theta)
        return horner(p, x) * horner(q, x) * 2.0 * s * s / math.pi

    value, err = quad(integrand, 0.0, math.pi, limit=200)
    # the value converges to machine accuracy; the estimate is conservative
    assert err < 1e-8
    return value


small_polys = st.lists(
    st.integers(min_value=-9, max_value=9), min_size=0, max_size=6
).map(lambda cs: ExactPoly.of(*cs))


class TestExactPoly:
    def test_zero_and_one(self):
        assert ZERO.coeffs == () and ZERO.degree == -1
        assert ONE.coeffs == (1,) and ONE.degree == 0
        assert T.degree == 1

    @given(small_polys, small_polys, small_polys)
    @settings(max_examples=60, deadline=None)
    def test_ring_axioms(self, a, b, c):
        assert a + b == b + a
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert a - a == ZERO
        assert a * ONE == a and a * ZERO == ZERO

    @given(small_polys, st.integers(min_value=0, max_value=8))
    @settings(max_examples=40, deadline=None)
    def test_pow_matches_pointwise_power(self, p, n):
        # Evaluation is a ring map to the ints, so power(p, n)(x) == p(x)**n;
        # the right side is int arithmetic, independent of ExactPoly's products.
        def at(q, x):
            return sum(c * x**i for i, c in enumerate(q.coeffs))

        raised = power(p, n)
        for x in range(-3, 4):
            assert at(raised, x) == at(p, x) ** n

    def test_products_with_zero(self):
        p = ExactPoly.of(3, -1, 4)
        for product in (p * 0, 0 * p, ZERO * p, p * ZERO, ZERO * ZERO, ZERO * 5):
            assert product == ZERO and product.coeffs == ()

    def test_zero_pow_zero_is_one(self):
        # empty products are 1 even for the zero polynomial
        assert power(ZERO, 0) == ONE
        assert power(ZERO, 3) == ZERO

    def test_scalar_multiplication(self):
        p = ExactPoly.of(1, 1)
        assert 2 * p == p * 2 == ExactPoly.of(2, 2)


class TestChebFamily:
    def test_frozen_small_members(self):
        assert cheb_poly(0) == ONE
        assert cheb_poly(1) == T
        assert cheb_poly(2) == ExactPoly.of(-1, 0, 1)
        assert cheb_poly(3) == ExactPoly.of(0, -2, 0, 1)
        assert cheb_poly(-1) == ZERO and cheb_poly(-2) == ZERO

    def test_rejects_below_minus_two(self):
        with pytest.raises(ValueError):
            cheb_poly(-3)

    @given(st.integers(min_value=0, max_value=40))
    @settings(max_examples=41, deadline=None)
    def test_recurrence(self, n):
        assert cheb_poly(n + 1) == T * cheb_poly(n) - cheb_poly(n - 1)

    @given(st.integers(min_value=0, max_value=15), st.floats(min_value=0.4, max_value=2.74))
    @settings(max_examples=80, deadline=None)
    def test_sine_ratio_definition(self, n, theta):
        # monomial evaluation is ill-conditioned near |x| = 2, so the float
        # comparison stays on the well-conditioned interior
        expected = math.sin((n + 1) * theta) / math.sin(theta)
        got = horner(cheb_poly(n), 2.0 * math.cos(theta))
        assert abs(got - expected) < 1e-9 * (n + 1)

    @pytest.mark.parametrize("n", range(0, 41))
    def test_special_angle_values_exact(self, n):
        # theta = 0, pi, pi/2, pi/3 give exact integer arguments
        assert horner(cheb_poly(n), 2) == n + 1
        assert horner(cheb_poly(n), -2) == (-1) ** n * (n + 1)
        zero_pattern = [1, 0, -1, 0][n % 4]
        assert horner(cheb_poly(n), 0) == zero_pattern
        one_pattern = [1, 1, 0, -1, -1, 0][n % 6]
        assert horner(cheb_poly(n), 1) == one_pattern

    def test_moments_against_quadrature(self):
        for k in range(0, 11):
            exact = semicircle_moment(k)
            numeric = quad_inner_product(ExactPoly.of(*([0] * k + [1])), ONE)
            assert abs(float(exact) - numeric) < 1e-9
        assert semicircle_moment(4) == catalan(2) == 2
        assert semicircle_moment(7) == 0

    def test_inner_product_against_quadrature(self):
        pairs = [(T * T, ONE), (cheb_poly(3), cheb_poly(5)), (cheb_poly(4), cheb_poly(4))]
        for p, q in pairs:
            assert abs(moment_pairing(p, q) - quad_inner_product(p, q)) < 1e-9

    def test_orthonormality_window(self):
        for j in range(0, 13):
            assert cheb_coefficients(cheb_poly(j)) == tuple(int(i == j) for i in range(j + 1))


class TestLinearization:
    def test_square_of_first(self):
        x = cheb_coefficients(power(cheb_poly(1), 2))
        assert x == (1, 0, 1)
        assert cheb_sum(x) == power(cheb_poly(1), 2)

    def test_parity_entries_are_exact_zeros(self):
        x = cheb_coefficients(power(cheb_poly(2), 3))  # indices of the wrong parity vanish
        assert len(x) == 7
        for j, coeff in enumerate(x):
            if (j - 6) % 2:
                assert coeff == 0

    def test_even_power_constant_coefficient(self):
        # <U_1^w, U_0> = C(w, w/2)/(1 + w/2) for even w
        for w in (2, 4, 6, 8):
            expected = Fraction(math.comb(w, w // 2), 1 + w // 2)
            assert cheb_coefficients(power(cheb_poly(1), w))[0] == expected

    @pytest.mark.parametrize("varpi", [1, 2, 3, 4])
    @pytest.mark.parametrize("r", [1, 2, 3, 4])
    def test_reassembly(self, varpi, r):
        raised = power(cheb_poly(r), varpi)
        assert cheb_sum(cheb_coefficients(raised)) == raised

    def test_expansion_round_trip(self):
        p = cheb_poly(4) * 3 + cheb_poly(1) * -7 + ONE
        coeffs = cheb_coefficients(p)
        assert coeffs == tuple(moment_pairing(p, cheb_poly(j)) for j in range(p.degree + 1))
        assert coeffs == (1, -7, 0, 0, 3)
        assert cheb_sum(coeffs) == p
        assert cheb_coefficients(ZERO) == () and cheb_sum(()) == ZERO


class TestIntegerRing:
    def test_family_coefficients_are_ints(self):
        for n in range(0, 61):
            for p in (cheb_poly(n), monomial_expansion(n)):
                assert all(type(c) is int for c in p.coeffs), n

    def test_of_rejects_non_integers(self):
        # numpy integers become ints; floats, rationals and strings raise,
        # even where their value is integral.
        assert ExactPoly.of(numpy.int64(3), numpy.uint8(0)).coeffs == (3,)
        assert type(ExactPoly.of(numpy.int64(3)).coeffs[0]) is int
        for bad in (0.5, 1.0, Fraction(1, 2), Fraction(1), "x"):
            with pytest.raises(TypeError):
                ExactPoly.of(1, bad)

    def test_api_edges_return_ints(self):
        # U-basis coefficients, chain sums and the factorial closed forms,
        # whose quotients divide exactly.
        assert all(type(c) is int for c in cheb_coefficients(power(cheb_poly(2), 3)))
        for k0 in range(1, 6):
            assert type(vanishing_chain_sum(k0)) is int
        for big_k in range(0, 41):
            for k in range(big_k + 1):
                assert type(difference_monomial_coeff(big_k, k)) is int


class TestMonomialExpansion:
    def test_matches_recurrence_construction(self):
        for ell in range(0, 61):
            assert monomial_expansion(ell) == cheb_poly(ell)

    def test_alternating_signs(self):
        assert monomial_expansion(6).coeffs == (-1, 0, 6, 0, -5, 0, 1)


class TestChainIdentities:
    @pytest.mark.parametrize("n", range(1, 9))
    @pytest.mark.parametrize("r", range(1, 9))
    def test_power_sum_identity(self, n, r):
        assert power_sum_identity_residuals(n, 8)[r - 1] == ZERO

    @pytest.mark.parametrize("k0", range(1, 9))
    def test_chain_decomposition(self, k0):
        assert chain_decomposition_residual(k0) == ZERO

    @pytest.mark.parametrize("big_k", range(1, 9))
    def test_odd_reduction(self, big_k):
        assert odd_reduction_residuals(8)[big_k - 1] == ZERO

    def test_tail_weights_match_the_enumeration(self):
        # w[t] is the signed weight summed over the chains ending at t, and
        # w[0] minus the sum of w[t] * C(2t, t), the chain sum's constant.
        for k0 in range(1, 19):
            want = [0] * (k0 + 1)
            for sign, weight, tail in chains(k0):
                want[tail] += sign * weight
            want[0] = -sum(w * math.comb(2 * t, t) for t, w in enumerate(want))
            got = _tail_weights(k0)
            assert got == want and all(type(w) is int for w in got), k0

    def test_vanishing_chain_sum(self):
        assert vanishing_chain_sum(1) == 1
        for k0 in range(2, 9):
            assert vanishing_chain_sum(k0) == 0

    def test_vanishing_chain_sum_is_projection(self):
        # equals minus the constant-component of U_{2k0} - U_{2k0-2}
        for k0 in range(1, 7):
            diff = cheb_poly(2 * k0) - cheb_poly(2 * k0 - 2)
            assert vanishing_chain_sum(k0) == -cheb_coefficients(diff)[0]


class TestDifferenceCoefficients:
    def test_frozen_values(self):
        assert difference_monomial_coeff(0, 0) == 0
        assert difference_monomial_coeff(1, 1) == 1
        assert difference_monomial_coeff(2, 0) == -2
        assert difference_monomial_coeff(2, 2) == 1
        assert difference_monomial_coeff(4, 0) == 2
        assert difference_monomial_coeff(3, 1) == -3

    def test_constant_coefficient_of_even_index(self):
        # The l = k/2 formula at k = 0, past the K <= 60 the identity suite reaches.
        for big_k in range(2, 401, 2):
            assert difference_monomial_coeff(big_k, 0) == 2 * (-1) ** (big_k // 2)

    def test_parity_mismatch_is_zero(self):
        assert difference_monomial_coeff(4, 1) == 0
        assert difference_monomial_coeff(5, 2) == 0

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            difference_monomial_coeff(3, 4)

    @pytest.mark.parametrize("big_k", list(range(1, 41)))
    def test_identity(self, big_k):
        assert difference_monomial_residual(big_k) == ZERO

    def test_row_reassembles_difference(self):
        big_k = 12
        acc = ZERO
        for k in range(big_k + 1):
            acc = acc + ExactPoly.of(*([0] * k + [1])) * difference_monomial_coeff(big_k, k)
        assert acc == cheb_poly(big_k) - cheb_poly(big_k - 2)


def product_inner_product(p: ExactPoly, q: ExactPoly) -> int:
    """<p, q> by the product route: sum over k of (p*q)_k * m_k, nonzero terms."""
    return sum(c * semicircle_moment(k) for k, c in enumerate((p * q).coeffs) if c != 0)


def product_linearization(varpi: int, r: int, family) -> dict:
    raised = power(family(r), varpi)
    return {j: product_inner_product(raised, family(j)) for j in range(r * varpi + 1)}


def sum_by_products(coeffs, family) -> ExactPoly:
    """sum_j coeffs[j] * U_j by one scalar product and one + per term."""
    acc = ZERO
    for j, c in enumerate(coeffs):
        acc = acc + family(j) * c
    return acc


def pairwise_orthonormality(top: int, family) -> int:
    return max(
        abs(product_inner_product(family(i), family(j)) - int(i == j))
        for i in range(top + 1)
        for j in range(i, top + 1)
    )


def per_chain_residual(k0: int, family) -> ExactPoly:
    acc = ZERO
    for sign, weight, tail in chains(k0):
        bracket = power(T, 2 * tail) - ExactPoly.of(math.comb(2 * tail, tail))
        acc = acc + (sign * weight) * bracket
    return acc - (family(2 * k0) - family(2 * k0 - 2))


def power_sum_residual_by_powers(n: int, r: int, family) -> ExactPoly:
    lhs = ZERO
    for j in range(r % 2, r + 1, 2):
        lhs = lhs + family(j * n) - family(j * n - 2)
    rhs = ZERO
    for j in range(r + 1):
        rhs = rhs + ((-1) ** j) * (power(family(n - 2), j) * family(n * (r - j)))
    return lhs - rhs


@pytest.fixture(params=["chebyshev", "perturbed"])
def family(request, monkeypatch):
    """The U family that both routes read.

    "perturbed" adds (n + 2) T^(n mod 3) to each U_n (degree still at most
    max(n, 2)) and patches it in for ``cheb_poly`` as a table lookup, so the
    cache of the true family is never touched.  The identities then fail and
    both routes must agree on generic nonzero residuals.
    """
    if request.param == "chebyshev":
        return cheb_poly
    table = {n: cheb_poly(n) + ExactPoly.of(*([0] * (n % 3) + [n + 2])) for n in range(-2, 65)}
    monkeypatch.setattr(symlow.chebyshev, "cheb_poly", table.__getitem__)
    return table.__getitem__


int_polys = st.lists(st.integers(min_value=-10**6, max_value=10**6), max_size=12).map(
    lambda cs: ExactPoly.of(*cs)
)


class TestProductRouteOracles:
    @given(int_polys, int_polys)
    @settings(max_examples=150, deadline=None)
    def test_inner_product_of_int_polynomials(self, p, q):
        # The moment-vector pairing against the product route, both ways round.
        for a, b in ((p, q), (q, p)):
            got, want = moment_pairing(a, b), product_inner_product(a, b)
            assert got == want and type(got) is type(want) is int

    @pytest.mark.parametrize("other", [ZERO, ONE, cheb_poly(5), ExactPoly.of(3, 0, -2)])
    def test_inner_product_with_zero(self, other):
        for a, b in ((ZERO, other), (other, ZERO)):
            got = moment_pairing(a, b)
            assert got == product_inner_product(a, b) == 0 and type(got) is int

    def test_moment_vector_is_the_pairing_with_monomials(self):
        p = ExactPoly.of(3, -1, 4, 1, -5, 9)
        v = moment_vector(p, 9)
        assert v == [product_inner_product(p, ExactPoly.of(*([0] * k + [1]))) for k in range(10)]
        assert moment_vector(ZERO, 3) == [0, 0, 0, 0]

    @pytest.mark.parametrize("varpi", range(0, 7))
    @pytest.mark.parametrize("r", range(0, 7))
    def test_linearize_power(self, family, varpi, r):
        got = cheb_coefficients(power(family(r), varpi))
        want = product_linearization(varpi, r, family)
        assert dict(enumerate(got)) == want
        assert all(type(c) is int for c in got)
        assert cheb_sum(got) == sum_by_products(got, family)

    @pytest.mark.parametrize("k0", range(1, 11))
    def test_grouped_chain_residual(self, family, k0):
        assert chain_decomposition_residual(k0) == per_chain_residual(k0, family)

    @pytest.mark.parametrize("n", range(1, 9))
    @pytest.mark.parametrize("r", range(1, 9))
    def test_incremental_power_sum(self, family, n, r):
        assert power_sum_identity_residuals(n, 8)[r - 1] == power_sum_residual_by_powers(n, r, family)

    @pytest.mark.parametrize("big_k", range(1, 11))
    def test_running_odd_reduction(self, family, big_k):
        assert odd_reduction_residuals(10)[big_k - 1] == odd_reduction_residual(big_k, family)

    @pytest.mark.parametrize("top", [0, 1, 2, 7, 16])
    def test_orthonormality_residual(self, family, top):
        got = orthonormality_residual(top)
        assert got == pairwise_orthonormality(top, family) and type(got) is int


class TestWorkGuard:
    """Polynomial products counted, not timed: every ExactPoly.__mul__ call,
    scalar or polynomial, through __rmul__ too."""

    @pytest.fixture
    def products(self, monkeypatch):
        count = [0]
        original = ExactPoly.__mul__

        def counted(self, other):
            count[0] += 1
            return original(self, other)

        monkeypatch.setattr(ExactPoly, "__mul__", counted)
        monkeypatch.setattr(ExactPoly, "__rmul__", counted)
        return count

    def test_identities_workload(self, products):
        # The benchmark's two identities commands from a cold U cache, as in a
        # fresh process: 17,494 products by the product routes, 3,721 through
        # a per-term expansion wrapper, 1,479 with each power built from 1,
        # 1,165 with a Horner chain per (n, r) and an odd-reduction sum per K,
        # 418 now.
        cheb_poly.cache_clear()
        for argv in (
            ["identities"],
            ["identities", "--kmax", "10", "--coeff-kmax", "60", "--lmax", "80",
             "--ortho-max", "40", "--power-max", "8"],
        ):
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(argv) == 0
        assert 0 < products[0] <= 450

    def test_each_power_grows_from_the_last(self, products):
        # With U_0..U_64 cached, the linearization check adds power_max^2
        # products to the suite: one per power U_r^varpi, each from the last.
        cheb_poly(64)
        counts = []
        for power_max in (0, 1, 6, 8):
            products[0] = 0
            run_identity_suite(1, 1, 0, 0, power_max)
            counts.append(products[0])
        assert [count - counts[0] for count in counts] == [0, 1, 36, 64]

    def test_linearization_and_orthonormality_products(self, products):
        cheb_poly(64)
        raised = power(cheb_poly(8), 8)
        products[0] = 0
        cheb_sum(cheb_coefficients(raised))
        orthonormality_residual(40)
        assert products[0] == 0

    @pytest.mark.parametrize("kmax", [8, 10, 16])
    def test_chain_checks_comb_calls(self, monkeypatch, kmax):
        # The tail recurrence makes k0 (k0 + 1) / 2 binomials per check and
        # Catalan one per new t: 249, 451 and 1,649 calls here, against
        # 538, 2,091 and 131,190 when every chain was listed.
        count = [0]
        original = math.comb

        def counted(n, k):
            count[0] += 1
            return original(n, k)

        catalan.cache_clear()
        monkeypatch.setattr(math, "comb", counted)
        for k0 in range(1, kmax + 1):
            chain_decomposition_residual(k0)
            vanishing_chain_sum(k0)
        assert count[0] <= kmax**3
