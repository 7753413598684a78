"""Tests for the synthetic-form layer: seeded Satake angles, eigenvalue
powers, unit power sums, gamma shifts, functional-equation signs, and the
two admissible test-function constructors.

Oracles used here: scipy's Chebyshev-U evaluator for the sine ratios, a
truncated forward Fourier integral with an exact sine-integral tail for
the Fejer transform pair, direct quadrature of the piecewise-linear
transform for sampled kernels, mod-4 arithmetic on the fourth-root
exponent for the sign table, and the scalar formulas that the array kernels
in ``symlow.forms`` must reproduce bit for bit: ``scalar_angle``, the
per-prime draw and 64-step math.sin bisection; ``scalar_eigenvalue_power``,
the sine ratio one angle at a time; and ``scalar_fejer_hat`` and
``scalar_sampled_hat``, the two window transforms one point at a time
(``tests/test_explicit.py`` builds its per-prime sums from them too).
"""

import hashlib
import math
import random
from fractions import Fraction

import numpy
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import eval_chebyu, sici

import symlow.forms
from symlow.constants import primes_up_to
from symlow.forms import (
    DISTRIBUTIONS,
    GammaShifts,
    SyntheticForm,
    _angle_batch,
    _draw_angles,
    _eigenvalue_powers,
    _sato_tate_inverse_cdf,
    alpha_pair_power,
    eigenvalue_power,
    fejer_test_function,
    gamma_shifts,
    is_prime,
    root_number,
    sampled_test_function,
    satake_power_sum,
    satake_power_sum_routes,
)


def chebu_at_angle(n: int, theta: float) -> float:
    """Independent route to sin((n+1)t)/sin(t) via scipy's recurrence."""
    return float(eval_chebyu(n, math.cos(theta)))


def scalar_inverse_cdf(u: float) -> float:
    """Solve (2t - sin 2t) / (2 pi) = u by 64 halvings of [0, pi], one at a time."""
    lo, hi = 0.0, math.pi
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        if (2.0 * mid - math.sin(2.0 * mid)) / (2.0 * math.pi) < u:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def scalar_draw(seed: int, p: int) -> float:
    """The seeded uniform draw at p: BLAKE2b-64 of "seed:p", hashed whole."""
    digest = hashlib.blake2b(f"{seed}:{p}".encode(), digest_size=8).digest()
    return (int.from_bytes(digest, "big") + 0.5) / 2.0**64


def scalar_angle(seed: int, distribution: str, p: int) -> float:
    """The unflipped seeded angle at p, computed per prime with math.sin."""
    u = scalar_draw(seed, p)
    return u * math.pi if distribution == "uniform" else scalar_inverse_cdf(u)


def scalar_eigenvalue_power(theta: float, n: int) -> float:
    """sin((n+1)t)/sin(t) at one angle: the endpoint limit (n+1 at t=0,
    (-1)^n (n+1) at t=pi) where sin t < 1e-8, else the ratio clamped to n+1."""
    s = math.sin(theta)
    if s < 1e-8:
        sign = 1 if theta < math.pi / 2 else (-1) ** n
        return float(sign * (n + 1))
    value = math.sin((n + 1) * theta) / s
    return max(-(n + 1.0), min(n + 1.0, value))


def scalar_fejer_hat(nu):
    """The triangular transform max(0, 1 - |u|/nu), one point at a time."""
    nu_f = float(nu)
    return lambda u: max(0.0, 1.0 - abs(u) / nu_f)


def scalar_sampled_hat(nu, samples):
    """The even linear interpolant of samples on the uniform grid over
    [0, nu], zero from nu on, one point at a time."""
    nu_f = float(nu)
    values = [float(v) for v in samples]
    step = nu_f / (len(values) - 1)

    def phi_hat(u: float) -> float:
        u = abs(u)
        if u >= nu_f:
            return 0.0
        i = min(int(u / step), len(values) - 2)
        frac = u / step - i
        return values[i] * (1.0 - frac) + values[i + 1] * frac

    return phi_hat


class TestPrimality:
    def test_matches_sympy_below_ten_thousand(self):
        for n in range(10000):
            assert is_prime(n) == sympy.isprime(n), n

    def test_carmichael_numbers_rejected(self):
        # Fermat pseudoprimes to many bases; Miller-Rabin must still reject.
        for n in (561, 1105, 1729, 2465, 2821, 41041, 825265):
            assert not is_prime(n)

    def test_large_primes(self):
        assert is_prime(10**9 + 7)
        assert is_prime(2**31 - 1)
        assert not is_prime((10**9 + 7) * (10**9 + 9))

    def test_accepts_numpy_integers(self):
        assert is_prime(numpy.int64(97))
        assert not is_prime(numpy.int64(91))

    def test_strong_pseudoprime_to_bases_through_37(self):
        # psi_12 passes every base 2..37; base 41 exposes it.
        psi_12 = 318665857834031151167461
        assert psi_12 == 399165290221 * 798330580441
        assert not is_prime(psi_12)

    def test_refuses_beyond_the_proven_range(self):
        # psi_13 passes every base 2..41, so the test cannot decide it.
        bound = symlow.forms.MILLER_RABIN_BOUND
        assert bound == 3317044064679887385961981 == 1287836182261 * 2575672364521
        assert is_prime(sympy.prevprime(bound))
        for n in (bound, 10**30 + 57):
            with pytest.raises(ValueError, match="proven range"):
                is_prime(n)


class TestEigenvaluePower:
    def test_matches_scipy_chebyshev(self):
        for n in range(26):
            for theta in numpy.linspace(0.05, math.pi - 0.05, 41):
                got = eigenvalue_power(float(theta), n)
                want = chebu_at_angle(n, float(theta))
                assert abs(got - want) < 1e-10 * (n + 1)

    def test_endpoint_limits_exact(self):
        for n in range(40):
            assert eigenvalue_power(0.0, n) == n + 1
            assert eigenvalue_power(math.pi, n) == (-1) ** n * (n + 1)
            # Angles inside the snap window take the limit value too.
            assert eigenvalue_power(1e-9, n) == n + 1
            assert eigenvalue_power(math.pi - 1e-9, n) == (-1) ** n * (n + 1)

    def test_zeroth_power_is_one(self):
        for theta in (0.0, 0.3, 1.1, math.pi):
            assert eigenvalue_power(theta, 0) == 1.0

    @given(
        st.floats(min_value=1e-6, max_value=math.pi - 1e-6),
        st.integers(min_value=0, max_value=40),
    )
    def test_sharp_bound(self, theta, n):
        assert abs(eigenvalue_power(theta, n)) <= n + 1

    @given(
        st.floats(min_value=1e-4, max_value=math.pi - 1e-4),
        st.integers(min_value=0, max_value=30),
    )
    def test_agrees_with_scipy_generically(self, theta, n):
        got = eigenvalue_power(theta, n)
        assert abs(got - chebu_at_angle(n, theta)) < 1e-9 * (n + 1)

    def test_rejections(self):
        with pytest.raises(ValueError):
            eigenvalue_power(-0.1, 2)
        with pytest.raises(ValueError):
            eigenvalue_power(math.pi + 0.1, 2)
        with pytest.raises(ValueError):
            eigenvalue_power(1.0, -1)


def eigenvalue_grid() -> list[float]:
    """Angles at both endpoints, on both sides of the s = 1e-8 snap, where
    the clamp bites (just inside pi), and spread over (0, pi)."""
    grid = [0.0, math.pi, 1e-9, math.pi - 1e-9, math.pi / 2]
    for edge in (1e-8, math.asin(1e-8), math.pi - 1e-8, math.pi - math.asin(1e-8)):
        t = edge
        for _ in range(4):
            t = float(numpy.nextafter(t, 0.0))
        for _ in range(8):
            grid.append(t)
            t = float(numpy.nextafter(t, 4.0))
    for base in (1e-8, 2e-8, 5e-8, 1e-7):
        grid.extend(math.pi - base * (1 + k * 1e-3) for k in range(-50, 50))
    grid.extend(random.Random(7).uniform(0.0, math.pi) for _ in range(500))
    return grid


class TestVectorEigenvaluePower:
    """_eigenvalue_powers and eigenvalue_power against the scalar oracle with ==."""

    def test_equals_scalar_on_edge_grid(self):
        grid = eigenvalue_grid()
        theta = numpy.array(grid)
        sines = [math.sin(t) for t in grid]
        assert any(s < 1e-8 for s in sines) and any(1e-8 <= s < 1.1e-8 for s in sines)
        clamped = 0
        for n in range(13):
            want = [scalar_eigenvalue_power(t, n) for t in grid]
            assert _eigenvalue_powers(theta, n).tolist() == want
            assert [eigenvalue_power(t, n) for t in grid] == want
            clamped += sum(
                abs(math.sin((n + 1) * t) / s) > n + 1 for t, s in zip(grid, sines) if s >= 1e-8
            )
        assert clamped > 0  # the grid reaches the clamp

    def test_empty(self):
        assert _eigenvalue_powers(numpy.array([]), 3).tolist() == []


class TestVectorTransform:
    """phi_hat_array and phi_hat against the scalar oracles with ==, for both
    kinds of window."""

    @staticmethod
    def points(nu: float, knots: int) -> list[float]:
        step = nu / (knots - 1)
        pts = [i * step for i in range(knots)] + [(i + 0.5) * step for i in range(knots)]
        pts += [nu, float(numpy.nextafter(nu, 0.0)), float(numpy.nextafter(nu, 9.0)), 2 * nu, 1e300]
        pts += [random.Random(3).uniform(0.0, 1.2 * nu) for _ in range(200)]
        return pts + [-x for x in pts]

    def check(self, kernel, oracle, nu, knots):
        pts = self.points(float(nu), knots)
        want = [oracle(u) for u in pts]
        assert kernel.phi_hat_array(numpy.array(pts)).tolist() == want
        assert [kernel.phi_hat(u) for u in pts] == want

    @pytest.mark.parametrize("nu", [0.7, 1.5, Fraction(3, 2), Fraction(19, 10)])
    def test_fejer(self, nu):
        self.check(fejer_test_function(nu), scalar_fejer_hat(nu), nu, 7)

    @pytest.mark.parametrize("nu", [0.7, 1.5, Fraction(3, 2)])
    @pytest.mark.parametrize(
        "samples", [[1.0, 0.9, 0.75, 0.2, -0.1, 0.05, 0.0], [1.0, 0.0], [0.5, -0.25, 0.0, 0.3]]
    )
    def test_sampled(self, nu, samples):
        kernel = sampled_test_function(nu, samples)
        self.check(kernel, scalar_sampled_hat(nu, samples), nu, len(samples))


ANGLE_LIMIT = math.isqrt(10007**3)  # the first-power bound of pterms --r 1 --q 10007 --nu 3/2


class TestBatchedAngles:
    """Batched angles against the per-prime scalar oracle, with ==."""

    @pytest.mark.parametrize("seed", [1729, 1742, 1761])
    def test_every_prime_matches_scalar_oracle(self, seed):
        primes = primes_up_to(ANGLE_LIMIT)
        draws = [scalar_draw(seed, p) for p in primes.tolist()]
        sato_tate = [scalar_inverse_cdf(u) for u in draws]
        uniform = [u * math.pi for u in draws]
        for distribution, want in (("sato-tate", sato_tate), ("uniform", uniform)):
            form = SyntheticForm(kappa=12, q=10007, eps_f=1, seed=seed, distribution=distribution)
            assert form._sieved_angles(primes).tolist() == want
            flipped = form.flipped()._sieved_angles(primes).tolist()
            assert flipped == [math.pi - t for t in want]

    def test_edge_draws(self):
        smallest = (0 + 0.5) / 2.0**64
        largest = (2**64 - 1 + 0.5) / 2.0**64
        assert (smallest, largest) == (2.0**-65, 1.0)
        # F(pi/2) = 1/2 exactly, so u = 1/2 meets an exact tie at the first step.
        assert (math.pi - math.sin(math.pi)) / (2.0 * math.pi) == 0.5
        draws = [smallest, largest, 0.5, float(numpy.nextafter(0.5, 0.0)), 0.25]
        got = _sato_tate_inverse_cdf(numpy.array(draws)).tolist()
        assert got == [scalar_inverse_cdf(u) for u in draws]
        assert 0.0 < got[0] < got[4] < got[3] <= got[2] < got[1] <= math.pi

    def test_empty_batch(self):
        assert _draw_angles(1729, "sato-tate", numpy.array([], numpy.int64)).tolist() == []

    def test_public_angle_is_the_batch_entry(self):
        primes = primes_up_to(600)
        primes = primes[primes != 11]
        for distribution in DISTRIBUTIONS:
            form = SyntheticForm(kappa=12, q=11, eps_f=1, seed=4242, distribution=distribution)
            for f in (form, form.flipped()):
                batch = f._sieved_angles(primes).tolist()
                assert [f.angle(p) for p in primes.tolist()] == batch

    def test_public_angle_beyond_int64(self):
        p = 2**64 + 13  # prime
        for distribution in DISTRIBUTIONS:
            form = SyntheticForm(kappa=12, q=11, eps_f=1, seed=4242, distribution=distribution)
            assert form.angle(p) == scalar_angle(4242, distribution, p)

    def test_batches_are_cached_read_only(self):
        _angle_batch.cache_clear()
        primes = primes_up_to(500)
        form = SyntheticForm(kappa=12, q=11, eps_f=1, seed=5, distribution="sato-tate")
        first = form._sieved_angles(primes)
        with pytest.raises(ValueError):
            first[0] = 0.0
        assert form._sieved_angles(primes) is first
        assert form.flipped()._sieved_angles(primes).tolist() == [math.pi - t for t in first]
        assert _angle_batch.cache_info().hits == 2


def skewed_sin(real_sin):
    """A sine that errs by one ulp, up and down by turns, entry by entry and
    call by call: within the one-ulp assumption behind BISECTION_MARGIN."""
    calls = [0]

    def sin(x):
        exact = real_sin(x)
        calls[0] += 1
        up = (numpy.arange(exact.size) + calls[0]) % 2 == 0
        return numpy.where(
            up, numpy.nextafter(exact, numpy.inf), numpy.nextafter(exact, -numpy.inf)
        )

    return sin


class TestBisectionMargin:
    """Fault injection: a one-ulp-off np.sin leaves every angle as it is."""

    PRIMES = primes_up_to(10**5)

    def test_skewed_sine_keeps_every_angle(self, monkeypatch):
        want = [scalar_angle(1729, "sato-tate", p) for p in self.PRIMES.tolist()]
        monkeypatch.setattr(numpy, "sin", skewed_sin(numpy.sin))
        assert _draw_angles(1729, "sato-tate", self.PRIMES).tolist() == want

    def test_without_margin_the_skew_shows(self, monkeypatch):
        # Control: with the margin at 0 the same skew moves some angles, so
        # the arbitration, not a lucky sine, is what keeps the bytes.
        want = _draw_angles(1729, "sato-tate", self.PRIMES).tolist()
        monkeypatch.setattr(numpy, "sin", skewed_sin(numpy.sin))
        monkeypatch.setattr(symlow.forms, "BISECTION_MARGIN", 0.0)
        got = _draw_angles(1729, "sato-tate", self.PRIMES).tolist()
        assert sum(a != b for a, b in zip(got, want)) > 100


class TestAlphaPairPower:
    def test_is_doubled_cosine(self):
        for theta in (0.0, 0.4, 1.3, 2.9, math.pi):
            for n in range(12):
                assert alpha_pair_power(theta, n) == 2.0 * math.cos(n * theta)

    def test_rejections(self):
        with pytest.raises(ValueError):
            alpha_pair_power(3.5, 1)
        with pytest.raises(ValueError):
            alpha_pair_power(1.0, -2)


class TestPowerSumRoutes:
    def test_routes_agree_on_random_sweep(self):
        rng = random.Random(1729)
        for _ in range(2000):
            theta = rng.uniform(0.0, math.pi)
            n = rng.randint(1, 12)
            r = rng.randint(1, 10)
            direct, ratio, cheb = satake_power_sum_routes(theta, n, r)
            spread = max(direct, ratio, cheb) - min(direct, ratio, cheb)
            assert spread < 1e-12 * (r + 1)

    def test_direct_route_matches_scipy(self):
        # The sum over the r+1 unit eigenvalues telescopes to the degree-r
        # sine ratio evaluated at n*theta.
        rng = random.Random(42)
        for _ in range(800):
            theta = rng.uniform(0.0, math.pi)
            n = rng.randint(1, 9)
            r = rng.randint(1, 8)
            direct = satake_power_sum(theta, n, r)
            oracle = float(eval_chebyu(r, math.cos(n * theta)))
            assert abs(direct - oracle) < 1e-12 * (r + 1)

    def test_degenerate_product_angle(self):
        # theta = pi/2, n = 2 puts the reduced angle exactly at pi; the
        # ratio route must snap to the signed limit and the direct cosine
        # sum is exact there.
        assert satake_power_sum(math.pi / 2, 2, 3) == -4.0
        assert satake_power_sum(math.pi / 2, 2, 4) == 5.0
        d, ra, ch = satake_power_sum_routes(math.pi / 2, 2, 5)
        assert d == -6.0 and ra == -6.0
        assert abs(ch - -6.0) < 1e-12

    def test_zero_angle(self):
        for r in range(1, 9):
            assert satake_power_sum(0.0, 3, r) == r + 1

    def test_disagreement_guard_raises(self, monkeypatch):
        # Sabotage the direct route; the three-way check must trip.
        monkeypatch.setattr(math, "fsum", lambda terms: 1e6)
        with pytest.raises(ArithmeticError):
            satake_power_sum_routes(1.0, 2, 3)

    def test_rejections(self):
        with pytest.raises(ValueError):
            satake_power_sum_routes(1.0, 0, 3)
        with pytest.raises(ValueError):
            satake_power_sum_routes(1.0, 2, 0)
        with pytest.raises(ValueError):
            satake_power_sum_routes(-1.0, 2, 3)


class TestGammaShifts:
    def test_frozen_small_cases(self):
        assert gamma_shifts(1, 12).shifts == (Fraction(11, 2), Fraction(13, 2))
        assert gamma_shifts(2, 12).shifts == (Fraction(1), Fraction(11), Fraction(12))
        assert gamma_shifts(2, 4).shifts == (Fraction(1), Fraction(3), Fraction(4))
        assert gamma_shifts(3, 6).shifts == (
            Fraction(5, 2),
            Fraction(7, 2),
            Fraction(15, 2),
            Fraction(17, 2),
        )
        assert gamma_shifts(4, 12).shifts == (
            Fraction(0),
            Fraction(11),
            Fraction(12),
            Fraction(22),
            Fraction(23),
        )

    def test_count_and_types(self):
        for r in range(1, 13):
            for kappa in (2, 4, 10, 12, 16):
                gs = gamma_shifts(r, kappa)
                assert len(gs.shifts) == r + 1
                assert all(isinstance(s, Fraction) for s in gs.shifts)
                assert all(s >= 0 for s in gs.shifts)

    def test_odd_rank_shifts_are_half_integers(self):
        # kappa even makes kappa-1 odd, so every odd-rank shift has exact
        # denominator 2.
        for r in (1, 3, 5, 7, 9):
            for kappa in (2, 4, 12):
                assert all(s.denominator == 2 for s in gamma_shifts(r, kappa).shifts)

    def test_even_rank_leading_parity_shift(self):
        for r in (2, 4, 6, 8):
            for kappa in (2, 4, 12, 16):
                lead = gamma_shifts(r, kappa).shifts[0]
                expected = 1 if (r * (kappa - 1) // 2) % 2 else 0
                assert lead == expected
                assert all(s.denominator == 1 for s in gamma_shifts(r, kappa).shifts)

    def test_rejections(self):
        with pytest.raises(ValueError):
            gamma_shifts(0, 12)
        with pytest.raises(ValueError):
            gamma_shifts(2, 11)
        with pytest.raises(ValueError):
            gamma_shifts(2, 0)
        with pytest.raises(ValueError):
            GammaShifts(r=2, kappa=12, shifts=(Fraction(1),))


def sign_oracle(r: int, kappa: int, eps_f: int) -> int:
    """Fourth-root exponent computed from first principles, reduced mod 4."""
    if r % 2 == 0:
        return 1
    h = (r + 1) // 2
    e = (h * h * (kappa - 1) + h) % 4
    assert e in (0, 2), "sign must be real"
    return eps_f * (1 if e == 0 else -1)


class TestRootNumber:
    def test_even_rank_always_plus_one(self):
        for r in (2, 4, 6, 10, 20):
            for kappa in (2, 12, 16):
                for eps in (-1, 1):
                    assert root_number(r, kappa, eps) == 1

    def test_odd_rank_matches_exponent_oracle(self):
        for r in range(1, 34, 2):
            for kappa in (2, 4, 6, 12, 16, 30):
                for eps in (-1, 1):
                    assert root_number(r, kappa, eps) == sign_oracle(r, kappa, eps)

    def test_frozen_pattern(self):
        # r mod 8 walks through i^kappa, -1, -i^kappa, +1.
        assert root_number(1, 12, 1) == 1
        assert root_number(1, 2, 1) == -1
        assert root_number(3, 12, 1) == -1
        assert root_number(5, 2, 1) == 1
        assert root_number(7, 12, 1) == 1
        assert root_number(3, 12, -1) == 1

    def test_rejections(self):
        with pytest.raises(ValueError):
            root_number(0, 12, 1)
        with pytest.raises(ValueError):
            root_number(2, 7, 1)
        with pytest.raises(ValueError):
            root_number(2, 12, 0)


def fejer_hat_oracle(nu: float, u: float, cutoff: float = 400.0) -> float:
    """Forward transform of the squared-sinc kernel by quadrature.

    Integrates 2*phi(x)cos(2 pi u x) over [0, cutoff] numerically, then adds
    the exact tail: with sin^2 opened into cosines, each piece of the tail
    is integral over [cutoff, inf) of cos(a x)/x^2, which equals
    cos(a*cutoff)/cutoff - a*(pi/2 - Si(a*cutoff)).
    """
    kernel = fejer_test_function(nu)
    head, _ = quad(
        lambda x: 2.0 * kernel.phi(x) * math.cos(2.0 * math.pi * u * x),
        0.0,
        cutoff,
        limit=2000,
    )

    def cos_over_square_tail(a: float) -> float:
        if a == 0.0:
            return 1.0 / cutoff
        si, _ = sici(a * cutoff)
        return math.cos(a * cutoff) / cutoff - a * (math.pi / 2.0 - si)

    tail = (
        cos_over_square_tail(2.0 * math.pi * u)
        - (
            cos_over_square_tail(2.0 * math.pi * (nu + u))
            + cos_over_square_tail(2.0 * math.pi * abs(nu - u))
        )
        / 2.0
    ) / (math.pi * math.pi * nu)
    return head + tail


class TestFejerKernel:
    def test_value_at_zero(self):
        assert fejer_test_function(1.0).phi(0.0) == 1.0
        assert fejer_test_function(Fraction(3, 2)).phi(0.0) == 1.5

    def test_transform_is_triangle(self):
        kernel = fejer_test_function(2.0)
        assert kernel.phi_hat(0.0) == 1.0
        assert kernel.phi_hat(1.0) == 0.5
        assert kernel.phi_hat(2.0) == 0.0
        assert kernel.phi_hat(3.7) == 0.0
        assert kernel.phi_hat(-1.0) == kernel.phi_hat(1.0)

    def test_kernel_zeros(self):
        # phi vanishes at the nonzero integer multiples of 1/nu.
        kernel = fejer_test_function(1.5)
        for k in (1, 2, 3, 7):
            assert abs(kernel.phi(k / 1.5)) < 1e-30

    def test_transform_against_forward_integral(self):
        for nu in (1.0, 1.5):
            kernel = fejer_test_function(nu)
            for frac in (0.0, 0.3, 0.7, 1.0, 1.5):
                u = frac * nu
                assert abs(kernel.phi_hat(u) - fejer_hat_oracle(nu, u)) < 1e-9

    def test_exact_support_radius(self):
        kernel = fejer_test_function(Fraction(82, 57))
        assert kernel.nu_exact == Fraction(82, 57)
        assert kernel.kind == "fejer"

    def test_rejections(self):
        with pytest.raises(ValueError):
            fejer_test_function(0)
        with pytest.raises(ValueError):
            fejer_test_function(-1.5)


class TestSampledKernel:
    def test_triangle_samples_reproduce_fejer(self):
        for nu in (1.0, Fraction(3, 2)):
            count = 9
            samples = [1.0 - i / (count - 1) for i in range(count)]
            sampled = sampled_test_function(nu, samples)
            fejer = fejer_test_function(nu)
            for x in (0.0, 0.07, 0.3, 1.0, 2.6, 7.1):
                assert abs(sampled.phi(x) - fejer.phi(x)) < 1e-9
            for u in (0.0, 0.2, 0.9, 1.4, 2.0):
                assert abs(sampled.phi_hat(u) - fejer.phi_hat(u)) < 1e-15

    def test_phi_against_quadrature(self):
        nu = 1.25
        samples = [1.0, 0.85, 0.55, 0.6, 0.2, 0.0]
        kernel = sampled_test_function(nu, samples)
        breaks = [i * nu / (len(samples) - 1) for i in range(len(samples))]
        for x in (0.0, 0.15, 0.9, 2.0, 5.3):
            oracle, err = quad(
                lambda u: 2.0 * kernel.phi_hat(u) * math.cos(2.0 * math.pi * x * u),
                0.0,
                nu,
                points=breaks,
                limit=200,
            )
            assert err < 1e-10
            assert abs(kernel.phi(x) - oracle) < 1e-10

    def test_phi_at_zero_is_trapezoid_mass(self):
        nu = 2.0
        samples = [1.0, 0.4, 0.7, 0.1]
        kernel = sampled_test_function(nu, samples)
        step = nu / (len(samples) - 1)
        mass = 2.0 * step * (sum(samples) - 0.5 * (samples[0] + samples[-1]))
        assert abs(kernel.phi(0.0) - mass) < 1e-12

    def test_transform_interpolation(self):
        nu = 1.0
        samples = [1.0, 0.6, 0.3, 0.0]
        kernel = sampled_test_function(nu, samples)
        step = nu / 3
        for i, v in enumerate(samples[:-1]):
            assert kernel.phi_hat(i * step) == pytest.approx(v, abs=1e-15)
            mid = (samples[i] + samples[i + 1]) / 2.0
            assert kernel.phi_hat((i + 0.5) * step) == pytest.approx(mid, abs=1e-15)
        assert kernel.phi_hat(1.0) == 0.0
        assert kernel.phi_hat(55.0) == 0.0
        assert kernel.phi_hat(-0.4) == kernel.phi_hat(0.4)

    def test_rejections(self):
        with pytest.raises(ValueError):
            sampled_test_function(1.0, [1.0])
        with pytest.raises(ValueError):
            sampled_test_function(0.0, [1.0, 0.0])


class TestSyntheticForm:
    def make(self, **overrides):
        params = dict(kappa=12, q=11, eps_f=1, seed=1729, distribution="sato-tate")
        params.update(overrides)
        return SyntheticForm(**params)

    def test_angles_deterministic_and_in_range(self):
        f, g = self.make(), self.make()
        for p in (2, 3, 5, 7, 13, 97, 7919):
            assert f.angle(p) == g.angle(p)
            assert 0.0 <= f.angle(p) <= math.pi

    def test_seed_changes_angles(self):
        assert self.make().angle(2) != self.make(seed=1730).angle(2)

    def test_distribution_changes_angles(self):
        assert self.make().angle(2) != self.make(distribution="uniform").angle(2)

    def test_flip_reflects_angles(self):
        f = self.make()
        g = f.flipped()
        for p in (2, 3, 5, 101):
            assert g.angle(p) == math.pi - f.angle(p)
        assert g.flipped() == f
        # Odd eigenvalue powers change sign, even ones do not.
        for p in (2, 3, 5):
            assert abs(g.eigenvalue(p, 1) + f.eigenvalue(p, 1)) < 1e-14
            assert abs(g.eigenvalue(p, 2) - f.eigenvalue(p, 2)) < 1e-13

    def test_eigenvalue_consistency(self):
        f = self.make()
        for p in (2, 7, 31):
            for n in (0, 1, 2, 5):
                assert f.eigenvalue(p, n) == eigenvalue_power(f.angle(p), n)

    def test_validation(self):
        with pytest.raises(ValueError):
            self.make(q=12)
        with pytest.raises(ValueError):
            self.make(q=1)
        with pytest.raises(ValueError):
            self.make(kappa=11)
        with pytest.raises(ValueError):
            self.make(kappa=0)
        with pytest.raises(ValueError):
            self.make(eps_f=0)
        with pytest.raises(ValueError):
            self.make(distribution="gue")
        f = self.make()
        with pytest.raises(ValueError):
            f.angle(11)  # the level prime
        with pytest.raises(ValueError):
            f.angle(15)

    def test_semicircle_moments(self):
        # First and second moments of the eigenvalue statistic over ~2e3
        # primes; the semicircle weight gives 0 and 1, the flat angle
        # measure gives 0 and 2.  The angles are read as one batch, which
        # equals angle(p) entry by entry (TestBatchedAngles).
        primes = numpy.array([int(p) for p in sympy.primerange(2, 20000) if p != 11])
        f = self.make()
        values = [eigenvalue_power(t, 1) for t in f._sieved_angles(primes).tolist()]
        assert abs(sum(values) / len(values)) < 0.05
        assert abs(sum(v * v for v in values) / len(values) - 1.0) < 0.05

        flat = self.make(distribution="uniform")
        flat_values = [eigenvalue_power(t, 1) for t in flat._sieved_angles(primes).tolist()]
        assert abs(sum(flat_values) / len(flat_values)) < 0.05
        assert abs(sum(v * v for v in flat_values) / len(flat_values) - 2.0) < 0.05

    def test_distributions_registry(self):
        assert set(DISTRIBUTIONS) == {"sato-tate", "uniform"}
