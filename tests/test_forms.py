"""Tests for the synthetic-form layer: seeded Satake angles, eigenvalue
powers, gamma shifts, and the two admissible test-function constructors:
the Fejer kernel of ``symlow.forms`` and the sampled transform of
``sampled_kernel``, a tests-only helper.  The three routes of the unit power
sum in ``oracles``, another tests-only helper, are checked here too.

Oracles used here: scipy's Chebyshev-U evaluator for the sine ratios, a
truncated forward Fourier integral with an exact sine-integral tail for
the Fejer transform pair, direct quadrature of the piecewise-linear
transform for sampled kernels, and the scalar formulas that the array kernels
in ``symlow.forms`` must reproduce bit for bit: ``scalar_angle``, the
per-prime draw and 64-step math.sin bisection; ``scalar_eigenvalue_power``,
the sine ratio one angle at a time; and ``scalar_fejer_hat`` and
``scalar_sampled_hat``, the two window transforms one point at a time
(``tests/test_explicit.py`` builds its per-prime sums from them too).
"""

import contextlib
import hashlib
import math
import random
import tracemalloc
from fractions import Fraction

import numpy
import pytest
import sympy
from hypothesis import given
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import eval_chebyu, sici

import symlow.forms
from symlow.constants import primes_up_to
from symlow.explicit import prime_cutoffs
from sampled_kernel import sampled_test_function
from test_constants import traced_peak
from symlow.forms import (
    DISTRIBUTIONS,
    SyntheticForm,
    _BLOCK,
    _HEAD_LEVELS,
    _MONOTONE_HI,
    _MONOTONE_LO,
    _angle_batch,
    _bisect_block,
    _blockwise,
    _draw_angles,
    _eigenvalue_powers,
    _head_table,
    _items,
    _libm,
    _sato_tate_inverse_cdf,
    _uniform_units,
    _units_from_digests,
    fejer_test_function,
    gamma_shifts,
    is_prime,
)
from oracles import satake_power_sum_routes


def chebu_at_angle(n: int, theta: float) -> float:
    """Independent route to sin((n+1)t)/sin(t) via scipy's recurrence."""
    return float(eval_chebyu(n, math.cos(theta)))


def scalar_cdf(t: float) -> float:
    """The Sato-Tate CDF (2t - sin 2t) / (2 pi) at t, with math.sin."""
    return (2.0 * t - math.sin(2.0 * t)) / (2.0 * math.pi)


def scalar_inverse_cdf(u: float) -> float:
    """Solve (2t - sin 2t) / (2 pi) = u by 64 halvings of [0, pi], one at a time."""
    lo, hi = 0.0, math.pi
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        if scalar_cdf(mid) < u:
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
    """_eigenvalue_powers, the eigenvalue kernel the prime sums run, against scipy."""

    def test_matches_scipy_chebyshev(self):
        theta = numpy.linspace(0.05, math.pi - 0.05, 41)
        for n in range(26):
            for t, got in zip(theta.tolist(), _eigenvalue_powers(theta, n).tolist()):
                assert abs(got - chebu_at_angle(n, t)) < 1e-10 * (n + 1)

    def test_endpoint_limits_exact(self):
        # Angles inside the snap window (1e-9 from either end) take the limit value too.
        theta = numpy.array([0.0, 1e-9, math.pi, math.pi - 1e-9])
        for n in range(40):
            limit = (-1) ** n * (n + 1)
            assert _eigenvalue_powers(theta, n).tolist() == [n + 1, n + 1, limit, limit]

    def test_zeroth_power_is_one(self):
        assert _eigenvalue_powers(numpy.array([0.0, 0.3, 1.1, math.pi]), 0).tolist() == [1.0] * 4

    @given(
        st.floats(min_value=1e-6, max_value=math.pi - 1e-6),
        st.integers(min_value=0, max_value=40),
    )
    def test_sharp_bound(self, theta, n):
        assert abs(_eigenvalue_powers(numpy.array([theta]), n)[0]) <= n + 1

    @given(
        st.floats(min_value=1e-4, max_value=math.pi - 1e-4),
        st.integers(min_value=0, max_value=30),
    )
    def test_agrees_with_scipy_generically(self, theta, n):
        got = _eigenvalue_powers(numpy.array([theta]), n)[0]
        assert abs(got - chebu_at_angle(n, theta)) < 1e-9 * (n + 1)


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


class TestChunkedItems:
    @pytest.mark.parametrize("size", [0, 1, _BLOCK - 1, _BLOCK, 2 * _BLOCK + 3])
    def test_equal_to_tolist_across_chunk_edges(self, size):
        ints = numpy.arange(size, dtype=numpy.int64) * 7919
        floats = numpy.sqrt(ints.astype(numpy.float64))
        for x in (ints, floats):
            got = list(_items(x))
            assert got == x.tolist()
            assert [type(v) for v in got[:1]] == [type(v) for v in x.tolist()[:1]]
            assert _libm(math.sin, x).tolist() == [math.sin(v) for v in x.tolist()]
            assert numpy.array_equal(_blockwise(numpy.negative, x), -x)
        assert math.fsum(_items(floats)) == math.fsum(floats.tolist())

    @pytest.mark.parametrize("size", [0, 1, _BLOCK, _BLOCK + 1])
    def test_libm_single_block_path_is_the_blocked_map(self, size):
        x = numpy.linspace(0.5, 40.0, size)
        for f in (math.cos, math.log):
            blocked = numpy.fromiter(map(f, _items(x)), numpy.float64, x.size)
            assert _libm(f, x).tobytes() == blocked.tobytes()


class TestVectorEigenvaluePower:
    """_eigenvalue_powers against the scalar oracle with ==."""

    def test_equals_scalar_on_edge_grid(self):
        grid = eigenvalue_grid()
        theta = numpy.array(grid)
        sines = [math.sin(t) for t in grid]
        assert any(s < 1e-8 for s in sines) and any(1e-8 <= s < 1.1e-8 for s in sines)
        clamped = 0
        for n in range(13):
            want = [scalar_eigenvalue_power(t, n) for t in grid]
            assert _eigenvalue_powers(theta, n).tolist() == want
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
            form = SyntheticForm(q=10007, seed=seed, distribution=distribution)
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
            form = SyntheticForm(q=11, seed=4242, distribution=distribution)
            for f in (form, form.flipped()):
                batch = f._sieved_angles(primes).tolist()
                assert [f.angle(p) for p in primes.tolist()] == batch

    def test_public_angle_beyond_int64(self):
        p = 2**64 + 13  # prime
        for distribution in DISTRIBUTIONS:
            form = SyntheticForm(q=11, seed=4242, distribution=distribution)
            assert form.angle(p) == scalar_angle(4242, distribution, p)

    def test_batches_are_cached_read_only(self):
        _angle_batch.cache_clear()
        primes = primes_up_to(500)
        form = SyntheticForm(q=11, seed=5, distribution="sato-tate")
        first = form._sieved_angles(primes)
        with pytest.raises(ValueError):
            first[0] = 0.0
        assert form._sieved_angles(primes) is first
        assert form.flipped()._sieved_angles(primes).tolist() == [math.pi - t for t in first]
        assert _angle_batch.cache_info().hits == 2

    def test_cached_batch_pins_only_its_angles(self, monkeypatch):
        # The cache key is the primes' count and digest, not a copy of them.
        # What a batch holds does not depend on its draws, so they are stubbed.
        primes = primes_up_to(16_000_000)
        assert primes.size > 10**6
        monkeypatch.setattr(symlow.forms, "_draw_angles", lambda s, d, p: numpy.zeros(p.size))
        form = SyntheticForm(q=11, seed=5, distribution="uniform")
        _angle_batch.cache_clear()
        tracemalloc.start()
        try:
            form._sieved_angles(primes)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
            _angle_batch.cache_clear()
        assert held <= 8 * primes.size + 1024


def scalar_midpoints(lo: float, hi: float, levels: int) -> list[float]:
    """The midpoints the scalar loop can reach from [lo, hi] in `levels` steps, in order."""
    if not levels:
        return []
    mid = 0.5 * (lo + hi)
    return scalar_midpoints(lo, mid, levels - 1) + [mid] + scalar_midpoints(mid, hi, levels - 1)


class TestHeadTableAndBlocks:
    """The looked-up first steps and the blocked bisection against the scalar loop, with ==."""

    def test_grid_is_the_loops_midpoints(self):
        grid, head = _head_table()
        assert grid.tolist() == [0.0, *scalar_midpoints(0.0, math.pi, _HEAD_LEVELS), math.pi]
        values = head.tolist()
        assert len(values) == 2**_HEAD_LEVELS - 1
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_table_values_and_their_neighbours(self):
        draws = [2.0**-65, 0.5, 1.0]
        for v in _head_table()[1][::64].tolist():
            draws += [float(numpy.nextafter(v, 0.0)), v, float(numpy.nextafter(v, 1.0))]
        got = _sato_tate_inverse_cdf(numpy.array(draws)).tolist()
        assert got == [scalar_inverse_cdf(u) for u in draws]

    def test_too_deep_a_table_is_refused(self, monkeypatch):
        # At 20 levels two midpoints near 0 round to the same F.
        monkeypatch.setattr(symlow.forms, "_HEAD_LEVELS", 20)
        _head_table.cache_clear()
        try:
            with pytest.raises(ArithmeticError, match="strictly increasing"):
                _head_table()
        finally:
            _head_table.cache_clear()

    def test_batches_across_block_edges(self):
        sizes = [0, 1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 5]
        primes = primes_up_to(300_000)[: max(sizes)]
        assert primes.size == max(sizes)
        draws = [scalar_draw(1729, p) for p in primes.tolist()]
        oracles = {"sato-tate": [scalar_inverse_cdf(u) for u in draws], "uniform": [u * math.pi for u in draws]}
        for distribution, want in oracles.items():
            for size in sizes:
                assert _draw_angles(1729, distribution, primes[:size]).tolist() == want[:size]


class TestUnitsFromDigests:
    """The digest-to-draw conversion against Python's (n + 0.5) / 2**64, with ==."""

    @staticmethod
    def check(words: numpy.ndarray) -> None:
        want = [(n + 0.5) / 2.0**64 for n in words.tolist()]
        assert _units_from_digests(words).tolist() == want
        assert _units_from_digests(words.astype(">u8")).tolist() == want

    def test_edges_and_ties(self):
        ns = [0, 1, 2**53 - 1, 2**53, 2**53 + 1, 2**64 - 1]
        for k in range(50, 64):
            # From 2**53 on, 2**(k - 53) is half an ulp: these are ties to even.
            ties = (1 << (k - 53), 3 << (k - 53)) if k >= 53 else ()
            ns += [(1 << k) + d for d in (-1, 0, 1, *ties)]
        self.check(numpy.array(ns, dtype=numpy.uint64))

    def test_random_digests(self):
        rng = numpy.random.default_rng(20240611)
        self.check(numpy.frombuffer(rng.bytes(8 * 10**5), ">u8"))


class TestBoundedWorkingSet:
    """At 2**18 draws, the hashing and the bisection hold their output and
    one block's working set, not a dozen full-length arrays."""

    N = 2**18

    def test_inverse_cdf(self):
        u = (numpy.arange(self.N) + 0.5) / self.N
        _head_table()  # built once per process, outside the count
        assert traced_peak(lambda: _sato_tate_inverse_cdf(u)) <= 8 * self.N + 2 * 2**20

    def test_uniform_units(self):
        primes = primes_up_to(4_000_000)[: self.N]
        assert primes.size == self.N
        assert traced_peak(lambda: _uniform_units(1729, primes)) <= 8 * self.N + 2 * 2**20


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


def bisected(u: numpy.ndarray) -> numpy.ndarray:
    """The loop on every entry: the blocked bisection, the certified root's one fallback."""
    return _blockwise(_bisect_block, u)


def floats_around(t: float, count: int) -> list[float]:
    """t and the `count` floats on each side of it."""
    below, above = [t], [t]
    for _ in range(count):
        below.append(math.nextafter(below[-1], -math.inf))
        above.append(math.nextafter(above[-1], math.inf))
    return below[:0:-1] + above


def draws_around(t: float, count: int) -> list[float]:
    """F at the floats around t, each with the draws just below and above it."""
    values = [scalar_cdf(s) for s in floats_around(t, count)]
    return [w for v in values for w in (math.nextafter(v, 0.0), v, math.nextafter(v, 1.0))]


# The points where the certified root's reach or the float spacing changes:
# the grid points around both ends of R (math.pi / 4 is grid point 1024, and
# grid point 3624 is the last at or below _MONOTONE_HI), the binade edges 1
# and 2, and _MONOTONE_HI itself.
REGION_EDGES = (*_head_table()[0][[1023, 1024, 1025, 3624, 3625]].tolist(), 1.0, 2.0, _MONOTONE_HI)


class TestCertifiedRoot:
    """The certified root against the loop, with ==: the blocked bisection on
    large sets and the scalar loop on the edges and a sample."""

    def test_region_is_where_the_grid_says(self):
        grid = _head_table()[0]
        assert grid[1024] == _MONOTONE_LO == math.pi / 4
        assert grid[3624] <= _MONOTONE_HI < grid[3625]
        assert _MONOTONE_HI < math.pi - math.asin(2.0**-1.5)

    def test_near_edge_draws(self):
        # The 2.4M draws of pterms --r 1 --kappa 12 --q 10007 --nu 19/10, seed 1729.
        primes = primes_up_to(prime_cutoffs(10007, 1, Fraction(19, 10))["first_power"])
        primes = primes[primes != 10007]
        assert primes.size > 2_400_000
        u = _uniform_units(1729, primes)
        assert numpy.array_equal(_sato_tate_inverse_cdf(u), bisected(u))

    def test_random_draws(self):
        u = 1.0 - numpy.random.default_rng(20261019).random(2**20)  # in (0, 1]
        got = _sato_tate_inverse_cdf(u)
        assert numpy.array_equal(got, bisected(u))
        sample = u[:: 2**10].tolist()
        assert got[:: 2**10].tolist() == [scalar_inverse_cdf(v) for v in sample]

    def test_region_ends_and_binade_edges(self):
        u = numpy.array([v for t in REGION_EDGES for v in draws_around(t, 100)])
        got = _sato_tate_inverse_cdf(u)
        assert numpy.array_equal(got, bisected(u))
        assert got.tolist() == [scalar_inverse_cdf(v) for v in u.tolist()]

    def test_fallback_share(self, monkeypatch):
        # The 78,577 draws of pterms --r 1 --kappa 12 --q 10007 --nu 3/2: at
        # most 15% may take the loop, so routing every draw back through it fails.
        primes = primes_up_to(ANGLE_LIMIT)
        primes = primes[primes != 10007]
        assert primes.size == 78_577
        looped = []

        def counted(u):
            looped.append(u.size)
            return _bisect_block(u)

        monkeypatch.setattr(symlow.forms, "_bisect_block", counted)
        _draw_angles(1729, "sato-tate", primes)
        assert 0 < sum(looped) <= 0.15 * primes.size


@contextlib.contextmanager
def skewed_math_sin():
    """Replace math.sin with one that errs by one ulp, up where the lowest
    mantissa bit of its argument is set and down where it is clear, so
    consecutive floats err in turn both ways.  A sine stays in [-1, 1], as
    past 1 its ulp doubles, out of the 2^-53 behind BISECTION_MARGIN and R.
    Deterministic, so the head table, the certified root and the loop all
    take the same sine; the head table is rebuilt under it and after it."""
    real_sin = math.sin

    def sin(x: float) -> float:
        up = int(x / math.ulp(x)) & 1  # x / ulp(x) is x's integer mantissa
        return max(-1.0, min(1.0, math.nextafter(real_sin(x), math.inf if up else -math.inf)))

    math.sin = sin
    _head_table.cache_clear()
    try:
        yield
    finally:
        math.sin = real_sin
        _head_table.cache_clear()


class TestRegionGuard:
    """Fault injection: under a one-ulp-off math.sin the certified root still
    equals the scalar loop, and only because it keeps to R."""

    # Draws below F(0.79), where F with such a sine can fall from one float
    # to the next, around the edges of R, and across (0, 1].
    DRAWS = numpy.concatenate(
        (
            numpy.random.default_rng(1729).uniform(2.0**-65, scalar_cdf(0.79), 5_000),
            [v for t in REGION_EDGES for v in draws_around(t, 100)],
            1.0 - numpy.random.default_rng(1742).random(1_000),
        )
    )

    @pytest.fixture(scope="class")
    def skewed_loop(self):
        with skewed_math_sin():
            return [scalar_inverse_cdf(u) for u in self.DRAWS.tolist()]

    def test_skewed_sine_keeps_every_angle(self, skewed_loop):
        with skewed_math_sin():
            assert _sato_tate_inverse_cdf(self.DRAWS).tolist() == skewed_loop

    def test_without_the_guard_the_skew_shows(self, skewed_loop, monkeypatch):
        # Control: with R widened to [0, pi] the same skew moves at least 1% of
        # the angles.  Newton may then divide by 1 - cos 0 = 0; it only proposes.
        monkeypatch.setattr(symlow.forms, "_MONOTONE_LO", 0.0)
        monkeypatch.setattr(symlow.forms, "_MONOTONE_HI", math.pi)
        with skewed_math_sin(), numpy.errstate(divide="ignore", invalid="ignore"):
            got = _sato_tate_inverse_cdf(self.DRAWS).tolist()
        assert sum(a != b for a, b in zip(got, skewed_loop)) >= len(skewed_loop) // 100


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
            direct = satake_power_sum_routes(theta, n, r)[0]
            oracle = float(eval_chebyu(r, math.cos(n * theta)))
            assert abs(direct - oracle) < 1e-12 * (r + 1)

    def test_degenerate_product_angle(self):
        # theta = pi/2, n = 2 puts the reduced angle exactly at pi; the
        # ratio route must snap to the signed limit and the direct cosine
        # sum is exact there.
        assert satake_power_sum_routes(math.pi / 2, 2, 3)[0] == -4.0
        assert satake_power_sum_routes(math.pi / 2, 2, 4)[0] == 5.0
        d, ra, ch = satake_power_sum_routes(math.pi / 2, 2, 5)
        assert d == -6.0 and ra == -6.0
        assert abs(ch - -6.0) < 1e-12

    def test_zero_angle(self):
        for r in range(1, 9):
            assert satake_power_sum_routes(0.0, 3, r)[0] == r + 1

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
        assert gamma_shifts(1, 12) == (Fraction(11, 2), Fraction(13, 2))
        assert gamma_shifts(2, 12) == (Fraction(1), Fraction(11), Fraction(12))
        assert gamma_shifts(2, 4) == (Fraction(1), Fraction(3), Fraction(4))
        assert gamma_shifts(3, 6) == (
            Fraction(5, 2),
            Fraction(7, 2),
            Fraction(15, 2),
            Fraction(17, 2),
        )
        assert gamma_shifts(4, 12) == (
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
                assert len(gs) == r + 1
                assert all(isinstance(s, Fraction) for s in gs)
                assert all(s >= 0 for s in gs)

    def test_odd_rank_shifts_are_half_integers(self):
        # kappa even makes kappa-1 odd, so every odd-rank shift has exact
        # denominator 2.
        for r in (1, 3, 5, 7, 9):
            for kappa in (2, 4, 12):
                assert all(s.denominator == 2 for s in gamma_shifts(r, kappa))

    def test_even_rank_leading_parity_shift(self):
        for r in (2, 4, 6, 8):
            for kappa in (2, 4, 12, 16):
                lead = gamma_shifts(r, kappa)[0]
                expected = 1 if (r * (kappa - 1) // 2) % 2 else 0
                assert lead == expected
                assert all(s.denominator == 1 for s in gamma_shifts(r, kappa))

    def test_rejections(self):
        with pytest.raises(ValueError):
            gamma_shifts(0, 12)
        with pytest.raises(ValueError):
            gamma_shifts(2, 11)
        with pytest.raises(ValueError):
            gamma_shifts(2, 0)


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
        params = dict(q=11, seed=1729, distribution="sato-tate")
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
        f_theta, g_theta = (numpy.array([h.angle(p) for p in (2, 3, 5)]) for h in (f, g))
        odd = _eigenvalue_powers(g_theta, 1) + _eigenvalue_powers(f_theta, 1)
        even = _eigenvalue_powers(g_theta, 2) - _eigenvalue_powers(f_theta, 2)
        assert numpy.all(numpy.abs(odd) < 1e-14)
        assert numpy.all(numpy.abs(even) < 1e-13)

    def test_validation(self):
        with pytest.raises(ValueError):
            self.make(q=12)
        with pytest.raises(ValueError):
            self.make(q=1)
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
        values = _eigenvalue_powers(f._sieved_angles(primes), 1).tolist()
        assert abs(sum(values) / len(values)) < 0.05
        assert abs(sum(v * v for v in values) / len(values) - 1.0) < 0.05

        flat = self.make(distribution="uniform")
        flat_values = _eigenvalue_powers(flat._sieved_angles(primes), 1).tolist()
        assert abs(sum(flat_values) / len(flat_values)) < 0.05
        assert abs(sum(v * v for v in flat_values) / len(flat_values) - 2.0) < 0.05

    def test_distributions_registry(self):
        assert set(DISTRIBUTIONS) == {"sato-tate", "uniform"}
