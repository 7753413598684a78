"""Tests for the trace-formula numerics: Kloosterman sums, Bessel J,
truncated diagonal terms with tail estimates, and the level-power old part.

Oracles: a complex-exponential brute-force Kloosterman evaluator, the
scalar per-unit loop the batched kernel must reproduce bit for bit, an exact
rational truncation of the Bessel power series, scipy's jv in the large-x
regime, and the integer q-expansion of the weight-12 discriminant product
for the tau cross-check.
"""

import cmath
import functools
import math
import tracemalloc
import warnings
from collections import Counter
from fractions import Fraction

import mpmath
import numpy
import pytest
import sympy
from scipy.special import jv

import symlow.petersson
from symlow.petersson import (
    BESSEL_ARGUMENT_GUARD,
    RAMANUJAN_TAU,
    PeterssonTerm,
    _bessel_miller,
    _bessel_series,
    _kloosterman_block,
    bessel_j,
    default_c_max,
    delta_tail_bound,
    kloosterman_sums,
    old_part_sum,
    old_part_terms,
    petersson_delta,
    petersson_deltas,
)
from oracles import divisor_count, weil_bound


def kloosterman_bruteforce(m: int, n: int, c: int) -> float:
    """Direct complex-exponential sum; asserts the imaginary part cancels."""
    if c == 1:
        return 1.0
    total = 0j
    for x in range(1, c):
        if math.gcd(x, c) != 1:
            continue
        xbar = pow(x, -1, c)
        total += cmath.exp(2j * math.pi * (m * x + n * xbar) / c)
    assert abs(total.imag) < 1e-9 * max(1.0, abs(total.real))
    return total.real


@functools.lru_cache(maxsize=1)
def units_and_inverses(c: int) -> list[tuple[int, int]]:
    """(x, pow(x, -1, c)) for every unit x mod c; the last modulus is kept."""
    return [(x, pow(x, -1, c)) for x in range(c) if math.gcd(x, c) == 1]


def unit_residues(m: int, n: int, c: int) -> list[int]:
    """(m x + n x^-1) mod c for every unit x mod c, one at a time."""
    mr, nr = m % c, n % c
    return [(mr * x + nr * xinv) % c for x, xinv in units_and_inverses(c)]


def kloosterman_scalar(m: int, n: int, c: int) -> float:
    """One modulus, one index: a cosine per unit, then fsum.

    The per-unit loop the residue-count kernel replaced; every cosine is the
    same double expression and fsum is exactly rounded, so the two must
    agree exactly.
    """
    two_pi_over_c = 2.0 * math.pi / c
    return math.fsum([math.cos(two_pi_over_c * k) for k in unit_residues(m, n, c)])


@functools.lru_cache(maxsize=1)
def prime_inverses(p: int) -> numpy.ndarray:
    """pow(x, -1, p) for x = 1 .. p-1; the last prime is kept."""
    return numpy.array([pow(x, -1, p) for x in range(1, p)])


def count_table_oracle(ms: list[int], n: int, p: int) -> numpy.ndarray:
    """N_p(k) = #{units x : m x + n x^-1 = k mod p} for each m, by enumeration."""
    units = numpy.arange(1, p)
    residues = [(m % p * units + n % p * prime_inverses(p)) % p for m in ms]
    return numpy.array([numpy.bincount(r, minlength=p) for r in residues])


@functools.lru_cache(maxsize=None)
def one_modulus_sum(m: int, c: int) -> float:
    """S(m, 1; c) from a block of one index and one modulus, kept across tests."""
    return kloosterman_sums([m], 1, c)[0]


def tau_coefficients(count: int) -> list[int]:
    """q-expansion of the discriminant form: x * prod_{j>=1} (1-x^j)^24.

    Exact integer polynomial arithmetic; returns [tau(1), ..., tau(count)].
    """
    # coefficients of prod (1 - x^j)^24 up to degree count-1
    poly = [0] * count
    poly[0] = 1
    for j in range(1, count):
        for _ in range(24):
            # multiply by (1 - x^j) in place
            for i in range(count - 1, j - 1, -1):
                poly[i] -= poly[i - j]
    return poly  # tau(n) = poly[n-1] after the shift by one power


class TestKloosterman:
    def test_matches_bruteforce(self):
        for c in range(1, 51):
            for m, n in ((1, 1), (2, 3), (0, 5), (7, 0), (25, 49)):
                got = kloosterman_sums([m], n, c)[0]
                want = kloosterman_bruteforce(m, n, c)
                assert abs(got - want) < 1e-9, (m, n, c)

    def test_bit_identical_to_scalar_loop(self):
        moduli = list(range(1, 1201)) + [2048, 2187, 3960, 3989, 4000]
        ms = [0, 1, 2, 997, 10**6]
        split = None  # a sum with m n != 0 and a multiplicity of two or more set bits
        for c in moduli:
            for n in (1, 0, 5, -3):
                batch = kloosterman_sums(ms, n, c)
                for m, shared in zip(ms, batch):
                    want = kloosterman_scalar(m, n, c)
                    assert kloosterman_sums([m], n, c) == [want], (m, n, c)
                    assert shared == want, (m, n, c)
                    if split is None and m * n and any(
                        v & (v - 1) for v in Counter(unit_residues(m, n, c)).values()
                    ):
                        split = (m, n, c)
        assert split is not None, "no multiplicity in the grid needs the bit split"

    def test_one_index_route_matches_its_row_in_a_batch(self):
        # One index takes its own route from its row's nonzero residues; over
        # every modulus a 4000-modulus sweep reaches, it must give the double
        # that the many-index route gives the same m.  Each sweep keeps its
        # own dict of count tables, as petersson_deltas does.
        singles: dict[int, dict] = {971: {}, 1019: {}}
        shared: dict = {}
        for c in range(1, 4001):
            batch = kloosterman_sums([971, 1019, 2], 1, c, shared)
            for m, row in zip((971, 1019), batch):
                assert kloosterman_sums([m], 1, c, singles[m]) == [row], (m, c)

    def test_odd_prime_count_tables_match_enumeration(self):
        for p in [*sympy.primerange(3, 2001), sympy.prevprime(2**20)]:
            ms = [0, 1, 2, p - 1, p + 3, 10**6]
            for n in (1, 5, -3):
                got = symlow.petersson._count_table(ms, n, p, p)
                assert numpy.array_equal(got, count_table_oracle(ms, n, p)), (p, n)

    def test_batch_keeps_order_and_duplicates(self):
        ms = [7, 3, 7, 0, 3 + 97]
        assert kloosterman_sums(ms, 2, 97) == [kloosterman_sums([m], 2, 97)[0] for m in ms]
        assert kloosterman_sums([], 1, 12) == []
        assert kloosterman_sums([5, 9], 4, 1) == [1.0, 1.0]

    def test_chunks_match_single_calls(self, monkeypatch):
        # Chunks of 4, 3 and then 1 row of the 11 indices, sharing one dict of
        # count tables per modulus.
        monkeypatch.setattr(symlow.petersson, "COUNT_ENTRIES", 50)
        ms = [0, 1, 2, 7, 3, 7, 997, 10**6, 12, 13, 25]
        for c in (12, 16, 30, 97, 360):
            tables: dict = {}
            for n in (1, 0, 5, -3):
                chunked = kloosterman_sums(ms, n, c, tables)
                assert chunked == [kloosterman_sums([m], n, c)[0] for m in ms], (n, c)

    def test_grid_sums_exact_near_the_modulus_limit(self):
        # c = 2**31 - 1 is prime, so every row of weights sums to phi(c) =
        # 2**31 - 2, the most the many-index route can meet.  The cosines run
        # from +-1 down to 2**-60 with full mantissas.  The heavy rows put all
        # their weight on eight cosines in [0.5, 1), so their partial sums
        # reach about 2**50.6 units of the grid 2**-20, close to the bound.
        c = 2**31 - 1
        phi = c - 1
        rng = numpy.random.default_rng(26)
        cosines = numpy.concatenate([
            [1.0, -1.0, 1.0 - 2.0**-53, -(1.0 - 2.0**-52)],
            rng.uniform(0.5, 1.0, 8),
            rng.choice([-1.0, 1.0], 60) * rng.uniform(0.5, 1.0, 60) * 2.0 ** -numpy.arange(60),
        ])
        spread = numpy.full(cosines.size, 1 / cosines.size)
        heavy = numpy.zeros(cosines.size)
        heavy[4:12] = 1 / 8
        weights = numpy.array([rng.multinomial(phi, p) for p in [spread] * 20 + [heavy] * 20])
        want = []
        for row in weights.tolist():
            terms = []
            for w, cosine in zip(row, cosines.tolist()):
                while w:  # one term per set bit of the weight
                    low = w & -w
                    terms.append(cosine * low)
                    w -= low
            want.append(math.fsum(terms))
        tracemalloc.start()
        try:
            got = symlow.petersson._grid_sums(weights, cosines, c.bit_length(), [0, cosines.size])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got == want
        assert peak < 2**16  # nothing c-long: 8 bytes a residue would be 16 GiB

    def test_many_index_sums_do_not_rest_on_the_residue_order(self, monkeypatch):
        # The grid product sums exactly, so the residues may come in any order,
        # for one modulus and for a block of three.
        grid_sums = symlow.petersson._grid_sums
        rng = numpy.random.default_rng(26)
        ms = [0, 1, 2, 7, 997, 10**6]
        cases = [(c, n) for c in (12, 97, 360, 1000, 3960, 4001) for n in (1, -3)]
        want = [kloosterman_sums(ms, n, c) for c, n in cases]
        blocks = [_kloosterman_block(ms, n, [12, 97, 360], {}) for n in (1, -3)]
        for order in (lambda k: k[::-1], rng.permutation):
            def permuted(weights, cosines, bits, bounds, order=order):
                # within each modulus's segment, so no residue changes modulus
                segments = zip(bounds, bounds[1:])
                perm = numpy.concatenate([lo + order(numpy.arange(hi - lo)) for lo, hi in segments])
                return grid_sums(weights[:, perm], cosines[perm], bits, bounds)

            monkeypatch.setattr(symlow.petersson, "_grid_sums", permuted)
            assert [kloosterman_sums(ms, n, c) for c, n in cases] == want
            assert [_kloosterman_block(ms, n, [12, 97, 360], {}) for n in (1, -3)] == blocks

    def test_peak_memory_bounded_in_the_indices(self):
        # 180 indices at a modulus near 4000 hold about 38 MiB in one count
        # matrix; chunked, the peak is that of 65 rows, about 13 MiB.
        kloosterman_sums([1], 1, 97)  # first-call state, outside the count
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            kloosterman_sums(range(1, 181), 1, 4001)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20

    def test_modulus_guard_precedes_allocation(self, monkeypatch):
        # Without numpy in reach, any array built before the guard would
        # fail with something other than ValueError.
        monkeypatch.setattr(symlow.petersson, "np", None)
        with pytest.raises(ValueError, match="2\\*\\*31"):
            kloosterman_sums([1, 2], 1, 2**31)
        with pytest.raises(ValueError, match="2\\*\\*31"):
            petersson_deltas([1], 1, 12, 2**31)

    def test_frozen_values(self):
        assert kloosterman_sums([1], 1, 1)[0] == 1.0
        assert abs(kloosterman_sums([1], 1, 2)[0] - 1.0) < 1e-12
        assert abs(kloosterman_sums([1], 1, 3)[0] + 1.0) < 1e-12
        assert abs(kloosterman_sums([1], 1, 6)[0] + 1.0) < 1e-12
        assert abs(kloosterman_sums([2], 2, 3)[0] + 1.0) < 1e-12

    def test_trivial_modulus(self):
        assert kloosterman_sums([123], -456, 1)[0] == 1.0

    def test_symmetry(self):
        for c in (5, 12, 35, 97):
            for m, n in ((1, 4), (2, 9), (3, 11)):
                assert abs(kloosterman_sums([m], n, c)[0] - kloosterman_sums([n], m, c)[0]) < 1e-10

    def test_totient_bound(self):
        for c in range(1, 80):
            phi = int(sympy.totient(c))
            for m, n in ((1, 1), (3, 7)):
                assert abs(kloosterman_sums([m], n, c)[0]) <= phi + 1e-9

    def test_twisted_multiplicativity(self):
        # S(m,n;c1*c2) factors through inverse-twisted sums on each part.
        cases = [(1, 1, 2, 3), (1, 1, 3, 4), (2, 5, 5, 7), (1, 3, 8, 9)]
        for m, n, c1, c2 in cases:
            c1_bar = pow(c1, -1, c2)
            c2_bar = pow(c2, -1, c1)
            left = kloosterman_sums([m], n, c1 * c2)[0]
            right = (
                kloosterman_sums([m * c2_bar], n * c2_bar, c1)[0]
                * kloosterman_sums([m * c1_bar], n * c1_bar, c2)[0]
            )
            assert abs(left - right) < 1e-9, (m, n, c1, c2)

    def test_twisted_multiplicativity_every_composite(self):
        # Second route to S(m, 1; c) for every composite c <= 4000 that is not
        # a prime power: c = c1 * c2 with c1 the full power of c's least
        # prime, and S(m, 1; c) = S(m c2', c2'; c1) * S(m c1', c1'; c2) with
        # c2' = c2^-1 mod c1 and c1' = c1^-1 mod c2.
        #
        # Rounding model for a computed sum s at modulus c: each cosine's
        # argument fl(fl(2 pi / c) * k) lies in [0, 2 pi) after three relative
        # roundings (2 pi, the quotient, the product), so it is within 6 pi u
        # of 2 pi k / c; math.cos is within 1 ulp (<= u on [-1, 1]); so each
        # of the < c terms is within 20 u, taken as 32 u, and math.fsum
        # rounds once: |s - S| <= u (32 c + |s|).  The product's radius
        # propagates both factors' radii and adds its own rounding.
        u = 2.0**-53

        def radius(s, c):
            return u * (32 * c + abs(s))

        ms = [0, 1, 2, 997]
        worst = 0.0
        for c in range(6, 4001):
            p = next((d for d in range(2, math.isqrt(c) + 1) if c % d == 0), c)
            c1 = p
            while c % (c1 * p) == 0:
                c1 *= p
            c2 = c // c1
            if c2 == 1:
                continue
            c1_bar, c2_bar = pow(c1, -1, c2), pow(c2, -1, c1)
            direct = kloosterman_sums(ms, 1, c)
            first = kloosterman_sums([m * c2_bar for m in ms], c2_bar, c1)
            second = kloosterman_sums([m * c1_bar for m in ms], c1_bar, c2)
            for m, s, a, b in zip(ms, direct, first, second):
                ra, rb = radius(a, c1), radius(b, c2)
                bound = ra * abs(b) + (abs(a) + ra) * rb + u * abs(a * b) + radius(s, c)
                assert abs(a * b - s) <= bound, (m, c, c1, c2, a * b - s, bound)
                worst = max(worst, abs(a * b - s))
        assert worst > 0.0  # the sweep compared rounded sums, not only exact ones

    def test_ramanujan_sums(self):
        # n = 0 degenerates to a Ramanujan sum with its divisor formula.
        for m in (1, 2, 6):
            for c in (2, 3, 4, 9, 12, 30):
                want = sum(
                    d * sympy.mobius(c // d) for d in sympy.divisors(math.gcd(m, c))
                )
                assert abs(kloosterman_sums([m], 0, c)[0] - want) < 1e-9

    def test_weil_bound_helper(self):
        for c in range(1, 300):
            for m, n in ((1, 1), (4, 6), (12, 18)):
                assert abs(kloosterman_sums([m], n, c)[0]) <= weil_bound(m, n, c) + 1e-9

    def test_divisor_count(self):
        for c in (1, 2, 12, 60, 97, 1024):
            assert divisor_count(c) == len(sympy.divisors(c))

    def test_rejections(self):
        with pytest.raises(ValueError):
            kloosterman_sums([1], 1, 0)
        with pytest.raises(ValueError):
            divisor_count(0)


def bessel_series_scalar(order: int, x: float) -> float:
    """The power series of J_order at one x, one Python float at a time.

    The scalar loop the array kernel replaced: first term (x/2)^order /
    order!, then the ratio recurrence up to the first term below 1e-18 of
    the largest, then math.fsum.  The kernel must give each entry this
    double exactly.
    """
    half = 0.5 * x
    if order <= 170:
        term = half**order / math.factorial(order)
    else:
        logt = order * math.log(half) - math.lgamma(order + 1) if half > 0.0 else -math.inf
        term = math.exp(logt) if logt > -745.0 else 0.0
    if term == 0.0:
        return 0.0
    terms = [term]
    largest = abs(term)
    hh = half * half
    for t in range(1, 200):
        term *= -hh / (t * (order + t))
        terms.append(term)
        largest = max(largest, abs(term))
        if abs(term) < 1e-18 * largest:
            break
    return math.fsum(terms)


def bessel_series_oracle(order: int, x: Fraction, terms: int = 50) -> float:
    """Exact-rational truncation of the ascending series for J_order."""
    half = x / 2
    total = Fraction(0)
    power = half**order
    for t in range(terms):
        term = (
            (-1) ** t
            * power
            * half ** (2 * t)
            / (math.factorial(t) * math.factorial(t + order))
        )
        total += term
    return float(total)


class TestBesselJ:
    def test_exact_rational_series_oracle(self):
        for order in range(16):
            for x in (Fraction(1, 10), Fraction(1), Fraction(5, 2), Fraction(5)):
                got = bessel_j(order, float(x))
                want = bessel_series_oracle(order, x)
                assert abs(got - want) < 1e-12, (order, x)

    def test_frozen_values(self):
        assert abs(bessel_j(1, 1.0) - 0.44005058574493355) < 1e-14
        assert abs(bessel_j(0, 14.0) - 0.17107347611045862) < 1e-13
        assert abs(bessel_j(0, 20.0) - 0.16702466434058315) < 1e-13

    def test_zero_argument(self):
        assert bessel_j(0, 0.0) == 1.0
        for order in (1, 2, 11):
            assert bessel_j(order, 0.0) == 0.0

    def test_small_argument_leading_term(self):
        x = 1e-2
        lead = (x / 2) ** 11 / math.factorial(11)
        assert abs(bessel_j(11, x) / lead - 1.0) < 1e-5

    def test_against_scipy_large_arguments(self):
        for order in (0, 1, 5, 11, 15, 40):
            x = 14.5
            while x < 10**4:
                got = bessel_j(order, x)
                want = float(jv(order, x))
                assert abs(got - want) <= 1e-10 * max(1.0, abs(want)) + 1e-13, (order, x)
                x *= 2.7

    def test_route_crossover_consistency(self):
        # Order 1 leaves the series at x = min(1 + 10, 14) = 11: x = 10 takes
        # the series and 12 and 13.9 Miller's recurrence, each against scipy.
        for x in (10.0, 12.0, 13.9):
            assert abs(bessel_j(1, x) - float(jv(1, x))) < 1e-11

    def test_series_against_miller_where_both_apply(self):
        # Below the series cap of 14 both routes converge, so each referees
        # the other, within the 1e-10 that bessel_j claims, as an absolute gap.
        xs = numpy.arange(1, 141) / 10
        for order in range(41):
            for x, series in zip(xs.tolist(), _bessel_series(order, xs).tolist()):
                gap = abs(series - _bessel_miller(order, x))
                assert gap <= 1e-10, (order, x, gap)

    def test_series_kernel_equals_the_scalar_loop(self):
        # Every entry is the scalar loop's double, across two chunks of the
        # kernel: at 0, at 1e-300 (whose leading term underflows from order 2
        # on, and whose next term does at order 0 and 1), on a grid up to 14,
        # and on both sides of both switch points, order + 10 and 14.
        grid = [0.0, 5e-324, 1e-300, 1e-10, *(numpy.arange(1, 141) / 10).tolist()]
        for order in [*range(41), 171]:
            edges = [order + 10.0, 14.0]
            xs = grid + [numpy.nextafter(e, d) for e in edges for d in (0.0, math.inf)] + edges
            got = _bessel_series(order, numpy.array(xs)).tolist()
            assert got == [bessel_series_scalar(order, x) for x in xs], order
        assert symlow.petersson._SERIES_CHUNK < len(xs)

    def test_magnitude_bound(self):
        for order in (0, 3, 12):
            for x in (0.5, 7.7, 153.2, 9999.0):
                assert abs(bessel_j(order, x)) <= 1.0

    def test_rejections(self):
        with pytest.raises(ValueError):
            bessel_j(-1, 1.0)
        with pytest.raises(ValueError):
            bessel_j(2, -0.5)
        with pytest.raises(ValueError):
            bessel_j(2, 2e6)


class TestTauOracle:
    def test_oracle_reproduces_known_leading_values(self):
        tau = tau_coefficients(12)
        assert tau[0] == 1
        assert tau[1] == -24
        assert tau[2] == 252
        assert tau[3] == -1472
        assert tau[4] == 4830
        assert tau[5] == -6048

    def test_hecke_relations(self):
        tau = tau_coefficients(13)
        # multiplicativity and the p^2 relation at p = 2, 3
        assert tau[5] == tau[1] * tau[2]  # tau(6) = tau(2) tau(3)
        assert tau[3] == tau[1] ** 2 - 2**11  # tau(4)
        assert tau[8] == tau[2] ** 2 - 3**11  # tau(9)
        assert tau[11] == tau[2] * tau[3]  # tau(12) = tau(3) tau(4)

    def test_frozen_table_matches_oracle(self):
        tau = tau_coefficients(11)
        for m, value in RAMANUJAN_TAU.items():
            assert tau[m - 1] == value, m


class TestPeterssonDelta:
    def test_diagonal_enters_once(self):
        # Subtracting the hand-built c-sum must leave exactly the m=1
        # diagonal; m=2 has no diagonal at all.
        for m, diagonal in ((1, 1.0), (2, 0.0)):
            term = petersson_delta(m, 1, 12, 500)
            hand = 2.0 * math.pi * math.fsum(
                kloosterman_sums([m], 1, c)[0] / c * bessel_j(11, 4 * math.pi * math.sqrt(m) / c)
                for c in range(1, 501)
            )
            assert abs(term.value - hand - diagonal) < 1e-13, m
            assert term.c_max == 500

    def test_truncation_stability(self):
        a = petersson_delta(1, 1, 12, 1000).value
        b = petersson_delta(1, 1, 12, 2000).value
        assert abs(a - b) < 1e-12
        assert abs(a - 2.8402873751674607) < 1e-12

    def test_tail_monotone_and_halving(self):
        tails = [delta_tail_bound(1, 12, c) for c in (100, 200, 400, 800)]
        assert tails == sorted(tails, reverse=True)
        # at weight 12 the bound decays much faster than 2x per doubling
        assert tails[1] <= tails[0] / 2
        assert petersson_delta(1, 1, 12, 100).tail_estimate == tails[0]

    def test_tail_bound_past_the_double_range(self):
        # At kappa = 200 the prefactor (2 pi sqrt m)^199 / 199! overflows a
        # double for m = 10^6, and c_max^{1-s} underflows one at kappa = 150,
        # yet the bound is finite: the same formula at 40 digits.
        def oracle(m, kappa, c_max):
            with mpmath.workdps(40):
                s = mpmath.mpf(kappa) - mpmath.mpf(1) / 2
                zeta = mpmath.zeta(mpmath.mpf(3) / 2)
                prefactor = 2 * mpmath.pi * (2 * mpmath.pi * mpmath.sqrt(m)) ** (kappa - 1)
                bracket = 1 + zeta + (1 + mpmath.log(c_max) + zeta) / (s - 1)
                return float(prefactor / mpmath.factorial(kappa - 1) * c_max ** (1 - s) * bracket)

        for m, kappa, c_max in ((10**6, 200, 1000), (10**6, 150, 1000), (1, 12, 100), (997, 12, 4000)):
            assert delta_tail_bound(m, kappa, c_max) == pytest.approx(
                oracle(m, kappa, c_max), rel=1e-12
            ), (m, kappa, c_max)
        assert 1.27e-211 < delta_tail_bound(10**6, 200, 1000) < 1.28e-211

    def test_tail_bound_beyond_the_double_range_is_an_error(self):
        with pytest.raises(ValueError, match="beyond the double range"):
            delta_tail_bound(10**8, 200, 1)

    def test_warns_inside_nonrigorous_window(self):
        m = 9
        threshold = 4 * math.pi * math.sqrt(m)  # ~37.7
        with pytest.warns(UserWarning):
            petersson_delta(m, 1, 12, int(threshold))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            petersson_delta(m, 1, 12, int(threshold) + 1)

    def test_divisibility_constraint_thins_sum(self):
        # k = 2 keeps only even moduli; recompute by hand from the parts.
        c_max = 200
        by_hand = math.fsum(
            kloosterman_sums([3], 1, c)[0] / c * bessel_j(11, 4 * math.pi * math.sqrt(3) / c)
            for c in range(2, c_max + 1, 2)
        )
        want = 2 * math.pi * (-1) ** 6 * by_hand
        got = petersson_delta(3, 2, 12, c_max)
        assert abs(got.value - want) < 1e-14

    def test_tau_ratio_small_m(self):
        base = petersson_delta(1, 1, 12, 600)
        for m in (2, 3):
            term = petersson_delta(m, 1, 12, 600)
            ratio = term.value / base.value
            target = RAMANUJAN_TAU[m] / m**5.5
            budget = max(1e-6, term.tail_estimate + base.tail_estimate)
            assert abs(ratio - target) < budget, m

    def test_default_c_max(self):
        assert default_c_max(1) == 1000
        big = default_c_max(10**4)
        assert big == max(1000, math.ceil(8 * math.pi * 100))
        term = petersson_delta(2, 1, 12)
        assert term.c_max == 1000

    def test_rejections(self):
        with pytest.raises(ValueError):
            petersson_delta(0, 1, 12, 100)
        with pytest.raises(ValueError):
            petersson_delta(1, 0, 12, 100)
        with pytest.raises(ValueError):
            petersson_delta(1, 1, 11, 100)
        with pytest.raises(ValueError):
            petersson_delta(1, 5, 12, 4)  # c_max below k
        with pytest.raises(ValueError):
            PeterssonTerm(m=1, k=1, kappa=12, value=1.0, tail_estimate=-0.1, c_max=10)


class TestPeterssonDeltas:
    def test_mixed_default_cutoffs_match_single_calls(self):
        ms = [2, 4000, 3]
        assert [default_c_max(m) for m in ms] == [1000, 1590, 1000]
        batch = petersson_deltas(ms, 1, 12)
        assert batch == [petersson_delta(m, 1, 12) for m in ms]
        assert [t.c_max for t in batch] == [1000, 1590, 1000]

    def test_divisibility_thinning_matches_single_calls(self):
        ms = [3, 7, 1, 3]
        batch = petersson_deltas(ms, 2, 12, 200)
        assert batch == [petersson_delta(m, 2, 12, 200) for m in ms]

    def test_one_warning_per_untruncated_index(self):
        # At c_max = 100 only m = 100 (root 125.7) and m = 400 (root 251.3)
        # sit inside the non-rigorous window.
        ms = [9, 100, 2, 400]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            batch = petersson_deltas(ms, 1, 12, 100)
        assert len(caught) == 2
        assert "=125.7;" in str(caught[0].message)
        assert "=251.3;" in str(caught[1].message)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert batch == [petersson_delta(m, 1, 12, 100) for m in ms]

    def test_rejects_index_below_one_anywhere(self):
        for ms in ([0, 2], [2, 0], [2, 3, -1]):
            with pytest.raises(ValueError):
                petersson_deltas(ms, 1, 12, 100)

    def test_bessel_argument_refused_before_the_sweep(self, monkeypatch):
        # 4 pi sqrt(10^11) is about 4.0e6, past bessel_j's 1e6 at c = 1: the
        # refusal comes before any Kloosterman sum and before any warning.
        def work(*args):
            raise AssertionError("the refused sweep started its work")

        monkeypatch.setattr(symlow.petersson, "_kloosterman_block", work)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="exceeds the supported range"):
                petersson_deltas([2, 10**11], 1, 2, 10)

    def test_empty_batch(self):
        assert petersson_deltas([], 1, 12) == []

    @pytest.mark.parametrize("entries", [2**11, 9200])
    def test_small_blocks_match_one_modulus_sums(self, entries, monkeypatch):
        # With at most 2**11 count entries a block, a one-index sweep over
        # 4000 moduli runs in blocks of two or more moduli up to c = 1023 and
        # alone after; the mixed cutoffs 1000, 1590, 1000 drop two live rows
        # at c = 1000.  At 9200 entries the three-row block [999, 1000] could
        # take c = 1001 too, and the live rows' change cuts it there.
        sweeps = [([971], 4000), ([2, 4000, 3], None)]
        want = [[petersson_delta(m, 1, 12, c_max) for m in ms] for ms, c_max in sweeps]
        blocks = []

        def recorded(ms, n, cs, tables):
            sums = _kloosterman_block(ms, n, cs, tables)
            blocks.append((list(ms), list(cs), sums))
            return sums

        monkeypatch.setattr(symlow.petersson, "_BLOCK", entries)
        monkeypatch.setattr(symlow.petersson, "_kloosterman_block", recorded)
        got = [petersson_deltas(ms, 1, 12, c_max) for ms, c_max in sweeps]
        monkeypatch.setattr(symlow.petersson, "_kloosterman_block", _kloosterman_block)
        assert got == want
        assert sum(len(cs) > 1 for _, cs, _ in blocks) > 100
        cut = next(cs for ms, cs, _ in blocks if ms == [2, 4000, 3] and cs[-1] == 1000)
        if entries == 9200:
            assert cut == [999, 1000] and 3 * (sum(cut) + 1001) <= entries
        for ms, cs, sums in blocks:
            assert len(ms) * sum(cs) <= entries or len(cs) == 1, (ms, cs)
            assert sums == [one_modulus_sum(m, c) for m in ms for c in cs], (ms, cs)

    def test_ten_indices_match_single_calls(self):
        # The sweep shares its count tables across indices and moduli.
        batch = petersson_deltas(range(1, 11), 1, 12, 1000)
        assert batch == [petersson_delta(m, 1, 12, 1000) for m in range(1, 11)]

    @pytest.mark.parametrize(
        "compute",
        [
            lambda: petersson_delta(997, 1, 12, 4000),
            lambda: petersson_deltas(range(1, 11), 1, 12, 1000),
        ],
        ids=["deep", "sweep"],
    )
    def test_peak_memory(self, compute):
        # A sweep keeps count tables only for prime powers q <= c_max / 8.
        petersson_delta(2, 1, 12, 20)  # first-call state, outside the count
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            compute()
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * 2**20


class TestOldPart:
    def test_single_term_below_level(self):
        # ell_max below q truncates to the lone ell = 1 term.
        terms = old_part_terms(2, 1, 11, 12, ell_max=10, c_max=300)
        assert len(terms) == 1
        ell, term = terms[0]
        assert ell == 1
        assert term.m == 2
        direct = old_part_sum(old_part_terms(2, 1, 11, 12, ell_max=10, c_max=300))
        assert direct == term.value

    def test_level_power_ladder(self):
        # The top rung's index 1458 sits past the rigorous-tail window at
        # c_max=300, so the truncation warning is part of the contract here.
        with pytest.warns(UserWarning):
            terms = old_part_terms(2, 1, 3, 12, ell_max=30, c_max=300)
        assert [ell for ell, _ in terms] == [1, 3, 9, 27]
        assert [t.m for _, t in terms] == [2, 18, 162, 1458]

    def test_sum_is_weighted_ladder(self):
        terms = old_part_terms(2, 2, 11, 12, ell_max=11, c_max=400)
        want = math.fsum(t.value / ell for ell, t in terms)
        got = old_part_sum(old_part_terms(2, 2, 11, 12, ell_max=11, c_max=400))
        assert got == want

    def test_bound_with_tails(self):
        for p, k in ((2, 1), (3, 2)):
            terms = old_part_terms(p, k, 11, 12, ell_max=11, c_max=500)
            value = old_part_sum(old_part_terms(p, k, 11, 12, ell_max=11, c_max=500))
            budget = 2 * (k + 1) + math.fsum(t.tail_estimate / ell for ell, t in terms)
            assert abs(value) <= budget

    def test_ladder_increment_bound(self):
        # Appending the ell = q rung moves the sum by at most (1/q) times
        # the diagonal bound for the induced index, plus tails.
        p, k, q = 2, 1, 11
        short = old_part_sum(old_part_terms(p, k, q, 12, ell_max=1, c_max=400))
        longer = old_part_sum(old_part_terms(p, k, q, 12, ell_max=q, c_max=400))
        induced_k = divisor_count(p**k * q * q) - 1
        rung = old_part_terms(p, k, q, 12, ell_max=q, c_max=400)[-1][1]
        assert abs(longer - short) <= (2 * (induced_k + 1) + rung.tail_estimate) / q

    def test_guard_warning(self):
        # p^k * ell_max^2 pushes the Bessel argument past the guard.
        ell_max = int(math.sqrt(BESSEL_ARGUMENT_GUARD)) * 11
        with pytest.warns(UserWarning):
            old_part_terms(2, 1, 11, 12, ell_max=ell_max, c_max=50)

    def test_rejections(self):
        with pytest.raises(ValueError):
            old_part_terms(4, 1, 11, 12, ell_max=1, c_max=100)  # composite p
        with pytest.raises(ValueError):
            old_part_terms(2, 1, 10, 12, ell_max=1, c_max=100)  # composite q
        with pytest.raises(ValueError):
            old_part_terms(11, 1, 11, 12, ell_max=1, c_max=100)  # p == q
        with pytest.raises(ValueError):
            old_part_terms(2, 0, 11, 12, ell_max=1, c_max=100)
        with pytest.raises(ValueError):
            old_part_terms(2, 1, 11, 12, ell_max=0, c_max=100)
