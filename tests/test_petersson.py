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
from symlow.forms import _factorization
from symlow.petersson import (
    BESSEL_ARGUMENT_GUARD,
    RAMANUJAN_TAU,
    PeterssonTerm,
    _bessel_miller,
    _bessel_series,
    _count_table,
    _divisor_sum_tail,
    _kloosterman_block,
    _log_hyperbola_tail,
    _settled,
    _settled_at,
    bessel_j,
    default_c_max,
    delta_tail_bound,
    kloosterman_sums,
    old_part_sum,
    old_part_terms,
    petersson_delta,
    petersson_deltas,
)
from oracles import divisor_count, full_sweep_value, tail_bound_settled_at, two_bound_settled_at, weil_bound


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
        # own dict of count tables to c = 4000, as petersson_deltas does.
        singles: dict[int, dict] = {971: {}, 1019: {}}
        shared: dict = {}
        for c in range(1, 4001):
            batch = _kloosterman_block([971, 1019, 2], 1, [c], shared, 4000)
            for m, row in zip((971, 1019), batch):
                assert _kloosterman_block([m], 1, [c], singles[m], 4000) == [row], (m, c)

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
        # Chunks of 4, 3 and then 1 row of the 11 indices.  Each chunk keeps
        # its tables (c + q <= 2 c keeps every one) in a dict of its own, so
        # the caller's dict, passed for four values of n, stays empty.
        monkeypatch.setattr(symlow.petersson, "COUNT_ENTRIES", 50)
        ms = [0, 1, 2, 7, 3, 7, 997, 10**6, 12, 13, 25]
        for c in (12, 16, 30, 97, 360):
            tables: dict = {}
            for n in (1, 0, 5, -3):
                chunked = _kloosterman_block(ms, n, [c], tables, 2 * c)
                assert chunked == [kloosterman_sums([m], n, c)[0] for m in ms], (n, c)
            assert tables == {}, c

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
        assert len(weights) > symlow.petersson._GRID_ROWS  # rows in several chunks

    def test_grid_sums_row_chunks(self, monkeypatch):
        # 60 rows over segments of 5, 40, 1 and 30 columns, in chunks of
        # _GRID_ROWS (16) rows, of one row, and of all 60: every (row,
        # segment) sum is the exactly rounded sum of its products.
        rng = numpy.random.default_rng(33)
        bounds = [0, 5, 45, 46, 76]
        cosines = numpy.cos(rng.uniform(0.0, 2.0 * math.pi, 76)) * 2.0 ** -rng.integers(0, 40, 76)
        weights = rng.integers(0, 51, (60, 76)).astype(float)  # a segment sums to 2000 at most
        exact = [Fraction(cosine) for cosine in cosines.tolist()]
        want = [
            float(sum(Fraction(w) * cosine for w, cosine in zip(row[lo:hi], exact[lo:hi])))
            for row in weights.tolist()
            for lo, hi in zip(bounds, bounds[1:])
        ]
        assert len(weights) > symlow.petersson._GRID_ROWS > 1
        for rows in (symlow.petersson._GRID_ROWS, 1, len(weights)):
            monkeypatch.setattr(symlow.petersson, "_GRID_ROWS", rows)
            assert symlow.petersson._grid_sums(weights, cosines, 11, bounds) == want, rows

    def test_many_index_sums_do_not_rest_on_the_residue_order(self, monkeypatch):
        # The grid product sums exactly, so the residues may come in any order,
        # for one modulus and for a block of three.
        grid_sums = symlow.petersson._grid_sums
        rng = numpy.random.default_rng(26)
        ms = [0, 1, 2, 7, 997, 10**6]
        cases = [(c, n) for c in (12, 97, 360, 1000, 3960, 4001) for n in (1, -3)]
        want = [kloosterman_sums(ms, n, c) for c, n in cases]
        blocks = [_kloosterman_block(ms, n, [12, 97, 360], {}, 360) for n in (1, -3)]
        for order in (lambda k: k[::-1], rng.permutation):
            def permuted(weights, cosines, bits, bounds, order=order):
                # within each modulus's segment, so no residue changes modulus
                segments = zip(bounds, bounds[1:])
                perm = numpy.concatenate([lo + order(numpy.arange(hi - lo)) for lo, hi in segments])
                return grid_sums(weights[:, perm], cosines[perm], bits, bounds)

            monkeypatch.setattr(symlow.petersson, "_grid_sums", permuted)
            assert [kloosterman_sums(ms, n, c) for c, n in cases] == want
            assert [_kloosterman_block(ms, n, [12, 97, 360], {}, 360) for n in (1, -3)] == blocks

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
        # The term is the oracle's [m = 1] diagonal plus its hand-built
        # c-sum, to the bit; m=2 has no diagonal at all.
        for m in (1, 2):
            term = petersson_delta(m, 1, 12, 500)
            assert term.value == full_sweep_value(m, 1, 12, 500), m
            assert term.c_max == 500

    def test_truncation_stability(self):
        # The sweep to 1000 certifies its stop at c = 127; the oracle sums
        # every modulus to 2000, each alone, with no stop at all.
        a = petersson_delta(1, 1, 12, 1000).value
        b = full_sweep_value(1, 1, 12, 2000)
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

    def test_hyperbola_tail_bound_above_the_exact_tail(self):
        # tau from an integer sieve to N = 10^6: each d <= 1000 counts the
        # factorizations n = d e with e >= d, twice where e > d.  The divisor
        # tail past X is at most its terms on (X, N], summed from n = N down
        # (relative error below 1e-9), plus the bound of _divisor_sum_tail at
        # N; the hyperbola bound stays above that for every X <= 10^4, by 8%
        # at least.
        top = 10**6
        tau = numpy.zeros(top + 1, dtype=numpy.int64)
        for d in range(1, math.isqrt(top) + 1):
            tau[d * d :: d] += 2
            tau[d * d] -= 1
        assert tau[1:13].tolist() == [divisor_count(n) for n in range(1, 13)]
        n = numpy.arange(1, top + 1, dtype=numpy.float64)
        for s in (2.5, 3.5, 5.5, 11.5, 15.5, 23.5):
            power, bracket = _divisor_sum_tail(top, s)
            past = numpy.cumsum((tau[1:] * n**-s)[::-1])[::-1].tolist()  # past[x]: n > x
            for x in range(1, 10**4 + 1):
                exact = past[x] + power * bracket
                assert math.exp(_log_hyperbola_tail(x, s)) > exact * (1.0 + 1e-9), (s, x)

    def test_warns_inside_nonrigorous_window(self):
        m = 9
        threshold = 4 * math.pi * math.sqrt(m)  # ~37.7
        with pytest.warns(UserWarning):
            petersson_delta(m, 1, 12, int(threshold))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            petersson_delta(m, 1, 12, int(threshold) + 1)

    def test_divisibility_constraint_thins_sum(self):
        # k = 2 keeps only even moduli: the oracle over even c, not over all c.
        got = petersson_delta(3, 2, 12, 200)
        assert got.value == full_sweep_value(3, 2, 12, 200)
        assert got.value != full_sweep_value(3, 1, 12, 200)

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


def counted_pairs(monkeypatch) -> list[int]:
    """A list to which every later _kloosterman_block call of a sweep appends
    its number of (index, modulus) pairs."""
    pairs = []

    def counted(ms, n, cs, tables, last):
        pairs.append(len(ms) * len(cs))
        return _kloosterman_block(ms, n, cs, tables, last)

    monkeypatch.setattr(symlow.petersson, "_kloosterman_block", counted)
    return pairs


def stopping_moduli(monkeypatch) -> dict[int, int]:
    """A dict in which every later _kloosterman_block call of a sweep sets
    each of its indices to its last modulus: where each index stops."""
    last = {}

    def recorded(ms, n, cs, tables, top):
        last.update(dict.fromkeys(ms, cs[-1]))
        return _kloosterman_block(ms, n, cs, tables, top)

    monkeypatch.setattr(symlow.petersson, "_kloosterman_block", recorded)
    return last


def counted_passes(monkeypatch, log: list) -> list:
    """log, to which every later _bessel_series call of a sweep appends its
    number of series entries."""

    def counted(order, x):
        log.append(x.size)
        return _bessel_series(order, x)

    monkeypatch.setattr(symlow.petersson, "_bessel_series", counted)
    return log


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
        # With at most `entries` count entries a block past its first
        # _BLOCK_MODULI (16) moduli, and at most COUNT_ENTRIES within them,
        # a one-index sweep over 4000 moduli runs in blocks of 16 moduli or
        # more until it certifies; the mixed cutoffs 1000, 1590, 1000 drop
        # two live rows at c = 1000, none of the three settling before, and
        # that change cuts the three-row block ending there below 16 moduli.
        # A certification cuts a block as well: m = 2 settles long before
        # its cutoff, and m = 1201 goes on alone from the next modulus.
        #
        # J comes in look-ahead passes, which events records among the blocks
        # (a block as its indices, a pass as its number of series entries).
        # At 2**11 entries the pair's pass at c = 63 takes both rows to
        # c = 126, 128 entries; m = 2 settles at c = 94, and 1201 reads its
        # row for two blocks more.  At 9200 the pair's one block ends at
        # c = 95, where m = 2 settles.
        sweeps = [([971], 4000), ([1201, 4000, 1301], None), ([2, 1201], 1000)]
        want = [[petersson_delta(m, 1, 12, c_max) for m in ms] for ms, c_max in sweeps]
        blocks, events = [], []

        def recorded(ms, n, cs, tables, last):
            sums = _kloosterman_block(ms, n, cs, tables, last)
            blocks.append((list(ms), list(cs), sums))
            events.append(list(ms))
            return sums

        monkeypatch.setattr(symlow.petersson, "_BLOCK", entries)
        monkeypatch.setattr(symlow.petersson, "_kloosterman_block", recorded)
        counted_passes(monkeypatch, events)
        got = [petersson_deltas(ms, 1, 12, c_max) for ms, c_max in sweeps]
        monkeypatch.setattr(symlow.petersson, "_kloosterman_block", _kloosterman_block)
        assert got == want
        pair_sweep = events[events.index([2, 1201]):]
        passes = [i for i, event in enumerate(pair_sweep) if isinstance(event, int)]
        split = pair_sweep.index([1201])
        if entries == 2**11:
            assert len(passes) == 9
            before = max(i for i in passes if i < split)
            after = min(i for i in passes if i > split)
            assert pair_sweep[before] == 128 and pair_sweep[before + 1:split] == [[2, 1201]]
            assert pair_sweep[split:after] == [[1201]] * 2
        else:
            assert len(passes) == 9 and pair_sweep[:split + 1] == [[2, 1201], 158, [1201]]
        floor, entries_cap = symlow.petersson._BLOCK_MODULI, symlow.petersson.COUNT_ENTRIES
        assert sum(len(cs) > 1 for _, cs, _ in blocks) > 100
        assert sum(len(cs) >= floor and len(ms) * sum(cs) > entries for ms, cs, _ in blocks) > 100
        cut = next(cs for ms, cs, _ in blocks if ms == [1201, 4000, 1301] and cs[-1] == 1000)
        assert len(cut) < floor and 3 * (sum(cut) + 1001) <= entries_cap
        assert cut == list(range(997 if entries == 2**11 else 990, 1001))
        pair = [cs for ms, cs, _ in blocks if ms == [2, 1201]]
        alone = [cs for ms, cs, _ in blocks if ms == [1201]]
        assert alone[0][0] == pair[-1][-1] + 1 < 1000 and alone[-1][-1] == 1000
        assert max(cs[-1] for ms, cs, _ in blocks if ms == [971]) < 4000
        for ms, cs, sums in blocks:
            within = len(ms) * sum(cs) <= (entries_cap if len(cs) <= floor else entries)
            assert within or len(cs) == 1, (ms, cs)
            assert sums == [one_modulus_sum(m, c) for m in ms for c in cs], (ms, cs)

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("kappa", [10, 12, 16])
    def test_early_stop_gives_the_full_sweep(self, k, kappa, monkeypatch):
        # Every term is the double of the sum over every modulus to its
        # cutoff, whether its index settles first or not.  At c_max = 60 the
        # indices 30 and 100 are inside 4 pi sqrt(m) (68.8 and 125.7), where
        # no certificate is taken.
        ms, cutoffs = [1, 2, 7, 30, 100], (60, 400)
        want = [[full_sweep_value(m, k, kappa, c_max) for m in ms] for c_max in cutoffs]
        pairs = counted_pairs(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            got = [petersson_deltas(ms, k, kappa, c_max) for c_max in cutoffs]
        assert [[term.value for term in terms] for terms in got] == want
        assert [[term.c_max for term in terms] for terms in got] == [[c_max] * len(ms) for c_max in cutoffs]
        assert sum(pairs) < len(ms) * sum(c_max // k for c_max in cutoffs)  # some index did stop early

    def test_early_stop_where_the_tail_bound_underflows(self, monkeypatch):
        # At weight 200 the tail bound is below the least normal double from
        # the first modulus past 4 pi sqrt(m) on; the sweep still stops there.
        ms = [1, 2, 30]
        want = [full_sweep_value(m, 1, 200, 300) for m in ms]
        assert delta_tail_bound(30, 200, 69) == 0.0
        pairs = counted_pairs(monkeypatch)
        assert [term.value for term in petersson_deltas(ms, 1, 200, 300)] == want
        assert sum(pairs) < 300

    def test_where_the_certified_stops_come(self, monkeypatch):
        # With the hyperbola bound m = 971 stops at c = 1882 and m = 1013 at
        # c = 2234 of 4000, and the ten-index tau sweep settles its last
        # index at c = 200 of 1000; delta_tail_bound alone stops them at
        # 2170, 2570 and 234.
        last = stopping_moduli(monkeypatch)
        petersson_deltas([971], 1, 12, 4000)
        petersson_deltas([1013], 1, 12, 4000)
        assert last[971] <= 1900 and last[1013] <= 2250
        last.clear()
        petersson_deltas(range(1, 11), 1, 12, 1000)
        assert sorted(last) == list(range(1, 11)) and max(last.values()) <= 210

    def test_no_index_stops_later_than_with_the_tail_bound_alone(self, monkeypatch):
        # test_early_stop_gives_the_full_sweep's grid and its kappa = 200
        # case, and eight indices to 600 at the weights where
        # delta_tail_bound / 2 pi can be the smaller bound (24, 50, 100) and
        # at 2 and 4, swept under three certificates: delta_tail_bound
        # alone, the smaller of it and the hyperbola bound, and the sweep's
        # own hyperbola bound.  The same values everywhere; every index
        # stops where the two-bound certificate stops it, and at the same
        # modulus as with delta_tail_bound alone or before.
        grid = [(k, kappa, c_max) for k in (1, 2, 3) for kappa in (10, 12, 16) for c_max in (60, 400)]
        sweeps = [([1, 2, 7, 30, 100], *point) for point in grid] + [([1, 2, 30], 1, 200, 300)]
        sweeps += [([1, 2, 3, 5, 7, 10, 30, 97], k, kappa, 600) for k in (1, 2) for kappa in (2, 4, 24, 50, 100)]
        last = stopping_moduli(monkeypatch)
        runs = []
        for certificate in (tail_bound_settled_at, two_bound_settled_at, _settled_at):
            monkeypatch.setattr(symlow.petersson, "_settled_at", certificate)
            for ms, k, kappa, c_max in sweeps:
                last.clear()
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    runs.append(([term.value for term in petersson_deltas(ms, k, kappa, c_max)], dict(last)))
        alone, both, own = (runs[i * len(sweeps):(i + 1) * len(sweeps)] for i in range(3))
        assert [values for values, _ in own] == [values for values, _ in alone]
        assert own == both
        for (_, before), (_, after), sweep in zip(alone, own, sweeps):
            assert all(after[m] <= before[m] for m in sweep[0]), sweep
        assert any(after != before for (_, before), (_, after) in zip(alone, own))

    def test_work_guard(self, monkeypatch):
        # The ten-index tau sweep to 1000 settles every index by c = 200: it
        # sums 1472 of its 10000 (index, modulus) pairs, at most 2500.
        pairs = counted_pairs(monkeypatch)
        petersson_deltas(range(1, 11), 1, 12, 1000)
        assert sum(pairs) <= 2500

    def test_blocks_and_count_tables_work_guard(self, monkeypatch):
        # Blocks of at least 16 moduli: the one-index sweep to its certified
        # stop at c = 1882 takes 102 blocks (235 with a block budget of 8192
        # entries alone).  Each prime power's count table is built once, even
        # as the ten-index tau sweep's indices leave: 319 builds for the
        # one-index sweep and 60 for the tau sweep (1139 and 275 to the
        # stops of delta_tail_bound alone when tables were kept only from
        # c = 8 q on).
        pairs = counted_pairs(monkeypatch)
        builds = []

        def counted(ms, n, q, p):
            builds.append(q)
            return _count_table(ms, n, q, p)

        monkeypatch.setattr(symlow.petersson, "_count_table", counted)
        petersson_deltas([971], 1, 12, 4000)
        assert len(pairs) <= 150
        assert len(builds) <= 400
        assert len(set(builds)) == len(builds)
        del builds[:]
        petersson_deltas(range(1, 11), 1, 12, 1000)
        assert len(builds) <= 250
        assert len(set(builds)) == len(builds)

    def test_kept_count_tables_are_exact(self, monkeypatch):
        # Every table a sweep keeps holds _count_table's int64 counts for the
        # call's rows and n, also after the ten-index sweep's tables drop the
        # rows of leaving indices.  A table is built in the narrowest unsigned
        # type for its largest count, and keeps that type as rows leave.  At
        # q = 2**16 with m = n = 1 the largest count is 256, which one byte
        # would wrap to 0.
        calls = []  # (ms, n, the dict after the call, its keys before)

        def recorded(ms, n, cs, tables, last):
            before = set(tables)
            sums = _kloosterman_block(ms, n, cs, tables, last)
            calls.append((list(ms), n, dict(tables), before))
            return sums

        monkeypatch.setattr(symlow.petersson, "_kloosterman_block", recorded)
        petersson_deltas([971], 1, 12, 4000)
        petersson_deltas(range(1, 11), 2, 12, 1000)
        monkeypatch.setattr(symlow.petersson, "_kloosterman_block", _kloosterman_block)
        assert sum(len(tables.keys() - before) for _, _, tables, before in calls) > 300
        assert any(1 < len(ms) < 10 for ms, *_ in calls)  # indices left the tau sweep
        kept: dict = {}
        _kloosterman_block([1], 1, [2**16], kept, 2**17)
        assert kept[2**16].max() == 256
        calls.append(([1], 1, kept, set()))
        for ms, n, tables, before in calls:
            for q, table in tables.items():
                want = _count_table(ms, n, q, min(_factorization(q)))
                assert table.dtype.kind == "u" and numpy.array_equal(table, want), (q, n, ms)
                if q not in before:
                    assert table.dtype == numpy.min_scalar_type(want.max()), (q, n, ms)

    def test_chunked_blocks_keep_no_table(self, monkeypatch):
        # With 50 count entries, every block of the ten-index tau sweep from
        # c = 6 on is one modulus, cut into chunks of 50 // c rows while more
        # rows than that are live, as its indices settle and leave.  Each
        # chunk gets a dict of its own, so the sweep's dict gains no table
        # from a chunked block, and every table in it has one row per live
        # index.
        want = [petersson_delta(m, 1, 12, 1000) for m in range(1, 11)]
        outer = []  # the sweep's dict while its block runs
        chunked = []  # the number of live indices of each chunked block

        def recorded(ms, n, cs, tables, last):
            if outer:  # a chunk of the block that runs
                assert tables is not outer[0]
                return _kloosterman_block(ms, n, cs, tables, last)
            outer.append(tables)
            before = set(tables)
            sums = _kloosterman_block(ms, n, cs, tables, last)
            outer.pop()
            if len(ms) > max(1, symlow.petersson.COUNT_ENTRIES // sum(cs)):
                chunked.append(len(ms))
                assert set(tables) == before, cs
            assert all(table.shape[0] == len(ms) for table in tables.values()), cs
            return sums

        monkeypatch.setattr(symlow.petersson, "COUNT_ENTRIES", 50)
        monkeypatch.setattr(symlow.petersson, "_kloosterman_block", recorded)
        assert petersson_deltas(range(1, 11), 1, 12, 1000) == want
        assert len(chunked) > 100 and chunked[0] == 10 and 1 < len(set(chunked))

    def test_look_ahead_passes(self, monkeypatch):
        # One series pass a block would be 318 for m = 971 over the 4000
        # moduli it declares.  A look-ahead pass takes 128 entries or more,
        # so the one-index sweep, certified at c = 1882, makes 15 (at most
        # 25), and the ten-index tau sweep 10, no more than its 11 blocks.
        want = [petersson_delta(m, 1, 12, 1000) for m in range(1, 11)]
        passes = counted_passes(monkeypatch, [])
        petersson_deltas([971], 1, 12, 4000)
        deep = len(passes)
        sweep = petersson_deltas(range(1, 11), 1, 12, 1000)
        assert deep <= 25
        assert len(passes) - deep <= 20
        assert sweep == want

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
        # A sweep keeps a count table while a later modulus can read it
        # (q <= c_max / 2), in its narrowest unsigned type: one byte a count
        # at every odd prime not dividing n.
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


class TestCertificate:
    """_settled against planted partial sums at and near rounding boundaries."""

    def test_a_tie_never_settles(self):
        # 1 + 2^-53 is the midpoint of 1.0 and its upper neighbour.
        for tail in (0.0, 2.0**-1074, 2.0**-60, 1.0):
            assert not _settled([1.0, 2.0**-53], tail), tail

    def test_the_half_gap_above_is_strict(self):
        assert not _settled([1.0, 2.0**-54], 2.0**-54)
        assert _settled([1.0, 2.0**-54], 2.0**-55)

    def test_the_gap_toward_zero_is_halved_at_a_power_of_two(self):
        # Below 1.0 the neighbour is 1 - 2^-53, so the half gap is 2^-54 there
        # against 2^-53 above: the same radius settles upward only.
        assert not _settled([1.0, -(2.0**-55)], 2.0**-55)
        assert _settled([1.0, 2.0**-55], 2.0**-55)
        assert _settled([1.0, -(2.0**-55)], 2.0**-56)
        assert not _settled([-1.0, 2.0**-55], 2.0**-55)
        assert _settled([-1.0, -(2.0**-55)], 2.0**-55)

    def test_zero_never_settles(self):
        for parts in ([], [1.0, -1.0]):
            assert not _settled(parts, 0.0)

    def test_a_sweep_at_a_tie_goes_on(self):
        # At c = 10^6 the tail bound of m = 2 is far below an ulp of 1, yet a
        # partial sum at a tie does not stop; below 4 pi sqrt(2) = 17.8 no
        # partial sum stops.
        root = 4.0 * math.pi * math.sqrt(2)
        assert delta_tail_bound(2, 12, 10**6) < 2.0**-150
        assert not _settled_at(2, 12, 10**6, root, [1.0, 2.0**-53])
        assert _settled_at(2, 12, 10**6, root, [1.0, 2.0**-60])
        assert not _settled_at(2, 12, 17, root, [1.0])


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
