"""Tests for the lower-order constants: sieve helpers, the prime-counting
integral constant, the even-power prime constant, digamma, the archimedean
constants, and the support-radius bound.

The prime-counting oracle below integrates (theta(t) - t)/t^2 segment by
segment at 50 digits, which shares no code with the partial-summation route
under test.  The even-power oracle sums the Moebius-inverted prime-zeta
series with mpmath's zeta and zeta' at 40 digits, with no sieve.
"""

import dataclasses
import functools
import hashlib
import math
import tracemalloc
from fractions import Fraction

import mpmath
import numpy
import pytest
import sympy

import symlow.constants
from symlow.forms import _BLOCK
from symlow.constants import (
    ConstantsBundle,
    SIEVE_CAP_ENV,
    c_gamma,
    c_pnt,
    _even_denominator,
    _even_leaf,
    _log_quotients,
    _pairwise_sums,
    _prime_table,
    _series_coefficient,
    c_sym_even,
    c_sym_even_completed,
    compute_constants,
    digamma,
    nu_max,
    primes_up_to,
    zeta,
    zeta_prime,
)
from oracles import c_gamma_from_shifts

EULER_GAMMA = 0.5772156649015329


def pnt_segment_oracle(limit: int) -> float:
    """1 + int_1^limit (theta(t) - t)/t^2 dt by exact piecewise integration.

    theta is constant between consecutive primes, so on each segment [a, b)
    the integrand contributes theta0*(1/a - 1/b) - log(b/a) exactly.
    """
    with mpmath.workdps(50):
        breaks = [1] + [int(p) for p in sympy.primerange(2, limit + 1)] + [limit]
        theta0 = mpmath.mpf(0)
        total = mpmath.mpf(0)
        for a, b in zip(breaks, breaks[1:]):
            if a > 1:
                theta0 += mpmath.log(a)
            if b > a:
                total += theta0 * (mpmath.mpf(1) / a - mpmath.mpf(1) / b)
                total -= mpmath.log(mpmath.mpf(b) / a)
        # the endpoint prime enters theta at t = limit with measure zero
        return float(1 + total)


@functools.lru_cache(maxsize=None)
def even_square_oracle() -> float:
    """C = sum_p log p / (p^{3/2} - p) at 40 digits.

    C = sum_{k>=3} P(k/2) with P(s) = sum_p log p p^{-s}, and Moebius
    inversion of -zeta'/zeta(s) = sum_{j>=1} P(js) gives
    C = sum_{t>=3} a_t (-zeta'/zeta)(t/2), a_t = sum_{k | t, k >= 3} mu(t/k).
    The terms fall like 2^{-t/2}, so t < 200 leaves a tail below 1e-29.
    """
    with mpmath.workdps(40):
        total = mpmath.mpf(0)
        for t in range(3, 200):
            a = sum(sympy.mobius(t // k) for k in sympy.divisors(t) if k >= 3)
            if a:
                s = mpmath.mpf(t) / 2
                total += a * (-mpmath.zeta(s, derivative=1) / mpmath.zeta(s))
        return float(total)


def eratosthenes(n: int) -> numpy.ndarray:
    """Primes <= n from a full-length mask, one slot per integer."""
    mask = numpy.ones(n + 1, dtype=bool)
    mask[:2] = False
    for p in range(2, math.isqrt(n) + 1):
        if mask[p]:
            mask[p * p :: p] = False
    return numpy.flatnonzero(mask)


def traced_peak(compute) -> int:
    """Bytes above the live baseline at the peak of compute(), per tracemalloc."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        compute()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


# pi(10**7) and pi(10**8); the memory guards below budget in units of their arrays.
PI_1E7 = 664_579
PI_1E8 = 5_761_455


class TestSieve:
    def test_matches_oracle_at_every_small_bound(self):
        for n in range(2001):
            assert primes_up_to(n).tolist() == eratosthenes(n).tolist(), n

    @pytest.mark.parametrize("k", [4, 5, 6, 7])
    def test_matches_oracle_around_powers_of_ten(self, k):
        for n in (10**k - 1, 10**k, 10**k + 1):
            assert numpy.array_equal(primes_up_to(n), eratosthenes(n)), n

    @pytest.mark.parametrize("n", [0, 2, 3, 10**4])
    def test_int64_and_contiguous(self, n):
        primes = primes_up_to(n)
        assert primes.dtype == numpy.int64
        assert primes.flags.c_contiguous

    def test_sieve_memory_is_half_mask_plus_primes(self):
        n = 10**7
        assert primes_up_to(n).size == PI_1E7
        budget = (n + 1) // 2 + 8 * PI_1E7
        assert traced_peak(lambda: primes_up_to(n)) <= 1.05 * budget

    def test_constants_memory_is_int32_primes_and_leaf_buffers(self):
        # The table's int32 primes, which the sieve writes into an output
        # sized by the Rosser-Schoenfeld bound, 4 bytes a slot.  Beside them
        # at most 4 MiB: the sieve's segment buffers while it runs (under
        # 3.5 MiB, see the cap sieve's test below), then one leaf's float64
        # arrays at a time, a few _BLOCK entries each.  No array holds a
        # float64 per prime (44 MiB at the cap).
        n = 10**8
        budget = 4 * (math.floor(1.25506 * n / math.log(n)) + 1) + 4 * 2**20
        assert traced_peak(lambda: compute_constants(2, 12, n)) <= 1.05 * budget

    def test_matches_oracle_across_many_segments(self, monkeypatch):
        # 64 odd numbers a segment: up to 24 segments, each boundary and the
        # pattern's first segment, with the wheel primes restored, at every n.
        monkeypatch.setattr(symlow.constants, "_SEGMENT", 64)
        for n in range(3001):
            assert primes_up_to(n).tolist() == eratosthenes(n).tolist(), n

    def test_cap_sieve_keeps_its_bytes(self):
        primes = primes_up_to(10**8)
        assert primes.size == 5_761_455
        assert primes[-1] == 99_999_989
        # Recorded from the unsegmented odd-only sieve.
        assert hashlib.sha256(primes.tobytes()).hexdigest() == (
            "a7eead5377c738f5ecdd62fd01a0cedbcecee527cbf31739d4ecc1f3fae07766"
        )

    def test_cap_sieve_memory_is_output_plus_segment_buffers(self):
        """At n = 10**8 the peak is the output and segment-sized buffers only.

        The output is sized by the Rosser-Schoenfeld bound,
        8 (floor(1.25506 n / ln n) + 1) bytes.  Beside it, at most 4 MiB:
        - the flags of one segment, 2**20 bytes: 1 MiB;
        - the wheel pattern, 2**20 + 15015 bytes: under 1.02 MiB;
        - one segment's prime indices, 8 bytes each, freed before the next
          segment's: a segment covers 2**21 integers, and below 10**8 none
          holds more primes than the first, pi(2**21) = 155,611 (checked
          here), so under 1.19 MiB;
        - the 1,223 base primes from 17 to 10**4 with their start slots and
          offsets, as int64 arrays and Python lists: under 0.2 MiB.
        That is under 3.5 MiB.  No term grows like n / 2, the bytes of a
        flag per odd number up to n (about 48 MiB).
        """
        n = 10**8
        budget = 8 * (math.floor(1.25506 * n / math.log(n)) + 1) + 4 * 2**20
        assert traced_peak(lambda: primes_up_to(n)) <= 1.05 * budget
        primes = primes_up_to(n)
        edges = numpy.arange(0, n + 2**21, 2**21)
        assert numpy.diff(numpy.searchsorted(primes, edges)).max() == 155_611

    def test_primes_match_sympy(self):
        got = primes_up_to(10**4).tolist()
        want = list(sympy.primerange(2, 10**4 + 1))
        assert got == want

    def test_small_edge_cases(self):
        assert primes_up_to(2).tolist() == [2]
        assert primes_up_to(3).tolist() == [2, 3]

    def test_cap_guard(self, monkeypatch):
        monkeypatch.setenv(SIEVE_CAP_ENV, "100")
        with pytest.raises(ValueError, match=SIEVE_CAP_ENV):
            primes_up_to(1000)
        # Within the lowered cap the sieve still works.
        assert primes_up_to(97).tolist()[-1] == 97

    def test_cap_env_validation(self, monkeypatch):
        monkeypatch.setenv(SIEVE_CAP_ENV, "not-a-number")
        with pytest.raises(ValueError):
            primes_up_to(10)
        monkeypatch.setenv(SIEVE_CAP_ENV, "1")
        with pytest.raises(ValueError):
            primes_up_to(10)

    def test_default_cap_blocks_huge_requests(self):
        with pytest.raises(ValueError, match=SIEVE_CAP_ENV):
            primes_up_to(10**8 + 1)


class TestPrimeCountingConstant:
    def test_smallest_cutoff_exact(self):
        value, _ = c_pnt(2)
        assert abs(value - (1.0 - math.log(2))) < 1e-15

    def test_against_segment_oracle(self):
        value, _ = c_pnt(100)
        assert abs(value - pnt_segment_oracle(100)) < 1e-12

    def test_oracle_at_larger_cutoff(self):
        value, _ = c_pnt(2000)
        assert abs(value - pnt_segment_oracle(2000)) < 1e-11

    def test_uncertainty_is_decade_difference(self):
        value_hi, unc = c_pnt(1000)
        value_lo, _ = c_pnt(100)
        assert abs(unc - abs(value_hi - value_lo)) < 1e-15

    def test_stabilizes_with_cutoff(self):
        _, unc4 = c_pnt(10**4)
        _, unc6 = c_pnt(10**6)
        assert unc6 < unc4

    def test_rejects_tiny_cutoff(self):
        with pytest.raises(ValueError):
            c_pnt(1)


class TestEvenPowerConstant:
    def test_hand_sum_small_primes(self):
        want = math.fsum(
            math.log(p) / (p**1.5 - p) for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)
        )
        value, _ = c_sym_even(50)
        assert abs(value - want) < 1e-13

    def test_tail_bound_formula(self):
        _, tail = c_sym_even(10**4)
        assert tail == (2.0 * math.log(10**4) + 4.0) / (math.sqrt(10**4) - 1.0)

    def test_tail_monotone(self):
        tails = [c_sym_even(x)[1] for x in (10**3, 10**4, 10**5, 10**6)]
        assert tails == sorted(tails, reverse=True)

    def test_cross_cutoff_within_tail(self):
        lo, tail_lo = c_sym_even(10**4)
        hi, _ = c_sym_even(10**6)
        assert abs(hi - lo) <= tail_lo
        assert hi > lo  # positive summands only

    def test_rejects_tiny_cutoff(self):
        with pytest.raises(ValueError):
            c_sym_even(1)


class TestCompletedEvenPowerConstant:
    @pytest.mark.parametrize("cutoff", [2, 50, 10**3, 10**4, 10**6])
    def test_oracle_within_radius(self, cutoff):
        value, radius = c_sym_even_completed(cutoff)
        assert abs(value - even_square_oracle()) <= radius

    def test_radius_below_1e8_at_1e6(self):
        _, radius = c_sym_even_completed(10**6)
        assert radius < 1e-8

    @pytest.mark.parametrize("cutoff", [2, 50, 10**3, 10**4, 10**6])
    def test_remainder_within_truncation_bound(self, cutoff):
        value, _ = c_sym_even_completed(cutoff)
        truncated, tail_bound = c_sym_even(cutoff)
        assert 0.0 <= value - truncated <= tail_bound

    @pytest.mark.parametrize("s", [1.5, 2.0, 2.5, 3.0, 7.5, 20.0])
    def test_zeta_routes_against_mpmath(self, s):
        with mpmath.workdps(40):
            want_zeta = mpmath.zeta(s)
            want_slope = mpmath.zeta(s, derivative=1)
            got_zeta, zeta_radius = zeta(s)
            got_slope, slope_radius = zeta_prime(s)
            assert abs(got_zeta - want_zeta) <= zeta_radius
            assert abs(got_slope - want_slope) <= slope_radius

    def test_series_coefficient_is_divisor_sum(self):
        for t in range(3, 200):
            want = sum(sympy.mobius(t // k) for k in sympy.divisors(t) if k >= 3)
            assert _series_coefficient(t) == want, t

    def test_trip_wire_raises_on_disagreeing_truncation(self, monkeypatch):
        truncated, tail_bound = c_sym_even(50)
        monkeypatch.setattr("symlow.constants.c_sym_even", lambda cutoff, table=None: (truncated + 1.0, tail_bound))
        with pytest.raises(RuntimeError):
            c_sym_even_completed(50)

    def test_rejects_tiny_cutoff(self):
        with pytest.raises(ValueError):
            c_sym_even_completed(1)
        with pytest.raises(ValueError):
            zeta(1.25)


class TestSharedPrimeTable:
    @pytest.mark.parametrize("cutoff", [2, 3, 10, 97, 10**4, 10**6])
    def test_views_equal_fresh_sieve(self, cutoff):
        for table in (_prime_table(cutoff), _prime_table(10**7)):
            assert c_pnt(cutoff, table) == c_pnt(cutoff)
            assert c_sym_even(cutoff, table) == c_sym_even(cutoff)

    def test_log_quotients_same_doubles_primes_untouched(self, monkeypatch):
        # 10 blocks of primes, the last one short.  The quotients that
        # c_sym_even sums, leaf by leaf, are in order the whole-array
        # quotients of the float64 primes, and the table keeps its primes.
        _, primes = table = _prime_table(10**6)
        kept = primes.copy()
        floats = primes.astype(numpy.float64)
        buffer = numpy.empty(floats.size)
        assert _log_quotients(floats, buffer, _even_denominator) is buffer
        leaves = []

        def recorded(p):
            (got,) = _even_leaf(p)
            leaves.append(got.copy())
            return (got,)

        monkeypatch.setattr(symlow.constants, "_even_leaf", recorded)
        c_sym_even(10**6, table)
        assert max(leaf.size for leaf in leaves) <= _BLOCK
        assert numpy.array_equal(numpy.concatenate(leaves), numpy.log(floats) / (floats**1.5 - floats))
        assert numpy.array_equal(primes, kept)

    def test_head_denominators_same_doubles(self, monkeypatch):
        # Every head log p / (p^{t/2} - 1) that c_sym_even_completed forms at
        # 10^6, over 10 blocks of primes, equals the whole-array quotient of
        # the float64 primes entry by entry, for each t with a_t != 0 that the
        # series reaches.  A sum of the heads could hide a last-bit move.
        floats = _prime_table(10**6)[1].astype(numpy.float64)
        heads = {}  # each head's blocks, by its denominator, in the order the series reaches it

        def checked(primes, buffer, denominator):
            got = _log_quotients(primes, buffer, denominator)
            if denominator is not _even_denominator:
                heads.setdefault(denominator, []).append(got.copy())
            return got

        monkeypatch.setattr(symlow.constants, "_log_quotients", checked)
        c_sym_even_completed(10**6)
        reached = [t for t in range(3, 200) if _series_coefficient(t)][: len(heads)]
        for t, blocks in zip(reached, heads.values()):
            assert len(blocks) == 10, t
            assert numpy.array_equal(numpy.concatenate(blocks), numpy.log(floats) / (floats ** (t / 2) - 1.0)), t
        assert reached == [3, 4, 5, 7]  # a_6 = 0, and the series stops at t = 7

    def test_table_is_int32_up_to_the_int32_limit(self, monkeypatch):
        assert symlow.constants._INT32_MAX == numpy.iinfo(numpy.int32).max
        assert _prime_table(10**4)[1].dtype == numpy.int32
        # A limit lowered to 100 sends every larger cutoff down the int64
        # branch, which a cap raised past 2**31 takes, without sieving that far.
        monkeypatch.setattr(symlow.constants, "_INT32_MAX", 100)
        assert _prime_table(100)[1].dtype == numpy.int32
        assert _prime_table(101)[1].dtype == numpy.int64

    @pytest.mark.parametrize("cutoff", [101, 10**4, 10**6])
    def test_int64_branch_same_floats(self, cutoff, monkeypatch):
        int32 = c_pnt(cutoff), c_sym_even(cutoff), c_sym_even_completed(cutoff), compute_constants(2, 12, cutoff)
        monkeypatch.setattr(symlow.constants, "_INT32_MAX", 100)
        assert _prime_table(cutoff)[1].dtype == numpy.int64
        int64 = c_pnt(cutoff), c_sym_even(cutoff), c_sym_even_completed(cutoff), compute_constants(2, 12, cutoff)
        assert int64 == int32

    def test_table_below_cutoff_rejected(self):
        # Sieved to 10, the table ends at 7 and could not tell 11 from a gap.
        table = _prime_table(10)
        for cutoff in (11, 100):
            with pytest.raises(ValueError, match="sieved to 10"):
                c_pnt(cutoff, table)
            with pytest.raises(ValueError, match="sieved to 10"):
                c_sym_even(cutoff, table)
        with pytest.raises(ValueError):
            _prime_table(1, table)

    @pytest.mark.parametrize(
        "compute",
        [
            lambda: compute_constants(2, 12, 10**4),
            lambda: compute_constants(2, 12),
            lambda: c_sym_even_completed(10**4),
        ],
        ids=["equal-cutoffs", "default-cutoffs", "completed"],
    )
    def test_one_sieve(self, compute, monkeypatch):
        calls = []
        sieve = symlow.constants.primes_up_to
        monkeypatch.setattr(symlow.constants, "primes_up_to", lambda n, *dtype: calls.append(n) or sieve(n, *dtype))
        compute()
        assert len(calls) == 1, calls


class TestPairwiseSums:
    """_pairwise_sums equals np.sum with == wherever numpy's pairwise rule holds.

    Each leaf maps the table's entries, here the indices 0..n-1, to random
    doubles of mixed sign and magnitude, whose sums round at every addition.
    A numpy that changes its summation order fails here, not in a digest.
    """

    @pytest.mark.parametrize("dtype", [numpy.int32, numpy.int64])
    @pytest.mark.parametrize(
        "n", [1, 7, 8, 9, 127, 128, 129, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 8, 100_003, PI_1E7, PI_1E8]
    )
    def test_equals_numpy_sum(self, n, dtype):
        rng = numpy.random.default_rng(n)
        data = rng.standard_normal(n) * 10.0 ** rng.integers(-12, 13, n)
        squares = data * data
        sizes = []

        def leaf(p):
            assert p.dtype == numpy.float64
            sizes.append(p.size)
            i = p.astype(numpy.intp)
            return data[i], squares[i]

        got = _pairwise_sums(numpy.arange(n, dtype=dtype), leaf)
        assert got == [float(numpy.sum(data)), float(numpy.sum(squares))]
        assert sum(sizes) == n and max(sizes) <= _BLOCK


def whole_array_constants(pnt_cutoff: int, c_cutoff: int) -> tuple[float, float, float]:
    """(c_pnt value, its decade uncertainty, c_sym_even value), whole-array.

    The formulas that the int32 table and its streamed leaves replaced: the whole
    table as float64, its logs, and each quotient formed in one fresh array.
    """
    primes = primes_up_to(max(pnt_cutoff, c_cutoff)).astype(numpy.float64)
    logs = numpy.log(primes)

    def view(x):
        k = numpy.searchsorted(primes, x, "right")
        return primes[:k], logs[:k]

    def pnt_value(x):
        p, log_p = view(x)
        return 1.0 + float(numpy.sum(log_p / p)) - float(numpy.sum(log_p)) / x - math.log(x)

    value = pnt_value(pnt_cutoff)
    p, log_p = view(c_cutoff)
    even = float(numpy.sum(log_p / (p**1.5 - p)))
    return value, abs(value - pnt_value(max(2, pnt_cutoff // 10))), even


def whole_array_log_quotients(primes, buffer, denominator):
    """log p / denominator(p) over the whole table as float64, in fresh arrays."""
    floats = primes.astype(numpy.float64)
    return numpy.log(floats) / denominator(floats)


class TestConstantsBitForBit:
    """The constants equal their whole-array float64 formulas with ==.

    The recorded digests cannot see a last-bit move in log or pow, which
    washes out of the printed sums (see TestCpuDispatch in test_cli.py).
    """

    @pytest.mark.parametrize("cutoff", [2, 3, 10, 97, 10**4, 10**6, 10**7 + 19])
    def test_equal_cutoffs(self, cutoff):
        value, uncertainty, even = whole_array_constants(cutoff, cutoff)
        assert c_pnt(cutoff) == (value, uncertainty)
        assert c_sym_even(cutoff)[0] == even
        bundle = compute_constants(2, 12, cutoff)
        assert (bundle.c_pnt_value, bundle.c_pnt_uncertainty, bundle.c_value) == (value, uncertainty, even)

    def test_default_cutoffs(self):
        bundle = compute_constants(2, 12)
        want = whole_array_constants(bundle.pnt_cutoff, bundle.c_cutoff)
        assert (bundle.pnt_cutoff, bundle.c_cutoff) == (10**7, 10**6)
        assert (bundle.c_pnt_value, bundle.c_pnt_uncertainty, bundle.c_value) == want

    @pytest.mark.parametrize("cutoff", [2, 3, 10, 97, 10**4, 10**6, 10**7 + 19])
    def test_completed(self, cutoff, monkeypatch):
        got = c_sym_even_completed(cutoff)
        monkeypatch.setattr(symlow.constants, "_log_quotients", whole_array_log_quotients)
        assert got == c_sym_even_completed(cutoff)


class TestDigamma:
    def test_against_mpmath(self):
        for x in (0.001, 0.1, 0.25, 0.5, 0.75, 1.0, 2.0, 3.5, 5.25, 11.0, 123.456, 5000.0):
            want = float(mpmath.digamma(x))
            assert abs(digamma(x) - want) <= 1e-12 * max(1.0, abs(want))

    def test_closed_forms(self):
        assert abs(digamma(1.0) + EULER_GAMMA) < 1e-13
        assert abs(digamma(0.5) + EULER_GAMMA + 2.0 * math.log(2)) < 1e-13
        assert abs(digamma(0.25) + EULER_GAMMA + math.pi / 2 + 3.0 * math.log(2)) < 1e-13
        assert abs(digamma(2.0) - (1.0 - EULER_GAMMA)) < 1e-13

    def test_recurrence(self):
        for x in (0.3, 1.7, 8.4, 25.0):
            assert abs(digamma(x + 1.0) - digamma(x) - 1.0 / x) < 1e-13

    def test_reflection(self):
        # psi(1-x) - psi(x) = pi cot(pi x); at x = 1/4 the right side is pi.
        assert abs(digamma(0.75) - digamma(0.25) - math.pi) < 1e-12

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            digamma(0.0)
        with pytest.raises(ValueError):
            digamma(-3.2)


class TestArchimedeanConstants:
    def test_dual_routes_agree(self):
        for r in range(1, 11):
            for kappa in (2, 4, 12, 16):
                closed = c_gamma(r, kappa)
                summed = c_gamma_from_shifts(r, kappa)
                assert abs(closed - summed) < 1e-10, (r, kappa)

    def test_frozen_compositions(self):
        with mpmath.workdps(30):
            want_1 = float(mpmath.digamma(3) + mpmath.digamma(3.5))
            want_2 = float(
                mpmath.digamma(0.75) + mpmath.digamma(5.75) + mpmath.digamma(6.25)
            )
        assert abs(c_gamma(1, 12) - want_1) < 1e-12
        assert abs(c_gamma(2, 12) - want_2) < 1e-12

    def test_rejections(self):
        with pytest.raises(ValueError):
            c_gamma(0, 12)
        with pytest.raises(ValueError):
            c_gamma(2, 9)


class TestSupportBound:
    def test_frozen_values(self):
        assert nu_max(1, 2) == Fraction(82, 57)
        assert nu_max(2, 12) == Fraction(361, 754)

    def test_formula(self):
        for r in (1, 2, 3, 5):
            for kappa in (2, 4, 12):
                gap = Fraction(kappa) - 2 * Fraction(7, 64)
                want = (1 - Fraction(1, 2) / gap) * Fraction(2, r * r)
                got = nu_max(r, kappa)
                assert isinstance(got, Fraction)
                assert got == want

    def test_shrinks_with_rank(self):
        values = [nu_max(r, 12) for r in range(1, 8)]
        assert values == sorted(values, reverse=True)

    def test_rejections(self):
        with pytest.raises(ValueError):
            nu_max(0, 12)
        with pytest.raises(ValueError):
            nu_max(1, 3)


class TestConstantsBundle:
    def test_compute_constants_coherent(self):
        bundle = compute_constants(1, 12, 10**4)
        assert bundle.r == 1 and bundle.kappa == 12
        assert bundle.pnt_cutoff == 10**4 and bundle.c_cutoff == 10**4
        assert bundle.c_pnt_value == c_pnt(10**4)[0]
        assert bundle.c_value == c_sym_even(10**4)[0]
        assert bundle.c_gamma_value == c_gamma(1, 12)
        assert bundle.c_infty_value == -2 * math.log(math.pi) + bundle.c_gamma_value

    def test_tampered_composition_rejected(self):
        # c_infty is composed by the bundle: it cannot be passed in, and a
        # replaced c_gamma recomposes it.
        bundle = compute_constants(1, 12, 10**3)
        with pytest.raises(TypeError):
            ConstantsBundle(
                r=bundle.r,
                kappa=bundle.kappa,
                c_pnt_value=bundle.c_pnt_value,
                c_pnt_uncertainty=bundle.c_pnt_uncertainty,
                c_value=bundle.c_value,
                c_tail_bound=bundle.c_tail_bound,
                c_gamma_value=bundle.c_gamma_value,
                c_infty_value=bundle.c_infty_value + 1e-9,
                pnt_cutoff=bundle.pnt_cutoff,
                c_cutoff=bundle.c_cutoff,
            )
        replaced = dataclasses.replace(bundle, c_gamma_value=1.0)
        assert replaced.c_infty_value == -2 * math.log(math.pi) + 1.0
