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
from unittest import mock

import mpmath
import numpy
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

import symlow.constants
import symlow.forms
from symlow.forms import _BLOCK, _exact_parts, _fold
from symlow.constants import (
    ConstantsBundle,
    SIEVE_CAP_ENV,
    c_gamma,
    _ExactSums,
    _PairwiseSums,
    _even_denominator,
    _feed,
    _pairwise_tree,
    _pnt_even_leaf,
    _pnt_value_at,
    _prime_counter,
    _prime_stream,
    _root_primes,
    _segmented_sieve,
    _series_coefficient,
    c_sym_even_completed,
    compute_constants,
    digamma,
    nu_max,
    zeta,
    zeta_prime,
)
from oracles import c_gamma_from_shifts, gamma_shifts, primes_up_to

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


# pi(10**7) and pi(10**8).
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
        # The segments that every reader takes, and the table the tests join from them.
        segments = list(_prime_stream(n)[1]) if n >= 2 else []
        for primes in [*segments, primes_up_to(n)]:
            assert primes.dtype == numpy.int64
            assert primes.flags.c_contiguous

    def test_constants_memory_is_segment_and_leaf_buffers(self):
        # No term grows with the primes: the constants are summed as the
        # sieve runs, so a table of the primes, 22 MiB even as int32, would
        # fail this.  At most 6 MiB: the sieve's segment buffers and the
        # prime count's arrays (under 4 MiB, see the cap sieve's test
        # below), a _BLOCK-entry float64 run buffer per sum and one leaf's
        # float64 arrays at a time, and 1,024 leaf sums per tree.
        assert traced_peak(lambda: compute_constants(2, 12, 10**8)) <= 6 * 2**20

    def test_matches_oracle_across_many_segments(self, monkeypatch):
        # 64 odd numbers a segment: up to 24 segments, each boundary and the
        # pattern's first segment, with the wheel primes restored, at every n.
        monkeypatch.setattr(symlow.constants, "_SEGMENT", 64)
        for n in range(3001):
            assert primes_up_to(n).tolist() == eratosthenes(n).tolist(), n

    def test_cap_sieve_keeps_its_bytes(self):
        # The segments' int64 bytes in order, hashed as they come: the table's bytes.
        digest, size = hashlib.sha256(), 0
        for primes in _prime_stream(10**8)[1]:
            digest.update(primes.tobytes())
            size += primes.size
        assert size == PI_1E8
        assert primes[-1] == 99_999_989
        # Recorded from the unsegmented odd-only sieve.
        assert digest.hexdigest() == "a7eead5377c738f5ecdd62fd01a0cedbcecee527cbf31739d4ecc1f3fae07766"

    def test_cap_sieve_memory_is_output_plus_segment_buffers(self):
        """At n = 10**8 the stream holds segment-sized buffers only.

        No reader keeps a table of the primes, so no term is 8 pi(n) bytes
        (44 MiB).  Read and dropped a segment at a time, at most 4 MiB:
        - the flags of one segment, 2**20 bytes: 1 MiB;
        - the wheel pattern, 2**20 + 15015 bytes: under 1.02 MiB;
        - one segment's primes, 8 bytes each, freed before the next
          segment's: a segment covers 2**21 integers, and below 10**8 none
          holds more primes than the first, pi(2**21) = 155,611 (checked
          here), so under 1.19 MiB;
        - the 1,229 base primes up to 10**4, with the start slots and
          offsets of those from 17 on, as int64 arrays and Python lists:
          under 0.2 MiB;
        - the prime count's arrays, three of 10**4 int64 entries and their
          temporaries: under 0.4 MiB.
        That is under 3.9 MiB.  No term grows like n / 2, the bytes of a
        flag per odd number up to n (about 48 MiB).
        """
        n = 10**8
        sizes = []

        def read():
            for primes in _prime_stream(n)[1]:
                sizes.append(primes.size)
                del primes  # before the sieve allocates the next segment's primes

        assert traced_peak(read) <= 4 * 2**20
        assert max(sizes) == 155_611

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


def pnt_constant(cutoff: int) -> tuple[float, float]:
    """(c_pnt_value, c_pnt_uncertainty) of the bundle sieved at cutoff."""
    bundle = compute_constants(1, 12, cutoff)
    return bundle.c_pnt_value, bundle.c_pnt_uncertainty


def even_constant(cutoff: int) -> tuple[float, float]:
    """(c_value, c_tail_bound), the bare truncation and its bound, of the bundle sieved at cutoff."""
    bundle = compute_constants(1, 12, cutoff)
    return bundle.c_value, bundle.c_tail_bound


class TestPrimeCountingConstant:
    def test_smallest_cutoff_exact(self):
        value, _ = pnt_constant(2)
        assert abs(value - (1.0 - math.log(2))) < 1e-15

    def test_against_segment_oracle(self):
        value, _ = pnt_constant(100)
        assert abs(value - pnt_segment_oracle(100)) < 1e-12

    def test_oracle_at_larger_cutoff(self):
        value, _ = pnt_constant(2000)
        assert abs(value - pnt_segment_oracle(2000)) < 1e-11

    def test_uncertainty_is_decade_difference(self):
        value_hi, unc = pnt_constant(1000)
        value_lo, _ = pnt_constant(100)
        assert abs(unc - abs(value_hi - value_lo)) < 1e-15

    def test_stabilizes_with_cutoff(self):
        _, unc4 = pnt_constant(10**4)
        _, unc6 = pnt_constant(10**6)
        assert unc6 < unc4

    def test_rejects_tiny_cutoff(self):
        with pytest.raises(ValueError):
            pnt_constant(1)


class TestEvenPowerConstant:
    def test_hand_sum_small_primes(self):
        want = math.fsum(
            math.log(p) / (p**1.5 - p) for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)
        )
        value, _ = even_constant(50)
        assert abs(value - want) < 1e-13

    def test_tail_bound_formula(self):
        _, tail = even_constant(10**4)
        assert tail == (2.0 * math.log(10**4) + 4.0) / (math.sqrt(10**4) - 1.0)

    def test_tail_monotone(self):
        tails = [even_constant(x)[1] for x in (10**3, 10**4, 10**5, 10**6)]
        assert tails == sorted(tails, reverse=True)

    def test_cross_cutoff_within_tail(self):
        lo, tail_lo = even_constant(10**4)
        hi, _ = even_constant(10**6)
        assert abs(hi - lo) <= tail_lo
        assert hi > lo  # positive summands only

    def test_rejects_tiny_cutoff(self):
        with pytest.raises(ValueError):
            even_constant(1)


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
        truncated, tail_bound = even_constant(cutoff)
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
        # Negated coefficients a_t put the remainder below 0, and a dropped
        # series leaves it at exactly 0, which the true remainder never is.
        coefficient = symlow.constants._series_coefficient
        for planted in (lambda t: -coefficient(t), lambda t: 0):
            monkeypatch.setattr(symlow.constants, "_series_coefficient", planted)
            for cutoff in (50, 10**4):
                with pytest.raises(RuntimeError, match="truncation bound"):
                    c_sym_even_completed(cutoff)

    def test_rejects_tiny_cutoff(self):
        with pytest.raises(ValueError):
            c_sym_even_completed(1)
        with pytest.raises(ValueError):
            zeta(1.25)


class TestPrimeCount:
    """_prime_counter against the sieve, at every value the sums ask it for."""

    def test_every_quotient_of_every_small_bound(self):
        pi = numpy.cumsum(numpy.isin(numpy.arange(3001), eratosthenes(3000)))
        for n in range(3001):
            count = _prime_counter(n, _root_primes(n))
            for v in {n // k for k in range(1, n + 1)}:
                assert count(v) == pi[v], (n, v)

    @pytest.mark.parametrize("k", range(1, 9))
    def test_matches_sieve_around_powers_of_ten(self, k):
        for n in (10**k - 1, 10**k, 10**k + 1):
            base = _root_primes(n)
            count = _prime_counter(n, base)
            values = sorted({n // j for j in (1, 2, 10, 1000)})
            sieved = dict.fromkeys(values, 0)
            for segment in _segmented_sieve(n, base):
                for v in values:
                    sieved[v] += int(numpy.searchsorted(segment, v, "right"))
            assert {v: count(v) for v in values} == sieved, n

    @pytest.mark.parametrize("cutoff", [2, 3, 10, 11, 19, 20, 97, 100, 10**4, 10**7 + 19])
    def test_counts_the_sums_use(self, cutoff):
        # compute_constants asks for pi at X and at max(2, X // 10), the even sum at X.
        count = _prime_counter(cutoff, _root_primes(cutoff))
        primes = eratosthenes(cutoff)
        for v in (cutoff, max(2, cutoff // 10)):
            assert count(v) == numpy.searchsorted(primes, v, "right"), v

    def test_default_cutoffs_counted_from_one_bound(self):
        count = _prime_counter(10**7, _root_primes(10**7))
        assert (count(10**7), count(10**6), count(10**5)) == (PI_1E7, 78_498, 9_592)

    def test_int32_limit_without_sieving_to_it(self, monkeypatch):
        sieved = []
        sieve = symlow.constants._segmented_sieve
        monkeypatch.setattr(symlow.constants, "_segmented_sieve", lambda n, base: sieved.append(n) or sieve(n, base))
        n = 2**31 - 1
        assert _prime_counter(n, _root_primes(n))(n) == 105_097_565
        assert max(sieved) == math.isqrt(n)


class TestSharedPrimeTable:
    """The sums of one computation read one pass of one sieve, each to its own cutoff."""

    @pytest.mark.parametrize("cutoff", [2, 3, 10, 97, 10**4, 10**6])
    def test_views_equal_fresh_sieve(self, cutoff):
        # compute_constants's three sums to the cutoff, each its own tree
        # with its own logs, fed a stream to 10**7, read only their prefix of
        # it, as its even sum does at the default cutoffs: a sum to X reads
        # its prefix of a longer stream.
        def pnt_leaf(p):
            logs = numpy.log(p)
            return logs, logs / p

        def even_leaf(p):
            return (numpy.log(p) / (p**1.5 - p),)

        count = _prime_counter(cutoff, _root_primes(cutoff))
        decade = max(2, cutoff // 10)
        cutoffs = [(cutoff, pnt_leaf), (decade, pnt_leaf), (cutoff, even_leaf)]
        trees = [_PairwiseSums(count(x), leaf) for x, leaf in cutoffs]
        _feed(_segmented_sieve(10**7, _root_primes(10**7)), trees)
        pnt, pnt_decade, (even,) = (tree.sums() for tree in trees)
        value = _pnt_value_at(cutoff, *pnt)
        bundle = compute_constants(2, 12, cutoff)
        assert value == bundle.c_pnt_value
        assert abs(value - _pnt_value_at(decade, *pnt_decade)) == bundle.c_pnt_uncertainty
        assert even == bundle.c_value

    def test_log_quotients_same_doubles_primes_untouched(self, monkeypatch):
        # 10 blocks of primes, the last one short.  The quotients that
        # compute_constants's even sum adds, leaf by leaf, are in order the whole-array
        # quotients of the float64 primes, and the sieve's segments keep
        # their primes, through compute_constants and c_sym_even_completed.
        floats = primes_up_to(10**6).astype(numpy.float64)
        leaves, segments = [], []
        sieve = symlow.constants._segmented_sieve

        def recorded(p):
            arrays = _pnt_even_leaf(p)
            leaves.append(arrays[2].copy())
            return arrays

        def kept(n, base):
            for segment in sieve(n, base):
                segments.append((segment, segment.copy()))
                yield segment

        monkeypatch.setattr(symlow.constants, "_pnt_even_leaf", recorded)
        monkeypatch.setattr(symlow.constants, "_segmented_sieve", kept)
        compute_constants(2, 12, 10**6)
        assert max(leaf.size for leaf in leaves) <= _BLOCK
        assert numpy.array_equal(numpy.concatenate(leaves), numpy.log(floats) / (floats**1.5 - floats))
        c_sym_even_completed(10**6)
        assert segments and all(numpy.array_equal(*pair) for pair in segments)

    @pytest.mark.parametrize("cutoff, logs", [(10**6, 18), (None, 144)])
    def test_one_log_per_leaf(self, cutoff, logs, monkeypatch):
        # The sums over the same primes share one tree and its logs: at 10**6
        # the pnt and even sums that of pi(10**6) (16 leaves), the decade sum
        # that of pi(10**5) (2); at the defaults the decade and even sums that
        # of pi(10**6), the pnt sum that of pi(10**7).  One tree per sum would
        # take 34 and 160.
        trees = (10**6, 10**5) if cutoff else (10**7, 10**6)
        count = _prime_counter(max(trees), _root_primes(max(trees)))
        leaves = []
        for x in trees:
            _pairwise_tree(count(x), lambda size: leaves.append(size) or [])
        assert len(leaves) == logs
        calls = []
        log = numpy.log
        monkeypatch.setattr(numpy, "log", lambda p: calls.append(p.size) or log(p))
        compute_constants(2, 12, cutoff)
        assert len(calls) == logs and sorted(calls) == sorted(leaves)

    def test_head_denominators_same_doubles(self, monkeypatch):
        # Every quotient that c_sym_even_completed folds at 10^6, over 10
        # blocks of primes in its one segment, equals the whole-array quotient
        # of the float64 primes entry by entry: log p / (p^{3/2} - p) for the
        # partial sum, then the head log p / (p^{t/2} - 1) for each t with
        # a_t != 0 that the series reaches.  A sum of the heads could hide a
        # last-bit move.
        floats = primes_up_to(10**6).astype(numpy.float64)
        folded = []  # every array folded, in order: a block's sums in turn, block by block
        fold = symlow.constants._fold

        def recorded(parts, terms):
            folded.append(terms.copy())
            return fold(parts, terms)

        monkeypatch.setattr(symlow.constants, "_fold", recorded)
        c_sym_even_completed(10**6)
        sums = len(folded) // 10
        reached = [t for t in range(3, 200) if _series_coefficient(t)][: sums - 1]
        assert reached == [3, 4, 5, 7]  # a_6 = 0, and the series stops at t = 7
        assert len(folded) == 10 * sums
        denominators = [_even_denominator] + [lambda p, t=t: p ** (t / 2) - 1.0 for t in reached]
        for i, denominator in enumerate(denominators):
            blocks = folded[i::sums]
            assert max(block.size for block in blocks) <= _BLOCK
            assert numpy.array_equal(numpy.concatenate(blocks), numpy.log(floats) / denominator(floats)), i

    @pytest.mark.parametrize("cutoff", [101, 10**4, 10**6])
    def test_segment_edges_same_floats(self, cutoff, monkeypatch):
        # Segments of 1,024 odd numbers, about 150 primes each near 10**6,
        # put segment edges inside every leaf and block: the floats stay.
        default = c_sym_even_completed(cutoff), compute_constants(2, 12, cutoff)
        monkeypatch.setattr(symlow.constants, "_SEGMENT", 1024)
        short = c_sym_even_completed(cutoff), compute_constants(2, 12, cutoff)
        assert short == default

    def test_table_below_cutoff_rejected(self):
        # Counted to 10, the count holds pi(v) for v <= 3 and v = 5, 10
        # only: 11 lies past it, and 4 and 7 fall between its values.
        count = _prime_counter(10, _root_primes(10))
        assert [count(v) for v in (2, 3, 5, 10)] == [1, 2, 3, 4]
        for v in (4, 7, 11, 100):
            with pytest.raises(ValueError, match="count to 10"):
                count(v)
        with pytest.raises(ValueError):
            compute_constants(2, 12, 1)

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
        # One pass to the computation's bound; every other sieve is a base
        # sieve, to the square root of the bound or below.
        calls = []
        sieve = symlow.constants._segmented_sieve
        monkeypatch.setattr(symlow.constants, "_segmented_sieve", lambda n, base: calls.append(n) or sieve(n, base))
        compute()
        bound = max(calls)
        assert [n for n in calls if n > math.isqrt(bound)] == [bound], calls


def shuffled_chunks(n: int, rng) -> list[tuple[int, int]]:
    """0..n cut into chunks of random size: single entries, a quarter of
    them, and runs up to three leaves long that cross leaf edges."""
    chunks, start = [], 0
    while start < n:
        size = 1 if rng.random() < 0.25 else int(rng.integers(2, 3 * _BLOCK))
        chunks.append((start, min(n, start + size)))
        start += size
    return chunks


class TestPairwiseSums:
    """_PairwiseSums equals np.sum with == wherever numpy's pairwise rule holds.

    Each leaf maps the stream's entries, here the indices 0..n-1 fed in
    chunks of random size as int32 or int64 arrays, to random doubles of
    mixed sign and magnitude, whose sums round at every addition.  A numpy
    that changes its summation order fails here, not in a digest.
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

        tree = _PairwiseSums(n, leaf)
        for lo, hi in shuffled_chunks(n, rng) + [(n, n + 5)]:  # entries past n are not read
            tree.feed(numpy.arange(lo, hi, dtype=dtype))
        assert tree.sums() == [float(numpy.sum(data)), float(numpy.sum(squares))]
        assert sum(sizes) == n and max(sizes) <= _BLOCK


# Finite terms of every size _fold takes, below 2**1000, with the small ones
# drawn apart so that subnormals come often.
fold_floats = st.one_of(
    st.floats(min_value=-(2.0**1000), max_value=2.0**1000),
    st.floats(min_value=-(2.0**-1000), max_value=2.0**-1000),
)


@st.composite
def fold_cases(draw):
    """(terms, cuts, block): terms of mixed magnitudes and subnormals, the
    negations of some of them (exact cancellation), and near-ties x, half an
    ulp of x and a nudge either way, shuffled; cut points of a chunking; and
    a power of two for _BLOCK, so that one chunk spans several blocks."""
    terms = draw(st.lists(fold_floats, max_size=40))
    if terms:
        terms += [-x for x in draw(st.lists(st.sampled_from(terms), max_size=len(terms)))]
    for x in draw(st.lists(fold_floats.filter(bool), max_size=3)):
        terms += [x, math.ulp(x) / 2, draw(st.sampled_from([1.0, -1.0])) * math.ulp(x) * 2.0**-60]
    terms = draw(st.permutations(terms))
    cuts = sorted(draw(st.lists(st.integers(0, len(terms)), max_size=6)))
    return terms, cuts, draw(st.sampled_from([1, 2, 8, _BLOCK]))


class TestExactSums:
    """Streamed math.fsum equals one math.fsum over every term with ==."""

    @given(fold_cases())
    @settings(max_examples=200, deadline=None)
    def test_fold_over_any_chunking(self, case):
        terms, cuts, block = case
        array = numpy.array(terms, dtype=numpy.float64)
        parts = []
        with mock.patch.object(symlow.forms, "_BLOCK", block):
            for lo, hi in zip([0, *cuts], [*cuts, len(terms)]):
                parts = _fold(parts, array[lo:hi])
        exact = sum(map(Fraction, terms), Fraction(0))
        assert sum(map(Fraction, parts), Fraction(0)) == exact
        assert math.fsum(parts) == math.fsum(terms) == float(exact)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 2.0**1010, -(2.0**1023)])
    def test_fold_refuses_terms_outside_its_range(self, bad):
        # One term in the second of three blocks.  A NaN once made the parts
        # loop forever, their list growing without bound.
        terms = numpy.ones(3 * _BLOCK)
        terms[_BLOCK + 5] = bad
        with pytest.raises(ArithmeticError):
            _fold([], terms)
        assert _fold([], numpy.full(_BLOCK, 2.0**1009)) == [2.0**1022]  # the largest magnitude taken

    def test_parts_refuse_an_infinity(self):
        for bad in (math.inf, -math.inf):
            with pytest.raises(ArithmeticError):
                _exact_parts([1.0, bad])

    @pytest.mark.parametrize("seed", range(3))
    def test_parts_keep_the_exact_sum(self, seed):
        # Mixed signs and magnitudes from 1e-150 to 1e150, so whole chunks
        # cancel, and a near-tie, 1 + 2**-53 + 2**-105, that rounds up only
        # if no term is lost.  The chunks go to _exact_parts as lists and to
        # _fold as arrays, some of them several blocks long.
        rng = numpy.random.default_rng(seed)
        array = rng.standard_normal(20_000) * 10.0 ** rng.integers(-150, 151, 20_000)
        array = numpy.concatenate([array, [1e150, 1.0, 2.0**-53, -1e150, 2.0**-105]])
        data = array.tolist()
        parts, folded = [], []
        for lo, hi in shuffled_chunks(len(data), rng):
            parts = _exact_parts(parts + data[lo:hi])
            folded = _fold(folded, array[lo:hi])
            assert len(parts) <= 40 and len(folded) <= 40
        exact = sum(map(Fraction, data))
        for kept in (parts, folded):
            assert math.fsum(kept) == math.fsum(data)
            assert sum(map(Fraction, kept)) == exact and math.fsum(kept) == float(exact)
        assert _exact_parts([1e16, 1.0, -1e16, -1.0]) == []
        assert _fold([], numpy.array([1e16, 1.0, -1e16, -1.0])) == []

    def test_heads_equal_one_fsum(self, monkeypatch):
        # The heads read every prime of the sieve's segments, here of 1,024
        # odd numbers each (about 100 primes near 10**5), and of chunks of
        # random size that cross the blocks: both equal one math.fsum of the
        # whole-array quotients.
        monkeypatch.setattr(symlow.constants, "_SEGMENT", 1024)
        primes = primes_up_to(10**5)
        floats = primes.astype(numpy.float64)
        denominators = [_even_denominator, lambda p: p**2.5 - 1.0]
        want = [math.fsum((numpy.log(floats) / d(floats)).tolist()) for d in denominators]
        segmented, chunked = _ExactSums(denominators), _ExactSums(denominators)
        _feed(_prime_stream(10**5)[1], [segmented])
        for lo, hi in shuffled_chunks(primes.size, numpy.random.default_rng(3)):
            chunked.feed(primes[lo:hi])
        assert segmented.sums() == chunked.sums() == want


def whole_array_constants(pnt_cutoff: int, c_cutoff: int) -> tuple[float, float, float]:
    """(c_pnt_value, c_pnt_uncertainty, c_value) of the bundle, whole-array.

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


class WholeArrayExactSums:
    """The heads as one math.fsum each over the whole-array quotients of every prime fed."""

    def __init__(self, denominators):
        self._denominators = denominators
        self._primes = []

    def feed(self, primes):
        self._primes.append(primes.copy())

    def sums(self):
        floats = numpy.concatenate(self._primes).astype(numpy.float64)
        return [math.fsum((numpy.log(floats) / d(floats)).tolist()) for d in self._denominators]


class TestConstantsBitForBit:
    """The constants equal their whole-array float64 formulas with ==.

    The recorded digests cannot see a last-bit move in log or pow, which
    washes out of the printed sums (see TestCpuDispatch in test_cli.py).
    """

    @pytest.mark.parametrize("cutoff", [2, 3, 10, 97, 10**4, 10**6, 10**7 + 19])
    def test_equal_cutoffs(self, cutoff):
        bundle = compute_constants(2, 12, cutoff)
        want = whole_array_constants(cutoff, cutoff)
        assert (bundle.c_pnt_value, bundle.c_pnt_uncertainty, bundle.c_value) == want

    def test_default_cutoffs(self):
        bundle = compute_constants(2, 12)
        want = whole_array_constants(bundle.pnt_cutoff, bundle.c_cutoff)
        assert (bundle.pnt_cutoff, bundle.c_cutoff) == (10**7, 10**6)
        assert (bundle.c_pnt_value, bundle.c_pnt_uncertainty, bundle.c_value) == want

    @pytest.mark.parametrize("cutoff", [2, 3, 10, 97, 10**4, 10**6, 10**7 + 19])
    def test_completed(self, cutoff, monkeypatch):
        got = c_sym_even_completed(cutoff)
        monkeypatch.setattr(symlow.constants, "_ExactSums", WholeArrayExactSums)
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

    def test_bytes_match_the_in_order_shift_sum(self):
        # The doubles themselves, off the two (r, kappa) the digests record:
        # psi(1/4 + mu/2) first for even r, then each shift pair's two
        # digammas added to each other before they enter the total.
        for r in range(1, 61):
            for kappa in range(2, 401, 2):
                shifts = gamma_shifts(r, kappa)
                start = 1 - r % 2
                total = 0.0
                if start:
                    total += digamma(0.25 + float(shifts[0]) / 2.0)
                for a, b in zip(shifts[start::2], shifts[start + 1::2]):
                    total += digamma(0.25 + float(a) / 2.0) + digamma(0.25 + float(b) / 2.0)
                assert c_gamma(r, kappa).hex() == total.hex(), (r, kappa)

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
        value, _, even = whole_array_constants(10**4, 10**4)
        assert bundle.c_pnt_value == value
        assert bundle.c_value == even
        assert bundle.c_tail_bound == (2.0 * math.log(10**4) + 4.0) / (math.sqrt(10**4) - 1.0)
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
