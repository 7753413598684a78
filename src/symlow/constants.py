"""Constants of the density expansion: prime sums and archimedean terms.

The two prime-sum constants are evaluated from a sieve with explicit error
reporting: the prime-counting constant carries an empirical decade-difference
uncertainty (its convergence is fluctuation-limited, so no rigorous bound is
claimed), while the even-power constant carries a rigorous integral-comparison
tail bound.  The even-power constant is also completed past the cutoff by a
prime-zeta series over hand-rolled Euler-Maclaurin zeta and zeta', which gives
it to double precision with a rigorous radius.  Both constants and that
completion's trip-wire read one sieved prime table, the primes as int32,
4 bytes a prime.  Each sum forms its logs and quotients a leaf of _BLOCK
primes at a time, with the doubles of the whole-array float64 formulas, and
adds the leaves along numpy's own pairwise tree (``_pairwise_sums``), so it
returns the bytes of np.sum over the whole array without forming it.  The
digamma routine is pinned to one fixed algorithm so reports are bit-stable
across runs.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
import os
from decimal import Decimal
from fractions import Fraction
from typing import Callable

import numpy as np

from .forms import _BLOCK, _blocks, _check_weight
from .petersson import _factorization

SIEVE_CAP_ENV = "SYMLOW_SIEVE_CAP"
DEFAULT_SIEVE_CAP = 10**8
DEFAULT_PNT_CUTOFF = 10**7
DEFAULT_C_CUTOFF = 10**6


def sieve_cap() -> int:
    raw = os.environ.get(SIEVE_CAP_ENV)
    if raw is None:
        return DEFAULT_SIEVE_CAP
    try:
        cap = int(raw)
    except ValueError as exc:
        raise ValueError(f"{SIEVE_CAP_ENV} must be an integer, got {raw!r}") from exc
    if cap < 2:
        raise ValueError(f"{SIEVE_CAP_ENV} must be >= 2")
    return cap


def check_sieve_bound(n: int, what: str = "sieve bound") -> None:
    """ValueError naming ``what`` when n exceeds the sieve memory cap.

    A bound of 17 digits or more is printed to 4 significant digits, so the
    message stays one short line.
    """
    cap = sieve_cap()
    if n > cap:
        shown = n if n < 10**16 else f"{Decimal(int(n)):.4g}"
        raise ValueError(f"{what} {shown} exceeds the memory guard {cap} (override with {SIEVE_CAP_ENV})")


# Odd numbers one sieve segment holds: 1 MiB of flags, inside a 2 MiB L2 cache.
_SEGMENT = 1 << 20
# The primes whose odd multiples every segment's pattern has crossed off
# already, and the pattern's period in odd numbers, their product.
_WHEEL = (3, 5, 7, 11, 13)
_WHEEL_PERIOD = math.prod(_WHEEL)


def primes_up_to(n: int, dtype=np.int64) -> np.ndarray:
    """All primes <= n as a sorted array of dtype, guarded by the sieve memory cap.

    A segmented sieve over the odd numbers (Bays and Hudson, BIT 17, 1977):
    flag i of a segment starting at slot lo stands for 2(lo + i) + 1.  Each
    segment of at most _SEGMENT flags starts as a copy of one pattern with
    the odd multiples of the _WHEEL primes crossed off, then crosses off the
    odd multiples of every other prime up to sqrt(n), from p^2 on; in the
    first segment the _WHEEL primes are restored, and slot 0, the number 1,
    becomes the prime 2.  Each segment's primes go straight into one output
    of the given dtype (int32 for the constants' table, when every prime
    fits), sized by pi(x) < 1.25506 x / ln x for x > 1 (Rosser and
    Schoenfeld, Illinois J. Math. 6, 1962) and shrunk in place at the end.
    So the sieve holds the output and a few segment-sized buffers, never a
    flag per number up to n.
    """
    check_sieve_bound(n)
    return _segmented_sieve(n, dtype)


def _segmented_sieve(n: int, dtype=np.int64) -> np.ndarray:
    """primes_up_to(n, dtype) with no cap check, so its base primes come from itself."""
    if n < 2:
        return np.empty(0, dtype=dtype)
    slots = (n + 1) // 2
    size = min(_SEGMENT, slots)
    pattern = np.ones(size + _WHEEL_PERIOD, dtype=bool)
    for p in _WHEEL:
        pattern[p // 2 :: p] = False
    base = _segmented_sieve(math.isqrt(n))[len(_WHEEL) + 1 :]
    firsts = base * base // 2  # the slot of p^2, where crossing off starts
    base_list = base.tolist()
    flags = np.empty(size, dtype=bool)
    primes = np.empty(int(1.25506 * n / math.log(n)) + 1, dtype=dtype)
    count = 0
    for lo in range(0, slots, size):
        segment = flags[: min(size, slots - lo)]
        offset = lo % _WHEEL_PERIOD
        segment[...] = pattern[offset : offset + segment.size]
        if lo == 0:
            for p in _WHEEL:
                if p // 2 < segment.size:
                    segment[p // 2] = True
        active = int(np.searchsorted(firsts, lo + segment.size))
        gaps = firsts[:active] - lo
        starts = np.maximum(gaps, gaps % base[:active])  # the first odd multiple >= lo
        for p, start in zip(base_list, starts.tolist()):
            segment[start::p] = False
        found = np.flatnonzero(segment)
        found *= 2
        found += 2 * lo + 1
        primes[count : count + found.size] = found
        count += found.size
        del found  # before the next segment's indices are allocated
    primes[0] = 2
    primes.resize(count, refcheck=False)
    return primes


# The largest cutoff whose prime table is int32.  Past it the sieve writes
# int64, so no prime wraps.
_INT32_MAX = 2**31 - 1


def _prime_table(cutoff: int, table=None) -> tuple[int, np.ndarray]:
    """The prime table (cutoff, primes <= cutoff).

    The primes are int32 when cutoff <= _INT32_MAX, else int64, as the sieve
    writes them, in a fresh sieve's values and order: 4 bytes a prime (8
    when int64), the table's only array a prime long.  With the optional
    table of c_pnt and c_sym_even, from a call at a bound >= cutoff, the
    primes are a prefix view of that table's.
    """
    cutoff = int(cutoff)
    if cutoff < 2:
        raise ValueError("cutoff must be >= 2")
    if table is None:
        return cutoff, primes_up_to(cutoff, np.int32 if cutoff <= _INT32_MAX else np.int64)
    bound, primes = table
    if bound < cutoff:
        raise ValueError(f"prime table sieved to {bound} cannot serve cutoff {cutoff}")
    return cutoff, primes[: _count_up_to(primes, cutoff)]


def _count_up_to(primes: np.ndarray, x: int) -> int:
    """How many of the sorted primes are <= x.

    The needle takes the table's dtype: numpy 2 casts an int32 haystack to
    int64, a full copy, to compare it with a Python int.
    """
    return int(np.searchsorted(primes, primes.dtype.type(x), "right"))


def _pairwise_sums(
    primes: np.ndarray, leaf: Callable[[np.ndarray], tuple[np.ndarray, ...]]
) -> list[float]:
    """float(np.sum(a)) for each array a of leaf(the primes as float64), streamed.

    For a contiguous float64 array, np.sum is numpy's pairwise sum: a run of
    n > 128 entries adds the sum of its first m entries to the sum of the
    rest, where m is n // 2 rounded down to a multiple of 8 (the classic
    pairwise scheme; N. J. Higham, SIAM J. Sci. Comput. 14, 1993).  This
    recursion takes the same split down to runs of at most _BLOCK entries,
    calls leaf on each run's float64 primes alone and np.sum on each array
    it returns, and adds the halves as numpy does, in doubles.  So each sum
    has np.sum's bytes over the whole array, while only one leaf's arrays
    exist at a time.  leaf must form every entry from its own prime alone;
    the float64 primes are exact, every prime being below 2**53.
    """
    if primes.size <= _BLOCK:
        return [float(np.sum(a)) for a in leaf(primes.astype(np.float64))]
    half = primes.size // 2
    half -= half % 8
    left, right = _pairwise_sums(primes[:half], leaf), _pairwise_sums(primes[half:], leaf)
    return [a + b for a, b in zip(left, right)]


def _log_quotients(
    primes: np.ndarray, buffer: np.ndarray, denominator: Callable[[np.ndarray], np.ndarray]
) -> np.ndarray:
    """log p / denominator(p) of a run of float64 primes, written into the buffer as long."""
    np.log(primes, out=buffer)
    buffer /= denominator(primes)
    return buffer


def _even_denominator(p: np.ndarray) -> np.ndarray:
    return p**1.5 - p


def _even_leaf(p: np.ndarray) -> tuple[np.ndarray]:
    return (_log_quotients(p, np.empty(p.size), _even_denominator),)


def _pnt_leaf(p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    logs = np.log(p)
    return logs, logs / p


def _fsum_log_quotients(primes: np.ndarray, denominator: Callable[[np.ndarray], np.ndarray]) -> float:
    """math.fsum of log p / denominator(p) over the primes, formed a block at a time.

    math.fsum is exactly rounded in any order, so a block of the quotients
    and of their Python floats is all that exists at a time.
    """
    buffer = np.empty(min(primes.size, _BLOCK))
    blocks = (
        _log_quotients(p.astype(np.float64), buffer[: p.size], denominator).tolist()
        for p in _blocks(primes)
    )
    return math.fsum(itertools.chain.from_iterable(blocks))


def _pnt_value_at(cutoff: int, theta: float, log_over_p: float) -> float:
    return 1.0 + log_over_p - theta / cutoff - math.log(cutoff)


def c_pnt(cutoff: int, table=None) -> tuple[float, float]:
    """The prime-counting constant 1 + int_1^X (theta(t) - t)/t^2 dt.

    The integral is evaluated through the exact partial-summation identity
    int_1^X (theta(t)-t)/t^2 dt = sum_{p<=X} log p / p - theta(X)/X - log X,
    so the only approximation is the cutoff itself.  Returns (value,
    uncertainty) where uncertainty = |value(X) - value(X/10)|, an empirical
    stabilization estimate, not a rigorous bound.  theta and
    sum log p / p come from one pass of leaves over the primes up to X, and
    again from one over those up to X/10, whose pairwise tree is its own.
    """
    cutoff, primes = _prime_table(cutoff, table)
    decade = max(2, cutoff // 10)
    value = _pnt_value_at(cutoff, *_pairwise_sums(primes, _pnt_leaf))
    decade_primes = primes[: _count_up_to(primes, decade)]
    decade_value = _pnt_value_at(decade, *_pairwise_sums(decade_primes, _pnt_leaf))
    return value, abs(value - decade_value)


def c_sym_even(cutoff: int, table=None) -> tuple[float, float]:
    """The even-power constant sum_p log p / (p^{3/2} - p), with tail bound.

    The truncation error is below sum_{n>X} log n/(n^{3/2}-n); the summand is
    decreasing, and log t/(t^{3/2}-t) <= log t * t^{-3/2} / (1 - X^{-1/2}) on
    [X, inf), so integral comparison gives the rigorous bound
    (2 log X + 4)/(sqrt(X) - 1).  This bare truncation cannot reach double
    precision at any feasible cutoff; c_sym_even_completed adds the remainder
    past X and serves the constant itself, with this route as its cross-check.
    """
    cutoff, primes = _prime_table(cutoff, table)
    (value,) = _pairwise_sums(primes, _even_leaf)
    tail_bound = (2.0 * math.log(cutoff) + 4.0) / (math.sqrt(cutoff) - 1.0)
    return value, tail_bound


# Asymptotic coefficients B_{2k}/(2k) for k = 1..8.
_DIGAMMA_TAIL = (
    Fraction(1, 12),
    Fraction(-1, 120),
    Fraction(1, 252),
    Fraction(-1, 240),
    Fraction(1, 132),
    Fraction(-691, 32760),
    Fraction(1, 12),
    Fraction(-3617, 8160),
)
_DIGAMMA_TAIL_F = tuple(float(c) for c in _DIGAMMA_TAIL)


def digamma(x: float) -> float:
    """psi(x) for x > 0 to absolute accuracy 1e-12.

    Upward recurrence psi(x+1) = psi(x) + 1/x until x >= 10, then the
    asymptotic series log x - 1/(2x) - sum B_{2k}/(2k x^{2k}) with 8 terms
    (remainder ~ 3e-18 at x = 10).  One fixed path, so results are bit-stable.
    """
    x = float(x)
    if not x > 0:
        raise ValueError("digamma is evaluated on x > 0 only")
    acc = 0.0
    while x < 10.0:
        acc -= 1.0 / x
        x += 1.0
    z = 1.0 / (x * x)
    tail = 0.0
    for c in reversed(_DIGAMMA_TAIL_F):
        tail = z * (c + tail)
    return acc + math.log(x) - 0.5 / x - tail


# Unit roundoff of IEEE-754 binary64.
_UNIT_ROUNDOFF = 2.0**-53
# Rounding budget per computed summand, in unit roundoffs.  The costliest
# summands are the Bernoulli corrections of zeta': at most 40 rounded
# operations (the rising factorial has up to 15 factors) and one subtraction
# log N - H_j(s) that loses a factor below 5, so about 120 units with every
# log and pow within 4 ulp; this is twice that.
_ROUNDING_UNITS = 256
# Euler-Maclaurin split: n < _EM_SPLIT are summed directly.
_EM_SPLIT = 32
# B_{2k}/(2k)! for k = 1..8: seven corrections are added and the eighth
# bounds the remainder.
_EM_COEFFS = tuple(
    float(c / math.factorial(2 * k - 1)) for k, c in enumerate(_DIGAMMA_TAIL, start=1)
)
# The series of the completed constant stops once its bounded tail is below this.
_SERIES_TAIL_TARGET = 2.0**-64


def _dirichlet_sum(s: float, log_weight: bool) -> tuple[float, float]:
    """sum_{n>=1} w(n) n^{-s} with w = log if log_weight else 1, and a radius.

    Euler-Maclaurin with N = _EM_SPLIT.  The k-th derivative of w(x) x^{-s}
    is (-1)^k (s)_k x^{-s-k} (w(x) - [log weight] H_k(s)), with
    H_k(s) = sum_{i<k} 1/(s+i), so every even derivative up to order 18 is
    nonnegative on [N, inf) once log N >= H_18(s); then the remainder lies
    between 0 and the first omitted correction (Graham, Knuth and Patashnik,
    Concrete Mathematics, eq. 9.80).  The radius is that correction plus
    _ROUNDING_UNITS unit roundoffs of every summand's magnitude plus the one
    rounding of math.fsum.
    """
    s = float(s)
    if not s >= 1.5:
        raise ValueError("the zeta routes are set up for real s >= 3/2")
    n = _EM_SPLIT
    log_n = math.log(n)
    terms = [(math.log(k) if log_weight else 1.0) * k**-s for k in range(1, n)]
    power = float(n) ** -s
    if log_weight:
        terms += [n * power * (log_n + 1.0 / (s - 1.0)) / (s - 1.0), 0.5 * log_n * power]
    else:
        terms += [n * power / (s - 1.0), 0.5 * power]
    rising, harmonic = 1.0, 0.0  # (s)_j and H_j(s)
    corrections = []
    for j in range(2 * len(_EM_COEFFS) + 2):
        if j % 2 and j // 2 < len(_EM_COEFFS):
            term = _EM_COEFFS[j // 2] * rising * float(n) ** (-s - j)
            corrections.append(term * (log_n - harmonic) if log_weight else term)
        rising *= s + j
        harmonic += 1.0 / (s + j)
    if log_weight and harmonic > log_n:
        raise RuntimeError(f"Euler-Maclaurin sign condition fails at s={s}")
    terms += corrections[:-1]
    value = math.fsum(terms)
    rounding = _ROUNDING_UNITS * _UNIT_ROUNDOFF * math.fsum(map(abs, terms))
    return value, abs(corrections[-1]) + rounding + _UNIT_ROUNDOFF * abs(value)


def zeta(s: float) -> tuple[float, float]:
    """Riemann zeta(s) for real s >= 3/2, with a rigorous radius.

    The radius holds under IEEE-754 binary64 round-to-nearest arithmetic
    with math.log and ** within 4 ulp of the exact result.
    """
    return _dirichlet_sum(s, log_weight=False)


def zeta_prime(s: float) -> tuple[float, float]:
    """zeta'(s) = -sum_n log n / n^s for real s >= 3/2, with a rigorous radius.

    Same model as zeta.
    """
    value, radius = _dirichlet_sum(s, log_weight=True)
    return -value, radius


def _mobius(n: int) -> int:
    exponents = _factorization(n).values()
    return 0 if any(e > 1 for e in exponents) else (-1) ** len(exponents)


def _series_coefficient(t: int) -> int:
    """a_t = sum_{k | t, k >= 3} mu(t/k) for t >= 3.

    Since sum_{d | t} mu(d) = 0 for t > 1, this is -mu(t) - [t even] mu(t/2),
    so |a_t| <= 2.
    """
    a = -_mobius(t)
    if t % 2 == 0:
        a -= _mobius(t // 2)
    return a


def c_sym_even_completed(cutoff: int) -> tuple[float, float]:
    """The even-power constant C = sum_p log p / (p^{3/2} - p) itself, with radius.

    C = S_X + T_X, where S_X is the sieved sum over p <= X and T_X the
    remainder past X.  Expanding 1/(p^{3/2} - p) geometrically,
    T_X = sum_{k>=3} P_X(k/2) with P_X(s) = sum_{p>X} log p p^{-s}, and
    Moebius inversion of L_X(s) = sum_{j>=1} P_X(js) gives
    T_X = sum_{t>=3} a_t L_X(t/2), a_t = sum_{k | t, k >= 3} mu(t/k), where
    L_X(s) = -zeta'/zeta(s) - sum_{p<=X} log p / (p^s - 1)
    (H. Cohen, "High precision computation of Hardy-Littlewood constants",
    1998).  zeta and zeta' come from Euler-Maclaurin with their own radii.

    The t-series stops at the first T with
    2 sum_{t>T} X^{1-t/2} (log X + 1/sigma)/sigma <= 2^-64, sigma = (T-1)/2,
    which bounds its tail: 0 <= L_X(s) <= sum_{n>X} log n n^{-s}, whose
    summand decreases on [2, inf) for s >= 2, so integral comparison gives
    X^{1-s} (log X + 1/(s-1))/(s-1); and |a_t| <= 2.

    Returns (value, radius) with |value - C| <= radius: the series tail,
    the propagated zeta/zeta' radii, and _ROUNDING_UNITS unit roundoffs of
    every summand's magnitude plus the rounding of each math.fsum.  Rigorous
    under IEEE-754 binary64 round-to-nearest arithmetic with log and pow
    (Python's and NumPy's) within 4 ulp of the exact result.

    Trip-wire: raises RuntimeError unless the remainder value - S_X it
    reports lies in [0, (2 log X + 4)/(sqrt(X) - 1) + radius], the bound of
    the independent truncation route c_sym_even, read from the same table.
    S_X and each head sum_{p<=X} log p / (p^{t/2} - 1) are streamed into
    their math.fsum a block of primes at a time, the logs formed afresh for
    each.
    """
    cutoff, primes = table = _prime_table(cutoff)
    sieve_value, sieve_tail = c_sym_even(cutoff, table)
    partial = _fsum_log_quotients(primes, _even_denominator)
    parts = [partial]
    magnitude = partial  # prime-sum summands, all positive
    propagated = 0.0
    log_x = math.log(cutoff)
    shrink = 1.0 - cutoff**-0.5
    t = 3
    while True:
        a = _series_coefficient(t)
        if a:
            zeta_value, zeta_radius = zeta(t / 2)
            slope, slope_radius = zeta_prime(t / 2)
            ratio = -slope / zeta_value
            # zeta >= 1 for real s > 1 bounds the quotient's error.
            ratio_radius = (slope_radius + (-slope + slope_radius) * zeta_radius) / zeta_value
            head = _fsum_log_quotients(primes, lambda p: p ** (t / 2) - 1.0)
            parts += [a * ratio, -a * head]
            magnitude += abs(a) * head
            propagated += abs(a) * (ratio_radius + _UNIT_ROUNDOFF * ratio)
        sigma = (t - 1) / 2
        tail = 2.0 * cutoff ** (-sigma) * (log_x + 1.0 / sigma) / (sigma * shrink)
        if tail <= _SERIES_TAIL_TARGET:
            break
        t += 1
    value = math.fsum(parts)
    rounding = (_ROUNDING_UNITS + 1) * _UNIT_ROUNDOFF * magnitude
    radius = tail + propagated + rounding + _UNIT_ROUNDOFF * abs(value)
    if not 0.0 <= value - sieve_value <= sieve_tail + radius:
        raise RuntimeError(
            f"completed constant {value!r} leaves remainder {value - sieve_value!r} past "
            f"X={cutoff}, outside [0, {sieve_tail + radius!r}] set by the truncation route"
        )
    return value, radius


def c_gamma(r: int, kappa: int) -> float:
    """Archimedean digamma sum of the completed L-factor.

    Closed form: for odd r, sum over 0 <= a <= (r-1)/2 of
    psi(1/4 + (2a+1)(kappa-1)/4) + psi(3/4 + (2a+1)(kappa-1)/4); for even r,
    psi(1/4 + mu/2) plus the pairs psi(1/4 + a(kappa-1)/2) +
    psi(3/4 + a(kappa-1)/2) for 1 <= a <= r/2.  The tests hold it against
    the shift route sum_j psi(1/4 + mu_j/2) over gamma_shifts(r, kappa).
    """
    if r < 1:
        raise ValueError("r must be >= 1")
    _check_weight(kappa)
    total = 0.0
    if r % 2:
        for a in range((r + 1) // 2):
            base = (2 * a + 1) * (kappa - 1) / 4.0
            total += digamma(0.25 + base) + digamma(0.75 + base)
    else:
        mu = 1 if (r * (kappa - 1) // 2) % 2 else 0
        total += digamma(0.25 + mu / 2.0)
        for a in range(1, r // 2 + 1):
            base = a * (kappa - 1) / 2.0
            total += digamma(0.25 + base) + digamma(0.75 + base)
    return total


# Kim and Sarnak's bound toward Ramanujan (J. Amer. Math. Soc. 16, 2003):
# every Satake parameter of a cusp form on GL(2) has |alpha_p| <= p^THETA0.
THETA0 = Fraction(7, 64)


def nu_max(r: int, kappa: int) -> Fraction:
    """Exact admissible support radius (1 - 1/(2(kappa - 2 THETA0))) * 2/r^2.

    THETA0 is the best bound known toward the Ramanujan conjecture, which
    would give THETA0 = 0.  The bracket is positive for every weight kappa
    >= 2: kappa - 2 THETA0 >= 57/32 exceeds 1/2.
    """
    if r < 1:
        raise ValueError("r must be >= 1")
    _check_weight(kappa)
    return (1 - Fraction(1, 2) / (kappa - 2 * THETA0)) * Fraction(2, r * r)


@dataclasses.dataclass(frozen=True)
class ConstantsBundle:
    """Every constant of the expansion at one (r, kappa), cutoffs recorded.

    c_infty_value = -(r + 1) log pi + c_gamma_value is composed here, not
    passed in, so it always matches the bundle's r and c_gamma_value
    (dataclasses.replace recomposes it).
    """

    r: int
    kappa: int
    c_pnt_value: float
    c_pnt_uncertainty: float
    c_value: float
    c_tail_bound: float
    c_gamma_value: float
    c_infty_value: float = dataclasses.field(init=False)
    pnt_cutoff: int
    c_cutoff: int

    def __post_init__(self) -> None:  # frozen, so the one assignment goes through object
        object.__setattr__(self, "c_infty_value", -(self.r + 1) * math.log(math.pi) + self.c_gamma_value)


def compute_constants(r: int, kappa: int, cutoff: int | None = None) -> ConstantsBundle:
    """The constants at (r, kappa), both sieved at cutoff, from one prime table.

    cutoff None takes the prime-counting constant at DEFAULT_PNT_CUTOFF and
    the even-power constant at DEFAULT_C_CUTOFF, both read from the one
    table sieved to the larger: 4 bytes a prime, its int32 primes, beside
    which each sum holds only one leaf of float64 arrays.  c_gamma,
    which checks r and kappa, comes first, so a bad r or weight is refused
    before the sieve.
    """
    gamma_value = c_gamma(r, kappa)
    pnt_cutoff, c_cutoff = (DEFAULT_PNT_CUTOFF, DEFAULT_C_CUTOFF) if cutoff is None else (cutoff, cutoff)
    table = _prime_table(max(pnt_cutoff, c_cutoff))
    pnt_value, pnt_unc = c_pnt(pnt_cutoff, table)
    c_value, c_tail = c_sym_even(c_cutoff, table)
    return ConstantsBundle(
        r=r,
        kappa=kappa,
        c_pnt_value=pnt_value,
        c_pnt_uncertainty=pnt_unc,
        c_value=c_value,
        c_tail_bound=c_tail,
        c_gamma_value=gamma_value,
        pnt_cutoff=int(pnt_cutoff),
        c_cutoff=int(c_cutoff),
    )
