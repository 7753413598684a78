"""Constants of the density expansion: prime sums and archimedean terms.

compute_constants, the one sieved route to the two prime-sum constants,
takes both from one pass of one sieve with explicit error reporting: the
prime-counting constant carries an empirical decade-difference uncertainty
(its convergence is fluctuation-limited, so no rigorous bound is claimed),
the even-power constant a rigorous integral-comparison tail bound.
c_sym_even_completed completes the even-power constant past the cutoff by a
prime-zeta series over hand-rolled Euler-Maclaurin zeta and zeta', to double
precision with a rigorous radius.  The sieve is read one way, by every
consumer in the package (these two and explicit.prime_sums): the segments
of ``_prime_stream``, each used and dropped before the next, so no
consumer keeps a prime table and the cap bounds time, not memory.  Each
computation sums its constants as the sieve runs.  compute_constants's
truncations take their length from the exact prime count pi(X), from the
primes up to sqrt(X) alone, before the first prime is found.  The sums
over the same primes share one tree: a leaf of at most _BLOCK primes takes
their logs once for log p and log p / p (``_pnt_leaf``), and on the even
sum's tree log p / (p^{3/2} - p) too (``_pnt_even_leaf``), with the doubles
of the whole-array float64 formulas, and the leaves add along numpy's own
pairwise tree (``_pairwise_tree``), whose leaf sizes follow from that
length; so each sum has the bytes of np.sum over the whole array without
forming it.  The sums of c_sym_even_completed, exactly rounded,
need no length and no count: each segment's blocks go through
``forms._fold``.  The digamma routine is pinned to one fixed algorithm so
reports are bit-stable across runs.
"""

from __future__ import annotations

import dataclasses
import math
import os
from decimal import Decimal
from fractions import Fraction
from typing import Callable, Iterable, Iterator

import numpy as np

from .forms import _BLOCK, _blocks, _check_weight, _factorization, _fold

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
    """ValueError naming ``what`` when n exceeds the sieve cap.

    A bound of 17 digits or more is printed to 4 significant digits, so the
    message stays one short line.
    """
    cap = sieve_cap()
    if n > cap:
        shown = n if n < 10**16 else f"{Decimal(int(n)):.4g}"
        raise ValueError(f"{what} {shown} exceeds the sieve cap {cap} (override with {SIEVE_CAP_ENV})")


# Odd numbers one sieve segment holds: 1 MiB of flags, inside a 2 MiB L2 cache.
_SEGMENT = 1 << 20
# The primes whose odd multiples every segment's pattern has crossed off
# already, and the pattern's period in odd numbers, their product.
_WHEEL = (3, 5, 7, 11, 13)
_WHEEL_PERIOD = math.prod(_WHEEL)


def _prime_stream(bound: int) -> tuple[np.ndarray, Iterator[np.ndarray]]:
    """(base, segments) for bound >= 2, refused past the sieve cap.

    base is the primes up to sqrt(bound), from which segments yields the
    primes <= bound a segment at a time and _prime_counter(bound, base),
    built by compute_constants alone, counts them.  Every reader of the
    sieve takes the segments from here and keeps no table of them.
    """
    check_sieve_bound(bound)
    base = _root_primes(bound)
    return base, _segmented_sieve(bound, base)


def _root_primes(n: int) -> np.ndarray:
    """The primes <= sqrt(n) as an int64 array, sieved without the cap check."""
    root = math.isqrt(n)
    if root < 2:
        return np.empty(0, dtype=np.int64)
    return np.concatenate(list(_segmented_sieve(root, _root_primes(root))))


def _segmented_sieve(n: int, base: np.ndarray) -> Iterator[np.ndarray]:
    """The primes <= n >= 2 as one sorted int64 array per segment; base is _root_primes(n).

    A segmented sieve over the odd numbers (Bays and Hudson, BIT 17, 1977):
    flag i of a segment starting at slot lo stands for 2(lo + i) + 1.  Each
    segment of at most _SEGMENT flags starts as a copy of one pattern with
    the odd multiples of the _WHEEL primes crossed off, then crosses off the
    odd multiples of every other base prime, from p^2 on; in the first
    segment the _WHEEL primes are restored, and slot 0, the number 1,
    becomes the prime 2.
    """
    slots = (n + 1) // 2
    size = min(_SEGMENT, slots)
    pattern = np.ones(size + _WHEEL_PERIOD, dtype=bool)
    for p in _WHEEL:
        pattern[p // 2 :: p] = False
    base = base[len(_WHEEL) + 1 :]
    firsts = base * base // 2  # the slot of p^2, where crossing off starts
    base_list = base.tolist()
    flags = np.empty(size, dtype=bool)
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
        if lo == 0:
            found[0] = 2
        if lo + size >= slots:
            del flags, pattern, segment  # the last segment's reader runs without them
        yield found
        del found  # before the next segment's indices are allocated


def _prime_counter(n: int, base: np.ndarray) -> Callable[[int], int]:
    """count(v) = pi(v) exactly for every v = n // k, from base = _root_primes(n) alone.

    Lucy's form of the Legendre recursion (Lagarias, Miller and Odlyzko,
    Math. Comp. 44, 1985): S(v) starts as v - 1, the integers 2..v, and for
    each base prime p in turn every v >= p^2 loses S(v // p) - S(p - 1), the
    numbers left whose least prime factor is p; what is left is pi(v).  The
    values v <= s = max(isqrt(n), 2) are one array by v, the larger ones
    one array by k, and a step updates each array in a few numpy calls from
    the values before it.  count raises ValueError at any other v.
    """
    s = max(math.isqrt(n), 2)
    big = n // (s + 1)  # the k with n // k > s
    small = np.arange(-1, s)  # S(v) by v
    small[0] = 0
    quotients = n // np.arange(1, big + 1)  # n // k by k - 1
    large = np.empty(big + 1, dtype=np.int64)  # S(n // k) by k; entry 0 unused
    large[1:] = quotients - 1
    for p in base.tolist():
        below = int(small[p - 1])
        square = p * p
        reach = min(big, n // square)  # the k with n // k >= p^2
        split = min(reach, big // p)  # the k with k p <= big, whose n // (k p) is in large
        large[1 : split + 1] -= large[p : split * p + 1 : p] - below
        if split < reach:
            large[split + 1 : reach + 1] -= small[quotients[split:reach] // p] - below
        if square <= s:
            small[square:] -= small[np.arange(square, s + 1) // p] - below

    def count(v: int) -> int:
        if v <= s:
            return int(small[v])
        k = n // v
        if not k or n // k != v:
            raise ValueError(f"the prime count to {n} holds no pi({v})")
        return int(large[k])

    return count


def _check_cutoff(cutoff: int) -> int:
    cutoff = int(cutoff)
    if cutoff < 2:
        raise ValueError("cutoff must be >= 2")
    return cutoff


def _feed(segments: Iterator[np.ndarray], sinks) -> None:
    """Hands each segment of primes to every sink in turn: one pass of the sieve for all of them."""
    for segment in segments:
        for sink in sinks:
            sink.feed(segment)
        del segment  # before the sieve allocates the next segment's primes


def _pairwise_tree(n: int, leaf: Callable[[int], list[float]]) -> list[float]:
    """numpy's pairwise sums of n entries, from leaf(size) of each leaf run in order.

    For a contiguous float64 array, np.sum is numpy's pairwise sum: a run of
    n > 128 entries adds the sum of its first m entries to the sum of the
    rest, where m is n // 2 rounded down to a multiple of 8 (the classic
    pairwise scheme; N. J. Higham, SIAM J. Sci. Comput. 14, 1993).  This
    recursion takes the same split down to runs of at most _BLOCK entries,
    whose sums leaf returns, and adds the halves as numpy does, in doubles.
    """
    if n <= _BLOCK:
        return leaf(n)
    half = n // 2
    half -= half % 8
    left = _pairwise_tree(half, leaf)
    return [a + b for a, b in zip(left, _pairwise_tree(n - half, leaf))]


class _PairwiseSums:
    """float(np.sum(a)) for each array a of leaf(the first n primes as float64), streamed.

    The leaf sizes of _pairwise_tree follow from n alone, so feed copies
    the primes, exact as float64 below 2**53, into one leaf buffer, and
    each leaf's arrays are formed and summed once its last prime arrives;
    the leaf sums, 1,024 lists at n = pi(10**8), are added along the tree at
    the end.  So each sum has np.sum's bytes over the whole array while one
    leaf's arrays exist at a time.  leaf must form every entry from its own
    prime alone.  Primes past the first n are ignored, so a sum to X reads
    its prefix of any longer stream: compute_constants feeds a tree for each
    prime count it sums to from one stream, its leaf _pnt_leaf, or
    _pnt_even_leaf at the even sum's count.
    """

    def __init__(self, n: int, leaf: Callable[[np.ndarray], Iterable[np.ndarray]]):
        sizes: list[int] = []
        _pairwise_tree(n, lambda size: sizes.append(size) or [])  # the leaf sizes, in order
        self._n = n
        self._leaf = leaf
        self._sizes = iter(sizes)
        self._size = next(self._sizes, 0)
        self._filled = 0
        self._buffer = np.empty(max(sizes, default=0))
        self._leaf_sums: list[list[float]] = []

    def feed(self, primes: np.ndarray) -> None:
        while self._size and primes.size:
            taken = min(self._size - self._filled, primes.size)
            self._buffer[self._filled : self._filled + taken] = primes[:taken]
            self._filled += taken
            primes = primes[taken:]
            if self._filled == self._size:
                # np.sum of a 1-d array is np.add.reduce, less its Python-level dispatch.
                leaf = self._leaf(self._buffer[: self._size])
                self._leaf_sums.append([float(np.add.reduce(a)) for a in leaf])
                self._size = next(self._sizes, 0)
                self._filled = 0

    def sums(self) -> list[float]:
        leaf_sums = iter(self._leaf_sums)
        return _pairwise_tree(self._n, lambda size: next(leaf_sums))


class _ExactSums:
    """math.fsum of log p / denominator(p) over every prime fed, for each denominator, streamed.

    Each sum keeps the few floats of _fold's parts of its quotients so far,
    whose math.fsum has the bytes of one math.fsum over every quotient.
    Each _BLOCK of primes takes its logs once, then each quotient.
    """

    def __init__(self, denominators: list[Callable[[np.ndarray], np.ndarray]]):
        self._denominators = denominators
        self._parts: list[list[float]] = [[] for _ in denominators]

    def feed(self, primes: np.ndarray) -> None:
        for block in _blocks(primes):
            p = block.astype(np.float64)  # exact below 2**53
            logs = np.log(p)
            self._parts = [_fold(parts, logs / d(p)) for parts, d in zip(self._parts, self._denominators)]

    def sums(self) -> list[float]:
        return [math.fsum(parts) for parts in self._parts]


def _even_denominator(p: np.ndarray) -> np.ndarray:
    return p**1.5 - p


def _even_tail_bound(cutoff: int) -> float:
    return (2.0 * math.log(cutoff) + 4.0) / (math.sqrt(cutoff) - 1.0)


def _pnt_value_at(cutoff: int, theta: float, log_over_p: float) -> float:
    return 1.0 + log_over_p - theta / cutoff - math.log(cutoff)


def _pnt_leaf(p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    logs = np.log(p)
    return logs, logs / p


def _pnt_even_leaf(p: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    logs, over_p = _pnt_leaf(p)
    return logs, over_p, logs / _even_denominator(p)


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
    reports lies in (0, (2 log X + 4)/(sqrt(X) - 1) + radius]: T_X is
    positive, and bounded as the bare truncation compute_constants reports.
    The t the series reaches follow from X alone, so S_X and each head
    sum_{p<=X} log p / (p^{t/2} - 1) are streamed into their math.fsum in
    one pass of the sieve to X, with no prime count: they read each segment
    a block of primes at a time, the logs formed once a block, and fold it
    with forms._fold.
    """
    cutoff = _check_cutoff(cutoff)
    log_x = math.log(cutoff)
    shrink = 1.0 - cutoff**-0.5
    series = []  # (t, a_t) for each t the series reaches with a_t != 0
    t = 3
    while True:
        a = _series_coefficient(t)
        if a:
            series.append((t, a))
        sigma = (t - 1) / 2
        tail = 2.0 * cutoff ** (-sigma) * (log_x + 1.0 / sigma) / (sigma * shrink)
        if tail <= _SERIES_TAIL_TARGET:
            break
        t += 1
    _, segments = _prime_stream(cutoff)
    heads = _ExactSums([_even_denominator] + [lambda p, s=t / 2: p**s - 1.0 for t, _ in series])
    _feed(segments, [heads])
    partial, *head_values = heads.sums()
    parts = [partial]
    magnitude = partial  # prime-sum summands, all positive
    propagated = 0.0
    for (t, a), head in zip(series, head_values):
        zeta_value, zeta_radius = zeta(t / 2)
        slope, slope_radius = zeta_prime(t / 2)
        ratio = -slope / zeta_value
        # zeta >= 1 for real s > 1 bounds the quotient's error.
        ratio_radius = (slope_radius + (-slope + slope_radius) * zeta_radius) / zeta_value
        parts += [a * ratio, -a * head]
        magnitude += abs(a) * head
        propagated += abs(a) * (ratio_radius + _UNIT_ROUNDOFF * ratio)
    value = math.fsum(parts)
    rounding = (_ROUNDING_UNITS + 1) * _UNIT_ROUNDOFF * magnitude
    radius = tail + propagated + rounding + _UNIT_ROUNDOFF * abs(value)
    bound = _even_tail_bound(cutoff) + radius
    if not 0.0 < value - partial <= bound:
        raise RuntimeError(
            f"completed constant {value!r} leaves remainder {value - partial!r} past "
            f"X={cutoff}, outside (0, {bound!r}] set by the truncation bound"
        )
    return value, radius


def c_gamma(r: int, kappa: int) -> float:
    """Archimedean digamma sum of the completed L-factor.

    Closed form: sum over 1 <= j <= r with j = r mod 2 of
    psi(1/4 + j(kappa-1)/4) + psi(3/4 + j(kappa-1)/4), after the lone
    psi(1/4 + mu/2), mu = r(kappa-1)/2 mod 2, when r is even.  One formula
    covers both parities: odd j = 2a+1 gives the odd-r pairs, even j = 2a
    the pairs a(kappa-1)/2 of even r.  The tests hold it against the shift
    route sum_j psi(1/4 + mu_j/2) over oracles.gamma_shifts(r, kappa).
    """
    if r < 1:
        raise ValueError("r must be >= 1")
    _check_weight(kappa)
    total = 0.0
    if r % 2 == 0:
        mu = (r * (kappa - 1) // 2) % 2
        total += digamma(0.25 + mu / 2.0)
    for j in range(2 - r % 2, r + 1, 2):
        base = j * (kappa - 1) / 4.0
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
    """The constants at (r, kappa), both sieved at cutoff, in one pass of one sieve.

    c_pnt = 1 + int_1^X (theta(t) - t)/t^2 dt = 1 + sum_{p<=X} log p / p -
    theta(X)/X - log X by exact partial summation, with the empirical
    uncertainty |c_pnt(X) - c_pnt(max(2, X // 10))|.  c is the bare truncation
    sum_{p<=X} log p / (p^{3/2} - p); integral comparison bounds the rest by
    (2 log X + 4)/(sqrt(X) - 1), as log t/(t^{3/2}-t) decreases and is at most
    log t t^{-3/2} / (1 - X^{-1/2}) past X.  cutoff None takes c_pnt at
    DEFAULT_PNT_CUTOFF and c at DEFAULT_C_CUTOFF.  The three sums take their
    primes from the one sieve to the larger cutoff as it runs, one pairwise
    tree for each prime count: _pnt_leaf's, or _pnt_even_leaf's at the even
    sum's count, so the sums over the same primes (the pnt and even sums at a
    cutoff given, the decade and even sums at the defaults) share a tree and
    its logs, and each reads its own entries of the tree's sums.  c_gamma,
    which checks r and kappa, comes first, so a bad r or weight is refused
    before the sieve.
    """
    gamma_value = c_gamma(r, kappa)
    pnt_cutoff, c_cutoff = (DEFAULT_PNT_CUTOFF, DEFAULT_C_CUTOFF) if cutoff is None else (cutoff, cutoff)
    pnt_cutoff, c_cutoff = _check_cutoff(pnt_cutoff), _check_cutoff(c_cutoff)
    decade_cutoff = max(2, pnt_cutoff // 10)
    bound = max(pnt_cutoff, c_cutoff)
    base, segments = _prime_stream(bound)
    count = _prime_counter(bound, base)
    pnt_n, decade_n, c_n = (count(x) for x in (pnt_cutoff, decade_cutoff, c_cutoff))
    # A repeated key keeps its last value, so the tree at c_n takes the even leaf.
    leaves = {pnt_n: _pnt_leaf, decade_n: _pnt_leaf, c_n: _pnt_even_leaf}
    trees = {n: _PairwiseSums(n, leaf) for n, leaf in leaves.items()}
    _feed(segments, list(trees.values()))
    sums = {n: tree.sums() for n, tree in trees.items()}
    pnt_value = _pnt_value_at(pnt_cutoff, *sums[pnt_n][:2])
    return ConstantsBundle(
        r=r,
        kappa=kappa,
        c_pnt_value=pnt_value,
        c_pnt_uncertainty=abs(pnt_value - _pnt_value_at(decade_cutoff, *sums[decade_n][:2])),
        c_value=sums[c_n][2],
        c_tail_bound=_even_tail_bound(c_cutoff),
        c_gamma_value=gamma_value,
        pnt_cutoff=pnt_cutoff,
        c_cutoff=c_cutoff,
    )
