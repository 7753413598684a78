"""Trace-formula numerics: Kloosterman sums, Bessel J, truncated diagonals.

Kloosterman sums are exact (residue counts in integer arithmetic, cosines
summed in double precision).  A sweep takes its moduli in blocks of
consecutive moduli that serve the same indices: a block builds every
index's counts side by side, takes all its cosines in one call, cuts them
once into pieces on a common grid and sums each (index, modulus) exactly
before one final rounding, so any block gives the same doubles as one
modulus alone.  Bessel J switches between the power series, an array kernel
that keeps each entry's own terms, and Miller's backward recurrence.  The
truncated diagonal term carries a rigorous bound on its truncation tail,
built from the Weil bound and the small-argument Bessel bound; that radius
does not cover the rounding of the computed terms.
"""

from __future__ import annotations

import dataclasses
import math
import sys
import warnings
from array import array
from collections.abc import Sequence
from itertools import accumulate

import numpy as np

from .forms import _BLOCK, _check_weight, _libm, is_prime

ZETA_THREE_HALVES = 2.6123753486854883
BESSEL_ARGUMENT_GUARD = 1e4
_BESSEL_MAX_ARGUMENT = 1e6
_SERIES_WINDOW_CAP = 14.0
# exp(x) overflows a double from here on.
_LOG_DOUBLE_MAX = math.log(sys.float_info.max)
# Residues m x + n x^-1 with every factor below the modulus, and squares k^2,
# stay below 2 (c-1)^2, which int64 holds exactly while c < 2**31 (4 n m is
# reduced with Python ints first).  Tests enumerate count tables up to a prime
# near 2**20 only: near 2**31 the bound rests on this argument alone.
MODULUS_LIMIT = 2**31
# Entries of one count matrix: a block of moduli of total width w with more
# than COUNT_ENTRIES // w indices runs in chunks of that many rows, sharing
# tables, so its memory (about 50 bytes an entry) does not grow with the
# number of indices.
COUNT_ENTRIES = 2**18
# Series entries of one Bessel pass: each keeps at most 200 terms.
_SERIES_CHUNK = 128

# Classical coefficients of the weight-12 level-1 cusp form's q-expansion,
# for the CLI comparison table.  The test suite recomputes them from the
# 24th-power eta product with exact integers.
RAMANUJAN_TAU = {
    1: 1,
    2: -24,
    3: 252,
    4: -1472,
    5: 4830,
    6: -6048,
    7: -16744,
    8: 84480,
    9: -113643,
    10: -115920,
}


def _factorization(c: int) -> dict[int, int]:
    """Prime -> exponent for c >= 1, by trial division."""
    factors = {}
    d = 2
    while d * d <= c:
        while c % d == 0:
            factors[d] = factors.get(d, 0) + 1
            c //= d
        d += 1
    if c > 1:
        factors[c] = factors.get(c, 0) + 1
    return factors


def _count_table(ms: Sequence[int], n: int, q: int, p: int) -> np.ndarray:
    """N_q(k) = #{units x mod q : m x + n x^-1 = k mod q}, one int64 row per m.

    q = p^e.  At an odd prime p not dividing n, m x^2 - k x + n = 0 has
    1 + chi_p(k^2 - 4 m n) roots x if p does not divide m, else one, x = n/k,
    for k != 0: one gather for every row, then the rows with p | m.  Other
    prime powers enumerate their units, inverting the lower half by
    square-and-multiply and mirroring, (q - x)^-1 = q - x^-1, and count
    every row's residues in one bincount, row i's shifted by i q.
    """
    k = np.arange(q, dtype=np.int64)
    if q == p > 2 and n % p:
        squares = k * k % p
        # roots[d] = roots[p + d] = #{y : y^2 = d} = 1 + chi_p(d), twice over, so
        # that row m finds k^2 - 4 n m mod p at k^2 + p - (4 n m mod p), with
        # no division.
        roots = np.zeros(2 * p, dtype=np.int64)
        roots[squares] = 2
        roots[0] = 1
        roots[p:] = roots[:p]
        # 4 n m is reduced as a Python int: it can reach 2**64.
        shifts = np.array([p - 4 * n * m % p for m in ms], dtype=np.int64)
        table = roots[squares + shifts[:, None]]
        divisible = [i for i, m in enumerate(ms) if m % p == 0]
        if divisible:
            table[divisible] = np.minimum(k, 1)
        return table
    units = k.reshape(-1, p)[:, 1:].ravel()
    inverses = np.ones(len(units) - len(units) // 2, dtype=np.int64)
    base = units[: len(inverses)]
    e = len(units) - 1
    while e:
        if e & 1:
            inverses = inverses * base % q
        base = base * base % q
        e >>= 1
    inverses = np.concatenate([inverses, q - inverses[::-1][: len(units) // 2]])
    heads = np.array([m % q for m in ms], dtype=np.int64)[:, None]
    residues = (heads * units + n % q * inverses) % q + q * np.arange(len(ms))[:, None]
    return np.bincount(residues.ravel(), minlength=len(ms) * q).reshape(len(ms), q)


def _kloosterman_block(
    ms: Sequence[int], n: int, cs: Sequence[int], tables: dict
) -> list[float]:
    """Exact S(m, n; c) for every m in ms and c in cs, row by row: ms[0]'s
    sums over cs, then ms[1]'s, and so on.

    N for every (m, c) lies side by side in one float64 matrix, a row per m
    and c columns per modulus, exact: its entries are integers below 2^31.
    A modulus's first prime power q || c writes its table into the columns,
    broadcast over the c // q repeats, and the others multiply theirs in.
    The residues that occur in any row take their cosines in one _libm call,
    each the double (2 pi / c) k that a sum over the units would use, and
    _grid_sums sums each (m, c) segment exactly, with bits = bitlen(max cs):
    a row's N at c sums to phi(c) < 2^bitlen(c).  So each value is the one
    that c alone gives.  ms is taken in chunks of COUNT_ENTRIES // sum(cs)
    rows (at least one).  tables keeps the count tables of the prime powers
    q with 8 q <= c (small, recurring q, in O(c) memory), keyed by q, n mod q
    and each m mod q.
    """
    if len(ms) == 0:
        return []
    width = sum(cs)
    rows = max(1, COUNT_ENTRIES // width)
    if len(ms) > rows:
        chunks = (_kloosterman_block(ms[i:i + rows], n, cs, tables) for i in range(0, len(ms), rows))
        return [s for chunk in chunks for s in chunk]
    counts = np.empty((len(ms), width))
    edges = list(accumulate(cs, initial=0))  # each modulus's first column, then the width
    for c, offset in zip(cs, edges):
        view = counts[:, offset:offset + c]
        if c == 1:
            view[...] = 1.0  # the one unit 0
        for number, (p, e) in enumerate(_factorization(c).items()):
            q = p**e
            key = (q, n % q, *(m % q for m in ms))
            table = tables.get(key)
            if table is None:
                table = _count_table(ms, n, q, p)
                if 8 * q <= c:
                    tables[key] = table
            repeats = view.reshape(len(ms), c // q, q)  # a view: a row's c columns are contiguous
            if number:
                repeats *= table[:, None, :]
            else:
                repeats[...] = table[:, None, :]
    occur = np.flatnonzero(counts.any(axis=0))  # the block's residues that occur for some m
    bounds = np.searchsorted(occur, edges)  # each modulus has one at least
    sizes = bounds[1:] - bounds[:-1]
    ks = occur - np.repeat(edges[:-1], sizes)
    cosines = _libm(math.cos, np.repeat((2.0 * math.pi) / np.array(cs), sizes) * ks)
    return _grid_sums(counts[:, occur], cosines, max(cs).bit_length(), bounds)


def _grid_sums(weights: np.ndarray, cosines: np.ndarray, bits: int, bounds: Sequence[int]) -> list[float]:
    """The exactly rounded sum of weights[i, a:b] * cosines[a:b] for every row
    i and every segment [a, b) between consecutive bounds, row by row.

    weights holds nonnegative integers, each row's segment summing below
    2^bits (bits <= 50), and |cosines| <= 1.  Each cosine is split exactly
    into pieces on the grids 2^-b, 2^-2b, ... with b = 51 - bits (Rump, Ogita
    and Oishi, SIAM J. Sci. Comput. 31, 2008): a piece is what is left of the
    cosine rounded to a multiple of its grid, until nothing is left.  A piece
    is at most 2^b units of its grid, so every product and every partial sum
    of a segment's piece sum is an integer below 2^51 units, exact in any
    summation order, and math.fsum of a segment's few piece sums is exactly
    rounded.  One einsum a segment sums every row against every piece, in
    numpy's own loop, with no BLAS call and no thread.
    """
    b = 51 - bits
    grid, rest, pieces = 1.0, cosines, []
    while not pieces or rest.any():
        grid *= 2.0**-b
        pieces.append(np.rint(rest / grid) * grid)
        rest = rest - pieces[-1]
    pieces = np.array(pieces)
    sums = [np.einsum("ij,kj->ik", weights[:, lo:hi], pieces[:, lo:hi]) for lo, hi in zip(bounds, bounds[1:])]
    return [math.fsum(s) for s in np.stack(sums, axis=1).reshape(-1, len(pieces)).tolist()]


def kloosterman_sums(
    ms: Sequence[int], n: int, c: int, tables: dict | None = None
) -> list[float]:
    """Exact S(m, n; c) for every m in ms, from the multiplicities of the residues.

    S(m, n; c) = sum over k mod c of N(k) cos(2 pi k / c), where N(k) counts
    the units x with m x + n x^-1 = k mod c (x <-> -x makes the sum real).
    N is the CRT product of _count_table over the prime powers q || c, in
    exact integers, and the one-modulus block of _kloosterman_block sums it
    against the cosines exactly before one final rounding.  So each value is
    the per-unit sum's double, whichever ms share c or whichever moduli
    share a block.  |S| <= phi(c).  tables, when given, keeps the count
    tables of the small, recurring prime powers across calls.
    """
    if c < 1:
        raise ValueError("modulus must be >= 1")
    if c >= MODULUS_LIMIT:
        raise ValueError(f"modulus {c} must be < 2**31 for exact int64 residues")
    return _kloosterman_block(ms, n, [c], {} if tables is None else tables)


def _in_series_window(order: int, x):
    """x <= min(order + 10, 14), for a float or elementwise for an array."""
    return x <= min(order + 10.0, _SERIES_WINDOW_CAP)


def _series_lead(order: int, half: float) -> float:
    # (x/2)^order / order!; exact factorials up to 170! keep it at one rounding
    if order <= 170:
        return half**order / math.factorial(order)
    logt = order * math.log(half) - math.lgamma(order + 1) if half > 0.0 else -math.inf
    return math.exp(logt) if logt > -745.0 else 0.0


def _bessel_series(order: int, x: np.ndarray) -> np.ndarray:
    """The power series of J_order at every entry of x >= 0, unclamped.

    Each entry takes its first term (x/2)^order / order! in Python's own
    arithmetic, then the ratio recurrence term *= -(x/2)^2 / (t (order + t))
    elementwise, up to and including its own first term below 1e-18 of its
    largest (200 terms at most), and one math.fsum of those terms; an entry
    whose first term is 0 is 0.  So each is the double a scalar loop over
    that entry alone gives.  Entries go _SERIES_CHUNK at a time, so the
    terms held stay at most 200 for each entry of one chunk.
    """
    out = np.empty(x.size)
    for start in range(0, x.size, _SERIES_CHUNK):
        half = 0.5 * x[start:start + _SERIES_CHUNK]
        term = np.array([_series_lead(order, h) for h in half.tolist()])
        terms, largest, hh = [term], np.abs(term), half * half
        kept = np.where(term == 0.0, 0, 200)  # each entry's number of terms
        live = term != 0.0
        for t in range(1, 200):
            if not live.any():
                break
            term = term * (-hh / (t * (order + t)))
            terms.append(term)
            size = np.abs(term)
            largest = np.maximum(largest, size)
            done = live & (size < 1e-18 * largest)
            kept[done] = t + 1
            live &= ~done
        columns = np.array(terms).T.tolist()
        out[start:start + half.size] = [math.fsum(col[:n]) for col, n in zip(columns, kept.tolist())]
    return out


def _bessel_miller(order: int, x: float) -> float:
    # backward recurrence seeded far above max(order, x); normalized by
    # j_0 + 2 j_2 + 2 j_4 + ... = 1.  k runs from start >= order + 20 down
    # to 1, so it meets every order >= 1, and order 0 is the value after it.
    start = order + int(x + 20.0 + 12.0 * x ** (1.0 / 3.0))
    if start % 2:
        start += 1
    older = 0.0
    current = 1e-300
    norm = 0.0
    wanted = 0.0  # until k reaches order; rescaling leaves it 0
    for k in range(start, 0, -1):
        if k % 2 == 0:
            norm += 2.0 * current
        if k == order:
            wanted = current
        older, current = current, (2.0 * k / x) * current - older
        if abs(current) > 1e250:
            older *= 1e-250
            current *= 1e-250
            norm *= 1e-250
            wanted *= 1e-250
    norm += current
    if order == 0:
        wanted = current
    return wanted / norm


def bessel_j(order: int, x: float) -> float:
    """J_order(x) to 1e-10 relative accuracy for x <= 1e4, clamped to [-1, 1].

    Power series while x <= min(order + 10, 14): beyond 14 the alternating
    series loses more than five digits to cancellation in doubles, so the
    crossover is capped there and Miller's backward recurrence takes over.
    Arguments above 1e6 are rejected (recurrence cost grows linearly and the
    accuracy claim would be hollow).  This is the checked one-entry caller
    of the array kernel _bessel_series; petersson_deltas hands the kernel an
    index's series arguments at once and calls bessel_j for the rest only,
    so each J is the same double either way.
    """
    if order < 0:
        raise ValueError("order must be >= 0")
    x = float(x)
    if x < 0.0:
        raise ValueError("argument must be >= 0")
    if x > _BESSEL_MAX_ARGUMENT:
        raise ValueError(f"argument {x} exceeds the supported range {_BESSEL_MAX_ARGUMENT}")
    if _in_series_window(order, x):
        value = float(_bessel_series(order, np.array([x]))[0])
    else:
        value = _bessel_miller(order, x)
    return max(-1.0, min(1.0, value))


@dataclasses.dataclass(frozen=True)
class PeterssonTerm:
    """Truncated diagonal value at index m with its rigorous tail radius."""

    m: int
    k: int
    kappa: int
    value: float
    tail_estimate: float
    c_max: int

    def __post_init__(self) -> None:
        if self.tail_estimate < 0.0:
            raise ValueError("tail estimate must be nonnegative")


def _divisor_sum_tail(c_max: int, s: float) -> tuple[float, float]:
    """c_max^{1-s} and a bracket B whose product bounds the sum over c > c_max
    of tau(c) c^{-s}, s > 1.

    Writing tau(c) as a double sum over factorizations c = d*e and bounding
    each e-tail by its first term plus an integral gives
    B = 1 + zeta(3/2) + (1 + log c_max + zeta(3/2))/(s-1) for every s >= 3/2.
    The factors come apart so that delta_tail_bound can take their logs.
    """
    return c_max ** (1.0 - s), (
        1.0 + ZETA_THREE_HALVES + (1.0 + math.log(c_max) + ZETA_THREE_HALVES) / (s - 1.0)
    )


def delta_tail_bound(m: int, kappa: int, c_max: int) -> float:
    """Tail of the c-sum past c_max: Weil times the small-argument J bound.

    |S(m,1;c)|/c <= tau(c) c^{-1/2} and |J_{kappa-1}(y)| <= (y/2)^{kappa-1} /
    (kappa-1)!, giving 2 pi (2 pi sqrt(m))^{kappa-1}/(kappa-1)! times the
    divisor-sum tail at exponent s = kappa - 1/2.  Where a factor leaves
    the double range (the prefactor overflows or c_max^{1-s} underflows) the
    product is taken in log space; ValueError where the bound itself does.
    """
    s = kappa - 0.5
    log_pref = (kappa - 1) * math.log(2.0 * math.pi * math.sqrt(m)) - math.lgamma(kappa)
    power, bracket = _divisor_sum_tail(c_max, s)
    if log_pref < _LOG_DOUBLE_MAX and power >= sys.float_info.min:
        bound = 2.0 * math.pi * math.exp(log_pref) * (power * bracket)
        if math.isfinite(bound):
            return bound
    log_bound = math.log(2.0 * math.pi * bracket) + log_pref + (1.0 - s) * math.log(c_max)
    if log_bound >= _LOG_DOUBLE_MAX:
        raise ValueError(
            f"the tail bound at m={m}, kappa={kappa}, c_max={c_max} is"
            f" exp({log_bound:.1f}), beyond the double range"
        )
    return math.exp(log_bound)


def default_c_max(m: int) -> int:
    """max(1000, ceil(8 pi sqrt(m))): always inside the rigorous tail regime."""
    return max(1000, math.ceil(8.0 * math.pi * math.sqrt(m)))


def petersson_deltas(
    ms: Sequence[int], k: int, kappa: int, c_max: int | None = None
) -> list[PeterssonTerm]:
    """Truncated diagonal terms for every m in ms, one pass over the moduli.

    The term at m is [m = 1] + 2 pi (-1)^{kappa/2} times the sum over
    c <= c_max with k | c of S(m,1;c)/c J_{kappa-1}(4 pi sqrt m / c).
    The moduli go in blocks of consecutive c whose cutoffs reach the same
    m, each block one _kloosterman_block call of at most _BLOCK count
    entries (indices times the block's total width; a modulus alone may
    pass that), with one dict of count tables for the sweep.  Each m's
    sums are kept, 8 bytes a modulus; after the sweep its J values come
    from one series-kernel pass over its arguments inside the series
    window, and from bessel_j for the rest.  Each m keeps its own cutoff
    (default_c_max(m) when c_max is None), tail bound (of the truncation
    only) and warning, and its term is the same double it would be alone:
    every summand is the same expression and the c-sum is exactly rounded by
    math.fsum.  i^kappa is evaluated as (-1)^{kappa/2}; no complex
    arithmetic appears.  Warns for each m with c_max <= 4 pi sqrt(m), where
    the reported tail bound is not yet in its provably decreasing regime.
    Cutoffs must be below 2**31.  Every check, the tail bounds and the
    Bessel argument bound included, runs before the sweep, so a bound past
    the double range is refused before any Kloosterman sum.
    """
    if any(m < 1 for m in ms):
        raise ValueError("m must be >= 1")
    if k < 1:
        raise ValueError("k must be >= 1")
    _check_weight(kappa)
    c_maxes = [default_c_max(m) if c_max is None else c_max for m in ms]
    if any(top < k for top in c_maxes):
        raise ValueError("c_max must be >= k")
    if any(top >= MODULUS_LIMIT for top in c_maxes):
        raise ValueError("c_max must be < 2**31")
    tails = [delta_tail_bound(m, kappa, top) for m, top in zip(ms, c_maxes)]
    roots = [4.0 * math.pi * math.sqrt(m) for m in ms]
    for root in roots:
        if root / k > _BESSEL_MAX_ARGUMENT:  # bessel_j's refusal at the first modulus
            raise ValueError(f"argument {root / k} exceeds the supported range {_BESSEL_MAX_ARGUMENT}")
    for top, root in zip(c_maxes, roots):
        if top <= root:
            warnings.warn(
                f"c_max={top} is not beyond 4*pi*sqrt(m)={root:.1f};"
                " the tail estimate is not yet rigorous",
                stacklevel=2,
            )
    sums = [array("d") for _ in ms]  # each index's Kloosterman sums, 8 bytes a modulus
    tables: dict = {}  # count tables of the small prime powers, for this sweep only
    c, end = k, max(c_maxes, default=0)
    while c <= end:
        live = [i for i, top in enumerate(c_maxes) if c <= top]
        last = min(c_maxes[i] for i in live)  # the live indices stay live up to here
        block, width = [], 0
        while c <= last and (not block or len(live) * (width + c) <= _BLOCK):
            block.append(c)
            width += c
            c += k
        flat = _kloosterman_block([ms[i] for i in live], 1, block, tables)
        for row, i in enumerate(live):
            sums[i].extend(flat[row * len(block):(row + 1) * len(block)])
    order = kappa - 1
    sign = -1.0 if (kappa // 2) % 2 else 1.0
    out = []
    for m, top, s, tail, root in zip(ms, c_maxes, sums, tails, roots):
        cs = np.arange(k, top + 1, k)
        x = root / cs
        j = np.empty(x.size)
        series = _in_series_window(order, x)
        j[series] = np.clip(_bessel_series(order, x[series]), -1.0, 1.0)
        j[~series] = [bessel_j(order, y) for y in x[~series].tolist()]
        terms = np.frombuffer(s) / cs * j  # S(m, 1; c) / c J(4 pi sqrt(m) / c), as each c alone
        value = (1.0 if m == 1 else 0.0) + 2.0 * math.pi * sign * math.fsum(terms.tolist())
        out.append(PeterssonTerm(m=m, k=k, kappa=kappa, value=value, tail_estimate=tail, c_max=top))
    return out


def petersson_delta(m: int, k: int, kappa: int, c_max: int | None = None) -> PeterssonTerm:
    """The truncated diagonal term at one index m, with its tail radius.

    petersson_deltas([m], ...)[0]; a sweep over many m should call
    petersson_deltas once, which shares each modulus's Kloosterman work
    across the sweep and returns the same terms.
    """
    return petersson_deltas([m], k, kappa, c_max)[0]


def old_part_terms(
    p: int,
    k: int,
    q: int,
    kappa: int,
    ell_max: int,
    c_max: int,
) -> list[tuple[int, PeterssonTerm]]:
    """Per-level pieces (ell, diagonal at p^k ell^2) for ell in {1, q, q^2, ...} <= ell_max.

    Warns once when the largest Bessel argument 4 pi sqrt(p^k) ell crosses
    the accuracy guard; terms are still evaluated.
    """
    if not is_prime(p):
        raise ValueError("p must be prime")
    if not is_prime(q):
        raise ValueError("q must be prime")
    if p == q:
        raise ValueError("p must differ from q")
    if k < 1:
        raise ValueError("k must be >= 1")
    if ell_max < 1:
        raise ValueError("ell_max must be >= 1")
    ells = []
    ell = 1
    while ell <= ell_max:
        ells.append(ell)
        ell *= q
    top_argument = 4.0 * math.pi * math.sqrt(p**k) * ells[-1]
    if top_argument > BESSEL_ARGUMENT_GUARD:
        warnings.warn(
            f"largest Bessel argument {top_argument:.1f} exceeds the accuracy"
            f" guard {BESSEL_ARGUMENT_GUARD}; values beyond it carry no 1e-10 claim",
            stacklevel=2,
        )
    deltas = petersson_deltas([p**k * ell * ell for ell in ells], 1, kappa, c_max)
    return list(zip(ells, deltas))


def old_part_sum(pieces: list[tuple[int, PeterssonTerm]]) -> float:
    """sum of (1/ell) * diagonal(p^k ell^2) over the pieces old_part_terms returns."""
    return math.fsum(term.value / ell for ell, term in pieces)
