"""Trace-formula numerics: Kloosterman sums, Bessel J, truncated diagonals.

Kloosterman sums are exact (residue counts in integer arithmetic, cosines
summed in double precision).  A sweep takes its moduli in blocks of
consecutive moduli that serve the same indices, at least _BLOCK_MODULI of
them where the count matrix allows: a block builds every index's counts
side by side, takes all its cosines in one call, cuts them (forms._split)
into pieces on a common grid and sums each (index, modulus) exactly before
one final rounding, so any block gives the same doubles as one modulus
alone.  A sweep builds each count table once and keeps it, in its narrowest
unsigned integer type, while a later modulus of the sweep can read it.
Bessel J switches between the power series, an array kernel that keeps
each entry's own terms, and Miller's backward recurrence.  The truncated
diagonal term carries a rigorous bound on its truncation tail, built from
the Weil bound and the small-argument Bessel bound; that radius does not
cover the rounding of the computed terms.  A sweep stops summing an index
once a certificate, a hyperbola-split bound on the same tail widened for
those roundings, proves that the moduli left cannot change its double.
"""

from __future__ import annotations

import dataclasses
import math
import sys
import warnings
from collections.abc import Sequence
from fractions import Fraction
from itertools import accumulate

import numpy as np

from .forms import _BLOCK, _check_weight, _exact_parts, _factorization, _libm, _split, is_prime

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
# Moduli a sweep's block takes while its count matrix stays within
# COUNT_ENTRIES, even past _BLOCK entries: the per-block cost is paid fewer
# times, and no block is split into chunks of rows for it.
_BLOCK_MODULI = 16
# Series entries of one chunk of _bessel_series, each keeping at most 200
# terms; a sweep's look-ahead J pass takes at least this many entries.
_SERIES_CHUNK = 128
# Rows of one chunk in _grid_sums: a grid piece's products are held for at
# most this many rows of the weights at a time, whatever the number of rows.
_GRID_ROWS = 16

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


def _narrowed(table: np.ndarray) -> np.ndarray:
    """table in the narrowest unsigned type that holds its largest count."""
    return table.astype(np.min_scalar_type(table.max()))


def _kloosterman_block(
    ms: Sequence[int], n: int, cs: Sequence[int], tables: dict, last: int
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
    that c alone gives.  tables serves one ms and one n: it keeps, keyed by
    q alone, the count table of every prime power q || c that a later
    modulus up to last can read again (c + q <= last), so a sweep to last
    builds each table once.  ms is taken in chunks of COUNT_ENTRIES //
    sum(cs) rows (at least one), each chunk with a dict of its own that ends
    with the call, so tables holds no chunk's table.  A kept table takes the
    narrowest unsigned type that holds its largest count, so it stays
    exact: one byte a count at an odd prime p not dividing n, where counts
    are at most 2, and never more than four bytes (a count is below q <
    2^31).  Kept tables have q <= last / 2, so they hold a row per m of the
    sum of those prime powers q, about (last/2)^2 / (2 log(last/2)) counts
    at about a byte each: 290,851 counts a row at last = 4000 (0.29 MB),
    and 1.05 MB and 8.97 MB a row at last = 7,948 and 25,133, the default
    cutoffs of m = 10^5 and 10^6.
    """
    if len(ms) == 0:
        return []
    width = sum(cs)
    rows = max(1, COUNT_ENTRIES // width)
    if len(ms) > rows:
        chunks = (_kloosterman_block(ms[i:i + rows], n, cs, {}, last) for i in range(0, len(ms), rows))
        return [s for chunk in chunks for s in chunk]
    counts = np.empty((len(ms), width))
    edges = list(accumulate(cs, initial=0))  # each modulus's first column, then the width
    for c, offset in zip(cs, edges):
        view = counts[:, offset:offset + c]
        if c == 1:
            view[...] = 1.0  # the one unit 0
        for number, (p, e) in enumerate(_factorization(c).items()):
            q = p**e
            table = tables.get(q)
            if table is None:
                table = _count_table(ms, n, q, p)
                if c + q <= last:
                    table = tables[q] = _narrowed(table)
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

    bounds runs from 0 to the number of columns, and no segment is empty.
    weights holds nonnegative integers, each row's segment summing below
    2^bits (bits <= 50), and |cosines| <= 1.  forms._split cuts the cosines
    exactly into pieces on the grids 2^-b, 2^-2b, ... with b = 51 - bits, each
    at most 2^b grid units, so every partial sum of a segment's piece sum is
    an integer below 2^51 units, exact in any order, and math.fsum of its
    few piece sums is exactly rounded.  Each piece, as the split yields it,
    takes one np.add.reduceat over the segment starts (numpy's loop, no BLAS)
    per _GRID_ROWS rows: one piece and one chunk of products at a time.
    """
    sums = []  # each piece's sums, by row and segment
    for piece in _split(cosines, 0, 51 - bits):
        chunks = (slice(top, top + _GRID_ROWS) for top in range(0, len(weights), _GRID_ROWS))
        sums.append(np.concatenate([np.add.reduceat(weights[c] * piece, bounds[:-1], axis=1) for c in chunks]))
    return [math.fsum(s) for s in np.stack(sums, axis=-1).reshape(-1, len(sums)).tolist()]


def kloosterman_sums(ms: Sequence[int], n: int, c: int) -> list[float]:
    """Exact S(m, n; c) for every m in ms, from the multiplicities of the residues.

    S(m, n; c) = sum over k mod c of N(k) cos(2 pi k / c), where N(k) counts
    the units x with m x + n x^-1 = k mod c (x <-> -x makes the sum real).
    N is the CRT product of _count_table over the prime powers q || c, in
    exact integers, and the one-modulus block of _kloosterman_block sums it
    against the cosines exactly before one final rounding.  So each value is
    the per-unit sum's double, whichever ms share c or whichever moduli
    share a block.  |S| <= phi(c).  No count table outlives the call: only
    a sweep (petersson_deltas) has later moduli to read one again.
    """
    if c < 1:
        raise ValueError("modulus must be >= 1")
    if c >= MODULUS_LIMIT:
        raise ValueError(f"modulus {c} must be < 2**31 for exact int64 residues")
    return _kloosterman_block(ms, n, [c], {}, c)


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
    of the array kernel _bessel_series; petersson_deltas hands the kernel a
    look-ahead window's series arguments at once and calls bessel_j for the
    rest only, so each J is the same double either way.
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


def _log_hyperbola_tail(x: int, s: float) -> float:
    """log of a bound on T(x), the sum of tau(n) n^{-s} over n > x, s > 1, x >= 1.

    With u = isqrt(x), (u + 1)^2 > x, and the pairs d e > x with d <= u, with
    e <= u < d and with d, e > u split T(x) = 2 sum_{d<=u} d^{-s} sum_{e>x/d}
    e^{-s} + (sum_{d>u} d^{-s})^2 (Dirichlet's hyperbola method; Apostol,
    Introduction to Analytic Number Theory, 3.5).  As t^{-s} is convex,
    sum_{e>=N} e^{-s} <= (N - 1/2)^{1-s}/(s-1) (Hermite-Hadamard); N > x/d,
    so a d <= u adds at most (x - u/2)^{1-s}/(d (s-1)), and H_u <= 1 + log u:
    T(x) <= 2 (1 + log u)(x - u/2)^{1-s}/(s-1) + ((u + 1/2)^{1-s}/(s-1))^2,
    its terms added in log space, where neither leaves the double range."""
    u = math.isqrt(x)
    near = math.log(2.0 * (1.0 + math.log(u)) / (s - 1.0)) + (1.0 - s) * math.log(x - u / 2)
    far = 2.0 * ((1.0 - s) * math.log(u + 0.5) - math.log(s - 1.0))
    return max(near, far) + math.log1p(math.exp(-abs(near - far)))


def _log_prefactor(m: int, kappa: int) -> float:
    """log of (2 pi sqrt(m))^{kappa-1}/(kappa-1)!, the factor of the tail bounds."""
    return (kappa - 1) * math.log(2.0 * math.pi * math.sqrt(m)) - math.lgamma(kappa)


def delta_tail_bound(m: int, kappa: int, c_max: int) -> float:
    """Tail of the c-sum past c_max: Weil times the small-argument J bound.

    |S(m,1;c)|/c <= tau(c) c^{-1/2} and |J_{kappa-1}(y)| <= (y/2)^{kappa-1} /
    (kappa-1)!, giving 2 pi (2 pi sqrt(m))^{kappa-1}/(kappa-1)! times the
    divisor-sum tail at exponent s = kappa - 1/2.  Where a factor leaves
    the double range (the prefactor overflows or c_max^{1-s} underflows) the
    product is taken in log space; ValueError where the bound itself does.
    """
    s = kappa - 0.5
    log_pref = _log_prefactor(m, kappa)
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


# The widening of the tail bound in the early-stop certificate; see petersson_deltas.
_TAIL_WIDENING = 1 + Fraction(1, 2**20)


def _settled(parts: list[float], tail: Fraction | float) -> bool:
    """Whether every real parts + r with |r| <= tail rounds to math.fsum(parts).

    D = math.fsum(parts) and rho, the exact remainder of the parts past D,
    must leave D + rho + r strictly inside the half gaps to D's neighbours;
    where |D| is a power of two the gap toward zero is half the other.  A
    tie is never settled, and neither is D = 0.  (A c-sum has |D| <= c_max
    < 2**31, so both neighbours are finite.)
    """
    total = math.fsum(parts)
    if not total:
        return False
    tail, centre = Fraction(tail), Fraction(total)
    rest = sum(map(Fraction, parts)) - centre
    above = (Fraction(math.nextafter(total, math.inf)) - centre) / 2
    below = (centre - Fraction(math.nextafter(total, -math.inf))) / 2
    return rest + tail < above and rest - tail > -below


def _settled_at(m: int, kappa: int, c: int, root: float, parts: list[float]) -> bool:
    """Whether index m's c-sum through modulus c is certified final: past the
    window c <= 4 pi sqrt(m), where the bound does not overflow, the later
    terms sum to at most the prefactor times the hyperbola bound on T(c),
    widened, and _settled holds for that radius.  Below the normal range the
    rounding is not relative, but the bound stays below the least normal
    double, so twice that covers it.  A bound of an ulp of the sum or more
    never certifies: _settled refuses it."""
    if c <= root:
        return False
    tail = max(math.exp(_log_prefactor(m, kappa) + _log_hyperbola_tail(c, kappa - 0.5)), 2.0 * sys.float_info.min)
    if tail >= math.ulp(math.fsum(parts)):
        return False
    return _settled(parts, _TAIL_WIDENING * Fraction(tail))


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
    m, each block one _kloosterman_block call.  A block takes moduli while
    its count entries (indices times the block's total width) stay within
    _BLOCK, and up to _BLOCK_MODULI moduli while they stay within
    COUNT_ENTRIES, so no block is cut into chunks of rows for its length; a
    modulus alone may pass both.  One dict of count tables, keyed by prime
    power, serves the sweep's live rows: a table stays while a modulus up to
    the largest live cutoff can read it again, and when indices leave every
    table keeps the rows of those that stay, so each table is built once.
    J comes from look-ahead passes: a block that needs J values not yet
    computed takes them for every live m over its moduli and the next ones,
    at least _SERIES_CHUNK entries and never past the smallest live cutoff,
    in one series-kernel pass over the arguments inside the series window
    and from bessel_j for the rest.  The next blocks read the rest of that
    window, and an m's row goes when the m leaves the sweep.  Each m folds its
    few dozen terms a block into its _exact_parts (too few for forms._fold to
    pay), a few floats whose exact sum is its c-sum so far.  Each m keeps its
    own cutoff (max(default_c_max(m), k) when c_max is None), tail bound (of the
    declared truncation only) and warning, and its term is the same double it
    would be alone: every summand is the same expression, each J the same
    double whatever window it was computed in, and the c-sum is exactly
    rounded by math.fsum.  i^kappa is evaluated as (-1)^{kappa/2}; no complex
    arithmetic appears.

    An m leaves the sweep before its cutoff once a certificate proves that
    the terms still to come cannot change the double of its c-sum, so it
    sums fewer moduli to the same value; c_max and tail_estimate still
    describe the declared truncation.  At the end of a block at modulus c,
    past 4 pi sqrt(m) and below the cutoff, every later term has argument
    below 1 and takes the series route, and their sum is at most T = P H,
    widened by 1 + 2^-20: P = (2 pi sqrt(m))^{kappa-1}/(kappa-1)! times H,
    _log_hyperbola_tail's bound on the divisor-sum tail past c.  The
    widening covers, with a wide margin, what T leaves out: the libm
    cosines of a computed S, each within 2^-48 of cos(2 pi k / c), so that
    the computed |S| is at most tau(c) sqrt(c) + phi(c) 2^-48, less than
    2^-32 above the Weil bound for c < 2^31, before its one rounding; the
    computed argument and series of J, within about 3 kappa ulps of
    (x/2)^{kappa-1}/(kappa-1)!; the two roundings of S / c * J; and the
    bound's own exp, log, log1p and lgamma, its log-space exponents below
    2^22 in size for kappa < 10^5.  The m stops if its partial sum D plus
    its exact remainder rho stays, with +-T, strictly inside the half gaps
    to D's two neighbours (_settled): a tie never stops, and D = 0 never
    does.  An m that never certifies sums to its cutoff.

    Warns for each m with c_max <= 4 pi sqrt(m), where the reported tail
    bound is not yet in its provably decreasing regime.  Cutoffs must be
    below 2**31.  Every check, the tail bounds and the Bessel argument
    bound included, runs before the sweep, so a bound past the double range
    is refused before any Kloosterman sum.
    """
    if any(m < 1 for m in ms):
        raise ValueError("m must be >= 1")
    if k < 1:
        raise ValueError("k must be >= 1")
    _check_weight(kappa)
    c_maxes = [max(default_c_max(m), k) if c_max is None else c_max for m in ms]
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
    order = kappa - 1
    sign = -1.0 if (kappa // 2) % 2 else 1.0
    parts: list[list[float]] = [[] for _ in ms]  # each index's c-sum so far, as _exact_parts
    tables: dict = {}  # count tables that later moduli read, for this sweep only
    live = list(range(len(ms)))
    ahead, first = np.empty((len(ms), 0)), k  # each live index's J at moduli first, first + k, ...
    c = k
    while live:
        last = min(c_maxes[i] for i in live)  # no live index passes its cutoff before here
        block, width = [], 0
        while c <= last:
            budget = COUNT_ENTRIES if len(block) < _BLOCK_MODULI else _BLOCK
            if block and len(live) * (width + c) > budget:
                break
            block.append(c)
            width += c
            c += k
        flat = _kloosterman_block([ms[i] for i in live], 1, block, tables, max(c_maxes[i] for i in live))
        start = (block[0] - first) // k
        if start + len(block) > ahead.shape[1]:
            # a look-ahead pass: this block's moduli and the next ones, at
            # least _SERIES_CHUNK entries, never past the smallest live cutoff
            count = min(max(len(block), -(-_SERIES_CHUNK // len(live))), (last - block[0]) // k + 1)
            cs = np.arange(block[0], block[0] + count * k, k)
            x = np.array([roots[i] for i in live])[:, None] / cs
            ahead, first, start = np.empty(x.shape), block[0], 0
            series = _in_series_window(order, x)
            ahead[series] = np.clip(_bessel_series(order, x[series]), -1.0, 1.0)
            ahead[~series] = [bessel_j(order, y) for y in x[~series].tolist()]
        j = ahead[:, start:start + len(block)]
        # S(m, 1; c) / c J(4 pi sqrt(m) / c), as each c alone
        terms = np.array(flat).reshape(j.shape) / np.array(block) * j
        for i, row in zip(live, terms.tolist()):
            parts[i] = _exact_parts(parts[i] + row)
        going = [
            c <= c_maxes[i] and not _settled_at(ms[i], kappa, block[-1], roots[i], parts[i])
            for i in live
        ]
        live = [i for i, goes in zip(live, going) if goes]
        ahead = ahead[going]
        if live and not all(going):
            tables = {q: table[going] for q, table in tables.items()}
    out = []
    for m, top, tail, total in zip(ms, c_maxes, tails, parts):
        value = (1.0 if m == 1 else 0.0) + 2.0 * math.pi * sign * math.fsum(total)
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
