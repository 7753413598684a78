"""Synthetic local data for a holomorphic form and its symmetric powers.

A SyntheticForm carries a prime level and a seeded, reproducible map
prime -> Satake angle in [0, pi].  Angles are derived from
BLAKE2b(seed:prime) pushed through the inverse CDF of the chosen
distribution.  The uniform draws are the same on every platform; the
angles are decided with the C library's math.sin, so a (seed,
distribution) pair gives bit-identical angles wherever that library is the
same.  The Sato-Tate inverse CDF equals the scalar 64-step bisection bit
for bit (see ``_sato_tate_inverse_cdf``).  Where F, computed with
math.sin, provably does not decrease over the bisection's bracket after 12
steps (about nine draws in ten, found by two comparisons), two Newton steps
from a start table propose the root and math.sin at two adjacent floats
certifies it as the bisection's own.  The other draws of a batch are
pooled: one table lookup takes their first 12 steps, and the remaining 52
run on numpy arrays, redoing with math.sin every comparison that np.sin
could decide differently.  The prime walk draws one batch per sieve
segment, through a small cache of the last few batches.

Three decisions live here for every module: how long a pass is, which
library computes an elementary function, and how an exact sum is kept.  A
long pass over a prime-indexed array goes _BLOCK = 8192 entries at a time
(``_blocks``, ``_items``, ``_blockwise``), so its temporaries stay in cache
and its working set stays bounded.  A value that a scalar formula takes from
the C library (math.sin, math.log) comes through ``_libm``, never numpy.  An
exact sum is a few floats (``_exact_parts``) that arrays fold into through
``_fold``, whose split ``_split`` also cuts the Kloosterman cosines.

Also here: eigenvalue powers via the sine ratio, and the admissible test
function the CLI uses, the Fejer kernel (``tests/sampled_kernel.py`` builds
the other kind, a transform sampled on a grid, on the same TestFunction).
Each prime-side formula (angle, eigenvalue ratio, window transform) has
one definition, an array kernel; ``SyntheticForm.angle`` and
``TestFunction.phi_hat`` check their input and call it on a one-element
array, at microseconds a call (a certified root or a whole bisection for an
angle), so loops pass arrays.  The eigenvalue kernel ``_eigenvalue_powers``
has no scalar form: criterion 02 of the acceptance gate holds it against
three scalar routes of the unit power sum, kept in the tests.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import itertools
import math
from fractions import Fraction
from typing import Callable, Iterator

import numpy as np

DISTRIBUTIONS = ("sato-tate", "uniform")

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)

# The least strong pseudoprime to every base in _SMALL_PRIMES (psi_13;
# Sorenson and Webster, Math. Comp. 86, 2017): the test is proven below it.
MILLER_RABIN_BOUND = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin with bases 2..41, exact for every n below
    MILLER_RABIN_BOUND (about 3.3e24); ValueError at or above it."""
    n = int(n)  # accept numpy integers; 3-arg pow needs plain ints
    if n >= MILLER_RABIN_BOUND:
        raise ValueError(
            f"{n} is not below {MILLER_RABIN_BOUND}, the proven range of the primality test"
        )
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _SMALL_PRIMES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


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


# Entries one pass over a long array takes at a time: a block's dozen float64
# arrays stay in L2 cache, and its Python objects stay few.
_BLOCK = 1 << 13


def _blocks(x: np.ndarray) -> Iterator[np.ndarray]:
    """Consecutive _BLOCK-entry views of the 1-d array x, the last one shorter."""
    return (x[i : i + _BLOCK] for i in range(0, x.size, _BLOCK))


def _items(x: np.ndarray) -> Iterator:
    """The entries of the 1-d array x as ``x.tolist()`` gives them, a block at a time.

    A map or a math.fsum over a long array then holds one block of Python
    objects instead of one per entry (about 40 bytes each, list slot included).
    """
    return itertools.chain.from_iterable(block.tolist() for block in _blocks(x))


def _blockwise(kernel: Callable[[np.ndarray], np.ndarray], x: np.ndarray) -> np.ndarray:
    """kernel(block) for each block of x, written into one float64 array of x's size.

    For a kernel whose every output entry depends on its own input entry
    alone, this equals kernel(x), while the kernel's temporaries stay a
    block long whatever the size of x.
    """
    out = np.empty(x.size)
    for block, target in zip(_blocks(x), _blocks(out)):
        target[...] = kernel(block)
    return out


def _libm(f: Callable[[float], float], x: np.ndarray) -> np.ndarray:
    """f (math.sin, math.log, ...) of every entry of x, as a float64 array.

    The math module calls the C library, and that is the value every scalar
    formula and recorded digest of this package was taken with; the numpy
    ufuncs (np.sin, np.log) have their own implementations, which may differ
    from it in the last bit.  Entries go through Python a block at a time;
    an array of one block maps its one ``tolist()``, with no generator set up.
    """
    items = x.tolist() if x.size <= _BLOCK else _items(x)
    return np.fromiter(map(f, items), np.float64, x.size)


def _exact_parts(terms: list[float]) -> list[float]:
    """A few floats whose exact sum is that of terms, a short list that this extends.

    Each is math.fsum of terms and the negated parts before it: the exact
    remainder rounded once, 0.0 once nothing remains (ArithmeticError at NaN, inf).
    """
    parts = []
    while part := math.fsum(terms):
        if not math.isfinite(part):
            raise ArithmeticError(f"an exact sum cannot hold {part}")
        parts.append(part)
        terms.append(-part)
    return parts


def _split(x: np.ndarray, top: int, bits: int) -> Iterator[np.ndarray]:
    """Pieces of the float64 array x, |x| <= 2**top, that sum to x exactly.

    The k-th piece is what x less the pieces before it leaves, rounded to the
    nearest multiple of the grid 2**max(top - k bits, -1074) (Rump, Ogita and
    Oishi, SIAM J. Sci. Comput. 31, 2008): exact subtractions, and integers of
    at most 2**bits grid units.  One piece comes at least, ceil((top - low)
    / bits) at most, 2**low the least bit set in x (27 at top = 0, bits = 40
    beside a subnormal), and never over ceil((top + 1074) / bits), NaN or not.
    """
    rest = x
    for k in range(1, -(-(top + 1074) // bits) + 1):
        grid = math.ldexp(1.0, max(top - k * bits, -1074))
        piece = rest / grid
        np.rint(piece, out=piece)
        piece *= grid
        rest = np.subtract(rest, piece, out=None if rest is x else rest)  # x itself stays
        yield piece
        if not rest.any():
            return


def _fold(parts: list[float], terms: np.ndarray) -> list[float]:
    """_exact_parts of parts and every entry of the float64 array terms.

    Each block of at most _BLOCK = 2**13 terms is split, 40 bits a piece below
    the power of two over its largest magnitude, so np.add.reduce sums each
    piece below 2**53 units, exactly, and _exact_parts folds those few sums.
    ArithmeticError at a NaN, an inf or 2**1010, where a piece sum may overflow.
    """
    for block in _blocks(terms):
        largest = float(np.max(np.abs(block)))
        if not largest < 2.0**1010:
            raise ArithmeticError(f"a term of magnitude {largest} is outside the exact fold's range")
        pieces = _split(block, math.frexp(largest)[1], 53 - (_BLOCK.bit_length() - 1))
        parts = _exact_parts(parts + [float(np.add.reduce(piece)) for piece in pieces])
    return parts


# Bisection steps that one lookup in _head_table replaces.
_HEAD_LEVELS = 12


def _units_from_digests(words: np.ndarray) -> np.ndarray:
    """(n + 0.5) / 2**64 for every uint64 n in words, as Python computes it.

    Python first rounds n to a double, to nearest with ties to even, and so
    does hi * 2**32 + lo, one IEEE addition of the exact 32-bit halves of n;
    a cast of n itself would round as the C implementation chooses."""
    hi = (words >> 32).astype(np.float64)
    lo = (words & 0xFFFFFFFF).astype(np.float64)
    return (hi * 2.0**32 + lo + 0.5) / 2.0**64


def _uniform_units(seed: int, primes: np.ndarray) -> np.ndarray:
    """Stable uniform draws in (0, 1], one per prime p, keyed by (seed, p).

    Each draw is the 64-bit BLAKE2b digest of "seed:p" read big-endian; the
    digests come from one hash of the prefix "seed:" copied and fed b"%d" % p,
    which BLAKE2b, a streaming hash, makes identical to hashing the whole
    string.  Each block's digests are joined and read as big-endian uint64.
    """
    copy = hashlib.blake2b(f"{seed}:".encode(), digest_size=8).copy

    def units(block: np.ndarray) -> np.ndarray:
        digests = []
        for p in block.tolist():
            h = copy()
            h.update(b"%d" % p)
            digests.append(h.digest())
        return _units_from_digests(np.frombuffer(b"".join(digests), ">u8"))

    return _blockwise(units, primes)


# A comparison of the bisection that np.sin may decide differently from
# math.sin is redone with math.sin; see _sato_tate_inverse_cdf.
BISECTION_MARGIN = 2.0**-51

# R = [_MONOTONE_LO, _MONOTONE_HI], where F taken with math.sin does not
# decrease from one float to the next; the upper end lies below
# pi - asin(2**-1.5) = 2.78022...  See _sato_tate_inverse_cdf.
_MONOTONE_LO = math.pi / 4
_MONOTONE_HI = 2.78

# Newton steps from the start table that propose a root in R, and one-float
# moves that may then certify it before the entry falls back to the bisection.
_NEWTON_STEPS = 2
_WALK_STEPS = 4

# Newton starts from F^-1 at u = j / _STARTS, j = 0.._STARTS (_start_table).
_STARTS = 1 << 12


def _cdf(t: np.ndarray) -> np.ndarray:
    """F(t) = (2t - sin 2t) / (2 pi) at every entry of t, with math.sin, as the loop forms it."""
    two_t = 2.0 * t
    return (two_t - _libm(math.sin, two_t)) / (2.0 * math.pi)


@functools.cache
def _head_table() -> tuple[np.ndarray, np.ndarray]:
    """The points [0, pi] and the midpoints its first _HEAD_LEVELS bisection
    steps reach, in order and each formed as the loop forms it, and F at the
    midpoints with math.sin; ArithmeticError unless F strictly increases."""
    grid = np.array([0.0, math.pi])
    for _ in range(_HEAD_LEVELS):
        grid = np.insert(grid, np.arange(1, grid.size), 0.5 * (grid[:-1] + grid[1:]))
    head = _cdf(grid[1:-1])
    if not np.all(head[:-1] < head[1:]):
        raise ArithmeticError("the Sato-Tate head table is not strictly increasing")
    grid.flags.writeable = head.flags.writeable = False  # shared by every caller
    return grid, head


@functools.cache
def _start_table() -> tuple[np.ndarray, np.ndarray]:
    """Newton's starting points t_j at u = j / _STARTS, j = 0.._STARTS, and
    the slopes t_{j+1} - t_j, the last 0 so that u = 1 reads a slope too.

    t_j is the linear interpolant of the head table's points, F = 0 at 0 and
    F = 1 at pi included, at u = j / _STARTS: no new sine, and Newton only
    proposes, so a table built under another math.sin still serves."""
    grid, head = _head_table()
    starts = np.interp(np.arange(_STARTS + 1) / _STARTS, np.concatenate(([0.0], head, [1.0])), grid)
    slopes = np.diff(starts, append=math.pi)
    starts.flags.writeable = slopes.flags.writeable = False  # shared by every caller
    return starts, slopes


def _sato_tate_inverse_cdf(u: np.ndarray) -> np.ndarray:
    """Solve F(t) = (2t - sin 2t) / (2 pi) = u for every entry of u in (0, 1].

    Every result is the scalar loop's: 64 bisection steps that halve
    [lo, hi] = [0, pi] by setting lo = mid if F(mid) < u and hi = mid
    otherwise, with math.sin (F is strictly increasing, so 64 halvings pin
    each root to ~5e-19).  ``_root_block`` certifies about nine entries in ten
    directly, _BLOCK at a time, as each depends on itself alone, and leaves
    the others unwritten; those of the whole batch are pooled, and each pool
    of at most _BLOCK takes its head brackets and runs the loop in
    ``_bisect_block``.

    The head.  The first _HEAD_LEVELS steps are a binary search over F at the
    midpoints of ``_head_table``, taken with math.sin, which decides every
    comparison of the loop (below).  F is strictly increasing there, so the
    search ends in the bracket numbered by the count of table values below
    u, which is np.searchsorted(head, u, "left").  That bracket is still
    pi / 4096 wide, far above one ulp, so no entry can leave the loop inside
    the head.

    The bisection.  Each later step of ``_bisect_block`` evaluates F(mid) on
    the block with np.sin, then redoes with math.sin every entry where
    |F(mid) - u| <= BISECTION_MARGIN, so every comparison, and so every
    result, is the one the loop with math.sin makes.

    Why the margin suffices.  Assume np.sin and math.sin are each within 1 ulp
    of sin, hence within 2^-53 of it, since |sin| <= 1.  The two sines then
    differ by at most 2^-52.  Doubling mid is exact, and the subtraction and
    the division are correctly rounded in numpy and in Python alike.  With
    d = 2 mid - sin 2 mid < 8, the two values of d differ by at most
    2^-52 + ulp(d) <= 5 * 2^-52, and after dividing by 2 pi and rounding the
    two values of F differ by less than 5 * 2^-52 / 6.28 + 2^-53 < 1.3 * 2^-52.
    So wherever |F - u| > 2^-51 (a rounded |F - u| above 2^-51 means the
    exact one is too), both values of F lie strictly on the same side of u.

    An entry leaves the loop, with mid as its result, once mid rounds to lo
    or to hi: F(lo) < u and F(hi) >= u hold with math.sin (lo was set by
    that comparison or is 0, where F = 0; hi was set by it or is pi, where
    F = 1), so every later step would keep lo and hi, and mid, as they are.

    The certified root.  Let a <= b be the first and the last grid point of
    ``_head_table`` in R = [_MONOTONE_LO, _MONOTONE_HI], with F(a) and F(b)
    from the table (F = 0 at 0 and F = 1 at pi).  The head bracket lies in R
    exactly where F(a) < u <= F(b): two comparisons, no search.  There
    ``_root_block`` skips the loop.  Newton's method with np.sin and np.cos,
    _NEWTON_STEPS steps from the linear interpolant of ``_start_table``,
    proposes a float x in [a, b].  F with math.sin at x and at the next float
    x+ then accepts x if F(x) < u <= F(x+); if not, x moves one float toward
    the crossing, up to _WALK_STEPS times, and an entry still not accepted
    falls back to the loop.  The result is 0.5 * (x + x+).  Newton only
    proposes: every comparison that decides a result is made with math.sin.

    Why that is the loop's result.  Let s = math.sin, within 2^-53 of sin as
    above, and F(t) = (2t - s(2t)) / (2 pi) as computed.  For consecutive
    floats t < t' in R, t' - t >= ulp(t), and for some xi in (t, t') the
    exact (2t' - sin 2t') - (2t - sin 2t) is 4 (t' - t) sin^2 xi, so
    (2t' - s(2t')) - (2t - s(2t)) >= 4 ulp(t) sin^2 xi - 2^-52.  That is
    >= 0: on [pi/4, 1) ulp(t) = 2^-53 and sin^2 xi >= 1/2; on [1, 2)
    ulp(t) = 2^-52 and sin^2 xi > 1/4; on [2, 2.78] ulp(t) = 2^-51 and
    sin^2 xi > 1/8, as xi < pi - asin(2^-1.5).  The rounded subtraction and
    the rounded division by 2 pi are monotone, so F(t) <= F(t').  (The float
    math.pi / 4 lies just below pi/4 and the float after it above; only
    pairs with t > a matter, as F(a) < u is given.)
    So, as F(a) < u <= F(b), the floats of [a, b] with F < u are those up to
    one float x, the one with F(x) < u <= F(x+): the unique crossing in R,
    and the x that the walk accepts, which stays in [a, b] because it moves
    down only from an x with F(x) >= u and up only from an x+ with
    F(x+) < u.  The head bracket [lo, hi] has F(lo) < u <= F(hi) and lies in
    [a, b], so it holds that crossing: lo <= x < x+ <= hi.  The loop keeps lo
    among the floats with F < u and hi above them, so it can only end on the
    adjacent pair x, x+, with result 0.5 * (x + x+).  And it gets there
    within its 52 steps: a head bracket spans fewer than 2^43 float spacings
    of at least 2^-53, and each step keeps at most half of them, rounded up,
    within one binade, or half plus one where the bracket straddles 1 or 2,
    so the bracket closes to adjacent floats by the 46th step.
    """
    grid, head = _head_table()
    cdf = np.concatenate(([0.0], head, [1.0]))  # F at every grid point
    ends = [int(np.searchsorted(grid, _MONOTONE_LO, "left")), int(np.searchsorted(grid, _MONOTONE_HI, "right")) - 1]
    region = (*grid[ends].tolist(), *cdf[ends].tolist())  # a, b, F(a), F(b)
    out, fallback = np.empty(u.size), np.empty(u.size, dtype=bool)
    for i in range(0, u.size, _BLOCK):
        fallback[i : i + _BLOCK] = _root_block(u[i : i + _BLOCK], out[i : i + _BLOCK], region)
    pool = np.flatnonzero(fallback)
    del fallback  # before the pools' arrays: a batch-long mask is dead weight there
    for index in _blocks(pool):
        v = u[index]
        start = np.searchsorted(head, v, "left")
        out[index] = _bisect_block(v, grid[start], grid[start + 1])
    return out


def _root_block(u: np.ndarray, out: np.ndarray, region: tuple[float, float, float, float]) -> np.ndarray:
    """Write into out the certified root of each entry of u whose head
    bracket lies in R, and return the mask of the others, left unwritten.

    region is (a, b, F(a), F(b)) for the grid points a, b at R's ends (see
    _sato_tate_inverse_cdf)."""
    a, b, f_a, f_b = region
    fallback = (u <= f_a) | (u > f_b)
    index = np.flatnonzero(~fallback)
    v = u[index]
    starts, slopes = _start_table()
    scaled = v * _STARTS
    j = scaled.astype(np.intp)
    t = starts[j] + (scaled - j) * slopes[j]
    for _ in range(_NEWTON_STEPS):
        two_t = 2.0 * t
        step = ((two_t - np.sin(two_t)) / (2.0 * math.pi) - v) * math.pi / (1.0 - np.cos(two_t))
        t = np.clip(t - step, a, b)
    # Newton lands mostly one float above the crossing: start one below.
    x = np.maximum(np.nextafter(t, -np.inf), a)
    x_next = np.nextafter(x, np.inf)
    f, f_next = _cdf(x), _cdf(x_next)
    for move in range(_WALK_STEPS + 1):
        found = (f < v) & (f_next >= v)
        out[index[found]] = 0.5 * (x[found] + x_next[found])
        keep = ~found
        index, v, x, x_next, f, f_next = (arr[keep] for arr in (index, v, x, x_next, f, f_next))
        if not index.size or move == _WALK_STEPS:
            break
        # One float up where F(x+) < u, else one down; the float that the old
        # and the new pair share keeps its F.
        up = f_next < v
        shared = np.where(up, f_next, f)
        x, x_next = (
            np.where(up, x_next, np.nextafter(x, -np.inf)),
            np.where(up, np.nextafter(x_next, np.inf), x),
        )
        fresh = _cdf(np.where(up, x_next, x))
        f, f_next = np.where(up, shared, fresh), np.where(up, fresh, shared)
    fallback[index] = True
    return fallback


def _bisect_block(u: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """The scalar loop's result for each entry of u, from its head bracket
    [lo, hi] (see _sato_tate_inverse_cdf)."""
    out = np.empty_like(u)
    index = np.arange(u.size)
    for _ in range(64 - _HEAD_LEVELS):
        mid = 0.5 * (lo + hi)
        done = (mid == lo) | (mid == hi)
        if np.count_nonzero(done):
            out[index[done]] = mid[done]
            keep = ~done
            lo, hi, mid, u, index = lo[keep], hi[keep], mid[keep], u[keep], index[keep]
            if not index.size:
                return out
        two_mid = 2.0 * mid
        cdf = (two_mid - np.sin(two_mid)) / (2.0 * math.pi)
        close = np.abs(cdf - u) <= BISECTION_MARGIN
        if np.count_nonzero(close):
            cdf[close] = _cdf(mid[close])
        below = cdf < u
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    out[index] = 0.5 * (lo + hi)
    return out


def _draw_angles(seed: int, distribution: str, primes: np.ndarray) -> np.ndarray:
    """The seeded angles at the given primes, one draw each; uncached."""
    u = _uniform_units(seed, primes)
    if distribution == "uniform":
        return u * math.pi
    return _sato_tate_inverse_cdf(u)


@functools.lru_cache(maxsize=4)
def _angle_batch(seed: int, distribution: str, size: int, digest: bytes) -> list[np.ndarray]:
    """The cache slot of one batch of angles: empty until the batch is drawn.

    A batch is keyed by its primes' count and the BLAKE2b digest of their
    int64 bytes, so a cached batch keeps its read-only angles and not a copy
    of its primes.  The prime walk draws one batch per sieve segment, so a
    batch holds at most one segment's primes (155,611 below 10**8) and the
    cache at most four of them.  A walk of at most four segments repeated in
    the same process (the same form again) draws nothing; a longer walk
    evicts its first batches before it reads them again.
    """
    return []


@dataclasses.dataclass(frozen=True)
class SyntheticForm:
    """Seeded stand-in for a newform of prime level q: its Satake angles.

    The prime sums read nothing of a form but its angles, so it carries no
    weight and no root number; pterms checks and reports its --kappa and
    --eps itself.
    """

    q: int
    seed: int
    distribution: str = "sato-tate"

    def __post_init__(self) -> None:
        if not is_prime(self.q):
            raise ValueError(f"level {self.q} is not prime")
        if self.distribution not in DISTRIBUTIONS:
            raise ValueError(f"distribution must be one of {DISTRIBUTIONS}")

    def angle(self, p: int) -> float:
        """Satake angle at p; defined only away from the level.

        Checks that p is a prime other than q, then draws the seeded angle
        as an uncached batch of one: on a 2-core machine about 0.07 ms a call
        for a certified root and 0.4 ms for the 52 bisection steps that about
        one draw in ten takes, on a one-element array, where a batch costs
        about 0.9 us a prime.  Callers that hold many primes away from q (the prime
        sums, a sieve segment at a time) read ``_sieved_angles`` for all of
        them at once, which is cached and skips the Miller-Rabin recheck.
        """
        if p == self.q:
            raise ValueError("angle is undefined at the level prime")
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        # Object dtype: a prime checked by is_prime may exceed int64.
        return float(_draw_angles(self.seed, self.distribution, np.array([p], dtype=object))[0])

    def _sieved_angles(self, primes: np.ndarray) -> np.ndarray:
        """The seeded angles at sieved primes != q; unchecked."""
        primes = np.ascontiguousarray(primes, dtype=np.int64)
        slot = _angle_batch(self.seed, self.distribution, primes.size, hashlib.blake2b(primes).digest())
        if not slot:
            angles = _draw_angles(self.seed, self.distribution, primes)
            angles.flags.writeable = False
            slot.append(angles)
        return slot[0]


def _eigenvalue_powers(theta: np.ndarray, n: int) -> np.ndarray:
    """sin((n+1)t)/sin(t) for every t in theta, which must lie in [0, pi] (unchecked).

    Both sines come from math.sin.  Where sin t < 1e-8 the value is the
    endpoint limit, n+1 at t=0 and (-1)^n (n+1) at t=pi (the omitted
    correction is O(n^2 t^2) ~ 1e-16 there); elsewhere the ratio is clamped
    to the sharp bound |value| <= n+1.
    """
    sines = _libm(math.sin, theta)
    bound = n + 1.0
    edge = sines < 1e-8
    value = _libm(math.sin, (n + 1) * theta) / np.where(edge, 1.0, sines)
    limits = np.where(theta < math.pi / 2, bound, (-1) ** n * bound)
    return np.where(edge, limits, np.clip(value, -bound, bound))


def _check_weight(kappa: int) -> None:
    """ValueError unless kappa is a holomorphic weight: an even integer >= 2."""
    if kappa < 2 or kappa % 2:
        raise ValueError("weight must be an even integer >= 2")


@dataclasses.dataclass(frozen=True)
class TestFunction:
    """Even test function with compactly supported transform.

    phi_hat vanishes outside [-nu, nu]; the Fourier convention is
    phi_hat(u) = integral of phi(x) e^{-2 pi i x u} dx.  nu keeps whatever
    exact type it was built with (Fraction survives) so support comparisons
    against exact rational bounds stay exact.  phi_hat_array, the transform
    on a float64 array, is its one definition.
    """

    nu: float | Fraction
    phi: Callable[[float], float]
    phi_hat_array: Callable[[np.ndarray], np.ndarray]

    def phi_hat(self, u: float) -> float:
        """The transform at u, as phi_hat_array on a one-element array: about
        1.5 us a call (Fejer), so loops should pass the array."""
        return float(self.phi_hat_array(np.array([u], dtype=np.float64))[0])

    @property
    def nu_exact(self) -> Fraction:
        return Fraction(self.nu)


def fejer_test_function(nu: float | Fraction) -> TestFunction:
    """The kernel with triangular transform: phi_hat(u) = max(0, 1 - |u|/nu),
    phi(x) = nu (sin(pi nu x)/(pi nu x))^2, phi(0) = nu."""
    nu_f = float(nu)
    if nu_f <= 0:
        raise ValueError("support radius must be positive")

    def phi_hat_array(u: np.ndarray) -> np.ndarray:
        return np.maximum(0.0, 1.0 - np.abs(u) / nu_f)

    def phi(x: float) -> float:
        if x == 0.0:
            return nu_f
        s = math.sin(math.pi * nu_f * x) / (math.pi * nu_f * x)
        return nu_f * s * s

    return TestFunction(nu=nu, phi=phi, phi_hat_array=phi_hat_array)
