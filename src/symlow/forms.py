"""Synthetic local data for a holomorphic form and its symmetric powers.

A SyntheticForm carries weight, prime level, a sign input, and a seeded,
reproducible map prime -> Satake angle in [0, pi].  Angles are derived from
BLAKE2b(seed:prime) pushed through the inverse CDF of the chosen
distribution, so the same (seed, distribution) pair yields bit-identical
angles on every platform.  Angles are computed a whole array of primes at a
time: the Sato-Tate bisection runs on numpy arrays and redoes with math.sin
every comparison that np.sin could decide differently, so a batch equals
the scalar recurrence bit for bit (see ``_sato_tate_inverse_cdf`` for the
margin and the one-ulp assumption behind it).  The prime walk reads whole
batches through a small cache.

Also here: eigenvalue powers via the sine ratio, the unit power sums with
their three evaluation routes, gamma-factor shifts, root numbers, and the
admissible test functions (Fejer kernel and sampled transforms).  Each
prime-side formula (angle, eigenvalue ratio, window transform) has one
definition, an array kernel; ``SyntheticForm.angle``, ``eigenvalue_power``
and ``TestFunction.phi_hat`` check their input and call it on a one-element
array, at microseconds a call (a whole bisection for an angle), so loops
pass arrays.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import math
from fractions import Fraction
from typing import Callable

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


def _uniform_units(seed: int, primes: np.ndarray) -> np.ndarray:
    """Stable uniform draws in (0, 1], one per prime p, keyed by (seed, p).

    Each draw is the 64-bit BLAKE2b digest of "seed:p" read big-endian; the
    digests come from one hash of the prefix "seed:" copied and fed b"%d" % p,
    which BLAKE2b, a streaming hash, makes identical to hashing the whole
    string.  The arithmetic stays in Python ints and floats: a numpy uint64
    to float cast rounds as the C implementation chooses.
    """
    prefix = hashlib.blake2b(f"{seed}:".encode(), digest_size=8)

    def draw(p: int) -> float:
        h = prefix.copy()
        h.update(b"%d" % p)
        return (int.from_bytes(h.digest(), "big") + 0.5) / 2.0**64

    return np.fromiter(map(draw, primes.tolist()), np.float64, primes.size)


# A comparison of the bisection that np.sin may decide differently from
# math.sin is redone with math.sin; see _sato_tate_inverse_cdf.
BISECTION_MARGIN = 2.0**-51


def _sines(x: np.ndarray) -> np.ndarray:
    """math.sin of every entry of x (np.sin may differ from it in the last bit)."""
    return np.fromiter(map(math.sin, x.tolist()), np.float64, x.size)


def _sato_tate_inverse_cdf(u: np.ndarray) -> np.ndarray:
    """Solve F(t) = (2t - sin 2t) / (2 pi) = u for every entry of u in (0, 1].

    The same 64 bisection steps as the scalar loop, which halves [lo, hi] =
    [0, pi] by setting lo = mid if F(mid) < u and hi = mid otherwise (F is
    strictly increasing, so 64 halvings pin each root to ~5e-19).  Each step
    evaluates F(mid) on the whole array with np.sin, then redoes with
    math.sin every entry where |F(mid) - u| <= BISECTION_MARGIN, so every
    comparison, and so every result, is the one the loop with math.sin makes.

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
    """
    out = np.empty_like(u)
    lo = np.zeros_like(u)
    hi = np.full_like(u, math.pi)
    index = np.arange(u.size)
    for _ in range(64):
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
            near = two_mid[close]
            cdf[close] = (near - _sines(near)) / (2.0 * math.pi)
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
def _angle_batch(seed: int, distribution: str, primes: bytes) -> np.ndarray:
    """Angles at the int64 primes packed in ``primes``; read-only and cached.

    A few whole batches are kept, so a walk repeated in the same process
    (the same form with another sign eps_f, or its flip) draws nothing.
    """
    angles = _draw_angles(seed, distribution, np.frombuffer(primes, np.int64))
    angles.flags.writeable = False
    return angles


@dataclasses.dataclass(frozen=True)
class SyntheticForm:
    """Seeded stand-in for a newform: weight kappa, prime level q, sign eps_f."""

    kappa: int
    q: int
    eps_f: int
    seed: int
    distribution: str = "sato-tate"
    flip: bool = False

    def __post_init__(self) -> None:
        if self.kappa < 2 or self.kappa % 2:
            raise ValueError("weight must be an even integer >= 2")
        if not is_prime(self.q):
            raise ValueError(f"level {self.q} is not prime")
        if self.eps_f not in (-1, 1):
            raise ValueError("eps_f must be +1 or -1")
        if self.distribution not in DISTRIBUTIONS:
            raise ValueError(f"distribution must be one of {DISTRIBUTIONS}")

    def angle(self, p: int) -> float:
        """Satake angle at p; defined only away from the level.

        Checks that p is a prime other than q, then draws the seeded angle
        as an uncached batch of one: about 0.27 ms a call on a 2-core machine
        (64 bisection steps on a one-element array), where a batch costs about
        2 us a prime.  Callers that hold many primes away from q (the prime
        sums) read ``_sieved_angles`` for all of them at once, which is cached
        and skips the Miller-Rabin recheck.
        """
        if p == self.q:
            raise ValueError("angle is undefined at the level prime")
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        # Object dtype: a prime checked by is_prime may exceed int64.
        theta = float(_draw_angles(self.seed, self.distribution, np.array([p], dtype=object))[0])
        return math.pi - theta if self.flip else theta

    def _sieved_angles(self, primes: np.ndarray) -> np.ndarray:
        """The seeded angles at sieved primes != q, reflected when flipped; unchecked."""
        theta = _angle_batch(self.seed, self.distribution, primes.astype(np.int64, copy=False).tobytes())
        return math.pi - theta if self.flip else theta

    def eigenvalue(self, p: int, n: int = 1) -> float:
        """Eigenvalue at the n-th power of p, from the angle at p."""
        return eigenvalue_power(self.angle(p), n)

    def flipped(self) -> "SyntheticForm":
        """Copy whose every angle is reflected t -> pi - t."""
        return dataclasses.replace(self, flip=not self.flip)


def _check_angle(theta: float) -> None:
    if not 0.0 <= theta <= math.pi:
        raise ValueError(f"angle {theta} outside [0, pi]")


def eigenvalue_power(theta: float, n: int) -> float:
    """Eigenvalue at the n-th prime power: sin((n+1)t)/sin(t) = U_n(2 cos t).

    Checks t and n, then evaluates ``_eigenvalue_powers`` on a one-element
    array: about 5 us a call, so loops over angles should pass the array.
    """
    _check_angle(theta)
    if n < 0:
        raise ValueError("power must be nonnegative")
    return float(_eigenvalue_powers(np.array([theta], dtype=np.float64), n)[0])


def _eigenvalue_powers(theta: np.ndarray, n: int) -> np.ndarray:
    """sin((n+1)t)/sin(t) for every t in theta, which must lie in [0, pi] (unchecked).

    Both sines come from math.sin.  Where sin t < 1e-8 the value is the
    endpoint limit, n+1 at t=0 and (-1)^n (n+1) at t=pi (the omitted
    correction is O(n^2 t^2) ~ 1e-16 there); elsewhere the ratio is clamped
    to the sharp bound |value| <= n+1.
    """
    sines = _sines(theta)
    bound = n + 1.0
    edge = sines < 1e-8
    value = _sines((n + 1) * theta) / np.where(edge, 1.0, sines)
    limits = np.where(theta < math.pi / 2, bound, (-1) ** n * bound)
    return np.where(edge, limits, np.clip(value, -bound, bound))


def alpha_pair_power(theta: float, n: int) -> float:
    """alpha^n + alpha^{-n} for alpha = e^{i t}: 2 cos(n t)."""
    _check_angle(theta)
    if n < 0:
        raise ValueError("power must be nonnegative")
    return 2.0 * math.cos(n * theta)


def satake_power_sum_routes(theta: float, n: int, r: int) -> tuple[float, float, float]:
    """The unit power sum sum_{j=0}^r e^{i t n (2j - r)} by three routes.

    Returns (direct cosine sum, reduced sine ratio, Chebyshev recurrence);
    all three are mathematically equal and must agree numerically.
    """
    _check_angle(theta)
    if n < 1 or r < 1:
        raise ValueError("n and r must be >= 1")
    direct = math.fsum(math.cos(n * theta * (2 * j - r)) for j in range(r + 1))

    # Ratio route, reduced mod pi so the quotient is never ill-conditioned:
    # sin((r+1)w)/sin(w) = (-1)^(m r) sin((r+1)d)/sin(d) for w = m pi + d.
    w = n * theta
    m = round(w / math.pi)
    d = w - m * math.pi
    parity = -1.0 if (m * r) % 2 else 1.0
    if abs(d) < 1e-12:
        ratio = parity * (r + 1)
    else:
        ratio = parity * math.sin((r + 1) * d) / math.sin(d)

    y = 2.0 * math.cos(w)
    prev, cur = 1.0, y
    if r == 0:
        cheb = prev
    else:
        for _ in range(r - 1):
            prev, cur = cur, y * cur - prev
        cheb = cur

    spread = max(direct, ratio, cheb) - min(direct, ratio, cheb)
    if spread > 1e-8 * (r + 1):
        raise ArithmeticError(
            f"power-sum routes disagree by {spread:.3e} at theta={theta}, n={n}, r={r}"
        )
    return direct, ratio, cheb


def satake_power_sum(theta: float, n: int, r: int) -> float:
    """The unit power sum; the direct-route value after the three-way check."""
    return satake_power_sum_routes(theta, n, r)[0]


@dataclasses.dataclass(frozen=True)
class GammaShifts:
    """The r+1 archimedean shifts of the completed degree-(r+1) L-factor."""

    r: int
    kappa: int
    shifts: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if len(self.shifts) != self.r + 1:
            raise ValueError("a degree-(r+1) factor needs exactly r+1 shifts")


def gamma_shifts(r: int, kappa: int) -> GammaShifts:
    """Shift multiset of the completed L-factor, exactly as rationals.

    Odd r: (2a+1)(kappa-1)/2 and 1+(2a+1)(kappa-1)/2 for 0 <= a <= (r-1)/2.
    Even r: the parity shift mu (1 iff r(kappa-1)/2 is odd, else 0), then
    a(kappa-1) and 1+a(kappa-1) for 1 <= a <= r/2.
    """
    if r < 1:
        raise ValueError("r must be >= 1")
    if kappa < 2 or kappa % 2:
        raise ValueError("weight must be an even integer >= 2")
    shifts: list[Fraction] = []
    if r % 2:
        for a in range((r + 1) // 2):
            base = Fraction((2 * a + 1) * (kappa - 1), 2)
            shifts.extend((base, 1 + base))
    else:
        mu = 1 if (r * (kappa - 1) // 2) % 2 else 0
        shifts.append(Fraction(mu))
        for a in range(1, r // 2 + 1):
            base = Fraction(a * (kappa - 1))
            shifts.extend((base, 1 + base))
    return GammaShifts(r=r, kappa=kappa, shifts=tuple(shifts))


def root_number(r: int, kappa: int, eps_f: int) -> int:
    """Sign of the functional equation: +1 for even r; for odd r the sign
    eps_f times a fourth-root pattern in r mod 8 (with i^kappa = (-1)^(kappa/2))."""
    if r < 1:
        raise ValueError("r must be >= 1")
    if kappa < 2 or kappa % 2:
        raise ValueError("weight must be an even integer >= 2")
    if eps_f not in (-1, 1):
        raise ValueError("eps_f must be +1 or -1")
    if r % 2 == 0:
        return 1
    i_kappa = (-1) ** (kappa // 2)
    table = {1: i_kappa, 3: -1, 5: -i_kappa, 7: 1}
    return eps_f * table[r % 8]


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
    kind: str
    phi_hat_array: Callable[[np.ndarray], np.ndarray]

    def phi_hat(self, u: float) -> float:
        """The transform at u, as phi_hat_array on a one-element array: about
        1.5 us a call (Fejer) or 5 us (sampled), so loops should pass the array."""
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

    return TestFunction(nu=nu, phi=phi, kind="fejer", phi_hat_array=phi_hat_array)


def sampled_test_function(nu: float | Fraction, samples) -> TestFunction:
    """Test function from samples of phi_hat on the uniform grid over [0, nu].

    samples[i] is phi_hat(i*nu/(len-1)); the even extension is linearly
    interpolated, and phi is its exact segment-by-segment inverse transform
    (finite integral, so no truncation error beyond the interpolation).
    """
    nu_f = float(nu)
    if nu_f <= 0:
        raise ValueError("support radius must be positive")
    values = [float(v) for v in samples]
    if len(values) < 2:
        raise ValueError("need at least two samples of the transform")
    step = nu_f / (len(values) - 1)

    knots = np.array(values)

    def phi_hat_array(u: np.ndarray) -> np.ndarray:
        u = np.abs(u)
        inside = u < nu_f
        ratio = np.where(inside, u, 0.0) / step
        i = np.minimum(ratio.astype(np.int64), len(values) - 2)
        frac = ratio - i
        return np.where(inside, knots[i] * (1.0 - frac) + knots[i + 1] * frac, 0.0)

    def phi(x: float) -> float:
        # 2 * integral over [0, nu] of phi_hat(u) cos(w u) du with w = 2 pi x,
        # done exactly on each linear segment.
        w = 2.0 * math.pi * x
        total = 0.0
        for i in range(len(values) - 1):
            a, b = i * step, (i + 1) * step
            va, vb = values[i], values[i + 1]
            c1 = (vb - va) / step
            c0 = va - c1 * a
            if abs(w) * b < 1e-7:
                # Flat-phase regime; dropped terms are O((w b)^2) ~ 1e-14.
                total += c0 * (b - a) + c1 * (b * b - a * a) / 2.0
            else:
                sa, sb = math.sin(w * a), math.sin(w * b)
                ca, cb = math.cos(w * a), math.cos(w * b)
                total += c0 * (sb - sa) / w
                total += c1 * ((cb - ca) / (w * w) + (b * sb - a * sa) / w)
        return 2.0 * total

    return TestFunction(nu=nu, phi=phi, kind="sampled", phi_hat_array=phi_hat_array)
