"""Scalar oracles for the tests and the acceptance gate; no CLI command uses them.

``satake_power_sum_routes`` takes the unit power sum by three routes, which
criterion 02 holds the program's array kernels against.
``c_gamma_from_shifts`` sums digamma over the exact ``gamma_shifts``, the
second route to ``c_gamma`` of criterion 05.  ``divisor_count`` and
``weil_bound`` give the pointwise Kloosterman bound of criterion 07.
``reflected`` gives the form whose every angle is t -> pi - t, which
criterion 09 and the flip-parity tests compare a form with.
``full_sweep_value`` sums the diagonal term over every modulus to its
cutoff, one modulus at a time, which the early-stopped sweep must equal.
``tail_bound_settled_at`` is the sweep's certificate from
``delta_tail_bound`` alone, and ``two_bound_settled_at`` the one that takes
the smaller of that bound over 2 pi and the hyperbola bound: two second
routes to where an index may stop.
``primes_up_to`` joins the sieve's segments into the whole table of primes
that the program itself never holds.
``chains`` lists every strictly decreasing chain that the tail weights of
``chebyshev._tail_weights`` sum, and ``odd_reduction_residual`` rebuilds the
odd reduction's inner sum for one K: the enumerating and per-case second
routes of the exact layer's identity checks.  ``power`` raises a polynomial
by repeated products, for the tests' product routes.
"""

import math
import sys
from fractions import Fraction

import numpy as np

from symlow.chebyshev import ONE, T, ExactPoly
from symlow.constants import _prime_stream, digamma
from symlow.forms import SyntheticForm, _check_weight, _factorization
from symlow.petersson import (
    _TAIL_WIDENING,
    _log_hyperbola_tail,
    _log_prefactor,
    _settled,
    bessel_j,
    delta_tail_bound,
    kloosterman_sums,
)


def satake_power_sum_routes(theta: float, n: int, r: int) -> tuple[float, float, float]:
    """The unit power sum sum_{j=0}^r e^{i t n (2j - r)} by three routes.

    Returns (direct cosine sum, reduced sine ratio, Chebyshev recurrence);
    all three are mathematically equal and must agree numerically.
    """
    if not 0.0 <= theta <= math.pi:
        raise ValueError(f"angle {theta} outside [0, pi]")
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
    prev, cheb = 1.0, y
    for _ in range(r - 1):
        prev, cheb = cheb, y * cheb - prev

    spread = max(direct, ratio, cheb) - min(direct, ratio, cheb)
    if spread > 1e-8 * (r + 1):
        raise ArithmeticError(
            f"power-sum routes disagree by {spread:.3e} at theta={theta}, n={n}, r={r}"
        )
    return direct, ratio, cheb


def gamma_shifts(r: int, kappa: int) -> tuple[Fraction, ...]:
    """The r+1 archimedean shifts of the completed degree-(r+1) L-factor, exactly.

    Odd r: (2a+1)(kappa-1)/2 and 1+(2a+1)(kappa-1)/2 for 0 <= a <= (r-1)/2.
    Even r: the parity shift mu (1 iff r(kappa-1)/2 is odd, else 0), then
    a(kappa-1) and 1+a(kappa-1) for 1 <= a <= r/2.
    """
    if r < 1:
        raise ValueError("r must be >= 1")
    _check_weight(kappa)
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
    return tuple(shifts)


def c_gamma_from_shifts(r: int, kappa: int) -> float:
    """Cross-check route: sum of psi(1/4 + mu/2) over the shift multiset."""
    return math.fsum(
        digamma(0.25 + float(mu) / 2.0) for mu in gamma_shifts(r, kappa)
    )


def divisor_count(c: int) -> int:
    """tau(c): number of positive divisors."""
    if c < 1:
        raise ValueError("c must be >= 1")
    return math.prod(e + 1 for e in _factorization(c).values())


def weil_bound(m: int, n: int, c: int) -> float:
    """tau(c) * gcd(m, n, c)^{1/2} * c^{1/2}, the pointwise Kloosterman bound."""
    return divisor_count(c) * math.sqrt(math.gcd(m, n, c)) * math.sqrt(c)


def full_sweep_value(m: int, k: int, kappa: int, c_max: int) -> float:
    """The truncated diagonal term at m, from one math.fsum of
    S(m, 1; c) / c J_{kappa-1}(4 pi sqrt(m) / c) over every c <= c_max with
    k | c, each modulus alone."""
    c_sum = math.fsum(
        kloosterman_sums([m], 1, c)[0] / c * bessel_j(kappa - 1, 4 * math.pi * math.sqrt(m) / c)
        for c in range(k, c_max + 1, k)
    )
    sign = -1.0 if (kappa // 2) % 2 else 1.0
    return (1.0 if m == 1 else 0.0) + 2.0 * math.pi * sign * c_sum


def tail_bound_settled_at(m: int, kappa: int, c: int, root: float, parts: list[float]) -> bool:
    """petersson._settled_at with delta_tail_bound as its only tail bound,
    so without the hyperbola bound: no index may stop later under the
    sweep's own certificate than under this one."""
    if c <= root:
        return False
    tail = max(delta_tail_bound(m, kappa, c) / (2.0 * math.pi), 2.0 * sys.float_info.min)
    if tail >= math.ulp(math.fsum(parts)):
        return False
    return _settled(parts, _TAIL_WIDENING * Fraction(tail))


def two_bound_settled_at(m: int, kappa: int, c: int, root: float, parts: list[float]) -> bool:
    """petersson._settled_at with the smaller of two tail bounds, delta_tail_bound
    over 2 pi and the prefactor times the hyperbola bound: the sweep's own
    certificate must stop every index at the same modulus as this one."""
    if c <= root:
        return False
    hyperbola = math.exp(_log_prefactor(m, kappa) + _log_hyperbola_tail(c, kappa - 0.5))
    tail = max(min(delta_tail_bound(m, kappa, c) / (2.0 * math.pi), hyperbola), 2.0 * sys.float_info.min)
    if tail >= math.ulp(math.fsum(parts)):
        return False
    return _settled(parts, _TAIL_WIDENING * Fraction(tail))


class ReflectedForm(SyntheticForm):
    """A SyntheticForm whose every angle is reflected t -> pi - t."""

    def angle(self, p: int) -> float:
        return math.pi - super().angle(p)

    def _sieved_angles(self, primes):
        return math.pi - super()._sieved_angles(primes)


def reflected(form: SyntheticForm) -> SyntheticForm:
    """form with every angle reflected t -> pi - t; reflecting twice gives form back."""
    kind = SyntheticForm if isinstance(form, ReflectedForm) else ReflectedForm
    return kind(form.q, form.seed, form.distribution)


def primes_up_to(n: int) -> np.ndarray:
    """All primes <= n as one sorted int64 array: the segments of _prime_stream(n), joined."""
    segments = _prime_stream(n)[1] if n >= 2 else []
    return np.concatenate([np.empty(0, dtype=np.int64), *segments])


def chains(k0: int):
    """Yield (sign, weight, tail) over strictly decreasing chains from k0.

    A chain is k0 > k_1 > ... > k_j >= 1 (j >= 0; j = 0 is the bare chain).
    sign is (-1)^j, weight the product of C(2 k_i, k_i - k_{i+1}) along the
    chain, tail the last index k_j.
    """
    stack = [(k0, 1, 1)]
    while stack:
        tail, sign, weight = stack.pop()
        yield sign, weight, tail
        for nxt in range(1, tail):
            stack.append((nxt, -sign, weight * math.comb(2 * tail, tail - nxt)))


def odd_reduction_residual(big_k: int, family) -> ExactPoly:
    """Residual of U_{2K+1} - U_{2K-1} = (-1)^K T (1 + sum_{k0=1}^{K} (-1)^{k0} (U_{2k0} - U_{2k0-2}))
    for one K, its inner sum rebuilt from 1 over the U family ``family``."""
    inner = ONE
    for k0 in range(1, big_k + 1):
        inner = inner + ((-1) ** k0) * (family(2 * k0) - family(2 * k0 - 2))
    rhs = ((-1) ** big_k) * (T * inner)
    return family(2 * big_k + 1) - family(2 * big_k - 1) - rhs


def power(p: ExactPoly, n: int) -> ExactPoly:
    """p to the n >= 0 as n products from ONE, so power(ZERO, 0) == ONE."""
    result = ONE
    for _ in range(n):
        result = result * p
    return result
