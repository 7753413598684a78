"""Scalar oracles for the tests and the acceptance gate; no CLI command uses them.

``satake_power_sum_routes`` takes the unit power sum by three routes, which
criterion 02 holds the program's array kernels against.
``c_gamma_from_shifts`` sums digamma over the exact gamma shifts, the second
route to ``c_gamma`` of criterion 05.  ``divisor_count`` and ``weil_bound``
give the pointwise Kloosterman bound of criterion 07.
"""

import math

from symlow.constants import digamma
from symlow.forms import gamma_shifts
from symlow.petersson import _factorization


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
