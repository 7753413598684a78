"""Density prediction and prime-side sums for synthetic power lifts.

The prediction assembles the main term and the single 1/log-scale correction
from precomputed constants.  The prime side is one explicit-formula walk over
the prime powers p^n of a synthetic form: ``prime_sums`` sieves once, takes
log p once, draws the angles of the primes with some nonzero weight as one
batch, and splits the terms into the first-power, even-square and
higher-power sums.  The first-power and square terms stream into math.fsum a
block of primes at a time, each formed with the same operations in the same
order as the scalar expression (math.log and math.sin through
``forms._libm``; products, quotients and np.sqrt, which are correctly
rounded), so every sum is bit-identical to a per-prime loop.  The
eigenvalues and weights come from the array kernels of ``forms``
(``_eigenvalue_powers`` and ``TestFunction.phi_hat_array``), the one
definition of each formula; the few higher-power terms go through the scalar
entry points, which call the same kernels on one-element arrays.  Every
sum is finite because the window transform has compact support: enlarging
the sieve past the natural cutoff only appends terms with exactly zero weight.
"""

from __future__ import annotations

import dataclasses
import math
import warnings
from fractions import Fraction
from itertools import chain
from typing import Any, Callable, Iterator

import numpy as np

from .constants import ConstantsBundle, check_sieve_bound, compute_constants, nu_max, primes_up_to
from .forms import (
    SyntheticForm,
    TestFunction,
    _blocks,
    _eigenvalue_powers,
    _libm,
    eigenvalue_power,
    is_prime,
    satake_power_sum,
)

REMAINDER_MARKER = "O(1/log^3(q^r))"


@dataclasses.dataclass(frozen=True)
class ExpansionReport:
    """Assembled density prediction at one (r, kappa, q, window)."""

    r: int
    kappa: int
    q: int
    nu: float
    nu_limit: Fraction
    admissible: bool
    scale: float
    main_term: float
    lower_coefficient: float
    lower_term: float
    breakdown: dict[str, float]
    remainder: str
    constants: ConstantsBundle


def density_prediction(
    r: int,
    kappa: int,
    q: int,
    phi: TestFunction,
    constants: ConstantsBundle | None = None,
) -> ExpansionReport:
    """Main term plus the 1/log(q^r) correction for the given window.

    main = hat(0) + (-1)^{r+1} * window(0)/2 and the correction coefficient is
    c_infty - 2(-1)^r c_pnt - 2[r even] c.  The same coefficient written with
    the sign folded the other way, c_infty + 2(-1)^{r+1} c_pnt - 2[r even] c,
    is checked to produce the identical float (ArithmeticError if not).
    Inadmissible support (nu >= the exact limit) warns but still evaluates.
    """
    if not is_prime(q):
        raise ValueError("q must be prime")
    if constants is None:
        constants = compute_constants(r, kappa)
    elif (constants.r, constants.kappa) != (r, kappa):
        raise ValueError("constants bundle was computed for different (r, kappa)")

    limit = nu_max(r, kappa)
    nu_exact = phi.nu_exact
    admissible = nu_exact < limit
    if not admissible:
        warnings.warn(
            f"window support {nu_exact} is not below the admissible limit {limit};"
            " the prediction is evaluated outside its proven range",
            stacklevel=2,
        )

    sign = 1.0 if r % 2 else -1.0  # (-1)^{r+1}
    hat_zero = phi.phi_hat(0.0)
    window_zero = phi.phi(0.0)
    main = hat_zero + sign * window_zero / 2.0

    c_pnt_term = -2.0 * (-sign) * constants.c_pnt_value
    c_term = 0.0 if r % 2 else -2.0 * constants.c_value
    coefficient = constants.c_infty_value + c_pnt_term + c_term
    alt = constants.c_infty_value + 2.0 * sign * constants.c_pnt_value + c_term
    if coefficient != alt:
        raise ArithmeticError(
            f"the two sign conventions disagree: {coefficient!r} != {alt!r}"
        )

    scale = r * math.log(q)
    lower = coefficient * hat_zero / scale
    return ExpansionReport(
        r=r,
        kappa=kappa,
        q=q,
        nu=float(nu_exact),
        nu_limit=limit,
        admissible=admissible,
        scale=scale,
        main_term=main,
        lower_coefficient=coefficient,
        lower_term=lower,
        breakdown={
            "phi_hat_zero": hat_zero,
            "phi_zero": window_zero,
            "c_infty": constants.c_infty_value,
            "c_pnt_term": c_pnt_term,
            "c_term": c_term,
        },
        remainder=REMAINDER_MARKER,
        constants=constants,
    )


def _natural_prime_limit(scale: float, nu: float, transform_arg_factor: float) -> int:
    """Largest p whose transform argument can sit inside the support.

    The weight vanishes once factor*log(p)/scale >= nu, so the bound is
    exp(nu*scale/factor); one extra integer of slack keeps the bound safe
    against rounding, harmless because the appended weights are exactly 0.
    ValueError when the bound overflows a float.
    """
    if nu <= 0.0:
        return 0
    try:
        bound = math.exp(nu * scale / transform_arg_factor)
    except OverflowError:
        raise ValueError(
            f"support radius nu = {nu} is too large: the prime bound"
            f" exp({nu} * {scale:.6g} / {transform_arg_factor:g}) overflows a float"
        ) from None
    return int(math.floor(bound)) + 1


def prime_cutoffs(q: int, r: int, nu: float | Fraction) -> dict[str, int]:
    """Natural sieve bounds for the three prime sums at support radius nu."""
    scale = r * math.log(q)
    nu = float(nu)
    return {
        "first_power": _natural_prime_limit(scale, nu, 1.0),
        "square_power": _natural_prime_limit(scale, nu, 2.0),
        "higher_power": _natural_prime_limit(scale, nu, 1.0),
    }


def _power_bracket(theta: float, n: int, r: int) -> float:
    """Sum over j = r mod 2, 1 <= j <= r, of lambda(p^{jn}) - lambda(p^{jn-2})."""
    start = 1 if r % 2 else 2
    return math.fsum(
        eigenvalue_power(theta, j * n) - eigenvalue_power(theta, j * n - 2)
        for j in range(start, r + 1, 2)
    )


def prime_sums(
    form: SyntheticForm,
    phi: TestFunction,
    r: int,
    prime_limit: int | None = None,
) -> dict[str, Any]:
    """The first-power, square and higher prime-power sums in one walk.

    With scale = r log q and p != q throughout:

    - first_power: -(2/scale) sum of lambda(p^r) (log p/sqrt p) hat(log p/scale);
    - square_power[m] for m = 0..r-1: -(2/scale) sum of
      lambda(p^{2(r-m)}) (log p/p) hat(2 log p/scale);
    - higher_power: -(2/scale) sum over n >= 3 of
      bracket(theta_p, n, r) (log p/p^{n/2}) hat(n log p/scale).

    prime_limit bounds p for n = 1 and n = 2 and p^n for n >= 3; it defaults
    to the first-power natural bound.  One sieve serves all three sums, and
    the angle at p is drawn once, in one batch, only if some term at p has
    nonzero weight.  Terms past a sum's own natural bound have weight exactly
    0, so each value is bit-identical to that sum taken alone at its own
    bound.  The first-power and square terms stream into math.fsum a block
    at a time, over the primes of nonzero weight in that block; the higher
    powers (p <= prime_limit^(1/3)) are summed per prime through
    ``phi.phi_hat`` and ``eigenvalue_power``, one-element calls of the same
    kernels at a few microseconds each (136 eigenvalues and 68 weights for
    ``pterms --r 1 --kappa 12 --q 10007 --nu 3/2``).
    """
    if r < 1:
        raise ValueError("r must be >= 1")
    scale = r * math.log(form.q)
    if prime_limit is None:
        prime_limit = _natural_prime_limit(scale, float(phi.nu), 1.0)
        check_sieve_bound(prime_limit, f"support radius nu = {float(phi.nu)} is too large: its prime bound")
    primes = primes_up_to(prime_limit)
    primes = primes[primes != form.q]
    logs = _libm(math.log, primes)
    first_weights = phi.phi_hat_array(logs / scale)
    square_weights = phi.phi_hat_array(2.0 * logs / scale)
    weighted = (first_weights != 0.0) | (square_weights != 0.0)
    # Every p with p^3 <= prime_limit, and a few more, which add no terms.
    cubed = np.searchsorted(primes, int(max(prime_limit, 0) ** (1.0 / 3.0)) + 1, "right")
    higher_weights = []
    for i, (p, lp) in enumerate(zip(primes[:cubed].tolist(), logs[:cubed].tolist())):
        n = 3
        while p**n <= prime_limit:
            weight = phi.phi_hat(n * lp / scale)
            if weight != 0.0:
                higher_weights.append((i, p, lp, n, weight))
                weighted[i] = True
            n += 1
    theta = np.zeros(primes.size)
    # The primes come from the sieve and exclude q: no primality recheck.
    theta[weighted] = form._sieved_angles(primes[weighted])

    def terms(n: int, weights: np.ndarray, root: Callable) -> Iterator[list[float]]:
        """lambda(p^n) log p / root(p) * weight at the primes of nonzero weight, per block."""
        for t, lp, p, w in zip(_blocks(theta), _blocks(logs), _blocks(primes), _blocks(weights)):
            keep = w != 0.0
            if np.count_nonzero(keep):
                as_float = p[keep].astype(np.float64)  # exact below 2**53
                yield (_eigenvalue_powers(t[keep], n) * lp[keep] / root(as_float) * w[keep]).tolist()

    higher = [
        _power_bracket(theta.item(i), n, r) * lp / p ** (n / 2.0) * weight
        for i, p, lp, n, weight in higher_weights
    ]
    return {
        "first_power": -(2.0 / scale) * math.fsum(chain.from_iterable(terms(r, first_weights, np.sqrt))),
        "square_power": [
            -(2.0 / scale) * math.fsum(chain.from_iterable(terms(2 * (r - m), square_weights, lambda x: x)))
            for m in range(r)
        ],
        "higher_power": -(2.0 / scale) * math.fsum(higher),
    }


def square_power_identity_gap(theta: float, r: int) -> float:
    """|S(2, r) - (alternating even-power eigenvalue sum + (-1)^r)|.

    The doubled-argument power sum telescopes against eigenvalues of even
    squares: S equals sum_{m=0}^{r-1} (-1)^m lambda(p^{2(r-m)}) + (-1)^r.
    The gap is pure floating-point noise, well below 1e-10.
    """
    if r < 1:
        raise ValueError("r must be >= 1")
    direct = satake_power_sum(theta, 2, r)
    alternating = math.fsum(
        (-1.0) ** m * eigenvalue_power(theta, 2 * (r - m)) for m in range(r)
    )
    return abs(direct - (alternating + (-1.0) ** r))
