"""Density prediction and prime-side sums for synthetic power lifts.

The prediction assembles the main term and the single 1/log-scale correction
from precomputed constants.  The prime side is one explicit-formula walk over
the prime powers p^n of a synthetic form: ``prime_sums`` sieves once, takes
log p once, draws the angles of the primes with some nonzero weight as one
batch, and splits the terms into the first-power, even-square and
higher-power sums.  Every power n reads a prefix of the one sieve, and its
terms stream into math.fsum a block of primes at a time, each formed with
the same operations in the same order as the scalar expression (math.log,
math.sin and pow through ``forms._libm``; products, quotients and np.sqrt,
which are correctly rounded), so every sum is bit-identical to a per-prime
loop.  The eigenvalues and weights come from the array kernels of ``forms``
(``_eigenvalue_powers`` and ``TestFunction.phi_hat_array``), the one
definition of each formula.  Every sum is finite because the window
transform has compact support: enlarging the sieve past the natural cutoff
only appends terms with exactly zero weight.
"""

from __future__ import annotations

import contextlib
import dataclasses
import math
import warnings
from fractions import Fraction
from functools import partial
from itertools import chain, count
from typing import Any, Callable, Iterator

import numpy as np

from .constants import ConstantsBundle, _count_up_to, check_sieve_bound, nu_max, primes_up_to
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


def density_prediction(q: int, phi: TestFunction, constants: ConstantsBundle) -> ExpansionReport:
    """Main term plus the 1/log(q^r) correction for the given window.

    r and kappa are those the constants bundle was computed for.
    main = hat(0) + (-1)^{r+1} * window(0)/2 and the correction coefficient is
    c_infty - 2(-1)^r c_pnt - 2[r even] c, with c_infty as the bundle
    composed it.  Inadmissible support (nu >= the exact limit) warns but
    still evaluates.
    """
    if not is_prime(q):
        raise ValueError("q must be prime")
    r, kappa = constants.r, constants.kappa
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


def _power_brackets(theta: np.ndarray, n: int, r: int) -> np.ndarray:
    """Sum over j = r mod 2, 1 <= j <= r, of lambda(p^{jn}) - lambda(p^{jn-2})
    at every angle of theta, one math.fsum over j per angle."""
    start = 1 if r % 2 else 2
    columns = [
        (_eigenvalue_powers(theta, j * n) - _eigenvalue_powers(theta, j * n - 2)).tolist()
        for j in range(start, r + 1, 2)
    ]
    return np.fromiter(map(math.fsum, zip(*columns)), np.float64, theta.size)


def _root_floor(x: int, n: int) -> int:
    """The largest integer c with c**n <= x, for x >= 1, decided in integers
    from a float guess that errs by far less than 1."""
    return next(c for c in count(int(x ** (1.0 / n)) + 1, -1) if c**n <= x)


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
    to the first-power natural bound.  One sieve serves every power n, each
    reading a prefix of it: the primes up to the smaller of its own limit
    (prime_limit, or prime_limit^(1/n) for n >= 3, in integers) and its
    natural bound exp(nu scale/n), past which every weight is exactly 0, so
    each value is bit-identical to that sum taken alone at its own bound.
    The angle at p is drawn once, in one batch, only if some term at p has
    nonzero weight.  Every class streams its terms into math.fsum a block
    at a time, over the primes of nonzero weight in that block; the higher
    powers share one fsum.
    """
    if r < 1:
        raise ValueError("r must be >= 1")
    scale = r * math.log(form.q)
    nu = float(phi.nu)
    if prime_limit is None:
        prime_limit = _natural_prime_limit(scale, nu, 1.0)
        check_sieve_bound(prime_limit, f"support radius nu = {nu} is too large: its prime bound")
    primes = primes_up_to(prime_limit)
    primes = primes[primes != form.q]
    logs = _libm(math.log, primes)

    def prefix_weights(n: int) -> np.ndarray:
        """The window at n log p/scale over the primes that power n reads:
        p^n within prime_limit (p within it for n <= 2) and p within the
        natural bound, past which every weight is exactly 0."""
        bound = prime_limit if n <= 2 else _root_floor(prime_limit, n)
        with contextlib.suppress(ValueError):  # a bound past every float is past the sieve too
            bound = min(bound, _natural_prime_limit(scale, nu, n))
        return phi.phi_hat_array(n * logs[: _count_up_to(primes, bound)] / scale)

    # weights[n - 1] for n <= 2 and every n with 2^n <= prime_limit.
    weights = [prefix_weights(n) for n in range(1, max(3, int(prime_limit).bit_length()))]
    weighted = np.zeros(primes.size, dtype=bool)
    for w in weights:
        weighted[: w.size] |= w != 0.0
    theta = np.zeros(primes.size)
    # The primes come from the sieve and exclude q: no primality recheck.
    theta[weighted] = form._sieved_angles(primes[weighted])

    def terms(n: int, values: Callable[[np.ndarray], np.ndarray]) -> Iterator[list[float]]:
        """values(theta) log p / p^(n/2) * weight at the primes of nonzero weight, per block."""
        size = weights[n - 1].size
        for t, lp, p, w in zip(*(_blocks(x[:size]) for x in (theta, logs, primes, weights[n - 1]))):
            keep = w != 0.0
            p = p[keep].astype(np.float64)  # exact below 2**53
            # For n >= 3, the C pow that the scalar p ** (n / 2.0) calls.
            root = np.sqrt(p) if n == 1 else p if n == 2 else _libm(lambda x: x ** (n / 2.0), p)
            yield (values(t[keep]) * lp[keep] / root * w[keep]).tolist()

    def total(parts: Iterator[list[float]]) -> float:
        return -(2.0 / scale) * math.fsum(chain.from_iterable(parts))

    return {
        "first_power": total(terms(1, partial(_eigenvalue_powers, n=r))),
        "square_power": [total(terms(2, partial(_eigenvalue_powers, n=2 * (r - m)))) for m in range(r)],
        # One fsum over every n >= 3: a sum of per-n sums would round differently.
        "higher_power": total(chain.from_iterable(
            terms(n, partial(_power_brackets, n=n, r=r)) for n in range(3, len(weights) + 1)
        )),
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
