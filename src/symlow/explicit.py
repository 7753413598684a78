"""Density prediction and prime-side sums for synthetic power lifts.

The prediction assembles the main term and the single 1/log-scale correction
from precomputed constants.  The prime side is one explicit-formula walk over
the prime powers p^n of a synthetic form: ``prime_sums`` reads one sieve a
segment at a time and holds no table of the primes.  Per segment it takes
log p once, draws the angles of the primes with some nonzero weight as one
batch, and splits the terms into the first-power, even-square and
higher-power sums.  The terms are formed a block of primes at a time, each
with the same operations in the same order as the scalar expression
(math.log, math.sin and pow through ``forms._libm``; products, quotients and
np.sqrt, which are correctly rounded), and fold into exact accumulators
(``forms._fold``) whose one math.fsum is exactly rounded, so every
sum is bit-identical to a per-prime loop.  The eigenvalues and weights come
from the array kernels of ``forms`` (``_eigenvalue_powers`` and
``TestFunction.phi_hat_array``), the one definition of each formula.
Criterion 02 of the acceptance gate holds ``_eigenvalue_powers`` and the
bracket ``_power_brackets`` built on it against three scalar routes of the
unit power sum, kept in the tests.  Every sum is finite because the window
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
from itertools import count
from typing import Any

import numpy as np

from .constants import ConstantsBundle, _prime_stream, check_sieve_bound, nu_max
from .forms import (
    SyntheticForm,
    TestFunction,
    _blocks,
    _eigenvalue_powers,
    _fold,
    _libm,
    is_prime,
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
    to the first-power natural bound.  One sieve serves every power n, read a
    segment at a time: power n takes the segment's primes up to the smaller
    of its own limit (prime_limit, or prime_limit^(1/n) for n >= 3, in
    integers) and its natural bound exp(nu scale/n), past which every weight
    is exactly 0, so each value is bit-identical to that sum taken alone at
    its own bound.  A segment's angles are drawn once, in one batch, at the
    primes where some term has nonzero weight.  Each class folds its terms
    into its parts with _fold, a block at a time (the higher powers share
    one), and one math.fsum of those is the math.fsum of every term,
    whatever the segments.
    """
    if r < 1:
        raise ValueError("r must be >= 1")
    scale = r * math.log(form.q)
    nu = float(phi.nu)
    if prime_limit is None:
        prime_limit = _natural_prime_limit(scale, nu, 1.0)
        check_sieve_bound(prime_limit, f"support radius nu = {nu} is too large: its prime bound")

    def bound(n: int) -> int:
        """The largest p that power n reads: p^n within prime_limit (p within
        it for n <= 2) and p within the natural bound."""
        largest = prime_limit if n <= 2 else _root_floor(prime_limit, n)
        with contextlib.suppress(ValueError):  # a bound past every float is past the sieve too
            largest = min(largest, _natural_prime_limit(scale, nu, n))
        return largest

    # bounds[n - 1] for n <= 2 and every n with 2^n <= prime_limit.
    bounds = [bound(n) for n in range(1, max(3, int(prime_limit).bit_length()))]
    # (accumulator, n, values(theta)) per power; the higher powers share the last accumulator.
    classes = [(0, 1, partial(_eigenvalue_powers, n=r))]
    classes += [(1 + m, 2, partial(_eigenvalue_powers, n=2 * (r - m))) for m in range(r)]
    classes += [(r + 1, n, partial(_power_brackets, n=n, r=r)) for n in range(3, len(bounds) + 1)]
    parts: list[list[float]] = [[] for _ in range(r + 2)]

    def fold(primes: np.ndarray) -> None:
        """Folds the terms of one segment's primes into parts; its arrays go on return."""
        logs = _libm(math.log, primes)
        weights = [
            phi.phi_hat_array(n * logs[: np.searchsorted(primes, b, "right")] / scale)
            for n, b in enumerate(bounds, 1)
        ]
        at_q = int(np.searchsorted(primes, form.q))
        weighted = np.zeros(primes.size, dtype=bool)
        for w in weights:
            if at_q < w.size and primes[at_q] == form.q:
                w[at_q] = 0.0  # q takes no term: a weight of 0 leaves it out of every sum and draw
            weighted[: w.size] |= w != 0.0
        theta = np.zeros(primes.size)
        # The weighted primes come from the sieve and exclude q: no primality recheck.
        theta[weighted] = form._sieved_angles(primes[weighted])
        for k, n, values in classes:
            w = weights[n - 1]
            for t, lp, p, wb in zip(*(_blocks(x[: w.size]) for x in (theta, logs, primes, w))):
                keep = wb != 0.0
                p = p[keep].astype(np.float64)  # exact below 2**53
                # For n >= 3, the C pow that the scalar p ** (n / 2.0) calls.
                root = np.sqrt(p) if n == 1 else p if n == 2 else _libm(lambda x: x ** (n / 2.0), p)
                parts[k] = _fold(parts[k], values(t[keep]) * lp[keep] / root * wb[keep])

    for segment in _prime_stream(prime_limit)[1] if prime_limit >= 2 else ():
        fold(segment)
        del segment  # before the sieve allocates the next segment's primes
    first, *square, higher = (-(2.0 / scale) * math.fsum(s) for s in parts)
    return {"first_power": first, "square_power": square, "higher_power": higher}
