"""Exact arithmetic for Chebyshev polynomials of the second kind.

Everything in this module is a Python int: polynomial coefficients, moments,
U-basis coefficients, and the factorial quotients of
``difference_monomial_coeff``, which divide exactly.  Each identity check
returns exact polynomial residuals, one per case: the empty polynomial means
the identity holds, anything else is a genuine counterexample.  No floating point and no
rational number enters any computation here.

Identities that pair polynomials against the weight never form a product
p*q: ``moment_vector(p, top)`` lists v[k] = <p, T^k> once, and <p, q> is the
dot product of q's coefficients with it.  ``cheb_coefficients(p)``, the
projection of p on the U basis, is one moment vector and one such dot
product per U_j, so a linearization of degree R costs O(R^2) integer
products instead of R polynomial products; each row of
``orthonormality_residual`` is one such projection.  ``cheb_sum`` is the
inverse, sum_j c_j U_j added coefficient by coefficient.

Normalization: U_n denotes the degree-n Chebyshev polynomial of the second
kind in the stretched variable, U_n(2 cos t) = sin((n+1)t) / sin t.  The
family is orthonormal on [-2, 2] for the semicircle weight
sqrt(1 - x^2/4) / pi, whose even moments are the Catalan numbers.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from itertools import zip_longest
from operator import index, mul


@dataclasses.dataclass(frozen=True)
class ExactPoly:
    """Dense univariate polynomial with exact integer coefficients.

    Coefficients are Python ints: ``of`` passes each through
    ``operator.index``, which turns numpy integers into ints and raises
    TypeError for anything that is not an integer: a float, a rational or a
    string.

    coeffs[i] is the coefficient of T^i where T is the monomial variable
    (T = 2 cos t on the support of the weight).  The zero polynomial is the
    empty tuple, ZERO; construction strips trailing zeros so equality of
    values is equality of representations, and a polynomial is zero iff it
    equals ZERO.  A product with ZERO or with the int 0 needs no case of its
    own: the general loop over an empty factor gives the empty tuple.
    """

    coeffs: tuple[int, ...]

    @staticmethod
    def of(*coeffs: int) -> "ExactPoly":
        return _stripped([index(c) for c in coeffs])

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial at -1."""
        return len(self.coeffs) - 1

    def __add__(self, other: "ExactPoly") -> "ExactPoly":
        return _stripped([a + b for a, b in zip_longest(self.coeffs, other.coeffs, fillvalue=0)])

    def __sub__(self, other: "ExactPoly") -> "ExactPoly":
        return _stripped([a - b for a, b in zip_longest(self.coeffs, other.coeffs, fillvalue=0)])

    def __mul__(self, other: "ExactPoly | int") -> "ExactPoly":
        if isinstance(other, int):
            return _stripped([c * other for c in self.coeffs])
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return _stripped(out)

    __rmul__ = __mul__


def _stripped(cs: list) -> ExactPoly:
    """The polynomial of an int coefficient list, trailing zeros dropped."""
    while cs and cs[-1] == 0:
        cs.pop()
    return ExactPoly(tuple(cs))


ZERO = ExactPoly(())
ONE = ExactPoly.of(1)
T = ExactPoly.of(0, 1)


@functools.lru_cache(maxsize=None)
def cheb_poly(n: int) -> ExactPoly:
    """U_n via the recurrence U_{n+1} = T*U_n - U_{n-1}; U_{-1} = U_{-2} = 0.

    U_0 = 1 is the only other base case: the recurrence gives U_1 = T*1 - 0.
    """
    if n < -2:
        raise ValueError(f"index {n} below the U_-2 = 0 convention")
    if n in (-1, -2):
        return ZERO
    if n == 0:
        return ONE
    return T * cheb_poly(n - 1) - cheb_poly(n - 2)


@functools.lru_cache(maxsize=None)
def catalan(m: int) -> int:
    return math.comb(2 * m, m) // (m + 1)


def semicircle_moment(k: int) -> int:
    """Exact k-th moment of the semicircle weight on [-2, 2]."""
    return 0 if k % 2 else catalan(k // 2)


def moment_vector(p: ExactPoly, top: int) -> list[int]:
    """v[k] = <p, T^k> = sum_i p_i * semicircle_moment(i + k) for 0 <= k <= top.

    Terms with i + k odd carry a zero moment and are skipped.  <p, q> is then
    sum_k q_k * v[k] for any q of degree at most top, with no product p*q.
    """
    moments = [semicircle_moment(n) for n in range(len(p.coeffs) + top)]
    return [sum(map(mul, p.coeffs[k % 2::2], moments[k + k % 2::2])) for k in range(top + 1)]


def cheb_coefficients(p: ExactPoly) -> tuple[int, ...]:
    """p's coefficients in the U basis: c_j = <p, U_j> for 0 <= j <= deg p.

    p's moment vector is built once and each c_j is U_j's coefficients
    against it, with no polynomial product.  The entries of the wrong parity
    of a power U_r^varpi (j not congruent to r*varpi mod 2) are exact zeros
    and stay in the tuple, so callers can check the vanishing.
    """
    moments = moment_vector(p, p.degree)
    return tuple(sum(map(mul, cheb_poly(j).coeffs, moments)) for j in range(p.degree + 1))


def cheb_sum(coeffs: tuple[int, ...]) -> ExactPoly:
    """sum_j coeffs[j] * U_j, the inverse of cheb_coefficients.

    U_j has degree j, so the sum is added coefficient by coefficient into
    one list, with no polynomial per term.
    """
    out = [0] * len(coeffs)
    for j, c in enumerate(coeffs):
        if c:
            for i, u in enumerate(cheb_poly(j).coeffs):
                out[i] += c * u
    return _stripped(out)


def orthonormality_residual(top: int) -> int:
    """Largest |<U_i, U_j> - [i == j]| over 0 <= i <= j <= top; zero iff ok.

    Row j is cheb_coefficients(U_j): one moment vector per j and a dot
    product per i, with no polynomial product.
    """
    worst = 0
    for j in range(top + 1):
        for i, c in enumerate(cheb_coefficients(cheb_poly(j))):
            worst = max(worst, abs(c - int(i == j)))
    return worst


def monomial_expansion(ell: int) -> ExactPoly:
    """U_ell written directly in the monomial basis.

    sum over u = ell, ell-2, ..., of (-1)^((ell-u)/2) * C((ell+u)/2, u) * T^u;
    must agree with cheb_poly(ell) exactly.
    """
    if ell < 0:
        raise ValueError("index must be nonnegative")
    coeffs = [0] * (ell + 1)
    for u in range(ell % 2, ell + 1, 2):
        coeffs[u] = (-1) ** ((ell - u) // 2) * math.comb((ell + u) // 2, u)
    return ExactPoly.of(*coeffs)


def power_sum_identity_residuals(n: int, r_max: int) -> list[ExactPoly]:
    """Residuals of the telescoping power-sum identity for r = 1..r_max; zero iff it holds.

    lhs_r = sum over 0 <= j <= r with j = r mod 2 of (U_{jn} - U_{jn-2});
    rhs_r = sum over 0 <= j <= r of (-1)^j * U_{n-2}^j * U_{n(r-j)}.
    Each grows from an earlier r: lhs_r = lhs_{r-2} + (U_{rn} - U_{rn-2}) from
    lhs_{-1} = 0, and rhs_r = U_{rn} - U_{n-2} * rhs_{r-1} from rhs_0 = U_0
    (Horner in -U_{n-2}), one product per r.
    """
    if n < 1 or r_max < 1:
        raise ValueError("n and r_max must be >= 1")
    before, lhs, rhs = ZERO, cheb_poly(0) - cheb_poly(-2), cheb_poly(0)  # lhs_{-1}, lhs_0, rhs_0
    out = []
    for r in range(1, r_max + 1):
        before, lhs = lhs, before + (cheb_poly(r * n) - cheb_poly(r * n - 2))
        rhs = cheb_poly(r * n) - cheb_poly(n - 2) * rhs
        out.append(lhs - rhs)
    return out


def _tail_weights(k0: int) -> list[int]:
    """w[t], the signed weight summed over the chains from k0 that end at t.

    A chain is k0 > k_1 > ... > k_j >= 1, of sign (-1)^j and weight the
    product of C(2 k_i, k_i - k_{i+1}) along it.  w[k0] = 1 (the bare chain)
    and w[t] = -sum_{t<s<=k0} w[s] * C(2s, s-t): a chain that ends at t < k0
    is one that ends at some s > t with one more step s -> t.  At t = 0 the
    same sum is minus sum_s w[s] * C(2s, s), the constant of the chain sum.
    """
    w = [0] * k0 + [1]
    for t in range(k0 - 1, -1, -1):
        w[t] = -sum(w[s] * math.comb(2 * s, s - t) for s in range(t + 1, k0 + 1))
    return w


def chain_decomposition_residual(k0: int) -> ExactPoly:
    """Residual of the chain decomposition of U_{2k0} - U_{2k0-2}; zero iff ok.

    The chain sum is sum over chains of sign * weight * (T^{2k_j} - C(2k_j, k_j)):
    its coefficient of T^{2t} is the tail weight w[t], t = 0 included.
    """
    if k0 < 1:
        raise ValueError("k0 must be >= 1")
    coeffs = [0] * (2 * k0 + 1)
    coeffs[::2] = _tail_weights(k0)
    return _stripped(coeffs) - (cheb_poly(2 * k0) - cheb_poly(2 * k0 - 2))


def odd_reduction_residuals(k_max: int) -> list[ExactPoly]:
    """Residuals of the reduction of odd-index differences to even ones, K = 1..k_max.

    U_{2K+1} - U_{2K-1} = (-1)^K T (1 + sum_{k0=1}^{K} (-1)^{k0} (U_{2k0} - U_{2k0-2})),
    with the summand grouped exactly as written; the inner sum gains one
    summand per K.  Zero iff the identity holds.
    """
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    inner, out = ONE, []
    for big_k in range(1, k_max + 1):
        inner = inner + ((-1) ** big_k) * (cheb_poly(2 * big_k) - cheb_poly(2 * big_k - 2))
        rhs = ((-1) ** big_k) * (T * inner)
        out.append(cheb_poly(2 * big_k + 1) - cheb_poly(2 * big_k - 1) - rhs)
    return out


def vanishing_chain_sum(k0: int) -> int:
    """Chain sum weighted by C(2k_j, k_j) * k_j/(1+k_j) = k_j * Catalan(k_j).

    Each weight is an integer, so the sum over the tail weights is an int.
    Equals -<U_{2k0} - U_{2k0-2}, U_0> in general: 1 at k0 = 1 and 0 for
    every k0 >= 2.  Both behaviors are part of the contract.
    """
    if k0 < 1:
        raise ValueError("k0 must be >= 1")
    return sum(w * t * catalan(t) for t, w in enumerate(_tail_weights(k0)))


def difference_monomial_coeff(big_k: int, k: int) -> int:
    """Coefficient of T^k in U_K - U_{K-2}, by the closed factorial formulas.

    Each quotient is an integer and is taken with exact ``//``; the identity
    suite compares every coefficient with ``cheb_poly``, so a wrong quotient
    shows as a nonzero residual.

    Conventions: the (0,0) coefficient is 0, and entries with k of the wrong
    parity (k = K+1 mod 2) vanish.  Rejects k outside 0..K.  For even K the
    l = k/2 formula also covers k = 0, where it reads 2(-1)^(K/2).
    """
    if big_k < 0 or k < 0:
        raise ValueError("indices must be nonnegative")
    if k > big_k:
        raise ValueError("monomial degree exceeds the basis index")
    if (k - big_k) % 2 or big_k == 0:
        return 0
    if big_k % 2 == 0:
        half_k = big_k // 2
        ell = k // 2
        num = 2 * (-1) ** (half_k + ell) * half_k * math.factorial(half_k + ell - 1)
        return num // (math.factorial(2 * ell) * math.factorial(half_k - ell))
    half_k = (big_k - 1) // 2
    ell = (k - 1) // 2
    num = (-1) ** (half_k + ell) * (2 * half_k + 1) * math.factorial(half_k + ell)
    return num // (math.factorial(2 * ell + 1) * math.factorial(half_k - ell))


def difference_monomial_residual(big_k: int) -> ExactPoly:
    """Residual of sum_k coeff(K,k) T^k = U_K - U_{K-2}; zero iff it holds (K >= 1)."""
    if big_k < 1:
        raise ValueError("K must be >= 1")
    coeffs = [difference_monomial_coeff(big_k, k) for k in range(big_k + 1)]
    return _stripped(coeffs) - (cheb_poly(big_k) - cheb_poly(big_k - 2))
