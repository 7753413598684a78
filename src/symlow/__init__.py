"""Exact identities and numerics for power-lift density expansions.

Submodules by concern:

- ``chebyshev``: exact integer polynomial engine, second-kind family,
  linearization coefficients, chain and coefficient identities.
- ``forms``: synthetic eigenvalue models with seeded local angles, power
  sums, gamma-factor shifts, sign of the functional equation, windows.
- ``constants``: sieved prime-sum constants with error estimates, the
  even-power constant completed by Euler-Maclaurin zeta and zeta', digamma,
  archimedean constants, the exact admissible support radius.
- ``explicit``: the density prediction and the prime-side sums, taken in
  one walk over the prime powers.
- ``petersson``: exact Kloosterman sums, Bessel J, truncated diagonal terms
  with rigorous tails, the old-part geometric sum.
- ``cli``: reproducible JSON/CSV reporting over all of the above.
"""

from .chebyshev import (
    ChebExpansion,
    ExactPoly,
    chain_decomposition_residual,
    cheb_poly,
    difference_monomial_coeff,
    difference_monomial_residual,
    inner_product,
    linearize_power,
    monomial_expansion,
    odd_reduction_residual,
    power_sum_identity_residual,
    semicircle_moment,
    vanishing_chain_sum,
)
from .constants import (
    ConstantsBundle,
    c_gamma,
    c_infty,
    c_pnt,
    c_sym_even,
    c_sym_even_completed,
    compute_constants,
    digamma,
    nu_max,
    primes_up_to,
)
from .explicit import (
    ExpansionReport,
    density_prediction,
    prime_sums,
    square_power_identity_gap,
)
from .forms import (
    GammaShifts,
    SyntheticForm,
    TestFunction,
    eigenvalue_power,
    fejer_test_function,
    gamma_shifts,
    root_number,
    sampled_test_function,
    satake_power_sum,
)
from .petersson import (
    PeterssonTerm,
    bessel_j,
    kloosterman,
    old_part_sum,
    petersson_delta,
)

__version__ = "0.1.0"

__all__ = [
    "ChebExpansion",
    "ConstantsBundle",
    "ExactPoly",
    "ExpansionReport",
    "GammaShifts",
    "PeterssonTerm",
    "SyntheticForm",
    "TestFunction",
    "bessel_j",
    "c_gamma",
    "c_infty",
    "c_pnt",
    "c_sym_even",
    "c_sym_even_completed",
    "chain_decomposition_residual",
    "cheb_poly",
    "compute_constants",
    "density_prediction",
    "difference_monomial_coeff",
    "difference_monomial_residual",
    "digamma",
    "eigenvalue_power",
    "fejer_test_function",
    "gamma_shifts",
    "inner_product",
    "kloosterman",
    "linearize_power",
    "monomial_expansion",
    "nu_max",
    "odd_reduction_residual",
    "old_part_sum",
    "petersson_delta",
    "power_sum_identity_residual",
    "prime_sums",
    "primes_up_to",
    "root_number",
    "sampled_test_function",
    "satake_power_sum",
    "semicircle_moment",
    "square_power_identity_gap",
    "vanishing_chain_sum",
    "__version__",
]
