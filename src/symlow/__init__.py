"""Exact identities and numerics for power-lift density expansions.

Submodules by concern:

- ``chebyshev``: exact integer polynomial engine, second-kind family,
  linearization coefficients, chain and coefficient identities.
- ``forms``: synthetic eigenvalue models with seeded local angles,
  eigenvalue powers, gamma-factor shifts, the weight check, windows.
- ``constants``: sieved prime-sum constants with error estimates, the
  even-power constant completed by Euler-Maclaurin zeta and zeta', digamma,
  archimedean constants, the exact admissible support radius.
- ``explicit``: the density prediction and the prime-side sums, taken in
  one walk over the prime powers.
- ``petersson``: exact Kloosterman sums, Bessel J, truncated diagonal terms
  with rigorous tails, the old-part geometric sum.
- ``cli``: reproducible JSON/CSV reporting over all of the above.

Each name is imported from the module that defines it, for example
``from symlow.petersson import kloosterman_sums``; the package itself
imports nothing, so ``import symlow`` loads no submodule and no numpy.
"""
