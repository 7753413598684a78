"""A second admissible test function, for tests: a sampled transform.

``sampled_test_function`` builds a ``symlow.forms.TestFunction`` from
samples of phi_hat, so the prime sums and the window oracles are checked on
a transform other than the Fejer kernel's triangle.  No CLI command uses it.
"""

import math
from fractions import Fraction

import numpy as np

from symlow.forms import TestFunction


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

    return TestFunction(nu=nu, phi=phi, phi_hat_array=phi_hat_array)
