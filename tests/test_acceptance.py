"""Acceptance gate: one test per exit criterion, each printing a single
machine-greppable line `[acceptance NN] name: PASS|FAIL (detail)`, which
starts at column 0 whatever pytest printed before it.

Run with `pytest -s tests/test_acceptance.py` to see every gate line; under
plain pytest the lines surface in the captured-output block of any failing
criterion.  Under `-s`, ten lines of the output start with `[acceptance`.

The gate checks the kernels the commands run.  Criterion 02 holds the
eigenvalue kernel ``_eigenvalue_powers`` and the bracket kernel
``_power_brackets`` against three scalar routes of the unit power sum,
criteria 03 and 04 read the sieved constants from ``compute_constants``,
the one route that ``predict`` and ``constants`` take them by, criterion 05
holds ``c_gamma`` against the digamma sum over the gamma shifts, criterion
07 bounds ``kloosterman_sums`` by the Weil bound, and criterion 09 compares
a form with its reflection; those routes, that bound and the reflected form
live in ``tests/oracles.py``.

Criterion 4 bounds the even-square prime constant itself, not a bare
truncation of its series: the remainder past the 10^6 sieve (about 2e-3) is
completed by a Moebius-inverted prime-zeta series, so the constant comes with
a rigorous radius near 4e-13, checked against the demanded 1e-8 and against
a 40-digit mpmath value.  The bare truncation that ``compute_constants``
reports, whose rigorous bound at 10^6 is about 3.2e-2, is shown beside it.
"""

import math
import random
import time
import warnings
from fractions import Fraction

import mpmath
import numpy as np

from oracles import c_gamma_from_shifts, reflected, satake_power_sum_routes, weil_bound
from test_constants import even_square_oracle, pnt_segment_oracle
from test_explicit import square_identity_gaps
from test_petersson import tau_coefficients

from symlow.cli import run_identity_suite
from symlow.constants import (
    c_gamma,
    c_sym_even_completed,
    compute_constants,
    digamma,
    nu_max,
)
from symlow.explicit import _power_brackets, density_prediction, prime_sums
from symlow.forms import SyntheticForm, _eigenvalue_powers, fejer_test_function
from symlow.petersson import kloosterman_sums, old_part_sum, old_part_terms, petersson_delta


def gate(index: int, name: str, ok: bool, detail: str) -> None:
    # The leading newline ends whatever pytest wrote on the line (the file
    # name, a progress dot), so the gate line starts at column 0.
    status = "PASS" if ok else "FAIL"
    print(f"\n[acceptance {index:02d}] {name}: {status} ({detail})", flush=True)


def test_criterion_01_exact_identity_suite():
    started = time.perf_counter()
    checks, failures = run_identity_suite(
        kmax=8, coeff_kmax=40, lmax=60, ortho_max=30, power_max=6
    )
    elapsed = time.perf_counter() - started
    ok = not failures and elapsed < 10.0
    detail = f"{len(checks)} identity families, failures={failures}, {elapsed:.2f}s"
    gate(1, "exact-identity-suite", ok, detail)
    assert not failures, detail
    assert elapsed < 10.0, detail


def kernel_route_spreads(theta: list[float], n: int, r: int) -> list[float]:
    """Per angle, max - min over the three routes of S(n, r) and the program's
    kernels on the array of angles: _power_brackets(theta, n, r) + [r even],
    and at n = 1 also _eigenvalue_powers(theta, r), which is S(1, r)."""
    angles = np.array(theta)
    columns = [_power_brackets(angles, n, r) + float(r % 2 == 0)]
    if n == 1:
        columns.append(_eigenvalue_powers(angles, r))
    spreads = []
    for t, *kernel in zip(theta, *(column.tolist() for column in columns)):
        values = [*satake_power_sum_routes(t, n, r), *kernel]
        spreads.append(max(values) - min(values))
    return spreads


def test_criterion_02_power_sum_routes_and_square_identity():
    rng = random.Random(1729)
    draws = [(rng.uniform(0.0, math.pi), rng.randint(1, 10), rng.randint(1, 10)) for _ in range(10**4)]
    squares = [(rng.uniform(0.0, math.pi), rng.randint(1, 8)) for _ in range(10**3)]
    # One kernel call per (n, r) over the angles drawn with it.
    worst_spread = max(
        max(kernel_route_spreads([t for t, a, b in draws if (a, b) == (n, r)], n, r), default=0.0)
        for n in range(1, 11)
        for r in range(1, 11)
    )
    worst_gap = max(
        max(square_identity_gaps([t for t, b in squares if b == r], r), default=0.0)
        for r in range(1, 9)
    )
    ok = worst_spread < 1e-10 and worst_gap < 1e-10
    detail = (
        f"kernels and routes spread {worst_spread:.2e} over 1e4 draws, "
        f"square-identity gap {worst_gap:.2e} over 1e3"
    )
    gate(2, "power-sum-kernels", ok, detail)
    assert worst_spread < 1e-10, detail
    assert worst_gap < 1e-10, detail


def test_criterion_03_prime_counting_constant():
    value_100 = compute_constants(1, 12, 100).c_pnt_value
    oracle_100 = pnt_segment_oracle(100)
    quadrature_gap = abs(value_100 - oracle_100)

    started = time.perf_counter()
    value_7 = compute_constants(1, 12, 10**7).c_pnt_value
    elapsed = time.perf_counter() - started
    value_6 = compute_constants(1, 12, 10**6).c_pnt_value
    drift = abs(value_6 - value_7)

    ok = quadrature_gap < 1e-9 and drift < 0.05 and elapsed < 60.0
    detail = (
        f"step-quadrature gap {quadrature_gap:.2e} at X=100, "
        f"|value(1e6)-value(1e7)|={drift:.2e}, 1e7 run {elapsed:.2f}s"
    )
    gate(3, "prime-counting-constant", ok, detail)
    assert quadrature_gap < 1e-9, detail
    assert drift < 0.05, detail
    assert elapsed < 60.0, detail


def test_criterion_04_even_square_constant_tail():
    value_4, tail_4 = c_sym_even_completed(10**4)
    value_6, tail_6 = c_sym_even_completed(10**6)
    cross_ok = abs(value_6 - value_4) <= tail_4
    threshold_ok = tail_6 < 1e-8
    # The radius must also hold against an oracle that shares no code with
    # the completed route: mpmath's zeta and zeta' at 40 digits, no sieve.
    oracle_gap = abs(value_6 - even_square_oracle())
    oracle_ok = oracle_gap <= tail_6
    # What a bare truncation at 1e6 leaves out, next to its rigorous bound.
    bundle_6 = compute_constants(1, 12, 10**6)
    truncated_6, truncation_bound_6 = bundle_6.c_value, bundle_6.c_tail_bound
    ok = cross_ok and threshold_ok and oracle_ok
    detail = (
        f"completed C={value_6!r} with radius {tail_6:.3e} at 1e6 (demanded < 1e-8), "
        f"|C-oracle|={oracle_gap:.2e}, cross-cutoff |value(1e6)-value(1e4)|="
        f"{abs(value_6 - value_4):.2e} <= {tail_4:.2e}; bare truncation at 1e6 leaves "
        f"{value_6 - truncated_6:.4e} (its bound {truncation_bound_6:.3e})"
    )
    gate(4, "even-square-constant-tail", ok, detail)
    assert cross_ok, detail
    assert threshold_ok, detail
    assert oracle_ok, f"the stated radius does not cover the 40-digit oracle: {detail}"


def test_criterion_05_digamma_and_archimedean_routes():
    worst_digamma = 0.0
    with mpmath.workdps(40):
        for x in (0.25, 0.5, 0.75, 1.0, 2.0, 3.5, 11.0):
            worst_digamma = max(worst_digamma, abs(digamma(x) - float(mpmath.digamma(x))))
    worst_routes = 0.0
    for r in range(1, 11):
        for kappa in (2, 4, 12, 16):
            worst_routes = max(worst_routes, abs(c_gamma(r, kappa) - c_gamma_from_shifts(r, kappa)))
    ok = worst_digamma < 1e-10 and worst_routes < 1e-10
    detail = f"digamma max err {worst_digamma:.2e} on 7 nodes, closed-form vs shift-sum max gap {worst_routes:.2e}"
    gate(5, "digamma-and-archimedean", ok, detail)
    assert worst_digamma < 1e-10, detail
    assert worst_routes < 1e-10, detail


def test_criterion_06_tau_cross_validation():
    started = time.perf_counter()
    tau = tau_coefficients(6)
    oracle_ok = tau[1] == -24
    base = petersson_delta(1, 1, 12)
    worst = 0.0
    budgets = []
    for m in (2, 3, 4, 5):
        term = petersson_delta(m, 1, 12)
        ratio = term.value / base.value
        target = tau[m - 1] / m**5.5
        budget = max(1e-6, term.tail_estimate + base.tail_estimate)
        budgets.append(budget)
        worst = max(worst, abs(ratio - target) / budget)
    elapsed = time.perf_counter() - started
    ok = oracle_ok and worst < 1.0 and elapsed < 60.0
    detail = (
        f"q-expansion oracle tau(2)={tau[1]}, worst |ratio-target| at {worst:.3f} of budget "
        f"(budgets <= {max(budgets):.1e}), {elapsed:.2f}s"
    )
    gate(6, "tau-cross-validation", ok, detail)
    assert oracle_ok, detail
    assert worst < 1.0, detail
    assert elapsed < 60.0, detail


def test_criterion_07_weil_bound_sweep():
    rng = random.Random(1729)
    decades = [(1, 10), (10, 100), (100, 1000), (1000, 3000)]
    checked = 0
    for lo, hi in decades:
        for _ in range(100):
            c = rng.randint(lo, hi)
            m = rng.randint(1, 10**6)
            n = rng.randint(1, 10**6)
            value = abs(kloosterman_sums([m], n, c)[0])
            bound = weil_bound(m, n, c)
            assert value <= bound + 1e-9 * max(1.0, bound), (m, n, c, value, bound)
            checked += 1
    gate(7, "weil-bound-sweep", True, f"{checked} random (m,n,c) across 4 modulus decades")


def test_criterion_08_expansion_coefficient_forms():
    worst_report = None
    for r in range(1, 7):
        bundle = compute_constants(r, 12, 10**4)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            report = density_prediction(11, fejer_test_function(Fraction(1, 4)), bundle)
        # the two sign conventions, recomputed here from the bundle
        sign = 1.0 if r % 2 else -1.0
        c_term = 0.0 if r % 2 else -2.0 * bundle.c_value
        form_a = bundle.c_infty_value - 2.0 * (-sign) * bundle.c_pnt_value + c_term
        form_b = bundle.c_infty_value + 2.0 * sign * bundle.c_pnt_value + c_term
        assert form_a == form_b == report.lower_coefficient, r
        if r % 2:
            assert report.breakdown["c_term"] == 0.0, r
        else:
            assert report.main_term == report.breakdown["phi_hat_zero"] - report.breakdown["phi_zero"] / 2.0, r
        worst_report = report

    limit = nu_max(1, 12)
    bundle = compute_constants(1, 12, 10**4)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        at_limit = density_prediction(11, fejer_test_function(limit), bundle)
        below = density_prediction(11, fejer_test_function(limit - Fraction(1, 10**9)), bundle)
    flip_ok = (not at_limit.admissible) and below.admissible
    detail = (
        f"dual coefficient forms bit-identical for r<=6 (last={worst_report.lower_coefficient!r}), "
        f"admissibility flips exactly at nu={limit}"
    )
    gate(8, "expansion-coefficient-forms", flip_ok, detail)
    assert flip_ok, detail


def test_criterion_09_prime_sum_properties():
    form = SyntheticForm(q=11, seed=1729)
    tiny = fejer_test_function(0.1)  # support below the first prime
    empty = prime_sums(form, tiny, 1)
    empty_ok = (
        empty["first_power"] == 0.0
        and empty["square_power"][0] == 0.0
        and empty["higher_power"] == 0.0
    )

    phi = fejer_test_function(1.0)
    parity_gap = 0.0
    for r in (1, 3, 5):
        a = prime_sums(form, phi, r)["first_power"]
        b = prime_sums(reflected(form), phi, r)["first_power"]
        parity_gap = max(parity_gap, abs(a + b))

    enlargement_ok = prime_sums(form, phi, 1) == prime_sums(form, phi, 1, prime_limit=10**4)

    rng = random.Random(7)
    bracket_gap = 0.0
    for _ in range(500):
        theta = rng.uniform(0.0, math.pi)
        n = rng.randint(3, 9)
        r = rng.randint(1, 8)
        direct = _power_brackets(np.array([theta]), n, r)[0]
        via_power_sum = satake_power_sum_routes(theta, n, r)[0] - (1.0 if r % 2 == 0 else 0.0)
        bracket_gap = max(bracket_gap, abs(direct - via_power_sum))

    ok = empty_ok and parity_gap < 1e-12 and enlargement_ok and bracket_gap < 1e-10
    detail = (
        f"empty-support exact zeros {empty_ok}, odd-rank flip gap {parity_gap:.2e}, "
        f"sieve-enlargement invariance {enlargement_ok}, bracket-vs-power-sum gap {bracket_gap:.2e}"
    )
    gate(9, "prime-sum-properties", ok, detail)
    assert empty_ok, detail
    assert parity_gap < 1e-12, detail
    assert enlargement_ok, detail
    assert bracket_gap < 1e-10, detail


def test_criterion_10_old_part_bound_grid():
    worst_fill = 0.0
    cells = 0
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for q in (11, 13):
            for p in (2, 3, 5):
                for k in (1, 2, 3):
                    ell_max = int(math.isqrt(10**4 // p**k))
                    terms = old_part_terms(p, k, q, 12, ell_max=ell_max, c_max=1000)
                    value = old_part_sum(terms)
                    budget = 2 * (k + 1) + math.fsum(t.tail_estimate / ell for ell, t in terms)
                    assert abs(value) <= budget, (p, k, q, value, budget)
                    worst_fill = max(worst_fill, abs(value) / budget)
                    cells += 1
    ok = not caught and worst_fill <= 1.0
    detail = (
        f"{cells} grid cells, max |sum|/(2(k+1)+tails) = {worst_fill:.3f}, "
        f"warnings raised: {len(caught)}"
    )
    gate(10, "old-part-bound-grid", ok, detail)
    assert not caught, detail
    assert worst_fill <= 1.0, detail
