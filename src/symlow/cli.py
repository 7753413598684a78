"""Command-line front end: verification suites and reproducible JSON reports.

Every run embeds its full configuration in the output document.  Floats are
rendered with 17 significant digits and dictionaries keep insertion order, so
identical configurations produce byte-identical output.  Exit codes: 0 for
success, 1 for usage errors, 2 when the identity suite finds a nonzero
residual.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from fractions import Fraction
from typing import Any, Sequence

from .chebyshev import (
    ExactPoly,
    chain_decomposition_residual,
    cheb_coefficients,
    cheb_poly,
    cheb_sum,
    difference_monomial_residual,
    monomial_expansion,
    odd_reduction_residuals,
    orthonormality_residual,
    power_sum_identity_residuals,
    vanishing_chain_sum,
)
from .constants import compute_constants, nu_max
from .explicit import density_prediction, prime_cutoffs, prime_sums
from .forms import DISTRIBUTIONS, SyntheticForm, _check_weight, fejer_test_function, is_prime
from .petersson import RAMANUJAN_TAU, petersson_delta, petersson_deltas

DEFAULT_SEED = 1729
_TAU_KAPPA = 12  # RAMANUJAN_TAU holds the coefficients of Delta, weight 12, level 1


def render_json(value: Any, indent: int = 0) -> str:
    """Canonical JSON: insertion order, %.17g floats, fractions as "p/q"."""
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(value, dict):
        if not value:
            return "{}"
        rows = [f'{inner}{json.dumps(str(k))}: {render_json(v, indent + 1)}' for k, v in value.items()]
        return "{\n" + ",\n".join(rows) + "\n" + pad + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        rows = [f"{inner}{render_json(v, indent + 1)}" for v in value]
        return "[\n" + ",\n".join(rows) + "\n" + pad + "]"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError("reports must not contain NaN or infinity")
        return f"{value:.17g}"
    if isinstance(value, Fraction):
        return json.dumps(str(value))
    if isinstance(value, str):
        return json.dumps(value)
    if value is None:
        return "null"
    raise TypeError(f"cannot serialize {type(value).__name__}")


class _Parser(argparse.ArgumentParser):
    """argparse with usage failures mapped to exit code 1."""

    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


# Every command takes floats of its input, so a number no double holds is refused.
_OUTSIDE_DOUBLES = "outside the double range (4.9e-324 to 1.8e308 in magnitude)"


def _double_range(value: int | Fraction) -> None:
    """Reject a number too large for a double."""
    try:
        float(value)
    except OverflowError as exc:
        raise argparse.ArgumentTypeError(_OUTSIDE_DOUBLES) from exc


def _unparsed(kind: str, text: str) -> argparse.ArgumentTypeError:
    """The error for text that does not parse, not echoed past Python's digit limit."""
    limit = sys.get_int_max_str_digits()
    if limit and len(text) > limit:
        return argparse.ArgumentTypeError(f"longer than the {limit}-digit limit for numbers")
    return argparse.ArgumentTypeError(f"not {kind}: {text!r}")


def _fraction(text: str) -> Fraction:
    """The exact rational number that text writes, "p/q" or a decimal.

    Fraction() multiplies out a decimal exponent, in time that grows with its
    value, while float() rounds a decimal in time linear in its length.  So a
    decimal that rounds to 0 or infinity reaches Fraction() without its
    exponent: if those digits are 0, so is the number, and otherwise no
    double holds it.  A nonzero "p/q" that rounds to 0 is refused as well.
    """
    try:
        whole = "/" in text or 0.0 < abs(float(text)) < math.inf
        value = Fraction(text if whole else text.lower().partition("e")[0])
    except (ValueError, ZeroDivisionError) as exc:
        raise _unparsed("a rational number", text) from exc
    _double_range(value)
    if value and not (whole and float(value)):
        raise argparse.ArgumentTypeError(_OUTSIDE_DOUBLES)
    return value


def _integer(text: str) -> int:
    try:
        return int(text)
    except ValueError as exc:
        raise _unparsed("an integer", text) from exc


def _positive(text: str) -> int:
    value = _integer(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    _double_range(value)
    return value


def build_parser() -> _Parser:
    parser = _Parser(prog="symlow", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("identities", help="run the exact identity suite")
    p.add_argument("--kmax", type=_positive, default=8,
                   help="bound for power-sum, chain, and reduction identities")
    p.add_argument("--coeff-kmax", type=_positive, default=40,
                   help="bound for the difference-monomial coefficient identity")
    p.add_argument("--lmax", type=_positive, default=60,
                   help="bound for the monomial-expansion reassembly")
    p.add_argument("--ortho-max", type=_positive, default=30,
                   help="bound for the orthonormality table")
    p.add_argument("--power-max", type=_positive, default=6,
                   help="bound for the linearization reassembly")

    p = sub.add_parser("constants", help="compute the expansion constants")
    p.add_argument("--r", type=_positive, required=True)
    p.add_argument("--kappa", type=_positive, required=True)
    p.add_argument("--cutoff", type=_positive, default=None,
                   help="prime cutoff applied to both sieved constants")

    p = sub.add_parser("predict", help="assemble the density prediction")
    p.add_argument("--r", type=_positive, required=True)
    p.add_argument("--kappa", type=_positive, required=True)
    p.add_argument("--q", type=_positive, required=True)
    p.add_argument("--nu", type=_fraction, required=True)
    p.add_argument("--phi", choices=["fejer"], default="fejer")
    p.add_argument("--cutoff", type=_positive, default=None)

    p = sub.add_parser("pterms", help="evaluate the prime sums on a synthetic form")
    p.add_argument("--r", type=_positive, required=True)
    p.add_argument("--kappa", type=_positive, required=True)
    p.add_argument("--q", type=_positive, required=True)
    p.add_argument("--nu", type=_fraction, required=True)
    p.add_argument("--phi", choices=["fejer"], default="fejer")
    p.add_argument("--seed", type=_integer, default=DEFAULT_SEED)
    p.add_argument("--dist", choices=list(DISTRIBUTIONS), default="sato-tate")
    p.add_argument("--eps", type=_integer, choices=[1, -1], default=1)

    p = sub.add_parser("petersson", help="truncated diagonal term with tail bound")
    p.add_argument("--m", type=_positive, required=True)
    p.add_argument("--k", type=_positive, default=1)
    p.add_argument("--kappa", type=_positive, required=True)
    p.add_argument("--cmax", type=_positive, default=None)

    p = sub.add_parser("tau-check", help="weight-12 coefficient comparison table")
    p.add_argument("--m-list", default="2,3,4,5",
                   help="comma-separated indices, each between 2 and 10")
    p.add_argument("--cmax", type=_positive, default=None)
    p.add_argument("--output", choices=["json", "csv"], default="json")
    return parser


def _max_residual(polys: Sequence[ExactPoly]) -> int:
    """Largest coefficient magnitude over the residual polynomials."""
    return max((abs(c) for p in polys for c in p.coeffs), default=0)


def run_identity_suite(
    kmax: int, coeff_kmax: int, lmax: int, ortho_max: int, power_max: int
) -> tuple[list[dict[str, Any]], list[str]]:
    """Exact residuals of every polynomial identity; failures are nonzero ones.

    The bounds are the identities command's options, whose defaults
    ``build_parser`` holds.  ``record`` wraps each int residual in a Fraction,
    so it renders as a quoted exact string: "0" when the identity holds.
    Each vanishing chain sum is compared with [k0 == 1]: 1 at k0 = 1, else 0.
    Each power U_r^varpi of the linearization check is the previous power
    times U_r, one product.  Each family of cases is one pass: the power-sum
    residuals of an n come from one Horner chain over r <= kmax, the odd
    reductions from one running inner sum, and each chain check from the
    tail weights of one recurrence.
    """
    checks: list[dict[str, Any]] = []

    def record(name: str, cases: int, residual: int) -> None:
        checks.append({"name": name, "cases": cases, "max_residual": Fraction(residual)})

    record(
        "monomial_reassembly",
        lmax + 1,
        _max_residual([monomial_expansion(l) - cheb_poly(l) for l in range(lmax + 1)]),
    )

    record(
        "orthonormality",
        (ortho_max + 1) * (ortho_max + 2) // 2,
        orthonormality_residual(ortho_max),
    )

    reassembled = []
    for r in range(1, power_max + 1):
        power = cheb_poly(0)
        for _ in range(power_max):
            power = power * cheb_poly(r)
            reassembled.append(cheb_sum(cheb_coefficients(power)) - power)
    record("linearization_reassembly", len(reassembled), _max_residual(reassembled))

    record(
        "power_sum_identity",
        kmax * kmax,
        _max_residual([p for n in range(1, kmax + 1) for p in power_sum_identity_residuals(n, kmax)]),
    )
    record(
        "chain_decomposition",
        kmax,
        _max_residual([chain_decomposition_residual(k0) for k0 in range(1, kmax + 1)]),
    )
    record("odd_reduction", kmax, _max_residual(odd_reduction_residuals(kmax)))
    vanish = max(abs(vanishing_chain_sum(k0) - int(k0 == 1)) for k0 in range(1, kmax + 1))
    record("vanishing_chain_sum", kmax, vanish)
    record(
        "difference_monomial",
        coeff_kmax,
        _max_residual([difference_monomial_residual(k) for k in range(1, coeff_kmax + 1)]),
    )

    failures = [c["name"] for c in checks if c["max_residual"] != 0]
    return checks, failures


def _config(args: argparse.Namespace, **resolved: Any) -> dict[str, Any]:
    """The parsed arguments in option order, with resolved values overlaid.

    Every block reports ``seed``, DEFAULT_SEED after the options where there
    is no --seed, and ends with ``threads``, always 1 (evaluation is
    single-threaded), and ``output``, json unless tau-check's --output says
    csv.  No option sets threads, and only tau-check's sets output.
    """
    config = {**vars(args), **resolved}
    config.setdefault("seed", DEFAULT_SEED)
    config.update(threads=1, output=config.pop("output", "json"))
    return config


def _cmd_identities(args: argparse.Namespace) -> tuple[int, str]:
    checks, failures = run_identity_suite(
        args.kmax, args.coeff_kmax, args.lmax, args.ortho_max, args.power_max
    )
    doc = {"suite": "identities", "config": _config(args), "checks": checks, "failures": failures}
    return (2 if failures else 0), render_json(doc)


def _cmd_constants(args: argparse.Namespace) -> tuple[int, str]:
    bundle = compute_constants(args.r, args.kappa, args.cutoff)
    doc = {
        "config": _config(args),
        "bundle": dataclasses.asdict(bundle),
        "nu_limit": nu_max(args.r, args.kappa),
    }
    return 0, render_json(doc)


def _cmd_predict(args: argparse.Namespace) -> tuple[int, str]:
    # Every check comes before the sieve: the window and the level here, r and
    # the weight first in compute_constants.  density_prediction proves the
    # level again, one more Miller-Rabin call.
    phi = fejer_test_function(args.nu)
    if not is_prime(args.q):
        raise ValueError("q must be prime")
    bundle = compute_constants(args.r, args.kappa, args.cutoff)
    report = density_prediction(args.q, phi, bundle)
    doc = {"config": _config(args), "report": dataclasses.asdict(report)}
    return 0, render_json(doc)


def _cmd_pterms(args: argparse.Namespace) -> tuple[int, str]:
    # The weight and the sign reach no number of the document, only its config.
    _check_weight(args.kappa)
    form = SyntheticForm(args.q, args.seed, args.dist)
    phi = fejer_test_function(args.nu)
    doc = {
        "config": _config(args),
        "cutoffs": prime_cutoffs(args.q, args.r, args.nu),
        **prime_sums(form, phi, args.r),
    }
    return 0, render_json(doc)


def _cmd_petersson(args: argparse.Namespace) -> tuple[int, str]:
    term = petersson_delta(args.m, args.k, args.kappa, args.cmax)
    doc = {"config": _config(args, cmax=term.c_max), "term": dataclasses.asdict(term)}
    return 0, render_json(doc)


def _tau_rows(m_values: list[int], c_max: int | None) -> list[dict[str, Any]]:
    base, *terms = petersson_deltas([1, *m_values], 1, _TAU_KAPPA, c_max)
    denom = max(abs(base.value) - base.tail_estimate, 1e-300)
    rows = []
    for m, term in zip(m_values, terms):
        ratio = term.value / base.value
        target = RAMANUJAN_TAU[m] / m ** ((_TAU_KAPPA - 1) / 2.0)
        tail = (term.tail_estimate + abs(ratio) * base.tail_estimate) / denom
        rows.append(
            {
                "m": m,
                "ratio": ratio,
                "target": target,
                "abs_diff": abs(ratio - target),
                "tail_bound": tail,
            }
        )
    return rows


def _cmd_tau_check(args: argparse.Namespace) -> tuple[int, str]:
    try:
        m_values = [_integer(piece) for piece in args.m_list.split(",") if piece.strip()]
    except argparse.ArgumentTypeError as exc:
        raise ValueError(f"--m-list: {exc}") from exc
    if not m_values:
        raise ValueError("--m-list must name at least one index")
    for m in m_values:
        if m not in RAMANUJAN_TAU or m == 1:
            raise ValueError(f"index {m} is outside the frozen table range 2..10")
    config = {"command": args.command, "kappa": _TAU_KAPPA,
              **_config(args, m_list=",".join(str(m) for m in m_values))}
    rows = _tau_rows(m_values, args.cmax)
    if args.output == "csv":
        lines = [f"# {key}={value}" for key, value in config.items()]
        lines.append("m,ratio,target,abs_diff,tail_bound")
        for row in rows:
            lines.append(
                f'{row["m"]},{row["ratio"]:.17g},{row["target"]:.17g},'
                f'{row["abs_diff"]:.17g},{row["tail_bound"]:.17g}'
            )
        return 0, "\n".join(lines)
    doc = {
        "config": config,
        "rows": rows,
        "max_abs_diff": max(row["abs_diff"] for row in rows),
    }
    return 0, render_json(doc)


_HANDLERS = {
    "identities": _cmd_identities,
    "constants": _cmd_constants,
    "predict": _cmd_predict,
    "pterms": _cmd_pterms,
    "petersson": _cmd_petersson,
    "tau-check": _cmd_tau_check,
}


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code, document = _HANDLERS[args.command](args)
    except ValueError as exc:
        print(f"symlow: error: {exc}", file=sys.stderr)
        return 1
    print(document)
    return code


if __name__ == "__main__":
    sys.exit(main())
