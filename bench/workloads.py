"""The benchmark's workloads: fixed lists of ``symlow`` CLI commands.

Each workload is a function of the benchmark seed only.  The seed picks the
synthetic-form seeds of ``prime_side`` and the ``trace_deep`` index from
fixed pools whose members all cost the same work, so a fresh seed changes
the inputs and not the amount of work.  ``record.py`` stores the expected
output of every pool member, which is what lets ``check.py`` verify any seed.
"""

from __future__ import annotations

import random

DEFAULT_SEED = 1729

# Synthetic-form seeds for the two cold ``pterms`` calls.  1729 is left out
# on purpose: it is the CLI's own default seed, used by the r=2 ``pterms``
# call, which must stay cold whichever pair the benchmark seed draws.
PTERMS_SEEDS = tuple(range(1730, 1762))

# Primes near 1000 for ``trace_deep``.  Every member sums the same 4000
# moduli, so the Kloosterman cost is the same; only the Bessel arguments move.
DEEP_PRIMES = (971, 977, 983, 991, 997, 1009, 1013, 1019)

WHY = {
    "identities": "exact big-rational polynomial arithmetic only; the layer an "
    "integer ExactPoly must move, with cheb_poly reused across the two suites",
    "prime_side": "cold and warm Satake angles over ~79k primes, square and higher "
    "sums, and two 1e8 sieves that set the memory peak",
    "trace_sweep": "Kloosterman sums over moduli shared by many m (reuse ~0.9), "
    "where a table shared across m has to show",
    "trace_deep": "one m over 4000 moduli with no reuse across m, the opposite "
    "side of the same petersson layer",
}

_R1 = ["--r", "1", "--kappa", "12", "--q", "10007", "--nu", "3/2"]
_R2 = ["--r", "2", "--kappa", "12", "--q", "1000003", "--nu", "19/40"]


def _pterms_r1(form_seed: int, *extra: str) -> list[str]:
    return ["pterms", *_R1, "--seed", str(form_seed), *extra]


def _deep(m: int) -> list[str]:
    return ["petersson", "--m", str(m), "--kappa", "12", "--cmax", "4000"]


def identities(seed: int) -> list[list[str]]:
    return [
        ["identities"],
        ["identities", "--kmax", "10", "--coeff-kmax", "60", "--lmax", "80",
         "--ortho-max", "40", "--power-max", "8"],
    ]


def prime_side(seed: int) -> list[list[str]]:
    first, second = random.Random(seed).sample(PTERMS_SEEDS, 2)
    return [
        _pterms_r1(first),
        _pterms_r1(second),
        _pterms_r1(first, "--eps", "-1"),
        ["pterms", *_R2],
        ["predict", *_R1],
        ["predict", *_R2, "--cutoff", "100000000"],
    ]


def trace_sweep(seed: int) -> list[list[str]]:
    return [
        ["tau-check", "--m-list", "2,3,4,5,6,7,8,9,10"],
        ["tau-check", "--output", "csv"],
        ["petersson", "--m", "2", "--kappa", "12"],
    ]


def trace_deep(seed: int) -> list[list[str]]:
    return [_deep(random.Random(seed).choice(DEEP_PRIMES))]


WORKLOADS = {
    "identities": identities,
    "prime_side": prime_side,
    "trace_sweep": trace_sweep,
    "trace_deep": trace_deep,
}


def commands(workload: str, seed: int) -> list[list[str]]:
    """The command list of one pass of ``workload`` at benchmark seed ``seed``."""
    return WORKLOADS[workload](seed)


def all_commands() -> list[list[str]]:
    """Every command some seed can produce, each once: the pools spelled out."""
    out = identities(DEFAULT_SEED) + trace_sweep(DEFAULT_SEED)
    for form_seed in PTERMS_SEEDS:
        out += [_pterms_r1(form_seed), _pterms_r1(form_seed, "--eps", "-1")]
    out += prime_side(DEFAULT_SEED)[3:]
    out += [_deep(m) for m in DEEP_PRIMES]
    return out
