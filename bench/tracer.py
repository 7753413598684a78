"""Per-layer spans and counters, recorded from outside the program.

``Tracer.install`` wraps every public function of the six ``symlow`` modules,
plus ``ExactPoly.__mul__`` (which ``__rmul__`` and ``__pow__`` reach) and
``SyntheticForm.angle``.  It replaces the attribute in every ``symlow`` module
and class that holds the original, so callers that imported a name with
``from .x import f`` see the wrapper too.  ``restore`` puts every original
back.  Nothing under ``src/`` changes.

A span's self time is its duration minus the durations of the wrapped calls
made inside it.  Spans are aggregated in memory per name and per
(caller, callee) edge rather than stored one by one: the prime-side workload
makes close to a million wrapped calls.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter

MODULES = ("chebyshev", "forms", "constants", "explicit", "petersson", "cli")
PRIME_SUMS = frozenset(
    f"explicit.{f}_prime_sum" for f in ("first_power", "square_power", "higher_power")
)
RESIDUALS = tuple(
    f"chebyshev.{f}_residual"
    for f in ("power_sum_identity", "chain_decomposition", "odd_reduction", "difference_monomial")
)

# Every per-layer metric, with its unit.  BENCHMARK.json lists the same names.
PER_LAYER = {
    "chebyshev.ExactPoly.mul.calls": "count",
    "chebyshev.ExactPoly.mul.self_s": "s",
    "chebyshev.cheb_poly.calls": "count",
    "chebyshev.cheb_poly.hit_ratio": "ratio",
    "chebyshev.inner_product.self_s": "s",
    "chebyshev.linearize_power.self_s": "s",
    "chebyshev.residuals.self_s": "s",
    "forms.angle.calls": "count",
    "forms.angle.self_s": "s",
    "forms.angle.distinct_ratio": "ratio",
    "forms.is_prime.calls": "count",
    "forms.is_prime.self_s": "s",
    "forms.eigenvalue_power.calls": "count",
    "forms.eigenvalue_power.self_s": "s",
    "constants.primes_up_to.calls": "count",
    "constants.primes_up_to.sieved_n": "count",
    "constants.primes_up_to.max_n": "count",
    "constants.primes_up_to.self_s": "s",
    "constants.primes_up_to.repeat_ratio": "ratio",
    "constants.c_pnt.self_s": "s",
    "constants.c_sym_even.self_s": "s",
    "explicit.first_power_prime_sum.self_s": "s",
    "explicit.square_power_prime_sum.self_s": "s",
    "explicit.higher_power_prime_sum.self_s": "s",
    "explicit.density_prediction.self_s": "s",
    "explicit.primes_visited": "count",
    "explicit.weighted_ratio": "ratio",
    "petersson.kloosterman.calls": "count",
    "petersson.kloosterman.self_s": "s",
    "petersson.kloosterman.modulus_reuse": "ratio",
    "petersson.bessel_j.calls": "count",
    "petersson.bessel_j.self_s": "s",
    "petersson.bessel_j.miller_share": "ratio",
    "petersson.petersson_delta.calls": "count",
    "petersson.petersson_delta.self_s": "s",
    "cli.main.self_s": "s",
    "cli.render_json.self_s": "s",
    "cli.output_bytes": "bytes",
    "cli.digest_drift": "count",
    "trace.overhead_s": "s",
}


def _ratio(num: float, den: float) -> float:
    """num/den, and 0 where nothing was attempted (den = 0)."""
    return num / den if den else 0.0


class Tracer:
    """Wraps the ``symlow`` layers of this process; one instance per pass."""

    def __init__(self) -> None:
        import symlow.chebyshev
        import symlow.forms

        self.stats: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.edges: Counter = Counter()  # (caller or None, callee) -> calls
        self.counters: Counter = Counter()
        self._stack: list[list] = []
        self._patched: list[tuple[object, str, object]] = []
        self._angle_keys: set[tuple] = set()
        self._moduli: set[int] = set()
        self._command_max_n = 0
        self._cheb_poly = symlow.chebyshev.cheb_poly
        self._cheb_info = None
        self._methods = (
            ("chebyshev.ExactPoly.mul", symlow.chebyshev.ExactPoly.__mul__),
            ("forms.angle", symlow.forms.SyntheticForm.angle),
        )

    # -- installation -------------------------------------------------------

    def _targets(self) -> list[tuple[str, object]]:
        """(span name, original) for every callable the tracer wraps."""
        out = list(self._methods)
        for short in MODULES:
            module = sys.modules[f"symlow.{short}"]
            for attr, value in vars(module).items():
                if attr.startswith("_") or inspect.isclass(value) or not callable(value):
                    continue
                if getattr(value, "__module__", None) == module.__name__:
                    out.append((f"{short}.{attr}", value))
        return out

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer is already installed")
        observers = {
            "forms.angle": self._on_angle,
            "constants.primes_up_to": self._on_sieve,
            "petersson.kloosterman": self._on_kloosterman,
            "petersson.bessel_j": self._on_bessel,
        }
        owners = _owners()
        for name, original in self._targets():
            wrapper = self._wrap(name, original, observers.get(name))
            for owner in owners:
                for attr, value in list(vars(owner).items()):
                    if value is original:
                        self._patched.append((owner, attr, original))
                        setattr(owner, attr, wrapper)
        self._cheb_info = self._cheb_poly.cache_info()

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def begin_command(self) -> None:
        """Mark a command boundary; sieve repeats are counted per command."""
        self._command_max_n = 0

    def _wrap(self, name: str, fn, observe):
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack, edges, clock = self._stack, self.edges, time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            caller = stack[-1] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                stat[0] += 1
                stat[1] += elapsed
                stat[2] += elapsed - frame[1]
                if caller is not None:
                    caller[1] += elapsed
                edges[(caller[0] if caller else None, name)] += 1
            if observe is not None:
                observe(caller[0] if caller else None, args, result)
            return result

        return span

    # -- counters -----------------------------------------------------------

    def _on_angle(self, caller, args, result) -> None:
        form, p = args
        self._angle_keys.add((form.seed, form.distribution, p))

    def _on_sieve(self, caller, args, result) -> None:
        n = int(args[0])
        self.counters["sieved_n"] += n
        self.counters["max_n"] = max(self.counters["max_n"], n)
        if n <= self._command_max_n:
            self.counters["sieve_repeats"] += 1
        self._command_max_n = max(self._command_max_n, n)
        if caller in PRIME_SUMS:
            self.counters["primes_visited"] += len(result)

    def _on_kloosterman(self, caller, args, result) -> None:
        self._moduli.add(args[2])

    def _on_bessel(self, caller, args, result) -> None:
        order, x = args
        if float(x) > min(order + 10.0, 14.0):
            self.counters["miller"] += 1

    # -- results ------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """The per-layer metrics this process can know (not output or drift).

        ``<span>.calls`` and ``<span>.self_s`` come straight from the span of
        that name; the rest are derived below.
        """

        def calls(name: str) -> int:
            return self.stats.get(name, [0])[0]

        def self_s(name: str) -> float:
            return self.stats.get(name, [0, 0.0, 0.0])[2]

        info = self._cheb_poly.cache_info()
        hits = info.hits - self._cheb_info.hits
        misses = info.misses - self._cheb_info.misses
        c = self.counters
        derived = {
            "chebyshev.cheb_poly.hit_ratio": _ratio(hits, hits + misses),
            "chebyshev.residuals.self_s": sum(self_s(n) for n in RESIDUALS),
            "forms.angle.distinct_ratio": _ratio(len(self._angle_keys), calls("forms.angle")),
            "constants.primes_up_to.sieved_n": c["sieved_n"],
            "constants.primes_up_to.max_n": c["max_n"],
            "constants.primes_up_to.repeat_ratio": _ratio(
                c["sieve_repeats"], calls("constants.primes_up_to")
            ),
            "explicit.primes_visited": c["primes_visited"],
            "explicit.weighted_ratio": _ratio(calls("forms.angle"), c["primes_visited"]),
            "petersson.kloosterman.modulus_reuse": _ratio(
                calls("petersson.kloosterman") - len(self._moduli), calls("petersson.kloosterman")
            ),
            "petersson.bessel_j.miller_share": _ratio(c["miller"], calls("petersson.bessel_j")),
        }
        out = {}
        for name in PER_LAYER:
            span, _, field = name.rpartition(".")
            if name in derived:
                out[name] = derived[name]
            elif field == "calls":
                out[name] = calls(span)
            elif field == "self_s":
                out[name] = self_s(span)
        return out

    def spans(self) -> dict:
        """Every wrapped name's calls, total and self time, and the call edges."""
        return {
            "by_name": {
                name: {"calls": calls, "total_s": total, "self_s": own}
                for name, (calls, total, own) in sorted(self.stats.items())
                if calls
            },
            "edges": {
                f"{caller or '-'} -> {callee}": n for (caller, callee), n in sorted(
                    self.edges.items(), key=lambda item: (item[0][0] or "", item[0][1])
                )
            },
        }


def _owners() -> list[object]:
    """Every symlow module and every class defined in one: the lookup sites."""
    modules = [
        module for name, module in sys.modules.items()
        if name == "symlow" or name.startswith("symlow.")
    ]
    classes = [
        value for module in modules for value in vars(module).values()
        if inspect.isclass(value) and value.__module__.startswith("symlow.")
    ]
    return modules + list({id(c): c for c in classes}.values())
