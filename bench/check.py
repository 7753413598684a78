"""Correctness checks for the documents one benchmark pass produces.

A document passes when its exit code is 0 and it holds every property a
correct build must give it:

- ``identities``: ``failures`` is empty and every ``max_residual`` is "0";
- ``predict``: ``c_value`` lies within its own rigorous ``c_tail_bound`` of
  the limit of the even-square constant;
- ``tau-check`` rows (JSON or CSV): ``abs_diff <= max(1e-6, tail_bound)``,
  the budget acceptance criterion 06 uses;
- ``pterms --eps -1`` replays: the same numbers, bit for bit, as the call
  without ``--eps -1`` earlier in the same pass;
- ``pterms``, ``predict`` and ``petersson``: each pinned value within 1e-12
  relative of the value ``record.py`` stored, or within the value's own error
  companion where that is larger.

Byte changes are counted separately as digest drift, never as failures.
"""

from __future__ import annotations

import csv
import hashlib
import json
from pathlib import Path

REFERENCE = Path(__file__).with_name("reference.json")
# Limit of the even-square constant sum_p log p / (p^{3/2} - p).
C_SYM_EVEN_LIMIT = 2.4768363850
REL_TOL = 1e-12
TAU_ABS_FLOOR = 1e-6


def key(argv: list[str]) -> str:
    return " ".join(argv)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text())


def pinned_values(argv: list[str], text: str) -> dict[str, list[float]]:
    """The values a later build must reproduce, as path -> [value, tolerance]."""
    command = argv[0]
    if command not in ("pterms", "predict", "petersson"):
        return {}
    doc = json.loads(text)
    out: dict[str, list[float]] = {}

    def pin(path: str, value: float, companion: float = 0.0) -> None:
        out[path] = [value, max(REL_TOL * abs(value), companion)]

    if command == "pterms":
        pin("first_power", doc["first_power"])
        for m, value in enumerate(doc["square_power"]):
            pin(f"square_power.{m}", value)
        pin("higher_power", doc["higher_power"])
    elif command == "predict":
        report = doc["report"]
        consts = report["constants"]
        pin("report.main_term", report["main_term"])
        pin("report.scale", report["scale"])
        pin("report.constants.c_gamma_value", consts["c_gamma_value"])
        pin("report.constants.c_infty_value", consts["c_infty_value"])
        pin("report.constants.c_pnt_value", consts["c_pnt_value"], consts["c_pnt_uncertainty"])
        pin("report.constants.c_value", consts["c_value"], consts["c_tail_bound"])
    else:
        term = doc["term"]
        pin("term.value", term["value"], term["tail_estimate"])
    return out


def _lookup(doc, path: str):
    for part in path.split("."):
        doc = doc[int(part)] if isinstance(doc, list) else doc[part]
    return doc


def _tau_rows(argv: list[str], text: str) -> list[dict[str, float]]:
    if "csv" not in argv:
        return json.loads(text)["rows"]
    lines = [line for line in text.splitlines() if not line.startswith("#")]
    return [{k: float(v) for k, v in row.items()} for row in csv.DictReader(lines)]


def _property_problems(argv: list[str], text: str) -> list[str]:
    command = argv[0]
    problems = []
    if command == "identities":
        doc = json.loads(text)
        if doc["failures"]:
            problems.append(f"identity failures {doc['failures']}")
        nonzero = [c["name"] for c in doc["checks"] if c["max_residual"] != "0"]
        if nonzero:
            problems.append(f"nonzero residuals in {nonzero}")
    elif command == "predict":
        consts = json.loads(text)["report"]["constants"]
        gap = abs(consts["c_value"] - C_SYM_EVEN_LIMIT)
        if not gap <= consts["c_tail_bound"]:
            problems.append(f"c_value off its limit by {gap:.3e} > c_tail_bound")
    elif command == "tau-check":
        for row in _tau_rows(argv, text):
            budget = max(TAU_ABS_FLOOR, row["tail_bound"])
            if not row["abs_diff"] <= budget:
                problems.append(f"tau row m={row['m']:g}: abs_diff {row['abs_diff']:.3e} > {budget:.3e}")
    return problems


def _reference_problems(argv: list[str], text: str, reference: dict) -> list[str]:
    entry = reference.get(key(argv))
    if entry is None:
        return ["no reference recorded for this command"]
    if not entry["values"]:
        return []
    doc = json.loads(text)
    problems = []
    for path, (want, tol) in entry["values"].items():
        got = _lookup(doc, path)
        if not abs(got - want) <= tol:
            problems.append(f"{path} = {got!r}, recorded {want!r} (tolerance {tol:.3e})")
    return problems


def _replay_problems(argv: list[str], text: str, earlier: dict[str, str]) -> list[str]:
    if argv[0] != "pterms" or "--eps" not in argv:
        return []
    i = argv.index("--eps")
    cold = earlier.get(key(argv[:i] + argv[i + 2:]))
    if cold is None:
        return ["replay has no cold call earlier in the pass"]
    fields = ("first_power", "square_power", "higher_power")
    warm_doc, cold_doc = json.loads(text), json.loads(cold)
    return [f"replayed {f} differs from the cold call" for f in fields if warm_doc[f] != cold_doc[f]]


def check_pass(results: list[dict], reference: dict) -> tuple[list[list[str]], int]:
    """Problems per document (empty means correct) and the digest drift count.

    ``results`` holds one ``{"argv", "exit", "text"}`` entry per command, in
    the order the pass ran them.
    """
    problems: list[list[str]] = []
    drift = 0
    earlier: dict[str, str] = {}
    for result in results:
        argv, text = result["argv"], result["text"]
        entry = reference.get(key(argv))
        if entry is None or entry["sha256"] != digest(text):
            drift += 1
        if result["exit"] != 0:
            problems.append([f"exit code {result['exit']}, expected 0"])
            continue
        try:
            found = (
                _property_problems(argv, text)
                + _reference_problems(argv, text, reference)
                + _replay_problems(argv, text, earlier)
            )
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            found = [f"malformed document: {exc!r}"]
        problems.append(found)
        earlier[key(argv)] = text
    return problems, drift
