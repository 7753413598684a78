"""Tests of the benchmark itself: python3 -m pytest bench -q"""

from __future__ import annotations

import inspect
import io
import json
import re
import shutil
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

import check
import run
import workloads
from tracer import PER_LAYER, Tracer

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import symlow.cli as cli  # noqa: E402


def _run(argv: list[str]) -> dict:
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        code = cli.main(argv)
    return {"argv": argv, "exit": code, "text": buffer.getvalue()}


def _lookup_sites() -> dict[tuple[int, str], object]:
    sites = {}
    for name, module in list(sys.modules.items()):
        if name == "symlow" or name.startswith("symlow."):
            for owner in [module] + [v for v in vars(module).values() if inspect.isclass(v)]:
                for attr, value in vars(owner).items():
                    sites[(id(owner), attr)] = value
    return sites


def test_checker_passes_a_recorded_document_and_fails_one_corrupted_digit():
    reference = check.load_reference()
    good = _run(["petersson", "--m", "2", "--kappa", "12"])
    problems, drift = check.check_pass([good], reference)
    assert problems == [[]] and drift == 0

    # Corrupt the leading digit of the reported value.
    bad_text = re.sub(r'("value": -?)(\d)',
                      lambda m: m.group(1) + str((int(m.group(2)) + 1) % 10), good["text"], count=1)
    assert bad_text != good["text"]
    problems, drift = check.check_pass([{**good, "text": bad_text}], reference)
    assert problems[0] and drift == 1


def test_checker_fails_a_nonzero_identity_residual_and_a_wrong_exit_code():
    reference = check.load_reference()
    doc = {"suite": "identities", "config": {}, "failures": [],
           "checks": [{"name": "orthonormality", "cases": 1, "max_residual": "1/3"}]}
    text = json.dumps(doc) + "\n"
    problems, _ = check.check_pass(
        [{"argv": ["identities"], "exit": 0, "text": text},
         {"argv": ["identities"], "exit": 2, "text": text}], reference)
    assert all(problems)


def test_tracer_restores_every_attribute_and_keeps_output_bytes():
    commands = [
        ["identities", "--kmax", "2", "--coeff-kmax", "3", "--lmax", "3",
         "--ortho-max", "3", "--power-max", "2"],
        ["pterms", "--r", "1", "--kappa", "12", "--q", "11", "--nu", "1/2"],
        ["petersson", "--m", "2", "--kappa", "12", "--cmax", "50"],
    ]
    plain = [_run(argv)["text"] for argv in commands]
    before = _lookup_sites()

    tracer = Tracer()
    tracer.install()
    try:
        assert _lookup_sites() != before
        traced = [_run(argv)["text"] for argv in commands]
    finally:
        tracer.restore()

    after = _lookup_sites()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert traced == plain
    metrics = tracer.metrics()
    assert metrics["petersson.kloosterman.calls"] == 50
    assert metrics["forms.angle.calls"] > 0
    assert metrics["chebyshev.ExactPoly.mul.calls"] > 0


def test_benchmark_json_names_the_metrics_the_run_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {w["name"]: w["why"] for w in spec["workloads"]} == workloads.WHY
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_every_seed_gives_recorded_commands_of_the_same_shape(workload):
    reference = check.load_reference()
    shapes = set()
    for seed in range(40):
        argvs = workloads.commands(workload, seed)
        assert all(check.key(a) in reference for a in argvs)
        shapes.add(tuple(tuple(x for x in a if not x.isdigit()) for a in argvs))
    assert len(shapes) == 1


def test_run_fails_without_printing_a_result_when_sources_are_missing(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "trace_deep", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
