"""End-to-end tests of the command-line front end: exit codes, embedded
configuration, canonical JSON rendering, byte-identical reruns, the
tabular escape hatch, and stdout digests recorded in bench/reference.json."""

import hashlib
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import symlow.cli as cli
import symlow.explicit
import symlow.forms
from symlow.chebyshev import ONE, cheb_poly
from symlow.cli import DEFAULT_SEED, main, render_json
from symlow.constants import primes_up_to
from symlow.petersson import default_c_max

from test_forms import scalar_fejer_hat


def run_cli(*args, env_extra=None):
    # The child imports the same symlow as this process, installed or not.
    package_root = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "symlow.cli", *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )


class TestRenderJson:
    def test_fractions_render_as_quoted_ratio(self):
        assert render_json(Fraction(82, 57)) == '"82/57"'
        assert render_json(Fraction(0)) == '"0"'
        assert render_json(Fraction(-3, 4)) == '"-3/4"'

    def test_floats_round_trip(self):
        for x in (0.1, 1.25, -2.8402873751674607, 1e-300, 123456789.123456789):
            assert float(json.loads(render_json(x))) == x

    def test_insertion_order_preserved(self):
        text = render_json({"zebra": 1, "alpha": 2})
        assert text.index("zebra") < text.index("alpha")

    def test_primitive_forms(self):
        assert render_json(True) == "true"
        assert render_json(None) == "null"
        assert render_json(7) == "7"
        assert render_json({}) == "{}"
        assert render_json([]) == "[]"

    def test_nested_structures_parse(self):
        doc = {"a": [1, 2.5, {"b": Fraction(1, 3)}], "c": "text"}
        parsed = json.loads(render_json(doc))
        assert parsed["a"][2]["b"] == "1/3"

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            render_json(float("nan"))
        with pytest.raises(ValueError):
            render_json(float("inf"))

    def test_unsupported_type_rejected(self):
        with pytest.raises(TypeError):
            render_json({1, 2, 3})


class TestIdentitiesCommand:
    def test_small_suite_passes(self):
        proc = run_cli(
            "identities", "--kmax", "4", "--coeff-kmax", "10",
            "--lmax", "10", "--ortho-max", "6", "--power-max", "3",
        )
        assert proc.returncode == 0, proc.stderr
        doc = json.loads(proc.stdout)
        assert doc["suite"] == "identities"
        assert doc["failures"] == []
        assert {c["name"] for c in doc["checks"]} == {
            "monomial_reassembly",
            "orthonormality",
            "linearization_reassembly",
            "power_sum_identity",
            "chain_decomposition",
            "odd_reduction",
            "vanishing_chain_sum",
            "difference_monomial",
        }
        assert all(c["max_residual"] == "0" for c in doc["checks"])
        assert doc["config"]["seed"] == DEFAULT_SEED

    def test_nonzero_residual_exits_two(self, monkeypatch, capsys):
        monkeypatch.setattr(cli, "vanishing_chain_sum", lambda k0: Fraction(1))
        code = main([
            "identities", "--kmax", "3", "--coeff-kmax", "4",
            "--lmax", "4", "--ortho-max", "3", "--power-max", "2",
        ])
        assert code == 2
        doc = json.loads(capsys.readouterr().out)
        assert "vanishing_chain_sum" in doc["failures"]

    def test_nonzero_polynomial_residual_renders_quoted(self, monkeypatch, capsys):
        monkeypatch.setattr(cli, "monomial_expansion", lambda ell: cheb_poly(ell) + ONE)
        code = main([
            "identities", "--kmax", "2", "--coeff-kmax", "2",
            "--lmax", "4", "--ortho-max", "2", "--power-max", "2",
        ])
        assert code == 2
        out = capsys.readouterr().out
        assert '"max_residual": "1"' in out
        assert json.loads(out)["failures"] == ["monomial_reassembly"]


class TestConfigBlock:
    @pytest.mark.parametrize(
        "argv, keys",
        [
            (["identities", "--kmax", "2", "--coeff-kmax", "2", "--lmax", "2",
              "--ortho-max", "2", "--power-max", "2"],
             ["command", "kmax", "coeff_kmax", "lmax", "ortho_max", "power_max",
              "seed", "threads", "output"]),
            (["constants", "--r", "1", "--kappa", "12", "--cutoff", "1000"],
             ["command", "r", "kappa", "cutoff", "seed", "threads", "output"]),
            (["predict", "--r", "1", "--kappa", "12", "--q", "11", "--nu", "1/2",
              "--cutoff", "1000"],
             ["command", "r", "kappa", "q", "nu", "phi", "cutoff",
              "seed", "threads", "output"]),
            (["pterms", "--r", "1", "--kappa", "12", "--q", "11", "--nu", "1/2"],
             ["command", "r", "kappa", "q", "nu", "phi", "seed", "dist", "eps",
              "threads", "output"]),
            (["petersson", "--m", "2", "--kappa", "12", "--cmax", "20"],
             ["command", "m", "k", "kappa", "cmax", "seed", "threads", "output"]),
            (["tau-check", "--m-list", "2", "--cmax", "20"],
             ["command", "kappa", "m_list", "cmax", "seed", "threads", "output"]),
        ],
    )
    def test_keys_in_option_order(self, argv, keys, capsys):
        assert main(argv) == 0
        config = json.loads(capsys.readouterr().out)["config"]
        assert list(config) == keys
        assert config["command"] == argv[0]

    def test_resolved_values_overlaid(self, capsys):
        assert main(["petersson", "--m", "2", "--kappa", "12"]) == 0
        config = json.loads(capsys.readouterr().out)["config"]
        assert config["cmax"] == default_c_max(2)
        assert main(["tau-check", "--m-list", " 3, 2,", "--cmax", "30"]) == 0
        config = json.loads(capsys.readouterr().out)["config"]
        assert config["m_list"] == "3,2"
        assert config["seed"] == DEFAULT_SEED


class TestConstantsCommand:
    def test_bundle_document(self):
        proc = run_cli("constants", "--r", "1", "--kappa", "12", "--cutoff", "1000")
        assert proc.returncode == 0, proc.stderr
        doc = json.loads(proc.stdout)
        assert doc["config"]["command"] == "constants"
        assert doc["config"]["cutoff"] == 1000
        bundle = doc["bundle"]
        assert bundle["r"] == 1 and bundle["kappa"] == 12
        assert bundle["pnt_cutoff"] == 1000 and bundle["c_cutoff"] == 1000
        composed = -2.0 * math.log(math.pi) + bundle["c_gamma_value"]
        assert bundle["c_infty_value"] == composed
        assert doc["nu_limit"] == "722/377"

    def test_byte_identical_reruns(self):
        a = run_cli("constants", "--r", "2", "--kappa", "12", "--cutoff", "2000")
        b = run_cli("constants", "--r", "2", "--kappa", "12", "--cutoff", "2000")
        assert a.returncode == b.returncode == 0
        assert a.stdout == b.stdout

    def test_sieve_cap_env_respected(self):
        proc = run_cli(
            "constants", "--r", "1", "--kappa", "12", "--cutoff", "1000",
            env_extra={"SYMLOW_SIEVE_CAP": "100"},
        )
        assert proc.returncode == 1
        assert "SYMLOW_SIEVE_CAP" in proc.stderr


class TestPredictCommand:
    def test_main_term_frozen(self):
        proc = run_cli(
            "predict", "--r", "1", "--kappa", "12", "--q", "10007",
            "--nu", "0.5", "--cutoff", "10000",
        )
        assert proc.returncode == 0, proc.stderr
        doc = json.loads(proc.stdout)
        assert doc["report"]["main_term"] == 1.25
        assert doc["report"]["admissible"] is True
        assert doc["config"]["nu"] == "1/2"

    def test_rational_nu_accepted(self):
        proc = run_cli(
            "predict", "--r", "1", "--kappa", "12", "--q", "11",
            "--nu", "1/2", "--cutoff", "10000",
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["report"]["main_term"] == 1.25

    def test_composite_level_rejected(self):
        proc = run_cli(
            "predict", "--r", "1", "--kappa", "12", "--q", "10",
            "--nu", "0.5", "--cutoff", "10000",
        )
        assert proc.returncode == 1
        assert "symlow: error:" in proc.stderr

    def test_strong_pseudoprime_level_rejected(self, capsys):
        # 399165290221 * 798330580441 passes Miller-Rabin to every base 2..37.
        argv = ["predict", "--r", "1", "--kappa", "12", "--q", "318665857834031151167461",
                "--nu", "1/1000", "--cutoff", "100"]
        assert main(argv) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("symlow: error: q must be prime")


class TestPtermsCommand:
    def test_document_shape_and_determinism(self):
        args = (
            "pterms", "--r", "1", "--kappa", "12", "--q", "11",
            "--nu", "1/2", "--seed", "7",
        )
        a = run_cli(*args)
        assert a.returncode == 0, a.stderr
        doc = json.loads(a.stdout)
        assert doc["config"]["seed"] == 7
        assert doc["config"]["dist"] == "sato-tate"
        b = run_cli(*args)
        assert b.stdout == a.stdout

    def test_odd_weight_rejected(self):
        proc = run_cli(
            "pterms", "--r", "1", "--kappa", "11", "--q", "11", "--nu", "1/2",
        )
        assert proc.returncode == 1

    def test_oversized_support_is_a_clean_error(self):
        # exp(nu * log q) overflows a float; the error names the support radius.
        proc = run_cli("pterms", "--r", "1", "--kappa", "12", "--q", "10007", "--nu", "100")
        assert proc.returncode == 1
        assert proc.stderr.startswith("symlow: error: support radius nu = 100")
        assert "Traceback" not in proc.stderr

    def test_one_sieve_and_one_primality_proof(self, monkeypatch, capsys):
        # The three sums share one sieve, and sieved primes are not re-proved
        # before their angle is read; the only Miller-Rabin run is the level's.
        calls = {"primes_up_to": 0, "is_prime": 0}

        def counted(module, name):
            original = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)

        counted(symlow.explicit, "primes_up_to")
        counted(symlow.forms, "is_prime")
        assert main(["pterms", "--r", "2", "--kappa", "12", "--q", "1000003", "--nu", "19/40"]) == 0
        assert len(json.loads(capsys.readouterr().out)["square_power"]) == 2
        assert calls == {"primes_up_to": 1, "is_prime": 1}

    def test_one_draw_per_weighted_prime_and_none_on_replay(self, monkeypatch, capsys):
        # A cold walk hashes each weighted prime once, in one batch; the same
        # form with the other sign, in the same process, reads the cached batch.
        draws = []
        draw = symlow.forms._uniform_units

        def counted(seed, primes):
            draws.append(len(primes))
            return draw(seed, primes)

        monkeypatch.setattr(symlow.forms, "_uniform_units", counted)
        symlow.forms._angle_batch.cache_clear()
        command = "pterms --r 1 --kappa 12 --q 10007 --nu 3/2 --seed 1747".split()
        assert main(command) == 0
        cold = json.loads(capsys.readouterr().out)
        # The Fejer weight falls with the argument, so a prime has some nonzero
        # weight exactly when its first-power weight is nonzero.
        hat = scalar_fejer_hat(Fraction(3, 2))
        scale = math.log(10007)
        weighted = [
            p for p in primes_up_to(cold["cutoffs"]["first_power"]).tolist()
            if p != 10007 and hat(math.log(p) / scale) != 0.0
        ]
        assert draws == [len(weighted)]
        assert main([*command, "--eps", "-1"]) == 0
        assert json.loads(capsys.readouterr().out)["first_power"] == cold["first_power"]
        assert draws == [len(weighted)]


REFERENCE = Path(__file__).resolve().parents[1] / "bench" / "reference.json"


class TestRecordedDigests:
    """Same bytes as recorded: stdout sha256 against bench/reference.json."""

    @pytest.mark.parametrize(
        "command",
        [
            "identities",
            "petersson --m 2 --kappa 12",
            "tau-check --output csv",
            "predict --r 1 --kappa 12 --q 10007 --nu 3/2",
            "predict --r 2 --kappa 12 --q 1000003 --nu 19/40 --cutoff 100000000",
            "pterms --r 2 --kappa 12 --q 1000003 --nu 19/40",
            "pterms --r 1 --kappa 12 --q 10007 --nu 3/2 --seed 1730",
            # A cold walk, then the cached replay prime_side makes.
            "pterms --r 1 --kappa 12 --q 10007 --nu 3/2 --seed 1761",
            "pterms --r 1 --kappa 12 --q 10007 --nu 3/2 --seed 1761 --eps -1",
        ],
    )
    def test_stdout_digest(self, command, capsys):
        recorded = json.loads(REFERENCE.read_text())[command]["sha256"]
        assert main(command.split()) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == recorded


class TestPeterssonCommand:
    def test_term_document(self):
        proc = run_cli("petersson", "--m", "2", "--kappa", "12", "--cmax", "300")
        assert proc.returncode == 0, proc.stderr
        doc = json.loads(proc.stdout)
        assert doc["term"]["m"] == 2
        assert doc["term"]["c_max"] == 300
        assert doc["term"]["tail_estimate"] >= 0.0


class TestTauCheckCommand:
    def test_json_table(self):
        proc = run_cli("tau-check", "--m-list", "2,3", "--cmax", "300")
        assert proc.returncode == 0, proc.stderr
        doc = json.loads(proc.stdout)
        assert [row["m"] for row in doc["rows"]] == [2, 3]
        assert doc["max_abs_diff"] < 1e-6
        for row in doc["rows"]:
            assert abs(row["ratio"] - row["target"]) == pytest.approx(
                row["abs_diff"], abs=1e-18
            )

    def test_csv_table(self):
        proc = run_cli("tau-check", "--m-list", "2,3", "--cmax", "300", "--output", "csv")
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.strip().splitlines()
        assert "# command=tau-check" in lines
        header_at = lines.index("m,ratio,target,abs_diff,tail_bound")
        data = lines[header_at + 1:]
        assert len(data) == 2
        assert data[0].startswith("2,") and data[1].startswith("3,")

    def test_csv_byte_identical(self):
        args = ("tau-check", "--m-list", "2", "--cmax", "200", "--output", "csv")
        assert run_cli(*args).stdout == run_cli(*args).stdout

    def test_weight_restriction(self):
        proc = run_cli("tau-check", "--kappa", "10", "--m-list", "2", "--cmax", "200")
        assert proc.returncode == 1

    def test_table_range_enforced(self):
        for bad in ("1", "11", "2,99"):
            proc = run_cli("tau-check", "--m-list", bad, "--cmax", "200")
            assert proc.returncode == 1, bad


class TestUsageErrors:
    @pytest.mark.parametrize(
        "args",
        [
            ("identities", "--bogus-flag", "1"),
            ("constants", "--kappa", "12"),  # missing --r
            ("predict", "--r", "1", "--kappa", "12", "--q", "11", "--nu", "abc"),
            ("predict", "--r", "1", "--kappa", "12", "--q", "11", "--nu", "1/0"),
            ("predict", "--r", "1", "--kappa", "12", "--q", "11", "--nu", "0.5",
             "--output", "csv"),  # csv is tabular-only
            ("petersson", "--m", "0", "--kappa", "12"),
            ("petersson", "--m", "2", "--kappa", "12", "--cmax", "0"),
            ("identities", "--threads", "0"),
            ("no-such-command",),
        ],
    )
    def test_exit_one(self, args):
        proc = run_cli(*args)
        assert proc.returncode == 1, (args, proc.stderr)
