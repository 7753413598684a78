"""End-to-end tests of the command-line front end: exit codes, embedded
configuration, canonical JSON rendering, byte-identical reruns, the
tabular escape hatch, and stdout digests recorded in bench/reference.json."""

import hashlib
import importlib
import json
import math
import os
import subprocess
import sys
import time
import warnings
from fractions import Fraction
from pathlib import Path

import pytest

import symlow.cli as cli
import symlow.constants
import symlow.explicit
import symlow.forms
import symlow.petersson
from symlow.chebyshev import ONE, cheb_poly
from symlow.cli import DEFAULT_SEED, main, render_json
from symlow.petersson import default_c_max, delta_tail_bound

from oracles import primes_up_to
from test_forms import scalar_fejer_hat


def run_python(*args, env_extra=None):
    # The child imports the same symlow as this process, installed or not.
    package_root = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )


def run_cli(*args, env_extra=None):
    return run_python("-m", "symlow.cli", *args, env_extra=env_extra)


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

    def test_support_beyond_the_sieve_cap_is_one_short_line(self):
        # The prime bound (201 digits) is finite but far above the sieve cap;
        # the error names the radius and shows the bound to 4 digits.
        proc = run_cli("pterms", "--r", "1", "--kappa", "12", "--q", "10007", "--nu", "50")
        assert proc.returncode == 1
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and len(lines[0]) < 160, proc.stderr
        assert lines[0].startswith("symlow: error: support radius nu = 50")
        assert "1.036e+200" in lines[0] and "SYMLOW_SIEVE_CAP" in lines[0]
        assert "Traceback" not in proc.stderr

    def test_one_sieve_and_one_primality_proof(self, monkeypatch, capsys):
        # The three sums share one sieve, and sieved primes are not re-proved
        # before their angle is read; the only Miller-Rabin run is the level's.
        calls = {"_prime_stream": 0, "is_prime": 0}

        def counted(module, name):
            original = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)

        counted(symlow.explicit, "_prime_stream")
        counted(symlow.forms, "is_prime")
        assert main(["pterms", "--r", "2", "--kappa", "12", "--q", "1000003", "--nu", "19/40"]) == 0
        assert len(json.loads(capsys.readouterr().out)["square_power"]) == 2
        assert calls == {"_prime_stream": 1, "is_prime": 1}

    def test_the_prime_count_is_built_for_the_constants_alone(self, monkeypatch, capsys):
        # The walk reads the sieve's segments and never pi(x); the constants'
        # three pairwise trees read one count, built once on the sieve's base,
        # and the completed constant's exact sums need none.
        built = []
        counter = symlow.constants._prime_counter
        monkeypatch.setattr(symlow.constants, "_prime_counter", lambda n, base: built.append(n) or counter(n, base))
        assert main(["pterms", "--r", "2", "--kappa", "12", "--q", "1000003", "--nu", "19/40"]) == 0
        assert json.loads(capsys.readouterr().out)["square_power"] and built == []
        symlow.constants.compute_constants(2, 12, 10**4)
        assert built == [10**4]
        symlow.constants.c_sym_even_completed(10**4)
        assert built == [10**4]

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
            "identities --kmax 10 --coeff-kmax 60 --lmax 80 --ortho-max 40 --power-max 8",
            "petersson --m 2 --kappa 12",
            "petersson --m 971 --kappa 12 --cmax 4000",
            "petersson --m 997 --kappa 12 --cmax 4000",
            "petersson --m 1019 --kappa 12 --cmax 4000",
            "tau-check --output csv",
            "tau-check --m-list 2,3,4,5,6,7,8,9,10",
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


class TestUnrecordedDigests:
    """Same bytes on routes that bench/reference.json does not record: the
    default constants cutoffs, one --cutoff for both constants (at 2 and 3
    too, where the sums' trees meet), the uniform distribution's walk, the
    chain identities past the recorded --kmax, and a Petersson sweep at a
    large weight."""

    @pytest.mark.parametrize(
        "command, digest",
        [
            ("constants --r 2 --kappa 12",
             "246e00c70f1adfe23d112cfb707951da580501be370005740e9334081cf25292"),
            ("constants --r 1 --kappa 12 --cutoff 10000",
             "fa45860d36d30e01357633f5f7e2eb058513cd3a26c36df12af8a9190acd5cbd"),
            # One tree of one prime holds the pnt, decade and even sums.
            ("constants --r 1 --kappa 12 --cutoff 2",
             "ff3f005db04bd290099224a5ea2d7cd88ac6d4aa3bf51387c3cdad981972e9cc"),
            # The pnt and even sums on one tree, the decade sum on another.
            ("constants --r 1 --kappa 12 --cutoff 3",
             "277cec418b05ff7acbc84590034865cfc7de35d8f9311375bcfd280aea0c3880"),
            ("pterms --r 1 --kappa 12 --q 11 --nu 1/2 --dist uniform",
             "b1c92e0201e85a723d7d1abae1a12e3dd7d88569d9e405c43a8f346e016b68a7"),
            ("identities --kmax 20",
             "5af0eefa24653c965d4263c11c913d3d7292ad956447ed2a26ad23a64a1c1917"),
            ("identities --kmax 24",
             "950eac6ac625fd6df88074b182daaf4b1dda9066b999a545f010a38ab0a71a73"),
            # A Bessel order past 170 in the series' first term, Miller's
            # rescale and the log-space tail bound.
            ("petersson --m 10 --kappa 400 --cmax 200",
             "ed27192db8aabfe87f8a7bad20bd74cf3e5b3d5d0d8bde340a45e3e595388e5e"),
        ],
    )
    def test_stdout_digest(self, command, digest, capsys):
        assert main(command.split()) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


def numpy_umath():
    """numpy's compiled core, which lists its CPU targets and features."""
    try:
        return importlib.import_module("numpy._core._multiarray_umath")
    except ImportError:  # numpy 1.x
        return importlib.import_module("numpy.core._multiarray_umath")


def avx512_dispatch_targets() -> list[str]:
    """numpy's AVX-512 dispatch targets that this CPU takes, by numpy's names.

    The names differ across numpy versions (X86_V4 and AVX512_ICL in 2.x,
    AVX512F and AVX512_SKX in 1.x), and numpy refuses to import with a
    baseline target disabled, so they are read from numpy itself.
    """
    umath = numpy_umath()
    return [
        target for target in umath.__cpu_dispatch__
        if (target.startswith("AVX512") or target == "X86_V4")
        and umath.__cpu_features__.get(target) and target not in umath.__cpu_baseline__
    ]


class TestCpuDispatch:
    """The recorded bytes with numpy's AVX-512 loops switched off.

    constants takes np.log and numpy ** over the prime table.  On an AVX-512
    CPU those differ in the last bit from the C library's log and pow for
    some primes, and the digests hold only because the differences wash out
    of the sums; these reruns take the other side of numpy's dispatch.
    """

    @pytest.fixture
    def env_extra(self):
        targets = avx512_dispatch_targets()
        if not targets:
            pytest.skip("numpy dispatches no AVX-512 loop on this CPU")
        return {"NPY_DISABLE_CPU_FEATURES": " ".join(targets)}

    def test_targets_are_switched_off(self, env_extra):
        proc = run_python("-c", (
            "import importlib, json; print(json.dumps(importlib.import_module("
            f"{numpy_umath().__name__!r}).__cpu_features__))"
        ), env_extra=env_extra)
        assert proc.returncode == 0, proc.stderr
        features = json.loads(proc.stdout)
        assert not any(features[t] for t in env_extra["NPY_DISABLE_CPU_FEATURES"].split())

    @pytest.mark.parametrize(
        "command",
        [
            "predict --r 1 --kappa 12 --q 10007 --nu 3/2",
            "pterms --r 1 --kappa 12 --q 10007 --nu 3/2 --seed 1730",
            "petersson --m 2 --kappa 12",
        ],
    )
    def test_stdout_digest(self, command, env_extra):
        proc = run_cli(*command.split(), env_extra=env_extra)
        assert proc.returncode == 0, proc.stderr
        recorded = json.loads(REFERENCE.read_text())[command]["sha256"]
        assert hashlib.sha256(proc.stdout.encode()).hexdigest() == recorded


class TestPeterssonCommand:
    def test_term_document(self):
        proc = run_cli("petersson", "--m", "2", "--kappa", "12", "--cmax", "300")
        assert proc.returncode == 0, proc.stderr
        doc = json.loads(proc.stdout)
        assert doc["term"]["m"] == 2
        assert doc["term"]["c_max"] == 300
        assert doc["term"]["tail_estimate"] >= 0.0

    def test_default_cutoff_reaches_the_level(self):
        # default_c_max(2) is 1000, below the level: the default takes k.
        proc = run_cli("petersson", "--m", "2", "--k", "1009", "--kappa", "12")
        assert proc.returncode == 0, proc.stderr
        doc = json.loads(proc.stdout)
        assert doc["config"]["cmax"] == doc["term"]["c_max"] == 1009
        assert doc["term"]["tail_estimate"] == delta_tail_bound(2, 12, 1009)

    def test_tail_bound_past_the_double_range(self):
        # (2 pi sqrt m)^199 / 199! overflows a double; the bound does not.
        proc = run_cli("petersson", "--m", "1000000", "--kappa", "200", "--cmax", "1000")
        assert proc.returncode == 0, proc.stderr
        assert "Traceback" not in proc.stderr
        tail = json.loads(proc.stdout)["term"]["tail_estimate"]
        assert tail == delta_tail_bound(10**6, 200, 1000)
        assert 1.27e-211 < tail < 1.28e-211

    def test_tail_bound_beyond_the_double_range_is_one_short_line(self):
        # c_max = 1 is inside the window that warns; the error follows the warning.
        proc = run_cli("petersson", "--m", "100000000", "--kappa", "200", "--cmax", "1")
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert "Traceback" not in proc.stderr
        errors = [line for line in proc.stderr.splitlines() if line.startswith("symlow: error:")]
        assert len(errors) == 1 and len(errors[0]) < 160, proc.stderr
        assert "beyond the double range" in errors[0]


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


HUGE = "1" + "0" * 5000  # past the 4,300-digit limit of int(str)


class TestUsageErrors:
    @pytest.mark.parametrize(
        "args",
        [
            ("identities", "--bogus-flag", "1"),
            ("constants", "--kappa", "12"),  # missing --r
            ("predict", "--r", "1", "--kappa", "12", "--q", "11", "--nu", "abc"),
            ("predict", "--r", "1", "--kappa", "12", "--q", "11", "--nu", "1/0"),
            ("predict", "--r", "1", "--kappa", "12", "--q", "11", "--nu", "0.5",
             "--output", "csv"),  # only tau-check has --output
            ("petersson", "--m", "0", "--kappa", "12"),
            ("petersson", "--m", "2", "--kappa", "12", "--cmax", "0"),
            ("identities", "--threads", "0"),
            ("no-such-command",),
            # Numbers beyond the double range are rejected where they enter.
            ("petersson", "--m", "1" + "0" * 400, "--kappa", "12", "--cmax", "10"),
            ("petersson", "--m", "2", "--kappa", "1" + "0" * 400, "--cmax", "10"),
            ("constants", "--r", "1", "--kappa", "1" + "0" * 400),
            ("pterms", "--r", "1", "--kappa", "12", "--q", "10007", "--nu", "1e400"),
            ("predict", "--r", "1", "--kappa", "12", "--q", "10007", "--nu", "1e400"),
            # Options that set nothing are not options: the config block
            # reports threads 1, output json and tau-check's weight 12 itself.
            ("identities", "--threads", "1"),
            ("predict", "--r", "1", "--kappa", "12", "--q", "11", "--nu", "1/2", "--output", "json"),
            ("tau-check", "--kappa", "12"),
        ],
    )
    def test_exit_one(self, args):
        proc = run_cli(*args)
        assert proc.returncode == 1, (args, proc.stderr)
        assert "Traceback" not in proc.stderr, (args, proc.stderr)

    @pytest.mark.parametrize(
        "args",
        [
            ("petersson", "--m", HUGE, "--kappa", "12"),
            ("predict", "--r", "1", "--kappa", "12", "--q", "11", "--nu", HUGE),
            ("pterms", "--r", "1", "--kappa", "12", "--q", "11", "--nu", "1/2", "--seed", HUGE),
            ("tau-check", "--m-list", "2," + HUGE),
        ],
    )
    def test_number_past_the_digit_limit_is_one_short_line(self, args):
        # A number past Python's int digit limit is refused where it enters,
        # naming the limit and not echoing the 5,001 characters back.
        proc = run_cli(*args)
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        errors = [line for line in proc.stderr.splitlines() if ": error:" in line]
        assert len(errors) == 1 and len(errors[0]) < 160, proc.stderr
        assert f"{sys.get_int_max_str_digits()}-digit limit" in errors[0]
        assert "0" * 100 not in proc.stderr

    @pytest.mark.parametrize(
        "args, reason",
        [
            # pterms checks the weight and the sign that no number depends on.
            (("pterms", "--r", "1", "--kappa", "11", "--q", "11", "--nu", "1/2"),
             "weight must be an even integer >= 2"),
            (("pterms", "--r", "1", "--kappa", "12", "--q", "11", "--nu", "1/2", "--eps", "0"),
             "invalid choice"),
            # Fraction() would multiply these exponents out: 13 s for the
            # first on a 2-core machine, and over a minute for the second.
            (("predict", "--r", "1", "--kappa", "12", "--q", "11", "--nu", "1e-10000000"),
             "outside the double range"),
            (("predict", "--r", "1", "--kappa", "12", "--q", "11", "--nu", "1e100000000"),
             "outside the double range"),
            # Positive, but no double holds it: not "must be positive".
            (("pterms", "--r", "1", "--kappa", "12", "--q", "11", "--nu", "1e-1000000"),
             "outside the double range"),
            (("pterms", "--r", "1", "--kappa", "12", "--q", "11", "--nu", "1/1" + "0" * 400),
             "outside the double range"),
            # Zero, whatever its exponent, is in range and reaches the support check.
            (("pterms", "--r", "1", "--kappa", "12", "--q", "11", "--nu", "0e-100000000"),
             "support radius must be positive"),
        ],
    )
    def test_refusal_is_one_short_line_and_quick(self, args, reason, capsys):
        start = time.perf_counter()
        try:
            code = main(list(args))
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
        elapsed = time.perf_counter() - start
        err = capsys.readouterr().err
        errors = [line for line in err.splitlines() if ": error:" in line]
        assert code == 1 and len(errors) == 1 and len(errors[0]) < 160, err
        assert reason in errors[0]
        assert elapsed < 2.0, elapsed

    @pytest.mark.parametrize(
        "command, reason",
        [
            ("constants --r 1 --kappa 11 --cutoff 100000000", "weight must be an even integer >= 2"),
            ("predict --r 1 --kappa 11 --q 11 --nu 1/2 --cutoff 100000000",
             "weight must be an even integer >= 2"),
            ("predict --r 1 --kappa 12 --q 12 --nu 1/2 --cutoff 100000000", "q must be prime"),
            ("predict --r 1 --kappa 12 --q 11 --nu 0 --cutoff 100000000",
             "support radius must be positive"),
            ("petersson --m 6000000000 --kappa 200 --cmax 30",
             "the tail bound at m=6000000000, kappa=200, c_max=30 is exp(1076.0), beyond the double range"),
            ("petersson --m 6000000000 --kappa 1000 --cmax 600",
             "the tail bound at m=6000000000, kappa=1000, c_max=600 is exp(792.9), beyond the double range"),
            ("pterms --r 1 --kappa 11 --q 11 --nu 1/2", "weight must be an even integer >= 2"),
        ],
    )
    def test_refusal_does_no_work(self, command, reason, capsys, monkeypatch):
        # A refused command enters neither the sieve nor the Kloosterman
        # sweep, and warns of nothing: its one error line is all it prints.
        entered = []

        def work(*args):
            entered.append(args)
            raise AssertionError("the refused command started its work")

        monkeypatch.setattr(symlow.constants, "_segmented_sieve", work)
        monkeypatch.setattr(symlow.petersson, "_kloosterman_block", work)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(command.split())
        assert code == 1 and entered == []
        assert capsys.readouterr().err.splitlines() == [f"symlow: error: {reason}"]


class TestBareImport:
    def test_loads_no_submodule_and_no_numpy(self):
        # The package root imports nothing: each name comes from its module.
        proc = run_python("-c", (
            "import json, sys, symlow; print(json.dumps([symlow.__file__, sorted("
            "m for m in sys.modules if m.split('.')[0] == 'numpy' or m.startswith('symlow.'))]))"
        ))
        assert proc.returncode == 0, proc.stderr
        path, loaded = json.loads(proc.stdout)
        assert Path(path).parent == Path(cli.__file__).parent
        assert loaded == []
