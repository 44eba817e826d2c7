"""Command-line interface: output bytes, exit codes, determinism."""

import json
import os
import subprocess
import sys
import warnings
from fractions import Fraction as F
from pathlib import Path

import pytest

import bipcorr
from bipcorr import cli, model, simulate, walks
from bipcorr import families as fam
from bipcorr.rational import format_scalar
from bipcorr.recurrence import SITE_TAGS, CoefficientEngine


def run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def negative_moments_file(tmp_path) -> str:
    """A moments file with V_2 = -1, which no real weight law has."""
    path = tmp_path / "moments.json"
    path.write_text(json.dumps({"even_moments": ["-1", "2"]}))
    return str(path)


def tamper_sites(monkeypatch, tags, where=lambda site: True):
    """Make crosscheck's engine add 1 to the families ``tags`` at the sites
    ``where`` accepts, through the block reader; returns the engine class."""

    class Tampered(CoefficientEngine):
        def scaled_site(self, site):
            scale, values = super().scaled_site(site)
            if where(site):
                values = tuple(
                    value + scale if tag in tags else value
                    for tag, value in zip(SITE_TAGS, values)
                )
            return scale, values

    monkeypatch.setattr(cli, "CoefficientEngine", Tampered)
    return Tampered


def assert_moment_rejected(code, out, err):
    assert code == 2 and out == ""
    assert err.startswith("error:") and "V_2 >= 0, got -1" in err


class TestCompute:
    def test_single_pair_default_context(self, capsys):
        # alpha=1/2, p=1, rademacher: n_{2,2} = 4*alpha*(1-alpha)*V4/p = 1.
        code, out, _ = run(capsys, ["compute", "--k", "2", "--m", "2"])
        assert code == 0 and out == "1\n"

    def test_single_pair_moments_file(self, capsys, tmp_path):
        path = tmp_path / "moments.json"
        path.write_text(json.dumps({"even_moments": ["2", "3"]}))
        code, out, _ = run(
            capsys,
            ["compute", "--k", "2", "--m", "2", "--alpha", "1/3", "--p", "2",
             "--moments-file", str(path)],
        )
        assert code == 0 and out == "4/3\n"

    def test_table_csv_frozen(self, capsys):
        code, out, _ = run(
            capsys,
            ["compute", "--kmax", "4", "--mmax", "4", "--alpha", "1/2", "--p", "4",
             "--moments", "rademacher"],
        )
        assert code == 0
        assert out == (
            "k/m,1,2,3,4\n"
            "1,0,0,0,0\n"
            "2,0,1/4,0,9/16\n"
            "3,0,0,0,0\n"
            "4,0,9/16,0,89/64\n"
        )

    def test_decimal_rendering(self, capsys):
        code, out, _ = run(
            capsys,
            ["compute", "--k", "2", "--m", "2", "--alpha", "1/2", "--p", "4",
             "--decimal", "3"],
        )
        assert code == 0 and out == "0.25\n"

    def test_json_format(self, capsys):
        code, out, _ = run(
            capsys,
            ["compute", "--k", "2", "--m", "4", "--alpha", "1/2", "--p", "1",
             "--format", "json"],
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["alpha"] == "1/2" and payload["p"] == "1"
        assert payload["entries"] == [{"k": 2, "m": 4, "value": "3"}]
        assert "engine_version" in payload

    def test_output_file(self, capsys, tmp_path):
        path = tmp_path / "out.csv"
        code, out, _ = run(
            capsys, ["compute", "--k", "2", "--m", "2", "--output", str(path)]
        )
        assert code == 0 and out == ""
        assert path.read_text() == "1\n"

    def test_mode_flag_conflicts(self, capsys):
        for argv in (
            ["compute", "--k", "2", "--m", "2", "--kmax", "4", "--mmax", "4"],
            ["compute"],
            ["compute", "--k", "2"],
            ["compute", "--kmax", "4"],
            ["compute", "--k", "2", "--m", "2", "--decimal", "0"],
            ["compute", "--k", "2", "--m", "2", "--moments", "rademacher",
             "--moments-file", "x.json"],
        ):
            code, _, err = run(capsys, argv)
            assert code == 2 and err.startswith("error:")

    def test_bad_params_exit_config(self, capsys):
        code, _, err = run(capsys, ["compute", "--k", "2", "--m", "2", "--alpha", "x"])
        assert code == 2
        code, _, err = run(capsys, ["compute", "--k", "2", "--m", "2", "--alpha", "3/2"])
        assert code == 2 and "alpha" in err

    def test_short_moments_file_exit_moments(self, capsys, tmp_path):
        path = tmp_path / "moments.json"
        path.write_text(json.dumps({"even_moments": ["1"]}))
        code, _, err = run(
            capsys,
            ["compute", "--k", "2", "--m", "4", "--moments-file", str(path)],
        )
        assert code == 3 and "order" in err

    def test_negative_moment_exit_config(self, capsys, tmp_path):
        # It used to print 2.
        argv = ["compute", "--k", "2", "--m", "2", "--moments-file", negative_moments_file(tmp_path)]
        assert_moment_rejected(*run(capsys, argv))


class TestOracle:
    def test_value_census_and_dump(self, capsys):
        code, out, _ = run(capsys, ["oracle", "--k", "2", "--m", "2", "--dump"])
        assert code == 0
        payload = json.loads(out)
        assert payload["value"] == "1"
        assert payload["census"] == {"minimal": 16, "essential": 4}
        assert payload["walks"] == [
            "1:1 2:1 1:1 | 1:1 2:1 1:1",
            "1:1 2:1 1:1 | 2:1 1:1 2:1",
            "2:1 1:1 2:1 | 1:1 2:1 1:1",
            "2:1 1:1 2:1 | 2:1 1:1 2:1",
        ]

    def test_no_dump_key_by_default(self, capsys):
        code, out, _ = run(capsys, ["oracle", "--k", "2", "--m", "2"])
        assert code == 0 and "walks" not in json.loads(out)

    def test_cap_exceeded(self, capsys):
        code, _, err = run(capsys, ["oracle", "--k", "8", "--m", "6"])
        assert code == 4 and "cap" in err
        code, _, err = run(capsys, ["oracle", "--k", "2", "--m", "4", "--cap", "4"])
        assert code == 4
        # A negative cap is a config error, not a cap that every pair exceeds.
        code, out, err = run(capsys, ["oracle", "--k", "2", "--m", "2", "--cap", "-3"])
        assert (code, out, err) == (2, "", "error: --cap must be >= 0, got -3\n")

    def test_bad_indices(self, capsys):
        code, _, _ = run(capsys, ["oracle", "--k", "0", "--m", "2"])
        assert code == 2

    @pytest.mark.parametrize(
        "flag, value", [("--alpha", "1"), ("--alpha", "3/2"), ("--p", "0"), ("--p", "-1")]
    )
    def test_bad_params_exit_config(self, capsys, flag, value):
        code, out, err = run(capsys, ["oracle", "--k", "2", "--m", "2", flag, value])
        assert code == 2 and out == ""
        assert err.startswith("error:") and f"got {value}" in err

    def test_negative_moment_exit_config(self, capsys, tmp_path):
        argv = ["oracle", "--k", "2", "--m", "2", "--moments-file", negative_moments_file(tmp_path)]
        assert_moment_rejected(*run(capsys, argv))


class TestCrosscheck:
    def test_clean_run(self, capsys):
        code, out, err = run(
            capsys, ["crosscheck", "--max-total", "4", "--family-total", "1"]
        )
        assert code == 0 and err == ""
        lines = out.splitlines()
        assert lines[0] == "alpha=1/2 p=1"
        assert lines[1] == "coefficient pairs checked: 1"
        assert lines[2].startswith("family keys checked:")
        assert lines[-1] == "OK"

    def test_cap_exceeded(self, capsys):
        code, _, err = run(capsys, ["crosscheck", "--max-total", "14"])
        assert code == 4 and "cap" in err
        code, _, err = run(capsys, ["crosscheck", "--max-total", "4", "--family-total", "7"])
        assert code == 4
        # A negative cap is a config error, not a cap that every pair exceeds.
        code, out, err = run(
            capsys, ["crosscheck", "--max-total", "0", "--family-total", "0", "--cap", "-1"]
        )
        assert (code, out, err) == (2, "", "error: --cap must be >= 0, got -1\n")

    def test_negative_family_total_rejected(self, capsys):
        code, out, err = run(
            capsys, ["crosscheck", "--max-total", "4", "--family-total", "-1"]
        )
        assert code == 2 and out == ""
        assert err.startswith("error:") and "--family-total" in err

    def test_negative_max_total_rejected(self, capsys):
        # It used to check 0 coefficient pairs and print OK.
        code, out, err = run(
            capsys, ["crosscheck", "--max-total", "-3", "--family-total", "0"]
        )
        assert code == 2 and out == ""
        assert err.startswith("error:") and "--max-total" in err

    @pytest.mark.parametrize(
        "flag, value", [("--alpha", "1"), ("--alpha", "3/2"), ("--p", "0"), ("--p", "-1")]
    )
    def test_bad_params_exit_config(self, capsys, flag, value):
        # --max-total 2 checks no coefficient pair, whose validation used to
        # be the only one.
        code, out, err = run(
            capsys, ["crosscheck", "--max-total", "2", "--family-total", "1", flag, value]
        )
        assert code == 2 and out == ""
        assert err.startswith("error:") and f"got {value}" in err

    def test_negative_moment_exit_config(self, capsys, tmp_path):
        # It used to print OK: engine and oracle agree on any moments.
        argv = [
            "crosscheck", "--max-total", "4", "--family-total", "1",
            "--moments-file", negative_moments_file(tmp_path),
        ]
        assert_moment_rejected(*run(capsys, argv))

    def test_tampered_engine_detected(self, capsys, monkeypatch):
        # Negative control: a deliberately wrong engine must trip the check,
        # proving the comparison is not vacuous.
        tamper_sites(monkeypatch, {fam.EQ_C})
        code, out, err = run(
            capsys, ["crosscheck", "--max-total", "4", "--family-total", "1"]
        )
        assert code == 1
        assert "MISMATCH" in out and out.splitlines()[-1] == "FAIL"
        assert err.startswith("crosscheck failed first at")

    def test_slot_missing_from_census_detected(self, capsys, monkeypatch):
        # NEQ_C_GU is 0 at r_b > 0: a blue walk that visits r and is rooted
        # beyond the first gray edge crosses it.  The census holds no bucket
        # there, so the comparison must read the missing slot as 0.
        tamper_sites(monkeypatch, {fam.NEQ_C_GU}, lambda site: site[4] > 0)
        code, out, err = run(
            capsys, ["crosscheck", "--max-total", "4", "--family-total", "1"]
        )
        assert code == 1
        assert [line for line in out.splitlines() if line.startswith("MISMATCH")] == [
            f"MISMATCH family {fam.double_key(fam.NEQ_C_GU, c, 0, 1, 0, 1)}: engine=1 oracle=0"
            for c in (1, 2)
        ]
        assert out.splitlines()[-1] == "FAIL"
        assert err.startswith(
            f"crosscheck failed first at family {fam.double_key(fam.NEQ_C_GU, 1, 0, 1, 0, 1)}"
        )

    def test_mismatches_reported_in_key_order(self, capsys, monkeypatch):
        # Sites hold their tags in another order than the report: every
        # mismatch of EQ_ANYC comes before any of EQ_C_G, each in (component,
        # l_g, l_b, r_g, r_b) order, as a loop key by key finds them.
        tags = (fam.EQ_ANYC, fam.EQ_C_G)
        tampered = tamper_sites(monkeypatch, set(tags))
        # crosscheck's default context.
        params, moments = model.ModelParams(F(1, 2), F(1)), model.moments_preset("rademacher", 2)
        engine = tampered(params, moments)
        want = []
        for tag in sorted(tags):
            for component in (1, 2):
                for l_g in range(2):
                    for l_b in range(2 - l_g):
                        for r_g in range(l_g + 1):
                            for r_b in range(l_b + 1):
                                key = fam.double_key(tag, component, l_g, l_b, r_g, r_b)
                                got = engine.s_value(key)
                                oracle = walks.family_total_weight(key, params, moments)
                                if got != oracle:
                                    want.append(
                                        f"family {key}: engine={format_scalar(got)}"
                                        f" oracle={format_scalar(oracle)}"
                                    )
        assert len(want) == 20
        code, out, err = run(
            capsys, ["crosscheck", "--max-total", "4", "--family-total", "1"]
        )
        assert code == 1
        assert [line for line in out.splitlines() if line.startswith("MISMATCH")] == [
            f"MISMATCH {line}" for line in want
        ]
        assert err == f"crosscheck failed first at {want[0]}\n"

    def test_tampered_coefficient_detected(self, capsys, monkeypatch):
        # The family values stay right, so only the coefficient comparison
        # can catch this engine.
        class Tampered(CoefficientEngine):
            def correlator_coefficient(self, k, m):
                value = super().correlator_coefficient(k, m)
                return value + 1 if (k, m) == (2, 2) else value

        monkeypatch.setattr(cli, "CoefficientEngine", Tampered)
        code, out, err = run(
            capsys, ["crosscheck", "--max-total", "4", "--family-total", "1"]
        )
        assert code == 1
        assert [line for line in out.splitlines() if line.startswith("MISMATCH")] == [
            "MISMATCH coefficient (2,2): engine=2 oracle=1"
        ]
        assert out.splitlines()[-1] == "FAIL"
        assert err.startswith("crosscheck failed first at coefficient (2,2)")


class TestSimulate:
    def test_single_run_json(self, capsys):
        argv = ["simulate", "--n", "40", "--k", "2", "--m", "2", "--samples", "50",
                "--seed", "3", "--p", "4"]
        code, out, _ = run(capsys, argv)
        assert code == 0
        payload = json.loads(out)
        assert list(payload) == [
            "N", "alpha", "p", "dist", "k", "m", "samples", "seed", "mean",
            "stderr", "batches", "engine_version",
        ]
        assert payload["N"] == 40 and payload["dist"] == "rademacher"
        assert payload["samples"] == 50 and payload["batches"] == 20
        assert isinstance(payload["mean"], float) and payload["stderr"] > 0

    def test_byte_identical_across_runs_and_threads(self, capsys):
        argv = ["simulate", "--n", "40", "--k", "2", "--m", "2", "--samples", "50",
                "--seed", "3", "--p", "4"]
        _, first, _ = run(capsys, argv)
        _, second, _ = run(capsys, argv)
        assert second == first
        _, threaded, _ = run(capsys, argv + ["--threads", "4"])
        assert threaded == first

    def test_odd_pair_exact_zero(self, capsys):
        code, out, _ = run(
            capsys,
            ["simulate", "--n", "30", "--k", "3", "--m", "2", "--samples", "10"],
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["mean"] == 0.0 and payload["stderr"] == 0.0

    def test_sweep_csv(self, capsys):
        argv = ["simulate", "--n", "16,24", "--k", "2", "--m", "2", "--samples", "40",
                "--seed", "1", "--p", "2"]
        code, out, _ = run(capsys, argv)
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "N,k,m,samples,batches,seed,mean,stderr"
        assert len(lines) == 3
        assert lines[1].startswith("16,2,2,40,20,1,")
        assert lines[2].startswith("24,2,2,40,20,1,")

    def test_sweep_mode_with_single_size(self, capsys):
        argv = ["simulate", "sweep", "--n", "16", "--k", "2", "--m", "2",
                "--samples", "20", "--p", "2"]
        code, out, _ = run(capsys, argv)
        assert code == 0
        assert out.splitlines()[0] == "N,k,m,samples,batches,seed,mean,stderr"
        assert len(out.splitlines()) == 2

    def test_config_errors(self, capsys):
        cases = [
            ["simulate", "--n", "x", "--k", "2", "--m", "2"],
            ["simulate", "--n", "16", "--k", "2", "--m", "2", "--dist", "uniform"],
            ["simulate", "--n", "2", "--k", "2", "--m", "2", "--p", "4"],
            ["simulate", "--n", "16", "--k", "2", "--m", "2", "--samples", "1"],
            ["simulate", "--n", "16", "--k", "2", "--m", "2", "--seed", "-1"],
            ["simulate", "--n", "2", "--k", "2", "--m", "2", "--alpha", "1/3", "--p", "1"],
            ["simulate", "--n", "16", "--k", "2", "--m", "2", "--batches", "0"],
            ["simulate", "--n", "16", "--k", "2", "--m", "2", "--threads", "0"],
            ["simulate", "bogus", "--n", "16", "--k", "2", "--m", "2"],
        ]
        for argv in cases:
            code, _, err = run(capsys, argv)
            assert code == 2 and err.startswith("error:"), argv

    @pytest.mark.parametrize("dist", [
        "constant:1e400", "gaussian:1e400", "two-point:1e400,1/2,1",
        # Nonzero parameters that round to 0.0 would run another law.
        "constant:1e-400", "gaussian:1e-400", "two-point:1e-400,1/2,1", "two-point:1,1e-400,2",
    ])
    def test_weight_parameter_beyond_float_exit_config(self, capsys, dist):
        argv = ["simulate", "--n", "30", "--k", "2", "--m", "2", "--samples", "4", "--dist", dist]
        code, out, err = run(capsys, argv)
        assert code == 2 and out == ""
        assert err == f"error: weight parameter out of float range in {dist!r}\n"

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_overflowing_estimate_writes_only_the_error(self, capsys, threads):
        # numpy's overflow warnings must not come before the error line, also
        # from worker threads.
        argv = ["simulate", "--n", "30", "--k", "4", "--m", "2", "--samples", "4",
                "--threads", threads, "--dist", "constant:1e200"]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code, out, err = run(capsys, argv)
        assert code == 2 and out == ""
        assert err.count("\n") == 1
        assert err.startswith("error: estimate of N * Cov(M_4, M_2) at N = 30 is not finite")

    def test_sample_too_large_to_pack_exit_config(self, capsys, monkeypatch):
        # The moments kernel packs each (row, column) pair into one int64 key;
        # a lowered limit stands in for a matrix too large to pack.
        monkeypatch.setattr(simulate, "_MAX_INT64", 1000)
        argv = ["simulate", "--n", "400", "--k", "4", "--m", "2", "--p", "4", "--samples", "4"]
        code, out, err = run(capsys, argv)
        assert code == 2 and out == ""
        assert err.startswith("error: N = 400 is too large for the sampler:")
        assert err.count("\n") == 1

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("mode", [[], ["sweep"]], ids=["json", "sweep"])
    def test_overflowing_estimate_exit_config(self, capsys, mode):
        # Weights of 1e200 overflow the fourth moment, and the covariance is NaN.
        argv = ["simulate", *mode, "--n", "30", "--k", "4", "--m", "2", "--samples", "4",
                "--dist", "constant:1e200"]
        code, out, err = run(capsys, argv)
        assert code == 2 and out == ""
        assert err.startswith("error: estimate of N * Cov(M_4, M_2) at N = 30 is not finite")

    def test_seed_beyond_64_bits_rejected(self, capsys):
        # The generator is keyed by 64 bits of the seed: 2^64 used to draw
        # the samples of seed 0 and print their mean under its own seed.
        argv = ["simulate", "--n", "40", "--k", "2", "--m", "2", "--p", "4", "--samples", "20"]
        code, out, err = run(capsys, argv + ["--seed", str(2**64)])
        assert code == 2 and out == ""
        assert err == f"error: seed must be < 2^64, got {2**64}\n"
        code, out, _ = run(capsys, argv + ["--seed", str(2**64 - 1)])
        assert code == 0 and json.loads(out)["seed"] == 2**64 - 1

    def test_does_not_import_scipy(self):
        # numpy is the only runtime dependency; scipy.sparse alone would add
        # about 170 ms and 22 MB to every fresh simulate process.
        script = "\n".join([
            "import sys",
            "from bipcorr import cli",
            "code = cli.main(['simulate', '--n', '40', '--k', '4', '--m', '2',"
            " '--samples', '20', '--p', '4'])",
            "assert code == 0, code",
            "assert 'scipy' not in sys.modules, sorted(m for m in sys.modules if 'scipy' in m)",
        ])
        src = str(Path(bipcorr.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        done = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60,
        )
        assert done.returncode == 0, done.stderr

    def test_compute_does_not_import_numpy(self):
        # Only the sampler needs numpy, which is most of the import time of a
        # fresh process.
        script = "\n".join([
            "import sys",
            "from bipcorr import cli",
            "assert cli.main(['compute', '--k', '2', '--m', '2']) == 0",
            "assert 'numpy' not in sys.modules, sorted(m for m in sys.modules if 'numpy' in m)",
        ])
        src = str(Path(bipcorr.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        done = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60,
        )
        assert done.returncode == 0, done.stderr


class TestUnwritableOutput:
    # A crosscheck that cannot write its report must not exit 1, which means
    # "mismatch"; every subcommand reports a config error instead.
    @pytest.mark.parametrize(
        "argv",
        [
            ["compute", "--k", "2", "--m", "2"],
            ["oracle", "--k", "2", "--m", "2"],
            ["crosscheck", "--max-total", "4", "--family-total", "1"],
            ["simulate", "--n", "16", "--k", "2", "--m", "2", "--samples", "10"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_exit_config(self, capsys, tmp_path, argv):
        target = tmp_path / "missing" / "out.txt"
        code, out, err = run(capsys, argv + ["--output", str(target)])
        assert code == 2 and out == ""
        assert err.startswith("error:") and "cannot write output file" in err
        assert not target.parent.exists()


class TestParser:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as info:
            cli.main(["--version"])
        assert info.value.code == 0
        assert capsys.readouterr().out.startswith("bipcorr ")

    @pytest.mark.parametrize(
        "argv",
        [
            ["frobnicate"],
            ["cache", "inspect", "--file", "f"],
            ["compute", "--k", "2", "--m", "2", "--cache", "f"],
            ["simulate", "--n", "16", "--k", "2", "--m", "2", "--moments", "gaussian:3"],
            ["compute", "--k", "2", "--m", "2", "--threads", "2"],
        ],
        ids=[
            "unknown-subcommand",
            "cache-subcommand",
            "compute-cache",
            "simulate-moments",
            "compute-threads",
        ],
    )
    def test_rejected_by_parser(self, capsys, argv):
        with pytest.raises(SystemExit) as info:
            cli.main(argv)
        assert info.value.code == 2

    def test_rejected_flag_is_named(self, capsys):
        # The optional mode positional must not swallow the flag's value and
        # report the value as a bad mode.
        with pytest.raises(SystemExit) as info:
            cli.main(["simulate", "--n", "16", "--k", "2", "--m", "2", "--moments", "gaussian:3"])
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert "unrecognized arguments: --moments" in err and "mode" not in err


class TestExitCodeGrid:
    # A small grid of bad and good flag values across the four subcommands.
    # Values go in as ``--flag=value`` so that a leading "-" is never taken
    # for a flag by the parser.
    ALPHAS = ("1/2", "1/3", "0", "1", "-1/2", "3/2", "x", "1/0")
    PS = ("1", "5/2", "0", "-1", "x")
    GOOD_ALPHAS = ("1/2", "1/3")
    GOOD_PS = ("1", "5/2")
    BASES = {
        "compute": ["compute", "--k", "2", "--m", "4"],
        "oracle": ["oracle", "--k", "2", "--m", "2"],
        "crosscheck": ["crosscheck", "--max-total", "4"],
        "simulate": ["simulate", "--n", "40", "--k", "2", "--m", "2",
                     "--samples", "16", "--batches", "4"],
    }
    PRESETS = ("rademacher", "constant:2", "gaussian:1/3", "gaussian:-1",
               "constant:0", "rademacher:1", "gaussian:x", "uniform")
    LAWS = ("rademacher", "gaussian:1", "two-point:1,1/2,2", "constant:2",
            "two-point:1,2,2", "gaussian:x", "uniform")
    SIZES = ("40", "40,80", "0", "-5", "x", ",")

    def grid(self, short_moments):
        """(argv, whether alpha and p are both valid) for every call;
        ``short_moments`` names a moments file too short for any call."""
        for name, base in self.BASES.items():
            for alpha in self.ALPHAS:
                for p in self.PS:
                    good = alpha in self.GOOD_ALPHAS and p in self.GOOD_PS
                    yield base + [f"--alpha={alpha}", f"--p={p}"], good
            if name != "simulate":
                for preset in self.PRESETS:
                    yield base + [f"--moments={preset}"], True
                yield base + [f"--moments-file={short_moments}"], True
            if name in ("oracle", "crosscheck"):
                for cap in ("2", "-1"):
                    yield base + [f"--cap={cap}"], True
        for law in self.LAWS:
            for size in self.SIZES:
                argv = ["simulate", f"--n={size}", "--k", "2", "--m", "2",
                        "--samples", "16", "--batches", "4", f"--dist={law}"]
                yield argv, True

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_every_exit_code_is_documented(self, capsys, tmp_path):
        short = tmp_path / "short.json"
        short.write_text(json.dumps({"even_moments": ["1"]}))
        codes = []
        for argv, good in self.grid(short):
            code, _, err = run(capsys, argv)
            assert type(code) is int and 0 <= code <= 4, (argv, code)
            if not good:
                assert code != 0, argv
            if code:
                assert any(line.startswith("error:") for line in err.splitlines()), (argv, err)
            codes.append(code)
        # Every exit code but a crosscheck mismatch is reached.
        assert len(codes) == 233 and set(codes) == {0, 2, 3, 4}
