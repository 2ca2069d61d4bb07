"""CLI behavior: golden outputs, determinism, exit codes, format flags."""

import io
import json
import os
import contextlib
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import qpadic.cli as cli
import qpadic.oracle
from qpadic.errors import InvariantViolation

GOLDEN = Path(__file__).parent / "golden"

GOLDEN_CASES = {
    "lattice_measure.json": ["lattice", "measure", "--p", "3", "--basis", "3,0;0,1"],
    "lattice_dual_selfdual.json": ["lattice", "dual", "--p", "3", "--basis", "1,0;0,1"],
    "lattice_intersect.json": [
        "lattice", "intersect", "--p", "3", "--a", "3,0;0,1", "--b", "1,0;0,3",
    ],
    "lattice_sum.json": ["lattice", "sum", "--p", "3", "--a", "3,0;0,1", "--b", "1,0;0,3"],
    "lattice_canon_half.json": ["lattice", "canon", "--p", "2", "--basis", "1,0;1/2,1"],
    "channel_gain.json": ["channel", "gain", "--p", "3", "--K", "3,0;0,1"],
    "channel_validate.json": [
        "channel", "validate", "--p", "3", "--K", "2,0;0,2", "--L", "1,0;0,1/3",
    ],
    "channel_threshold.json": [
        "channel", "threshold", "--p", "3", "--K", "3,0;0,1", "--L", "1,0;0,1",
    ],
    "channel_apply.json": [
        "channel", "apply", "--p", "3", "--K", "3,0;0,1", "--L", "1,0;0,3",
        "--state", "1,0;0,1",
    ],
    "adelic.json": ["adelic", "--K", "12,0;0,1/5"],
}


def run_cli(args):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(args)
    return code, out.getvalue(), err.getvalue()


class TestGolden:
    @pytest.mark.parametrize("name,args", sorted(GOLDEN_CASES.items()))
    def test_matches_stored_bytes(self, name, args):
        code, out, err = run_cli(args)
        assert code == 0 and err == ""
        assert out == (GOLDEN / name).read_text()

    @pytest.mark.parametrize("name,args", sorted(GOLDEN_CASES.items()))
    def test_reruns_are_byte_identical(self, name, args):
        first = run_cli(args)
        second = run_cli(args)
        assert first == second


class TestExitCodes:
    def test_success_is_zero(self):
        code, _, _ = run_cli(["lattice", "selfdual", "--p", "3", "--basis", "1,0;0,1"])
        assert code == 0

    @pytest.mark.parametrize(
        "args",
        [
            ["adelic", "--K", "1,1;1,1"],  # singular
            ["lattice", "measure", "--p", "4", "--basis", "1,0;0,1"],  # not a prime
            ["lattice", "measure", "--p", "3", "--basis", "1,0;2,0"],  # singular basis
            ["lattice", "measure", "--p", "3", "--basis", "junk"],
            ["channel", "gain", "--p", "3"],  # missing required flag
            ["lattice", "measure", "--p", "3", "--basis", "1/0,0;0,1"],
            ["oracle", "--p", "3", "--N", "2", "--max-cases", "-5"],
        ],
    )
    def test_invalid_input_is_one(self, args):
        code, out, err = run_cli(args)
        assert code == 1
        assert out == "" and err.startswith("error:")

    def test_invariant_violation_is_two(self, monkeypatch):
        def boom(_):
            raise InvariantViolation("forced for the exit-code contract")

        monkeypatch.setattr(cli, "adelic_report", boom)
        code, out, err = run_cli(["adelic", "--K", "2,0;0,1"])
        assert code == 2
        assert "forced" in err

    def test_inadmissible_channel_is_one(self):
        # measure-3 noise with |1 - det|_3 = 1 breaks the exact inequality
        code, _, err = run_cli(
            ["channel", "threshold", "--p", "3", "--K", "2,0;0,1", "--L", "1/3,0;0,1"]
        )
        assert code == 1 and "admissibility" in err

    def test_validate_reports_rather_than_fails(self):
        # validate emits the verdict and succeeds even when the answer is no
        code, out, _ = run_cli(
            ["channel", "validate", "--p", "3", "--K", "2,0;0,1", "--L", "1/3,0;0,1"]
        )
        assert code == 0
        assert json.loads(out) == {
            "noise_measure": "3",
            "one_minus_det_norm": "1",
            "product": "3",
            "valid": False,
        }


class TestFormats:
    def test_text_format(self):
        code, out, _ = run_cli(
            ["channel", "gain", "--p", "3", "--K", "3,0;0,1", "--format", "text"]
        )
        assert code == 0
        lines = dict(line.split(": ", 1) for line in out.strip().splitlines())
        assert lines["exponent"] == "-1"
        assert lines["value_base_e"] == "-1*ln(3)"

    def test_log_base_flag(self):
        code, out, _ = run_cli(
            ["channel", "gain", "--p", "3", "--K", "3,0;0,1", "--log-base", "2"]
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["value_base_2"] == "-1*log2(3)"

    def test_log_base_on_apply(self):
        args = GOLDEN_CASES["channel_apply.json"] + ["--log-base", "10"]
        code, out, _ = run_cli(args)
        assert code == 0
        assert json.loads(out)["entropy"]["value_base_10"] == "1*log10(3)"

    def test_json_keys_sorted(self):
        _, out, _ = run_cli(["adelic", "--K", "12,0;0,1/5"])
        payload = json.loads(out)
        assert list(payload) == sorted(payload)


class TestFlags:
    """--format is common to all twelve subcommands; --log-base and --seed exist only where read."""

    COMMANDS = {
        " ".join(args[: 1 if args[0] == "adelic" else 2]): args for args in GOLDEN_CASES.values()
    } | {
        "lattice selfdual": ["lattice", "selfdual", "--p", "3", "--basis", "1,0;0,1"],
        "oracle": ["oracle", "--p", "3", "--N", "2", "--max-cases", "1"],
    }
    READERS = {"--log-base=2": ("channel gain", "channel apply"), "--seed=1": ("oracle",)}

    def test_twelve_subcommands(self):
        assert len(self.COMMANDS) == 12

    @pytest.mark.parametrize("name", sorted(COMMANDS))
    def test_unread_flags_are_refused(self, name):
        for flag, readers in self.READERS.items():
            if name not in readers:
                code, out, err = run_cli(self.COMMANDS[name] + [flag])
                assert (code, out) == (1, "") and err.startswith("error:") and flag.split("=")[0] in err

    @pytest.mark.parametrize("name", sorted(COMMANDS))
    def test_format_is_common(self, name):
        code, out, err = run_cli(self.COMMANDS[name] + ["--format", "text"])
        assert code == 0 and err == "" and out

    def test_seed_reaches_the_battery(self, monkeypatch):
        seeds = []
        battery = qpadic.oracle.run_battery

        def recording(system, seed, max_cases):
            seeds.append(seed)
            return battery(system, seed=seed, max_cases=max_cases)

        monkeypatch.setattr(qpadic.oracle, "run_battery", recording)
        for extra in ([], ["--seed", "7"]):
            code, out, err = run_cli(self.COMMANDS["oracle"] + extra)
            assert code == 0 and err == "" and json.loads(out)["all_checks_pass"]
        assert seeds == [0, 7]


class TestOracleCommand:
    def test_small_battery_run(self):
        code, out, err = run_cli(
            ["oracle", "--p", "3", "--N", "2", "--max-cases", "3"]
        )
        assert code == 0 and err == ""
        payload = json.loads(out)
        assert payload["all_checks_pass"] is True
        assert len(payload["channel_cases"]) == 3

    def test_failed_battery_exits_two(self, monkeypatch):
        monkeypatch.setattr(
            qpadic.oracle, "run_battery", lambda *a, **k: {"all_checks_pass": False}
        )
        code, out, _ = run_cli(["oracle", "--p", "3", "--N", "2"])
        assert code == 2
        assert json.loads(out)["all_checks_pass"] is False


def run_subprocess(args, timeout):
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, timeout=timeout
    )


class TestBoundedTime:
    def test_large_prime_measure_finishes(self):
        # trial division of p = 10**18 + 3 ran past 20 s
        proc = run_subprocess(
            ["-m", "qpadic.cli", "lattice", "measure", "--p", "1000000000000000003",
             "--basis", "3,0;0,1"],
            timeout=20,
        )
        assert proc.returncode == 0
        assert proc.stdout == '{"measure": "1"}\n'

    def test_prime_beyond_exact_test_is_one(self):
        proc = run_subprocess(
            ["-m", "qpadic.cli", "lattice", "measure", "--p", "3317044064679887385961981",
             "--basis", "3,0;0,1"],
            timeout=20,
        )
        assert proc.returncode == 1
        assert proc.stdout == "" and proc.stderr.startswith("error:")

    def test_import_leaves_numpy_unloaded(self):
        proc = run_subprocess(
            ["-c", "import sys, qpadic.cli; print('numpy' in sys.modules)"], timeout=20
        )
        assert proc.returncode == 0 and proc.stdout == "False\n"

    def test_import_leaves_dataclasses_unloaded(self):
        # dataclasses pulls in inspect, dis and tokenize on every CLI start
        proc = run_subprocess(
            ["-c", "import sys, qpadic.cli; print('dataclasses' in sys.modules)"], timeout=20
        )
        assert proc.returncode == 0 and proc.stdout == "False\n"

    @staticmethod
    def bounded_cli(*args):
        # the subprocess timeout guards against a hang; the 1 s bound is timed
        # in process, so interpreter start-up does not count against it
        proc = run_subprocess(["-m", "qpadic.cli", *args], timeout=20)
        start = time.perf_counter()
        in_process = run_cli(list(args))
        assert time.perf_counter() - start < 1
        assert in_process == (proc.returncode, proc.stdout, proc.stderr)
        return proc

    @pytest.mark.parametrize("literal", ["1e20000", "1e10000000", "1" * 1001])
    def test_oversized_literal_is_one(self, literal):
        # 1e20000 failed at print time with CPython's 4300-digit message after
        # 1.4 s; Fraction("1e10000000") alone took 11 s
        proc = self.bounded_cli("lattice", "measure", "--p", "2", "--basis", f"{literal},0;0,1")
        assert proc.returncode == 1 and proc.stdout == ""
        assert proc.stderr == "error: rational literal longer than 1000 digits\n"

    def test_literal_just_under_the_cap(self):
        proc = self.bounded_cli("lattice", "measure", "--p", "5", "--basis", "1e995,0;0,1")
        assert proc.returncode == 0
        assert json.loads(proc.stdout) == {"measure": str(Fraction(1, 5**995))}

    def test_large_prime_determinant_factors(self):
        # trial division of the 19-digit determinant ran past 20 s
        proc = self.bounded_cli("adelic", "--K", "1000000000000000003,0;0,1")
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["real"] == {"1000000000000000003": 1}

    def test_semiprime_determinant_factors(self):
        p, q = 100000007, 999999937
        proc = self.bounded_cli("adelic", "--K", f"{p * q},0;0,1")
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["real"] == {str(p): 1, str(q): 1}

    def test_small_factors_past_the_miller_rabin_bound(self):
        # 1009^9 lies past the Miller-Rabin bound; rho splits it at once
        proc = self.bounded_cli("adelic", "--K", f"{1009**9},0;0,1")
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["real"] == {"1009": 9}

    def test_long_determinant_past_the_rho_budget_is_one(self):
        # 3^4176 - 1 has 1,993 digits; a rho step on it costs about 300 times
        # one on a word-sized number, so a flat step budget ran for minutes
        big = 3**2088
        proc = self.bounded_cli("adelic", "--K", f"{big},1;1,{big}")
        assert proc.returncode == 1 and proc.stdout == ""
        assert proc.stderr.startswith("error: could not factor")
        assert proc.stderr.count("\n") == 1 and len(proc.stderr.encode()) < 200

    def test_determinant_past_the_rho_budget_is_one(self):
        # two 13-digit primes whose product sits just under the Miller-Rabin bound
        proc = self.bounded_cli("adelic", "--K", f"{1821000000013 * 1821550831741},0;0,1")
        assert proc.returncode == 1 and proc.stdout == ""
        assert proc.stderr.startswith("error: could not factor")


    @pytest.mark.parametrize(
        "prime",
        [str(10**1999 + 1), "7" * 5000],
        ids=["past-primality-bound", "past-int-conversion-limit"],
    )
    def test_long_integer_in_error_is_abbreviated(self, prime):
        # the error line echoed the whole number, from is_prime (2,049 bytes) or
        # from argparse's "invalid int value" (5,043 bytes)
        proc = self.bounded_cli("lattice", "measure", "--p", prime, "--basis", "3,0;0,1")
        assert proc.returncode == 1 and proc.stdout == ""
        assert proc.stderr.startswith("error:") and proc.stderr.count("\n") == 1
        assert len(proc.stderr.encode()) < 200
        assert f"a {len(prime)}-digit integer" in proc.stderr

    def test_huge_oracle_window_is_one(self):
        # 3**N was taken before its comparison with the dimension cap; N = 10**9 ran past 10 s
        proc = self.bounded_cli("oracle", "--p", "3", "--N", "1000000000")
        assert proc.returncode == 1 and proc.stdout == ""
        assert proc.stderr.startswith("error:") and proc.stderr.count("\n") == 1

    def test_worst_capped_literal_intersects(self):
        # 2**3321 is the largest power of 2 within the 1000-digit literal cap, so at
        # p = 2 each of its valuations is the longest division loop the cap allows
        big = 2**3321
        a, b = f"{big},{big};0,{big}", f"{big},0;{big},1"
        meet = self.bounded_cli("lattice", "intersect", "--p", "2", "--a", a, "--b", b)
        join = self.bounded_cli("lattice", "sum", "--p", "2", "--a", a, "--b", b)
        assert meet.returncode == join.returncode == 0
        # [A : A & B] = [A + B : B], so measure(A & B) * measure(A + B) = measure(A) * measure(B)
        measures = [Fraction(json.loads(proc.stdout)["measure"]) for proc in (meet, join)]
        assert measures[0] * measures[1] == Fraction(1, big**2) * Fraction(1, big)


class TestClosedPipe:
    def test_reader_closing_early_is_one(self, tmp_path):
        # the text report at (3, 4) is ~460 KB, far more than a pipe buffer holds
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        with open(tmp_path / "stderr", "wb") as err:
            proc = subprocess.Popen(
                [sys.executable, "-m", "qpadic.cli", "oracle", "--p", "3", "--N", "4",
                 "--format", "text"],
                stdout=subprocess.PIPE, stderr=err, env=env,
            )
            try:
                first = proc.stdout.readline()
                proc.stdout.close()
                code = proc.wait(timeout=60)
            finally:
                proc.kill()
        assert first == b"N: 4\n"
        assert code == 1
        assert (tmp_path / "stderr").read_bytes() == b""
