"""CLI behavior: the exact contract table, exit codes, format flags (criterion 11 runs GOLDEN_CASES)."""

import io
import json
import os
import contextlib
import shlex
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import qpadic.cli as cli
import qpadic.oracle
from qpadic.errors import InvariantViolation
from qpadic.lattice import Lattice, Mat2
from qpadic.padic import valuation

# the benchmark reads this with ast.literal_eval, so it stays a top-level dict of argv lists
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


# each command, as a shell splits it -> (exit code, exact stdout, exact stderr)
CONTRACT = {
    "lattice selfdual --p 3 --basis 1,0;0,1": (0, '{"self_dual": true}\n', ""),
    "lattice canon --p 3 --basis 0,1;3,0": (0, '{"basis": "1,0;0,3"}\n', ""),
    "lattice canon --p 3 --basis 3,6;1,5": (0, '{"basis": "3,0;1,3"}\n', ""),
    "lattice canon --p 3 --bas -3,0;0,1": (0, '{"basis": "3,0;0,1"}\n', ""),
    "lattice dual --p 3 --basis 3,0;1,9": (0, '{"basis": "1/9,0;1/27,1/3"}\n', ""),
    "lattice dual --p 2 --basis 1,0;1/2,4": (0, '{"basis": "1/4,0;1/8,1"}\n', ""),
    "lattice intersect --p 3 --a 3,0;1,9 --b 1,0;2,3": (0, '{"basis": "9,0;3,9", "measure": "1/81"}\n', ""),
    "lattice intersect --p 3 --a 1,0;1,3 --b 3,0;0,3": (0, '{"basis": "3,0;0,3", "measure": "1/9"}\n', ""),
    "lattice sum --p 3 --a 1,0;1,3 --b 3,0;0,3": (0, '{"basis": "1,0;1,3", "measure": "1/3"}\n', ""),
    "channel threshold --p 3 --K 1,1;0,3 --L 3,0;1,9": (0, '{"threshold": 4}\n', ""),
    "channel threshold --p 3 --K 2,0;0,1 --L 1/3,0;0,1": (
        1, "", "error: admissibility fails: |1 - det K|_p * measure = 1 * 3 = 3 > 1\n",
    ),
    "channel validate --p 3 --K 1,0;0,1 --L 1/3,0;0,1": (
        0, '{"noise_measure": "3", "one_minus_det_norm": "0", "product": "0", "valid": true}\n', "",
    ),
    # validate reports the verdict and succeeds even when the answer is no
    "channel validate --p 3 --K 2,0;0,1 --L 1/3,0;0,1": (
        0, '{"noise_measure": "3", "one_minus_det_norm": "1", "product": "3", "valid": false}\n', "",
    ),
    "channel apply --p 3 --K 5,5;0,1 --L 1,1;2,0 --state 0,3;1,9 --shift 1,1/3": (
        0, '{"basis": "1,0;2,3", "entropy": {"terms": {"3": 1}, "value_base_e": "1*ln(3)"}, "shift": "-2/3,5/3"}\n', "",
    ),
    # the shift printed above, passed back in
    "channel apply --p 3 --K 5,5;0,1 --L 1,1;2,0 --state 0,3;1,9 --shift -2/3,5/3": (
        0, '{"basis": "1,0;2,3", "entropy": {"terms": {"3": 1}, "value_base_e": "1*ln(3)"}, "shift": "-9,25/3"}\n', "",
    ),
    "channel apply --p 3 --K 4,0;0,1 --L 1/3,0;0,1/3 --state 1,0;0,1": (
        1, "", "error: admissibility fails: |1 - det K|_p * measure = 1/3 * 9 = 3 > 1\n",
    ),
    "channel apply --p 3 --K 2,4;1,2 --L 3,0;0,1 --state 1,0;0,1": (1, "", "error: singular matrix 2,4;1,2\n"),
    "channel apply --p 3 --K 1,0;0,1 --L 1,2;2,4 --state 1,0;0,1": (1, "", "error: singular matrix 1,2;2,4\n"),
    # a blank literal, not the zero shift
    "channel apply --p 3 --K 3,0;0,1 --L 1,0;0,3 --state 1,0;0,1 --shift ''": (
        1, "", "error: vector literal must look like 'x,y', got ''\n",
    ),
    "channel apply --p 3 --K 3,0;0,1 --L 1,0;0,3 --state 1,0;0,1 --shift ' '": (
        1, "", "error: vector literal must look like 'x,y', got ' '\n",
    ),
    # past the Miller-Rabin bound no test decides that p is composite
    "oracle --p 3317044064679887385961981 --N 2": (
        1, "", "error: 3317044064679887385961981 is too large for an exact primality test\n",
    ),
}


@pytest.mark.parametrize("command", CONTRACT)
def test_contract(command):
    assert run_cli(shlex.split(command)) == CONTRACT[command]


class TestExitCodes:
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
            # argparse's list of choices differs between Python versions, so no exact stderr
            ["channel", "gain", "--p", "3", "--K", "3,0;0,1", "--log-base", "3"],
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

    def test_apply_invariant_violation_is_two(self, monkeypatch):
        monkeypatch.setattr(Lattice, "__and__", lambda lat, other: Lattice._from_canonical(-1, 0, 0, lat.p))
        args = ["channel", "apply", "--p", "3", "--K", "3,0;0,1", "--L", "1,0;0,1", "--state", "1,0;0,1"]
        assert run_cli(args) == (2, "", "invariant violation: admissible channel produced output measure 3 > 1\n")


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
    """--format is common to all twelve subcommands; --log-base exists only where read, --seed nowhere."""

    COMMANDS = {
        " ".join(args[: 1 if args[0] == "adelic" else 2]): args for args in GOLDEN_CASES.values()
    } | {
        "lattice selfdual": ["lattice", "selfdual", "--p", "3", "--basis", "1,0;0,1"],
        "oracle": ["oracle", "--p", "3", "--N", "2", "--max-cases", "1"],
    }
    READERS = {"--log-base=2": ("channel gain", "channel apply"), "--seed=1": ()}

    REQUIRED = {
        "adelic": "--K",
        "channel apply": "--p, --K, --L, --state",
        "channel gain": "--p, --K",
        "channel threshold": "--p, --K, --L",
        "channel validate": "--p, --K, --L",
        "lattice canon": "--p, --basis",
        "lattice dual": "--p, --basis",
        "lattice intersect": "--p, --a, --b",
        "lattice measure": "--p, --basis",
        "lattice selfdual": "--p, --basis",
        "lattice sum": "--p, --a, --b",
        "oracle": "--p, --N",
    }

    def test_twelve_subcommands(self):
        assert len(self.COMMANDS) == 12 and set(self.REQUIRED) == set(self.COMMANDS)

    @pytest.mark.parametrize("name", sorted(COMMANDS))
    def test_missing_flags_are_named_in_order(self, name):
        error = f"error: the following arguments are required: {self.REQUIRED[name]}\n"
        assert run_cli(name.split()) == (1, "", error)

    @pytest.mark.parametrize("name", sorted(COMMANDS))
    def test_unread_flags_are_refused(self, name):
        for flag, readers in self.READERS.items():
            if name not in readers:
                code, out, err = run_cli(self.COMMANDS[name] + [flag])
                assert (code, out) == (1, "") and err.startswith("error:") and flag.split("=")[0] in err

    @pytest.mark.parametrize("name", sorted(COMMANDS))
    def test_format_is_common(self, no_ccr, name):
        code, out, err = run_cli(self.COMMANDS[name] + ["--format", "text"])
        assert code == 0 and err == "" and out


class TestNegativeLiterals:
    """A literal flag, whole or abbreviated, reads a value that starts with '-' as --flag value and --flag=value."""

    APPLY = ["channel", "apply", "--p", "3", "--K", "5,5;0,1", "--L", "1,1;2,0", "--state", "0,3;1,9"]

    # each literal flag with a negative value, and the argv it ends
    CASES = {
        "--K": (["channel", "gain", "--p", "3"], "-3,0;0,1"),
        "--L": (["channel", "validate", "--p", "3", "--K", "1,0;0,1"], "-1,0;0,3"),
        "--basis": (["lattice", "canon", "--p", "3"], "-3,0;0,1"),
        "--a": (["lattice", "intersect", "--p", "3", "--b", "1,0;0,3"], "-3,0;1,9"),
        "--b": (["lattice", "sum", "--p", "3", "--a", "3,0;0,1"], "-1,0;0,3"),
        "--state": (["channel", "apply", "--p", "3", "--K", "3,0;0,1", "--L", "1,0;0,3"], "-1,0;-1,1"),
        "--shift": (APPLY, "-2/3,5/3"),
    }

    def test_printed_shift_round_trips(self, monkeypatch):
        # the shift that the golden-style apply prints, passed back in; main() reads sys.argv too
        code, out, err = run_cli(self.APPLY + ["--shift", "1,1/3"])
        assert (code, err) == (0, "") and json.loads(out)["shift"] == "-2/3,5/3"
        monkeypatch.setattr(sys, "argv", ["qpadic", *self.APPLY, "--shift", "-2/3,5/3"])
        back = run_cli(None)
        assert back == run_cli(self.APPLY + ["--shift=-2/3,5/3"])
        assert back[0] == 0 and json.loads(back[1])["shift"] == "-9,25/3"

    # argparse also takes a unique prefix of a flag, and the value attaches to the prefix
    ABBREVIATED = {"--bas": "--basis", "--sh": "--shift", "--st": "--state"}

    @pytest.mark.parametrize("spelled", sorted(CASES) + sorted(ABBREVIATED))
    def test_value_may_start_with_minus(self, spelled):
        flag = self.ABBREVIATED.get(spelled, spelled)
        args, value = self.CASES[flag]
        got = run_cli(args + [spelled, value])
        assert got == run_cli(args + [f"{flag}={value}"])
        assert got[0] == 0 and got[2] == ""

    @pytest.mark.parametrize("flag", ["--help", "--he"])
    def test_help_takes_no_value(self, flag, capsys):
        with pytest.raises(SystemExit) as done:
            cli.main(["lattice", "canon", "--p", "3", flag, "-3"])
        assert done.value.code == 0 and capsys.readouterr().out.startswith("usage: qpadic lattice canon")

    @pytest.mark.parametrize("tail", [["--format", "json"], []], ids=["before-a-flag", "last"])
    def test_missing_value_is_still_one(self, tail):
        args = ["lattice", "canon", "--p", "3", "--basis", *tail]
        assert run_cli(args) == (1, "", "error: argument --basis: expected one argument\n")


ORACLE = ["oracle", "--p", "3", "--N", "2"]


class TestOracleCommand:
    def test_small_battery_run(self):
        # the whole report, real CCR scan included, at every battery system
        for args, listed in [
            ([*ORACLE, "--max-cases", "3"], 3),
            (["oracle", "--p", "5", "--N", "2"], 150),
            (["oracle", "--p", "7", "--N", "2"], 150),
            (["oracle", "--p", "3", "--N", "4"], 390),
        ]:
            code, out, err = run_cli(args)
            payload = json.loads(out)
            assert (code, err, payload["all_checks_pass"], len(payload["channel_cases"])) == (0, "", True, listed)

    def test_max_cases_keeps_a_failure_past_the_cut(self, no_ccr, failing_last_scan):
        code, out, err = run_cli(["oracle", "--p", "3", "--N", "2", "--max-cases", "0"])
        payload = json.loads(out)
        assert (code, err) == (2, "")
        assert payload["all_checks_pass"] is False and payload["channel_cases"] == []

    def test_max_cases_truncates(self, no_ccr):
        full = json.loads(run_cli(ORACLE)[1])
        for limit in (5, 0):
            report = json.loads(run_cli([*ORACLE, "--max-cases", str(limit)])[1])
            assert report == {**full, "channel_cases": full["channel_cases"][:limit]}

    def test_max_cases_keeps_the_verdict(self, no_ccr, failing_last_scan):
        # a disagreeing case past the cut still fails the battery
        code, out, _ = run_cli(ORACLE)
        full = json.loads(out)
        last = full["channel_cases"][-1]
        assert (last["transform"], last["noise"], last["agree"]) == ([3, 0, 3, 1], [1, -1], False)
        assert sum(not case["agree"] for case in full["channel_cases"]) == 1
        assert (code, full["all_checks_pass"]) == (2, False)
        for limit in (5, 0):
            code, out, _ = run_cli([*ORACLE, "--max-cases", str(limit)])
            report = json.loads(out)
            assert (code, report["all_checks_pass"]) == (2, False)
            assert report["channel_cases"] == full["channel_cases"][:limit]

    def test_negative_max_cases_names_the_flag(self):
        want = "error: --max-cases must be non-negative, got -1\n"
        assert run_cli([*ORACLE, "--max-cases", "-1"]) == (1, "", want)
        # an invalid system is reported before the flag
        code, _, err = run_cli(["oracle", "--p", "4", "--N", "2", "--max-cases", "-1"])
        assert (code, err) == (1, "error: p must be an odd prime, got 4\n")

    def test_failed_battery_exits_two(self, monkeypatch):
        monkeypatch.setattr(
            qpadic.oracle, "run_battery", lambda *a, **k: {"all_checks_pass": False, "channel_cases": []}
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

    def test_large_prime_apply_finishes(self):
        proc = self.bounded_cli(
            "channel", "apply", "--p", "1000000000000000003", "--K", "1,0;0,1", "--L", "1,0;0,1",
            "--state", "1,0;0,1",
        )
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout == '{"basis": "1,0;0,1", "entropy": {"terms": {}, "value_base_e": "0"}, "shift": "0,0"}\n'

    def test_prime_beyond_exact_test_is_one(self):
        proc = run_subprocess(
            ["-m", "qpadic.cli", "lattice", "measure", "--p", "3317044064679887385961981",
             "--basis", "3,0;0,1"],
            timeout=20,
        )
        assert proc.returncode == 1
        assert proc.stdout == "" and proc.stderr.startswith("error:")

    def test_zero_valuation_is_refused(self):
        # _split(0, p) looped forever (0 % p == 0), so a zero den in _ratio_valuation or _residue
        # hung; a subprocess keeps that from stalling the suite
        code = (
            "from qpadic.padic import _ratio_valuation, _residue, _split\n"
            "for call in (lambda: _split(0, 3), lambda: _ratio_valuation(5, 0, 3),\n"
            "             lambda: _residue(1, 0, 3, 2)):\n"
            "    try:\n"
            "        call()\n"
            "    except ValueError as err:\n"
            "        print(err)\n"
        )
        proc = run_subprocess(["-c", code], timeout=10)
        assert proc.returncode == 0 and proc.stdout == "zero has no finite valuation\n" * 3

    @pytest.fixture(scope="class")
    def cli_import(self):
        # one fresh process serves the three import guards below
        guarded = "import sys, qpadic.cli; print(*[m for m in ('numpy', 'dataclasses', 'cmath') if m in sys.modules])"
        proc = run_subprocess(["-c", guarded], timeout=20)
        assert proc.returncode == 0
        return proc.stdout.split()

    def test_import_leaves_numpy_unloaded(self, cli_import):
        assert "numpy" not in cli_import  # numpy is for the oracle alone

    def test_import_leaves_dataclasses_unloaded(self, cli_import):
        # dataclasses pulls in inspect, dis and tokenize on every CLI start
        assert "dataclasses" not in cli_import

    def test_import_leaves_cmath_unloaded(self, cli_import):
        assert "cmath" not in cli_import

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

    def test_worst_capped_literal_applies(self):
        # K^-1 has 2,000-digit entries, and the unreduced int products of the image
        # kernel grow to about three times the digits of its inputs
        big = 2**3321
        proc = self.bounded_cli(
            "channel", "apply", "--p", "2", "--K", f"{big},1;1,{big}",
            "--L", f"{big},{big};0,{big}", "--state", f"{big},0;{big},1",
        )
        assert proc.returncode == 0
        # |det K|_2 = 1, so the entropy stays n * log 2 with 2**-n the measure of the output
        out = json.loads(proc.stdout)
        basis = Mat2.parse(out["basis"])
        assert out["entropy"]["terms"] == {"2": valuation(basis.det(), 2)}

    def test_worst_capped_literal_applies_a_shift(self):
        # the shift moves as adj(K) * alpha, whose entries grow to twice the digits of the cap
        big = 2**3321
        proc = self.bounded_cli(
            "channel", "apply", "--p", "2", "--K", f"{big},1;1,{big}",
            "--L", f"{big},{big};0,{big}", "--state", f"{big},0;{big},1", "--shift", f"{big},3/7",
        )
        assert proc.returncode == 0
        x, y = Fraction(big), Fraction(3, 7)  # adj K = [[big, -1], [-1, big]]
        assert json.loads(proc.stdout)["shift"] == f"{big * x - y},{-x + big * y}"


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
