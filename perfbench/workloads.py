"""The four seeded workloads of the qpadic benchmark.

Each workload is built from a seed alone (same seed, same inputs) and
exposes to the loop in run.py:

* ``run(i)`` performs op number ``i`` (0 <= i < ``pass_ops``) through the
  public qpadic API and returns what the op produced. Only this call is
  timed. run.py repeats the ``pass_ops`` ops as identical passes.
* ``check(i, result)`` verifies that result by a second route and returns
  True or False. It runs between ops and is never timed or traced.
* ``tail_pct``, the fixed latency percentile reported as ``op_tail_ms``.
  It is fixed per workload, not picked from the sample count, so that a
  faster program is still compared at the same percentile.
* ``trace_ops``, how many ops the traced run replays.
* optionally ``calibration_ns()`` and ``calibration_nominal_ns``, when the
  pure-Python calibration loop in run.py does not match what an op does.

The random generators come from ``tests/conftest.py``; the expected values
used by the checks are computed here, from the raw inputs, without the
canonical forms the library derives.
"""

from __future__ import annotations

import ast
import contextlib
import importlib.util
import io
import json
import os
import random
import selectors
import subprocess
import sys
import time
import types
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TESTS = ROOT / "tests"

if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import qpadic  # noqa: E402
from qpadic import (  # noqa: E402
    GaussianChannel,
    GaussianState,
    Lattice,
    LogLedger,
    Mat2,
    Vec2,
    adelic_report,
    channel_validity,
)

SMALL_PRIMES = (2, 3, 5, 7, 11)
LARGE_PRIMES = (100003, 999983, 1000003)


def load_generators() -> types.ModuleType:
    """Load the ``rand_*`` generators from tests/conftest.py.

    conftest imports pytest only for its fixture decorator. When pytest is
    not already loaded, a stand-in that provides just that decorator keeps
    the pytest import (about 0.1 s) out of ``setup_s``.
    """
    spec = importlib.util.spec_from_file_location("qpadic_bench_generators", TESTS / "conftest.py")
    module = importlib.util.module_from_spec(spec)
    stand_in = "pytest" not in sys.modules
    if stand_in:
        stub = types.ModuleType("pytest")
        stub.fixture = lambda fn: fn
        sys.modules["pytest"] = stub
    try:
        spec.loader.exec_module(module)
    finally:
        if stand_in:
            del sys.modules["pytest"]
    return module


# Expected values, computed from raw inputs with plain Fraction arithmetic.


def vp(q: Fraction, p: int) -> int:
    """p-adic valuation of a nonzero rational, without qpadic."""
    v = 0
    num, den = q.numerator, q.denominator
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v


def det(m: Mat2) -> Fraction:
    return m.a * m.d - m.b * m.c


def abs_det(m: Mat2) -> Fraction:
    return abs(det(m))


def expected_contains(basis: Mat2, z: Vec2, p: int) -> bool:
    """Solve basis * x = z by Cramer's rule and test x for p-adic integrality."""
    d = det(basis)
    x = (basis.d * z.x - basis.b * z.y) / d
    y = (basis.a * z.y - basis.c * z.x) / d
    return all(c == 0 or vp(c, p) >= 0 for c in (x, y))


def unimodular(gen, rng: random.Random, p: int) -> Mat2:
    """A random integer matrix that is invertible over Z_p.

    ``rand_unimodular`` lists every unit below 2p, which is millions of
    entries for a 6-7 digit prime. Its matrices for p = 2 have determinant
    +-3**k, so they are invertible over Z_p for every p > 3 as well.
    """
    return gen.rand_unimodular(rng, p if p < 1000 else 2)


def cycle(items, i):
    return items[i % len(items)]


class ExactWitness:
    """Channel construction, threshold scan, witnesses, apply and adelic report.

    Set-up keeps raw bases only, so every op canonicalizes anew.
    Primes cycle through SMALL_PRIMES in order rather than being drawn, so
    the prime mix is the same for every seed.
    """

    name = "exact-witness"
    pass_ops = 400
    tail_pct = 95.0
    trace_ops = 150

    def __init__(self, seed: int):
        gen = load_generators()
        rng = random.Random(seed)
        self.inputs = []
        for i in range(self.pass_ops):
            p = cycle(SMALL_PRIMES, i)
            channel = gen.rand_valid_channel(rng, p)
            noise_basis = channel.noise.basis @ unimodular(gen, rng, p)
            state = gen.rand_state(rng, p, shifted=True)
            state_basis = state.lattice.basis @ unimodular(gen, rng, p)
            self.inputs.append((p, channel.transform, noise_basis, state_basis, state.shift))

    def run(self, i: int):
        p, k, noise_basis, state_basis, shift = self.inputs[i]
        noise = Lattice(noise_basis, p)
        channel_validity(k, noise)
        channel = GaussianChannel(k, noise)
        n0 = channel.witness_threshold()
        witness = [channel.entropy_gain_witness(n) for n in range(n0, n0 + 3)]
        out = channel.apply(GaussianState(Lattice(state_basis, p), shift))
        report = adelic_report(k)
        return channel, n0, witness, out, report

    def check(self, i: int, result) -> bool:
        p, k, noise_basis, _, _ = self.inputs[i]
        channel, n0, witness, out, report = result
        noise = channel.noise
        gain = channel.entropy_gain()
        if gain != LogLedger.single(p, -vp(det(k), p)) or any(w != gain for w in witness):
            return False
        pulled = Lattice(k.inverse() @ noise_basis.scaled(Fraction(p) ** n0), p)
        if channel.apply(GaussianState(noise.scaled(n0))).lattice != pulled:
            return False
        if noise.measure * noise.dual().measure != 1:
            return False
        if not out.lattice.issubset(noise):
            return False
        product = Fraction(1)
        for q, e in report.real_gain.items():
            product *= Fraction(q) ** e
        return product == abs_det(k)


class StateQueries:
    """Reads against a pool of prebuilt states; a quarter at 6-7 digit primes."""

    name = "state-queries"
    pass_ops = 240
    POINTS = 6
    tail_pct = 95.0
    trace_ops = 1500

    def __init__(self, seed: int):
        gen = load_generators()
        rng = random.Random(seed)
        self.pool = []
        by_prime: dict[int, list[int]] = {}
        self.table: dict[Lattice, list[int]] = {}
        for j in range(self.pass_ops):
            p = cycle(LARGE_PRIMES, j // 4) if j % 4 == 3 else cycle(SMALL_PRIMES, j)
            seed_state = gen.rand_state(rng, p, shifted=True)
            basis = seed_state.lattice.basis @ unimodular(gen, rng, p)
            state = GaussianState(Lattice(basis, p), seed_state.shift)
            rebased = Lattice(basis @ unimodular(gen, rng, p), p)
            points = []
            for k in range(self.POINTS):
                lo, hi = (0, 3) if k % 2 == 0 else (-3, -1)
                coeff = Vec2(gen.rand_rational(rng, p, lo, hi), gen.rand_rational(rng, p, 0, 3))
                z = basis @ coeff
                points.append((z, expected_contains(basis, z, p)))
            n = vp(det(basis), p)
            entry = {
                "p": p,
                "state": state,
                "sub": state.lattice.scaled(1),
                "rebased": rebased,
                "points": points,
                "render": "0" if n == 0 else f"{n}*ln({p})",
                "vdet": n,
            }
            self.pool.append(entry)
            by_prime.setdefault(p, []).append(j)
            self.table.setdefault(state.lattice, []).append(j)
        for j, entry in enumerate(self.pool):
            partner = rng.choice(by_prime[entry["p"]])
            entry["partner"] = partner
            entry["equivalent"] = self.pool[partner]["vdet"] == entry["vdet"]

    def run(self, i: int):
        entry = self.pool[i]
        state, lat = entry["state"], entry["state"].lattice
        chars = [state.char(z) for z, _ in entry["points"]]
        contains = [lat.contains(z) for z, _ in entry["points"]]
        subset = (entry["sub"].issubset(lat), lat.issubset(entry["sub"]))
        found = self.table.get(entry["rebased"], ())
        entropy = state.entropy()
        residual = entropy - LogLedger.single(state.p, state.rank_exponent())
        rendered = (entropy + entropy - entropy).render()
        equivalent = state.unitarily_equivalent(self.pool[entry["partner"]]["state"])
        return chars, contains, subset, found, residual, rendered, equivalent

    def check(self, i: int, result) -> bool:
        entry = self.pool[i]
        chars, contains, subset, found, residual, rendered, equivalent = result
        expected = [inside for _, inside in entry["points"]]
        return (
            contains == expected
            and [c is not None for c in chars] == expected
            and subset == (True, False)
            and i in found
            and residual.is_zero()
            and rendered == entry["render"]
            and equivalent == entry["equivalent"]
        )


#: Tolerances of ``oracle.run_battery``: algebraic checks and the entropy.
ORACLE_TOLERANCE = 1e-10
ENTROPY_TOLERANCE = 1e-9


class OracleBattery:
    """Single check units of the Weyl-operator oracle at d = 9, 25, 49, 81.

    The sequence is built round by round: each round holds, for every
    system, four CCR pairs, two state units, two Fourier units and one
    channel scan, shuffled by the seed. Any prefix of the sequence is then
    within one round of the same mix, which keeps the throughput of
    different seeds comparable.
    """

    name = "oracle-battery"
    SYSTEMS = ((3, 2), (5, 2), (7, 2), (3, 4))
    ROUNDS = 12
    tail_pct = 99.0
    trace_ops = 432

    def __init__(self, seed: int):
        import numpy as np
        from qpadic import oracle

        rng = random.Random(seed)
        self.np = np
        self.oracle = oracle
        self.systems = [oracle.WeylSystem(p, n) for p, n in self.SYSTEMS]
        self.transforms = [
            [Mat2.identity(), Mat2.diagonal(p, 1), Mat2.diagonal(1, p), Mat2.diagonal(2, 1), Mat2.diagonal(p, p)]
            for p, _ in self.SYSTEMS
        ]
        self.noises = [(0, 0), (-1, 0), (1, -1)]
        self.rank_exponent = {}
        for s, system in enumerate(self.systems):
            m = system.window
            for e1 in range(-m, m + 1):
                for e2 in range(-m, m + 1):
                    if e1 + e2 >= 0:
                        lat = oracle.exponent_lattice(system.p, e1, e2)
                        self.rank_exponent[s, e1, e2] = int(-qpadic.valuation(lat.measure, system.p))
        self.units = []
        for _ in range(self.ROUNDS):
            round_units = []
            for s, system in enumerate(self.systems):
                d, m, n = system.dim, system.window, system.N
                for _ in range(4):
                    pair = ((rng.randrange(d), rng.randrange(d)), (rng.randrange(d), rng.randrange(d)))
                    round_units.append(("ccr", s, pair))
                states = sorted(key[1:] for key in self.rank_exponent if key[0] == s)
                for _ in range(2):
                    round_units.append(("state", s, rng.choice(states)))
                for _ in range(2):
                    round_units.append(("fourier", s, (rng.randint(0, n), rng.randint(0, n))))
                round_units.append(("scan", s, (rng.randrange(5), rng.randrange(3))))
            rng.shuffle(round_units)
            self.units.extend(round_units)
        self.pass_ops = len(self.units)

    def run(self, i: int):
        kind, s, arg = self.units[i]
        system, oracle = self.systems[s], self.oracle
        if kind == "ccr":
            return oracle.ccr_deviation(system, *arg)
        if kind == "fourier":
            return oracle.fourier_subgroup_deviation(system, *arg)
        if kind == "scan":
            k, noise = arg
            return oracle.channel_scan(system, self.transforms[s][k], self.noises[noise])
        e1, e2 = arg
        rho = oracle.gaussian_density(system, e1, e2)
        np = self.np
        spectrum = np.sort(np.linalg.eigvalsh(rho))
        return spectrum, oracle.entropy_nats(rho), oracle.char_indicator_deviation(system, rho, e1, e2)

    def check(self, i: int, result) -> bool:
        kind, s, arg = self.units[i]
        if kind in ("ccr", "fourier"):
            return result < ORACLE_TOLERANCE
        if kind == "scan":
            return bool(result) and all(case.agree for case in result)
        system = self.systems[s]
        spectrum, entropy, char_dev = result
        n = self.rank_exponent[(s, *arg)]
        rank = system.p**n
        flat = [0.0] * (system.dim - rank) + [float(system.p) ** (-n)] * rank
        spectrum_dev = max(abs(a - b) for a, b in zip(spectrum.tolist(), flat))
        entropy_dev = abs(entropy - n * float(self.np.log(system.p)))
        return spectrum_dev < ORACLE_TOLERANCE and entropy_dev < ENTROPY_TOLERANCE and char_dev < ORACLE_TOLERANCE


def golden_cases() -> dict[str, list[str]]:
    """GOLDEN_CASES from tests/test_cli.py, read as a literal without importing the test."""
    tree = ast.parse((TESTS / "test_cli.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "GOLDEN_CASES" for t in node.targets):
            return ast.literal_eval(node.value)
    raise LookupError("GOLDEN_CASES not found in tests/test_cli.py")


def expected_payload(cmd: list[str]) -> dict:
    """The JSON payload of a valid non-oracle command, built through the library."""
    opts = dict(arg[2:].split("=", 1) for arg in cmd[1:] if arg.startswith("--"))
    base = opts.get("log-base", "e")
    if cmd[0] == "adelic":
        return adelic_report(Mat2.parse(opts["K"])).to_json_dict()
    action, p = cmd[1], int(opts["p"])
    if cmd[0] == "lattice":
        if action in ("intersect", "sum"):
            one, two = Lattice(Mat2.parse(opts["a"]), p), Lattice(Mat2.parse(opts["b"]), p)
            out = one & two if action == "intersect" else one + two
            return {"basis": str(out.canonical), "measure": str(out.measure)}
        lat = Lattice(Mat2.parse(opts["basis"]), p)
        if action == "measure":
            return {"measure": str(lat.measure)}
        if action == "dual":
            return {"basis": str(lat.dual().canonical)}
        if action == "selfdual":
            return {"self_dual": lat.is_self_dual()}
        return {"basis": str(lat.canonical)}
    k = Mat2.parse(opts["K"])
    if action == "gain":
        exponent = -vp(det(k), p)
        return {"exponent": exponent, "prime": p, f"value_base_{base}": LogLedger.single(p, exponent).render(base)}
    noise = Lattice(Mat2.parse(opts["L"]), p)
    if action == "validate":
        check = channel_validity(k, noise)
        return {
            "valid": check.ok,
            "one_minus_det_norm": str(check.one_minus_det_norm),
            "noise_measure": str(check.noise_measure),
            "product": str(check.product),
        }
    channel = GaussianChannel(k, noise)
    if action == "threshold":
        return {"threshold": channel.witness_threshold()}
    shift = Vec2.parse(opts["shift"]) if "shift" in opts else Vec2.zero()
    out = channel.apply(GaussianState(Lattice(Mat2.parse(opts["state"]), p), shift))
    ledger = out.entropy()
    return {
        "basis": str(out.lattice.canonical),
        "shift": str(out.shift),
        "entropy": {"terms": {str(q): e for q, e in ledger.terms.items()}, f"value_base_{base}": ledger.render(base)},
    }


def expected_stdout(case: dict) -> bytes:
    if case["golden"] is not None:
        return case["golden"]
    return (json.dumps(expected_payload(case["cmd"]), sort_keys=True) + "\n").encode()


class CliMix:
    """One ``python -m qpadic.cli`` process per op, timed from spawn to exit.

    Set-up stores argument lists only. One command in ten, at a seeded
    position in each block of ten, carries invalid input and must exit 1.
    """

    name = "cli-mix"
    pass_ops = 10
    tail_pct = 75.0
    trace_ops = 10
    NON_PRIMES = (1, 4, 6, 9, 15, 21)
    SINGULAR = ("1,2;2,4", "0,0;1,1", "1/2,1;1,2")
    MALFORMED = ("1,x;0,1", "1/0,0;0,1", "1,0;0", "1;0")

    def __init__(self, seed: int):
        gen = load_generators()
        rng = random.Random(seed)
        goldens = [
            (cmd, (TESTS / "golden" / name).read_bytes()) for name, cmd in sorted(golden_cases().items())
        ]
        makers = [self._lattice_one, self._lattice_two, self._channel, self._adelic]
        self.cases = []
        for block in range(self.pass_ops // 10):
            bad = rng.randrange(10)
            for slot in range(10):
                p = rng.choice(SMALL_PRIMES)
                if slot == bad:
                    self.cases.append({"cmd": self._invalid(rng, gen), "golden": None, "valid": False})
                elif (block * 10 + slot) % 4 == 0:
                    cmd, golden = rng.choice(goldens)
                    self.cases.append({"cmd": cmd, "golden": golden, "valid": True})
                else:
                    cmd = rng.choice(makers)(rng, gen, p)
                    self.cases.append({"cmd": cmd, "golden": None, "valid": True})
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
        self.max_rss_kb = 0
        #: Set for the traced run: children report ``-X importtime`` and each
        #: op also runs ``cli.main`` in this process, so its layers are traced.
        self.traced = False
        self.phases: list[tuple[float, float, float, float]] = []

    @staticmethod
    def _basis(rng, gen, p):
        return str(gen.rand_basis(rng, p))

    def _lattice_one(self, rng, gen, p):
        action = rng.choice(("measure", "dual", "selfdual", "canon"))
        return ["lattice", action, f"--p={p}", f"--basis={self._basis(rng, gen, p)}"]

    def _lattice_two(self, rng, gen, p):
        action = rng.choice(("intersect", "sum"))
        return ["lattice", action, f"--p={p}", f"--a={self._basis(rng, gen, p)}", f"--b={self._basis(rng, gen, p)}"]

    def _channel(self, rng, gen, p):
        action = rng.choice(("validate", "apply", "gain", "threshold"))
        channel = gen.rand_valid_channel(rng, p)
        noise = channel.noise.basis @ unimodular(gen, rng, p)
        cmd = ["channel", action, f"--p={p}", f"--K={channel.transform}"]
        if action == "validate":
            cmd.append(f"--L={self._basis(rng, gen, p)}")
        elif action in ("apply", "threshold"):
            cmd.append(f"--L={noise}")
        if action == "apply":
            state = gen.rand_state(rng, p, shifted=True)
            cmd += [f"--state={state.lattice.basis}", f"--shift={state.shift}"]
        if action in ("apply", "gain"):
            cmd.append(f"--log-base={rng.choice(('e', '2', '10'))}")
        return cmd

    def _adelic(self, rng, gen, p):
        # a channel transform keeps |det K| small enough for trial-division factoring
        return ["adelic", f"--K={gen.rand_valid_channel(rng, p).transform}"]

    def _invalid(self, rng, gen):
        kind = rng.randrange(3)
        if kind == 0:
            return ["lattice", "measure", f"--p={rng.choice(self.NON_PRIMES)}", "--basis=1,0;0,1"]
        literal = rng.choice(self.SINGULAR if kind == 1 else self.MALFORMED)
        return rng.choice(
            (
                ["lattice", "canon", "--p=3", f"--basis={literal}"],
                ["channel", "gain", "--p=5", f"--K={literal}"],
                ["adelic", f"--K={literal}"],
            )
        )

    #: ``calibration_ns`` on an uncontended core of the reference machine.
    calibration_nominal_ns = 60_000_000

    def calibration_ns(self) -> int:
        """Spawn-to-exit time of a bare interpreter, the cost a CLI op is made of."""
        start = time.perf_counter_ns()
        subprocess.run([sys.executable, "-c", "pass"], cwd=ROOT, env=self.env, check=True)
        return time.perf_counter_ns() - start

    def run(self, i: int):
        cmd = self.cases[i]["cmd"]
        extra = ["-X", "importtime"] if self.traced else []
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, *extra, "-m", "qpadic.cli", *cmd],
            cwd=ROOT,
            env=self.env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        out, err = _drain(proc)
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        spawn_ms = (time.perf_counter() - start) * 1e3
        self.max_rss_kb = max(self.max_rss_kb, usage.ru_maxrss)
        if self.traced:
            lines = err.splitlines(keepends=True)
            err = b"".join(line for line in lines if not line.startswith(b"import time:"))
            import_ms, numpy_ms = _import_times(lines)
            main_ms = self._main_in_process(cmd)
            self.phases.append((import_ms, numpy_ms, main_ms, spawn_ms - import_ms - numpy_ms - main_ms))
        return proc.returncode, out, err

    @staticmethod
    def _main_in_process(cmd: list[str]) -> float:
        from qpadic import cli

        sink = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            cli.main(cmd)
        return (time.perf_counter() - start) * 1e3

    def check(self, i: int, result) -> bool:
        case = self.cases[i]
        code, out, err = result
        if b"Traceback" in err:
            return False
        if not case["valid"]:
            return code == 1 and out == b"" and err.startswith(b"error:")
        return code == 0 and out == expected_stdout(case)


def _import_times(lines: list[bytes]) -> tuple[float, float]:
    """(qpadic import ms without numpy, numpy import ms) from ``-X importtime`` lines.

    The qpadic figure sums the top-level imports from the first qpadic one
    on, which covers the package and everything ``cli`` pulls in.
    """
    numpy_us = 0
    total_us = 0
    seen_qpadic = False
    for line in lines:
        fields = line[len(b"import time:"):].split(b"|")
        if len(fields) != 3 or not fields[1].strip().isdigit():
            continue
        cumulative = int(fields[1])
        name = fields[2].rstrip().decode()[1:]  # nesting shows as extra leading spaces
        module = name.lstrip()
        if module == "numpy" and not numpy_us:
            numpy_us = cumulative
        if name == module:
            seen_qpadic = seen_qpadic or module.startswith("qpadic")
            if seen_qpadic:
                total_us += cumulative
    return (total_us - numpy_us) / 1e3, numpy_us / 1e3


def _drain(proc: subprocess.Popen) -> tuple[bytes, bytes]:
    """Read a child's stdout and stderr to EOF without reaping it."""
    chunks = {proc.stdout: [], proc.stderr: []}
    with selectors.DefaultSelector() as sel:
        for stream in chunks:
            sel.register(stream, selectors.EVENT_READ)
        while sel.get_map():
            for key, _ in sel.select():
                data = os.read(key.fd, 65536)
                if data:
                    chunks[key.fileobj].append(data)
                else:
                    sel.unregister(key.fileobj)
                    key.fileobj.close()
    return b"".join(chunks[proc.stdout]), b"".join(chunks[proc.stderr])


WORKLOADS = {cls.name: cls for cls in (ExactWitness, StateQueries, OracleBattery, CliMix)}
