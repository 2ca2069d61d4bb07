"""qpadic benchmark: one seeded workload, a closed loop with one caller.

Run from the repository root:

    python3 perfbench/run.py --workload exact-witness --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15 --trace 0

With ``--trace 0`` the run reports the end-to-end metrics: ``setup_s``
(median of several fresh processes, from spawn to the point where the
first op could start), ``ops_per_s`` (verified ops per second of time
spent inside ops), ``op_p50_ms``, ``op_tail_ms`` (at the workload's fixed
percentile), ``fail_share`` and ``peak_rss_mb``. With ``--trace 1`` it
replays a fixed number of ops untraced and then traced, and reports the
per-layer metrics of the traced replay and the tracing overhead.

Human-readable lines come first; the last line of stdout is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``. Run
records and traced spans are written under ``.bench_out/``.
"""

from __future__ import annotations

import os

# One load-generating process and no extra threads: pin the BLAS pool
# before anything can import numpy. Children inherit the setting.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from fractions import Fraction  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
WORKLOAD_NAMES = ("exact-witness", "state-queries", "oracle-battery", "cli-mix")
REQUIRED = ("src/qpadic/__init__.py", "tests/conftest.py", "tests/test_cli.py", "tests/golden")
SETUP_PROBES = 7
TRACE_ROUNDS = 3
WARMUP_S = 1.0
PROBE_TIMEOUT_S = 60
#: Op time between two calibrations: at least this, and ten calibrations' worth.
CALIBRATE_EVERY_NS = 200_000_000
#: ``calibration_ns`` on an uncontended core of the reference machine
#: (x86-64 VM at 2.1 GHz, CPython 3.11). Times are scaled to it.
CALIBRATION_NOMINAL_NS = 3_000_000


def calibration_ns() -> int:
    """Time of a fixed pure-Python loop of Fraction and dict work, like qpadic's own.

    A workload whose ops are not in-process Python brings its own
    ``calibration_ns`` method and ``calibration_nominal_ns``.
    """
    start = time.perf_counter_ns()
    acc = Fraction(0)
    for k in range(1, 400):
        acc += Fraction(k * 7919 % 1013, k) * Fraction(3, k + 2)
    table: dict[int, int] = {}
    for k in range(6000):
        table[k % 97] = table.get(k % 97, 0) + k
    return time.perf_counter_ns() - start


def calibration_of(workload):
    """The workload's calibration function and its nominal time."""
    return (
        getattr(workload, "calibration_ns", calibration_ns),
        getattr(workload, "calibration_nominal_ns", CALIBRATION_NOMINAL_NS),
    )


@dataclass
class Loop:
    """Latency and verdict of every op one run of the closed loop made."""

    op_ns: list[int] = field(default_factory=list)
    ok: list[bool] = field(default_factory=list)
    #: Per op, the nominal calibration time over the calibration time around it.
    speed: list[float] = field(default_factory=list)
    calibration_median_ns: float = 0.0
    failed: int = 0
    errors: list[str] = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return len(self.op_ns)


def closed_loop(workload, seconds: float, limit: int | None = None, tracer=None, between_passes=None) -> Loop:
    """Run the workload's ops in passes, one op after another, until time or the op limit runs out.

    Op ``i`` of the loop is op ``i % pass_ops`` of the workload, so every
    pass repeats the same inputs. Only ``workload.run`` is timed. An
    exception or a failed check counts as a failed op and the loop goes on.
    ``between_passes`` runs after each complete pass; its time does not
    count against ``seconds``.
    """
    loop = Loop()
    clock = time.perf_counter_ns
    deadline = clock() + int(seconds * 1e9)
    calibrate, nominal = calibration_of(workload)
    calibrations, calibrated_before, since = [calibrate()], [], 0
    i = 0
    while clock() < deadline and (limit is None or i < limit):
        op = i % workload.pass_ops
        if op == 0 and i > 0 and between_passes is not None:
            paused = clock()
            between_passes()
            deadline += clock() - paused
        if tracer is not None:
            tracer.op = i
        start = clock()
        try:
            result = workload.run(op)
        except Exception as exc:  # a failing op is counted, never fatal
            result, error = None, exc
        else:
            error = None
        elapsed = clock() - start
        if tracer is not None:
            tracer.op = -1
        loop.op_ns.append(elapsed)
        calibrated_before.append(len(calibrations) - 1)
        since += elapsed
        if since >= max(CALIBRATE_EVERY_NS, 10 * calibrations[-1]):
            calibrations.append(calibrate())
            since = 0
        if error is None:
            try:
                ok = workload.check(op, result)
            except Exception as exc:
                ok, error = False, exc
        else:
            ok = False
        loop.ok.append(ok)
        if not ok:
            loop.failed += 1
            if len(loop.errors) < 5:
                loop.errors.append(f"op {i}: {error!r}" if error else f"op {i}: check failed")
        i += 1
    calibrations.append(calibrate())
    # The median of six neighbouring calibrations follows episodes of host
    # contention, which last seconds or more, without the jitter of one.
    window = [statistics.median(calibrations[max(0, j - 2) : j + 4]) for j in range(len(calibrations) - 1)]
    loop.speed = [nominal / window[j] for j in calibrated_before]
    loop.calibration_median_ns = statistics.median(calibrations)
    return loop


def percentile(sorted_values: list[int], pct: float) -> int:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, math.ceil(pct / 100 * len(sorted_values)))
    return sorted_values[rank - 1]


def setup_probe(workload: str, seed: int) -> float:
    """Spawn-to-ready seconds of a fresh process that only imports and sets up."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
        cwd=ROOT,
        stdout=subprocess.PIPE,
    )
    line = proc.stdout.readline()
    ready = time.perf_counter()
    proc.stdout.close()
    code = proc.wait(timeout=PROBE_TIMEOUT_S)
    if line.strip() != b"ready" or code != 0:
        raise RuntimeError(f"set-up probe for {workload} failed with exit code {code}")
    return ready - start


def scaled_probe(workload, seed: int) -> tuple[float, float]:
    """(scaled, raw) set-up seconds, scaled by the median of three calibrations before and three after."""
    calibrate, nominal = calibration_of(workload)
    around = [calibrate() for _ in range(3)]
    raw = setup_probe(workload.name, seed)
    around += [calibrate() for _ in range(3)]
    return raw * nominal / statistics.median(around), raw


def latency_figures(workload, loop: Loop) -> dict:
    """Throughput and latency percentiles of the verified ops, at the nominal machine speed."""
    scaled = [ns * speed for ns, speed in zip(loop.op_ns, loop.speed)]
    latencies = sorted(v for v, ok in zip(scaled, loop.ok) if ok)
    if not latencies:
        raise RuntimeError("no op passed its check; " + "; ".join(loop.errors))
    tail = percentile(latencies, workload.tail_pct)
    return {
        "ops_per_s": len(latencies) / (sum(scaled) / 1e9),
        "op_p50_ms": statistics.median(latencies) / 1e6,
        "op_tail_ms": tail / 1e6,
        "samples": len(latencies),
        "beyond": sum(1 for v in latencies if v > tail),
    }


def end_to_end(workload, loop: Loop, setup_times: list[tuple[float, float]]) -> tuple[dict, dict]:
    figures = latency_figures(workload, loop)
    if hasattr(workload, "max_rss_kb"):
        rss_kb = workload.max_rss_kb
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "setup_s": (statistics.median(t for t, _ in setup_times), "s"),
        "ops_per_s": (figures["ops_per_s"], "1/s"),
        "op_p50_ms": (figures["op_p50_ms"], "ms"),
        "op_tail_ms": (figures["op_tail_ms"], "ms"),
        "fail_share": (loop.failed / loop.attempted, "share"),
        "peak_rss_mb": (rss_kb / 1024, "MB"),
    }
    details = {
        "tail_percentile": workload.tail_pct,
        "tail_samples": figures["samples"],
        "tail_beyond": figures["beyond"],
        "setup_samples_s": setup_times,
        "calibration_median_ns": loop.calibration_median_ns,
        "raw_ops_per_s": loop.attempted / (sum(loop.op_ns) / 1e9),
    }
    return metrics, details


def traced_replay(workload, seconds: float, rebind_in: str) -> tuple[dict, Loop, dict]:
    """Replay the first ``trace_ops`` ops untraced and then traced, TRACE_ROUNDS times.

    The per-layer metrics come from the first traced replay. The overhead
    compares the fastest untraced with the fastest traced replay, which
    keeps episodes of host contention out of it.
    """
    import tracing

    budget = seconds / TRACE_ROUNDS
    toggles = hasattr(workload, "traced")
    plain_ns, traced_ns, first = [], [], None
    for _ in range(TRACE_ROUNDS):
        if toggles:
            workload.traced = False
        plain = closed_loop(workload, budget, limit=workload.trace_ops)
        tracer = tracing.Tracer(rebind_in=(rebind_in,))
        if toggles:
            workload.traced = True
        tracer.install()
        try:
            traced = closed_loop(workload, 2 * budget, limit=plain.attempted, tracer=tracer)
        finally:
            tracer.restore()
        plain_ns.append(sum(plain.op_ns[: traced.attempted]))
        traced_ns.append(sum(traced.op_ns))
        first = first or (tracer, traced)
    tracer, traced = first
    n = traced.attempted
    metrics = tracer.layer_metrics(n, sum(traced.op_ns))
    metrics["trace.ops"] = (n, "count")
    metrics["trace.overhead"] = (1 - min(plain_ns) / min(traced_ns), "share")
    phases = getattr(workload, "phases", [])
    for idx, key in enumerate(("import_ms", "import_numpy_ms", "main_ms", "interp_start_ms")):
        metrics[f"cli.{key}"] = (statistics.median(p[idx] for p in phases) if phases else 0.0, "ms")
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"{workload.name}.spans.json.gz"
    tracer.dump(spans_path)
    return metrics, traced, {"spans": len(tracer.span_name), "spans_file": f"{OUT.name}/{spans_path.name}"}


def blas_threads() -> int | None:
    """Thread count reported by the OpenBLAS that numpy loaded, if it is OpenBLAS."""
    import ctypes

    import numpy

    for lib in sorted((Path(numpy.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        cdll = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(cdll, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return proc.stdout.strip() or "unknown"


def run_record(args, attempted: int) -> dict:
    import numpy

    src_lines = sum(len(f.read_text().splitlines()) for f in sorted((ROOT / "src").rglob("*.py")))
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "ops": attempted,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(),
        "src_lines": src_lines,
    }


def run_all(args) -> int:
    """Run every workload in its own process and combine the results."""
    results = {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed)]
        cmd += ["--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0:
            return proc.returncode
        results[name] = json.loads(proc.stdout.splitlines()[-1])
    combined = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
    }
    print(json.dumps(combined))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [path for path in REQUIRED if not (ROOT / path).exists()]
    if missing:
        print(f"error: {ROOT} is not a qpadic checkout; missing {', '.join(missing)}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)

    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed)
    gc.collect()
    gc.freeze()
    closed_loop(workload, WARMUP_S, limit=workload.trace_ops)
    if args.trace:
        metrics, loop, details = traced_replay(workload, args.seconds, workloads.__name__)
        reported = metrics
    else:
        # Set-up probes run between passes, spread over the run, so that
        # their median is not taken in one burst of host contention.
        setup_times: list[tuple[float, float]] = []
        began, paused = time.perf_counter(), 0.0

        def probe_if_due():
            nonlocal paused
            due = len(setup_times) * args.seconds / SETUP_PROBES
            if len(setup_times) < SETUP_PROBES and time.perf_counter() - began - paused >= due:
                setup_times.append(scaled_probe(workload, args.seed))
                paused += setup_times[-1][1]

        loop = closed_loop(workload, args.seconds, between_passes=probe_if_due)
        while len(setup_times) < SETUP_PROBES:
            setup_times.append(scaled_probe(workload, args.seed))
        metrics, details = end_to_end(workload, loop, setup_times)
        reported = {k: v for k, v in metrics.items() if k != "fail_share"}
    record = run_record(args, loop.attempted) | details

    print(f"workload {args.workload}  seed {args.seed}  ops {loop.attempted}  failed {loop.failed}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<44} {value:>14.6g} {unit}")
    for error in loop.errors:
        print(f"  failure: {error}")
    print("record " + json.dumps(record, sort_keys=True))
    result = {
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in reported.items()},
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-trace{args.trace}.json").write_text(json.dumps({"record": record, "result": result}, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
