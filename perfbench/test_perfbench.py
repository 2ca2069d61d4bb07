"""Self-tests of the benchmark: python -m pytest perfbench

They run each workload for a handful of ops, prove that every check can
fail by feeding it a wrong expected value, and make sure a traced run
leaves no wrapper behind.
"""

from __future__ import annotations

import json
import subprocess
import sys
import types

import pytest

import run
import tracing
import workloads

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "fail_share": "share",
    "peak_rss_mb": "MB",
}
SMOKE_OPS = {"exact-witness": 12, "state-queries": 40, "oracle-battery": 40, "cli-mix": 10}


def smoke(name: str, seed: int = 3):
    workload = workloads.WORKLOADS[name](seed)
    return workload, run.closed_loop(workload, 60, limit=SMOKE_OPS[name])


@pytest.mark.parametrize("name", sorted(SMOKE_OPS))
def test_smoke_run_reports_every_metric_and_no_failure(name):
    workload, loop = smoke(name)
    metrics, _ = run.end_to_end(workload, loop, [(0.5, 0.6)])
    assert {k: unit for k, (_, unit) in metrics.items()} == END_TO_END
    assert metrics["fail_share"][0] == 0
    assert all(value > 0 for key, (value, _) in metrics.items() if key != "fail_share")


WRONG_EXPECTATIONS = {
    "exact-witness": ("abs_det", lambda m: abs(workloads.det(m)) + 1),
    "state-queries": ("expected_contains", lambda basis, z, p: True),
    "oracle-battery": ("ORACLE_TOLERANCE", -1.0),
    "cli-mix": ("expected_stdout", lambda case: b"{}\n"),
}


@pytest.mark.parametrize("name", sorted(WRONG_EXPECTATIONS))
def test_wrong_expected_value_raises_fail_share(name, monkeypatch):
    attr, wrong = WRONG_EXPECTATIONS[name]
    monkeypatch.setattr(workloads, attr, wrong)
    _, loop = smoke(name)
    assert loop.failed > 0


def test_invalid_cli_input_must_fail_cleanly():
    mix = workloads.CliMix(3)
    i = next(i for i, case in enumerate(mix.cases) if not case["valid"])
    code, out, err = mix.run(i)
    assert mix.check(i, (code, out, err))
    assert not mix.check(i, (0, out, err))
    assert not mix.check(i, (code, out, err + b"Traceback"))


def _bindings() -> dict:
    """Every module or class attribute the tracer may rebind, by identity."""
    seen = {}
    for mod_name, module in list(sys.modules.items()):
        if mod_name.startswith("qpadic") or mod_name == workloads.__name__:
            for key, value in vars(module).items():
                seen[(mod_name, key)] = value
                if isinstance(value, type) and value.__module__.startswith("qpadic"):
                    for attr, member in vars(value).items():
                        seen[(mod_name, key, attr)] = member
    return seen


@pytest.mark.parametrize("name", ["exact-witness", "oracle-battery", "cli-mix"])
def test_traced_run_restores_every_original(name, monkeypatch, tmp_path):
    monkeypatch.setattr(run, "OUT", tmp_path)
    workload = workloads.WORKLOADS[name](5)
    monkeypatch.setattr(workload, "trace_ops", 4)
    before = _bindings()
    metrics, loop, details = run.traced_replay(workload, 60, workloads.__name__)
    after = _bindings()
    assert loop.failed == 0 and details["spans"] > 0
    assert all(after[key] is value for key, value in before.items())
    # modules first imported during the run (cli, oracle) hold no wrapper either
    wrapper_code = tracing.Tracer()._wrap("padic.valuation", len).__code__
    assert not any(getattr(v, "__code__", None) is wrapper_code for v in after.values())
    assert metrics["trace.ops"][0] == 4
    layer = "oracle" if name == "oracle-battery" else "lattice"
    assert metrics[f"{layer}.self_share"][0] > 0


def test_self_time_subtracts_direct_children():
    tracer = tracing.Tracer()
    # span 0 [0, 100] holds span 1 [10, 40], which holds span 2 [20, 30]
    tracer.span_start.extend([0, 10, 20])
    tracer.span_end.extend([100, 40, 30])
    tracer.span_parent.extend([-1, 0, 1])
    assert tracer.self_ns() == [70, 20, 10]


def test_times_are_scaled_by_the_calibration():
    loop = run.Loop(op_ns=[1_000_000, 4_000_000], ok=[True, True], speed=[2.0, 0.5])
    figures = run.latency_figures(types.SimpleNamespace(tail_pct=50.0), loop)
    assert figures["op_p50_ms"] == 2.0 and figures["op_tail_ms"] == 2.0
    assert figures["ops_per_s"] == 2 / 0.004


def test_result_line_contract():
    """The last stdout line holds exactly the four keys, with every end-to-end metric but fail_share."""
    proc = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--workload", "oracle-battery", "--seed", "2", "--seconds", "0.3"],
        cwd=run.ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    expected = {k: u for k, u in END_TO_END.items() if k != "fail_share"}
    assert {k: m["unit"] for k, m in result["metrics"].items()} == expected


def test_refuses_a_directory_without_the_program(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for source in run.HERE.glob("*.py"):
        (bench / source.name).write_text(source.read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli-mix", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
