"""Per-layer tracing by rebinding qpadic's public functions from outside.

Nothing under ``src/`` knows about this module. ``Tracer.install`` swaps
each traced function or method for a wrapper that records a span (name,
start, end, parent span, op id) while an op is running, and ``restore``
puts every original object back. Outside an op (set-up, checks) the
wrappers call straight through and record nothing.

A function imported by name into other modules (``from .padic import
valuation``) has one binding per module; every binding that is the same
object is rebound, or calls through the copies would go uncounted.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from array import array

#: Traced layer functions: metric name -> (owner, attribute). The owner is
#: a module path or a ``module:Class`` path; class attributes are wrapped on
#: the class, so construction is traced through ``__init__``.
TARGETS = {
    "padic.valuation": ("qpadic.padic", "valuation"),
    "padic.require_prime": ("qpadic.padic", "require_prime"),
    "padic.is_prime": ("qpadic.padic", "is_prime"),
    "padic.padic_norm": ("qpadic.padic", "padic_norm"),
    "padic.fractional_part": ("qpadic.padic", "fractional_part"),
    "padic.additive_character": ("qpadic.padic", "additive_character"),
    "lattice.Lattice": ("qpadic.lattice:Lattice", "__init__"),
    "lattice.dual": ("qpadic.lattice:Lattice", "dual"),
    "lattice.intersect": ("qpadic.lattice:Lattice", "__and__"),
    "lattice.sum": ("qpadic.lattice:Lattice", "__add__"),
    "lattice.scaled": ("qpadic.lattice:Lattice", "scaled"),
    "lattice.transformed": ("qpadic.lattice:Lattice", "transformed"),
    "lattice.contains": ("qpadic.lattice:Lattice", "contains"),
    "lattice.issubset": ("qpadic.lattice:Lattice", "issubset"),
    "lattice.eq": ("qpadic.lattice:Lattice", "__eq__"),
    "ledger.LogLedger": ("qpadic.ledger:LogLedger", "__init__"),
    "ledger.add": ("qpadic.ledger:LogLedger", "__add__"),
    "ledger.sub": ("qpadic.ledger:LogLedger", "__sub__"),
    "ledger.eq": ("qpadic.ledger:LogLedger", "__eq__"),
    "ledger.render": ("qpadic.ledger:LogLedger", "render"),
    "channels.channel_validity": ("qpadic.channels", "channel_validity"),
    "channels.GaussianChannel": ("qpadic.channels:GaussianChannel", "__init__"),
    "channels.apply": ("qpadic.channels:GaussianChannel", "apply"),
    "channels.witness_threshold": ("qpadic.channels:GaussianChannel", "witness_threshold"),
    "channels.entropy_gain_witness": ("qpadic.channels:GaussianChannel", "entropy_gain_witness"),
    "channels.char": ("qpadic.channels:GaussianState", "char"),
    "channels.entropy": ("qpadic.channels:GaussianState", "entropy"),
    "adelic.adelic_report": ("qpadic.adelic", "adelic_report"),
    "adelic.factor_integer": ("qpadic.adelic", "factor_integer"),
    "oracle.weyl_operator": ("qpadic.oracle", "weyl_operator"),
    "oracle.ccr_deviation": ("qpadic.oracle", "ccr_deviation"),
    "oracle.gaussian_density": ("qpadic.oracle", "gaussian_density"),
    "oracle.char_table": ("qpadic.oracle", "char_table"),
    "oracle.fourier_subgroup_deviation": ("qpadic.oracle", "fourier_subgroup_deviation"),
    "oracle.channel_scan": ("qpadic.oracle", "channel_scan"),
    "oracle.entropy_nats": ("qpadic.oracle", "entropy_nats"),
    "oracle.np_eigvalsh": ("numpy.linalg", "eigvalsh"),
    "oracle.np_norm": ("numpy.linalg", "norm"),
}

LAYERS = ("padic", "lattice", "ledger", "channels", "adelic", "oracle")


def _resolve(owner: str):
    module_name, _, class_name = owner.partition(":")
    module = sys.modules.get(module_name)
    if module is None or not class_name:
        return module
    return getattr(module, class_name)


def _scan_size(args, kwargs) -> int:
    """Grid points channel_scan considers: the given inputs, or the window grid."""
    inputs = args[3] if len(args) > 3 else kwargs.get("input_exponents")
    if inputs is not None:
        return len(inputs)
    m = args[0].window
    return sum(1 for g in range(-m, m + 1) for h in range(-m, m + 1) if g + h >= 0)


class Tracer:
    """Spans of one traced run, held in flat arrays until ``dump``."""

    def __init__(self, rebind_in: tuple[str, ...] = ()):
        self.rebind_in = rebind_in
        self.names = list(TARGETS)
        self.span_name = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.stack: list[int] = []
        self.op = -1
        self.patches: list[tuple[object, str, object]] = []
        self.originals: dict[object, object] = {}
        self.threshold_steps: list[int] = []
        self.scan_kept = 0
        self.scan_considered = 0
        self.eigvalsh_d3 = 0

    def _observe(self, name: str, args, kwargs, result) -> None:
        if name == "channels.witness_threshold":
            self.threshold_steps.append(result + 1)
        elif name == "oracle.channel_scan":
            self.scan_kept += len(result)
            self.scan_considered += _scan_size(args, kwargs)
        elif name == "oracle.np_eigvalsh":
            self.eigvalsh_d3 += args[0].shape[-1] ** 3

    def _wrap(self, name: str, fn):
        nid = self.names.index(name)
        observed = name in ("channels.witness_threshold", "oracle.channel_scan", "oracle.np_eigvalsh")
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.op < 0:
                return fn(*args, **kwargs)
            idx = len(self.span_name)
            self.span_name.append(nid)
            self.span_parent.append(self.stack[-1] if self.stack else -1)
            self.span_op.append(self.op)
            self.span_start.append(0)
            self.span_end.append(0)
            self.stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                self.stack.pop()
                self.span_start[idx] = start
                self.span_end[idx] = end
            if observed:
                self._observe(name, args, kwargs, result)
            return result

        return wrapper

    def _bindings(self, module_attr_value) -> list[tuple[object, str]]:
        """Every module-level name in qpadic and the rebind_in modules bound to the object."""
        out = []
        for mod_name, module in list(sys.modules.items()):
            if module is None:
                continue
            if not (mod_name == "qpadic" or mod_name.startswith("qpadic.") or mod_name in self.rebind_in):
                continue
            for key, value in list(vars(module).items()):
                if value is module_attr_value:
                    out.append((module, key))
        return out

    def install(self) -> None:
        """Wrap every target whose module is loaded; oracle stays untouched without numpy."""
        if "qpadic.oracle" not in sys.modules:
            targets = {k: v for k, v in TARGETS.items() if not k.startswith("oracle.")}
        else:
            targets = TARGETS
        for name, (owner_path, attr) in targets.items():
            owner = _resolve(owner_path)
            if isinstance(owner, type):
                original = owner.__dict__[attr]
                self.patches.append((owner, attr, original))
                setattr(owner, attr, self._wrap(name, original))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original)
            self.originals[wrapper] = original
            for module, key in [(owner, attr), *self._bindings(original)]:
                if getattr(module, key) is original:
                    self.patches.append((module, key, original))
                    setattr(module, key, wrapper)

    def restore(self) -> None:
        """Put every original back, also where a module imported while tracing copied a wrapper."""
        for owner, attr, original in reversed(self.patches):
            setattr(owner, attr, original)
        self.patches.clear()
        for wrapper, original in self.originals.items():
            for module, key in self._bindings(wrapper):
                setattr(module, key, original)
        self.originals.clear()

    def self_ns(self) -> list[int]:
        """Per-span self time: duration minus the time its direct children cover."""
        durations = [e - s for s, e in zip(self.span_start, self.span_end)]
        own = list(durations)
        for idx, parent in enumerate(self.span_parent):
            if parent >= 0:
                own[parent] -= durations[idx]
        return own

    def layer_metrics(self, ops: int, op_ns: int) -> dict[str, tuple[float, str]]:
        calls = [0] * len(self.names)
        self_total = [0] * len(self.names)
        for nid, own in zip(self.span_name, self.self_ns()):
            calls[nid] += 1
            self_total[nid] += own
        metrics: dict[str, tuple[float, str]] = {}
        layer_self = dict.fromkeys(LAYERS, 0)
        for nid, name in enumerate(self.names):
            metrics[f"{name}.calls"] = (calls[nid], "count")
            metrics[f"{name}.self_s"] = (self_total[nid] / 1e9, "s")
            layer_self[name.split(".")[0]] += self_total[nid]
        for layer, total in layer_self.items():
            metrics[f"{layer}.self_share"] = (total / op_ns if op_ns else 0.0, "share")
        lattice_calls = calls[self.names.index("lattice.Lattice")]
        metrics["lattice.constructions_per_op"] = (lattice_calls / ops if ops else 0.0, "count")
        steps = self.threshold_steps
        metrics["channels.witness_threshold.steps_mean"] = (sum(steps) / len(steps) if steps else 0.0, "steps")
        kept = self.scan_kept / self.scan_considered if self.scan_considered else 0.0
        metrics["oracle.channel_scan.kept_ratio"] = (kept, "share")
        metrics["oracle.np_eigvalsh.d3_sum"] = (self.eigvalsh_d3, "count")
        return metrics

    def dump(self, path) -> None:
        """Write the spans as one JSON document of parallel columns, gzipped."""
        doc = {
            "names": self.names,
            "columns": ["name", "start_ns", "end_ns", "parent", "op"],
            "name": self.span_name.tolist(),
            "start_ns": self.span_start.tolist(),
            "end_ns": self.span_end.tolist(),
            "parent": self.span_parent.tolist(),
            "op": self.span_op.tolist(),
        }
        with gzip.open(path, "wt", compresslevel=1) as fh:
            json.dump(doc, fh)
