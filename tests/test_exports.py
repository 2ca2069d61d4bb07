"""The package's public names: each is listed once, in the module that defines it."""

import ast
import importlib
from pathlib import Path

import pytest

import qpadic

ROOT = Path(__file__).resolve().parent.parent
MODULES = ["adelic", "channels", "errors", "lattice", "ledger", "oracle", "padic"]
# the library, the benchmark's workloads with its generators in conftest, and the acceptance criteria
OWNERS = [
    *sorted((ROOT / "src" / "qpadic").glob("*.py")),
    ROOT / "perfbench" / "workloads.py",
    ROOT / "tests" / "conftest.py",
    ROOT / "tests" / "test_acceptance.py",
]

PUBLIC = [
    "AdelicGainReport",
    "ChannelValidity",
    "GaussianChannel",
    "GaussianState",
    "INFINITY",
    "InvariantViolation",
    "Lattice",
    "LogLedger",
    "Mat2",
    "NotAChannelError",
    "NotAStateError",
    "PhaseQ",
    "Vec2",
    "additive_character",
    "adelic_report",
    "as_rational",
    "channel_validity",
    "factor_integer",
    "factor_rational",
    "fractional_part",
    "gain_exponent",
    "is_prime",
    "padic_norm",
    "standard_lattice",
    "sympl",
    "valuation",
    "__version__",
]


def test_package_all_is_pinned():
    assert qpadic.__all__ == PUBLIC


def test_every_public_name_resolves():
    for name in qpadic.__all__:
        assert getattr(qpadic, name) is not None


def test_star_import_binds_exactly_all():
    namespace: dict = {}
    exec("from qpadic import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == sorted(PUBLIC)


@pytest.mark.parametrize("module", MODULES)
def test_submodule_names_exist(module):
    mod = importlib.import_module(f"qpadic.{module}")
    assert mod.__all__ and all(hasattr(mod, name) for name in mod.__all__)


def test_every_public_name_has_an_owner():
    # an owner is a read of the name outside the unit tests: a bare name or an attribute
    used = set()
    for path in OWNERS:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                used.add(node.attr)
    unowned = {
        module: sorted(set(importlib.import_module(f"qpadic.{module}").__all__) - used) for module in MODULES
    }
    assert {module: names for module, names in unowned.items() if names} == {}
