"""The package's public names: each is listed once, in the module that defines it."""

import importlib

import pytest

import qpadic

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
    "STANDARD_J",
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
    "symplectic_transport",
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


@pytest.mark.parametrize("module", ["adelic", "channels", "errors", "lattice", "ledger", "oracle", "padic"])
def test_submodule_names_exist(module):
    mod = importlib.import_module(f"qpadic.{module}")
    assert mod.__all__ and all(hasattr(mod, name) for name in mod.__all__)
