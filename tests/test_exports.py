"""The package's public names: each is listed once, in the module that defines it."""

import ast
import importlib
from pathlib import Path

import pytest

import qpadic

ROOT = Path(__file__).resolve().parent.parent
MODULES = ["adelic", "channels", "errors", "lattice", "ledger", "oracle", "padic"]
EXACT = [module for module in MODULES if module != "oracle"]  # the modules the package republishes
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


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="^module 'qpadic' has no attribute 'no_such_name'$"):
        getattr(qpadic, "no_such_name")


def test_from_import_binds_the_defining_modules_object():
    exact = [importlib.import_module(f"qpadic.{module}") for module in EXACT]
    defining = {name: vars(module)[name] for module in exact for name in module.__all__}
    defining["__version__"] = vars(qpadic)["__version__"]
    for name in qpadic.__all__:
        namespace: dict = {}
        exec(f"from qpadic import {name}", namespace)
        assert namespace[name] is defining[name], name


def test_a_lookup_reads_the_modules_current_binding(monkeypatch):
    # the package stores no name, so a name rebound in its module, as the benchmark's tracer does, reads through
    assert qpadic.valuation is qpadic.padic.valuation
    monkeypatch.setattr(qpadic.padic, "valuation", len)
    assert qpadic.valuation is len


@pytest.mark.parametrize("module", [*MODULES, "cli"])
def test_submodule_resolves_through_the_package(module):
    # the package's __getattr__ itself, since the import system binds a module once it is loaded
    assert qpadic.__getattr__(module) is importlib.import_module(f"qpadic.{module}")


def test_dir_lists_every_public_name():
    assert set(PUBLIC) <= set(dir(qpadic))


@pytest.mark.parametrize("module", MODULES)
def test_submodule_names_exist(module):
    mod = importlib.import_module(f"qpadic.{module}")
    assert mod.__all__ and all(hasattr(mod, name) for name in mod.__all__)


def owned_names() -> set[str]:
    """Every name the owners read, as a bare name or as an attribute."""
    used = set()
    for path in OWNERS:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                used.add(node.attr)
    return used


def test_every_public_name_has_an_owner():
    # an owner is a read of the name outside the unit tests
    used = owned_names()
    unowned = {
        module: sorted(set(importlib.import_module(f"qpadic.{module}").__all__) - used) for module in MODULES
    }
    assert {module: names for module, names in unowned.items() if names} == {}


def public_members() -> list[tuple[str, str]]:
    """(class, member) for each public method, property and field of an exported class."""
    members = []
    for module in MODULES:
        mod = importlib.import_module(f"qpadic.{module}")
        for name in mod.__all__:
            cls = getattr(mod, name)
            if isinstance(cls, type):
                members += [(name, attr) for attr in vars(cls) if not attr.startswith("_")]
    return members


def test_every_public_method_has_an_owner():
    # the same rule one level down, for each public method, property and field of an exported class;
    # a read of the same name on another class counts too, so this is a floor on the surface, not a proof
    used = owned_names()
    assert [f"{cls}.{attr}" for cls, attr in public_members() if attr not in used] == []


#: The members that two or more exported classes define, which the name match above cannot tell
#: apart. Each has an owner on every class that defines it, read on a value of that type.
SHARED_MEMBERS = {
    "a": {"Lattice", "Mat2"},
    "b": {"Lattice", "Mat2"},
    "det": {"AdelicGainReport", "Mat2"},
    "is_zero": {"LogLedger", "Vec2"},
    "p": {"GaussianChannel", "GaussianState", "Lattice"},
    "parse": {"Mat2", "Vec2"},
    "scaled": {"Lattice", "Mat2"},
}


def test_shared_member_names_are_pinned():
    # a new shared name fails here until its owner is checked by type and the pin updated
    classes: dict[str, set[str]] = {}
    for cls, attr in public_members():
        classes.setdefault(attr, set()).add(cls)
    assert {attr: names for attr, names in classes.items() if len(names) > 1} == SHARED_MEMBERS


#: The special methods each exported class writes in its own body. An operator such as `a + b` reads
#: no name, so the owner guards above cannot see it; this pin makes adding or removing one a visible
#: change. Methods that a decorator generates, such as a dataclass's, are not pinned.
SPECIAL_METHODS = {
    "AdelicGainReport": {"__new__"},
    "ChannelValidity": {"__new__"},
    "GaussianChannel": {"__init__", "__repr__"},
    "GaussianState": {"__init__", "__eq__", "__repr__"},
    "Lattice": {"__init__", "__getattr__", "__eq__", "__hash__", "__repr__", "__add__", "__and__"},
    "LogLedger": {"__init__", "__add__", "__sub__", "__eq__", "__repr__"},
    "Mat2": {"__new__", "__matmul__", "__str__"},
    "PhaseQ": {"__new__"},
    "Vec2": {"__new__", "__sub__", "__str__"},
    "WeylSystem": {"__post_init__"},
}


def written_in(value: object, path: str) -> bool:
    """Whether a class attribute is a function compiled from the file at path. A staticmethod or
    classmethod holds its function in __func__; a dataclass compiles the methods it adds elsewhere."""
    code = getattr(getattr(value, "__func__", value), "__code__", None)
    return code is not None and code.co_filename == path


def test_special_methods_are_pinned():
    found = {}
    for module in MODULES:
        mod = importlib.import_module(f"qpadic.{module}")
        for name in mod.__all__:
            cls = getattr(mod, name)
            if isinstance(cls, type):
                written = {attr for attr, value in vars(cls).items() if written_in(value, mod.__file__)}
                if dunders := {attr for attr in written if attr.startswith("__")}:
                    found[name] = dunders
    assert found == SPECIAL_METHODS
