"""Exact p-adic symplectic lattices, Gaussian channels, and entropy ledgers.

The exact layer (padic, lattice, ledger, channels, adelic) works entirely
in rational arithmetic. The oracle module rebuilds the same objects as
finite complex matrices for numerical cross-checks, and the cli module
exposes the lot as a command-line tool.

The package republishes each exact module's ``__all__``, so a public name is
listed once, in the module that defines it, and is imported on first use.
"""

import importlib

__version__ = "0.1.0"
_EXACT = ("errors", "padic", "lattice", "ledger", "channels", "adelic")  # each after the modules it imports


def __getattr__(name: str):
    # PEP 562; no name is copied into the package, so a lookup reads the defining module's binding
    if name in (*_EXACT, "cli", "oracle"):  # `from qpadic import cli` asks here first: import that module alone
        return importlib.import_module(f"{__name__}.{name}")
    modules = (importlib.import_module(f"{__name__}.{module}") for module in _EXACT)  # imported in turn
    if name == "__all__":
        return sorted(public for module in modules for public in module.__all__) + ["__version__"]
    for module in modules:
        if name in module.__all__:
            return getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*__getattr__("__all__"), *globals()})  # __all__ first: it imports the modules it lists
