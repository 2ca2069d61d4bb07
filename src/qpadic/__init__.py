"""Exact p-adic symplectic lattices, Gaussian channels, and entropy ledgers.

The exact layer (padic, lattice, ledger, channels, adelic) works entirely
in rational arithmetic. The oracle module rebuilds the same objects as
finite complex matrices for numerical cross-checks, and the cli module
exposes the lot as a command-line tool.

The package republishes each exact module's ``__all__``, so a public name is
listed once, in the module that defines it.
"""

from . import adelic, channels, errors, lattice, ledger, padic
from .adelic import *
from .channels import *
from .errors import *
from .lattice import *
from .ledger import *
from .padic import *

__version__ = "0.1.0"

__all__ = sorted(
    name for module in (adelic, channels, errors, lattice, ledger, padic) for name in module.__all__
) + ["__version__"]
