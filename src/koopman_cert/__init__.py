"""EDMD Koopman-operator estimation with exact variance formulas and
certified finite-data error bounds, verified on analytically solvable
systems.

Submodules load on first use: `import koopman_cert` loads only `kernels`,
and `koopman_cert.studies` (or `from koopman_cert import studies`) imports
`studies` when it is first read, so that a CLI process loads only the
modules its command runs.
"""

import importlib

from .kernels import backend_name

__version__ = "0.1.0"

_SUBMODULES = ("bounds", "dictionaries", "edmd", "galerkin", "spectral", "studies",
               "systems", "variance")

__all__ = [*_SUBMODULES, "backend_name", "__version__"]


def __getattr__(name):
    # called only for names not yet set: importing a submodule sets it
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
