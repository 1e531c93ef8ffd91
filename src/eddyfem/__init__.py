"""Moving-conductor magnetic induction on structured grids.

Solvers for the 1D and 2D transported vector-potential problem with either
the standard Galerkin input or the element-averaged input that suppresses
the node-to-node instability at high Peclet number, plus the exact Z-domain
machinery (transfer functions, pole-zero certificates, factorization
identities) and the closed-form 1D ground truth used to validate it all.
Import the submodules (eddyfem.fem1d, eddyfem.cli, ...) for their names.
"""

__version__ = "0.1.0"

_SUBMODULES = ("cli", "core", "fem1d", "fem2d", "oracle", "zpoly", "ztransfer")


def __getattr__(name):
    """Load a submodule on its first read as a package attribute, so that
    eddyfem.ztransfer resolves even where only cli.verify imports it."""
    if name in _SUBMODULES:
        import importlib
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
