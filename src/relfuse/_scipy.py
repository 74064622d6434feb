"""scipy's compiled extensions, loaded without running their subpackage's ``__init__``.

``from scipy.special import betaincinv`` runs ``scipy/special/__init__.py``,
whose array-API backends import numpy.random, testing and f2py: about a
third of a second and 22 MB for a ufunc that lives in one extension, and
``scipy.integrate`` pulls in scipy.optimize, sparse, linalg and special for
its QUADPACK routines.  Here each extension is found in its subpackage's
directory, executed alone and registered under its full name, so a later
``import scipy.special`` or ``import scipy.integrate`` reuses it.  Code that
needs the ``scipy.integrate`` package itself gets it from ``integrate()``.
"""

from __future__ import annotations

import importlib
import importlib.machinery
import os
import sys
from types import ModuleType

# The per-module lock an import statement takes, and the import system's own
# load under it: registered with ``__spec__._initializing`` set, so a
# concurrent ``import scipy.special`` waits for a module loaded here to finish
# running, and unregistered again if running it fails.
from importlib._bootstrap import _load_unlocked, _ModuleLockManager

# ``scipy.special._ufuncs`` imports these at its start; loaded alone, it
# imports the ``scipy.special`` package to get them and fails partway.
_SPECIAL_UFUNCS = ("_ufuncs_cxx", "_ellip_harm_2", "_special_ufuncs", "_gufuncs", "_ufuncs")


def _finder(subpackage: str) -> importlib.machinery.FileFinder:
    """A finder for the compiled extensions in scipy's ``subpackage`` directory."""
    import scipy

    return importlib.machinery.FileFinder(
        os.path.join(scipy.__path__[0], subpackage),
        (importlib.machinery.ExtensionFileLoader, importlib.machinery.EXTENSION_SUFFIXES),
    )


def _load(subpackage: str, names: tuple[str, ...]) -> ModuleType:
    """The module ``scipy.<subpackage>.<names[-1]>``, its extensions loaded in turn.

    Each name is loaded under its import lock, unless it is in
    ``sys.modules`` by then.  At the first name that cannot be found, or
    whose execution raises ``ImportError``, the loading stops and the last
    module is imported through its package, which runs the subpackage
    ``__init__``: a scipy whose extensions are named or ordered otherwise
    still gets its own import.
    """
    target = f"scipy.{subpackage}.{names[-1]}"
    if target not in sys.modules:
        finder = _finder(subpackage)
        for name in names:
            fullname = f"scipy.{subpackage}.{name}"
            with _ModuleLockManager(fullname):
                if fullname in sys.modules:
                    continue
                spec = finder.find_spec(fullname)
                if spec is None:
                    break
                try:
                    _load_unlocked(spec)
                except ImportError:
                    break
    return importlib.import_module(target)


def special_ufuncs() -> ModuleType:
    """``scipy.special._ufuncs``: ``betaincinv``, ``betainc`` and the other special ufuncs."""
    return _load("special", _SPECIAL_UFUNCS)


def quadpack() -> ModuleType:
    """``scipy.integrate._quadpack``: the compiled QUADPACK routines behind ``quad``."""
    return _load("integrate", ("_quadpack",))


def integrate() -> ModuleType:
    """The ``scipy.integrate`` package, imported under the import lock on first use."""
    return importlib.import_module("scipy.integrate")
