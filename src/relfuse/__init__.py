"""System time-to-failure estimation by fusing censored lifetime data
collected at component, subsystem, and system level through discrete
beta-Stacy processes.

The package re-exports the public names of its library modules: each
module's ``__all__`` is the one declaration of what it makes public.
"""

from . import bsp, dataio, errors, fusion, oracle, pipeline, rbd

__version__ = "0.1.0"

__all__ = []
for _module in (bsp, dataio, errors, fusion, oracle, pipeline, rbd):
    globals().update({name: getattr(_module, name) for name in _module.__all__})
    __all__ += _module.__all__
__all__.append("__version__")
del _module
