"""Exact closed-form determinants of generalized binary band Toeplitz
matrices, brute-force oracles to check them with, and even/odd censuses
of the restricted-permutation classes they count.

The namespace is lazy (PEP 562): a public name loads its owning module,
the one whose ``__all__`` lists it, on first use, so a caller pays only
for the modules it reaches."""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# the modules whose names the package re-exports, each after the ones it
# imports, so looking a name up loads nothing its owner would not
_MODULES = ("errors", "rings", "oracle", "band", "permcount")


def __getattr__(name: str):
    if name in _MODULES:
        return _import_module(f".{name}", __name__)
    if name == "__all__":
        value = [*_MODULES, *(n for m in _MODULES for n in __getattr__(m).__all__)]
    else:
        # private and dunder names are never re-exported: they load nothing
        modules = () if name.startswith("_") else map(__getattr__, _MODULES)
        owner = next((m for m in modules if name in m.__all__), None)
        if owner is None:
            raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
        value = getattr(owner, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__getattr__("__all__")})
