"""Lazy package re-exports (PEP 562).

A package's ``__init__`` re-exports names from its submodules for the
library surface, but importing every submodule up front makes any deep
import pay for the whole package.  That matters most in a spawned
campaign worker: it imports :mod:`repro.engine.runner`, and without a
bytecode cache each module it pulls in is compiled from source first.
With :func:`lazy_exports` a re-exported name imports its submodule on
first access, so a worker loads only the modules its jobs use.
"""

import importlib


def lazy_exports(package: str, namespace: dict, exports: dict):
    """Return a package's ``(__getattr__, __dir__)`` for ``exports``.

    ``exports`` maps a relative module name to the names re-exported
    from it, like the ``from <module> import <names>`` lines it
    replaces; names listed under ``"."`` are submodules.  A name is
    imported on first access and then cached in ``namespace``.
    """
    where = {name: module for module, names in exports.items() for name in names}

    def __getattr__(name: str):
        module = where.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        if module == ".":
            value = importlib.import_module(f".{name}", package)
        else:
            value = getattr(importlib.import_module(module, package), name)
        namespace[name] = value
        return value

    def __dir__():
        return sorted(set(namespace) | set(where))

    return __getattr__, __dir__
