"""PEP 562 lazy re-exports for ``repro``'s package inits.

A package init calls :func:`attach` with a table of its submodules and
the public names each defines::

    __getattr__, __dir__, __all__ = attach(__name__, {
        "kernel": ["Simulator", "Call"],
        "monitor": ["Tally"],
    })

Importing the package then executes nothing but this table: the
submodule that defines a name is imported on first access to it, so a
process loads only the modules it runs (``import repro.service.client``
never loads NumPy or the engine). ``from pkg import Name``,
``import *`` (through ``__all__``), ``dir()`` and attribute access to
submodules (``pkg.submodule``, imported on first access) all behave as
they did with eager imports.
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable, Dict, List, Mapping, Sequence, Tuple

__all__ = ["attach"]


def attach(
    package: str, exports: Mapping[str, Sequence[str]]
) -> Tuple[Callable[[str], object], Callable[[], List[str]], List[str]]:
    """Return ``(__getattr__, __dir__, __all__)`` for ``package``.

    ``exports`` maps a submodule name (relative to ``package``) to the
    public names it defines; ``__all__`` lists them in table order. A
    resolved name is cached in the package namespace, so each costs one
    ``__getattr__`` call per process.
    """
    owner: Dict[str, str] = {
        name: module for module, names in exports.items() for name in names
    }
    public = list(owner)

    def __getattr__(name: str) -> object:
        module = owner.get(name)
        if module is not None:
            value = getattr(importlib.import_module(f".{module}", package), name)
            setattr(sys.modules[package], name, value)
            return value
        if not name.startswith("__"):
            # ``pkg.submodule`` before anything imported it: the import
            # system binds the submodule on the package itself.
            qualified = f"{package}.{name}"
            try:
                return importlib.import_module(qualified)
            except ModuleNotFoundError as exc:
                if exc.name != qualified:
                    raise
        raise AttributeError(f"module {package!r} has no attribute {name!r}")

    def __dir__() -> List[str]:
        return sorted(set(vars(sys.modules[package])) | set(public))

    return __getattr__, __dir__, public
