"""Compiled scipy modules loaded from their files, without their packages.

``from scipy.optimize._highspy import _core`` runs ``scipy/optimize/__init__.py``,
which imports scipy.linalg, scipy.sparse and scipy.special: most of the
package's import time.  ``extension`` loads the one compiled module from its
file instead and registers it under its real name.  It finds scipy's folder
with ``importlib.util.find_spec``, so not even ``scipy/__init__.py`` runs.

A later ``import scipy.optimize`` reuses the registered module object, but
its parent package does not get the module as an attribute: after it,
``scipy.optimize._highspy._core`` is an ``AttributeError``, while
``from scipy.optimize._highspy import _core`` still works.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys

_SCIPY = importlib.util.find_spec("scipy").submodule_search_locations[0]


def extension(name: str):
    """The compiled module ``name`` (a dotted name inside scipy), loaded once."""
    if name in sys.modules:
        return sys.modules[name]
    parts = name.split(".")
    folder = os.path.join(_SCIPY, *parts[1:-1])
    paths = [p for p in (os.path.join(folder, parts[-1] + suffix)
                         for suffix in importlib.machinery.EXTENSION_SUFFIXES)
             if os.path.isfile(p)]
    if len(paths) != 1:
        raise ImportError(f"expected one compiled module {parts[-1]!r} in {folder}, "
                          f"found {len(paths)}", name=name)
    spec = importlib.util.spec_from_file_location(name, paths[0])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    try:
        spec.loader.exec_module(module)
    except BaseException:
        del sys.modules[name]
        raise
    return module
