"""Process set-up shared by the benchmark and its set-up probe.

Importing this module pins BLAS and OpenMP to one thread (it must come
before numpy is imported).  load_package() puts the checkout's ``src``
directory first on the import path, so the package measured is the one
built from this checkout's sources and never an installed copy.
"""

from __future__ import annotations

import importlib
import os
import sys
from pathlib import Path
from types import SimpleNamespace

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


class MissingSources(Exception):
    """The checkout holds no mm3nlos sources to measure."""


def load_package() -> SimpleNamespace:
    """The package modules, imported from this checkout's sources."""
    if not (SRC / "mm3nlos" / "__init__.py").is_file():
        raise MissingSources(f"no mm3nlos sources under {SRC}")
    sys.path.insert(0, str(SRC))
    modules = {name: importlib.import_module(f"mm3nlos.{name}") for name in ("geom", "channel", "measure", "sim", "cli")}
    origin = Path(modules["cli"].__file__).resolve()
    if SRC not in origin.parents:
        raise MissingSources(f"mm3nlos was imported from {origin}, not from {SRC}")
    return SimpleNamespace(**modules)
