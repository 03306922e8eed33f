"""Locate the checkout and import eqcube from its `src/` tree only."""

from __future__ import annotations

import importlib
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"


class MissingSource(RuntimeError):
    """The checkout has no eqcube source tree to benchmark."""


def import_eqcube():
    """Import eqcube from SRC, refusing any other copy on the path."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    try:
        eqcube = importlib.import_module("eqcube")
    except ImportError as exc:
        raise MissingSource(f"cannot import eqcube from {SRC}: {exc}") from exc
    origin = Path(eqcube.__file__).resolve()
    if SRC not in origin.parents:
        raise MissingSource(f"eqcube was imported from {origin}, not {SRC}")
    return eqcube
