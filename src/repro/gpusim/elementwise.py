"""Selection, minimum and maximum for expressions written once for one
kernel's Python scalars and for a static space's numpy columns.

Each helper calls numpy when an operand is a column and stays in Python
otherwise, so the occupancy rule, the wave geometry and the wave
constants give the event loop Python numbers (on numpy scalars each of
its steps costs more) and give the latency bound columns, bit for bit
the same.
"""

from __future__ import annotations

import numpy as np

__all__ = ["maximum", "minimum", "where"]

#: A column is a plain ndarray (numpy scalars are not); ``type(x) is``
#: costs less than ``isinstance`` on every scalar call.
_COLUMN = np.ndarray


def where(cond, a, b):
    """``np.where(cond, a, b)`` on columns, ``a if cond else b`` on scalars."""
    if type(cond) is _COLUMN or type(a) is _COLUMN or type(b) is _COLUMN:
        return np.where(cond, a, b)
    return a if cond else b


def minimum(a, b):
    """``np.minimum`` on columns; on scalars CPython's ``min(a, b)``
    exactly: ``a`` unless ``b`` compares less."""
    if type(a) is _COLUMN or type(b) is _COLUMN:
        return np.minimum(a, b)
    return b if b < a else a


def maximum(a, b):
    """``np.maximum`` on columns; on scalars CPython's ``max(a, b)``
    exactly: ``a`` unless ``b`` compares greater."""
    if type(a) is _COLUMN or type(b) is _COLUMN:
        return np.maximum(a, b)
    return b if b > a else a
