"""Float summation that matches the interpreter's built-in ``sum``.

The batched (array) code paths must round exactly like the scalar code
they replace.  Where the scalar code totals Python floats with the
built-in ``sum``, the array code sums column by column through
:func:`builtin_sum`, which repeats the interpreter's float loop row-wise.
"""

from __future__ import annotations

import sys
from typing import Sequence

import numpy as np

#: Whether the built-in ``sum`` compensates float additions (Neumaier's
#: algorithm, CPython 3.12+) rather than adding left to right.
COMPENSATED_SUM = sys.version_info >= (3, 12)


def builtin_sum(columns: Sequence[np.ndarray], compensated: bool = COMPENSATED_SUM) -> np.ndarray:
    """Row-wise ``sum([columns[0][r], columns[1][r], ...])`` over Python floats.

    The built-in adds left to right from ``0``; from CPython 3.12 it also
    carries a Neumaier compensation term, added at the end when it is
    non-zero and finite.  A trailing ``0.0`` column changes neither total,
    so rows with fewer terms can be padded with zeros.
    """
    total = 0.0 + columns[0]
    if not compensated:
        for column in columns[1:]:
            total = total + column
        return total
    compensation = np.zeros(total.shape)
    for column in columns[1:]:
        step = total + column
        compensation = compensation + np.where(
            np.abs(total) >= np.abs(column),
            (total - step) + column,
            (column - step) + total,
        )
        total = step
    return np.where(
        (compensation != 0.0) & np.isfinite(compensation), total + compensation, total
    )
