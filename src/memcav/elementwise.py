"""Arithmetic that gives the same bits on a float and on every array element.

The jump budget runs through one set of formulas, on Python floats (one
parameter set) and on numpy arrays that broadcast together (a sweep grid).
Products, quotients and square roots round the same either way.  numpy's
integer power does not: builds that vectorise pow (AVX-512 hosts) differ
in the last bit from Python's float ``**``, which calls the C library's
pow, for about 5 % of doubles cubed.  A grid's fields are therefore
LibmArrays, whose ``**`` goes through Python floats.
"""

from __future__ import annotations

import math
from itertools import repeat

import numpy as np


def sqrt(x):
    """Square root of a float, or of each element of an array."""
    return np.sqrt(x) if isinstance(x, np.ndarray) else math.sqrt(x)


class LibmArray(np.ndarray):
    """An ndarray whose ``x**k`` rounds as a Python float's does.

    Every other operation is numpy's own, and results that involve a
    LibmArray are LibmArrays too (np.where's are not), so a formula written
    for floats runs unchanged on a grid.  Where a float's power would raise
    OverflowError, the element becomes inf, which the jump budget's
    float-range rule then reports as a failed point.
    """

    def __pow__(self, k):
        flat = self.ravel().tolist()
        out = np.fromiter(map(_pow_or_inf, flat, repeat(k)), float, len(flat))
        return out.reshape(self.shape).view(LibmArray)


def _pow_or_inf(v: float, k) -> float:
    try:
        return v**k
    except OverflowError:
        return math.inf
