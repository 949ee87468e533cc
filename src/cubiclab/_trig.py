"""Fast unit-circle evaluation.

This environment's libm makes np.cos and complex exp several times slower than
np.sin, so phases are reduced mod 1 and everything routes through sin.
"""

from __future__ import annotations

import numpy as np

_HALF_PI = np.pi / 2
_TWO_PI = 2 * np.pi


def cis(phase):
    """e(phase) = exp(2 pi i phase)."""
    y = np.asarray(phase, dtype=float)
    y = y - np.rint(y)
    return np.sin(_TWO_PI * y + _HALF_PI) + 1j * np.sin(_TWO_PI * y)


def cos_e(phase):
    """Re e(phase) = cos(2 pi phase): the real part of ``cis``, bit for bit,
    from its one sin."""
    y = np.asarray(phase, dtype=float)
    y = y - np.rint(y)
    return np.sin(_TWO_PI * y + _HALF_PI)
