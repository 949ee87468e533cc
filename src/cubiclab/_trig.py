"""Unit-circle evaluation through one sin.

Phases are reduced mod 1 and cos is taken as a sin shifted by pi/2, so
``cis`` and ``cos_e`` give the same bits for the real part.  The route is
not faster than numpy's own: on an Intel Xeon, per 10^6 values, ``cos_e``
took 27 ms against 22 ms for np.cos of the same reduced phase, and ``cis``
52 ms against 42 ms for np.exp.  It stays because the tests pin the bits of
the values computed through it (``tests/walk_pin.json``).
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
