"""Unit-circle evaluation through one sin.

Phases are reduced mod 1 and cos is taken as a sin shifted by pi/2, so
``cis`` and ``cos_e`` give the same bits for the real part.  ``cis`` writes
its two sines straight into the real and imaginary halves of one complex
output, and ``cos_e`` reduces, scales and takes its sin in one buffer.  On a
shared 2-core Intel Xeon (fastest of 7 repeats), ``cis`` takes 0.9-1.2 ms
per 30,000 values (a ``gl_phases`` block) and 7.9-8.5 ms per 250,000,
against 1.2-1.5 and 10.9-12 ms for np.exp(1j * _turns(x)): it stays because
it is faster.  ``cos_e`` stays because the tests pin the bits of the
values computed through it (the ``g-*`` entries of
``tests/walk_pin.json``).  The two-temporary expressions
in ``tests/oracles.py`` are checked to give the same bits.
"""

from __future__ import annotations

import numpy as np

_HALF_PI = np.pi / 2
_TWO_PI = 2 * np.pi


def _turns(phase) -> np.ndarray:
    """2 pi (phase - rint(phase)) as a new float array, 0-d for a scalar."""
    y = np.asarray(phase, dtype=float)
    out = np.rint(y, out=np.empty(y.shape))
    np.subtract(y, out, out=out)
    out *= _TWO_PI
    return out


def cis(phase):
    """e(phase) = exp(2 pi i phase); a scalar or 0-d phase gives a scalar."""
    y = _turns(phase)
    out = np.empty(y.shape, dtype=complex)
    np.sin(y, out=out.imag)
    y += _HALF_PI
    np.sin(y, out=out.real)
    return out if out.ndim else out[()]


def cos_e(phase):
    """Re e(phase) = cos(2 pi phase): the real part of ``cis``, bit for bit,
    from its one sin."""
    y = _turns(phase)
    y += _HALF_PI
    np.sin(y, out=y)
    return y if y.ndim else y[()]
