"""A fixed CPU-bound loop, timed between ops to track the host's speed.

On a VM shared with other tenants the same CPU-bound work runs at speeds
that differ by half or more, in stretches of seconds to minutes. The ops
spend their time in Python loops over numpy scalars and in many numpy calls
on tiny arrays (``einsum``, ``pinv``, ``solve``), and this loop does both,
so a slow stretch slows it and the ops alike. ``timed_run`` runs it after
every launch and scales each launch's wall time by ``REF_S`` over the mean
of the two loop times that bracket it: the op's seconds at the host speed
where this loop takes ``REF_S``. A change to the program moves that figure
fully; a change of host speed moves it far less than the wall time.

The loop's work and ``REF_S`` are fixed. Changing either changes the scale
of every time metric, so do not change them between measurements that are
compared.
"""

import time

import numpy as np

REF_S = 0.1
SCALAR_ITERATIONS = 25_000
ARRAY_ITERATIONS = 800
_A = np.linspace(0.1, 0.9, 9).reshape(3, 3)
_R = np.linspace(0.5, 1.5, 27).reshape(3, 3, 3) + np.eye(3)
_NU = np.array([0.2, 0.3, 0.5])
_EYE = np.eye(3)


def calibrate() -> float:
    """Wall seconds of the fixed loop."""
    start = time.perf_counter()
    total = 0.0
    for i in range(SCALAR_ITERATIONS):
        p = _A[i % 3, (i + 1) % 3]
        for j in range(3):
            p *= _A[j, i % 3] * 0.5
        total += p
    acc = np.zeros(3)
    for i in range(ARRAY_ITERATIONS):
        G = np.linalg.pinv(np.einsum("x,xij->ij", _NU, _R))
        M = np.einsum("x,xi,xj->ij", _NU, _A, _A)
        acc += np.linalg.solve(_EYE + G @ M, _A[i % 3])
    return time.perf_counter() - start
