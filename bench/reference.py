"""Reference probe: a fixed piece of work, owned by the benchmark, whose time
tracks the speed of the machine at the moment it runs.

The host this benchmark was defined on is shared.  Its speed changes by up to
1.8x over spans of tens of seconds, in CPU time as much as in wall time, so
raw solve times of the same code on the same inputs spread more across runs
than any useful bound.  The run therefore times this probe next to the
solves and reports each solve time scaled to the probe's reference speed:

    scaled = raw * REFERENCE_S / (probe time around that solve)

The library's hot paths are interpreter-bound: Horner evaluation on 0-d
numpy arrays, eigenvalues of small companion matrices, complex arithmetic in
Python.  The probe does the same kinds of work without calling royalgamma,
so a change to the library cannot change the probe, and a library that gets
faster or slower shows in the scaled times as it would in raw ones.
"""

from __future__ import annotations

import time

import numpy as np

# median probe time on the machine in README.md while it ran at full speed
REFERENCE_S = 0.027

_RNG = np.random.default_rng(20150509)
_COEFFS = _RNG.standard_normal(9) + 1j * _RNG.standard_normal(9)
_MATRICES = [_RNG.standard_normal((n, n)) + 0j for n in (3, 5, 8)]
_POINTS = [complex(z) for z in np.exp(2j * np.pi * np.arange(16) / 16)]
_ROUNDS = 120


def probe() -> float:
    """Run the reference work once; return its wall time in seconds."""
    start = time.perf_counter()
    acc = 0j
    for _ in range(_ROUNDS):
        for z in _POINTS:
            zz = np.asarray(z, dtype=complex)
            out = np.zeros_like(zz)
            for c in _COEFFS[::-1]:
                out = out * zz + c
            acc += complex(out)
        for matrix in _MATRICES:
            acc += complex(np.linalg.eigvals(matrix).sum())
    if acc != acc:  # keeps the work from being skipped; never true
        raise ArithmeticError("reference probe produced NaN")
    return time.perf_counter() - start
