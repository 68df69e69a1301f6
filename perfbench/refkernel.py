"""Fixed reference kernel used to express wall times in host-normalised seconds.

The kernel calls no itkit code.  It mixes the four kinds of work the
workloads spend their time on, in about equal shares: interpreter work
(float arithmetic, string formatting), numpy calls on 3-element arrays,
numpy transforms on a cache-sized 32,768-point complex array, and numpy
arithmetic streaming through 16 MB arrays, larger than a core's L2 cache.  Its input is fixed, so on an
unloaded reference host it takes about ``NOMINAL_S`` seconds; a host that
runs it slower is taken to run the workloads slower by the same factor.
"""

from __future__ import annotations

import time

import numpy as np

NOMINAL_S = 0.100
_N_FFT = 1 << 15
_N_STREAM = 1 << 21


def _interpreter_part(n: int) -> float:
    acc = 0.0
    parts = []
    for i in range(n):
        x = (i * 0.618033988749895) % 1.0
        acc += x * x - 0.5 * x
        if i % 8 == 0:
            parts.append(f"{x:.17g}")
    return acc + len(",".join(parts))


def _small_array_part(n: int) -> float:
    v = np.array([0.3, 0.4, 0.5])
    acc = 0.0
    for i in range(n):
        w = np.atleast_1d(np.asarray(v * (1.0 + 1e-9 * i), dtype=float))
        acc += float(np.dot(w, v)) - float(np.sum(w * w))
    return acc


def _transform_part(n_pairs: int) -> float:
    x = np.exp(1j * np.linspace(0.0, 50.0, _N_FFT))
    for _ in range(n_pairs):
        x = np.fft.ifft(np.fft.fft(x) * 1.0000001)
    return float(np.abs(x).sum())


def _stream_part(n_passes: int) -> float:
    a = np.linspace(0.0, 1.0, _N_STREAM)
    b = np.ones(_N_STREAM)
    for _ in range(n_passes):
        a *= 0.9999999
        a += b
    return float(a[-1])


_PARTS = ((_interpreter_part, 50_000), (_small_array_part, 2_500), (_transform_part, 14), (_stream_part, 5))


def run_reference(parts: list | None = None) -> float:
    """Run the kernel once and return its wall time in seconds.

    With ``parts``, the seconds of each of the four parts are appended to it.
    """
    t0 = time.perf_counter()
    t = t0
    for fn, n in _PARTS:
        fn(n)
        if parts is not None:
            now = time.perf_counter()
            parts.append(now - t)
            t = now
    return time.perf_counter() - t0
