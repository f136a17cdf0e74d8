"""Fixed reference work that measures how fast the machine runs right now.

Other tenants of a shared host slow every process on it by a factor that
drifts over seconds to minutes. The benchmark times this kernel in the same
process as the CLI calls, just before and after them, and reports program
times in units of the kernel's time, which cancels that drift. The kernel
mixes what the program spends its time on: small float matrix products,
interpreted loops over dicts and lists, and number formatting and parsing. It
depends only on numpy, never on clvdqn, so a change to the package cannot
change it.
"""

import time

import numpy as np

_RNG = np.random.default_rng(0)
_A = _RNG.standard_normal((200, 64))
_W = _RNG.standard_normal((64, 64))
_TEXT_VALUES = _A.ravel()[:1000]


def kernel(rounds=1):
    """Runs the fixed work `rounds` times; returns its seconds."""
    start = time.perf_counter()
    total = 0.0
    for _ in range(rounds):
        for _ in range(100):
            total += float(np.maximum(_A @ _W, 0.0).sum())
        counts = {}
        for i in range(10000):
            counts[i % 977] = counts.get(i % 977, 0) + i
        text = ",".join(f"{x:.6g}" for x in _TEXT_VALUES)
        total += sum(float(x) for x in text.split(","))
    if not np.isfinite(total):  # keeps the work from being optimized away
        raise ArithmeticError("reference kernel produced a non-finite value")
    return time.perf_counter() - start
