"""Seeded input generator for the benchmark.

Plain numpy only: it must not import clvdqn, so that a change to the
package's state code or simulator cannot change the bytes the benchmark
feeds it. The same seed always gives the same files.
"""

from __future__ import annotations

import hashlib

import numpy as np

N_ACTIONS = 12  # action 0 is "no contact"
CONTACT_RATE = 0.35
ACONT_RANGE = (0.0, 30.0)  # raw continuous attribute, e.g. discount depth in %


def timelines_csv(rng, customers: int, periods: int, with_acont: bool) -> str:
    """Timeline CSV text (customer_id,period,amount,action,acont) for a logged population.

    Each customer has a fixed donation propensity; a contact raises it for that
    period. An empty action field means no contact, and acont is written only
    for contacted periods when `with_acont` is set.
    """
    shape = (customers, periods)
    contacted = rng.random(shape) < CONTACT_RATE
    actions = np.where(contacted, rng.integers(1, N_ACTIONS, size=shape), 0)
    propensity = rng.uniform(0.03, 0.25, size=customers)[:, None]
    donated = rng.random(shape) < propensity + 0.05 * contacted
    amounts = np.where(donated, rng.lognormal(2.5, 0.6, size=shape), 0.0)
    aconts = rng.uniform(*ACONT_RANGE, size=shape)
    lines = ["customer_id,period,amount,action,acont"]
    for c in range(customers):
        cid = f"c{c:06d}"
        for p in range(periods):
            a = int(actions[c, p])
            action = str(a) if a else ""
            acont = f"{aconts[c, p]:.1f}" if a and with_acont else ""
            lines.append(f"{cid},{p},{amounts[c, p]:.2f},{action},{acont}")
    return "\n".join(lines) + "\n"


def clv_states(rng, count: int, periods: int) -> list:
    """Raw RFM-I states `r,f,m,ir,if` for CLV queries, within the range the logs cover."""
    out = []
    for _ in range(count):
        r = int(rng.integers(1, periods + 1))
        f = int(rng.integers(0, periods // 2 + 1))
        m = float(rng.uniform(0.0, 40.0)) if f else 0.0
        ir = int(rng.integers(1, periods + 1))
        i_f = int(rng.integers(0, periods // 2 + 1))
        out.append(f"{r},{f},{m:.2f},{ir},{i_f}")
    return out


def write(path, text: str) -> str:
    """Writes `text` to `path` and returns the SHA-256 of the bytes written."""
    data = text.encode("utf-8")
    with open(path, "wb") as f:
        f.write(data)
    return hashlib.sha256(data).hexdigest()
