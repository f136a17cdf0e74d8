"""Per-step cost of the TD loop, split by layer.

Usage, from the root of a checkout:

    python3 tools/td_step_costs.py [--mode discrete_only|mixed] [--rows N] [--steps N]
                                   [--repeats N] [--seed N]

Runs `qlearn.td_steps` on a random replay of --rows transitions, already in
normalized units and passed with `NormStats.identity()`, with batch 200 (the
paper's), BLAS on one thread. Each repeat runs --steps steps twice: once
untraced, for the whole step's cost, and once with timers wrapped around the
names `qlearn` calls through its module globals (`bellman_target`,
`forward_batch`, `backward_batch`, `rmsprop_step`, `td_step`), for the layer
costs. The gather is the traced `td_steps` time that no `td_step` call
covers: the replay draw, the one-table row gather `data[idx]`, the per-batch
`apply_norm` and the loop. Prints one JSON object of per-step medians over the repeats, in
microseconds, with the numpy/BLAS build and the Python version.
"""

from __future__ import annotations

import os

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
              "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_name] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from clvdqn import qlearn  # noqa: E402
from clvdqn.nn_core import init_mlp  # noqa: E402
from clvdqn.rfmi import NormStats, Transitions  # noqa: E402

LAYERS = ("gather", "bellman_target", "forward", "backward", "rmsprop", "td_step_rest")


def replay(rows: int, seed: int) -> Transitions:
    rng = np.random.default_rng(seed)
    return Transitions(np.column_stack([rng.normal(size=(rows, 5)), rng.integers(0, 12, rows),
                                        rng.normal(size=rows), rng.normal(size=(rows, 5)),
                                        rng.exponential(size=rows)]))


class Timers:
    """Wraps qlearn's module-global names; sums each one's seconds outside bellman_target."""

    NAMES = {"bellman_target": "bellman_target", "forward_batch": "forward",
             "backward_batch": "backward", "rmsprop_step": "rmsprop", "td_step": "td_step"}

    def __init__(self):
        self.seconds = dict.fromkeys(self.NAMES.values(), 0.0)
        self.inside_target = False

    @contextlib.contextmanager
    def installed(self):
        originals = {name: getattr(qlearn, name) for name in self.NAMES}
        for name, layer in self.NAMES.items():
            setattr(qlearn, name, self._timed(originals[name], layer))
        try:
            yield self
        finally:
            for name, fn in originals.items():
                setattr(qlearn, name, fn)

    def _timed(self, fn, layer):
        def timed(*args, **kwargs):
            if self.inside_target and layer != "bellman_target":
                return fn(*args, **kwargs)  # the target net's forward counts as the target
            self.inside_target = layer == "bellman_target"
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.seconds[layer] += time.perf_counter() - start
                if layer == "bellman_target":
                    self.inside_target = False
        return timed


def one_repeat(data, mode, steps, seed):
    cfg = qlearn.TrainConfig(mode=mode, batch_size=200, target_clone_period=10_000, seed=seed)
    net = init_mlp(qlearn.network_spec(mode), seed)
    learner = qlearn.Learner.fresh(net, np.random.default_rng(seed))
    stats = NormStats.identity()
    qlearn.td_steps(learner, data, 20, cfg, stats)  # warm-up
    start = time.perf_counter()
    qlearn.td_steps(learner, data, steps, cfg, stats)
    untraced = time.perf_counter() - start
    with Timers().installed() as timers:
        start = time.perf_counter()
        qlearn.td_steps(learner, data, steps, cfg, stats)
        traced = time.perf_counter() - start
    s = timers.seconds
    costs = {
        "td_step_untraced": untraced,
        "gather": traced - s["td_step"],
        "bellman_target": s["bellman_target"],
        "forward": s["forward"],
        "backward": s["backward"],
        "rmsprop": s["rmsprop"],
        "td_step_rest": s["td_step"] - sum(s[k] for k in LAYERS[1:5]),
    }
    return {k: v / steps * 1e6 for k, v in costs.items()}


def blas_build() -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        np.show_config()
    lines = [line.strip() for line in out.getvalue().splitlines()]
    return next((line for line in lines if line.startswith("openblas configuration")),
                next((line for line in lines if line.startswith("name:")), "unknown"))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--mode", choices=qlearn.MODES, default="discrete_only")
    parser.add_argument("--rows", type=int, default=30_000)
    parser.add_argument("--steps", type=int, default=300)
    parser.add_argument("--repeats", type=int, default=7)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    data = replay(args.rows, args.seed)
    runs = [one_repeat(data, args.mode, args.steps, args.seed + r)
            for r in range(args.repeats)]
    medians = {k: round(statistics.median(run[k] for run in runs), 1) for k in runs[0]}
    print(json.dumps({
        "mode": args.mode, "rows": args.rows, "batch_size": 200, "steps": args.steps,
        "repeats": args.repeats, "unit": "us per step, median over repeats",
        "per_step_us": medians,
        "numpy": np.__version__, "blas": blas_build(), "python": platform.python_version(),
    }, indent=2))


if __name__ == "__main__":
    main()
