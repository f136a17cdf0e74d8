"""Per-step cost of the TD loop, split by layer.

Usage, from the root of a checkout:

    python3 tools/td_step_costs.py [--mode discrete_only|mixed] [--rows N] [--steps N]
                                   [--repeats N] [--seed N] [--against ROOT]

Runs `qlearn.td_steps` on a random replay of --rows transitions, already in
normalized units and passed with `NormStats.identity()`, with batch 200 (the
paper's), BLAS on one thread. Each repeat runs --steps steps twice: once
untraced, for the whole step's cost, and once with timers wrapped around the
names `qlearn` calls through its module globals (`bellman_target`,
`forward_batch`, `backward_batch`, `rmsprop_step`, `td_step`), for the layer
costs. `bellman_target` is the Bellman target wherever it runs: inside
`td_step`, or in `td_steps` over a segment's distinct rows, amortized over the
steps. The gather is the traced `td_steps` time that neither `td_step` nor a
`bellman_target` call covers: the replay draws, their distinct rows, the row
gathers `data[idx]` of the steps' batches and of the target's blocks, their
`apply_norm` in place and the loop. So the layers sum to the traced step.

With --against ROOT, the package of the checkout at ROOT (a parent commit, say)
is loaded in this process under another name, and each repeat times both
packages on the same replay, in alternating order, so that no process or code
location effect tells the two apart. The output then holds ROOT's medians too,
and in how many repeats this checkout's untraced step was the faster.

Prints one JSON object of per-step medians over the repeats, in microseconds,
with the numpy/BLAS build and the Python version. Exits 1, and prints no
result, if a wrapped name records no call in a traced run: a step that no longer
calls it through `qlearn`'s globals would read 0 for that layer.
"""

from __future__ import annotations

import os

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
              "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_name] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import importlib.util  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

import clvdqn  # noqa: E402
from clvdqn import qlearn  # noqa: E402

LAYERS = ("gather", "bellman_target", "forward", "backward", "rmsprop", "td_step_rest")


def replay(rows: int, seed: int) -> np.ndarray:
    """The (rows, 13) table of a random replay: normal states, uniform actions."""
    rng = np.random.default_rng(seed)
    return np.column_stack([rng.normal(size=(rows, 5)), rng.integers(0, 12, rows),
                            rng.normal(size=rows), rng.normal(size=(rows, 5)),
                            rng.exponential(size=rows)])


def load_package(root, name: str):
    """The clvdqn package of the checkout at root, imported under name, beside this one."""
    src = Path(root).resolve() / "src" / "clvdqn"
    spec = importlib.util.spec_from_file_location(name, src / "__init__.py",
                                                  submodule_search_locations=[str(src)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return package


class Timers:
    """Wraps a qlearn module's global names; counts each one's calls and sums its seconds
    outside bellman_target, and the share of bellman_target's that falls inside td_step."""

    NAMES = {"bellman_target": "bellman_target", "forward_batch": "forward",
             "backward_batch": "backward", "rmsprop_step": "rmsprop", "td_step": "td_step"}

    def __init__(self, qlearn_module):
        self.qlearn = qlearn_module
        self.seconds = dict.fromkeys([*self.NAMES.values(), "target_in_step"], 0.0)
        self.calls = dict.fromkeys(self.NAMES, 0)
        self.inside_target = False
        self.inside_step = False

    @contextlib.contextmanager
    def installed(self):
        originals = {name: getattr(self.qlearn, name) for name in self.NAMES}
        for name in self.NAMES:
            setattr(self.qlearn, name, self._timed(originals[name], name))
        try:
            yield self
        finally:
            for name, fn in originals.items():
                setattr(self.qlearn, name, fn)

    def _timed(self, fn, name):
        layer = self.NAMES[name]

        def timed(*args, **kwargs):
            self.calls[name] += 1
            if self.inside_target and layer != "bellman_target":
                return fn(*args, **kwargs)  # the target net's forward counts as the target
            self.inside_target = layer == "bellman_target"
            self.inside_step |= layer == "td_step"
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                self.seconds[layer] += elapsed
                if layer == "bellman_target":
                    self.inside_target = False
                    if self.inside_step:
                        self.seconds["target_in_step"] += elapsed
                self.inside_step &= layer != "td_step"
        return timed


def one_repeat(package, table, mode, steps, seed):
    """Per-step costs, in us, of one repeat of package's td_steps on a copy of table."""
    qlearn_module, nn_core, rfmi = (importlib.import_module(f"{package.__name__}.{name}")
                                    for name in ("qlearn", "nn_core", "rfmi"))
    data = rfmi.Transitions(table.copy())
    cfg = qlearn_module.TrainConfig(mode=mode, batch_size=200, target_clone_period=10_000,
                                    seed=seed)
    net = nn_core.init_mlp(qlearn_module.network_spec(mode), seed)
    learner = qlearn_module.Learner.fresh(net, np.random.default_rng(seed))
    stats = rfmi.NormStats.identity()
    qlearn_module.td_steps(learner, data, 20, cfg, stats)  # warm-up
    start = time.perf_counter()
    qlearn_module.td_steps(learner, data, steps, cfg, stats)
    untraced = time.perf_counter() - start
    with Timers(qlearn_module).installed() as timers:
        start = time.perf_counter()
        qlearn_module.td_steps(learner, data, steps, cfg, stats)
        traced = time.perf_counter() - start
    uncalled = [name for name, calls in timers.calls.items() if not calls]
    if uncalled:
        sys.exit(f"td_step_costs: the traced run never called {package.__name__}.qlearn."
                 f"{', qlearn.'.join(uncalled)}; its layer cost would read 0")
    s = timers.seconds
    costs = {
        "td_step_untraced": untraced,
        "gather": traced - s["td_step"] - (s["bellman_target"] - s["target_in_step"]),
        "bellman_target": s["bellman_target"],
        "forward": s["forward"],
        "backward": s["backward"],
        "rmsprop": s["rmsprop"],
        "td_step_rest": s["td_step"] - s["target_in_step"] - sum(s[k] for k in LAYERS[2:5]),
    }
    return {k: v / steps * 1e6 for k, v in costs.items()}


def medians(runs):
    return {k: round(statistics.median(run[k] for run in runs), 1) for k in runs[0]}


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
    parser.add_argument("--against", metavar="ROOT",
                        help="also time the package of the checkout at ROOT, alternating")
    args = parser.parse_args(argv)
    table = replay(args.rows, args.seed)
    other = args.against and load_package(args.against, "clvdqn_against")
    runs, other_runs = [], []
    for r in range(args.repeats):
        order = [(clvdqn, runs), (other, other_runs)] if other else [(clvdqn, runs)]
        for package, into in order[::-1] if r % 2 else order:
            into.append(one_repeat(package, table, args.mode, args.steps, args.seed + r))
    result = {
        "mode": args.mode, "rows": args.rows, "batch_size": 200, "steps": args.steps,
        "repeats": args.repeats, "unit": "us per step, median over repeats",
        "per_step_us": medians(runs),
    }
    if other:
        faster = sum(a["td_step_untraced"] < b["td_step_untraced"]
                     for a, b in zip(runs, other_runs))
        result["against"] = {"root": str(Path(args.against).resolve()),
                             "per_step_us": medians(other_runs),
                             "faster_in": f"{faster} of {args.repeats} repeats"}
    result.update(numpy=np.__version__, blas=blas_build(), python=platform.python_version())
    print(json.dumps(result, indent=2))


if __name__ == "__main__":
    main()
