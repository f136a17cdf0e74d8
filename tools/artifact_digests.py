"""SHA-256 of every file the CLI writes, for byte-identity checks.

Usage, from the root of a checkout:

    python3 tools/artifact_digests.py > digests.json

In a temporary directory, and in discrete and in mixed mode, it generates a
seeded timeline CSV and runs every subcommand on it: build-transitions, train, evaluate (text and CSV report),
clv, curves (1-D, and 2-D with a reference) and simulate. Prints one JSON
object that maps "<mode>/<file>" to the SHA-256 of each file written. BLAS
runs on one thread, and nothing is written into the checkout: compare two
runs to see that reruns are byte-identical, or a run at two commits to see
which outputs a change moves.
"""

from __future__ import annotations

import os

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
              "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_name] = "1"

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

sys.dont_write_bytecode = True  # no __pycache__ in the checkout
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from clvdqn.cli import main  # noqa: E402

# Bounds whose raw aconts round to the logged ones, so a mixed evaluate has a matched group.
TRAIN_CONFIG = "bounds_lo=-1.0\nbounds_hi=1.0\n"
SIM_CONFIG = "population=40\nepisodes=25\ntrain_every=5\nsteps_per_burst=20\nbatch_size=50\n"


def write_timelines(path, mixed, customers=60, periods=20, seed=0):
    """A seeded timeline CSV; acted rows get an acont of 0, 1 or 2 in mixed mode."""
    rng = np.random.default_rng(seed)
    lines = ["customer_id,period,amount,action,acont"]
    for c in range(customers):
        for p in range(periods):
            action = int(rng.integers(12))
            amount = round(float(rng.uniform(0, 30)), 2) if rng.random() < 0.3 else 0.0
            acont = float(rng.integers(0, 3)) if mixed and action else 0.0
            lines.append(f"c{c},{p},{amount},{action},{acont}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def run(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        code = main([str(a) for a in argv])
    if code != 0:
        raise SystemExit(f"exit {code}: clvdqn {' '.join(map(str, argv))}")


def mode_artifacts(work: Path, mode: str) -> list:
    """Run every subcommand in one mode under work; the paths of the files written."""
    timelines, transitions = work / "timelines.csv", work / "transitions.csv"
    ckpt, sim_ckpt = work / "model.ckpt", work / "sim.ckpt"
    train_cfg, sim_cfg = work / "train.cfg", work / "sim.cfg"
    write_timelines(timelines, mixed=mode == "mixed")
    train_cfg.write_text(TRAIN_CONFIG, encoding="utf-8")
    sim_cfg.write_text(SIM_CONFIG, encoding="utf-8")
    run(["build-transitions", timelines, transitions])
    run(["train", transitions, "--checkpoint", ckpt, "--history", work / "history.csv",
         "--config", train_cfg, "--epochs", 3, "--batch-size", 50, "--mode", mode, "--seed", 1])
    run(["evaluate", transitions, ckpt, "--no-timestamp", "--seed", 1,
         "--report-out", work / "report.txt", "--csv-out", work / "report.csv"])
    run(["clv", ckpt, "--state", "3,2,15,1,4", "--out", work / "clv.csv"])
    run(["curves", ckpt, "--dims", "recency", "--range", "0:10", "--resolution", 5,
         "--out", work / "curves_1d.csv"])
    # 40 x 40 = 1,600 grid rows: past 2 * SCORE_ROWS, so net_qs scores them in blocks
    run(["curves", ckpt, "--dims", "recency,frequency", "--range", "0:10,0:5",
         "--resolution", 40, "--reference", "monetary=12.5,i_frequency=3",
         "--out", work / "curves_2d.csv"])
    run(["simulate", "--config", sim_cfg, "--mode", mode, "--seed", 1,
         "--history", work / "sim.csv", "--checkpoint", sim_ckpt])
    inputs = {timelines, train_cfg, sim_cfg}
    return sorted(p for p in work.iterdir() if p not in inputs)


def main_digests() -> dict:
    digests = {}
    with tempfile.TemporaryDirectory() as tmp:
        for mode in ("discrete", "mixed"):
            work = Path(tmp) / mode
            work.mkdir()
            for path in mode_artifacts(work, mode):
                digests[f"{mode}/{path.name}"] = hashlib.sha256(path.read_bytes()).hexdigest()
    return digests


if __name__ == "__main__":
    print(json.dumps(main_digests(), indent=1, sort_keys=True))
