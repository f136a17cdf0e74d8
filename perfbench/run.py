"""Benchmark of the clvdqn command line.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

It generates the workload's inputs from the seed, then runs passes of the
workload, each in a fresh Python subprocess with BLAS threads pinned to one,
until S seconds are spent (at least a few passes). A pass drives the CLI
in-process through `clvdqn.cli.main(argv)`. Every pass is checked for
correctness. With --trace 0 the passes are untraced and the run reports the
end-to-end metrics; with --trace 1 untraced and traced passes alternate and the
run reports the per-layer metrics of the traced passes. The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
Exit codes: 0 ok, 1 a correctness check failed, 2 usage or missing package.
See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import gen
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".bench_out"
PINNED_THREADS = {
    name: "1"
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                 "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
}
HARD_LIMIT_S = 150.0  # a run must end well inside 180 s, whatever --seconds says
SETUP_PROBES = 5  # import-only subprocesses per run, beside one set-up per pass
MIN_PASSES = {0: 3, 1: 4}  # per --trace value; traced runs alternate untraced/traced
N_ACTIONS = 12
PROGRAM_SEED = 0  # --seed of train and evaluate; see plan_pass
NORM_BOUNDS = (-2.0, 2.0)  # the CLI's default continuous-action bounds, normalized units

# Sizes were chosen so that one pass takes one to four seconds on a 2-core
# machine, so that a run holds enough passes for its medians to be steady.
WORKLOADS = {
    "logged-discrete": {"customers": 300, "periods": 50, "mode": "discrete", "epochs": 3,
                        "batch": 200, "clv_queries": 40},
    "logged-mixed": {"customers": 8, "periods": 11, "mode": "mixed", "epochs": 1,
                     "batch": 100, "clv_queries": 2},
    "simulate": {"population": 1000, "episodes": 60, "steps_per_burst": 100,
                 "clv_queries": 40},
}
END_TO_END = {"setup_s": "s", "wall_ref": "ref", "clv_p50_ref": "ref", "peak_rss_mb": "MB"}


class BenchError(Exception):
    """The benchmark cannot run here (usage error or no package to run)."""


# ---------------------------------------------------------------------------
# Inputs and plans


def make_inputs(workload, sizes, seed, dest: Path):
    """Writes the seeded inputs; returns (input paths, SHA-256 per file, CLV query states)."""
    rng = np.random.default_rng(seed)
    dest.mkdir(parents=True)
    if workload == "simulate":
        text = "".join(f"{k}={sizes[k]}\n" for k in ("population", "episodes", "steps_per_burst"))
        key, path, horizon = "config", dest / "simulate.cfg", sizes["episodes"]
    else:
        text = gen.timelines_csv(rng, sizes["customers"], sizes["periods"],
                                 with_acont=sizes["mode"] == "mixed")
        key, path, horizon = "timelines", dest / "timelines.csv", sizes["periods"]
    digests = {path.name: gen.write(path, text)}
    states = gen.clv_states(rng, sizes["clv_queries"], horizon)
    digests["clv_states.txt"] = gen.write(dest / "clv_states.txt", "\n".join(states) + "\n")
    return {key: path}, digests, states


def plan_pass(workload, sizes, inputs, states, out: Path, seed):
    """CLI calls of one pass, as (phase, argv, file that receives stdout or None),
    and the output files the checks read.

    `train` and `evaluate` get a fixed --seed: `train` draws its validation
    split row by row from it, so the benchmark seed would change how many
    states the mixed-mode maximizer sees. `simulate` gets the benchmark seed,
    which is what generates its population.
    """
    s = str(seed)
    fixed = str(PROGRAM_SEED)
    files = {"ckpt": out / "model.ckpt", "history": out / "history.csv"}
    if workload == "simulate":
        steps = [("simulate", ["simulate", "--config", inputs["config"], "--history", files["history"],
                               "--checkpoint", files["ckpt"], "--seed", s], None)]
    else:
        files.update(transitions=out / "transitions.csv", report=out / "report.csv")
        steps = [
            ("build", ["build-transitions", inputs["timelines"], files["transitions"]], None),
            ("train", ["train", files["transitions"], "--checkpoint", files["ckpt"],
                       "--history", files["history"], "--epochs", str(sizes["epochs"]),
                       "--batch-size", str(sizes["batch"]), "--mode", sizes["mode"], "--seed", fixed], None),
            ("evaluate", ["evaluate", files["transitions"], files["ckpt"],
                          "--report-out", out / "report.txt", "--csv-out", files["report"],
                          "--no-timestamp", "--seed", fixed], None),
        ]
    steps += [("clv", ["clv", files["ckpt"], "--state", st], out / f"clv_{i:03d}.csv")
              for i, st in enumerate(states)]
    steps = [(phase, [str(a) for a in argv], stdout and str(stdout)) for phase, argv, stdout in steps]
    return steps, files


# ---------------------------------------------------------------------------
# Passes


def run_worker(pass_dir: Path, steps, traced, run_id, deadline):
    """Runs one pass in a fresh interpreter; returns the worker's result or raises RuntimeError."""
    plan = {
        "trace": traced,
        "run_id": run_id,
        "steps": [{"phase": p, "argv": a, "stdout": o} for p, a, o in steps],
        "result_path": str(pass_dir / "result.json"),
        "spans_path": str(pass_dir / "spans.npz"),
    }
    plan_path = pass_dir / "plan.json"
    plan_path.write_text(json.dumps(plan), encoding="utf-8")
    env = dict(os.environ, **PINNED_THREADS)
    timeout = max(deadline - time.perf_counter(), 1.0)
    with open(pass_dir / "stderr.txt", "w", encoding="utf-8") as err:
        spawned = time.perf_counter()
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "worker.py"), str(plan_path), repr(spawned)],
                cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=err, timeout=timeout,
            )
        except subprocess.TimeoutExpired:
            raise RuntimeError(f"pass {pass_dir.name} timed out after {timeout:.0f} s") from None
    if proc.returncode != 0:
        tail = (pass_dir / "stderr.txt").read_text(encoding="utf-8")[-2000:]
        raise RuntimeError(f"worker exited {proc.returncode}: {tail}")
    return json.loads((pass_dir / "result.json").read_text(encoding="utf-8"))


def _csv_rows(path):
    with open(path, newline="", encoding="utf-8") as f:
        return list(csv.DictReader(f))


def _count_lines(path):
    with open(path, "rb") as f:
        return sum(1 for _ in f) - 1


def acont_bounds(ckpt: Path, timelines: Path):
    """Raw interval that every recommended continuous attribute must lie in.

    Exact when the checkpoint sidecar holds the acont normalization; otherwise
    the widest interval any training split could give: its mean lies within
    the logged range and its std is at most half that range.
    """
    kv = {}
    meta = Path(str(ckpt) + ".meta")
    if meta.is_file():
        for line in meta.read_text(encoding="utf-8").splitlines():
            key, _, value = line.partition("=")
            kv[key.strip()] = value.strip()
    if "acont_mean" in kv and "acont_std" in kv:
        mean, std = float(kv["acont_mean"]), float(kv["acont_std"])
        std = std if std > 0 else 1.0
        lo, hi = (mean + b * std for b in NORM_BOUNDS)
    else:
        logged = [float(r["acont"]) for r in _csv_rows(timelines) if r["action"] and r["acont"]]
        span = max(logged) - min(logged)
        lo = min(logged) + NORM_BOUNDS[0] * span / 2
        hi = max(logged) + NORM_BOUNDS[1] * span / 2
    slack = 1e-9 * max(1.0, abs(lo), abs(hi))
    return lo - slack, hi + slack


def check_pass(workload, sizes, inputs, steps, files, result):
    """Correctness checks of one pass: list of (check, ok, detail)."""
    checks = []
    for i, (phase, argv, _) in enumerate(steps):
        step = result["steps"][i] if i < len(result["steps"]) else None
        ok = step is not None and step["exit"] == 0
        detail = "not run" if step is None else f"exit {step['exit']} {step['stderr'].strip()[-300:]}"
        checks.append((f"exit:{phase}:{argv[0]}", ok, "" if ok else detail))

    def check(name, fn):
        try:
            ok, detail = fn()
        except (OSError, ValueError, KeyError, IndexError) as exc:  # missing or malformed output
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        checks.append((name, bool(ok), "" if ok else detail))

    if workload == "simulate":
        def simulate_check():
            rows = _csv_rows(files["history"])
            want = sizes["population"] * sizes["episodes"]
            got = int(rows[-1]["replay_size"])
            return (len(rows) == sizes["episodes"] and got == want,
                    f"{len(rows)} history rows, replay_size {got}; want {sizes['episodes']}, {want}")

        check("simulate:history", simulate_check)
    else:
        want = sizes["customers"] * (sizes["periods"] - 1)

        def build_check():
            got = _count_lines(files["transitions"])
            return got == want, f"{got} transitions, want {want}"

        def evaluate_check():
            n = {r["group"]: int(r["n"]) for r in _csv_rows(files["report"])}
            total = n["matched"] + n["deviated"]
            return (total == n["dataset_mean"] == want,
                    f"matched {n['matched']} + deviated {n['deviated']} vs dataset {n['dataset_mean']}, want {want}")

        check("build:rows", build_check)
        check("evaluate:partition", evaluate_check)

    def clv_check(path):
        rows = _csv_rows(path)
        values = [float(r["clv"]) for r in rows]
        ok = len(rows) == N_ACTIONS and all(math.isfinite(v) for v in values)
        detail = f"{len(rows)} rows, values {values}"
        if ok and sizes.get("mode") == "mixed":
            lo, hi = acont_bounds(files["ckpt"], inputs["timelines"])
            aconts = [float(r["acont"]) for r in rows if int(r["action"]) != 0]
            ok = all(lo <= a <= hi for a in aconts)
            detail = f"aconts {aconts} outside [{lo}, {hi}]"
        return ok, detail

    for phase, _, stdout in steps:
        if phase == "clv":
            check(f"clv:{Path(stdout).name}", lambda path=stdout: clv_check(path))
    return checks


def digests(out: Path) -> dict:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir())}


# ---------------------------------------------------------------------------
# Metrics


def pass_times(steps_run, unit=1.0):
    """Time per phase of one pass, plus its wall time and CLV call latencies,
    in seconds or, given the pass's reference round time as `unit`, in
    reference rounds."""
    by_phase = {}
    for step in steps_run:
        by_phase[step["phase"]] = by_phase.get(step["phase"], 0.0) + step["seconds"] / unit
    clv = [s["seconds"] / unit for s in steps_run if s["phase"] == "clv"]
    return by_phase, sum(by_phase.values()), clv


def ref_times(result):
    return pass_times(result["steps"], result["ref_round_s"])


def end_to_end_metrics(workload, sizes, untraced, setups):
    """All end-to-end metrics that apply to the workload: name -> (value, unit).

    Each is a median over the run: times over its untraced passes, the CLV
    latency over every `clv` call of those passes, set-up time over every
    set-up. Other tenants of the machine slow passes by a factor that drifts
    over seconds to minutes, so the bounded times (`*_ref`) are in units of the
    reference kernel's round time, measured in the same pass; the same times
    in seconds, and the phase rates, are reported beside them.
    """
    times = [pass_times(r["steps"]) for r in untraced]
    ref = [ref_times(r) for r in untraced]

    def phase(name):
        return statistics.median(phases[name] for phases, _, _ in times)

    m = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_ref": (statistics.median(wall for _, wall, _ in ref), "ref"),
        "clv_p50_ref": (statistics.median(c for _, _, clv in ref for c in clv), "ref"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in untraced), "MB"),
        "wall_s": (statistics.median(wall for _, wall, _ in times), "s"),
        "clv_p50_ms": (1e3 * statistics.median(c for _, _, clv in times for c in clv), "ms"),
        "ref_round_ms": (1e3 * statistics.median(r["ref_round_s"] for r in untraced), "ms"),
    }
    if workload == "simulate":
        periods = sizes["population"] * sizes["episodes"]
        m["simulate_periods_per_s"] = (periods / phase("simulate"), "1/s")
    else:
        transitions = sizes["customers"] * (sizes["periods"] - 1)
        if workload == "logged-discrete":
            m["build_rows_per_s"] = (sizes["customers"] * sizes["periods"] / phase("build"), "1/s")
        m["train_samples_per_s"] = (sizes["epochs"] * transitions / phase("train"), "1/s")
        m["evaluate_rows_per_s"] = (transitions / phase("evaluate"), "1/s")
    return m


def fingerprint():
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f if line.startswith("model name")), "")
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_threads_env": PINNED_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
    }


# ---------------------------------------------------------------------------
# Run


def run_benchmark(workload, seed, seconds, trace, sizes=None):
    """Runs the benchmark; returns (detail record, final JSON object)."""
    deadline = time.perf_counter() + HARD_LIMIT_S
    if not (ROOT / "src" / "clvdqn" / "cli.py").is_file():
        raise BenchError(f"no clvdqn package under {ROOT / 'src'}; run from a checkout's root")
    sizes = sizes or WORKLOADS[workload]
    run_dir = OUT_DIR / "runs" / f"{workload}-seed{seed}-trace{trace}-pid{os.getpid()}"
    if run_dir.exists():
        shutil.rmtree(run_dir)
    inputs, input_sha, states = make_inputs(workload, sizes, seed, run_dir / "inputs")

    setups, results, checks, durations = [], [], [], []
    for k in range(SETUP_PROBES):
        probe_dir = run_dir / f"probe{k}"
        probe_dir.mkdir()
        try:
            setups.append(run_worker(probe_dir, [], False, f"probe{k}", deadline)["setup_s"])
        except RuntimeError as exc:
            checks.append((f"probe{k}:worker", False, str(exc)))
            break
    start = time.perf_counter()
    while all(ok for _, ok, _ in checks):
        k = len(results)
        traced = bool(trace) and k % 2 == 1
        pass_dir = run_dir / f"pass{k:02d}"
        (pass_dir / "out").mkdir(parents=True)
        steps, files = plan_pass(workload, sizes, inputs, states, pass_dir / "out", seed)
        began = time.perf_counter()
        try:
            result = run_worker(pass_dir, steps, traced, f"{workload}:{seed}:{k}", deadline)
        except RuntimeError as exc:
            checks.append((f"pass{k:02d}:worker", False, str(exc)))
            break
        durations.append(time.perf_counter() - began)
        result["traced"], result["dir"] = traced, pass_dir
        results.append(result)
        setups.append(result["setup_s"])
        pass_checks = check_pass(workload, sizes, inputs, steps, files, result)
        checks += [(f"pass{k:02d}:{name}", ok, detail) for name, ok, detail in pass_checks]
        if not all(ok for _, ok, _ in pass_checks):
            break
        now = time.perf_counter()
        next_pass = max(durations[-2:])
        if now + next_pass > deadline - 5.0:
            break
        # A traced run stops after a traced pass, so both kinds have as many passes.
        if len(results) >= MIN_PASSES[trace] and (now - start) + next_pass > seconds and traced == bool(trace):
            break

    # Tracing must not change a single output byte, and reruns must agree.
    if results:
        reference = digests(results[0]["dir"] / "out")
        for r in results[1:]:
            got = digests(r["dir"] / "out")
            differing = sorted(n for n in reference.keys() | got.keys() if reference.get(n) != got.get(n))
            kind = "traced" if r["traced"] else "untraced"
            checks.append((f"{r['dir'].name}:bytes-identical({kind})", not differing,
                           f"differs from pass00: {differing}"))

    failures = [(name, detail) for name, ok, detail in checks if not ok]
    untraced = [r for r in results if not r["traced"]]
    traced_runs = [r for r in results if r["traced"]]
    times = [pass_times(r["steps"]) for r in untraced]
    all_metrics, missing, row_errors = {}, [], []
    if not failures and untraced:
        all_metrics = end_to_end_metrics(workload, sizes, untraced, setups)
        if trace and traced_runs:
            # Layer numbers come from one pass, the median traced one, so they add up.
            by_wall = sorted(traced_runs, key=lambda r: ref_times(r)[1])
            middle = by_wall[(len(by_wall) - 1) // 2]
            layers = tracing.layer_metrics(middle["dir"] / "spans.npz")
            for metric, value in layers.items():
                all_metrics[metric] = (value, tracing.unit(metric))
            overhead = ref_times(middle)[1] / all_metrics["wall_ref"][0] - 1.0
            all_metrics[tracing.OVERHEAD] = (overhead, tracing.unit(tracing.OVERHEAD))
            missing = sorted({n for r in traced_runs for n in r["missing"]})
            row_errors = sorted({n for r in traced_runs for n in r["row_errors"]})
    wanted = tracing.PER_LAYER if trace else tuple(END_TO_END)
    absent = [name for name in wanted if name not in all_metrics]
    if absent and not failures:  # e.g. the deadline left no traced pass
        failures.append(("metrics", f"not measured: {absent}"))
        checks.append(("metrics", False, failures[-1][1]))
    attempted = len(checks)
    all_metrics["ops_failed_frac"] = (len(failures) / attempted if attempted else 1.0, "fraction")

    final = {
        "correct": not failures,
        "attempted": max(attempted, 1),
        "failed": len(failures) if attempted else 1,
        "metrics": {name: {"value": all_metrics[name][0], "unit": all_metrics[name][1]}
                    for name in wanted if name in all_metrics},
    }
    detail = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "sizes": sizes,
        "passes": {"untraced": len(untraced), "traced": len(traced_runs)},
        "samples": {  # per untraced pass, and per set-up
            "setup_s": setups,
            "wall_s": [wall for _, wall, _ in times],
            "phase_s": [phases for phases, _, _ in times],
            "clv_p50_s": [statistics.median(clv) for _, _, clv in times],
            "ref_round_s": [r["ref_round_s"] for r in untraced],
        },
        "fingerprint": fingerprint(),
        "inputs_sha256": input_sha,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in all_metrics.items()},
        "missing": missing,
        "row_errors": row_errors,
        "failures": failures,
    }
    if not failures:
        shutil.rmtree(run_dir)
    return detail, final


def main(argv=None):
    parser = argparse.ArgumentParser(description="clvdqn CLI benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    try:
        detail, final = run_benchmark(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    results = OUT_DIR / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps(detail, indent=1), encoding="utf-8")

    fp = detail["fingerprint"]
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{detail['passes']['untraced']} untraced + {detail['passes']['traced']} traced passes, "
          f"{len(detail['samples']['setup_s'])} set-ups")
    print(f"python {fp['python']}, numpy {fp['numpy']} ({fp['blas']['name']} {fp['blas']['version']}), "
          f"nproc {fp['nproc']}, cpu {fp['cpu_model']}, BLAS threads pinned to 1")
    for file, sha in detail["inputs_sha256"].items():
        print(f"input {file} sha256 {sha}")
    for metric, vu in detail["metrics"].items():
        print(f"{metric} = {vu['value']:.6g} {vu['unit']}")
    if detail["missing"]:
        print(f"missing (no longer defined, metrics read 0): {', '.join(detail['missing'])}")
    if detail["row_errors"]:
        print(f"rows not countable (rows read 0): {', '.join(detail['row_errors'])}")
    for check, why in detail["failures"]:
        print(f"FAILED {check}: {why}", file=sys.stderr)
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
