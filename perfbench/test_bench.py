"""Smoke test of the benchmark at tiny sizes: python3 -m pytest perfbench"""

import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402

TINY = {
    "logged-discrete": {"customers": 8, "periods": 6, "mode": "discrete", "epochs": 1,
                        "batch": 20, "clv_queries": 2},
    "logged-mixed": {"customers": 4, "periods": 4, "mode": "mixed", "epochs": 1,
                     "batch": 5, "clv_queries": 1},
    "simulate": {"population": 50, "episodes": 5, "steps_per_burst": 2, "clv_queries": 2},
}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_tiny_run_reports_every_metric_with_unit(workload, trace):
    detail, final = run.run_benchmark(workload, seed=3, seconds=1, trace=trace,
                                      sizes=TINY[workload])
    assert final["correct"], detail["failures"]
    assert final["failed"] == 0 and final["attempted"] > 0
    wanted = tracing.PER_LAYER if trace else tuple(run.END_TO_END)
    assert list(final["metrics"]) == list(wanted)
    for name, metric in final["metrics"].items():
        assert isinstance(metric["unit"], str) and metric["unit"], name
        assert math.isfinite(metric["value"]), name
    if trace:
        metrics = {k: v["value"] for k, v in final["metrics"].items()}
        maximized = metrics["action_space.maximize_continuous_batch.calls"]
        if workload == "logged-mixed":
            assert maximized > 0
            assert metrics["action_space.net_rows_per_state_action"] == 810
        else:
            assert maximized == 0
        assert detail["missing"] == [] and detail["row_errors"] == []


def test_generator_is_deterministic_per_seed(tmp_path):
    for mixed in (False, True):
        a = gen.timelines_csv(np.random.default_rng(5), 6, 7, mixed)
        b = gen.timelines_csv(np.random.default_rng(5), 6, 7, mixed)
        c = gen.timelines_csv(np.random.default_rng(6), 6, 7, mixed)
        assert a == b and a != c
    sizes = run.WORKLOADS["logged-mixed"]
    _, first, states = run.make_inputs("logged-mixed", sizes, 9, tmp_path / "a")
    _, second, states2 = run.make_inputs("logged-mixed", sizes, 9, tmp_path / "b")
    assert first == second and states == states2


def test_metric_lists_match_benchmark_json():
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {m["name"]: m["unit"] for m in declared["end_to_end"]} == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in declared["per_layer"]] == [
        (m, tracing.unit(m)) for m in tracing.PER_LAYER
    ]
    assert sorted(w["name"] for w in declared["workloads"]) == sorted(run.WORKLOADS)


def test_missing_traced_name_is_reported_not_raised():
    script = (
        "import sys; sys.path[:0] = [sys.argv[1], sys.argv[2]]\n"
        "import clvdqn.qlearn, tracing\n"
        "del clvdqn.qlearn.td_step\n"
        "tracer = tracing.Tracer('t')\n"
        "tracer.install()\n"
        "print(tracer.missing)\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", script, str(HERE.parent / "src"), str(HERE)],
        check=True, capture_output=True, text=True,
    ).stdout
    assert out.strip() == "['qlearn.td_step']"
