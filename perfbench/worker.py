"""One benchmark pass in a fresh interpreter.

Usage: python3 perfbench/worker.py PLAN_JSON SPAWN_TIME

SPAWN_TIME is the parent's time.perf_counter() just before it started this
process (the clock is system-wide on Linux); the time from then until
`clvdqn.cli` is imported is the pass's set-up time. The plan lists CLI calls,
each run in-process through `clvdqn.cli.main(argv)` and timed on its own. The
reference kernel (reference.py) runs for REF_BLOCK rounds before the first
call and after the last, and for one round after each call; its mean time per
round is the pass's unit of machine speed. A plan without steps only measures
set-up. With "trace" set, the package's public functions are wrapped first and
the spans are saved at the end.
"""

import os
import sys
import time

REF_BLOCK = 10


def main():
    plan_path, spawned = sys.argv[1], float(sys.argv[2])
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))
    import clvdqn.cli

    setup_s = time.perf_counter() - spawned

    import contextlib
    import io
    import json
    import resource

    with open(plan_path, encoding="utf-8") as f:
        plan = json.load(f)
    tracer = None
    if plan["trace"]:
        import tracing

        tracer = tracing.Tracer(plan["run_id"])
        tracer.install()

    import reference

    steps, ref_s, ref_rounds = [], 0.0, 0
    if plan["steps"]:
        ref_s, ref_rounds = reference.kernel(REF_BLOCK), REF_BLOCK
    for step in plan["steps"]:
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = clvdqn.cli.main(step["argv"])
            except SystemExit as exc:  # argparse usage errors exit instead of returning
                code = exc.code
            except Exception as exc:  # an uncaught error is a failed call, reported below
                code = f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start
        if step.get("stdout"):
            with open(step["stdout"], "w", encoding="utf-8") as f:
                f.write(out.getvalue())
        steps.append({"phase": step["phase"], "seconds": seconds, "exit": code,
                      "stderr": err.getvalue()[-2000:]})
        if code != 0:
            break
        ref_s, ref_rounds = ref_s + reference.kernel(1), ref_rounds + 1
    if steps:
        ref_s, ref_rounds = ref_s + reference.kernel(REF_BLOCK), ref_rounds + REF_BLOCK

    result = {
        "setup_s": setup_s,
        "steps": steps,
        "ref_round_s": ref_s / ref_rounds if ref_rounds else None,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        tracer.write(plan["spans_path"])
        result["missing"] = tracer.missing
        result["row_errors"] = sorted(tracer.row_errors)
    with open(plan["result_path"], "w", encoding="utf-8") as f:
        json.dump(result, f)


if __name__ == "__main__":
    main()
