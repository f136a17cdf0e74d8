"""Seeded mutation test of the CLI's exit-code contract.

Byte mutations of each input the CLI reads (a timeline CSV, a transitions
CSV, a weight file, its .meta sidecar and a config file) go to the
subcommands that read it, in process and with warnings as errors. Whatever
the bytes, main must return 0 to 3 without raising, and a nonzero exit must
print exactly one stderr line with the prefix its code documents.
"""

import time
import warnings

import numpy as np

from clvdqn.cli import main
from clvdqn.nn_core import init_mlp
from clvdqn.qlearn import TrainConfig, network_spec, save_checkpoint
from clvdqn.rfmi import NormStats
from test_cli import write_timeline_csv

SEED = 20240517
CASES = 500
PREFIXES = {1: "error: ", 2: "data error: ", 3: "training diverged: "}
# Bytes that a number, a CSV or a key=value line (or its # comment) is made of, and two
# that no UTF-8 text has
INTERESTING = b"0123456789e.-+,=#\n\r \x00\xff_nainf"

# The subcommands that read each input; {name} is a path in the case's directory.
COMMANDS = {
    "timelines": [["build-transitions", "{timelines}", "{out}"]],
    "transitions": [
        ["train", "{transitions}", "--epochs", "1", "--checkpoint", "{out}", "--history",
         "{history}"],
        ["evaluate", "{transitions}", "{ckpt}", "--no-timestamp", "--csv-out", "{out}"],
    ],
    "weights": [
        ["evaluate", "{transitions}", "{ckpt}", "--no-timestamp", "--csv-out", "{out}"],
        ["clv", "{ckpt}", "--state", "3,2,15,1,4", "--out", "{out}"],
        ["curves", "{ckpt}", "--dims", "recency,frequency", "--range", "0:10,0:5",
         "--resolution", "4", "--out", "{out}"],
    ],
    "config": [
        ["train", "{transitions}", "--config", "{config}", "--checkpoint", "{out}", "--history",
         "{history}"],
        ["evaluate", "{transitions}", "{ckpt}", "--config", "{config}", "--no-timestamp"],
    ],
}
COMMANDS["meta"] = COMMANDS["weights"]


def mutate(data: bytes, rng) -> bytes:
    """One to three byte edits at random offsets: each a replacement (3 in 5), an insertion
    or a deletion, so that a fixed-size weight file often keeps its size."""
    data = bytearray(data)
    for _ in range(int(rng.integers(1, 4))):
        op, at = rng.random(), int(rng.integers(len(data) + 1))
        byte = (INTERESTING[rng.integers(len(INTERESTING))] if rng.random() < 0.7
                else int(rng.integers(256)))
        if op < 0.2 or not data:
            data.insert(at, byte)
        elif op < 0.8:
            data[min(at, len(data) - 1)] = byte
        else:
            del data[min(at, len(data) - 1)]
    return bytes(data)


def inputs(root):
    """The unmutated input files, by kind, for a discrete and a mixed checkpoint."""
    timelines, transitions = root / "timelines.csv", root / "transitions.csv"
    write_timeline_csv(timelines, n_customers=12, periods=5, seed=3)
    assert main(["build-transitions", str(timelines), str(transitions)]) == 0
    files = {}
    for mode in ("discrete_only", "mixed"):
        ckpt = root / f"{mode}.ckpt"
        net = init_mlp(network_spec(mode), seed=1)
        stats = NormStats(np.full(5, 2.0), np.array([1.5, 0.0, 4.0, 1.0, 2.5]), 1.0, 9.2)
        save_checkpoint(ckpt, net, TrainConfig(mode=mode, seed=1), stats)
        files[mode] = {
            "timelines": timelines.read_bytes(),
            "transitions": transitions.read_bytes(),
            "weights": ckpt.read_bytes(),
            "meta": (root / f"{mode}.ckpt.meta").read_bytes(),
            "config": (b"# a run\nmode=discrete\nbatch_size=20\nepochs=1\nseed=2\nlr0=0.01\n"
                       b"validation_fraction=0.3\n"),
        }
    return files


def overflowing_weights(mode):
    """A weight file whose finite weights of +-1e300 overflow the forward pass."""
    net = init_mlp(network_spec(mode), seed=0)
    for w in net.weights:
        w[:] = np.copysign(1e300, w)
    return net


def run_case(case_dir, files, kind, data, argv, capsys):
    """The contract violation of one case, or None."""
    case_dir.mkdir()
    names = {"timelines": "timelines.csv", "transitions": "transitions.csv",
             "weights": "m.ckpt", "meta": "m.ckpt.meta", "config": "run.cfg"}
    for k, name in names.items():
        (case_dir / name).write_bytes(data if k == kind else files[k])
    paths = {"timelines": "timelines.csv", "transitions": "transitions.csv", "ckpt": "m.ckpt",
             "config": "run.cfg", "out": "out", "history": "history.csv"}
    argv = [arg.format(**{k: str(case_dir / v) for k, v in paths.items()}) for arg in argv]
    capsys.readouterr()
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(argv)
    except (Exception, SystemExit) as exc:  # an interrupt still stops the run
        return f"{type(exc).__name__}: {exc}"
    err = capsys.readouterr().err
    if code not in (0, 1, 2, 3):
        return f"exit code {code!r}"
    if code and not (err.startswith(PREFIXES[code]) and err.count("\n") == 1
                     and err.endswith("\n")):
        return f"exit {code} with stderr {err!r}"
    return None


def test_mutated_inputs_keep_the_exit_code_contract(tmp_path, capsys):
    started = time.perf_counter()
    base = tmp_path / "base"
    base.mkdir()
    files = inputs(base)
    rng = np.random.default_rng(SEED)
    # The explicit cases first: an overflowing net; a sidecar integer outside int64;
    # oversized settings, a learning rate whose first step overflows and bounds whose span
    # overflows; an m of 1e200, whose square overflows the normalization std; and a cell over
    # the csv module's field size limit.
    cases = []
    for mode in ("discrete_only", "mixed"):
        save_checkpoint(base / "huge.ckpt", overflowing_weights(mode), TrainConfig(mode=mode),
                        NormStats.identity())
        meta = files[mode]["meta"].replace(b"\nepochs=100\n", b"\nepochs=%d\n" % 2**64)
        assert meta != files[mode]["meta"]
        for argv in COMMANDS["weights"]:
            cases.append((mode, "weights", (base / "huge.ckpt").read_bytes(), argv))
            cases.append((mode, "meta", meta, argv))
        for config in (b"batch_size=%d\n" % 10**19, b"batch_size=%d\n" % (2 * 10**18),
                       b"population=%d\n" % 10**18, b"lr0=1e308\n",
                       b"bounds_lo=-1e308\nbounds_hi=1e308\n"):
            cases.append((mode, "config", config, COMMANDS["config"][0]))
        lines = files[mode]["transitions"].split(b"\r\n")
        cells = lines[1].split(b",")
        lines[1] = b",".join([*cells[:2], b"1e200", *cells[3:]])
        for argv in COMMANDS["transitions"]:
            cases.append((mode, "transitions", b"\r\n".join(lines), argv))
        lines[1] = b",".join([*cells[:12], b"1" * 140_000 + b"x"])
        cases.append((mode, "transitions", b"\r\n".join(lines), COMMANDS["transitions"][0]))
        lines = files[mode]["timelines"].split(b"\r\n")
        lines[2] = b",".join([*lines[2].split(b",")[:2], b"1" * 200_000, b"", b"0.0"])
        cases.append((mode, "timelines", b"\r\n".join(lines), COMMANDS["timelines"][0]))
    for _ in range(CASES):
        mode = ("discrete_only", "mixed")[int(rng.integers(2))]
        kind = list(COMMANDS)[int(rng.integers(len(COMMANDS)))]
        argv = COMMANDS[kind][int(rng.integers(len(COMMANDS[kind])))]
        cases.append((mode, kind, mutate(files[mode][kind], rng), argv))
    faults = []
    for i, (mode, kind, data, argv) in enumerate(cases):
        fault = run_case(tmp_path / f"case{i}", files[mode], kind, data, argv, capsys)
        if fault:
            faults.append(f"case {i}: {argv[0]} on a {mode} {kind} file: {fault}")
    elapsed = time.perf_counter() - started
    assert faults == []
    assert elapsed < 10.0, f"{len(cases)} cases took {elapsed:.1f}s"
