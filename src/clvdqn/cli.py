"""Command-line entry point.

Subcommands: build-transitions, train, evaluate, clv, simulate, curves.
Configuration is a flat key=value file; command-line flags win over config
values. All randomness is controlled by --seed. evaluate, clv and curves take
the mode and the acont bounds from the checkpoint. Exit codes: 0 success,
1 usage error (nn_core.ConfigError or out of memory, "error: ..."), 2 data error
(rfmi.DataError or an unreadable or unwritable path, "data error: ..."), 3 training
divergence (nn_core.TrainingDiverged, "training diverged: ...").
"""

from __future__ import annotations

import argparse
import os
import stat
import sys
from dataclasses import fields

import numpy as np

from . import env as env_mod
from . import policy_eval, qlearn, rfmi
from .nn_core import ConfigError, TrainingDiverged
from .qlearn import TrainConfig

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_DIVERGED = 3

MODE_NAMES = {"discrete": "discrete_only", "discrete_only": "discrete_only", "mixed": "mixed"}


# The settings a config file or flag may set. Each names a field of TrainConfig,
# DonorModel or AgentConfig, whose default it takes (seed goes to all three),
# except the two below, which only the CLI reads.
CONFIG_KEYS = (
    "mode", "gamma", "lr0", "lr_decay_per_epoch", "batch_size", "epochs",
    "target_clone_period", "seed", "validation_fraction", "bounds_lo", "bounds_hi",
    "population", "episodes", "epsilon_floor", "epsilon_decay", "train_every",
    "steps_per_burst", "base_rate", "fatigue_coeff", "recency_decay", "thankyou_boost",
    "thankyou_action", "amount_mean",
)
CLI_DEFAULTS = {"validation_fraction": 0.25, "population": 500}
CONFIGS = (TrainConfig, env_mod.DonorModel, env_mod.AgentConfig)
# numpy refuses an array of more bytes than the largest intp before allocating; no array here
# holds over 1024 bytes per batch row, customer or grid point, so numpy refuses no size up to this
MAX_SIZE = int(np.iinfo(np.intp).max) // 1024


def default_settings() -> dict:
    """Every config key with its default value."""
    defaults = {f.name: f.default for cls in CONFIGS for f in fields(cls)} | CLI_DEFAULTS
    return {key: defaults[key] for key in CONFIG_KEYS}


def make_config(cls, settings):
    """A TrainConfig, DonorModel or AgentConfig from the settings that name its fields."""
    return cls(**{f.name: settings[f.name] for f in fields(cls) if f.name in settings})


def load_config(path) -> dict:
    """The settings of a flat key=value file (rfmi.key_values), defaults filled in."""
    settings = default_settings()
    try:
        for line_no, key, value in rfmi.key_values(path):
            if key not in settings:
                raise ConfigError(f"{path}:{line_no}: unknown config key {key!r}")
            try:
                settings[key] = MODE_NAMES[value] if key == "mode" else type(settings[key])(value)
            except (KeyError, ValueError):
                raise ConfigError(f"{path}:{line_no}: bad value for {key!r}") from None
    except rfmi.DataError as exc:  # not UTF-8 or not key=value; a config file is a usage error
        raise ConfigError(str(exc)) from None
    return settings


def _effective_config(args) -> dict:
    settings = load_config(args.config) if getattr(args, "config", None) else default_settings()
    for name in CONFIG_KEYS:
        flag = getattr(args, name, None)
        if flag is not None:
            settings[name] = MODE_NAMES[flag] if name == "mode" else flag
    if not 0 <= settings["seed"] < 2**63:  # a checkpoint's sidecar keeps the seed as an int64
        raise ConfigError(f"seed must be in [0, 2**63), got {settings['seed']}")
    for name, value in settings.items():  # each int but the seed counts or sizes something
        if type(value) is int and name != "seed" and value > MAX_SIZE:
            raise ConfigError(f"{name} must be at most {MAX_SIZE}, got {value}")
    return settings


def _file_named(path):
    """What a path names: (device, inode) for a regular file, the real path for a path that
    cannot be looked up (one not made yet), and None for another kind, such as /dev/null."""
    try:
        st = os.stat(path)
    except OSError:
        return os.path.realpath(path)
    return (st.st_dev, st.st_ino) if stat.S_ISREG(st.st_mode) else None


def _check_outputs(*paths, inputs=()):
    """Raise, before any work, the OSError that writing would raise for a path that is a
    directory or whose directory is missing, and a ConfigError for one that names the file
    of an input or an earlier output, so that a failed run writes no file; None is skipped."""
    paths = [path for path in paths if path]
    for path in paths:
        if os.path.isdir(path) or not os.path.isdir(os.path.dirname(path) or "."):
            open(path, "rb").close()  # fails as opening it to write would, creating nothing
    named = {}  # a file -> the first path that names it
    for kind, path in [*(("input", p) for p in inputs if p), *(("output", p) for p in paths)]:
        file = _file_named(path)
        if kind == "output" and file in named:
            raise ConfigError(f"output {path!r} names the same file as {named[file]}")
        if file is not None:
            named.setdefault(file, f"{kind} {path!r}")


def _split(transitions, fraction, seed):
    mask = np.random.default_rng(seed).random(len(transitions)) < fraction
    return transitions[~mask], transitions[mask]


# ---------------------------------------------------------------------------
# Subcommands


def cmd_build_transitions(args):
    _check_outputs(args.out, inputs=[args.timelines])
    timelines = rfmi.read_timelines(args.timelines)
    if not timelines:
        raise rfmi.DataError(f"no timelines found in {args.timelines}")
    transitions = rfmi.build_transitions(timelines)
    rfmi.write_transitions(transitions, args.out)
    print(f"wrote {len(transitions)} transitions to {args.out}")


def cmd_train(args):
    cfg = _effective_config(args)
    tc = make_config(TrainConfig, cfg)
    fraction = cfg["validation_fraction"]
    if not 0 < fraction < 1:  # NaN too
        raise ConfigError(f"validation_fraction must be in (0,1), got {fraction}")
    _check_outputs(args.checkpoint, f"{args.checkpoint}.meta", args.history,
                   inputs=[args.transitions, args.config])
    transitions = rfmi.read_transitions(args.transitions)
    if not transitions:
        raise rfmi.DataError(f"no transitions in {args.transitions}")
    train_set, val_set = _split(transitions, fraction, cfg["seed"])
    if not train_set or not val_set:
        raise rfmi.DataError("train/validation split produced an empty side")
    stats = rfmi.compute_norm_stats(train_set)
    net, history = qlearn.train(train_set, val_set, tc, stats)
    qlearn.save_checkpoint(args.checkpoint, net, tc, stats)
    rfmi.write_records(args.history, qlearn.EpochRecord, history)
    print(f"wrote checkpoint {args.checkpoint} and history {args.history}")


def cmd_evaluate(args):
    cfg = _effective_config(args)
    _check_outputs(args.report_out, args.csv_out, inputs=[
        args.transitions, args.checkpoint, f"{args.checkpoint}.meta", args.config])
    transitions = rfmi.read_transitions(args.transitions)
    if not transitions:
        raise rfmi.DataError(f"no transitions in {args.transitions}")
    net, tc, stats = qlearn.load_checkpoint(args.checkpoint)
    report = policy_eval.evaluate(transitions, net, stats, tc.acont_range(stats),
                                  baseline_seed=cfg["seed"])
    text = policy_eval.report_text(report, timestamp=not args.no_timestamp)
    sys.stdout.write(text)
    if args.report_out:
        with open(args.report_out, "w", encoding="utf-8") as f:
            f.write(text)
    if args.csv_out:
        policy_eval.write_report_csv(report, args.csv_out)


def cmd_clv(args):
    if args.out:
        _check_outputs(args.out, inputs=[args.checkpoint, f"{args.checkpoint}.meta"])
    net, tc, stats = qlearn.load_checkpoint(args.checkpoint)
    try:
        state = np.array([float(v) for v in args.state.split(",")])
        if not np.isfinite(state).all():
            raise ValueError("non-finite value")
    except ValueError:
        raise ConfigError(f"bad --state value {args.state!r}") from None
    if state.shape != (5,):
        raise ConfigError("--state needs 5 comma-separated values r,f,m,ir,if")
    est = policy_eval.estimate_clv(net, state, stats, tc.acont_range(stats))
    table = (["action", "clv", "acont"], [np.arange(len(est.values)), est.values, est.aconts])
    if args.out:
        rfmi.write_csv(args.out, *table)
    else:
        sys.stdout.write(rfmi.csv_text(*table))


def cmd_simulate(args):
    cfg = _effective_config(args)
    tc, model, agent = (make_config(cls, cfg) for cls in CONFIGS)
    _check_outputs(args.history, args.checkpoint, f"{args.checkpoint}.meta", inputs=[args.config])
    result = env_mod.run_autonomous(cfg["population"], model, agent, tc)
    rfmi.write_records(args.history, env_mod.EpisodeRecord, result.history)
    qlearn.save_checkpoint(args.checkpoint, result.net, tc, result.norm_stats)
    print(f"simulated {cfg['episodes']} episodes; wrote {args.history} and {args.checkpoint}")


def cmd_curves(args):
    _check_outputs(args.out, inputs=[args.checkpoint, f"{args.checkpoint}.meta"])
    net, _, stats = qlearn.load_checkpoint(args.checkpoint)
    dims = tuple(args.dims.split(","))
    ranges = []
    for part in args.range.split(","):
        lo, _, hi = part.partition(":")
        try:
            ranges.append((float(lo), float(hi)))
        except ValueError:
            raise ConfigError(f"bad --range value {args.range!r}") from None
    reference = {}
    for part in args.reference.split(",") if args.reference else ():
        k, _, v = part.partition("=")
        if k in reference:
            raise ConfigError(f"bad --reference value {args.reference!r}: {k!r} given twice")
        try:
            reference[k] = float(v)
        except ValueError:
            raise ConfigError(f"bad --reference value {args.reference!r}") from None
    if args.resolution < 1:
        raise ConfigError(f"--resolution must be >= 1, got {args.resolution}")
    try:
        sweep = policy_eval.SweepSpec(dims=dims, ranges=tuple(ranges),
                                      resolution=args.resolution, reference=reference)
    except policy_eval.SweepError as exc:
        flag = {"dims": "dims", "ranges": "range", "reference": "reference"}[exc.field]
        raise ConfigError(f"bad --{flag} value {getattr(args, flag)!r}: {exc}") from None
    if args.resolution ** len(dims) > MAX_SIZE:
        raise ConfigError(f"--resolution {args.resolution} makes over {MAX_SIZE} grid points")
    rows = policy_eval.export_value_curves(net, sweep, stats)
    policy_eval.write_curves_csv(rows, sweep, args.out)
    print(f"wrote {len(rows)} curve rows to {args.out}")


# ---------------------------------------------------------------------------
# Argument parsing


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        sys.exit(EXIT_USAGE)


def _add_config(p, makes_net=True):
    """--config and --seed, and --mode where the subcommand makes a net."""
    p.add_argument("--config", help="flat key=value config file")
    p.add_argument("--seed", type=int, default=None)
    if makes_net:
        p.add_argument("--mode", choices=["discrete", "mixed"], default=None)


def _build_transitions_args(p):
    p.add_argument("timelines")
    p.add_argument("out")


def _train_args(p):
    p.add_argument("transitions")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--history", required=True)
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--batch-size", dest="batch_size", type=int, default=None)
    p.add_argument("--validation-fraction", dest="validation_fraction", type=float, default=None)
    _add_config(p)


def _evaluate_args(p):
    p.add_argument("transitions")
    p.add_argument("checkpoint")
    p.add_argument("--report-out")
    p.add_argument("--csv-out")
    p.add_argument("--no-timestamp", action="store_true")
    _add_config(p, makes_net=False)


def _clv_args(p):
    p.add_argument("checkpoint")
    p.add_argument("--state", required=True, help="r,f,m,ir,if")
    p.add_argument("--out")


def _simulate_args(p):
    p.add_argument("--history", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--episodes", type=int, default=None)
    p.add_argument("--population", type=int, default=None)
    _add_config(p)


def _curves_args(p):
    p.add_argument("checkpoint")
    p.add_argument("--dims", required=True, help="e.g. recency or recency,frequency")
    p.add_argument("--range", required=True, help="lo:hi per dim, comma separated")
    p.add_argument("--resolution", type=int, default=50)
    p.add_argument("--reference", help="dim=value pairs for the unswept dims")
    p.add_argument("--out", required=True)


COMMANDS = {  # name -> (help, the function that adds its arguments, its handler's name)
    "build-transitions": ("timeline CSV -> transition CSV", _build_transitions_args,
                          "cmd_build_transitions"),
    "train": ("train a DQN on a transition CSV", _train_args, "cmd_train"),
    "evaluate": ("matched-vs-deviated report for a checkpoint", _evaluate_args, "cmd_evaluate"),
    "clv": ("per-action CLV for one raw state", _clv_args, "cmd_clv"),
    "simulate": ("run the autonomous loop on the synthetic population", _simulate_args,
                 "cmd_simulate"),
    "curves": ("export Q-value curves over state sweeps", _curves_args, "cmd_curves"),
}


def build_parser():
    """The parser of every subcommand."""
    parser = _Parser(prog="clvdqn", description="RFM-I deep Q-learning for direct marketing")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, add_arguments, _) in COMMANDS.items():
        add_arguments(sub.add_parser(name, help=help_text))
    return parser


class _Recorded(list):
    """Stands in for a parser in a command's _<command>_args function: it keeps each
    add_argument call as (names, settings), and builds nothing."""

    def add_argument(self, *names, **settings):
        self.append((names, settings))


_MATCHED = {"action", "choices", "default", "dest", "help", "required", "type"}  # read by _match


def _value(settings, token):
    """token under an argument's type and choices, as argparse converts and checks it."""
    value = (settings.get("type") or str)(token)
    if settings.get("choices") is not None and value not in settings["choices"]:
        raise ValueError(token)
    return value


def _match(command, args):
    """build_parser()'s Namespace for [command, *args] when args is a plain command line: each
    option by its exact string with one value that does not start with "-" (none for a
    store_true flag), the last of a repeated option winning, and each positional in order,
    with type, choices, required and defaults applied as argparse applies them. None for any
    other args, and for a command that records a setting not read here, such as nargs."""
    recorded = _Recorded()
    COMMANDS[command][1](recorded)
    namespace = argparse.Namespace(command=command)
    options, positionals, required = {}, [], set()
    for i, (names, settings) in enumerate(recorded):
        action = settings.get("action")
        if (settings.keys() - _MATCHED or action not in (None, "store_true")
                or isinstance(settings.get("default"), str)):  # argparse converts a str default
            return None
        if not names[0].startswith("-"):
            positionals.append((names[0], settings))
            continue
        dest = settings.get("dest") or (
            [n for n in names if n.startswith("--")] or names)[0].lstrip("-").replace("-", "_")
        default = settings.get("default", False if action else None)
        vars(namespace).setdefault(dest, default)  # as in argparse, a dest's first default wins
        options.update((name, (i, dest, settings)) for name in names)
        if settings.get("required"):
            required.add(i)
    tokens, given, seen = iter(args), [], set()
    try:
        for token in tokens:
            if token in options:
                i, dest, settings = options[token]
                seen.add(i)
                if settings.get("action"):
                    setattr(namespace, dest, True)
                    continue
                token = next(tokens, "-")  # a missing value goes to argparse as "-" does
                if token.startswith("-"):
                    return None
                setattr(namespace, dest, _value(settings, token))
            elif token.startswith("-"):
                return None
            else:
                given.append(token)
        if len(given) != len(positionals) or not required <= seen:
            return None
        for (dest, settings), token in zip(positionals, given):
            setattr(namespace, dest, _value(settings, token))
    except (TypeError, ValueError, argparse.ArgumentTypeError):  # what argparse reports
        return None
    return namespace


def parse_args(argv):
    """The Namespace of argv. A plain command line of a known command is matched against the
    options that its _<command>_args function records (_match), with no parser built. Any other
    argv, an error or a help request among them, goes to the full build_parser(), so every
    usage line, help text, message and exit code is argparse's."""
    namespace = _match(argv[0], argv[1:]) if argv and argv[0] in COMMANDS else None
    return build_parser().parse_args(argv) if namespace is None else namespace


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = parse_args(argv)
    try:
        globals()[COMMANDS[args.command][2]](args)  # looked up now: a patched cmd_* runs
    except TrainingDiverged as exc:
        print(f"training diverged: {exc}", file=sys.stderr)
        return EXIT_DIVERGED
    except (rfmi.DataError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (ConfigError, MemoryError) as exc:  # a bare MemoryError has no message
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_USAGE
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
