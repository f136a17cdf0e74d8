"""The one key=value reader (rfmi.key_values) and the two files read through it: a config
file (cli.load_config) and a checkpoint's .meta sidecar (qlearn.read_sidecar).

The differential tests run each reader against a line loop of its own under the rules the
file had before the two shared one grammar (oracles.load_config_lines and
oracles.read_sidecar_lines). Where such a loop accepts a text, the shared reader gives the
same settings, or refuses the text at the first line that the one grammar refuses.
"""

import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clvdqn.cli import load_config
from clvdqn.nn_core import ConfigError
from clvdqn.qlearn import TrainConfig, read_sidecar, write_sidecar
from clvdqn.rfmi import DataError, NormStats, key_values, split_lines
from oracles import load_config_lines, read_sidecar_lines


def write(path, text):
    path.write_bytes(text.encode("utf-8"))
    return path


class TestReader:
    def test_pairs_come_stripped_in_file_order(self, tmp_path):
        path = write(tmp_path / "a.cfg", "# a run\r\n\r\n  epochs = 5 \rmode=mixed\n\t\n"
                                         "bounds_lo =-1.5\nnote=a=b\n=\n#x=1\n")
        assert list(key_values(path)) == [(3, "epochs", "5"), (4, "mode", "mixed"),
                                          (6, "bounds_lo", "-1.5"), (7, "note", "a=b"),
                                          (8, "", "")]

    @pytest.mark.parametrize("text, message", [
        ("epochs=1\nstray words\n", "2: expected key=value"),
        ("  epochs\n", "1: expected key=value"),
        ("epochs=1\n# epochs=2\n\nepochs = 3\n", "4: key 'epochs' given twice"),
        ("gamma=0.9\n gamma =0.9\n", "2: key 'gamma' given twice"),
        ("=1\n=2\n", "2: key '' given twice"),
    ], ids=["bare-line", "bare-key", "repeated-key", "repeated-padded-key", "repeated-empty-key"])
    def test_a_fault_names_its_line(self, tmp_path, text, message):
        path = write(tmp_path / "a.cfg", text)
        with pytest.raises(DataError) as exc:
            list(key_values(path))
        assert str(exc.value) == f"{path}:{message}"

    def test_lines_are_read_lazily_so_the_first_fault_is_the_callers(self, tmp_path):
        path = write(tmp_path / "a.cfg", "no_such_knob=1\nepochs=1\nepochs=2\n\nstray\n")
        pairs = key_values(path)
        assert next(pairs) == (1, "no_such_knob", "1")
        assert next(pairs) == (2, "epochs", "1")
        with pytest.raises(DataError, match=r":3: key 'epochs' given twice$"):
            next(pairs)

    def test_a_byte_that_is_not_utf8_names_its_line(self, tmp_path):
        path = tmp_path / "a.cfg"
        path.write_bytes(b"epochs=1\r\nstray\r\n# caf\xe9\r\n")
        with pytest.raises(DataError) as exc:
            next(key_values(path))
        assert str(exc.value) == f"{path}:3: not UTF-8"


PADS = st.sampled_from(["", "", " ", "\t", "  ", "\x0c", "\xa0"])
ENDS = st.sampled_from(["\n", "\r\n", "\r"])
CONFIG_VALUES = {  # key: texts it may take
    "epochs": ["1", "5", "0"], "mode": ["mixed", "discrete", "discrete_only"],
    "gamma": ["0.5", "1e-1", ".9"], "seed": ["3", "0"], "bounds_lo": ["-1.5", "0"],
    "lr0": ["0.01"], "batch_size": ["20"], "population": ["7"], "episodes": ["2"],
    "validation_fraction": ["0.3"],
}
COMMENTS = ["", "#", "# a run", "#epochs=9", "# gamma = 0.5"]
FAULTS = ["stray", "gamma", "no_such_knob=1", "=", "epochs=x", "mode=mixd", "seed=-1"]


@st.composite
def pair_lines(draw, key, value):
    pads = [draw(PADS) for _ in range(4)]
    return f"{pads[0]}{key}{pads[1]}={pads[2]}{value}{pads[3]}"


@st.composite
def texts(draw, lines):
    """The lines joined by one kind of line end, with a final line end or not."""
    end = draw(ENDS)
    return end.join(lines) + (end if draw(st.booleans()) else "")


@st.composite
def config_texts(draw):
    lines = []
    for _ in range(draw(st.integers(0, 7))):
        kind = draw(st.integers(0, 9))  # 7 in 10 a setting, 2 a comment or blank, 1 a fault
        if kind < 7:
            key = draw(st.sampled_from(list(CONFIG_VALUES)))
            lines.append(draw(pair_lines(key, draw(st.sampled_from(CONFIG_VALUES[key])))))
        else:
            lines.append(draw(PADS) + draw(st.sampled_from(COMMENTS if kind < 9 else FAULTS)))
    return draw(texts(lines))


def sidecar_lines():
    """The lines of a mixed checkpoint's sidecar, as write_sidecar writes them."""
    cfg = TrainConfig(mode="mixed", gamma=0.75, seed=4, bounds_lo=-1.0, bounds_hi=1.5)
    stats = NormStats(np.arange(1.0, 6.0), np.array([0.5, 0.0, 2.0, 1.0, 3.0]), 0.25, 1.5)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "m.ckpt.meta")
        write_sidecar(path, cfg, stats)
        with open(path, encoding="utf-8") as f:
            return f.read().splitlines()


@st.composite
def sidecar_texts(draw):
    """A sidecar with its lines shuffled, some padded, some noise lines put in, and at
    times a line dropped or a value spoiled."""
    lines = draw(st.permutations(SIDECAR))
    for i in draw(st.lists(st.integers(0, len(lines) - 1), max_size=3)):
        lines[i] = draw(pair_lines(*lines[i].split("=", 1)))
    noise = COMMENTS + ["stray", "old_key=1", "gamma=0.5", "gamma =0.5", " mode= mixed",
                        "#state_mean=0"]
    for _ in range(draw(st.integers(0, 4))):
        lines.insert(draw(st.integers(0, len(lines))), draw(PADS) + draw(st.sampled_from(noise)))
    if draw(st.integers(0, 5)) == 0:
        del lines[draw(st.integers(0, len(lines) - 1))]
    if draw(st.integers(0, 5)) == 0:
        i = draw(st.integers(0, len(lines) - 1))
        lines[i] = lines[i].replace("0", "x").replace("mixed", "mixd")
    return draw(texts(lines))


def outcome(read, path):
    """("ok", what read returns) or ("error", its message)."""
    try:
        return "ok", read(path)
    except (ConfigError, DataError) as exc:
        return "error", str(exc)


def first_fault(path, text):
    """The message of the first line that the one key=value grammar refuses, and its line
    number, or None: a line with no = that is not blank or #, or a key given twice."""
    keys = set()
    for line_no, line in enumerate(split_lines(text), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            return line_no, f"{path}:{line_no}: expected key=value"
        key = line.split("=", 1)[0].strip()
        if key in keys:
            return line_no, f"{path}:{line_no}: key {key!r} given twice"
        keys.add(key)
    return None


def plain(text):
    """True where the two old rules read every line alike: each line is blank or an
    unpadded key=value that is not #."""
    for line in split_lines(text):
        key, eq, value = line.partition("=")
        if line.strip() and not (eq and key == key.strip() and value == value.strip()
                                 and not key.startswith("#")):
            return False
    return True


def same_sidecar(a, b):
    (cfg_a, stats_a), (cfg_b, stats_b) = a, b
    return cfg_a == cfg_b and all(np.array_equal(getattr(stats_a, name), getattr(stats_b, name))
                                  for name in ("state_mean", "state_std", "acont_mean",
                                               "acont_std"))


SIDECAR = sidecar_lines()


class TestDifferential:
    @settings(deadline=None, max_examples=300)
    @given(text=config_texts())
    def test_config_reads_as_its_line_loop_but_for_a_repeated_key(self, tmp_path_factory, text):
        path = write(tmp_path_factory.getbasetemp() / "run.cfg", text)
        old, new = outcome(load_config_lines, path), outcome(load_config, path)
        fault = first_fault(path, text)
        if fault is None:
            assert new == old
        else:  # the earlier of the old loop's fault and the grammar's; on one line, the grammar's
            line_no, message = fault
            earlier = old[0] == "error" and int(old[1][len(f"{path}:"):].split(":")[0]) < line_no
            assert new == (old if earlier else ("error", message))

    @settings(deadline=None, max_examples=300)
    @given(text=sidecar_texts())
    def test_sidecar_reads_as_its_line_loop_wherever_that_loop_accepts(self, tmp_path_factory,
                                                                         text):
        path = write(tmp_path_factory.getbasetemp() / "m.ckpt.meta", text)
        old, new = outcome(read_sidecar_lines, path), outcome(read_sidecar, path)
        fault = first_fault(path, text)
        if plain(text):  # no comment, padding or line without =: one verdict, one message
            assert new[0] == old[0] and (same_sidecar(new[1], old[1]) if new[0] == "ok"
                                         else new[1] == old[1])
        if old[0] == "ok":
            if fault is None:
                assert new[0] == "ok" and same_sidecar(new[1], old[1])
            else:
                assert new == ("error", fault[1])

    def test_the_unchanged_sidecar_reads_alike(self, tmp_path):
        path = write(tmp_path / "m.ckpt.meta", "\n".join(SIDECAR) + "\n")
        assert same_sidecar(read_sidecar(path), read_sidecar_lines(path))
