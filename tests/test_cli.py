import argparse
import csv
import math
import os
import struct
import subprocess
import sys
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import clvdqn
from clvdqn import cli
from clvdqn.cli import CONFIGS, default_settings, load_config, main
from clvdqn.nn_core import init_mlp, n_params
from clvdqn.qlearn import TrainConfig, load_checkpoint, network_spec, save_checkpoint
from clvdqn.rfmi import NormStats, write_transitions
from oracles import transitions_from


def write_timeline_csv(path, n_customers=20, periods=6, seed=0):
    rng = np.random.default_rng(seed)
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["customer_id", "period", "amount", "action", "acont"])
        for c in range(n_customers):
            for p in range(periods):
                action = int(rng.integers(12))
                amount = round(float(rng.uniform(0, 30)), 2) if rng.random() < 0.4 else 0.0
                writer.writerow([f"c{c}", p, amount, action if action else "", 0.0])


@pytest.fixture
def transitions_csv(tmp_path):
    tl = tmp_path / "timelines.csv"
    out = tmp_path / "transitions.csv"
    write_timeline_csv(tl)
    assert main(["build-transitions", str(tl), str(out)]) == 0
    return out


NAN = struct.pack("<d", math.nan)
N_PARAMS = n_params(network_spec("discrete_only"))  # the float64 values a weight file ends with


def zero_checkpoint(tmp_path, mode="discrete_only", **cfg):
    net = init_mlp(network_spec(mode), seed=0)
    for w in net.weights:
        w[:] = 0.0
    path = tmp_path / "zero.ckpt"
    save_checkpoint(path, net, TrainConfig(mode=mode, **cfg), NormStats.identity())
    return path


class TestBuildTransitions:
    def test_row_count(self, tmp_path, transitions_csv):
        # 20 customers x 6 periods -> 5 transitions each
        lines = transitions_csv.read_text().splitlines()
        assert lines[0] == "r,f,m,ir,if,a,acont,r2,f2,m2,ir2,if2,reward"
        assert len(lines) == 1 + 20 * 5

    def test_missing_input_is_data_error(self, tmp_path):
        assert main(["build-transitions", str(tmp_path / "nope.csv"),
                     str(tmp_path / "out.csv")]) == 2

    @pytest.mark.parametrize("row, message", [
        ("c0,1,nan,99,", "non-finite amount or acont"),
        ("c0,1,5.0,3,inf", "non-finite amount or acont"),
        ("c0,1,-5.0,,", "negative amount"),
        ("c0,1,0.0,12,", "action must be an integer in 0..11"),
        ("c0,-1,0.0,,", "negative period"),
        ("c0,0,0.0,,", "duplicate period 0"),
        ("c1,0,1.0,,", "timeline c1 needs >= 2 periods"),
        ("c1,1,0.0,3,,EXTRA", "expected 5 columns, got 6"),
        ("c1,1,0.0,3", "expected 5 columns, got 4"),
        ("c0,1,0.0,99999999999999999999,", "action must be an integer in 0..11"),
        ("c0,1_0,0.0,,", "malformed row ('_' in a number)"),
        ("c0,1,1_0.5,,", "malformed row ('_' in a number)"),
        ("c0,1,0.0,3,\u0665", "malformed row ('\u0665' in a number)"),
        pytest.param(f"c0,1,{'1' * 200_000},,", "field larger than field limit (131072)",
                     id="field-over-the-csv-limit"),
    ])
    def test_invalid_timeline_row_is_data_error(self, tmp_path, capsys, row, message):
        src = tmp_path / "bad.csv"
        src.write_text("customer_id,period,amount,action,acont\n"
                       f"c0,0,10.0,3,5.0\n{row}\nc0,2,0.0,,\n", encoding="utf-8")
        out = tmp_path / "out.csv"
        code = main(["build-transitions", str(src), str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert f"{src}:3: {message}" in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.skipif(not os.path.exists("/dev/stdin"), reason="needs /dev/stdin")
    @pytest.mark.parametrize("row, message", [
        ("c0,1,-5.0,,", "negative amount"),
        ("c1,0,1.0,,", "timeline c1 needs >= 2 periods"),
    ])
    def test_faulty_timeline_from_a_pipe_names_its_line(self, tmp_path, row, message):
        # a pipe can be read only once, so the line of a fault must come from that one pass
        out = tmp_path / "out.csv"
        script = "import sys; from clvdqn.cli import main; sys.exit(main(sys.argv[1:]))"
        proc = subprocess.run(
            [sys.executable, "-c", script, "build-transitions", "/dev/stdin", str(out)],
            input=f"customer_id,period,amount,action,acont\nc0,0,10.0,3,5.0\n{row}\nc0,2,0.0,,\n",
            capture_output=True, text=True, timeout=60,
            env={"PYTHONPATH": str(Path(clvdqn.__file__).parents[1])},
        )
        assert proc.returncode == 2
        assert f"/dev/stdin:3: {message}" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not out.exists()

    def test_line_after_a_blank_line_keeps_its_number(self, tmp_path, capsys):
        src = tmp_path / "blank.csv"
        src.write_text("customer_id,period,amount,action,acont\n"
                       "c0,0,10.0,3,5.0\n\nc0,1,-5.0,,\nc0,2,0.0,,\n")
        out = tmp_path / "out.csv"
        code = main(["build-transitions", str(src), str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert f"{src}:4: negative amount" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("text, got", [
        ("", "an empty line"),
        ("customer_id,period,amount\nc0,0,1.0\n", "customer_id,period,amount"),
    ])
    def test_bad_header_is_data_error(self, tmp_path, capsys, text, got):
        src = tmp_path / "bad.csv"
        src.write_text(text)
        assert main(["build-transitions", str(src), str(tmp_path / "out.csv")]) == 2
        assert (f"{src}:1: expected header customer_id,period,amount,action,acont, got {got}"
                in capsys.readouterr().err)


class TestTrain:
    def test_epochs_zero_writes_artifacts(self, tmp_path, transitions_csv):
        ckpt = tmp_path / "model.ckpt"
        hist = tmp_path / "history.csv"
        code = main(["train", str(transitions_csv), "--checkpoint", str(ckpt),
                     "--history", str(hist), "--epochs", "0"])
        assert code == 0
        assert ckpt.exists() and (tmp_path / "model.ckpt.meta").exists()
        assert hist.read_text().splitlines() == [
            "epoch,loss,val_response_rate,val_mean_reward,lr"
        ]
        load_checkpoint(ckpt)  # round-trips

    def test_deterministic_artifacts(self, tmp_path, transitions_csv):
        outs = []
        for tag in ("a", "b"):
            ckpt = tmp_path / f"{tag}.ckpt"
            hist = tmp_path / f"{tag}.csv"
            code = main(["train", str(transitions_csv), "--checkpoint", str(ckpt),
                         "--history", str(hist), "--epochs", "2", "--seed", "7"])
            assert code == 0
            outs.append((ckpt.read_bytes(), hist.read_bytes(),
                         (tmp_path / f"{tag}.ckpt.meta").read_bytes()))
        assert outs[0] == outs[1]

    def test_no_matched_epoch_is_logged_without_changing_outputs(self, tmp_path, capsys,
                                                                 caplog):
        # every row acted, at raw acont -1e6 or +1e6: no recommendation rounds to either
        rng = np.random.default_rng(0)
        n = 120
        data = transitions_from(rng.uniform(0, 5, (n, 5)), rng.integers(1, 12, n),
                                np.where(rng.random(n) < 0.5, -1e6, 1e6),
                                rng.uniform(0, 5, (n, 5)),
                                rng.exponential(5.0, n) * (rng.random(n) < 0.5))
        src = tmp_path / "mixed.csv"
        write_transitions(data, src)
        ckpt, hist = tmp_path / "model.ckpt", tmp_path / "history.csv"
        runs = []
        for level in ("WARNING", "CRITICAL"):  # the warning logged, then filtered out
            caplog.clear()
            with caplog.at_level(level, logger="clvdqn.qlearn"):
                assert main(["train", str(src), "--checkpoint", str(ckpt), "--history", str(hist),
                             "--epochs", "2", "--batch-size", "40", "--mode", "mixed"]) == 0
            runs.append((ckpt.read_bytes(), hist.read_bytes(), capsys.readouterr().out,
                         [r.getMessage() for r in caplog.records]))
        (*logged, messages), (*silent, none) = runs
        assert logged == silent
        assert messages == ["no epoch had a matched validation group; keeping the last trained net"]
        assert none == []
        with hist.open() as f:
            rows = list(csv.DictReader(f))
        assert len(rows) == 2 and all(math.isnan(float(r["val_mean_reward"])) for r in rows)

    @pytest.mark.parametrize("field, value, message", [
        ("a", "2.7", "action must be an integer"),
        ("a", "99", "action must be an integer"),
        ("m", "nan", "non-finite value"),
        ("reward", "inf", "non-finite value"),
        ("r", "-1.0", "negative state value"),
        ("m", "1_0", "malformed row ('_' in a number)"),
        ("reward", "\u0665", "malformed row ('\u0665' in a number)"),
        pytest.param("reward", "1" * 140_000 + "x", "field larger than field limit (131072)",
                     id="field-over-the-csv-limit"),
        pytest.param("reward", "1." + "0" * 140_000, "field larger than field limit (131072)",
                     id="valid-number-over-the-csv-limit"),
    ])
    def test_invalid_transition_row_is_data_error(self, tmp_path, transitions_csv, capsys,
                                                  field, value, message):
        lines = transitions_csv.read_text().splitlines()
        row = lines[2].split(",")
        row[lines[0].split(",").index(field)] = value
        lines[2] = ",".join(row)
        src = tmp_path / "bad.csv"
        src.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code = main(["train", str(src), "--checkpoint", str(tmp_path / "c"),
                     "--history", str(tmp_path / "h"), "--epochs", "0"])
        err = capsys.readouterr().err
        assert code == 2
        assert f"{src}:3: {message}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("text, got", [("", "an empty line"), ("r,f,m\n1,2,3\n", "r,f,m")])
    def test_bad_header_is_data_error(self, tmp_path, capsys, text, got):
        src = tmp_path / "bad.csv"
        src.write_text(text)
        assert main(["train", str(src), "--checkpoint", str(tmp_path / "c"),
                     "--history", str(tmp_path / "h"), "--epochs", "0"]) == 2
        assert (f"{src}:1: expected header r,f,m,ir,if,a,acont,r2,f2,m2,ir2,if2,reward, got {got}"
                in capsys.readouterr().err)

    def test_empty_transitions_is_data_error(self, tmp_path):
        src = tmp_path / "empty.csv"
        src.write_text("r,f,m,ir,if,a,acont,r2,f2,m2,ir2,if2,reward\n")
        assert main(["train", str(src), "--checkpoint", str(tmp_path / "c"),
                     "--history", str(tmp_path / "h"), "--epochs", "1"]) == 2

    def test_divergence_prints_one_line(self, tmp_path, transitions_csv):
        # rewards of 1e200 square to inf in the first step's loss
        lines = transitions_csv.read_text().splitlines()
        src = tmp_path / "diverging.csv"
        src.write_text("\n".join([lines[0], *(row.rsplit(",", 1)[0] + ",1e200"
                                              for row in lines[1:])]) + "\n")
        proc = subprocess.run(
            [sys.executable, "-X", "dev", "-m", "clvdqn.cli", "train", str(src), "--epochs", "2",
             "--checkpoint", str(tmp_path / "c.ckpt"), "--history", str(tmp_path / "h.csv")],
            capture_output=True, text=True, timeout=60,
            env={"PYTHONPATH": str(Path(clvdqn.__file__).parents[1])},
        )
        assert proc.returncode == 3
        assert proc.stderr == "training diverged: non-finite loss inf at epoch 0, step 0\n"

    def test_gradient_divergence_prints_one_line(self, tmp_path, capsys, monkeypatch,
                                                 transitions_csv):
        # hidden unit 0 sits at 1e308 with no outgoing weight: the loss stays finite while
        # the second layer's weight gradient overflows
        def overflowing(specs, seed):
            net = init_mlp(specs, seed)
            net.biases[0][0] = 1e308
            net.weights[1][:, 0] = 0.0
            return net

        monkeypatch.setattr(cli.qlearn, "init_mlp", overflowing)
        ckpt, hist = tmp_path / "c.ckpt", tmp_path / "h.csv"
        capsys.readouterr()  # the fixture's output
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["train", str(transitions_csv), "--epochs", "2", "--checkpoint",
                         str(ckpt), "--history", str(hist)])
        assert code == 3
        assert capsys.readouterr() == ("", "training diverged: non-finite gradient at epoch 0, "
                                           "step 0\n")
        assert not ckpt.exists() and not hist.exists()

    @pytest.mark.parametrize("mode", ["discrete", "mixed"])
    @pytest.mark.parametrize("flags, where", [
        (["--epochs", "2"], "validation Q-value"),  # 75 rows: one step per epoch
        (["--epochs", "3", "--batch-size", "20"], "loss nan"),
    ], ids=["one-step-per-epoch", "several-steps-per-epoch"])
    def test_overflowing_learning_rate_diverges_in_one_line(self, tmp_path, capsys, mode,
                                                            transitions_csv, flags, where):
        # the first step's weights of about 1e200 overflow the next Q-value: the epoch's
        # validation or the next step's
        config = tmp_path / "c.cfg"
        config.write_text("lr0=1e200\n")
        ckpt, hist = tmp_path / "c.ckpt", tmp_path / "h.csv"
        capsys.readouterr()  # the fixture's output
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["train", str(transitions_csv), *flags, "--mode", mode, "--config",
                         str(config), "--checkpoint", str(ckpt), "--history", str(hist)])
        assert code == 3
        assert capsys.readouterr() == ("", f"training diverged: non-finite {where} at epoch 0, "
                                           "step 1\n")
        assert not ckpt.exists() and not hist.exists()


class TestEvaluate:
    def test_report_and_csv(self, tmp_path, transitions_csv, capsys):
        ckpt = zero_checkpoint(tmp_path)
        report = tmp_path / "report.txt"
        rows = tmp_path / "report.csv"
        code = main(["evaluate", str(transitions_csv), str(ckpt), "--no-timestamp",
                     "--report-out", str(report), "--csv-out", str(rows)])
        assert code == 0
        text = report.read_text()
        assert text == capsys.readouterr().out
        assert "biased off-policy" in text
        csv_lines = rows.read_text().splitlines()
        assert csv_lines[0] == "group,action,n,response_rate,mean_reward"

    def test_deterministic_stdout(self, tmp_path, transitions_csv, capsys):
        ckpt = zero_checkpoint(tmp_path)
        argv = ["evaluate", str(transitions_csv), str(ckpt), "--no-timestamp"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == first


    def test_mixed_match_rounds_the_logged_acont_as_logged(self, tmp_path, capsys):
        # acont_mean 1.5 and acont_std 9.2: the logged 12.5 normalized and back reads
        # 12.500000000000002, which rounds to 13; 12.5 itself rounds to 12
        net = init_mlp(network_spec("mixed"), seed=0)
        for w in net.weights:
            w[:] = 0.0
        net.biases[-1][5] = 3.0  # action 5 at the flat net's lowest acont, raw 1.1*9.2+1.5
        ckpt = tmp_path / "mixed.ckpt"
        stats = NormStats(np.zeros(5), np.ones(5), 1.5, 9.2)
        save_checkpoint(ckpt, net, TrainConfig(mode="mixed", bounds_lo=1.1, bounds_hi=1.2), stats)
        assert round(stats.denormalize_acont(1.1)) == 12
        logged = tmp_path / "logged.csv"
        logged.write_text("r,f,m,ir,if,a,acont,r2,f2,m2,ir2,if2,reward\n"
                          "1,1,10,1,1,5,12.5,0,2,10,0,2,4.0\n")
        assert main(["evaluate", str(logged), str(ckpt), "--no-timestamp"]) == 0
        out = capsys.readouterr().out
        assert "matched               : rate=1.0000 mean_reward=4.0000 n=1" in out
        assert "deviated              : n=0 (rates undefined)" in out


class TestClv:
    def test_zero_checkpoint_gives_zero_values(self, tmp_path, capsys):
        ckpt = zero_checkpoint(tmp_path)
        assert main(["clv", str(ckpt), "--state", "3,2,15,1,4"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "action,clv,acont"
        assert len(lines) == 13
        assert all(line.split(",")[1] == "0.0" for line in lines[1:])

    def test_bad_state_is_usage_error(self, tmp_path):
        ckpt = zero_checkpoint(tmp_path)
        assert main(["clv", str(ckpt), "--state", "1,2,3"]) == 1
        assert main(["clv", str(ckpt), "--state", "1,2,x,0,0"]) == 1

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_state_is_usage_error_naming_it(self, tmp_path, capsys, value):
        state = f"1,2,{value},1,1"
        assert main(["clv", str(zero_checkpoint(tmp_path)), "--state", state]) == 1
        assert capsys.readouterr().err == f"error: bad --state value '{state}'\n"

    def test_negative_state_is_usage_error(self, tmp_path):
        ckpt = zero_checkpoint(tmp_path)
        assert main(["clv", str(ckpt), "--state", "1,-2,3,0,0"]) == 1

    @pytest.mark.parametrize("suffix, mutate, message", [
        ("", lambda b: b[:-8], "parameter bytes"),
        ("", lambda b: b + b"\0", "parameter bytes"),
        (".meta", lambda b: b.replace(b"acont_std=", b"#"), "missing key 'acont_std'"),
        (".meta", lambda b: b.replace(b"seed=0", b"seed=abc"), "bad value for 'seed'"),
        ("", lambda b: b[:-8] + struct.pack("<d", math.nan), "non-finite value in layer 2 biases"),
        ("", lambda b: b[:-200] + struct.pack("<d", -math.inf) + b[-192:],
         "non-finite value in layer 2 weights"),
        ("", lambda b: b[:-8 * N_PARAMS] + NAN + b[8 - 8 * N_PARAMS:-8] + NAN,
         "non-finite value in layer 0 weights"),
        (".meta", lambda b: b.replace(b"state_mean=0.0", b"state_mean=inf"),
         "non-finite value for 'state_mean'"),
        (".meta", lambda b: b.replace(b"gamma=0.9", b"gamma=nan"), "non-finite value for 'gamma'"),
        (".meta", lambda b: b.replace(b"state_std=1.0", b"state_std=nan"),
         "non-finite value for 'state_std'"),
        (".meta", lambda b: b.replace(b"acont_std=1.0", b"acont_std=nan"),
         "non-finite value for 'acont_std'"),
        (".meta", lambda b: b.replace(b"lr0=0.001", b"lr0=inf"), "non-finite value for 'lr0'"),
        (".meta", lambda b: b.replace(b"mode=discrete_only", b"mode=mixed"),
         "mode mixed does not match the 5-input net"),
        (".meta", lambda b: b.replace(b"bounds_lo=", b"#"), "missing key 'bounds_lo'"),
        (".meta", lambda b: b.replace(b"bounds_hi=", b"#"), "missing key 'bounds_hi'"),
        (".meta", lambda b: b.replace(b"bounds_lo=-2.0", b"bounds_lo=2.0"), "degenerate bounds"),
        (".meta", lambda b: b.replace(b"bounds_lo=-2.0", b"bounds_lo=-1e308")
         .replace(b"bounds_hi=2.0", b"bounds_hi=1e308"), "degenerate bounds"),
        (".meta", lambda b: b.replace(b"\nepochs=100\n", b"\nepochs=%d\n" % 2**64),
         "bad value for 'epochs': '18446744073709551616'"),
    ], ids=["truncated", "trailing-bytes", "no-acont-std", "bad-seed", "nan-bias", "inf-weight",
            "nan-layer-0-and-2", "inf-state-mean", "nan-gamma", "nan-state-std", "nan-acont-std",
            "inf-lr0", "mode-mismatch", "no-bounds-lo", "no-bounds-hi", "empty-bounds",
            "overflowing-bounds", "int64-overflowing-epochs"])
    def test_malformed_checkpoint_is_data_error(self, tmp_path, capsys, suffix, mutate, message):
        ckpt = zero_checkpoint(tmp_path)
        damaged = Path(str(ckpt) + suffix)
        damaged.write_bytes(mutate(damaged.read_bytes()))
        code = main(["clv", str(ckpt), "--state", "3,2,15,1,4"])
        err = capsys.readouterr().err
        assert code == 2
        assert f"{damaged}: " in err and message in err
        assert "Traceback" not in err

    def test_a_sidecar_key_given_twice_is_data_error(self, tmp_path, capsys):
        # were the last line to win, clv would read the state at a mean of 100 and exit 0
        ckpt = zero_checkpoint(tmp_path)
        meta = Path(str(ckpt) + ".meta")
        lines = meta.read_text().splitlines(keepends=True)
        meta.write_text("".join(lines) + "state_mean=100,100,100,100,100\n")
        assert main(["clv", str(ckpt), "--state", "3,2,15,1,4"]) == 2
        assert capsys.readouterr() == (
            "", f"data error: {meta}:{len(lines) + 1}: key 'state_mean' given twice\n")

    def test_a_sidecar_line_with_no_equals_sign_is_data_error(self, tmp_path, capsys):
        ckpt = zero_checkpoint(tmp_path)
        meta = Path(str(ckpt) + ".meta")
        meta.write_text(meta.read_text().replace("gamma=0.9\n", "gamma=0.9\n\nstray\n"))
        line = meta.read_text().splitlines().index("stray") + 1
        assert main(["clv", str(ckpt), "--state", "3,2,15,1,4"]) == 2
        assert capsys.readouterr() == ("", f"data error: {meta}:{line}: expected key=value\n")

    @pytest.mark.parametrize("old, new", [
        ("gamma=0.9", "gamma = 0.9"),
        ("mode=discrete_only", "\t mode =  discrete_only "),
        ("gamma=0.9", "#gamma=0.5\n#gamma=0.5\ngamma=0.9"),
        ("seed=0", "#\n# written by hand\n\nseed=0"),
    ], ids=["padded-float", "padded-mode", "commented-out-key", "comments-and-blank"])
    def test_sidecar_comments_and_spaces_read_as_the_written_sidecar(self, tmp_path, capsys,
                                                                     old, new):
        ckpt = zero_checkpoint(tmp_path)
        meta = Path(str(ckpt) + ".meta")
        _, cfg, stats = load_checkpoint(ckpt)
        assert main(["clv", str(ckpt), "--state", "3,2,15,1,4"]) == 0
        out = capsys.readouterr()
        meta.write_text(meta.read_text().replace(f"{old}\n", f"{new}\n"))
        assert new in meta.read_text()
        _, edited_cfg, edited_stats = load_checkpoint(ckpt)
        assert edited_cfg == cfg
        assert all(np.array_equal(getattr(edited_stats, k), getattr(stats, k))
                   for k in ("state_mean", "state_std", "acont_mean", "acont_std"))
        assert main(["clv", str(ckpt), "--state", "3,2,15,1,4"]) == 0
        assert capsys.readouterr() == out

    @pytest.mark.parametrize("command", ["clv", "evaluate"])
    def test_mixed_net_under_discrete_meta_is_data_error(self, tmp_path, capsys, transitions_csv,
                                                         command):
        ckpt = zero_checkpoint(tmp_path, mode="mixed")
        meta = Path(str(ckpt) + ".meta")
        meta.write_text(meta.read_text().replace("mode=mixed", "mode=discrete_only"))
        argv = {"clv": ["clv", str(ckpt), "--state", "3,2,15,1,4"],
                "evaluate": ["evaluate", str(transitions_csv), str(ckpt)]}[command]
        code = main(argv)
        err = capsys.readouterr().err
        assert code == 2
        assert f"{meta}: mode discrete_only does not match the 6-input net in {ckpt}" in err
        assert "Traceback" not in err

    def test_mixed_acont_comes_from_checkpoint_bounds(self, tmp_path, capsys):
        # a zero net is flat in acont, so every acted action sits at the lower bound
        ckpt = zero_checkpoint(tmp_path, mode="mixed", bounds_lo=0.5, bounds_hi=0.75)
        assert main(["clv", str(ckpt), "--state", "3,2,15,1,4"]) == 0
        rows = list(csv.reader(capsys.readouterr().out.splitlines()))[1:]
        assert [float(r[2]) for r in rows] == [0.0] + [0.5] * 11

    def test_out_file_is_closed(self, tmp_path):
        ckpt = zero_checkpoint(tmp_path)
        out = tmp_path / "clv.csv"
        script = "import sys; from clvdqn.cli import main; sys.exit(main(sys.argv[1:]))"
        proc = subprocess.run(
            [sys.executable, "-X", "dev", "-W", "error::ResourceWarning", "-c", script,
             "clv", str(ckpt), "--state", "3,2,15,1,4", "--out", str(out)],
            capture_output=True, text=True, timeout=60,
            env={"PYTHONPATH": str(Path(clvdqn.__file__).parents[1])},
        )
        assert proc.returncode == 0
        assert proc.stderr == ""
        assert len(out.read_text().splitlines()) == 13


class TestCurves:
    def test_export(self, tmp_path):
        ckpt = zero_checkpoint(tmp_path)
        out = tmp_path / "curves.csv"
        code = main(["curves", str(ckpt), "--dims", "recency", "--range", "0:10",
                     "--resolution", "9", "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("recency,q0,")
        assert len(lines) == 10

    def test_unknown_dim_is_usage_error(self, tmp_path):
        ckpt = zero_checkpoint(tmp_path)
        assert main(["curves", str(ckpt), "--dims", "bogus", "--range", "0:1",
                     "--out", str(tmp_path / "c.csv")]) == 1

    @pytest.mark.parametrize("flags, message", [
        (["--reference", "frequency=abc"], "bad --reference value 'frequency=abc'"),
        (["--reference", "frequency"], "bad --reference value 'frequency'"),
        (["--range", "0:x"], "bad --range value '0:x'"),
        (["--resolution", "-1"], "--resolution must be >= 1, got -1"),
        (["--resolution", "0"], "--resolution must be >= 1, got 0"),
        (["--dims", "recency,recency", "--range", "0:1,5:6"],
         "bad --dims value 'recency,recency': state dimension 'recency' swept twice"),
        (["--range", "0:nan"], "bad --range value '0:nan': non-finite value nan"),
        (["--range=-inf:1"], "bad --range value '-inf:1': non-finite value -inf"),
        (["--reference", "frequency=inf"],
         "bad --reference value 'frequency=inf': non-finite value inf"),
        (["--reference", "bogus=1"], "bad --reference value 'bogus=1': unknown state dimension"),
        (["--reference", "recency=5"],
         "bad --reference value 'recency=5': state dimension 'recency' is swept, not fixed"),
        (["--reference", "monetary=5,monetary=7"],
         "bad --reference value 'monetary=5,monetary=7': 'monetary' given twice"),
    ])
    def test_bad_flag_is_usage_error_naming_it(self, tmp_path, capsys, flags, message):
        out = tmp_path / "c.csv"
        argv = ["curves", str(zero_checkpoint(tmp_path)), "--dims", "recency", "--range", "0:1",
                "--out", str(out)]
        assert main(argv + flags) == 1
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err
        assert not out.exists()


class TestSimulate:
    def test_small_run(self, tmp_path):
        hist = tmp_path / "sim.csv"
        ckpt = tmp_path / "sim.ckpt"
        code = main(["simulate", "--history", str(hist), "--checkpoint", str(ckpt),
                     "--population", "5", "--episodes", "3", "--seed", "1"])
        assert code == 0
        assert len(hist.read_text().splitlines()) == 4
        load_checkpoint(ckpt)

    def test_config_bounds_reach_the_checkpoint(self, tmp_path):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text("mode=mixed\nbounds_lo=3.0\nbounds_hi=4.0\n")
        ckpt = tmp_path / "sim.ckpt"
        code = main(["simulate", "--history", str(tmp_path / "sim.csv"), "--checkpoint",
                     str(ckpt), "--population", "5", "--episodes", "3", "--config", str(cfg)])
        assert code == 0
        meta = (tmp_path / "sim.ckpt.meta").read_text().splitlines()
        assert {"mode=mixed", "bounds_lo=3.0", "bounds_hi=4.0"} <= set(meta)


NON_DEFAULTS = {  # key: (text in a config file, value it sets)
    "mode": ("mixed", "mixed"), "gamma": ("0.8", 0.8), "lr0": ("0.002", 0.002),
    "lr_decay_per_epoch": ("0.95", 0.95), "batch_size": ("50", 50), "epochs": ("2", 2),
    "target_clone_period": ("7", 7), "seed": ("5", 5), "validation_fraction": ("0.3", 0.3),
    "bounds_lo": ("-1.5", -1.5), "bounds_hi": ("1.25", 1.25), "population": ("42", 42),
    "episodes": ("12", 12), "epsilon_floor": ("0.1", 0.1), "epsilon_decay": ("0.9", 0.9),
    "train_every": ("3", 3), "steps_per_burst": ("20", 20), "base_rate": ("0.1", 0.1),
    "fatigue_coeff": ("0.001", 0.001), "recency_decay": ("0.003", 0.003),
    "thankyou_boost": ("0.4", 0.4), "thankyou_action": ("4", 4), "amount_mean": ("12.5", 12.5),
}


class TestConfigFile:
    def test_every_key_reaches_the_config_that_uses_it(self, tmp_path, transitions_csv,
                                                       monkeypatch):
        path = tmp_path / "run.cfg"
        path.write_text("".join(f"{key}={text}\n" for key, (text, _) in NON_DEFAULTS.items()))
        defaults = default_settings()
        assert set(NON_DEFAULTS) == set(defaults) and len(defaults) == 23
        assert all(value != defaults[key] for key, (_, value) in NON_DEFAULTS.items())

        class Stop(Exception):
            pass

        seen = {}

        def record(name, then=None):
            def call(*args):
                seen[name] = args
                if then is None:
                    raise Stop
                return then(*args)
            return call

        monkeypatch.setattr(cli, "_split", record("split", cli._split))
        monkeypatch.setattr(cli.qlearn, "train", record("train"))
        monkeypatch.setattr(cli.env_mod, "run_autonomous", record("simulate"))
        for argv in (["train", str(transitions_csv), "--checkpoint", str(tmp_path / "c"),
                      "--history", str(tmp_path / "h")],
                     ["simulate", "--checkpoint", str(tmp_path / "c"), "--history",
                      str(tmp_path / "h")]):
            with pytest.raises(Stop):
                main(argv + ["--config", str(path)])
        population, model, agent, train_config = seen["simulate"]
        assert train_config == seen["train"][2]  # train and simulate make one TrainConfig
        _, fraction, split_seed = seen["split"]
        assert (population, fraction, split_seed) == (42, 0.3, 5)
        used = {"population", "validation_fraction"}
        for config, cls in zip((train_config, model, agent), CONFIGS):
            assert type(config) is cls
            for f in fields(config):
                if f.name in NON_DEFAULTS:
                    assert getattr(config, f.name) == NON_DEFAULTS[f.name][1], f.name
                    used.add(f.name)
        assert used == set(NON_DEFAULTS)

    def test_comments_and_blanks_ignored(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("# comment\n\nepochs=3\n")
        assert load_config(path)["epochs"] == 3

    def test_unknown_key_is_usage_error(self, tmp_path, transitions_csv):
        path = tmp_path / "run.cfg"
        path.write_text("no_such_knob=1\n")
        assert main(["train", str(transitions_csv), "--checkpoint", str(tmp_path / "c"),
                     "--history", str(tmp_path / "h"), "--config", str(path)]) == 1

    @pytest.mark.parametrize("text, message", [
        ("epochs=1\nepochs=5\n", "2: key 'epochs' given twice"),
        ("epochs=1\n# a run\n\n  epochs = 5\n", "4: key 'epochs' given twice"),
        ("no_such_knob=1\nepochs=1\n\nstray\n", "1: unknown config key 'no_such_knob'"),
        ("epochs=1\nstray\nepochs=2\n", "2: expected key=value"),
        ("epochs=x\nepochs=1\n", "1: bad value for 'epochs'"),
        ("epochs=1\nepochs=x\n", "2: key 'epochs' given twice"),
    ], ids=["repeated-key", "repeated-padded-key", "unknown-key-before-a-bare-line",
            "bare-line-before-a-repeated-key", "bad-value-before-a-repeated-key",
            "repeated-key-with-a-bad-value"])
    def test_the_first_fault_in_file_order_is_a_usage_error(self, tmp_path, capsys,
                                                            transitions_csv, text, message):
        path = tmp_path / "run.cfg"
        path.write_text(text)
        ckpt = tmp_path / "c.ckpt"
        capsys.readouterr()  # the fixture's output
        assert main(["train", str(transitions_csv), "--checkpoint", str(ckpt),
                     "--history", str(tmp_path / "h"), "--config", str(path)]) == 1
        assert capsys.readouterr() == ("", f"error: {path}:{message}\n")
        assert not ckpt.exists()

    @pytest.mark.parametrize("key", ["threads", "restarts", "opt_steps", "step_size", "n_discrete"])
    def test_threads_key_and_flag_are_gone(self, tmp_path, transitions_csv, key):
        path = tmp_path / "run.cfg"
        path.write_text(f"{key}=1\n")
        argv = ["train", str(transitions_csv), "--checkpoint", str(tmp_path / "c"),
                "--history", str(tmp_path / "h")]
        assert main(argv + ["--config", str(path)]) == 1
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--" + key.replace("_", "-"), "1"])
        assert exc.value.code == 1

    def test_unknown_mode_is_usage_error(self, tmp_path, transitions_csv, capsys):
        path = tmp_path / "run.cfg"
        path.write_text("epochs=1\nmode=mixd\n")
        code = main(["train", str(transitions_csv), "--checkpoint", str(tmp_path / "c"),
                     "--history", str(tmp_path / "h"), "--config", str(path)])
        assert code == 1
        assert f"{path}:2: bad value for 'mode'" in capsys.readouterr().err
        assert not (tmp_path / "c").exists()

    @pytest.mark.parametrize("spelling, mode", [("discrete", "discrete_only"),
                                                ("discrete_only", "discrete_only"),
                                                ("mixed", "mixed")])
    def test_mode_spellings(self, tmp_path, spelling, mode):
        path = tmp_path / "run.cfg"
        path.write_text(f"mode={spelling}\n")
        assert load_config(path)["mode"] == mode

    def test_flag_overrides_config(self, tmp_path, transitions_csv):
        path = tmp_path / "run.cfg"
        path.write_text("epochs=50\n")
        ckpt = tmp_path / "model.ckpt"
        hist = tmp_path / "history.csv"
        code = main(["train", str(transitions_csv), "--config", str(path),
                     "--checkpoint", str(ckpt), "--history", str(hist), "--epochs", "1"])
        assert code == 0
        assert len(hist.read_text().splitlines()) == 2  # header + 1 epoch


class TestFaultsExitWithoutTraceback:
    @pytest.mark.parametrize("kind, eol", [
        ("timelines", "\n"), ("timelines", "\r\n"), ("timelines", "\r"),
        ("transitions", "\r\n"), ("sidecar", "\n"), ("config", "\n"),
    ])
    def test_non_utf8_file_names_its_line(self, tmp_path, capsys, transitions_csv, kind, eol):
        # the Latin-1 byte \xe9 on line 3 of each file; a config file is a usage error
        bad = tmp_path / "bad"
        if kind == "timelines":
            lines = ["customer_id,period,amount,action,acont", "c0,0,1.0,,", "c\xe9,0,1.0,,",
                     "c\xe9,1,0.0,,", "c0,1,0.0,,"]
            bad.write_bytes(eol.join(lines).encode("latin-1") + eol.encode())
            argv, code = ["build-transitions", str(bad), str(tmp_path / "out.csv")], 2
        elif kind in ("transitions", "sidecar"):
            ckpt = zero_checkpoint(tmp_path)
            if kind == "sidecar":
                source = bad = Path(str(ckpt) + ".meta")
                argv = ["clv", str(ckpt), "--state", "3,2,15,1,4"]
            else:
                source, argv = transitions_csv, ["evaluate", str(bad), str(ckpt)]
            lines = source.read_bytes().split(eol.encode())
            lines[2] += b"\xe9"
            bad.write_bytes(eol.encode().join(lines))
            code = 2
        else:
            bad.write_bytes(b"population=5\nepisodes=3\n# caf\xe9\n")
            argv = ["simulate", "--history", str(tmp_path / "h"), "--checkpoint",
                    str(tmp_path / "c"), "--config", str(bad)]
            code = 1
        assert main(argv) == code
        err = capsys.readouterr().err
        assert f"{bad}:3: not UTF-8" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out.csv").exists() and not (tmp_path / "h").exists()

    @pytest.mark.parametrize("periods, line", [((0, 10**20), 3), ((10**20, 0, 1), 2),
                                               ((0, 1, 2**63 - 1), 4)],
                             ids=["last-row", "first-row", "int64-max"])
    def test_period_too_large_for_the_grid_names_its_line(self, tmp_path, capsys, periods,
                                                          line):
        src = tmp_path / "huge.csv"
        src.write_text("customer_id,period,amount,action,acont\n"
                       + "".join(f"c0,{p},0.0,,\n" for p in periods))
        out = tmp_path / "out.csv"
        assert main(["build-transitions", str(src), str(out)]) == 2
        err = capsys.readouterr().err
        assert f"{src}:{line}: period too large" in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("settings, flags, message", [
        ("train_every=0", [], "train_every must be >= 1, got 0"),
        ("train_every=1\nbatch_size=5\nsteps_per_burst=-1", [],
         "steps_per_burst must be >= 0, got -1"),
        ("", ["--population", "0"], "population must contain at least one customer"),
        ("population=-3", [], "population must contain at least one customer"),
        ("episodes=-2", [], "episodes must be >= 0, got -2"),
        ("", ["--episodes", "-2"], "episodes must be >= 0, got -2"),
        ("thankyou_action=40", [], "thankyou_action must be in 0..11, got 40"),
        ("amount_mean=-1", [], "amount_mean must be finite and >= 0, got -1.0"),
        ("base_rate=nan", [], "the response rates, effects and coefficients must be finite"),
        ("epsilon_decay=inf", [], "epsilon0, epsilon_floor and epsilon_decay must be finite"),
    ], ids=["train_every-0", "steps_per_burst-negative", "population-flag-0",
            "population-negative", "episodes-negative", "episodes-flag-negative",
            "thankyou_action-40", "amount_mean-negative", "base_rate-nan", "epsilon_decay-inf"])
    def test_bad_simulator_setting_is_usage_error(self, tmp_path, capsys, settings, flags,
                                                  message):
        # a small run, unless the setting under test is one of its two keys: a key given
        # twice is an error of its own
        given = {line.partition("=")[0] for line in settings.splitlines()}
        small = "".join(f"{key}={value}\n" for key, value in (("population", 5), ("episodes", 3))
                        if key not in given)
        cfg = tmp_path / "sim.cfg"
        cfg.write_text(f"{small}{settings}\n")
        hist = tmp_path / "sim.csv"
        code = main(["simulate", "--history", str(hist), "--checkpoint", str(tmp_path / "c"),
                     "--config", str(cfg)] + flags)
        err = capsys.readouterr().err
        assert code == 1
        assert f"error: {message}" in err
        assert "Traceback" not in err
        assert not hist.exists()


    @pytest.mark.parametrize("command, settings, flags, message", [
        ("train", "lr0=nan", [], "lr0 must be finite and > 0, got nan"),
        ("train", "lr0=inf", [], "lr0 must be finite and > 0, got inf"),
        ("train", "lr0=0", [], "lr0 must be finite and > 0, got 0.0"),
        ("simulate", "lr0=nan", [], "lr0 must be finite and > 0, got nan"),
        ("simulate", "lr0=inf", [], "lr0 must be finite and > 0, got inf"),
        ("train", "validation_fraction=nan", [], "validation_fraction must be in (0,1), got nan"),
        ("train", "validation_fraction=0", [], "validation_fraction must be in (0,1), got 0.0"),
        ("train", "validation_fraction=1", [], "validation_fraction must be in (0,1), got 1.0"),
        ("train", "validation_fraction=1.5", [], "validation_fraction must be in (0,1), got 1.5"),
        ("train", "validation_fraction=-0.5", [],
         "validation_fraction must be in (0,1), got -0.5"),
        ("train", "", ["--validation-fraction", "nan"],
         "validation_fraction must be in (0,1), got nan"),
        ("train", "", ["--validation-fraction", "1"], "validation_fraction must be in (0,1), got 1.0"),
    ], ids=["train-lr0-nan", "train-lr0-inf", "train-lr0-0", "simulate-lr0-nan",
            "simulate-lr0-inf", "fraction-nan", "fraction-0", "fraction-1", "fraction-1.5",
            "fraction-negative", "fraction-flag-nan", "fraction-flag-1"])
    def test_bad_learning_setting_is_usage_error(self, tmp_path, capsys, transitions_csv, command,
                                                 settings, flags, message):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{settings}\n")
        ckpt, hist = tmp_path / "c.ckpt", tmp_path / "h.csv"
        outputs = ["--checkpoint", str(ckpt), "--history", str(hist), "--config", str(cfg)]
        if command == "train":
            argv = ["train", str(transitions_csv), "--epochs", "1"]
        else:
            argv = ["simulate", "--population", "5", "--episodes", "3"]
        code = main(argv + outputs + flags)
        err = capsys.readouterr().err
        assert code == 1
        assert f"error: {message}" in err
        assert "Traceback" not in err
        assert not ckpt.exists() and not hist.exists()

    @pytest.mark.parametrize("case", ["clv-checkpoint", "evaluate-checkpoint", "clv-out",
                                      "train-history", "evaluate-report-out"])
    def test_path_that_is_a_directory_is_data_error(self, tmp_path, capsys, transitions_csv,
                                                    case):
        folder = tmp_path / "folder"
        folder.mkdir()
        ckpt = folder if case.endswith("-checkpoint") else zero_checkpoint(tmp_path)
        argv = {
            "clv-checkpoint": ["clv", str(ckpt), "--state", "3,2,15,1,4"],
            "evaluate-checkpoint": ["evaluate", str(transitions_csv), str(ckpt)],
            "clv-out": ["clv", str(ckpt), "--state", "3,2,15,1,4", "--out", str(folder)],
            "train-history": ["train", str(transitions_csv), "--epochs", "1", "--checkpoint",
                              str(tmp_path / "c.ckpt"), "--history", str(folder)],
            "evaluate-report-out": ["evaluate", str(transitions_csv), str(ckpt),
                                    "--report-out", str(folder)],
        }[case]
        code = main(argv)
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("data error: ") and err.count("\n") == 1
        assert str(folder) in err

    @pytest.mark.parametrize("command", ["train", "simulate"])
    @pytest.mark.parametrize("fault", ["history-is-a-directory",
                                       "checkpoint-in-a-missing-directory"])
    def test_bad_output_path_fails_before_any_work(self, tmp_path, capsys, monkeypatch,
                                                   transitions_csv, command, fault):
        worked = []
        monkeypatch.setattr(cli.qlearn, "train", lambda *a: worked.append("train"))
        monkeypatch.setattr(cli.env_mod, "run_autonomous", lambda *a: worked.append("simulate"))
        (tmp_path / "folder").mkdir()
        if fault == "history-is-a-directory":
            ckpt, hist = tmp_path / "c.ckpt", tmp_path / "folder"
            bad, reason = hist, "[Errno 21] Is a directory"
        else:
            ckpt, hist = tmp_path / "missing" / "c.ckpt", tmp_path / "h.csv"
            bad, reason = ckpt, "[Errno 2] No such file or directory"
        outputs = ["--checkpoint", str(ckpt), "--history", str(hist)]
        argv = (["train", str(transitions_csv), "--epochs", "1"] if command == "train"
                else ["simulate", "--population", "5", "--episodes", "3"])
        before = sorted(tmp_path.rglob("*"))
        assert main(argv + outputs) == 2
        assert capsys.readouterr().err == f"data error: {reason}: '{bad}'\n"
        assert worked == []
        assert sorted(tmp_path.rglob("*")) == before

    @pytest.mark.parametrize("command", ["build-transitions", "clv", "curves"])
    def test_output_path_is_checked_before_any_work(self, tmp_path, capsys, monkeypatch,
                                                    command):
        worked = []
        monkeypatch.setattr(cli.rfmi, "read_timelines", lambda *a: worked.append("read"))
        monkeypatch.setattr(cli.qlearn, "load_checkpoint", lambda *a: worked.append("load"))
        monkeypatch.setattr(cli.policy_eval, "export_value_curves",
                            lambda *a: worked.append("export"))
        out = tmp_path / "missing" / "o.csv"
        argv = {
            "build-transitions": ["build-transitions", "t.csv", str(out)],
            "clv": ["clv", "c.ckpt", "--state", "3,2,15,1,4", "--out", str(out)],
            "curves": ["curves", "c.ckpt", "--dims", "recency,frequency", "--range", "0:1,0:1",
                       "--resolution", "1000", "--out", str(out)],
        }[command]
        assert main(argv) == 2
        assert capsys.readouterr() == (
            "", f"data error: [Errno 2] No such file or directory: '{out}'\n")
        assert worked == []
        assert not out.parent.exists()

    # case: (argv, and the one stderr line), with {name} a path in the test's directory
    COLLISIONS = {
        "build-transitions": (["build-transitions", "{timelines}", "{timelines}"],
                              "output '{timelines}' names the same file as input '{timelines}'"),
        "train": (["train", "{transitions}", "--checkpoint", "{new}", "--history", "{new}"],
                  "output '{new}' names the same file as output '{new}'"),
        "train-sidecar": (["train", "{transitions}", "--checkpoint", "{new}", "--history",
                           "{new}.meta"],
                          "output '{new}.meta' names the same file as output '{new}.meta'"),
        "train-config": (["train", "{transitions}", "--config", "{config}", "--checkpoint",
                          "{new}", "--history", "{config}"],
                         "output '{config}' names the same file as input '{config}'"),
        "train-spelled-otherwise": (["train", "{transitions}", "--checkpoint", "{new}",
                                     "--history", "{folder}/../new.ckpt"],
                                    "output '{folder}/../new.ckpt' names the same file as "
                                    "output '{new}'"),
        "evaluate": (["evaluate", "{transitions}", "{ckpt}", "--report-out", "{new}",
                      "--csv-out", "{new}"],
                     "output '{new}' names the same file as output '{new}'"),
        "evaluate-input": (["evaluate", "{transitions}", "{ckpt}", "--csv-out", "{transitions}"],
                           "output '{transitions}' names the same file as input "
                           "'{transitions}'"),
        "clv": (["clv", "{ckpt}", "--state", "3,2,15,1,4", "--out", "{ckpt}.meta"],
                "output '{ckpt}.meta' names the same file as input '{ckpt}.meta'"),
        "simulate": (["simulate", "--population", "5", "--episodes", "3", "--checkpoint",
                      "{new}", "--history", "{new}"],
                     "output '{new}' names the same file as output '{new}'"),
        "curves-through-a-link": (["curves", "{ckpt}", "--dims", "recency", "--range", "0:1",
                                   "--out", "{link}"],
                                  "output '{link}' names the same file as input '{ckpt}'"),
    }

    @pytest.mark.parametrize("case", list(COLLISIONS))
    def test_an_output_naming_another_path_is_usage_error(self, tmp_path, capsys, monkeypatch,
                                                          transitions_csv, case):
        worked = []
        for module, name in ((cli.rfmi, "read_timelines"), (cli.rfmi, "read_transitions"),
                             (cli.qlearn, "load_checkpoint"), (cli.qlearn, "train"),
                             (cli.env_mod, "run_autonomous"),
                             (cli.policy_eval, "export_value_curves")):
            monkeypatch.setattr(module, name, lambda *a, name=name: worked.append(name))
        (tmp_path / "folder").mkdir()
        (tmp_path / "run.cfg").write_text("epochs=1\n")
        (tmp_path / "link").symlink_to(zero_checkpoint(tmp_path))
        names = {name: str(tmp_path / file) for name, file in (
            ("timelines", "timelines.csv"), ("transitions", "transitions.csv"),
            ("ckpt", "zero.ckpt"), ("config", "run.cfg"), ("new", "new.ckpt"),
            ("folder", "folder"), ("link", "link"))}
        argv, message = self.COLLISIONS[case]
        before = {path: path.read_bytes() for path in tmp_path.rglob("*") if path.is_file()}
        capsys.readouterr()  # the fixture's output
        assert main([arg.format(**names) for arg in argv]) == 1
        assert capsys.readouterr() == ("", f"error: {message.format(**names)}\n")
        assert worked == []
        assert {path: path.read_bytes() for path in tmp_path.rglob("*") if path.is_file()} == before

    def test_dev_null_given_twice_is_no_collision(self, tmp_path, capsys, transitions_csv):
        capsys.readouterr()  # the fixture's output
        assert main(["evaluate", str(transitions_csv), str(zero_checkpoint(tmp_path)),
                     "--no-timestamp", "--report-out", os.devnull, "--csv-out", os.devnull]) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("command", ["train", "evaluate", "simulate"])
    @pytest.mark.parametrize("source", ["flag", "config"])
    @pytest.mark.parametrize("seed", [-1, 2**63])
    def test_seed_out_of_range_is_usage_error(self, tmp_path, capsys, transitions_csv, command,
                                              source, seed):
        # a checkpoint's sidecar keeps the seed as an int64, so 2**63 would write a checkpoint
        # that no command can read
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"seed={seed}\n" if source == "config" else "")
        ckpt, hist = tmp_path / "c.ckpt", tmp_path / "h.csv"
        argv = {
            "train": ["train", str(transitions_csv), "--epochs", "1", "--checkpoint", str(ckpt),
                      "--history", str(hist)],
            "evaluate": ["evaluate", str(transitions_csv), str(zero_checkpoint(tmp_path)),
                         "--report-out", str(hist)],
            "simulate": ["simulate", "--population", "5", "--episodes", "3", "--checkpoint",
                         str(ckpt), "--history", str(hist)],
        }[command] + ["--config", str(cfg)] + (["--seed", str(seed)] if source == "flag" else [])
        assert main(argv) == 1
        assert capsys.readouterr().err == f"error: seed must be in [0, 2**63), got {seed}\n"
        assert not ckpt.exists() and not hist.exists()

    def test_largest_seed_writes_a_readable_checkpoint(self, tmp_path, capsys, transitions_csv):
        ckpt = tmp_path / "c.ckpt"
        assert main(["train", str(transitions_csv), "--epochs", "1", "--checkpoint", str(ckpt),
                     "--history", str(tmp_path / "h.csv"), "--seed", str(2**63 - 1)]) == 0
        assert f"seed={2**63 - 1}\n" in (tmp_path / "c.ckpt.meta").read_text()
        assert main(["clv", str(ckpt), "--state", "3,2,15,1,4"]) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("command, settings, flags, key", [
        ("train", "", ["--batch-size", str(10**19)], "batch_size"),
        ("train", f"batch_size={10**19}", [], "batch_size"),
        ("simulate", f"train_every=1\nbatch_size=5\nsteps_per_burst={10**19}", [],
         "steps_per_burst"),
        ("simulate", "", ["--population", str(10**19)], "population"),
        ("curves", "", ["--resolution", str(10**19)], "--resolution"),
        ("curves-2d", "", ["--resolution", str(10**19)], "--resolution"),
        # sizes that fit a numpy dimension but not cli.MAX_SIZE: numpy refuses 16 EB of int64
        # draws and a 40 EB state grid before it allocates
        ("train", "", ["--batch-size", str(2 * 10**18)], "batch_size"),
        ("simulate", "", ["--population", str(10**18)], "population"),
        ("curves-2d", "", ["--resolution", str(10**8)], "--resolution"),
    ], ids=["train-batch-size-flag", "train-batch-size", "steps_per_burst",
            "population-flag", "curves-resolution", "curves-2d-resolution",
            "train-batch-size-too-many-bytes", "population-too-many-bytes",
            "curves-2d-too-many-bytes"])
    def test_size_beyond_a_numpy_dimension_is_usage_error(self, tmp_path, capsys,
                                                          transitions_csv, command, settings,
                                                          flags, key):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{settings}\n")
        ckpt, out = tmp_path / "c.ckpt", tmp_path / "out.csv"
        argv = {
            "train": ["train", str(transitions_csv), "--epochs", "1", "--checkpoint", str(ckpt),
                      "--history", str(out), "--config", str(cfg)],
            "simulate": ["simulate", "--population", "5", "--episodes", "3", "--checkpoint",
                         str(ckpt), "--history", str(out), "--config", str(cfg)],
            "curves": ["curves", str(zero_checkpoint(tmp_path)), "--dims", "recency",
                       "--range", "0:1", "--out", str(out)],
            "curves-2d": ["curves", str(zero_checkpoint(tmp_path)), "--dims",
                          "recency,frequency", "--range", "0:1,0:1", "--out", str(out)],
        }[command] + flags
        capsys.readouterr()  # the fixture's output
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {key} ") and err.count("\n") == 1
        assert not ckpt.exists() and not out.exists()

    @pytest.mark.parametrize("mode", ["discrete", "mixed"])
    @pytest.mark.parametrize("command, settings, column, code, message", [
        ("train", "", 2, 2, "data error: monetary is too large to normalize: its mean or std is "
                            "not finite"),
        ("train", "", 6, 2, "data error: acont is too large to normalize: its mean or std is "
                            "not finite"),
        ("train", "bounds_lo=-1e308\nbounds_hi=1e308", None, 1,
         "error: degenerate bounds (-1e+308, 1e+308): need 0 < hi - lo < inf"),
        ("simulate", "bounds_lo=-1e308\nbounds_hi=1e308", None, 1,
         "error: degenerate bounds (-1e+308, 1e+308): need 0 < hi - lo < inf"),
    ], ids=["huge-monetary", "huge-acont", "train-overflowing-bounds",
            "simulate-overflowing-bounds"])
    def test_value_too_large_to_use_ends_in_one_line(self, tmp_path, capsys, transitions_csv,
                                                     mode, command, settings, column, code,
                                                     message):
        # column: the transitions column that gets 1e200 on the first row acting on a donor
        if column is not None:
            lines = transitions_csv.read_text().splitlines()
            row = next(i for i, line in enumerate(lines[1:], 1) if line.split(",")[5] != "0")
            cells = lines[row].split(",")
            cells[column] = "1e200"
            lines[row] = ",".join(cells)
            transitions_csv.write_text("\n".join(lines) + "\n")
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{settings}\n")
        ckpt, hist = tmp_path / "c.ckpt", tmp_path / "h.csv"
        argv = {
            "train": ["train", str(transitions_csv), "--epochs", "1"],
            "simulate": ["simulate", "--population", "5", "--episodes", "3"],
        }[command] + ["--mode", mode, "--config", str(cfg), "--checkpoint", str(ckpt),
                      "--history", str(hist)]
        capsys.readouterr()  # the fixture's output
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv) == code
        assert capsys.readouterr().err == f"{message}\n"
        assert not ckpt.exists() and not hist.exists()

    @pytest.mark.parametrize("bound", ["1e100", "1e200"])
    def test_explored_aconts_too_large_to_normalize_are_data_error(self, tmp_path, capsys,
                                                                  bound):
        # each burst's acont std scales the next explored aconts, until their squares overflow
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"bounds_lo=-{bound}\nbounds_hi={bound}\nsteps_per_burst=5\n"
                       "batch_size=20\n")
        ckpt, hist = tmp_path / "c.ckpt", tmp_path / "h.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["simulate", "--mode", "mixed", "--population", "20", "--episodes", "12",
                         "--config", str(cfg), "--checkpoint", str(ckpt), "--history", str(hist)])
        assert code == 2
        assert capsys.readouterr().err == ("data error: acont is too large to normalize: its "
                                           "mean or std is not finite\n")
        assert not ckpt.exists() and not hist.exists()

    @pytest.mark.parametrize("message", ["Unable to allocate 7.28 TiB for an array with shape "
                                         "(1000000000000, 1) and data type float64", ""])
    @pytest.mark.parametrize("command", ["train", "curves"])
    def test_out_of_memory_is_usage_error(self, tmp_path, capsys, monkeypatch, transitions_csv,
                                          command, message):
        def allocate(*args):
            raise MemoryError(message)

        monkeypatch.setattr(cli.qlearn, "train", allocate)
        monkeypatch.setattr(cli.policy_eval, "export_value_curves", allocate)
        ckpt, out = tmp_path / "c.ckpt", tmp_path / "out.csv"
        argv = {
            "train": ["train", str(transitions_csv), "--checkpoint", str(ckpt), "--history",
                      str(out)],
            "curves": ["curves", str(zero_checkpoint(tmp_path)), "--dims", "recency,frequency",
                       "--range", "0:1,0:1", "--resolution", "1000000", "--out", str(out)],
        }[command]
        capsys.readouterr()  # the fixture's output
        assert main(argv) == 1
        assert capsys.readouterr() == ("", f"error: {message or 'out of memory'}\n")
        assert not out.exists() and not ckpt.exists()

    def test_evaluate_checks_both_output_paths_before_any_work(self, tmp_path, capsys,
                                                              transitions_csv):
        (tmp_path / "ev").mkdir()
        (tmp_path / "outdir").mkdir()
        report = tmp_path / "ev" / "r.txt"
        capsys.readouterr()  # the fixture's output
        code = main(["evaluate", str(transitions_csv), str(zero_checkpoint(tmp_path)),
                     "--report-out", str(report), "--csv-out", str(tmp_path / "outdir")])
        out, err = capsys.readouterr()
        assert code == 2
        assert err == f"data error: [Errno 21] Is a directory: '{tmp_path / 'outdir'}'\n"
        assert out == ""
        assert not report.exists()

    @pytest.mark.parametrize("command", ["evaluate", "clv", "curves"])
    @pytest.mark.parametrize("mode", ["discrete_only", "mixed"])
    def test_overflowing_network_is_usage_error(self, tmp_path, capsys, transitions_csv, mode,
                                                command):
        # finite weights of +-1e300 overflow the forward pass to inf and nan
        net = init_mlp(network_spec(mode), seed=0)
        for w in net.weights:
            w[:] = np.copysign(1e300, w)
        ckpt = tmp_path / "huge.ckpt"
        save_checkpoint(ckpt, net, TrainConfig(mode=mode), NormStats.identity())
        out_file = tmp_path / "out.csv"
        argv = {
            "evaluate": ["evaluate", str(transitions_csv), str(ckpt), "--report-out",
                         str(tmp_path / "r.txt"), "--csv-out", str(out_file)],
            "clv": ["clv", str(ckpt), "--state", "3,2,15,1,4", "--out", str(out_file)],
            "curves": ["curves", str(ckpt), "--dims", "recency", "--range", "0:10",
                       "--resolution", "5", "--out", str(out_file)],
        }[command]
        capsys.readouterr()  # the fixture's output
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(argv)
        out, err = capsys.readouterr()
        assert code == 1
        assert err.startswith("error: non-finite Q-value") and err.count("\n") == 1
        assert out == "" and [str(w.message) for w in caught] == []
        assert not out_file.exists() and not (tmp_path / "r.txt").exists()

    def test_valid_fraction_that_empties_a_side_is_data_error(self, tmp_path, capsys,
                                                            transitions_csv):
        one_row = tmp_path / "one.csv"
        one_row.write_text("".join(transitions_csv.read_text().splitlines(keepends=True)[:2]))
        code = main(["train", str(one_row), "--checkpoint", str(tmp_path / "c"), "--history",
                     str(tmp_path / "h"), "--validation-fraction", "0.5"])
        assert code == 2
        assert "train/validation split produced an empty side" in capsys.readouterr().err


class TestExitCodes:
    """main maps the library's errors: DataError exits 2 with "data error: ", ConfigError
    exits 1 with "error: ", each as one line on stderr."""

    CASES = {  # case: (exit code, the whole of stderr)
        "no-timelines": (2, "data error: no timelines found in {src}"),
        "train-no-transitions": (2, "data error: no transitions in {src}"),
        "evaluate-no-transitions": (2, "data error: no transitions in {src}"),
        "empty-side": (2, "data error: train/validation split produced an empty side"),
        "unknown-config-key": (1, "error: {src}:1: unknown config key 'no_such_knob'"),
    }

    @pytest.mark.parametrize("case", list(CASES))
    def test_error_class_sets_code_and_prefix(self, tmp_path, capsys, transitions_csv, case):
        code, message = self.CASES[case]
        src = tmp_path / "input"
        header = transitions_csv.read_text().splitlines(keepends=True)[0]
        outputs = ["--checkpoint", str(tmp_path / "c"), "--history", str(tmp_path / "h")]
        if case == "no-timelines":
            src.write_text("customer_id,period,amount,action,acont\n")
            argv = ["build-transitions", str(src), str(tmp_path / "out.csv")]
        elif case == "evaluate-no-transitions":
            src.write_text(header)
            argv = ["evaluate", str(src), str(zero_checkpoint(tmp_path))]
        elif case == "unknown-config-key":
            src.write_text("no_such_knob=1\n")
            argv = ["train", str(transitions_csv), "--config", str(src)] + outputs
        else:
            one_row = "".join(transitions_csv.read_text().splitlines(keepends=True)[:2])
            src.write_text(one_row if case == "empty-side" else header)
            argv = ["train", str(src), "--validation-fraction", "0.5"] + outputs
        assert main(argv) == code
        assert capsys.readouterr().err == message.format(src=src) + "\n"


# A complete argv of each subcommand: the shapes of the benchmark's plans, and curves.
FULL_ARGV = {
    "build-transitions": ["build-transitions", "t.csv", "o.csv"],
    "train": ["train", "t.csv", "--checkpoint", "c", "--history", "h", "--epochs", "3",
              "--batch-size", "200", "--mode", "discrete", "--seed", "0"],
    "evaluate": ["evaluate", "t.csv", "c", "--report-out", "r.txt", "--csv-out", "r.csv",
                 "--no-timestamp", "--seed", "0"],
    "clv": ["clv", "c", "--state", "3,2,15,1,4"],
    "simulate": ["simulate", "--config", "sim.cfg", "--history", "h", "--checkpoint", "c",
                 "--seed", "301"],
    "curves": ["curves", "c", "--dims", "recency", "--range", "0:1", "--out", "o"],
}
PARSE_CASES = (
    [[], ["-h"], ["--help"], ["-h", "clv"], ["frobnicate"], ["frobnicate", "-h"], ["train", "x.csv"]]
    + [[name, "-h"] for name in cli.COMMANDS]
    + [argv + ["--bogus"] for argv in FULL_ARGV.values()]
    + list(FULL_ARGV.values())
    + [["clv", "c", "--state"],  # a flag missing its value
       ["clv", "c", "--bogus", "--state", "3,2,15,1,4"],  # an unknown flag before a required one
       ["clv", "--state", "3,2,15,1,4", "--", "c"],  # -- before a positional
       ["clv", "c", "--state", "1,1,1,1,1", "--state", "3,2,15,1,4"],  # a flag given twice
       ["clv", "c", "--stat", "3,2,15,1,4"],  # an abbreviated flag
       ["clv", "-h x", "--state", "3,2,15,1,4"],  # -h with a value, to a parser that has -h
       ["clv", "c", "--state", "3,2,15,1,4", "--he"]]  # an abbreviated --help
)


# Tokens for mutating a FULL_ARGV entry: values, some of which a type or choices refuse, every
# command's option strings, and what only argparse reads (abbreviations, --opt=value, -h, --,
# a value or positional that starts with "-").
def recorded_options(add_arguments):
    add_arguments(recorded := cli._Recorded())
    return [names[0] for names, _ in recorded if names[0].startswith("-")]


OPTIONS = {name: recorded_options(add) for name, (_, add, _) in cli.COMMANDS.items()}
VALUES = st.sampled_from([*cli.COMMANDS, "", "nan", "inf", "1_0", " 5", "0", "3", "1e3", "x", "c",
                          "3,2,15,1,4", "discrete", "mixed", "discrete_only"])
TOKENS = st.one_of(VALUES, st.sampled_from(sorted({o for own in OPTIONS.values() for o in own}) + [
    "--stat", "--no-t", "--ep", "--state=3,2,15,1,4", "--seed=1", "--mode=mixed", "-h", "--help",
    "--", "-", "-1", "-h x", "--bogus"]))


@st.composite
def mutated_argvs(draw):
    """A FULL_ARGV entry, sometimes under another command's name, after a few edits: a token
    inserted, replaced or deleted, one of the command's options inserted with a value, or a
    token pair (such as an option and its value) repeated."""
    argv = list(draw(st.sampled_from(list(FULL_ARGV.values()))))
    if draw(st.integers(0, 3)) == 0:
        argv[0] = draw(st.sampled_from(list(cli.COMMANDS)))
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(1, len(argv)))
        edit = draw(st.sampled_from(["insert", "replace", "delete", "option", "repeat"]))
        if edit == "option" and OPTIONS[argv[0]]:  # build-transitions has none
            argv[at:at] = [draw(st.sampled_from(OPTIONS[argv[0]])), draw(VALUES)]
        elif edit == "insert" or at == len(argv):
            argv.insert(at, draw(TOKENS))
        elif edit == "replace":
            argv[at] = draw(TOKENS)
        elif edit == "delete":
            del argv[at]
        else:
            argv[at:at] = argv[draw(st.integers(1, len(argv) - 1)):][:2]
    return argv


def namespace_fields(namespace):
    """A Namespace's fields with the type of each value, NaN equal to NaN."""
    return {k: (type(v), "nan" if v != v else v) for k, v in vars(namespace).items()}


class TestUsageErrors:
    @pytest.mark.parametrize("argv", PARSE_CASES, ids=lambda argv: " ".join(argv) or "none")
    def test_one_subparser_parses_as_all_six_do(self, capsys, argv):
        # main's parse path (the matcher, and the full parser for any other argv) against
        # the full parser; help text differs between Python versions, so compare within this
        # interpreter
        def parse(parse_args):
            try:
                return None, parse_args(argv), capsys.readouterr()
            except SystemExit as exc:
                return exc.code, None, capsys.readouterr()

        assert parse(cli.parse_args) == parse(cli.build_parser().parse_args)

    def test_a_valid_command_builds_no_full_parser(self, tmp_path, capsys, monkeypatch):
        build_parser, init = cli.build_parser, argparse.ArgumentParser.__init__
        calls, parsers = [], []
        monkeypatch.setattr(cli, "build_parser", lambda: calls.append(1) or build_parser())
        monkeypatch.setattr(argparse.ArgumentParser, "__init__",
                            lambda self, *a, **kw: parsers.append(1) or init(self, *a, **kw))
        argv = ["clv", str(zero_checkpoint(tmp_path)), "--state", "3,2,15,1,4"]
        assert main(argv) == 0
        assert [cli.parse_args(full).command for full in FULL_ARGV.values()] == list(FULL_ARGV)
        assert calls == [] and parsers == []  # no argparse parser at all, not even one command's
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--bogus"])
        assert exc.value.code == 1 and calls == [1]
        assert capsys.readouterr().err.startswith("usage: clvdqn [-h] {build-transitions,")

    def test_a_setting_the_matcher_does_not_read_goes_to_the_full_parser(self, monkeypatch):
        help_text, clv_args, handler = cli.COMMANDS["clv"]

        def with_tags(p):
            clv_args(p)
            p.add_argument("--tags", nargs="+")

        monkeypatch.setitem(cli.COMMANDS, "clv", (help_text, with_tags, handler))
        build_parser, calls = cli.build_parser, []
        monkeypatch.setattr(cli, "build_parser", lambda: calls.append(1) or build_parser())
        argv = ["clv", "c", "--state", "3,2,15,1,4"]
        assert cli.parse_args(argv).tags is None
        assert cli.parse_args(argv + ["--tags", "a", "b"]).tags == ["a", "b"]
        assert calls == [1, 1]

    @settings(deadline=None, max_examples=400)
    @given(argv=mutated_argvs())
    @example(argv=["train", "t", "--checkpoint", "c", "--history", "h",
                   "--validation-fraction", "nan"])
    @example(argv=["evaluate", "t.csv", "c", "--seed", "1", "--seed", "2"])  # store_true unseen
    @example(argv=["train", "t", "--checkpoint", "c", "--history", "h", "--mode", "discrete_only"])
    def test_a_matched_command_line_parses_as_the_full_parser_does(self, argv):
        namespace = cli._match(argv[0], argv[1:])
        if namespace is not None:  # the full parser must accept argv, with the same fields
            full = cli.build_parser().parse_args(argv)
            assert namespace_fields(namespace) == namespace_fields(full)

    def test_main_calls_the_handler_bound_when_it_runs(self, monkeypatch):
        calls = []
        monkeypatch.setattr(cli, "cmd_clv", lambda args: calls.append(args.checkpoint))
        assert main(["clv", "model.ckpt", "--state", "3,2,15,1,4"]) == 0
        assert calls == ["model.ckpt"]

    def test_module_entry_point_reads_its_own_argv(self, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        proc = subprocess.run(
            [sys.executable, "-m", "clvdqn.cli", "clv", "--help"],
            capture_output=True, text=True, timeout=60,
            env={"PYTHONPATH": str(Path(clvdqn.__file__).parents[1]), "COLUMNS": "80"},
        )
        with pytest.raises(SystemExit):
            cli.build_parser().parse_args(["clv", "--help"])
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout.startswith("usage: clvdqn clv [-h] --state STATE")
        assert proc.stdout == capsys.readouterr().out

    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 1

    def test_missing_required_flag(self):
        with pytest.raises(SystemExit) as exc:
            main(["train", "x.csv"])
        assert exc.value.code == 1

    @pytest.mark.parametrize("argv", [
        ["build-transitions", "t.csv", "o.csv", "--seed", "1"],
        ["build-transitions", "t.csv", "o.csv", "--config", "run.cfg"],
        ["train", "t.csv", "--checkpoint", "c", "--history", "h", "--no-timestamp"],
        ["evaluate", "t.csv", "c", "--mode", "mixed"],
        ["clv", "c", "--state", "1,2,3,4,5", "--mode", "mixed"],
        ["clv", "c", "--state", "1,2,3,4,5", "--seed", "1"],
        ["clv", "c", "--state", "1,2,3,4,5", "--config", "run.cfg"],
        ["simulate", "--history", "h", "--checkpoint", "c", "--no-timestamp"],
        ["curves", "c", "--dims", "recency", "--range", "0:1", "--out", "o", "--seed", "1"],
        ["curves", "c", "--dims", "recency", "--range", "0:1", "--out", "o", "--mode", "mixed"],
    ], ids=lambda argv: f"{argv[0]}{argv[-2]}")
    def test_flag_the_subcommand_does_not_read(self, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1
