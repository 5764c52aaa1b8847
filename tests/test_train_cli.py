import os
import platform
import re
import shutil
import subprocess
import sys
import types
import weakref
from pathlib import Path

import numpy as np
import pytest

from agsevnet.checks import SCOPES, run_checks
from agsevnet.cli import build_parser, main
from agsevnet.infer import predict_case
from agsevnet.network import (
    NetConfig,
    build,
    config_from_text,
    config_to_text,
    load_checkpoint,
    save_checkpoint,
)
from agsevnet.npyio import read_npy, write_npy
from agsevnet import network, pipeline
from agsevnet.pipeline import MODALITIES, generate_phantom, load_labels, save_case
from agsevnet.rng import Rng
from agsevnet.train import (
    TrainConfig,
    _pin_malloc_thresholds,
    _read_case,
    config_hash,
    init_opt_state,
    train,
)
import oracles

LOGS = ("losses.txt", "val.txt", "report.txt")
SRC = Path(__file__).resolve().parents[1] / "src"
GLIBC = platform.libc_ver()[0] == "glibc"


def tiny_train_config(**overrides):
    net = NetConfig(
        in_channels=4, base_width=2, depths=2, se_reduction=4,
        ag_radius=2, ag_eps=0.05, dropout=0.1, patch_shape=(16, 16, 16),
    )
    kwargs = dict(
        net=net, lr_initial=3e-3, lr_decayed=1e-3, lr_decay_step=20,
        max_steps=25, checkpoint_interval=5, seed=3,
    )
    kwargs.update(overrides)
    kwargs["lr_decay_step"] = min(kwargs["lr_decay_step"], kwargs["max_steps"])
    return TrainConfig(**kwargs)


def config_text_with(config, line):
    """config's text with `line` in place of the line of the key it sets."""
    key = line.split("=", 1)[0] + "="
    kept = [text for text in config_to_text(config).splitlines() if not text.startswith(key)]
    return "\n".join([*kept, line]) + "\n"


@pytest.fixture(scope="module")
def phantom_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cases")
    rng = Rng(77)
    for k in range(2):
        case = generate_phantom(rng.derive("phantom", k), (16, 16, 16), 0.2)
        case.id = f"case{k:03d}"
        save_case(root / case.id, case)
    return root


def nan_flair(case):
    flair = read_npy(case / "flair.npy")
    flair[2, 3, 4] = np.nan
    write_npy(case / "flair.npy", flair)


def flatten(case):
    """Keep only the first z-slice of every volume of the case: 2-D volumes."""
    for path in case.iterdir():
        write_npy(path, read_npy(path)[0].copy())


def empty_volumes(case):
    """Keep no z-slice of any volume of the case: shape (0, h, w)."""
    for path in case.iterdir():
        write_npy(path, read_npy(path)[:0].copy())


def rehead_as_version_2(path):
    """Rewrite the .npy file at `path` in format version 2.0."""
    arr = read_npy(path)
    with open(path, "wb") as fh:
        np.lib.format.write_array(fh, arr, version=(2, 0))


def short_prediction(data, pred):
    """A prediction for case000 that holds half its z-slices."""
    pred.mkdir()
    write_npy(pred / "case000.npy", load_labels(data / "case000")[:8].copy())


def flat_truth(data, pred):
    """A 2-D case000 and a prediction of its 2-D labels."""
    flatten(data / "case000")
    pred.mkdir()
    write_npy(pred / "case000.npy", load_labels(data / "case000"))


class Writes:
    """An open file whose `write` goes through `wrap(file.write)`."""

    def __init__(self, fh, wrap):
        self.fh, self.write = fh, wrap(fh.write)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()


def dir_bytes(path):
    return {
        p.relative_to(path).as_posix(): p.read_bytes()
        for p in sorted(path.rglob("*"))
        if p.is_file()
    }


class TestTrainConfig:
    def test_text_round_trip(self):
        cfg = tiny_train_config()
        assert config_from_text(TrainConfig, config_to_text(cfg)) == cfg
        net = NetConfig(in_channels=3, base_width=8, depths=3, se_reduction=2, ag_radius=3,
                        ag_eps=0.25, dropout=0.125, patch_shape=(16, 32, 48))
        every_field = TrainConfig(
            net=net, lr_initial=2e-3, lr_decayed=5e-4, lr_decay_step=7, max_steps=9,
            checkpoint_interval=4, seed=11,
        )
        defaults, default_net = TrainConfig(), NetConfig()
        assert all(getattr(every_field, k) != getattr(defaults, k) for k in vars(defaults))
        assert all(getattr(net, k) != getattr(default_net, k)
                   for k in vars(default_net))
        text = config_to_text(every_field)
        assert "seed=11\n" in text and "net.patch_shape=16,32,48\n" in text
        assert config_from_text(TrainConfig, text) == every_field

    def test_default_text_and_hash_pinned(self):
        # config.txt and the report's config_hash are stored artifacts: their bytes must not drift
        assert config_to_text(TrainConfig()) == (
            "# training configuration\n"
            "lr_initial=0.0001\nlr_decayed=3e-05\nlr_decay_step=200\nmax_steps=300\n"
            "checkpoint_interval=100\nseed=0\n"
            "\n"
            "# network configuration\n"
            "net.in_channels=4\nnet.base_width=16\nnet.depths=2\n"
            "net.se_reduction=4\nnet.ag_radius=16\nnet.ag_eps=0.01\nnet.dropout=0.5\n"
            "net.patch_shape=64,128,128\n"
        )
        assert config_hash(TrainConfig()) == "2197b8b423518b92"

    def test_learning_rate_schedule(self):
        cfg = tiny_train_config(lr_initial=1e-4, lr_decayed=3e-5, lr_decay_step=10)
        assert cfg.learning_rate(0) == 1e-4
        assert cfg.learning_rate(9) == 1e-4
        assert cfg.learning_rate(10) == 3e-5

    def test_validation(self):
        with pytest.raises(ValueError):
            tiny_train_config(lr_initial=-1.0)
        with pytest.raises(ValueError):
            TrainConfig(net=tiny_train_config().net, lr_decay_step=100, max_steps=50)


class TestTraining:
    def test_loss_drops_and_schedule_logged(self, phantom_dir, tmp_path):
        cfg = tiny_train_config()
        train(cfg, phantom_dir, tmp_path / "run", log=lambda s: None)
        lines = (tmp_path / "run" / "losses.txt").read_text().splitlines()
        assert len(lines) == cfg.max_steps
        first = float(lines[0].split()[2])
        last = float(lines[-1].split()[2])
        assert last < first  # learning happened
        rates = [float(l.split()[1]) for l in lines]
        assert rates[:20] == [3e-3] * 20 and rates[20:] == [1e-3] * 5

    def test_two_runs_bitwise_identical(self, phantom_dir, tmp_path):
        cfg = tiny_train_config(max_steps=6, checkpoint_interval=3)
        train(cfg, phantom_dir, tmp_path / "a", log=lambda s: None)
        train(cfg, phantom_dir, tmp_path / "b", log=lambda s: None)
        assert dir_bytes(tmp_path / "a") == dir_bytes(tmp_path / "b")

    def test_resume_matches_uninterrupted(self, phantom_dir, tmp_path):
        full = tiny_train_config(max_steps=10, checkpoint_interval=5)
        half = tiny_train_config(max_steps=5, checkpoint_interval=5)
        for val in (None, phantom_dir):
            run = tmp_path / ("val" if val else "plain")
            train(full, phantom_dir, run / "full", val_dir=val, log=lambda s: None)
            # the half run also validates after its last step (4), which the
            # full run does not: the resume must drop that row
            train(half, phantom_dir, run / "part", val_dir=val, log=lambda s: None)
            train(
                full, phantom_dir, run / "part", val_dir=val,
                resume=run / "part" / "checkpoint", log=lambda s: None,
            )
            for name in LOGS if val else ("losses.txt", "report.txt"):
                assert (run / "full" / name).read_bytes() == (run / "part" / name).read_bytes()
            assert dir_bytes(run / "full" / "checkpoint") == dir_bytes(run / "part" / "checkpoint")
            a = load_checkpoint(run / "full" / "checkpoint")
            b = load_checkpoint(run / "part" / "checkpoint")
            assert a[2] == b[2] == 10
            for k in a[0]:
                assert a[0][k].tobytes() == b[0][k].tobytes()
        report = (tmp_path / "val" / "part" / "report.txt").read_text()
        wt_rows = [line for line in report.splitlines() if line.split(",")[1:2] == ["WT"]]
        assert [line.split(",")[0] for line in wt_rows] == ["0", "1", "2", "3", "4"]

    @pytest.mark.parametrize("damage", ["fresh_out", "truncated_log", "first_row_deleted"])
    def test_resume_ignores_out_dir_logs(self, phantom_dir, tmp_path, damage):
        full = tiny_train_config(max_steps=4, checkpoint_interval=2)
        train(full, phantom_dir, tmp_path / "full", log=lambda s: None)
        part = tmp_path / "part"
        train(tiny_train_config(max_steps=2, checkpoint_interval=2), phantom_dir, part,
              log=lambda s: None)
        out, log = part, part / "losses.txt"
        if damage == "fresh_out":
            out = tmp_path / "fresh"
        elif damage == "truncated_log":
            log.write_bytes(log.read_bytes()[:20])
        else:
            log.write_text("".join(log.read_text().splitlines(keepends=True)[1:]))
        train(full, phantom_dir, out, resume=part / "checkpoint", log=lambda s: None)
        for name in ("losses.txt", "report.txt"):
            assert (out / name).read_bytes() == (tmp_path / "full" / name).read_bytes()
        assert dir_bytes(out / "checkpoint") == dir_bytes(tmp_path / "full" / "checkpoint")

    def test_resume_refuses_missing_or_damaged_history(self, phantom_dir, tmp_path):
        cfg = tiny_train_config(max_steps=2, checkpoint_interval=2)
        train(cfg, phantom_dir, tmp_path, val_dir=phantom_dir, log=lambda s: None)
        checkpoint = tmp_path / "checkpoint"
        longer = tiny_train_config(max_steps=4, checkpoint_interval=2)

        def first_row(cells, bad):  # the first row with its cell after `cells` set to `bad`
            return lambda t: re.sub(f"^{cells}", rf"\g<1>{bad}", t, count=1)

        for name, damage, message in (
            ("losses.txt", lambda t: None, "is missing"),
            ("losses.txt", lambda t: t[:20], "does not hold exactly"),
            ("losses.txt", lambda t: t.split("\n", 1)[1], "does not hold exactly"),
            ("losses.txt", lambda t: t + t.splitlines(keepends=True)[-1], "does not hold exactly"),
            ("val.txt", lambda t: None, "is missing"),
            ("val.txt", lambda t: t.split("\n", 1)[1], "does not hold exactly"),
            # first rows that re-format to themselves, so that a resume
            # would copy the NaN or inf into report.txt
            ("losses.txt", first_row(r"(\S+ \S+ )\S+", "nan"), "does not hold exactly"),  # loss
            ("losses.txt", first_row(r"(\S+ )\S+", "inf"), "does not hold exactly"),  # rate
            ("val.txt", first_row(r"(\S+ \S+,WT,)[^,]+", "nan"), "does not hold exactly"),  # dice
            ("val.txt", first_row(r"([^\n]+,)[^,\n]+", "inf"), "does not hold exactly"),  # hd95
        ):
            original = (checkpoint / name).read_text()
            damaged = damage(original)
            if damaged is None:
                (checkpoint / name).unlink()
            else:
                (checkpoint / name).write_text(damaged)
            before = dir_bytes(tmp_path)
            with pytest.raises(ValueError, match=message) as info:
                train(longer, phantom_dir, tmp_path, val_dir=phantom_dir, resume=checkpoint,
                      log=lambda s: None)
            assert f"checkpoint history {checkpoint / name} " in str(info.value)
            assert dir_bytes(tmp_path) == before
            (checkpoint / name).write_text(original)
        # without --val the checkpoint's val.txt is not needed
        (checkpoint / "val.txt").unlink()
        train(longer, phantom_dir, tmp_path, resume=checkpoint, log=lambda s: None)
        assert load_checkpoint(checkpoint)[2] == 4

    def test_every_crash_point_replays_or_refuses(self, phantom_dir, tmp_path, monkeypatch, capsys):
        cfg = tiny_train_config(max_steps=2, checkpoint_interval=1)
        cfg_file = tmp_path / "train.cfg"
        cfg_file.write_text(config_to_text(cfg))
        whole = tmp_path / "whole"
        train(cfg, phantom_dir, whole, val_dir=phantom_dir, log=lambda s: None)
        want = [(whole / name).read_bytes() for name in LOGS], dir_bytes(whole / "checkpoint")
        # one write for the params.npy header, then one per tensor
        writes_per_save = len((whole / "checkpoint" / "manifest.txt").read_text().splitlines())

        class Crash(Exception):
            pass

        def crash_at(k, calls):
            def wrap(real):
                def call(*args, **kwargs):
                    calls.append(args)
                    if len(calls) == k:
                        raise Crash
                    return real(*args, **kwargs)
                return call
            return wrap

        def run_crashed(out, patch, k):
            calls = []
            with monkeypatch.context() as m:
                patch(m, crash_at(k, calls))
                with pytest.raises(Crash):
                    train(cfg, phantom_dir, out, val_dir=phantom_dir, log=lambda s: None)

        def file_ops(m, wrap):
            m.setattr(Path, "write_text", wrap(Path.write_text))
            m.setattr(Path, "rename", wrap(Path.rename))
            m.setattr(os, "replace", wrap(os.replace))

        def params_npy_writes(m, wrap):
            m.setattr(network, "open", lambda path, mode: Writes(open(path, mode), wrap),
                      raising=False)

        with monkeypatch.context() as m:
            calls = []
            file_ops(m, crash_at(0, calls))
            train(cfg, phantom_dir, tmp_path / "count", val_dir=phantom_dir, log=lambda s: None)
        crashes = [(file_ops, k) for k in range(1, len(calls) + 1)]
        # before and partway through the params.npy writes of the first and second save
        crashes += [(params_npy_writes, k) for k in (1, writes_per_save // 2, writes_per_save + 1,
                                                     writes_per_save + writes_per_save // 2)]
        refused = 0
        for patch, k in crashes:
            out = tmp_path / f"{patch.__name__}{k}"
            run_crashed(out, patch, k)
            left_whole = (out / "checkpoint").exists()
            rc = main(["train", "--config", str(cfg_file), "--data", str(phantom_dir),
                       "--val", str(phantom_dir), "--out", str(out),
                       "--checkpoint", str(out / "checkpoint")])
            err = capsys.readouterr().err
            if left_whole:
                assert rc == 0, (patch.__name__, k, err)
                got = [(out / name).read_bytes() for name in LOGS], dir_bytes(out / "checkpoint")
                assert got == want, (patch.__name__, k)
            else:
                assert rc == 1 and f"{out / 'checkpoint.tmp'}" in err, (patch.__name__, k, err)
                refused += 1
        assert 0 < refused < len(crashes)

    def test_resume_rejects_other_optimizer_state(self, phantom_dir, tmp_path):
        adam = tiny_train_config(max_steps=4, checkpoint_interval=2)
        train(tiny_train_config(max_steps=2, checkpoint_interval=2), phantom_dir, tmp_path,
              log=lambda s: None)
        checkpoint = tmp_path / "checkpoint"
        before = dir_bytes(tmp_path)
        manifest = checkpoint / "manifest.txt"
        text = manifest.read_text()
        manifest.write_text(text.replace("name=opt.v.head.bias ", "name=opt.mom.head.bias "))
        with pytest.raises(ValueError, match=re.escape(
                f"checkpoint {checkpoint}: optimizer state is not one Adam m/v pair per parameter")):
            train(adam, phantom_dir, tmp_path, resume=checkpoint, log=lambda s: None)
        manifest.write_text(text.replace("name=opt.v.head.bias shape=4\n",
                                         "name=opt.v.head.bias shape=2x2\n"))
        with pytest.raises(ValueError, match=r"optimizer state v.head.bias has shape \(2, 2\), "
                                             r"its parameter \(4,\)"):
            train(adam, phantom_dir, tmp_path, resume=checkpoint, log=lambda s: None)
        manifest.write_text(text)
        assert dir_bytes(tmp_path) == before
        train(adam, phantom_dir, tmp_path, resume=checkpoint, log=lambda s: None)
        assert load_checkpoint(checkpoint)[2] == 4

    def test_resume_refuses_changed_training_config(self, phantom_dir, tmp_path):
        train(tiny_train_config(max_steps=2, checkpoint_interval=2), phantom_dir, tmp_path,
              log=lambda s: None)
        checkpoint = tmp_path / "checkpoint"
        before = dir_bytes(tmp_path)
        wider_dropout = NetConfig(**{**vars(tiny_train_config().net), "dropout": 0.2})
        for change, keys in (
            (dict(lr_initial=0.5), "lr_initial"),
            (dict(lr_initial=0.5, seed=4), "lr_initial, seed"),
            (dict(net=wider_dropout), "net.dropout"),
            (dict(lr_decay_step=1), "lr_decay_step"),  # step 1 ran at lr_initial
        ):
            with pytest.raises(ValueError, match=f"differs from the checkpoint's in {keys};"):
                train(tiny_train_config(max_steps=4, checkpoint_interval=2, **change), phantom_dir,
                      tmp_path, resume=checkpoint, log=lambda s: None)
            assert dir_bytes(tmp_path) == before
        (checkpoint / "train_config.txt").unlink()
        with pytest.raises(ValueError, match="stores no training configuration"):
            train(tiny_train_config(max_steps=4, checkpoint_interval=2), phantom_dir, tmp_path,
                  resume=checkpoint, log=lambda s: None)
        shutil.rmtree(tmp_path)
        train(tiny_train_config(max_steps=2, checkpoint_interval=2), phantom_dir, tmp_path,
              log=lambda s: None)
        # a longer run with another checkpoint interval, whose decay step moves
        # only steps not yet taken, replays the stored one
        train(tiny_train_config(max_steps=4, checkpoint_interval=1, lr_decay_step=3), phantom_dir,
              tmp_path, resume=checkpoint, log=lambda s: None)
        assert load_checkpoint(checkpoint)[2] == 4

    @pytest.mark.parametrize("bad_in", ["data", "val"])
    def test_bad_label_named_before_step_zero(self, phantom_dir, tmp_path, bad_in):
        bad = tmp_path / "bad"
        shutil.copytree(phantom_dir, bad)
        seg = read_npy(bad / "case001" / "seg.npy")
        seg[3, 4, 5] = 3
        write_npy(bad / "case001" / "seg.npy", seg)
        data, val = (bad, phantom_dir) if bad_in == "data" else (phantom_dir, bad)
        logged = []
        with pytest.raises(ValueError, match="unknown label value 3 at index \\(3, 4, 5\\)") as info:
            train(tiny_train_config(max_steps=4, checkpoint_interval=2), data,
                  tmp_path / "run", val_dir=val, log=logged.append)
        assert f"case {bad / 'case001'}: seg.npy" in str(info.value)
        assert not [line for line in logged if line.startswith("step")]
        assert not (tmp_path / "run" / "losses.txt").exists()

    def test_validation_metrics_in_report(self, phantom_dir, tmp_path):
        cfg = tiny_train_config(max_steps=4, checkpoint_interval=4)
        for sub in ("va", "vb"):
            train(cfg, phantom_dir, tmp_path / sub, val_dir=phantom_dir, log=lambda s: None)
        report = (tmp_path / "va" / "report.txt").read_text()
        lines = report.splitlines()
        header = "traversal,region,dice,sensitivity,specificity,hd95"
        assert header in lines
        val_lines = lines[lines.index(header) + 1 :]
        assert len(val_lines) >= 3  # one row per region per completed traversal
        for line in val_lines:
            region = line.split(",")[1]
            assert region in ("WT", "TC", "ET")
        assert report == (tmp_path / "vb" / "report.txt").read_text()

    def test_a_validated_run_reads_each_file_once(self, phantom_dir, tmp_path, monkeypatch):
        val = tmp_path / "val"
        shutil.copytree(phantom_dir, val)
        reads = []

        def counting_read(path):
            reads.append(path)
            return read_npy(path)

        monkeypatch.setattr(pipeline, "read_npy", counting_read)
        logged = []
        # 2 patches a traversal: validation follows steps 1 and 3
        train(tiny_train_config(max_steps=4, checkpoint_interval=2), phantom_dir, tmp_path / "run",
              val_dir=val, log=logged.append)
        assert [line.split(":")[0] for line in logged if line.startswith("traversal")] == [
            "traversal 0", "traversal 1"]
        assert sorted(reads) == sorted([*phantom_dir.rglob("*.npy"), *val.rglob("*.npy")])

    def test_val_file_deleted_after_step_zero_changes_no_byte(self, phantom_dir, tmp_path):
        cfg = tiny_train_config(max_steps=4, checkpoint_interval=1)
        val = tmp_path / "val"
        shutil.copytree(phantom_dir, val)
        train(cfg, phantom_dir, tmp_path / "whole", val_dir=val, log=lambda s: None)

        def log(line):  # step 0's line comes before the first validation
            if line.startswith("step     0 "):
                (val / "case001" / "t2.npy").unlink()

        train(cfg, phantom_dir, tmp_path / "cut", val_dir=val, log=log)
        assert not (val / "case001" / "t2.npy").exists()
        assert dir_bytes(tmp_path / "cut") == dir_bytes(tmp_path / "whole")

    def test_prediction_reads_no_labels(self, phantom_dir, monkeypatch):
        reads = []

        def counting_read(path):
            reads.append(f"{path.parent.name}/{path.name}")
            return read_npy(path)

        monkeypatch.setattr(pipeline, "read_npy", counting_read)
        config = tiny_train_config().net
        assert (phantom_dir / "case000" / "seg.npy").exists()
        predict_case(phantom_dir / "case000", build(config, Rng(4)), config)
        assert sorted(reads) == sorted(f"case000/{m}.npy" for m in MODALITIES)

    def test_each_step_drops_its_graph_before_the_next_forward(self, phantom_dir, tmp_path,
                                                              monkeypatch):
        outputs, alive_at_start = [], []

        def recording_forward(*args, **kwargs):
            alive_at_start.append([ref() is not None for ref in outputs])
            lg = network.forward(*args, **kwargs)
            outputs.append(weakref.ref(lg.output))
            return lg

        monkeypatch.setattr("agsevnet.train.forward", recording_forward)
        train(tiny_train_config(max_steps=3, checkpoint_interval=3), phantom_dir, tmp_path / "run",
              log=lambda s: None)
        assert alive_at_start == [[], [False], [False, False]]


class TestMallocThresholds:
    """`train` pins glibc's malloc thresholds for the rest of its process,
    so each run here is an `agsevnet train` in a fresh interpreter: the
    acceptance network (width 4, 32³ patches) for 12 steps on 4 phantoms,
    as shipped, with the thresholds helper replaced by a no-op, and with
    a libc that has no `mallopt`."""

    NET = NetConfig(in_channels=4, base_width=4, depths=2, se_reduction=4,
                    ag_radius=16, ag_eps=0.01, dropout=0.1, patch_shape=(32, 32, 32))
    PREAMBLES = {
        "pinned": "",
        "helper_no_op": "train._pin_malloc_thresholds = lambda: None",
        "no_mallopt": "train.ctypes = types.SimpleNamespace(CDLL=lambda name: object())",
    }

    @pytest.fixture(scope="class")
    def runs(self, tmp_path_factory):
        """Each run's minor page faults per step (None when not printed)
        and the bytes of its checkpoint and report."""
        root = tmp_path_factory.mktemp("malloc")
        rng = Rng(41)
        for k in range(4):
            case = generate_phantom(rng.derive("phantom", k), (32, 32, 32), 0.3)
            case.id = f"case{k:03d}"
            save_case(root / "data" / case.id, case)
        cfg_file = root / "train.cfg"
        cfg_file.write_text(config_to_text(TrainConfig(
            net=self.NET, lr_initial=3e-3, lr_decayed=1e-3, lr_decay_step=12, max_steps=12,
            checkpoint_interval=12, seed=7)))
        env = dict(os.environ,
                   PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
        runs = {}
        for name, preamble in self.PREAMBLES.items():
            code = ("import sys, types\nfrom agsevnet import train\n"
                    f"{preamble}\nfrom agsevnet.cli import main\nsys.exit(main(sys.argv[1:]))")
            out = root / name
            stdout = subprocess.run(
                [sys.executable, "-c", code, "train", "--config", str(cfg_file),
                 "--data", str(root / "data"), "--out", str(out)],
                env=env, check=True, capture_output=True, text=True, timeout=600,
            ).stdout
            faults = re.search(r", (\d+) minor page faults per step after the first", stdout)
            outputs = {**dir_bytes(out / "checkpoint"), "report": (out / "report.txt").read_bytes()}
            runs[name] = (faults and int(faults.group(1)), outputs)
        return runs

    def test_both_thresholds_set_and_only_where_mallopt_exists(self, monkeypatch):
        calls = []
        libc = types.SimpleNamespace(mallopt=lambda param, value: calls.append((param, value)))
        monkeypatch.setattr("agsevnet.train.ctypes.CDLL", lambda name: libc)
        _pin_malloc_thresholds()
        assert calls == [(-3, 32 * 2 ** 20), (-1, 2 ** 30)]  # M_MMAP_THRESHOLD, M_TRIM_THRESHOLD
        monkeypatch.setattr("agsevnet.train.ctypes.CDLL", lambda name: object())
        _pin_malloc_thresholds()
        assert len(calls) == 2

    @pytest.mark.skipif(not GLIBC, reason="the thresholds are glibc's; elsewhere the helper "
                                          "does nothing and the fault count is the allocator's")
    def test_a_pinned_step_takes_under_one_percent_of_the_faults(self, runs):
        # about 9,000 minor faults per step without the thresholds, 19-34 with them
        faults = {name: run[0] for name, run in runs.items()}
        assert faults["pinned"] < 90, faults
        assert faults["helper_no_op"] > 90 and faults["no_mallopt"] > 90, faults

    @pytest.mark.parametrize("unpinned", ["helper_no_op", "no_mallopt"])
    def test_outputs_byte_identical_without_the_thresholds(self, runs, unpinned):
        assert runs[unpinned][1] == runs["pinned"][1]


class TestGuards:
    def test_checkpoint_guard_rejects_non_finite_params(self):
        from agsevnet.train import TrainingError, _guard_finite

        params = {"w": np.ones(3)}
        _guard_finite(params, 0)
        params["w"][1] = np.nan
        with pytest.raises(TrainingError, match="non-finite parameter w"):
            _guard_finite(params, 0)


class TestPaperDefaults:
    def test_reference_hyperparameters(self):
        from agsevnet.losses import CLASS_WEIGHTS, LABEL_VALUES

        net = NetConfig()
        assert net.in_channels == 4 and len(LABEL_VALUES) == 4
        assert net.se_reduction == 4
        assert net.ag_radius == 16 and net.ag_eps == pytest.approx(0.1 ** 2)
        assert net.dropout == 0.5
        assert net.patch_shape == (64, 128, 128)
        cfg = TrainConfig()
        assert cfg.lr_initial == pytest.approx(1e-4)
        assert cfg.lr_decayed == pytest.approx(3e-5)
        assert CLASS_WEIGHTS == (0.1, 1.0, 1.0, 1.0)


class TestThresholdOracle:
    def test_noiseless_phantoms_separable_by_thresholding(self, tmp_path):
        from agsevnet.losses import region_rows
        from agsevnet.pipeline import load_case

        assert main([
            "phantom-gen", "-n", "5", "--shape", "24", "--difficulty", "0",
            "--seed", "31", "--out", str(tmp_path / "flat"),
        ]) == 0
        for k in range(5):
            case = load_case(tmp_path / "flat" / f"case{k:03d}")
            flair = case.modalities[3]
            wt_guess = flair > 0.5  # tumor plateaus sit well above brain tissue
            truth = load_labels(tmp_path / "flat" / f"case{k:03d}")
            wt_row = region_rows(f"case{k:03d}", 4 * wt_guess.astype(np.uint8), truth)[0]
            assert wt_row["region"] == "WT" and wt_row["dice"] >= 0.99


class TestCli:
    def test_phantom_gen_deterministic(self, tmp_path, capsys):
        for sub in ("a", "b"):
            rc = main([
                "phantom-gen", "-n", "2", "--shape", "16", "--difficulty", "0.2",
                "--seed", "9", "--out", str(tmp_path / sub),
            ])
            assert rc == 0
        assert dir_bytes(tmp_path / "a") == dir_bytes(tmp_path / "b")

    def test_phantom_gen_nesting(self, tmp_path):
        from agsevnet.losses import derive_regions

        assert main([
            "phantom-gen", "-n", "3", "--shape", "16,16,16", "--seed", "4",
            "--out", str(tmp_path / "cases"),
        ]) == 0
        for k in range(3):
            masks = derive_regions(load_labels(tmp_path / "cases" / f"case{k:03d}"))
            assert np.all(masks["ET"] <= masks["TC"]) and np.all(masks["TC"] <= masks["WT"])

    def test_subcommands(self):
        assert "{phantom-gen,train,predict,evaluate,gradcheck}" in build_parser().format_help()

    def test_train_predict_evaluate_round_trip(self, phantom_dir, tmp_path):
        config_text = config_to_text(tiny_train_config(max_steps=5, checkpoint_interval=5))
        cfg_file = tmp_path / "train.cfg"
        cfg_file.write_text(config_text)
        assert main([
            "train", "--config", str(cfg_file), "--data", str(phantom_dir),
            "--out", str(tmp_path / "run"),
        ]) == 0
        checkpoint = tmp_path / "run" / "checkpoint"

        for sub in ("p1", "p2"):
            assert main([
                "predict", "--checkpoint", str(checkpoint), "--data", str(phantom_dir),
                "--out", str(tmp_path / sub),
            ]) == 0
        assert dir_bytes(tmp_path / "p1") == dir_bytes(tmp_path / "p2")
        labels = read_npy(tmp_path / "p1" / "case000.npy")
        assert labels.shape == (16, 16, 16)
        assert set(np.unique(labels)) <= {0, 1, 2, 4}

        assert main([
            "evaluate", "--pred", str(tmp_path / "p1"), "--truth", str(phantom_dir),
            "--out", str(tmp_path / "report.csv"),
        ]) == 0
        report = (tmp_path / "report.csv").read_text()
        assert report.startswith("case_id,region,")

    def test_evaluate_identity_scores_perfect(self, phantom_dir, tmp_path):
        from agsevnet.npyio import write_npy

        pred = tmp_path / "ident"
        pred.mkdir()
        for case_dir in sorted(phantom_dir.iterdir()):
            write_npy(pred / f"{case_dir.name}.npy", load_labels(case_dir))
        assert main([
            "evaluate", "--pred", str(pred), "--truth", str(phantom_dir),
            "--out", str(tmp_path / "r.csv"),
        ]) == 0
        report = (tmp_path / "r.csv").read_text()
        rows = [l for l in report.splitlines() if l.startswith("case0")]
        assert len(rows) == 6  # 2 cases x 3 regions
        for line in rows:
            fields = line.split(",")
            assert fields[2] == "1.000000" and fields[5] == "0.000000"

    def test_evaluate_reports_are_byte_identical(self, phantom_dir, tmp_path):
        from agsevnet.npyio import write_npy

        pred = tmp_path / "pred"
        pred.mkdir()
        for case_dir in sorted(phantom_dir.iterdir()):
            write_npy(pred / f"{case_dir.name}.npy", load_labels(case_dir))
        for sub in ("r1.csv", "r2.csv"):
            assert main([
                "evaluate", "--pred", str(pred), "--truth", str(phantom_dir),
                "--out", str(tmp_path / sub),
            ]) == 0
        assert (tmp_path / "r1.csv").read_bytes() == (tmp_path / "r2.csv").read_bytes()

    def test_missing_counterpart_case_fails_validation(self, phantom_dir, tmp_path):
        from agsevnet.npyio import write_npy

        pred = tmp_path / "orphan"
        pred.mkdir()
        write_npy(pred / "nosuch.npy", np.zeros((4, 4, 4), dtype=np.uint8))
        rc = main([
            "evaluate", "--pred", str(pred), "--truth", str(phantom_dir),
            "--out", str(tmp_path / "r.csv"),
        ])
        assert rc == 1

    def test_evaluate_reads_only_labels(self, phantom_dir, tmp_path):
        truth = tmp_path / "truth"
        pred = tmp_path / "pred"
        pred.mkdir()
        for case_dir in sorted(phantom_dir.iterdir()):
            (truth / case_dir.name).mkdir(parents=True)
            (truth / case_dir.name / "t1.npy").write_bytes(b"not read")
            (truth / case_dir.name / "seg.npy").write_bytes((case_dir / "seg.npy").read_bytes())
            write_npy(pred / f"{case_dir.name}.npy", read_npy(case_dir / "seg.npy"))
        assert main([
            "evaluate", "--pred", str(pred), "--truth", str(truth), "--out", str(tmp_path / "r.csv"),
        ]) == 0
        (truth / "case000" / "seg.npy").unlink()
        assert main([
            "evaluate", "--pred", str(pred), "--truth", str(truth), "--out", str(tmp_path / "r.csv"),
        ]) == 1

    def test_cut_prediction_file_exits_one_naming_it(self, phantom_dir, tmp_path, capsys):
        truth = tmp_path / "truth"
        shutil.copytree(phantom_dir / "case000", truth / "case000")
        pred = tmp_path / "pred"
        pred.mkdir()
        write_npy(pred / "case000.npy", load_labels(phantom_dir / "case001"))
        raw = (pred / "case000.npy").read_bytes()
        evaluate = ["evaluate", "--pred", str(pred), "--truth", str(truth),
                    "--out", str(tmp_path / "r.csv")]
        assert main(evaluate) == 0
        capsys.readouterr()
        header = raw.index(b"\n") + 1
        for cut in [*range(header + 2), len(raw) // 2, len(raw) - 1]:
            (pred / "case000.npy").write_bytes(raw[:cut])
            assert main(evaluate) == 1, f"cut at byte {cut}"
            assert str(pred / "case000.npy") in capsys.readouterr().err, f"cut at byte {cut}"

    def test_unknown_label_value_names_its_file(self, phantom_dir, tmp_path, capsys):
        truth = tmp_path / "truth"
        shutil.copytree(phantom_dir / "case000", truth / "case000")
        pred = tmp_path / "pred"
        pred.mkdir()
        labels = load_labels(phantom_dir / "case001")
        evaluate = ["evaluate", "--pred", str(pred), "--truth", str(truth),
                    "--out", str(tmp_path / "r.csv")]
        for bad_file in (pred / "case000.npy", truth / "case000" / "seg.npy"):
            bad = labels.copy()
            bad[0, 0, 0] = 3
            write_npy(pred / "case000.npy", labels)
            write_npy(bad_file, bad)
            assert main(evaluate) == 1
            err = capsys.readouterr().err
            assert f"{bad_file}: unknown label value 3 at index (0, 0, 0)" in err, err
            write_npy(truth / "case000" / "seg.npy", load_labels(phantom_dir / "case000"))

    def test_resume_with_no_step_left_prints_existing_checkpoint(self, phantom_dir, tmp_path,
                                                                 capsys):
        cfg_file = tmp_path / "train.cfg"
        cfg_file.write_text(config_to_text(tiny_train_config(max_steps=2, checkpoint_interval=2)))
        train_args = ["train", "--config", str(cfg_file), "--data", str(phantom_dir)]
        assert main([*train_args, "--out", str(tmp_path / "run")]) == 0
        capsys.readouterr()
        assert main([*train_args, "--out", str(tmp_path / "fresh"),
                     "--checkpoint", str(tmp_path / "run" / "checkpoint")]) == 0
        printed = capsys.readouterr().out.splitlines()[-1]
        assert printed.startswith("final checkpoint: ")
        final = Path(printed.removeprefix("final checkpoint: "))
        assert final.is_dir()
        _, _, step, _ = load_checkpoint(final)
        assert step == 2

    def test_evaluate_accepts_label_only_truth(self, phantom_dir, tmp_path):
        truth = tmp_path / "truth"
        pred = tmp_path / "pred"
        pred.mkdir()
        cases = sorted(phantom_dir.iterdir())
        for case_dir, other in zip(cases, reversed(cases)):
            shutil.copytree(case_dir, truth / case_dir.name)
            write_npy(pred / f"{case_dir.name}.npy", load_labels(other))
        evaluate = ["evaluate", "--pred", str(pred), "--truth", str(truth), "--out"]
        assert main([*evaluate, str(tmp_path / "full.csv")]) == 0
        for case_dir in truth.iterdir():
            for m in MODALITIES:
                (case_dir / f"{m}.npy").unlink()
        assert main([*evaluate, str(tmp_path / "labels_only.csv")]) == 0
        full = (tmp_path / "full.csv").read_text()
        assert "1.000000" not in full.splitlines()[1]  # mismatched cases, not a trivial report
        assert (tmp_path / "labels_only.csv").read_text() == full

    def test_predict_rejects_stride_that_leaves_gaps(self, tmp_path):
        config = tiny_train_config().net
        save_checkpoint(tmp_path / "ckpt", build(config, Rng(5)), config, 0)
        long_case = generate_phantom(Rng(79), (40, 16, 16), 0.2)
        long_case.id = "long000"
        save_case(tmp_path / "long" / long_case.id, long_case)
        predict = ["predict", "--checkpoint", str(tmp_path / "ckpt"), "--stride", "24,16,16"]
        # patch 16, stride 24 on a 40-long axis would leave voxels 16..23 unpredicted
        assert main([*predict, "--data", str(tmp_path / "long"), "--out", str(tmp_path / "out")]) == 1
        assert not list((tmp_path / "out").glob("*.npy"))

    def test_predict_refuses_a_bad_stride_before_reading_a_case(self, phantom_dir, tmp_path,
                                                                capsys, monkeypatch):
        config = tiny_train_config().net
        save_checkpoint(tmp_path / "ckpt", build(config, Rng(5)), config, 0)
        long_case = generate_phantom(Rng(79), (40, 16, 16), 0.2)
        save_case(tmp_path / "long" / "long000", long_case)
        reads = []
        monkeypatch.setattr(pipeline, "read_npy", lambda path: reads.append(path))
        # a stride beyond the 16^3 patch is refused whether or not an axis of
        # the data is longer than the patch
        for data, stride, got in ((phantom_dir, "0", (0, 0, 0)),
                                  (phantom_dir, "24,16,16", (24, 16, 16)),
                                  (tmp_path / "long", "24,16,16", (24, 16, 16))):
            assert main(["predict", "--checkpoint", str(tmp_path / "ckpt"), "--data",
                         str(data), "--out", str(tmp_path / "pred"), "--stride", stride]) == 1
            assert (f"error: --stride: patch stride {got} must lie in [1, patch] per axis for "
                    f"patch shape (16, 16, 16)") in capsys.readouterr().err
            assert reads == [] and not (tmp_path / "pred").exists()

    def test_predict_with_nothing_to_write_leaves_no_out(self, phantom_dir, tmp_path, capsys):
        net = tiny_train_config().net
        save_checkpoint(tmp_path / "ck", build(net, Rng(4)), net, 0)
        empty, bad = tmp_path / "empty", tmp_path / "bad"
        empty.mkdir()
        shutil.copytree(phantom_dir, bad)
        (bad / "case000" / "flair.npy").unlink()  # the first case fails, the second would not
        for data, error in ((empty, f"no case directories under {empty}"),
                            (bad, "case case000: missing modality file flair.npy")):
            capsys.readouterr()
            assert main(["predict", "--checkpoint", str(tmp_path / "ck"), "--data", str(data),
                         "--out", str(tmp_path / "new")]) == 1
            assert f"error: {error}" in capsys.readouterr().err
            assert not (tmp_path / "new").exists()

    def test_predict_refuses_damaged_checkpoint(self, phantom_dir, tmp_path, capsys):
        config = tiny_train_config().net
        params = build(config, Rng(5))
        ckpt = tmp_path / "ckpt"
        predict = ["predict", "--checkpoint", str(ckpt), "--data", str(phantom_dir),
                   "--out", str(tmp_path / "out")]
        save_checkpoint(ckpt, {k: v for k, v in params.items() if k != "enc1.conv0.kernel"},
                        config, 0)
        assert main(predict) == 1
        err = capsys.readouterr().err
        assert f"checkpoint {ckpt} holds enc1.conv0.gamma (2,) where" in err
        save_checkpoint(ckpt, params, config, 0)
        manifest = ckpt / "manifest.txt"
        kernel_line = "name=enc1.conv0.kernel shape=3x3x3x4x2\n"
        manifest.write_text(manifest.read_text().replace(kernel_line, ""))
        assert main(predict) == 1
        assert f"{ckpt / 'params.npy'}: holds float64" in capsys.readouterr().err
        save_checkpoint(ckpt, params, config, 0)
        (ckpt / "step.txt").write_text("x")
        assert main(predict) == 1
        assert f"{ckpt / 'step.txt'}: step 'x' is not a non-negative integer" in capsys.readouterr().err
        assert not (tmp_path / "out").exists() or not list((tmp_path / "out").iterdir())

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_predict_refuses_non_finite_checkpoint(self, phantom_dir, tmp_path, capsys, bad):
        config = tiny_train_config().net
        params = build(config, Rng(5))
        params["head.bias"][1] = bad
        ckpt, out = tmp_path / "ckpt", tmp_path / "out"
        save_checkpoint(ckpt, params, config, 0)
        assert main(["predict", "--checkpoint", str(ckpt), "--data", str(phantom_dir),
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert f"checkpoint {ckpt}: tensor head.bias holds a NaN or infinite value" in err, err
        assert not list(out.glob("*.npy"))

    @pytest.mark.parametrize("tensor", ["head.bias", "opt.m.head.bias"])
    def test_resume_refuses_non_finite_checkpoint(self, phantom_dir, tmp_path, capsys, tensor):
        cfg_file, run = tmp_path / "train.cfg", tmp_path / "run"
        ckpt = run / "checkpoint"
        train_args = ["train", "--config", str(cfg_file), "--data", str(phantom_dir),
                      "--out", str(run)]
        cfg_file.write_text(config_to_text(tiny_train_config(max_steps=2, checkpoint_interval=2)))
        assert main(train_args) == 0
        blob = network.load_params(ckpt)
        blob[tensor][0] = np.nan
        network.save_params(ckpt, blob)
        cfg_file.write_text(config_to_text(tiny_train_config(max_steps=4, checkpoint_interval=2)))
        capsys.readouterr()
        assert main([*train_args, "--checkpoint", str(ckpt)]) == 1
        captured = capsys.readouterr()
        assert f"checkpoint {ckpt}: tensor {tensor} holds a NaN" in captured.err, captured.err
        assert not [line for line in captured.out.splitlines() if line.startswith("step")]
        assert not list(run.glob("bad_batch_step*"))

    # (command, extra flags, what writes the bad input into the copied
    # cases `data`, the checkpoint `ckpt` or the prediction dir `pred`,
    # and the text of the error that names it)
    NAMED_REFUSALS = {
        "evaluate_empty_pred": ("evaluate", [], lambda data, ckpt, pred: pred.mkdir(),
                                "no prediction volumes under {pred}"),
        "evaluate_pred_shape": ("evaluate", [], lambda data, ckpt, pred: short_prediction(data, pred),
                                "case000: prediction shape (8, 16, 16) != truth (16, 16, 16)"),
        "evaluate_2d_truth": ("evaluate", [], lambda data, ckpt, pred: flat_truth(data, pred),
                              "{data}/case000/seg.npy: label volume has shape (16, 16), not 3 axes"),
        "predict_no_manifest": ("predict", [],
                                lambda data, ckpt, pred: (ckpt / "manifest.txt").unlink(),
                                "no parameter manifest at {ckpt}/manifest.txt"),
        "train_no_cases": ("train", [],
                           lambda data, ckpt, pred: [shutil.rmtree(d) for d in data.iterdir()],
                           "no case directories under {data}"),
        "npy_version_2": ("train", [],
                          lambda data, ckpt, pred: rehead_as_version_2(data / "case000" / "t1.npy"),
                          "{data}/case000/t1.npy: unsupported .npy version 2.0"),
        "empty_extent": ("predict", [], lambda data, ckpt, pred: empty_volumes(data / "case000"),
                         "case case000: all extents must be >= 1"),
        "stride_0": ("predict", ["--stride", "0"], lambda data, ckpt, pred: None,
                     "--stride: patch stride (0, 0, 0) must lie in [1, patch] per axis"),
    }

    @pytest.mark.parametrize("bad", sorted(NAMED_REFUSALS))
    def test_bad_input_exits_one_naming_it(self, phantom_dir, tmp_path, capsys, bad):
        command, flags, write_bad_input, named = self.NAMED_REFUSALS[bad]
        data, ckpt, pred = tmp_path / "data", tmp_path / "ckpt", tmp_path / "pred"
        shutil.copytree(phantom_dir, data)
        config = tiny_train_config(max_steps=2, checkpoint_interval=2)
        save_checkpoint(ckpt, build(config.net, Rng(5)), config.net, 0)
        cfg_file = tmp_path / "train.cfg"
        cfg_file.write_text(config_to_text(config))
        write_bad_input(data, ckpt, pred)
        argv = {
            "evaluate": ["--pred", pred, "--truth", data, "--out", tmp_path / "r.csv"],
            "predict": ["--checkpoint", ckpt, "--data", data, "--out", pred],
            "train": ["--config", cfg_file, "--data", data, "--out", tmp_path / "run"],
        }[command]
        assert main([command, *map(str, argv), *flags]) == 1
        err = capsys.readouterr().err
        assert named.format(data=data, ckpt=ckpt, pred=pred) in err, err

    def test_non_finite_loss_dumps_the_batch_and_exits_two(self, phantom_dir, tmp_path, capsys,
                                                           monkeypatch):
        monkeypatch.setattr("agsevnet.train.dice_loss",
                            lambda p, g: (float("nan"), np.zeros_like(p)))
        cfg_file, run = tmp_path / "train.cfg", tmp_path / "run"
        cfg_file.write_text(config_to_text(tiny_train_config(max_steps=2, checkpoint_interval=2)))
        assert main(["train", "--config", str(cfg_file), "--data", str(phantom_dir),
                     "--out", str(run)]) == 2
        dump = run / "bad_batch_step0"
        assert f"runtime failure: non-finite loss nan at step 0; batch dumped to {dump}" in \
            capsys.readouterr().err
        assert read_npy(dump / "img.npy").shape == (1, 16, 16, 16, 4)
        assert read_npy(dump / "lbl.npy").shape == (1, 16, 16, 16, 4)
        assert not (run / "checkpoint").exists()

    def test_gradcheck_scopes_come_from_the_registry(self):
        parser = build_parser()
        for scope in [*SCOPES, "all"]:
            assert parser.parse_args(["gradcheck", "--scope", scope]).scope == scope
        with pytest.raises(SystemExit):
            parser.parse_args(["gradcheck", "--scope", "bogus"])

    def test_unknown_scope_names_the_scopes(self):
        with pytest.raises(ValueError, match=r"unknown gradcheck scope 'bogus' \(use \['ag', "
                                             r"'layers', 'loss', 'net', 'se'\] or 'all'\)"):
            run_checks("bogus")

    def test_gradcheck_loss_scope(self, capsys):
        assert main(["gradcheck", "--scope", "loss", "--seed", "0"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "max_rel_err" in out

    def test_refused_resume_exits_one(self, phantom_dir, tmp_path, capsys):
        cfg_file = tmp_path / "train.cfg"
        train_args = ["train", "--config", str(cfg_file), "--data", str(phantom_dir),
                      "--out", str(tmp_path / "run")]
        cfg_file.write_text(config_to_text(tiny_train_config(max_steps=2, checkpoint_interval=2)))
        assert main(train_args) == 0
        resume = [*train_args, "--checkpoint", str(tmp_path / "run" / "checkpoint")]
        cfg_file.write_text(config_to_text(tiny_train_config(max_steps=4, lr_initial=0.5)))
        assert main(resume) == 1
        assert "differs from the checkpoint's in lr_initial" in capsys.readouterr().err
        cfg_file.write_text(config_to_text(tiny_train_config(max_steps=4)))
        (tmp_path / "run" / "checkpoint" / "losses.txt").unlink()
        assert main(resume) == 1
        assert "losses.txt is missing" in capsys.readouterr().err

    # the run before the resume trains without --val, so its checkpoint holds no val.txt
    REFUSALS = {
        "missing_checkpoint": (None, "no checkpoint at"),
        "changed_config": ({"lr_initial": 0.5}, "differs from the checkpoint's in lr_initial"),
        "cut_losses": ({}, "losses.txt does not hold exactly the rows"),
        "missing_val": ({}, "val.txt is missing"),
    }

    @pytest.mark.parametrize("refusal", list(REFUSALS))
    def test_refused_resume_writes_nothing_and_reads_no_case(self, phantom_dir, tmp_path, capsys,
                                                             monkeypatch, refusal):
        cfg_file, fresh = tmp_path / "train.cfg", tmp_path / "fresh"
        ckpt = tmp_path / "run" / "checkpoint"
        cfg_file.write_text(config_to_text(tiny_train_config(max_steps=2, checkpoint_interval=2)))
        changes, message = self.REFUSALS[refusal]
        if changes is not None:
            assert main(["train", "--config", str(cfg_file), "--data", str(phantom_dir),
                         "--out", str(tmp_path / "run")]) == 0
            cfg_file.write_text(config_to_text(tiny_train_config(max_steps=4, **changes)))
        if refusal == "cut_losses":
            losses = ckpt / "losses.txt"
            losses.write_bytes(losses.read_bytes()[:20])
        reads = []

        def counting_read(case_dir):
            reads.append(case_dir)
            return _read_case(case_dir)

        monkeypatch.setattr("agsevnet.train._read_case", counting_read)
        capsys.readouterr()
        assert main(["train", "--config", str(cfg_file), "--data", str(phantom_dir),
                     "--out", str(fresh), "--val", str(phantom_dir),
                     "--checkpoint", str(ckpt)]) == 1
        err = capsys.readouterr().err
        assert "error: " in err and message in err, err
        assert not fresh.exists()
        assert reads == []

    # (the file given its one edit, the edit, and the error that follows
    # the file's path): a fresh train's --config, then the checkpoint's
    # config.txt as predict reads it and its train_config.txt as a resume does
    CONFIG_FILES = {
        "train_cfg": ("fresh.cfg", ("net.depths=2\n", "net.depths=two\n"),
                      "config key net.depths: cannot parse 'two'"),
        "config_txt": ("run/checkpoint/config.txt", ("depths=2\n", "depths=two\n"),
                       "config key depths: cannot parse 'two'"),
        "train_config_txt": ("run/checkpoint/train_config.txt",
                             ("seed=3\n", "seed=3\nmomentum2=0.9\n"),
                             "unknown config keys: ['momentum2']"),
    }

    @pytest.mark.parametrize("site", sorted(CONFIG_FILES))
    def test_config_error_names_its_file(self, phantom_dir, tmp_path, capsys, site):
        name, (old, new), error = self.CONFIG_FILES[site]
        cfg_file, run = tmp_path / "train.cfg", tmp_path / "run"
        ckpt = run / "checkpoint"
        train_args = ["train", "--config", str(cfg_file), "--data", str(phantom_dir),
                      "--out", str(run)]
        cfg_file.write_text(config_to_text(tiny_train_config(max_steps=2, checkpoint_interval=2)))
        assert main(train_args) == 0
        cfg_file.write_text(config_to_text(tiny_train_config(max_steps=4, checkpoint_interval=2)))
        shutil.copy(cfg_file, tmp_path / "fresh.cfg")
        bad = tmp_path / name
        bad.write_text(bad.read_text().replace(old, new, 1))
        before = sorted(tmp_path.rglob("*")), dir_bytes(tmp_path)
        capsys.readouterr()
        argv = {
            "train_cfg": ["train", "--config", str(bad), "--data", str(phantom_dir),
                          "--out", str(tmp_path / "fresh")],
            "config_txt": ["predict", "--checkpoint", str(ckpt), "--data", str(phantom_dir),
                           "--out", str(tmp_path / "pred")],
            "train_config_txt": [*train_args, "--checkpoint", str(ckpt)],
        }[site]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert f"error: {bad}: {error}" in err, err
        assert (sorted(tmp_path.rglob("*")), dir_bytes(tmp_path)) == before

    def test_resume_trains_the_network_of_config_txt(self, phantom_dir, tmp_path, capsys,
                                                     monkeypatch):
        cfg_file, run = tmp_path / "train.cfg", tmp_path / "run"
        ckpt = run / "checkpoint"
        train_args = ["train", "--config", str(cfg_file), "--data", str(phantom_dir),
                      "--out", str(run)]
        cfg_file.write_text(config_to_text(tiny_train_config(max_steps=2, checkpoint_interval=2)))
        assert main(train_args) == 0
        stored = ckpt / "train_config.txt"
        text = stored.read_text()
        assert "\nbase_width=2\n" in (ckpt / "config.txt").read_text()
        assert "\nnet.base_width=2\n" in text
        stored.write_text(text.replace("\nnet.base_width=2\n", "\nnet.base_width=4\n"))
        wide = NetConfig(**{**vars(tiny_train_config().net), "base_width": 4})
        cfg_file.write_text(config_to_text(
            tiny_train_config(max_steps=4, checkpoint_interval=2, net=wide)))
        before = sorted(tmp_path.rglob("*")), dir_bytes(tmp_path)
        reads = []

        def counting_read(case_dir):
            reads.append(case_dir)
            return _read_case(case_dir)

        monkeypatch.setattr("agsevnet.train._read_case", counting_read)
        capsys.readouterr()
        for out in (run, tmp_path / "fresh"):
            assert main(["train", "--config", str(cfg_file), "--data", str(phantom_dir),
                         "--out", str(out), "--checkpoint", str(ckpt)]) == 1
            err = capsys.readouterr().err
            assert "error: training config differs from the checkpoint's in net.base_width;" in err
            assert (sorted(tmp_path.rglob("*")), dir_bytes(tmp_path)) == before
            assert reads == []
        cfg_file.write_text(config_to_text(tiny_train_config(max_steps=4, checkpoint_interval=2)))
        assert main([*train_args, "--checkpoint", str(ckpt)]) == 0
        _, net, step, _ = load_checkpoint(ckpt)
        assert (net.base_width, step) == (2, 4)
        assert "\nnet.base_width=2\n" in stored.read_text()
        assert main(["predict", "--checkpoint", str(ckpt), "--data", str(phantom_dir),
                     "--out", str(tmp_path / "pred")]) == 0

    def test_checkpoint_with_the_removed_keys_predicts_but_does_not_resume(self, phantom_dir,
                                                                          tmp_path, capsys,
                                                                          monkeypatch):
        cfg_file, run = tmp_path / "train.cfg", tmp_path / "run"
        ckpt = run / "checkpoint"
        train_args = ["train", "--config", str(cfg_file), "--data", str(phantom_dir),
                      "--out", str(run)]
        cfg_file.write_text(config_to_text(tiny_train_config(max_steps=2, checkpoint_interval=2)))
        assert main(train_args) == 0
        # the layout of train_config.txt before class weights, batch size and patch
        # stride became constants: the three keys at their defaults, after seed=
        stored = ckpt / "train_config.txt"
        stored.write_text(stored.read_text().replace("\nseed=3\n", (
            "\nseed=3\nclass_weights=0.1,1.0,1.0,1.0\nbatch_size=1\npatch_stride=-\n")))
        cfg_file.write_text(config_to_text(tiny_train_config(max_steps=4, checkpoint_interval=2)))
        before = sorted(tmp_path.rglob("*")), dir_bytes(tmp_path)
        reads = []

        def counting_read(case_dir):
            reads.append(case_dir)
            return _read_case(case_dir)

        monkeypatch.setattr("agsevnet.train._read_case", counting_read)
        capsys.readouterr()
        assert main([*train_args, "--checkpoint", str(ckpt)]) == 1
        err = capsys.readouterr().err
        assert (f"error: {stored}: unknown config keys: "
                f"['batch_size', 'class_weights', 'patch_stride']") in err, err
        assert (sorted(tmp_path.rglob("*")), dir_bytes(tmp_path)) == before
        assert reads == []
        pred = tmp_path / "pred"
        assert main(["predict", "--checkpoint", str(ckpt), "--data", str(phantom_dir),
                     "--out", str(pred)]) == 0
        assert sorted(p.name for p in pred.iterdir()) == ["case000.npy", "case001.npy"]

    def test_checkpoint_from_before_the_bias_removal_exits_one(self, phantom_dir, tmp_path,
                                                               capsys, monkeypatch):
        cfg_file, run = tmp_path / "train.cfg", tmp_path / "run"
        ckpt = run / "checkpoint"
        train_args = ["train", "--config", str(cfg_file), "--data", str(phantom_dir),
                      "--out", str(run)]
        cfg_file.write_text(config_to_text(tiny_train_config(max_steps=2, checkpoint_interval=2)))
        assert main(train_args) == 0
        oracles.to_pre_bias_removal_layout(ckpt)
        assert "enc1.conv0.bias" in network.load_params(ckpt)
        cfg_file.write_text(config_to_text(tiny_train_config(max_steps=4, checkpoint_interval=2)))
        before = sorted(tmp_path.rglob("*")), dir_bytes(tmp_path)
        reads = []
        monkeypatch.setattr(network, "read_file", lambda path: reads.append(path))
        capsys.readouterr()
        for argv in (["predict", "--checkpoint", str(ckpt), "--data", str(phantom_dir),
                      "--out", str(tmp_path / "pred")],
                     [*train_args, "--checkpoint", str(ckpt)],
                     ["train", "--config", str(cfg_file), "--data", str(phantom_dir),
                      "--out", str(tmp_path / "fresh"), "--checkpoint", str(ckpt)]):
            assert main(argv) == 1
            err = capsys.readouterr().err
            assert (f"error: {ckpt / 'config.txt'}: unknown config keys: "
                    f"['num_classes']") in err, err
            assert (sorted(tmp_path.rglob("*")), dir_bytes(tmp_path)) == before
            assert reads == []  # refused before params.npy is read

    def test_resume_below_checkpoint_step_exits_one(self, phantom_dir, tmp_path, capsys):
        cfg_file = tmp_path / "train.cfg"
        train_args = ["train", "--config", str(cfg_file), "--data", str(phantom_dir),
                      "--out", str(tmp_path / "run")]
        cfg_file.write_text(config_to_text(
            tiny_train_config(max_steps=4, checkpoint_interval=2, lr_decay_step=1)))
        assert main(train_args) == 0
        before = dir_bytes(tmp_path / "run")
        cfg_file.write_text(config_to_text(
            tiny_train_config(max_steps=2, checkpoint_interval=2, lr_decay_step=1)))
        capsys.readouterr()
        assert main([*train_args, "--checkpoint", str(tmp_path / "run" / "checkpoint")]) == 1
        assert "max_steps=2 is below the 4 steps" in capsys.readouterr().err
        assert dir_bytes(tmp_path / "run") == before

    def test_resume_over_other_cases_exits_one(self, tmp_path, capsys):
        cfg_file, run = tmp_path / "train.cfg", tmp_path / "run"
        for name, count, shape in (("three", 3, "16"), ("two", 2, "32,16,16")):
            assert main(["phantom-gen", "-n", str(count), "--shape", shape, "--seed", "5",
                         "--out", str(tmp_path / name)]) == 0
        cfg_file.write_text(config_to_text(tiny_train_config(max_steps=3, checkpoint_interval=3)))
        assert main(["train", "--config", str(cfg_file), "--data", str(tmp_path / "three"),
                     "--out", str(run)]) == 0
        ckpt = run / "checkpoint"
        assert (ckpt / "data.txt").read_text() == (
            "data case000 16,16,16\ndata case001 16,16,16\ndata case002 16,16,16\n")
        cfg_file.write_text(config_to_text(tiny_train_config(max_steps=6, checkpoint_interval=3)))
        before = sorted(tmp_path.rglob("*")), dir_bytes(tmp_path)
        capsys.readouterr()
        assert main(["train", "--config", str(cfg_file), "--data", str(tmp_path / "two"),
                     "--out", str(run), "--checkpoint", str(ckpt)]) == 1
        err = capsys.readouterr().err
        assert (f"error: checkpoint {ckpt} was trained on other cases: line 1 of its data.txt "
                f"is 'data case000 16,16,16', this run read 'data case000 32,16,16'") in err, err
        assert (sorted(tmp_path.rglob("*")), dir_bytes(tmp_path)) == before

    def test_resume_checks_the_validation_cases_too(self, phantom_dir, tmp_path):
        val = tmp_path / "val"
        shutil.copytree(phantom_dir, val)
        run = tmp_path / "run"
        train(tiny_train_config(max_steps=2, checkpoint_interval=2), phantom_dir, run,
              val_dir=val, log=lambda s: None)
        ckpt = run / "checkpoint"
        assert (ckpt / "data.txt").read_text().splitlines() == [
            "data case000 16,16,16", "data case001 16,16,16",
            "val case000 16,16,16", "val case001 16,16,16"]
        longer = tiny_train_config(max_steps=4, checkpoint_interval=2)
        before = dir_bytes(run)
        shutil.rmtree(val / "case001")
        with pytest.raises(ValueError, match="line 4 of its data.txt is 'val case001 16,16,16', "
                                             "this run read 'no case'"):
            train(longer, phantom_dir, run, val_dir=val, resume=ckpt, log=lambda s: None)
        assert dir_bytes(run) == before

    def test_checkpoint_without_case_list_refused_before_reading_a_case(
            self, phantom_dir, tmp_path, capsys, monkeypatch):
        cfg_file, run = tmp_path / "train.cfg", tmp_path / "run"
        train_args = ["train", "--config", str(cfg_file), "--data", str(phantom_dir),
                      "--out", str(run)]
        cfg_file.write_text(config_to_text(tiny_train_config(max_steps=2, checkpoint_interval=2)))
        assert main(train_args) == 0
        (run / "checkpoint" / "data.txt").unlink()
        cfg_file.write_text(config_to_text(tiny_train_config(max_steps=4, checkpoint_interval=2)))
        before = sorted(tmp_path.rglob("*")), dir_bytes(tmp_path)
        reads = []

        def counting_read(case_dir):
            reads.append(case_dir)
            return _read_case(case_dir)

        monkeypatch.setattr("agsevnet.train._read_case", counting_read)
        capsys.readouterr()
        assert main([*train_args, "--checkpoint", str(run / "checkpoint")]) == 1
        assert "stores no case list (data.txt)" in capsys.readouterr().err
        assert (sorted(tmp_path.rglob("*")), dir_bytes(tmp_path)) == before
        assert reads == []

    def test_network_not_on_four_modalities_refused_before_reading_a_case(
            self, phantom_dir, tmp_path, capsys, monkeypatch):
        reads = []

        def counting_read(case_dir):
            reads.append(case_dir)
            return _read_case(case_dir)

        monkeypatch.setattr("agsevnet.train._read_case", counting_read)
        three = tiny_train_config(net=NetConfig(**{**vars(tiny_train_config().net),
                                                   "in_channels": 3}))
        cfg_file, run = tmp_path / "train.cfg", tmp_path / "run"
        cfg_file.write_text(config_to_text(three))
        # a resume trains the network of the checkpoint's config.txt
        ckpt = tmp_path / "ckpt"
        params = build(three.net, Rng(5))
        save_checkpoint(ckpt, params, three.net, 0, extra=init_opt_state(params), texts={
            "train_config.txt": config_to_text(three), "losses.txt": "",
            "data.txt": "data case000 16,16,16\ndata case001 16,16,16\n"})
        for resume in ([], ["--checkpoint", str(ckpt)]):
            capsys.readouterr()
            assert main(["train", "--config", str(cfg_file), "--data", str(phantom_dir),
                         "--out", str(run), *resume]) == 1
            err = capsys.readouterr().err
            assert ("error: net.in_channels=3, but a case holds the 4 modalities "
                    "t1, t1ce, t2, flair") in err, err
            assert not run.exists()
            assert reads == []

    def test_bad_inputs_exit_one(self, tmp_path, capsys):
        assert main(["train", "--data", str(tmp_path / "void"), "--out", str(tmp_path / "o")]) == 1
        for bad in (["--shape", "8"], ["--difficulty", "2"]):
            assert main(["phantom-gen", "-n", "1", *bad, "--out", str(tmp_path / "p")]) == 1
            assert not (tmp_path / "p").exists(), bad
        for argv in (["predict", "--checkpoint", "c", "--data", "d", "--out", "o", "--stride", "1,2"],
                     ["train", "--data", "x"], ["phantom-gen", "--count", "two", "--out", "p"],
                     # the training seed is the config's seed= alone
                     ["train", "--data", "x", "--out", "o", "--seed", "3"]):
            with pytest.raises(SystemExit) as info:
                main(argv)
            assert info.value.code == 1, argv
            assert "usage: agsevnet" in capsys.readouterr().err
        with pytest.raises(SystemExit) as info:
            main(["train", "--help"])
        assert info.value.code == 0

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_voxel_exits_one(self, phantom_dir, tmp_path, capsys, bad):
        cases = tmp_path / "cases"
        shutil.copytree(phantom_dir, cases)
        t1 = read_npy(cases / "case000" / "t1.npy")
        t1[8, 8, 8] = bad
        write_npy(cases / "case000" / "t1.npy", t1)
        config = tiny_train_config(max_steps=2, checkpoint_interval=2)
        save_checkpoint(tmp_path / "ckpt", build(config.net, Rng(5)), config.net, 0)
        cfg_file = tmp_path / "train.cfg"
        cfg_file.write_text(config_to_text(config))
        train_args = ["train", "--config", str(cfg_file), "--out"]
        for argv in (
            ["predict", "--checkpoint", str(tmp_path / "ckpt"), "--data", str(cases),
             "--out", str(tmp_path / "pred")],
            [*train_args, str(tmp_path / "t"), "--data", str(cases)],
            [*train_args, str(tmp_path / "v"), "--data", str(phantom_dir), "--val", str(cases)],
        ):
            assert main(argv) == 1, argv[0]
            err = capsys.readouterr().err
            assert f"case000: t1.npy holds {bad} at index (8, 8, 8)" in err, err
        assert not list((tmp_path / "pred").glob("*.npy"))

    @pytest.mark.parametrize("line, key", [("net.patch_shape=16", "patch_shape"),
                                           ("patch_stride=16", "patch_stride"),
                                           ("net.patch_shape=0,16,16", "patch_shape")])
    def test_patch_extents_need_three_exit_one(self, phantom_dir, tmp_path, capsys, line, key):
        cfg_file = tmp_path / "train.cfg"
        cfg_file.write_text(config_text_with(tiny_train_config(), line))
        run = tmp_path / "run"
        assert main(["train", "--config", str(cfg_file), "--data", str(phantom_dir),
                     "--out", str(run)]) == 1
        err = capsys.readouterr().err
        assert f"error: {cfg_file}: " in err and key in err, err
        assert not run.exists()

    @pytest.mark.parametrize("line, key", [
        ("lr_initial=nan", "lr_initial"),
        ("lr_decayed=inf", "lr_decayed"),
        ("beta1=1.0", "beta1"),
        ("beta2=-0.5", "beta2"),
        ("momentum=1.5", "momentum"),
        ("adam_eps=0", "adam_eps"),
        ("class_weights=nan,1,1,1", "class_weights"),
        ("net.ag_eps=nan", "ag_eps"),
        ("net.se_reduction=0", "se_reduction"),
        ("net.se_reduction=-1", "se_reduction"),
        ("net.in_channels=0", "in_channels"),
        ("net.base_width=0", "base_width"),
        ("net.dropout=1.0", "dropout"),
        ("net.ag_radius=0", "ag_radius"),
        ("batch_size=0", "batch_size"),
    ])
    def test_config_values_that_train_into_nan_exit_one(self, phantom_dir, tmp_path, capsys,
                                                        line, key):
        cfg_file = tmp_path / "train.cfg"
        cfg_file.write_text(config_text_with(tiny_train_config(max_steps=2), line))
        run = tmp_path / "run"
        assert main(["train", "--config", str(cfg_file), "--data", str(phantom_dir),
                     "--out", str(run)]) == 1
        err = capsys.readouterr().err
        assert f"error: {cfg_file}: " in err and key in err, err
        assert not run.exists()

    @pytest.mark.parametrize("line, key", [("seed=abc", "seed"),
                                           ("net.ag_eps=0.o1", "net.ag_eps"),
                                           ("net.patch_shape=16,x,16", "net.patch_shape")])
    def test_unparsable_config_value_names_key_exit_one(self, phantom_dir, tmp_path, capsys,
                                                        line, key):
        cfg_file = tmp_path / "train.cfg"
        cfg_file.write_text(line + "\n")
        run = tmp_path / "run"
        assert main(["train", "--config", str(cfg_file), "--data", str(phantom_dir),
                     "--out", str(run)]) == 1
        raw = line.split("=", 1)[1]
        assert f"config key {key}: cannot parse {raw!r}" in capsys.readouterr().err
        assert not run.exists()

    def test_repeated_config_key_exits_one(self, phantom_dir, tmp_path, capsys):
        cfg_file = tmp_path / "train.cfg"
        cfg_file.write_text(config_to_text(tiny_train_config()) + "net.dropout=0.5\n")
        run = tmp_path / "run"
        assert main(["train", "--config", str(cfg_file), "--data", str(phantom_dir),
                     "--out", str(run)]) == 1
        assert "config key net.dropout is given twice" in capsys.readouterr().err
        assert not run.exists()

    def test_overflowing_modality_exits_one(self, phantom_dir, tmp_path, capsys):
        cases = tmp_path / "cases"
        shutil.copytree(phantom_dir, cases)
        # finite voxels whose variance overflows float64
        write_npy(cases / "case001" / "t2.npy", read_npy(cases / "case001" / "t2.npy") * 1e160)
        config = tiny_train_config(max_steps=2, checkpoint_interval=2)
        save_checkpoint(tmp_path / "ckpt", build(config.net, Rng(5)), config.net, 0)
        cfg_file = tmp_path / "train.cfg"
        cfg_file.write_text(config_to_text(config))
        for argv in (
            ["predict", "--checkpoint", str(tmp_path / "ckpt"), "--data", str(cases),
             "--out", str(tmp_path / "pred")],
            ["train", "--config", str(cfg_file), "--data", str(cases), "--out", str(tmp_path / "t")],
        ):
            assert main(argv) == 1, argv[0]
            assert "case case001: t2.npy" in capsys.readouterr().err
        assert not (tmp_path / "pred" / "case001.npy").exists()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, 1.5])
    def test_non_integer_label_value_names_its_file(self, phantom_dir, tmp_path, capsys, bad):
        truth = tmp_path / "truth"
        shutil.copytree(phantom_dir / "case000", truth / "case000")
        seg = truth / "case000" / "seg.npy"
        labels = read_npy(seg)
        write_npy(seg, np.where(np.arange(labels.size).reshape(labels.shape) == 5, bad,
                                labels.astype(np.float64)))
        pred = tmp_path / "pred"
        pred.mkdir()
        write_npy(pred / "case000.npy", labels)
        assert main(["evaluate", "--pred", str(pred), "--truth", str(truth),
                     "--out", str(tmp_path / "r.csv")]) == 1
        err = capsys.readouterr().err
        assert f"{seg}: unknown label value {bad:g} at index (0, 0, 5)" in err, err

    # (case mutated, its mutation, the error naming it): the first three
    # mutate the one validation case, the last a training case
    CASE_MUTANTS = {
        "val_nan_flair": ("val", nan_flair, "case case001: flair.npy holds nan"),
        "val_missing_t2": ("val", lambda case: (case / "t2.npy").unlink(),
                           "case case001: missing modality file t2.npy"),
        "val_seg_shape": ("val", lambda case: write_npy(
                              case / "seg.npy", read_npy(case / "seg.npy")[:, :, :8].copy()),
                          "case case001: label shape (16, 16, 8) != volume (16, 16, 16)"),
        "train_2d": ("data", flatten, "case case000: expected 5 axes"),
    }

    @pytest.mark.parametrize("mutant", sorted(CASE_MUTANTS))
    def test_bad_case_exits_one_before_step_zero(self, phantom_dir, tmp_path, capsys, mutant):
        role, mutate, message = self.CASE_MUTANTS[mutant]
        data, val = tmp_path / "data", tmp_path / "val"
        shutil.copytree(phantom_dir, data)
        shutil.copytree(phantom_dir / "case001", val / "case001")
        mutate((val / "case001") if role == "val" else (data / "case000"))
        cfg_file = tmp_path / "train.cfg"
        cfg_file.write_text(config_to_text(tiny_train_config(max_steps=4, checkpoint_interval=2)))
        run = tmp_path / "run"
        assert main(["train", "--config", str(cfg_file), "--data", str(data), "--out", str(run),
                     "--val", str(val)]) == 1
        captured = capsys.readouterr()
        assert message in captured.err, captured.err
        assert not [line for line in captured.out.splitlines() if line.startswith("step")]
        assert not (run / "checkpoint").exists()

    @pytest.mark.parametrize("count", [0, -2])
    def test_non_positive_counts_exit_one(self, tmp_path, capsys, count):
        out = tmp_path / "p"
        assert main(["phantom-gen", "-n", str(count), "--out", str(out)]) == 1
        assert not out.exists()
        assert main(["gradcheck", "--scope", "loss", "--seeds", str(count)]) == 1
        captured = capsys.readouterr()
        assert "passed" not in captured.out and "wrote" not in captured.out
        assert "--count must be >= 1" in captured.err and "--seeds must be >= 1" in captured.err
