import json
import subprocess
import sys

import numpy as np
import pytest

from cdlora.cli import main
from cdlora.denoiser import DenoiserNet
from cdlora.lora import AdapterBundle, LoraAdapter, LoraEntry
from cdlora.persist import load_adapter, load_checkpoint, load_net, save_adapter, save_net
from cdlora.schedule import make_schedule
from cdlora.sampling_eval import read_samples, write_samples
from cdlora.tensor import Tensor

MINI_CONFIG = {
    "seed": 3,
    "schedule": {"N": 50, "beta_max": 0.25},
    "net": {"hidden": [16, 16]},
    "teacher": {"steps": 150, "batch": 32, "checkpoint_every": 50},
    "distill": {"steps": 40, "batch_size": 16, "checkpoint_every": 20},
    "style": {"steps": 30, "batch": 16},
    "lora": {"rank": 2},
    "dataset": {"kind": "ring8", "count": 512},
    "sample": {"count": 64},
}


@pytest.fixture()
def run_root(tmp_path, monkeypatch):
    monkeypatch.setenv("CDLORA_RUN_ROOT", str(tmp_path))
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(MINI_CONFIG))
    return tmp_path


@pytest.fixture()
def teacher_ckpt(run_root):
    assert main(["train-teacher", "--config", str(run_root / "config.json"),
                 "--out", "teacher_run"]) == 0
    return run_root / "teacher_run" / "teacher.ckpt"


def test_train_teacher_writes_artifacts(run_root, teacher_ckpt, capsys):
    out = run_root / "teacher_run"
    assert (out / "metrics.csv").exists()
    assert (out / "effective_config.json").exists()
    assert (teacher_ckpt / "manifest.json").exists()
    echoed = json.loads((out / "effective_config.json").read_text())
    assert echoed["teacher"]["steps"] == 150


def test_full_pipeline_and_sampling(run_root, teacher_ckpt, capsys):
    cfg = str(run_root / "config.json")
    assert main(["distill-lcm", "--config", cfg, "--teacher", str(teacher_ckpt),
                 "--out", "distill_run"]) == 0
    accel = run_root / "distill_run" / "acceleration.ckpt"
    assert accel.exists()
    assert main(["sample", "--ckpt", str(teacher_ckpt), "--adapter", str(accel),
                 "--steps", "4", "--omega", "7.5", "--count", "32",
                 "--seed", "5", "--out", "samples.csv"]) == 0
    samples, cond = read_samples(run_root / "samples.csv")
    assert samples.shape == (32, 2)
    sidecar = json.loads((run_root / "samples.json").read_text())
    assert sidecar["steps"] == 4 and sidecar["omega"] == 7.5
    assert sidecar["checkpoint_sha256"]
    capsys.readouterr()
    assert main(["eval", "--samples", "samples.csv", "--dataset", "ring8",
                 "--count", "32", "--seed", "7"]) == 0
    out = capsys.readouterr().out
    result = json.loads(out)
    assert "mmd2" in result


def test_step_checkpoints_load_and_match_final(run_root, teacher_ckpt):
    # MINI_CONFIG sets teacher.checkpoint_every = 50 and distill.checkpoint_every = 20
    teacher_run = run_root / "teacher_run"
    for step in (50, 100, 150):
        load_net(teacher_run / f"teacher_step{step}.ckpt")
    final_tensors, _ = load_checkpoint(teacher_ckpt)
    last_tensors, _ = load_checkpoint(teacher_run / "teacher_step150.ckpt")
    assert all(np.array_equal(final_tensors[k], last_tensors[k]) for k in final_tensors)

    assert main(["distill-lcm", "--config", str(run_root / "config.json"),
                 "--teacher", str(teacher_ckpt), "--out", "d"]) == 0
    teacher, _sched, _meta = load_net(teacher_ckpt)
    final = load_adapter(run_root / "d" / "acceleration.ckpt", base_net=teacher)
    for step in (20, 40):
        bundle = load_adapter(run_root / "d" / f"acceleration_step{step}.ckpt", base_net=teacher)
        assert bundle.role == final.role == "acceleration"
        assert bundle.provenance == final.provenance
        assert set(bundle.provenance) == {"solver", "k", "guidance_mode"}
    # the step-40 checkpoint holds the final factors
    for a, b in zip(bundle.adapter.trainable_params(), final.adapter.trainable_params()):
        assert np.array_equal(a.data, b.data)


@pytest.mark.parametrize("count", ["0", "100"])
def test_eval_rejects_count_outside_sample_rows(run_root, capsys, count):
    write_samples(run_root / "eight.csv", np.zeros((8, 2)), np.zeros(8, dtype=np.int64), {})
    assert main(["eval", "--samples", "eight.csv", "--count", count]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.strip()
    assert err.startswith("error: --count") and "\n" not in err


# --cond 8 is the null id of the 8-condition ring8 teacher, not a condition
@pytest.mark.parametrize("flag,value", [("--count", "0"), ("--count", "-3"),
                                        ("--cond", "8"), ("--cond", "-1")])
def test_sample_rejects_bad_count_or_cond(run_root, teacher_ckpt, capsys, flag, value):
    capsys.readouterr()
    assert main(["sample", "--ckpt", str(teacher_ckpt), "--steps", "2", "--count", "4",
                 flag, value, "--out", "bad.csv"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.strip()
    assert err.startswith(f"error: {flag}") and "\n" not in err
    assert not (run_root / "bad.csv").exists()


def test_sample_ddim_rejects_steps_above_N(run_root, teacher_ckpt, capsys):
    capsys.readouterr()
    assert main(["sample", "--ckpt", str(teacher_ckpt), "--sampler", "ddim",
                 "--steps", "500", "--count", "4", "--out", "bad.csv"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.strip()
    assert err.startswith("error:") and "500" in err and "\n" not in err
    assert not (run_root / "bad.csv").exists()


# an overflowing angle parses as inf; a "nan" cell parses as a NaN sample
@pytest.mark.parametrize("case", ["angle", "sample"])
def test_eval_rejects_non_finite_input(run_root, capsys, recwarn, case):
    x = np.zeros((8, 2))
    args = ["eval", "--samples", "eight.csv"]
    if case == "angle":
        args += ["--angle-deg", "1e400"]
    else:
        x[3, 0] = np.nan
    write_samples(run_root / "eight.csv", x, np.zeros(8, dtype=np.int64), {})
    assert main(args) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.strip()
    assert err.startswith("error:") and "finite" in err and "\n" not in err
    assert len(recwarn) == 0


def test_param_count_formula(run_root, capsys):
    # single 4x6 layer at rank 2 -> 2 * (4 + 6) = 20
    adapter = LoraAdapter({
        "layer0.weight": LoraEntry(Tensor(np.zeros((2, 6))), Tensor(np.zeros((4, 2))), 2, 1.0)
    })
    save_adapter(run_root / "toy.ckpt", AdapterBundle(adapter, "style", {}), "fp")
    assert main(["param-count", "--adapter", "toy.ckpt"]) == 0
    assert capsys.readouterr().out.strip() == "20"


def test_combine_and_merge(run_root, teacher_ckpt, capsys):
    cfg = str(run_root / "config.json")
    assert main(["distill-lcm", "--config", cfg, "--teacher", str(teacher_ckpt),
                 "--out", "d"]) == 0
    assert main(["finetune-style", "--config", cfg, "--teacher", str(teacher_ckpt),
                 "--out", "s"]) == 0
    assert main(["combine-lora", "--style", "s/style.ckpt", "--accel", "d/acceleration.ckpt",
                 "--l1", "0.8", "--l2", "1.0", "--out", "combined.ckpt"]) == 0
    bundle = load_adapter(run_root / "combined.ckpt")
    assert bundle.role == "combined"
    assert bundle.provenance["lambda1"] == 0.8
    assert bundle.provenance["lambda2"] == 1.0
    assert main(["merge-lora", "--base", str(teacher_ckpt),
                 "--adapter", "combined.ckpt", "--out", "merged.ckpt"]) == 0
    _tensors, meta = load_checkpoint(run_root / "merged.ckpt")
    assert meta["kind"] == "denoiser"
    assert meta["merged_from"]["role"] == "combined"
    capsys.readouterr()
    # merged checkpoints sample without an adapter
    assert main(["sample", "--ckpt", "merged.ckpt", "--steps", "2", "--count", "16",
                 "--out", "m.csv"]) == 0


def test_adapter_base_mismatch_fails(run_root, teacher_ckpt, capsys):
    cfg_small = dict(MINI_CONFIG)
    cfg_small["net"] = {"hidden": [8]}
    cfg_small["teacher"] = {"steps": 5, "batch": 8}
    (run_root / "config2.json").write_text(json.dumps(cfg_small))
    assert main(["train-teacher", "--config", str(run_root / "config2.json"),
                 "--out", "other"]) == 0
    assert main(["distill-lcm", "--config", str(run_root / "config.json"),
                 "--teacher", str(teacher_ckpt), "--out", "d2"]) == 0
    code = main(["merge-lora", "--base", "other/teacher.ckpt",
                 "--adapter", "d2/acceleration.ckpt", "--out", "bad.ckpt"])
    assert code == 1


def test_combine_rejects_different_bases(run_root, teacher_ckpt, capsys):
    cfg_small = dict(MINI_CONFIG)
    cfg_small["net"] = {"hidden": [8]}
    cfg_small["teacher"] = {"steps": 5, "batch": 8}
    cfg_small["style"] = {"steps": 5, "batch": 8}
    (run_root / "config2.json").write_text(json.dumps(cfg_small))
    assert main(["train-teacher", "--config", str(run_root / "config2.json"),
                 "--out", "o2"]) == 0
    assert main(["finetune-style", "--config", str(run_root / "config2.json"),
                 "--teacher", "o2/teacher.ckpt", "--out", "s2"]) == 0
    assert main(["distill-lcm", "--config", str(run_root / "config.json"),
                 "--teacher", str(teacher_ckpt), "--out", "d3"]) == 0
    code = main(["combine-lora", "--style", "s2/style.ckpt",
                 "--accel", "d3/acceleration.ckpt", "--out", "c.ckpt"])
    assert code == 1


def test_gradcheck_small(run_root, capsys):
    assert main(["gradcheck", "--hidden", "8,8", "--rank", "2", "--batch", "2"]) == 0
    result = json.loads(capsys.readouterr().out)
    assert result["pass"] is True
    assert result["max_rel_err"] < 1e-4


@pytest.mark.parametrize("flag,value", [("--batch", "0"), ("--batch", "-2"),
                                        ("--hidden", "8,0")])
def test_gradcheck_rejects_bad_sizes(run_root, capsys, recwarn, flag, value):
    assert main(["gradcheck", "--hidden", "8,8", "--rank", "2", flag, value]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.strip()
    assert err.startswith(f"error: {flag}") and "\n" not in err
    assert len(recwarn) == 0


def _drop_weights_hash(manifest):
    del manifest["weights_sha256"]
    return manifest


def _drop_omega_ref(manifest):
    del manifest["metadata"]["arch"]["omega_ref"]
    return manifest


@pytest.mark.parametrize("corrupt,named", [(lambda m: [m], "list"),
                                           (_drop_weights_hash, "weights_sha256"),
                                           (_drop_omega_ref, "omega_ref")],
                         ids=["list", "no-hash", "no-omega_ref"])
def test_sample_rejects_corrupt_manifest(run_root, capsys, corrupt, named):
    net = DenoiserNet(hidden=(8,), num_conditions=2)
    save_net(run_root / "net.ckpt", net, make_schedule(10),
             {"N": 10, "beta_min": 1e-4, "beta_max": 0.05})
    path = run_root / "net.ckpt" / "manifest.json"
    path.write_text(json.dumps(corrupt(json.loads(path.read_text()))))
    assert main(["sample", "--ckpt", "net.ckpt", "--count", "4", "--out", "bad.csv"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.strip()
    # the message names the checkpoint and the bad key, not a bare KeyError
    assert err.startswith("error:") and "net.ckpt" in err and named in err and "\n" not in err
    assert not (run_root / "bad.csv").exists()


def test_unknown_config_key_exits_one(run_root, capsys):
    (run_root / "bad.json").write_text(json.dumps({"distil": {"k": 5}}))
    code = main(["train-teacher", "--config", str(run_root / "bad.json"), "--out", "x"])
    assert code == 1
    assert "distil" in capsys.readouterr().err


def test_usage_error_exits_two():
    proc = subprocess.run(
        [sys.executable, "-m", "cdlora", "no-such-command"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 2
    proc = subprocess.run([sys.executable, "-m", "cdlora"], capture_output=True, text=True)
    assert proc.returncode == 2


def test_effective_config_echoed_to_stdout(run_root, capsys):
    cfg_tiny = dict(MINI_CONFIG)
    cfg_tiny["teacher"] = {"steps": 1, "batch": 8}
    (run_root / "tiny.json").write_text(json.dumps(cfg_tiny))
    assert main(["train-teacher", "--config", str(run_root / "tiny.json"),
                 "--out", "echo_run"]) == 0
    echoed = json.loads(capsys.readouterr().out)
    assert echoed["teacher"]["steps"] == 1
    assert echoed["distill"]["omega_fixed"] == 7.5
