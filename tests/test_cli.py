import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import cdlora.cli
import cdlora.persist
from cdlora.cli import main
from cdlora.denoiser import DenoiserNet
from cdlora.lora import AdapterBundle, LoraAdapter, LoraEntry, attach
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


@pytest.mark.parametrize("count", ["0", "1", "100"])
def test_eval_rejects_count_outside_sample_rows(run_root, capsys, count):
    write_samples(run_root / "eight.csv", np.zeros((8, 2)), np.zeros(8, dtype=np.int64), {})
    assert main(["eval", "--samples", "eight.csv", "--count", count]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.strip()
    assert err.startswith("error: --count") and "\n" not in err


# --cond 8 is the null id of the 8-condition ring8 teacher, not a condition
@pytest.mark.parametrize("flag,value", [("--count", "0"), ("--count", "-3"),
                                        ("--cond", "8"), ("--cond", "-1"), ("--cond", "2.5"),
                                        ("--cond", "abc"), ("--steps", "0"), ("--steps", "60")])
def test_sample_rejects_bad_count_or_cond(run_root, teacher_ckpt, capsys, flag, value):
    capsys.readouterr()
    assert main(["sample", "--ckpt", str(teacher_ckpt), "--steps", "2", "--count", "4",
                 flag, value, "--out", "bad.csv"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.strip()
    assert err.startswith(f"error: {flag}") and "\n" not in err
    assert not (run_root / "bad.csv").exists()


def test_sample_draws_every_row_from_the_given_condition(run_root, teacher_ckpt, capsys):
    assert main(["sample", "--ckpt", str(teacher_ckpt), "--steps", "2", "--count", "16",
                 "--cond", "3", "--out", "three.csv"]) == 0
    samples, cond = read_samples(run_root / "three.csv")
    assert samples.shape == (16, 2) and np.all(cond == 3)


def test_sample_ddim_rejects_steps_above_N(run_root, teacher_ckpt, capsys):
    capsys.readouterr()
    assert main(["sample", "--ckpt", str(teacher_ckpt), "--sampler", "ddim",
                 "--steps", "500", "--count", "4", "--out", "bad.csv"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.strip()
    assert err.startswith("error:") and "500" in err and "\n" not in err
    assert not (run_root / "bad.csv").exists()


def test_sample_ddim_rejects_nan_omega(run_root, teacher_ckpt, capsys):
    capsys.readouterr()
    assert main(["sample", "--ckpt", str(teacher_ckpt), "--sampler", "ddim",
                 "--steps", "10", "--omega", "nan", "--count", "4", "--out", "bad.csv"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.strip()
    assert err.startswith("error:") and "guidance scale" in err and "\n" not in err
    assert not (run_root / "bad.csv").exists()


@pytest.mark.parametrize("omega", ["nan", "inf"])
def test_sample_lcm_rejects_non_finite_omega(run_root, teacher_ckpt, capsys, recwarn, omega):
    capsys.readouterr()
    assert main(["sample", "--ckpt", str(teacher_ckpt), "--sampler", "lcm",
                 "--steps", "2", "--omega", omega, "--count", "4", "--out", "bad.csv"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.strip()
    assert err.startswith("error:") and "guidance scale" in err and "\n" not in err
    assert len(recwarn) == 0
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


def test_eval_rejects_samples_of_another_width(run_root, capsys):
    write_samples(run_root / "three.csv", np.zeros((8, 3)), np.zeros(8, dtype=np.int64), {})
    assert main(["eval", "--samples", "three.csv"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.strip()
    assert err.startswith("error: samples must be 2-D") and "(8, 3) and (8, 2)" in err
    assert "\n" not in err


def test_param_count_formula(run_root, capsys):
    # single 4x6 layer at rank 2 -> 2 * (4 + 6) = 20
    adapter = LoraAdapter("fp", {
        "layer0.weight": LoraEntry(Tensor(np.zeros((2, 6))), Tensor(np.zeros((4, 2))), 1.0)
    })
    save_adapter(run_root / "toy.ckpt", AdapterBundle(adapter, "style", {}))
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


@pytest.mark.parametrize("flag,value", [("--l1", "nan"), ("--l2", "inf")])
def test_combine_rejects_non_finite_weights(run_root, capsys, flag, value):
    _toy_adapter(run_root, "s.ckpt", "style", "fp")
    _toy_adapter(run_root, "a.ckpt", "acceleration", "fp")
    capsys.readouterr()
    assert main(["combine-lora", "--style", "s.ckpt", "--accel", "a.ckpt", flag, value,
                 "--out", "c.ckpt"]) == 1
    captured = capsys.readouterr()
    key = {"--l1": "lambda1", "--l2": "lambda2"}[flag]
    assert captured.out == ""
    assert captured.err.strip() == f"error: combine weights: bad {key!r} {value}"
    assert not (run_root / "c.ckpt").exists()


def _toy_adapter(run_root, name, role, fingerprint):
    adapter = LoraAdapter(fingerprint, {
        "layer0.weight": LoraEntry(Tensor(np.ones((2, 6))), Tensor(np.ones((4, 2))), 1.0)
    })
    save_adapter(run_root / name, AdapterBundle(adapter, role, {}))


def test_combine_reads_each_parent_once(run_root, monkeypatch, capsys):
    _toy_adapter(run_root, "s.ckpt", "style", "fp")
    _toy_adapter(run_root, "a.ckpt", "acceleration", "fp")
    reads = []
    real = cdlora.persist.load_checkpoint

    def counting(path):
        reads.append(Path(path).name)
        return real(path)

    for module in (cdlora.persist, cdlora.cli):  # every name a checkpoint read can go through
        if hasattr(module, "load_checkpoint"):
            monkeypatch.setattr(module, "load_checkpoint", counting)
    assert main(["combine-lora", "--style", "s.ckpt", "--accel", "a.ckpt",
                 "--out", "c.ckpt"]) == 0
    assert sorted(reads) == ["a.ckpt", "s.ckpt"]
    monkeypatch.undo()
    assert load_adapter(run_root / "c.ckpt").adapter.base == "fp"


def test_combine_fingerprint_mismatch_message(run_root, capsys):
    _toy_adapter(run_root, "s.ckpt", "style", "fp-style")
    _toy_adapter(run_root, "a.ckpt", "acceleration", "fp-accel")
    assert main(["combine-lora", "--style", "s.ckpt", "--accel", "a.ckpt",
                 "--out", "c.ckpt"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: adapters were built against different base architectures: "
                            "style fp-style vs acceleration fp-accel\n")
    assert not (run_root / "c.ckpt").exists()


def test_gradcheck_small(run_root, capsys):
    assert main(["gradcheck", "--hidden", "8,8", "--rank", "2", "--batch", "2"]) == 0
    result = json.loads(capsys.readouterr().out)
    assert result["pass"] is True
    assert result["max_rel_err"] < 1e-4


@pytest.mark.parametrize("flag,value", [("--batch", "0"), ("--batch", "-2"),
                                        ("--hidden", "8,0"), ("--tolerance", "nan"),
                                        ("--tolerance", "-1")])
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


def _transpose_layer0(manifest):
    # the byte length still fits, so only the architecture shows the fault
    next(e for e in manifest["tensors"] if e["name"] == "layer0.weight")["shape"].reverse()
    return manifest


def _drop_schedule(manifest):
    del manifest["metadata"]["schedule"]
    return manifest


def _set_meta(*keys, value):
    """A corruption that sets the metadata entry under keys to value."""
    def corrupt(manifest):
        record = manifest["metadata"]
        for key in keys[:-1]:
            record = record[key]
        record[keys[-1]] = value
        return manifest
    return corrupt


def _rename_tensor(old, new):
    def corrupt(manifest):
        next(e for e in manifest["tensors"] if e["name"] == old)["name"] = new
        return manifest
    return corrupt


@pytest.mark.parametrize("corrupt,named", [
    (lambda m: [m], "list"),
    (_drop_weights_hash, "weights_sha256"),
    (_drop_omega_ref, "omega_ref"),
    (_transpose_layer0, "'layer0.weight' has shape"),
    (lambda m: {**m, "metadata": [1]}, "'metadata'"),
    (_drop_schedule, "'schedule'"),
    (_set_meta("schedule", value=[10]), "'schedule'"),
    (_set_meta("schedule", "N", value=10.5), "'N'"),
    (_set_meta("schedule", "beta_max", value=float("inf")), "'beta_max'"),
    (_set_meta("schedule", "beta_min", value=0.2), "'beta_max' 0.05 is below 'beta_min' 0.2"),
    (_set_meta("schedule", "N", value=2000), "'N' 2000 with 'beta_min' 0.0001"),
    (_set_meta("arch", "cond_dim", value="8"), "'cond_dim'"),
    (_set_meta("arch", "hidden", value=[8, -1]), "'hidden'"),
    (_set_meta("arch", "omega_ref", value=float("inf")), "'omega_ref'"),
    (_set_meta("sigma_data", value=-1), "'sigma_data'"),
    (_set_meta("sigma_data", value="abc"), "'sigma_data'"),
    # the second of two 'layer0.weight' entries would replace the first
    (_rename_tensor("layer0.bias", "layer0.weight"), "'layer0.weight': 'name' repeats entry"),
    (_rename_tensor("layer0.bias", "extra"), "unexpected tensor 'extra'"),
], ids=["list", "no-hash", "no-omega_ref", "transposed-weight", "metadata-list", "no-schedule",
        "schedule-list", "float-N", "infinite-beta", "betas-swapped", "alpha-below-guard",
        "string-dim", "negative-width",
        "infinite-omega_ref", "negative-sigma_data", "string-sigma_data", "repeated-name",
        "stray-tensor"])
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


def test_sample_rejects_adapter_manifest_without_targets(run_root, capsys):
    net = DenoiserNet(hidden=(8,), num_conditions=2)
    save_net(run_root / "net.ckpt", net, make_schedule(10),
             {"N": 10, "beta_min": 1e-4, "beta_max": 0.05})
    adapter = attach(net, rank=2, cap_rank=True)
    save_adapter(run_root / "a.ckpt", AdapterBundle(adapter, "acceleration", {}))
    path = run_root / "a.ckpt" / "manifest.json"
    manifest = json.loads(path.read_text())
    del manifest["metadata"]["targets"]
    path.write_text(json.dumps(manifest))
    assert main(["sample", "--ckpt", "net.ckpt", "--adapter", "a.ckpt", "--count", "4",
                 "--out", "bad.csv"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.strip()
    assert err.startswith("error:") and "a.ckpt" in err and "'targets'" in err and "\n" not in err
    assert not (run_root / "bad.csv").exists()


def _repeat_target(meta):
    meta["targets"].append(meta["targets"][0])


def _drop_last_target(meta):
    # its two factor tensors stay in the checkpoint
    name = meta["targets"].pop()
    del meta["ranks"][name], meta["scales"][name]


@pytest.mark.parametrize("edit,named", [
    (_repeat_target, "'targets'"),
    (_drop_last_target, "unexpected tensor 'layer1.weight.lora_A'"),
], ids=["repeated-target", "stray-factor"])
def test_sample_rejects_adapter_record_that_the_factors_do_not_match(run_root, capsys, edit,
                                                                      named):
    net = DenoiserNet(hidden=(8,), num_conditions=2)
    save_net(run_root / "net.ckpt", net, make_schedule(10),
             {"N": 10, "beta_min": 1e-4, "beta_max": 0.05})
    save_adapter(run_root / "a.ckpt",
                 AdapterBundle(attach(net, rank=2, cap_rank=True), "acceleration", {}))
    path = run_root / "a.ckpt" / "manifest.json"
    manifest = json.loads(path.read_text())
    edit(manifest["metadata"])
    path.write_text(json.dumps(manifest))
    assert main(["sample", "--ckpt", "net.ckpt", "--adapter", "a.ckpt", "--count", "4",
                 "--out", "bad.csv"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.strip()
    assert err.startswith("error:") and "a.ckpt" in err and named in err and "\n" not in err
    assert not (run_root / "bad.csv").exists()


def test_more_conditions_than_the_net_fail_every_training_command(run_root, capsys):
    # a 7-condition teacher trained on the one-condition checkerboard; ring8's
    # condition 7 is that net's null id
    seven = {**MINI_CONFIG, "net": {"hidden": [8], "num_conditions": 7},
             "teacher": {"steps": 2, "batch": 8}, "distill": {"steps": 2, "batch_size": 8},
             "style": {"steps": 2, "batch": 8}}
    (run_root / "board.json").write_text(json.dumps(
        {**seven, "dataset": {"kind": "checkerboard", "count": 64}}))
    (run_root / "ring.json").write_text(json.dumps(seven))
    assert main(["train-teacher", "--config", str(run_root / "board.json"), "--out", "t"]) == 0
    teacher = str(run_root / "t" / "teacher.ckpt")
    for cmd in (["train-teacher"], ["distill-lcm", "--teacher", teacher],
                ["finetune-style", "--teacher", teacher]):
        capsys.readouterr()
        assert main([*cmd, "--config", str(run_root / "ring.json"), "--out", "r"]) == 1, cmd
        captured = capsys.readouterr()
        assert captured.out == "", cmd
        assert captured.err.strip() == "error: dataset has 8 conditions, net allows 7", cmd
        assert not (run_root / "r").exists(), cmd
    (run_root / "k60.json").write_text(json.dumps(
        {**seven, "dataset": {"kind": "checkerboard", "count": 64}, "distill": {"k": 60}}))
    capsys.readouterr()
    assert main(["distill-lcm", "--teacher", teacher, "--config", str(run_root / "k60.json"),
                 "--out", "r"]) == 1
    assert capsys.readouterr().err.strip() == "error: run settings: 'k' 60 outside [1, 49]"
    assert not (run_root / "r").exists()


def _assert_refused(run_root, capsys, recwarn, argv, named):
    """argv exits 1 with one error line naming the setting, before any output."""
    capsys.readouterr()
    assert main([*argv, "--out", "bad"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.strip()
    assert err.startswith("error:") and named in err and "\n" not in err
    assert not (run_root / "bad").exists()
    assert len(recwarn) == 0


# each setting writes a teacher that sample rejects, or trains nothing with a
# setting no step could use
@pytest.mark.parametrize("section,setting,named", [
    ("net", {"cond_dim": 0}, "'cond_dim'"),
    ("net", {"hidden": [0]}, "'hidden'"),
    ("net", {"omega_ref": -1}, "'omega_ref'"),
    ("net", {"omega_ref": 0}, "'omega_ref'"),
    ("net", {"time_dim": 0}, "'time_dim'"),
    ("net", {"sigma_data": -1}, "'sigma_data'"),
    ("schedule", {"N": 10.5}, "'N'"),
    ("schedule", {"N": 2000}, "'N' 2000"),
    ("teacher", {"optimizer": "adamw", "steps": 0}, "optimizer"),
    ("teacher", {"checkpoint_every": 2.5}, "checkpoint_every"),
    ("teacher", {"checkpoint_every": -5}, "checkpoint_every"),
    ("teacher", {"p_uncond": "0.1"}, "run settings: bad 'p_uncond' '0.1'"),
    ("dataset", {"count": 2.5}, "dataset: bad 'count' 2.5"),
    ("dataset", {"count": True}, "dataset: bad 'count' True"),
    ("dataset", {"count": -4}, "dataset: 'count' -4 would make an empty dataset"),
    ("dataset", {"params": {"radius": "2"}}, "dataset: bad 'params' entry for 'radius' '2'"),
    ("dataset", {"kind": "rotated"}, "dataset: missing 'params' entry for 'angle_deg'"),
], ids=["cond_dim-0", "hidden-0", "omega_ref-negative", "omega_ref-0", "time_dim-0",
        "sigma_data-negative", "float-N", "N-2000", "unknown-optimizer", "checkpoint_every-float",
        "checkpoint_every-negative", "p_uncond-string", "count-float", "count-bool",
        "count-negative", "radius-string", "rotated-without-angle"])
def test_train_teacher_refuses_a_bad_setting_before_any_step(run_root, capsys, recwarn, section,
                                                              setting, named):
    cfg = {**MINI_CONFIG, section: {**MINI_CONFIG[section], **setting}}
    (run_root / "bad.json").write_text(json.dumps(cfg))
    _assert_refused(run_root, capsys, recwarn,
                    ["train-teacher", "--config", str(run_root / "bad.json")], named)


@pytest.mark.parametrize("command,section,setting,named", [
    ("distill-lcm", "distill", {"steps": -3}, "steps"),
    ("distill-lcm", "distill", {"batch_size": 0}, "batch_size"),
    ("distill-lcm", "distill", {"huber_c": 0}, "huber_c"),
    ("finetune-style", "style", {"optimizer": "adamw", "steps": 0}, "optimizer"),
    ("distill-lcm", "distill", {"checkpoint_every": 2.5}, "checkpoint_every"),
    ("distill-lcm", "distill", {"omega_fixed": -1}, "omega_fixed"),
    ("distill-lcm", "distill", {"guidance_mode": "range", "omega_min": -3}, "omega_min"),
    ("distill-lcm", "distill", {"omega_max": float("inf")}, "omega_max"),
    ("distill-lcm", "lora", {"scale": "x"}, "scale"),
    ("finetune-style", "lora", {"scale": "x"}, "scale"),
    # each of these fails after set-up has begun, and must still leave stdout empty
    ("distill-lcm", "dataset", {"count": 0}, "empty dataset"),
    ("finetune-style", "dataset", {"count": 0}, "empty dataset"),
    ("distill-lcm", "dataset", {"kind": "nope"}, "'nope'"),
    ("finetune-style", "dataset", {"kind": "nope"}, "'nope'"),
    ("distill-lcm", "lora", {"rank": 0}, "rank"),
    ("finetune-style", "lora", {"rank": 0}, "rank"),
    ("distill-lcm", "lora", {"targets": ["bogus"]}, "'bogus'"),
    ("finetune-style", "lora", {"targets": ["bogus"]}, "'bogus'"),
    ("distill-lcm", "distill", {"k": 2.5}, "run settings: bad 'k' 2.5"),
    ("distill-lcm", "distill", {"k": True}, "run settings: bad 'k' True"),
    ("distill-lcm", "distill", {"mu": "0.9"}, "run settings: bad 'mu' '0.9'"),
    ("distill-lcm", "distill", {"mu": True}, "run settings: bad 'mu' True"),
    ("finetune-style", "style", {"p_uncond": "0.1"}, "run settings: bad 'p_uncond' '0.1'"),
    ("distill-lcm", "lora", {"rank": 2.5}, "adapter settings: bad 'rank' 2.5"),
    ("finetune-style", "lora", {"rank": True}, "adapter settings: bad 'rank' True"),
], ids=["distill-negative-steps", "distill-batch-0", "distill-huber_c-0",
        "style-unknown-optimizer", "distill-checkpoint_every-float", "distill-omega_fixed-negative",
        "distill-omega_min-negative", "distill-omega_max-infinite", "distill-scale-string",
        "style-scale-string", "distill-count-0", "style-count-0", "distill-unknown-kind",
        "style-unknown-kind", "distill-rank-0", "style-rank-0", "distill-unknown-target",
        "style-unknown-target", "k-float", "k-bool", "mu-string", "mu-bool",
        "style-p_uncond-string", "rank-float", "rank-bool"])
def test_adapter_commands_refuse_a_bad_setting_before_any_step(run_root, teacher_ckpt, capsys,
                                                               recwarn, command, section,
                                                               setting, named):
    cfg = {**MINI_CONFIG, section: {**MINI_CONFIG[section], **setting}}
    (run_root / "bad.json").write_text(json.dumps(cfg))
    _assert_refused(run_root, capsys, recwarn, [command, "--config", str(run_root / "bad.json"),
                                                "--teacher", str(teacher_ckpt)], named)


@pytest.mark.parametrize("command", [["train-teacher"], ["distill-lcm"], ["finetune-style"]])
def test_training_commands_refuse_a_float_seed(run_root, teacher_ckpt, capsys, recwarn, command):
    (run_root / "bad.json").write_text(json.dumps({**MINI_CONFIG, "seed": 2.5}))
    teacher = [] if command == ["train-teacher"] else ["--teacher", str(teacher_ckpt)]
    _assert_refused(run_root, capsys, recwarn,
                    [*command, *teacher, "--config", str(run_root / "bad.json")],
                    "run settings: bad 'seed' 2.5")


def test_eval_names_an_empty_samples_file(run_root, capsys):
    (run_root / "empty.csv").write_text("")
    assert main(["eval", "--samples", "empty.csv"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.strip()
    assert err.startswith("error:") and "empty.csv" in err and "\n" not in err


@pytest.mark.parametrize("angle", [[], ["--angle-deg", "30"]], ids=["no-angle", "angle"])
def test_eval_refuses_rotated_as_the_dataset(run_root, capsys, angle):
    write_samples(run_root / "eight.csv", np.zeros((8, 2)), np.zeros(8, dtype=np.int64), {})
    assert main(["eval", "--samples", "eight.csv", "--dataset", "rotated", *angle]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.strip()
    assert err.startswith("error: --dataset rotated") and "--angle-deg" in err and "\n" not in err


def test_gradcheck_refuses_empty_hidden(run_root, capsys, recwarn):
    assert main(["gradcheck", "--hidden", "", "--rank", "2", "--batch", "2"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.strip()
    assert err.startswith("error: --hidden") and "\n" not in err
    assert len(recwarn) == 0


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
