"""Command-line driver: artifact layout, exit codes, rerun determinism, and
the allocator policy that importing it sets."""

import csv
import json
import math
import os
import pathlib
import subprocess
import sys
import types

import numpy as np
import pytest
import yaml
from click.testing import CliRunner

from fednaslab import cli
from fednaslab.analysis import (
    ConvergenceConstants,
    check_eta_w,
    corollary1_rhs,
    corollary2_avg_grad_bound,
    max_eta_theta,
    theorem1_rhs,
)
from fednaslab.cli import main
from fednaslab.space import genome_from_string

# Small enough that each stage finishes in about a second, large enough
# that every client keeps a non-empty train/val/test split.
_TINY = {
    "profile": "desk",
    "seed": 5,
    "dataset": {"per_class": 60},
    "clients": {"count": 2},
    "ga": {"pop_size": 4, "generations": 2, "eval_epochs": 1},
    "bo": {"k_init": 2, "n_iter": 1, "trial_epochs": 1},
    "train": {"rounds": 2, "local_epochs": 1},
    "attack": {"seeds": 2, "decoder_epochs": 3, "victim_count": 10},
}

_CONSTANTS = {
    "B_grad": 1.0, "L": 1.0, "var_sigma2": 1.0, "noise_delta": 0.5,
    "C": 1.0, "d": 100, "E": 5, "eta_w": 0.01, "eta_theta": 0.005,
    "alpha_dev": 0.5, "p": 0.5, "Delta": 2.0, "G": 4.0, "T": 100,
    "loss0": 2.0, "grad_norm_sq_sum": 10.0,
}


def _write_config(directory, out_name, **overrides):
    doc = {**_TINY, **overrides, "output_dir": str(directory / out_name)}
    path = directory / f"config_{out_name}.yaml"
    path.write_text(yaml.safe_dump(doc))
    return path


def _all_output(result) -> str:
    text = result.output
    try:
        text += result.stderr
    except ValueError:
        pass
    return text


def _invoke(args):
    return CliRunner().invoke(main, [str(a) for a in args])


@pytest.fixture(scope="module")
def pipeline_dir(tmp_path_factory):
    """nas -> hpo -> train executed once; several tests read the artifacts."""
    base = tmp_path_factory.mktemp("pipeline")
    config = _write_config(base, "run")
    for command in ("nas", "hpo", "train"):
        result = _invoke([command, "-c", config])
        assert result.exit_code == 0, _all_output(result)
    return base / "run", config


class TestNas:
    def test_writes_parseable_genomes_and_traces(self, pipeline_dir):
        out, _ = pipeline_dir
        for k in range(2):
            text = (out / f"genome_client{k}.txt").read_text().strip()
            genome = genome_from_string(text)
            assert len(genome) >= 3
            with open(out / f"ga_client{k}.csv") as fh:
                rows = list(csv.reader(fh))
            assert rows[0] == ["gen", "best_acc", "mean_acc", "best_genome"]
            # header + generation 0 (initial population) + each evolved one
            assert len(rows) == 2 + _TINY["ga"]["generations"]

    def test_manifest_finalized_with_artifacts(self, pipeline_dir):
        out, _ = pipeline_dir
        doc = json.loads((out / "manifest_nas.json").read_text())
        assert doc["command"] == "nas"
        assert doc["finished"] is not None
        assert "genome_client0" in doc["artifacts"]


class TestHpo:
    def test_without_genomes_exits_2(self, tmp_path):
        config = _write_config(tmp_path, "fresh")
        result = _invoke(["hpo", "-c", config])
        assert result.exit_code == 2
        assert "genome" in _all_output(result)

    def test_writes_chosen_configs(self, pipeline_dir):
        out, _ = pipeline_dir
        for k in range(2):
            doc = json.loads((out / f"hyper_client{k}.json").read_text())
            assert doc["eta"] > 0 and doc["batch_size"] >= 1
            assert doc["clip"] > 0 and doc["sigma"] >= 0
            with open(out / f"bo_client{k}.csv") as fh:
                header = fh.readline().strip()
            assert header == "iter,eta,B,C,sigma,eps_planned,val_acc,feasible"

    def test_trace_trains_k_init_plus_n_iter_trials(self, pipeline_dir):
        out, _ = pipeline_dir
        bo = _TINY["bo"]
        for k in range(2):
            with open(out / f"bo_client{k}.csv") as fh:
                rows = list(csv.DictReader(fh))
            trained = [r for r in rows if r["val_acc"] != ""]
            assert len(trained) == bo["k_init"] + bo["n_iter"]


class TestTrain:
    def test_round_log_and_models(self, pipeline_dir):
        out, _ = pipeline_dir
        with open(out / "rounds.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == _TINY["train"]["rounds"] * _TINY["clients"]["count"]
        summary = json.loads((out / "summary.json").read_text())
        assert 0.0 <= summary["mean_acc"] <= 1.0
        for k in range(2):
            assert (out / f"model_client{k}.npz").exists()

    def test_missing_genomes_exits_2_unless_no_nas(self, tmp_path):
        config = _write_config(tmp_path, "solo")
        result = _invoke(["train", "-c", config])
        assert result.exit_code == 2
        result = _invoke(["train", "-c", config, "--no-nas"])
        assert result.exit_code == 0, _all_output(result)
        assert (tmp_path / "solo" / "rounds.csv").exists()

    def test_local_only_moves_no_bytes(self, tmp_path):
        config = _write_config(tmp_path, "isolated")
        result = _invoke(["train", "-c", config, "--no-nas", "--local-only"])
        assert result.exit_code == 0, _all_output(result)
        with open(tmp_path / "isolated" / "rounds.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert all(r["bytes_up"] == "0" and r["bytes_down"] == "0"
                   for r in rows)

    def test_partial_participation_one_uploader_per_round(self, tmp_path):
        config = _write_config(tmp_path, "half",
                               clients={"count": 2, "participation": 0.5})
        result = _invoke(["train", "-c", config, "--no-nas"])
        assert result.exit_code == 0, _all_output(result)
        with open(tmp_path / "half" / "rounds.csv") as fh:
            rows = list(csv.DictReader(fh))
        for t in range(1, _TINY["train"]["rounds"] + 1):
            uploads = [int(r["bytes_up"]) for r in rows if r["round"] == str(t)]
            assert len(uploads) == 2
            assert sum(b > 0 for b in uploads) == 1

    def test_aggregated_run_moves_bytes(self, pipeline_dir):
        out, _ = pipeline_dir
        with open(out / "rounds.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert any(int(r["bytes_up"]) > 0 for r in rows)

    def test_unmeetable_budget_exits_3(self, tmp_path):
        config = _write_config(
            tmp_path, "strangled",
            clients={"count": 2, "eps_budget": 1e-6},
            train={**_TINY["train"], "sigma": "auto"})
        result = _invoke(["train", "-c", config, "--no-nas"])
        assert result.exit_code == 3
        assert "sigma" in _all_output(result)

    def test_auto_sigma_run_spends_its_budget(self, tmp_path):
        # sigma is calibrated for the steps the rounds take, so every round
        # trains and the last one ends just inside the budget
        config = _write_config(
            tmp_path, "auto",
            clients={"count": 2, "eps_budget": 5.0},
            train={**_TINY["train"], "sigma": "auto"})
        result = _invoke(["train", "-c", config, "--no-nas"])
        assert result.exit_code == 0, _all_output(result)
        with open(tmp_path / "auto" / "rounds.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert rows and all(int(r["bytes_up"]) > 0 for r in rows)
        last = str(_TINY["train"]["rounds"])
        final = [float(r["eps_spent"]) for r in rows if r["round"] == last]
        assert len(final) == 2
        for spent in final:
            assert 0.99 * 5.0 <= spent <= 5.0

    def _hyper_run(self, tmp_path, sigmas):
        config = _write_config(
            tmp_path, "chosen", clients={"count": 2, "eps_budget": 2.0},
            train={"rounds": 4, "local_epochs": 1})
        (tmp_path / "chosen").mkdir()
        for k, sigma in enumerate(sigmas):
            (tmp_path / "chosen" / f"hyper_client{k}.json").write_text(json.dumps(
                {"eta": 0.01, "batch_size": 8, "clip": 1.0, "sigma": sigma}))
        return _invoke(["train", "-c", config, "--no-nas"])

    def test_searched_sigma_that_runs_dry_exits_3_before_round_1(self, tmp_path):
        # client 0's sigma affords two of the four rounds: unchecked, it
        # trained rounds 1 and 2 and was skipped from round 3 on
        result = self._hyper_run(tmp_path, [2.0, 10.0])
        assert result.exit_code == 3, _all_output(result)
        text = _all_output(result)
        assert "client 0" in text and "hyper_client0.json" in text
        assert "eps=2.313" in text and "budget eps=2.0" in text
        assert not (tmp_path / "chosen" / "rounds.csv").exists()
        assert not (tmp_path / "chosen" / "model_client0.npz").exists()

    def test_searched_sigma_that_lasts_trains_every_round(self, tmp_path):
        result = self._hyper_run(tmp_path, [10.0, 10.0])
        assert result.exit_code == 0, _all_output(result)
        with open(tmp_path / "chosen" / "rounds.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 8 and all(int(r["bytes_up"]) > 0 for r in rows)
        assert all(float(r["eps_spent"]) <= 2.0 for r in rows)

    def _fixed_sigma_run(self, tmp_path, sigma):
        config = _write_config(
            tmp_path, "fixed", clients={"count": 2, "eps_budget": 2.0},
            train={"rounds": 4, "local_epochs": 1, "batch_size": 8,
                   "sigma": sigma})
        return _invoke(["train", "-c", config, "--no-nas"])

    @pytest.mark.parametrize("sigma", [2.0, 0.0])
    def test_fixed_sigma_that_runs_dry_exits_3_before_round_1(self, tmp_path,
                                                              sigma):
        # sigma=2 affords client 0 two of the four rounds: unchecked, it
        # trained rounds 1 and 2 and client 1 never trained; sigma=0 under a
        # finite budget was skipped in every round
        result = self._fixed_sigma_run(tmp_path, sigma)
        assert result.exit_code == 3, _all_output(result)
        text = _all_output(result)
        assert f"client 0: train.sigma sets sigma={sigma:.4g}" in text
        assert "budget eps=2.0" in text
        assert not (tmp_path / "fixed" / "rounds.csv").exists()

    def test_fixed_sigma_that_lasts_trains_every_round(self, tmp_path):
        result = self._fixed_sigma_run(tmp_path, 10.0)
        assert result.exit_code == 0, _all_output(result)
        with open(tmp_path / "fixed" / "rounds.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 8 and all(int(r["bytes_up"]) > 0 for r in rows)
        assert all(float(r["eps_spent"]) <= 2.0 for r in rows)

    @pytest.mark.parametrize("content,needle", [
        (json.dumps({"eta": 0.01, "batch_size": 8, "clip": 1.0,
                     "predicted": 0.5, "observed": 0.5}), "sigma"),
        (json.dumps({"eta": 0.01, "batch_size": 8.5, "clip": 1.0,
                     "sigma": 1.0}), "batch_size"),
        ('{"eta": 0.01, "batch_size": 8,', "JSON"),
        ("[1, 2]", "mapping"),
    ])
    def test_malformed_hyper_file_exits_2_naming_it(self, tmp_path, content,
                                                     needle):
        config = _write_config(tmp_path, "hyper")
        (tmp_path / "hyper").mkdir()
        (tmp_path / "hyper" / "hyper_client0.json").write_text(content)
        result = _invoke(["train", "-c", config, "--no-nas"])
        assert result.exit_code == 2, _all_output(result)
        text = _all_output(result)
        assert "hyper_client0.json" in text and needle in text
        assert "Traceback" not in text

    def test_non_finite_learning_rate_exits_2(self, tmp_path):
        path = tmp_path / "inf.yaml"
        path.write_text("clients:\n  count: 2\ntrain:\n  eta: .inf\n")
        result = _invoke(["train", "-c", path, "--no-nas",
                          "--out", tmp_path / "out"])
        assert result.exit_code == 2
        assert "train.eta" in _all_output(result)
        assert not (tmp_path / "out" / "rounds.csv").exists()


class TestDeterminism:
    def test_rerun_is_byte_identical(self, pipeline_dir, tmp_path):
        out, config = pipeline_dir
        for command in ("nas", "hpo", "train"):
            result = _invoke([command, "-c", config, "--out", tmp_path / "again"])
            assert result.exit_code == 0, _all_output(result)
        for name in ("ga_client0.csv", "ga_client1.csv", "bo_client0.csv",
                     "bo_client1.csv", "rounds.csv", "genome_client0.txt",
                     "genome_client1.txt", "hyper_client0.json",
                     "summary.json"):
            assert (tmp_path / "again" / name).read_bytes() \
                == (out / name).read_bytes(), f"{name} differs across reruns"


class TestAttack:
    def test_rows_ordered_by_seed_then_eps(self, pipeline_dir, tmp_path):
        out, config = pipeline_dir
        result = _invoke([
            "attack", "-c", config, "--out", tmp_path / "probe",
            "--model", f"0.5={out / 'model_client0.npz'}",
            "--model", f"inf={out / 'model_client1.npz'}",
        ])
        assert result.exit_code == 0, _all_output(result)
        with open(tmp_path / "probe" / "attack.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == _TINY["attack"]["seeds"] * 2
        # eps descends within each seed block regardless of flag order
        assert [r["eps"] for r in rows] == ["inf", "0.5", "inf", "0.5"]
        assert [r["seed"] for r in rows] == ["0", "0", "1", "1"]
        summary = json.loads(
            (tmp_path / "probe" / "attack_summary.json").read_text())
        assert summary["eps_order"] == ["inf", "0.5"]
        assert summary["ordering_holds"] in (True, False)

    def test_single_model_skips_ordering(self, pipeline_dir, tmp_path):
        out, config = pipeline_dir
        result = _invoke([
            "attack", "-c", config, "--out", tmp_path / "single",
            "--model", f"inf={out / 'model_client0.npz'}",
        ])
        assert result.exit_code == 0, _all_output(result)
        summary = json.loads(
            (tmp_path / "single" / "attack_summary.json").read_text())
        assert summary["ordering_holds"] is None
        assert "skipped" in summary["note"]

    @pytest.mark.parametrize("pair", [
        "justapath", "abc=somewhere.npz",
        # eps labels outside (0, inf] with a model file that exists
        "nan={model}", "0={model}", "-1={model}", "-inf={model}",
    ])
    def test_malformed_model_pair_exits_2(self, pipeline_dir, tmp_path, pair):
        out, config = pipeline_dir
        pair = pair.format(model=out / "model_client0.npz")
        result = _invoke(["attack", "-c", config, "--out", tmp_path / "bad",
                          "--model", pair])
        assert result.exit_code == 2

    def test_space_missing_key_exits_2_naming_it(self, pipeline_dir, tmp_path):
        out, config = pipeline_dir
        with np.load(out / "model_client0.npz") as data:
            fields = dict(data)
        space = json.loads(str(fields["space"]))
        del space["d_rep"]
        fields["space"] = json.dumps(space)
        damaged = tmp_path / "damaged.npz"
        np.savez(damaged, **fields)
        result = _invoke(["attack", "-c", config, "--out", tmp_path / "bad3",
                          "--model", f"inf={damaged}"])
        assert result.exit_code == 2
        text = _all_output(result)
        assert "d_rep" in text and "damaged.npz" in text
        assert "Traceback" not in text

    def test_missing_model_file_exits_2(self, pipeline_dir, tmp_path):
        _, config = pipeline_dir
        result = _invoke(["attack", "-c", config, "--out", tmp_path / "bad2",
                          "--model", "inf=/nonexistent/model.npz"])
        assert result.exit_code == 2


class TestBounds:
    def _run(self, tmp_path, doc, *extra):
        path = tmp_path / "constants.yaml"
        path.write_text(yaml.safe_dump(doc))
        out = tmp_path / "report.json"
        result = _invoke(["bounds", path, "--out", out, *extra])
        return result, out

    def test_report_matches_direct_calculators(self, tmp_path):
        result, out = self._run(tmp_path, _CONSTANTS)
        assert result.exit_code == 0, _all_output(result)
        report = json.loads(out.read_text())
        constants = ConvergenceConstants(**{
            k: v for k, v in _CONSTANTS.items()
            if k not in ("loss0", "grad_norm_sq_sum")})
        assert report["theorem1"] == pytest.approx(
            theorem1_rhs(constants, 2.0, 10.0), rel=1e-12)
        assert report["corollary1"] == pytest.approx(
            corollary1_rhs(constants, 2.0, 10.0), rel=1e-12)
        assert report["corollary2"]["value"] == pytest.approx(
            corollary2_avg_grad_bound(constants), rel=1e-12)
        bound = max_eta_theta(constants)
        assert report["max_eta_theta"] == {"value": bound.value,
                                           "feasible": bound.feasible}
        audit = check_eta_w(constants)
        assert report["eta_w_check"]["rhs"] == pytest.approx(
            audit["rhs"], rel=1e-12)

    def test_missing_constant_listed(self, tmp_path):
        doc = dict(_CONSTANTS)
        del doc["alpha_dev"], doc["G"]
        result, _ = self._run(tmp_path, doc)
        assert result.exit_code == 2
        text = _all_output(result)
        assert "alpha_dev" in text and "G" in text

    def test_unknown_key_rejected(self, tmp_path):
        result, _ = self._run(tmp_path, {**_CONSTANTS, "gamma": 1.0})
        assert result.exit_code == 2
        assert "gamma" in _all_output(result)

    def test_t_sweep_is_monotone_non_increasing(self, tmp_path):
        result, out = self._run(tmp_path, _CONSTANTS,
                                "--t-sweep", "5,10,100,1000")
        assert result.exit_code == 0, _all_output(result)
        sweep = tmp_path / "report_tsweep.csv"
        with open(sweep) as fh:
            rows = list(csv.DictReader(fh))
        values = [float(r["bound"]) for r in rows]
        assert [int(r["T"]) for r in rows] == [5, 10, 100, 1000]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_infeasible_step_size_flagged_not_fatal(self, tmp_path):
        doc = {**_CONSTANTS, "eta_w": 5.0}  # above 2p/L = 2.0
        result, out = self._run(tmp_path, doc, "--t-sweep", "10,100")
        assert result.exit_code == 0, _all_output(result)
        report = json.loads(out.read_text())
        assert report["corollary2"]["infeasible"] is True
        assert "eta_w" in report["corollary2"]["reason"]
        assert not (tmp_path / "report_tsweep.csv").exists()

    def test_bad_sweep_values_exit_2(self, tmp_path):
        result, _ = self._run(tmp_path, _CONSTANTS, "--t-sweep", "10,oops")
        assert result.exit_code == 2

    def test_missing_file_exits_2(self, tmp_path):
        result = _invoke(["bounds", tmp_path / "absent.yaml"])
        assert result.exit_code == 2

    @pytest.mark.parametrize("key,value", [
        ("loss0", "abc"), ("grad_norm_sq_sum", "abc"), ("loss0", True),
        ("loss0", math.inf), ("d", 1.5), ("L", "abc"),
    ])
    def test_bad_input_exits_2_naming_it(self, tmp_path, key, value):
        result, _ = self._run(tmp_path, {**_CONSTANTS, key: value})
        assert result.exit_code == 2
        text = _all_output(result)
        assert key in text and "constants.yaml" in text
        assert "Traceback" not in text


class TestReport:
    def test_digest_of_finished_run(self, pipeline_dir):
        out, _ = pipeline_dir
        result = _invoke(["report", out])
        assert result.exit_code == 0, _all_output(result)
        assert "train: finished" in result.output
        assert "final mean acc" in result.output
        assert "genome_client0.txt" in result.output

    def test_empty_directory_exits_2(self, tmp_path):
        result = _invoke(["report", tmp_path])
        assert result.exit_code == 2

    def test_missing_directory_exits_2(self, tmp_path):
        result = _invoke(["report", tmp_path / "void"])
        assert result.exit_code == 2

    @pytest.mark.parametrize("name,content,needle", [
        ("manifest_train.json", '{"command": "train"', "JSON"),
        ("manifest_train.json", json.dumps({
            "config_hash": "0", "seed": 0, "package_version": "0",
            "started": "0", "finished": None, "artifacts": {}}), "command"),
        ("manifest_nas.json", '["nas"]', "mapping"),
        ("summary.json", json.dumps({"mean_acc": 0.5}), "std_acc"),
        ("summary.json", "0.5", "mapping"),
        ("summary.json", json.dumps({"mean_acc": "high", "std_acc": 0.0,
                                     "rounds_to_target": None}), "mean_acc"),
        ("attack_summary.json", "{", "JSON"),
        ("attack_summary.json", json.dumps({"seeds": 2}), "ordering_holds"),
    ], ids=["manifest-cut-short", "manifest-without-command",
            "manifest-not-a-mapping", "summary-without-key",
            "summary-not-a-mapping", "summary-wrong-type", "attack-cut-short", "attack-without-key"])
    def test_damaged_file_exits_2_naming_it(self, tmp_path, name, content,
                                            needle):
        (tmp_path / name).write_text(content)
        result = _invoke(["report", tmp_path])
        text = _all_output(result)
        assert result.exit_code == 2, text
        assert name in text and needle in text
        assert "Traceback" not in text


class TestTopLevel:
    def test_unknown_config_key_exits_2(self, tmp_path):
        path = tmp_path / "typo.yaml"
        path.write_text("trian:\n  rounds: 2\n")
        result = _invoke(["nas", "-c", path])
        assert result.exit_code == 2
        assert "trian" in _all_output(result)

    def test_missing_config_exits_2(self, tmp_path):
        result = _invoke(["nas", "-c", tmp_path / "ghost.yaml"])
        assert result.exit_code == 2

    def test_space_dataset_shape_mismatch_exits_2(self, tmp_path):
        config = _write_config(tmp_path, "mismatch",
                               dataset={"per_class": 60, "image_side": 16})
        result = _invoke(["train", "-c", config, "--no-nas"])
        assert result.exit_code == 2
        assert "input_shape" in _all_output(result)


# 20 plain-SGD steps at desk shape in a fresh interpreter; prints the minor
# page faults they took. argv[1] == "cli" imports fednaslab.cli first.
_DESK_STEPS = """
import resource, sys
import numpy as np
if sys.argv[1] == "cli":
    import fednaslab.cli
from fednaslab.nn.model import apply_update, batch_gradient
from fednaslab.space import SpaceConfig, genome_from_string, materialize
space = SpaceConfig(input_shape=(3, 8, 8), d_rep=16, num_classes=2)
rng = np.random.default_rng(0)
model = materialize(genome_from_string("C3x32-C3x64-Pavg"), space, rng)
x = rng.normal(size=(77, 3, 8, 8)).astype(np.float32)
y = rng.integers(0, 2, size=77)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for step in range(20):
    n = (77, 62, 47)[step % 3]
    _, grads, _ = batch_gradient(model, x[:n], y[:n])
    apply_update(model, grads, 0.01)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


def _glibc() -> bool:
    try:
        return bool(os.confstr("CS_GNU_LIBC_VERSION"))
    except (AttributeError, ValueError, OSError):
        return False


class TestAllocatorPolicy:
    @pytest.mark.skipif(not _glibc(), reason="the policy is glibc's mallopt")
    def test_cli_import_keeps_layer_temporaries_on_the_heap(self):
        src = pathlib.Path(cli.__file__).resolve().parents[1]
        # glibc's own allocator settings would set the policy in both children
        env = {key: value for key, value in os.environ.items()
               if not key.startswith("MALLOC_") and key != "GLIBC_TUNABLES"}
        env["PYTHONPATH"] = str(src)

        def faults(mode):
            out = subprocess.run([sys.executable, "-c", _DESK_STEPS, mode],
                                 env=env, capture_output=True, text=True,
                                 check=True)
            return int(out.stdout)

        plain, with_cli = faults("plain"), faults("cli")
        assert with_cli < plain / 4, (plain, with_cli)

    @pytest.mark.parametrize("loader", ["no-mallopt", "no-library"])
    def test_start_up_without_mallopt_sets_nothing(self, monkeypatch, loader):
        def cdll(name):
            if loader == "no-library":
                raise OSError("no C library")
            return types.SimpleNamespace()

        monkeypatch.setattr(cli.ctypes, "CDLL", cdll)
        assert cli._keep_temporaries_on_heap() is None
