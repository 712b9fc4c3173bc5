"""Schema strictness, profile resolution, and manifest round-trips."""

import dataclasses
import json
import math
import os

import pytest

from fednaslab.config import (
    AttackSpec,
    BOSpec,
    ClientSpec,
    DatasetSpec,
    ExperimentConfig,
    OUTPUT_ROOT_ENV,
    PartitionSpec,
    RunManifest,
    TrainSpec,
    build_config,
    load_config,
)
from fednaslab.errors import ConfigError


class TestSectionValidation:
    def test_dataset_defaults_are_synth(self):
        spec = DatasetSpec()
        assert spec.kind == "synth" and spec.num_classes == 2

    @pytest.mark.parametrize("kwargs", [
        {"kind": "mnist"},
        {"kind": "cifar"},            # no path
        {"num_classes": 1},
        {"per_class": 1},
        {"image_side": 6},            # not a power of two
        {"image_side": 2},            # too small
        {"separation": 0.0},
        {"separation": math.inf},
    ])
    def test_dataset_rejects(self, kwargs):
        with pytest.raises(ConfigError):
            DatasetSpec(**kwargs)

    @pytest.mark.parametrize("kwargs", [
        {"scheme": "random"},
        {"alpha": 0.0},
        {"classes_per_client": 0},
        {"skew": 1.0},
        {"skew": -0.1},
    ])
    def test_partition_rejects(self, kwargs):
        with pytest.raises(ConfigError):
            PartitionSpec(**kwargs)

    def test_client_budget_broadcast_and_indexed(self):
        one = ClientSpec(count=3, eps_budgets=(5.0,))
        assert one.budget_for(0) == one.budget_for(2) == 5.0
        per = ClientSpec(count=3, eps_budgets=(1.0, 2.0, math.inf))
        assert per.budget_for(1) == 2.0
        assert math.isinf(per.budget_for(2))

    @pytest.mark.parametrize("kwargs", [
        {"count": 0},
        {"participation": 0.0},
        {"participation": 1.5},
        {"count": 3, "eps_budgets": (1.0, 2.0)},   # wrong length
        {"eps_budgets": (0.0,)},
        {"eps_budgets": (-1.0,)},
        {"delta": 0.0},
        {"delta": 1.0},
    ])
    def test_client_rejects(self, kwargs):
        with pytest.raises(ConfigError):
            ClientSpec(**kwargs)

    def test_train_sigma_auto_is_allowed(self):
        assert TrainSpec(sigma="auto").sigma == "auto"

    @pytest.mark.parametrize("kwargs", [
        {"sigma": "adaptive"},
        {"sigma": -0.1},
        {"rounds": 0},
        {"eta": 0.0},
        {"batch_size": 0},
        {"clip": 0.0},
        {"target_acc": 0.0},
        {"target_acc": 1.5},
        {"eta_theta": 0.0},
    ])
    def test_train_rejects(self, kwargs):
        with pytest.raises(ConfigError):
            TrainSpec(**kwargs)

    def test_zero_local_epochs_rejected_at_load(self):
        # a round without local training has nothing to upload
        with pytest.raises(ConfigError, match=r"train\.local_epochs"):
            TrainSpec(local_epochs=0)
        with pytest.raises(ConfigError, match=r"train\.local_epochs"):
            build_config({"train": {"local_epochs": 0}})

    @pytest.mark.parametrize("kwargs", [
        {"k_init": 1},
        {"n_iter": -1},
        {"trial_epochs": 0},
        {"eta_range": (0.1, 0.01)},
        {"clip_range": (0.0, 1.0)},
        {"sigma_range": (2.0, 2.0)},
        {"q_range": (0.1, 1.5)},
    ])
    def test_bo_rejects(self, kwargs):
        with pytest.raises(ConfigError):
            BOSpec(**kwargs)

    @pytest.mark.parametrize("kwargs", [
        {"seeds": 0},
        {"decoder_epochs": 0},
        {"decoder_lr": 0.0},
        {"aux_fraction": 0.0},
        {"aux_fraction": 1.0},
        {"victim_count": 0},
    ])
    def test_attack_rejects(self, kwargs):
        with pytest.raises(ConfigError):
            AttackSpec(**kwargs)


class TestBuildConfig:
    def test_empty_document_resolves_desk_profile(self):
        config = build_config({})
        assert config.profile == "desk"
        assert config.clients.count == 5
        assert config.space.d_rep == 16
        assert config.space.input_shape == (3, 8, 8)
        assert config.train.rounds == 20
        assert config.train.target_acc == 0.9

    def test_paper_profile_switches_scale(self):
        config = build_config({"profile": "paper"})
        assert config.dataset.kind == "cifar"
        assert config.space.input_shape == (3, 32, 32)
        assert config.space.d_rep == 128
        assert config.clients.count == 10
        assert config.clients.eps_budgets == (5.0,)
        assert config.train.sigma == "auto"

    def test_unknown_profile_rejected(self):
        with pytest.raises(ConfigError, match="profile"):
            build_config({"profile": "laptop"})

    def test_unknown_top_key_rejected_by_name(self):
        with pytest.raises(ConfigError, match="pipeline"):
            build_config({"pipeline": {}})

    def test_unknown_section_key_rejected_by_name(self):
        with pytest.raises(ConfigError, match="learning_rate"):
            build_config({"train": {"learning_rate": 0.1}})

    def test_section_must_be_mapping(self):
        with pytest.raises(ConfigError, match="train"):
            build_config({"train": 3})

    def test_root_must_be_mapping(self):
        with pytest.raises(ConfigError, match="mapping"):
            build_config(["train"])

    def test_override_keeps_profile_siblings(self):
        config = build_config({"dataset": {"per_class": 40}})
        assert config.dataset.per_class == 40
        assert config.dataset.separation == 1.5  # untouched profile value

    def test_inf_budget_spelled_as_string(self):
        config = build_config({"clients": {"eps_budget": "inf"}})
        assert math.isinf(config.clients.eps_budgets[0])

    def test_budget_list_resolves_per_client(self):
        config = build_config(
            {"clients": {"count": 2, "eps_budget": [0.5, "inf"]}})
        assert config.clients.budget_for(0) == 0.5
        assert math.isinf(config.clients.budget_for(1))

    def test_seed_must_be_integer(self):
        with pytest.raises(ConfigError, match="seed"):
            build_config({"seed": "zero"})
        with pytest.raises(ConfigError, match="seed"):
            build_config({"seed": True})

    @pytest.mark.parametrize("key", ["eta", "clip", "sigma"])
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan, "inf"])
    def test_train_rejects_non_finite(self, key, value):
        with pytest.raises(ConfigError, match=rf"train\.{key}\b"):
            build_config({"train": {key: value}})

    def test_yaml_inf_rejected_except_in_eps_budget(self, tmp_path):
        path = tmp_path / "inf.yaml"
        path.write_text("train:\n  eta: .inf\n")
        with pytest.raises(ConfigError, match=r"train\.eta"):
            load_config(path)
        path.write_text("train:\n  clip: .nan\n")
        with pytest.raises(ConfigError, match=r"train\.clip"):
            load_config(path)
        path.write_text("clients:\n  count: 2\n  eps_budget: [.inf, 3]\n")
        config = load_config(path)
        assert math.isinf(config.clients.budget_for(0))
        assert config.clients.budget_for(1) == 3.0

    def test_bo_range_override_validated(self):
        with pytest.raises(ConfigError, match="eta_range"):
            build_config({"bo": {"eta_range": [0.1, 0.01]}})


# One wrong-typed value for every key a document may hold: a bool for an
# int, a string for a number, a scalar for a list, a two-element
# input_shape, a non-bool coarse.
_WRONG_TYPED = {
    "dataset": {"kind": 5, "num_classes": True, "per_class": True,
                "separation": "abc", "image_side": True, "path": 5,
                "coarse": "yes"},
    "partition": {"scheme": 5, "alpha": "abc", "classes_per_client": True,
                  "skew": "abc"},
    "clients": {"count": True, "participation": "abc", "eps_budget": "abc",
                "delta": "abc"},
    "space": {"input_shape": [3, 8], "d_rep": True, "num_classes": True,
              "min_len": True, "max_len": True, "channel_choices": 16,
              "kernel_choices": 3, "pool_types": "avg"},
    "ga": {"pop_size": True, "generations": True, "p_cross": "abc",
           "p_mut": "abc", "eval_epochs": True},
    "bo": {"k_init": True, "n_iter": True, "trial_epochs": True,
           "eta_range": 0.1, "q_range": 0.5, "clip_range": 1.0,
           "sigma_range": 2.0},
    "train": {"rounds": True, "local_epochs": True, "eta": "abc",
              "batch_size": True, "clip": "abc", "sigma": True,
              "head_epochs": True, "eta_theta": "abc", "head_batch": True,
              "target_acc": "abc"},
    "attack": {"seeds": True, "decoder_epochs": True, "decoder_lr": "abc",
               "aux_fraction": "abc", "victim_count": True},
}


class TestSchemaParity:
    def test_table_covers_every_section_key(self):
        for section, wrong in _WRONG_TYPED.items():
            spec = getattr(ExperimentConfig(), section)
            names = {f.name for f in dataclasses.fields(spec)}
            if section == "clients":
                names = names - {"eps_budgets"} | {"eps_budget"}
            assert set(wrong) == names, section

    @pytest.mark.parametrize("section,key,value", [
        (section, key, value)
        for section, wrong in _WRONG_TYPED.items()
        for key, value in wrong.items()
    ])
    def test_wrong_type_names_section_key(self, section, key, value):
        with pytest.raises(ConfigError, match=rf"{section}\.{key}\b"):
            build_config({section: {key: value}})

    @pytest.mark.parametrize("key,value", [
        ("seed", True), ("seed", 1.5), ("output_dir", 5),
    ])
    def test_wrong_type_names_top_key(self, key, value):
        with pytest.raises(ConfigError, match=key):
            build_config({key: value})

    def test_eps_budgets_spelling_stays_unknown(self):
        with pytest.raises(ConfigError, match="eps_budgets"):
            build_config({"clients": {"eps_budgets": [1.0]}})

    def test_profile_hashes_pinned(self):
        assert build_config({}).config_hash() == "580f434610461658"
        assert (build_config({"profile": "paper"}).config_hash()
                == "718e2228cdfb451d")

    def test_optional_keys_accept_null(self):
        config = build_config({"dataset": {"path": None},
                               "train": {"target_acc": None},
                               "output_dir": None})
        assert config.dataset.path is None
        assert config.train.target_acc is None
        assert config.output_dir is None


class TestOutputDirAndHash:
    def test_override_beats_document(self):
        config = build_config({"output_dir": "doc-dir"})
        assert config.resolve_output_dir("flag-dir") == "flag-dir"
        assert config.resolve_output_dir() == "doc-dir"

    def test_env_root_used_when_document_silent(self, monkeypatch):
        monkeypatch.setenv(OUTPUT_ROOT_ENV, "/tmp/elsewhere")
        config = build_config({"seed": 3})
        assert config.resolve_output_dir() == "/tmp/elsewhere/desk-seed3"
        monkeypatch.delenv(OUTPUT_ROOT_ENV)
        assert config.resolve_output_dir() == os.path.join("runs", "desk-seed3")

    def test_hash_is_stable_and_seed_sensitive(self):
        a = build_config({"seed": 1})
        b = build_config({"seed": 1})
        c = build_config({"seed": 2})
        assert a.config_hash() == b.config_hash()
        assert a.config_hash() != c.config_hash()
        assert len(a.config_hash()) == 16
        int(a.config_hash(), 16)  # hex digest prefix

    def test_canonical_json_spells_inf_as_string(self):
        config = build_config({})
        doc = json.loads(config.canonical_json())
        assert doc["clients"]["eps_budgets"] == ["inf"]


class TestLoadConfig:
    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_config(tmp_path / "nope.yaml")

    def test_invalid_yaml(self, tmp_path):
        path = tmp_path / "broken.yaml"
        path.write_text("train: [unclosed\n")
        with pytest.raises(ConfigError, match="YAML"):
            load_config(path)

    def test_empty_file_is_all_defaults(self, tmp_path):
        path = tmp_path / "empty.yaml"
        path.write_text("")
        assert load_config(path).profile == "desk"

    def test_roundtrip_document(self, tmp_path):
        path = tmp_path / "run.yaml"
        path.write_text(
            "profile: desk\nseed: 11\nclients:\n  count: 2\n"
            "train:\n  sigma: auto\n")
        config = load_config(path)
        assert config.seed == 11
        assert config.clients.count == 2
        assert config.train.sigma == "auto"


class TestRunManifest:
    def test_start_then_finalize_roundtrip(self, tmp_path):
        config = build_config({"seed": 4})
        manifest = RunManifest.start("train", config)
        path = tmp_path / "manifest.json"
        manifest.write(path)
        doc = json.loads(path.read_text())
        assert doc["command"] == "train"
        assert doc["seed"] == 4
        assert doc["config_hash"] == config.config_hash()
        assert doc["finished"] is None
        manifest.finalize({"rounds": "rounds.csv"})
        manifest.write(path)
        doc = json.loads(path.read_text())
        assert doc["finished"] is not None
        assert doc["artifacts"] == {"rounds": "rounds.csv"}
