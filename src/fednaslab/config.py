"""Experiment configuration: strict YAML schema, profiles, and manifests.

A configuration document is a nested mapping with one section per pipeline
stage. Section and key names are validated strictly — an unknown key is a
hard error, not a warning — so typos cannot silently fall back to
defaults. A `profile` key pulls in a complete set of defaults (`desk` for
minutes-scale synthetic runs, `paper` for the full-size schedule) which the
rest of the document then overrides key by key.

The schema is stated once, by the record dataclasses. Each section record
lives with the stage that takes it, and the CLI hands the section over
unchanged: `SpaceConfig` in space.py, `GAConfig` in ga.py, `BOSpec` in
hpo.py, `TrainSpec` in federation.py and `AttackSpec` in analysis.py;
`DatasetSpec`, `PartitionSpec` and `ClientSpec` live here. A field is an
allowed key, a field without a default a required one, its annotation the
value's type, and the record's `__post_init__` checks ranges.
`records.read_record` is the one reader of every input document:
`build_config` reads a config document into `ExperimentConfig`, the CLI
reads `bounds` constants files into `ConvergenceConstants` and
hyperparameter-search outputs into `HyperConfig`, and `load_model_npz`
reads a saved model's space into `SpaceConfig`.
"""

from __future__ import annotations

import dataclasses
import datetime
import hashlib
import json
import math
import os
from dataclasses import dataclass, field

import yaml

from .analysis import AttackSpec
from .errors import ConfigError
from .federation import TrainSpec
from .ga import GAConfig
from .hpo import BOSpec
from .records import read_record, read_value, write_json
from .space import SpaceConfig

OUTPUT_ROOT_ENV = "FEDNASLAB_RUNS"

_INF_TOKENS = {"inf", "infinity", ".inf"}


# ---------------------------------------------------------------------------
# section records


def _read_budgets(tp, value, where: str) -> tuple[float, ...]:
    """`clients.eps_budget`: one budget for every client or a list of one
    per client. The one key where inf (also spelled "inf") is allowed: it
    means no privacy."""
    budgets = []
    for v in value if isinstance(value, (list, tuple)) else [value]:
        if v == math.inf or (isinstance(v, str)
                             and v.strip().lower() in _INF_TOKENS):
            budgets.append(math.inf)
        else:
            budgets.append(read_value(float, v, where))
    return tuple(budgets)


@dataclass(frozen=True)
class DatasetSpec:
    """What data the run sees: a synthetic classification task or a binary
    image file on disk."""

    kind: str = "synth"
    num_classes: int = 2
    per_class: int = 300
    separation: float = 1.5
    image_side: int = 8
    path: str | None = None
    coarse: bool = False

    def __post_init__(self):
        if self.kind not in ("synth", "cifar"):
            raise ConfigError(f"dataset.kind must be synth or cifar, got {self.kind!r}")
        if self.kind == "cifar" and not self.path:
            raise ConfigError("dataset.path is required when kind is cifar")
        if self.num_classes < 2:
            raise ConfigError(f"dataset.num_classes must be >= 2, got {self.num_classes}")
        if self.per_class < 2:
            raise ConfigError(f"dataset.per_class must be >= 2, got {self.per_class}")
        if self.image_side < 4 or (self.image_side & (self.image_side - 1)):
            raise ConfigError(
                f"dataset.image_side must be a power of two >= 4, got {self.image_side}")
        if not (self.separation > 0 and math.isfinite(self.separation)):
            raise ConfigError(f"dataset.separation must be > 0, got {self.separation}")


@dataclass(frozen=True)
class PartitionSpec:
    """How samples are dealt across clients."""

    scheme: str = "dirichlet"
    alpha: float = 0.5
    classes_per_client: int = 2
    skew: float = 0.0

    def __post_init__(self):
        if self.scheme not in ("dirichlet", "class_subset"):
            raise ConfigError(
                f"partition.scheme must be dirichlet or class_subset, got {self.scheme!r}")
        if self.alpha <= 0:
            raise ConfigError(f"partition.alpha must be > 0, got {self.alpha}")
        if self.classes_per_client < 1:
            raise ConfigError("partition.classes_per_client must be >= 1")
        if not (0.0 <= self.skew < 1.0):
            raise ConfigError(f"partition.skew must be in [0, 1), got {self.skew}")


@dataclass(frozen=True)
class ClientSpec:
    """Population size, participation, and per-client privacy budgets."""

    count: int = 5
    participation: float = 1.0
    eps_budgets: tuple[float, ...] = field(
        default=(math.inf,),
        metadata={"key": "eps_budget", "read": _read_budgets})
    delta: float = 1e-5

    def __post_init__(self):
        if self.count < 1:
            raise ConfigError(f"clients.count must be >= 1, got {self.count}")
        if not (0.0 < self.participation <= 1.0):
            raise ConfigError(
                f"clients.participation must be in (0, 1], got {self.participation}")
        if len(self.eps_budgets) not in (1, self.count):
            raise ConfigError(
                f"clients.eps_budget must be a scalar or a list of length "
                f"{self.count}, got {len(self.eps_budgets)} entries")
        for eps in self.eps_budgets:
            if not (eps > 0):
                raise ConfigError(f"eps budgets must be > 0, got {eps}")
        if not (0.0 < self.delta < 1.0):
            raise ConfigError(f"clients.delta must be in (0, 1), got {self.delta}")

    def budget_for(self, client_id: int) -> float:
        if len(self.eps_budgets) == 1:
            return self.eps_budgets[0]
        return self.eps_budgets[client_id]


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything one run needs, resolved and validated."""

    seed: int = 0
    profile: str = "desk"
    output_dir: str | None = None
    dataset: DatasetSpec = field(default_factory=DatasetSpec)
    partition: PartitionSpec = field(default_factory=PartitionSpec)
    clients: ClientSpec = field(default_factory=ClientSpec)
    space: SpaceConfig = field(default_factory=SpaceConfig)
    ga: GAConfig = field(default_factory=GAConfig)
    bo: BOSpec = field(default_factory=BOSpec)
    train: TrainSpec = field(default_factory=TrainSpec)
    attack: AttackSpec = field(default_factory=AttackSpec)

    def resolve_output_dir(self, override: str | None = None) -> str:
        """Flag override > document value > environment root > ./runs."""
        if override:
            return override
        if self.output_dir:
            return self.output_dir
        root = os.environ.get(OUTPUT_ROOT_ENV, "runs")
        return os.path.join(root, f"{self.profile}-seed{self.seed}")

    def canonical_json(self) -> str:
        """Stable serialization used for hashing and the manifest."""

        def unfold(value):
            if dataclasses.is_dataclass(value) and not isinstance(value, type):
                return {k: unfold(v) for k, v in
                        dataclasses.asdict(value).items()}
            if isinstance(value, dict):
                return {k: unfold(v) for k, v in value.items()}
            if isinstance(value, (list, tuple)):
                return [unfold(v) for v in value]
            if isinstance(value, float) and math.isinf(value):
                return "inf"
            return value

        return json.dumps(unfold(self), sort_keys=True, separators=(",", ":"))

    def config_hash(self) -> str:
        return hashlib.sha256(self.canonical_json().encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# profiles

# Minutes-scale profile: tiny synthetic images, shallow space, short
# schedules. Values chosen so every stage runs in seconds on one core while
# still exercising each code path.
_DESK = {
    "dataset": {"kind": "synth", "num_classes": 2, "per_class": 300,
                "separation": 1.5, "image_side": 8},
    "partition": {"scheme": "dirichlet", "alpha": 0.5},
    "clients": {"count": 5, "participation": 1.0, "eps_budget": "inf",
                "delta": 1e-5},
    "space": {"input_shape": [3, 8, 8], "d_rep": 16, "num_classes": 2,
              "min_len": 3, "max_len": 4},
    "ga": {"pop_size": 6, "generations": 3, "p_cross": 0.9, "p_mut": 0.2,
           "eval_epochs": 2},
    "bo": {"k_init": 3, "n_iter": 4, "trial_epochs": 3},
    "train": {"rounds": 20, "local_epochs": 2, "eta": 0.02, "batch_size": 32,
              "clip": 1.0, "sigma": 0.0, "target_acc": 0.9},
    "attack": {"seeds": 5, "decoder_epochs": 30},
}

# Full-size schedule matching the reference experimental setup; expects a
# CIFAR-format binary file and hours of compute.
_PAPER = {
    "dataset": {"kind": "cifar", "num_classes": 10, "path": "data/cifar.bin"},
    "partition": {"scheme": "dirichlet", "alpha": 0.5},
    "clients": {"count": 10, "participation": 1.0, "eps_budget": 5.0,
                "delta": 1e-5},
    "space": {"input_shape": [3, 32, 32], "d_rep": 128, "num_classes": 10,
              "min_len": 3, "max_len": 12},
    "ga": {"pop_size": 10, "generations": 20, "p_cross": 0.9, "p_mut": 0.2,
           "eval_epochs": 5},
    "bo": {"k_init": 5, "n_iter": 30, "trial_epochs": 5},
    "train": {"rounds": 300, "local_epochs": 30, "eta": 0.01,
              "batch_size": 64, "clip": 1.0, "sigma": "auto"},
    "attack": {"seeds": 5, "decoder_epochs": 60},
}

PROFILES = {"desk": _DESK, "paper": _PAPER}


def _merge(base: dict, override: dict) -> dict:
    out = {k: dict(v) if isinstance(v, dict) else v for k, v in base.items()}
    for key, value in override.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = {**out[key], **value}
        else:
            out[key] = value
    return out


# ---------------------------------------------------------------------------
# document -> records


def build_config(document: dict) -> ExperimentConfig:
    """Validate a parsed document and resolve it over its profile."""
    if not isinstance(document, dict):
        raise ConfigError(f"config root must be a mapping, got {type(document).__name__}")
    profile = document.get("profile", "desk")
    if not isinstance(profile, str) or profile not in PROFILES:
        raise ConfigError(
            f"profile must be one of {sorted(PROFILES)}, got {profile!r}")
    return read_record(ExperimentConfig, _merge(PROFILES[profile], document))


def read_yaml(path, what: str):
    """Parse a YAML file; a missing or malformed file is a `ConfigError`."""
    try:
        with open(path) as fh:
            return yaml.safe_load(fh)
    except FileNotFoundError:
        raise ConfigError(f"{what} file not found: {path}") from None
    except yaml.YAMLError as exc:
        raise ConfigError(f"{path}: not valid YAML: {exc}") from exc


def load_config(path) -> ExperimentConfig:
    """Parse a YAML document from disk and validate it."""
    document = read_yaml(path, "config")
    return build_config({} if document is None else document)


# ---------------------------------------------------------------------------
# manifests


@dataclass
class RunManifest:
    """Provenance record written at the start of a run and finalized at the
    end, so a half-written output directory is recognizable."""

    command: str
    config_hash: str
    seed: int
    package_version: str
    started: str
    finished: str | None = None
    artifacts: dict = field(default_factory=dict)

    @classmethod
    def start(cls, command: str, config: ExperimentConfig) -> "RunManifest":
        from . import __version__
        now = datetime.datetime.now(datetime.timezone.utc).isoformat()
        return cls(command=command, config_hash=config.config_hash(),
                   seed=config.seed, package_version=__version__, started=now)

    def finalize(self, artifacts: dict) -> None:
        self.artifacts = dict(artifacts)
        self.finished = datetime.datetime.now(datetime.timezone.utc).isoformat()

    def write(self, path) -> None:
        write_json(path, dataclasses.asdict(self))
