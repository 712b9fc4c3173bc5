"""Experiment configuration: strict YAML schema, profiles, and manifests.

A configuration document is a nested mapping with one section per pipeline
stage. Section and key names are validated strictly — an unknown key is a
hard error, not a warning — so typos cannot silently fall back to
defaults. A `profile` key pulls in a complete set of defaults (`desk` for
minutes-scale synthetic runs, `paper` for the full-size schedule) which the
rest of the document then overrides key by key.

The schema is stated once, by the record dataclasses: `ExperimentConfig`
and its section records here, `SpaceConfig` (space.py) and `GAConfig`
(ga.py). A field is an allowed key, a field without a default a required
one, its annotation the value's type, and the record's `__post_init__`
checks ranges. `read_record` is the one reader of every input document:
`build_config` reads a config document into `ExperimentConfig`, and the
CLI reads `bounds` constants files into `ConvergenceConstants` and
hyperparameter-search outputs into `HyperConfig`.
"""

from __future__ import annotations

import dataclasses
import datetime
import functools
import hashlib
import json
import math
import os
import types
import typing
from dataclasses import dataclass, field

import yaml

from .errors import ConfigError
from .ga import GAConfig
from .space import SpaceConfig

OUTPUT_ROOT_ENV = "FEDNASLAB_RUNS"

_INF_TOKENS = {"inf", "infinity", ".inf"}


# ---------------------------------------------------------------------------
# the one reader


def _fail(where: str, message: str):
    raise ConfigError(f"{where}: {message}" if where else message)


def read_value(tp, value, where: str):
    """Coerce one document value to the annotated type `tp`: numbers must
    be finite and a bool is not one, lists become tuples, a union takes its
    first member that fits, and a dataclass reads a nested mapping."""
    if dataclasses.is_dataclass(tp):
        return read_record(tp, value, where)
    if isinstance(tp, types.UnionType):
        errors = []
        for member in typing.get_args(tp):
            try:
                return read_value(member, value, where)
            except ConfigError as exc:
                errors.append(exc)
        raise errors[0]
    if typing.get_origin(tp) is tuple:
        if not isinstance(value, (list, tuple)):
            _fail(where, f"expected a list, got {value!r}")
        args = typing.get_args(tp)
        if args[-1] is Ellipsis:
            args = args[:1] * len(value)
        elif len(value) != len(args):
            _fail(where, f"expected a list of {len(args)}, got {value!r}")
        return tuple(read_value(a, v, where) for a, v in zip(args, value))
    if tp is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            _fail(where, f"expected a number, got {value!r}")
        if not math.isfinite(value):
            _fail(where, f"expected a finite number, got {value!r}")
        return float(value)
    if isinstance(value, bool) and tp is int or not isinstance(value, tp):
        kind = {int: "an integer", bool: "a boolean", str: "a string"}
        _fail(where, f"expected {kind.get(tp, tp.__name__)}, got {value!r}")
    return value


@functools.cache
def _schema(cls) -> tuple:
    """(document key, field, type, required) for each field of `cls`."""
    hints = typing.get_type_hints(cls)
    return tuple((f.metadata.get("key", f.name), f, hints[f.name],
                  f.default is f.default_factory is dataclasses.MISSING)
                 for f in dataclasses.fields(cls))


def read_record(cls, mapping, where: str = ""):
    """Build the dataclass `cls` from a parsed document mapping.

    The dataclass is the schema: its fields are the allowed keys, fields
    without a default are required, and each annotation is the value's
    type (`read_value`). A field's metadata may give its document `key`
    and a `read` function of its own. `cls.__post_init__` then checks
    ranges. `where` names the mapping in messages ("train" for a section,
    "" for a whole document); every failure is a `ConfigError`.
    """
    if not isinstance(mapping, dict):
        _fail(where, f"expected a mapping, got {mapping!r}")
    schema = _schema(cls)
    keys = [key for key, *_ in schema]
    unknown = sorted(set(mapping) - set(keys))
    if unknown:
        _fail(where, f"unknown key(s) {unknown}; allowed: {sorted(keys)}")
    missing = [key for key, _, _, required in schema
               if required and key not in mapping]
    if missing:
        _fail(where, f"missing key(s) {missing}")
    kwargs = {}
    for key, f, tp, _ in schema:
        if key in mapping:
            read = f.metadata.get("read", read_value)
            kwargs[f.name] = read(tp, mapping[key],
                                  f"{where}.{key}" if where else key)
    try:
        return cls(**kwargs)
    except ValueError as exc:
        _fail(where, str(exc))


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


# ---------------------------------------------------------------------------
# section records


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
class BOSpec:
    """Hyperparameter-search schedule and box bounds."""

    k_init: int = 3
    n_iter: int = 5
    trial_epochs: int = 3
    eta_range: tuple[float, float] = (1e-4, 1e-1)
    q_range: tuple[float, float] = (0.02, 1.0)
    clip_range: tuple[float, float] = (0.1, 4.0)
    sigma_range: tuple[float, float] = (0.5, 4.0)

    def __post_init__(self):
        if self.k_init < 2:
            raise ConfigError(f"bo.k_init must be >= 2, got {self.k_init}")
        if self.n_iter < 0:
            raise ConfigError(f"bo.n_iter must be >= 0, got {self.n_iter}")
        if self.trial_epochs < 1:
            raise ConfigError(f"bo.trial_epochs must be >= 1, got {self.trial_epochs}")
        for name in ("eta_range", "q_range", "clip_range", "sigma_range"):
            lo, hi = getattr(self, name)
            if not (0 < lo < hi):
                raise ConfigError(
                    f"bo.{name}: need 0 < low < high, got {(lo, hi)}")
        if self.q_range[1] > 1.0:
            raise ConfigError(
                f"bo.q_range: high must be <= 1, got {self.q_range[1]}")


@dataclass(frozen=True)
class TrainSpec:
    """Federated schedule plus the fallback local recipe used when no
    hyperparameter-search output is supplied.

    `sigma` may be the string "auto", meaning: calibrate the noise
    multiplier per client to the smallest value whose whole-run cost fits
    the client's budget.
    """

    rounds: int = 20
    local_epochs: int = 2
    eta: float = 0.02
    batch_size: int = 32
    clip: float = 1.0
    sigma: float | str = 0.0
    head_epochs: int = 5
    eta_theta: float = 0.01
    head_batch: int = 64
    target_acc: float | None = None

    def __post_init__(self):
        if self.rounds < 1 or self.local_epochs < 0:
            raise ConfigError(
                f"train.rounds must be >= 1 and train.local_epochs >= 0, got "
                f"{self.rounds}, {self.local_epochs}")
        if self.eta <= 0 or self.batch_size < 1 or self.clip <= 0:
            raise ConfigError("train.eta and train.clip must be > 0, "
                              "train.batch_size >= 1")
        if isinstance(self.sigma, str):
            if self.sigma != "auto":
                raise ConfigError(
                    f'train.sigma must be a number or "auto", got {self.sigma!r}')
        elif self.sigma < 0:
            raise ConfigError(f"train.sigma must be >= 0, got {self.sigma}")
        if self.head_epochs < 1 or self.eta_theta <= 0 or self.head_batch < 1:
            raise ConfigError("bad train head parameters")
        if self.target_acc is not None and not (0.0 < self.target_acc <= 1.0):
            raise ConfigError(f"train.target_acc must be in (0, 1], got {self.target_acc}")


@dataclass(frozen=True)
class AttackSpec:
    """Inversion-probe schedule."""

    seeds: int = 5
    decoder_epochs: int = 40
    decoder_lr: float = 1e-3
    aux_fraction: float = 0.5
    victim_count: int = 40

    def __post_init__(self):
        if self.seeds < 1:
            raise ConfigError(f"attack.seeds must be >= 1, got {self.seeds}")
        if self.decoder_epochs < 1:
            raise ConfigError("attack.decoder_epochs must be >= 1")
        if self.decoder_lr <= 0:
            raise ConfigError("attack.decoder_lr must be > 0")
        if not (0.0 < self.aux_fraction < 1.0):
            raise ConfigError(
                f"attack.aux_fraction must be in (0, 1), got {self.aux_fraction}")
        if self.victim_count < 1:
            raise ConfigError("attack.victim_count must be >= 1")


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
        with open(path, "w") as fh:
            json.dump(dataclasses.asdict(self), fh, indent=2, sort_keys=True)
            fh.write("\n")
