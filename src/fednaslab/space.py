"""Block-based architecture space: genomes, validation, materialization.

A genome is an ordered list of block genes. Conv genes become residual
units (depthwise k x k -> pointwise 1x1 -> per-sample norm, plus shortcut);
pool genes become 2x2 stride-2 pools. Materialized bottoms end with a
global average pool and an adaptation linear layer that pins the
representation width, so every client's head has identical shape no matter
what architecture its search found.

`_build` is the one statement of the network a genome describes: it
validates the genome and allocates the layer tree. `materialize` draws its
weights, `param_count` reads its size and `load_model_npz` fills it from a
file.
"""

from __future__ import annotations

import dataclasses
import json
import math
import re
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, InfeasibleError, ParseError
from .nn.layers import AvgPool, ConvBlock, GlobalAvgPool, Linear, MaxPool, Sequential
from .nn.model import Model
from .records import read_record


@dataclass(frozen=True)
class BlockGene:
    """One block: a residual conv unit or a halving pool."""

    kind: str  # "conv" | "pool"
    kernel: int | None = None  # conv: 3 or 5
    channels: int | None = None  # conv: output width
    pool: str | None = None  # pool: "avg" | "max"

    def __post_init__(self):
        if self.kind == "conv":
            if self.kernel not in (3, 5):
                raise ValueError(f"conv kernel must be 3 or 5, got {self.kernel}")
            if not self.channels or self.channels < 1:
                raise ValueError(f"conv channels must be positive, got {self.channels}")
        elif self.kind == "pool":
            if self.pool not in ("avg", "max"):
                raise ValueError(f"pool type must be avg or max, got {self.pool}")
        else:
            raise ValueError(f"unknown block kind {self.kind!r}")

    def token(self) -> str:
        if self.kind == "conv":
            return f"C{self.kernel}x{self.channels}"
        return f"P{self.pool}"

    def __str__(self):
        return self.token()


def conv_gene(kernel: int, channels: int) -> BlockGene:
    return BlockGene(kind="conv", kernel=kernel, channels=channels)


def pool_gene(pool: str) -> BlockGene:
    return BlockGene(kind="pool", pool=pool)


@dataclass(frozen=True)
class Genome:
    """Immutable gene sequence; the canonical string doubles as its hash key."""

    genes: tuple[BlockGene, ...]

    def __len__(self):
        return len(self.genes)

    def __iter__(self):
        return iter(self.genes)

    def __str__(self):
        return genome_to_string(self)

    @property
    def key(self) -> str:
        return genome_to_string(self)

    def n_pools(self) -> int:
        return sum(1 for g in self.genes if g.kind == "pool")


def genome_to_string(genome: Genome) -> str:
    return "-".join(g.token() for g in genome.genes)


_CONV_RE = re.compile(r"^C(\d+)x(\d+)$")
_POOL_RE = re.compile(r"^P(avg|max)$")


def genome_from_string(text: str) -> Genome:
    """Parse the dash-separated token form, e.g. 'C3x16-C5x32-Pavg-C3x64'."""
    tokens = text.strip().split("-")
    genes = []
    for i, tok in enumerate(tokens):
        m = _CONV_RE.match(tok)
        if m:
            try:
                genes.append(conv_gene(int(m.group(1)), int(m.group(2))))
            except ValueError as exc:
                raise ParseError(f"token {i} ({tok!r}): {exc}") from exc
            continue
        m = _POOL_RE.match(tok)
        if m:
            genes.append(pool_gene(m.group(1)))
            continue
        raise ParseError(f"token {i} ({tok!r}) is not a valid block token")
    if not genes:
        raise ParseError("empty genome string")
    return Genome(tuple(genes))


@dataclass(frozen=True)
class SpaceConfig:
    """Bounds and choice sets for the block space."""

    input_shape: tuple[int, int, int] = (3, 32, 32)
    d_rep: int = 128
    num_classes: int = 10
    min_len: int = 3
    max_len: int = 12
    channel_choices: tuple[int, ...] = (16, 32, 64)
    kernel_choices: tuple[int, ...] = (3, 5)
    pool_types: tuple[str, ...] = ("avg", "max")

    def __post_init__(self):
        if len(self.input_shape) != 3 or min(self.input_shape) < 1:
            raise ValueError(f"bad input_shape {self.input_shape}")
        if not (1 <= self.min_len <= self.max_len):
            raise ValueError(f"bad length bounds ({self.min_len}, {self.max_len})")
        if self.d_rep < 1 or self.num_classes < 2:
            raise ValueError("d_rep must be >= 1 and num_classes >= 2")
        for k in self.kernel_choices:
            if k not in (3, 5):
                raise ValueError(f"kernel choice {k} unsupported")
        if not self.channel_choices or not self.pool_types:
            raise ValueError("choice sets must be non-empty")

    @property
    def pool_cap(self) -> int:
        _, h, w = self.input_shape
        return int(math.floor(math.log2(min(h, w))))

    def to_json(self) -> str:
        return json.dumps(dataclasses.asdict(self), indent=2, sort_keys=True)


def conv_alphabet(space: SpaceConfig) -> list[BlockGene]:
    return [
        conv_gene(k, c) for k in space.kernel_choices for c in space.channel_choices
    ]


def legal_genes(space: SpaceConfig, pools_used: int) -> list[BlockGene]:
    """The gene alphabet available given how many pools the genome already holds."""
    genes = conv_alphabet(space)
    if pools_used < space.pool_cap:
        genes.extend(pool_gene(p) for p in space.pool_types)
    return genes


def validate_genome(genome: Genome, space: SpaceConfig) -> list[str]:
    """Return a list of human-readable violations; empty means valid."""
    problems = []
    n = len(genome)
    if not (space.min_len <= n <= space.max_len):
        problems.append(
            f"length {n} outside bounds [{space.min_len}, {space.max_len}]"
        )
    for i, g in enumerate(genome):
        if g.kind == "conv":
            if g.kernel not in space.kernel_choices:
                problems.append(f"gene {i}: kernel {g.kernel} not in {space.kernel_choices}")
            if g.channels not in space.channel_choices:
                problems.append(
                    f"gene {i}: channels {g.channels} not in {space.channel_choices}"
                )
        elif g.pool not in space.pool_types:
            problems.append(f"gene {i}: pool type {g.pool} not in {space.pool_types}")
    # pool_cap = floor(log2(min(h, w))) halvings leave both sides >= 1
    n_pools = genome.n_pools()
    if n_pools > space.pool_cap:
        problems.append(f"{n_pools} pools exceed cap {space.pool_cap}")
    return problems


def sample_random_genome(space: SpaceConfig, rng: np.random.Generator) -> Genome:
    """Uniform length, then each gene uniform over the currently legal alphabet."""
    for _ in range(1000):
        length = int(rng.integers(space.min_len, space.max_len + 1))
        genes = []
        pools = 0
        for _ in range(length):
            options = legal_genes(space, pools)
            gene = options[int(rng.integers(len(options)))]
            if gene.kind == "pool":
                pools += 1
            genes.append(gene)
        genome = Genome(tuple(genes))
        if not validate_genome(genome, space):
            return genome
    raise InfeasibleError(f"could not sample a valid genome from {space}")


def _build(genome: Genome, space: SpaceConfig) -> Model:
    """The split model this genome describes, its parameters still zero."""
    problems = validate_genome(genome, space)
    if problems:
        raise InfeasibleError(f"invalid genome {genome.key}: {problems}")
    c = space.input_shape[0]
    layers = []
    for g in genome:
        if g.kind == "conv":
            layers.append(ConvBlock(c, g.channels, g.kernel))
            c = g.channels
        else:
            layers.append(AvgPool() if g.pool == "avg" else MaxPool())
    layers.append(GlobalAvgPool())
    layers.append(Linear(c, space.d_rep))
    return Model(Sequential(layers),
                 Sequential([Linear(space.d_rep, space.num_classes)]))


def materialize(genome: Genome, space: SpaceConfig, rng: np.random.Generator) -> Model:
    """Build and initialize the split model this genome describes."""
    model = _build(genome, space)
    model.init_params(rng)
    return model


def param_count(genome: Genome, space: SpaceConfig) -> int:
    """The parameter total of the model this genome describes."""
    return _build(genome, space).n_params


def save_model_npz(path, model: Model, genome: Genome, space: SpaceConfig) -> None:
    """Persist a model as (genome string, space json, flat parameter vector).

    Rebuilding goes through `_build`, so the file stays valid as long
    as the genome string and space json round-trip — no pickling involved.
    """
    np.savez(path, genome=str(genome), space=space.to_json(),
             params=model.get_flat())


def load_model_npz(path) -> tuple[Model, Genome, SpaceConfig]:
    """Rebuild a saved model; returns (model, genome, space). The space
    must hold every field, as `save_model_npz` writes them all; a bad one
    is a `ParseError` naming the file and the key."""
    with np.load(path, allow_pickle=False) as data:
        genome = genome_from_string(str(data["genome"]))
        try:
            space = read_record(SpaceConfig, json.loads(str(data["space"])),
                                "space", complete=True)
        except (ConfigError, json.JSONDecodeError) as exc:
            raise ParseError(f"{path}: {exc}") from None
        params = np.asarray(data["params"])
    model = _build(genome, space)
    if params.size != model.n_params:
        raise ParseError(
            f"{path}: parameter vector has {params.size} values, "
            f"genome {genome} needs {model.n_params}")
    model.set_flat(params)
    return model, genome, space
