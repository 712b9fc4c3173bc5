"""The benchmark's workloads: the configs each one writes from its seed, the
stage processes it runs, and what its artifacts must show.

Every desk workload deals shards by class subset (the partition is non-IID,
and shard sizes do not depend on the seed), so the seed changes data,
weights, noise and batch order but not how much work a run does. The two
clients hold different shard sizes, so they never share an accountant
curve.
"""

from __future__ import annotations

import csv
import hashlib
import math
import os
import shutil
from dataclasses import dataclass, field

import yaml

FIXED_GENOME = "C3x32-C3x64-Pavg"
CLIENTS = 2
EPS_BUDGET = 5.0

_DESK = {
    "profile": "desk",
    "dataset": {"kind": "synth", "num_classes": 3, "per_class": 200,
                "image_side": 8},
    "space": {"num_classes": 3},
    "partition": {"scheme": "class_subset", "classes_per_client": 2,
                  "skew": 0.5},
    "clients": {"count": CLIENTS, "eps_budget": EPS_BUDGET},
}


def _with(base: dict, **sections) -> dict:
    doc = {k: dict(v) if isinstance(v, dict) else v for k, v in base.items()}
    for key, value in sections.items():
        doc[key] = {**doc.get(key, {}), **value}
    return doc


@dataclass
class Stage:
    """One `fednaslab <command>` process of a workload."""

    command: str
    config: str                      # key into Workload.configs
    extra: list = field(default_factory=list)
    inputs: list = field(default_factory=list)  # files copied into --out

    def argv(self, inputs_dir: str, out_dir: str) -> list[str]:
        args = [self.command, "--config",
                os.path.join(inputs_dir, f"{self.config}.yaml"),
                "--out", out_dir]
        return args + [a.format(inputs=inputs_dir) for a in self.extra]


@dataclass
class Workload:
    name: str
    why: str
    configs: dict                    # seed -> {name: document}, see docs()
    stages: list
    # Host-speed probe parts that scale this workload's times (hostspeed.py).
    # Desk workloads mix 8x8 kernels with Python overhead and follow both
    # parts; over 14 to 20 repetitions, scaling by both left the smallest
    # spread on desk-dp-train (0.059, against 0.063 for the desk part alone),
    # and the paper part alone the smallest on paper-dp-train (0.038,
    # against 0.059 for both).
    speed_parts: tuple = ("desk", "paper")

    def docs(self, seed: int) -> dict:
        return {name: {**doc, "seed": seed} for name, doc in self.configs.items()}


def _desk_dp_train() -> Workload:
    return Workload(
        name="desk-dp-train",
        why="accountant-bound DP federated run: auto sigma, per-round budget "
            "checks, DP steps at 8x8",
        configs={"train": _with(_DESK, train={"rounds": 2, "sigma": "auto"})},
        stages=[Stage("train", "train", extra=["--no-nas"])],
    )


def _desk_search() -> Workload:
    # The nas space holds exactly four genomes and the first generation
    # (pop_size 4, drawn without repeats) evaluates all of them, so every
    # seed trains the same architectures and later generations are served
    # from the fitness cache. hpo's narrow q range fixes the trial batch
    # size, so every trial does the same number of per-sample gradients.
    nas = _with(_DESK,
                space={"channel_choices": [64], "kernel_choices": [3],
                       "pool_types": ["avg"], "min_len": 2, "max_len": 2},
                ga={"pop_size": 4, "generations": 1, "eval_epochs": 3})
    hpo = _with(_DESK, bo={"k_init": 2, "n_iter": 1, "trial_epochs": 2,
                           "q_range": [0.32, 0.34]})
    return Workload(
        name="desk-search",
        why="the only run of ga and hpo: plain-SGD fitness training, then "
            "DP trials with the integer-order accountant",
        configs={"nas": nas, "hpo": hpo},
        stages=[Stage("nas", "nas"),
                Stage("hpo", "hpo", inputs=[f"genome_client{k}.txt"
                                            for k in range(CLIENTS)])],
    )


def _desk_attack() -> Workload:
    return Workload(
        name="desk-attack",
        why="TransposeConv decoder training, no accountant and no DP: the "
            "control for accountant and DP-path changes",
        configs={"attack": _with(_DESK, attack={"seeds": 1,
                                                "decoder_epochs": 6})},
        stages=[Stage("attack", "attack",
                      extra=["--model", "1={inputs}/encoder_eps1.npz",
                             "--model", "inf={inputs}/encoder_epsinf.npz"])],
    )


def _paper_dp_train() -> Workload:
    doc = {
        "profile": "paper",
        "dataset": {"kind": "synth", "num_classes": 10, "per_class": 32,
                    "image_side": 32},
        "partition": {"scheme": "class_subset", "classes_per_client": 6,
                      "skew": 0.5},
        "clients": {"count": CLIENTS, "eps_budget": EPS_BUDGET},
        "train": {"rounds": 1, "local_epochs": 1, "sigma": 3.0},
    }
    return Workload(
        name="paper-dp-train",
        why="paper shape (B=64, 3x32x32): ConvBlock kernels in DP steps and "
            "in the full-shard representation forward",
        configs={"train": doc},
        stages=[Stage("train", "train", extra=["--no-nas"])],
        speed_parts=("paper",),
    )


WORKLOADS = {w.name: w for w in (_desk_dp_train(), _desk_search(),
                                 _desk_attack(), _paper_dp_train())}


def write_inputs(workload: Workload, seed: int, inputs_dir: str) -> None:
    """Config files, and the fixed genome and encoder files some stages read
    in place of another stage's output."""
    os.makedirs(inputs_dir, exist_ok=True)
    for name, doc in workload.docs(seed).items():
        with open(os.path.join(inputs_dir, f"{name}.yaml"), "w") as fh:
            yaml.safe_dump(doc, fh, sort_keys=True)
    for name in {n for stage in workload.stages for n in stage.inputs}:
        with open(os.path.join(inputs_dir, name), "w") as fh:
            fh.write(FIXED_GENOME + "\n")
    if workload.name == "desk-attack":
        import numpy as np

        from fednaslab.config import load_config
        from fednaslab.space import genome_from_string, materialize, save_model_npz

        space = load_config(os.path.join(inputs_dir, "attack.yaml")).space
        genome = genome_from_string(FIXED_GENOME)
        for j, label in enumerate(("eps1", "epsinf")):
            model = materialize(genome, space, np.random.default_rng((seed, j)))
            save_model_npz(os.path.join(inputs_dir, f"encoder_{label}.npz"),
                           model, genome, space)


def stage_out_dir(stage: Stage, inputs_dir: str, out_dir: str) -> None:
    """A fresh output directory holding only the stage's declared inputs."""
    os.makedirs(out_dir)
    for name in stage.inputs:
        shutil.copy(os.path.join(inputs_dir, name), os.path.join(out_dir, name))


# ---------------------------------------------------------------------------
# artifacts


def _expected(command: str, clients: int) -> list[str]:
    per_client = {
        "nas": ["genome_client{k}.txt", "ga_client{k}.csv"],
        "hpo": ["hyper_client{k}.json", "bo_client{k}.csv"],
        "train": ["model_client{k}.npz"],
        "attack": [],
    }[command]
    fixed = {"nas": [], "hpo": [], "train": ["rounds.csv", "summary.json"],
             "attack": ["attack.csv", "attack_summary.json"]}[command]
    return ([f"manifest_{command}.json"] + fixed
            + [p.format(k=k) for p in per_client for k in range(clients)])


def _rows(path: str) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


@dataclass
class Outcome:
    """What one repetition's artifacts show."""

    problems: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    final_loss: float | None = None
    attack_mse: list = field(default_factory=list)
    bytes_up: int = 0
    bytes_down: int = 0
    draws: int = 0
    feasible_draws: int = 0


def _operations(stage: Stage, doc: dict) -> int:
    """Operations a stage attempts: client-rounds for train, attack rows for
    attack, clients for nas and hpo."""
    clients = doc["clients"]["count"]
    if stage.command == "train":
        return doc["train"]["rounds"] * clients
    if stage.command == "attack":
        return doc["attack"]["seeds"] * stage.extra.count("--model")
    return clients


def check_stage(stage: Stage, workload: Workload, out_dir: str,
                exit_code: int, outcome: Outcome) -> None:
    """Add one stage's checks, operations and failures to `outcome`.

    Operations are counted from artifacts, not from the exit code: a
    client-round that uploaded nothing, or an attack row without a finite
    MSE, is a failed operation even when the stage exits 0.
    """
    doc = workload.configs[stage.config]
    ops = _operations(stage, doc)
    outcome.attempted += ops
    if exit_code != 0:
        outcome.problems.append(f"{stage.command} exited {exit_code}")
        outcome.failed += ops
        return
    clients = doc["clients"]["count"]
    missing = [p for p in _expected(stage.command, clients)
               if not os.path.exists(os.path.join(out_dir, p))]
    if missing:
        outcome.problems.append(f"{stage.command}: missing {missing}")
        outcome.failed += ops
        return
    if stage.command == "train":
        rows = _rows(os.path.join(out_dir, "rounds.csv"))
        if not rows:
            outcome.problems.append("rounds.csv has no rows")
            outcome.failed += ops
            return
        budget = doc["clients"]["eps_budget"]
        for r in rows:
            # rounds.csv holds six decimals
            if float(r["eps_spent"]) > budget + 5e-7:
                outcome.problems.append(
                    f"round {r['round']} client {r['client']}: eps_spent "
                    f"{r['eps_spent']} over budget {budget}")
        outcome.failed += sum(int(r["bytes_up"]) == 0 for r in rows)
        outcome.failed += max(0, ops - len(rows))
        last = max(int(r["round"]) for r in rows)
        outcome.final_loss = float(sum(
            float(r["loss"]) for r in rows if int(r["round"]) == last)
            / clients)
        if not math.isfinite(outcome.final_loss):
            outcome.problems.append(f"final_loss {outcome.final_loss}")
        outcome.bytes_up += sum(int(r["bytes_up"]) for r in rows)
        outcome.bytes_down += sum(int(r["bytes_down"]) for r in rows)
    elif stage.command == "attack":
        rows = _rows(os.path.join(out_dir, "attack.csv"))
        mses = [float(r["mse"]) for r in rows]
        outcome.attack_mse = mses
        bad = [m for m in mses if not math.isfinite(m)]
        if bad:
            outcome.problems.append(f"attack mse not finite: {mses}")
        outcome.failed += len(bad) + max(0, ops - len(rows))
    elif stage.command == "hpo":
        for k in range(clients):
            rows = _rows(os.path.join(out_dir, f"bo_client{k}.csv"))
            outcome.draws += len(rows)
            outcome.feasible_draws += sum(r["feasible"] == "1" for r in rows)


def csv_digests(out_dirs: dict) -> dict:
    """SHA-256 of every CSV artifact, keyed by stage/file."""
    digests = {}
    for command, out_dir in out_dirs.items():
        for name in sorted(os.listdir(out_dir)):
            if name.endswith(".csv"):
                with open(os.path.join(out_dir, name), "rb") as fh:
                    digests[f"{command}/{name}"] = hashlib.sha256(
                        fh.read()).hexdigest()
    return digests
