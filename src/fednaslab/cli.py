"""Experiment driver: one subcommand per pipeline stage.

Every stage derives all randomness from the config's seed through fixed
namespaces (data, partition, splits, then per-stage, per-client streams),
so any two runs of the same subcommand with the same document produce
byte-identical CSV artifacts. Stages communicate through files in one
output directory: architecture search writes genome files, hyperparameter
search writes chosen-config files, training writes round logs and model
snapshots, and the attack probe consumes those snapshots.

The stages return their results and open no file: this module alone writes
the output directory, each CSV through its stage's `write_*` rows and each
JSON file through `records.write_json`.

Importing this module sets the process's allocator policy on glibc: large
numpy temporaries stay on the heap instead of being mapped and unmapped per
op (`_keep_temporaries_on_heap` states the values and why).

Exit codes: 0 success, 2 configuration or input error, 3 infeasibility
(no admissible candidate under the privacy budget), 4 runtime failure.
"""

from __future__ import annotations

import ctypes
import dataclasses
import functools
import importlib
import json
import logging
import math
import os
import sys
import traceback

import click
import numpy as np

from .analysis import (
    AttackReport,
    ConvergenceConstants,
    check_eta_w,
    corollary1_rhs,
    corollary2_avg_grad_bound,
    inversion_attack,
    max_eta_theta,
    theorem1_rhs,
    write_attack_csv,
)
from .config import ExperimentConfig, RunManifest, load_config, read_yaml
from .data import (
    Dataset,
    load_cifar_binary,
    partition_class_subset,
    partition_dirichlet,
    split_nas_subsets,
    synth_dataset,
)
from .errors import (
    BudgetExhaustedError,
    ConfigError,
    FedNasError,
    InfeasibleError,
    ParseError,
)
from .federation import (
    ClientState,
    local_steps,
    run_rounds,
    summarize,
    write_round_csv,
)
from .ga import TrainingEvaluator, run_ga, write_ga_trace
from .hpo import (
    DPTrialEvaluator,
    HyperConfig,
    SearchDomain,
    run_bo,
    write_bo_trace,
)
from .privacy import calibrate_sigma, privacy_cost
from .records import json_text, read_record, read_value, write_csv, write_json
from .space import (
    Genome,
    genome_from_string,
    load_model_npz,
    save_model_npz,
)

logger = logging.getLogger(__name__)

# numpy imports these two on first use, which every stage makes
# (np.random.default_rng, and np.unique's masked-array check); import them
# with the package, so that a stage's time holds no module import
for _lazy in ("numpy.random", "numpy.ma"):
    importlib.import_module(_lazy)

# glibc's mallopt parameters (malloc.h)
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3


def _keep_temporaries_on_heap() -> None:
    """Allocator policy, glibc only: keep numpy temporaries on the heap for
    the life of the process.

    A stage runs thousands of small-batch layer ops, each allocating
    temporaries of 0.1-5 MB. By default glibc maps every block above
    M_MMAP_THRESHOLD (128 KiB at start, raised as mapped blocks are freed)
    with its own mmap, and returns the heap top to the kernel past
    M_TRIM_THRESHOLD (twice the mmap threshold); either way the next
    temporary of that size faults in fresh zero-filled pages. Setting either
    parameter switches the adaptation off and leaves the other at its
    128 KiB start, so both are set: in a paper-dp-train stage the mmap
    threshold alone raised the minor faults from 11k to 116k (the heap top
    is trimmed on every free), the trim threshold alone to 529k (every block
    over 128 KiB is mapped); both together lower them to 6k.

    The values follow one rule: keep every block on the heap that the
    adaptation could ever keep there, and never trim mid-stage. The mmap
    threshold is glibc's own cap on its adaptive one on 64-bit builds
    (DEFAULT_MMAP_THRESHOLD_MAX, 32 MiB); the trim threshold, 256 MiB, is
    more than twice the peak RSS of any benchmark stage (about 66 MB, at
    paper shape). Without glibc (no `mallopt` symbol) nothing is set and the
    platform's allocator runs as it is.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, 256 << 20)


# every process that imports this module runs under the policy, the benchmark's
# stage processes and the pytest session included
_keep_temporaries_on_heap()

EXIT_CONFIG = 2
EXIT_INFEASIBLE = 3
EXIT_RUNTIME = 4

# Fixed fallback architecture for runs that skip the search phase.
DEFAULT_GENOME = "C3x32-C3x64-Pavg"

# seed-namespace tags: (seed, tag, ...) keeps every stage's stream disjoint
_TAG_DATA, _TAG_PART, _TAG_SPLIT = 0, 1, 2
_TAG_NAS, _TAG_HPO, _TAG_TRAIN, _TAG_ATTACK = 10, 20, 30, 40


def _fail(code: int, message: str) -> None:
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def _guarded(command):
    """Map exception families onto the exit-code contract."""

    @functools.wraps(command)
    def guarded(*args, **kwargs):
        try:
            command(*args, **kwargs)
        except (ConfigError, ParseError) as exc:
            _fail(EXIT_CONFIG, str(exc))
        except (InfeasibleError, BudgetExhaustedError) as exc:
            _fail(EXIT_INFEASIBLE, str(exc))
        except FedNasError as exc:
            _fail(EXIT_RUNTIME, str(exc))
        except OSError as exc:
            _fail(EXIT_CONFIG, str(exc))
        except Exception as exc:  # noqa: BLE001 - contract: nonzero, surfaced
            traceback.print_exc()
            _fail(EXIT_RUNTIME, f"unexpected failure: {exc!r}")

    return guarded


def _prepare(config: ExperimentConfig):
    """Dataset and per-client NAS splits — identical in every subcommand
    for a given document."""
    ds_spec = config.dataset
    if ds_spec.kind == "synth":
        dataset = synth_dataset(ds_spec.num_classes, ds_spec.per_class,
                                ds_spec.image_side, ds_spec.separation,
                                np.random.default_rng((config.seed, _TAG_DATA)))
    else:
        dataset = load_cifar_binary(ds_spec.path)
        if ds_spec.coarse:
            if dataset.coarse_labels is None:
                raise ConfigError(
                    f"{ds_spec.path}: no coarse labels in this file")
            dataset = Dataset(dataset.images, dataset.coarse_labels,
                              int(dataset.coarse_labels.max()) + 1)
        if dataset.num_classes != ds_spec.num_classes:
            raise ConfigError(
                f"dataset.num_classes={ds_spec.num_classes} but "
                f"{ds_spec.path} holds {dataset.num_classes} classes")
    if config.space.num_classes != dataset.num_classes:
        raise ConfigError(
            f"space.num_classes={config.space.num_classes} does not match "
            f"the dataset's {dataset.num_classes}")
    if tuple(config.space.input_shape) != dataset.images.shape[1:]:
        raise ConfigError(
            f"space.input_shape={config.space.input_shape} does not match "
            f"images of shape {dataset.images.shape[1:]}")
    part = config.partition
    prng = np.random.default_rng((config.seed, _TAG_PART))
    if part.scheme == "dirichlet":
        plan = partition_dirichlet(dataset.labels, config.clients.count,
                                   part.alpha, prng)
    else:
        plan = partition_class_subset(dataset.labels, config.clients.count,
                                      part.classes_per_client, part.skew, prng)
    for k, shard in enumerate(plan.client_indices):
        if not len(shard):
            raise ConfigError(
                f"client {k} gets no samples from the {plan.scheme} partition "
                f"of {len(dataset.labels)} samples over {config.clients.count} "
                "clients; give the clients more data or fewer clients")
    splits = [
        split_nas_subsets(plan.client_indices[k], dataset.labels,
                          np.random.default_rng((config.seed, _TAG_SPLIT, k)))
        for k in range(config.clients.count)
    ]
    for k, split in enumerate(splits):
        for name in ("nas_val", "nas_test"):
            if not len(getattr(split, name)):
                raise ConfigError(
                    f"client {k}'s shard of {len(plan.client_indices[k])} "
                    f"samples leaves its {name} subset empty; give the "
                    "clients more data or fewer clients")
    return dataset, splits


def _genome_path(out_dir: str, k: int) -> str:
    return os.path.join(out_dir, f"genome_client{k}.txt")


def _hyper_path(out_dir: str, k: int) -> str:
    return os.path.join(out_dir, f"hyper_client{k}.json")


def _model_path(out_dir: str, k: int) -> str:
    return os.path.join(out_dir, f"model_client{k}.npz")


def _read_genomes(out_dir: str, count: int) -> list[Genome]:
    genomes = []
    for k in range(count):
        path = _genome_path(out_dir, k)
        if not os.path.exists(path):
            raise ConfigError(
                f"missing genome file {path}; run the nas stage first or "
                "pass --no-nas")
        with open(path) as fh:
            genomes.append(genome_from_string(fh.read().strip()))
    return genomes


def _read_json(path: str, fields: dict | None = None) -> dict:
    """The JSON mapping in `path`. With `fields`, only those keys, each
    required and read as its type (`read_value`). Bad JSON, a non-mapping,
    a missing key or a wrong type is a ConfigError naming the file."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except ValueError as exc:
        raise ConfigError(f"{path}: not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: expected a mapping, got {doc!r}")
    if fields is None:
        return doc
    missing = [key for key in fields if key not in doc]
    if missing:
        raise ConfigError(f"{path}: missing key(s) {missing}")
    return {key: read_value(tp, doc[key], f"{path}: {key}")
            for key, tp in fields.items()}


def _read_hyper(out_dir: str, k: int) -> HyperConfig | None:
    path = _hyper_path(out_dir, k)
    if not os.path.exists(path):
        return None
    # the search's own scores ride along; they configure nothing
    doc = {key: value for key, value in _read_json(path).items()
           if key not in ("predicted", "observed")}
    try:
        return read_record(HyperConfig, doc)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from None


@click.group()
@click.option("--verbose", "-v", is_flag=True, help="debug-level logging")
def main(verbose: bool) -> None:
    """Federated architecture-search laboratory."""
    logging.basicConfig(
        level=logging.DEBUG if verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
        stream=sys.stderr,
    )


def _stage(fn):
    """Register `fn(config, out_dir, **options)` as a pipeline stage command.

    The command loads the config, creates the output directory, writes the
    start manifest, runs the stage and finalizes the manifest with the
    artifacts the stage returns."""

    @click.option("--config", "-c", "config_path", required=True,
                  type=click.Path(), help="experiment document")
    @click.option("--out", "out_override", default=None,
                  type=click.Path(), help="output directory override")
    @_guarded
    @functools.wraps(fn)
    def command(config_path: str, out_override: str | None, **options) -> None:
        config = load_config(config_path)
        out_dir = config.resolve_output_dir(out_override)
        os.makedirs(out_dir, exist_ok=True)
        manifest = RunManifest.start(fn.__name__, config)
        manifest_path = os.path.join(out_dir, f"manifest_{fn.__name__}.json")
        manifest.write(manifest_path)
        manifest.finalize(fn(config, out_dir, **options))
        manifest.write(manifest_path)

    return main.command()(command)


@_stage
def nas(config: ExperimentConfig, out_dir: str) -> dict:
    """Per-client architecture search; writes genome files and trace CSVs."""
    dataset, splits = _prepare(config)
    artifacts = {}
    for k in range(config.clients.count):
        split = splits[k]
        evaluator = TrainingEvaluator(
            config.space,
            dataset.images[split.nas_train], dataset.labels[split.nas_train],
            dataset.images[split.nas_val], dataset.labels[split.nas_val],
            epochs=config.ga.eval_epochs, eta=config.train.eta,
            batch_size=config.train.batch_size)
        result = run_ga(config.ga, config.space, evaluator,
                        np.random.default_rng((config.seed, _TAG_NAS, k)))
        trace_path = os.path.join(out_dir, f"ga_client{k}.csv")
        write_ga_trace(trace_path, result.history)
        path = _genome_path(out_dir, k)
        with open(path, "w") as fh:
            fh.write(str(result.best_genome) + "\n")
        click.echo(f"client {k}: {result.best_genome} "
                   f"(fitness {result.best_fitness:.4f})")
        artifacts[f"genome_client{k}"] = path
        artifacts[f"ga_trace_client{k}"] = trace_path
    return artifacts


@_stage
def hpo(config: ExperimentConfig, out_dir: str) -> dict:
    """Per-client constrained hyperparameter search under the privacy budget."""
    dataset, splits = _prepare(config)
    genomes = _read_genomes(out_dir, config.clients.count)
    artifacts = {}
    for k in range(config.clients.count):
        split = splits[k]
        domain = SearchDomain(config.bo, len(split.nas_train))
        evaluator = DPTrialEvaluator(
            genomes[k], config.space,
            dataset.images[split.nas_train], dataset.labels[split.nas_train],
            dataset.images[split.nas_val], dataset.labels[split.nas_val],
            domain, seed=(config.seed * 1000 + k) & 0x7FFFFFFF,
            delta=config.clients.delta)
        eps_budget = config.clients.budget_for(k)
        try:
            result = run_bo(
                evaluator, domain, eps_budget, delta=config.clients.delta,
                rng=np.random.default_rng((config.seed, _TAG_HPO, k)))
        except InfeasibleError as exc:
            raise InfeasibleError(f"client {k}: {exc}") from exc
        trace_path = os.path.join(out_dir, f"bo_client{k}.csv")
        write_bo_trace(trace_path, result.trace)
        best = result.best
        path = _hyper_path(out_dir, k)
        write_json(path, {**dataclasses.asdict(best),
                          "predicted": result.best_predicted,
                          "observed": result.best_observed})
        click.echo(f"client {k}: eta={best.eta:.4g} B={best.batch_size} "
                   f"C={best.clip:.3g} sigma={best.sigma:.3g} "
                   f"(observed {result.best_observed:.4f})")
        artifacts[f"hyper_client{k}"] = path
        artifacts[f"bo_trace_client{k}"] = trace_path
    return artifacts


def _resolve_hyper(config: ExperimentConfig, out_dir: str, k: int,
                   m_k: int) -> HyperConfig:
    """Stage-two output if present, else the train-section recipe (with
    noise calibration when sigma is "auto").

    Whatever set sigma, the whole federated plan is checked here, before
    round 1: a client that would run dry partway through the rounds is
    infeasible, and the error names where its sigma came from."""
    t = config.train
    budget = config.clients.budget_for(k)
    hyper = _read_hyper(out_dir, k)
    source = _hyper_path(out_dir, k)
    batch = min(t.batch_size if hyper is None else hyper.batch_size, m_k)
    total = t.rounds * local_steps(t.local_epochs, m_k, batch)
    if hyper is None:
        source, sigma = "train.sigma", t.sigma
        if sigma == "auto":
            sigma = calibrate_sigma(batch / m_k, total, budget,
                                    config.clients.delta)
            logger.info("client %d: calibrated sigma=%.4g for %d steps",
                        k, sigma, total)
        hyper = HyperConfig(t.eta, batch, t.clip, float(sigma))
    if math.isfinite(budget):
        # the mechanism of the client's ledger and the steps of round 1's
        # pre-check, so this reads the accountant point calibration or
        # round 1 refines anyway
        planned = privacy_cost(hyper.mechanism(m_k, config.clients.delta), total)
        if planned > budget:
            raise InfeasibleError(
                f"client {k}: {source} sets sigma={hyper.sigma:.4g}, whose "
                f"{total}-step plan costs eps={planned:.4g} over the budget "
                f"eps={budget}")
    return hyper


@_stage
@click.option("--no-nas", is_flag=True,
              help=f"skip genome files and use the fixed {DEFAULT_GENOME}")
@click.option("--local-only", is_flag=True,
              help="disable aggregation/broadcast (isolated local training)")
def train(config: ExperimentConfig, out_dir: str, no_nas: bool,
          local_only: bool) -> dict:
    """Federated training; writes the round log, summary, and model files."""
    dataset, splits = _prepare(config)
    if no_nas:
        genomes = [genome_from_string(DEFAULT_GENOME)
                   for _ in range(config.clients.count)]
    else:
        genomes = _read_genomes(out_dir, config.clients.count)
    clients = []
    for k in range(config.clients.count):
        shard = splits[k].train
        hyper = _resolve_hyper(config, out_dir, k, len(shard))
        clients.append(ClientState.create(
            k, genomes[k], config.space, hyper, shard,
            splits[k].nas_test, config.clients.budget_for(k),
            np.random.default_rng((config.seed, _TAG_TRAIN, k)),
            delta=config.clients.delta))
    reports = run_rounds(config.train, clients, dataset,
                         np.random.default_rng((config.seed, _TAG_TRAIN)),
                         participation=config.clients.participation,
                         aggregate=not local_only)
    rounds_path = os.path.join(out_dir, "rounds.csv")
    write_round_csv(rounds_path, reports)
    summary_path = os.path.join(out_dir, "summary.json")
    write_json(summary_path, summarize(reports, config.train.target_acc))
    artifacts = {"rounds": rounds_path, "summary": summary_path}
    for client in clients:
        path = _model_path(out_dir, client.client_id)
        save_model_npz(path, client.model, client.genome, config.space)
        artifacts[f"model_client{client.client_id}"] = path
    last = reports[-1]
    click.echo(f"round {last.round_index}: mean acc {last.mean_acc:.4f} "
               f"(std {last.std_acc:.4f})")
    return artifacts


def _parse_model_pair(pair: str) -> tuple[float, str]:
    if "=" not in pair:
        raise ConfigError(
            f"--model needs the form <eps>=<path>, got {pair!r}")
    label, path = pair.split("=", 1)
    label = label.strip().lower()
    try:
        eps = math.inf if label in ("inf", "infinity") else float(label)
    except ValueError:
        raise ConfigError(f"--model: {label!r} is not a number") from None
    if not (eps > 0):
        raise ConfigError(f"--model: eps label must be > 0 or inf, got {label!r}")
    if not os.path.exists(path):
        raise ConfigError(f"--model: missing artifact {path}")
    return eps, path


@_stage
@click.option("--model", "model_pairs", multiple=True, required=True,
              help="<eps>=<model npz> pair; repeat once per privacy setting")
def attack(config: ExperimentConfig, out_dir: str,
           model_pairs: tuple[str, ...]) -> dict:
    """Inversion probe against trained encoders; one CSV row per (eps, seed)."""
    pairs = sorted((_parse_model_pair(p) for p in model_pairs),
                   key=lambda item: -item[0])
    dataset, _ = _prepare(config)
    spec = config.attack
    n = len(dataset.images)
    arng = np.random.default_rng((config.seed, _TAG_ATTACK))
    order = arng.permutation(n)
    n_aux = int(spec.aux_fraction * n)
    victim_count = min(spec.victim_count, n - n_aux)
    if n_aux < 1 or victim_count < 1:
        raise ConfigError(
            f"dataset of {n} samples cannot supply aux fraction "
            f"{spec.aux_fraction} plus {spec.victim_count} victims")
    aux = dataset.images[order[:n_aux]]
    victims = dataset.images[order[n_aux:n_aux + victim_count]]
    models = []
    for eps, path in pairs:
        model, _, mspace = load_model_npz(path)
        if mspace.input_shape != config.space.input_shape:
            raise ConfigError(
                f"{path}: encoder expects {mspace.input_shape}, config "
                f"data is {config.space.input_shape}")
        models.append((eps, model))
    reports: list[AttackReport] = []
    per_seed_ordered = []
    for s in range(spec.seeds):
        seed_reports = []
        for j, (eps, model) in enumerate(models):
            report = inversion_attack(
                model, aux, victims, spec,
                np.random.default_rng((config.seed, _TAG_ATTACK, s, j)),
                eps_label=eps, seed=s)
            seed_reports.append(report)
        reports.extend(seed_reports)
        mses = [r.mse for r in seed_reports]
        per_seed_ordered.append(
            all(b >= a - 1e-12 for a, b in zip(mses, mses[1:])))
    csv_path = os.path.join(out_dir, "attack.csv")
    write_attack_csv(csv_path, reports)
    summary_path = os.path.join(out_dir, "attack_summary.json")
    if len(models) > 1:
        fraction = sum(per_seed_ordered) / len(per_seed_ordered)
        summary = {
            "eps_order": [f"{eps:g}" for eps, _ in models],
            "seeds": spec.seeds,
            "ordered_seed_fraction": round(fraction, 6),
            "ordering_holds": fraction > 0.5,
        }
        click.echo(
            f"mse ordering (less private -> more reconstructable) holds "
            f"in {sum(per_seed_ordered)}/{spec.seeds} seeds")
    else:
        summary = {"eps_order": [f"{eps:g}" for eps, _ in models],
                   "seeds": spec.seeds, "ordered_seed_fraction": None,
                   "ordering_holds": None,
                   "note": "single privacy setting; ordering check skipped"}
        click.echo("single privacy setting; ordering check skipped")
    write_json(summary_path, summary)
    return {"attack_csv": csv_path, "attack_summary": summary_path}


@main.command()
@click.argument("constants_path", type=click.Path())
@click.option("--out", "out_path", default=None, type=click.Path(),
              help="write the JSON report here instead of stdout")
@click.option("--t-sweep", "t_sweep", default=None,
              help="comma-separated T values; writes a bound-vs-T CSV "
                   "next to the report")
@_guarded
def bounds(constants_path: str, out_path: str | None,
           t_sweep: str | None) -> None:
    """Evaluate every convergence-bound calculator for one constants file."""
    doc = read_yaml(constants_path, "constants")
    if not isinstance(doc, dict):
        raise ConfigError(f"{constants_path}: expected a mapping")
    try:
        # the two single-round inputs, optional, beside the constants
        loss0 = read_value(float, doc.pop("loss0", 1.0), "loss0")
        gsum = read_value(float, doc.pop("grad_norm_sq_sum", 1.0),
                          "grad_norm_sq_sum")
        constants = read_record(ConvergenceConstants, doc)
    except ConfigError as exc:
        raise ConfigError(f"{constants_path}: {exc}") from None
    report = {
        "inputs": {"loss0": loss0, "grad_norm_sq_sum": gsum},
        "theorem1": theorem1_rhs(constants, loss0, gsum),
        "corollary1": corollary1_rhs(constants, loss0, gsum),
    }
    try:
        report["corollary2"] = {
            "infeasible": False,
            "value": corollary2_avg_grad_bound(constants),
        }
    except InfeasibleError as exc:
        report["corollary2"] = {"infeasible": True, "reason": str(exc)}
    head_bound = max_eta_theta(constants)
    report["max_eta_theta"] = {"value": head_bound.value,
                               "feasible": head_bound.feasible}
    report["eta_w_check"] = check_eta_w(constants)
    if out_path:
        write_json(out_path, report)
    else:
        click.echo(json_text(report), nl=False)
    if t_sweep is not None:
        if report["corollary2"]["infeasible"]:
            click.echo("T sweep skipped: descent coefficient infeasible",
                       err=True)
        else:
            try:
                ts = [int(v) for v in t_sweep.split(",") if v.strip()]
            except ValueError:
                raise ConfigError(
                    f"--t-sweep must be comma-separated integers, got "
                    f"{t_sweep!r}") from None
            if not ts or min(ts) < 1:
                raise ConfigError("--t-sweep values must be >= 1")
            sweep_path = (os.path.splitext(out_path)[0] + "_tsweep.csv"
                          if out_path else "bounds_tsweep.csv")
            write_csv(sweep_path, ["T", "bound"],
                      ([t_val, format(corollary2_avg_grad_bound(
                          dataclasses.replace(constants, T=t_val)), ".10g")]
                       for t_val in ts))
            click.echo(f"T sweep written to {sweep_path}", err=True)


@main.command()
@click.argument("run_dir", type=click.Path())
@_guarded
def report(run_dir: str) -> None:
    """Digest of a finished run directory."""
    if not os.path.isdir(run_dir):
        raise ConfigError(f"not a directory: {run_dir}")
    found = False
    for name in sorted(os.listdir(run_dir)):
        if name.startswith("manifest_") and name.endswith(".json"):
            path = os.path.join(run_dir, name)
            run = read_record(RunManifest, _read_json(path), path, complete=True)
            found = True
            state = "finished" if run.finished else "IN PROGRESS"
            click.echo(f"{run.command}: {state} "
                       f"(config {run.config_hash}, seed {run.seed})")
    summary_path = os.path.join(run_dir, "summary.json")
    if os.path.exists(summary_path):
        summary = _read_json(summary_path, {"mean_acc": float, "std_acc": float,
                                            "rounds_to_target": int | None})
        found = True
        target = summary["rounds_to_target"]
        click.echo(f"final mean acc {summary['mean_acc']:.4f} "
                   f"(std {summary['std_acc']:.4f}); "
                   + (f"target reached in round {target}"
                      if target is not None else "target not reached"))
    attack_path = os.path.join(run_dir, "attack_summary.json")
    if os.path.exists(attack_path):
        asum = _read_json(attack_path, {"ordering_holds": bool | None, "seeds": int})
        found = True
        click.echo(f"attack ordering holds: {asum['ordering_holds']} "
                   f"over {asum['seeds']} seeds")
    # genome_client<k>.txt: a shorter name holds a smaller k
    genomes = sorted((name for name in os.listdir(run_dir)
                      if name.startswith("genome_client")),
                     key=lambda name: (len(name), name))
    for name in genomes:
        with open(os.path.join(run_dir, name)) as fh:
            click.echo(f"{name}: {fh.read().strip()}")
        found = True
    if not found:
        raise ConfigError(f"no run artifacts in {run_dir}")


if __name__ == "__main__":
    main()
