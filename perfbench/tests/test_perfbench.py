"""Tests of the stage benchmark: span arithmetic, artifact accounting, and
tiny runs of every workload through real stage processes."""

from __future__ import annotations

import copy
import dataclasses
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import hostspeed  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def _span(name, start, end, parent, value=0):
    return [name, start, end, parent, value]


def test_self_time_subtracts_direct_children_only():
    tree = [
        _span("cli.train", 0.0, 10.0, -1),                      # 0
        _span("federation.run_rounds", 1.0, 9.0, 0),            # 1
        _span("federation.local_train", 2.0, 6.0, 1),           # 2
        _span("privacy.dp_sgd_step", 2.5, 5.0, 2),              # 3
        _span("nn.model.loss_and_per_sample_grads", 3.0, 4.5, 3, 800),
        _span("federation.emit_representations", 6.5, 8.0, 1),  # 5
    ]
    assert spans.self_times(tree) == pytest.approx(
        [2.0, 2.5, 1.5, 1.0, 1.5, 1.5])
    summary = spans.summarize(tree)
    assert summary["root_s"] == {"cli.train": 10.0}
    assert summary["uncovered_s"] == pytest.approx(2.0)
    assert summary["psg_bytes"] == {"plain": 0, "dp": 800}
    assert summary["calls"]["privacy.dp_sgd_step"] == 1


def test_accountant_time_counts_outermost_calls_once():
    tree = [
        _span("cli.train", 0.0, 10.0, -1),
        _span("privacy.max_steps_within_budget", 1.0, 4.0, 0),
        _span("privacy.privacy_cost", 1.5, 2.0, 1),
        _span("privacy.privacy_cost", 2.5, 3.5, 1),
        _span("privacy.eps_spent", 5.0, 6.0, 0),
        _span("privacy.privacy_cost", 5.2, 5.9, 4),
        _span("nn.model.batch_gradient", 7.0, 8.0, 0),
        _span("nn.model.loss_and_per_sample_grads", 7.1, 7.9, 6, 64),
    ]
    summary = spans.summarize(tree)
    assert summary["accountant_s"] == pytest.approx(4.0)
    assert summary["calls"]["privacy.privacy_cost"] == 3
    assert summary["psg_bytes"] == {"plain": 64, "dp": 0}
    merged = spans.merge([summary, summary])
    assert merged["accountant_s"] == pytest.approx(8.0)
    assert merged["calls"]["privacy.privacy_cost"] == 6


def test_speed_factor_weighs_the_cores_the_stage_ran_on():
    ref = hostspeed.REF_KERNEL_S
    desk, paper = ref["desk"], ref["paper"]

    def sample(cpu, start, slowdown, paper_slowdown=1.0):
        return (cpu, start, start + 0.1, desk * slowdown,
                paper * paper_slowdown)

    samples = [sample(0, 0.0, 1), sample(0, 1.0, 2), sample(0, 1.5, 2),
               sample(0, 2.0, 2), sample(0, 5.0, 0.5),
               sample(1, 1.0, 1), sample(1, 1.5, 1), sample(1, 2.0, 1)]
    on_0 = [(1.2, 0), (1.8, 0)]
    # core 0 at half speed: the stage would have taken half as long
    assert hostspeed.speed_factor(samples, on_0, 0.9, 2.2, ("desk",)) == \
        pytest.approx(0.5)
    # a quarter of the notes on core 1, which ran at reference speed
    half_and_1 = on_0 + [(1.4, 0), (2.1, 1)]
    assert hostspeed.speed_factor(samples, half_and_1, 0.9, 2.2,
                                  ("desk",)) == pytest.approx(0.75 * 0.5 + 0.25)
    # no note in the interval: both cores weigh the same
    assert hostspeed.speed_factor(samples, [], 0.9, 2.2, ("desk",)) == \
        pytest.approx(0.75)
    # one sample of core 0 inside: its three nearest, at 5.0, 2.0 and 1.5
    assert hostspeed.speed_factor(samples, [(5.0, 0)], 4.9, 5.2,
                                  ("desk",)) == \
        pytest.approx(1 / ((0.5 + 2 + 2) / 3))
    # parts are summed before the ratio: only the desk part slowed here
    assert hostspeed.speed_factor(samples, on_0, 0.9, 2.2) == pytest.approx(
        (desk + paper) / (2 * desk + paper))
    assert hostspeed.speed_factor(samples, on_0, 0.9, 2.2, ("paper",)) == \
        pytest.approx(1.0)


def test_probe_measures_and_is_stopped(tmp_path):
    with hostspeed.Probe(str(tmp_path / "speed.txt"),
                         run._child_env()) as probe:
        assert probe.samples()
        assert {s[0] for s in probe.samples()} <= os.sched_getaffinity(0)
        assert hostspeed.current_cpu(probe.proc.pid) in os.sched_getaffinity(0)
        proc = probe.proc
    assert proc.returncode is not None


def test_failed_operations_come_from_artifacts(tmp_path):
    """A train stage that skipped every client still exits 0; its rows with
    nothing uploaded are failed operations."""
    w = workloads.WORKLOADS["paper-dp-train"]
    stage = w.stages[0]
    (tmp_path / "rounds.csv").write_text(
        "round,client,val_acc,loss,eps_spent,bytes_up,bytes_down\n"
        "1,0,0.100000,2.302585,0.000000,0,0\n"
        "1,1,0.100000,2.302585,0.000000,0,0\n")
    for name in workloads._expected("train", 2):
        if not (tmp_path / name).exists():
            (tmp_path / name).write_text("")
    outcome = workloads.Outcome()
    workloads.check_stage(stage, w, str(tmp_path), 0, outcome)
    assert (outcome.attempted, outcome.failed) == (2, 2)
    assert outcome.problems == []

    over = workloads.Outcome()
    (tmp_path / "rounds.csv").write_text(
        "round,client,val_acc,loss,eps_spent,bytes_up,bytes_down\n"
        "1,0,0.100000,2.302585,5.000100,10,4\n"
        "1,1,0.100000,inf,1.000000,10,4\n")
    workloads.check_stage(stage, w, str(tmp_path), 0, over)
    assert over.failed == 0
    assert any("over budget" in p for p in over.problems)
    assert any("final_loss" in p for p in over.problems)


# Shortest schedules that still run every stage of each workload.
_TINY = {
    "desk-dp-train": {"train": {"train": {"rounds": 1, "local_epochs": 1},
                                "dataset": {"per_class": 60}}},
    "desk-search": {"nas": {"ga": {"generations": 0, "eval_epochs": 1},
                            "dataset": {"per_class": 60}},
                    "hpo": {"bo": {"k_init": 2, "n_iter": 0,
                                   "trial_epochs": 1},
                            "dataset": {"per_class": 60}}},
    "desk-attack": {"attack": {"attack": {"decoder_epochs": 1},
                               "dataset": {"per_class": 60}}},
    "paper-dp-train": {"train": {"dataset": {"per_class": 8}}},
}


def _tiny(name: str) -> workloads.Workload:
    w = workloads.WORKLOADS[name]
    configs = copy.deepcopy(w.configs)
    for config, sections in _TINY[name].items():
        for section, values in sections.items():
            configs[config][section].update(values)
    return dataclasses.replace(w, configs=configs)


@pytest.fixture
def tiny_workloads(monkeypatch, tmp_path):
    monkeypatch.setattr(run, "WORK", str(tmp_path))
    for name in workloads.WORKLOADS:
        monkeypatch.setitem(workloads.WORKLOADS, name, _tiny(name))


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_run_emits_every_named_metric(name, tiny_workloads):
    plain = run.run_workload(name, seed=1, seconds=0, trace=False)
    assert plain["correct"], plain["problems"]
    assert plain["attempted"] >= 1 and plain["failed"] == 0
    assert {k: m["unit"] for k, m in plain["metrics"].items()} == dict(
        run.END_TO_END)
    assert all(m["value"] > 0 for m in plain["metrics"].values())

    traced = run.run_workload(name, seed=1, seconds=0, trace=True)
    assert traced["correct"], traced["problems"]
    assert {k: m["unit"] for k, m in traced["metrics"].items()} == dict(
        run.PER_LAYER)
    assert traced["missing_targets"] == []
    assert traced["csv_sha256"] == plain["csv_sha256"]


def test_tracing_leaves_csv_artifacts_byte_identical(tiny_workloads, tmp_path):
    w = workloads.WORKLOADS["desk-dp-train"]
    inputs = str(tmp_path / "inputs")
    workloads.write_inputs(w, 2, inputs)
    deadline = run.time.monotonic() + run.RUN_LIMIT_S
    plain = run.run_rep(w, inputs, str(tmp_path / "plain"), False, deadline)
    traced = run.run_rep(w, inputs, str(tmp_path / "traced"), True, deadline)
    assert plain["digests"] and plain["digests"] == traced["digests"]
    assert plain["steps"] == traced["steps"] > 0


def test_benchmark_json_lists_the_metrics_the_runner_prints():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.PER_LAYER


def test_refuses_to_run_without_the_program_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "desk-dp-train",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
