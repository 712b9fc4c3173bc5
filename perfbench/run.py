"""Stage benchmark for fednaslab: each workload's stages run the way a user
runs them, one fresh `fednaslab <stage>` process at a time.

    python3 perfbench/run.py                      # every workload, seed 0
    python3 perfbench/run.py --workload desk-dp-train --seed 3 \\
        --seconds 30 --trace 0

With --trace 0 the workload is repeated while the next repetition is
expected to end within --seconds, and the end-to-end metrics are medians
over the repetitions. Times are scaled to a reference host speed, which a
probe process measures while the stages run (see hostspeed.py). With
--trace 1 an untraced, a traced and another untraced repetition run; the
per-layer metrics come from the traced one. The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics. The exit code is 1 when a correctness check fails and 2 when the
benchmark cannot run at all (for instance when src/fednaslab is missing).

See perfbench/README.md for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

import hostspeed
import spans
import workloads
from spans import LAYER_CLASSES

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")

# One BLAS thread per stage: stages never overlap, and on a 2-core box a
# second BLAS thread would compete with the stage's own Python thread.
BLAS_THREADS = 1
# A run must end within 180 s; a stage that hangs is killed before that.
RUN_LIMIT_S = 150.0

STAGES = ("nas", "hpo", "train", "attack")

END_TO_END = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("steps_per_s", "1/s"),
]

# (metric, unit, span name whose self time or call count it reports)
_SELF_S = [
    ("privacy.dp_sgd_step.s", "privacy.dp_sgd_step"),
    ("nn.model.loss_and_per_sample_grads.s",
     "nn.model.loss_and_per_sample_grads"),
    ("nn.model.evaluate_accuracy.s", "nn.model.evaluate_accuracy"),
    ("nn.model.Adam.step.s", "nn.model.Adam.step"),
    ("federation.local_train.s", "federation.local_train"),
    ("federation.emit_representations.s", "federation.emit_representations"),
    ("federation.aggregate_and_update_head.s",
     "federation.aggregate_and_update_head"),
    ("federation.broadcast.s", "federation.broadcast"),
    ("federation.run_rounds.s", "federation.run_rounds"),
    ("ga.fitness.s", "ga.fitness"),
    ("ga.run_ga.s", "ga.run_ga"),
    ("hpo.trial.s", "hpo.trial"),
    ("hpo.gp_fit.s", "hpo.gp_fit"),
    ("hpo.propose_next.s", "hpo.propose_next"),
    ("hpo.planned_cost.s", "hpo.planned_cost"),
    ("analysis.inversion_attack.s", "analysis.inversion_attack"),
    ("data.prepare.s", "data.prepare"),
    ("space.materialize.s", "space.materialize"),
    ("config.load_config.s", "config.load_config"),
] + [
    (f"nn.layers.{cls}.{m}.s", f"nn.layers.{cls}.{m}")
    for cls in LAYER_CLASSES for m in ("forward", "backward")
]
_CALLS = [
    ("privacy.privacy_cost.calls", "privacy.privacy_cost"),
    ("privacy.max_steps_within_budget.calls", "privacy.max_steps_within_budget"),
    ("privacy.calibrate_sigma.calls", "privacy.calibrate_sigma"),
    ("privacy.dp_sgd_step.calls", "privacy.dp_sgd_step"),
    ("nn.model.batch_gradient.calls", "nn.model.batch_gradient"),
    ("ga.fitness.calls", "ga.fitness"),
    ("hpo.trial.calls", "hpo.trial"),
    ("analysis.inversion_attack.calls", "analysis.inversion_attack"),
]
PER_LAYER = (
    [(f"cli.{stage}.s", "s") for stage in STAGES]
    + [("privacy.accountant.s", "s"),
       ("privacy.cost_calls_per_dp_step", "ratio"),
       ("nn.model.psg_bytes_plain", "B"),
       ("nn.model.psg_bytes_dp", "B"),
       ("nn.model.optimizer_steps", "count"),
       ("federation.wire.s", "s"),
       ("federation.bytes_up", "B"),
       ("federation.bytes_down", "B"),
       ("ga.fitness.cache_hit_frac", "ratio"),
       ("hpo.feasible_draw_frac", "ratio")]
    + [(name, "s") for name, _ in _SELF_S]
    + [(name, "count") for name, _ in _CALLS]
    + [("trace.overhead_frac", "ratio"), ("trace.uncovered_frac", "ratio")]
)


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "machine": platform.machine(),
    }


def _child_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def run_stage(stage, inputs_dir: str, rep_dir: str, trace: bool,
              deadline: float) -> dict:
    """One stage in its own interpreter and a fresh output directory."""
    out_dir = os.path.join(rep_dir, stage.command)
    workloads.stage_out_dir(stage, inputs_dir, out_dir)
    record_path = os.path.join(rep_dir, f"{stage.command}.record.json")
    log_path = os.path.join(rep_dir, f"{stage.command}.log")
    argv = [sys.executable, os.path.join(HERE, "stage.py"), record_path,
            "1" if trace else "0", "--", *stage.argv(inputs_dir, out_dir)]
    occupancy = []  # (time, core the stage is on), for hostspeed
    with open(log_path, "wb") as log:
        t_spawn = time.monotonic()
        proc = subprocess.Popen(argv, stdout=log, stderr=subprocess.STDOUT,
                                cwd=ROOT, env=_child_env())
        try:
            # past the deadline the stage is killed below, and without a
            # record it counts as failed
            while (proc.poll() is None
                   and time.monotonic() < max(deadline, t_spawn + 1.0)):
                cpu = hostspeed.current_cpu(proc.pid)
                if cpu is not None:
                    occupancy.append((time.monotonic(), cpu))
                time.sleep(hostspeed.POLL_S)
        finally:
            proc.kill()  # no-op once the process has been waited for
            proc.wait()
    record = {"exit_code": proc.returncode, "out_dir": out_dir, "log": log_path,
              "occupancy": occupancy}
    if os.path.exists(record_path):
        with open(record_path) as fh:
            record.update(json.load(fh))
        record["exit_code"] = proc.returncode
        record["t_spawn"] = t_spawn
        record["setup_s"] = record["t_enter"] - t_spawn
        record["wall_s"] = record["t_exit"] - record["t_enter"]
    return record


def run_rep(workload, inputs_dir: str, rep_dir: str, trace: bool,
            deadline: float) -> dict:
    """The workload's stages in order, then the checks on their artifacts."""
    os.makedirs(rep_dir, exist_ok=True)
    outcome = workloads.Outcome()
    records = {}
    for stage in workload.stages:
        rec = run_stage(stage, inputs_dir, rep_dir, trace, deadline)
        records[stage.command] = rec
        workloads.check_stage(stage, workload, rec["out_dir"],
                              rec["exit_code"], outcome)
        if rec["exit_code"] != 0:
            with open(rec["log"], errors="replace") as fh:
                tail = fh.read()[-2000:]
            print(f"{stage.command} failed:\n{tail}", file=sys.stderr)
    timed = [r for r in records.values() if "wall_s" in r]
    return {
        "records": records,
        "outcome": outcome,
        "raw_wall_s": sum(r["wall_s"] for r in timed),
        "raw_setup_s": sum(r["setup_s"] for r in timed),
        "cpu_s": sum(r["cpu_s"] for r in timed),
        "peak_rss_mb": max((r["maxrss_kb"] / 1024.0 for r in timed),
                           default=0.0),
        "steps": sum(r["optimizer_steps"] for r in timed),
        "digests": workloads.csv_digests(
            {cmd: r["out_dir"] for cmd, r in records.items()}),
        "missing_targets": sorted({t for r in timed
                                   for t in r.get("missing_targets", [])}),
    }


def scale_to_reference(rep: dict, samples, parts) -> None:
    """Set the repetition's wall_s and setup_s: each stage's time scaled by
    the speed the probe's kernel `parts` measured, over that same interval,
    on the cores the stage ran on."""
    timed = [r for r in rep["records"].values() if "wall_s" in r]
    rep["wall_s"] = sum(
        r["wall_s"] * hostspeed.speed_factor(
            samples, r["occupancy"], r["t_enter"], r["t_exit"], parts)
        for r in timed)
    rep["setup_s"] = sum(
        r["setup_s"] * hostspeed.speed_factor(
            samples, r["occupancy"], r["t_spawn"], r["t_enter"], parts)
        for r in timed)


def per_layer_metrics(traced: dict, untraced_wall_s: float) -> dict:
    summary = spans.merge(r["summary"] for r in traced["records"].values()
                          if r.get("summary"))
    calls, self_s = summary["calls"], summary["self_s"]
    outcome = traced["outcome"]
    dp_steps = calls.get("privacy.dp_sgd_step", 0)
    fitness_calls = calls.get("ga.fitness", 0)
    root_total = sum(summary["root_s"].values())
    values = {
        **{f"cli.{stage}.s": summary["root_s"].get(f"cli.{stage}", 0.0)
           for stage in STAGES},
        "privacy.accountant.s": summary["accountant_s"],
        "privacy.cost_calls_per_dp_step":
            calls.get("privacy.privacy_cost", 0) / dp_steps if dp_steps else 0.0,
        "nn.model.psg_bytes_plain": summary["psg_bytes"]["plain"],
        "nn.model.psg_bytes_dp": summary["psg_bytes"]["dp"],
        "nn.model.optimizer_steps": traced["steps"],
        "federation.wire.s": (self_s.get("federation.encode_batch", 0.0)
                              + self_s.get("federation.decode_batch", 0.0)),
        "federation.bytes_up": outcome.bytes_up,
        "federation.bytes_down": outcome.bytes_down,
        "ga.fitness.cache_hit_frac":
            summary["fitness_hits"] / fitness_calls if fitness_calls else 0.0,
        "hpo.feasible_draw_frac":
            outcome.feasible_draws / outcome.draws if outcome.draws else 0.0,
        **{metric: self_s.get(span, 0.0) for metric, span in _SELF_S},
        **{metric: calls.get(span, 0) for metric, span in _CALLS},
        "trace.overhead_frac":
            traced["wall_s"] / untraced_wall_s - 1.0 if untraced_wall_s else 0.0,
        "trace.uncovered_frac":
            summary["uncovered_s"] / root_total if root_total else 0.0,
    }
    return {name: {"value": values[name], "unit": unit}
            for name, unit in PER_LAYER}


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Every repetition of one workload, its checks and its metrics."""
    workload = workloads.WORKLOADS[name]
    run_dir = os.path.join(WORK, f"{name}-seed{seed}-trace{int(trace)}")
    shutil.rmtree(run_dir, ignore_errors=True)
    inputs_dir = os.path.join(run_dir, "inputs")
    workloads.write_inputs(workload, seed, inputs_dir)
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S

    def rep(traced=False):
        return run_rep(workload, inputs_dir,
                       os.path.join(run_dir, f"rep{len(runs)}"), traced,
                       deadline)

    runs = []
    with hostspeed.Probe(os.path.join(run_dir, "hostspeed.txt"),
                         _child_env()) as probe:
        if trace:
            # untraced repetitions on both sides, so host speed drift during
            # the run biases the overhead estimate less
            for traced in (False, True, False):
                runs.append(rep(traced))
            reps = [runs[0], runs[2]]
        else:
            while True:
                t0 = time.monotonic()
                runs.append(rep())
                now = time.monotonic()
                if now + (now - t0) > start + seconds:
                    break
            reps = runs
        samples = probe.samples()
    for r in runs:
        scale_to_reference(r, samples, workload.speed_parts)

    problems = [p for r in runs for p in r["outcome"].problems]
    if any(r["digests"] != runs[0]["digests"] for r in runs):
        problems.append("CSV artifacts differ between repetitions")
    if any(r["steps"] != runs[0]["steps"] for r in runs):
        problems.append("optimizer step counts differ between repetitions")
    first = runs[0]["outcome"]
    wall = statistics.median(r["wall_s"] for r in reps)
    if trace:
        metrics = per_layer_metrics(runs[1], wall)
    else:
        values = {
            "wall_s": wall,
            "setup_s": statistics.median(r["setup_s"] for r in reps),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
            "steps_per_s": reps[0]["steps"] / wall if wall else 0.0,
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END}
    result = {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "repetitions": len(reps),
        "correct": not problems,
        "problems": problems,
        "attempted": first.attempted,
        "failed": first.failed,
        "final_loss": first.final_loss,
        "attack_mse": first.attack_mse,
        "csv_sha256": runs[0]["digests"],
        "missing_targets": sorted({t for r in runs
                                   for t in r["missing_targets"]}),
        "raw_wall_s": statistics.median(r["raw_wall_s"] for r in reps),
        "per_repetition": [{k: r[k] for k in ("wall_s", "setup_s",
                                              "raw_wall_s", "raw_setup_s",
                                              "cpu_s", "peak_rss_mb", "steps")}
                           for r in runs],
        "metrics": metrics,
    }
    if not problems:
        shutil.rmtree(run_dir, ignore_errors=True)
    return result


def report(result: dict) -> None:
    """Human-readable lines for one workload."""
    print(f"== {result['workload']} seed={result['seed']} "
          f"trace={result['trace']} repetitions={result['repetitions']}")
    for name, m in result["metrics"].items():
        print(f"{name:48s} {m['value']:.6g} {m['unit']}")
    print(f"{'wall_s unscaled (host seconds)':48s} "
          f"{result['raw_wall_s']:.6g} s")
    frac = result["failed"] / result["attempted"] if result["attempted"] else 0
    print(f"{'failed_frac':48s} {frac:.6g} ratio "
          f"({result['failed']}/{result['attempted']})")
    if result["final_loss"] is not None:
        print(f"{'final_loss':48s} {result['final_loss']:.6f} nats")
    if result["attack_mse"]:
        print(f"{'attack_mse':48s} {result['attack_mse']}")
    for name, digest in result["csv_sha256"].items():
        print(f"csv_sha256 {name} {digest}")
    for target in result["missing_targets"]:
        print(f"not traced: {target} (no longer exists)")
    for problem in result["problems"]:
        print(f"CHECK FAILED: {problem}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        help="a workload name, or all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # turn SIGTERM into SystemExit so a running stage is killed and waited for
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not os.path.isdir(os.path.join(SRC, "fednaslab")):
        print(f"perfbench: no fednaslab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    # stages find compiled modules, as after any install, from the first run
    compileall.compile_dir(SRC, quiet=1)
    names = (list(workloads.WORKLOADS) if args.workload == "all"
             else [args.workload])
    unknown = [n for n in names if n not in workloads.WORKLOADS]
    if unknown:
        print(f"perfbench: unknown workload {unknown[0]}; choose from "
              f"{sorted(workloads.WORKLOADS)} or all", file=sys.stderr)
        return 2
    os.makedirs(os.path.join(WORK, "results"), exist_ok=True)
    env = environment()
    print("env " + json.dumps(env, sort_keys=True))
    results = []
    for name in names:
        result = run_workload(name, args.seed, args.seconds, bool(args.trace))
        result["env"] = env
        path = os.path.join(WORK, "results",
                            f"{name}-seed{args.seed}-trace{args.trace}.json")
        with open(path, "w") as fh:
            json.dump(result, fh, indent=2, sort_keys=True)
        report(result)
        results.append(result)
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{name}": m
                   for r in results for name, m in r["metrics"].items()}
    correct = all(r["correct"] for r in results)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
