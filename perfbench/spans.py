"""In-memory spans around fednaslab's layer boundaries, and their arithmetic.

A stage process installs wrappers before it calls `fednaslab.cli.main`.
Each wrapper appends one span ``[name, start, end, parent, value]`` to a
list that stays in memory until the stage returns; ``parent`` is the index
of the enclosing span (-1 for a root) and ``value`` carries a per-call
number some layers report (per-sample gradient bytes, fitness cache hits).

Functions are patched under the name their caller looks them up by: a
module that did ``from .privacy import privacy_cost`` holds its own
reference, so each such module gets its own patch.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

# (module, attribute, span name). "Class.method" attributes are patched on
# the class, which covers every caller.
STEP_TARGETS = [
    ("fednaslab.nn.model", "apply_update", "nn.model.apply_update"),
    ("fednaslab.federation", "apply_update", "nn.model.apply_update"),
    ("fednaslab.privacy", "apply_update", "nn.model.apply_update"),
    ("fednaslab.nn.model", "Adam.step", "nn.model.Adam.step"),
]

LAYER_CLASSES = [
    "DepthwiseConv", "PointwiseConv", "PerSampleNorm", "ConvBlock", "AvgPool",
    "MaxPool", "GlobalAvgPool", "Linear", "TransposeConv", "ReLU", "Reshape",
]

TRACE_TARGETS = STEP_TARGETS + [
    # accountant
    ("fednaslab.privacy", "privacy_cost", "privacy.privacy_cost"),
    ("fednaslab.hpo", "privacy_cost", "privacy.privacy_cost"),
    ("fednaslab.federation", "max_steps_within_budget",
     "privacy.max_steps_within_budget"),
    ("fednaslab.cli", "calibrate_sigma", "privacy.calibrate_sigma"),
    ("fednaslab.privacy", "PrivacyLedger.eps_spent", "privacy.eps_spent"),
    ("fednaslab.hpo", "privacy_cost_integer_orders",
     "privacy.privacy_cost_integer_orders"),
    # DP step
    ("fednaslab.privacy", "dp_sgd_step", "privacy.dp_sgd_step"),
    # nn.model
    ("fednaslab.nn.model", "loss_and_per_sample_grads",
     "nn.model.loss_and_per_sample_grads"),
    ("fednaslab.privacy", "loss_and_per_sample_grads",
     "nn.model.loss_and_per_sample_grads"),
    ("fednaslab.nn.model", "batch_gradient", "nn.model.batch_gradient"),
    ("fednaslab.federation", "batch_gradient", "nn.model.batch_gradient"),
    ("fednaslab.analysis", "batch_gradient", "nn.model.batch_gradient"),
    ("fednaslab.federation", "evaluate_accuracy", "nn.model.evaluate_accuracy"),
    ("fednaslab.ga", "evaluate_accuracy", "nn.model.evaluate_accuracy"),
    ("fednaslab.hpo", "evaluate_accuracy", "nn.model.evaluate_accuracy"),
    # federation
    ("fednaslab.federation", "local_train", "federation.local_train"),
    ("fednaslab.federation", "emit_representations",
     "federation.emit_representations"),
    ("fednaslab.federation", "encode_batch", "federation.encode_batch"),
    ("fednaslab.federation", "decode_batch", "federation.decode_batch"),
    ("fednaslab.federation", "aggregate_and_update_head",
     "federation.aggregate_and_update_head"),
    ("fednaslab.federation", "broadcast", "federation.broadcast"),
    ("fednaslab.cli", "run_rounds", "federation.run_rounds"),
    # ga
    ("fednaslab.ga", "TrainingEvaluator.__call__", "ga.fitness"),
    ("fednaslab.cli", "run_ga", "ga.run_ga"),
    # hpo
    ("fednaslab.hpo", "DPTrialEvaluator.__call__", "hpo.trial"),
    ("fednaslab.hpo", "gp_fit", "hpo.gp_fit"),
    ("fednaslab.hpo", "propose_next", "hpo.propose_next"),
    ("fednaslab.hpo", "planned_cost", "hpo.planned_cost"),
    # analysis
    ("fednaslab.cli", "inversion_attack", "analysis.inversion_attack"),
    # data, space, config
    ("fednaslab.cli", "_prepare", "data.prepare"),
    ("fednaslab.ga", "materialize", "space.materialize"),
    ("fednaslab.hpo", "materialize", "space.materialize"),
    ("fednaslab.federation", "materialize", "space.materialize"),
    ("fednaslab.space", "materialize", "space.materialize"),
    ("fednaslab.cli", "load_config", "config.load_config"),
] + [
    ("fednaslab.nn.layers", f"{cls}.{method}", f"nn.layers.{cls}.{method}")
    for cls in LAYER_CLASSES for method in ("forward", "backward")
]

ACCOUNTANT = {
    "privacy.privacy_cost", "privacy.max_steps_within_budget",
    "privacy.calibrate_sigma", "privacy.eps_spent",
    "privacy.privacy_cost_integer_orders",
}

class Recorder:
    """Holds the spans of one process and the wrappers that record them."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.missing: list[str] = []

    def wrap(self, name, fn, value=None):
        """`fn` recording one span per call; `value(args, result)` fills the
        span's value slot after the call returns."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1, 0])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()
            if value is not None:
                spans[idx][4] = value(args, result)
            return result

        return traced

    def install(self, targets) -> None:
        """Patch every reachable target; note the ones that no longer exist
        instead of failing, so a renamed function shows as a missing layer."""
        for module_name, attr, name in targets:
            module = importlib.import_module(module_name)
            owner, _, leaf = attr.rpartition(".")
            holder = getattr(module, owner, None) if owner else module
            original = (holder.__dict__.get(leaf) if isinstance(holder, type)
                        else getattr(holder, leaf, None))
            if original is None:
                self.missing.append(f"{module_name}.{attr}")
                print(f"perfbench: no {module_name}.{attr}; {name} not traced",
                      file=sys.stderr)
                continue
            setattr(holder, leaf,
                    self.wrap(name, original, _VALUE_HOOKS.get(name)))


def _psg_bytes(args, result) -> int:
    return int(sum(psg.nbytes for psg in result[1]))


def _fitness_hit(args, result) -> int:
    # the evaluator caches by (genome, seed): a call that left the cache the
    # same size was served from it
    evaluator = args[0]
    before = getattr(evaluator, "_perfbench_cache_size", 0)
    evaluator._perfbench_cache_size = len(evaluator.cache)
    return int(len(evaluator.cache) == before)


_VALUE_HOOKS = {
    "nn.model.loss_and_per_sample_grads": _psg_bytes,
    "ga.fitness": _fitness_hit,
}


# ---------------------------------------------------------------------------
# arithmetic


def self_times(spans) -> list[float]:
    """Each span's duration minus the time its direct children cover.

    Spans of one thread nest, so the children of a span never overlap and
    their durations add up to the covered part of its interval.
    """
    out = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def summarize(spans) -> dict:
    """Per-name call counts, self time, and the derived per-layer figures
    that need the span tree (outermost accountant time, bytes by caller)."""
    selfs = self_times(spans)
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    for (name, *_), own in zip(spans, selfs):
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + own
    accountant_s = 0.0
    psg_bytes = {"plain": 0, "dp": 0}
    fitness_hits = 0
    root_s = {}
    uncovered = 0.0
    for i, (name, start, end, parent, value) in enumerate(spans):
        if name in ACCOUNTANT and not _has_ancestor(spans, parent, ACCOUNTANT):
            accountant_s += end - start
        if name == "nn.model.loss_and_per_sample_grads" and parent >= 0:
            caller = spans[parent][0]
            if caller == "nn.model.batch_gradient":
                psg_bytes["plain"] += value
            elif caller == "privacy.dp_sgd_step":
                psg_bytes["dp"] += value
        if name == "ga.fitness":
            fitness_hits += value
        if parent < 0:
            root_s[name] = root_s.get(name, 0.0) + (end - start)
            uncovered += selfs[i]
    return {"calls": calls, "self_s": self_s, "accountant_s": accountant_s,
            "psg_bytes": psg_bytes, "fitness_hits": fitness_hits,
            "root_s": root_s, "uncovered_s": uncovered}


def _has_ancestor(spans, parent: int, names) -> bool:
    while parent >= 0:
        if spans[parent][0] in names:
            return True
        parent = spans[parent][3]
    return False


def merge(summaries) -> dict:
    """Add up the summaries of several processes."""
    total = {"calls": {}, "self_s": {}, "accountant_s": 0.0,
             "psg_bytes": {"plain": 0, "dp": 0}, "fitness_hits": 0,
             "root_s": {}, "uncovered_s": 0.0}
    for s in summaries:
        for key in ("calls", "self_s", "root_s"):
            for name, v in s[key].items():
                total[key][name] = total[key].get(name, 0) + v
        for key in ("accountant_s", "fitness_hits", "uncovered_s"):
            total[key] += s[key]
        for kind in ("plain", "dp"):
            total["psg_bytes"][kind] += s["psg_bytes"][kind]
    return total
