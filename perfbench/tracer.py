"""Span tracer for the benchmark's traced run, and its entry point.

The tracer rebinds public module attributes of ``skytrack`` (for example
``augmentation.render_observation`` or ``learner.adam_step``) to wrappers that
record one span per call: name, start, end and parent span, all sharing one
run id. Spans stay in memory until the command ends; then they are dumped to a
CSV file and folded into the per-layer metrics. No file under ``src/``
changes: the wrappers live here and are installed only in the traced
process, before the command runs.

Run traced (``src`` must be on PYTHONPATH):
  python perfbench/tracer.py --run-id ID --summary S.json --spans S.csv pipeline --config C --out-dir D
"""

from __future__ import annotations

import argparse
import functools
import importlib
import inspect
import itertools
import json
import math
import os
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

# Span names are "<layer>.<what>". Layer "policy" holds the policies' command
# calls and "io" the artifact readers and writers, so that the simulator's
# and the CLI's self time exclude them; both are reported under other names.
# (module, attribute, span name); "Class.method" rebinds a method.
WRAPPED = [
    ("augmentation", "render_observation", "world.sweep_render"),
    ("simulator", "render_observation", "world.rollout_render"),
    ("augmentation", "build_dataset", "augmentation.build_dataset"),
    ("augmentation", "sweep_optimal", "augmentation.sweep_optimal"),
    ("augmentation", "sweep_jittered", "augmentation.sweep_jittered"),
    ("augmentation", "dataset_from_samples", "augmentation.dataset_from_samples"),
    ("learner", "train", "learner.train"),
    ("learner", "adam_step", "learner.adam_step"),
    ("learner", "predict", "learner.predict"),
    ("simulator", "rollout", "simulator.rollout"),
    ("simulator", "OraclePolicy.command", "policy.command"),
    ("simulator", "ModelPolicy.command", "policy.command"),
    ("metrics", "evaluate", "metrics.evaluate"),
    ("metrics", "mean_cross_track_distance", "metrics.mctd"),
    ("metrics", "mean_waypoint_min_distance", "metrics.mwmd"),
    ("metrics", "angle_mse", "metrics.angle_mse"),
    ("cli", "save_dataset", "io.save_dataset"),
    ("learner", "save_model", "io.save_model"),
    ("simulator", "save_trajectory", "io.save_trajectory"),
    ("metrics", "save_report", "io.save_report"),
    ("cli", "save_path", "io.save_path"),
    ("cli", "load_path", "io.load_path"),
    ("cli", "load_world", "io.load_world"),
    ("cli", "write_resolved_config", "io.write_resolved_config"),
    ("cli", "emit_overlay_svg", "io.emit_overlay_svg"),
    ("cli", "emit_line_svg", "io.emit_line_svg"),
    ("cli", "main", "cli.main"),
    ("cli", "cmd_pipeline", "cli.cmd_pipeline"),
    ("cli", "cmd_ablation", "cli.cmd_ablation"),
    ("cli", "run_path_pipeline", "cli.run_path_pipeline"),
    ("cli", "run_ablation", "cli.run_ablation"),
]

# (name, unit) of every per-layer metric, in report order.
LAYER_METRICS = [
    ("world.sweep_render_calls", "count"),
    ("world.sweep_render_s", "s"),
    ("world.sweep_render_us_p50", "us"),
    ("world.sweep_render_us_p99", "us"),
    ("world.rollout_render_calls", "count"),
    ("world.rollout_render_s", "s"),
    ("world.rollout_render_us_p50", "us"),
    ("world.rollout_render_us_p99", "us"),
    ("augmentation.samples", "count"),
    ("augmentation.build_dataset_s", "s"),
    ("augmentation.self_s", "s"),
    ("augmentation.samples_per_s", "1/s"),
    ("learner.steps", "count"),
    ("learner.train_s", "s"),
    ("learner.adam_s", "s"),
    ("learner.adam_us_p50", "us"),
    ("learner.adam_us_p99", "us"),
    ("learner.train_self_s", "s"),
    ("learner.steps_per_s", "1/s"),
    ("learner.gflop", "GFLOP"),
    ("learner.gflop_per_s", "GFLOP/s"),
    ("learner.predict_calls", "count"),
    ("learner.predict_us_p50", "us"),
    ("simulator.rollouts", "count"),
    ("simulator.ticks", "count"),
    ("simulator.rollout_s", "s"),
    ("simulator.policy_s", "s"),
    ("simulator.self_s", "s"),
    ("simulator.ticks_per_s", "1/s"),
    ("simulator.completed_ratio", "ratio"),
    ("metrics.points", "count"),
    ("metrics.mctd_s", "s"),
    ("metrics.mwmd_s", "s"),
    ("metrics.points_per_s", "1/s"),
    ("metrics.angle_mse_samples", "count"),
    ("metrics.angle_mse_s", "s"),
    ("metrics.mctd_m", "m"),
    ("metrics.mwmd_m", "m"),
    ("cli.dataset_mb", "MB"),
    ("cli.save_dataset_s", "s"),
    ("cli.dataset_mb_per_s", "MB/s"),
    ("cli.model_mb", "MB"),
    ("cli.save_model_s", "s"),
    ("cli.other_io_s", "s"),
    ("cli.self_s", "s"),
]

# Hot calls whose per-call latency is reported as percentiles:
# (span name, metric name prefix, percentiles).
PERCENTILES = [
    ("world.sweep_render", "world.sweep_render", (50, 99)),
    ("world.rollout_render", "world.rollout_render", (50, 99)),
    ("learner.adam_step", "learner.adam", (50, 99)),
    ("learner.predict", "learner.predict", (50,)),
]


class Tracer:
    """In-memory span recorder; one per traced process."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[tuple[int, int, str, int, int]] = []  # id, parent, name, start_ns, end_ns
        self.counts: Counter[str] = Counter()
        self.values: defaultdict[str, list[float]] = defaultdict(list)
        self._ids = itertools.count(1)
        self._stack = [0]  # 0: no parent

    def wrap(self, fn, name: str, observe=None):
        spans, stack, ids, clock = self.spans, self._stack, self._ids, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = next(ids)
            parent = stack[-1]
            stack.append(span_id)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((span_id, parent, name, start, end))
            if observe is not None:
                observe(self, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Rebind every attribute in WRAPPED to a recording wrapper."""
        for module_name, attr, name in WRAPPED:
            owner = importlib.import_module(f"skytrack.{module_name}")
            *classes, leaf = attr.split(".")
            for cls in classes:
                owner = getattr(owner, cls)
            fn = getattr(owner, leaf)
            setattr(owner, leaf, self.wrap(fn, name, OBSERVERS.get((module_name, attr))))

    def dump(self, file: Path) -> None:
        with open(file, "w") as fh:
            fh.write("run_id,span_id,parent_id,name,start_ns,end_ns\n")
            for span in sorted(self.spans):
                fh.write(f"{self.run_id},{span[0]},{span[1]},{span[2]},{span[3]},{span[4]}\n")

    def layer_metrics(self) -> tuple[dict[str, float], dict[str, int]]:
        """Fold the spans and counters into LAYER_METRICS, plus the sample
        count behind every percentile."""
        by_id = {s[0]: s for s in self.spans}
        children_ns: Counter[int] = Counter()
        for span_id, parent, _, start, end in self.spans:
            children_ns[parent] += end - start
        durations: defaultdict[str, list[int]] = defaultdict(list)
        self_ns: Counter[str] = Counter()  # per layer
        top_ns: Counter[str] = Counter()  # per layer, outermost spans only
        for span_id, parent, name, start, end in self.spans:
            layer = name.split(".", 1)[0]
            durations[name].append(end - start)
            self_ns[layer] += end - start - children_ns[span_id]
            if parent == 0 or by_id[parent][2].split(".", 1)[0] != layer:
                top_ns[layer] += end - start

        def total_s(name: str) -> float:
            return sum(durations[name]) / 1e9

        def ratio(a: float, b: float) -> float:
            return a / b if b > 0 else 0.0

        m: dict[str, float] = {}
        samples: dict[str, int] = {}
        for name, prefix, quantiles in PERCENTILES:
            us = sorted(d / 1e3 for d in durations[name])
            samples[name] = len(us)
            for q in quantiles:
                m[f"{prefix}_us_p{q}"] = percentile(us, q)
        c = self.counts
        for kind in ("sweep", "rollout"):
            m[f"world.{kind}_render_calls"] = len(durations[f"world.{kind}_render"])
            m[f"world.{kind}_render_s"] = total_s(f"world.{kind}_render")

        m["augmentation.samples"] = c["augmentation.samples"]
        m["augmentation.build_dataset_s"] = total_s("augmentation.build_dataset")
        m["augmentation.self_s"] = self_ns["augmentation"] / 1e9
        m["augmentation.samples_per_s"] = ratio(c["augmentation.samples"], top_ns["augmentation"] / 1e9)

        train_s = total_s("learner.train")
        m["learner.steps"] = len(durations["learner.adam_step"])
        m["learner.train_s"] = train_s
        m["learner.adam_s"] = total_s("learner.adam_step")
        m["learner.train_self_s"] = train_s - m["learner.adam_s"]
        m["learner.steps_per_s"] = ratio(m["learner.steps"], train_s)
        m["learner.gflop"] = c["learner.flop"] / 1e9
        m["learner.gflop_per_s"] = ratio(m["learner.gflop"], train_s)
        m["learner.predict_calls"] = len(durations["learner.predict"])

        rollout_s = total_s("simulator.rollout")
        m["simulator.rollouts"] = len(durations["simulator.rollout"])
        m["simulator.ticks"] = c["simulator.ticks"]
        m["simulator.rollout_s"] = rollout_s
        m["simulator.policy_s"] = total_s("policy.command")
        m["simulator.self_s"] = self_ns["simulator"] / 1e9
        m["simulator.ticks_per_s"] = ratio(c["simulator.ticks"], rollout_s)
        m["simulator.completed_ratio"] = ratio(c["simulator.completed"], m["simulator.rollouts"])

        m["metrics.points"] = c["metrics.points"]
        m["metrics.mctd_s"] = total_s("metrics.mctd")
        m["metrics.mwmd_s"] = total_s("metrics.mwmd")
        m["metrics.points_per_s"] = ratio(c["metrics.points"], m["metrics.mctd_s"])
        m["metrics.angle_mse_samples"] = c["metrics.angle_mse_samples"]
        m["metrics.angle_mse_s"] = total_s("metrics.angle_mse")
        for key in ("mctd", "mwmd"):
            vals = self.values[key]
            m[f"metrics.{key}_m"] = sum(vals) / len(vals) if vals else 0.0

        m["cli.dataset_mb"] = c["cli.dataset_bytes"] / 1e6
        m["cli.save_dataset_s"] = total_s("io.save_dataset")
        m["cli.dataset_mb_per_s"] = ratio(m["cli.dataset_mb"], m["cli.save_dataset_s"])
        m["cli.model_mb"] = c["cli.model_bytes"] / 1e6
        m["cli.save_model_s"] = total_s("io.save_model")
        m["cli.other_io_s"] = (
            sum(sum(d) for name, d in durations.items() if name.startswith("io.")) / 1e9
            - m["cli.save_dataset_s"]
            - m["cli.save_model_s"]
        )
        m["cli.self_s"] = self_ns["cli"] / 1e9
        return {name: float(m[name]) for name, _ in LAYER_METRICS}, samples


def percentile(sorted_values: list[float], q: float) -> float:
    """Linear-interpolation percentile (numpy's default); 0 when empty."""
    if not sorted_values:
        return 0.0
    pos = (len(sorted_values) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


# ---------------------------------------------------------------------------
# observers: count work from a wrapped call's arguments and result


def _count_sweep_optimal(tracer, args, kwargs, result):
    tracer.counts["augmentation.samples"] += len(result[1])


def _count_sweep_jittered(tracer, args, kwargs, result):
    tracer.counts["augmentation.samples"] += len(result)


def _count_train(tracer, args, kwargs, result):
    """FLOPs of the training run computed from array shapes (not measured):
    the one-off frozen projection, forward + backward per sample per epoch,
    and the elementwise Adam update per step."""
    from skytrack import learner

    bound = inspect.signature(learner.train.__wrapped__).bind(*args, **kwargs)
    bound.apply_defaults()
    dataset, config = bound.arguments["dataset"], bound.arguments["config"]
    n, d = len(dataset.samples), dataset.dim
    f, h = bound.arguments["projection_dim"], bound.arguments["hidden"]
    steps = config.epochs * math.ceil(n / config.batch_size)
    params = h * f + 2 * h + 1
    flop = 2 * n * d * f + config.epochs * n * (4 * f * h + 9 * h) + steps * 15 * params
    tracer.counts["learner.flop"] += flop


def _count_rollout(tracer, args, kwargs, result):
    tracer.counts["simulator.ticks"] += len(result.commands)
    tracer.counts["simulator.completed"] += result.termination == "completed"


def _count_points(tracer, args, kwargs, result):
    trajectory = args[1] if len(args) > 1 else kwargs["trajectory"]
    tracer.counts["metrics.points"] += len(getattr(trajectory, "poses", trajectory))


def _count_angle_mse(tracer, args, kwargs, result):
    test_set = args[1] if len(args) > 1 else kwargs["test_set"]
    tracer.counts["metrics.angle_mse_samples"] += len(test_set)


def _record_report(tracer, args, kwargs, result):
    tracer.values["mctd"].append(result.mctd)
    tracer.values["mwmd"].append(result.mwmd)


def _count_dataset_bytes(tracer, args, kwargs, result):
    tracer.counts["cli.dataset_bytes"] += os.path.getsize(args[1]) + os.path.getsize(args[2])


def _count_model_bytes(tracer, args, kwargs, result):
    tracer.counts["cli.model_bytes"] += os.path.getsize(args[1])


OBSERVERS = {
    ("augmentation", "sweep_optimal"): _count_sweep_optimal,
    ("augmentation", "sweep_jittered"): _count_sweep_jittered,
    ("learner", "train"): _count_train,
    ("simulator", "rollout"): _count_rollout,
    ("metrics", "mean_cross_track_distance"): _count_points,
    ("metrics", "angle_mse"): _count_angle_mse,
    ("metrics", "evaluate"): _record_report,
    ("cli", "save_dataset"): _count_dataset_bytes,
    ("learner", "save_model"): _count_model_bytes,
}


def main() -> int:
    parser = argparse.ArgumentParser(description="Run one skytrack command with span tracing.")
    parser.add_argument("--run-id", required=True)
    parser.add_argument("--summary", type=Path, required=True, help="JSON file for the per-layer metrics")
    parser.add_argument("--spans", type=Path, required=True, help="CSV file for the raw spans")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER, help="the skytrack.cli command and its arguments")
    args = parser.parse_args()

    from skytrack import cli

    tracer = Tracer(args.run_id)
    tracer.install()
    code = cli.main(args.cli_args)

    # Everything below is bookkeeping; the caller subtracts its time from
    # the traced wall time.
    start = time.perf_counter()
    summary: dict[str, object] = {}
    summary["metrics"], summary["samples"] = tracer.layer_metrics()
    summary["spans"] = len(tracer.spans)
    tracer.dump(args.spans)
    summary["bookkeeping_s"] = time.perf_counter() - start
    args.summary.write_text(json.dumps(summary))
    return code


if __name__ == "__main__":
    sys.exit(main())
