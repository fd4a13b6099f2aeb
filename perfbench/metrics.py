"""Metric names, units and the per-layer figures of one traced pass.

END_TO_END and PER_LAYER list every metric the benchmark reports, in the
form BENCHMARK.json declares them. Each per-layer name is
`<module>.<function>.<quantity>` for a function the tracer wraps, or
`cli.*` / `trace.*` for the command spans and the tracer's own accounting.

Which end-to-end figure each layer should move, and on which workload:

  numerics.bvn_cdf.*            wall_s on solve, not rollouts;
                                useful_ratio rises toward 1 with a banded
                                kernel (ROADMAP item 2)
  lti.derive_steady_state.s,
  numerics.solve_dare.s         setup_s / wall_s slightly, every workload
  mdp.build_transition_model.*  wall_s on solve
  mdp.transition_bytes          peak_rss_mb on solve
  mdp.value_iteration.*         wall_s on solve (~4% of it)
  mdp.immediate_reward_curve.s  wall_s on solve (negligible)
  mdp.policy_lookup.*, attack.attack_at.s, defense.g_statistic.s,
  evaluation.*, voltage.*       wall_s on rollouts, not solve
  artifact.*, config.*          wall_s / setup_s (small), every workload
  cli.*                         wall_s, every workload
"""

from __future__ import annotations

from collections import defaultdict

from spans import BOOKKEEPING, Tracer

END_TO_END = (
    # name, unit, better, bound (share of the parent's median)
    ("setup_s", "s", "lower", 0.25),
    ("wall_s", "s", "lower", 0.25),
    ("cpu_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.05),
)

COMMANDS = ("solve", "sweep-action", "evaluate", "fpmd", "voltage")

PER_LAYER = (
    ("numerics.bvn_cdf.calls", "count", "lower"),
    ("numerics.bvn_cdf.evals", "count", "lower"),
    ("numerics.bvn_cdf.s", "s", "lower"),
    ("numerics.bvn_cdf.evals_per_s", "1/s", "higher"),
    ("numerics.bvn_cdf.useful_ratio", "ratio", "higher"),
    ("numerics.solve_dare.s", "s", "lower"),
    ("lti.derive_steady_state.s", "s", "lower"),
    ("mdp.build_transition_model.s", "s", "lower"),
    ("mdp.build_transition_model.self_s", "s", "lower"),
    ("mdp.build_transition_model.rows", "count", "higher"),
    ("mdp.build_transition_model.rows_per_s", "1/s", "higher"),
    ("mdp.transition_bytes", "bytes_computed", "lower"),
    ("mdp.value_iteration.s", "s", "lower"),
    ("mdp.value_iteration.self_s", "s", "lower"),
    ("mdp.value_iteration.s_per_stage", "s", "lower"),
    ("mdp.value_iteration.bvn_evals", "count", "lower"),
    ("mdp.immediate_reward_curve.s", "s", "lower"),
    ("mdp.policy_lookup.calls", "count", "lower"),
    ("mdp.policy_lookup.s", "s", "lower"),
    ("attack.attack_at.s", "s", "lower"),
    ("defense.g_statistic.s", "s", "lower"),
    ("evaluation.rollout_batch.calls", "count", "lower"),
    ("evaluation.rollout_batch.s", "s", "lower"),
    ("evaluation.rollout_batch.self_s", "s", "lower"),
    ("evaluation.rollout_batch.run_steps", "count", "higher"),
    ("evaluation.rollout_batch.run_steps_per_s", "1/s", "higher"),
    ("evaluation.compare_attacks.s", "s", "lower"),
    ("evaluation.fp_cost.s", "s", "lower"),
    ("evaluation.md_cost.s", "s", "lower"),
    ("voltage.voltage_attack_experiment.s", "s", "lower"),
    ("artifact.save_policy.s", "s", "lower"),
    ("artifact.save_policy.bytes", "bytes", "lower"),
    ("artifact.load_policy.s", "s", "lower"),
    ("config.resolve_config.s", "s", "lower"),
    *((f"cli.{command}.s", "s", "lower") for command in COMMANDS),
    ("cli.self_s", "s", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.bookkeeping_s", "s", "lower"),
    ("trace.unaccounted_s", "s", "lower"),
)

UNITS = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}

# per-layer figures that count work; they, and the ratios of two of them,
# must repeat exactly across passes
COUNT_UNITS = ("count", "bytes", "bytes_computed")
EXACT_UNITS = COUNT_UNITS + ("ratio",)


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def layer_metrics(tracer: Tracer, pass_id: int, wall: float) -> dict:
    """Per-layer figures of one traced pass that took `wall` seconds.

    `.s` is the total span duration less the tracer's bookkeeping nested
    inside it; `.self_s` is the duration less all child spans.
    trace.overhead_s needs the untraced passes and is left to the caller.
    """
    spans = tracer.pass_spans(pass_id)
    nested_book = defaultdict(float)
    for sid, span, _ in spans:
        if span.name == BOOKKEEPING:
            for anc in tracer.ancestors(sid):
                nested_book[anc] += span.duration
    agg = defaultdict(lambda: defaultdict(float))
    vi_evals = 0
    table_bytes = 0
    for sid, span, self_s in spans:
        a = agg[span.name]
        a["calls"] += 1
        a["s"] += span.duration - nested_book[sid]
        a["self_s"] += self_s
        for key, value in span.counts.items():
            a[key] += value
        if span.name == "numerics.bvn_cdf" and any(
                tracer.spans[anc].name == "mdp.value_iteration"
                for anc in tracer.ancestors(sid)):
            vi_evals += span.counts.get("evals", 0)
        if span.name == "mdp.build_transition_model":
            table_bytes = max(table_bytes, span.counts.get("bytes", 0))

    def get(name, key):
        return agg[name][key] if name in agg else 0

    bvn = "numerics.bvn_cdf"
    tm = "mdp.build_transition_model"
    vi = "mdp.value_iteration"
    rb = "evaluation.rollout_batch"
    out = {
        f"{bvn}.calls": get(bvn, "calls"),
        f"{bvn}.evals": get(bvn, "evals"),
        f"{bvn}.s": get(bvn, "s"),
        f"{bvn}.evals_per_s": _ratio(get(bvn, "evals"), get(bvn, "s")),
        f"{bvn}.useful_ratio": _ratio(get(bvn, "useful"), get(bvn, "evals")),
        "numerics.solve_dare.s": get("numerics.solve_dare", "s"),
        "lti.derive_steady_state.s": get("lti.derive_steady_state", "s"),
        f"{tm}.s": get(tm, "s"),
        f"{tm}.self_s": get(tm, "self_s"),
        f"{tm}.rows": get(tm, "rows"),
        f"{tm}.rows_per_s": _ratio(get(tm, "rows"), get(tm, "s")),
        "mdp.transition_bytes": table_bytes,
        f"{vi}.s": get(vi, "s"),
        f"{vi}.self_s": get(vi, "self_s"),
        f"{vi}.s_per_stage": _ratio(get(vi, "s"), get(vi, "stages")),
        f"{vi}.bvn_evals": vi_evals,
        "mdp.immediate_reward_curve.s": get("mdp.immediate_reward_curve", "s"),
        "mdp.policy_lookup.calls": get("mdp.policy_lookup", "calls"),
        "mdp.policy_lookup.s": get("mdp.policy_lookup", "s"),
        "attack.attack_at.s": get("attack.attack_at", "s"),
        "defense.g_statistic.s": get("defense.g_statistic", "s"),
        f"{rb}.calls": get(rb, "calls"),
        f"{rb}.s": get(rb, "s"),
        f"{rb}.self_s": get(rb, "self_s"),
        f"{rb}.run_steps": get(rb, "run_steps"),
        f"{rb}.run_steps_per_s": _ratio(get(rb, "run_steps"), get(rb, "s")),
        "evaluation.compare_attacks.s": get("evaluation.compare_attacks", "s"),
        "evaluation.fp_cost.s": get("evaluation.fp_cost", "s"),
        "evaluation.md_cost.s": get("evaluation.md_cost", "s"),
        "voltage.voltage_attack_experiment.s":
            get("voltage.voltage_attack_experiment", "s"),
        "artifact.save_policy.s": get("artifact.save_policy", "s"),
        "artifact.save_policy.bytes": get("artifact.save_policy", "bytes"),
        "artifact.load_policy.s": get("artifact.load_policy", "s"),
        "config.resolve_config.s": get("config.resolve_config", "s"),
    }
    for command in COMMANDS:
        out[f"cli.{command}.s"] = get(f"cli.{command}", "s")
    out["cli.self_s"] = sum(self_s for _, span, self_s in spans
                            if span.name.startswith("cli."))
    out["trace.wall_s"] = wall
    out["trace.bookkeeping_s"] = get(BOOKKEEPING, "s")
    out["trace.unaccounted_s"] = wall - sum(self_s for _, _, self_s in spans)
    return {key: int(value) if UNITS[key] in COUNT_UNITS else float(value)
            for key, value in out.items()}
