"""Command-line entry point.

Commands (each accepts --config, --preset, --seed, --out, --policy; see
`fdisim <command> --help`):

  solve         solve the injection MDP, write the policy artifact
  sweep-action  magnitude/stealthiness tradeoff at e = 0
                -> sweep_action.csv: a,detection_prob,expected_reward
  evaluate      Monte-Carlo cost curves for the four plans
                -> cost_policy.csv / cost_constant.csv / cost_ramp.csv /
                   cost_none.csv: t,cost,std_err
  fpmd          false-positive / misdetection cost sweep; md replays the
                policy's nominal sequence (stage actions at e = 0, one
                sign orientation) in every cell
                -> fpmd.csv: eta,sigma_mit,fp_cost,md_cost,
                             fp_std_err,md_std_err
  voltage       voltage-loop experiment over the four plans
                -> voltage_mean.csv: t,plan,mean_x_1,std_err_x_1,
                                     abs_deviation,abs_dev_std_err
                   detection_frequency.csv: t,plan,frequency
                   policy_table.csv: stage,state_1,action_1
  estimate-b    least-squares control-gain fit from a trace CSV
                (--traces or paths.traces); --out writes estimate_b.yaml

Every CSV is UTF-8 with \\n line endings, numbers printed with 17
significant digits, and a first-line comment `# digest=<sha256>
seed=<seed>` tying the table to the configuration that produced it.
Identical configuration and seed reproduce every output byte for byte.
evaluate, fpmd and voltage refuse a policy artifact whose digest does not
match the active configuration.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

import numpy as np
import yaml

from .artifact import ArtifactError, load_policy, save_policy
from .attack import AttackError, AttackPlan
from .config import ConfigError, RunConfig, preset_names, resolve_config
from .defense import DefenseError, MitigationStrategy
from .evaluation import (EvaluationError, compare_attacks, draw_noise,
                         fp_cost, md_cost)
from .lti import ModelError, SystemModel, derive_steady_state
from .mdp import build_transition_model, immediate_reward_curve, value_iteration
from .numerics import NumericsError, RngStream
from .voltage import (VoltageError, estimate_B, load_traces,
                      voltage_attack_experiment)

_USER_ERRORS = (ArtifactError, AttackError, ConfigError, DefenseError,
                EvaluationError, ModelError, NumericsError, VoltageError)

# fixed stream ids give each command its own independent substream of the
# configured seed
_STREAM_EVALUATE = 2
_STREAM_FPMD = 3
_STREAM_VOLTAGE = 4


def _spec(kind: type) -> str:
    """Format of one CSV value of this type: strings as they are, integers
    in full, anything else as a float with 17 significant digits."""
    if issubclass(kind, str):
        return "%s"
    if issubclass(kind, (int, np.integer)):
        return "%d"
    return "%.17g"


def _write_csv(path: Path, cfg: RunConfig, columns, rows) -> None:
    # one format string per row, built once per combination of value types
    formats: dict[tuple, str] = {}
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(f"# digest={cfg.digest()} seed={cfg.seed}\n")
        fh.write(",".join(columns) + "\n")
        for row in rows:
            row = tuple(row)
            kinds = tuple(map(type, row))
            fmt = formats.get(kinds)
            if fmt is None:
                fmt = formats[kinds] = ",".join(map(_spec, kinds)) + "\n"
            fh.write(fmt % row)


def _load(args) -> RunConfig:
    return resolve_config(preset_name=args.preset, path=args.config,
                          seed=args.seed)


def _out_dir(args, cfg: RunConfig) -> Path:
    out = Path(args.out) if args.out else Path(cfg.get("paths.out"))
    out.mkdir(parents=True, exist_ok=True)
    return out


def _policy_path(args, cfg: RunConfig, out: Path) -> Path:
    raw = Path(args.policy) if args.policy else Path(cfg.get("paths.policy"))
    return raw if raw.is_absolute() else out / raw


def _solved(args, cfg: RunConfig, model: SystemModel) -> tuple:
    """Steady state, output directory and policy of a rollout on `model`."""
    ss = derive_steady_state(model)
    out = _out_dir(args, cfg)
    policy, _ = load_policy(_policy_path(args, cfg, out), cfg.digest())
    return ss, out, policy


def cmd_solve(args) -> int:
    cfg = _load(args)
    model = cfg.system_model()
    ss = derive_steady_state(model)
    grid = cfg.grid()
    actions = cfg.actions()[:, 0]
    started = time.perf_counter()
    tm = build_transition_model(model, ss, cfg.eta, grid, actions)
    policy = value_iteration(tm, cfg.mdp_horizon, gamma=cfg.gamma)
    elapsed = time.perf_counter() - started
    out = _out_dir(args, cfg)
    path = _policy_path(args, cfg, out)
    save_policy(path, policy, cfg.digest())
    print(f"solved {grid.n_states} states x {actions.shape[0]} actions, "
          f"{cfg.mdp_horizon} stages in {elapsed:.1f} s "
          f"(min interior mass {float(tm.interior_mass.min()):.4f})")
    print(f"policy written to {path}")
    return 0


def cmd_sweep_action(args) -> int:
    cfg = _load(args)
    model = cfg.system_model()
    ss = derive_steady_state(model)
    lattice = cfg.actions()[:, 0]
    magnitudes = np.sort(lattice[lattice >= 0.0])
    detection, reward = immediate_reward_curve(model, ss, cfg.eta,
                                               cfg.grid(), magnitudes)
    out = _out_dir(args, cfg)
    _write_csv(out / "sweep_action.csv", cfg, ("a", "detection_prob",
               "expected_reward"), zip(magnitudes, detection, reward))
    print(f"wrote {out / 'sweep_action.csv'} ({magnitudes.size} magnitudes)")
    return 0


def cmd_evaluate(args) -> int:
    cfg = _load(args)
    model = cfg.system_model()
    ss, out, policy = _solved(args, cfg, model)
    plans, strategy = cfg.plans(policy), cfg.mitigation()
    noise = draw_noise(model, ss, cfg.eval_horizon, cfg.runs,
                       RngStream(cfg.seed, _STREAM_EVALUATE),
                       strategy.kind == "noisy")
    reports = compare_attacks(model, ss, list(plans.values()), cfg.detector(),
                              strategy, cfg.eval_horizon, cfg.runs, noise)
    for kind, report in zip(plans, reports):
        path = out / f"cost_{kind}.csv"
        rows = zip(range(1, report.horizon + 1), report.cost_per_t,
                   report.std_err_per_t)
        _write_csv(path, cfg, ("t", "cost", "std_err"), rows)
        print(f"wrote {path} (terminal cost {report.terminal_cost:.4f})")
    return 0


def cmd_fpmd(args) -> int:
    cfg = _load(args)
    model = cfg.system_model()
    ss, out, policy = _solved(args, cfg, model)
    # one fixed attack for every cell: the policy was solved for a single
    # detector, so replaying it closed-loop would let each cell's detector
    # and mitigation noise change the attack being measured
    plan = AttackPlan.nominal(policy, cfg.eval_horizon)
    noise = draw_noise(model, ss, cfg.eval_horizon, cfg.runs,
                       RngStream(cfg.seed, _STREAM_FPMD), noisy=True)
    rows = []
    for sigma in cfg.fpmd_sigmas:
        strategy = MitigationStrategy.noisy(sigma)
        for eta in cfg.fpmd_etas:
            fp = fp_cost(model, ss, eta, strategy, cfg.eval_horizon,
                         cfg.runs, noise)
            md = md_cost(model, ss, eta, strategy, plan, cfg.eval_horizon,
                         cfg.runs, noise)
            rows.append((eta, sigma, fp.value, md.value, fp.std_error,
                         md.std_error))
    _write_csv(out / "fpmd.csv", cfg, ("eta", "sigma_mit", "fp_cost",
               "md_cost", "fp_std_err", "md_std_err"), rows)
    print(f"wrote {out / 'fpmd.csv'} ({len(rows)} sweep cells)")
    return 0


def cmd_voltage(args) -> int:
    cfg = _load(args)
    controller = cfg.controller()
    model = cfg.system_model()
    if (model.A, model.C) != (1.0, 1.0):
        raise ConfigError("the voltage loop assumes A = I and C = I; fix "
                          "the model section")
    ss, out, policy = _solved(args, cfg, model)
    strategy = cfg.mitigation()
    noise = draw_noise(model, ss, cfg.eval_horizon, cfg.runs,
                       RngStream(cfg.seed, _STREAM_VOLTAGE),
                       strategy.kind == "noisy")
    mean_rows, freq_rows = [], []
    for kind, plan in cfg.plans(policy).items():
        run = voltage_attack_experiment(model, ss, controller, plan, cfg.eta,
                                        strategy, cfg.eval_horizon, cfg.runs,
                                        noise)
        for t in range(run.mean_voltage.shape[0]):
            mean_rows.append((t, kind, run.mean_voltage[t],
                              run.voltage_std_err[t],
                              run.mean_abs_deviation[t],
                              run.abs_deviation_std_err[t]))
            freq_rows.append((t, kind, run.detect_frequency[t]))
        print(f"{kind}: terminal |x - x0| = {run.mean_abs_deviation[-1]:.5f}"
              f" +- {run.abs_deviation_std_err[-1]:.5f}")
    _write_csv(out / "voltage_mean.csv", cfg,
               ("t", "plan", "mean_x_1", "std_err_x_1", "abs_deviation",
                "abs_dev_std_err"), mean_rows)
    _write_csv(out / "detection_frequency.csv", cfg,
               ("t", "plan", "frequency"), freq_rows)
    # Python floats print the same text as numpy scalars, only faster
    points = policy.grid.points.tolist()
    actions = policy.action_table.tolist()
    table_rows = [(stage, e, a) for stage, row in enumerate(actions, start=1)
                  for e, a in zip(points, row)]
    _write_csv(out / "policy_table.csv", cfg,
               ("stage", "state_1", "action_1"), table_rows)
    print(f"wrote {out / 'voltage_mean.csv'}, "
          f"{out / 'detection_frequency.csv'}, {out / 'policy_table.csv'}")
    return 0


def cmd_estimate_b(args) -> int:
    cfg = _load(args)
    traces_path = args.traces or cfg.get("paths.traces")
    if traces_path is None:
        raise ConfigError("no trace file: pass --traces or set paths.traces")
    est = estimate_B(load_traces(traces_path))
    print("B estimate: %.17g" % est.B)
    print("residual variance (process-noise estimate): %.17g"
          % est.residual_var)
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        # the presets' one-entry list spelling of a scalar leaf
        fragment = {"model": {"B": [[est.B]], "Q": [[est.residual_var]]}}
        path = out / "estimate_b.yaml"
        with open(path, "w", encoding="utf-8", newline="") as fh:
            yaml.safe_dump(fragment, fh, default_flow_style=None,
                           sort_keys=True)
        print(f"config fragment written to {path}")
    return 0


_COMMANDS = {
    "solve": cmd_solve,
    "sweep-action": cmd_sweep_action,
    "evaluate": cmd_evaluate,
    "fpmd": cmd_fpmd,
    "voltage": cmd_voltage,
    "estimate-b": cmd_estimate_b,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fdisim",
        description="Simulator and solver for optimal sensor-injection "
                    "attacks on a Kalman-filtered control loop.")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH",
                        help="YAML configuration file (merged over the preset)")
    common.add_argument("--preset", choices=preset_names(),
                        help="named configuration preset (default benchmark)")
    common.add_argument("--seed", type=int, metavar="U64",
                        help="override eval.seed")
    common.add_argument("--out", metavar="DIR",
                        help="output directory (default paths.out)")
    common.add_argument("--policy", metavar="PATH",
                        help="policy artifact path (default paths.policy "
                             "inside the output directory)")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("solve", parents=[common],
                   help="solve the injection MDP and write the artifact")
    sub.add_parser("sweep-action", parents=[common],
                   help="detection probability and expected reward vs "
                        "injection magnitude at e = 0")
    sub.add_parser("evaluate", parents=[common],
                   help="Monte-Carlo cost curves for all plans")
    sub.add_parser("fpmd", parents=[common],
                   help="false-positive / misdetection cost sweep")
    sub.add_parser("voltage", parents=[common],
                   help="voltage-loop curves for all plans")
    est = sub.add_parser("estimate-b", parents=[common],
                         help="least-squares gain fit from traces")
    est.add_argument("--traces", metavar="PATH",
                     help="trace CSV (default paths.traces)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except _USER_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
