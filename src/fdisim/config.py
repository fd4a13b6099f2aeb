"""Run configuration: YAML files, named presets, canonical digests.

A configuration is a nested mapping with these sections and defaults
(the `benchmark` preset is exactly the defaults):

    model:       A [[1]], B [[1]], C [[1]], Q [[1]], R [[10]]
    controller:  null, or {x0: [..], alpha: 0.5, init: [..] (default x0)};
                 needs a square, invertible model.B and x0, init of length n
    detector:    eta 10.0
    mitigation:  kind "perfect" ("perfect" | "noisy" | "off"), sigma_mit 0.0
    attack:      kind "policy" ("policy" | "constant" | "ramp" | "none"),
                 a_max 20.0, constant_value [10.0], ramp_slope [1.0]
    mdp:         bounds [[-30, 30]], step [0.25], action_count 81,
                 refine false, horizon 10, gamma 1.0
    eval:        runs 10000, seed 0, horizon 10
    fpmd:        etas [0, 1, 2.5, 5], sigmas [0, 5, 10, 15]
    paths:       policy "policy.json", traces null, out "."

Unknown keys are rejected with their full path, so typos fail loudly
instead of silently falling back to a default.

The digest is a SHA-256 over the canonical JSON serialization of the
fields that determine a solved policy: the model section, the detector
threshold, the mdp section, and the attack norm bound. Artifacts embed it
and evaluation commands refuse artifacts whose digest disagrees with the
active configuration.
"""

from __future__ import annotations

import copy
import hashlib
import json
import numbers
from dataclasses import dataclass

import numpy as np
import yaml

from .attack import AttackPlan
from .defense import DetectorConfig, MitigationStrategy
from .lti import SetpointController, SystemModel
from .mdp import Grid, Policy, build_grid, uniform_actions

__all__ = [
    "ConfigError",
    "RunConfig",
    "config_digest",
    "load_config",
    "preset",
    "preset_names",
]


class ConfigError(ValueError):
    """Raised on unknown keys, malformed sections, or bad values."""


_DEFAULTS = {
    "model": {
        "A": [[1.0]],
        "B": [[1.0]],
        "C": [[1.0]],
        "Q": [[1.0]],
        "R": [[10.0]],
    },
    "controller": None,
    "detector": {"eta": 10.0},
    "mitigation": {"kind": "perfect", "sigma_mit": 0.0},
    "attack": {
        "kind": "policy",
        "a_max": 20.0,
        "constant_value": [10.0],
        "ramp_slope": [1.0],
    },
    "mdp": {
        "bounds": [[-30.0, 30.0]],
        "step": [0.25],
        "action_count": 81,
        "refine": False,
        "horizon": 10,
        "gamma": 1.0,
    },
    "eval": {"runs": 10_000, "seed": 0, "horizon": 10},
    "fpmd": {"etas": [0.0, 1.0, 2.5, 5.0], "sigmas": [0.0, 5.0, 10.0, 15.0]},
    "paths": {"policy": "policy.json", "traces": None, "out": "."},
}

_CONTROLLER_DEFAULTS = {"x0": None, "alpha": 0.5, "init": None}

# voltage preset: the abstract benchmark scaled into per-unit (0.01 pu per
# abstract unit; covariances scale with its square), setpoint regulation
# from 1.0 pu to 0.835 pu, eta 5, horizon 30
_VOLTAGE_OVERRIDES = {
    "model": {
        "A": [[1.0]],
        "B": [[1.0]],
        "C": [[1.0]],
        "Q": [[1.0e-4]],
        "R": [[1.0e-3]],
    },
    "controller": {"x0": [0.835], "alpha": 0.5, "init": [1.0]},
    "detector": {"eta": 5.0},
    "attack": {
        "kind": "policy",
        "a_max": 0.2,
        "constant_value": [0.1],
        "ramp_slope": [0.01],
    },
    "mdp": {
        "bounds": [[-0.3, 0.3]],
        "step": [0.0025],
        "action_count": 81,
        "refine": False,
        "horizon": 30,
        "gamma": 1.0,
    },
    "eval": {"runs": 10_000, "seed": 0, "horizon": 30},
    "fpmd": {"etas": [0.0, 1.0, 2.5, 5.0], "sigmas": [0.0, 0.05, 0.1, 0.15]},
}

_PRESETS = {"benchmark": {}, "voltage": _VOLTAGE_OVERRIDES}


def preset_names() -> list[str]:
    return sorted(_PRESETS)


def _merge(defaults, override, path: str):
    if not isinstance(override, dict):
        raise ConfigError(f"section {path or '<root>'} must be a mapping, "
                          f"got {type(override).__name__}")
    merged = copy.deepcopy(defaults)
    for key, value in override.items():
        here = f"{path}.{key}" if path else key
        if key not in defaults:
            raise ConfigError(f"unknown configuration key {here!r}")
        base = defaults[key]
        if key == "controller":
            if value is None:
                merged[key] = None
            else:
                ctrl_base = base if isinstance(base, dict) \
                    else _CONTROLLER_DEFAULTS
                merged[key] = _merge(ctrl_base, value, here)
        elif isinstance(base, dict):
            merged[key] = _merge(base, value, here)
        else:
            merged[key] = copy.deepcopy(value)
    return merged


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ConfigError(message)


def _number(value, path: str, rule: str, ok) -> None:
    _require(isinstance(value, numbers.Real) and not isinstance(value, bool)
             and ok(value), f"{path} must be {rule}, got {value!r}")


def _numbers(values, path: str, rule: str, ok) -> None:
    _require(isinstance(values, (list, tuple)),
             f"{path} must be a list, got {values!r}")
    for i, value in enumerate(values):
        _number(value, f"{path}[{i}]", rule, ok)


@dataclass(frozen=True, eq=False)
class RunConfig:
    """Validated configuration; accessors build the domain objects."""

    data: dict

    def __post_init__(self):
        data = self.data
        for key, value in data["model"].items():
            try:
                np.asarray(value, dtype=float)
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"model.{key} must be a rectangular array "
                                  f"of numbers: {exc}") from None
        # type before range, so that a string is an error, not a TypeError
        for path, low in (("detector.eta", 0), ("mdp.action_count", 2),
                          ("mdp.horizon", 1), ("eval.runs", 1),
                          ("eval.horizon", 1), ("eval.seed", 0)):
            section, key = path.split(".")
            value = data[section][key]
            _number(value, path, f"a number >= {low}", lambda v: v >= low)
            _number(value, path, "an integer", lambda v: path == "detector.eta"
                    or isinstance(v, numbers.Integral))
        mit = data["mitigation"]
        _require(mit["kind"] in ("perfect", "noisy", "off"),
                 f"mitigation.kind must be perfect|noisy|off, "
                 f"got {mit['kind']!r}")
        _number(mit["sigma_mit"], "mitigation.sigma_mit", "a number >= 0",
                lambda v: v >= 0)
        atk = data["attack"]
        _require(atk["kind"] in ("policy", "constant", "ramp", "none"),
                 f"attack.kind must be policy|constant|ramp|none, "
                 f"got {atk['kind']!r}")
        _number(atk["a_max"], "attack.a_max", "a number > 0", lambda v: v > 0)
        for key in ("constant_value", "ramp_slope"):  # a vector or a scalar
            check = _numbers if isinstance(atk[key], (list, tuple)) else _number
            check(atk[key], f"attack.{key}", "a number", lambda v: True)
        mdp = data["mdp"]
        _require(isinstance(mdp["bounds"], (list, tuple)),
                 f"mdp.bounds must be a list of [lo, hi] pairs, "
                 f"got {mdp['bounds']!r}")
        for i, pair in enumerate(mdp["bounds"]):
            _require(isinstance(pair, (list, tuple)) and len(pair) == 2,
                     f"mdp.bounds[{i}] must be a [lo, hi] pair, got {pair!r}")
            _numbers(pair, f"mdp.bounds[{i}]", "a number", lambda v: True)
        _numbers(mdp["step"], "mdp.step", "a number > 0", lambda v: v > 0)
        _require(len(mdp["bounds"]) == len(mdp["step"]),
                 "mdp.bounds and mdp.step must have the same length")
        _require(isinstance(mdp["refine"], bool),
                 f"mdp.refine must be true or false, got {mdp['refine']!r}")
        _number(mdp["gamma"], "mdp.gamma", "a number in (0, 1]",
                lambda v: 0.0 < v <= 1.0)
        for key, value in data["paths"].items():
            _require(isinstance(value, str) or (key, value) == ("traces", None),
                     f"paths.{key} must be a string, got {value!r}")
        for key in ("etas", "sigmas"):
            _numbers(data["fpmd"][key], f"fpmd.{key}", "a number >= 0",
                     lambda v: v >= 0)
        ctrl = data["controller"]
        if ctrl is not None:
            _require(ctrl["x0"] is not None,
                     "controller.x0 is required when a controller is set")
            _number(ctrl["alpha"], "controller.alpha", "a number in (0, 1)",
                    lambda v: 0.0 < v < 1.0)
            # the setpoint law u = alpha B^-1 (x0 - x_hat) inverts B
            n = np.atleast_2d(np.asarray(data["model"]["A"], float)).shape[0]
            B = np.atleast_2d(np.asarray(data["model"]["B"], float))
            _require(B.shape == (n, n), f"a controller needs a square {n}x{n} "
                                        f"model.B, got {B.shape}")
            _require(np.linalg.matrix_rank(B) == n,
                     "model.B is singular; the setpoint controller cannot "
                     "invert it")
            for key in ("x0", "init"):
                if ctrl[key] is not None:
                    _numbers(ctrl[key], f"controller.{key}", "a number",
                             lambda v: True)
                    _require(len(ctrl[key]) == n, f"controller.{key} must "
                             f"have length {n}, got {len(ctrl[key])}")

    # -- section accessors -------------------------------------------------

    def system_model(self) -> SystemModel:
        md = self.data["model"]
        return SystemModel(A=md["A"], B=md["B"], C=md["C"], Q=md["Q"],
                           R=md["R"])

    def controller(self) -> SetpointController | None:
        ctrl = self.data["controller"]
        if ctrl is None:
            return None
        return SetpointController(x0=ctrl["x0"], alpha=ctrl["alpha"])

    def x_hat0(self) -> np.ndarray | None:
        ctrl = self.data["controller"]
        if ctrl is None:
            return None
        init = ctrl["init"] if ctrl["init"] is not None else ctrl["x0"]
        return np.asarray(init, dtype=float)

    def detector(self) -> DetectorConfig:
        return DetectorConfig(eta=float(self.data["detector"]["eta"]))

    def mitigation(self) -> MitigationStrategy:
        mit = self.data["mitigation"]
        if mit["kind"] == "perfect":
            return MitigationStrategy.perfect()
        if mit["kind"] == "noisy":
            return MitigationStrategy.noisy(float(mit["sigma_mit"]))
        return MitigationStrategy.off()

    def grid(self) -> Grid:
        mdp = self.data["mdp"]
        return build_grid([tuple(b) for b in mdp["bounds"]],
                          list(mdp["step"]))

    def actions(self) -> np.ndarray:
        atk = self.data["attack"]
        m = self.system_model().m
        return uniform_actions(float(atk["a_max"]),
                               int(self.data["mdp"]["action_count"]), m=m)

    def attack_plan(self, policy: Policy | None = None,
                    kind: str | None = None) -> AttackPlan:
        atk = self.data["attack"]
        kind = atk["kind"] if kind is None else kind
        a_max = float(atk["a_max"])
        if kind == "none":
            return AttackPlan.none(dim=self.system_model().m, a_max=a_max)
        if kind == "constant":
            return AttackPlan.constant(atk["constant_value"], a_max=a_max)
        if kind == "ramp":
            return AttackPlan.ramp(atk["ramp_slope"], a_max=a_max)
        if kind == "policy":
            if policy is None:
                raise ConfigError("attack.kind 'policy' needs a solved "
                                  "policy artifact")
            return AttackPlan.from_policy(policy)
        raise ConfigError(f"unknown attack kind {kind!r}")

    @property
    def eta(self) -> float:
        return float(self.data["detector"]["eta"])

    @property
    def seed(self) -> int:
        return int(self.data["eval"]["seed"])

    @property
    def runs(self) -> int:
        return int(self.data["eval"]["runs"])

    @property
    def eval_horizon(self) -> int:
        return int(self.data["eval"]["horizon"])

    @property
    def mdp_horizon(self) -> int:
        return int(self.data["mdp"]["horizon"])

    @property
    def gamma(self) -> float:
        return float(self.data["mdp"]["gamma"])

    @property
    def refine(self) -> bool:
        return bool(self.data["mdp"]["refine"])

    @property
    def fpmd_etas(self) -> list[float]:
        return [float(x) for x in self.data["fpmd"]["etas"]]

    @property
    def fpmd_sigmas(self) -> list[float]:
        return [float(x) for x in self.data["fpmd"]["sigmas"]]

    def digest(self) -> str:
        return config_digest(self)


def config_digest(cfg: RunConfig) -> str:
    """SHA-256 over the canonical JSON of the policy-determining fields."""
    payload = {
        "model": cfg.data["model"],
        "eta": cfg.data["detector"]["eta"],
        "mdp": cfg.data["mdp"],
        "a_max": cfg.data["attack"]["a_max"],
    }
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def from_mapping(mapping: dict | None) -> RunConfig:
    return RunConfig(_merge(_DEFAULTS, mapping or {}, ""))


def preset(name: str) -> RunConfig:
    return resolve_config(name)


def _load_yaml(path) -> dict:
    with open(path, encoding="utf-8") as fh:
        try:
            raw = yaml.safe_load(fh)
        except yaml.YAMLError as exc:
            raise ConfigError(f"{path}: {exc}") from None
    if raw is None:
        raw = {}
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top level must be a mapping, "
                          f"got {type(raw).__name__}")
    return raw


def load_config(path) -> RunConfig:
    return from_mapping(_load_yaml(path))


def resolve_config(preset_name: str | None = None, path=None,
                   seed: int | None = None) -> RunConfig:
    """Layer a preset, an optional config file, and a seed override."""
    name = preset_name or "benchmark"
    if name not in _PRESETS:
        raise ConfigError(f"unknown preset {name!r}; available: "
                          f"{', '.join(preset_names())}")
    data = _merge(_DEFAULTS, _PRESETS[name], "")
    if path is not None:
        data = _merge(data, _load_yaml(path), "")
    if seed is not None:
        data = _merge(data, {"eval": {"seed": int(seed)}}, "")
    return RunConfig(data)
