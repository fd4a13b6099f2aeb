"""Run configuration: YAML files, named presets, canonical digests.

A configuration is a nested mapping merged over a preset, one of the YAML
files in `presets/`; `benchmark.yaml` holds every key with its default.
Unknown keys are rejected with their full path, and every leaf is checked
against one table, `_SPECS`, which also types what `RunConfig.get` returns.

The digest is a SHA-256 over the canonical JSON of the values, as written,
that determine a solved policy: the model section, the detector threshold,
the mdp section, and the attack norm bound. Artifacts embed it, and
evaluation commands refuse artifacts whose digest disagrees.
"""

from __future__ import annotations

import contextlib
import copy
import functools
import hashlib
import json
import math
import numbers
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np
import yaml

from .attack import AttackPlan
from .defense import DetectorConfig, MitigationStrategy
from .lti import SetpointController, SystemModel
from .mdp import Grid, Policy, build_grid, uniform_actions

__all__ = [
    "ConfigError",
    "RunConfig",
    "preset_names",
    "resolve_config",
]


class ConfigError(ValueError):
    """Raised on unknown keys, malformed sections, or bad values."""


_CONTROLLER_DEFAULTS = {"x0": None, "alpha": 0.5, "init": None}

# (dotted path, kind, range). A trailing "?" on the kind admits null. The
# range of a number kind is an interval: NaN is never in it, and +inf only
# when its upper end is a closed "inf]" (a detector that never alarms).
# A "scalar" is a number or a one-entry list of a scalar ([v], [[v]]); a
# "matrix" is a number or a rectangular nested list of numbers; a
# "choice" range lists the allowed strings.
_SPECS = (
    *((f"model.{key}", "scalar", None) for key in "ABCQR"),
    ("controller.x0", "scalar", None),
    ("controller.alpha", "real", "(0, 1)"),
    ("controller.init", "scalar?", None),
    ("detector.eta", "real", "[0, inf]"),
    ("mitigation.kind", "choice", "perfect|noisy|off"),
    ("mitigation.sigma_mit", "real", "[0, inf)"),
    ("attack.a_max", "real", "(0, inf)"),
    ("attack.constant_value", "scalar", None),
    ("attack.ramp_slope", "scalar", None),
    ("mdp.bounds", "matrix", None),
    ("mdp.step", "vector", "(0, inf)"),
    ("mdp.action_count", "int", "[2, inf)"),
    ("mdp.horizon", "int", "[1, inf)"),
    ("mdp.gamma", "real", "(0, 1]"),
    ("eval.runs", "int", "[1, inf)"),
    ("eval.seed", "int", "[0, inf)"),
    ("eval.horizon", "int", "[1, inf)"),
    ("fpmd.etas", "vector", "[0, inf]"),
    ("fpmd.sigmas", "vector", "[0, inf)"),
    ("paths.policy", "str", None),
    ("paths.traces", "str?", None),
    ("paths.out", "str", None),
)
_KINDS = {spec[0]: spec[1].rstrip("?") for spec in _SPECS}
_CASTS = {"int": int, "real": float, "vector": lambda v: [float(x) for x in v],
          "matrix": lambda v: np.asarray(v, dtype=float),
          "scalar": lambda v: np.asarray(v, dtype=float).item()}


def _fail(path: str, rule: str, value) -> None:
    raise ConfigError(f"{path} must be {rule}, got {value!r}")


def _number(value, path: str, rng: str | None) -> None:
    """A real (not a bool) inside the interval `rng`, e.g. "(0, 1]"; an
    integer past float range is refused like NaN, not overflowed later."""
    rng = rng or "(-inf, inf)"
    lo, hi = (float(end) for end in rng[1:-1].split(","))
    rule = ("a number" if lo == -math.inf else
            f"a number {'>=' if rng[0] == '[' else '>'} {lo:g}"
            if hi == math.inf else f"a number in {rng}")
    x = math.nan
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        with contextlib.suppress(OverflowError):
            x = float(value)
    if not ((lo <= x if rng[0] == "[" else lo < x)
            and (x <= hi if rng[-1] == "]" else x < hi)):
        _fail(path, rule, value)


def check_leaf(value, path: str, kind: str, rng: str | None) -> None:
    if kind.endswith("?") and value is None:
        return
    kind = kind.rstrip("?")
    if kind in ("real", "int"):
        _number(value, path, rng)  # type and range before integrality
        if kind == "int" and not isinstance(value, numbers.Integral):
            _fail(path, "an integer", value)
    elif kind == "str" and not isinstance(value, str):
        _fail(path, "a string", value)
    elif kind == "choice" and value not in rng.split("|"):
        _fail(path, rng, value)
    elif kind == "vector":
        if not isinstance(value, (list, tuple)):
            _fail(path, "a list", value)
        for i, item in enumerate(value):
            _number(item, f"{path}[{i}]", rng)
    elif kind == "scalar" and isinstance(value, (list, tuple)):
        if len(value) != 1:
            _fail(path, "a scalar: a number or a one-entry list", value)
        check_leaf(value[0], f"{path}[0]", kind, rng)
    elif kind in ("scalar", "matrix") and not isinstance(value, (list, tuple)):
        _number(value, path, rng)
    elif kind == "matrix":  # each entry, then the shape
        # at once when every entry is a finite int or float (the usual case)
        with contextlib.suppress(ValueError, OverflowError):
            leaves = np.asarray(value, dtype=object)
            if (rng is None and set(map(type, leaves.flat)) <= {int, float}
                    and np.isfinite(leaves.astype(float)).all()):
                return
        for i, item in enumerate(value):
            check_leaf(item, f"{path}[{i}]", kind, rng)
        try:
            np.asarray(value, dtype=float)
        except ValueError as exc:
            raise ConfigError(f"{path} must be a rectangular array of "
                              f"numbers: {exc}") from None


def _check(data: dict) -> None:
    for path, kind, rng in _SPECS:
        section, key = path.split(".")
        if data[section] is not None:  # only the controller may be null
            check_leaf(data[section][key], path, kind, rng)
    bounds, step = data["mdp"]["bounds"], data["mdp"]["step"]
    if np.shape(bounds) != (1, 2) or len(step) != 1:
        _fail("mdp.bounds", f"one [lo, hi] pair with a one-entry mdp.step "
              f"(the decision lattice is scalar; mdp.step is {step})", bounds)


@dataclass(frozen=True, eq=False)
class RunConfig:
    """Validated configuration; accessors build the domain objects."""

    data: dict

    def __post_init__(self):
        _check(self.data)

    def get(self, path: str):
        """The value at a dotted path, cast by its kind; sections as stored."""
        value = self.data
        for key in path.split("."):
            value = value[key]
        cast = _CASTS.get(_KINDS.get(path))
        return value if cast is None or value is None else cast(value)

    # -- section accessors -------------------------------------------------

    def system_model(self) -> SystemModel:
        return SystemModel(**{k: self.get(f"model.{k}") for k in "ABCQR"})

    def controller(self) -> SetpointController:
        if self.get("controller") is None:
            raise ConfigError("the voltage command needs a controller "
                              "section (start from --preset voltage)")
        return SetpointController(*(self.get(f"controller.{key}")
                                    for key in ("x0", "alpha", "init")))

    def detector(self) -> DetectorConfig:
        return DetectorConfig(eta=self.eta)

    def mitigation(self) -> MitigationStrategy:
        return MitigationStrategy(self.get("mitigation.kind"),
                                  self.get("mitigation.sigma_mit"))

    def grid(self) -> Grid:
        (lo, hi), = self.get("mdp.bounds")
        step, = self.get("mdp.step")
        return build_grid(lo, hi, step)

    def actions(self) -> np.ndarray:
        """The action lattice as a (K, 1) column, the form the benchmark
        harness reads."""
        return uniform_actions(self.get("attack.a_max"),
                               self.get("mdp.action_count"))[:, None]

    def plans(self, policy: Policy) -> dict[str, AttackPlan]:
        """The four compared plans, keyed by their CSV names."""
        a_max = self.get("attack.a_max")
        return {"policy": AttackPlan.from_policy(policy),
                "constant": AttackPlan.constant(
                    self.get("attack.constant_value"), a_max=a_max),
                "ramp": AttackPlan.ramp(self.get("attack.ramp_slope"),
                                        a_max=a_max),
                "none": AttackPlan.none(a_max=a_max)}

    eta = property(lambda self: self.get("detector.eta"))
    seed = property(lambda self: self.get("eval.seed"))
    runs = property(lambda self: self.get("eval.runs"))
    eval_horizon = property(lambda self: self.get("eval.horizon"))
    mdp_horizon = property(lambda self: self.get("mdp.horizon"))
    gamma = property(lambda self: self.get("mdp.gamma"))
    fpmd_etas = property(lambda self: self.get("fpmd.etas"))
    fpmd_sigmas = property(lambda self: self.get("fpmd.sigmas"))

    def digest(self) -> str:
        """SHA-256 over the canonical JSON of the policy-determining fields."""
        payload = {
            "model": self.data["model"],
            "eta": self.data["detector"]["eta"],
            "mdp": self.data["mdp"],
            "a_max": self.data["attack"]["a_max"],
        }
        canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


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
        if key == "controller":  # null, or a block over the preset's own
            base = None if value is None else base or _CONTROLLER_DEFAULTS
        merged[key] = (_merge(base, value, here) if isinstance(base, dict)
                       else copy.deepcopy(value))
    return merged


# libyaml's parser resolves the same YAML 1.1 tags as the pure-Python one
_YAML_LOADER = yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader


def _load_yaml(file) -> dict:
    """The top-level mapping of a YAML file (a path or a package resource)."""
    try:
        raw = yaml.load(file.read_text(encoding="utf-8"), Loader=_YAML_LOADER)
    except OSError as exc:
        raise ConfigError(f"{file}: {exc.strerror or exc}") from None
    except (UnicodeDecodeError, yaml.YAMLError) as exc:
        raise ConfigError(f"{file}: {exc}") from None
    if raw is None:
        raw = {}
    if not isinstance(raw, dict):
        raise ConfigError(f"{file}: top level must be a mapping, "
                          f"got {type(raw).__name__}")
    return raw


@functools.cache
def _presets() -> dict[str, dict]:
    """Every preset file, parsed once per process and merged over the
    benchmark; never mutated, since `_merge` copies what it takes."""
    files = (resources.files(__package__) / "presets").iterdir()
    raw = {f.name.removesuffix(".yaml"): _load_yaml(f) for f in files
           if f.name.endswith(".yaml")}
    return {name: _merge(raw["benchmark"], data, "")
            for name, data in raw.items()}


def preset_names() -> list[str]:
    return sorted(_presets())


def from_mapping(mapping: dict | None) -> RunConfig:
    return RunConfig(_merge(_presets()["benchmark"], mapping or {}, ""))


def resolve_config(preset_name: str | None = None, path=None,
                   seed: int | None = None) -> RunConfig:
    """Layer a preset, an optional config file, and a seed override."""
    name = preset_name or "benchmark"
    presets = _presets()
    if name not in presets:
        raise ConfigError(f"unknown preset {name!r}; available: "
                          f"{', '.join(preset_names())}")
    data = _merge(presets[name], {} if path is None
                  else _load_yaml(Path(path)), "")
    if seed is not None:
        data["eval"]["seed"] = int(seed)
    return RunConfig(data)
