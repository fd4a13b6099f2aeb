"""Versioned policy artifact: JSON container tying a solved policy to the
configuration digest it was solved under.

Layout (all floats finite and serialized with shortest round-trip
representation, so save/load is exact; load_policy refuses a version
that is not the integer 1, and a bool, string, NaN or infinity among the
numbers, a gamma outside (0, 1] and an a_max or step <= 0):

    magic         "fdisim-policy"
    version       1
    digest        SHA-256 hex of the solving configuration
    grid          {bounds: [[lo, hi]], step: [h]}: the scalar lattice
    actions       action lattice, one one-entry row per action
    gamma         per-stage discount
    a_max         injection norm bound
    values        (horizon + 1) x states, stage-major, values[0] = 0
    action_table  horizon x states x 1, stage-major (index s-1 holds the
                  policy with s stages remaining)

Serialization is canonical (sorted keys, fixed separators), so identical
policies produce byte-identical files. The one-entry forms are the file's
own: a Policy holds the lattice as floats, its actions as a (K,) array and
its table as (horizon, states), and this module converts on save and load.
"""

from __future__ import annotations

import functools
import json

import numpy as np

from .config import check_leaf
from .mdp import Policy, build_grid

__all__ = ["ArtifactError", "MAGIC", "VERSION", "load_policy", "save_policy"]

MAGIC = "fdisim-policy"
VERSION = 1


class ArtifactError(ValueError):
    """Raised on malformed, mislabeled, or mismatched artifacts."""


# (key path, kind, range) of each number leaf, for config.check_leaf
_LEAVES = (*((key, "matrix", None) for key in ("grid.bounds", "actions",
                                                "values", "action_table")),
           ("grid.step", "vector", "(0, inf)"), ("gamma", "real", "(0, 1]"),
           ("a_max", "real", "(0, inf)"))


def save_policy(path, policy: Policy, digest: str) -> None:
    payload = {
        "magic": MAGIC,
        "version": VERSION,
        "digest": digest,
        "grid": {
            "bounds": [[policy.grid.lo, policy.grid.hi]],
            "step": [policy.grid.step],
        },
        "actions": policy.actions[:, None].tolist(),
        "gamma": policy.gamma,
        "a_max": policy.a_max,
        "values": policy.values.tolist(),
        "action_table": policy.action_table[:, :, None].tolist(),
    }
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"),
                      allow_nan=False)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
        fh.write("\n")


def load_policy(path, expected_digest: str | None = None) -> tuple[Policy, str]:
    """Read an artifact back; refuses wrong magic/version and, when
    expected_digest is given, a digest mismatch."""
    try:
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
    except FileNotFoundError:
        raise ArtifactError(f"policy artifact {path} does not exist; run "
                            f"the solve command first") from None
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ArtifactError(f"{path}: not a policy artifact ({exc})") from None
    if not isinstance(payload, dict) or payload.get("magic") != MAGIC:
        raise ArtifactError(f"{path}: missing magic string {MAGIC!r}")
    version = payload.get("version")
    if type(version) is not int or version != VERSION:  # nor True, nor 1.0
        raise ArtifactError(f"{path}: artifact version {version!r} is not "
                            f"{VERSION}")
    digest = payload.get("digest", "")
    if not isinstance(digest, str):
        raise ArtifactError(f"{path}: digest {digest!r} is not a string")
    if expected_digest is not None and digest != expected_digest:
        raise ArtifactError(
            f"{path}: artifact was solved under digest {digest[:12]}... but "
            f"the active configuration has {expected_digest[:12]}...; "
            f"re-solve or fix the configuration")
    try:
        for leaf, kind, rng in _LEAVES:
            check_leaf(functools.reduce(dict.__getitem__, leaf.split("."),
                                        payload), leaf, kind, rng)
        bounds = np.asarray(payload["grid"]["bounds"], dtype=float)
        step = np.asarray(payload["grid"]["step"], dtype=float)
        actions = np.asarray(payload["actions"], dtype=float)
        values = np.asarray(payload["values"], dtype=float)
        table = np.asarray(payload["action_table"], dtype=float)
        gamma = float(payload["gamma"])
        a_max = float(payload["a_max"])
        if bounds.shape != (1, 2) or step.shape != (1,):
            raise ValueError(f"the decision lattice is scalar: grid.bounds "
                             f"must be one [lo, hi] pair and grid.step one "
                             f"entry, got shapes {bounds.shape} and "
                             f"{step.shape}")
        grid = build_grid(*bounds[0], step[0])
    except (KeyError, TypeError, ValueError) as exc:
        raise ArtifactError(f"{path}: malformed artifact ({exc})") from None
    if actions.ndim != 2 or actions.shape[1] != 1:
        raise ArtifactError(f"{path}: actions must be rows of one entry (the "
                            f"decision problem is scalar), got shape "
                            f"{actions.shape}")
    horizon, n_states, m = table.shape if table.ndim == 3 else (0, 0, 0)
    if n_states != grid.n_states or values.shape != (horizon + 1, n_states) \
            or m != 1:
        raise ArtifactError(
            f"{path}: inconsistent table shapes (grid {grid.n_states} "
            f"states, actions {actions.shape}, values {values.shape}, "
            f"table {table.shape})")
    policy = Policy(grid=grid, actions=actions[:, 0],
                    action_table=table[:, :, 0], values=values, gamma=gamma,
                    a_max=a_max)
    return policy, digest
