"""In-memory span tracing around fdisim's public functions.

The tracer replaces each traced function wherever the package binds it:
the defining module's attribute and every name a sibling module imported
with `from .x import f` (for example `fdisim.mdp.bvn_cdf` and
`fdisim.cli.build_transition_model`). `uninstall` puts every original
back. Nothing inside `src/` is edited; the spans are recorded from here.

A span is (name, start, end, parent id, pass id) plus optional counts. Self
time is a span's duration minus the time its direct children cover; the
children of one span never overlap because the package is single-threaded.
Counting what a call did runs inside a `trace.bookkeeping` child span, so
it is charged to the tracer and not to the caller's self time.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import os
import sys
import time
from dataclasses import dataclass, field

import numpy as np

BOOKKEEPING = "trace.bookkeeping"


@dataclass
class Span:
    name: str
    start: float
    parent: int | None
    pass_id: int | None
    end: float = float("nan")
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


# ---------------------------------------------------------------------------
# Counters: what each traced call did, read from its arguments and result
# ---------------------------------------------------------------------------


def _count_bvn(bound, result, useful):
    from scipy.special import ndtr

    h = np.asarray(bound.arguments["h"], dtype=float)
    k = np.asarray(bound.arguments["k"], dtype=float)
    counts = {"evals": int(np.broadcast(h, k).size)}
    if useful:
        # neither exactly 0 nor exactly the marginal min(Phi(h), Phi(k))
        out = np.asarray(result, dtype=float)
        marginal = ndtr(np.minimum(h, k))
        counts["useful"] = int(np.count_nonzero((out != 0.0)
                                                & (out != marginal)))
    return counts


def _count_transition_model(bound, result, useful):
    rows = int(result.rows.shape[0] * result.rows.shape[1])
    nbytes = int(result.rows.nbytes + result.detection.nbytes
                 + result.interior_mass.nbytes)
    return {"rows": rows, "bytes": nbytes}


def _count_value_iteration(bound, result, useful):
    return {"stages": int(bound.arguments["horizon"])}


def _count_rollout(bound, result, useful):
    return {"run_steps": int(bound.arguments["runs"]) * int(bound.arguments["T"])}


def _count_save_policy(bound, result, useful):
    return {"bytes": os.path.getsize(bound.arguments["path"])}


# (defining module, function, counter or None); span name is module.function
# without the package prefix
TARGETS = (
    ("fdisim.numerics", "bvn_cdf", _count_bvn),
    ("fdisim.numerics", "solve_dare", None),
    ("fdisim.lti", "derive_steady_state", None),
    ("fdisim.mdp", "build_transition_model", _count_transition_model),
    ("fdisim.mdp", "value_iteration", _count_value_iteration),
    ("fdisim.mdp", "immediate_reward_curve", None),
    ("fdisim.mdp", "policy_lookup", None),
    ("fdisim.attack", "attack_at", None),
    ("fdisim.defense", "g_statistic", None),
    ("fdisim.evaluation", "rollout_batch", _count_rollout),
    ("fdisim.evaluation", "compare_attacks", None),
    ("fdisim.evaluation", "fp_cost", None),
    ("fdisim.evaluation", "md_cost", None),
    ("fdisim.voltage", "voltage_attack_experiment", None),
    ("fdisim.artifact", "save_policy", _count_save_policy),
    ("fdisim.artifact", "load_policy", None),
    ("fdisim.config", "resolve_config", None),
)


def span_name(module: str, func: str) -> str:
    return f"{module.split('.', 1)[1]}.{func}"


class Tracer:
    """Records spans in memory; `install` patches every binding of the
    TARGETS functions across the loaded fdisim modules.

    With useful=True the tracer also counts the useful `bvn_cdf`
    evaluations, which costs about 8% of a kernel call; the benchmark
    counts them in a separate pass so the timed traced passes stay close to
    untraced ones."""

    def __init__(self, useful: bool = True):
        self.useful = useful
        self.spans: list[Span] = []
        self.pass_id: int | None = None
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- span recording -----------------------------------------------------

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), parent, self.pass_id))
        sid = len(self.spans) - 1
        self._stack.append(sid)
        return sid

    def close(self, sid: int) -> None:
        self.spans[sid].end = time.perf_counter()
        if self._stack.pop() != sid:
            raise RuntimeError(f"span {self.spans[sid].name} closed out of order")

    @contextlib.contextmanager
    def span(self, name: str):
        sid = self.open(name)
        try:
            yield self.spans[sid]
        finally:
            self.close(sid)

    # -- binding patches ----------------------------------------------------

    def _wrap(self, name, original, counter):
        signature = inspect.signature(original)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            sid = self.open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self.close(sid)
            if counter is not None:
                book = self.open(BOOKKEEPING)
                try:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    self.spans[sid].counts = counter(bound, result,
                                                     self.useful)
                finally:
                    self.close(book)
            return result

        return traced

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = [mod for key, mod in sorted(sys.modules.items())
                   if mod is not None
                   and (key == "fdisim" or key.startswith("fdisim."))]
        for module_name, func_name, counter in TARGETS:
            original = getattr(sys.modules[module_name], func_name)
            wrapper = self._wrap(span_name(module_name, func_name), original,
                                 counter)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, original))

    def uninstall(self) -> None:
        while self._patched:
            mod, attr, original = self._patched.pop()
            setattr(mod, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- analysis -----------------------------------------------------------

    def pass_spans(self, pass_id: int) -> list[tuple[int, Span, float]]:
        """(id, span, self time) for every span of one pass."""
        ids = [i for i, s in enumerate(self.spans) if s.pass_id == pass_id]
        covered = dict.fromkeys(ids, 0.0)
        for i in ids:
            parent = self.spans[i].parent
            if parent in covered:
                covered[parent] += self.spans[i].duration
        return [(i, self.spans[i], self.spans[i].duration - covered[i])
                for i in ids]

    def ancestors(self, sid: int):
        parent = self.spans[sid].parent
        while parent is not None:
            yield parent
            parent = self.spans[parent].parent

    def dump(self) -> list[dict]:
        return [{"id": i, "name": s.name, "start": s.start, "end": s.end,
                 "parent": s.parent, "pass": s.pass_id, **s.counts}
                for i, s in enumerate(self.spans)]
