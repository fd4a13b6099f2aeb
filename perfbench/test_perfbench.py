"""Tests of the benchmark's own machinery on a tiny configuration.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import fdisim  # noqa: E402
import checks  # noqa: E402
import workload  # noqa: E402
from fdisim import cli  # noqa: E402
from metrics import END_TO_END, PER_LAYER, layer_metrics  # noqa: E402
from spans import TARGETS, Tracer  # noqa: E402
from workload import Op, Workload  # noqa: E402

# the tiny lattice leaks mass past its edges; that is this test data's own
pytestmark = pytest.mark.filterwarnings("ignore::fdisim.mdp.TruncationWarning")

TINY = """\
mdp: {bounds: [[-10.0, 10.0]], step: [1.0], action_count: 5, horizon: 3}
eval: {runs: 20, horizon: 3}
"""


def _fdisim_modules():
    return {name: mod for name, mod in sys.modules.items()
            if mod is not None and (name == "fdisim"
                                    or name.startswith("fdisim."))}


def _bindings():
    return {(name, attr): value for name, mod in _fdisim_modules().items()
            for attr, value in vars(mod).items()}


@pytest.fixture
def tiny(tmp_path):
    path = tmp_path / "tiny.yaml"
    path.write_text(TINY, encoding="utf-8")
    return path


def test_wrappers_cover_and_restore_every_binding():
    before = _bindings()
    originals = {fdisim.numerics.bvn_cdf, fdisim.lti.derive_steady_state,
                 fdisim.mdp.build_transition_model, fdisim.attack.attack_at,
                 fdisim.evaluation.rollout_batch}
    with pytest.raises(ZeroDivisionError):
        with Tracer():
            assert fdisim.mdp.bvn_cdf is not before[("fdisim.mdp", "bvn_cdf")]
            assert fdisim.mdp.bvn_cdf is fdisim.numerics.bvn_cdf
            assert fdisim.cli.build_transition_model \
                is fdisim.mdp.build_transition_model
            assert fdisim.evaluation.attack_at is fdisim.attack.attack_at
            assert fdisim.voltage.rollout_batch \
                is fdisim.evaluation.rollout_batch
            left = [key for key, value in _bindings().items()
                    if any(value is orig for orig in originals)]
            assert left == []
            1 / 0
    after = _bindings()
    assert after.keys() == before.keys()
    assert [key for key in before if after[key] is not before[key]] == []


def test_spans_nest_and_account_for_the_pass(tiny, tmp_path):
    tracer = Tracer()
    argv = ["solve", "--config", str(tiny), "--seed", "0", "--out",
            str(tmp_path)]
    with tracer:
        tracer.pass_id = 0
        start = time.perf_counter()
        with tracer.span("cli.solve"):
            assert cli.main(argv) == 0
        wall = time.perf_counter() - start
    spans = tracer.spans
    assert spans[0].name == "cli.solve" and spans[0].parent is None
    for span in spans[1:]:
        parent = spans[span.parent]
        assert parent.start <= span.start <= span.end <= parent.end
        assert span.pass_id == 0
    names = {span.name: spans[span.parent].name for span in spans[1:]
             if span.name != "trace.bookkeeping"}
    assert names["numerics.solve_dare"] == "lti.derive_steady_state"
    assert names["mdp.build_transition_model"] == "cli.solve"
    assert names["numerics.bvn_cdf"] == "mdp.build_transition_model"

    m = layer_metrics(tracer, 0, wall)
    self_total = sum(s for _, _, s in tracer.pass_spans(0))
    assert m["trace.unaccounted_s"] == pytest.approx(wall - self_total)
    assert 0.0 <= m["trace.unaccounted_s"] < 0.05 * wall
    want = checks.solve_counts(21, 5)
    for key, value in want.items():
        assert m[key] == value
    assert m["mdp.build_transition_model.rows"] == 21 * 5
    assert 0.0 < m["numerics.bvn_cdf.useful_ratio"] <= 1.0


def _tiny_workload(monkeypatch, tmp_path, tiny, reference):
    ref = tmp_path / "reference.json"
    ref.write_text(json.dumps({"benchmark-tiny": reference}), encoding="utf-8")
    monkeypatch.setattr(workload, "REFERENCE", ref)
    monkeypatch.setitem(workload.WORKLOADS, "tiny",
                        ((), (Op("solve", "benchmark", tiny),)))
    scratch = tmp_path / "scratch"
    scratch.mkdir()
    return Workload("tiny", 7, scratch)


def test_output_check_fed_a_wrong_value_counts_a_failure(monkeypatch,
                                                         tmp_path, tiny):
    bench = _tiny_workload(monkeypatch, tmp_path, tiny, 1.0)
    _, _, failures = bench.run_pass()
    assert len(failures) == 1 and "relative error" in failures[0]
    value = checks.policy_value_at_zero(
        bench.out["benchmark-tiny"] / "policy.json",
        bench.cfgs["benchmark-tiny"].digest())

    bench.references["benchmark-tiny"] = value * (1.0 + 1e-10)
    assert bench.run_pass()[2] == []
    bench.references["benchmark-tiny"] = value * (1.0 + 1e-8)
    assert len(bench.run_pass()[2]) == 1


def test_digest_line_mismatch_is_a_failure(tmp_path):
    path = tmp_path / "fpmd.csv"
    path.write_text("# digest=abc seed=1\neta,fp_cost,md_cost\n0,1,2\n",
                    encoding="utf-8")
    checks.check_fpmd(tmp_path, "abc", 1)
    with pytest.raises(checks.CheckFailure):
        checks.check_fpmd(tmp_path, "abd", 1)
    with pytest.raises(checks.CheckFailure):
        checks.check_fpmd(tmp_path, "abc", 2)


def test_benchmark_json_matches_the_reported_metrics():
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"], m["bound"])
            for m in declared["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"], m["better"])
            for m in declared["per_layer"]] == list(PER_LAYER)
    assert sorted(w["name"] for w in declared["workloads"]) \
        == sorted(workload.WORKLOADS)
    for module, func, _ in TARGETS:
        prefix = f"{module.split('.', 1)[1]}.{func}."
        assert any(name.startswith(prefix) for name, *_ in PER_LAYER), prefix
