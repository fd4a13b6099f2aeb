"""Configuration, artifact, and command-line tests.

What is proven here:
  * Every name in fdisim.__all__ resolves on the package, and importing it
    does not load scipy.stats (a start-up cost every command would pay);
    evaluate and fpmd, run through cli.main in a fresh process, load no
    scipy module at all.
  * The presets are exactly the YAML files in fdisim/presets, and their
    digests are pinned to full hex values (so a 10 that became 10.0 would
    show); unknown keys are rejected with their path; seed and file
    overrides layer correctly.  Each preset file loads to the same values
    and types as yaml.safe_load gives, whichever parser is in use.
  * RunConfig.plans maps the four CSV names (policy, constant, ramp,
    none), in that order, to the configured plans.
  * The model is scalar: a 2x2 model.A, a 1x2 model.B, a 2x1 model.C or
    a two-entry controller.x0 ends solve, sweep-action, evaluate, fpmd and
    voltage with code 2 and one error line, before any file is written.
    Every scalar leaf (model.A-R, controller.x0 and init,
    attack.constant_value and ramp_slope) gives the same float from v,
    [v] and [[v]], in the config and in the object built from it, and a
    two-entry list at any depth is one error line naming its path.
  * A model without process noise (Q = 0) gives the decision problem a
    point-mass next error: solve and sweep-action exit with code 2 and
    one error line, with no warning and no file.
  * The benchmark harness's closed-form counts, read from
    RunConfig.grid() and RunConfig.actions()'s (K, 1) column, give
    today's solve-pass figures.
    A controller over a zero model.B exits with code 2 and an error line
    instead of a traceback; so does a word where a number belongs, a
    scalar where a list belongs, a ragged model matrix, a matrix entry
    that YAML read as a string (1e-4) or a bool, a NaN or infinity where
    none is allowed, and an integer past float range (solve too, in one
    line); so does a config or trace file that does not exist.
  * A voltage-scale negative variance (model.Q [[-1.0e-9]]) makes solve
    exit with code 2 and one error line naming Q, without running the
    Riccati loop.
  * The digest changes exactly when a policy-determining field changes.
  * Policy artifacts round-trip bit-exactly, and the check of a matrix
    leaf returns the float array np.asarray gives, -0.0 included, which
    load_policy reads instead of converting again.  Artifacts refuse
    wrong magic/version,
    files that are not JSON or not UTF-8, digest mismatches, and a digest
    that is not a string (one error line and exit code 2).  A NaN
    is neither written nor read: a hand-edited artifact with a NaN or
    infinite entry is an ArtifactError, and evaluate exits with code 2 and
    one error line instead of writing NaN costs; so is a bool, a numeric
    string, a gamma outside (0, 1], a non-positive a_max, and a version
    of true or 1.0.  The decision lattice is
    scalar: an artifact with two [lo, hi] pairs or two-entry action rows,
    and a config whose mdp.bounds is not one pair with a one-entry
    mdp.step, are one error line with exit code 2.
  * solve writes an artifact with 241 states and the configured stages; a
    degenerate one-point grid solves to all-zero values; re-running solve
    is byte-identical.
  * sweep-action puts the reward argmax at (benchmark) magnitude 10 with
    detection probability ~0.3, and the detection column is nondecreasing.
  * evaluate writes the four cost curves; a mismatched artifact digest is
    refused with a nonzero exit code, and so is a sigma_mit set without
    noisy mitigation (one error line naming it).  An unquoted
    mitigation kind that YAML 1.1 reads as a bool (off, no, on) is one
    error line asking for quotes, exit code 2 and no output; a quoted
    "off" loads as off.
  * fpmd with an empty sigma or eta sweep exits 0 and writes a
    header-only fpmd.csv (0 sweep cells).
  * voltage refuses a config without a controller section, and a model
    other than A = I, C = I before it reads any policy; neither writes a
    CSV.
  * estimate-b prints the gain and writes a config fragment that loads
    through resolve_config to a model with the fitted B and Q as floats;
    rank-deficient traces exit nonzero, and a two-bus, two-input trace is
    one error line with exit code 2, no stdout and no output directory.
  * Identical invocations are byte-identical across every emitted file.
  * A CSV row written with one format string per row gives the bytes of
    formatting each value on its own (strings as they are, bools and
    integers as integers, everything else with 17 significant digits),
    -0.0, 1e-300, 0.1, nan and inf included, also when one column changes
    type between rows.  policy_table.csv, which formats each lattice point
    and each distinct action once, gives the bytes of that row writer on
    a table holding 0.0 and -0.0 actions and lattice points at +-1e-16.
"""

import copy
import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

import fdisim
from fdisim import cli, numerics
from fdisim.artifact import ArtifactError, load_policy, save_policy
from fdisim.config import (
    ConfigError,
    RunConfig,
    check_leaf,
    _load_yaml,
    preset_names,
    resolve_config,
)
from fdisim.lti import derive_steady_state
from fdisim.mdp import build_grid, build_transition_model, uniform_actions, value_iteration
from fdisim.numerics import RngStream
from fdisim.voltage import (
    estimate_B,
    load_traces,
    save_traces,
    synthesize_traces,
)


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------


def test_package_exports_resolve():
    missing = [name for name in fdisim.__all__ if not hasattr(fdisim, name)]
    assert missing == []
    assert len(set(fdisim.__all__)) == len(fdisim.__all__)


def test_import_does_not_load_scipy_stats():
    src = str(__import__("pathlib").Path(fdisim.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run(
        [sys.executable, "-c",
         "import fdisim, sys; print('scipy.stats' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def test_preset_files_and_digests_are_pinned():
    shipped = __import__("pathlib").Path(fdisim.__file__).parent / "presets"
    assert preset_names() == sorted(p.stem for p in shipped.glob("*.yaml"))
    assert resolve_config("benchmark").digest() == (
        "e1f647227bc4af41cf55ca22839f0c88c0bf730545800e17da79b3295b3be266")
    assert resolve_config("voltage").digest() == (
        "ea422633a369ef9d7c3709c378efa74a93ed5696ea30bea4dc11954419e49492")


def test_presets_parse_like_safe_load():
    # the loader may be libyaml's; it must give the same values and types
    shipped = __import__("pathlib").Path(fdisim.__file__).parent / "presets"
    for path in sorted(shipped.glob("*.yaml")):
        ours = _load_yaml(path)
        theirs = yaml.safe_load(path.read_text(encoding="utf-8"))
        assert ours == theirs and repr(ours) == repr(theirs), path.name


def test_unknown_keys_rejected_with_path(tmp_path):
    bad = tmp_path / "bad.yaml"
    bad.write_text("detector:\n  etaa: 3.0\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="detector.etaa"):
        resolve_config(path=bad)
    with pytest.raises(ConfigError, match="nosuch"):
        resolve_config("nosuch")


def test_config_layering_and_seed_override(tmp_path):
    over = tmp_path / "over.yaml"
    over.write_text("detector:\n  eta: 2.5\n", encoding="utf-8")
    cfg = resolve_config("voltage", path=over, seed=99)
    assert cfg.eta == 2.5
    assert cfg.seed == 99
    assert cfg.data["attack"]["a_max"] == 0.2  # voltage preset retained
    assert cfg.data["controller"]["x0"] == [0.835]


def test_config_validation_messages():
    with pytest.raises(ConfigError, match="mitigation.kind"):
        resolve_config(path=None, preset_name=None).__class__(
            {**resolve_config("benchmark").data,
             "mitigation": {"kind": "magic", "sigma_mit": 0.0}})
    with pytest.raises(ConfigError, match="alpha"):
        from fdisim.config import from_mapping
        from_mapping({"controller": {"x0": [1.0], "alpha": 1.5}})


def test_digest_tracks_policy_fields():
    base = resolve_config("benchmark")
    same = resolve_config("benchmark", seed=123)  # seed not in the digest
    assert base.digest() == same.digest()
    changed = base.__class__({**base.data, "detector": {"eta": 5.0}})
    assert changed.digest() != base.digest()
    mdp = dict(base.data["mdp"], horizon=12)
    changed2 = base.__class__({**base.data, "mdp": mdp})
    assert changed2.digest() != base.digest()


def test_domain_object_accessors(tiny_policy):
    cfg = resolve_config("voltage")
    model = cfg.system_model()
    assert (model.A, model.Q) == (1.0, 1e-4)
    ctrl = cfg.controller()
    assert ctrl is not None and ctrl.alpha == 0.5
    assert (ctrl.x0, ctrl.init) == (0.835, 1.0)
    assert cfg.detector().eta == 5.0
    assert cfg.mitigation().kind == "perfect"
    assert cfg.grid().n_states == 241
    assert cfg.actions().shape == (81, 1)
    plan = cfg.plans(tiny_policy)["constant"]
    assert plan.kind == "constant"


def test_plans_are_the_four_csv_names_in_order(tiny_policy):
    # evaluate writes cost_<name>.csv and voltage tags its rows with the
    # name, in this order
    cfg = resolve_config("voltage")
    plans = cfg.plans(tiny_policy)
    assert list(plans) == ["policy", "constant", "ramp", "none"]
    assert [plan.kind for plan in plans.values()] == list(plans)
    assert plans["policy"].policy is tiny_policy
    assert plans["constant"].constant_value == 0.1
    assert plans["ramp"].slope == 0.01
    assert [plan.a_max for plan in list(plans.values())[1:]] == [0.2] * 3


# ---------------------------------------------------------------------------
# Artifacts
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def tiny_policy():
    import warnings

    from fdisim.lti import SystemModel
    from fdisim.mdp import TruncationWarning
    model = SystemModel(A=1.0, B=1.0, C=1.0, Q=1.0, R=10.0)
    ss = derive_steady_state(model)
    grid = build_grid(-12.0, 12.0, 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncationWarning)
        tm = build_transition_model(model, ss, eta=10.0, grid=grid,
                                    actions=uniform_actions(20.0, 21))
    return value_iteration(tm, horizon=4)


def test_artifact_round_trip(tmp_path, tiny_policy):
    path = tmp_path / "pol.json"
    save_policy(path, tiny_policy, digest="d" * 64)
    loaded, digest = load_policy(path, expected_digest="d" * 64)
    assert digest == "d" * 64
    # a matrix leaf comes back from its check as the array np.asarray
    # gives, on the fast path (ints and floats), the entry-wise one (a
    # numpy float among them) and for a bare number
    for leaf in ([[1, -0.0], [2.5, 3]], [[np.float64(-0.0), 7]], 4):
        got = check_leaf(leaf, "m", "matrix", None)
        want = np.asarray(leaf, dtype=float)
        assert got.dtype == want.dtype and np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))
    assert check_leaf(0.5, "g", "real", "(0, 1]") is None
    assert np.array_equal(loaded.action_table, tiny_policy.action_table)
    assert np.array_equal(loaded.values, tiny_policy.values)
    assert np.array_equal(loaded.actions, tiny_policy.actions)
    assert np.array_equal(loaded.grid.points, tiny_policy.grid.points)
    assert loaded.gamma == tiny_policy.gamma
    assert loaded.a_max == tiny_policy.a_max


def test_artifact_refusals(tmp_path, tiny_policy):
    path = tmp_path / "pol.json"
    save_policy(path, tiny_policy, digest="d" * 64)
    with pytest.raises(ArtifactError, match="digest"):
        load_policy(path, expected_digest="e" * 64)
    with pytest.raises(ArtifactError, match="exist"):
        load_policy(tmp_path / "missing.json")
    mangled = tmp_path / "mangled.json"
    payload = json.loads(path.read_text())
    payload["magic"] = "other"
    mangled.write_text(json.dumps(payload))
    with pytest.raises(ArtifactError, match="magic"):
        load_policy(mangled)
    payload["magic"] = "fdisim-policy"
    payload["version"] = 2
    mangled.write_text(json.dumps(payload))
    with pytest.raises(ArtifactError, match="version"):
        load_policy(mangled)
    (tmp_path / "junk.json").write_text("not json")
    with pytest.raises(ArtifactError):
        load_policy(tmp_path / "junk.json")
    (tmp_path / "binary.json").write_bytes(b"\xff\xfe{}")  # not UTF-8
    with pytest.raises(ArtifactError, match="not a policy artifact"):
        load_policy(tmp_path / "binary.json")


def test_artifact_refuses_non_finite_numbers(tmp_path, tiny_policy):
    path = tmp_path / "pol.json"
    save_policy(path, tiny_policy, digest="d" * 64)
    finite = path.read_bytes()
    for key, index, token in (("action_table", (1, 12, 0), "NaN"),
                              ("values", (2, 3), "-Infinity"),
                              ("a_max", (), "1e999")):
        edited = json.loads(finite)
        if index:
            entry = edited[key]
            for i in index[:-1]:
                entry = entry[i]
            entry[index[-1]] = "TOKEN"
        else:
            edited[key] = "TOKEN"
        bad = tmp_path / f"{key}.json"
        bad.write_text(json.dumps(edited).replace('"TOKEN"', token))
        with pytest.raises(ArtifactError,
                           match=r"must be a number.*, got -?(nan|inf)\)"):
            load_policy(bad)
    nan_policy = dataclasses.replace(
        tiny_policy, values=np.where(tiny_policy.values == 0.0, np.nan,
                                     tiny_policy.values))
    with pytest.raises(ValueError):
        save_policy(tmp_path / "nan.json", nan_policy, digest="d" * 64)
    assert not (tmp_path / "nan.json").exists()


# ---------------------------------------------------------------------------
# Commands (small grids for speed)
# ---------------------------------------------------------------------------


@pytest.fixture()
def small_cfg(tmp_path):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(
        "mdp:\n"
        "  bounds: [[-12.0, 12.0]]\n"
        "  step: [1.0]\n"
        "  action_count: 21\n"
        "  horizon: 4\n"
        "eval:\n"
        "  runs: 200\n"
        "  horizon: 4\n",
        encoding="utf-8")
    return cfg


def _run(argv):
    return cli.main([str(a) for a in argv])


@pytest.mark.filterwarnings("ignore::fdisim.mdp.TruncationWarning")
def test_solve_evaluate_round_trip(tmp_path, small_cfg, capsys):
    out = tmp_path / "out"
    assert _run(["solve", "--config", small_cfg, "--out", out]) == 0
    assert (out / "policy.json").exists()
    assert "states" in capsys.readouterr().out

    assert _run(["evaluate", "--config", small_cfg, "--out", out]) == 0
    for kind in ("policy", "constant", "ramp", "none"):
        text = (out / f"cost_{kind}.csv").read_text(encoding="utf-8")
        lines = text.splitlines()
        assert lines[0].startswith("# digest=")
        assert lines[1] == "t,cost,std_err"
        assert len(lines) == 2 + 4  # horizon rows
    # the policy plan does at least as well as doing nothing
    import csv

    def terminal(kind):
        with open(out / f"cost_{kind}.csv", encoding="utf-8") as fh:
            fh.readline()
            rows = list(csv.DictReader(fh))
        return float(rows[-1]["cost"])

    assert terminal("policy") > terminal("none")


@pytest.mark.filterwarnings("ignore::fdisim.mdp.TruncationWarning")
def test_rollout_commands_start_without_scipy(tmp_path, small_cfg):
    # scipy.special is imported only where a normal CDF is evaluated, which
    # no rollout command does
    out = tmp_path / "out"
    assert _run(["solve", "--config", small_cfg, "--out", out]) == 0
    src = str(__import__("pathlib").Path(fdisim.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    script = ("import sys\n"
              "from fdisim.cli import main\n"
              "for command in ('evaluate', 'fpmd'):\n"
              "    assert main([command, '--config', sys.argv[1], '--out',"
              " sys.argv[2]]) == 0\n"
              "print(sorted(m for m in sys.modules"
              " if m.split('.')[0] == 'scipy'))\n")
    result = subprocess.run([sys.executable, "-c", script, str(small_cfg),
                             str(out)], env=env, capture_output=True,
                            text=True, check=True)
    assert result.stdout.splitlines()[-1] == "[]"
    assert (out / "cost_policy.csv").exists() and (out / "fpmd.csv").exists()


@pytest.mark.filterwarnings("ignore::fdisim.mdp.TruncationWarning")
def test_non_scalar_artifact_is_one_error_line(tmp_path, small_cfg, capsys):
    # the decision lattice is scalar: two [lo, hi] pairs, or actions with
    # two entries, are refused before any rollout; so is a digest that is
    # not a string
    out = tmp_path / "out"
    assert _run(["solve", "--config", small_cfg, "--out", out]) == 0
    path = out / "policy.json"
    solved = json.loads(path.read_text(encoding="utf-8"))
    two_dim_grid = dict(solved, grid={"bounds": [[-1.0, 1.0], [-1.0, 1.0]],
                                      "step": [1.0, 1.0]})
    two_entry_actions = dict(solved, actions=[[a[0], 0.0]
                                              for a in solved["actions"]])
    for payload, message in ((two_dim_grid, "scalar"),
                             (two_entry_actions, "rows of one entry"),
                             (dict(solved, digest=None), "not a string"),
                             (dict(solved, digest=5), "not a string")):
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(ArtifactError, match=message):
            load_policy(path)
        capsys.readouterr()
        assert _run(["evaluate", "--config", small_cfg, "--out", out]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert message in err
        assert not (out / "cost_policy.csv").exists()


@pytest.mark.filterwarnings("ignore::fdisim.mdp.TruncationWarning")
def test_commands_are_byte_deterministic(tmp_path, small_cfg):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert _run(["solve", "--config", small_cfg, "--out", out,
                     "--seed", 5]) == 0
        assert _run(["evaluate", "--config", small_cfg, "--out", out,
                     "--seed", 5]) == 0
        outs.append(out)
    for rel in ("policy.json", "cost_policy.csv", "cost_constant.csv",
                "cost_ramp.csv", "cost_none.csv"):
        a = (outs[0] / rel).read_bytes()
        b = (outs[1] / rel).read_bytes()
        assert a == b, rel


def _fmt_value(value) -> str:
    # the per-value formatting the CSV writer must reproduce
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return "%.17g" % float(value)


def test_csv_rows_format_like_each_value(tmp_path):
    rows = [
        ("policy", True, 3, np.int64(-7), 0.1, np.float64(-0.0)),
        ("none", False, 0, np.int64(2**62), 1e-300, np.float64("nan")),
        # the same columns with other types: the format follows each row
        (np.int64(4), 2.5, "x", 1, np.float64("inf"), -np.inf),
        (1.0, np.float64(1 / 3), np.bool_(True), np.uint8(255), 7, "z"),
        ("policy", True, 3, np.int64(-7), 0.1, np.float64(-0.0)),
    ]
    path = tmp_path / "mixed.csv"
    cfg = resolve_config("benchmark", seed=5)
    cli._write_csv(path, cfg, list("abcdef"), iter(rows))
    want = "".join(",".join(map(_fmt_value, row)) + "\n" for row in rows)
    assert path.read_bytes() == (f"# digest={cfg.digest()} seed=5\n"
                                 f"a,b,c,d,e,f\n{want}").encode("utf-8")
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[2] == "policy,1,3,-7,0.10000000000000001,-0"
    assert lines[3] == "none,0,0,4611686018427387904,1e-300,nan"
    assert lines[4] == "4,2.5,x,1,inf,-inf"
    assert lines[5] == "1,0.33333333333333331,1,255,7,z"


def test_policy_table_writes_the_bytes_of_the_row_writer(tmp_path,
                                                         tiny_policy):
    # 0.0 == -0.0, so a writer that looked actions up by value would print
    # one zero for both
    grid = dataclasses.replace(tiny_policy.grid, points=np.array(
        [-1.0, -1e-16, 1e-16, 0.1]))
    table = np.array([[0.0, -0.0, 0.1, -0.0], [-0.0, 0.0, 0.0, 20.0],
                      [1 / 3, -0.0, 0.1, 0.0]])
    policy = dataclasses.replace(tiny_policy, grid=grid, action_table=table)
    cfg = resolve_config("benchmark", seed=5)
    columns = ("stage", "state_1", "action_1")
    cli._write_policy_table(tmp_path / "table.csv", cfg, policy)
    rows = [(stage, e, a) for stage, row in enumerate(table.tolist(), start=1)
            for e, a in zip(grid.points.tolist(), row)]
    cli._write_csv(tmp_path / "rows.csv", cfg, columns, rows)
    text = (tmp_path / "table.csv").read_bytes()
    assert text == (tmp_path / "rows.csv").read_bytes()
    lines = text.decode("utf-8").splitlines()
    assert lines[2:6] == ["1,-1,0", "1,-9.9999999999999998e-17,-0",
                          "1,9.9999999999999998e-17,0.10000000000000001",
                          "1,0.10000000000000001,-0"]
    assert lines[6:8] == ["2,-1,-0", "2,-9.9999999999999998e-17,0"]


@pytest.mark.filterwarnings("ignore::fdisim.mdp.TruncationWarning")
def test_evaluate_refuses_a_nan_policy(tmp_path, small_cfg, capsys):
    out = tmp_path / "out"
    assert _run(["solve", "--config", small_cfg, "--out", out]) == 0
    path = out / "policy.json"
    payload = json.loads(path.read_text(encoding="utf-8"))
    payload["action_table"][3][12][0] = float("nan")
    path.write_text(json.dumps(payload), encoding="utf-8")
    capsys.readouterr()
    assert _run(["evaluate", "--config", small_cfg, "--out", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "action_table[3][12][0] must be a number, got nan" in err
    assert not (out / "cost_policy.csv").exists()


@pytest.mark.filterwarnings("ignore::fdisim.mdp.TruncationWarning")
@pytest.mark.parametrize("key, change, message", [
    ("gamma", lambda v: True, "gamma must be a number in (0, 1], got True"),
    ("gamma", lambda v: 5.0, "gamma must be a number in (0, 1], got 5.0"),
    ("gamma", lambda v: -1.0, "gamma must be a number in (0, 1], got -1.0"),
    ("a_max", lambda v: "7", "a_max must be a number > 0, got '7'"),
    ("a_max", lambda v: -3.0, "a_max must be a number > 0, got -3.0"),
    ("a_max", lambda v: 10 ** 400, "a_max must be a number > 0, got 1000"),
    ("action_table", lambda t: [[[True] for _ in row] for row in t],
     "action_table[0][0][0] must be a number, got True"),
    ("values", lambda t: [[str(x) for x in row] for row in t],
     "values[0][0] must be a number, got '0.0'"),
    ("grid", lambda g: dict(g, step=["1"]),
     "grid.step[0] must be a number > 0, got '1'"),
    ("version", lambda v: True, "artifact version True is not 1"),
    ("version", lambda v: 1.0, "artifact version 1.0 is not 1"),
], ids=["gamma-bool", "gamma-5", "gamma-negative", "a_max-string",
        "a_max-negative", "a_max-past-float", "action_table-bools", "values-strings",
        "step-string", "version-bool", "version-float"])
def test_artifact_refuses_mistyped_numbers(tmp_path, small_cfg, capsys, key,
                                           change, message):
    # float() and np.asarray(dtype=float) take bools and numeric strings,
    # and a gamma or a_max out of range would replay a wrong policy plan
    out = tmp_path / "out"
    assert _run(["solve", "--config", small_cfg, "--out", out]) == 0
    path = out / "policy.json"
    payload = json.loads(path.read_text(encoding="utf-8"))
    payload[key] = change(payload[key])
    path.write_text(json.dumps(payload), encoding="utf-8")
    with pytest.raises(ArtifactError) as refused:
        load_policy(path)
    assert message in str(refused.value)
    capsys.readouterr()
    assert _run(["evaluate", "--config", small_cfg, "--out", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err
    assert not (out / "cost_policy.csv").exists()


@pytest.mark.filterwarnings("ignore::fdisim.mdp.TruncationWarning")
def test_sigma_mit_needs_noisy_mitigation(tmp_path, small_cfg, capsys):
    # the digest leaves mitigation out, so the solved artifact still loads
    out = tmp_path / "out"
    assert _run(["solve", "--config", small_cfg, "--out", out]) == 0
    cfg = tmp_path / "perfect.yaml"
    cfg.write_text(small_cfg.read_text(encoding="utf-8")
                   + "mitigation: {kind: perfect, sigma_mit: 5.0}\n",
                   encoding="utf-8")
    capsys.readouterr()
    assert _run(["evaluate", "--config", cfg, "--out", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "sigma_mit" in err
    assert not (out / "cost_policy.csv").exists()


@pytest.mark.parametrize("word", ["off", "no", "on"])
def test_unquoted_off_is_one_error_line(tmp_path, capsys, word):
    # YAML 1.1 reads a bare off (and no, on) as a bool, never as "off"
    cfg = tmp_path / "bare.yaml"
    cfg.write_text(f"mitigation: {{kind: {word}}}\n", encoding="utf-8")
    out = tmp_path / "out"
    assert _run(["evaluate", "--config", cfg, "--out", out]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert captured.err == (
        f"error: mitigation.kind must be perfect|noisy|off in quotes (YAML "
        f"1.1 reads a bare off as a bool), got {word == 'on'}\n")
    quoted = tmp_path / "quoted.yaml"
    quoted.write_text('mitigation: {kind: "off"}\n', encoding="utf-8")
    assert resolve_config("benchmark", path=quoted).mitigation().kind == "off"


@pytest.mark.filterwarnings("ignore::fdisim.mdp.TruncationWarning")
@pytest.mark.parametrize("key", ["sigmas", "etas"])
def test_fpmd_with_an_empty_sweep_writes_a_header_only_csv(
        tmp_path, small_cfg, capsys, key):
    out = tmp_path / "out"
    assert _run(["solve", "--config", small_cfg, "--out", out]) == 0
    cfg = tmp_path / "empty.yaml"
    cfg.write_text(small_cfg.read_text(encoding="utf-8")
                   + f"fpmd: {{{key}: []}}\n", encoding="utf-8")
    capsys.readouterr()
    assert _run(["fpmd", "--config", cfg, "--out", out]) == 0
    assert capsys.readouterr().out == (
        f"wrote {out / 'fpmd.csv'} (0 sweep cells)\n")
    lines = (out / "fpmd.csv").read_text(encoding="utf-8").splitlines()
    assert len(lines) == 2 and lines[0].startswith("# digest=")
    assert lines[1] == "eta,sigma_mit,fp_cost,md_cost,fp_std_err,md_std_err"


def test_voltage_needs_a_controller_section(tmp_path, capsys):
    assert _run(["voltage", "--preset", "benchmark", "--out", tmp_path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "controller section" in err
    assert list(tmp_path.glob("*.csv")) == []


def test_voltage_refuses_a_model_other_than_identity(tmp_path, capsys,
                                                     monkeypatch):
    def load_policy(*args):
        raise AssertionError("the policy artifact was read")

    monkeypatch.setattr(cli, "load_policy", load_policy)
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text("model: {A: [[0.9]]}\n", encoding="utf-8")
    assert _run(["voltage", "--preset", "voltage", "--config", cfg,
                 "--out", tmp_path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "A = I and C = I" in err
    assert list(tmp_path.glob("*.csv")) == []


def test_sweep_action_benchmark_curve(tmp_path):
    out = tmp_path / "out"
    assert _run(["sweep-action", "--preset", "benchmark", "--out", out]) == 0
    lines = (out / "sweep_action.csv").read_text(encoding="utf-8").splitlines()
    assert lines[1] == "a,detection_prob,expected_reward"
    data = np.array([[float(v) for v in ln.split(",")] for ln in lines[2:]])
    assert data.shape == (41, 3)  # nonneg half of the 81-point lattice
    argmax = data[np.argmax(data[:, 2]), 0]
    assert argmax == pytest.approx(10.0, abs=0.5)
    det_at_argmax = data[np.argmax(data[:, 2]), 1]
    assert det_at_argmax == pytest.approx(0.3, abs=0.05)
    assert np.all(np.diff(data[:, 1]) >= -1e-12)  # nondecreasing detection


@pytest.mark.filterwarnings("ignore::fdisim.mdp.TruncationWarning")
def test_evaluate_refuses_mismatched_artifact(tmp_path, small_cfg, capsys):
    out = tmp_path / "out"
    assert _run(["solve", "--config", small_cfg, "--out", out]) == 0
    # same grid, different eta -> different digest
    other = tmp_path / "other.yaml"
    other.write_text(small_cfg.read_text() + "detector:\n  eta: 3.0\n",
                     encoding="utf-8")
    code = _run(["evaluate", "--config", other, "--out", out])
    assert code == 2
    assert "digest" in capsys.readouterr().err


def test_degenerate_grid_solves_to_zero(tmp_path, capsys):
    cfg = tmp_path / "deg.yaml"
    cfg.write_text(
        "mdp:\n"
        "  bounds: [[0.0, 0.0]]\n"
        "  step: [0.25]\n"
        "  action_count: 5\n"
        "  horizon: 3\n",
        encoding="utf-8")
    out = tmp_path / "out"
    with pytest.warns(Warning):  # everything truncates to the single cell
        assert _run(["solve", "--config", cfg, "--out", out]) == 0
    payload = json.loads((out / "policy.json").read_text())
    assert np.all(np.asarray(payload["values"]) == 0.0)


def test_estimate_b_command(tmp_path, capsys):
    traces = synthesize_traces(1.2, 500, RngStream(4), noise_var=1e-6)
    trace_path = tmp_path / "traces.csv"
    save_traces(trace_path, traces)
    est = estimate_B(load_traces(trace_path))
    out = tmp_path / "out"
    assert _run(["estimate-b", "--traces", trace_path, "--out", out]) == 0
    path = out / "estimate_b.yaml"
    assert capsys.readouterr().out.splitlines() == [
        "B estimate: %.17g" % est.B,
        "residual variance (process-noise estimate): %.17g" % est.residual_var,
        f"config fragment written to {path}",
    ]
    assert abs(est.B - 1.2) < 0.05
    # the fragment loads as a config, and its model is the fit
    model = resolve_config(path=path).system_model()
    assert isinstance(model.B, float) and isinstance(model.Q, float)
    assert (model.B, model.Q) == (est.B, est.residual_var)

    zero_u = tmp_path / "zero.csv"
    save_traces(zero_u, synthesize_traces(1.0, 50, RngStream(5), u_scale=0.0))
    assert _run(["estimate-b", "--traces", zero_u]) == 2
    assert "unidentifiable" in capsys.readouterr().err


def test_estimate_b_refuses_a_multi_bus_trace(tmp_path, capsys):
    # every command needs a scalar model, so a two-bus, two-input fit would
    # write a fragment that no config can take
    trace_path = tmp_path / "traces.csv"
    rng = np.random.default_rng(0)
    rows = [",".join([str(t)] + ["%.17g" % v for v in row])
            for t, row in enumerate(rng.normal(size=(20, 4)))]
    trace_path.write_text("t,x_1,x_2,u_1,u_2\n" + "\n".join(rows) + "\n",
                          encoding="utf-8")
    out = tmp_path / "out"
    assert _run(["estimate-b", "--traces", trace_path, "--out", out]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert f"{trace_path}:1:" in captured.err
    assert not out.exists()


@pytest.mark.parametrize("body, message", [
    # a setpoint per state of a 2-state model: every leaf is checked at
    # load, in the table's order, so the model's first entry is named
    ("model: {A: [[0.0, 1.0], [0.0, 0.0]], B: [[0.0, 0.0], [0.0, 1.0]],\n"
     "        C: [[1.0, 0.0], [0.0, 1.0]], Q: [[1.0, 0.0], [0.0, 1.0]],\n"
     "        R: [[1.0, 0.0], [0.0, 1.0]]}\n"
     "controller: {x0: [0.0, 0.0]}\n",
     "model.A must be a scalar: a number or a one-entry list, got "
     "[[0.0, 1.0], [0.0, 0.0]]"),
    # the setpoint law divides by B; the model refuses B = 0
    ("model: {B: [[0.0]]}\ncontroller: {x0: [0.0]}\n",
     "(A, B) is not controllable: B = 0"),
    ("controller: {x0: [0.8, 0.9]}\n",
     "controller.x0 must be a scalar: a number or a one-entry list, got "
     "[0.8, 0.9]"),
])
def test_bad_controller_is_a_config_error(tmp_path, capsys, body, message):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(body, encoding="utf-8")
    assert _run(["evaluate", "--config", cfg, "--out", tmp_path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


@pytest.mark.parametrize("command", ["solve", "sweep-action", "evaluate",
                                     "fpmd", "voltage"])
@pytest.mark.parametrize("body, message", [
    ("model: {A: [[1.0, 0.0], [0.0, 1.0]]}\n",
     "model.A must be a scalar: a number or a one-entry list, got "
     "[[1.0, 0.0], [0.0, 1.0]]"),
    ("model: {B: [[1.0, 2.0]]}\n",
     "model.B[0] must be a scalar: a number or a one-entry list, got "
     "[1.0, 2.0]"),
    ("model: {C: [[1.0], [0.5]]}\n",
     "model.C must be a scalar: a number or a one-entry list, got "
     "[[1.0], [0.5]]"),
    ("controller: {x0: [0.8, 0.9]}\n",
     "controller.x0 must be a scalar: a number or a one-entry list, got "
     "[0.8, 0.9]"),
], ids=["A-2x2", "B-1x2", "C-2x1", "x0-two-entries"])
def test_non_scalar_model_is_refused_by_every_command(tmp_path, capsys,
                                                      command, body, message):
    # one check of the dimension, in the config as it loads, ahead of
    # every command's work; over the voltage preset, which has the
    # controller the voltage command needs
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(body, encoding="utf-8")
    out = tmp_path / "out"
    assert _run([command, "--preset", "voltage", "--config", cfg,
                 "--out", out]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {message}\n"
    assert not out.exists()


# every leaf of kind "scalar", with a value the voltage preset can take
_SCALAR_LEAVES = {"model.A": 0.9, "model.B": 2.0, "model.C": 0.5,
                  "model.Q": 0.3, "model.R": 2.0, "controller.x0": 0.835,
                  "controller.init": 1.0, "attack.constant_value": 0.05,
                  "attack.ramp_slope": 0.02}


def _leaf_object_value(cfg, path, policy):
    """The float that a scalar leaf sets in the domain object built from
    it."""
    section, key = path.split(".")
    if section == "model":
        return getattr(cfg.system_model(), key)
    if section == "controller":
        return getattr(cfg.controller(), key)
    plans = cfg.plans(policy)
    return (plans["constant"].constant_value if key == "constant_value"
            else plans["ramp"].slope)


@pytest.mark.parametrize("path", list(_SCALAR_LEAVES))
def test_scalar_leaf_is_a_number_or_a_one_entry_list(path, tiny_policy):
    # v, [v] and [[v]] give the same float, in the config and in the
    # domain object built from it
    section, key = path.split(".")
    value = _SCALAR_LEAVES[path]
    for form in (value, [value], [[value]]):
        data = copy.deepcopy(resolve_config("voltage").data)
        data[section][key] = form
        cfg = RunConfig(data)
        assert type(cfg.get(path)) is float and cfg.get(path) == value
        got = _leaf_object_value(cfg, path, tiny_policy)
        assert type(got) is float and got == value, form


@pytest.mark.parametrize("path", list(_SCALAR_LEAVES))
def test_two_entry_scalar_leaf_is_one_error_line(tmp_path, capsys, path):
    section, key = path.split(".")
    out = tmp_path / "out"
    for form, named in (("[1.0, 2.0]", path), ("[[1.0, 2.0]]", f"{path}[0]")):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(f"{section}: {{{key}: {form}}}\n", encoding="utf-8")
        assert _run(["solve", "--preset", "voltage", "--config", cfg,
                     "--out", out]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == (
            f"error: {named} must be a scalar: a number or a one-entry "
            f"list, got [1.0, 2.0]\n")
        assert not out.exists()


@pytest.mark.parametrize("command", ["solve", "sweep-action"])
@pytest.mark.parametrize("model", ["{A: [[0.9]], Q: [[0.0]]}",
                                   "{Q: [[0.0]]}"], ids=["stable", "unit"])
def test_noise_free_model_is_refused_by_the_decision_problem(
        tmp_path, capsys, command, model):
    # with Q = 0 the filter gain is 0 and the next error a point mass
    # (s2 = 0), which the rows cannot take: one error line, before any
    # row is built (so no RuntimeWarning) and before any file is written
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(f"model: {model}\nmdp: {{bounds: [[-2.0, 2.0]], "
                   f"step: [1.0], action_count: 3}}\n", encoding="utf-8")
    out = tmp_path / "out"
    assert _run([command, "--config", cfg, "--out", out]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert captured.err.startswith("error: the decision problem needs a "
                                   "random next error")
    assert not out.exists()


def test_benchmark_reader_counts_a_solve_pass(tmp_path, monkeypatch):
    # the benchmark harness takes its closed-form counts from
    # RunConfig.grid() and the (K, 1) column of RunConfig.actions(); the
    # solve workload has no set-up commands, so building it runs nothing
    monkeypatch.syspath_prepend(
        str(Path(__file__).resolve().parents[1] / "perfbench"))
    from workload import Workload

    assert Workload("solve", 0, tmp_path).expected_counts() == {
        "numerics.bvn_cdf.evals": 37_832_344,
        "mdp.build_transition_model.rows": 39_042,
        "evaluation.rollout_batch.run_steps": 0}


def test_voltage_scale_negative_variance_is_refused_at_once(tmp_path, capsys,
                                                            monkeypatch):
    def riccati_map(*args):
        raise AssertionError("the Riccati loop ran")

    monkeypatch.setattr(numerics, "_riccati_map", riccati_map)
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text("model: {Q: [[-1.0e-9]]}\n", encoding="utf-8")
    assert _run(["solve", "--preset", "voltage", "--config", cfg,
                 "--out", tmp_path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Q must be positive semidefinite" in err


@pytest.mark.parametrize("body, message", [
    ("eval: {runs: many}\n", "eval.runs must be a number >= 1, got 'many'"),
    ("controller: {x0: [0.8], alpha: half}\n",
     "controller.alpha must be a number in (0, 1), got 'half'"),
    ("model: {A: [[1.0, 2.0], [3.0]]}\n",
     "model.A must be a scalar: a number or a one-entry list"),
    ("mdp: {step: 0.25}\n", "mdp.step must be a list, got 0.25"),
    ("mitigation: {kind: noisy, sigma_mit: lots}\n",
     "mitigation.sigma_mit must be a number >= 0, got 'lots'"),
    ("attack: {constant_value: ten}\n",
     "attack.constant_value must be a number, got 'ten'"),
    ("fpmd: {etas: [zero]}\n",
     "fpmd.etas[0] must be a number >= 0, got 'zero'"),
    ("eval: {runs: 2.5}\n", "eval.runs must be an integer, got 2.5"),
    ("mdp: {action_count: 80.5}\n",
     "mdp.action_count must be an integer, got 80.5"),
    ("mdp: {refine: false}\n", "unknown configuration key 'mdp.refine'"),
    ("attack: {kind: policy}\n", "unknown configuration key 'attack.kind'"),
    ("controller: {x0: [zero]}\n",
     "controller.x0[0] must be a number, got 'zero'"),
    ("paths: {policy: 5}\n", "paths.policy must be a string, got 5"),
    ("mdp: {gamma: lots}\n", "mdp.gamma must be a number in (0, 1], got 'lots'"),
    ("mdp: {bounds: [[.nan, 30.0]]}\n",
     "mdp.bounds[0][0] must be a number, got nan"),
    ("attack: {a_max: .inf}\n", "attack.a_max must be a number > 0, got inf"),
    ("mdp: {step: [.inf]}\n", "mdp.step[0] must be a number > 0, got inf"),
    ("model: {Q: [[.nan]]}\n", "model.Q[0][0] must be a number, got nan"),
    ("model: {Q: [[1e-4]], R: [[1e-3]]}\n",
     "model.Q[0][0] must be a number, got '1e-4'"),
    ("model: {A: true}\n", "model.A must be a number, got True"),
    # integers past float range, refused before any cast overflows
    (f"model: {{A: [[{10 ** 400}]]}}\n",
     f"model.A[0][0] must be a number, got {10 ** 400}"),
    (f"detector: {{eta: {10 ** 400}}}\n",
     f"detector.eta must be a number >= 0, got {10 ** 400}"),
    # the decision lattice is scalar
    ("mdp: {bounds: [[-1.0, 1.0], [-1.0, 1.0]], step: [1.0, 1.0]}\n",
     "mdp.bounds must be one [lo, hi] pair"),
    ("mdp: {step: [0.25, 0.25]}\n", "mdp.bounds must be one [lo, hi] pair"),
    ("mdp: {bounds: [-30.0, 30.0]}\n", "mdp.bounds must be one [lo, hi] pair"),
])
def test_mistyped_config_is_a_config_error(tmp_path, capsys, body, message):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(body, encoding="utf-8")
    assert _run(["evaluate", "--config", cfg, "--out", tmp_path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


@pytest.mark.parametrize("body", [f"model: {{A: [[{10 ** 400}]]}}\n",
                                  f"detector: {{eta: {10 ** 400}}}\n"],
                         ids=["matrix-entry", "real"])
def test_integer_past_float_range_is_one_error_line(tmp_path, capsys, body):
    # these used to end in an OverflowError traceback
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(body, encoding="utf-8")
    assert _run(["solve", "--config", cfg, "--out", tmp_path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "must be a number" in err and err.endswith(f"{10 ** 400}\n")
    assert not (tmp_path / "policy.json").exists()


def test_missing_traces_is_a_config_error(capsys):
    assert _run(["estimate-b", "--preset", "benchmark"]) == 2
    assert "paths.traces" in capsys.readouterr().err


def test_missing_files_are_error_lines(tmp_path, capsys):
    assert _run(["evaluate", "--config", tmp_path / "missing.yaml",
                 "--out", tmp_path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "missing.yaml" in err
    assert _run(["estimate-b", "--traces", tmp_path / "missing.csv"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "missing.csv" in err
    # files that are not UTF-8; the trace's first line is valid, so its
    # error comes from decoding the rows, not the header
    binary = bytes(range(256)) * 2
    (tmp_path / "bin.yaml").write_bytes(binary)
    (tmp_path / "bin.csv").write_bytes(b"t,x_1,u_1\n" + binary)
    assert _run(["evaluate", "--config", tmp_path / "bin.yaml",
                 "--out", tmp_path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "bin.yaml" in err
    assert _run(["estimate-b", "--traces", tmp_path / "bin.csv"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "bin.csv" in err
