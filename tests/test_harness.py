"""Config validation, pipeline orchestration, reporting and the CLI."""

import copy
import json
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from qbsde import (
    InvalidArgument,
    ReportIncomplete,
    SchemaViolation,
    emit_report,
    load_config,
    run_experiment,
    validate_config,
)
from qbsde.cli import main as cli_main
from qbsde.errors import UnknownRegistryName
from qbsde.harness import _CONSTANT_DEFAULTS, _SECTION_DEFAULTS

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
DATA_DIR = Path(__file__).resolve().parent / "data"

MINIMAL = {
    "grid": {"T": 1.0, "steps": 4},
    "sampling": {"paths": 10, "seed": 1},
}


def _write(tmp_path, data, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(data))
    return p


# ------------------------------------------------------------- validation

def test_minimal_config_defaults_materialized():
    cfg = validate_config(dict(MINIMAL))
    assert cfg["model"]["mode"] == "F1"
    assert cfg["generator"]["f"]["name"] == "zero"
    assert cfg["generator"]["constants"]["K_z"] == 1.0
    assert cfg["sampling"]["kind"] == "gaussian"
    assert cfg["solvers"] == [] and cfg["diagnostics"] == []


def test_config_hash_key_order_independent():
    a = validate_config({"grid": {"T": 1.0, "steps": 4},
                         "sampling": {"seed": 1, "paths": 10}})
    b = validate_config({"sampling": {"paths": 10, "seed": 1},
                         "grid": {"steps": 4, "T": 1.0}})
    assert a.config_hash == b.config_hash


def test_validation_changes_neither_its_input_nor_the_defaults():
    raw = dict(MINIMAL, solvers=[{"id": "lsmc"}],
               diagnostics=[{"id": "z_growth"}],
               generator={"constants": {"r": 0.5}})
    before = copy.deepcopy(raw)
    defaults = copy.deepcopy(_SECTION_DEFAULTS)
    cfg = validate_config(raw)
    assert raw == before and _SECTION_DEFAULTS == defaults

    def containers(obj):
        if isinstance(obj, (dict, list)):
            yield obj
            for v in (obj.values() if isinstance(obj, dict) else obj):
                yield from containers(v)

    shared = {id(o) for o in containers(cfg.data)} & {
        id(o) for o in [*containers(raw), *containers(_SECTION_DEFAULTS)]}
    assert not shared
    cfg["solvers"].append({"id": "tree"})
    cfg["model"]["drift"]["params"]["coef"] = 2.0
    assert raw == before and _SECTION_DEFAULTS == defaults


def test_seed_required():
    with pytest.raises(SchemaViolation, match="seed is required"):
        validate_config({"grid": {"T": 1.0, "steps": 4},
                         "sampling": {"paths": 10}})


def test_r_schema_message():
    bad = dict(MINIMAL, generator={"constants": {"r": 1.2}})
    with pytest.raises(SchemaViolation,
                       match=r"constants\.r: must be a number in \[0, 1\)"):
        validate_config(bad)


@pytest.mark.parametrize("key", list(_CONSTANT_DEFAULTS))
def test_every_constant_changes_the_reports(tmp_path, key):
    # a declared constant that no run reads is a knob that does nothing:
    # each key of the constants table must move f1's reports
    raw = json.loads((CONFIG_DIR / "f1-test-problem.json").read_text())
    raw["grid"]["steps"] = 10
    raw["sampling"]["paths"] = 2000
    reports = []
    for bump in (0.0, 0.25):
        data = json.loads(json.dumps(raw))
        constants = data["generator"]["constants"]
        constants[key] = constants.get(key, _CONSTANT_DEFAULTS[key]) + bump
        record = run_experiment(validate_config(data), tmp_path / str(bump))
        assert record.status == "complete"
        reports.append(json.loads(
            (tmp_path / str(bump) / "summary.json").read_text())["reports"])
    assert reports[0] != reports[1]


def test_unknown_registry_name_lists_available():
    bad = dict(MINIMAL, generator={"g": {"name": "nonexistent"}})
    with pytest.raises(UnknownRegistryName) as e:
        validate_config(bad)
    assert "half_square" in str(e.value)


def test_unknown_solver_id():
    bad = dict(MINIMAL, solvers=[{"id": "mystery"}])
    with pytest.raises(SchemaViolation, match="mystery"):
        validate_config(bad)


@pytest.mark.parametrize("model", [
    # a misspelled factory parameter
    {"drift": {"name": "ou", "params": {"kapa": 0.5}}},
    # no sigma takes "mode": the model's mode decides how sigma is called
    {"mode": "F2", "sigma": {"name": "tanh_bounded", "params": {"mode": "F2"}}},
    # the constant sigma used to take it, and the model's mode overwrote it
    {"sigma": {"name": "constant", "params": {"mode": "F2"}}},
])
def test_registry_params_bound_at_validation(tmp_path, capsys, model):
    bad = dict(MINIMAL, model=model)
    with pytest.raises(SchemaViolation, match="unexpected keyword argument"):
        validate_config(bad)
    assert cli_main(["validate", "--config", str(_write(tmp_path, bad))]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "accepted: " in err


@pytest.mark.parametrize("section, entry", [
    ("solvers", {"id": "lsmc", "options": {"trunc_levl": 4}}),
    ("solvers", {"id": "tree", "options": {"trunc_level": 4}}),
    ("diagnostics", {"id": "z_growth", "options": {"solver": "lsmc", "rr": 0}}),
    # the weighted measure route and its switch are gone
    ("solvers", {"id": "decomposed_additive",
                 "options": {"measure_route": "drift"}}),
    # a section or key the config does not read used to be dropped silently:
    # "path" ran the default 1000 paths
    ("solver", [{"id": "lsmc"}]),
    ("grid", {"T": 1.0, "steps": 4, "dt": 0.25}),
    ("sampling", {"path": 50000, "seed": 1}),
    ("model", {"x_0": [0.0]}),
    ("model", {"drift": {"name": "ou", "param": {"kappa": 0.5}}}),
    ("generator", {"zeta": {"name": "zero"}}),
    ("generator", {"f": {"name": "zero", "parms": {}}}),
    ("generator", {"constants": {"K_zz": 1.0}}),
    # r and K_z are read from generator.constants, one source each
    ("diagnostics", {"id": "z_growth", "options": {"r": 0.5}}),
    ("diagnostics", {"id": "class_membership", "options": {"K_z": 1.0}}),
    # nothing read the tangent or these constants; both went with them
    ("sampling", {"paths": 10, "seed": 1, "tangent": True}),
    ("generator", {"constants": {"K_h": 0.2}}),
    # no run read K_y or C_f; the error names K_z and r as accepted
    ("generator", {"constants": {"K_y": 0.1}}),
    ("generator", {"constants": {"C_f": 0.1}}),
])
def test_unknown_option_key_refused(tmp_path, capsys, section, entry):
    value = [entry] if section in ("solvers", "diagnostics") else entry
    bad = dict(MINIMAL, **{section: value})
    with pytest.raises(SchemaViolation, match="unknown option"):
        validate_config(bad)
    assert cli_main(["validate", "--config", str(_write(tmp_path, bad))]) == 2
    err = capsys.readouterr().err
    assert "unknown option" in err and "accepted: " in err


_BAD_VALUES = {
    "trunc_level": ({"solvers": [{"id": "lsmc",
                                  "options": {"trunc_level": 1.5}}]},
                    "solvers[1].options.trunc_level"),
    "basis_degree": ({"solvers": [{"id": "lsmc",
                                   "options": {"basis_degree": "two"}}]},
                     "solvers[1].options.basis_degree"),
    "basis": ({"solvers": [{"id": "lsmc",
                            "options": {"basis": "polynomial"}}]},
              "solvers[1].options.basis"),
    "picard_budget": ({"solvers": [{"id": "lsmc",
                                    "options": {"picard_budget": True}}]},
                      "solvers[1].options.picard_budget"),
    "p_grid": ({"diagnostics": [{"id": "class_membership",
                                 "options": {"p_grid": [1.0]}}]},
               "diagnostics[0].options.p_grid"),
    "unknown_solver": ({"diagnostics": [{"id": "uniqueness",
                                         "options": {"a": "lsmc", "b": "x"}}]},
                       "diagnostics[0].options.b"),
    # section values: each used to validate and then fail, or raise a
    # traceback, at run time
    "T_infinite": ({"grid": {"T": float("inf")}}, "grid.T"),
    "T_beyond_float": ({"grid": {"T": 10 ** 400}}, "grid.T"),
    "seed_negative": ({"sampling": {"seed": -1}}, "sampling.seed"),
    "seed_beyond_philox_key": ({"sampling": {"seed": 1 << 128}},
                               "sampling.seed"),
    "x0_string": ({"model": {"x0": "a"}}, "model.x0"),
    "T_true": ({"grid": {"T": True}}, "grid.T"),
    "steps_true": ({"grid": {"steps": True}}, "grid.steps"),
    "paths_true": ({"sampling": {"paths": True}}, "sampling.paths"),
    "seed_true": ({"sampling": {"seed": True}}, "sampling.seed"),
    "constant_true": ({"generator": {"constants": {"K_z": True}}},
                      "generator.constants.K_z"),
    "bernoulli_2d": ({"sampling": {"kind": "bernoulli"},
                      "model": {"x0": [0.0, 0.0]}}, "model.x0"),
    # registry parameter values follow the factory's defaults
    "param_string": ({"model": {"drift": {"name": "ou",
                                          "params": {"kappa": "a"}}}},
                     "drift 'ou' params.kappa"),
    "param_not_integer": ({"generator": {"xi": {"name": "tanh_terminal",
                                                "params": {"component": 0.5}}}},
                          "xi 'tanh_terminal' params.component"),
    # a state index outside [0, d) used to fail the solver with an
    # IndexError (3 on a 1-d model) or read the last component (-1)
    "component_past_dim": ({"generator": {"xi": {"name": "tanh_terminal",
                                                 "params": {"component": 3}}}},
                           "generator.xi.params.component"),
    "component_negative": ({"generator": {"h": {"name": "terminal_value",
                                                "params": {"component": -1}}}},
                           "generator.h.params.component"),
    # a negative tolerance ran every node to the Picard budget, and a
    # negative scheme_tol failed the probe whatever the solutions
    "tol_negative": ({"solvers": [{"id": "lsmc", "options": {"tol": -1}}]},
                     "solvers[1].options.tol"),
    "scheme_tol_negative": ({"diagnostics": [{"id": "uniqueness",
                                              "options": {"scheme_tol": -1}}]},
                            "diagnostics[0].options.scheme_tol"),
    # f2's sigma under mode F1 is called with t, and the run died with an
    # uncaught IndexError in the first Euler step
    "sigma_of_state_under_F1": ({"model": {"mode": "F1", "sigma": {
        "name": "tanh_bounded", "params": {"base": 1.0, "amplitude": 0.5}}}},
        "model.sigma"),
    "drift_not_finite": ({"model": {"x0": [1e10], "drift": {
        "name": "linear", "params": {"coef": 1e300}}}}, "model.drift"),
    # class_membership refused K_z = 0 at run time (exit 1, partial)
    "K_z_zero_with_class_membership": (
        {"generator": {"constants": {"K_z": 0}},
         "diagnostics": [{"id": "class_membership"}]},
        "generator.constants.K_z"),
    # the run refused the tree past MAX_TREE_DEPTH (exit 2 from run)
    "bernoulli_too_deep": ({"sampling": {"kind": "bernoulli"},
                            "grid": {"T": 1.0, "steps": 25}}, "grid.steps"),
    # eps <= -1 gave q <= 0, and class_membership passed untested
    "eps_at_minus_one": ({"diagnostics": [{
        "id": "class_membership", "options": {"eps_grid": [0.5, -1]}}]},
        "diagnostics[0].options.eps_grid"),
    # options that the other options leave unread: the tree basis has no
    # degree or sup feature, and a set budget replaces the scheme_tol one
    "basis_degree_with_tree": ({"solvers": [{
        "id": "lsmc", "options": {"basis": "tree", "basis_degree": 2}}]},
        "solvers[1].options.basis_degree"),
    "basis_include_sup_with_tree": ({"solvers": [{
        "id": "linear", "options": {"basis": "tree",
                                    "basis_include_sup": False}}]},
        "solvers[1].options.basis_include_sup"),
    "scheme_tol_with_budget": ({"diagnostics": [{
        "id": "uniqueness", "options": {"budget": 0.1, "scheme_tol": 0.0}}]},
        "diagnostics[0].options.scheme_tol"),
    # two reports under one name were keyed z_growth and z_growth#2, and
    # their two stages shared one timing
    "diagnostic_names_repeated": ({"diagnostics": [{"id": "z_growth"},
                                                   {"id": "z_growth"}]},
                                  "diagnostics"),
    "diagnostic_names_given_twice": ({"diagnostics": [
        {"id": "z_growth", "name": "x"}, {"id": "bmo_pstar", "name": "x"}]},
        "diagnostics"),
    # a uniqueness probe without a or b compared the first solution with
    # itself, and passed
    "uniqueness_without_a_or_b": ({"diagnostics": [{"id": "uniqueness"}]},
                                  "diagnostics[0].options"),
    "uniqueness_without_a": ({"solvers": [{"id": "lsmc", "name": "q"}],
                              "diagnostics": [{"id": "uniqueness",
                                               "options": {"b": "q"}}]},
                             "diagnostics[0].options"),
    "uniqueness_without_b": ({"diagnostics": [{"id": "uniqueness",
                                               "options": {"a": "lsmc"}}]},
                             "diagnostics[0].options"),
    "uniqueness_of_one_solver": ({"solvers": [{"id": "lsmc", "name": "q"}],
                                  "diagnostics": [{"id": "uniqueness",
                                                   "options": {"a": "q",
                                                               "b": "q"}}]},
                                 "diagnostics[0].options"),
}


@pytest.mark.parametrize("case", list(_BAD_VALUES), ids=list(_BAD_VALUES))
def test_bad_option_value_refused(tmp_path, capsys, case):
    # each refusal used to validate and then fail the stage at run time
    patch, field = _BAD_VALUES[case]
    bad = dict(MINIMAL, solvers=[{"id": "lsmc"}], diagnostics=[])
    for section, value in patch.items():
        bad[section] = (bad[section] + value if isinstance(value, list)
                        else {**bad.get(section, {}), **value})
    with pytest.raises(SchemaViolation, match=re.escape(field + ":")):
        validate_config(bad)
    assert cli_main(["validate", "--config", str(_write(tmp_path, bad))]) == 2
    assert capsys.readouterr().err.startswith(f"error: {field}: ")


def test_grid_section_required():
    with pytest.raises(SchemaViolation, match="grid"):
        validate_config({"sampling": {"paths": 10, "seed": 1}})


def test_parse_error_reports_position(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text('{"grid": {"T": 1.0,\n  "steps": }}')
    with pytest.raises(InvalidArgument, match="line 2"):
        load_config(p)


# --------------------------------------------------------------- pipeline

def test_zero_pipeline(tmp_path):
    cfg = validate_config(dict(
        MINIMAL,
        solvers=[{"id": "lsmc", "options": {"trunc_level": None}}],
        diagnostics=[{"id": "z_growth"}]))
    record = run_experiment(cfg, tmp_path / "out")
    assert record.status == "complete"
    assert record.all_pass
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["config_hash"] == cfg.config_hash
    assert "timings" not in summary  # summary must be deterministic


def test_gradz_along_solution_computed_once(tmp_path, monkeypatch):
    # stochastic_exponential and bmo_pstar on one solver share one theta:
    # grad_z once per node, not once per node and diagnostic
    from qbsde import harness
    real, calls = harness.grad_z, []

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(harness, "grad_z", counted)
    cfg = validate_config(dict(
        MINIMAL, solvers=[{"id": "lsmc"}],
        generator={"g": {"name": "half_square"}},
        diagnostics=[{"id": "stochastic_exponential"}, {"id": "bmo_pstar"},
                     {"id": "exp_moment"}]))
    record = run_experiment(cfg, tmp_path / "out")
    assert record.status == "complete"
    assert len(calls) == MINIMAL["grid"]["steps"]
    moment = record.reports["exp_moment"]
    assert set(moment) == {"q", "estimate", "se", "log_estimate", "pass"}
    assert moment["q"] == 1.0


@pytest.mark.parametrize("g, d", [("half_square", 1),
                                  ("canonical_nonconvex", 1),
                                  ("canonical_nonconvex", 2)])
def test_gradz_along_is_bitwise_per_node_grad_z(g, d):
    # theta is filled node by node: each node's row equals grad_z on the
    # solution's own Z row
    from qbsde import harness
    from qbsde.generators import grad_z, prefix_at
    cfg = validate_config(dict(
        MINIMAL, grid={"T": 1.0, "steps": 6},
        sampling={"paths": 300, "seed": 4},
        model={"x0": [0.1] * d},
        solvers=[{"id": "lsmc"}], generator={"g": {"name": g}}))
    spec = harness.build_generator(cfg)
    model = harness.build_model(cfg)
    grid = harness.make_grid(1.0, 6)
    paths = harness.simulate_forward(
        model, harness.sample_brownian(grid, d, 300, 4))
    sol = harness.solve_lsmc(spec, paths, harness.polynomial_basis(2, d))
    theta = harness._gradz_along(spec, sol)
    assert theta.shape == (6, 300, d) and theta.flags.c_contiguous
    for i in range(6):
        want = grad_z(spec, prefix_at(paths, i), sol.Z[i])
        assert theta[i].tobytes() == want.tobytes()


@pytest.mark.parametrize("name", ["f1-test-problem.json",
                                  "f2-test-problem.json"])
def test_solvers_share_one_projector_per_node(tmp_path, monkeypatch, name):
    # lsmc and the split read one basis: each node's design is built once
    # per run, not once per solver (two readers here)
    from qbsde.solvers import RegressionBasis
    real, builds = RegressionBasis.design, []

    def counted(self, paths, node):
        builds.append(node)
        return real(self, paths, node)

    monkeypatch.setattr(RegressionBasis, "design", counted)
    raw = json.loads((CONFIG_DIR / name).read_text())
    raw["grid"]["steps"] = 6
    raw["sampling"]["paths"] = 400
    raw["diagnostics"] = []
    record = run_experiment(validate_config(raw), tmp_path / "out")
    assert record.status == "complete"
    assert sorted(builds) == list(range(6))


def test_shipped_run_computes_no_tangent(tmp_path, monkeypatch):
    # nothing a run writes or reports reads the tangent, so a run never
    # simulates one
    from qbsde import harness

    def refuse(paths):
        raise AssertionError("simulate_tangent called")

    monkeypatch.setattr(harness, "simulate_tangent", refuse)
    raw = json.loads((CONFIG_DIR / "f1-test-problem.json").read_text())
    raw["grid"]["steps"] = 6
    raw["sampling"]["paths"] = 400
    record = run_experiment(validate_config(raw), tmp_path / "out")
    assert record.status == "complete"


@pytest.mark.parametrize("name", ["lsmc", "f1-test-problem.json",
                                  "f2-test-problem.json"])
def test_rerun_is_byte_identical(tmp_path, name):
    # the shipped configs, shrunk, cover both splits and their diagnostics
    if name == "lsmc":
        raw = dict(
            MINIMAL,
            model={"drift": {"name": "ou", "params": {"kappa": 0.5}},
                   "sigma": {"name": "constant"}, "mode": "F1", "x0": [0.0]},
            generator={"g": {"name": "half_square"},
                       "h": {"name": "terminal_abs", "params": {"scale": 0.2}},
                       "constants": {"K_z": 1.0, "r": 0.0}},
            solvers=[{"id": "lsmc"}])
    else:
        raw = json.loads((CONFIG_DIR / name).read_text())
        raw["grid"]["steps"] = 6
        raw["sampling"]["paths"] = 400
    cfg = validate_config(raw)
    for out in ("a", "b"):
        assert run_experiment(cfg, tmp_path / out).status == "complete"
    files = sorted(p.name for p in (tmp_path / "a").iterdir()
                   if p.name != "record.json")
    assert files == sorted(p.name for p in (tmp_path / "b").iterdir()
                           if p.name != "record.json")
    assert "summary.json" in files and "paths.bin" in files
    assert len([f for f in files if f.startswith("solution_")]) == \
        4 * len(cfg["solvers"])
    for f in files:
        assert (tmp_path / "a" / f).read_bytes() == \
            (tmp_path / "b" / f).read_bytes(), f
    # and the reports are those committed: a refactor that moves a number
    # past round-off, or any status or verdict, fails here
    pinned = DATA_DIR / f"summary_{name.removesuffix('.json')}.json"
    _assert_same_report(json.loads((tmp_path / "a" / "summary.json")
                                   .read_text()),
                        json.loads(pinned.read_text()))


def _assert_same_report(got, want, where="summary"):
    """Equal structure and equal non-numbers (status, verdicts, hashes);
    numbers within 1e-9 (1 + |x|), non-finite ones exactly."""
    assert type(got) is type(want), where
    if isinstance(want, dict):
        assert sorted(got) == sorted(want), where
        for k in want:
            _assert_same_report(got[k], want[k], f"{where}.{k}")
    elif isinstance(want, list):
        assert len(got) == len(want), where
        for k, (g, w) in enumerate(zip(got, want)):
            _assert_same_report(g, w, f"{where}[{k}]")
    elif isinstance(want, float) and np.isfinite(want):
        assert abs(got - want) <= 1e-9 * (1 + abs(want)), (where, got, want)
    else:
        assert got == want, (where, got, want)


def test_overflowing_moment_ladder_completes_the_run(tmp_path):
    # K_z = 40 puts q Y* past 709.78 on part of the ladder: those entries
    # read inf and "unstable", and the run completes
    raw = json.loads((CONFIG_DIR / "f1-test-problem.json").read_text())
    raw["grid"]["steps"] = 6
    raw["sampling"]["paths"] = 400
    raw["generator"]["constants"]["K_z"] = 40
    record = run_experiment(validate_config(raw), tmp_path / "out")
    assert record.status == "complete"
    entries = record.reports["class_membership"]["entries"]
    overflowed = [e for e in entries if e["estimate"] == float("inf")]
    assert overflowed and all(e["verdict"] == "unstable" for e in overflowed)
    assert all(e["verdict"] == "finite-looking" for e in entries
               if e not in overflowed)


def test_martingale_check_fails_an_overflowing_mean():
    # inf <= 3 * inf + 1e-12 holds, so the check must ask for a finite mean
    from qbsde import (BsdeSolution, ModelSpec, make_grid, sample_brownian,
                       simulate_forward)
    from qbsde.harness import _run_diagnostic
    noise = sample_brownian(make_grid(1.0, 2000), 1, 2, seed=5)
    model = ModelSpec(x0=np.zeros(1), drift=lambda x: np.zeros_like(x),
                      sigma=lambda t: 1.0, mode="F1")
    paths = simulate_forward(model, noise)
    sol = BsdeSolution(paths, np.zeros((2001, 2)), np.zeros((2001, 2, 1)),
                       "synthetic")
    # theta = dW/dt: log E_T is about 1000 on each path
    thetas = {"s": noise.increments / noise.grid.steps[:, None, None]}
    with np.errstate(over="ignore"):
        out = _run_diagnostic({"id": "stochastic_exponential",
                               "options": {"solver": "s"}},
                              {"s": sol}, None, {}, thetas)
    assert out["mean"] == float("inf") and not out["pass"]


@pytest.mark.parametrize("parts", ["neither", "xi", "h", "both"])
def test_terminal_of_x_matches_the_zero_filled_sum(parts):
    from qbsde import GeneratorSpec, PathPrefix
    from qbsde.harness import _terminal_of_x
    xi = lambda p: np.tanh(p.terminal[:, 0])
    h = lambda p: 0.3 * p.terminal[:, 0] ** 2 + p.times[-1] + p.sup
    spec = GeneratorSpec(xi=xi if parts in ("xi", "both") else None,
                         h=h if parts in ("h", "both") else None)
    x = np.random.default_rng(17).standard_normal((50, 96))
    # the one-node path (T, x), whose running sup is |x|
    prefix = PathPrefix(np.array([0.7]), x.reshape(1, -1, 1),
                        np.abs(x.reshape(-1)))
    expect = np.zeros(x.size)
    for fn in (spec.xi, spec.h):
        if fn is not None:
            expect = expect + fn(prefix)
    got = _terminal_of_x(spec, 0.7)(x.reshape(-1))
    assert got.dtype == expect.dtype and got.shape == expect.shape
    assert got.tobytes() == expect.tobytes()


def test_cole_hopf_refused_for_other_equations():
    oracle = [{"id": "lsmc"}, {"id": "cole_hopf", "name": "oracle"}]
    quadratic = {"g": {"name": "half_square"},
                 "h": {"name": "terminal_value"}}
    validate_config(dict(MINIMAL, solvers=oracle, generator=quadratic))
    bad = [
        # f != 0 used to run to stage "ok" with the wrong equation's answer
        {"f": {"name": "linear_y", "params": {"a": 1e9}},
         "xi": {"name": "constant", "params": {"c": 1e3}}},
        {"g": {"name": "canonical_nonconvex"}, "h": {"name": "terminal_value"}},
        dict(quadratic, h={"name": "sup_norm"}),
        dict(quadratic, h={"name": "sup_power"}),
    ]
    for generator in bad:
        with pytest.raises(SchemaViolation, match="cole_hopf"):
            validate_config(dict(MINIMAL, solvers=oracle, generator=generator))


def _first_solver_fails(**extra) -> dict:
    """Picard on f = 30 y diverges at dt = 1/4, so the first solver, "bad",
    fails; the linear closed form, "good", solves the same equation, and
    still runs after the failed branch."""
    return dict(
        MINIMAL,
        solvers=[{"id": "lsmc", "name": "bad"},
                 {"id": "linear", "name": "good", "options": {"a": 30.0}}],
        generator={"f": {"name": "linear_y", "params": {"a": 30.0}},
                   "xi": {"name": "constant", "params": {"c": 1e3}}},
        **extra)


def test_failing_solver_recorded_pipeline_continues(tmp_path):
    cfg = validate_config(_first_solver_fails())
    record = run_experiment(cfg, tmp_path / "out")
    stages = {s["stage"]: s["status"] for s in record.stages}
    assert stages["solver:bad"] == "error"
    assert stages["solver:good"] == "ok"
    # at least one branch failed and the run is marked partial, not raised
    assert record.status == "partial"
    assert any(s["status"] == "error" for s in record.stages)


def test_failed_simulation_recorded_nothing_solved(tmp_path, capsys):
    # x' = 1e300 x passes the check at x0 and overflows at step 2: the run
    # used to exit 2, as for a bad config, and write nothing
    data = dict(MINIMAL,
                model={"x0": [1.0],
                       "drift": {"name": "linear", "params": {"coef": 1e300}}},
                solvers=[{"id": "lsmc"}], diagnostics=[{"id": "z_growth"}])
    out = tmp_path / "out"
    assert cli_main(["run", "--config", str(_write(tmp_path, data)),
                     "--out", str(out)]) == 1
    assert "status: partial" in capsys.readouterr().out
    assert sorted(p.name for p in out.iterdir()) == ["record.json",
                                                     "summary.json"]
    summary = json.loads((out / "summary.json").read_text())
    assert summary["status"] == "partial" and summary["reports"] == {}
    (stage,) = summary["stages"]
    assert stage["stage"] == "simulate" and stage["status"] == "error"
    assert stage["error"].startswith("SimulationDiverged: non-finite state")
    assert json.loads((out / "record.json").read_text())["stages"] == [stage]


def test_diagnostic_without_a_solution_names_the_cause(tmp_path, capsys):
    # no solver and no "solver" option: there is nothing to diagnose, and
    # validation says so instead of a run failing the stage
    bad = dict(MINIMAL, diagnostics=[{"id": "z_growth"}])
    with pytest.raises(SchemaViolation, match="^diagnostics: need a solver"):
        validate_config(bad)
    assert cli_main(["validate", "--config", str(_write(tmp_path, bad))]) == 2
    assert capsys.readouterr().err.startswith("error: diagnostics: ")


def test_diagnostic_reads_the_first_solver_even_when_it_failed(tmp_path):
    # the default solver is written into the config at validation; the run
    # used to read whichever solver had succeeded first ("good" here)
    cfg = validate_config(_first_solver_fails(
        diagnostics=[{"id": "z_growth"}]))
    assert cfg["diagnostics"][0]["options"] == {"solver": "bad"}
    record = run_experiment(cfg, tmp_path / "out")
    assert record.stages[-1] == {
        "stage": "diagnostic:z_growth", "status": "error",
        "error": "InvalidArgument: solver 'bad' produced no solution"}
    assert record.reports == {} and record.status == "partial"


def test_every_stage_has_one_timing(tmp_path):
    # failed stages are timed too, and names are unique, so stages, timings
    # and reports are one-to-one by name
    cfg = validate_config(_first_solver_fails(diagnostics=[
        {"id": "z_growth", "name": "on_bad"},
        {"id": "z_growth", "name": "on_good", "options": {"solver": "good"}},
        {"id": "bmo_pstar", "options": {"solver": "good"}}]))
    run_experiment(cfg, tmp_path / "out")
    record = json.loads((tmp_path / "out" / "record.json").read_text())
    names = [s["stage"] for s in record["stages"]]
    assert names == ["simulate", "solver:bad", "solver:good",
                     "diagnostic:on_bad", "diagnostic:on_good",
                     "diagnostic:bmo_pstar"]
    assert sorted(record["timings"]) == sorted(names)
    assert all(t >= 0 for t in record["timings"].values())
    assert sorted(record["reports"]) == ["bmo_pstar", "on_good"]


def test_tree_budget_is_checked_without_forming_the_tree():
    # 22 steps need 2.2 GiB of grid arrays; 10**9 steps would need 2**10**9
    # paths, and the estimate must not form that number
    for steps in (22, 10 ** 9):
        raw = dict(MINIMAL, sampling={"kind": "bernoulli", "seed": 1},
                   grid={"T": 1.0, "steps": steps})
        tracemalloc.start()
        try:
            with pytest.raises(SchemaViolation, match="^grid.steps: "):
                validate_config(raw)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


def test_emit_report_writes_csv_curves(tmp_path):
    # summary.json is the run's report; emit_report adds only the curves
    cfg = validate_config(dict(
        MINIMAL,
        solvers=[{"id": "lsmc"}],
        diagnostics=[{"id": "z_growth"}, {"id": "bmo_pstar"}]))
    record = run_experiment(cfg, tmp_path / "out")
    (csv_path,) = emit_report(record)
    assert csv_path == tmp_path / "out" / "report_z_growth.csv"
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "t,mean_ratio,q999_ratio,max_ratio"
    assert len(lines) == 1 + len(record.reports["z_growth"]["rows"])


def test_emit_report_incomplete(tmp_path):
    from qbsde import RunRecord
    empty = RunRecord(config_hash="x", out_dir=str(tmp_path))
    with pytest.raises(ReportIncomplete):
        emit_report(empty)


# -------------------------------------------------------------------- CLI

def test_cli_validate_ok(tmp_path):
    p = _write(tmp_path, MINIMAL)
    assert cli_main(["validate", "--config", str(p)]) == 0


def test_cli_validate_bad_config(tmp_path, capsys):
    p = _write(tmp_path, {"grid": {"T": 1.0, "steps": 4},
                          "sampling": {"paths": 10}})
    assert cli_main(["validate", "--config", str(p)]) == 2
    assert "seed is required" in capsys.readouterr().err


def test_cli_run_and_report(tmp_path):
    data = dict(MINIMAL,
                solvers=[{"id": "lsmc"}],
                diagnostics=[{"id": "z_growth"}])
    p = _write(tmp_path, data)
    out = tmp_path / "out"
    assert cli_main(["run", "--config", str(p), "--out", str(out)]) == 0
    # summary.json already is the run's report: run writes no other
    assert not list(out.glob("report*"))
    assert cli_main(["report", "--out", str(out)]) == 0
    assert [f.name for f in out.glob("report*")] == ["report_z_growth.csv"]


def test_cli_run_prints_info_for_a_report_without_a_verdict(
        tmp_path, capsys, monkeypatch):
    from qbsde import RunRecord, cli
    record = RunRecord(config_hash="x", out_dir=str(tmp_path), status="complete",
                       reports={"a": {"v": 1.0}, "b": {"pass": True},
                                "c": {"pass": False}})
    monkeypatch.setattr(cli, "run_experiment", lambda cfg, out: record)
    p = _write(tmp_path, MINIMAL)
    assert cli_main(["run", "--config", str(p), "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().out.splitlines()[:3] == ["a: info", "b: pass",
                                                         "c: FAIL"]


def test_cli_report_refuses_a_directory_without_record(tmp_path, capsys):
    assert cli_main(["report", "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "record.json not found" in err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("text, why", [
    ("{}", "lacks the key 'config_hash'"),
    ("[]", "does not hold a JSON object"),
    ("not json", "is not JSON"),
    ('{"config_hash": "abc", "status": "complete", "colour": 1}',
     "unknown key 'colour'"),
], ids=["empty_object", "list", "not_json", "unknown_key"])
def test_cli_report_refuses_a_bad_record(tmp_path, capsys, text, why):
    (tmp_path / "record.json").write_text(text)
    assert cli_main(["report", "--out", str(tmp_path)]) == 2
    printed = capsys.readouterr()
    assert printed.err.startswith("error: ") and why in printed.err
    assert "Traceback" not in printed.err and printed.out == ""
    assert [f.name for f in tmp_path.iterdir()] == ["record.json"]


def _cli_error(capsys, argv: list) -> str:
    """Run the CLI, which must answer exit 2 with one error line."""
    assert cli_main(argv) == 2
    printed = capsys.readouterr()
    assert printed.err.startswith("error: ") and printed.out == ""
    assert "Traceback" not in printed.err
    return printed.err


@pytest.mark.parametrize("verb", ["validate", "run"])
def test_cli_refuses_a_config_that_is_a_directory(tmp_path, capsys, verb):
    out = ["--out", str(tmp_path / "out")] if verb == "run" else []
    err = _cli_error(capsys, [verb, "--config", str(tmp_path), *out])
    assert "cannot read config file" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("verb", ["validate", "run"])
def test_cli_refuses_a_config_that_is_not_utf8(tmp_path, capsys, verb):
    p = tmp_path / "cfg.json"
    p.write_bytes(b'{"grid": "\xff\xfe"}')
    out = ["--out", str(tmp_path / "out")] if verb == "run" else []
    err = _cli_error(capsys, [verb, "--config", str(p), *out])
    assert "not UTF-8" in err
    assert not (tmp_path / "out").exists()


def test_cli_run_refuses_an_out_path_that_is_a_file(tmp_path, capsys):
    p = _write(tmp_path, dict(MINIMAL, solvers=[{"id": "lsmc"}]))
    out = tmp_path / "out"
    out.write_text("keep")
    err = _cli_error(capsys, ["run", "--config", str(p), "--out", str(out)])
    assert "as the output directory" in err
    assert out.read_text() == "keep"


def test_cli_report_refuses_a_record_that_is_not_utf8(tmp_path, capsys):
    (tmp_path / "record.json").write_bytes(b"\xff\xfe{}")
    assert "is not JSON" in _cli_error(capsys, ["report", "--out", str(tmp_path)])


def test_cli_report_on_a_run_without_curves(tmp_path, capsys):
    # tree-oracle.json has no z_growth diagnostic: the run is complete and
    # there is nothing to write, which is not a failed stage
    data = json.loads((CONFIG_DIR / "tree-oracle.json").read_text())
    data["grid"]["steps"] = 4
    data["sampling"]["paths"] = 16
    out = tmp_path / "out"
    assert cli_main(["run", "--config", str(_write(tmp_path, data)),
                     "--out", str(out)]) == 0
    before = sorted(out.iterdir())
    capsys.readouterr()
    assert cli_main(["report", "--out", str(out)]) == 0
    printed = capsys.readouterr()
    assert printed.out == ("the run has no per-node curve reports; "
                           "nothing written\n")
    assert printed.err == ""
    assert sorted(out.iterdir()) == before


def test_cli_seed_override_changes_noise(tmp_path):
    data = dict(MINIMAL, solvers=[{"id": "lsmc"}])
    p = _write(tmp_path, data)
    cli_main(["run", "--config", str(p), "--out", str(tmp_path / "a")])
    cli_main(["run", "--config", str(p), "--out", str(tmp_path / "b"),
              "--seed-override", "99"])
    a = (tmp_path / "a" / "noise.bin").read_bytes()
    b = (tmp_path / "b" / "noise.bin").read_bytes()
    assert a != b
    ha = json.loads((tmp_path / "a" / "summary.json").read_text())["config_hash"]
    hb = json.loads((tmp_path / "b" / "summary.json").read_text())["config_hash"]
    assert ha != hb


def test_cli_list_registry(capsys):
    assert cli_main(["list-registry"]) == 0
    out = capsys.readouterr().out
    assert "drift:" in out and "ou" in out


def test_cli_threads_option_refused(tmp_path, capsys):
    p = _write(tmp_path, dict(MINIMAL, solvers=[{"id": "lsmc"}]))
    with pytest.raises(SystemExit) as e:
        cli_main(["run", "--config", str(p), "--out", str(tmp_path / "out"),
                  "--threads", "2"])
    assert e.value.code == 2
    assert "--threads" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("verb", ["run", "report"])
def test_cli_format_option_refused(tmp_path, capsys, verb):
    # the json report was a copy of summary.json, and csv is all that is left
    p = _write(tmp_path, dict(MINIMAL, solvers=[{"id": "lsmc"}]))
    args = {"run": ["--config", str(p)], "report": []}[verb]
    with pytest.raises(SystemExit) as e:
        cli_main([verb, *args, "--out", str(tmp_path / "out"),
                  "--format", "csv"])
    assert e.value.code == 2
    assert "--format" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_import_does_not_load_scipy():
    import qbsde
    src = str(Path(qbsde.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, qbsde; print('scipy' in sys.modules)"],
        capture_output=True, text=True, env=env, timeout=60, check=True)
    assert out.stdout.strip() == "False"


TRACE_SCRIPT = """
import json
import numpy as np
import layertrace
from qbsde import GeneratorSpec, solvers
tracer = layertrace.Tracer()
layertrace.install(tracer)
paths = solvers.make_tree_bundle(3, 1.0)
spec = GeneratorSpec(f=lambda prefix, y: 0.4 * np.asarray(y),
                     xi=lambda p: p.terminal[:, 0])
solvers.solve_lsmc(spec, paths, solvers.TreeIndicatorBasis(3))
print(json.dumps(sorted(tracer.summary()["spans"])))
"""


def _run_with_layertrace(script: str, *args: str):
    """Run `script` in a fresh interpreter that can import layertrace."""
    import qbsde
    src = Path(qbsde.__file__).resolve().parent.parent
    bench = Path(__file__).resolve().parent.parent / "benchmark"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src), str(bench)]
        + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    return subprocess.run([sys.executable, "-c", script, *args],
                          capture_output=True, text=True, env=env, timeout=120)


def test_benchmark_tracer_installs_and_traces_a_solve():
    # the benchmark's tracer wraps qbsde names from outside; a refactor that
    # drops one of them must fail here, not only in a traced benchmark run
    out = _run_with_layertrace(TRACE_SCRIPT)
    assert out.returncode == 0, out.stderr
    spans = json.loads(out.stdout)
    for name in ("engine.bernoulli_bundle", "engine.simulate_forward",
                 "generators.eval_driver", "solvers.solve_lsmc"):
        assert name in spans


TRACE_ORACLE_SCRIPT = """
import json, sys, tempfile
import layertrace
from qbsde import harness
tracer = layertrace.Tracer()
layertrace.install(tracer)
raw = json.loads(open(sys.argv[1]).read())
raw["sampling"]["paths"] = 2000
raw["grid"]["steps"] = 10
with tempfile.TemporaryDirectory() as out:
    record = harness.run_experiment(harness.validate_config(raw), out)
spans = tracer.spans
oracle = [k for k, s in enumerate(spans) if s[0] == "solvers.solve_cole_hopf"]
print(json.dumps({
    "status": record.status,
    "oracle_spans": len(oracle),
    "oracle_children": sum(s[3] in oracle for s in spans),
    "open": len(tracer.stack) + sum(s[2] is None for s in spans),
}))
"""


def test_benchmark_tracer_traces_the_oracle():
    # the oracle's span opens and closes once and holds no wrapped call
    out = _run_with_layertrace(TRACE_ORACLE_SCRIPT,
                               str(CONFIG_DIR / "cole-hopf-check.json"))
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout) == {"status": "complete", "oracle_spans": 1,
                                      "oracle_children": 0, "open": 0}


# A changed default or shipped config changes a hash here: update the table
# and record the old and new hash in CHANGES.md.
SHIPPED_CONFIG_HASHES = {
    "cole-hopf-check.json":
        "68b5efdecf4dcb1e96108d2603d453886d141e0641ab81dff94f5076a23d60cd",
    "f1-test-problem.json":
        "48fdfab82a5a7e5d8ebeb1be2918356eee55ce189d66b9ba76249c277620e65c",
    "f2-test-problem.json":
        "16b8c84df913d4a281c197aee418ee8f41d60c8293096e536d4f11bfae0a49f7",
    "tree-oracle.json":
        "091fb21047225be74f7619535769a078a1582b2d3e6f167448c54c01c9e99030",
}


def test_shipped_configs_validate():
    found = {p.name: load_config(p).config_hash
             for p in sorted(CONFIG_DIR.glob("*.json"))}
    assert found == SHIPPED_CONFIG_HASHES


def test_benchmark_config_copies_validate(tmp_path, monkeypatch):
    # the config copies that benchmark/run.py writes for its workloads
    import importlib.util
    spec = importlib.util.spec_from_file_location(
        "benchmark_run", CONFIG_DIR.parent / "benchmark" / "run.py")
    run = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, run)  # for its dataclasses
    spec.loader.exec_module(run)
    copies = [run._write_config(cfg, tmp_path)[0]
              for workload in run.WORKLOADS.values()
              for cfg in workload.configs]
    assert {p.name for p in copies} == set(SHIPPED_CONFIG_HASHES)
    for path in copies:
        load_config(path)


@pytest.mark.parametrize("key, value, field", [
    ("grid.steps", 22, "grid.steps"),  # a 2^22-path tree: about 5.4 GB
    ("grid.steps", 21, "grid.steps"),
    ("sampling.paths", 10 ** 7, "sampling.paths")],
    ids=["tree22", "tree21", "paths1e7"])
def test_a_run_too_large_for_memory_is_refused_before_allocation(key, value,
                                                                 field):
    # 8 P (n+1) (2d + 1 + solvers (1 + d)) bytes over the grid, refused at
    # validation, which allocates no array of that size
    name = "tree-oracle.json" if key == "grid.steps" else "cole-hopf-check.json"
    raw = json.loads((CONFIG_DIR / name).read_text())
    section, option = key.split(".")
    raw[section][option] = value
    tracemalloc.start()
    try:
        with pytest.raises(SchemaViolation, match="GiB") as e:
            validate_config(raw)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert e.value.field == field
    assert peak < 1 << 20


def test_saved_tensors_are_path_major_as_the_benchmark_reads_them(tmp_path):
    # each .bin, reshaped by its header as benchmark/run.py:_load_tensor
    # reads it, is the in-memory node-major array with its first two axes
    # swapped, so [:, 0] is node 0; load_solution reads back the arrays,
    # node-major and C-contiguous
    from qbsde import harness
    from qbsde.serialization import load_solution
    raw = json.loads((CONFIG_DIR / "cole-hopf-check.json").read_text())
    raw["grid"]["steps"] = 6
    raw["sampling"]["paths"] = 500
    cfg = validate_config(raw)
    assert run_experiment(cfg, tmp_path).status == "complete"
    grid = harness.make_grid(cfg["grid"]["T"], cfg["grid"]["steps"])
    noise = harness.sample_brownian(grid, 1, 500, cfg["sampling"]["seed"])
    paths = harness.simulate_forward(harness.build_model(cfg), noise)
    spec = harness.build_generator(cfg)
    fits = harness._node_fits(cfg["solvers"], paths)
    in_memory = {"paths": paths.states, "noise": noise.increments}
    for sv in cfg["solvers"]:
        sol = harness._run_solver(sv, spec, paths, fits)
        in_memory[f"solution_{sv['name']}_Y"] = sol.Y
        in_memory[f"solution_{sv['name']}_Z"] = sol.Z
        back = load_solution(tmp_path / f"solution_{sv['name']}", paths)
        for a, b in ((back.Y, sol.Y), (back.Z, sol.Z),
                     (back.se_nodes, sol.se_nodes)):
            assert a.tobytes() == b.tobytes() and a.flags.c_contiguous
    assert sorted(p.stem for p in tmp_path.glob("*.bin")) == sorted(in_memory)
    for base, arr in in_memory.items():
        header = json.loads((tmp_path / f"{base}.json").read_text())
        on_file = np.fromfile(tmp_path / f"{base}.bin", dtype="<f8").reshape(
            header["shape"])
        assert header["layout"] == "path-major"
        assert on_file.tobytes() == np.swapaxes(arr, 0, 1).tobytes()
        assert on_file[:, 0].tobytes() == arr[0].tobytes()
