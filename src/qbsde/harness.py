"""Experiment configuration, pipeline orchestration and report emission."""

from __future__ import annotations

import copy
import hashlib
import json
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .diagnostics import (
    bmo_estimate,
    class_membership,
    exp_moment,
    pstar_from_bmo,
    stochastic_exponential,
    uniqueness_probe,
    z_growth_report,
)
from .engine import (
    MAX_GRID_GIB,
    ModelSpec,
    PathBundle,
    _sigma_at,
    bernoulli_bundle,
    make_grid,
    sample_brownian,
    simulate_forward,
    simulate_tangent,  # unused here; benchmark/layertrace.py wraps it
)
from .errors import InvalidArgument, ReportIncomplete, SchemaViolation
from .generators import (
    GeneratorSpec,
    PathPrefix,
    TruncationSpec,
    grad_z,
    prefix_at,
)
from .registry import is_terminal_only, resolve
from .serialization import (
    _atomic_write,
    canonical_json,
    save_brownian,
    save_bundle,
    save_solution,
)
from .solvers import (
    NodeFits,
    TreeIndicatorBasis,
    polynomial_basis,
    solve_cole_hopf,
    solve_decomposed_additive,
    solve_decomposed_malliavin,
    solve_linear,
    solve_lsmc,
    solve_tree_exact,
)

# the growth constants a run reads: K_z by class_membership, r by z_growth
_CONSTANT_DEFAULTS = {"K_z": 1.0, "r": 0.0}

_SECTION_DEFAULTS = {
    "model": {"mode": "F1", "x0": [0.0],
              "drift": {"name": "zero", "params": {}},
              "sigma": {"name": "constant", "params": {}}},
    "generator": {"f": {"name": "zero", "params": {}},
                  "g": {"name": "zero", "params": {}},
                  "h": {"name": "zero", "params": {}},
                  "xi": {"name": "zero", "params": {}},
                  "constants": _CONSTANT_DEFAULTS},
    "sampling": {"paths": 1000, "kind": "gaussian"},
    "solvers": [],
    "diagnostics": [],
}


def _finite(v) -> bool:
    """A JSON number within float range (so neither nan nor inf); true and
    false are not numbers here."""
    return (isinstance(v, (int, float)) and not isinstance(v, bool)
            and abs(v) <= sys.float_info.max)


def _int(v) -> bool:
    """A JSON integer; true and false are not integers here."""
    return isinstance(v, int) and not isinstance(v, bool)


# an option rule is (what the value must be, test of (value, solver names))
_FINITE = ("a finite number", lambda v, _: _finite(v))
_POSITIVE = ("a finite number > 0", lambda v, _: _finite(v) and v > 0)
_NONNEGATIVE = ("a finite number >= 0", lambda v, _: _finite(v) and v >= 0)
_COUNT = ("an integer >= 1", lambda v, _: _int(v) and v >= 1)
_BOOL = ("true or false", lambda v, _: isinstance(v, bool))
_SOLVER = ("the name of a solver in this config", lambda v, names: v in names)
_PICARD = {
    "trunc_level": ("a finite number >= 2, or null",
                    lambda v, _: v is None or (_finite(v) and v >= 2)),
    "picard_budget": _COUNT,
    "tol": _NONNEGATIVE,
}
_BASIS = {
    "basis": ("'poly' or 'tree'", lambda v, _: v in ("poly", "tree")),
    "basis_degree": _COUNT,
    "basis_include_sup": _BOOL,
}
# the options each solver and diagnostic reads, and what each value must be;
# any other key or value is refused
_SOLVER_OPTIONS = {
    "lsmc": {**_PICARD, **_BASIS},
    "tree": {"picard_budget": _COUNT, "tol": _NONNEGATIVE},
    "cole_hopf": {"quad_points": _COUNT},
    "linear": {"a": _FINITE, **_BASIS},
    "decomposed_additive": {**_PICARD, **_BASIS},
    "decomposed_malliavin": {**_PICARD, **_BASIS},
}
# a registry entry: a name and its factory's keyword params, which bind at
# validation (see registry.resolve)
_ENTRY = {"name": ("a registry name", lambda v, _: isinstance(v, str)),
          "params": ("an object, or null",
                     lambda v, _: v is None or isinstance(v, dict))}
_CONSTANTS = {"K_z": _NONNEGATIVE,
              "r": ("a number in [0, 1)",
                    lambda v, _: _finite(v) and 0 <= v < 1)}
# every key of a config and of its sections, and what each value must be; a
# dict is a nested object's rules
_CONFIG_RULES = {
    "grid": {"T": _POSITIVE, "steps": _COUNT},
    "model": {"mode": ("'F1' or 'F2'", lambda v, _: v in ("F1", "F2")),
              "x0": ("a finite number or a non-empty list of them",
                     lambda v, _: _finite(v) or (isinstance(v, list) and v
                                                 and all(map(_finite, v)))),
              "drift": _ENTRY, "sigma": _ENTRY},
    "generator": {"f": _ENTRY, "g": _ENTRY, "h": _ENTRY, "xi": _ENTRY,
                  "constants": _CONSTANTS},
    "sampling": {"paths": _COUNT,
                 "kind": ("'gaussian' or 'bernoulli'",
                          lambda v, _: v in ("gaussian", "bernoulli")),
                 "seed": ("an integer in [0, 2**128)",
                          lambda v, _: _int(v) and 0 <= v < 1 << 128)},
    "solvers": ("a list", lambda v, _: isinstance(v, list)),
    "diagnostics": ("a list", lambda v, _: isinstance(v, list)),
}
_DIAG_OPTIONS = {
    "z_growth": {"solver": _SOLVER},
    "exp_moment": {"solver": _SOLVER, "q": _POSITIVE},
    "stochastic_exponential": {"solver": _SOLVER},
    "bmo_pstar": {"solver": _SOLVER},
    "uniqueness": {"a": _SOLVER, "b": _SOLVER,
                   "budget": ("a finite number > 0, or null",
                              lambda v, _: v is None or (_finite(v) and v > 0)),
                   "scheme_tol": _NONNEGATIVE},
    "class_membership": {
        "solver": _SOLVER,
        "p_grid": ("a non-empty list of numbers > 1",
                   lambda v, _: isinstance(v, list) and len(v) > 0
                   and all(_finite(p) and p > 1 for p in v)),
        "eps_grid": ("a non-empty list of finite numbers > -1",
                     lambda v, _: isinstance(v, list) and len(v) > 0
                     and all(_finite(e) and e > -1 for e in v))},
}

# options that an entry's other options leave unread: (when, test of them)
_TREE_BASIS = ("with basis 'tree'", lambda o: o.get("basis") == "tree")
_UNREAD_WHEN = {"basis_degree": _TREE_BASIS, "basis_include_sup": _TREE_BASIS,
                "scheme_tol": ("with a budget",
                               lambda o: o.get("budget") is not None)}


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated config with each section's defaults materialized and each
    diagnostic's solvers named; other option defaults apply in
    _run_solver/_run_diagnostic."""

    data: dict

    @property
    def config_hash(self) -> str:
        return hashlib.sha256(canonical_json(self.data).encode()).hexdigest()

    def __getitem__(self, key):
        return self.data[key]


def _merge_defaults(base: dict, defaults: dict) -> dict:
    out = dict(defaults)
    for k, v in base.items():
        if isinstance(v, dict) and isinstance(out.get(k), dict):
            out[k] = _merge_defaults(v, out[k])
        else:
            out[k] = v
    return out


def _check_fields(where: str, obj, rules: dict, names=()):
    """`obj` must be an object whose every key has a rule in `rules` and
    whose every value passes it; `where` is its dotted path, "" at the root."""
    if not isinstance(obj, dict):
        raise SchemaViolation(where or "<root>", "must be an object")
    unknown = [key for key in obj if key not in rules]
    if unknown:
        raise SchemaViolation(where or "<root>",
                              f"unknown option '{unknown[0]}'; "
                              f"accepted: {', '.join(rules)}")
    for key, value in obj.items():
        rule, field = rules[key], f"{where}.{key}" if where else key
        if isinstance(rule, dict):
            _check_fields(field, value, rule, names)
        elif not rule[1](value, names):
            raise SchemaViolation(field, f"must be {rule[0]}, got {value!r}")


def _check_entries(entries: list, section: str, accepted: dict,
                   solver_names: list) -> list:
    """Each entry needs a known id and only that id's options, each valid,
    and a name no other entry has; returns the names."""
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict) or "id" not in entry:
            raise SchemaViolation(f"{section}[{i}]", "must be an object with an id")
        eid = entry["id"]
        if eid not in accepted:
            raise SchemaViolation(
                f"{section}[{i}].id", f"unknown {section[:-1]} '{eid}'; "
                f"available: {', '.join(sorted(accepted))}")
        entry.setdefault("name", eid)
        options = entry.setdefault("options", {})
        _check_fields(f"{section}[{i}].options", options, accepted[eid],
                      solver_names)
        for key in options:
            if key in _UNREAD_WHEN and _UNREAD_WHEN[key][1](options):
                raise SchemaViolation(f"{section}[{i}].options.{key}",
                                      f"is not read {_UNREAD_WHEN[key][0]}")
    names = [entry["name"] for entry in entries]
    if len(names) != len(set(names)):
        raise SchemaViolation(section, f"{section[:-1]} names must be unique")
    return names


def validate_config(raw: dict) -> ExperimentConfig:
    """Schema-check a copy of a raw config dict and fill defaults explicitly;
    the result shares no object with `raw` or the defaults."""
    if not isinstance(raw, dict):
        raise SchemaViolation("<root>", "config must be a JSON object")
    if "grid" not in raw:
        raise SchemaViolation("grid", "section is required")
    grid = raw["grid"]
    if not isinstance(grid, dict) or "T" not in grid or "steps" not in grid:
        raise SchemaViolation("grid", "must carry T and steps")
    cfg = copy.deepcopy(_merge_defaults(raw, _SECTION_DEFAULTS))
    _check_fields("", cfg, _CONFIG_RULES)
    if "seed" not in cfg["sampling"]:
        raise SchemaViolation("sampling.seed", "seed is required (no implicit entropy)")
    cfg["grid"] = {"T": float(grid["T"]), "steps": grid["steps"]}

    # build what the run builds, so registry names and params fail here
    built = ExperimentConfig(cfg)
    model = build_model(built)
    d = model.dim
    steps, tree = cfg["grid"]["steps"], cfg["sampling"]["kind"] == "bernoulli"
    if tree and d != 1:
        raise SchemaViolation("model.x0", "bernoulli sampling enumerates "
                              "a one-dimensional tree; x0 needs one entry")
    # drift and sigma at (0, x0), as the first Euler step evaluates them
    x = model.x0[None, :]
    for part, at_x0 in (("drift", lambda: model.drift(x)),
                        ("sigma", lambda: _sigma_at(model, 0.0, x))):
        try:
            with np.errstate(all="ignore"):
                finite = np.all(np.isfinite(np.asarray(at_x0(), float)))
        except Exception as e:
            why = f"{type(e).__name__} at (0, x0) under mode {model.mode}: {e}"
            raise SchemaViolation(f"model.{part}", why) from None
        if not finite:
            raise SchemaViolation(f"model.{part}", "is not finite at (0, x0)")
    build_generator(built)
    gen = cfg["generator"]
    for kind in ("h", "xi"):
        component = (gen[kind].get("params") or {}).get("component", 0)
        if not 0 <= component < d:
            raise SchemaViolation(
                f"generator.{kind}.params.component",
                f"must index the state, in [0, {d}), got {component}")

    names = _check_entries(cfg["solvers"], "solvers", _SOLVER_OPTIONS, [])
    # states, noise, running sup and each solver's Y and Z, before any
    # exists; 2**steps is not formed past 32 steps, all over the budget
    P = 1 << min(steps, 32) if tree else cfg["sampling"]["paths"]
    need = 8 * P * (steps + 1) * (2 * d + 1 + len(names) * (1 + d))
    if need > MAX_GRID_GIB << 30:
        raise SchemaViolation("grid.steps" if tree else "sampling.paths",
                              f"grid arrays need {need / 2**30:.2f} GiB or "
                              f"more; at most {MAX_GRID_GIB} GiB")
    for i, sv in enumerate(cfg["solvers"]):
        if sv["id"] != "cole_hopf":
            continue
        if gen["f"]["name"] != "zero" or gen["g"]["name"] != "half_square":
            raise SchemaViolation(
                f"solvers[{i}]", "cole_hopf solves only f = zero with "
                "g = half_square")
        for kind in ("h", "xi"):
            if not is_terminal_only(kind, gen[kind]["name"]):
                raise SchemaViolation(
                    f"solvers[{i}]", f"cole_hopf needs a terminal-only {kind}; "
                    f"'{gen[kind]['name']}' reads the path")
    _check_entries(cfg["diagnostics"], "diagnostics", _DIAG_OPTIONS, names)
    if cfg["diagnostics"] and not names:
        raise SchemaViolation("diagnostics", "need a solver; there is none")
    # every solver a diagnostic reads is named here, so a run resolves none
    for i, dg in enumerate(cfg["diagnostics"]):
        opt = dg["options"]
        if "solver" in _DIAG_OPTIONS[dg["id"]]:
            opt.setdefault("solver", names[0])
        elif len({opt.get("a"), opt.get("b")} - {None}) < 2:
            raise SchemaViolation(f"diagnostics[{i}].options", "uniqueness "
                                  "needs two distinct solvers, a and b")
    K_z = gen["constants"]["K_z"]
    if K_z <= 0 and "class_membership" in [dg["id"] for dg in cfg["diagnostics"]]:
        raise SchemaViolation("generator.constants.K_z", "class_membership's "
                              f"ladder needs a number > 0, got {K_z!r}")
    return ExperimentConfig(cfg)


def load_config(path: str | Path) -> ExperimentConfig:
    path = Path(path)
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as e:
        raise InvalidArgument(
            f"config parse error at line {e.lineno} column {e.colno}: {e.msg}")
    except UnicodeDecodeError:
        raise InvalidArgument(f"config file is not UTF-8 text: {path}") from None
    except OSError as e:
        raise InvalidArgument(
            f"cannot read config file {path}: {e.strerror}") from None
    return validate_config(raw)


def build_model(cfg: ExperimentConfig) -> ModelSpec:
    m = cfg["model"]
    drift = resolve("drift", m["drift"]["name"], m["drift"].get("params"))
    sigma = resolve("sigma", m["sigma"]["name"], m["sigma"].get("params"))
    drift_fn = lambda x: drift(np.atleast_2d(x))
    return ModelSpec(x0=np.asarray(m["x0"], float), drift=drift_fn, sigma=sigma,
                     mode=m["mode"])


def build_generator(cfg: ExperimentConfig) -> GeneratorSpec:
    gen = cfg["generator"]
    f, (g, grad_g), h, xi = (resolve(kind, gen[kind]["name"],
                                     gen[kind].get("params"))
                             for kind in ("f", "g", "h", "xi"))
    return GeneratorSpec(f=f, g=g, h=h, xi=xi, grad_z_g=grad_g)


def _basis_key(options: dict) -> tuple:
    """The basis options as one value: equal keys mean equal bases."""
    if options.get("basis", "poly") == "tree":
        return ("tree",)
    return ("poly", options.get("basis_degree", 3),
            options.get("basis_include_sup", True))


def _build_basis(key: tuple, paths: PathBundle):
    if key[0] == "tree":
        return TreeIndicatorBasis(paths.grid.n_steps)
    return polynomial_basis(degree=key[1], dim=paths.dim, include_sup=key[2])


def _node_fits(solvers: list, paths: PathBundle) -> dict:
    """One NodeFits per distinct basis, counting the solvers that read it (a
    solver reads a basis iff its options include one)."""
    readers = Counter(_basis_key(sv["options"]) for sv in solvers
                      if "basis" in _SOLVER_OPTIONS[sv["id"]])
    return {key: NodeFits(_build_basis(key, paths), paths, k)
            for key, k in readers.items()}


def _terminal_of_x(spec: GeneratorSpec, T: float):
    """Reduce xi + h to a function of the terminal state (Cole-Hopf oracle),
    read on the one-node prefix (T, x) of a d = 1 path.

    Valid only for terminal-reading functionals; path-dependent h would
    silently read a one-node path, so validate_config restricts cole_hopf
    configs to functionals tagged terminal_only in the registry.
    """
    def terminal(x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, float).reshape(-1)
        return spec.terminal(
            PathPrefix(np.array([T]), x.reshape(1, -1, 1), np.abs(x)))
    return terminal


def _run_solver(sv: dict, spec, paths, fits: dict) -> object:
    """One solver's solution; `fits` maps basis keys to shared node fits."""
    sid = sv["id"]
    opt = sv["options"]
    budget = opt.get("picard_budget", 20)
    tol = opt.get("tol", 1e-9)
    # the three regression Picard solvers share one signature; the table is
    # built per call, so a solver name rebound on this module (as
    # benchmark/layertrace.py does) is the one called
    picard = {"lsmc": solve_lsmc,
              "decomposed_additive": solve_decomposed_additive,
              "decomposed_malliavin": solve_decomposed_malliavin}
    if sid in picard:
        level = opt.get("trunc_level", 16)
        trunc = None if level is None else TruncationSpec(float(level))
        return picard[sid](spec, paths, fits[_basis_key(opt)], trunc,
                           picard_budget=budget, tol=tol)
    if sid == "tree":
        return solve_tree_exact(spec, paths, picard_budget=budget, tol=tol)
    if sid == "cole_hopf":
        return solve_cole_hopf(_terminal_of_x(spec, paths.grid.horizon), paths,
                               n_quad=opt.get("quad_points", 96))
    if sid == "linear":
        return solve_linear(spec, paths, fits[_basis_key(opt)],
                            opt.get("a", 0.0))
    raise InvalidArgument(f"unknown solver id {sid!r}")


def _gradz_along(spec: GeneratorSpec, sol) -> np.ndarray:
    """grad_z of the driver at the solution's Z, nodes 0..n-1: (n, P, d)."""
    theta = np.empty_like(sol.Z[:-1])
    for i, row in enumerate(theta):
        row[:] = grad_z(spec, prefix_at(sol.bundle, i), sol.Z[i])
    return theta


def _run_diagnostic(dg: dict, solutions: dict, spec, constants: dict,
                    thetas: dict) -> dict:
    """One diagnostic's report on the solutions its options name;
    `constants` is the config's generator.constants, `thetas` memoises
    grad_z along each solution."""
    did = dg["id"]
    opt = dg["options"]

    def solution(key="solver"):
        if opt[key] not in solutions:
            raise InvalidArgument(f"solver '{opt[key]}' produced no solution")
        return solutions[opt[key]]

    def theta() -> np.ndarray:
        if opt["solver"] not in thetas:
            thetas[opt["solver"]] = _gradz_along(spec, solution())
        return thetas[opt["solver"]]

    if did == "z_growth":
        rep = z_growth_report(solution(), float(constants["r"]))
        return {"rows": rep.as_rows(), "max_ratio": rep.max_ratio,
                "q999_overall": rep.q999_overall, "pass": np.isfinite(rep.max_ratio)}
    if did == "exp_moment":
        est = exp_moment(solution(), float(opt.get("q", 1.0)))
        return {"q": est.q, "estimate": est.estimate, "se": est.se,
                "log_estimate": est.log_estimate, "pass": est.stable}
    if did == "stochastic_exponential":
        rep = stochastic_exponential(theta(), solution().bundle.noise)
        return {"mean": rep.mean, "se": rep.se,
                "lp_norms": {str(k): v for k, v in rep.lp_norms.items()},
                "novikov": rep.novikov, "pass": rep.martingale_ok}
    if did == "bmo_pstar":
        bmo = bmo_estimate(theta(), solution().grid)
        out = {"bmo": bmo, "pass": np.isfinite(bmo)}
        if bmo > 0:
            ps = pstar_from_bmo(bmo)
            out["pstar"] = ps.value
            out["pstar_saturated"] = ps.saturated
        return out
    if did == "uniqueness":
        verdict = uniqueness_probe(solution("a"), solution("b"),
                                   budget=opt.get("budget"),
                                   scheme_tol=opt.get("scheme_tol", 2e-2))
        return {"method_a": verdict.method_a, "method_b": verdict.method_b,
                "sup_mean_abs": verdict.sup_mean_abs,
                "sup_max_abs": verdict.sup_max_abs,
                "budget": verdict.budget, "delta_z_l2": verdict.delta_z_l2,
                "pass": verdict.passed}
    if did == "class_membership":
        cm = class_membership(solution(), float(constants["K_z"]),
                              p_grid=tuple(opt.get("p_grid", (1.5, 2.0, 4.0))),
                              eps_grid=tuple(opt.get("eps_grid", (0.1, 0.5, 1.0))))
        return {"entries": cm.entries, "pass": cm.all_finite_looking}
    raise InvalidArgument(f"unknown diagnostic id {did!r}")


@dataclass
class RunRecord:
    """Provenance of one run, written as record.json: one `stages` and one
    `timings` entry per stage, and one report per diagnostic that ran."""

    config_hash: str
    out_dir: str
    status: str = "incomplete"
    version: str = __version__
    stages: list = field(default_factory=list)
    artifacts: dict = field(default_factory=dict)
    reports: dict = field(default_factory=dict)
    timings: dict = field(default_factory=dict)

    @property
    def all_pass(self) -> bool:
        return all(r.get("pass", True) for r in self.reports.values())

    def summary(self) -> dict:
        """Deterministic summary (no wall-clock data)."""
        return {"config_hash": self.config_hash, "status": self.status,
                "version": self.version, "reports": self.reports,
                "stages": self.stages}


def _stage(record: RunRecord, name: str, run):
    """Call `run` as the stage `name`: record its time, and "ok" or its
    error. Returns its result, or None after a failure, which does not stop
    the run."""
    t0 = time.monotonic()
    try:
        out, entry = run(), {"stage": name, "status": "ok"}
    except Exception as e:
        out, entry = None, {"stage": name, "status": "error",
                            "error": f"{type(e).__name__}: {e}"}
    record.timings[name] = time.monotonic() - t0
    record.stages.append(entry)
    return out


def run_experiment(config: ExperimentConfig, out_dir: str | Path) -> RunRecord:
    """Execute simulate -> solve -> diagnose, persisting all artifacts.

    Each stage runs through _stage under a name fixed at validation. A
    failed stage is recorded and the run goes on without it; a failed
    simulate leaves no paths, so no solver or diagnostic runs. Identical
    config yields byte-identical bundle/solution/summary artifacts.
    """
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as e:
        raise InvalidArgument(
            f"cannot use {out} as the output directory: {e.strerror}") from None
    record = RunRecord(config_hash=config.config_hash, out_dir=str(out))
    grid = make_grid(config["grid"]["T"], config["grid"]["steps"])
    model = build_model(config)
    spec = build_generator(config)
    sampling = config["sampling"]
    paths = _stage(record, "simulate", lambda: simulate_forward(
        model, bernoulli_bundle(grid) if sampling["kind"] == "bernoulli"
        else sample_brownian(grid, model.dim, sampling["paths"],
                             sampling["seed"])))
    if paths is None:
        return _finish(record, out)
    save_bundle(out / "paths", paths)
    save_brownian(out / "noise", paths.noise)
    record.artifacts["paths"] = str(out / "paths.bin")
    record.artifacts["noise"] = str(out / "noise.bin")

    solutions = {}
    # each node's projector is built once and read by every solver on its
    # basis; a store releases a node after its last reader
    fits = _node_fits(config["solvers"], paths)
    for sv in config["solvers"]:
        name = sv["name"]
        sol = _stage(record, f"solver:{name}",
                     lambda: _run_solver(sv, spec, paths, fits))
        if sol is not None:
            solutions[name] = sol
            save_solution(out / f"solution_{name}", sol)
            record.artifacts[f"solution:{name}"] = str(
                out / f"solution_{name}_Y.bin")
    del fits  # what a failed solver left unread

    thetas: dict = {}
    constants = config["generator"]["constants"]
    for dg in config["diagnostics"]:
        rep = _stage(record, f"diagnostic:{dg['name']}",
                     lambda: _run_diagnostic(dg, solutions, spec, constants,
                                             thetas))
        if rep is not None:
            record.reports[dg["name"]] = rep
    return _finish(record, out)


def _finish(record: RunRecord, out: Path) -> RunRecord:
    """Set the run's status and write summary.json and record.json."""
    record.status = ("complete" if all(s["status"] == "ok" for s in record.stages)
                     else "partial")
    _atomic_write(out / "summary.json",
                  [canonical_json(record.summary()).encode()])
    record.artifacts["summary"] = str(out / "summary.json")
    payload = dict(record.summary(), timings=record.timings,
                   artifacts=record.artifacts)
    _atomic_write(out / "record.json", [canonical_json(payload).encode()])
    return record


def emit_report(record: RunRecord) -> list[Path]:
    """Write each per-node curve report as report_<key>.csv (none if the run
    has none); refuse an unfinished run or one whose failed stages left none."""
    missing = [s["stage"] for s in record.stages if s["status"] != "ok"]
    if record.status == "incomplete":
        raise ReportIncomplete(missing or ["diagnostics"])
    out = Path(record.out_dir)
    written: list[Path] = []
    for key, rep in record.reports.items():
        if "rows" not in rep:
            continue
        lines = ["t,mean_ratio,q999_ratio,max_ratio"]
        for row in rep["rows"]:
            lines.append(f"{row['t']},{row['mean_ratio']},"
                         f"{row['q999_ratio']},{row['max_ratio']}")
        path = out / f"report_{key}.csv"
        _atomic_write(path, [("\n".join(lines) + "\n").encode()])
        written.append(path)
    if not written and missing:
        raise ReportIncomplete(missing)
    return written
