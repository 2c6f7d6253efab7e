"""End-to-end benchmark of `qbsde run`, with a traced per-layer mode.

Each sample runs every config of a workload as a fresh process
(``benchmark/sample.py``, which calls the CLI's own ``main``), one at a time,
with BLAS and OpenMP pinned to one thread. The parent times each process
from spawn to exit and checks its outputs; a sample with any failed
operation is counted in ``failed`` and left out of every timing.

Usage (from the repository root):
    python3 benchmark/run.py --workload {oracle,pathdep,tree} --seed N \
        --seconds S --trace {0,1}

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. With ``--trace 0``
the metrics are the end-to-end ones, with ``--trace 1`` the per-layer ones.
See ``benchmark/README.md`` for the workloads and what each metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

BLAS_THREADS = 1     # single-threaded baseline; recorded in the provenance
PROBE_EVERY_S = 4.0  # one timed set-up-only round per 4 s of the run, plus
                     # two at its start, so set-up timings span the window
MIN_SAMPLES = 2      # summary.json determinism needs two samples of one seed
HARD_LIMIT_S = 165   # no sample starts that is predicted to end after this

Y0_EXACT, Z_EXACT = 0.5, 1.0   # Cole-Hopf closed form for xi = W_T, f = 0
Y0_TOL, Z_TOL = 1e-10, 1e-8    # round-off today: Y0 exact, Z within 3e-11
TREE_BUDGET = 1e-10            # tree-oracle.json's own |dY| budget

END_TO_END = {
    "wall_s": "s", "setup_s": "s", "run_s": "s", "path_steps_per_s": "1/s",
    "peak_rss_mb": "MB", "artifact_mb": "MB", "ok_share": "share",
}
SOLVE_FNS = ("solve_lsmc", "solve_tree_exact", "solve_cole_hopf",
             "solve_decomposed_additive", "solve_decomposed_malliavin")
DIAGNOSTIC_FNS = ("bmo_estimate", "stochastic_exponential", "class_membership",
                  "z_growth_report", "uniqueness_probe", "pstar_from_bmo")
PER_LAYER = {
    "engine.sample_brownian.s": "s",
    "engine.sample_brownian.draws": "count",
    "engine.simulate_forward.s": "s",
    "engine.simulate_tangent.s": "s",
    "engine.bernoulli_bundle.s": "s",
    "generators.eval_driver.calls": "count",
    "generators.eval_driver.s": "s",
    "generators.grad_z.calls": "count",
    "generators.grad_z.s": "s",
    "generators.truncate_z.s": "s",
    "generators.truncate_z.active_share": "share",
    **{f"solvers.{fn}.s": "s" for fn in SOLVE_FNS},
    "solvers.lstsq.calls": "count",
    "solvers.lstsq.s": "s",
    "solvers.lstsq.flops_computed": "flop",
    "solvers.lstsq.bytes_computed": "B",
    "solvers.rank_deficient_nodes": "count",
    "solvers.logsumexp.calls": "count",
    "solvers.logsumexp.s": "s",
    "solvers.logsumexp.elements": "count",
    "solvers.solve_cole_hopf.rss_growth_mb": "MB",
    "solvers.picard.iterations": "count",
    "solvers.picard.iters_per_node": "iter/node",
    **{f"diagnostics.{fn}.s": "s" for fn in DIAGNOSTIC_FNS},
    "serialization.save_bundle.s": "s",
    "serialization.save_brownian.s": "s",
    "serialization.save_solution.s": "s",
    "serialization.bytes": "B",
    "harness.validate_config.s": "s",
    "harness.run_experiment.self_s": "s",
    "trace.overhead_s": "s",
}
COMPUTED_FORMULAS = {
    "engine.sample_brownian.draws": "P*n*d Philox normals (paths x steps x dim)",
    "solvers.lstsq.flops_computed":
        "sum over calls of 2mk^2 - 2k^3/3 + 4mkr (Householder-QR least "
        "squares, m x k design, r right-hand sides)",
    "solvers.lstsq.bytes_computed": "sum over calls of 8(mk + mr + kr)",
    "solvers.logsumexp.elements": "sum over calls of the input array size",
    "serialization.bytes": "8 bytes x elements of every saved tensor "
                           "(.bin payload, JSON headers excluded)",
}


# ----------------------------------------------------------------- checks

def _load_tensor(base: Path):
    import numpy as np
    header = json.loads(base.with_suffix(".json").read_text())
    data = np.fromfile(base.with_suffix(".bin"), dtype="<f8")
    return data.reshape(header["shape"])


def oracle_checks(y0: float = Y0_EXACT, z: float = Z_EXACT):
    """Closed-form checks on the Cole-Hopf oracle's saved solution."""
    def y0_check(out: Path):
        Y = _load_tensor(out / "solution_oracle_Y")
        err = float(abs(Y[:, 0] - y0).max())
        return None if err <= Y0_TOL else f"|Y0 - {y0}| = {err:.3g}"

    def z_check(out: Path):
        Z = _load_tensor(out / "solution_oracle_Z")
        err = float(abs(Z[:, :-1, :] - z).max())  # node n holds Z = 0
        return None if err <= Z_TOL else f"max |Z - {z}| = {err:.3g}"

    return (("oracle Y0", y0_check), ("oracle Z", z_check))


def tree_checks():
    def lsmc_vs_exact(out: Path):
        dy = _load_tensor(out / "solution_lsmc_Y") - _load_tensor(
            out / "solution_tree_Y")
        err = float(abs(dy).max())
        return None if err <= TREE_BUDGET else f"lsmc vs tree |dY| = {err:.3g}"

    return (("lsmc vs exact tree", lsmc_vs_exact),)


# -------------------------------------------------------------- workloads

@dataclass(frozen=True)
class ConfigRun:
    file: str                       # under configs/
    overrides: dict = field(default_factory=dict)  # "section.key" -> value
    drop_diagnostics: tuple = ()    # diagnostic ids left out of the copy


@dataclass(frozen=True)
class Workload:
    configs: tuple
    checks: tuple = ()


WORKLOADS = {
    # Cole-Hopf oracle (logsumexp) and the largest artifacts; 25k paths keep
    # the layer shares of the shipped 1e5 at a quarter of the time
    "oracle": Workload(
        (ConfigRun("cole-hopf-check.json", {"sampling.paths": 25000}),),
        oracle_checks()),
    # Philox sampling, poly-basis LSMC, tangents, both decompositions and
    # every diagnostic; the only workload with F2. F2's class_membership
    # verdict reads "unstable" at 24 of the seeds 0-199, so the copy leaves
    # it out; F1 still runs that diagnostic.
    "pathdep": Workload((ConfigRun("f1-test-problem.json"),
                         ConfigRun("f2-test-problem.json",
                                   drop_diagnostics=("class_membership",)))),
    # dense lstsq on the saturated tree basis: 2048 paths, up to 1024 columns
    "tree": Workload((ConfigRun("tree-oracle.json", {"grid.steps": 11}),),
                     tree_checks()),
}


def _write_config(run: ConfigRun, dest: Path) -> tuple[Path, int]:
    """Config with overrides applied; returns its path and paths x steps."""
    data = json.loads((ROOT / "configs" / run.file).read_text())
    for dotted, value in run.overrides.items():
        section, key = dotted.split(".")
        data[section][key] = value
    data["diagnostics"] = [d for d in data["diagnostics"]
                           if d["id"] not in run.drop_diagnostics]
    path = dest / run.file
    path.write_text(json.dumps(data))
    sampling = data["sampling"]
    steps = data["grid"]["steps"]
    n_paths = (1 << steps if sampling.get("kind") == "bernoulli"
               else sampling["paths"])
    return path, n_paths * steps


# ---------------------------------------------------------------- samples

def _child_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def _spawn(config: Path, out: Path, seed: int, result: Path, flag: str | None,
           timeout: float):
    """Run one sample process; returns (exit code, wall seconds, result)."""
    cmd = [sys.executable, str(HERE / "sample.py"), "--config", str(config),
           "--out", str(out), "--seed", str(seed), "--result", str(result)]
    if flag:
        cmd.append(flag)
    result.unlink(missing_ok=True)
    with open(out.parent / "sample.log", "wb") as log:
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=_child_env(), stdout=log,
                                  stderr=subprocess.STDOUT, timeout=timeout)
            rc = proc.returncode
        except subprocess.TimeoutExpired:  # run() has killed and reaped it
            rc = None
        wall = time.perf_counter() - t0
    payload = json.loads(result.read_text()) if result.exists() else None
    return rc, wall, payload


def _log_tail(work: Path) -> str:
    lines = (work / "sample.log").read_text(errors="replace").splitlines()
    return lines[-1] if lines else ""


def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


@dataclass
class Sample:
    traced: bool
    attempted: int = 0
    failed: int = 0
    wall_s: float = 0.0
    setup_s: float = 0.0
    run_s: float = 0.0
    peak_rss_mb: float = 0.0
    artifact_bytes: int = 0
    traces: list = field(default_factory=list)
    errors: list = field(default_factory=list)

    def op(self, name: str, error: str | None):
        self.attempted += 1
        if error is not None:
            self.failed += 1
            self.errors.append(f"{name}: {error}")


def _check_config_run(sample: Sample, rc, payload, out: Path, checks,
                      summaries: dict, key: str):
    """Count every operation of one config run: exit code, pipeline stages,
    output checks."""
    sample.op("exit code", None if rc == 0
              else f"exit code {rc}: {_log_tail(out.parent)}")
    if payload is not None and not Path(payload["qbsde_file"]).is_relative_to(
            ROOT / "src"):
        sample.op("import", f"qbsde imported from {payload['qbsde_file']}")
    record_path, summary_path = out / "record.json", out / "summary.json"
    if not (record_path.exists() and summary_path.exists()):
        sample.op("artifacts", "record.json or summary.json missing")
        return
    record = json.loads(record_path.read_text())
    for stage in record["stages"]:
        sample.op(stage["stage"], None if stage["status"] == "ok"
                  else stage.get("error", stage["status"]))
    summary_bytes = summary_path.read_bytes()
    summary = json.loads(summary_bytes)
    sample.op("status", None if summary["status"] == "complete"
              else f"status {summary['status']}")
    failing = [k for k, r in summary["reports"].items() if not r.get("pass")]
    sample.op("reports pass", f"failing reports {failing}" if failing else None)
    first = summaries.setdefault(key, summary_bytes)
    sample.op("summary.json deterministic", None if first == summary_bytes
              else "summary.json bytes differ from the first sample")
    for name, check in checks:
        try:
            error = check(out)
        except (OSError, ValueError, KeyError) as e:
            error = f"{type(e).__name__}: {e}"
        sample.op(name, error)


def _run_sample(workload: Workload, configs: list, seed: int, traced: bool,
                work: Path, summaries: dict, timeout: float) -> Sample:
    sample = Sample(traced)
    for cfg in configs:
        out = work / "out"
        shutil.rmtree(out, ignore_errors=True)
        rc, wall, payload = _spawn(cfg, out, seed, work / "result.json",
                                   "--trace" if traced else None, timeout)
        sample.wall_s += wall
        if payload is not None:
            sample.setup_s += payload["import_s"] + payload["load_config_s"]
            sample.run_s += payload["run_s"]
            sample.peak_rss_mb = max(sample.peak_rss_mb, payload["maxrss_mb"])
            if traced:
                sample.traces.append(payload["trace"])
        sample.artifact_bytes += _dir_bytes(out) if out.exists() else 0
        _check_config_run(sample, rc, payload, out, workload.checks,
                          summaries, cfg.name)
        shutil.rmtree(out, ignore_errors=True)
    return sample


def _setup_probe(configs: list, seed: int, work: Path, timeout: float):
    """Set-up-only processes for every config; (seconds, error or None)."""
    total = 0.0
    for cfg in configs:
        rc, _, payload = _spawn(cfg, work / "out", seed, work / "result.json",
                                "--setup-only", timeout)
        if rc != 0 or payload is None:
            return None, (f"set-up probe of {cfg.name} exited {rc}: "
                          f"{_log_tail(work)}")
        total += payload["import_s"] + payload["load_config_s"]
    return total, None


# ---------------------------------------------------------------- metrics

RATIOS = {  # metric -> (numerator, denominator) counters
    "generators.truncate_z.active_share":
        ("generators.truncate_z.active_rows", "generators.truncate_z.rows"),
    "solvers.picard.iters_per_node":
        ("solvers.picard.iterations", "solvers.picard.nodes"),
}


def layer_metrics(traces: list) -> dict:
    """Per-layer metrics of one traced sample (one trace per config).

    ``<span>.s`` is the span's inclusive time (self time for the solvers),
    ``<span>.self_s`` its self time and ``<span>.calls`` its call count;
    every other metric is a counter or a ratio of two counters.
    """
    spans: dict[str, dict] = {}
    counters: dict[str, float] = {}
    for trace in traces:
        for name, row in trace["spans"].items():
            acc = spans.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            for k in acc:
                acc[k] += row[k]
        for name, value in trace["counters"].items():
            counters[name] = counters.get(name, 0.0) + value

    m = {}
    for metric in PER_LAYER:
        base, _, kind = metric.rpartition(".")
        if metric in RATIOS:
            num, den = (counters.get(c, 0) for c in RATIOS[metric])
            m[metric] = num / den if den else 0.0
        elif kind in ("s", "self_s", "calls"):
            if kind == "s" and base.startswith("solvers.solve_"):
                kind = "self_s"
            m[metric] = spans.get(base, {}).get(kind, 0)
        else:
            m[metric] = counters.get(metric, 0)
    return m


def lstsq_by_caller(traces: list) -> dict:
    by: dict[str, float] = {}
    for trace in traces:
        for caller, s in trace["lstsq_by_caller"].items():
            by[caller] = by.get(caller, 0.0) + s
    return by


def tail(values: list) -> str:
    """The highest percentile with at least ten samples beyond it."""
    n = len(values)
    if n < 11:
        return f"no percentile has 10 samples beyond it (n={n})"
    j = n - 11
    return f"p{100 * (j + 1) / n:.0f}={sorted(values)[j]:.6g} (n={n})"


# ------------------------------------------------------------- provenance

def provenance(seed: int) -> dict:
    import numpy as np

    def read(path: str, prefix: str = "") -> str:
        try:
            for line in Path(path).read_text().splitlines():
                if line.startswith(prefix):
                    return line.split(":", 1)[-1].strip() if prefix else line
        except OSError:
            pass
        return "unknown"

    try:  # never search for a repository above the checkout
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        ).stdout.strip() or "unavailable (not a git checkout)"
    except (OSError, subprocess.TimeoutExpired):
        sha = "unavailable (git not found)"
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_vendor = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_vendor = "unknown"
    return {
        "git_sha": sha,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": read("/proc/cpuinfo", "model name"),
        "l3_size": read("/sys/devices/system/cpu/cpu0/cache/index3/size"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": metadata.version("scipy"),
        "blas": blas_vendor,
        "blas_threads_pinned": BLAS_THREADS,
        "seed": seed,
    }


# ------------------------------------------------------------------ runner

@dataclass
class RunResult:
    correct: bool
    attempted: int
    failed: int
    metrics: dict
    lines: list           # human-readable report
    timed_samples: int


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool,
                 work: Path) -> RunResult:
    start = time.perf_counter()
    deadline, hard = start + seconds, start + HARD_LIMIT_S
    work.mkdir(parents=True, exist_ok=True)
    configs, path_steps = [], 0
    for run in workload.configs:
        path, ps = _write_config(run, work)
        configs.append(path)
        path_steps += ps
    attempted = failed = 0
    errors: list[str] = []

    # untimed: compiles bytecode and fills the file cache once
    _setup_probe(configs, seed, work, HARD_LIMIT_S)
    setups: list[float] = []
    probes = 0
    samples: list[Sample] = []
    summaries: dict = {}
    while True:
        while probes < 2 + (time.perf_counter() - start) / PROBE_EVERY_S:
            secs, error = _setup_probe(configs, seed, work, HARD_LIMIT_S)
            probes += 1
            attempted += 1
            if error:
                failed += 1
                errors.append(error)
            else:
                setups.append(secs)
        traced = trace and len(samples) % 2 == 1
        remaining = hard - time.perf_counter()
        sample = _run_sample(workload, configs, seed, traced, work, summaries,
                             max(remaining, 1.0))
        samples.append(sample)
        attempted += sample.attempted
        failed += sample.failed
        errors += sample.errors
        same_kind = [s.wall_s for s in samples if s.traced == traced]
        now = time.perf_counter()
        predicted = now + statistics.median(same_kind)
        if predicted > hard or (len(samples) >= MIN_SAMPLES
                                and predicted > deadline):
            break

    good = [s for s in samples if s.failed == 0]
    plain = [s for s in good if not s.traced]
    lines = [f"workload samples: {len(samples)} run, {len(good)} timed "
             f"({len(plain)} untraced), {len(setups)} set-up probes; "
             f"{time.perf_counter() - start:.1f} s"]
    lines += [f"FAILED {e}" for e in errors]
    lines.append(f"failed_share: {failed}/{attempted} = "
                 f"{failed / attempted:.6g}")
    correct = failed == 0 and bool(plain)

    metrics: dict = {}
    if not trace:
        series = {
            "wall_s": [s.wall_s for s in plain],
            "setup_s": setups + [s.setup_s for s in plain],
            "run_s": [s.run_s for s in plain],
            "path_steps_per_s": [path_steps / s.run_s for s in plain],
            "peak_rss_mb": [s.peak_rss_mb for s in plain],
            "artifact_mb": [s.artifact_bytes / 1e6 for s in plain],
        }
        for name, values in series.items():
            if values:
                metrics[name] = statistics.median(values)
                lines.append(f"{name}: median={metrics[name]:.6g} "
                             f"{END_TO_END[name]}; {tail(values)}; samples "
                             + " ".join(f"{v:.4g}" for v in values))
        metrics["ok_share"] = 1.0 - failed / attempted
    else:
        traced_samples = [s for s in good if s.traced]
        if traced_samples and plain:
            per = [layer_metrics(s.traces) for s in traced_samples]
            metrics = {k: statistics.median(p[k] for p in per)
                       for k in per[0]}
            traced_run = statistics.median(s.run_s for s in traced_samples)
            plain_run = statistics.median(s.run_s for s in plain)
            metrics["trace.overhead_s"] = traced_run - plain_run
            lines.append(f"traced run_s={traced_run:.6g} s, untraced "
                         f"run_s={plain_run:.6g} s")
            for caller, s in sorted(lstsq_by_caller(traced_samples[0].traces)
                                    .items()):
                lines.append(f"solvers.lstsq.s under {caller}: {s:.6g} s")
            for name, formula in COMPUTED_FORMULAS.items():
                lines.append(f"{name} (computed) = {formula}")
            for name, hot in (("solvers.logsumexp.s", "logsumexp"),
                              ("solvers.lstsq.s", "lstsq"),
                              ("engine.sample_brownian.s", "sampling")):
                lines.append(f"{hot} share of traced run_s: "
                             f"{metrics[name] / traced_run:.3f}")
        correct = correct and bool(traced_samples)
    units = PER_LAYER if trace else END_TO_END
    return RunResult(
        correct, attempted, failed,
        {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        lines, len(plain))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    missing = [p for p in ("src/qbsde/cli.py", "configs") if not (ROOT / p).exists()]
    if missing:
        print(f"error: {', '.join(missing)} not found under {ROOT}; run from a "
              "full checkout of the repository", file=sys.stderr)
        return 2

    print(f"qbsde benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("provenance: " + json.dumps(provenance(args.seed)))
    build = ROOT / ".bench_build"
    build.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"qbsde-{args.workload}-", dir=build))
    try:
        res = run_workload(WORKLOADS[args.workload], args.seed, args.seconds,
                           bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for line in res.lines:
        print(line)
    print(json.dumps({"correct": res.correct, "attempted": res.attempted,
                      "failed": res.failed, "metrics": res.metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
