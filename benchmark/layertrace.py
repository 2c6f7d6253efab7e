"""In-memory span tracer that wraps qbsde's public functions from outside.

Each wrapped call records one span: name, start, end and the index of the
span that was open when it began (its parent). Hooks add exact counters
computed from the call's arguments and results; a hook runs inside its own
``trace.hook`` span so its cost is not charged to any qbsde layer.

Functions are wrapped where their callers bind them (``qbsde.harness`` binds
``sample_brownian`` at import, ``qbsde.solvers`` binds ``eval_driver``), so
each call passes through exactly one wrapper.
"""

from __future__ import annotations

import functools
import resource
import time
from collections import defaultdict


class Tracer:
    """Spans and counters of one process, kept in memory until `summary`."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.stack: list[int] = []
        self.counters: dict[str, float] = defaultdict(float)

    def _open(self, name: str) -> list:
        span = [name, time.perf_counter(), None,
                self.stack[-1] if self.stack else -1]
        self.stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: list):
        span[2] = time.perf_counter()
        self.stack.pop()

    def wrap(self, owner, attr: str, name: str, before=None, after=None):
        """Replace ``owner.attr`` by a span-recording wrapper.

        ``before(args, kwargs)`` runs just before the call and its value is
        passed to ``after(args, kwargs, result, state)``, which runs once the
        call returned.
        """
        fn = getattr(owner, attr)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state = before(args, kwargs) if before is not None else None
            span = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(span)
            if after is not None:
                hook = self._open("trace.hook")
                try:
                    after(args, kwargs, out, state)
                finally:
                    self._close(hook)
            return out

        setattr(owner, attr, wrapper)

    def summary(self) -> dict:
        """Per span name: calls, total and self seconds; plus counters.

        Self time is a span's duration minus the durations of its direct
        children; children of one span never overlap in a single thread.
        """
        child_s = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
        out: dict[str, dict] = {}
        for idx, (name, start, end, _) in enumerate(self.spans):
            row = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["s"] += end - start
            row["self_s"] += end - start - child_s[idx]
        return {"spans": out, "counters": dict(self.counters),
                "lstsq_by_caller": self._lstsq_by_caller()}

    def _lstsq_by_caller(self) -> dict:
        """Seconds in `lstsq`, keyed by the nearest enclosing solver or
        diagnostic span."""
        by: dict[str, float] = defaultdict(float)
        for name, start, end, parent in self.spans:
            if name != "solvers.lstsq":
                continue
            caller = "<none>"
            while parent >= 0:
                pname = self.spans[parent][0]
                if pname.startswith(("solvers.solve_", "diagnostics.")):
                    caller = pname
                    break
                parent = self.spans[parent][3]
            by[caller] += end - start
        return dict(by)


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def install(tracer: Tracer):
    """Wrap every layer boundary the per-layer metrics need."""
    import numpy as np

    from qbsde import harness, solvers

    c = tracer.counters

    # engine
    def count_draws(args, kwargs, out, state):
        c["engine.sample_brownian.draws"] += out.increments.size  # P*n*d

    tracer.wrap(harness, "sample_brownian", "engine.sample_brownian",
                after=count_draws)
    for owner in (harness, solvers):
        tracer.wrap(owner, "simulate_forward", "engine.simulate_forward")
        tracer.wrap(owner, "bernoulli_bundle", "engine.bernoulli_bundle")
    tracer.wrap(harness, "simulate_tangent", "engine.simulate_tangent")

    # generators
    tracer.wrap(solvers, "eval_driver", "generators.eval_driver")
    for owner in (harness, solvers):
        tracer.wrap(owner, "grad_z", "generators.grad_z")

    def count_truncation(args, kwargs, out, state):
        trunc, z = args[0], args[1]
        s = np.linalg.norm(np.atleast_2d(np.asarray(z, float)), axis=-1)
        c["generators.truncate_z.rows"] += s.size
        c["generators.truncate_z.active_rows"] += int(
            np.count_nonzero(s > trunc.level - 1))

    tracer.wrap(solvers, "truncate_z", "generators.truncate_z",
                after=count_truncation)

    # solvers
    def count_picard(args, kwargs, out, state):
        residuals = out.picard_residuals or []
        c["solvers.picard.iterations"] += sum(len(r) for r in residuals)
        c["solvers.picard.nodes"] += len(residuals)

    for fn in ("solve_lsmc", "solve_tree_exact", "solve_decomposed_additive",
               "solve_decomposed_malliavin"):
        tracer.wrap(harness, fn, f"solvers.{fn}", after=count_picard)
    # the additive construction calls solve_lsmc for its first stage
    tracer.wrap(solvers, "solve_lsmc", "solvers.solve_lsmc",
                after=count_picard)

    def rss_growth(args, kwargs, out, before_mb):
        c["solvers.solve_cole_hopf.rss_growth_mb"] += _maxrss_mb() - before_mb

    tracer.wrap(harness, "solve_cole_hopf", "solvers.solve_cole_hopf",
                before=lambda args, kwargs: _maxrss_mb(), after=rss_growth)

    last_deficient = [None]  # holds the design so its id cannot be reused

    def count_lstsq(args, kwargs, out, state):
        a = args[0]
        b = np.asarray(args[1] if len(args) > 1 else kwargs["b"])
        m, k = a.shape
        r = 1 if b.ndim == 1 else b.shape[1]
        # Householder-QR least squares (Golub & Van Loan, Alg. 5.3.2)
        c["solvers.lstsq.flops_computed"] += (2 * m * k * k - 2 * k ** 3 / 3
                                              + 4 * m * k * r)
        c["solvers.lstsq.bytes_computed"] += 8 * (m * k + m * r + k * r)
        # one design serves the y and z fits of a node: count it once
        if out[2] < k and a is not last_deficient[0]:
            c["solvers.rank_deficient_nodes"] += 1
            last_deficient[0] = a

    tracer.wrap(np.linalg, "lstsq", "solvers.lstsq", after=count_lstsq)

    def count_elements(args, kwargs, out, state):
        c["solvers.logsumexp.elements"] += np.size(args[0])

    tracer.wrap(solvers, "logsumexp", "solvers.logsumexp",
                after=count_elements)

    # diagnostics
    for fn in ("bmo_estimate", "stochastic_exponential", "class_membership",
               "z_growth_report", "uniqueness_probe", "pstar_from_bmo"):
        tracer.wrap(harness, fn, f"diagnostics.{fn}")

    # serialization
    def count_bytes(field):
        def after(args, kwargs, out, state):
            obj = args[1]
            c["serialization.bytes"] += sum(
                getattr(obj, f).nbytes for f in field)
        return after

    tracer.wrap(harness, "save_bundle", "serialization.save_bundle",
                after=count_bytes(("states",)))
    tracer.wrap(harness, "save_brownian", "serialization.save_brownian",
                after=count_bytes(("increments",)))
    tracer.wrap(harness, "save_solution", "serialization.save_solution",
                after=count_bytes(("Y", "Z")))

    # harness
    tracer.wrap(harness, "validate_config", "harness.validate_config")
