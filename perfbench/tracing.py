"""Layer spans and counts for the traced benchmark run.

The program has no spans of its own, so ``Tracer.install`` wraps public
functions of the ``commoninfo`` modules by replacing module attributes (the
names through which the program calls them, such as ``experiments.wyner_ci``
and ``exponents.big_omega_min``) and ``Tracer.uninstall`` puts the originals
back.  Spans are (id, name, start, end, parent) tuples kept in memory.  The
recorder is single-threaded: the benchmark runs plans with ``threads=1``.
"""

from __future__ import annotations

import functools
import time

#: per-layer metrics in the order BENCHMARK.json lists them
METRICS = (
    ("experiments.run_plan.s", "s", "lower"),
    ("experiments.prefetch.s", "s", "lower"),
    ("exponents.tabulate_omega.s", "s", "lower"),
    ("exponents.tabulate_omega.cells", "count", "lower"),
    ("exponents.tabulate_omega.pruned", "count", "higher"),
    ("exponents.f_rate.s", "s", "lower"),
    ("exponents.f_rate.calls", "count", "lower"),
    ("exponents.big_omega_min.s", "s", "lower"),
    ("exponents.big_omega_min.calls", "count", "lower"),
    ("exponents.big_omega_min.refine_calls", "count", "lower"),
    ("ci_solver.wyner_ci.s", "s", "lower"),
    ("ci_solver.wyner_ci.calls", "count", "lower"),
    ("ci_solver.wyner_ci.restarts", "count", "lower"),
    ("synthesis.rate_bound_check.s", "s", "lower"),
    ("synthesis.truncation_check.s", "s", "lower"),
    ("synthesis.induced_joint_exact.s", "s", "lower"),
    ("synthesis.dense_cells", "count", "lower"),
    ("synthesis.build_code.codewords", "count", "lower"),
    ("synthesis.estimate_tv.s", "s", "lower"),
    ("synthesis.estimate_renyi.s", "s", "lower"),
    ("synthesis.mc_samples", "count", "lower"),
    ("typicality.cond_typical_defect_exact.s", "s", "lower"),
    ("typicality.cond_typical_defect_exact.calls", "count", "lower"),
)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []          # [id, name, start, end, parent]
        self.counts: dict[str, float] = {}
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def count(self, name: str, k: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + k

    def inside(self, name: str) -> bool:
        return any(self.spans[i][1] == name for i in self._stack)

    def call(self, name: str, fn, args, kwargs, on_result):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([sid, name, time.perf_counter(), None, parent])
        self._stack.append(sid)
        try:
            result = fn(*args, **kwargs)
        finally:
            self._stack.pop()
            self.spans[sid][3] = time.perf_counter()
            self.count(name + ".calls")
        if on_result is not None:
            on_result(self, result, self.spans[sid], *args, **kwargs)
        return result

    def wrap(self, name: str, fn, on_result=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, on_result)
        return traced

    # -- patching ----------------------------------------------------------

    def install(self, targets) -> None:
        """``targets``: (span name, [(module, attribute), ...], on_result);
        every listed attribute gets the same wrapper."""
        for name, places, on_result in targets:
            module, attr = places[0]
            wrapper = self.wrap(name, getattr(module, attr), on_result)
            for module, attr in places:
                self._patched.append((module, attr, getattr(module, attr)))
                setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    # -- summaries ---------------------------------------------------------

    def durations(self) -> tuple[dict, dict]:
        """Total and self seconds per span name.  Spans nest strictly on one
        thread, so the part of a span covered by its children is the sum of
        their durations."""
        total: dict[str, float] = {}
        child: dict[int, float] = {}
        for sid, name, start, end, parent in self.spans:
            total[name] = total.get(name, 0.0) + (end - start)
            if parent is not None:
                child[parent] = child.get(parent, 0.0) + (end - start)
        own: dict[str, float] = {}
        for sid, name, start, end, _ in self.spans:
            own[name] = (own.get(name, 0.0) + (end - start)
                         - child.get(sid, 0.0))
        return total, own

    def metrics(self) -> dict[str, float]:
        total, _ = self.durations()
        out = {}
        for name, unit, _ in METRICS:
            if unit == "s":
                # span time, or a time the call hooks counted directly
                # (experiments.prefetch.s, which is no span of its own)
                base = name[:-2]
                out[name] = total.get(base, 0.0) + self.counts.get(name, 0.0)
            else:
                out[name] = self.counts.get(name, 0)
        return out

    def dump(self, t0: float) -> dict:
        total, own = self.durations()
        return {
            "spans": [[sid, name, start - t0, end - t0, parent]
                      for sid, name, start, end, parent in self.spans],
            "total_s": total, "self_s": own, "counts": self.counts,
        }


def layer_targets(experiments, ci_solver, exponents, synthesis, typicality):
    """The wrapped functions, the names the program calls them by, and the
    counts read from each call's arguments and result."""

    def plan_done(tr, result, span, *args, **kwargs):
        covered = sum(result.wall_times)
        tr.count("experiments.prefetch.s", (span[3] - span[2]) - covered)

    def ci_done(tr, sol, span, *args, **kwargs):
        tr.count("ci_solver.wyner_ci.restarts", sol.restarts_used)

    def grid_done(tr, grid, span, *args, **kwargs):
        pruned = int((grid.values == -float("inf")).sum())
        tr.count("exponents.tabulate_omega.cells", grid.values.size - pruned)
        tr.count("exponents.tabulate_omega.pruned", pruned)

    def omega_done(tr, res, span, *args, **kwargs):
        if tr.inside("exponents.f_rate"):
            tr.count("exponents.big_omega_min.refine_calls")

    def code_done(tr, code, span, *args, **kwargs):
        tr.count("synthesis.build_code.codewords", code.m_count)

    def estimate_done(tr, est, span, *args, **kwargs):
        if est.method == "monte_carlo":
            tr.count("synthesis.mc_samples", est.samples)

    def joint_done(tr, ex, span, *args, **kwargs):
        tr.count("synthesis.dense_cells", ex.mass.size)

    def check_done(tr, report, span, base, n, *args, **kwargs):
        tr.count("synthesis.dense_cells", base.nx ** n * base.ny ** n)

    return [
        ("experiments.run_plan", [(experiments, "run_plan")], plan_done),
        ("ci_solver.wyner_ci", [(ci_solver, "wyner_ci"),
                                (experiments, "wyner_ci")], ci_done),
        ("exponents.tabulate_omega", [(exponents, "tabulate_omega")],
         grid_done),
        ("exponents.f_rate", [(exponents, "f_rate")], None),
        ("exponents.big_omega_min", [(exponents, "big_omega_min")],
         omega_done),
        ("synthesis.build_code", [(synthesis, "build_code")], code_done),
        ("synthesis.estimate_tv", [(synthesis, "estimate_tv")],
         estimate_done),
        ("synthesis.estimate_renyi", [(synthesis, "estimate_renyi")],
         estimate_done),
        ("synthesis.induced_joint_exact",
         [(synthesis, "induced_joint_exact")], joint_done),
        ("synthesis.truncation_check", [(synthesis, "truncation_check")],
         check_done),
        ("synthesis.rate_bound_check", [(synthesis, "rate_bound_check")],
         check_done),
        ("typicality.cond_typical_defect_exact",
         [(typicality, "cond_typical_defect_exact")], None),
    ]


def span_cost(samples: int = 20000) -> float:
    """Seconds a span adds to one call, measured on a no-op function."""
    def noop():
        return None
    tr = Tracer()
    traced = tr.wrap("noop", noop)
    t0 = time.perf_counter()
    for _ in range(samples):
        noop()
    bare = time.perf_counter() - t0
    t0 = time.perf_counter()
    for _ in range(samples):
        traced()
    return max(time.perf_counter() - t0 - bare, 0.0) / samples
