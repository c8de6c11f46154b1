"""Declarative experiment runner.

Plans are flat INI files: named sources (built-in fixtures or inline pmf
rows), then one section per cell family (`ci`, `exponent`, `simulate`) listing
the grid to sweep.  Rates may be absolute (nats/symbol) or multiples of the
common information, written like `0.5C`; multiples are resolved against a
freshly computed value and the absolute rate is recorded in every output row.

All randomness flows from the plan's master seed; each cell draws its own
counter-based stream keyed by (master seed, cell id), so results are
independent of execution order and thread count.  Rows are emitted in cell-id
order and the CSV is byte-identical across reruns.  Wall-clock times are kept
on the in-memory result only — they would break CSV reproducibility.
"""

from __future__ import annotations

import configparser
import csv
import io
import json
import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .errors import CommonInfoError, ConfigError
from .probability import JointPmf, MarkovCoupling, load_joint_text
from . import fixtures
from .ci_solver import wyner_ci
from . import exponents
from . import synthesis

CSV_COLUMNS = ["cell_id", "kind", "source", "coupling", "quantity", "s", "n",
               "seed", "r_spec", "r_abs", "value", "std_error", "method",
               "bound", "error"]


@dataclass(frozen=True)
class RateSpec:
    """Absolute rate or a multiple of the common information ('0.5C')."""

    text: str

    def resolve(self, ci_value: float) -> float:
        t = self.text.strip()
        rate = float(t[:-1]) * ci_value if self.needs_ci else float(t)
        if rate < 0:
            raise ConfigError("rate must be nonnegative")
        return rate

    @property
    def needs_ci(self) -> bool:
        return self.text.strip().endswith(("C", "c"))


@dataclass
class ExperimentPlan:
    name: str
    seed: int
    out: str | None
    sources: dict
    couplings: dict
    ci_cells: list = field(default_factory=list)
    exponent_cells: list = field(default_factory=list)
    simulate_cells: list = field(default_factory=list)


@dataclass
class SweepResult:
    plan_name: str
    rows: list                           # dicts with CSV_COLUMNS keys
    wall_times: list                     # seconds per row, same order
    n_errors: int


def _split(value: str) -> list[str]:
    return value.replace(",", " ").split()


def parse_plan(text: str, seed_override: int | None = None,
               out_override: str | None = None) -> ExperimentPlan:
    cp = configparser.ConfigParser()
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"bad plan syntax: {exc}") from exc
    if "plan" not in cp:
        raise ConfigError("plan file needs a [plan] section")
    head = cp["plan"]
    name = head.get("name", "plan")
    seed = seed_override if seed_override is not None else head.getint("seed", 0)
    out = out_override if out_override is not None else head.get("out", None)

    sources: dict[str, JointPmf] = {}
    couplings: dict[str, MarkovCoupling] = {}
    for section in cp.sections():
        if section.startswith("source."):
            label = section.split(".", 1)[1]
            sec = cp[section]
            if "fixture" in sec:
                sources[label] = fixtures.resolve_source(sec["fixture"])
            elif "pi" in sec:
                sources[label] = load_joint_text(sec["pi"])
            else:
                raise ConfigError(f"[{section}] needs 'fixture' or 'pi'")
        elif section.startswith("coupling."):
            label = section.split(".", 1)[1]
            sec = cp[section]
            if "fixture" not in sec:
                raise ConfigError(f"[{section}] needs 'fixture'")
            couplings[label] = fixtures.resolve_coupling(sec["fixture"])

    def lookup_source(label):
        if label in sources:
            return sources[label]
        src = fixtures.resolve_source(label)
        sources[label] = src
        return src

    def lookup_coupling(label):
        if label in couplings:
            return couplings[label]
        c = fixtures.resolve_coupling(label)
        couplings[label] = c
        return c

    plan = ExperimentPlan(name=name, seed=seed, out=out,
                          sources=sources, couplings=couplings)

    def sections_of(kind):
        return [cp[s] for s in cp.sections()
                if s == kind or s.startswith(kind + ".")]

    for sec in sections_of("ci"):
        restarts = sec.getint("restarts", 16)
        if restarts < 1:
            raise ConfigError(f"[{sec.name}] restarts must be >= 1, "
                              f"got {restarts}")
        for label in _split(sec.get("sources", "")):
            lookup_source(label)
            plan.ci_cells.append({"source": label, "restarts": restarts})
    for sec in sections_of("exponent"):
        for label in _split(sec.get("sources", "")):
            lookup_source(label)
            for r in _split(sec.get("rates", "")):
                plan.exponent_cells.append({
                    "source": label,
                    "rate": RateSpec(r),
                })
    for sec in sections_of("simulate"):
        samples = sec.getint("samples", 4096)
        if samples < 2:
            raise ConfigError(f"[{sec.name}] samples must be >= 2, "
                              f"got {samples}")
        eps = sec.get("eps", "1.0")
        eps_prime = sec.get("eps_prime", "0.5")
        for label in _split(sec.get("couplings", "")):
            lookup_coupling(label)
            for s in _split(sec.get("s", "1.0")):
                for r in _split(sec.get("rates", "")):
                    for n in _split(sec.get("n", "")):
                        for cell_seed in _split(sec.get("seeds", "0")):
                            for measure in _split(sec.get("measure", "tv")):
                                if measure not in ("tv", "renyi"):
                                    raise ConfigError(
                                        f"unknown measure {measure!r}")
                                plan.simulate_cells.append({
                                    "coupling": label,
                                    "s": float(s),
                                    "rate": RateSpec(r),
                                    "n": int(n),
                                    "seed": int(cell_seed),
                                    "measure": measure,
                                    "eps": None if eps == "none" else float(eps),
                                    "eps_prime": (None if eps_prime == "none"
                                                  else float(eps_prime)),
                                    "samples": samples,
                                })
    return plan


def load_plan(path: str, seed_override=None, out_override=None) -> ExperimentPlan:
    with open(path) as fh:
        return parse_plan(fh.read(), seed_override, out_override)


# ---------------------------------------------------------------------------
# execution
# ---------------------------------------------------------------------------

def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        return format(v, ".12g")
    return str(v)


#: joints of one shape whose cells all agree within this share plan caches
_JOINT_ATOL = 1e-15


class _PlanContext:
    """Caches the common information per (joint, restart count) and the
    exponent F(R) per (joint, absolute rate).

    Caches are keyed by content, not by label, so a source and a coupling
    that share a label do not share entries.  Every joint the plan names is
    registered up front, so parallel cells only read the registry.  A joint
    that matches an earlier one cell by cell (within _JOINT_ATOL) takes its
    key, so a coupling's XY marginal shares the entries of the source it was
    built for despite ulp-level differences."""

    def __init__(self, plan: ExperimentPlan):
        self.plan = plan
        self._joints = []
        for pi in [*plan.sources.values(),
                   *(c.xy_marginal() for c in plan.couplings.values())]:
            self._key(pi)
        self._ci = {}
        self._f = {}

    def _key(self, pi: JointPmf) -> int:
        """Index of the first registered joint that matches ``pi`` cell by
        cell; an unmatched joint is registered."""
        for i, mass in enumerate(self._joints):
            if mass.shape == pi.mass.shape and np.all(
                    np.abs(mass - pi.mass) <= _JOINT_ATOL):
                return i
        self._joints.append(pi.mass)
        return len(self._joints) - 1

    def ci(self, pi: JointPmf, restarts: int = 16):
        key = (self._key(pi), restarts)
        if key not in self._ci:
            self._ci[key] = wyner_ci(pi, restarts=restarts,
                                     seed=self.plan.seed)
        return self._ci[key]

    def rate(self, pi: JointPmf, spec: RateSpec) -> float:
        return spec.resolve(self.ci(pi).value if spec.needs_ci else 0.0)

    def f_rate(self, pi: JointPmf, r_abs: float) -> float:
        key = (self._key(pi), r_abs)
        if key not in self._f:
            self._f[key] = exponents.f_rate(pi, r_abs, seed=self.plan.seed,
                                            ci=self.ci(pi))
        return self._f[key]


def _blank_row(cell_id: int, kind: str) -> dict:
    row = {c: "" for c in CSV_COLUMNS}
    row["cell_id"] = cell_id
    row["kind"] = kind
    return row


def _run_ci_cell(ctx: _PlanContext, cell_id: int, cell) -> dict:
    row = _blank_row(cell_id, "ci")
    row["source"] = cell["source"]
    row["quantity"] = "wyner_ci"
    row["method"] = "exact"
    sol = ctx.ci(ctx.plan.sources[cell["source"]], cell["restarts"])
    row["value"] = sol.value
    return row


def _run_exponent_cell(ctx: _PlanContext, cell_id: int, cell) -> dict:
    row = _blank_row(cell_id, "exponent")
    label = cell["source"]
    pi = ctx.plan.sources[label]
    row["source"] = label
    row["quantity"] = "f_rate"
    row["method"] = "exact"
    row["r_spec"] = cell["rate"].text
    r_abs = ctx.rate(pi, cell["rate"])
    row["r_abs"] = r_abs
    row["value"] = ctx.f_rate(pi, r_abs)
    return row


def _run_simulate_cell(ctx: _PlanContext, cell_id: int, cell) -> dict:
    row = _blank_row(cell_id, "simulate")
    label = cell["coupling"]
    base = ctx.plan.couplings[label]
    pi = base.xy_marginal()
    row["coupling"] = label
    row["source"] = label
    row["s"] = cell["s"]
    row["n"] = cell["n"]
    row["seed"] = cell["seed"]
    row["quantity"] = cell["measure"]
    row["r_spec"] = cell["rate"].text
    r_abs = ctx.rate(pi, cell["rate"])
    row["r_abs"] = r_abs
    stream = np.random.SeedSequence([ctx.plan.seed, cell_id, cell["seed"]])
    cell_rng_seed = int(stream.generate_state(1)[0])
    code = synthesis.build_code(base, cell["n"], r_abs, cell["eps"],
                                cell["eps_prime"], cell_rng_seed)
    if cell["measure"] == "tv":
        est = synthesis.estimate_tv(code, samples=cell["samples"],
                                    seed=cell_rng_seed)
        f_val = ctx.f_rate(pi, r_abs)
        row["bound"] = 1.0 - 4.0 * math.exp(-cell["n"] * f_val)
    else:
        est = synthesis.estimate_renyi(code, cell["s"],
                                       samples=cell["samples"],
                                       seed=cell_rng_seed)
    row["value"] = est.point
    row["std_error"] = est.std_error
    row["method"] = est.method
    return row


def _prefetch_f_rate(ctx: _PlanContext, pi: JointPmf, spec: RateSpec) -> None:
    try:
        ctx.f_rate(pi, ctx.rate(pi, spec))
    except (CommonInfoError, ValueError):
        pass        # nothing is cached; the cell raises again and records it


def run_plan(plan: ExperimentPlan, threads: int = 1) -> SweepResult:
    """Execute every cell; failures are recorded in-row and do not stop the run."""
    ctx = _PlanContext(plan)
    tasks = ([("ci", c) for c in plan.ci_cells]
             + [("exponent", c) for c in plan.exponent_cells]
             + [("simulate", c) for c in plan.simulate_cells])
    runners = {"ci": _run_ci_cell, "exponent": _run_exponent_cell,
               "simulate": _run_simulate_cell}

    # rate multiples and F(R) values are shared state:
    # resolve them up front so parallel cells only read the caches
    for kind, cell in tasks:
        if kind == "ci":
            ctx.ci(plan.sources[cell["source"]], cell["restarts"])
        elif kind == "exponent":
            _prefetch_f_rate(ctx, plan.sources[cell["source"]], cell["rate"])
        elif kind == "simulate":
            pi = plan.couplings[cell["coupling"]].xy_marginal()
            if cell["rate"].needs_ci or cell["measure"] == "tv":
                ctx.ci(pi)
            if cell["measure"] == "tv":
                _prefetch_f_rate(ctx, pi, cell["rate"])

    def run_one(item):
        idx, (kind, cell) = item
        t0 = time.perf_counter()
        try:
            row = runners[kind](ctx, idx, cell)
        except Exception as exc:           # fail-soft: record, keep sweeping
            row = _blank_row(idx, kind)
            row["source"] = cell.get("source", cell.get("coupling", ""))
            row["error"] = f"{type(exc).__name__}: {exc}"
        return row, time.perf_counter() - t0

    items = list(enumerate(tasks))
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            outcomes = list(pool.map(run_one, items))
    else:
        outcomes = [run_one(it) for it in items]
    rows = [r for r, _ in outcomes]
    times = [t for _, t in outcomes]
    n_err = sum(1 for r in rows if r["error"])
    return SweepResult(plan_name=plan.name, rows=rows, wall_times=times,
                       n_errors=n_err)


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

def to_csv(result: SweepResult) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for row in result.rows:
        writer.writerow([_fmt(row[c]) for c in CSV_COLUMNS])
    return buf.getvalue()


def to_json(result: SweepResult) -> str:
    payload = {"plan": result.plan_name, "n_errors": result.n_errors,
               "rows": [{c: row[c] for c in CSV_COLUMNS}
                        for row in result.rows]}
    return json.dumps(payload, indent=2, sort_keys=True, default=_fmt) + "\n"


def render_summary(result: SweepResult) -> str:
    """Plain-text tables; series over n get a fitted log-linear slope."""
    lines = [f"plan: {result.plan_name}", f"rows: {len(result.rows)}",
             f"errors: {result.n_errors}", ""]
    groups: dict = {}
    for row in result.rows:
        if row["error"]:
            lines.append(f"cell {row['cell_id']} [{row['kind']}] "
                         f"FAILED: {row['error']}")
            continue
        key = (row["kind"], row["source"], row["quantity"],
               _fmt(row["s"]), row["r_spec"], _fmt(row["r_abs"]))
        groups.setdefault(key, []).append(row)
    for key in sorted(groups):
        kind, source, quantity, s, r_spec, r_abs = key
        rows = groups[key]
        head = f"[{kind}] {source} {quantity}"
        if s:
            head += f" s={s}"
        if r_spec:
            head += f" R={r_spec}"
            if r_abs:
                head += f" ({r_abs} nats)"
        lines.append(head)
        for row in sorted(rows, key=lambda r: (r["n"] or 0, r["seed"] or 0)):
            item = f"  n={_fmt(row['n']) or '-'} seed={_fmt(row['seed']) or '-'}" \
                   f" value={_fmt(row['value'])}"
            if row["std_error"]:
                item += f" se={_fmt(row['std_error'])}"
            if row["bound"] != "":
                item += f" bound={_fmt(row['bound'])}"
            lines.append(item)
        series: dict = {}
        for row in rows:
            if row["n"] != "" and isinstance(row["value"], float) and row["value"] > 0:
                series.setdefault(row["n"], []).append(row["value"])
        if len(series) >= 2:
            ns = np.array(sorted(series))
            means = np.array([float(np.mean(series[n])) for n in ns])
            slope = float(np.polyfit(ns, np.log(means), 1)[0])
            verdict = ("consistent with exponential decay" if slope < 0
                       else "no decay at these n")
            lines.append(f"  fitted slope of log(value) vs n: "
                         f"{slope:+.6f} ({verdict})")
        lines.append("")
    return "\n".join(lines) + "\n"
