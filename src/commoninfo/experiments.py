"""Declarative experiment runner.

Plans are flat INI files: named sources (built-in fixtures or inline pmf
rows), then one section per cell family (`ci`, `exponent`, `simulate`) listing
the grid to sweep.  Rates may be absolute (nats/symbol) or multiples of the
common information, written like `0.5C`; multiples are resolved against the
joint's one C, the value its [ci] rows report, and the absolute rate is
recorded in every output row.

Cells run in cell-id order in one thread, and results do not depend on that
order: all randomness flows from the plan's master seed, and each cell draws
its own counter-based stream keyed by (master seed, cell id).  Only the
sampled cells draw: the common information, and with it every `kC` rate and
F(R), is a function of the joint alone, and a [ci] section's `restarts` key
is accepted for older plans but read by nothing.  The CSV is byte-identical
across reruns, so wall-clock times are kept on the in-memory result only.
"""

from __future__ import annotations

import configparser
import csv
import io
import itertools
import json
import math
import os
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .probability import JointPmf, load_joint_text
from . import fixtures
from .ci_solver import wyner_ci
from . import exponents
from . import synthesis
from . import typicality

CSV_COLUMNS = ["cell_id", "kind", "source", "coupling", "quantity", "s", "n",
               "seed", "r_spec", "r_abs", "value", "std_error", "method",
               "bound", "error"]


@dataclass(frozen=True)
class RateSpec:
    """Absolute rate or a multiple of the common information ('0.5C')."""

    text: str

    def __post_init__(self):
        # malformed text, and a factor below 0 or not finite, fail at parse
        # time; ``resolve`` still guards against a bad C
        if not 0.0 <= self.factor() < math.inf:
            raise ConfigError("rate must be nonnegative and finite")

    def factor(self) -> float:
        """The number, before the C of a multiple."""
        t = self.text.strip()
        return float(t[:-1] if self.needs_ci else t)

    def resolve(self, ci_value: float) -> float:
        rate = self.factor() * (ci_value if self.needs_ci else 1.0)
        if not 0.0 <= rate < math.inf:
            raise ConfigError(f"rate must be nonnegative and finite, "
                              f"got {rate}")
        return rate

    @property
    def needs_ci(self) -> bool:
        return self.text.strip().endswith(("C", "c"))


@dataclass
class ExperimentPlan:
    name: str
    seed: int
    out: str | None
    sources: dict = field(default_factory=dict)
    couplings: dict = field(default_factory=dict)
    ci_cells: list = field(default_factory=list)
    exponent_cells: list = field(default_factory=list)
    simulate_cells: list = field(default_factory=list)


@dataclass
class SweepResult:
    plan_name: str
    rows: list                           # dicts with CSV_COLUMNS keys
    wall_times: list                     # seconds per row, same order

    @property
    def n_errors(self) -> int:
        return sum(1 for r in self.rows if r["error"])


#: the keys each kind of section takes; a [DEFAULT] key counts in every one
_SECTION_KEYS = {
    "plan": {"name", "seed", "out"},
    "source": {"fixture", "pi"},
    "coupling": {"fixture"},
    "ci": {"sources", "restarts"},
    "exponent": {"sources", "rates"},
    "simulate": {"couplings", "s", "rates", "n", "seeds", "measure", "eps",
                 "eps_prime", "samples"},
}


def _value(sec, key: str, convert, default: str, minimum=None):
    """``convert(sec[key] or default)``; a ConfigError that names the
    section and the key if it does not convert or is below ``minimum`` (for
    a list, if some entry is)."""
    text = sec.get(key, default)
    try:
        value = convert(text.strip())
    except (ValueError, ConfigError) as exc:
        raise ConfigError(f"[{sec.name}] {key} = {text!r}: {exc}") from None
    if minimum is not None:
        least = min(value, default=minimum) if isinstance(value, list) \
            else value
        if least < minimum:
            raise ConfigError(f"[{sec.name}] {key} must be >= {minimum}, "
                              f"got {least}")
    return value


def _values(sec, key: str, convert, default: str, minimum=None) -> list:
    """A list key of a cell grid, split at commas and whitespace: one with
    no entry would sweep no cell."""
    values = _value(sec, key, lambda t: [
        convert(v) for v in t.replace(",", " ").split()], default, minimum)
    if not values:
        raise ConfigError(f"[{sec.name}] {key} is missing or empty, so the "
                          f"section sweeps no cell")
    return values


def _eps(text: str) -> float | None:
    return None if text == "none" else float(text)


def _order(text: str) -> float:
    s = float(text)
    if not -1.0 <= s <= 1.0:
        raise ConfigError("s must lie in [-1, 1]")
    return s


def _file_name(text: str) -> str:
    """A plan name, which names its output files: one plain file name."""
    if text in ("", ".", "..") or os.path.basename(text) != text:
        raise ConfigError("must be one plain file name")
    return text


def _measure(text: str) -> str:
    if text not in ("tv", "renyi"):
        raise ConfigError(f"unknown measure {text!r}")
    return text


def parse_plan(text: str, seed_override: int | None = None,
               out_override: str | None = None) -> ExperimentPlan:
    cp = configparser.ConfigParser(interpolation=None)   # values are literal
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"bad plan syntax: {exc}") from exc
    if "plan" not in cp:
        raise ConfigError("plan file needs a [plan] section")
    head = cp["plan"]
    if seed_override is not None:
        head["seed"] = str(seed_override)    # checked as the plan's own seed
    plan = ExperimentPlan(
        name=_value(head, "name", _file_name, "plan"),
        seed=_value(head, "seed", int, "0", minimum=0),
        out=head.get("out", None) if out_override is None else out_override)
    for section in cp.sections():
        sec, (kind, _, label) = cp[section], section.partition(".")
        known = _SECTION_KEYS.get(kind)
        if known is None:
            raise ConfigError(f"unknown section [{section}]")
        unknown = sorted(set(sec) - known)
        if unknown:
            raise ConfigError(f"[{section}] unknown key {unknown[0]!r}; "
                              f"known: {sorted(known)}")
        if kind == "source":
            if "fixture" in sec:
                plan.sources[label] = fixtures.resolve_source(sec["fixture"])
            elif "pi" in sec:
                plan.sources[label] = load_joint_text(sec["pi"])
            else:
                raise ConfigError(f"[{section}] needs 'fixture' or 'pi'")
        elif kind == "coupling":
            if "fixture" not in sec:
                raise ConfigError(f"[{section}] needs 'fixture'")
            plan.couplings[label] = fixtures.resolve_coupling(sec["fixture"])

    def labels(sec, key, table, resolve):
        # a label that no section defines names a fixture
        names = _values(sec, key, str, "")
        table.update({name: resolve(name) for name in names
                      if name not in table})
        return names

    for section in cp.sections():
        sec, kind = cp[section], section.split(".", 1)[0]
        if kind == "ci":
            # wyner_ci takes no setting; an older plan's restarts is
            # checked and then ignored
            _value(sec, "restarts", int, "1", minimum=1)
            for label in labels(sec, "sources", plan.sources,
                                fixtures.resolve_source):
                plan.ci_cells.append({"source": label})
        elif kind == "exponent":
            rates = _values(sec, "rates", RateSpec, "")
            for label, rate in itertools.product(
                    labels(sec, "sources", plan.sources,
                           fixtures.resolve_source), rates):
                plan.exponent_cells.append({"source": label, "rate": rate})
        elif kind == "simulate":
            eps = _value(sec, "eps", _eps, "1.0")
            eps_prime = _value(sec, "eps_prime", _eps, "0.5")
            try:
                typicality.check_truncation(eps, eps_prime)
            except ConfigError as exc:
                raise ConfigError(f"[{sec.name}] {exc}") from None
            fixed = {"eps": eps, "eps_prime": eps_prime,
                     "samples": _value(sec, "samples", int, "4096", minimum=2)}
            grid = itertools.product(
                labels(sec, "couplings", plan.couplings,
                       fixtures.resolve_coupling),
                _values(sec, "s", _order, "1.0"),
                _values(sec, "rates", RateSpec, ""),
                _values(sec, "n", int, "", minimum=1),
                _values(sec, "seeds", int, "0", minimum=0),
                _values(sec, "measure", _measure, "tv"))
            for label, s, rate, n, cell_seed, measure in grid:
                plan.simulate_cells.append({
                    "coupling": label, "s": s, "rate": rate, "n": n,
                    "seed": cell_seed, "measure": measure, **fixed})
    return plan


def read_text(path: str) -> str:
    """A plan or pmf file's UTF-8 text, or a ConfigError naming ``path``."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeError) as exc:
        raise ConfigError(f"cannot read {path!r}: "
                          f"{getattr(exc, 'strerror', None) or exc}") from None


def load_plan(path: str) -> ExperimentPlan:
    return parse_plan(read_text(path))


# ---------------------------------------------------------------------------
# execution
# ---------------------------------------------------------------------------

def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        return format(v, ".12g")
    return str(v)


#: joints of one shape whose cells all agree within this share plan values
_JOINT_ATOL = 1e-15


class _PlanContext:
    """The values cells share: one common information per joint, so that
    its [ci] rows and its `kC` rates read the same C, and one F(R) per
    (joint, absolute rate).  Cells run in cell-id order in one thread, and
    results do not depend on that order: each value is computed by the first
    cell that asks, and a failure is raised again to every later one.

    Joints are keyed by content, not by label, so a source and a coupling
    that share a label do not share values.  Every joint the plan names is
    registered up front; one that matches an earlier one cell by cell
    (within _JOINT_ATOL) takes its key, so a coupling's XY marginal shares
    the values of the source it was built for despite ulp-level
    differences."""

    def __init__(self, plan: ExperimentPlan):
        self.plan = plan
        self._joints = []
        for pi in [*plan.sources.values(),
                   *(c.xy_marginal() for c in plan.couplings.values())]:
            self._key(pi)
        self._values: dict[tuple, object] = {}     # a value or its error

    def _key(self, pi: JointPmf) -> int:
        """Index of the first joint matching ``pi``, registered if new."""
        for i, mass in enumerate(self._joints):
            if mass.shape == pi.mass.shape and np.all(
                    np.abs(mass - pi.mass) <= _JOINT_ATOL):
                return i
        self._joints.append(pi.mass)
        return len(self._joints) - 1

    def _once(self, key: tuple, compute):
        if key not in self._values:
            try:
                self._values[key] = compute()
            except Exception as exc:        # kept, so it is never recomputed
                self._values[key] = exc
        value = self._values[key]
        if isinstance(value, Exception):
            raise value
        return value

    def ci(self, pi: JointPmf):
        return self._once(("ci", self._key(pi)), lambda: wyner_ci(pi))

    def rate(self, pi: JointPmf, spec: RateSpec) -> float:
        return spec.resolve(self.ci(pi).value if spec.needs_ci else 0.0)

    def f_rate(self, pi: JointPmf, r_abs: float) -> float:
        key = ("f", self._key(pi), r_abs)
        return self._once(key, lambda: exponents.f_rate(
            pi, r_abs, ci=self.ci(pi)))


def _row(cell_id: int, kind: str, **fields) -> dict:
    return {**dict.fromkeys(CSV_COLUMNS, ""), "cell_id": cell_id,
            "kind": kind, **fields}


def _run_ci_cell(ctx: _PlanContext, cell_id: int, cell) -> dict:
    sol = ctx.ci(ctx.plan.sources[cell["source"]])
    return _row(cell_id, "ci", source=cell["source"], quantity="wyner_ci",
                method="exact", value=sol.value)


def _run_exponent_cell(ctx: _PlanContext, cell_id: int, cell) -> dict:
    pi = ctx.plan.sources[cell["source"]]
    r_abs = ctx.rate(pi, cell["rate"])
    return _row(cell_id, "exponent", source=cell["source"],
                quantity="f_rate", method="exact", r_spec=cell["rate"].text,
                r_abs=r_abs, value=ctx.f_rate(pi, r_abs))


def _run_simulate_cell(ctx: _PlanContext, cell_id: int, cell) -> dict:
    base = ctx.plan.couplings[cell["coupling"]]
    pi = base.xy_marginal()
    r_abs = ctx.rate(pi, cell["rate"])
    stream = np.random.SeedSequence([ctx.plan.seed, cell_id, cell["seed"]])
    cell_rng_seed = int(stream.generate_state(1)[0])
    code = synthesis.build_code(base, cell["n"], r_abs, cell["eps"],
                                cell["eps_prime"], cell_rng_seed)
    bound = ""
    if cell["measure"] == "tv":
        est = synthesis.estimate_tv(code, samples=cell["samples"],
                                    seed=cell_rng_seed)
        bound = 1.0 - 4.0 * math.exp(-cell["n"] * ctx.f_rate(pi, r_abs))
    else:
        est = synthesis.estimate_renyi(code, cell["s"],
                                       samples=cell["samples"],
                                       seed=cell_rng_seed)
    return _row(cell_id, "simulate", source=cell["coupling"],
                coupling=cell["coupling"], quantity=cell["measure"],
                s=cell["s"], n=cell["n"], seed=cell["seed"],
                r_spec=cell["rate"].text, r_abs=r_abs, value=est.point,
                std_error=est.std_error, method=est.method, bound=bound)


def run_plan(plan: ExperimentPlan, threads: int = 1) -> SweepResult:
    """Execute every cell in cell-id order; failures are recorded in-row and
    do not stop the run.  ``threads`` must be 1: it is kept only because the
    benchmark's workloads (``perfbench/workloads.py``) pass ``threads=1``."""
    if threads != 1:
        raise ConfigError(f"cells run in one thread; threads must be 1, "
                          f"got {threads}")
    ctx = _PlanContext(plan)
    runners = {"ci": _run_ci_cell, "exponent": _run_exponent_cell,
               "simulate": _run_simulate_cell}
    tasks = [(kind, cell) for kind in runners
             for cell in getattr(plan, kind + "_cells")]
    rows, wall_times = [], []
    for idx, (kind, cell) in enumerate(tasks):
        t0 = time.perf_counter()
        try:
            row = runners[kind](ctx, idx, cell)
        except Exception as exc:           # fail-soft: record, keep sweeping
            row = _row(idx, kind,
                       source=cell.get("source", cell.get("coupling", "")),
                       error=f"{type(exc).__name__}: {exc}")
        rows.append(row)
        wall_times.append(time.perf_counter() - t0)
    return SweepResult(plan_name=plan.name, rows=rows, wall_times=wall_times)


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
    # strict JSON: a non-finite float is written as the CSV writes it
    rows = [{c: _fmt(row[c]) if isinstance(row[c], float)
             and not math.isfinite(row[c]) else row[c] for c in CSV_COLUMNS}
            for row in result.rows]
    return json.dumps({"plan": result.plan_name, "n_errors": result.n_errors,
                       "rows": rows}, indent=2, sort_keys=True, default=_fmt,
                      allow_nan=False) + "\n"


def render_summary(result: SweepResult) -> str:
    """Plain-text tables; a series with finite positive values at two or
    more n gets a log-linear slope fitted to those values."""
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
            # log(value) is fitted where it is finite: a structural-zero
            # inf or a zero value joins no slope
            if (row["n"] != "" and isinstance(row["value"], float)
                    and 0.0 < row["value"] < math.inf):
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
