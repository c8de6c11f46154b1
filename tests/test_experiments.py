"""Plan parsing, sweep execution semantics, and output rendering."""

import math

import pytest

from commoninfo import exponents
from commoninfo.ci_solver import wyner_ci
from commoninfo.errors import ConfigError
from commoninfo.experiments import (RateSpec, parse_plan,
                                    render_summary, run_plan, to_csv, to_json)

TINY_PLAN = """
[plan]
name = tiny
seed = 5

[ci]
sources = product
restarts = 2

[simulate]
couplings = product
s = 1.0
rates = 0.0
n = 3 4
seeds = 0
measure = renyi
eps = none
eps_prime = none
samples = 64
"""


def test_rate_spec():
    assert RateSpec("0.25").resolve(1.0) == 0.25
    assert not RateSpec("0.25").needs_ci
    assert RateSpec("0.5C").needs_ci
    assert RateSpec("0.5C").resolve(0.6) == pytest.approx(0.3)
    assert RateSpec("1.2c").resolve(0.5) == pytest.approx(0.6)
    with pytest.raises(ConfigError, match="nonnegative"):
        RateSpec("-0.1").resolve(0.0)


def test_parse_plan_structure():
    plan = parse_plan(TINY_PLAN)
    assert plan.name == "tiny" and plan.seed == 5
    assert "product" in plan.sources and "product" in plan.couplings
    assert len(plan.ci_cells) == 1
    assert len(plan.simulate_cells) == 2
    cell = plan.simulate_cells[0]
    assert cell["eps"] is None and cell["eps_prime"] is None
    assert cell["measure"] == "renyi" and cell["samples"] == 64


def test_parse_plan_overrides():
    plan = parse_plan(TINY_PLAN, seed_override=99, out_override="elsewhere")
    assert plan.seed == 99 and plan.out == "elsewhere"


def test_parse_plan_inline_source():
    text = ("[plan]\nname = x\n[source.half]\npi =\n  0.25 0.25\n"
            "  0.25 0.25\n[ci]\nsources = half\nrestarts = 2\n")
    plan = parse_plan(text)
    assert plan.sources["half"].dims == (2, 2)


def test_parse_plan_errors():
    with pytest.raises(ConfigError):
        parse_plan("[ci]\nsources = product\n")        # no [plan]
    with pytest.raises(ConfigError):
        parse_plan("[plan]\nname = x\n[simulate]\ncouplings = product\n"
                   "rates = 0.1\nn = 3\nmeasure = wat\n")
    with pytest.raises(ConfigError):
        parse_plan("[plan]\nname = x\n[ci]\nsources = no_such_fixture\n")


@pytest.mark.parametrize("restarts", [0, -2])
def test_parse_plan_rejects_non_positive_restarts(restarts):
    with pytest.raises(ConfigError, match="restarts must be >= 1"):
        parse_plan(f"[plan]\nname = x\n[ci]\nsources = dsbs01\n"
                   f"restarts = {restarts}\n")


@pytest.mark.parametrize("samples", [0, 1])
def test_parse_plan_rejects_fewer_than_two_samples(samples):
    with pytest.raises(ConfigError, match="samples must be >= 2"):
        parse_plan("[plan]\nname = x\n[simulate]\ncouplings = dsbs01\n"
                   f"rates = 0.5C\nn = 12\nmeasure = tv renyi\n"
                   f"samples = {samples}\n")


def test_run_plan_values_and_rows():
    result = run_plan(parse_plan(TINY_PLAN))
    assert result.n_errors == 0
    assert len(result.rows) == 3
    ci_row = result.rows[0]
    assert ci_row["kind"] == "ci"
    assert abs(ci_row["value"]) < 1e-6          # product source: zero CI
    for row in result.rows[1:]:
        # rate 0 with one untruncated codeword: P = pi^n exactly
        assert row["kind"] == "simulate"
        assert row["method"] == "exact"
        assert abs(row["value"]) < 1e-9


def test_run_plan_fail_soft():
    text = ("[plan]\nname = x\n[simulate]\ncouplings = product\n"
            "s = 1.0\nrates = 5.0\nn = 10\nmeasure = renyi\n"
            "eps = none\neps_prime = none\n")
    result = run_plan(parse_plan(text))
    assert result.n_errors == 1
    row = result.rows[0]
    assert "ResourceBudgetError" in row["error"]
    assert row["value"] == ""
    # the failure is still reported in the summary
    assert "FAILED" in render_summary(result)


def test_csv_and_json_deterministic():
    a = run_plan(parse_plan(TINY_PLAN))
    b = run_plan(parse_plan(TINY_PLAN))
    assert to_csv(a) == to_csv(b)
    assert to_json(a) == to_json(b)
    header = to_csv(a).splitlines()[0]
    assert header.startswith("cell_id,kind,source")


def test_threaded_run_matches_serial():
    serial = run_plan(parse_plan(TINY_PLAN), threads=1)
    threaded = run_plan(parse_plan(TINY_PLAN), threads=4)
    assert to_csv(serial) == to_csv(threaded)


def test_render_summary_slope():
    text = ("[plan]\nname = decay\nseed = 3\n[simulate]\n"
            "couplings = dsbs01\ns = 1.0\nrates = 1.2C\nn = 4 6\nseeds = 0\n"
            "measure = renyi\neps = none\neps_prime = 0.5\n")
    result = run_plan(parse_plan(text))
    assert result.n_errors == 0
    summary = render_summary(result)
    assert "fitted slope" in summary


MEMO_PLAN = """
[plan]
name = memo
seed = 2

[exponent]
sources = dsbs01
rates = 0.5C 0.9C

[simulate]
couplings = dsbs01
rates = 0.5C
n = 4
measure = tv
eps = 1.0
eps_prime = 0.5
samples = 64
"""


def test_f_rate_runs_once_per_source_and_rate(monkeypatch):
    calls = []
    f_rate = exponents.f_rate

    def counted(pi, r_abs, **kw):
        calls.append(r_abs)
        return f_rate(pi, r_abs, **kw)

    monkeypatch.setattr(exponents, "f_rate", counted)
    serial = run_plan(parse_plan(MEMO_PLAN), threads=1)
    assert serial.n_errors == 0
    assert len(calls) == len(set(calls)) == 2
    f_half, tv = serial.rows[0], serial.rows[2]
    assert tv["r_abs"] == f_half["r_abs"]
    assert tv["bound"] == 1.0 - 4.0 * math.exp(-tv["n"] * f_half["value"])
    threaded = run_plan(parse_plan(MEMO_PLAN), threads=2)
    assert to_csv(threaded) == to_csv(serial)


def test_failing_exponent_cell_fails_soft(monkeypatch):
    # a negative rate is rejected before any inner solve
    def no_solve(pi, pt, **kw):
        raise AssertionError("an inner solve ran")

    monkeypatch.setattr(exponents, "big_omega_min", no_solve)
    text = ("[plan]\nname = x\n[exponent]\nsources = product\n"
            "rates = -0.1\n")
    result = run_plan(parse_plan(text))
    assert result.n_errors == 1
    assert "rate must be nonnegative" in result.rows[0]["error"]


def test_label_shared_by_source_and_coupling_keeps_them_apart():
    # a source and a coupling may share a label; the coupling's 0.5C must be
    # resolved against its own (product, zero) CI, not the source's (ln 2)
    text = ("[plan]\nname = x\n[source.foo]\nfixture = copy\n"
            "[coupling.foo]\nfixture = product\n[ci]\nsources = foo\n"
            "restarts = 2\n[simulate]\ncouplings = foo\nrates = 0.5C\n"
            "n = 3\nmeasure = renyi\neps = none\neps_prime = none\n")
    result = run_plan(parse_plan(text))
    assert result.n_errors == 0
    ci_row, sim_row = result.rows
    assert ci_row["value"] == pytest.approx(math.log(2.0), abs=1e-6)
    assert abs(sim_row["r_abs"]) < 1e-6


def test_ci_cells_keep_their_own_restarts():
    text = ("[plan]\nname = x\nseed = 4\n[ci.few]\nsources = dsbs01\n"
            "restarts = 1\n[ci.many]\nsources = dsbs01\nrestarts = 16\n")
    plan = parse_plan(text)
    few, many = run_plan(plan).rows
    pi = plan.sources["dsbs01"]
    assert few["value"] == wyner_ci(pi, restarts=1, seed=plan.seed).value
    assert many["value"] == wyner_ci(pi, restarts=16, seed=plan.seed).value


def test_run_plan_builds_no_omega_grid(monkeypatch):
    # F(R) comes from the ray search alone; the grid is a test reference
    def no_grid(pi, **kw):
        raise AssertionError("an Omega grid was built")

    monkeypatch.setattr(exponents, "tabulate_omega", no_grid)
    text = ("[plan]\nname = x\n[exponent.a]\nsources = product\n"
            "rates = 0.1, 0.2\n[exponent.b]\nsources = product, copy\n"
            "rates = 0.3\n")
    result = run_plan(parse_plan(text))
    assert result.n_errors == 0
    # product has C = 0, so F = 0 at every rate; copy has C = ln 2 > 0.3
    *product, copy = [row["value"] for row in result.rows]
    assert product == [0.0, 0.0, 0.0] and copy > 1e-3
