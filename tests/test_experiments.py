"""Plan parsing, sweep execution semantics, and output rendering."""

import json
import math
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from commoninfo import experiments, exponents, fixtures
from commoninfo import typicality
from commoninfo.ci_solver import wyner_ci
from commoninfo.errors import ConfigError
from commoninfo.experiments import (RateSpec, parse_plan,
                                    render_summary, run_plan, to_csv, to_json)
from commoninfo.synthesis import build_code

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
    # a factor that parses still meets the check on the C it multiplies
    with pytest.raises(ConfigError, match="nonnegative"):
        RateSpec("0.5C").resolve(math.nan)


@pytest.mark.parametrize("rate", ["nan", "inf", "-inf", "nanC", "infC",
                                  "-0.5C", "-1"])
@pytest.mark.parametrize("kind", ["exponent", "simulate"])
def test_negative_or_non_finite_rates_are_config_errors(kind, rate):
    # they used to parse and then fail every cell of the run
    section = ("[exponent]\nsources = dsbs01\n" if kind == "exponent"
               else "[simulate]\ncouplings = dsbs01\nn = 4\n")
    with pytest.raises(ConfigError, match=rf"^\[{kind}\] rates = "
                       r"'[^']*': rate must be nonnegative and finite"):
        parse_plan(f"[plan]\nname = x\n{section}rates = 0.5 {rate}\n")


@pytest.mark.parametrize("text, override, match", [
    ("[plan]\nseed = -1\n", None, r"\[plan\] seed must be >= 0, got -1"),
    ("[plan]\nseed = 4\n", -1, r"\[plan\] seed must be >= 0, got -1"),
    ("[plan]\n[simulate]\ncouplings = dsbs01\nrates = 0.5\nn = 4\n"
     "seeds = 0 -3\n", None, r"\[simulate\] seeds must be >= 0, got -3"),
], ids=["plan-seed", "seed-override", "simulate-seeds"])
def test_negative_seeds_are_config_errors(text, override, match):
    # SeedSequence used to reject them in every simulate cell
    with pytest.raises(ConfigError, match=match):
        parse_plan(text, seed_override=override)


@pytest.mark.parametrize("keys, match", [
    ("n = 0", r"\[simulate\] n must be >= 1, got 0"),
    ("n = 4 -2", r"\[simulate\] n must be >= 1, got -2"),
    ("n = 4\neps = -1", r"\[simulate\] eps = -1.0 not in \(0, 1\]"),
    ("n = 4\neps_prime = 0",
     r"\[simulate\] eps_prime = 0.0 not in \(0, 1.0\)"),
    ("n = 4\neps = 0.3\neps_prime = 0.5",
     r"\[simulate\] eps_prime = 0.5 not in \(0, 0.3\)"),
    ("n = 4\neps = none\neps_prime = 1.0",
     r"\[simulate\] eps_prime = 1.0 not in \(0, 1.0\)"),
    ("n = 4\ns = 2", r"\[simulate\] s = '2': s must lie in \[-1, 1\]"),
    ("n = 4\ns = 1 -3", r"\[simulate\] s = '1 -3': s must lie in"),
    ("n = 4\ns = nan", r"\[simulate\] s = 'nan': s must lie in"),
], ids=["n-zero", "n-negative", "eps-negative", "eps-prime-zero",
        "eps-prime-above-eps", "eps-prime-one-untruncated", "s-above-one",
        "s-below-minus-one", "s-nan"])
def test_bad_block_length_or_eps_is_a_config_error(keys, match):
    # each used to parse, fail every cell in build_code, SynthesisCode or
    # the estimators and exit 3
    with pytest.raises(ConfigError, match=match):
        parse_plan("[plan]\nname = x\n[simulate]\ncouplings = dsbs01\n"
                   f"rates = 0.5C\n{keys}\n")


#: a tolerance of a truncation pair: none, 0, negative, NaN, in (0, 1] or
#: above it
_TOLERANCES = st.one_of(
    st.none(), st.sampled_from([0.0, -0.0, 1.0, math.nan]),
    st.floats(-2.0, 0.0, exclude_max=True),
    st.floats(0.0, 1.0, exclude_min=True),
    st.floats(1.0, 3.0, exclude_min=True))


def _rule_takes(eps, eps_prime) -> bool:
    try:
        typicality.check_truncation(eps, eps_prime)
    except ConfigError:
        return False
    return True


@settings(derandomize=True, max_examples=150, deadline=None)
@given(eps=_TOLERANCES, eps_prime=_TOLERANCES)
def test_the_parser_and_build_code_take_the_pairs_the_rule_takes(eps,
                                                                 eps_prime):
    # the parser, SynthesisCode and build_code each held a copy of the rule,
    # and SynthesisCode took eps' = 0, which the other two rejected
    takes = _rule_takes(eps, eps_prime)
    text = ("[plan]\nname = x\n[simulate]\ncouplings = dsbs01\n"
            "rates = 0.3\nn = 4\n"
            + "".join(f"{key} = {'none' if v is None else repr(v)}\n"
                      for key, v in (("eps", eps), ("eps_prime", eps_prime))))
    try:
        parse_plan(text)
    except ConfigError:
        assert not takes
    else:
        assert takes
    # Q_W is uniform and n = 4, so every eps' window holds the type (2, 2)
    base = fixtures.dsbs_optimal_coupling(0.1)
    try:
        build_code(base, 4, 0.3, eps, eps_prime, seed=0)
    except ConfigError:
        assert not takes
    else:
        assert takes


@pytest.mark.parametrize("section, key", [
    ("[simulate]\ncouplings = dsbs01\nrates = 0.5C\n", "n"),
    ("[simulate]\nrates = 0.5C\nn = 4\n", "couplings"),
    ("[simulate]\ncouplings = dsbs01\nrates = 0.5C\nn = 4\nmeasure =\n",
     "measure"),
    ("[exponent]\nsources = dsbs01\n", "rates"),
    ("[exponent]\nrates = 0.5C\n", "sources"),
    ("[ci]\n", "sources"),
], ids=["simulate-n", "simulate-couplings", "simulate-measure",
        "exponent-rates", "exponent-sources", "ci-sources"])
def test_a_section_that_sweeps_no_cell_is_a_config_error(section, key):
    # each used to parse and sweep 0 rows with exit 0
    kind = section[1:section.index("]")]
    with pytest.raises(ConfigError, match=rf"^\[{kind}\] {key} is missing "
                       r"or empty"):
        parse_plan("[plan]\nname = x\n" + section)


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


@pytest.mark.parametrize("name", ["", ".", "..", "a/b", "../x", "/abs"]
                         + ([r"a\b"] if os.altsep else []))
def test_a_plan_name_that_is_not_one_file_name_is_a_config_error(name):
    # 'a/b' once ran the sweep and then died writing its files, '../x'
    # wrote outside the output directory and '' wrote a hidden '.csv'
    with pytest.raises(ConfigError, match=r"^\[plan\] name = .*: must be "
                       r"one plain file name"):
        parse_plan(f"[plan]\nname = {name}\n[ci]\nsources = copy\n")


@pytest.mark.parametrize("name", ["paper_suite", "ci_sources", "ci",
                                  "exponent", "simulate", "run%1", "plan"])
def test_shipped_and_benchmark_plan_names_are_valid(name):
    assert parse_plan(f"[plan]\nname = {name}\n").name == name


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


SIMULATE = ("[simulate]\ncouplings = dsbs01\nrates = 0.5C\nn = 4\n"
            "measure = tv\n")


@pytest.mark.parametrize("section, key, value", [
    ("simulate", "n", "4.5"),
    ("simulate", "eps", "abc"),
    ("simulate", "eps_prime", "1 2"),
    ("simulate", "measure", "kl"),
    ("simulate", "s", "one"),
    ("simulate", "seeds", "0 x"),
    ("simulate", "samples", "many"),
    ("simulate", "rates", "0.5D"),
    ("plan", "seed", "abc"),
    ("ci", "restarts", "2.0"),
])
def test_parse_plan_names_the_section_and_key_of_a_malformed_value(
        section, key, value):
    plan = {"plan": {"name": "x"}, "ci": {"sources": "dsbs01"},
            "simulate": {"couplings": "dsbs01", "rates": "0.5C", "n": "4"}}
    plan[section][key] = value
    text = "".join(f"[{name}]\n" + "".join(f"{k} = {v}\n"
                                           for k, v in keys.items())
                   for name, keys in plan.items())
    with pytest.raises(ConfigError, match=rf"^\[{section}\] {key}"):
        parse_plan(text)


@pytest.mark.parametrize("text, match", [
    ("[ci]\nsources = dsbs01\nrestart = 1\n", r"\[ci\] unknown key 'restart'"),
    (SIMULATE + "sample = 64\n", r"\[simulate\] unknown key 'sample'"),
    ("[source.a]\nfixture = copy\nrates = 1\n",
     r"\[source.a\] unknown key 'rates'"),
    ("[DEFAULT]\nrestarts = 4\n", r"\[plan\] unknown key 'restarts'"),
    ("[cii]\nsources = dsbs01\n", r"unknown section \[cii\]"),
])
def test_parse_plan_rejects_unknown_keys_and_sections(text, match):
    with pytest.raises(ConfigError, match=match):
        parse_plan("[plan]\nname = x\n" + text)


@pytest.mark.parametrize("text, match", [
    ("[source.a]\npi =\n  0.5 abc\n  0.25 0.25\n",
     "^line 2: could not convert string to float: 'abc'$"),
    ("[source.a]\npi =\n  # no row\n", "^no numeric rows found$"),
    ("[ci]\nsources = dsbs01\nnot a key and value\n", "^bad plan syntax: "),
    ("[source.a]\n[ci]\nsources = a\n",
     r"^\[source.a\] needs 'fixture' or 'pi'$"),
    ("[coupling.a]\n", r"^\[coupling.a\] needs 'fixture'$"),
], ids=["non-numeric-token", "no-numeric-row", "malformed-ini",
        "source-without-fixture-or-pi", "coupling-without-fixture"])
def test_parse_plan_rejects_malformed_outside_input(text, match):
    with pytest.raises(ConfigError, match=match):
        parse_plan("[plan]\nname = x\n" + text)


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


def test_run_plan_writes_exact_order_two_rows_past_the_dense_cap():
    # n = 12 is past the dense cap; the untruncated order-2 row comes from
    # the count tensor, the s = 0.5 row still from samples
    result = run_plan(parse_plan(
        "[plan]\nname = x\n[simulate]\ncouplings = dsbs01\nrates = 1.2C\n"
        "n = 12\nmeasure = renyi\ns = 1.0 0.5\neps = none\n"
        "eps_prime = 0.5\nsamples = 200\n"))
    assert result.n_errors == 0
    got = {row["s"]: (row["method"], row["std_error"] == 0.0)
           for row in result.rows}
    assert got == {1.0: ("exact", True), 0.5: ("monte_carlo", False)}


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


def test_render_summary_slope():
    text = ("[plan]\nname = decay\nseed = 3\n[simulate]\n"
            "couplings = dsbs01\ns = 1.0\nrates = 1.2C\nn = 4 6\nseeds = 0\n"
            "measure = renyi\neps = none\neps_prime = 0.5\n")
    result = run_plan(parse_plan(text))
    assert result.n_errors == 0
    summary = render_summary(result)
    assert "fitted slope" in summary


def test_render_summary_fits_no_slope_to_infinite_values():
    # at eps = 0.2 every codeword has an empty shell: each cell reads the
    # structural-zero inf, once fitted as the slope nan
    text = ("[plan]\nname = zeros\nseed = 3\n[simulate]\n"
            "couplings = dsbs01\nrates = 1.2C\nn = 4 6 8\n"
            "measure = renyi\neps = 0.2\neps_prime = 0.1\n")
    result = run_plan(parse_plan(text))
    assert result.n_errors == 0
    assert result.rows and all(row["value"] == math.inf
                               for row in result.rows)
    summary = render_summary(result)
    assert "value=inf" in summary
    assert "slope" not in summary and "nan" not in summary


def test_to_json_writes_non_finite_values_as_the_csv_does():
    # a structural-zero cell was once dumped as the bare token Infinity
    text = ("[plan]\nname = zeros\nseed = 3\n[simulate]\n"
            "couplings = dsbs01\nrates = 1.2C\nn = 4\n"
            "measure = renyi\neps = 0.2\neps_prime = 0.1\n")
    result = run_plan(parse_plan(text))
    assert [row["value"] for row in result.rows] == [math.inf]

    def reject(token):
        raise ValueError(f"not strict JSON: {token}")

    rows = json.loads(to_json(result), parse_constant=reject)["rows"]
    assert [row["value"] for row in rows] == ["inf"]
    assert to_csv(result).splitlines()[1].split(",")[10] == "inf"


@pytest.mark.parametrize("threads", [0, 2])
def test_run_plan_rejects_threads_other_than_one(threads):
    with pytest.raises(ConfigError, match=rf"cells run in one thread; "
                       rf"threads must be 1, got {threads}"):
        run_plan(parse_plan(TINY_PLAN), threads=threads)


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
    result = run_plan(parse_plan(MEMO_PLAN))
    assert result.n_errors == 0
    assert len(calls) == len(set(calls)) == 2
    f_half, tv = result.rows[0], result.rows[2]
    assert tv["r_abs"] == f_half["r_abs"]
    assert tv["bound"] == 1.0 - 4.0 * math.exp(-tv["n"] * f_half["value"])


def test_failing_exponent_cell_fails_soft(monkeypatch):
    # a multiple of C that overflows to inf (C = ln 3 here) is rejected in
    # its row, before any inner solve
    def no_solve(pi, pt, **kw):
        raise AssertionError("an inner solve ran")

    monkeypatch.setattr(exponents, "big_omega_min", no_solve)
    t = "0.3333333333333333"
    text = ("[plan]\nname = x\n[source.three]\n"
            f"pi =\n  {t} 0 0\n  0 {t} 0\n  0 0 {t}\n"
            "[exponent]\nsources = three\nrates = 1.7e308C\n")
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


def test_ci_cells_on_one_joint_share_one_c():
    # one C per joint: both [ci] rows, and the 0.5C of the coupling with the
    # same XY marginal, read wyner_ci's one answer; an older plan's
    # restarts values are accepted and change nothing
    text = ("[plan]\nname = x\nseed = 4\n[ci.few]\nsources = dsbs01\n"
            "restarts = 1\n[ci.many]\nsources = dsbs01\nrestarts = 16\n"
            "[simulate]\ncouplings = dsbs01\nrates = 0.5C\nn = 3\n"
            "measure = renyi\neps = none\neps_prime = none\n")
    plan = parse_plan(text)
    few, many, sim = run_plan(plan).rows
    c = wyner_ci(plan.sources["dsbs01"]).value
    assert few["value"] == many["value"] == c
    assert sim["r_abs"] == 0.5 * c


def test_ci_rows_do_not_depend_on_the_plan_seed():
    # the plan seed feeds the sampled cells only; DSBES(0.6) read 6.9e-6
    # above h(0.6) at every solver seed the plan used to pass on
    text = ("[plan]\nname = x\n[source.dsbes]\npi =\n"
            "  0.2 0.0 0.3\n  0.0 0.2 0.3\n[ci]\nsources = dsbes dsbs01\n")
    rows = [[r["value"] for r in run_plan(parse_plan(text, seed)).rows]
            for seed in (0, 7)]
    assert rows[0] == rows[1]
    h = -0.6 * math.log(0.6) - 0.4 * math.log(0.4)
    assert rows[0][0] == pytest.approx(h, abs=1e-12)


def test_rate_multiples_read_the_c_of_the_ci_row():
    # the 0.5C rate resolves against the C the [ci] row reports
    text = ("[plan]\nname = x\nseed = 0\n[ci]\nsources = dsbs01\n"
            "[exponent]\nsources = dsbs01\nrates = 0.5C\n")
    ci_row, exp_row = run_plan(parse_plan(text)).rows
    assert exp_row["error"] == ""
    assert exp_row["r_abs"] == 0.5 * ci_row["value"]


COUNT_PLAN = """
[plan]
name = count
seed = 1

[ci]
sources = dsbs01 product
restarts = 2

[ci.again]
sources = dsbs01
restarts = 3

[exponent]
sources = dsbs01 product
rates = 0.5C 0.9C 0.5C

[simulate]
couplings = dsbs01
rates = 0.5C 0.9C
n = 3
measure = tv renyi
samples = 64
"""


def test_shared_values_are_solved_once_per_joint_and_rate(monkeypatch):
    ci_calls, f_calls = [], []
    solve_ci, solve_f = experiments.wyner_ci, exponents.f_rate

    def counted_ci(pi):
        ci_calls.append(pi.mass.tobytes())
        return solve_ci(pi)

    def counted_f(pi, r_abs, **kw):
        f_calls.append((pi.mass.tobytes(), r_abs))
        return solve_f(pi, r_abs, **kw)

    monkeypatch.setattr(experiments, "wyner_ci", counted_ci)
    monkeypatch.setattr(exponents, "f_rate", counted_f)
    result = run_plan(parse_plan(COUNT_PLAN))
    assert result.n_errors == 0
    # one solve each for dsbs01 and product
    assert len(ci_calls) == len(set(ci_calls)) == 2
    # dsbs01 at 0.5C and 0.9C (shared with the coupling's TV cells), and
    # product once: its 0.5C and 0.9C are both the absolute rate 0
    assert len(f_calls) == len(set(f_calls)) == 3
    rows = {(r["kind"], r["source"], r["r_spec"], r["quantity"]): r
            for r in result.rows}
    c = rows[("ci", "dsbs01", "", "wyner_ci")]["value"]
    for spec, k in (("0.5C", 0.5), ("0.9C", 0.9)):
        assert rows[("exponent", "dsbs01", spec, "f_rate")]["r_abs"] == k * c
        assert rows[("simulate", "dsbs01", spec, "tv")]["r_abs"] == k * c


def test_a_failed_shared_solve_is_raised_to_every_cell(monkeypatch):
    calls = []

    def broken(pi, r_abs, **kw):
        calls.append(r_abs)
        raise ConfigError("no solve")

    monkeypatch.setattr(exponents, "f_rate", broken)
    text = ("[plan]\nname = x\n[ci]\nsources = product\nrestarts = 2\n"
            "[exponent]\nsources = product\nrates = 0.1 0.1\n")
    result = run_plan(parse_plan(text))
    assert result.n_errors == 2 and len(calls) == 1
    assert all(r["error"] == "ConfigError: no solve"
               for r in result.rows[1:])


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

