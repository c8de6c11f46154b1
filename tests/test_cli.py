"""Command-line interface: argument handling, output files, exit codes."""

import os

import numpy as np
import pytest

from commoninfo.cli import EXIT_CELL_FAILURES, EXIT_CONFIG, EXIT_OK, main

TINY_PLAN = """
[plan]
name = tiny
seed = 5

[simulate]
couplings = product
s = 1.0
rates = 0.0
n = 3
seeds = 0
measure = renyi
eps = none
eps_prime = none
"""


def test_ci_fixture_source(capsys):
    assert main(["ci", "product", "--restarts", "2"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "wyner_ci" in out and "[ci] product" in out


def test_ci_pmf_file_source(tmp_path, capsys):
    path = tmp_path / "uniform4.txt"
    path.write_text("0.25 0.25\n0.25 0.25\n")
    assert main(["ci", str(path), "--restarts", "2"]) == EXIT_OK
    assert "uniform4" in capsys.readouterr().out


def test_ci_non_positive_restarts_is_config_error(capsys):
    assert main(["ci", "dsbs01", "--restarts", "0"]) == EXIT_CONFIG
    assert "restarts must be >= 1" in capsys.readouterr().err


def test_unknown_source_is_config_error(capsys):
    assert main(["ci", "nonexistent"]) == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


def test_sweep_writes_outputs(tmp_path, capsys):
    plan_path = tmp_path / "tiny.plan"
    plan_path.write_text(TINY_PLAN)
    out_dir = tmp_path / "results"
    assert main(["sweep", str(plan_path), "--out", str(out_dir)]) == EXIT_OK
    for ext in (".csv", ".json", ".txt"):
        assert (out_dir / ("tiny" + ext)).exists()
    csv_text = (out_dir / "tiny.csv").read_text()
    assert csv_text.splitlines()[0].startswith("cell_id,kind")
    assert len(csv_text.splitlines()) == 2


def test_sweep_seed_override_changes_nothing_exact(tmp_path):
    # the tiny plan is fully exact, so the seed must not alter values
    plan_path = tmp_path / "tiny.plan"
    plan_path.write_text(TINY_PLAN)
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert main(["sweep", str(plan_path), "--out", str(out_a)]) == EXIT_OK
    assert main(["sweep", str(plan_path), "--seed", "123",
                 "--out", str(out_b)]) == EXIT_OK
    row_a = (out_a / "tiny.csv").read_text().splitlines()[1].split(",")
    row_b = (out_b / "tiny.csv").read_text().splitlines()[1].split(",")
    assert row_a[10] == row_b[10]                  # the value column


def test_simulate_subcommand(capsys):
    code = main(["simulate", "product", "--rate", "0.0", "--n", "3",
                 "--measure", "renyi", "--eps", "none", "--eps-prime", "none"])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "[simulate] product renyi" in out


def test_simulate_fewer_than_two_samples_is_config_error(capsys):
    assert main(["simulate", "product", "--rate", "0.0", "--n", "3",
                 "--samples", "1"]) == EXIT_CONFIG
    assert "samples must be >= 2" in capsys.readouterr().err


def test_bad_plan_file_is_config_error(tmp_path, capsys):
    plan_path = tmp_path / "broken.plan"
    plan_path.write_text("[simulate]\ncouplings = product\n")
    assert main(["sweep", str(plan_path)]) == EXIT_CONFIG


def test_verify_single_cheap_criterion(capsys):
    assert main(["verify", "--only", "7"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "[PASS] criterion  7" in out
    assert "1/1 criteria passed" in out


def test_verify_rejects_options_it_does_not_use(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--seed", "1"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --seed" in capsys.readouterr().err
