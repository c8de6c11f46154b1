"""Command-line interface: argument handling, output files, exit codes."""

import csv
import itertools
import json
import os
import pathlib
import re
import shlex
import subprocess
import sys

import numpy as np
import pytest

import commoninfo
from commoninfo import cli
from commoninfo.acceptance import PLAN_PATH
from commoninfo.cli import EXIT_CELL_FAILURES, EXIT_CONFIG, EXIT_OK, main

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"

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
    assert main(["ci", "product"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "wyner_ci" in out and "[ci] product" in out


def test_ci_pmf_file_source(tmp_path, capsys):
    path = tmp_path / "uniform4.txt"
    path.write_text("0.25 0.25\n0.25 0.25\n")
    assert main(["ci", str(path)]) == EXIT_OK
    assert "uniform4" in capsys.readouterr().out


def test_ci_pmf_file_with_a_non_numeric_token_is_config_error(tmp_path,
                                                             capsys):
    path = tmp_path / "bad.txt"
    path.write_text("0.25 0.25\n0.25 x\n")
    assert main(["ci", str(path)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: line ") and "'x'" in err


@pytest.mark.parametrize("filename, label", [
    ("my joint.txt", "my_joint"), ("a,b.txt", "a_b"), ("50%.txt", "50%")])
def test_ci_labels_a_pmf_file_by_its_stem(tmp_path, filename, label):
    # a plan list separator in the stem was once read as two fixture names,
    # and a '%' as the start of a plan interpolation
    path = tmp_path / filename
    path.write_text("0.25 0.25\n0.25 0.25\n")
    assert main(["ci", str(path), "--out", str(tmp_path / "out")]) == EXIT_OK
    with open(tmp_path / "out" / "ci.csv", newline="") as fh:
        assert [row["source"] for row in csv.DictReader(fh)] == [label]


@pytest.mark.parametrize("argv", [
    ["sweep", "missing"], ["sweep", "directory"], ["sweep", "not-utf8"],
    ["ci", "directory"], ["ci", "not-utf8"]],
    ids=["sweep-missing", "sweep-dir", "sweep-bytes", "ci-dir", "ci-bytes"])
def test_an_unreadable_file_is_config_error(tmp_path, capsys, argv):
    # each once escaped as an OSError or UnicodeDecodeError traceback
    (tmp_path / "directory").mkdir()
    (tmp_path / "not-utf8").write_bytes(b"[plan]\nname = \xff\n")
    path = str(tmp_path / argv[1])
    assert main([argv[0], path]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"config error: cannot read {path!r}: ")


def test_unknown_coupling_is_config_error(capsys):
    assert main(["simulate", "nonexistent", "--rate", "0.5",
                 "--n", "4"]) == EXIT_CONFIG
    assert "unknown coupling fixture 'nonexistent'" in capsys.readouterr().err


def test_ci_has_no_restarts_flag(capsys):
    # the solver takes no setting, so the flag is an unknown argument
    with pytest.raises(SystemExit) as exc:
        main(["ci", "dsbs01", "--restarts", "2"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --restarts" in capsys.readouterr().err


def test_unknown_source_is_config_error(capsys):
    assert main(["ci", "nonexistent"]) == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["ci"], ["exponent", "--rate", "0.5C"]],
                         ids=["ci", "exponent"])
def test_a_source_neither_fixture_nor_file_is_named_as_both(tmp_path, capsys,
                                                            argv):
    # a missing pmf file was once reported as an unknown source fixture
    path = str(tmp_path / "nope.txt")
    assert main([argv[0], path, *argv[1:]]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"config error: source {path!r} is neither a known "
                          f"fixture nor a readable file")


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


def test_plan_values_are_literal(tmp_path):
    # a '%' in a value was once read as the start of an interpolation
    plan_path = tmp_path / "percent.plan"
    plan_path.write_text(TINY_PLAN.replace("name = tiny", "name = run%1"))
    assert main(["sweep", str(plan_path), "--out", str(tmp_path)]) == EXIT_OK
    assert (tmp_path / "run%1.csv").exists()


def test_threads_is_an_unknown_option(tmp_path, capsys):
    # cells run in one thread, so the flag is an unknown argument
    plan_path = tmp_path / "tiny.plan"
    plan_path.write_text(TINY_PLAN)
    with pytest.raises(SystemExit) as exc:
        main(["sweep", str(plan_path), "--threads", "2"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --threads" in capsys.readouterr().err


def test_out_naming_an_existing_file_is_config_error(tmp_path, capsys,
                                                     monkeypatch):
    # it once ran the whole plan and then died in os.makedirs with a
    # FileExistsError traceback; now it fails before any solve
    def no_run(plan):
        raise AssertionError("the plan ran")

    monkeypatch.setattr(cli.experiments, "run_plan", no_run)
    path = tmp_path / "taken"
    path.write_text("")
    assert main(["ci", "copy", "--out", str(path)]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith(
        f"config error: cannot create output directory {str(path)!r}: ")


def test_an_output_file_that_cannot_be_written_is_config_error(tmp_path,
                                                               capsys):
    # it once died with an IsADirectoryError traceback after the solve
    (tmp_path / "ci.csv").mkdir()
    assert main(["ci", "copy", "--out", str(tmp_path)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(
        f"config error: cannot write {str(tmp_path / 'ci.csv')!r}: ")
    assert err.count("\n") == 1


def test_outputs_are_written_as_utf8(tmp_path):
    # under an ASCII locale the files were once written in its encoding, and
    # a non-ASCII label died in the write with a UnicodeEncodeError; stdout
    # is set to UTF-8 here, so only the files' encoding is under test
    plan_path = tmp_path / "cafe.plan"
    plan_path.write_text("[plan]\nname = cafe\n[source.caf\u00e9]\n"
                         "fixture = copy\n[ci]\nsources = caf\u00e9\n",
                         encoding="utf-8")
    env = {**os.environ, "LC_ALL": "C", "PYTHONUTF8": "0",
           "PYTHONIOENCODING": "utf-8",
           "PYTHONPATH": os.pathsep.join(
               [os.path.dirname(os.path.dirname(commoninfo.__file__)),
                *filter(None, [os.environ.get("PYTHONPATH")])])}
    subprocess.run([sys.executable, "-m", "commoninfo.cli", "sweep",
                    str(plan_path), "--out", str(tmp_path)], env=env,
                   capture_output=True, check=True)
    with open(tmp_path / "cafe.csv", encoding="utf-8", newline="") as fh:
        assert [row["source"] for row in csv.DictReader(fh)] == ["caf\u00e9"]


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


@pytest.mark.parametrize("argv, message", [
    (["simulate", "dsbs01", "--rate", "0.5", "--n", "4", "--seed", "-1"],
     "[plan] seed must be >= 0, got -1"),
    (["simulate", "dsbs01", "--rate", "0.5", "--n", "4", "--seeds", "0", "-2"],
     "[simulate] seeds must be >= 0, got -2"),
    (["exponent", "dsbs01", "--rate=-0.5C"], "[exponent] rates = '-0.5C'"),
    (["exponent", "dsbs01", "--rate", "-1"], "[exponent] rates = '-1'"),
    (["exponent", "dsbs01", "--rate", "nan"], "[exponent] rates = 'nan'"),
    (["exponent", "dsbs01", "--rate", "inf"], "[exponent] rates = 'inf'"),
    (["sweep", os.path.join(os.path.dirname(commoninfo.__file__), "plans",
                            "paper_suite.plan"), "--seed", "-1"],
     "[plan] seed must be >= 0, got -1"),
    (["simulate", "dsbs01", "--rate", "0.5C", "--n", "0"],
     "[simulate] n must be >= 1, got 0"),
    (["simulate", "dsbs01", "--rate", "0.5C", "--n", "4", "--s", "2"],
     "[simulate] s = '2.0': s must lie in [-1, 1]"),
], ids=["seed", "seeds", "rate-multiple", "rate", "rate-nan", "rate-inf",
        "sweep-seed", "block-length", "order"])
def test_negative_seed_or_bad_rate_is_config_error(capsys, argv, message):
    # each used to parse, fail every cell and exit 3
    assert main(argv) == EXIT_CONFIG
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("flags, message", [
    (["--eps", "2"], "[simulate] eps = 2.0 not in (0, 1]"),
    (["--eps", "nan"], "[simulate] eps = nan not in (0, 1]"),
    (["--eps-prime", "0"], "[simulate] eps_prime = 0.0 not in (0, 1.0)"),
    (["--eps", "none", "--eps-prime", "1"],
     "[simulate] eps_prime = 1.0 not in (0, 1.0)"),
], ids=["eps-above-one", "eps-nan", "eps-prime-zero", "eps-prime-one"])
def test_a_truncation_pair_outside_the_rule_is_config_error(capsys, flags,
                                                            message):
    assert main(["simulate", "dsbs01", "--rate", "0.55", "--n", "16",
                 *flags]) == EXIT_CONFIG
    assert message in capsys.readouterr().err


def test_bad_plan_file_is_config_error(tmp_path, capsys):
    plan_path = tmp_path / "broken.plan"
    plan_path.write_text("[simulate]\ncouplings = product\n")
    assert main(["sweep", str(plan_path)]) == EXIT_CONFIG


@pytest.mark.parametrize("line, message", [
    ("samples = 4.5", "[simulate] samples = '4.5'"),
    ("restart = 1", "[simulate] unknown key 'restart'"),
])
def test_malformed_or_unknown_plan_key_is_config_error(tmp_path, capsys,
                                                       line, message):
    plan_path = tmp_path / "bad.plan"
    plan_path.write_text(TINY_PLAN + line + "\n")
    assert main(["sweep", str(plan_path)]) == EXIT_CONFIG
    assert message in capsys.readouterr().err


def test_sweep_keeps_the_plan_seed_unless_overridden(tmp_path):
    # the Monte-Carlo Renyi estimate depends on the master seed
    plan_path = tmp_path / "mc.plan"
    plan_path.write_text("[plan]\nname = mc\nseed = 7\n[simulate]\n"
                         "couplings = dsbs01\nrates = 0.0\nn = 12\n"
                         "measure = renyi\nsamples = 64\n")
    values = {}
    for name, extra in (("plan", []), ("seven", ["--seed", "7"]),
                        ("zero", ["--seed", "0"])):
        assert main(["sweep", str(plan_path), "--out", str(tmp_path / name),
                     *extra]) == EXIT_OK
        values[name] = (tmp_path / name / "mc.csv").read_text()
    assert values["plan"] == values["seven"] != values["zero"]


def test_verify_single_cheap_criterion(capsys):
    assert main(["verify", "--only", "7"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "[PASS] criterion  7" in out
    assert "1/1 criteria passed" in out


def test_verify_rejects_a_number_that_names_no_criterion(capsys):
    assert main(["verify", "--only", "7", "13"]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert "no criterion numbered 13" in captured.err
    assert "numbered 1-12" in captured.err
    assert captured.out == ""


def test_verify_rejects_options_it_does_not_use(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--seed", "1"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --seed" in capsys.readouterr().err


def fresh_python(code: str, **env_set) -> str:
    """The stdout of ``code`` run in a fresh interpreter on this checkout's
    package, with no thread-count variable set but ``env_set``."""
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS",
                        "OMP_NUM_THREADS")}
    env.update(env_set)
    src = os.path.dirname(os.path.dirname(commoninfo.__file__))
    env["PYTHONPATH"] = os.pathsep.join(
        [src, *filter(None, [env.get("PYTHONPATH")])])
    return subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True).stdout


#: a bare ``import commoninfo``, then each bundled OpenBLAS found on its own
#: and its thread count read back through the getter that matches its
#: setter, so a library the pin missed still reads its count
_READ_BLAS_THREADS = """
import ctypes, glob, importlib, json, os
import commoninfo
counts = {}
for package, pattern, setter in commoninfo.descent._BUNDLED_OPENBLAS:
    site = os.path.dirname(os.path.dirname(
        importlib.import_module(package).__file__))
    for path in glob.glob(os.path.join(site, package + ".libs", pattern)):
        get_threads = getattr(ctypes.CDLL(path),
                              setter.replace("_set_", "_get_"))
        get_threads.argtypes, get_threads.restype = [], ctypes.c_int
        counts[os.path.basename(path)] = get_threads()
print(json.dumps(counts))
"""


def bundled_blas_threads(**env_set) -> dict:
    """The thread count of each bundled OpenBLAS after a bare ``import
    commoninfo`` in a fresh interpreter; skips where numpy and scipy bundle
    no OpenBLAS."""
    counts = json.loads(fresh_python(_READ_BLAS_THREADS, **env_set))
    if not counts:
        pytest.skip("numpy and scipy bundle no OpenBLAS here")
    return counts


def test_import_runs_the_bundled_openblas_on_one_thread():
    counts = bundled_blas_threads()
    assert len(counts) == 2 and set(counts.values()) == {1}, counts


def test_import_pins_one_thread_over_a_set_openblas_thread_count():
    # scipy's OpenBLAS on two threads moved the last digits of the SLSQP
    # polish, and with them three rows of the paper_suite CSV
    counts = bundled_blas_threads(OPENBLAS_NUM_THREADS="2")
    assert len(counts) == 2 and set(counts.values()) == {1}, counts


DATA = pathlib.Path(__file__).parent / "data"
GOLDEN_CSV = DATA / "paper_suite_seed7.csv"

#: (golden file, the command that writes it, the name it writes) for every
#: file under tests/data
GOLDEN_RUNS = [
    ("paper_suite_seed7.csv", f"sweep {shlex.quote(PLAN_PATH)}",
     "paper_suite.csv"),
    ("exponent_dsbs01.csv", "exponent dsbs01 --rate 0.5C 0.9C 1.1C",
     "exponent.csv"),
    # the certified zero above C on a joint with structural zeros
    ("exponent_copy_above_c.csv", "exponent copy --rate 1.01C 1.5C",
     "exponent.csv"),
    # the exact order-2 divergence from the count tensor at n = 11 and 12
    ("simulate_renyi_s1.csv",
     "simulate dsbs01 --rate 1.2C --n 4 8 11 12 --measure renyi --s 1 "
     "--eps none --eps-prime 0.5 --seeds 0 1", "simulate.csv"),
    # truncated Monte-Carlo TV
    ("simulate_tv_n12.csv",
     "simulate dsbs01 --rate 0.5C 1.2C --n 12 --measure tv --eps 1.0 "
     "--eps-prime 0.5 --seeds 0 1", "simulate.csv"),
    # a truncated Renyi estimate at s = 0.5, exact at n = 8 and
    # Monte-Carlo at n = 12
    ("simulate_renyi_s05.csv",
     "simulate dsbs01 --rate 1.2C --n 8 12 --measure renyi --s 0.5 "
     "--eps 1.0 --eps-prime 0.5 --seeds 0 1", "simulate.csv"),
]


def first_differing_line(got: bytes, want: bytes) -> str:
    """The first line on which two files differ, with both versions of it."""
    pairs = itertools.zip_longest(got.splitlines(), want.splitlines())
    for lineno, (g, w) in enumerate(pairs, 1):
        if g != w:
            return f"line {lineno}: got {g!r}, want {w!r}"
    return "the files differ only in their line endings"


def test_every_golden_file_has_its_command():
    assert sorted(g[0] for g in GOLDEN_RUNS) == sorted(
        path.name for path in DATA.iterdir())


@pytest.mark.parametrize("golden, command, written", GOLDEN_RUNS,
                         ids=[g[0].removesuffix(".csv") for g in GOLDEN_RUNS])
def test_command_writes_its_golden_file_byte_for_byte(tmp_path, capsys,
                                                      golden, command,
                                                      written):
    argv = [*shlex.split(command), "--out", str(tmp_path)]
    assert main(argv) == EXIT_OK
    got, want = (tmp_path / written).read_bytes(), (DATA / golden).read_bytes()
    assert got == want, first_differing_line(got, want)


def test_python_api_writes_the_golden_csv_over_two_openblas_threads(tmp_path):
    # run_plan called from Python once left the thread count to the
    # environment: on two threads rows 4, 6 and 7 of this CSV differed in
    # their last digit, and wyner_ci on this 3x3 joint read 0.3531665496
    out = tmp_path / "paper_suite.csv"
    code = f"""
import numpy as np
from commoninfo import JointPmf, load_plan, run_plan, to_csv, wyner_ci
plan = load_plan({str(PLAN_PATH)!r})
with open({str(out)!r}, "w", encoding="utf-8") as fh:
    fh.write(to_csv(run_plan(plan)))
pi = JointPmf(np.random.default_rng(11).dirichlet(np.ones(9)).reshape(3, 3))
print(repr(wyner_ci(pi).value))
"""
    ci = fresh_python(code, OPENBLAS_NUM_THREADS="2")
    assert out.read_bytes() == GOLDEN_CSV.read_bytes()
    assert float(ci) == 0.3531663536990494


def test_readme_cli_lines_parse():
    # parsed only, never run
    text = README.read_text()
    block = re.search(r"## CLI\n\n```sh\n(.*?)```", text, re.S).group(1)
    lines = [line.split("#", 1)[0] for line in block.splitlines()
             if line.startswith("commoninfo ")]
    assert len(lines) >= 5
    for line in lines:
        args = cli.build_parser().parse_args(shlex.split(line)[1:])
        assert callable(args.func), line


def test_readme_module_map_lists_every_module():
    listed = re.findall(r"^\| `(\w+)` \|", README.read_text(), re.M)
    src = pathlib.Path(commoninfo.__file__).parent
    assert sorted(listed) == sorted(path.stem for path in src.glob("*.py")
                                    if path.name != "__init__.py")
