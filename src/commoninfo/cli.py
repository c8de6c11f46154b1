"""Command-line entry point.

Subcommands: ``ci`` (common information of a source), ``exponent`` (F(R) for
one or more rates), ``simulate`` (synthesis-code estimates on a coupling),
``verify`` (the acceptance suite), and ``sweep`` (run a plan file).

Exit codes: 0 on success, 2 for configuration errors, 3 when some cells
failed (fail-soft sweeps) or acceptance checks did not pass.  An option left
unset writes no plan key, so the plan parser's default holds.

The OpenBLAS builds bundled with numpy and scipy run on one thread, whatever
``OPENBLAS_NUM_THREADS`` says: the solvers make many small BLAS calls, a
second OpenBLAS thread spins beside the first, and on more than one thread
scipy's copy moves the last digits of ``wyner_ci``'s SLSQP polish
(``descent.slsqp``), so the output would depend on the thread count.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import importlib
import os
import sys

from .errors import CommonInfoError, ConfigError
from .probability import load_joint_text
from . import experiments
from . import fixtures

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_CELL_FAILURES = 3

#: the OpenBLAS that each package's Linux wheel bundles in ``<package>.libs``
#: and the symbol that sets its thread count; scipy's own BLAS and LAPACK
#: calls go to its copy, numpy's to the 64-bit-index one
_BUNDLED_OPENBLAS = (
    ("numpy", "libscipy_openblas64_*.so", "scipy_openblas_set_num_threads64_"),
    ("scipy", "libscipy_openblas-*.so", "scipy_openblas_set_num_threads"),
)


def _one_blas_thread() -> list[str]:
    """Set every bundled OpenBLAS to one thread; returns the libraries set.
    A numpy or scipy without a bundled OpenBLAS is left as it is."""
    pinned = []
    for package, pattern, setter in _BUNDLED_OPENBLAS:
        site = os.path.dirname(os.path.dirname(
            importlib.import_module(package).__file__))
        for path in glob.glob(os.path.join(site, package + ".libs", pattern)):
            set_threads = getattr(ctypes.CDLL(path), setter, None)
            if set_threads is not None:
                set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
                set_threads(1)
                pinned.append(path)
    return pinned


def _source_section(label: str) -> str:
    """Plan snippet resolving ``label`` as a named fixture or a pmf text file."""
    if label in fixtures.NAMED_SOURCES:
        return f"[source.{label}]\nfixture = {label}\n"
    if os.path.exists(label):
        with open(label) as fh:
            text = fh.read()
        body = "\n".join("  " + line for line in text.strip().splitlines())
        load_joint_text(text)            # validate early
        name = os.path.splitext(os.path.basename(label))[0]
        return f"[source.{name}]\npi =\n{body}\n"
    raise ConfigError(f"unknown source {label!r}: not a fixture "
                      f"({sorted(fixtures.NAMED_SOURCES)}) or a readable file")


def _source_name(label: str) -> str:
    if label in fixtures.NAMED_SOURCES:
        return label
    return os.path.splitext(os.path.basename(label))[0]


def _emit(result, out: str | None):
    text = experiments.render_summary(result)
    sys.stdout.write(text)
    if out:
        os.makedirs(out, exist_ok=True)
        base = os.path.join(out, result.plan_name)
        with open(base + ".csv", "w") as fh:
            fh.write(experiments.to_csv(result))
        with open(base + ".json", "w") as fh:
            fh.write(experiments.to_json(result))
        with open(base + ".txt", "w") as fh:
            fh.write(text)
        sys.stdout.write(f"wrote {base}.csv / .json / .txt\n")
    return EXIT_CELL_FAILURES if result.n_errors else EXIT_OK


def _keys(**values) -> str:
    """Plan lines for the values given; None (an option the user did not
    set) writes no line, so the plan parser's default holds."""
    return "".join(
        f"{key} = {' '.join(map(str, v)) if isinstance(v, list) else v}\n"
        for key, v in values.items() if v is not None)


def _run(name: str, args, body: str) -> int:
    plan = experiments.parse_plan(f"[plan]\nname = {name}\n" + body,
                                  seed_override=args.seed)
    return _emit(experiments.run_plan(plan, threads=args.threads), args.out)


def _cmd_ci(args) -> int:
    return _run("ci", args, _source_section(args.source) + "[ci]\n"
                + _keys(sources=_source_name(args.source)))


def _cmd_exponent(args) -> int:
    return _run("exponent", args, _source_section(args.source)
                + "[exponent]\n"
                + _keys(sources=_source_name(args.source), rates=args.rate))


def _cmd_simulate(args) -> int:
    if args.coupling not in fixtures.NAMED_COUPLINGS:
        raise ConfigError(f"unknown coupling {args.coupling!r}; known: "
                          f"{sorted(fixtures.NAMED_COUPLINGS)}")
    return _run("simulate", args,
                f"[coupling.{args.coupling}]\nfixture = {args.coupling}\n"
                "[simulate]\n"
                + _keys(couplings=args.coupling, rates=args.rate, n=args.n,
                        s=args.s, seeds=args.seeds, measure=args.measure,
                        eps=args.eps, eps_prime=args.eps_prime,
                        samples=args.samples))


def _cmd_verify(args) -> int:
    from . import acceptance
    reports = acceptance.run_all(only=args.only)
    for rep in reports:
        sys.stdout.write(rep.line() + "\n")
    failed = [r for r in reports if not r.passed]
    sys.stdout.write(f"{len(reports) - len(failed)}/{len(reports)} "
                     f"criteria passed\n")
    return EXIT_CELL_FAILURES if failed else EXIT_OK


def _cmd_sweep(args) -> int:
    plan = experiments.load_plan(args.plan, seed_override=args.seed,
                                 out_override=args.out)
    result = experiments.run_plan(plan, threads=args.threads)
    return _emit(result, plan.out)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="commoninfo",
        description="Finite-alphabet common information workbench")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=int,
                       help="master seed (default: the plan's)")
        p.add_argument("--threads", type=int, default=1)
        p.add_argument("--out", default=None,
                       help="directory for CSV/JSON/summary output")

    p = sub.add_parser("ci", help="Wyner common information of a source")
    p.add_argument("source", help="fixture name or pmf text file")
    common(p)
    p.set_defaults(func=_cmd_ci)

    p = sub.add_parser("exponent", help="strong-converse exponent F(R)")
    p.add_argument("source")
    p.add_argument("--rate", nargs="+", required=True,
                   help="absolute nats or multiples like 0.5C")
    common(p)
    p.set_defaults(func=_cmd_exponent)

    p = sub.add_parser("simulate", help="synthesis-code estimates")
    p.add_argument("coupling", help="named coupling fixture")
    p.add_argument("--rate", nargs="+", required=True)
    p.add_argument("--n", nargs="+", type=int, required=True)
    p.add_argument("--s", type=float)
    p.add_argument("--seeds", nargs="+", type=int)
    p.add_argument("--measure", nargs="+", choices=["tv", "renyi"])
    p.add_argument("--eps", help="eps or 'none'")
    p.add_argument("--eps-prime", dest="eps_prime")
    p.add_argument("--samples", type=int)
    common(p)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("verify", help="run the acceptance suite")
    p.add_argument("--only", nargs="+", type=int, default=None,
                   help="criterion numbers to run (default: all)")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("sweep", help="run a plan file")
    p.add_argument("plan")
    common(p)
    p.set_defaults(func=_cmd_sweep)
    return parser


def main(argv=None) -> int:
    _one_blas_thread()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return EXIT_CONFIG
    except CommonInfoError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_CELL_FAILURES


if __name__ == "__main__":
    sys.exit(main())
