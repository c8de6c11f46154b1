"""Command-line entry point.

Subcommands: ``ci`` (common information of a source), ``exponent`` (F(R) for
one or more rates), ``simulate`` (synthesis-code estimates on a coupling),
``verify`` (the acceptance suite), and ``sweep`` (run a plan file).

Exit codes: 0 on success, 2 for configuration errors, 3 when some cells
failed (fail-soft sweeps) or acceptance checks did not pass.  Every
subcommand but ``verify`` runs one plan: ``sweep`` reads it from a file, the
others write it from their options, and the plan parser resolves each name.
"""

from __future__ import annotations

import argparse
import os
import re
import sys

from .errors import CommonInfoError, ConfigError
from . import experiments
from . import fixtures

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_CELL_FAILURES = 3

def _source_section(label: str) -> tuple[str, str]:
    """The plan lines and label of a source.  A fixture name writes no
    section, so the plan parser resolves it; an existing path that is not a
    fixture name is an inline section labelled by its stem, each run of plan
    list separators (whitespace, commas) turned into ``_``; any other name
    is a ConfigError."""
    if label in fixtures.NAMED_SOURCES:
        return "", label
    if not os.path.exists(label):
        raise ConfigError(f"source {label!r} is neither a known fixture nor "
                          f"a readable file; known fixtures: "
                          f"{sorted(fixtures.NAMED_SOURCES)}")
    text = experiments.read_text(label)
    body = "\n".join("  " + line for line in text.strip().splitlines())
    name = re.sub(r"[\s,]+", "_", os.path.splitext(os.path.basename(label))[0])
    return f"[source.{name}]\npi =\n{body}\n", name


def _keys(**values) -> str:
    """Plan lines for the values given; None (an option the user did not
    set) writes no line, so the plan parser's default holds."""
    return "".join(
        f"{key} = {' '.join(map(str, v)) if isinstance(v, list) else v}\n"
        for key, v in values.items() if v is not None)


def _run(args, plan_text: str) -> int:
    """Run a plan, print its summary and write its files under its ``out``."""
    plan = experiments.parse_plan(plan_text, args.seed, args.out)
    if plan.out:            # before the sweep, so a bad --out costs no solve
        try:
            os.makedirs(plan.out, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot create output directory {plan.out!r}: "
                              f"{exc.strerror or exc}") from None
    result = experiments.run_plan(plan)
    text = experiments.render_summary(result)
    sys.stdout.write(text)
    if plan.out:
        base = os.path.join(plan.out, result.plan_name)
        for ext, content in ((".csv", experiments.to_csv(result)),
                             (".json", experiments.to_json(result)),
                             (".txt", text)):
            try:
                with open(base + ext, "w", encoding="utf-8") as fh:
                    fh.write(content)
            except OSError as exc:
                raise ConfigError(f"cannot write {base + ext!r}: "
                                  f"{exc.strerror or exc}") from None
        sys.stdout.write(f"wrote {base}.csv / .json / .txt\n")
    return EXIT_CELL_FAILURES if result.n_errors else EXIT_OK


def _cmd_ci(args) -> int:
    section, label = _source_section(args.source)
    return _run(args, f"[plan]\nname = ci\n{section}[ci]\n"
                + _keys(sources=label))


def _cmd_exponent(args) -> int:
    section, label = _source_section(args.source)
    return _run(args, f"[plan]\nname = exponent\n{section}[exponent]\n"
                + _keys(sources=label, rates=args.rate))


def _cmd_simulate(args) -> int:
    return _run(args, "[plan]\nname = simulate\n[simulate]\n"
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
    return _run(args, experiments.read_text(args.plan))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="commoninfo",
        description="Finite-alphabet common information workbench")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=int,
                       help="master seed (default: the plan's)")
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
