"""Command-line front door.

Each JSON config key of an experiment is also a flag of its subcommand,
`--key` with `_` turned into `-`, generated from `config.SCHEMA`.  Four
inputs take another shape, and the fields they supply get no flag: the
`simulate --instance` file, `simon --n/--hidden`, `shor --transversal/--bound`
and the positional group of `irreps` and `fourier`.

Exit codes: 0 success, 2 configuration error, 3 resource cap exceeded,
4 internal invariant violation.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .config import SCHEMA, TRANSVERSAL_KINDS, Field, config_from_dict
from .errors import ConfigError, IntegrityError, ResourceCapError
from .experiments import run_experiment
from .reporting import fmt17

# subcommand -> (experiment, help)
SUBCOMMANDS = {
    "irreps": ("irreps", "emit the irrep/character table of a group"),
    "fourier": ("fourier-check", "build the Fourier operator and report residuals"),
    "simulate": ("simulate", "run the exact pipeline for an instance file"),
    "simon": ("simon", "bit-vector hidden subgroup end to end"),
    "shor": ("shor", "period finding over the finite image Z_Q"),
    "sweep-transversal": ("sweep-transversal", "peak-mass sweep over offset seeds"),
    "recover": ("recover", "rank subgroup candidates against a distribution CSV"),
}


def _add_adapters(p: argparse.ArgumentParser, command: str) -> set:
    """Add the inputs whose shape differs from the JSON; return the fields they supply."""
    if command in ("irreps", "fourier"):
        p.add_argument("group")
        return {"group"}
    if command == "simulate":
        p.add_argument("--instance", required=True, help="instance JSON path")
        return {"group", "hidden_generators", "oracle_seed"}
    if command == "simon":
        p.add_argument("--n", type=int, required=True, help="register width")
        p.add_argument(
            "--hidden", required=True, help="comma-separated generator bitstrings, e.g. 101,011"
        )
        return {"group", "hidden_generators"}
    if command == "shor":
        p.add_argument("--transversal", dest="kind", choices=TRANSVERSAL_KINDS,
                       default=argparse.SUPPRESS)
        p.add_argument("--bound", type=int, default=argparse.SUPPRESS)
        return {"transversal"}
    return set()


def _add_flag(p: argparse.ArgumentParser, field: Field) -> None:
    # Absent flags stay out of the namespace, so config defaults apply.
    flag = "--" + field.key.replace("_", "-")
    if field.kind is bool:
        p.add_argument(flag, dest=field.key, action="store_true", default=argparse.SUPPRESS)
    else:
        p.add_argument(flag, dest=field.key, type=field.kind, choices=field.choices or None,
                       required=field.required, default=argparse.SUPPRESS)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hspsim",
        description="Exact hidden-subgroup experiments on small finite groups",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (experiment, help_text) in SUBCOMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        adapted = _add_adapters(p, command)
        for field in SCHEMA[experiment]:
            if field.key not in adapted:
                _add_flag(p, field)
        p.add_argument("--out-dir", default=".", help="directory for report artifacts")
        p.add_argument(
            "--format", choices=("json", "csv"), default="json", help="stdout summary format"
        )
    return parser


def _read_instance(path: str) -> dict:
    try:
        instance = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigError(f"cannot read instance file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"instance file is not valid JSON: {exc}") from exc
    if not isinstance(instance, dict):
        raise ConfigError("instance file must hold a JSON object")
    unknown = sorted(set(instance) - {"group", "hidden_generators", "seed"})
    if unknown:
        raise ConfigError(f"unknown field {unknown[0]!r} in instance file")
    return {
        "group": instance.get("group"),
        "hidden_generators": instance.get("hidden_generators", []),
        "oracle_seed": instance.get("seed", 0),
    }


def _simon_generators(n: int, hidden: str) -> dict:
    tokens = [token.strip() for token in hidden.split(",") if token.strip()]
    for token in tokens:
        if not set(token) <= {"0", "1"}:
            raise ConfigError(f"field 'hidden': {token!r} is not a bitstring")
        if len(token) != n:
            raise ConfigError(f"field 'hidden': {token!r} does not have length n = {n}")
    return {"group": f"Z2^{n}", "hidden_generators": [[int(b) for b in t] for t in tokens]}


def _config_dict(args: argparse.Namespace) -> dict:
    experiment = SUBCOMMANDS[args.command][0]
    given = vars(args)
    d = {"experiment": experiment}
    d.update((f.key, given[f.key]) for f in SCHEMA[experiment] if f.key in given)
    if args.command == "simulate":
        d.update(_read_instance(args.instance))
    if args.command == "simon":
        d.update(_simon_generators(args.n, args.hidden))
    if args.command == "shor":
        d["transversal"] = {key: given[key] for key in ("kind", "bound") if key in given}
    return d


def _print_csv(report: dict) -> None:
    if "candidates" in report:
        print("rank,elements,total_variation")
        for i, cand in enumerate(report["candidates"]):
            print(f"{i},{'|'.join(cand['elements'])},{fmt17(cand['total_variation'])}")
    else:
        for key, value in sorted(report.items()):
            if isinstance(value, float):
                print(f"{key},{fmt17(value)}")
            elif isinstance(value, (int, str)):
                print(f"{key},{value}")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = config_from_dict(_config_dict(args))
        report = run_experiment(cfg, args.out_dir)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except ResourceCapError as exc:
        print(f"resource cap exceeded: {exc}", file=sys.stderr)
        return 3
    except IntegrityError as exc:
        print(f"internal invariant violation: {exc}", file=sys.stderr)
        return 4
    # the bytes of report.json or distribution.csv, so each form is stated once, in reporting
    name = ("report.json" if args.format == "json"
            else "distribution.csv" if "distribution" in report else None)
    if name:
        sys.stdout.write((Path(args.out_dir) / name).read_text(encoding="utf-8"))
    else:
        _print_csv(report)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
