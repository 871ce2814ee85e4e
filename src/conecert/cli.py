"""Command line entry point.

    conecert prove [--config F.json] [--json OUT]

Runs the homoclinic proof, prints the text report and exits 0 only on
PROVED.  The config file holds ProofConfig fields as a JSON object; fields
it leaves out keep their default values.  A config that cannot be read or
is not a valid ProofConfig is reported as a usage error (exit 2) before
any stage runs.  --json writes the deterministic JSON report.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .prover import ProofConfig, check_homoclinic

__all__ = ["main"]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="conecert")
    commands = parser.add_subparsers(dest="command", required=True)
    prove = commands.add_parser("prove", help="run the homoclinic proof")
    prove.add_argument("--config", type=Path, help="ProofConfig fields, JSON")
    prove.add_argument("--json", type=Path, help="write the JSON report here")
    args = parser.parse_args(argv)

    cfg = ProofConfig.default()
    if args.config is not None:
        try:
            cfg = _read_config(args.config)
        except (OSError, ValueError, TypeError) as exc:
            prove.error(f"--config {args.config}: {exc}")
    report = check_homoclinic(cfg)
    print(report.render_text())
    if args.json is not None:
        args.json.write_text(report.json_str())
    return 0 if report.proved else 1


def _read_config(path: Path) -> ProofConfig:
    given = json.loads(path.read_text())
    if not isinstance(given, dict):
        raise ValueError("expected a JSON object of ProofConfig fields")
    data = ProofConfig.default().to_json()
    data.update(given)
    return ProofConfig.from_json(data)


if __name__ == "__main__":
    sys.exit(main())
