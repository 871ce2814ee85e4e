"""Command line entry point.

    conecert prove [--config F.json] [--json OUT]

Runs the homoclinic proof, prints the text report and exits 0 only on
PROVED.  The config file holds ProofConfig fields as a JSON object; fields
it leaves out keep their default values.  --json writes the deterministic
JSON report.
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

    data = ProofConfig.default().to_json()
    if args.config is not None:
        data.update(json.loads(args.config.read_text()))
    report = check_homoclinic(ProofConfig.from_json(data))
    print(report.render_text())
    if args.json is not None:
        args.json.write_text(report.json_str())
    return 0 if report.proved else 1


if __name__ == "__main__":
    sys.exit(main())
