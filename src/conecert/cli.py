"""Command line entry point.

    conecert prove [--config F.json] [--json OUT]

Runs the homoclinic proof, prints the text report and exits 0 only on
PROVED.  The config file holds ProofConfig fields as a JSON object; fields
it leaves out keep their default values.  The keys are mu_left and
mu_right (the mass band, decimal strings), alpha_h, alpha_v,
fragment_alpha_h, r_u, c_h and c_v (the cones and the window), and the
counts endpoint_subdivision, fragment_subdivision, fragments and
fragment_mu_slices.  A config that cannot be read, names another key, or
is not a valid ProofConfig is reported as a usage error (exit 2) before
any stage runs.  --json writes the deterministic JSON report; a --json
path that is a directory, or whose directory does not exist, is a usage
error too, and a report that cannot be written ends the run with one
line and exit 2.
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
    if args.json is not None and args.json.is_dir():
        prove.error(f"--json {args.json}: is a directory")
    if args.json is not None and not args.json.parent.is_dir():
        prove.error(f"--json {args.json}: no directory {args.json.parent}")
    report = check_homoclinic(cfg)
    print(report.render_text())
    if args.json is not None:
        try:
            args.json.write_text(report.json_str())
        except OSError as exc:
            print(f"conecert prove: error: --json {args.json}: {exc}",
                  file=sys.stderr)
            return 2
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
