#!/usr/bin/env python3
"""Run the four headline experiments at their reference sizes and print the
reports.  Exit status 0 iff every computed verdict passes."""

import argparse
import sys
from pathlib import Path

from cipherorder.experiments import (
    emit_report,
    run_amplifier,
    run_collapse,
    run_expand,
    run_general_collapse,
)
from cipherorder.groups import closure, stabilizer, symmetric_group
from cipherorder.perms import transposition


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--csv", type=Path, help="also write the full CSV report")
    args = parser.parse_args()

    s3 = symmetric_group(3)
    s4 = symmetric_group(4)
    h3 = s3.indices_of(closure([transposition(3, 0, 1)]))
    pi3 = s3.index(transposition(3, 1, 2))
    h4 = stabilizer(s4, (3,))
    pi4 = s4.index(transposition(4, 2, 3))

    results = [
        run_expand(s3, h3, pi3),
        run_expand(s4, h4, pi4, q_max=2),
        run_collapse(s3, h3, pi3),
        run_collapse(s4, h4, pi4, q_max=2),
        run_general_collapse(s3, h3, pi3, 3),
        run_general_collapse(s4, h4, pi4, 3),
        run_amplifier(1),
        run_amplifier(2),
    ]
    print(emit_report(results, "text"), end="")
    if args.csv:
        args.csv.write_text(emit_report(results, "csv"))
        print(f"wrote {args.csv}")
    return 0 if all(r.passed for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
