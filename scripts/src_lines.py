#!/usr/bin/env python3
"""Count the C++ source lines under src/, per module and in total.

A module is a top-level directory of src/ (src/comm/transport counts
toward comm). Only .hpp and .cpp files count; a line is a newline
character, as `wc -l` counts it.

Usage:
    scripts/src_lines.py [--markdown]

--markdown prints a table for a CI job summary instead of plain text.
"""

import argparse
from pathlib import Path

SUFFIXES = {".hpp", ".cpp"}


def count(src):
    modules = {}
    for path in sorted(src.rglob("*")):
        if path.suffix not in SUFFIXES or not path.is_file():
            continue
        rel = path.relative_to(src)
        module = rel.parts[0] if len(rel.parts) > 1 else "."
        modules[module] = modules.get(module, 0) + path.read_bytes().count(b"\n")
    return modules


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--markdown", action="store_true", help="print a markdown table")
    args = parser.parse_args()

    modules = count(Path(__file__).resolve().parent.parent / "src")
    total = sum(modules.values())

    if args.markdown:
        print("### `src/` line count (.hpp/.cpp)\n")
        print("| module | lines |")
        print("| --- | ---: |")
        for name, lines in sorted(modules.items()):
            print(f"| {name} | {lines} |")
        print(f"| **total** | **{total}** |")
    else:
        for name, lines in sorted(modules.items()):
            print(f"{name:<12} {lines:>7}")
        print(f"{'total':<12} {total:>7}")


if __name__ == "__main__":
    main()
