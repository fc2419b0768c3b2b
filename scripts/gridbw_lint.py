#!/usr/bin/env python3
"""gridbw-lint: repository hygiene for non-C++ assets.

The C++ domain rules live in the in-tree static analyzer,
`tools/gridbw_analyze` (ctest `gridbw_analyze`): unordered-iteration
determinism, wall-clock reads and hot-path hygiene, with proper lexing;
its only exception mechanism is a per-line GRIDBW-ALLOW comment. This script keeps the checks that are not about C++
code: scripts, JSON, CMake, and the one include spelling the build's
include roots cannot refuse.

Run as a ctest (`ctest -R gridbw_lint`) or directly:

    python3 scripts/gridbw_lint.py --root .

Rules:

  gridbw-shell-strict
      Every shell script under scripts/ runs under `set -euo pipefail` so a
      failing build/test step can never be masked by a later command.

  gridbw-json-parse
      Every committed .json file (bench summaries, fixtures) parses. A
      malformed summary would silently break the plotting/replication flow.

  gridbw-cmake-warnings
      Every gridbw_* library target declared in src/*/CMakeLists.txt links
      the `gridbw_warnings` interface target, so no module can drop out of
      the -Wall/-Wextra/-Wconversion wall unnoticed.

  gridbw-include-escape
      No quoted #include under src/ has a `..` path component. The module
      DAG is enforced by per-module include roots, but a quoted include is
      first looked up beside the includer, so `#include "../heuristics/x.hpp"`
      in src/core/ would still compile.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import re
import sys


class Finding:
    def __init__(self, path: str, line: int, rule: str, message: str):
        self.path, self.line, self.rule, self.message = path, line, rule, message

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


SET_STRICT = re.compile(r"^\s*set\s+-[a-z]*e[a-z]*u[a-z]*o?\s+pipefail\s*$")


def check_shell(root: pathlib.Path) -> list[Finding]:
    findings: list[Finding] = []
    for path in sorted((root / "scripts").glob("*.sh")):
        rel = path.relative_to(root).as_posix()
        lines = path.read_text(encoding="utf-8", errors="replace").splitlines()
        if not any(SET_STRICT.match(line) for line in lines):
            findings.append(
                Finding(
                    rel,
                    1,
                    "gridbw-shell-strict",
                    "missing `set -euo pipefail` — failures later in the "
                    "script must not be masked",
                )
            )
    return findings


def check_json(root: pathlib.Path) -> list[Finding]:
    findings: list[Finding] = []
    skip = {"build", ".git", ".cache"}
    for path in sorted(root.rglob("*.json")):
        rel_parts = path.relative_to(root).parts
        if rel_parts and (rel_parts[0] in skip or rel_parts[0].startswith("build")):
            continue
        rel = path.relative_to(root).as_posix()
        try:
            json.loads(path.read_text(encoding="utf-8"))
        except (ValueError, OSError) as err:
            findings.append(
                Finding(rel, 1, "gridbw-json-parse", f"invalid JSON: {err}")
            )
    return findings


ADD_LIBRARY = re.compile(r"^\s*add_library\(\s*(gridbw_\w+)", re.MULTILINE)
LINK_BLOCK = re.compile(r"target_link_libraries\(\s*(gridbw_\w+)([^)]*)\)")


def check_cmake(root: pathlib.Path) -> list[Finding]:
    findings: list[Finding] = []
    for path in sorted((root / "src").glob("*/CMakeLists.txt")):
        rel = path.relative_to(root).as_posix()
        text = "\n".join(
            line.split("#", 1)[0]
            for line in path.read_text(encoding="utf-8").splitlines()
        )
        linked = {
            match.group(1)
            for match in LINK_BLOCK.finditer(text)
            if "gridbw_warnings" in match.group(2)
        }
        for match in ADD_LIBRARY.finditer(text):
            target = match.group(1)
            if target == "gridbw_warnings" or target in linked:
                continue
            line = text.count("\n", 0, match.start()) + 1
            findings.append(
                Finding(
                    rel,
                    line,
                    "gridbw-cmake-warnings",
                    f"target '{target}' does not link gridbw_warnings — every "
                    "module stays inside the warning wall",
                )
            )
    return findings


QUOTED_INCLUDE = re.compile(r'^\s*#\s*include\s*"([^"]*)"')


def check_include_escape(root: pathlib.Path) -> list[Finding]:
    findings: list[Finding] = []
    for path in sorted((root / "src").rglob("*")):
        if path.suffix not in {".cpp", ".hpp"}:
            continue
        rel = path.relative_to(root).as_posix()
        lines = path.read_text(encoding="utf-8", errors="replace").splitlines()
        for number, line in enumerate(lines, start=1):
            match = QUOTED_INCLUDE.match(line)
            if match and ".." in match.group(1).split("/"):
                findings.append(
                    Finding(
                        rel,
                        number,
                        "gridbw-include-escape",
                        f"'{match.group(1)}' climbs out of the module's include "
                        "root — include it as <module>/<header>",
                    )
                )
    return findings


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--root", default=".", help="repository root")
    args = parser.parse_args()
    root = pathlib.Path(args.root).resolve()

    if not (root / "src").is_dir():
        print(f"gridbw-lint: no src/ under {root}", file=sys.stderr)
        return 2

    findings = (
        check_shell(root)
        + check_json(root)
        + check_cmake(root)
        + check_include_escape(root)
    )
    findings.sort(key=lambda f: (f.path, f.line, f.rule))

    for finding in findings:
        print(finding)
    if findings:
        print(f"gridbw-lint: {len(findings)} finding(s)", file=sys.stderr)
        return 1
    print("gridbw-lint: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
