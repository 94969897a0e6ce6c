#!/usr/bin/env python3
"""Check that relative links and file references in the docs resolve.

Scans README.md, DESIGN.md and docs/*.md for two kinds of reference:

* Markdown links ``[text](target)`` with a relative target — the target
  file (anchor stripped) must exist relative to the containing document.
* Backtick references like ``docs/TELEMETRY.md`` or ``src/repro/cli.py``
  — any code-span that looks like a repo-relative path to a file with an
  extension must exist relative to the repository root.

It also checks DESIGN.md's module map, a fenced block where code spans
do not apply: every file and package the map names must exist, and
every package directly under ``src/repro`` must be named in it.

External (``http://``/``https://``/``mailto:``) and pure-anchor links are
skipped. Exits non-zero listing every broken reference. No dependencies
beyond the standard library, so CI can run it on a bare Python.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

MD_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
CODE_SPAN_PATH = re.compile(r"`([A-Za-z0-9_./-]+\.(?:md|py|toml|yml|txt))`")
EXTERNAL = ("http://", "https://", "mailto:")

#: Code-span paths that name outputs or patterns rather than checked-in files.
IGNORED_SPANS = {"metrics.jsonl", "m.jsonl", "live_metrics.jsonl"}

#: The DESIGN.md heading whose first fenced block is the module map.
MODULE_MAP_HEADING = "## 3. System inventory (module map)"
#: A module-map entry: a file or package name indented two spaces per
#: package level. Description continuation lines sit deeper.
MAP_ENTRY = re.compile(r"^( {0,6})(\S+?(?:\.py|/))(?:\s|$)")


def doc_files() -> list[Path]:
    """The markdown set under check.

    Top-level README/DESIGN, everything in docs/, and the examples
    catalogue (whose script references resolve relative to examples/).
    """
    files = [ROOT / "README.md", ROOT / "DESIGN.md", ROOT / "examples" / "README.md"]
    files.extend(sorted((ROOT / "docs").glob("*.md")))
    return [f for f in files if f.exists()]


def _resolves(doc: Path, ref: str) -> bool:
    """Whether code-span ``ref`` names an existing file.

    Accepted bases, in order: repository root, the referencing document's
    directory, and ``src/repro`` (the docs' package-relative shorthand,
    e.g. ``protocol/agent.py``). A bare ``module.py`` also resolves if a
    file of that name exists anywhere under ``src/repro``.
    """
    candidates = [ROOT / ref, doc.parent / ref, ROOT / "src" / "repro" / ref]
    if any(c.exists() for c in candidates):
        return True
    if "/" not in ref and ref.endswith(".py"):
        return any((ROOT / "src" / "repro").rglob(ref))
    return False


def check_file(doc: Path) -> list[str]:
    """All broken references in ``doc``, formatted ``file:line: message``."""
    problems: list[str] = []
    for lineno, line in enumerate(doc.read_text(encoding="utf-8").splitlines(), 1):
        for match in MD_LINK.finditer(line):
            target = match.group(1)
            if target.startswith(EXTERNAL) or target.startswith("#"):
                continue
            path = target.split("#", 1)[0]
            if not path:
                continue
            if not (doc.parent / path).exists():
                problems.append(
                    f"{doc.relative_to(ROOT)}:{lineno}: broken link -> {target}"
                )
        for match in CODE_SPAN_PATH.finditer(line):
            ref = match.group(1)
            if "/" not in ref and ref in IGNORED_SPANS:
                continue
            if "*" in ref:
                continue
            if not _resolves(doc, ref):
                problems.append(
                    f"{doc.relative_to(ROOT)}:{lineno}: missing file reference `{ref}`"
                )
    return problems


def module_map_entries(text: str) -> list[tuple[int, str]]:
    """``(line, repo-relative path)`` of every file and package the module
    map in ``text`` names, packages with a trailing ``/``."""
    lines = text.splitlines()
    heading = lines.index(MODULE_MAP_HEADING)
    fence = next(i for i in range(heading, len(lines)) if lines[i].startswith("```"))
    parents: dict[int, str] = {}
    entries: list[tuple[int, str]] = []
    for lineno in range(fence + 2, len(lines) + 1):
        line = lines[lineno - 1]
        if line.startswith("```"):
            break
        match = MAP_ENTRY.match(line)
        if match is None:
            continue
        indent, name = len(match.group(1)), match.group(2)
        path = name if indent == 0 else parents[indent - 2] + name
        if name.endswith("/"):
            parents[indent] = path
        entries.append((lineno, path))
    return entries


def check_module_map(design: Path) -> list[str]:
    """Missing files in DESIGN.md's module map, and unmapped packages."""
    entries = module_map_entries(design.read_text(encoding="utf-8"))
    where = design.relative_to(ROOT)
    problems = [
        f"{where}:{lineno}: module map names missing `{path}`"
        for lineno, path in entries
        if not (ROOT / path).exists()
    ]
    named = {path for _, path in entries}
    package_root = ROOT / "src" / "repro"
    for package in sorted(p for p in package_root.iterdir() if (p / "__init__.py").exists()):
        path = f"{package.relative_to(ROOT).as_posix()}/"
        if path not in named:
            problems.append(f"{where}: module map omits package `{path}`")
    return problems


def main() -> int:
    """Run the checker over the doc set; print findings, return exit code."""
    docs = doc_files()
    problems = [p for doc in docs for p in check_file(doc)]
    problems.extend(check_module_map(ROOT / "DESIGN.md"))
    for problem in problems:
        print(problem)
    print(
        f"checked {len(docs)} documents: "
        f"{'OK' if not problems else f'{len(problems)} broken reference(s)'}"
    )
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
