#!/usr/bin/env python3
"""Docs lint: fail if README/docs reference repository paths that don't exist.

Scans Markdown files for path-like tokens inside inline code spans and
fenced code blocks (anything that looks like ``dir/file`` rooted at a
known top-level directory, plus top-level files like ``pyproject.toml``)
and verifies each one exists relative to the repository root.  Keeps the
figure/table index in the README and the module references in the docs
from rotting as the tree evolves.

GitHub Actions workflow files (``.github/workflows/*.yml``) are checked
too — every line is treated as code — so CI steps that invoke scripts or
benchmark files (``tools/check_readme_paths.py``,
``benchmarks/bench_speed_floors.py``, ...) break the docs lint instead of
the live pipeline when a referenced file is moved.

Usage:  python tools/check_readme_paths.py [files...]
        (defaults to README.md, docs/*.md and .github/workflows/*.yml)

Exit status: 0 when every referenced path exists, 1 otherwise.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Top-level directories whose mention must resolve to a real path.
KNOWN_ROOTS = ("src", "tests", "benchmarks", "perfbench", "examples", "docs", "tools", ".github")

#: Top-level files whose mention must resolve.
KNOWN_FILES = (
    "README.md",
    "ROADMAP.md",
    "CHANGES.md",
    "PAPER.md",
    "PAPERS.md",
    "SNIPPETS.md",
    "pyproject.toml",
    "setup.py",
    "conftest.py",
)

_PATH_RE = re.compile(
    r"(?<![\w./-])((?:" + "|".join(re.escape(r) for r in KNOWN_ROOTS) + r")/[\w./-]+)"
)
_CODE_SPAN_RE = re.compile(r"`([^`\n]+)`")
_FENCE_RE = re.compile(r"^(```|~~~)")


def _candidate_paths(text: str, *, all_code: bool = False) -> set:
    """Path-like tokens from code spans and fenced code blocks.

    With ``all_code=True`` (workflow / script files) every line is
    scanned, not just Markdown code spans.
    """
    candidates = set()
    in_fence = False
    for line in text.splitlines():
        if not all_code and _FENCE_RE.match(line.strip()):
            in_fence = not in_fence
            continue
        if all_code or in_fence:
            segments = [line]
        else:
            segments = [m.group(1) for m in _CODE_SPAN_RE.finditer(line)]
        for segment in segments:
            for match in _PATH_RE.finditer(segment):
                candidates.add(match.group(1))
            for name in KNOWN_FILES:
                if re.search(rf"(?<![\w./-]){re.escape(name)}(?![\w-])", segment):
                    candidates.add(name)
    return candidates


def _normalise(token: str) -> str:
    """Strip trailing punctuation; reduce glob/placeholder refs to their dir."""
    token = token.rstrip(".,:;")
    # A token ending in "_" or "-" is the prefix of a glob like
    # "benchmarks/bench_*.py" (the path regex stops at "*"): validate the
    # directory part instead of the truncated filename.
    if token.endswith(("_", "-")):
        token = token.rsplit("/", 1)[0] if "/" in token else ""
    return token


def check_file(markdown: Path) -> list:
    text = markdown.read_text(encoding="utf-8")
    all_code = markdown.suffix in (".yml", ".yaml")
    missing = []
    for token in sorted(_candidate_paths(text, all_code=all_code)):
        cleaned = _normalise(token)
        if not cleaned or cleaned.endswith("/"):
            cleaned = cleaned.rstrip("/")
        if not cleaned:
            continue
        target = REPO_ROOT / cleaned
        if not target.exists():
            missing.append((markdown.relative_to(REPO_ROOT), token))
    return missing


def main(argv: list) -> int:
    if argv:
        files = [Path(a).resolve() for a in argv]
    else:
        workflows = REPO_ROOT / ".github" / "workflows"
        files = (
            [REPO_ROOT / "README.md"]
            + sorted((REPO_ROOT / "docs").glob("*.md"))
            + sorted(workflows.glob("*.yml"))
            + sorted(workflows.glob("*.yaml"))
        )
    files = [f for f in files if f.exists()]
    if not files:
        print("check_readme_paths: no markdown files found", file=sys.stderr)
        return 1
    failures = []
    for markdown in files:
        failures.extend(check_file(markdown))
    if failures:
        print("check_readme_paths: references to nonexistent paths:", file=sys.stderr)
        for source, token in failures:
            print(f"  {source}: {token}", file=sys.stderr)
        return 1
    print(f"check_readme_paths: OK ({len(files)} files checked)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
