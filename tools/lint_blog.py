#!/usr/bin/env python3
"""Repo-specific lint, run in CI (see .github/workflows/ci.yml `lint` job).

Checks, each independent (all run; any failure fails the process):

1. X-macro sync.
   - Every `BLOG_HEAD_OPS` row has a matching `case HeadOp::k<Name>` in the
     dispatch loop of src/db/head_code.cpp (the enum/name tables expand the
     macro directly, but the switch is hand-written and can drift).
   - Every `BLOG_TRACE_EVENTS` display string appears in the hand-maintained
     event table of docs/OBSERVABILITY.md (the code-side tables expand the
     macro; the doc is the consumer that goes stale).

2. Header self-containment: every public header under include/blog compiles
   standalone (`g++ -fsyntax-only -std=c++20 -I include` on a one-line TU).

3. TODO/FIXME hygiene: every TODO or FIXME in sources must carry an ISSUE
   reference (the literal string "ISSUE" on the same line), so stale notes
   can be traced to a tracked task.

4. One thread owner: the library starts worker threads only in the
   persistent pool (parallel/executor.*). Any other `std::thread` or
   `std::jthread` object in src/ or include/ is a second way to run
   workers and fails the check.

Exit code 0 = clean, 1 = findings (printed one per line, grep-friendly).
"""

from __future__ import annotations

import re
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
ERRORS: list[str] = []


def err(msg: str) -> None:
    ERRORS.append(msg)
    print(f"lint_blog: {msg}", file=sys.stderr)


def macro_body(text: str, macro: str) -> str:
    """Body of `#define <macro>(X) ...` (all backslash-continued lines)."""
    m = re.search(rf"#define {macro}\(X\)", text)
    if not m:
        return ""
    body_lines = []
    for line in text[m.start():].splitlines():
        body_lines.append(line)
        if not line.rstrip().endswith("\\"):
            break
    body = "\n".join(body_lines)
    return re.sub(r"/\*.*?\*/", "", body, flags=re.S)  # strip comments


def macro_rows(text: str, macro: str) -> list[str]:
    """First identifier of each `X(...)` row inside `#define <macro>(X) ...`."""
    return re.findall(r"\bX\(\s*([A-Za-z_][A-Za-z0-9_]*)",
                      macro_body(text, macro))


def check_head_ops() -> None:
    hpp = (REPO / "include/blog/db/head_code.hpp").read_text()
    cpp = (REPO / "src/db/head_code.cpp").read_text()
    names = macro_rows(hpp, "BLOG_HEAD_OPS")
    if not names:
        err("BLOG_HEAD_OPS table not found in include/blog/db/head_code.hpp")
        return
    for name in names:
        if f"case HeadOp::k{name}" not in cpp:
            err(f"BLOG_HEAD_OPS row {name} has no `case HeadOp::k{name}` "
                "in src/db/head_code.cpp dispatch loop")


def check_trace_events() -> None:
    hpp = (REPO / "include/blog/obs/trace.hpp").read_text()
    doc_path = REPO / "docs/OBSERVABILITY.md"
    names = macro_rows(hpp, "BLOG_TRACE_EVENTS")
    if not names:
        err("BLOG_TRACE_EVENTS table not found in include/blog/obs/trace.hpp")
        return
    # Displays: second argument of each row (scoped to the macro body,
    # not doc comments elsewhere in the header).
    displays = re.findall(r'X\(\s*[A-Za-z_][A-Za-z0-9_]*\s*,\s*"([^"]+)"',
                          macro_body(hpp, "BLOG_TRACE_EVENTS"))
    if not doc_path.exists():
        err("docs/OBSERVABILITY.md missing (BLOG_TRACE_EVENTS consumer)")
        return
    doc = doc_path.read_text()
    for display in displays:
        if display not in doc:
            err(f"BLOG_TRACE_EVENTS display \"{display}\" missing from "
                "docs/OBSERVABILITY.md event table")


def check_header_self_containment() -> None:
    headers = sorted((REPO / "include" / "blog").rglob("*.hpp"))
    if not headers:
        err("no headers found under include/blog")
        return
    with tempfile.TemporaryDirectory() as td:
        tu = Path(td) / "tu.cpp"
        for h in headers:
            rel = h.relative_to(REPO / "include")
            tu.write_text(f'#include "{rel.as_posix()}"\n')
            r = subprocess.run(
                ["g++", "-std=c++20", "-fsyntax-only",
                 "-I", str(REPO / "include"), str(tu)],
                capture_output=True, text=True)
            if r.returncode != 0:
                first = (r.stderr.strip().splitlines() or ["?"])[0]
                err(f"header {rel.as_posix()} does not compile standalone: "
                    f"{first}")


def check_todo_references() -> None:
    roots = ["include", "src", "tests", "bench", "examples", "tools"]
    pat = re.compile(r"\b(TODO|FIXME)\b")
    for root in roots:
        base = REPO / root
        if not base.exists():
            continue
        for f in sorted(base.rglob("*")):
            if f.suffix not in {".hpp", ".cpp", ".h", ".cc", ".py"}:
                continue
            if f.name == Path(__file__).name:
                continue  # this linter's own docs mention the markers
            for lineno, line in enumerate(f.read_text().splitlines(), 1):
                if pat.search(line) and "ISSUE" not in line:
                    rel = f.relative_to(REPO)
                    err(f"{rel}:{lineno}: {pat.search(line).group(1)} "
                        "without ISSUE reference")


# A thread object: the type named anywhere but before `::` (so
# `std::thread::hardware_concurrency()` and `std::this_thread` pass).
THREAD_OBJECT = re.compile(r"\bstd::j?thread\b(?!\s*::)")
THREAD_OWNERS = {"executor.hpp", "executor.cpp"}


def check_thread_owner() -> None:
    for root in ["src", "include"]:
        for f in sorted((REPO / root).rglob("*")):
            if f.suffix not in {".hpp", ".cpp", ".h", ".cc"}:
                continue
            if f.parent.name == "parallel" and f.name in THREAD_OWNERS:
                continue
            for lineno, line in enumerate(f.read_text().splitlines(), 1):
                code = line.split("//", 1)[0]
                if THREAD_OBJECT.search(code):
                    rel = f.relative_to(REPO)
                    err(f"{rel}:{lineno}: std::thread outside "
                        "parallel/executor.*: run workers on the Executor")


def main() -> int:
    check_head_ops()
    check_trace_events()
    check_header_self_containment()
    check_todo_references()
    check_thread_owner()
    if ERRORS:
        print(f"lint_blog: {len(ERRORS)} finding(s)", file=sys.stderr)
        return 1
    print("lint_blog: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
