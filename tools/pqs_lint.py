#!/usr/bin/env python3
"""pqs_lint — project-invariant linter for the pqs codebase.

Generic static analysis (clang-tidy, -Wthread-safety) catches generic bug
classes; this linter encodes the invariants that are specific to THIS
repository — each rule exists because the bug class it flags either
actually shipped here or is one design decision away from shipping:

  thread-local-omp   A `static thread_local` variable referenced inside an
                     `#pragma omp parallel` region. Worker threads each see
                     their own (empty) thread_local instance, so writes go
                     to buffers nobody reads — the exact PR 6
                     apply_dense_matrix bug. Hoist a raw pointer to a
                     caller-owned buffer outside the region instead
                     (src/qsim/diffusion.cpp shows the fixed shape).

  raw-plane-access   `.re(` / `.im(` SoA plane access outside the qsim
                     kernel/substrate layer. The planes carry a block-sum
                     cache (qsim/soa.h); code that touches them directly
                     bypasses the cache discipline and silently corrupts
                     the next reflection's skipped read pass.

  raw-random         `rand()` / `srand()` / a naked `std::mt19937` outside
                     common/random. Everything stochastic must draw from
                     pqs::Rng so runs are reproducible from the seed
                     printed in each report.

  bare-mutex         A `std::mutex` (or recursive/shared/timed variant)
                     declared outside common/thread_annotations.h. Bare
                     mutexes are invisible to the Clang thread-safety
                     analysis; use the capability-annotated pqs::Mutex so
                     lock discipline stays machine-checked.

  omp-pragma         `#pragma omp` in a file not on the approved list.
                     OpenMP regions interact with thread_locals, the
                     BatchRunner's own fan-out, and TSan's blind spot for
                     libgomp — new parallel regions are a reviewed
                     decision, not a drive-by.

  raw-socket         A raw POSIX socket call (`::socket`, `::accept`,
                     `::bind`, `::listen`, `::connect`, ...) outside
                     src/net/. The net layer decides partial writes, EINTR,
                     SIGPIPE suppression, and shutdown-to-unblock ONCE
                     (src/net/socket.h); a drive-by socket call elsewhere
                     reopens every one of those bug classes.

  journal-append     An append-mode file open (`O_APPEND`, `std::ios::app`)
                     outside src/service/journal.cpp. Append-mode writes
                     are the journal's durability contract — one write(2)
                     per record, torn-tail recovery, id continuation — and
                     a second writer appending to any journal file corrupts
                     exactly the records a crash is supposed to preserve.
                     All journal writes go through the Journal class.

  raw-clock          A direct `std::chrono::*_clock::now()` call outside
                     common/timing and src/obs/. Every instrumentation
                     timestamp flows through pqs::Stopwatch / steady_now()
                     or obs::trace_now_ns() — ONE clock per concern — so
                     trace and slow-request tests can fake time
                     (obs::set_fake_clock_ns_for_testing) instead of
                     sleeping, and a span timeline is always comparable to
                     the stage histograms recorded next to it.

Every approved-file list below names files that must exist: the tree scan
also fails on an entry whose file is gone, so a grant cannot outlive the
code it was made for.

Usage:
  tools/pqs_lint.py [--root DIR]      lint the tree (src/ tools/ examples/
                                      bench/) and the approved-file lists;
                                      exit 1 on any violation
  tools/pqs_lint.py --self-test       run the golden fixtures under
                                      tests/lint_fixtures/ (each rule has
                                      one violating and one clean fixture)
  tools/pqs_lint.py FILE [FILE...]    lint specific files
"""

import argparse
import re
import sys
from pathlib import Path

# ---------------------------------------------------------------------------
# Approved-file lists (repo-relative, forward slashes). Growing one of these
# is an explicit, reviewed act — that is the point of the lint.

# The SoA substrate: the kernel tiers plus DenseBackend, the one qsim
# internal that legitimately streams the raw planes (its sampler).
PLANE_ACCESS_ALLOWED = {
    "src/qsim/soa.h",
    "src/qsim/kernels.h",
    "src/qsim/kernels_ops.h",
    "src/qsim/kernels_scalar.cpp",
    "src/qsim/kernels_avx2.cpp",
    "src/qsim/kernels_avx512.cpp",
    "src/qsim/kernels_soa.cpp",
    "src/qsim/backend.cpp",
}

RANDOM_ALLOWED = {
    "src/common/random.h",
    "src/common/random.cpp",
}

BARE_MUTEX_ALLOWED = {
    # The one place std::mutex may appear: wrapped into the annotated
    # capability type everyone else uses.
    "src/common/thread_annotations.h",
}

OMP_PRAGMA_ALLOWED = {
    "src/qsim/kernels.h",
    "src/qsim/kernels_scalar.cpp",
    "src/qsim/kernels_soa.cpp",
    "src/qsim/gates2.cpp",
    "src/qsim/diffusion.cpp",
    "src/qsim/batch.cpp",
}

SCAN_DIRS = ("src", "tools", "examples", "bench")
SCAN_SUFFIXES = (".h", ".cpp")


class Violation:
    def __init__(self, path, line, rule, message):
        self.path = path
        self.line = line  # 1-based
        self.rule = rule
        self.message = message

    def __str__(self):
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def strip_comments_and_strings(text):
    """Blank out comments and string/char literals, preserving line layout.

    Every replaced character becomes a space (newlines survive), so line
    numbers and column positions in the result match the original. Keeps
    preprocessor lines intact — pragmas are code, not comments.
    """
    out = []
    i = 0
    n = len(text)
    state = "code"
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == "code":
            if c == "/" and nxt == "/":
                state = "line_comment"
                out.append("  ")
                i += 2
            elif c == "/" and nxt == "*":
                state = "block_comment"
                out.append("  ")
                i += 2
            elif c == '"':
                state = "string"
                out.append(" ")
                i += 1
            elif c == "'":
                state = "char"
                out.append(" ")
                i += 1
            else:
                out.append(c)
                i += 1
        elif state == "line_comment":
            if c == "\n":
                state = "code"
                out.append("\n")
            else:
                out.append(" ")
            i += 1
        elif state == "block_comment":
            if c == "*" and nxt == "/":
                state = "code"
                out.append("  ")
                i += 2
            else:
                out.append("\n" if c == "\n" else " ")
                i += 1
        elif state in ("string", "char"):
            quote = '"' if state == "string" else "'"
            if c == "\\":
                out.append("  ")
                i += 2
            elif c == quote:
                state = "code"
                out.append(" ")
                i += 1
            else:
                out.append("\n" if c == "\n" else " ")
                i += 1
    return "".join(out)


OMP_PARALLEL_RE = re.compile(r"^\s*#\s*pragma\s+omp\s+parallel\b")
OMP_ANY_RE = re.compile(r"^\s*#\s*pragma\s+omp\b")
PREPROC_RE = re.compile(r"^\s*#")


def omp_parallel_regions(stripped_lines):
    """(pragma_idx, first_idx, last_idx) 0-based line spans of the statement
    each `#pragma omp parallel ...` applies to.

    The structured block is the next non-preprocessor statement: a braced
    block (tracked to its matching close) or a single statement up to a
    top-level `;` (semicolons inside parens — a for-header — don't count).
    """
    regions = []
    n = len(stripped_lines)
    for idx, line in enumerate(stripped_lines):
        if not OMP_PARALLEL_RE.match(line):
            continue
        brace_depth = 0
        paren_depth = 0
        saw_brace = False
        first = None
        last = None
        k = idx + 1
        while k < n and last is None:
            text = stripped_lines[k]
            if PREPROC_RE.match(text):  # e.g. the #endif of an OpenMP guard
                k += 1
                continue
            if first is None and text.strip():
                first = k
            for ch in text:
                if ch == "(":
                    paren_depth += 1
                elif ch == ")":
                    paren_depth -= 1
                elif ch == "{":
                    brace_depth += 1
                    saw_brace = True
                elif ch == "}":
                    brace_depth -= 1
                    if saw_brace and brace_depth == 0:
                        last = k
                        break
                elif (ch == ";" and not saw_brace and paren_depth == 0
                      and first is not None):
                    last = k
                    break
            k += 1
        if first is not None:
            regions.append((idx, first, last if last is not None else n - 1))
    return regions


STATIC_THREAD_LOCAL_RE = re.compile(
    r"\b(?:static\s+thread_local|thread_local\s+static)\b"
    r"[\w:<>,\s*&]*?(\w+)\s*(?:;|=|\{|\()")


def check_thread_local_omp(rel, raw, stripped):
    del raw
    lines = stripped.split("\n")
    regions = omp_parallel_regions(lines)
    if not regions:
        return []
    violations = []
    for match in STATIC_THREAD_LOCAL_RE.finditer(stripped):
        name = match.group(1)
        decl_line = stripped.count("\n", 0, match.start()) + 1
        name_re = re.compile(r"\b" + re.escape(name) + r"\b")
        for pragma_idx, first, last in regions:
            if first <= decl_line - 1 <= last:
                violations.append(Violation(
                    rel, decl_line, "thread-local-omp",
                    f"`static thread_local` variable '{name}' declared "
                    f"inside the OpenMP parallel region starting at line "
                    f"{pragma_idx + 1}"))
                continue
            for k in range(first, last + 1):
                if name_re.search(lines[k]):
                    violations.append(Violation(
                        rel, k + 1, "thread-local-omp",
                        f"`static thread_local` variable '{name}' (declared "
                        f"at line {decl_line}) referenced inside the OpenMP "
                        f"parallel region starting at line {pragma_idx + 1}; "
                        f"each worker sees its own empty instance — hoist a "
                        f"raw pointer outside the region"))
                    break  # one report per (variable, region)
    return violations


PLANE_RE = re.compile(r"(?:\.|->)\s*(re|im)\s*\(")


def check_plane_access(rel, raw, stripped):
    del raw
    if rel in PLANE_ACCESS_ALLOWED:
        return []
    violations = []
    for match in PLANE_RE.finditer(stripped):
        line = stripped.count("\n", 0, match.start()) + 1
        violations.append(Violation(
            rel, line, "raw-plane-access",
            f"raw SoA plane access `.{match.group(1)}(` outside the qsim "
            f"kernel layer; go through qsim::Backend or qsim::kernels (the "
            f"planes carry a block-sum cache that direct access corrupts)"))
    return violations


RANDOM_RE = re.compile(r"\b(?:std\s*::\s*)?(s?rand)\s*\(|\bstd\s*::\s*(mt19937(?:_64)?)\b")


def check_raw_random(rel, raw, stripped):
    del raw
    if rel in RANDOM_ALLOWED:
        return []
    violations = []
    for match in RANDOM_RE.finditer(stripped):
        line = stripped.count("\n", 0, match.start()) + 1
        what = match.group(1) or match.group(2)
        violations.append(Violation(
            rel, line, "raw-random",
            f"'{what}' bypasses pqs::Rng (common/random.h); every "
            f"stochastic path must be reproducible from the report's seed"))
    return violations


MUTEX_RE = re.compile(r"\bstd\s*::\s*((?:recursive_|shared_|timed_)?mutex)\b")


def check_bare_mutex(rel, raw, stripped):
    del raw
    if rel in BARE_MUTEX_ALLOWED:
        return []
    violations = []
    for match in MUTEX_RE.finditer(stripped):
        line = stripped.count("\n", 0, match.start()) + 1
        violations.append(Violation(
            rel, line, "bare-mutex",
            f"bare std::{match.group(1)} is invisible to the Clang "
            f"thread-safety analysis; use pqs::Mutex + PQS_GUARDED_BY "
            f"(common/thread_annotations.h)"))
    return violations


# The ::-qualified POSIX socket entry points. The lookbehind keeps
# namespace-qualified names (pqs::net::connect_to, asio::bind) out of it.
SOCKET_RE = re.compile(
    r"(?<![\w:])::\s*(socket|accept4?|bind|listen|connect|recv|recvfrom|"
    r"send|sendto|setsockopt|getsockopt|getsockname|getaddrinfo|shutdown)"
    r"\s*\(")


def check_raw_socket(rel, raw, stripped):
    del raw
    if rel.startswith("src/net/"):
        return []
    violations = []
    for match in SOCKET_RE.finditer(stripped):
        line = stripped.count("\n", 0, match.start()) + 1
        violations.append(Violation(
            rel, line, "raw-socket",
            f"raw POSIX socket call `::{match.group(1)}(` outside src/net/; "
            f"use the net layer (src/net/socket.h) so partial writes, "
            f"EINTR, SIGPIPE, and shutdown-to-unblock stay decided once"))
    return violations


# The one file allowed to open anything for appending: the journal layer
# itself (its two ::open calls ARE the durability contract).
JOURNAL_APPEND_ALLOWED = {
    "src/service/journal.cpp",
}

APPEND_OPEN_RE = re.compile(
    r"\bO_APPEND\b|\b(?:std\s*::\s*)?ios(?:_base)?\s*::\s*app\b")


def check_journal_append(rel, raw, stripped):
    del raw
    if rel in JOURNAL_APPEND_ALLOWED:
        return []
    violations = []
    for match in APPEND_OPEN_RE.finditer(stripped):
        line = stripped.count("\n", 0, match.start()) + 1
        violations.append(Violation(
            rel, line, "journal-append",
            "append-mode file open outside src/service/journal.cpp; all "
            "journal writes must go through the Journal class (one write(2) "
            "per record, torn-tail recovery, id continuation — a second "
            "appender corrupts what a crash is supposed to preserve)"))
    return violations


# The sanctioned clock homes: the Stopwatch/steady_now wrappers and the
# obs trace clock (which carries the fake-time test hook).
RAW_CLOCK_ALLOWED = {
    "src/common/timing.h",
    "src/common/timing.cpp",
}

RAW_CLOCK_RE = re.compile(
    r"\bstd\s*::\s*chrono\s*::\s*\w+_clock\s*::\s*now\s*\(")


def check_raw_clock(rel, raw, stripped):
    del raw
    if rel in RAW_CLOCK_ALLOWED or rel.startswith("src/obs/"):
        return []
    violations = []
    for match in RAW_CLOCK_RE.finditer(stripped):
        line = stripped.count("\n", 0, match.start()) + 1
        violations.append(Violation(
            rel, line, "raw-clock",
            "direct std::chrono clock read outside common/timing and "
            "src/obs/; use pqs::Stopwatch / pqs::steady_now() (or "
            "obs::trace_now_ns() for span timestamps) so tests can fake "
            "time through one hook"))
    return violations


def check_omp_pragma(rel, raw, stripped):
    del raw
    if rel in OMP_PRAGMA_ALLOWED:
        return []
    violations = []
    for idx, line in enumerate(stripped.split("\n")):
        if OMP_ANY_RE.match(line):
            violations.append(Violation(
                rel, idx + 1, "omp-pragma",
                "`#pragma omp` in a file not on the approved OpenMP list "
                "(tools/pqs_lint.py OMP_PRAGMA_ALLOWED); new parallel "
                "regions are a reviewed decision"))
    return violations


RULES = {
    "thread-local-omp": check_thread_local_omp,
    "raw-plane-access": check_plane_access,
    "raw-random": check_raw_random,
    "bare-mutex": check_bare_mutex,
    "omp-pragma": check_omp_pragma,
    "raw-socket": check_raw_socket,
    "journal-append": check_journal_append,
    "raw-clock": check_raw_clock,
}


def lint_file(path, rel, rules=None):
    try:
        raw = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as err:
        return [Violation(rel, 1, "io", f"unreadable: {err}")]
    stripped = strip_comments_and_strings(raw)
    violations = []
    for check in (rules or RULES).values():
        violations.extend(check(rel, raw, stripped))
    return violations


def tree_files(root):
    for subdir in SCAN_DIRS:
        base = root / subdir
        if not base.is_dir():
            continue
        for path in sorted(base.rglob("*")):
            if path.suffix in SCAN_SUFFIXES and path.is_file():
                yield path


ALLOWLISTS = {
    "PLANE_ACCESS_ALLOWED": PLANE_ACCESS_ALLOWED,
    "RANDOM_ALLOWED": RANDOM_ALLOWED,
    "BARE_MUTEX_ALLOWED": BARE_MUTEX_ALLOWED,
    "OMP_PRAGMA_ALLOWED": OMP_PRAGMA_ALLOWED,
    "JOURNAL_APPEND_ALLOWED": JOURNAL_APPEND_ALLOWED,
    "RAW_CLOCK_ALLOWED": RAW_CLOCK_ALLOWED,
}


def check_allowlists(root):
    """An approved-file entry whose file no longer exists is a violation:
    deleting a file must also revoke its grant."""
    violations = []
    for name, entries in ALLOWLISTS.items():
        for rel in sorted(entries):
            if not (root / rel).is_file():
                violations.append(Violation(
                    rel, 1, "stale-allowlist",
                    f"tools/pqs_lint.py {name} names a file that does not "
                    f"exist; drop the entry with the file"))
    return violations


def lint_tree(root):
    violations = check_allowlists(root)
    count = 0
    for path in tree_files(root):
        count += 1
        violations.extend(lint_file(path, path.relative_to(root).as_posix()))
    return violations, count


def run_self_test(root):
    """Golden fixtures: tests/lint_fixtures/<rule>.violation.cpp must trip
    its rule; <rule>.clean.cpp must not. Each fixture is evaluated against
    its NAMED rule only (a thread-local-omp fixture necessarily contains an
    OpenMP pragma, which is the omp-pragma rule's business, not its own).
    Every rule must have both fixtures — a rule without fixtures can
    silently rot."""
    fixture_dir = root / "tests" / "lint_fixtures"
    if not fixture_dir.is_dir():
        print(f"self-test: fixture dir {fixture_dir} missing", file=sys.stderr)
        return 1
    failures = []
    seen = {rule: set() for rule in RULES}
    for path in sorted(fixture_dir.iterdir()):
        if path.suffix not in SCAN_SUFFIXES:
            continue
        parts = path.name.split(".")
        if len(parts) != 3 or parts[1] not in ("violation", "clean"):
            failures.append(f"{path.name}: fixture name must be "
                            f"<rule>.violation.<ext> or <rule>.clean.<ext>")
            continue
        rule, kind = parts[0], parts[1]
        if rule not in RULES:
            failures.append(f"{path.name}: unknown rule '{rule}'")
            continue
        seen[rule].add(kind)
        violations = lint_file(path, path.name, rules={rule: RULES[rule]})
        if kind == "violation" and not violations:
            failures.append(f"{path.name}: expected a '{rule}' violation, "
                            f"got none")
        elif kind == "clean" and violations:
            failures.append(
                f"{path.name}: expected clean under rule '{rule}', got: "
                + "; ".join(str(v) for v in violations))
    for rule, kinds in seen.items():
        for kind in ("violation", "clean"):
            if kind not in kinds:
                failures.append(f"rule '{rule}' has no .{kind}. fixture")
    if failures:
        for failure in failures:
            print(f"self-test FAIL: {failure}", file=sys.stderr)
        return 1
    total = sum(len(kinds) for kinds in seen.values())
    print(f"pqs_lint self-test: {total} fixtures across "
          f"{len(RULES)} rules — all behave as pinned")
    return 0


def main(argv):
    parser = argparse.ArgumentParser(
        description="Project-invariant linter (see module docstring).")
    parser.add_argument("--root", type=Path,
                        default=Path(__file__).resolve().parent.parent,
                        help="repository root (default: this script's repo)")
    parser.add_argument("--self-test", action="store_true",
                        help="verify the rules against the golden fixtures")
    parser.add_argument("files", nargs="*", type=Path,
                        help="specific files to lint (default: whole tree)")
    args = parser.parse_args(argv)

    root = args.root.resolve()
    if args.self_test:
        return run_self_test(root)

    if args.files:
        violations = []
        for path in args.files:
            resolved = path.resolve()
            try:
                rel = resolved.relative_to(root).as_posix()
            except ValueError:
                rel = path.as_posix()
            violations.extend(lint_file(resolved, rel))
        count = len(args.files)
    else:
        violations, count = lint_tree(root)

    for violation in violations:
        print(violation)
    if violations:
        print(f"pqs_lint: {len(violations)} violation(s) in {count} files",
              file=sys.stderr)
        return 1
    print(f"pqs_lint: {count} files clean")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
