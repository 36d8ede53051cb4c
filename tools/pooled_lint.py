#!/usr/bin/env python3
"""Project-invariant lints the compiler cannot check.

Every rule here encodes a convention this codebase already agreed on
(see src/support/ and tools/tsan.supp); the linter just keeps them from
regressing silently:

  bare-mutex       std::mutex / recursive_mutex / shared_mutex in src/
                   outside support/thread_annotations.hpp. The threaded
                   core locks AnnotatedMutex through LockGuard so Clang's
                   -Wthread-safety can check the lock discipline; a bare
                   std::mutex is invisible to the analysis.
  raw-assert       assert( or <cassert> in src/. NDEBUG strips assert
                   from Release, which is what CI measures and ships;
                   POOLED_CHECK aborts everywhere, POOLED_DCHECK is the
                   debug-only spelling.
  libc-rand        rand( / srand( anywhere. Simulations must be
                   reproducible from recorded seeds; all randomness goes
                   through the seeded engines (SplitMix/xoshiro). The one
                   deliberately unseeded draw is the consistency
                   fingerprint's key (std::random_device, once per
                   process, core/instance.cpp): a key a client could
                   learn would let it aim for a collision. It changes no
                   output except with probability <= 2^-33 per checked
                   candidate.
  kernel-alloc     heap allocation (new, malloc/calloc/realloc,
                   make_unique/make_shared, std::vector) inside the
                   kernel bodies: the ISA variants
                   src/kernels/kernels_*.cpp, the scalar loops they share
                   (kernels_common.hpp) and the per-draw accumulate
                   (entry_record.hpp). Kernels run per query inside the
                   decode loop; buffers belong to the caller (the arena
                   or the engine), never the kernel.
  bare-nolint      a NOLINT marker with no justification. Suppressing
                   clang-tidy is fine, silently is not: the same line or
                   the line above must carry a comment with prose (not
                   just the marker).
  bare-suppression a non-comment entry in tools/tsan.supp without a
                   justifying comment on the line(s) directly above it.

A rule can be waived for one line with `// pooled-lint: allow(<rule>)`
plus a reason on the same line or the line above -- the waiver comment
itself must say why.

Usage: pooled_lint.py [--root <repo>]
       pooled_lint.py --self-test
"""
import argparse
import os
import re
import sys
import tempfile

MUTEX_RE = re.compile(r"\bstd::(recursive_mutex|shared_mutex|mutex)\b")
ASSERT_RE = re.compile(r"(^|[^_\w.])assert\s*\(|#\s*include\s*<cassert>")
RAND_RE = re.compile(r"(^|[^_\w.:])s?rand\s*\(")
ALLOC_RE = re.compile(
    r"\bnew\b(?!\s*\()"  # `new Foo` (placement new has `new (`)
    r"|\bnew\s*\("
    r"|(^|[^_\w])(malloc|calloc|realloc)\s*\("
    r"|\bmake_unique\b|\bmake_shared\b"
    r"|\bstd::vector\b")
KERNEL_BODY_RE = re.compile(
    r"src/kernels/(kernels_\w+\.(cpp|hpp)|entry_record\.hpp)$")
NOLINT_RE = re.compile(r"NOLINT")
WAIVER_RE = re.compile(r"pooled-lint:\s*allow\(([a-z-]+)\)")

# A comment counts as a justification when it carries prose beyond the
# marker itself: at least one word of three-plus letters that is not the
# marker keyword.
def has_justification(comment: str) -> bool:
    text = NOLINT_RE.sub("", comment)
    text = re.sub(r"NOLINT(NEXTLINE|BEGIN|END)?(\([^)]*\))?", "", text)
    text = WAIVER_RE.sub("", text)
    return len(re.findall(r"[A-Za-z]{3,}", text)) >= 2


def comment_part(line: str) -> str:
    """The line's // comment, or '' (string literals with // are rare
    enough in this codebase that the simple split is right)."""
    index = line.find("//")
    return line[index:] if index >= 0 else ""


class Finding:
    def __init__(self, path, line_number, rule, message):
        self.path = path
        self.line_number = line_number
        self.rule = rule
        self.message = message

    def __str__(self):
        return f"{self.path}:{self.line_number}: [{self.rule}] {self.message}"


def waived(rule, line, previous_line):
    """True when this line (or the one above) waives `rule` with a
    pooled-lint: allow(...) comment, and either comment carries the
    reason (marker on the line, prose above, is the common spelling)."""
    comments = [comment_part(line), comment_part(previous_line)]
    marked = any(
        match and match.group(1) == rule
        for match in (WAIVER_RE.search(comment) for comment in comments))
    return marked and any(has_justification(c) for c in comments)


def lint_source_file(path, rel, lines):
    findings = []
    in_kernels = KERNEL_BODY_RE.match(rel) is not None
    is_annotations = rel == "src/support/thread_annotations.hpp"
    in_src = rel.startswith("src/")
    previous = ""
    for number, line in enumerate(lines, start=1):
        code = line.split("//", 1)[0]
        comment = comment_part(line)

        if in_src and not is_annotations and MUTEX_RE.search(code):
            if not waived("bare-mutex", line, previous):
                findings.append(Finding(
                    rel, number, "bare-mutex",
                    "bare std::mutex is invisible to -Wthread-safety; "
                    "use AnnotatedMutex + LockGuard "
                    "(support/thread_annotations.hpp)"))

        if in_src and ASSERT_RE.search(code):
            if not waived("raw-assert", line, previous):
                findings.append(Finding(
                    rel, number, "raw-assert",
                    "assert() vanishes under NDEBUG (Release CI); use "
                    "POOLED_CHECK or POOLED_DCHECK (support/assert.hpp)"))

        if RAND_RE.search(code):
            if not waived("libc-rand", line, previous):
                findings.append(Finding(
                    rel, number, "libc-rand",
                    "rand()/srand() breaks seeded reproducibility; use "
                    "the seeded engines"))

        if in_kernels and ALLOC_RE.search(code):
            if not waived("kernel-alloc", line, previous):
                findings.append(Finding(
                    rel, number, "kernel-alloc",
                    "heap allocation in a kernel hot path; buffers belong "
                    "to the caller"))

        if NOLINT_RE.search(line):
            justified = (has_justification(comment)
                         or has_justification(comment_part(previous)))
            if not justified:
                findings.append(Finding(
                    rel, number, "bare-nolint",
                    "NOLINT without a justifying comment on this line or "
                    "the line above"))

        previous = line
    return findings


def lint_suppression_file(rel, lines):
    findings = []
    previous_was_comment = False
    for number, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped:
            continue
        if stripped.startswith("#"):
            previous_was_comment = True
            continue
        if not previous_was_comment:
            findings.append(Finding(
                rel, number, "bare-suppression",
                "suppression entry without a justifying comment directly "
                "above it"))
        previous_was_comment = False
    return findings


def iter_source_files(root):
    for subdir in ("src", "fuzz", "tools"):
        top = os.path.join(root, subdir)
        if not os.path.isdir(top):
            continue
        for directory, _, names in os.walk(top):
            for name in sorted(names):
                if name.endswith((".cpp", ".hpp", ".h", ".cc")):
                    yield os.path.join(directory, name)


def lint_tree(root):
    findings = []
    for path in iter_source_files(root):
        rel = os.path.relpath(path, root).replace(os.sep, "/")
        with open(path, encoding="utf-8", errors="replace") as f:
            findings.extend(lint_source_file(path, rel, f.read().splitlines()))
    supp = os.path.join(root, "tools", "tsan.supp")
    if os.path.isfile(supp):
        with open(supp, encoding="utf-8") as f:
            findings.extend(
                lint_suppression_file("tools/tsan.supp", f.read().splitlines()))
    return findings


def self_test() -> int:
    """Each rule must fire on a minimal bad fixture and stay quiet on the
    idiomatic spelling (including justified waivers)."""
    cases = [
        # (name, relative path, content, expected rules)
        ("bare mutex fires", "src/x.cpp",
         "std::mutex mu;\n", ["bare-mutex"]),
        ("recursive mutex fires", "src/x.cpp",
         "std::recursive_mutex mu;\n", ["bare-mutex"]),
        ("annotations header is exempt", "src/support/thread_annotations.hpp",
         "std::mutex inner_;\n", []),
        ("annotated mutex is quiet", "src/x.cpp",
         "AnnotatedMutex mu;\nconst LockGuard lock(mu);\n", []),
        ("waived mutex is quiet", "src/x.cpp",
         "// the analysis cannot follow this FFI handoff\n"
         "std::mutex mu;  // pooled-lint: allow(bare-mutex)\n", []),
        ("unjustified waiver still fires", "src/x.cpp",
         "int y;\nstd::mutex mu;  // pooled-lint: allow(bare-mutex)\n",
         ["bare-mutex"]),
        ("raw assert fires", "src/x.cpp",
         "assert(x > 0);\n", ["raw-assert"]),
        ("cassert include fires", "src/x.cpp",
         "#include <cassert>\n", ["raw-assert"]),
        ("static_assert is quiet", "src/x.cpp",
         "static_assert(sizeof(int) == 4);\n", []),
        ("POOLED_CHECK is quiet", "src/x.cpp",
         "POOLED_CHECK(x > 0, \"x\");\n", []),
        ("assert in tests is out of scope", "tools/x.cpp",
         "assert(x);\n", []),
        ("rand fires", "src/x.cpp",
         "int r = rand();\n", ["libc-rand"]),
        ("srand fires", "tools/x.cpp",
         "srand(42);\n", ["libc-rand"]),
        ("random_shuffle-like names are quiet", "src/x.cpp",
         "grand(); my_rand(); std::uniform_int_distribution<int> d;\n", []),
        ("kernel vector fires", "src/kernels/kernels_avx2.cpp",
         "std::vector<double> tmp(n);\n", ["kernel-alloc"]),
        ("kernel new fires", "src/kernels/kernels_scalar.cpp",
         "auto* p = new double[n];\n", ["kernel-alloc"]),
        ("shared kernel header vector fires", "src/kernels/kernels_common.hpp",
         "std::vector<std::uint32_t> members;\n", ["kernel-alloc"]),
        ("record header make_unique fires", "src/kernels/entry_record.hpp",
         "auto block = std::make_unique<EntryRecord[]>(n);\n", ["kernel-alloc"]),
        ("arena header is quiet", "src/kernels/decode_arena.hpp",
         "std::vector<std::uint32_t> members_;\n", []),
        ("vector outside kernels is quiet", "src/core/x.cpp",
         "std::vector<double> tmp(n);\n", []),
        ("kernel dispatch header is quiet", "src/kernels/kernel_set.cpp",
         "std::vector<KernelIsa> isas;\n", []),
        ("bare NOLINT fires", "src/x.cpp",
         "foo();  // NOLINT\n", ["bare-nolint"]),
        ("justified NOLINT is quiet", "src/x.cpp",
         "foo();  // NOLINT: the cast narrows by design here\n", []),
        ("NOLINTNEXTLINE justified above is quiet", "src/x.cpp",
         "// the registry owns this pointer for the process lifetime\n"
         "// NOLINTNEXTLINE(cppcoreguidelines-owning-memory)\nfoo();\n", []),
    ]

    checks = []
    for name, rel, content, expected in cases:
        findings = lint_source_file(rel, rel, content.splitlines())
        got = sorted({f.rule for f in findings})
        checks.append((name, got == sorted(set(expected)),
                       f"expected {expected}, got {got}"))

    supp_bad = lint_suppression_file(
        "tools/tsan.supp", ["race:third_party_thing"])
    checks.append(("bare suppression fires",
                   [f.rule for f in supp_bad] == ["bare-suppression"], ""))
    supp_good = lint_suppression_file(
        "tools/tsan.supp",
        ["# glibc's dlopen-time TLS init races benignly under TSan",
         "race:third_party_thing"])
    checks.append(("justified suppression is quiet", not supp_good, ""))

    # End-to-end over a real (temporary) tree.
    with tempfile.TemporaryDirectory() as tree:
        os.makedirs(os.path.join(tree, "src"))
        with open(os.path.join(tree, "src", "bad.cpp"), "w") as f:
            f.write("#include <cassert>\nstd::mutex mu;\n")
        findings = lint_tree(tree)
        got = sorted(f.rule for f in findings)
        checks.append(("tree walk finds both",
                       got == ["bare-mutex", "raw-assert"], f"got {got}"))

    failed = [name for name, ok, _ in checks if not ok]
    for name, ok, detail in checks:
        suffix = "" if ok else f"  ({detail})"
        print(f"  self-test {'ok  ' if ok else 'FAIL'} {name}{suffix}")
    if failed:
        print(f"pooled_lint self-test failed: {', '.join(failed)}",
              file=sys.stderr)
        return 1
    print("pooled_lint self-test ok")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--root", default=".")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    findings = lint_tree(args.root)
    for finding in findings:
        print(finding, file=sys.stderr)
    if findings:
        print(f"pooled_lint: {len(findings)} finding(s)", file=sys.stderr)
        return 1
    print("pooled_lint: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
