#!/usr/bin/env python3
"""Fail if docs/ (or README.md) reference files or links that do not exist.

    tools/check_docs_links.py [--root REPO_ROOT]

Three classes of references are checked in every markdown file under docs/
plus README.md:

  * relative markdown links: [text](path) and [text](path#anchor) — the path,
    resolved against the containing file's directory, must exist (http(s):,
    mailto: and pure-anchor links are skipped);
  * backticked repo paths: `src/...`, `tests/...`, `bench/...`, `tools/...`,
    `examples/...`, `docs/...`, `.github/...` — the named file or directory
    must exist (a trailing ":<line>" or "#anchor" is stripped; a `.{h,cpp}`
    brace-pair like `service/lane_registry.{h,cpp}` expands to both files);
  * backticked code identifiers: a CamelCase name, optionally `ns::`-qualified
    and optionally ending in `::member` or `()` (`SimKeyedSnapshot`,
    `rt::PublishOnce::get`, `C2Store::global_max()`) — the CamelCase name
    must occur as a word in some file under src/, tests/, examples/, bench/
    or tools/.

Prose that names a code path or class which has since moved or been renamed
is exactly how docs rot; this runs in CI so a rename that orphans
documentation fails the build instead of silently shipping stale docs. No
dependencies beyond the standard library; exit 0 = clean, 1 = stale
references (each printed), 2 = bad usage.
"""

import argparse
import os
import re
import sys

MD_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
BACKTICK = re.compile(r"`([^`\n]+)`")
REPO_PATH = re.compile(
    r"^(?:src|tests|bench|tools|examples|docs|\.github)/[A-Za-z0-9_./{},-]+$")
# `Name`, `ns::Name`, `Name::member`, `ns::Name::member()`: group 1 is the
# CamelCase name (upper-case first letter, at least one lower-case letter).
CODE_IDENT = re.compile(
    r"^(?:[a-z_][a-z0-9_]*::)*([A-Z][A-Za-z0-9_]*[a-z][A-Za-z0-9_]*)"
    r"(?:::~?[A-Za-z_][A-Za-z0-9_]*)?(?:\(\))?$")
CODE_DIRS = ("src", "tests", "examples", "bench", "tools")
WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def expand_braces(token):
    """service/x.{h,cpp} -> [service/x.h, service/x.cpp]; no braces -> [token]."""
    m = re.match(r"^(.*)\{([^}]*)\}(.*)$", token)
    if not m:
        return [token]
    return [m.group(1) + alt + m.group(3) for alt in m.group(2).split(",")]


def code_words(root):
    """Every identifier-like word in the files under CODE_DIRS."""
    words = set()
    for d in CODE_DIRS:
        for dirpath, _, names in os.walk(os.path.join(root, d)):
            for name in names:
                path = os.path.join(dirpath, name)
                try:
                    with open(path, encoding="utf-8", errors="ignore") as f:
                        words.update(WORD.findall(f.read()))
                except OSError:
                    continue
    return words


def check_file(md_path, root, words):
    problems = []
    text = open(md_path, encoding="utf-8").read()
    base = os.path.dirname(md_path)

    for target in MD_LINK.findall(text):
        if target.startswith(("http://", "https://", "mailto:", "#")):
            continue
        path = target.split("#", 1)[0]
        if not path:
            continue
        resolved = os.path.normpath(os.path.join(base, path))
        if not os.path.exists(resolved):
            problems.append(f"{md_path}: broken link -> {target}")

    for token in BACKTICK.findall(text):
        token = token.strip()
        ident = CODE_IDENT.match(token)
        if ident:
            if ident.group(1) not in words:
                problems.append(f"{md_path}: stale identifier `{token}`")
            continue
        token = token.split("#", 1)[0]
        token = re.sub(r":\d+$", "", token)  # `src/foo.h:42` -> `src/foo.h`
        if not REPO_PATH.match(token):
            continue
        for candidate in expand_braces(token):
            if not os.path.exists(os.path.join(root, candidate)):
                problems.append(f"{md_path}: stale path reference `{candidate}`")

    return problems


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", default=os.path.dirname(
        os.path.dirname(os.path.abspath(__file__))))
    args = ap.parse_args()

    targets = [os.path.join(args.root, "README.md")]
    docs_dir = os.path.join(args.root, "docs")
    if os.path.isdir(docs_dir):
        for name in sorted(os.listdir(docs_dir)):
            if name.endswith(".md"):
                targets.append(os.path.join(docs_dir, name))
    targets = [t for t in targets if os.path.exists(t)]
    if not targets:
        print("check_docs_links: nothing to check (no README.md or docs/)",
              file=sys.stderr)
        return 2

    words = code_words(args.root)
    problems = []
    for md in targets:
        problems.extend(check_file(md, args.root, words))

    for p in problems:
        print(p)
    if problems:
        print(f"check_docs_links: {len(problems)} stale reference(s) in "
              f"{len(targets)} file(s)", file=sys.stderr)
        return 1
    print(f"check_docs_links: ok ({len(targets)} files clean)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
