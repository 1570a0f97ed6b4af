#!/usr/bin/env python3
"""Non-test Rust line counts per crate at a git revision.

    python3 tools/loc.py REV
    python3 tools/loc.py BASE CHANGE

Run from anywhere inside the repository. The rule: for every file
`crates/<crate>/src/**/*.rs` in the revision's tree, count its lines
before the first line that starts (after indentation) with
`#[cfg(test)]`; blank and comment lines count. A file without such a
line counts whole. Integration tests, benches, examples, the root facade
and the offline stand-ins under `crates/compat/` are outside the rule.

With one revision it prints the count per crate and the total. With two
it prints both counts and the change per crate, then the total change,
which is the "non-test Rust" figure a change log quotes. Reads only
committed trees (`git ls-tree`, `git show`), so the working copy does not
matter, and `HEAD HEAD` works on a depth-1 checkout.
"""

import subprocess
import sys


def git(*args):
    done = subprocess.run(["git", *args], capture_output=True, text=True)
    if done.returncode != 0:
        sys.exit(f"loc: git {' '.join(args)} failed: {done.stderr.strip()}")
    return done.stdout


def non_test_lines(text):
    lines = text.splitlines()
    for i, line in enumerate(lines):
        if line.lstrip().startswith("#[cfg(test)]"):
            return i
    return len(lines)


def counts(rev):
    """{crate: non-test lines} for `crates/<crate>/src/**/*.rs` at `rev`."""
    out = {}
    for path in git("ls-tree", "-r", "--name-only", rev, "--", "crates").splitlines():
        parts = path.split("/")
        if len(parts) < 4 or parts[2] != "src" or not path.endswith(".rs"):
            continue
        n = non_test_lines(git("show", f"{rev}:{path}"))
        out[parts[1]] = out.get(parts[1], 0) + n
    return out


def main(argv):
    if len(argv) not in (1, 2) or argv[0].startswith("-"):
        sys.exit("usage: python3 tools/loc.py REV | BASE CHANGE")
    if len(argv) == 1:
        c = counts(argv[0])
        for crate in sorted(c):
            print(f"{crate:24} {c[crate]:7}")
        print(f"{'total':24} {sum(c.values()):7}")
        return
    base, change = counts(argv[0]), counts(argv[1])
    print(f"{'crate':24} {'base':>7} {'change':>7} {'delta':>7}")
    for crate in sorted(set(base) | set(change)):
        b, c = base.get(crate, 0), change.get(crate, 0)
        print(f"{crate:24} {b:7} {c:7} {c - b:+7}")
    b, c = sum(base.values()), sum(change.values())
    print(f"{'total':24} {b:7} {c:7} {c - b:+7}")


if __name__ == "__main__":
    main(sys.argv[1:])
