#!/usr/bin/env python3
"""CI gate against dead exported functions.

Usage: dead_code_gate.py [ROOT]

Every `val NAME` declared in a lib/**/*.mli must be referenced somewhere
in the OCaml sources (.ml/.mli) under lib, bin, bench, test, examples,
tools or perfbench, other than its own definition: the `val` line
itself and the first `let`/`and`/`external` binding of NAME in the
sibling .ml.  The search is textual and by bare name, so a name shared
by two modules counts as used when either is used; the gate can miss
dead code, never flag live code.  Exits 1 and lists each dead `val`
when any is found.
"""

import os
import re
import sys

DIRS = ["lib", "bin", "bench", "test", "examples", "tools", "perfbench"]
VAL = re.compile(r"^\s*val\s+([a-z_][A-Za-z0-9_']*)\s*:", re.M)
WORD = r"(?<![A-Za-z0-9_'])%s(?![A-Za-z0-9_'])"


def sources(root):
    for d in DIRS:
        for base, dirs, files in os.walk(os.path.join(root, d)):
            dirs[:] = [x for x in dirs if not x.startswith((".", "_build"))]
            for f in files:
                if f.endswith((".ml", ".mli")):
                    yield os.path.join(base, f)


def main():
    root = sys.argv[1] if len(sys.argv) > 1 else "."
    text = {}
    for path in sources(root):
        with open(path, encoding="utf-8") as f:
            text[path] = f.read()
    decls = []  # (mli path, line number, name)
    for path, src in sorted(text.items()):
        if path.endswith(".mli") and os.path.relpath(path, root).startswith("lib"):
            for m in VAL.finditer(src):
                decls.append((path, src.count("\n", 0, m.start()) + 1, m.group(1)))
    uses = {}
    for name in {n for _, _, n in decls}:
        word = re.compile(WORD % re.escape(name))
        uses[name] = sum(len(word.findall(src)) for src in text.values())
    defs = {}
    for path, _, name in decls:
        defs[name] = defs.get(name, 0) + 1
        impl = text.get(path[:-1], "")
        binding = re.compile(r"^\s*(let|and|external)\s+(rec\s+)?%s(?![A-Za-z0-9_'])"
                             % re.escape(name), re.M)
        if binding.search(impl):
            defs[name] += 1
    dead = [(p, line, n) for p, line, n in decls if uses[n] <= defs[n]]
    for path, line, name in dead:
        print("%s:%d: val %s is referenced nowhere but its definition"
              % (os.path.relpath(path, root), line, name))
    if dead:
        sys.exit(1)
    print("dead-code gate: %d exported vals, all referenced" % len(decls))


if __name__ == "__main__":
    main()
