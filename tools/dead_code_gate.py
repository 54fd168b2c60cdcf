#!/usr/bin/env python3
"""CI gate against dead exported functions.

Usage: dead_code_gate.py [ROOT]

Every `val NAME` declared in a lib/**/*.mli must be referenced somewhere
in the OCaml sources (.ml/.mli) under lib, bin, bench, test, examples,
tools or perfbench, other than its own definition: the `val` line
itself and the first `let`/`and`/`external` binding of NAME in the
sibling .ml.  Comments are stripped first (nested, and lexed the way
OCaml lexes them: a string or character literal inside a comment is
skipped whole, and a "(*" inside a string opens nothing), so a name
that only a comment mentions, such as `{!name}` in a doc comment,
counts as unused.  Otherwise the search is textual and by bare name, so
a name shared by two modules counts as used when either is used; the
gate can miss dead code, never flag live code.  Exits 1 and lists each
dead `val` when any is found.

Every run first checks the scanner itself on a built-in source tree and
fails if it misjudges it.
"""

import os
import re
import sys

DIRS = ["lib", "bin", "bench", "test", "examples", "tools", "perfbench"]
VAL = re.compile(r"^\s*val\s+([a-z_][A-Za-z0-9_']*)\s*:", re.M)
WORD = r"(?<![A-Za-z0-9_'])%s(?![A-Za-z0-9_'])"
CHAR = re.compile(r"'(?:[^\\'\n]|\\(?:[\\'\"ntbr ]|[0-9]{3}|x[0-9a-fA-F]{2}|o[0-3][0-7]{2}))'")
QUOTED = re.compile(r"\{([a-z_]*)\|")


def literal_end(src, i):
    """End of the string, quoted string or character literal at [i], or
    None when none starts there."""
    if src[i] == '"':
        j = i + 1
        while j < len(src) and src[j] != '"':
            j += 2 if src[j] == "\\" else 1
        return j + 1
    if src[i] == "'":
        m = CHAR.match(src, i)
        return m.end() if m else None
    if src[i] == "{":
        m = QUOTED.match(src, i)
        if m:
            close = src.find("|%s}" % m.group(1), m.end())
            return len(src) if close < 0 else close + len(m.group(1)) + 2
    return None


def strip_comments(src):
    """[src] without its comments; newlines inside them are kept, so
    line numbers do not move."""
    out = []
    depth = 0
    i = 0
    while i < len(src):
        if src.startswith("(*", i):
            depth += 1
            i += 2
        elif depth and src.startswith("*)", i):
            depth -= 1
            i += 2
        else:
            j = literal_end(src, i)
            if j is None:
                j = i + 1
            if depth:
                out.append("\n" * src.count("\n", i, j))
            else:
                out.append(src[i:j])
            i = j
    return "".join(out)


def dead_vals(text):
    """Map of path -> comment-free source in, (declared vals, dead vals)
    out, each a list of (mli path, line, name)."""
    decls = []
    for path, src in sorted(text.items()):
        if path.endswith(".mli") and path.replace(os.sep, "/").startswith("lib/"):
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
    return decls, [(p, line, n) for p, line, n in decls if uses[n] <= defs[n]]


def self_check():
    """[ghost] is named only inside comments and [used] only after a
    string and a character literal that a naive scan would misread as
    opening a comment or a string."""
    tree = {
        "lib/m/m.mli": "val used : int\n(** Unlike {!ghost}. *)\nval ghost : int\n",
        "lib/m/m.ml": "let used = 1\nlet ghost = 2\n",
        "bin/main.ml": 'let s = "(*"\nlet q = \'"\'\nlet () = print_int M.used\n'
                       '(* M.ghost (* nested *) ghost "*) ghost" {|*)|} ghost *)\n',
    }
    _, dead = dead_vals({p: strip_comments(s) for p, s in tree.items()})
    if [n for _, _, n in dead] != ["ghost"]:
        sys.exit("dead-code gate: self-check failed, dead vals %s, want [ghost]"
                 % [n for _, _, n in dead])


def sources(root):
    for d in DIRS:
        for base, dirs, files in os.walk(os.path.join(root, d)):
            dirs[:] = [x for x in dirs if not x.startswith((".", "_build"))]
            for f in files:
                if f.endswith((".ml", ".mli")):
                    yield os.path.join(base, f)


def main():
    self_check()
    root = sys.argv[1] if len(sys.argv) > 1 else "."
    text = {}
    for path in sources(root):
        with open(path, encoding="utf-8") as f:
            text[os.path.relpath(path, root)] = strip_comments(f.read())
    decls, dead = dead_vals(text)
    for path, line, name in dead:
        print("%s:%d: val %s is referenced nowhere but its definition"
              % (path, line, name))
    if dead:
        sys.exit(1)
    print("dead-code gate: %d exported vals, all referenced" % len(decls))


if __name__ == "__main__":
    main()
