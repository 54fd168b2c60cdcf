#!/usr/bin/env python3
"""CI gate against dead exported functions.

Usage: dead_code_gate.py [ROOT]

The scan reads the .ml and .mli files under lib, bin, bench, test,
examples, tools and perfbench.  Nothing in lib/ lives for tests alone:
every `val NAME` declared in a lib/**/*.mli must be used by some .ml
outside test/, save the test seams tools/option_seams.txt names as
`Module.NAME`, each with its reason (a reference oracle, a fault
fixture or a fixture that builds a hand-made instance).  Uses are
resolved by module: a val of module M (the .mli's own module, or B for
a val inside a nested `module B : sig ... end`) is used when

- some .ml names it `M.NAME` or `X.NAME`, where X is an alias of M made
  by `module X = ...M` or `let module X = ...M in`;
- M's own .ml uses it bare, its first `let`/`and`/`external` binding
  there not counting;
- a file that opens M (`open`, `let open` or `M.( ... )`) uses it bare;
- or, when M is passed to a functor, included or packed as a
  first-class module (or the val sits in a module type), any .ml names
  it at all.

A record label declared (`f :`) or given a value (`f =`) in braces
names a field, not a val, and is no use; a punned one (`{ f }`) is.
Aliases are collected across all files, and a qualifier matches by the
last component of the module path, so two modules of one name count
as one.  Comments are stripped first (nested, and lexed the way OCaml
lexes them: a string or character literal inside a comment is skipped
whole, and a "(*" inside a string opens nothing), so a name that only a
comment mentions, such as `{!name}` in a doc comment, counts as
unused.  Every approximation leans one way: the gate can miss dead
code, never flag live code.

Every optional parameter `?label:` of such a `val` (at the top level of
its type, not inside a callback's) must be passed, as `~label` or
`?label`, by some call of that val outside test/, the defining
module's own calls included: a knob only tests set is a constant, save
the test seams tools/option_seams.txt names, each with its reason.
Calls resolve by module the way uses do: `X.name` with X denoting M,
a bare `name` in M's own .ml or in a file that opens M, or any call of
the name when M escapes.  So a same-named function of
another module passing the label does not keep it alive.  A call is
the name followed by its arguments, read up to the first token that
ends the application (a closing bracket, a keyword, an infix
operator).  A name used as a first-class value rather than applied
(`let f = M.name in`) may be applied later under another name, so it
counts as passing every label.  Bindings (`let`, `and`, `val`, ...)
are not calls.

Every field of a record type declared in a lib/**/*.mli must be read
by some .ml outside test/, save the seams tools/option_seams.txt names
as `Module.type.field`: as `x.f` or `x.M.f`, or in a record pattern.
Building a record (a literal, `{e with f = ...}`) or assigning
`x.f <- v` does not read it.  Reads resolve by module: a
qualified read counts for the modules its qualifier denotes, but an
unqualified one, which OCaml may resolve by type, counts for every
field of that name.  A record pattern's fields must all be fields of
the type (all of them unless it ends in `_`), so a pattern reads no
field of a type it cannot have.

Every field of a `config` or `options` record must be set by some
program outside test/: by a literal (whose fields are exactly its
type's), by `{e with f = ...}` or by an assignment.  A `let default...
= { ... }` literal in lib/ is the module's own defaults and sets
nothing.  A field only tests set is a constant, save the seams
tools/option_seams.txt names as `Module.type.field`.

Exits 1 and lists each val used nowhere, each val only test/ uses,
each dead optional parameter, each field read nowhere, each field only
test/ reads and each config field no program sets, when any is found
and no seam names it, and each stale seam: a line of the seam list
that names nothing only tests reach (something a program uses, or
something that does not exist).  No seam keeps a val used nowhere or a
field read nowhere.

Every run first checks the scanner itself on built-in source trees and
fails if it misjudges them.
"""

import fnmatch
import functools
import os
import re
import sys
from collections import Counter

DIRS = ["lib", "bin", "bench", "test", "examples", "tools", "perfbench"]
SEAMS = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                     "option_seams.txt")
# A maximal run of identifier characters: a name is used where a run
# equals it.
WORD = re.compile(r"[A-Za-z0-9_']+")
CHAR = re.compile(r"'(?:[^\\'\n]|\\(?:[\\'\"ntbr ]|[0-9]{3}|x[0-9a-fA-F]{2}|o[0-3][0-7]{2}))'")
QUOTED = re.compile(r"\{([a-z_]*)\|")
OPT = re.compile(r"\?([a-z_][A-Za-z0-9_']*)\s*:")
# A module path; the group is its last component.
PATH = r"(?:[A-Z][A-Za-z0-9_']*\.)*([A-Z][A-Za-z0-9_']*)(?![A-Za-z0-9_'.])"
# Scopes of an .mli: a nested [module B : sig] names its vals' module;
# any other [sig] (a module type, a functor argument) names none.
SIG_SCOPE = re.compile(
    r"\bmodule\s+(?P<nested>[A-Z][A-Za-z0-9_']*)\s*:\s*sig\b"
    r"|\b(?:sig|struct|object|begin)\b"
    r"|(?P<end>\bend\b)"
    r"|^\s*val\s+(?P<val>[a-z_][A-Za-z0-9_']*)\s*:"
    r"|\b(?:type|and)\s+(?:nonrec\s+)?(?:(?:'[a-z_][A-Za-z0-9_']*|\([^)]*\))\s+)?"
    r"(?P<record>[a-z_][A-Za-z0-9_']*)\s*=\s*(?:private\s+)?\{", re.M)
# A field of a record type's body: [mutable name :].
FIELD_DECL = re.compile(r"^\s*(?:mutable\s+)?([a-z_][A-Za-z0-9_']*)\s*:")
# The record types whose fields must be set by a program, not only tests.
CONFIGS = {"config", "options"}
VAL_SEAM = re.compile(r"[A-Z][A-Za-z0-9_']*\.[a-z_][A-Za-z0-9_']*$")
FIELD_SEAM = re.compile(r"[A-Z][A-Za-z0-9_']*\.[a-z_][A-Za-z0-9_']*\.[a-z_][A-Za-z0-9_']*$")
# [module X = ...M] and [let module X = ...M in]: X is an alias of M.
ALIAS = re.compile(r"\bmodule\s+([A-Z][A-Za-z0-9_']*)\s*(?::[^=]*)?=\s*"
                   + PATH + r"(?!\s*\()")
# [open M], [open! M], [let open M in] and [M.( ... )].
OPEN = re.compile(r"\bopen!?\s+" + PATH
                  + r"|(?<![A-Za-z0-9_'.])(?:[A-Z][A-Za-z0-9_']*\.)*"
                    r"([A-Z][A-Za-z0-9_']*)\.(?=[(\[{])")
# [include M], a functor argument [F (M)] and a packed [(module M)].
ESCAPE = re.compile(r"\binclude\s+" + PATH
                    + r"|(?:[A-Z][A-Za-z0-9_']*\.)*[A-Z][A-Za-z0-9_']*\s*\(\s*"
                    + PATH + r"\s*\)"
                    + r"|\(\s*module\s+" + PATH)
SIG_ITEM = re.compile(
    r"^\s*(val|type|module|exception|external|include|open|end|class)\b", re.M)
TOKEN = re.compile(r"""
    (?P<label>[~?][a-z_][A-Za-z0-9_']*:?)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_']*)
  | (?P<num>[0-9][0-9A-Za-z_.]*)
  | (?P<open>\[\||[(\[{])
  | (?P<close>\|\]|[)\]}])
  | (?P<op>[-+*/=<>@^|&$%!.:;,\#~?`]+)
""", re.X)
# Keywords that open or close a bracket-like scope.
OPENERS = {"begin", "struct", "sig", "object"}
# Tokens after which an identifier is bound, not used.
BINDERS = {"let", "rec", "and", "val", "external", "method", "type", "fun",
           "as", "mutable", "module", "open", "include", "exception"}
# Tokens that can start the next argument of an application.
ARG_OPS = {"!", "`", "~", "?"}
KEYWORDS = {
    "and", "as", "asr", "assert", "begin", "class", "constraint", "do",
    "done", "downto", "else", "end", "exception", "external", "false", "for",
    "fun", "function", "functor", "if", "in", "include", "inherit",
    "initializer", "land", "lazy", "let", "lor", "lsl", "lsr", "lxor",
    "match", "method", "mod", "module", "mutable", "new", "nonrec", "object",
    "of", "open", "or", "private", "rec", "sig", "struct", "then", "to",
    "true", "try", "type", "val", "virtual", "when", "while", "with",
}


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


def module_of(path):
    """The module an .ml/.mli file defines: its capitalised basename."""
    base = os.path.splitext(os.path.basename(path))[0]
    return base[:1].upper() + base[1:]


def declared_vals(path, src):
    """(line, name, module, end) of each [val] of the .mli [src]:
    [module] is the innermost enclosing [module B : sig], else the
    file's own module, or None inside a [module type] or an anonymous
    [sig] (such a val belongs to whatever module matches the
    signature); [end] is the offset just past the val's ':'."""
    return [(src.count("\n", 0, m.start("val")) + 1, m.group("val"), owner,
             m.end())
            for m, owner in sig_items(path, src) if m.group("val")]


def sig_items(path, src):
    """Each [val] and record [type] match of the .mli [src] with its
    owning module, as {!declared_vals} resolves it."""
    stack = []
    for m in SIG_SCOPE.finditer(src):
        if m.group("val") or m.group("record"):
            yield m, (stack[-1] if stack else module_of(path))
        elif m.group("end"):
            if stack:
                stack.pop()
        else:
            stack.append(m.group("nested"))


def declared_fields(path, src):
    """(line, type, field, module, fields) of each field of each record
    type of the .mli [src]; [module] as in {!declared_vals}, [fields]
    the frozenset of its type's fields."""
    out = []
    for m, owner in sig_items(path, src):
        if not m.group("record"):
            continue
        depth = 0
        start = j = m.end()
        items = []
        while j < len(src) and depth >= 0:
            c = src[j]
            if c in "([{":
                depth += 1
            elif c in ")]}":
                depth -= 1
            if depth < 0 or (c == ";" and depth == 0):
                items.append((start, src[start:j]))
                start = j + 1
            j += 1
        fields = [(src.count("\n", 0, at + f.start(1)) + 1, f.group(1))
                  for at, item in items for f in [FIELD_DECL.match(item)] if f]
        names = frozenset(name for _, name in fields)
        out.extend((line, m.group("record"), name, owner, names)
                   for line, name in fields)
    return out


def module_refs(impls):
    """Aliases (name -> set of module names it may denote), the modules
    passed to a functor, included or packed (aliases followed), and
    the modules each file opens, across the .ml sources [impls]."""
    aliases = {}
    escaped = set()
    for src in impls.values():
        for m in ALIAS.finditer(src):
            aliases.setdefault(m.group(1), set()).add(m.group(2))
        for m in ESCAPE.finditer(src):
            escaped.add(m.group(m.lastindex))
    escaped = set().union(*[denotes(aliases, m) for m in escaped])
    opens = {}
    for path, src in impls.items():
        opened = set()
        for m in OPEN.finditer(src):
            opened |= denotes(aliases, m.group(m.lastindex))
        opens[path] = opened
    return aliases, escaped, opens


def lib_decls(text):
    """(mli path, line, name, module, end) of every val of every
    lib/**/*.mli in [text]."""
    return [(path,) + decl
            for path, src in sorted(text.items())
            if path.endswith(".mli") and path.replace(os.sep, "/").startswith("lib/")
            for decl in declared_vals(path, src)]


def denotes(aliases, name):
    """Every module [name] may denote, following aliases."""
    seen = {name}
    todo = [name]
    while todo:
        for target in aliases.get(todo.pop(), ()):
            if target not in seen:
                seen.add(target)
                todo.append(target)
    return seen


def record_label(toks, start, i, brackets):
    """Whether the label [toks[start..i]] (a bare [f], or [M.f] when
    [start < i]) is a record label that names no value: one declared
    ([f :]) or given a value ([f =]) directly inside braces, first or
    after [;], [with] or [mutable].  A punned label ([{ f }]) names a
    value of its name and is not one."""
    if not brackets or brackets[-1] != "{" or i + 1 == len(toks):
        return False
    return (toks[start - 1] in (("open", "{"), ("op", ";"), ("kw", "with"), ("kw", "mutable"))
            and toks[i + 1] in (("op", "="), ("op", ":")))


def qualified_field(toks, i, brackets):
    """Whether the qualified name ending at the identifier [toks[i]]
    names a record field, not a val: read off an expression ([x.M.f],
    the module path after a '.') or a label given a value in braces
    ([{ M.f = ... }])."""
    start = i - 2
    while (start >= 2 and toks[start - 1] == ("op", ".")
           and toks[start - 2][0] == "ident" and toks[start - 2][1][:1].isupper()):
        start -= 2
    return toks[start - 1] == ("op", ".") or record_label(toks, start, i, brackets)


def scan_uses(src):
    """Qualified uses (Counter of (qualifier, name), qualified field
    reads and labels not) and bare uses (Counter of name, punned labels
    included, the labels of record types, literals and patterns not) of
    the .ml [src]."""
    qualified = Counter()
    bare = Counter()
    toks = tokens(src)
    brackets = []
    for i, (kind, text) in enumerate(toks):
        if kind == "open":
            brackets.append(text)
        elif kind == "close":
            if brackets:
                brackets.pop()
        elif kind == "label" and not text.endswith(":"):
            bare[text[1:]] += 1
        elif kind != "ident":
            continue
        elif i >= 2 and toks[i - 1] == ("op", ".") and toks[i - 2][0] == "ident":
            if toks[i - 2][1][:1].isupper() and not qualified_field(toks, i, brackets):
                qualified[(toks[i - 2][1], text)] += 1
        elif (i == 0 or toks[i - 1] != ("op", ".")) and not record_label(toks, i, i, brackets):
            bare[text] += 1
    return qualified, bare


def qualify(path, name, owner):
    """[Module.name] for a val of the .mli [path] with owning module
    [owner] (None: the file's own module)."""
    return "%s.%s" % (owner or module_of(path), name)


def dead_vals(text):
    """Map of path -> comment-free source in, (declared vals, dead vals)
    out, each a list of (mli path, line, "Module.val", None).

    A val of module M is used when some .ml names it as [X.name] with X
    denoting M (M itself or an alias of it), uses it bare in M's own .ml
    (its first binding there aside) or in a file that opens M, or, when
    M is passed to a functor, included or packed (or the val belongs to
    a module type), names it anywhere at all."""
    decls = [d[:4] for d in lib_decls(text)]
    impls = {p: s for p, s in text.items() if p.endswith(".ml")}
    aliases, escaped, opens = module_refs(impls)
    uses = {p: scan_uses(s) for p, s in impls.items()}
    qualified = Counter()
    for q, _ in uses.values():
        for (x, name), count in q.items():
            for owner in denotes(aliases, x):
                qualified[(owner, name)] += count
    words = Counter()
    for src in impls.values():
        words.update(WORD.findall(src))

    def binds(impl, name):
        return re.search(r"^\s*(let|and|external)\s+(rec\s+)?%s(?![A-Za-z0-9_'])"
                         % re.escape(name), impl, re.M) is not None

    defs = Counter()
    for path, _, name, _ in decls:
        defs[name] += binds(text.get(path[:-1], ""), name)

    def used(path, name, owner):
        if owner is None or owner in escaped:
            return words[name] > defs[name]
        if qualified[(owner, name)]:
            return True
        own = path[:-1]
        if own in uses and uses[own][1][name] > binds(impls[own], name):
            return True
        return any(uses[p][1][name] for p in impls if p != own and owner in opens[p])

    return ([(p, line, qualify(p, n, owner), None) for p, line, n, owner in decls],
            [(p, line, qualify(p, n, owner), None)
             for p, line, n, owner in decls if not used(p, n, owner)])


@functools.lru_cache(maxsize=None)
def tokens(src):
    """[src] (comment-free) as a tuple of (kind, text); every literal is
    one ("lit", ...) token.  Memoized: each pass over the tree lexes the
    same sources again."""
    out = []
    i = 0
    while i < len(src):
        if src[i].isspace():
            i += 1
            continue
        j = literal_end(src, i)
        if j is not None:
            out.append(("lit", src[i:j]))
            i = j
            continue
        m = TOKEN.match(src, i)
        if m is None:
            out.append(("op", src[i]))
            i += 1
            continue
        kind = m.lastgroup
        text = m.group()
        if kind == "ident" and text in OPENERS:
            kind = "open"
        elif kind == "ident" and text == "end":
            kind = "close"
        elif kind == "ident" and text in KEYWORDS:
            kind = "kw"
        out.append((kind, text))
        i = m.end()
    return tuple(out)


def optional_labels(src, start):
    """Optional labels at the top level of the type of the [val] whose
    ':' ends at [start], which runs up to the next signature item."""
    end = SIG_ITEM.search(src, start)
    sig = []
    depth = 0
    for kind, text in tokens(src[start:end.start() if end else len(src)]):
        if kind == "open":
            depth += 1
        elif kind == "close":
            depth -= 1
        elif depth == 0:
            sig.append(text)
    return {m.group(1) for m in OPT.finditer(" ".join(sig))}


def passed_labels(toks, i):
    """Labels passed by the use of a name at [toks[i]]: an empty set for
    a binding, None for a use as a value (it may be applied elsewhere
    under another name, so every label counts as passed)."""
    if i > 0 and toks[i - 1][1] in BINDERS:
        return set()
    j = i
    while j >= 2 and toks[j - 1][1] == "." and toks[j - 2][0] == "ident":
        j -= 2
    if j > 0 and toks[j - 1][0] == "label" or i + 1 == len(toks):
        return None
    kind, text = toks[i + 1]
    if not (kind in ("label", "ident", "num", "lit", "open") or text in ARG_OPS):
        return None
    labels = set()
    depth = 0
    for kind, text in toks[i + 1:]:
        if kind == "open":
            depth += 1
        elif kind == "close":
            if depth == 0:
                break
            depth -= 1
        elif depth == 0 and kind == "label":
            labels.add(text[1:].rstrip(":"))
        elif depth == 0 and (kind == "kw" or (kind == "op" and text != "."
                                              and text not in ARG_OPS)):
            break
    return labels


def dead_options(text):
    """Map of path -> comment-free source in, list of (mli path, line,
    "Module.val", label) out: each optional parameter no call of its
    own val passes.  A call [X.name] is a call of module M's
    [name] when X denotes M; a bare [name] is one in M's own .ml and in
    files that open M; any call of the name is one when M escapes (or
    the val sits in a module type)."""
    impls = {p: s for p, s in text.items() if p.endswith(".ml")}
    aliases, escaped, opens = module_refs(impls)
    # name -> the vals of that name with optional labels, each a dict
    # whose "passed" turns None once the val is used as a value.
    vals = {}
    for path, line, name, owner, end in lib_decls(text):
        labels = optional_labels(text[path], end)
        if labels:
            vals.setdefault(name, []).append({
                "path": path, "line": line, "wanted": labels, "passed": set(),
                "name": qualify(path, name, owner),
                "owner": None if owner in escaped else owner})

    def calls(val, path, qualifier):
        if val["owner"] is None:
            return True
        if qualifier is not None:
            return val["owner"] in denotes(aliases, qualifier)
        return path == val["path"][:-1] or val["owner"] in opens[path]

    for path, src in impls.items():
        toks = tokens(src)
        for i, (kind, name) in enumerate(toks):
            if kind != "ident" or name not in vals:
                continue
            qualifier = None
            if i >= 2 and toks[i - 1] == ("op", ".") and toks[i - 2][0] == "ident":
                qualifier = toks[i - 2][1]
                if not qualifier[:1].isupper():
                    continue  # a record field, not a val
            targets = [v for v in vals[name]
                       if v["passed"] is not None and calls(v, path, qualifier)]
            if targets:
                labels = passed_labels(toks, i)
                for v in targets:
                    v["passed"] = None if labels is None else v["passed"] | labels
    return sorted((v["path"], v["line"], v["name"], label)
                  for entries in vals.values() for v in entries
                  if v["passed"] is not None
                  for label in v["wanted"] - v["passed"])


def default_literal(toks, i):
    """Whether the brace at [toks[i]] is the body of [let default... =]."""
    if i < 1 or toks[i - 1] != ("op", "="):
        return False
    for k in range(i - 2, max(i - 8, 0) - 1, -1):
        if toks[k][1] in ("let", "and"):
            return toks[k + 1][1].startswith("default")
    return False


def field_uses(toks):
    """Reads and sets of record fields in the tokens [toks] of an .ml,
    each (qualifier, field, labels, exact, default).  [x.f] and
    [x.M.f] read with labels None, and [x.f <- v] sets so.  A record
    pattern reads each of its fields and a record literal sets each,
    with [labels] the frozenset of the braces' fields: every field of
    the record's type when [exact], some of them for a pattern ending in
    [_] and for [{e with ...}].  [default] marks a literal bound by
    [let default... =].

    A brace is a pattern inside the tokens [let]/[and] ... [=],
    [fun]/[function] ... [->] and [|]/[match ... with] ... [->]; a brace
    whose first field is followed by ':' declares a type.  Every
    misreading leans one way: the keywords that open a pattern are
    over-counted, so a literal can pass for a pattern and count as a
    read, never a pattern for a literal."""
    reads, sets = [], []
    # One frame per open bracket: whether it is a pattern, how many of
    # its [match]/[try] await their [with], the tokens that end a
    # pattern opened by a keyword in it, and, for a record, its fields.
    frames = [{"pattern": False, "pending": 0, "until": None, "record": None}]
    end = ("close", "")
    for i, (kind, text) in enumerate(toks):
        top = frames[-1]
        rec = top["record"]
        nxt = toks[i + 1] if i + 1 < len(toks) else end
        if rec is not None and rec["expect"]:
            if kind == "ident" and not text[:1].isupper() and (
                    nxt[0] == "close" or nxt[1][:1] in ("=", ";")):
                if text == "_":
                    rec["open"] = True
                else:
                    qualified = i >= 2 and toks[i - 1] == ("op", ".")
                    rec["fields"].append((toks[i - 2][1] if qualified else None, text))
                rec["expect"] = False
                continue
            if not (kind == "ident" and text[:1].isupper() or text == "."):
                rec["expect"] = False
        if kind == "open":
            after = toks[i + 2] if i + 2 < len(toks) else end
            frames.append({
                "pattern": top["pattern"] or top["until"] is not None,
                "pending": 0, "until": None,
                "record": None if text != "{" or nxt[1] == "mutable"
                or nxt[0] == "ident" and after[1] == ":" else
                {"fields": [], "open": False, "with": False, "expect": True,
                 "default": default_literal(toks, i)}})
        elif kind == "close":
            if len(frames) == 1:
                continue
            done = frames.pop()
            rec = done["record"]
            if rec is None:
                continue
            labels = frozenset(name for _, name in rec["fields"])
            for q, name in rec["fields"]:
                if done["pattern"]:
                    reads.append((q, name, labels, not rec["open"], False))
                else:
                    sets.append((q, name, labels, not rec["with"],
                                 rec["default"] and not rec["with"]))
        elif text in ("let", "and"):
            top["until"] = {"=", "in"}
        elif text in ("fun", "function"):
            top["until"] = {"->"}
        elif text in ("match", "try"):
            top["pending"] += 1
        elif text == "with":
            if top["pending"]:
                top["pending"] -= 1
                top["until"] = {"->", "when"}
            elif rec is not None:
                rec.update({"fields": [], "with": True, "expect": True})
        elif text in ("when", "in", "type", "module", "open", "val", "external"):
            top["until"] = None
        elif text == "|" and top["until"] is None and not top["pattern"]:
            top["until"] = {"->", "when"}
        elif top["until"] is not None and text in top["until"]:
            top["until"] = None
        elif text == ";" and rec is not None:
            rec["expect"] = True
        elif kind == "ident" and i >= 2 and toks[i - 1] == ("op", "."):
            q = None
            if toks[i - 2][0] == "ident" and toks[i - 2][1][:1].isupper():
                q = toks[i - 2][1]
                k = i - 2
                while k >= 2 and toks[k - 1] == ("op", ".") and toks[k - 2][1][:1].isupper():
                    k -= 2
                if k < 1 or toks[k - 1] != ("op", "."):
                    continue  # [M.name]: a value, not a field
            if nxt == ("op", "<-"):
                sets.append((q, text, None, False, False))
            else:
                reads.append((q, text, None, False, False))
    return reads, sets


def dead_fields(text):
    """Map of path -> comment-free source in; (declared fields, unread
    fields, unset config fields) out, each a list of (mli path, line,
    "Module.type.field", None).

    A field of module M's record type is read by some [x.f], [x.X.f]
    or record pattern naming it, X denoting M (any X when M escapes);
    a pattern's fields must all belong to the type (all of them unless
    it ends in [_]).  A field of a [config] or [options] record is set
    by a literal with exactly its type's fields, a [{e with ...}] or an
    assignment, a [let default... =] literal in lib/ aside (the
    module's own defaults)."""
    decls = [(path, line, tname, fname, owner, fields)
             for path, src in sorted(text.items())
             if path.endswith(".mli") and path.replace(os.sep, "/").startswith("lib/")
             for line, tname, fname, owner, fields in declared_fields(path, src)]
    impls = {p: s for p, s in text.items() if p.endswith(".ml")}
    aliases, escaped, _ = module_refs(impls)
    reads, sets = {}, {}
    for path, src in impls.items():
        r, w = field_uses(tokens(src))
        for use in r:
            reads.setdefault(use[1], []).append(use)
        for use in w:
            if not (use[4] and path.replace(os.sep, "/").startswith("lib/")):
                sets.setdefault(use[1], []).append(use)

    def names(decl, use):
        _, _, _, _, owner, fields = decl
        q, _, labels, exact, _ = use
        if (q is not None and owner is not None and owner not in escaped
                and owner not in denotes(aliases, q)):
            return False
        return labels is None or (labels <= fields and (not exact or labels == fields))

    def out(ds):
        return [(d[0], d[1], "%s.%s.%s" % (d[4], d[2], d[3]), None) for d in ds]

    return (out(decls),
            out(d for d in decls if not any(names(d, u) for u in reads.get(d[3], []))),
            out(d for d in decls if d[2] in CONFIGS
                and not any(names(d, u) for u in sets.get(d[3], []))))


def read_seams(src):
    """(line, kind, name, label) of each entry of a seam list: blank
    lines and '#' comments aside, each line is `Module.val ?label` (kind
    "option"; the val may be a glob), `Module.val` (kind "val") or
    `Module.type.field` (kind "field"), then its reason; [label] is None
    but for an option."""
    out = []
    for n, line in enumerate(src.splitlines(), 1):
        words = line.split()
        if not words or words[0].startswith("#"):
            continue
        if len(words) >= 3 and words[1].startswith("?"):
            out.append((n, "option", words[0], words[1][1:]))
        elif len(words) >= 2 and VAL_SEAM.match(words[0]):
            out.append((n, "val", words[0], None))
        elif len(words) >= 2 and FIELD_SEAM.match(words[0]):
            out.append((n, "field", words[0], None))
        else:
            sys.exit("%s:%d: want `Module.val ?label reason`, `Module.val "
                     "reason` or `Module.type.field reason`" % (SEAMS, n))
    return out


def unseamed(found, seams, kind):
    """The entries (path, line, name, label) of [found] that no seam of
    [kind] names, and the seams of [kind] that name none."""
    def names(seam, entry):
        return entry[3] == seam[3] and fnmatch.fnmatchcase(entry[2], seam[2])

    seams = [s for s in seams if s[1] == kind]
    return ([f for f in found if not any(names(s, f) for s in seams)],
            [s for s in seams if not any(names(s, f) for f in found)])


def is_test(path):
    return path.replace(os.sep, "/").startswith("test/")


def findings(text, seams):
    """Map of path -> comment-free source and the seam list in; (vals,
    fields, problems) out, [problems] a map of kind -> list: [dead] vals
    used nowhere, [tested] vals only test/ uses, [options] optional
    parameters no call outside test/ passes, [unread] fields read
    nowhere, [tested_field] fields only test/ reads, [unset] config
    fields no program outside test/ sets, and the [stale] seams, which
    name none of these.  A seam keeps what it names; [dead] and
    [unread] no seam keeps."""
    program = {p: s for p, s in text.items() if not is_test(p)}
    vals, dead = dead_vals(text)
    _, unused = dead_vals(program)
    tested, stale = unseamed([v for v in unused if v not in dead], seams, "val")
    options, stale_options = unseamed(dead_options(program), seams, "option")
    fields, unread, _ = dead_fields(text)
    _, unread_program, unset = dead_fields(program)
    tested_fields = [f for f in unread_program if f not in unread]
    left, stale_fields = unseamed(tested_fields + unset, seams, "field")
    return vals, fields, {
        "dead": dead, "tested": tested, "options": options, "unread": unread,
        "tested_field": [f for f in tested_fields if f in left],
        "unset": [f for f in unset if f in left],
        "stale": sorted(stale + stale_options + stale_fields)}


def self_check():
    """[ghost] is named only inside comments and [used] only after a
    string and a character literal that a naive scan would misread as
    opening a comment or a string.  Then one fixture per way a val
    escapes its module, each beside a val it does not save."""
    tree = {
        "lib/m/m.mli": "val used : int\n(** Unlike {!ghost}. *)\nval ghost : int\n",
        "lib/m/m.ml": "let used = 1\nlet ghost = 2\n",
        "bin/main.ml": 'let s = "(*"\nlet q = \'"\'\nlet () = print_int M.used\n'
                       '(* M.ghost (* nested *) ghost "*) ghost" {|*)|} ghost *)\n',
    }
    _, dead = dead_vals(strip_all(tree))
    if [n for _, _, n, _ in dead] != ["M.ghost"]:
        sys.exit("dead-code gate: self-check failed, dead vals %s, want [M.ghost]"
                 % [n for _, _, n, _ in dead])
    # [Churn.next] is reached through a module alias and [Churn.step]
    # through a [let module] one; [Own.helper] only bare in its own .ml; [Opened.by_*] bare
    # in files that open it with [open], [let open] and [M.( )];
    # [Passed.via_functor] and [Included.via_include] through a module
    # passed to a functor or included; [Store.Batched.append] through
    # its nested module; [Metrics.reset] qualified.  Their dead
    # neighbours: [Churn.spare] is named only as [Other.spare],
    # [Own.lonely] has nothing but its binding, [Opened.closed] is used
    # bare only where [Opened] is not open, [Store.flush] only as
    # [Batched.flush], and [Clock.reset] shares its name with the
    # called [Metrics.reset].  [Cache.full_tables] shares its name with
    # a field of [Cache]'s record, which its own .ml declares, builds,
    # copies with [with] and reads, but never calls the val; [Pun.size]
    # is used by a punned literal [{ size }].
    tree = {
        "lib/a/churn.mli": "val next : int\nval step : int\nval spare : int\n",
        "lib/a/own.mli": "val helper : int -> int\nval lonely : int\n",
        "lib/a/own.ml": "let helper x = x\nlet lonely = helper 1\n",
        "lib/a/opened.mli": "val by_open : int\nval by_let_open : int\n"
                            "val by_local_open : int\nval closed : int\n",
        "lib/a/passed.mli": "val via_functor : int\n",
        "lib/a/included.mli": "val via_include : int\n",
        "lib/a/store.mli": "type t\nval flush : t -> unit\nmodule Batched : sig\n"
                           "  type t\n  val append : t -> unit\n  val flush : t -> unit\n"
                           "end\nval wrap : t -> Batched.t\n",
        "lib/a/metrics.mli": "val reset : unit -> unit\n",
        "lib/a/clock.mli": "val reset : unit -> unit\n",
        "bin/alias.ml": "module C = A.Churn\nlet _ = C.next + Other.spare\n"
                        "let _ = let module D = A.Churn in D.step\n",
        "bin/opens.ml": "open A.Opened\nlet _ = by_open + closed'\n"
                        "let _ = let open Opened in by_let_open\n"
                        "let _ = Opened.(by_local_open + 1)\n",
        "bin/closed.ml": "let _ = closed + Store.wrap\n",
        "bin/escape.ml": "module S = Make (A.Passed)\ninclude Included\n"
                         "let _ = via_functor + via_include\n",
        "bin/nested.ml": "let _ = A.Store.Batched.append (Batched.flush x)\n"
                         "let () = Metrics.reset ()\n",
        "lib/a/cache.mli": "type t\nval full_tables : t -> int array\n"
                           "val make : int array -> t\n",
        "lib/a/cache.ml": "type t = { full_tables : int array; mutable hw : int }\n"
                          "let full_tables t = t.full_tables\n"
                          "let make x = { full_tables = x; hw = 0 }\n"
                          "let wipe t = { t with full_tables = [||] }\n",
        "lib/a/pun.mli": "type t = { size : int }\nval size : int\nval make : unit -> t\n",
        "lib/a/pun.ml": "type t = { size : int }\nlet size = 3\nlet make () = { size }\n",
        "bin/cached.ml": "let _ = Cache.make [||]\nlet _ = Pun.make ()\n",
    }
    _, dead = dead_vals(strip_all(tree))
    got = sorted(n for _, _, n, _ in dead)
    want = ["Cache.full_tables", "Churn.spare", "Clock.reset", "Opened.closed",
            "Own.lonely", "Store.flush"]
    if got != want:
        sys.exit("dead-code gate: self-check failed, dead vals %s, want %s"
                 % (got, want))
    # Another module reads [Cache]'s field [full_tables] qualified, off
    # an expression ([c.Cache.full_tables], [(f c).A.Cache.full_tables])
    # and as a label (a literal, a [with] copy and a pattern), but never
    # calls [val full_tables]; its qualified call of [Cache.hw_of] keeps
    # that val.
    tree = {
        "lib/a/cache.mli": "type t = { full_tables : int array; hw : int }\n"
                           "val full_tables : t -> int array\nval hw_of : t -> int\n",
        "lib/a/cache.ml": "type t = { full_tables : int array; hw : int }\n"
                          "let full_tables t = t.full_tables\nlet hw_of t = t.hw\n",
        "bin/main.ml": "let c = { Cache.full_tables = [||]; hw = 1 }\n"
                       "let d = { c with Cache.full_tables = c.Cache.full_tables }\n"
                       "let f { Cache.full_tables = t; _ } = t\n"
                       "let _ = Array.length (f d).A.Cache.full_tables + Cache.hw_of c\n",
    }
    _, dead = dead_vals(strip_all(tree))
    got = [n for _, _, n, _ in dead]
    if got != ["Cache.full_tables"]:
        sys.exit("dead-code gate: self-check failed, dead vals %s, want "
                 "[Cache.full_tables]" % got)
    # [run]'s ?quiet is passed only in a comment and ?depth only inside
    # a nested lambda; ?inner belongs to the callback's type, not to
    # [run]; ?limit and ?seed are passed across lines and through a
    # forwarding wrapper.  [alias] and [hook] escape as values (bound
    # to a name, passed as a labelled argument), so their ?x counts as
    # passed.
    tree = {
        "lib/m/m.mli": "val run :\n  ?limit:int ->\n  ?seed:int ->\n  ?quiet:bool ->\n"
                       "  ?depth:int ->\n  f:(?inner:int -> unit) -> unit -> int\n"
                       "(** Doc. *)\nval alias : ?x:int -> unit -> int\n"
                       "val hook : ?x:int -> unit -> int\ntype t = int\n",
        "lib/m/m.ml": "let run ?(limit = 1) ?(seed = 0) ?(quiet = false) ?(depth = 0)\n"
                      "    ~f () = limit + seed\nlet alias ?(x = 0) () = x\nlet hook ?(x = 0) () = x\n"
                      "let again ?seed () = run ?seed ~f:(fun ?depth () -> ()) ()\n",
        "bin/main.ml": "let () = ignore (M.run\n    ~limit:(1 + 2) ~f:ignore ())\n"
                       "(* M.run ~quiet:true () *)\nlet g = M.alias in\n"
                       "let _ = h ~k:M.hook (x)\n",
    }
    dead = dead_options(strip_all(tree))
    got = [(n, label) for _, _, n, label in dead]
    if got != [("M.run", "depth"), ("M.run", "quiet")]:
        sys.exit("dead-code gate: self-check failed, dead options %s, want "
                 "[run ?depth, run ?quiet]" % got)
    # [Ilp.solve] and [Sat.solve] share a name and a label; only
    # [Ilp.solve]'s calls pass ?encoding (qualified, through an alias,
    # and bare where [Ilp] is open), so [Sat.solve ?encoding] is dead
    # though a same-named call passes it.  [Sat.solve ?budget] is kept
    # by a bare call in its own .ml.
    tree = {
        "lib/a/ilp.mli": "val solve : ?encoding:int -> unit -> int\n",
        "lib/a/sat.mli": "val solve : ?encoding:int -> ?budget:int -> unit -> int\n",
        "lib/a/sat.ml": "let solve ?(encoding = 0) ?(budget = 0) () = encoding + budget\n"
                        "let again () = solve ~budget:1 ()\n",
        "bin/main.ml": "module I = A.Ilp\nlet _ = Ilp.solve ~encoding:1 () + Sat.solve ()\n"
                       "let _ = I.solve ~encoding:2 ()\n"
                       "let _ = let open Ilp in solve ~encoding:3 ()\n",
    }
    dead = dead_options(strip_all(tree))
    got = ["%s ?%s" % (n, label) for _, _, n, label in dead]
    if got != ["Sat.solve ?encoding"]:
        sys.exit("dead-code gate: self-check failed, dead options %s, want "
                 "[Sat.solve ?encoding]" % got)
    # Only tests pass [Store.crash ?keep] and [Reg.counter ?registry]
    # and [?help], so all three are dead, but a seam names the second;
    # [Store.crash ?torn] is passed by a bench call too.  The seam on
    # [Reg.gauge] names nothing dead, so it is stale.
    tree = {
        "lib/a/store.mli": "val crash : ?keep:int -> ?torn:bool -> unit -> unit\n",
        "lib/a/reg.mli": "val counter : ?registry:int -> ?help:int -> unit -> int\n"
                         "val gauge : ?registry:int -> unit -> int\n",
        "bench/b.ml": "let () = Store.crash ~torn:true ()\n"
                      "let _ = Reg.counter () + Reg.gauge ~registry:1 ()\n",
        "test/t.ml": "let () = Store.crash ~keep:2 ()\n"
                     "let _ = Reg.counter ~registry:1 ~help:0 ()\n",
    }
    _, _, found = findings(strip_all(tree), read_seams(
        "# seams\nReg.c* ?registry  isolated registries\n\n"
        "Reg.gauge ?registry  stale\n"))
    got = (["%s ?%s" % (n, label) for _, _, n, label in found["options"]],
           [name for _, _, name, _ in found["stale"]])
    want = (["Reg.counter ?help", "Store.crash ?keep"], ["Reg.gauge"])
    if got != want:
        sys.exit("dead-code gate: self-check failed, unseamed options and "
                 "stale seams %s, want %s" % (got, want))

    # Vals: only a test uses [Sol.union] and [Sol.brute]; a bench uses
    # [Sol.cells] and nothing [Sol.ghost].  Unseamed, both test-only
    # vals fail.  With seams, [Sol.brute] is kept, while the seams on
    # [Sol.cells] (a program uses it), [Sol.ghost] (nothing does) and
    # [Sol.gone] (no such val) are stale.
    tree = {
        "lib/a/sol.mli": "val union : int\nval brute : int\nval cells : int\n"
                         "val ghost : int\n",
        "bench/b.ml": "let _ = Sol.cells\n",
        "test/t.ml": "let _ = Sol.union + Sol.brute\n",
    }
    want = {"": (["Sol.brute", "Sol.union"], []),
            "Sol.brute  oracle\nSol.cells  stale\nSol.ghost  stale\n"
            "Sol.gone  stale\n": (["Sol.union"], ["Sol.cells", "Sol.ghost", "Sol.gone"])}
    for seams, (tested, stale) in want.items():
        _, _, found = findings(strip_all(tree), read_seams(seams))
        got = (sorted(n for _, _, n, _ in found["tested"]),
               [name for _, _, name, _ in found["stale"]],
               [n for _, _, n, _ in found["dead"]])
        if got != (tested, stale, ["Sol.ghost"]):
            sys.exit("dead-code gate: self-check failed, test-only vals, stale "
                     "seams and dead vals %s, want %s"
                     % (got, (tested, stale, ["Sol.ghost"])))

    # Record fields: [Rep.t.status] is read only by a record pattern,
    # [nodes] only under test/, and [iterations] only as a same-named
    # field of [Other], unqualified, so it may be either.  [timing] is
    # only built, [removed] only assigned, and [plan] read only as
    # [Other.plan].  Of [Cfg.config], only tests set [depth] (by
    # [with]) and [cuts] (by a literal); a bin program sets [seed], and
    # [Cfg]'s own default literal counts for none.  The seam names
    # [depth], so [cuts] is left; the seam on [seed] is stale.  A second
    # seam list names [nodes] too, which keeps it.
    tree = {
        "lib/a/cfg.mli": "type config = { depth : int; cuts : bool; seed : int }\n"
                         "val default_config : config\n",
        "lib/a/cfg.ml": "type config = { depth : int; cuts : bool; seed : int }\n"
                        "let default_config = { depth = 1; cuts = true; seed = 0 }\n",
        "lib/a/rep.mli": "type t = {\n  status : int;\n  timing : float;  (** s *)\n"
                         "  mutable removed : int;\n  nodes : int;\n  iterations : int;\n"
                         "  plan : int;\n}\nval make : unit -> t\n",
        "lib/a/other.mli": "type t = { plan : int; iterations : int }\n",
        "lib/a/rep.ml": "let make () =\n  { status = 0; timing = 0.; removed = 0; nodes = 1;"
                        " iterations = 0; plan = 2 }\n",
        "bin/main.ml": "let f = function { Rep.status; _ } -> status\n"
                       "let g (o : Other.t) = o.Other.plan + o.iterations\n"
                       "let h r = r.Rep.removed <- 1\n"
                       "let c = { Cfg.default_config with Cfg.seed = 3 }\n"
                       "let k { Cfg.depth; cuts; seed } = if cuts then depth else seed\n",
        "test/t.ml": "let n r = r.nodes\nlet c = { Cfg.default_config with depth = 0 }\n"
                     "let d = { Cfg.depth = 0; cuts = false; seed = 1 }\n",
    }
    seams = "Cfg.config.depth  pins the root alone\nCfg.config.seed  stale\n"
    for extra, tested in (("", ["Rep.t.nodes"]), ("Rep.t.nodes  fixture\n", [])):
        _, _, found = findings(strip_all(tree), read_seams(seams + extra))
        got = tuple([n for _, _, n, _ in found[k]]
                    for k in ("unread", "tested_field", "unset", "stale"))
        want = (["Rep.t.timing", "Rep.t.removed", "Rep.t.plan"], tested,
                ["Cfg.config.cuts"], ["Cfg.config.seed"])
        if got != want:
            sys.exit("dead-code gate: self-check failed, unread, test-only read "
                     "and unset fields and stale field seams %s, want %s"
                     % (got, want))


def strip_all(tree):
    return {p: strip_comments(s) for p, s in tree.items()}


def sources(root):
    for d in DIRS:
        for base, dirs, files in os.walk(os.path.join(root, d)):
            dirs[:] = [x for x in dirs if not x.startswith((".", "_build"))]
            for f in files:
                if f.endswith((".ml", ".mli")):
                    yield os.path.join(base, f)


MESSAGES = {
    "dead": "val %s is referenced nowhere but its definition",
    "tested": "val %s is used only under test/",
    "options": "val %s: no call outside test/ passes ?%s",
    "unread": "field %s is read nowhere",
    "tested_field": "field %s is read only under test/",
    "unset": "field %s: no program outside test/ sets it",
}

STALE = {"option": "optional parameter only tests pass",
         "val": "val only tests use",
         "field": "field only tests read or set"}


def main():
    self_check()
    root = sys.argv[1] if len(sys.argv) > 1 else "."
    text = {}
    for path in sources(root):
        with open(path, encoding="utf-8") as f:
            text[os.path.relpath(path, root)] = strip_comments(f.read())
    with open(SEAMS, encoding="utf-8") as f:
        seams = read_seams(f.read())
    vals, fields, problems = findings(text, seams)
    for kind, message in MESSAGES.items():
        for path, line, name, label in problems[kind]:
            print("%s:%d: " % (path, line)
                  + message % ((name, label) if label else name))
    for line, kind, name, label in problems["stale"]:
        print("%s:%d: seam %s%s names no %s" % (
            os.path.relpath(SEAMS, root), line, name,
            " ?" + label if label else "", STALE[kind]))
    if any(problems.values()):
        sys.exit(1)
    print("dead-code gate: %d exported vals, each used outside test/ or "
          "named by a seam; every optional parameter passed by a call of its "
          "val outside test/ or named by a seam; %d record fields, each read "
          "outside test/ or named by a seam; every config field set outside "
          "test/ or named by a seam (%d seams)"
          % (len(vals), len(fields), len(seams)))


if __name__ == "__main__":
    main()
