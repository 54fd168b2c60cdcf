#!/usr/bin/env python3
"""CI gate against dead exported functions.

Usage: dead_code_gate.py [ROOT]

Every `val NAME` declared in a lib/**/*.mli must be used by some .ml
under lib, bin, bench, test, examples, tools or perfbench.  Uses are
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

Exits 1 and lists each dead `val` and each dead optional parameter
when any is found, and each line of the seam list that names no
optional parameter only tests pass.

Every run first checks the scanner itself on built-in source trees and
fails if it misjudges them.
"""

import fnmatch
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
    r"|^\s*val\s+(?P<val>[a-z_][A-Za-z0-9_']*)\s*:", re.M)
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
    out = []
    stack = []
    for m in SIG_SCOPE.finditer(src):
        if m.group("val"):
            owner = stack[-1] if stack else module_of(path)
            out.append((src.count("\n", 0, m.start("val")) + 1, m.group("val"),
                        owner, m.end()))
        elif m.group("end"):
            if stack:
                stack.pop()
        else:
            stack.append(m.group("nested"))
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


def scan_uses(src):
    """Qualified uses (Counter of (qualifier, name)) and bare uses
    (Counter of name, punned labels included) of the .ml [src]."""
    qualified = Counter()
    bare = Counter()
    toks = tokens(src)
    for i, (kind, text) in enumerate(toks):
        if kind == "label" and not text.endswith(":"):
            bare[text[1:]] += 1
        elif kind != "ident":
            continue
        elif i >= 2 and toks[i - 1] == ("op", ".") and toks[i - 2][0] == "ident":
            if toks[i - 2][1][:1].isupper():
                qualified[(toks[i - 2][1], text)] += 1
        elif i == 0 or toks[i - 1] != ("op", "."):
            bare[text] += 1
    return qualified, bare


def dead_vals(text):
    """Map of path -> comment-free source in, (declared vals, dead vals)
    out, each a list of (mli path, line, name).

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

    return ([(p, line, n) for p, line, n, _ in decls],
            [(p, line, n) for p, line, n, owner in decls if not used(p, n, owner)])


def tokens(src):
    """[src] (comment-free) as a list of (kind, text); every literal is
    one ("lit", ...) token."""
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
    return out


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
    val name, label) out: each optional parameter no call of its own
    val outside test/ passes.  A call [X.name] is a call of module M's
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
                "owner": None if owner in escaped else owner})

    def calls(val, path, qualifier):
        if val["owner"] is None:
            return True
        if qualifier is not None:
            return val["owner"] in denotes(aliases, qualifier)
        return path == val["path"][:-1] or val["owner"] in opens[path]

    for path, src in impls.items():
        if path.replace(os.sep, "/").startswith("test/"):
            continue
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
    return sorted((v["path"], v["line"], name, label)
                  for name, entries in vals.items() for v in entries
                  if v["passed"] is not None
                  for label in v["wanted"] - v["passed"])


def read_seams(src):
    """(line, "Module.val" glob, label) of each entry of a seam list:
    blank lines and '#' comments aside, each line is `Module.val ?label`
    and then its reason."""
    out = []
    for n, line in enumerate(src.splitlines(), 1):
        words = line.split()
        if not words or words[0].startswith("#"):
            continue
        if len(words) < 3 or not words[1].startswith("?"):
            sys.exit("%s:%d: want `Module.val ?label reason`" % (SEAMS, n))
        out.append((n, words[0], words[1][1:]))
    return out


def unseamed(options, seams):
    """The dead options no seam names, and the seams that name none."""
    def names(seam, option):
        path, _, name, label = option
        return (label == seam[2]
                and fnmatch.fnmatchcase("%s.%s" % (module_of(path), name), seam[1]))

    return ([o for o in options if not any(names(s, o) for s in seams)],
            [s for s in seams if not any(names(s, o) for o in options)])


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
    _, dead = dead_vals({p: strip_comments(s) for p, s in tree.items()})
    if [n for _, _, n in dead] != ["ghost"]:
        sys.exit("dead-code gate: self-check failed, dead vals %s, want [ghost]"
                 % [n for _, _, n in dead])
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
    # called [Metrics.reset].
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
    }
    _, dead = dead_vals({p: strip_comments(s) for p, s in tree.items()})
    got = sorted("%s.%s" % (module_of(p), n) for p, _, n in dead)
    want = ["Churn.spare", "Clock.reset", "Opened.closed", "Own.lonely",
            "Store.flush"]
    if got != want:
        sys.exit("dead-code gate: self-check failed, dead vals %s, want %s"
                 % (got, want))
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
    dead = dead_options({p: strip_comments(s) for p, s in tree.items()})
    got = [(n, label) for _, _, n, label in dead]
    if got != [("run", "depth"), ("run", "quiet")]:
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
    dead = dead_options({p: strip_comments(s) for p, s in tree.items()})
    got = ["%s.%s ?%s" % (module_of(p), n, label) for p, _, n, label in dead]
    if got != ["Sat.solve ?encoding"]:
        sys.exit("dead-code gate: self-check failed, dead options %s, want "
                 "[Sat.solve ?encoding]" % got)
    # Only tests pass [Store.crash ?keep] and [Reg.counter ?registry],
    # so both are dead, but a seam names the second; [Store.crash ?torn]
    # is passed by a bench call too.  The seam on [Reg.gauge] names
    # nothing dead, so it is stale.
    tree = {
        "lib/a/store.mli": "val crash : ?keep:int -> ?torn:bool -> unit -> unit\n",
        "lib/a/reg.mli": "val counter : ?registry:int -> unit -> int\n"
                         "val gauge : ?registry:int -> unit -> int\n",
        "bench/b.ml": "let () = Store.crash ~torn:true ()\n"
                      "let _ = Reg.counter () + Reg.gauge ~registry:1 ()\n",
        "test/t.ml": "let () = Store.crash ~keep:2 ()\n"
                     "let _ = Reg.counter ~registry:1 ()\n",
    }
    dead = dead_options({p: strip_comments(s) for p, s in tree.items()})
    left, stale = unseamed(dead, read_seams(
        "# seams\nReg.c* ?registry  isolated registries\n\n"
        "Reg.gauge ?registry  stale\n"))
    got = (["%s.%s ?%s" % (module_of(p), n, label) for p, _, n, label in left],
           [glob for _, glob, _ in stale])
    if got != (["Store.crash ?keep"], ["Reg.gauge"]):
        sys.exit("dead-code gate: self-check failed, unseamed options and "
                 "stale seams %s, want ([Store.crash ?keep], [Reg.gauge])"
                 % (got,))


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
    with open(SEAMS, encoding="utf-8") as f:
        seams = read_seams(f.read())
    options, stale = unseamed(dead_options(text), seams)
    for path, line, name, label in options:
        print("%s:%d: val %s: no call outside test/ passes ?%s"
              % (path, line, name, label))
    for line, glob, label in stale:
        print("%s:%d: seam %s ?%s names no optional parameter only tests "
              "pass" % (os.path.relpath(SEAMS, root), line, glob, label))
    if dead or options or stale:
        sys.exit(1)
    print("dead-code gate: %d exported vals, all referenced; every optional "
          "parameter passed by a call of its val outside test/ or named by "
          "one of %d seams" % (len(decls), len(seams)))


if __name__ == "__main__":
    main()
