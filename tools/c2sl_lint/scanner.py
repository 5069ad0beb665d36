"""Atomic-site extraction over the token stream.

A *site* is one operation on a std::atomic object: a member call
`x.load(...)`, `x->fetch_add(...)`, `x.exchange(...)`, `x.wait(...)`,
`x.notify_one()`, or a `compare_exchange_*` / free-function CAS. For each
site the scanner records:

  * file / line / enclosing symbol (namespace::Class::method, best effort via
    a brace-matching scope tracker — exact for this codebase's style);
  * the operation name and the memory order actually passed (C++ default
    `seq_cst` when the call passes no order argument, and `non-literal` when
    it passes one that is not a `std::memory_order` literal, such as a
    forwarded parameter: the audit can only read an order written at the
    call site, so rule 2 reports such a site);
  * the `// c2sl-atomic:` annotation that covers it, if any.

Annotation grammar (docs/ARCHITECTURE.md "Atomics inventory"):

    // c2sl-atomic: <kind> <order> [noprofile][, <kind> <order> ...] — <why>

  kind  ∈ faa | tas | swap | cas | load | store | wait-notify
  order ∈ relaxed | acquire | release | acq_rel | seq_cst | n/a

One annotation lists one pair per covered site; sites consume pairs in source
order. An annotation covers sites on its own line (trailing form) or on the
lines just below it (leading form, within ANNOTATION_WINDOW lines) — so a
multi-line statement can carry one leading annotation listing every site.
"""

import os
import re
from dataclasses import dataclass, field

from .tokenizer import tokenize

# Member calls that constitute an atomic site, and the code-level op each is.
ATOMIC_MEMBER_OPS = {
    "fetch_add": "fetch_add",
    "fetch_sub": "fetch_sub",
    "fetch_and": "fetch_and",
    "fetch_or": "fetch_or",
    "fetch_xor": "fetch_xor",
    "exchange": "exchange",
    "compare_exchange_weak": "compare_exchange",
    "compare_exchange_strong": "compare_exchange",
    "load": "load",
    "store": "store",
    "wait": "wait",
    "notify_one": "notify_one",
    "notify_all": "notify_all",
}

# Free functions that are CAS no matter how the object is reached.
CAS_FREE_FUNCTIONS = frozenset((
    "atomic_compare_exchange_weak",
    "atomic_compare_exchange_strong",
    "atomic_compare_exchange_weak_explicit",
    "atomic_compare_exchange_strong_explicit",
))

# Identifier fragments that are forbidden outside the allowlist regardless of
# syntactic shape (aliases and macros cannot hide the member name itself).
CAS_IDENTIFIERS = frozenset((
    "compare_exchange_weak", "compare_exchange_strong",
)) | CAS_FREE_FUNCTIONS | frozenset((
    "__sync_val_compare_and_swap", "__sync_bool_compare_and_swap",
))
CAS_SUBSTRINGS = ("cmpxchg",)  # inline-asm mnemonics smuggled as identifiers

# Code op -> annotation kinds that may claim it.
OP_TO_KINDS = {
    "fetch_add": ("faa",),
    "exchange": ("tas", "swap"),
    "compare_exchange": ("cas",),
    "load": ("load",),
    "store": ("store",),
    "wait": ("wait-notify",),
    "notify_one": ("wait-notify",),
    "notify_all": ("wait-notify",),
}

# Arguments each op takes before its memory order(s): a call with more than
# this many arguments passes an order.
VALUE_ARGS = {
    "fetch_add": 1, "fetch_sub": 1, "fetch_and": 1, "fetch_or": 1,
    "fetch_xor": 1, "exchange": 1, "compare_exchange": 2, "load": 0,
    "store": 1, "wait": 1,
}

# The order recorded for a site whose order argument is not a literal.
NON_LITERAL = "non-literal"

RMW_OPS = frozenset(("fetch_add", "fetch_sub", "fetch_and", "fetch_or",
                     "fetch_xor", "exchange", "compare_exchange"))

MEMORY_ORDERS = frozenset((
    "relaxed", "acquire", "release", "acq_rel", "seq_cst", "consume"))

KINDS = frozenset(("faa", "tas", "swap", "cas", "load", "store",
                   "wait-notify"))

# A leading annotation covers sites up to this many lines below it.
ANNOTATION_WINDOW = 6

ANNOTATION_RE = re.compile(r"c2sl-atomic:\s*(.*)$")

# Simulated primitives (src/core, src/primitives, sim_bridge) thread a
# sim::Ctx& as the FIRST argument of every operation; hardware std::atomic
# member calls never do. `x.fetch_add(ctx, 1)` is a sim step, not an atomic
# site.
SIM_CTX_ARG = "ctx"

# Control-flow keywords never name a scope even though they precede a '('.
CONTROL_KEYWORDS = frozenset((
    "for", "if", "while", "switch", "catch", "return", "do", "else",
    "sizeof", "alignof", "decltype", "noexcept", "static_assert", "assert",
    "defined"))

PRIM_MACROS = {
    "C2SL_TEL_PRIM_FAA": "faa",
    "C2SL_TEL_PRIM_TAS": "tas",
    "C2SL_TEL_PRIM_SWAP": "swap",
}


@dataclass
class AtomicSite:
    file: str          # repo-relative, forward slashes
    line: int
    col: int
    symbol: str        # enclosing namespace::Class::method
    op: str            # code-level op: fetch_add | exchange | load | ...
    order: str         # memory order in the code: relaxed ... seq_cst | n/a
    kind: str = ""     # annotated kind ("" = unannotated)
    ann_order: str = ""
    noprofile: bool = False
    rationale: str = ""
    ann_line: int = 0  # line of the covering annotation (0 = none)


@dataclass
class Annotation:
    file: str
    line: int
    trailing: bool
    pairs: list        # [(kind, order, noprofile), ...]
    rationale: str
    consumed: int = 0
    errors: list = field(default_factory=list)


@dataclass
class PrimMacro:
    file: str
    line: int
    kind: str          # faa | tas | swap
    in_define: bool    # the macro's own #define line (not a call site)


def parse_annotation(comment_text):
    """Parses one `c2sl-atomic:` comment body. Returns (pairs, rationale,
    errors); pairs is [] when the comment is not an annotation at all."""
    m = ANNOTATION_RE.search(comment_text)
    if not m:
        return None
    body = m.group(1)
    # Rationale separator: em-dash or a double hyphen.
    rationale = ""
    for sep in ("—", "--"):
        if sep in body:
            body, rationale = body.split(sep, 1)
            rationale = rationale.strip()
            break
    errors = []
    if not rationale:
        errors.append("annotation has no rationale (need `— <why>`)")
    pairs = []
    for clause in body.split(","):
        words = clause.split()
        if not words:
            continue
        kind = words[0]
        order = words[1] if len(words) > 1 else ""
        flags = words[2:]
        if kind not in KINDS:
            errors.append(f"unknown kind '{kind}'")
        if order not in MEMORY_ORDERS and order != "n/a":
            errors.append(f"unknown memory order '{order}'")
        noprofile = False
        for f in flags:
            if f == "noprofile":
                noprofile = True
            else:
                errors.append(f"unknown flag '{f}'")
        pairs.append((kind, order, noprofile))
    if not pairs:
        errors.append("annotation lists no <kind> <order> pairs")
    return pairs, rationale, errors


class _ScopeTracker:
    """Brace-matching enclosing-symbol tracker.

    Tracks namespace / class / struct / enum scopes by name and function
    scopes by the identifier that precedes the parameter list. Heuristic, but
    exact for this codebase's formatting; fixtures in atomics_audit_test.py
    pin the behaviour the audit relies on.
    """

    def __init__(self):
        self.stack = []          # (name or "", is_named)
        self.pending_scope = ""  # name announced by class/struct/namespace
        self.last_call = ""      # identifier before the most recent '(' chain
        self.paren_depth = 0

    def symbol(self):
        return "::".join(s for s, named in self.stack if named and s)

    def feed(self, tokens):
        """Yields (index, token) while maintaining scope state; the caller
        inspects `symbol()` at interesting tokens."""
        i = 0
        n = len(tokens)
        prev_ident = ""
        while i < n:
            t = tokens[i]
            if t.kind == "ident":
                if t.text in ("class", "struct", "namespace", "enum", "union"):
                    # First identifier (skipping attributes / alignas(...) /
                    # access keywords) names the scope — unless a ';' lands
                    # first (fwd declaration, handled by the ';' case below).
                    j = i + 1
                    name = ""
                    while j < n and tokens[j].text not in ("{", ";"):
                        tj = tokens[j]
                        if tj.text == "(":  # alignas(64), attributes
                            depth = 1
                            j += 1
                            while j < n and depth:
                                if tokens[j].text == "(":
                                    depth += 1
                                elif tokens[j].text == ")":
                                    depth -= 1
                                j += 1
                            continue
                        if tj.kind == "ident" and tj.text not in (
                                "alignas", "final", "public", "private",
                                "protected", "class", "inline", "constexpr"):
                            name = tj.text
                            # nested-namespace definition: namespace a::b {
                            while j + 2 < n and tokens[j + 1].text == "::" \
                                    and tokens[j + 2].kind == "ident":
                                name += "::" + tokens[j + 2].text
                                j += 2
                            break
                        j += 1
                    self.pending_scope = name
                prev_ident = t.text
            elif t.text == "(":
                if self.paren_depth == 0 and prev_ident:
                    if prev_ident in CONTROL_KEYWORDS:
                        self.last_call = ""
                    elif not self.last_call:
                        # Keep the FIRST call of the statement: a constructor
                        # init-list (`Foo() : a_(x), b_(y) {`) must not let
                        # the member initializers steal the function name.
                        # Prepend `X::`-qualifiers for out-of-line methods.
                        name = prev_ident
                        if i >= 1 and tokens[i - 1].kind == "ident":
                            k = i - 1  # token holding prev_ident
                            if k >= 1 and tokens[k - 1].text == "~":
                                name = "~" + name
                                k -= 1
                            while k >= 2 and tokens[k - 1].text == "::" and \
                                    tokens[k - 2].kind == "ident":
                                name = tokens[k - 2].text + "::" + name
                                k -= 2
                        self.last_call = name
                self.paren_depth += 1
            elif t.text == ")":
                self.paren_depth = max(0, self.paren_depth - 1)
            elif t.text == "{":
                if self.paren_depth > 0:
                    # Brace inside an argument list (lambda / init-list):
                    # treat as anonymous.
                    self.stack.append(("", False))
                elif self.pending_scope:
                    self.stack.append((self.pending_scope, True))
                    self.pending_scope = ""
                elif self.last_call:
                    self.stack.append((self.last_call, True))
                    self.last_call = ""
                else:
                    self.stack.append(("", False))
            elif t.text == "}":
                if self.stack:
                    self.stack.pop()
            elif t.text == ";":
                self.pending_scope = ""
                if self.paren_depth == 0:
                    self.last_call = ""
            yield i, t
            i += 1


def _call_args(tokens, open_paren_idx):
    """Top-level arguments of the balanced parens starting at open_paren_idx,
    each as a list of tokens."""
    args = [[]]
    depth = 0
    for t in tokens[open_paren_idx:]:
        if t.text in ("(", "[", "{"):
            depth += 1
            if depth == 1:
                continue
        elif t.text in (")", "]", "}"):
            depth -= 1
            if depth == 0:
                break
        elif t.text == "," and depth == 1:
            args.append([])
            continue
        args[-1].append(t)
    return [a for a in args if a]


def _order_literal(arg):
    """The order an argument names if it is exactly a memory_order literal
    (`std::memory_order_acquire`, `std::memory_order::acquire`, with or
    without `std::`), else None."""
    words = [t.text for t in arg]
    if words[:2] == ["std", "::"]:
        words = words[2:]
    if len(words) == 1 and words[0].startswith("memory_order_"):
        order = words[0][len("memory_order_"):]
    elif len(words) == 3 and words[:2] == ["memory_order", "::"]:
        order = words[2]
    else:
        return None
    return order if order in MEMORY_ORDERS else None


def _extract_order(tokens, open_paren_idx, op):
    """Memory order passed in the call whose argument list opens at
    open_paren_idx: C++ defaults to seq_cst when the call passes none, and
    NON_LITERAL when an order argument is not a memory_order literal. A CAS
    reports its success order."""
    orders = _call_args(tokens, open_paren_idx)[VALUE_ARGS[op]:]
    if not orders:
        return "seq_cst"
    found = [_order_literal(a) for a in orders]
    if None in found:
        return NON_LITERAL
    return found[0]


def scan_file(path, repo_root, text=None):
    """Scans one C++ file. Returns (sites, annotations, prim_macros,
    cas_hits, asm_hits) — cas/asm hits as (line, identifier) pairs."""
    if text is None:
        with open(path, encoding="utf-8") as f:
            text = f.read()
    rel = os.path.relpath(path, repo_root).replace(os.sep, "/")
    tokens, comments = tokenize(text)

    sites = []
    prim_macros = []
    cas_hits = []
    asm_hits = []

    # Which lines belong to a #define (macro call-sites vs the definition).
    define_lines = set()
    for mline in re.finditer(
            r"^[ \t]*#[ \t]*define\b(?:[^\n]*\\\n)*[^\n]*",
            text, re.MULTILINE):
        start = text.count("\n", 0, mline.start()) + 1
        end = start + mline.group(0).count("\n")
        define_lines.update(range(start, end + 1))

    tracker = _ScopeTracker()
    toks = tokens
    n = len(toks)
    for i, t in tracker.feed(toks):
        if t.kind != "ident":
            continue
        text_t = t.text
        # --- rule-1 raw material: CAS / asm identifiers anywhere in code ----
        if text_t in CAS_IDENTIFIERS or any(s in text_t.lower()
                                            for s in CAS_SUBSTRINGS):
            cas_hits.append((t.line, text_t))
        if text_t in ("asm", "__asm", "__asm__"):
            asm_hits.append((t.line, text_t))
        # --- profile macros -------------------------------------------------
        if text_t in PRIM_MACROS:
            prim_macros.append(PrimMacro(rel, t.line, PRIM_MACROS[text_t],
                                         t.line in define_lines))
        # --- atomic member calls -------------------------------------------
        if text_t in ATOMIC_MEMBER_OPS:
            prev = toks[i - 1] if i > 0 else None
            nxt = toks[i + 1] if i + 1 < n else None
            is_member = prev is not None and prev.text in (".", "->")
            is_call = nxt is not None and nxt.text == "("
            if not (is_member and is_call):
                # Free-function CAS is caught by the identifier rule above;
                # declarations / unrelated identifiers are not sites.
                continue
            # Simulated primitives take sim::Ctx& first: x.fetch_add(ctx, 1)
            # is a sim step on a model object, not a hardware atomic. Only
            # fetch_add collides with the sim op vocabulary (read / write /
            # swap otherwise), so the exclusion is scoped to it — a real
            # atomic's delta argument is never the sim context.
            if text_t == "fetch_add" and i + 2 < n and \
                    toks[i + 2].kind == "ident" and \
                    toks[i + 2].text == SIM_CTX_ARG and i + 3 < n and \
                    toks[i + 3].text in (",", ")"):
                continue
            op = ATOMIC_MEMBER_OPS[text_t]
            if op in ("notify_one", "notify_all"):
                order = "n/a"
            else:
                order = _extract_order(toks, i + 1, op)
            sites.append(AtomicSite(
                file=rel, line=t.line, col=t.col,
                symbol=tracker.symbol(), op=op, order=order))

    # --- annotations --------------------------------------------------------
    annotations = []
    for c in comments:
        parsed = parse_annotation(c.text)
        if parsed is None:
            continue
        pairs, rationale, errors = parsed
        annotations.append(Annotation(rel, c.line, c.trailing, pairs,
                                      rationale, errors=list(errors)))

    _bind_annotations(sites, annotations)
    return sites, annotations, prim_macros, cas_hits, asm_hits


def _bind_annotations(sites, annotations):
    """Sites consume annotation pairs in source order.

    A trailing annotation covers sites on its own line; a leading annotation
    covers sites strictly below it within ANNOTATION_WINDOW lines. Binding is
    greedy and ordered, so one leading annotation can cover a multi-line
    statement by listing one pair per site.
    """
    anns = sorted(annotations, key=lambda a: a.line)
    sites_sorted = sorted(sites, key=lambda s: (s.line, s.col))
    ai = 0
    active = []  # annotations whose window is open
    for s in sites_sorted:
        while ai < len(anns) and anns[ai].line <= s.line:
            active.append(anns[ai])
            ai += 1
        chosen = None
        for a in reversed(active):  # nearest annotation first
            if a.consumed >= len(a.pairs):
                continue
            if a.trailing:
                if a.line == s.line:
                    chosen = a
                    break
            elif a.line <= s.line <= a.line + ANNOTATION_WINDOW:
                chosen = a
                break
        if chosen is None:
            continue
        kind, order, noprofile = chosen.pairs[chosen.consumed]
        chosen.consumed += 1
        s.kind = kind
        s.ann_order = order
        s.noprofile = noprofile
        s.rationale = chosen.rationale
        s.ann_line = chosen.line


CPP_SUFFIXES = (".h", ".hpp", ".cpp", ".cc", ".cxx")
ASM_SUFFIXES = (".S", ".s")

# An atomic instruction in an assembly source: a lock prefix, or an xchg /
# xadd / cmpxchg form (xchg with memory is locked implicitly). Matched as a
# statement's first mnemonic, after an optional label.
_ASM_ATOMIC = re.compile(
    r"^(?:[A-Za-z_.$][\w.$]*:)?\s*(lock|xchg\w*|xadd\w*|cmpxchg\w*)\b",
    re.IGNORECASE)


def iter_cpp_files(root, subdirs, suffixes=CPP_SUFFIXES):
    for sub in subdirs:
        base = os.path.join(root, sub)
        if not os.path.isdir(base):
            continue
        for dirpath, _dirnames, filenames in os.walk(base):
            for name in sorted(filenames):
                if name.endswith(suffixes):
                    yield os.path.join(dirpath, name)


def scan_asm_file(path, text=None):
    """Scans one assembly source (preprocessed .S or plain .s) in scan_file's
    shape: no atomic sites, annotations or macros (none can be annotated
    there), cmpxchg forms as cas_hits and every other atomic instruction as
    asm_hits, each as (line, mnemonic)."""
    if text is None:
        with open(path, encoding="utf-8") as f:
            text = f.read()
    # C comments (a .S goes through the C preprocessor), kept line-aligned.
    text = re.sub(r"/\*.*?\*/", lambda m: "\n" * m.group(0).count("\n"),
                  text, flags=re.DOTALL)
    cas_hits = []
    asm_hits = []
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.split("//", 1)[0]
        if line.lstrip().startswith("#"):  # preprocessor line or # comment
            continue
        for stmt in line.split(";"):
            m = _ASM_ATOMIC.match(stmt.strip())
            if not m:
                continue
            cas = re.search(r"\bcmpxchg\w*", stmt, re.IGNORECASE)
            if cas:  # also behind a lock prefix
                cas_hits.append((lineno, cas.group(0).lower()))
            else:
                asm_hits.append((lineno, m.group(1).lower()))
    return [], [], [], cas_hits, asm_hits


def scan_tree(root, subdirs):
    """Scans every C++ and assembly file under root/<subdir> for each
    subdir. Returns a dict: file -> scan_file() / scan_asm_file() tuple,
    ordered by path."""
    out = {}
    paths = list(iter_cpp_files(root, subdirs, CPP_SUFFIXES + ASM_SUFFIXES))
    for path in sorted(paths):
        rel = os.path.relpath(path, root).replace(os.sep, "/")
        if path.endswith(ASM_SUFFIXES):
            out[rel] = scan_asm_file(path)
        else:
            out[rel] = scan_file(path, root)
    return out
