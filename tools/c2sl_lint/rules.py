"""The four CI-enforced conformance rules.

Rule 1 — no-CAS: `compare_exchange_*` / `atomic_compare_exchange*` /
         `__sync_*compare*` identifiers (and inline asm, where a cmpxchg
         could hide inside a string the tokenizer cannot see) may appear only
         under the allowlist: src/baselines/** and src/primitives/swap_cas.h.
         Identifier-based, so aliasing the atomic object or wrapping the call
         in a macro cannot smuggle one in — the member name itself must
         appear somewhere in code tokens, and comments/strings never match.
         Assembly sources (*.S, *.s) are scanned statement by statement: a
         cmpxchg form there is a CAS, and any other atomic instruction (a
         lock prefix, xchg, xadd) is an atomic site no annotation, inventory
         or profile hook can cover, so both fail outside the allowlist.

Rule 2 — annotation audit: every atomic site under src/runtime/,
         src/service/ and src/telemetry/ must be covered by a
         `// c2sl-atomic: <kind> <order> — <rationale>` whose claimed kind is
         compatible with the operation in the code (faa ⇔ fetch_add,
         tas/swap ⇔ exchange, ...) and whose claimed order equals the memory
         order the code actually passes (C++ default seq_cst when absent).
         Annotations anywhere else are optional but validated when present.
         Anywhere under src/, an order argument that is not a
         std::memory_order literal (a forwarded parameter, a ternary) is a
         finding: the audit could only guess such an order.

Rule 3 — inventory drift: the machine-generated atomics inventory
         (tools/atomics_inventory.json) must match a fresh scan exactly;
         `atomics_audit.py --write` regenerates it, so any new/changed/moved
         site shows up as a reviewable diff of the concurrency surface.

Rule 4 — profile-hook parity: under src/runtime/ and src/service/, every
         RMW site must sit adjacent (≤ PARITY_WINDOW lines) to a matching
         C2SL_TEL_PRIM_{FAA,TAS,SWAP}() invocation — or carry the explicit
         `noprofile` flag with its rationale — and every such macro
         invocation must be adjacent to a matching RMW site. The paper's
         measured primitive cost model (telemetry/prim_profile.h) can then
         never silently under- or over-count.
"""

import json
import os
from dataclasses import dataclass

from .scanner import ASM_SUFFIXES, NON_LITERAL, OP_TO_KINDS, RMW_OPS, scan_tree

INVENTORY_SCHEMA = "c2sl-atomics-v1"

# Directories scanned for the inventory (everything with real std::atomic).
INVENTORY_DIRS = ("src/runtime", "src/service", "src/telemetry", "src/util")
# Directories where every site MUST be annotated (rule 2).
ANNOTATED_DIRS = ("src/runtime", "src/service", "src/telemetry")
# Directories where RMW sites and C2SL_TEL_PRIM_* must pair up (rule 4).
PARITY_DIRS = ("src/runtime", "src/service")
# Rule 1 scans everything under src/ except the allowlist.
CAS_SCAN_DIRS = ("src",)
CAS_ALLOWLIST_PREFIXES = ("src/baselines/",)
CAS_ALLOWLIST_FILES = ("src/primitives/swap_cas.h",)

# An RMW and its profile macro must be within this many lines.
PARITY_WINDOW = 3


@dataclass(frozen=True)
class Finding:
    rule: str    # "no-cas" | "annotation" | "inventory" | "parity"
    file: str
    line: int
    message: str

    def __str__(self):
        return f"{self.file}:{self.line}: [{self.rule}] {self.message}"


def _under(rel, dirs):
    return any(rel == d or rel.startswith(d + "/") for d in dirs)


def _allowlisted(rel, prefixes=CAS_ALLOWLIST_PREFIXES,
                 files=CAS_ALLOWLIST_FILES):
    return rel in files or any(rel.startswith(p) for p in prefixes)


# --- rule 1 -----------------------------------------------------------------

def check_no_cas(scans, allow_prefixes=CAS_ALLOWLIST_PREFIXES,
                 allow_files=CAS_ALLOWLIST_FILES):
    findings = []
    for rel, (_sites, _anns, _macros, cas_hits, asm_hits) in scans.items():
        if _allowlisted(rel, allow_prefixes, allow_files):
            continue
        if rel.endswith(ASM_SUFFIXES):
            for line, op in cas_hits:
                findings.append(Finding(
                    "no-cas", rel, line,
                    f"forbidden CAS instruction '{op}' in an assembly "
                    "source (consensus number ∞)"))
            for line, op in asm_hits:
                findings.append(Finding(
                    "no-cas", rel, line,
                    f"atomic instruction '{op}' in an assembly source: the "
                    "atomics audit cannot annotate, inventory or profile it"))
            continue
        for line, ident in cas_hits:
            findings.append(Finding(
                "no-cas", rel, line,
                f"forbidden CAS identifier '{ident}' (consensus number ∞); "
                "only src/baselines/ and src/primitives/swap_cas.h may use "
                "compare&swap"))
        for line, ident in asm_hits:
            findings.append(Finding(
                "no-cas", rel, line,
                f"inline assembly ('{ident}') is forbidden outside the "
                "baselines: a cmpxchg inside an asm string is invisible to "
                "the atomics audit"))
    return findings


# --- rule 2 -----------------------------------------------------------------

def check_annotations(scans, annotated_dirs=ANNOTATED_DIRS):
    findings = []
    for rel, (sites, anns, _macros, _cas, _asm) in scans.items():
        must_annotate = _under(rel, annotated_dirs)
        for a in anns:
            for err in a.errors:
                findings.append(Finding("annotation", rel, a.line, err))
            if a.consumed < len(a.pairs):
                findings.append(Finding(
                    "annotation", rel, a.line,
                    f"annotation lists {len(a.pairs)} site(s) but only "
                    f"{a.consumed} matched an atomic operation nearby"))
        for s in sites:
            allowed = OP_TO_KINDS.get(s.op)
            if allowed is None:
                findings.append(Finding(
                    "annotation", rel, s.line,
                    f"atomic op '{s.op}' is outside the consensus-2 toolbox "
                    "(only fetch_add / exchange / load / store / wait-notify "
                    "are allowed on decision paths)"))
                continue
            if s.order == NON_LITERAL:
                findings.append(Finding(
                    "annotation", rel, s.line,
                    f"atomic site '{s.op}' in {s.symbol or '<file scope>'} "
                    "passes a memory order that is not a std::memory_order "
                    "literal; write the order at the call site"))
            if not s.kind:
                if must_annotate:
                    findings.append(Finding(
                        "annotation", rel, s.line,
                        f"atomic site '{s.op}' in {s.symbol or '<file scope>'} "
                        "has no covering c2sl-atomic annotation "
                        "(grammar: // c2sl-atomic: <kind> <order> — <why>)"))
                continue
            if s.kind not in allowed:
                findings.append(Finding(
                    "annotation", rel, s.line,
                    f"annotation claims kind '{s.kind}' but the code performs "
                    f"'{s.op}' (allowed kinds: {', '.join(allowed)})"))
            if s.ann_order != s.order and s.order != NON_LITERAL:
                findings.append(Finding(
                    "annotation", rel, s.line,
                    f"annotation claims memory order '{s.ann_order}' but the "
                    f"code uses '{s.order}'"))
    return findings


# --- rule 3 -----------------------------------------------------------------

def inventory_payload(scans, inventory_dirs=INVENTORY_DIRS):
    """The canonical, diff-reviewable inventory document."""
    entries = []
    for rel, (sites, _anns, _macros, _cas, _asm) in sorted(scans.items()):
        if not _under(rel, inventory_dirs):
            continue
        for s in sorted(sites, key=lambda s: (s.line, s.col)):
            entry = {
                "file": s.file,
                "line": s.line,
                "symbol": s.symbol,
                "op": s.op,
                "order": s.order,
            }
            if s.kind:
                entry["kind"] = s.kind
                entry["rationale"] = s.rationale
                if s.noprofile:
                    entry["noprofile"] = True
            entries.append(entry)
    by_kind = {}
    by_order = {}
    for e in entries:
        by_kind[e.get("kind", "unannotated")] = \
            by_kind.get(e.get("kind", "unannotated"), 0) + 1
        by_order[e["order"]] = by_order.get(e["order"], 0) + 1
    return {
        "schema": INVENTORY_SCHEMA,
        "site_count": len(entries),
        "sites_by_kind": dict(sorted(by_kind.items())),
        "sites_by_order": dict(sorted(by_order.items())),
        "sites": entries,
    }


def check_inventory(fresh_payload, inventory_path):
    if not os.path.exists(inventory_path):
        return [Finding(
            "inventory", os.path.basename(inventory_path), 0,
            "checked-in inventory missing; run atomics_audit.py --write")]
    with open(inventory_path, encoding="utf-8") as f:
        try:
            on_disk = json.load(f)
        except json.JSONDecodeError as e:
            return [Finding("inventory", os.path.basename(inventory_path), 0,
                            f"inventory is not valid JSON: {e}")]
    if on_disk == fresh_payload:
        return []
    findings = []
    old_sites = {(s["file"], s["line"], s["op"]): s
                 for s in on_disk.get("sites", [])}
    new_sites = {(s["file"], s["line"], s["op"]): s
                 for s in fresh_payload["sites"]}
    for key in sorted(set(new_sites) - set(old_sites)):
        findings.append(Finding(
            "inventory", key[0], key[1],
            f"site '{key[2]}' is not in the checked-in inventory"))
    for key in sorted(set(old_sites) - set(new_sites)):
        findings.append(Finding(
            "inventory", key[0], key[1],
            f"inventory lists a site '{key[2]}' that no longer exists"))
    for key in sorted(set(old_sites) & set(new_sites)):
        if old_sites[key] != new_sites[key]:
            findings.append(Finding(
                "inventory", key[0], key[1],
                f"site '{key[2]}' changed (kind/order/symbol/rationale)"))
    if not findings:  # e.g. counts or ordering drifted
        findings.append(Finding(
            "inventory", os.path.basename(inventory_path), 0,
            "inventory metadata is stale"))
    findings.append(Finding(
        "inventory", os.path.basename(inventory_path), 0,
        "concurrency surface changed: regenerate with "
        "`python3 tools/atomics_audit.py --write` and review the diff"))
    return findings


# --- rule 4 -----------------------------------------------------------------

def check_profile_parity(scans, parity_dirs=PARITY_DIRS,
                         window=PARITY_WINDOW):
    findings = []
    for rel, (sites, _anns, macros, _cas, _asm) in scans.items():
        if not _under(rel, parity_dirs):
            continue
        rmws = [s for s in sites if s.op in RMW_OPS]
        live_macros = [m for m in macros if not m.in_define]
        claimed = set()

        def macro_for(site):
            # The annotated kind names the macro; an unannotated exchange
            # accepts either TAS or SWAP (rule 2 separately demands the
            # annotation in these dirs).
            want = {site.kind} if site.kind else set(OP_TO_KINDS[site.op])
            for idx, m in enumerate(live_macros):
                if idx in claimed or m.kind not in want:
                    continue
                if site.line - window <= m.line <= site.line:
                    claimed.add(idx)
                    return m
            return None

        for s in sorted(rmws, key=lambda s: (s.line, s.col)):
            if s.op not in OP_TO_KINDS:
                continue  # outside the toolbox: rule 2 already fails the build
            if s.op == "compare_exchange":
                continue  # rule 1 already fails the build
            m = macro_for(s)
            if m is None and not s.noprofile:
                findings.append(Finding(
                    "parity", rel, s.line,
                    f"RMW site '{s.op}' has no adjacent C2SL_TEL_PRIM_* hook "
                    f"(within {window} lines above) and is not flagged "
                    "noprofile — the measured primitive cost model would "
                    "under-count"))
            elif m is not None and s.noprofile:
                findings.append(Finding(
                    "parity", rel, s.line,
                    f"RMW site '{s.op}' is flagged noprofile but a "
                    f"C2SL_TEL_PRIM_{m.kind.upper()}() hook sits adjacent on "
                    f"line {m.line} — drop the flag or the hook"))
        for idx, m in enumerate(live_macros):
            if idx in claimed:
                continue
            findings.append(Finding(
                "parity", rel, m.line,
                f"C2SL_TEL_PRIM_{m.kind.upper()}() has no matching "
                f"'{m.kind}' RMW site within {window} lines below — the "
                "measured primitive cost model would over-count"))
    return findings


# --- driver -----------------------------------------------------------------

def run_all(root, inventory_path, write=False):
    """Runs every rule. Returns (findings, fresh_inventory_payload)."""
    scans = scan_tree(root, CAS_SCAN_DIRS)
    findings = []
    findings += check_no_cas(scans)
    findings += check_annotations(scans)
    findings += check_profile_parity(scans)
    payload = inventory_payload(scans)
    if write:
        with open(inventory_path, "w", encoding="utf-8") as f:
            json.dump(payload, f, indent=1)
            f.write("\n")
    else:
        findings += check_inventory(payload, inventory_path)
    findings.sort(key=lambda f: (f.file, f.line, f.rule, f.message))
    return findings, payload
