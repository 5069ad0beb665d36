#!/usr/bin/env python3
"""Fixture tests for the no-CAS conformance linter (tools/c2sl_lint).

Each fixture builds a tiny synthetic repo in a temp directory and asserts the
audit's verdict — both directions: the seeded violation MUST be caught, and
the benign twin MUST stay clean. Wired into ctest as `atomics_audit_py`
(tier-1), like metrics_diff_py.

Run directly:  python3 tools/atomics_audit_test.py
"""

import json
import os
import shutil
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from c2sl_lint.tokenizer import tokenize
from c2sl_lint.scanner import parse_annotation, scan_file
from c2sl_lint import rules


class TempRepo:
    """A throwaway tree the rules run against."""

    def __init__(self):
        self.root = tempfile.mkdtemp(prefix="c2sl_lint_test_")

    def write(self, rel, text):
        path = os.path.join(self.root, rel)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as f:
            f.write(text)
        return path

    def scan(self):
        from c2sl_lint.scanner import scan_tree
        return scan_tree(self.root, rules.CAS_SCAN_DIRS)

    def cleanup(self):
        shutil.rmtree(self.root, ignore_errors=True)


class TokenizerTest(unittest.TestCase):
    def test_comments_and_strings_produce_no_identifiers(self):
        src = (
            '// compare_exchange_weak in a line comment\n'
            '/* compare_exchange_strong in a block */\n'
            'const char* s = "x.compare_exchange_weak(a, b)";\n'
            "char c = 'x';\n"
        )
        tokens, comments = tokenize(src)
        idents = {t.text for t in tokens if t.kind == "ident"}
        self.assertNotIn("compare_exchange_weak", idents)
        self.assertNotIn("compare_exchange_strong", idents)
        self.assertEqual(len(comments), 2)

    def test_raw_string_payload_is_not_code(self):
        src = 'auto s = R"(cas.compare_exchange_weak(a, b))";\n' \
              'auto t = u8R"delim(x.fetch_add(1))delim";\n' \
              'int real = y.fetch_add(1);\n'
        tokens, _ = tokenize(src)
        idents = [t.text for t in tokens if t.kind == "ident"]
        self.assertNotIn("compare_exchange_weak", idents)
        # Only the real fetch_add outside the raw strings survives.
        self.assertEqual(idents.count("fetch_add"), 1)

    def test_trailing_comment_flag(self):
        src = 'int x = 1;  // trailing\n// leading\n'
        _, comments = tokenize(src)
        self.assertTrue(comments[0].trailing)
        self.assertFalse(comments[1].trailing)

    def test_digit_separator_does_not_open_char_literal(self):
        src = "int x = 1'000'000; int y = q.fetch_add(1);\n"
        tokens, _ = tokenize(src)
        idents = [t.text for t in tokens if t.kind == "ident"]
        self.assertIn("fetch_add", idents)


class AnnotationGrammarTest(unittest.TestCase):
    def test_parses_kind_order_rationale(self):
        pairs, rationale, errors = parse_annotation(
            "c2sl-atomic: faa seq_cst — linearization point")
        self.assertEqual(pairs, [("faa", "seq_cst", False)])
        self.assertEqual(rationale, "linearization point")
        self.assertEqual(errors, [])

    def test_double_hyphen_separator_and_noprofile(self):
        pairs, rationale, errors = parse_annotation(
            "c2sl-atomic: faa relaxed noprofile -- diagnostics")
        self.assertEqual(pairs, [("faa", "relaxed", True)])
        self.assertEqual(rationale, "diagnostics")
        self.assertEqual(errors, [])

    def test_multi_pair(self):
        pairs, _, errors = parse_annotation(
            "c2sl-atomic: store relaxed, load relaxed — single-writer cell")
        self.assertEqual(pairs, [("store", "relaxed", False),
                                 ("load", "relaxed", False)])
        self.assertEqual(errors, [])

    def test_rejects_unknown_kind_order_flag_and_missing_rationale(self):
        _, _, errors = parse_annotation("c2sl-atomic: casx weird maybe")
        joined = "\n".join(errors)
        self.assertIn("unknown kind 'casx'", joined)
        self.assertIn("unknown memory order 'weird'", joined)
        self.assertIn("no rationale", joined)


class RepoRulesTest(unittest.TestCase):
    def setUp(self):
        self.repo = TempRepo()

    def tearDown(self):
        self.repo.cleanup()

    def _findings(self, rule=None):
        scans = self.repo.scan()
        out = []
        out += rules.check_no_cas(scans)
        out += rules.check_annotations(scans)
        out += rules.check_profile_parity(scans)
        if rule is not None:
            out = [f for f in out if f.rule == rule]
        return out

    # --- rule 1: no-CAS ----------------------------------------------------

    def test_cas_outside_allowlist_fails(self):
        self.repo.write("src/runtime/bad.h",
                        "int f(std::atomic<int>& a) {\n"
                        "  int e = 0;\n"
                        "  return a.compare_exchange_strong(e, 1);\n"
                        "}\n")
        findings = self._findings("no-cas")
        self.assertEqual(len(findings), 1)
        self.assertEqual(findings[0].line, 3)

    def test_cas_smuggled_via_alias_and_macro_fails(self):
        # Aliasing the object or hiding the call in a macro body still leaves
        # the member name as a code token — both must be caught.
        self.repo.write("src/runtime/alias.h",
                        "auto& alias = counter;\n"
                        "int v = alias.compare_exchange_weak(e, d);\n")
        self.repo.write("src/runtime/macro.h",
                        "#define SNEAKY_CAS(a, e, d) \\\n"
                        "  (a).compare_exchange_strong((e), (d))\n")
        self.repo.write("src/runtime/builtin.h",
                        "long w = __sync_val_compare_and_swap(&x, 0, 1);\n")
        findings = self._findings("no-cas")
        self.assertEqual({f.file for f in findings},
                         {"src/runtime/alias.h", "src/runtime/macro.h",
                          "src/runtime/builtin.h"})

    def test_inline_asm_is_flagged(self):
        self.repo.write("src/runtime/asm.h",
                        'void f() { asm volatile("lock cmpxchg %1, %0"); }\n')
        findings = self._findings("no-cas")
        self.assertTrue(any("asm" in f.message for f in findings))

    def test_atomic_instructions_in_assembly_sources_are_flagged(self):
        self.repo.write("src/sim/switch.S",
                        "/* cmpxchg in a comment is prose */\n"
                        "  movq %rsp, (%rdi)  // xchg in a comment too\n"
                        "# xadd on a preprocessor-style line\n"
                        "  lock cmpxchgq %rsi, (%rdi)\n"
                        "retry: xaddq %rax, (%rdi); xchg %rax, (%rsi)\n"
                        "  LOCK incq (%rdi)\n")
        found = sorted((f.line, f.message.split("'")[1])
                       for f in self._findings("no-cas"))
        self.assertEqual(found, [(4, "cmpxchgq"), (5, "xaddq"), (5, "xchg"),
                                 (6, "lock")])

    def test_plain_assembly_source_passes(self):
        self.repo.write("src/sim/switch.s",
                        "  pushq %rbp\n  movq %rsi, %rsp\n  popq %rbp\n"
                        "  ret\n")
        self.assertEqual(self._findings("no-cas"), [])

    def test_cas_in_allowlist_passes(self):
        self.repo.write("src/baselines/cas_counter.h",
                        "bool ok = a.compare_exchange_strong(e, d);\n")
        self.repo.write("src/primitives/swap_cas.h",
                        "// the simulated CAS primitive\n"
                        "Val compare_and_swap(sim::Ctx& ctx);\n")
        self.assertEqual(self._findings("no-cas"), [])

    def test_cas_in_comment_or_string_passes(self):
        self.repo.write("src/runtime/prose.h",
                        "// a CAS (compare_exchange_strong) would be wrong\n"
                        'const char* doc = "compare_exchange_weak";\n'
                        'auto raw = R"(x.compare_exchange_strong(e, d))";\n')
        self.assertEqual(self._findings("no-cas"), [])

    # --- rule 2: annotation audit -------------------------------------------

    def test_unannotated_site_in_enforced_dir_fails(self):
        self.repo.write("src/runtime/counter.h",
                        "void add() { total_.fetch_add(1, "
                        "std::memory_order_seq_cst); }\n")
        findings = self._findings("annotation")
        self.assertEqual(len(findings), 1)
        self.assertIn("no covering c2sl-atomic annotation",
                      findings[0].message)

    def test_unannotated_site_outside_enforced_dirs_passes(self):
        self.repo.write("src/util/gate.h",
                        "void g() { gate_.fetch_add(1); }\n")
        self.assertEqual(self._findings("annotation"), [])

    def test_kind_mismatch_fails(self):
        self.repo.write("src/runtime/k.h",
                        "// c2sl-atomic: faa seq_cst — claims FAA, code swaps\n"
                        "int64_t old = ts_.exchange(1, "
                        "std::memory_order_seq_cst);\n")
        findings = self._findings("annotation")
        self.assertEqual(len(findings), 1)
        self.assertIn("claims kind 'faa'", findings[0].message)

    def test_order_mismatch_fails(self):
        self.repo.write("src/runtime/o.h",
                        "// c2sl-atomic: load acquire — claims acquire\n"
                        "int64_t v = head_.load(std::memory_order_seq_cst);\n")
        findings = self._findings("annotation")
        self.assertEqual(len(findings), 1)
        self.assertIn("claims memory order 'acquire'", findings[0].message)

    def test_default_order_is_seq_cst(self):
        self.repo.write("src/runtime/d.h",
                        "// c2sl-atomic: faa seq_cst — implicit order\n"
                        "gate_.fetch_add(1);\n"
                        "C2SL_TEL_PRIM_FAA();\n")
        # order check passes (implicit seq_cst == claimed seq_cst); parity is
        # irrelevant here (macro below, not above — covered elsewhere).
        self.assertEqual(self._findings("annotation"), [])

    def test_trailing_annotation_multi_pair_binds_in_column_order(self):
        self.repo.write(
            "src/telemetry/cell.h",
            "void bump() {\n"
            "  // c2sl-atomic: store relaxed, load relaxed — single writer\n"
            "  c.store(c.load(std::memory_order_relaxed) + 1,\n"
            "          std::memory_order_relaxed);\n"
            "}\n")
        self.assertEqual(self._findings("annotation"), [])

    def test_forwarded_memory_order_fails(self):
        # An order-forwarding wrapper: the audit cannot read `o`, so the site
        # is a finding whatever its annotation claims, also where annotations
        # are optional. A ternary over two literals is not a literal either.
        self.repo.write(
            "src/runtime/fwd.h",
            "template <typename W>\n"
            "uint64_t load_with(W& w, std::memory_order o) {\n"
            "  // c2sl-atomic: load acquire — forwarded order\n"
            "  return w.load(o);\n"
            "}\n"
            "void put(W& w, uint64_t v, bool fast) {\n"
            "  // c2sl-atomic: store release — chosen order\n"
            "  w.store(v, fast ? std::memory_order_relaxed\n"
            "                  : std::memory_order_release);\n"
            "}\n")
        self.repo.write("src/util/fwd.h",
                        "void bump(W& w, std::memory_order o) {\n"
                        "  w.fetch_add(1, o);\n"
                        "}\n")
        findings = self._findings("annotation")
        self.assertEqual(sorted((f.file, f.line) for f in findings),
                         [("src/runtime/fwd.h", 4), ("src/runtime/fwd.h", 8),
                          ("src/util/fwd.h", 2)])
        for f in findings:
            self.assertIn("not a std::memory_order literal", f.message)

    def test_literal_orders_through_atomic_ref_pass(self):
        # The journal's shape: a plain cell reached through a Mem accessor,
        # each access with its literal order.
        self.repo.write(
            "src/runtime/ref.h",
            "void deposit(uint64_t& c, uint64_t w) {\n"
            "  // c2sl-atomic: store release — publish\n"
            "  Mem::ref(c).store(w, std::memory_order::release);\n"
            "  // c2sl-atomic: load acquire — spin\n"
            "  while (Mem::ref(c).load(memory_order_acquire) == 0) {}\n"
            "}\n")
        self.assertEqual(self._findings("annotation"), [])

    def test_cas_through_atomic_ref_fails(self):
        self.repo.write(
            "src/runtime/ref_cas.h",
            "bool claim(uint64_t& w, uint64_t e) {\n"
            "  return std::atomic_ref<uint64_t>(w).compare_exchange_strong(\n"
            "      e, 1, std::memory_order_acq_rel);\n"
            "}\n")
        findings = self._findings("no-cas")
        self.assertEqual([(f.line, f.message.split("'")[1]) for f in findings],
                         [(2, "compare_exchange_strong")])

    def test_overclaiming_annotation_fails(self):
        self.repo.write("src/runtime/over.h",
                        "// c2sl-atomic: load seq_cst, load seq_cst — two?\n"
                        "int64_t v = head_.load(std::memory_order_seq_cst);\n")
        findings = self._findings("annotation")
        self.assertEqual(len(findings), 1)
        self.assertIn("only 1 matched", findings[0].message)

    def test_rmw_outside_toolbox_fails(self):
        self.repo.write("src/runtime/sub.h",
                        "int64_t v = n_.fetch_sub(1, "
                        "std::memory_order_seq_cst);\n")
        findings = self._findings("annotation")
        self.assertTrue(any("outside the consensus-2 toolbox" in f.message
                            for f in findings))

    def test_sim_fetch_add_is_not_a_site(self):
        self.repo.write("src/service/bridge.cpp",
                        "void inc(sim::Ctx& ctx) {\n"
                        "  ctx.world->get(digest_).fetch_add(ctx, 1);\n"
                        "}\n")
        self.assertEqual(self._findings(), [])

    # --- rule 3: inventory drift --------------------------------------------

    def test_inventory_roundtrip_and_drift(self):
        self.repo.write("src/runtime/inv.h",
                        "// c2sl-atomic: faa seq_cst — the op\n"
                        "total_.fetch_add(1, std::memory_order_seq_cst);\n"
                        "C2SL_TEL_PRIM_FAA();\n")
        inv = os.path.join(self.repo.root, "inv.json")
        payload = rules.inventory_payload(self.repo.scan())
        with open(inv, "w", encoding="utf-8") as f:
            json.dump(payload, f)
        self.assertEqual(rules.check_inventory(payload, inv), [])
        # Drift: a new site appears.
        self.repo.write("src/runtime/inv2.h",
                        "// c2sl-atomic: load relaxed — diag\n"
                        "int64_t v = x_.load(std::memory_order_relaxed);\n")
        fresh = rules.inventory_payload(self.repo.scan())
        findings = rules.check_inventory(fresh, inv)
        self.assertTrue(any("not in the checked-in inventory" in f.message
                            for f in findings))
        self.assertTrue(any("--write" in f.message for f in findings))
        # Drift: an order changes in place.
        with open(inv, "w", encoding="utf-8") as f:
            json.dump(fresh, f)
        self.repo.write("src/runtime/inv2.h",
                        "// c2sl-atomic: load acquire — diag\n"
                        "int64_t v = x_.load(std::memory_order_acquire);\n")
        findings = rules.check_inventory(
            rules.inventory_payload(self.repo.scan()), inv)
        self.assertTrue(any("changed" in f.message for f in findings))

    def test_missing_inventory_fails(self):
        findings = rules.check_inventory(
            rules.inventory_payload(self.repo.scan()),
            os.path.join(self.repo.root, "absent.json"))
        self.assertEqual(len(findings), 1)
        self.assertIn("missing", findings[0].message)

    # --- rule 4: profile parity ---------------------------------------------

    def test_unprofiled_rmw_fails(self):
        self.repo.write("src/runtime/p.h",
                        "// c2sl-atomic: faa seq_cst — linearization point\n"
                        "total_.fetch_add(1, std::memory_order_seq_cst);\n")
        findings = self._findings("parity")
        self.assertEqual(len(findings), 1)
        self.assertIn("no adjacent C2SL_TEL_PRIM_", findings[0].message)

    def test_orphan_macro_fails(self):
        self.repo.write("src/runtime/q.h",
                        "void f() {\n"
                        "  C2SL_TEL_PRIM_TAS();\n"
                        "  plain_counter += 1;\n"
                        "}\n")
        findings = self._findings("parity")
        self.assertEqual(len(findings), 1)
        self.assertIn("no matching 'tas' RMW site", findings[0].message)

    def test_macro_kind_must_match_annotated_kind(self):
        self.repo.write("src/runtime/r.h",
                        "C2SL_TEL_PRIM_FAA();\n"
                        "// c2sl-atomic: swap seq_cst — deposit\n"
                        "int64_t prev = cell_.exchange(v, "
                        "std::memory_order_seq_cst);\n")
        findings = self._findings("parity")
        # The FAA macro cannot serve a swap site: both directions fire.
        self.assertEqual(len(findings), 2)

    def test_noprofile_flag_excuses_diag_counter(self):
        self.repo.write("src/runtime/s.h",
                        "// c2sl-atomic: faa relaxed noprofile — diagnostics\n"
                        "parks_.fetch_add(1, std::memory_order_relaxed);\n")
        self.assertEqual(self._findings("parity"), [])

    def test_noprofile_with_adjacent_macro_fails(self):
        self.repo.write("src/runtime/t.h",
                        "C2SL_TEL_PRIM_FAA();\n"
                        "// c2sl-atomic: faa seq_cst noprofile — contradictory\n"
                        "total_.fetch_add(1, std::memory_order_seq_cst);\n")
        findings = self._findings("parity")
        self.assertEqual(len(findings), 1)
        self.assertIn("drop the flag or the hook", findings[0].message)

    def test_profiled_rmw_passes_and_macro_define_is_exempt(self):
        self.repo.write("src/runtime/u.h",
                        "C2SL_TEL_PRIM_FAA();\n"
                        "// c2sl-atomic: faa seq_cst — linearization point\n"
                        "total_.fetch_add(1, std::memory_order_seq_cst);\n")
        self.repo.write("src/runtime/defs.h",
                        "#define MY_HOOKED_FAA(x) \\\n"
                        "  C2SL_TEL_PRIM_FAA()\n")
        self.assertEqual(self._findings("parity"), [])

    def test_telemetry_dir_is_outside_parity_scope(self):
        self.repo.write("src/telemetry/tel.h",
                        "// c2sl-atomic: faa seq_cst — digest add half\n"
                        "ops_total_.fetch_add(1, std::memory_order_seq_cst);\n")
        self.assertEqual(self._findings("parity"), [])


class ScannerDetailTest(unittest.TestCase):
    def test_enclosing_symbol_and_order_extraction(self):
        repo = TempRepo()
        try:
            path = repo.write(
                "src/runtime/sym.h",
                "namespace c2sl::rt {\n"
                "class HandoffQueue {\n"
                " public:\n"
                "  size_t enqueue() {\n"
                "    return tail_.fetch_add(1, std::memory_order_seq_cst);\n"
                "  }\n"
                "  int64_t peek() const {\n"
                "    return head_.load(std::memory_order::acquire);\n"
                "  }\n"
                "};\n"
                "}\n")
            sites, _, _, _, _ = scan_file(path, repo.root)
            self.assertEqual(
                [(s.symbol, s.op, s.order) for s in sites],
                [("c2sl::rt::HandoffQueue::enqueue", "fetch_add", "seq_cst"),
                 ("c2sl::rt::HandoffQueue::peek", "load", "acquire")])
        finally:
            repo.cleanup()

    def test_order_extraction_reads_only_literals_in_order_position(self):
        repo = TempRepo()
        try:
            path = repo.write(
                "src/runtime/ord.h",
                "a.load(o);\n"
                "b.store(f(std::memory_order_relaxed));\n"
                "c.exchange(1, std::memory_order_acq_rel);\n"
                "d.compare_exchange_weak(e, 1, std::memory_order_release,\n"
                "                        std::memory_order_relaxed);\n"
                "g.compare_exchange_weak(e, 1, std::memory_order_release, o);\n")
            sites, _, _, _, _ = scan_file(path, repo.root)
            self.assertEqual([(s.op, s.order) for s in sites],
                             [("load", "non-literal"), ("store", "seq_cst"),
                              ("exchange", "acq_rel"),
                              ("compare_exchange", "release"),
                              ("compare_exchange", "non-literal")])
        finally:
            repo.cleanup()

    def test_notify_has_na_order_and_wait_defaults_seq_cst(self):
        repo = TempRepo()
        try:
            path = repo.write(
                "src/runtime/w.h",
                "// c2sl-atomic: wait-notify seq_cst — park\n"
                "c.wait(kCellClaimed);\n"
                "// c2sl-atomic: wait-notify n/a — wake\n"
                "c.notify_one();\n")
            sites, _, _, _, _ = scan_file(path, repo.root)
            self.assertEqual([(s.op, s.order) for s in sites],
                             [("wait", "seq_cst"), ("notify_one", "n/a")])
        finally:
            repo.cleanup()


class RealTreeTest(unittest.TestCase):
    """The audit on the actual repository must be green (the CI gate)."""

    REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

    def test_head_is_clean(self):
        inv = os.path.join(self.REPO, "tools", "atomics_inventory.json")
        findings, payload = rules.run_all(self.REPO, inv, write=False)
        self.assertEqual([str(f) for f in findings], [])
        self.assertGreater(payload["site_count"], 50)

    def test_inventory_has_no_unannotated_enforced_sites(self):
        with open(os.path.join(self.REPO, "tools",
                               "atomics_inventory.json"),
                  encoding="utf-8") as f:
            inv = json.load(f)
        self.assertEqual(inv["schema"], rules.INVENTORY_SCHEMA)
        for site in inv["sites"]:
            if any(site["file"].startswith(d + "/")
                   for d in rules.ANNOTATED_DIRS):
                self.assertIn("kind", site,
                              f"unannotated enforced site: {site}")

    def test_no_cas_identifiers_anywhere_outside_allowlist(self):
        scans_findings = rules.check_no_cas(
            __import__("c2sl_lint.scanner", fromlist=["scan_tree"])
            .scan_tree(self.REPO, rules.CAS_SCAN_DIRS))
        self.assertEqual([str(f) for f in scans_findings], [])


if __name__ == "__main__":
    unittest.main(verbosity=2)
