#!/usr/bin/env python3
"""atomics_audit.py — the no-CAS conformance linter (CI gate).

Scans the C++ tree with a real tokenizer (comment/string/raw-string safe; see
tools/c2sl_lint/) and enforces four rules as hard failures:

  1. no-CAS        compare_exchange_* / atomic_compare_exchange* / inline asm,
                   and atomic instructions in *.S / *.s sources, only under
                   src/baselines/ and src/primitives/swap_cas.h;
  2. annotations   every atomic site in src/runtime|service|telemetry carries
                   a `// c2sl-atomic: <kind> <order> — <rationale>` that
                   matches the code's operation and memory order;
  3. inventory     tools/atomics_inventory.json equals a fresh scan
                   (regenerate with --write, review the diff);
  4. parity        every runtime/service RMW has an adjacent
                   C2SL_TEL_PRIM_{FAA,TAS,SWAP}() hook (or `noprofile`),
                   and every hook has its RMW.

Usage:
  python3 tools/atomics_audit.py --check           # CI mode (default)
  python3 tools/atomics_audit.py --write           # regenerate the inventory
  python3 tools/atomics_audit.py --check --root R  # lint a different tree

Exit status: 0 clean, 1 findings, 2 usage error.
"""

import argparse
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from c2sl_lint import run_all  # noqa: E402


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="no-CAS conformance linter and atomics inventory")
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--check", action="store_true",
                      help="verify all four rules incl. inventory freshness "
                           "(default)")
    mode.add_argument("--write", action="store_true",
                      help="regenerate the checked-in inventory, then verify "
                           "the other rules")
    parser.add_argument("--root", default=None,
                        help="repo root to scan (default: this script's "
                             "parent directory)")
    parser.add_argument("--inventory", default=None,
                        help="inventory path (default: "
                             "<root>/tools/atomics_inventory.json)")
    parser.add_argument("-q", "--quiet", action="store_true",
                        help="suppress the summary line on success")
    args = parser.parse_args(argv)

    root = os.path.abspath(args.root) if args.root else \
        os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    inventory = args.inventory or os.path.join(root, "tools",
                                               "atomics_inventory.json")

    findings, payload = run_all(root, inventory, write=args.write)

    for f in findings:
        print(f, file=sys.stderr)

    if args.write:
        print(f"wrote {os.path.relpath(inventory, root)}: "
              f"{payload['site_count']} sites "
              f"({', '.join(f'{k}={v}' for k, v in payload['sites_by_kind'].items())})")
    elif not args.quiet:
        status = "FAIL" if findings else "OK"
        print(f"atomics audit {status}: {payload['site_count']} sites, "
              f"{len(findings)} finding(s)")

    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
