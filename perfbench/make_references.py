#!/usr/bin/env python3
"""Write ``references.json`` from one pass of every workload at seed 0.

    python3 perfbench/make_references.py

Only for a deliberate change of the expected outputs: a commit that
regenerates the references must say why the computed results changed.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402


def main() -> int:
    refs = {}
    for name in workloads.WORKLOADS:
        wl = workloads.make(name, references={})
        items = wl.build(0)
        outs = wl.run_pass(items, workloads.ItemClock())
        try:
            refs[name] = {wl.key(i): wl.summarize(i, o) for i, o in zip(items, outs)}
            bad = [e for e in (wl.invariant_error(i, o) for i, o in zip(items, outs)) if e]
        finally:
            wl.cleanup(outs)
        if bad:
            print(f"{name}: {bad}", file=sys.stderr)
            return 1
        print(f"{name}: {len(refs[name])} references")
    workloads.REFERENCES.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
