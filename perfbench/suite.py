#!/usr/bin/env python3
"""Run every workload once, one after another, each in a fresh process.

    python3 perfbench/suite.py --seed 0 --seconds 25 --trace 0

Prints every metric of every workload by name and unit, with the
operations attempted and failed, and writes the results to
``.perfbench_out/suite-seed<seed>-trace<trace>.json``.  Exits non-zero
when any run failed an operation or did not finish.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from run import OUT_DIR, ROOT, WORKLOAD_NAMES

RUN = Path(__file__).resolve().parent / "run.py"
RUN_TIMEOUT_S = 900


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    results = {}
    ok = True
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(RUN), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
        lines = proc.stdout.strip().splitlines()
        info = next((json.loads(line[len("# run "):]) for line in lines
                     if line.startswith("# run ")), {})
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            result = None
        if proc.returncode != 0 or result is None:
            ok = False
            sys.stderr.write(proc.stderr)
        results[name] = {"run": info, "exit_code": proc.returncode, "result": result}
        print(f"{name}: exit {proc.returncode}, passes {info.get('passes')}, "
              f"nproc {info.get('nproc')}, python {info.get('python')}")
        if result is None:
            continue
        print(f"  {'attempted':45s} {result['attempted']:>16d}")
        print(f"  {'failed':45s} {result['failed']:>16d}")
        for metric, entry in result["metrics"].items():
            print(f"  {metric:45s} {entry['value']:>16.6g} {entry['unit']}")
    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / f"suite-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(results, indent=1, sort_keys=True) + "\n")
    print(f"wrote {out.relative_to(ROOT)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
