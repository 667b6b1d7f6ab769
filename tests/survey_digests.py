"""Digests of the deterministic part of a survey's output, one per file.

    python tests/survey_digests.py OUT_DIR

prints a JSON object that maps each file name in OUT_DIR to a sha256:
for a record file and for ``run.json``, of the ``record`` object dumped
with sorted keys (``run.json`` without ``config.out_dir``); for
``summary.csv``, of its bytes.  ``tests/data/survey-g7-p3-seed0.json``
holds the digests of ``survey --max-genus 7 --p 3 --seed 0 --threads 1``,
and CI compares a fresh run with it.
"""

import hashlib
import json
import sys
from pathlib import Path


def digests(out_dir) -> dict:
    out = {}
    for path in sorted(Path(out_dir).iterdir()):
        if path.suffix == ".json":
            record = json.loads(path.read_text())["record"]
            if path.name == "run.json":
                del record["config"]["out_dir"]
            data = json.dumps(record, sort_keys=True).encode()
        else:
            data = path.read_bytes()
        out[path.name] = hashlib.sha256(data).hexdigest()
    return out


if __name__ == "__main__":
    print(json.dumps(digests(sys.argv[1]), indent=1, sort_keys=True))
