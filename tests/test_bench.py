"""``scripts/bench.py``: each entry with a committed record writes its
counts again, and a record needs at least one timed round."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
# the header fields of the machine that wrote a record, and every time
UNCOUNTED = ("repeats", "python", "machine", "cpus", "best_s")
# the entries with a committed record; frontier's record takes minutes
RECORDS = {"trace-walk": "BENCH_28.json", "qq-colons": "BENCH_35.json"}


@pytest.fixture(scope="module")
def bench():
    # the script reaches into trace's and ideals' private kernels and the oracles
    spec = importlib.util.spec_from_file_location("bench", ROOT / "scripts" / "bench.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _counts(value):
    if isinstance(value, dict):
        return {k: _counts(v) for k, v in value.items() if k not in UNCOUNTED}
    if isinstance(value, list):
        return [_counts(v) for v in value]
    return value


@pytest.mark.parametrize("name", RECORDS)
def test_bench_counts(bench, tmp_path, name):
    # every key, case, census, ideal count, modules tested and system size
    # of the committed record
    out = tmp_path / "out.json"
    bench.main([name, str(out), "--repeats", "1"])
    committed = json.loads((ROOT / RECORDS[name]).read_text())
    assert _counts(json.loads(out.read_text())) == _counts(committed)


def test_bench_refuses_no_repeats(bench, tmp_path):
    out = tmp_path / "out.json"
    with pytest.raises(SystemExit) as exit_:
        bench.main(["trace-walk", str(out), "--repeats", "0"])
    assert exit_.value.code == 2 and not out.exists()
