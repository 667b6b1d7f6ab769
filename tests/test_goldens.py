import sys
from pathlib import Path

from goldens import DATA, GOLDENS, peak_rss_mb

WORKFLOW = Path(__file__).parents[1] / ".github" / "workflows" / "tests.yml"


def test_every_golden_file_has_one_owner():
    assert {path.name for path in DATA.iterdir()} == {file for file, _ in GOLDENS.values()}
    assert "tests/data/" not in WORKFLOW.read_text()


def test_peak_rss_is_the_childs_own():
    # a child spawned from this process would report at least the ballast:
    # on Linux its ru_maxrss starts at the parent's RSS at spawn
    ballast = b"\1" * (64 << 20)
    assert peak_rss_mb([sys.executable, "-c", "pass"], timeout=60) < 30
    del ballast
