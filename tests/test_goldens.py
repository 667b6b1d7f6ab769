import re
from pathlib import Path

from goldens import DATA, GOLDENS

# checked by CI alone, which measures the peak RSS of the child that writes it
CI_GOLDEN = "enum-9-16-p2.sha256"
WORKFLOW = Path(__file__).parents[1] / ".github" / "workflows" / "tests.yml"


def test_every_golden_file_has_one_owner():
    owned = {file for file, _ in GOLDENS.values()}
    assert CI_GOLDEN not in owned
    assert {path.name for path in DATA.iterdir()} == owned | {CI_GOLDEN}
    assert set(re.findall(r"tests/data/([\w.-]+)", WORKFLOW.read_text())) == {CI_GOLDEN}
