"""The README's python examples run as written, in order, in one namespace."""

import re
from pathlib import Path

import pytest

import survconcord as sc

README = Path(__file__).resolve().parents[1] / "README.md"


def _python_blocks() -> list[str]:
    return re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"),
                      flags=re.MULTILINE | re.DOTALL)


def test_readme_examples_run_and_give_the_commented_values():
    blocks = _python_blocks()
    assert len(blocks) >= 2
    namespace: dict = {}
    for k, block in enumerate(blocks):
        exec(compile(block, f"README.md python block {k + 1}", "exec"), namespace)
    # The tour's commented values: 0.8 ignoring ties, 2/3 with tied times in.
    assert namespace["estimate"] == pytest.approx(0.8, abs=1e-15)
    with_ties = sc.concordance(namespace["ds"], namespace["risks"], namespace["with_ties"])
    assert with_ties[0] == pytest.approx(2 / 3, abs=1e-15)
    assert len(namespace["report"].results) == len(sc.get_profiles())
    assert namespace["hmisc"].estimate == pytest.approx(2 / 3, abs=1e-15)
