"""The README's two-minute tour runs as a doctest."""

import doctest
from pathlib import Path


def test_readme_tour_runs():
    readme = Path(__file__).resolve().parent.parent / "README.md"
    result = doctest.testfile(str(readme), module_relative=False)
    assert result.attempted == 7
    assert result.failed == 0
