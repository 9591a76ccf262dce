"""The distribution metadata agrees with the package."""
import re
from pathlib import Path

import qsynth

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


def test_distribution_name_and_version_match_the_package():
    # a regex, not tomllib: Python 3.10 has no TOML reader
    text = PYPROJECT.read_text()
    project = re.search(r"^\[project\]\n(.*?)(?=^\[|\Z)", text, re.M | re.S)
    fields = dict(re.findall(r'^(name|version) = "([^"]*)"$', project.group(1),
                             re.M))
    assert fields == {"name": "qsynth", "version": qsynth.__version__}
