"""The demos' stdout, pinned byte for byte."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

DEMO_SHA256 = {
    "tour.py": "e5c24b2361aa360a1a01eff9380c371362b4c2f2312c613b713cc8de6c6a4de1",
    "pell_and_forms.py": "1c3c4e7fc85ba696f9a745eb4022a73d65ae0d82a87881820b3535c3384b6e84",
}


@pytest.mark.parametrize("demo", sorted(DEMO_SHA256))
def test_demo_stdout_is_pinned(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        capture_output=True,
        check=True,
        env=env,
        timeout=120,
    ).stdout
    assert hashlib.sha256(out).hexdigest() == DEMO_SHA256[demo]
