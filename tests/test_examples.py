"""Every runnable example exits cleanly.

Each example asserts its own round trips, so a crash or a failed assert in
any of them fails its test here.  The examples run as scripts, in a
subprocess, against this checkout's ``src`` and without an on-disk module
cache; they write only to temporary directories.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.protocols import registry

ROOT = Path(__file__).resolve().parent.parent
EXAMPLES = sorted((ROOT / "examples").glob("*.py"))
#: Each example once with its defaults; native_codec_session.py (whose
#: default is modbus) also once per other registered protocol, since each
#: protocol's live sessions exchange different requests.
CASES = [pytest.param(path, [], id=path.stem) for path in EXAMPLES] + [
    pytest.param(ROOT / "examples" / "native_codec_session.py", [key],
                 id=f"native_codec_session-{key}")
    for key in registry.available() if key != "modbus"
]


def test_examples_are_found():
    assert len(EXAMPLES) >= 8


@pytest.mark.parametrize("script, args", CASES)
def test_example_runs(script: Path, args: list[str]):
    env = dict(os.environ)
    env.pop("REPRO_CODEGEN_CACHE", None)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = (src + os.pathsep + env["PYTHONPATH"]
                         if env.get("PYTHONPATH") else src)
    result = subprocess.run([sys.executable, str(script), *args], env=env, cwd=ROOT,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stdout[-2000:] + result.stderr[-2000:]
