"""SciPy stays out of every served process.

SciPy is the optional ``lp`` extra: only method ``lp`` may load it, and
it does so when a service or engine is built for ``lp`` — so a process
without SciPy serves ``rh`` / ``rhtalu`` / ``hungarian``, and refuses
``lp`` at start-up instead of at its first auction.  Each check runs in
a fresh interpreter, since this suite's own process may hold SciPy.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
SRC = REPO / "src"

# Runs the CLI with SciPy unimportable: ``None`` in sys.modules makes
# every ``import scipy...`` raise ImportError.
WITHOUT_SCIPY = ("import sys; sys.modules['scipy'] = None; "
                 "from repro.cli import main; "
                 "sys.exit(main(sys.argv[1:]))")

STREAM = ["stream", "--advertisers", "40", "--events", "80",
          "--slots", "3", "--keywords", "3", "--churn-rate", "0.2"]


def _python(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return subprocess.run([sys.executable, *args], cwd=REPO, env=env,
                          capture_output=True, text=True, timeout=120)


def test_served_modules_do_not_import_scipy():
    result = _python("-c", "\n".join([
        "import sys",
        "import repro.cli, repro.serve.server, repro.runtime.worker, "
        "repro.stream.recovery",
        "print(sorted(m for m in sys.modules if m.split('.')[0] == "
        "'scipy'))",
    ]))
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


@pytest.mark.parametrize("flags", [
    ["--method", "rh"],
    ["--method", "rhtalu", "--workers", "2"],
    ["--method", "hungarian"],
], ids=["rh", "rhtalu-workers2", "hungarian"])
def test_stream_runs_without_scipy(flags):
    result = _python("-c", WITHOUT_SCIPY, *STREAM, *flags)
    assert result.returncode == 0, result.stderr
    assert "auctions:" in result.stdout


def test_lp_stream_refuses_before_any_event(tmp_path):
    trace = tmp_path / "trace.jsonl"
    result = _python("-c", WITHOUT_SCIPY, *STREAM, "--method", "lp",
                     "--trace", str(trace))
    assert result.returncode != 0
    assert "needs SciPy" in result.stderr
    assert "auctions:" not in result.stdout
    assert not trace.exists()


def test_lp_server_refuses_before_listening(tmp_path):
    port_file = tmp_path / "port"
    result = _python("-c", WITHOUT_SCIPY, "serve", "--host", "127.0.0.1",
                     "--port", "0", "--port-file", str(port_file),
                     "--advertisers", "40", "--slots", "3",
                     "--keywords", "3", "--method", "lp")
    assert result.returncode != 0
    assert "needs SciPy" in result.stderr
    assert not port_file.exists()
