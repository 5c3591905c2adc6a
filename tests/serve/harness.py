"""Shared plumbing for the serving suite.

:class:`LiveServer` runs an :class:`~repro.serve.server
.AuctionWireServer` on a background thread of the test process — the
in-process twin of the ``repro serve`` subprocess — so tests can poke
the server object directly (``server.applied``, counters) while real
TCP clients talk to it; :class:`ServeProcess` is the real subprocess,
for signals and armed crash sites.  :func:`churn_events` builds the
small deterministic churn scripts every test here replays.
"""

from __future__ import annotations

import os
import subprocess
import sys
import threading
import time
from pathlib import Path

from repro.serve import (
    AuctionWireServer,
    ServeConfig,
    WireClient,
    protocol,
)
from repro.stream.crash import ENV_VAR
from repro.stream.snapshot import CHECKPOINT_PREFIX
from repro.workloads import ChurnStreamConfig, generate_stream
from repro.workloads.paper_workload import (
    PaperWorkload,
    PaperWorkloadConfig,
)


REPO = Path(__file__).resolve().parent.parent.parent
SRC = REPO / "src"

SMALL = dict(advertisers=24, slots=3, keywords=3, seed=5)
"""The suite's default tiny universe — big enough for churn, small
enough that every live test stays sub-second."""


class LiveServer:
    """One in-process server with guaranteed drain on ``stop()``."""

    def __init__(self, config: ServeConfig) -> None:
        self.server = AuctionWireServer(config)
        self.exit_code: int | None = None
        self.thread = threading.Thread(target=self._run, daemon=True)
        self.thread.start()
        if not self.server.started.wait(30):
            raise RuntimeError("server did not start within 30s")

    def _run(self) -> None:
        self.exit_code = self.server.run()

    @property
    def port(self) -> int:
        return self.server.port

    def client(self, **kwargs) -> WireClient:
        kwargs.setdefault("timeout", 30.0)
        return WireClient("127.0.0.1", self.port, **kwargs)

    def stop(self, reason: str = "test") -> int:
        self.server.shutdown(reason)
        self.thread.join(60)
        if self.thread.is_alive():
            raise RuntimeError("server failed to drain within 60s")
        return self.exit_code


def churn_events(config: PaperWorkloadConfig, *, events: int = 30,
                 seed: int = 17, genesis: int | None = None) -> list:
    """A small deterministic churn stream for ``config``."""
    workload = PaperWorkload(config)
    if genesis is None:
        genesis = max(config.num_advertisers // 2, 1)
    return list(generate_stream(workload, ChurnStreamConfig(
        num_events=events, churn_rate=0.25, genesis=genesis,
        min_active=config.num_slots + 1, seed=seed)))


def read_replies(stream, count: int) -> list[dict]:
    """The next ``count`` tagged replies (``ok`` / ``result`` /
    ``error``) from a pipelined connection's ``makefile("rb")``
    stream, skipping greetings."""
    replies = []
    while len(replies) < count:
        frame = protocol.read_frame_blocking(stream)
        assert frame is not None, "server closed before replying"
        if frame["type"] in ("ok", "result", "error"):
            replies.append(frame)
    return replies


class ServeProcess:
    """A real ``repro serve`` subprocess with durable artifacts."""

    def __init__(self, tmp_path: Path, *, crash: str | None = None,
                 checkpoint_every: int = 10,
                 extra_args: tuple[str, ...] = ()) -> None:
        self.port_file = tmp_path / "port"
        self.journal = tmp_path / "journal.jsonl"
        self.checkpoint_dir = tmp_path / "checkpoints"
        self.record = tmp_path / "events.jsonl"
        cmd = [
            sys.executable, "-m", "repro", "serve",
            "--host", "127.0.0.1", "--port", "0",
            "--port-file", str(self.port_file),
            "--advertisers", str(SMALL["advertisers"]),
            "--slots", str(SMALL["slots"]),
            "--keywords", str(SMALL["keywords"]),
            "--seed", str(SMALL["seed"]),
            "--journal", str(self.journal),
            "--checkpoint-every", str(checkpoint_every),
            "--checkpoint-dir", str(self.checkpoint_dir),
            "--record-events", str(self.record),
            *extra_args,
        ]
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC)
        if crash is not None:
            env[ENV_VAR] = crash
        self.proc = subprocess.Popen(
            cmd, cwd=REPO, env=env, text=True,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        self.port = self._await_port()

    def _await_port(self, timeout: float = 30.0) -> int:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(
                    "serve died before publishing its port: "
                    + self.proc.communicate()[1])
            try:
                text = self.port_file.read_text().strip()
            except FileNotFoundError:
                text = ""
            if text:
                return int(text)
            time.sleep(0.02)
        raise RuntimeError("no port file within 30s")

    def finish(self, timeout: float = 60.0) -> tuple[int, str, str]:
        out, err = self.proc.communicate(timeout=timeout)
        return self.proc.returncode, out, err

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.communicate(timeout=10)

    def checkpoints(self) -> list[Path]:
        return sorted(self.checkpoint_dir.glob(
            CHECKPOINT_PREFIX + "*.json"))
