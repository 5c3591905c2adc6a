"""The system under test as a subprocess, and the audits that prove a
run: ``repro serve`` booted per workload, SIGTERMed, then checked
against the offline replay oracle and (durable runs) crash recovery.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path
from time import perf_counter

from workloads import KEYWORDS, SLOTS, Workload

ROOT = Path(__file__).resolve().parents[2]
"""The checkout: ``src/`` and ``tools/`` are resolved from here, and
everything a run writes stays under ``ROOT/.bench_work``."""

CPUS = sorted(os.sched_getaffinity(0))
"""The generator pins itself to the last CPU (:func:`pin_generator`)
and an unsharded server to the first.  The server's asyncio and apply
threads take turns on the GIL, so a second core buys it nothing, and
letting the scheduler migrate them made peak throughput bimodal run
to run (950 vs 1400 events/s in the probe, README "Host hygiene").
A sharded server keeps every CPU: its workers are real parallelism."""

CHECKPOINT_EVERY = 500
BOOT_TIMEOUT = 120.0
EXIT_TIMEOUT = 120.0


def pin_generator() -> None:
    if len(CPUS) > 1:
        os.sched_setaffinity(0, {CPUS[-1]})


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def _service_args(workload: Workload, seed: int) -> list:
    """Flags ``repro serve`` and ``repro stream --replay`` share."""
    args = ["--advertisers", str(workload.advertisers),
            "--slots", str(SLOTS), "--keywords", str(KEYWORDS),
            "--method", workload.method, "--seed", str(seed)]
    if workload.workers:
        args += ["--workers", str(workload.workers)]
    if workload.batch_window:
        args += ["--batch-window", str(workload.batch_window)]
    return args


class Server:
    """One ``repro serve`` process and the files it leaves behind,
    all named ``<workdir>/<label>.*``."""

    def __init__(self, workload: Workload, seed: int, workdir: Path,
                 label: str, *, sidecars: bool = False) -> None:
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.label = label
        cmd = [sys.executable, "-m", "repro", "serve",
               "--port", "0", "--port-file", str(self.path("port")),
               *_service_args(workload, seed),
               "--record-events", str(self.path("events.jsonl")),
               "--trace", str(self.path("live.jsonl"))]
        if workload.durable:
            cmd += ["--journal", str(self.path("journal")),
                    "--checkpoint-every", str(CHECKPOINT_EVERY),
                    "--checkpoint-dir", str(self.path("ckpt"))]
        if sidecars:
            cmd += ["--metrics-out", str(self.path("metrics.jsonl")),
                    "--trace-spans", str(self.path("spans.jsonl"))]
        self._log = self.path("log").open("w")
        self.spawned = perf_counter()
        self.proc = subprocess.Popen(cmd, cwd=ROOT, env=_env(),
                                     stdout=self._log,
                                     stderr=subprocess.STDOUT)
        if not workload.workers and len(CPUS) > 1:
            # Set while the child is still one thread; its threads
            # inherit the mask.
            os.sched_setaffinity(self.proc.pid, {CPUS[0]})

    def path(self, suffix: str) -> Path:
        return self.workdir / f"{self.label}.{suffix}"

    def wait_port(self) -> int:
        deadline = time.monotonic() + BOOT_TIMEOUT
        port_file = self.path("port")
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(
                    f"serve died on boot: {self.path('log').read_text()}")
            try:
                text = port_file.read_text().strip()
            except FileNotFoundError:
                text = ""
            if text:
                return int(text)
            time.sleep(0.005)
        self.kill()
        raise RuntimeError("serve published no port")

    def rss_mb(self) -> float:
        """Peak resident set (``VmHWM``) of the server process."""
        status = Path(f"/proc/{self.proc.pid}/status").read_text()
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self) -> int:
        """SIGTERM, wait for the drain, return the exit code."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            code = self.proc.wait(EXIT_TIMEOUT)
        except subprocess.TimeoutExpired:
            self.kill()
            code = -9
        self._log.close()
        return code

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()


def audit_replay(server: Server) -> bool:
    """Replay the recorded event log offline and diff the two auction
    traces: True when the live run replays bit-identically."""
    offline = server.path("offline.jsonl")
    replay = subprocess.run(
        [sys.executable, "-m", "repro", "stream",
         *_service_args(server.workload, server.seed),
         "--replay", str(server.path("events.jsonl")),
         "--trace", str(offline)],
        cwd=ROOT, env=_env(), capture_output=True, text=True,
        timeout=170)
    if replay.returncode != 0:
        print(replay.stderr, file=sys.stderr)
        return False
    diff = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "trace_diff.py"),
         str(server.path("live.jsonl")), str(offline)],
        cwd=ROOT, env=_env(), capture_output=True, text=True,
        timeout=170)
    if diff.returncode != 0:
        print(diff.stdout, file=sys.stderr)
    return diff.returncode == 0


_LIVE_STATE = ("events_processed", "auction_id", "rng_state",
               "registry", "accounts")


def audit_recovery(server: Server) -> tuple:
    """``recover()`` must rebuild the live final state.

    The drain leaves a final checkpoint at the exact watermark — the
    live balances.  It is set aside, so recovery restores the previous
    periodic checkpoint and replays the journal suffix (at most one
    checkpoint interval: what an operator waits after a crash), and
    the recovered ledger, accounts, RNG and counters must equal the
    set-aside file's.  Returns ``(equal, recover seconds)``.
    """
    from repro.stream.recovery import recover

    directory = server.path("ckpt")
    final = sorted(directory.glob("checkpoint-*.json"))[-1]
    aside = final.rename(server.path("final-checkpoint.json"))
    start = perf_counter()
    result = recover(server.path("journal"), checkpoint_dir=directory)
    seconds = perf_counter() - start
    try:
        recovered = json.loads(result.service.snapshot().to_json())
    finally:
        result.service.close()
    live = json.loads(aside.read_text(encoding="utf-8"))
    equal = all(recovered[key] == live[key] for key in _LIVE_STATE)
    return equal, seconds
