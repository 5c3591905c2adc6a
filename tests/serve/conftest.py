"""Fixtures for the serving suite."""

from __future__ import annotations

import pytest

from repro.serve import ServeConfig

from .harness import SMALL, LiveServer, ServeProcess  # noqa: F401


@pytest.fixture
def serve_factory():
    """Start in-process servers; everything started is drained at
    teardown even when the test failed mid-conversation."""
    servers: list[LiveServer] = []

    def factory(**overrides) -> LiveServer:
        settings = dict(SMALL)
        settings.update(overrides)
        live = LiveServer(ServeConfig(**settings))
        servers.append(live)
        return live

    yield factory
    for live in servers:
        if live.thread.is_alive():
            live.stop("teardown")


@pytest.fixture
def serve_proc(tmp_path):
    started: list[ServeProcess] = []

    def factory(**kwargs) -> ServeProcess:
        proc = ServeProcess(tmp_path, **kwargs)
        started.append(proc)
        return proc

    yield factory
    for proc in started:
        proc.kill()
