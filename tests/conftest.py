import os
import threading
import time
from pathlib import Path

import pytest

FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture(autouse=True)
def tick_cache_home(tmp_path_factory, monkeypatch):
    """A fresh XDG_CACHE_HOME for every test, so no test reads or fills the
    user's parsed-file cache; CLI subprocesses inherit it."""
    home = tmp_path_factory.mktemp("xdg-cache")
    monkeypatch.setenv("XDG_CACHE_HOME", str(home))
    return home


@pytest.fixture
def ticks_3day_path():
    return FIXTURES / "ticks_3day.csv"


@pytest.fixture
def read_fifo(tmp_path):
    """``read_fifo(text, read)`` is ``read(path)`` on a FIFO that a writer
    thread fills with ``text`` once, as ``--input <(zcat ...)`` does.  A read
    that does not end within 10 s fails the test, after both threads are
    unblocked: opening the other end of the FIFO ends a wait in ``open``."""
    if not hasattr(os, "mkfifo"):
        pytest.skip("no os.mkfifo on this platform")

    def read_fifo(text, read, timeout=10.0):
        path = tmp_path / "fifo"
        os.mkfifo(path)
        outcome = {}

        def write():
            try:
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(text)
            except BrokenPipeError:  # the reader was unblocked before it read all
                pass

        def call():
            try:
                outcome["value"] = read(path)
            except Exception as exc:  # noqa: BLE001 - re-raised in the test's thread
                outcome["error"] = exc

        threads = [threading.Thread(target=f, daemon=True) for f in (write, call)]
        for thread in threads:
            thread.start()
        threads[1].join(timeout)
        hung = threads[1].is_alive()
        deadline = time.monotonic() + timeout
        while any(t.is_alive() for t in threads) and time.monotonic() < deadline:
            for flags in (os.O_WRONLY, os.O_RDONLY):
                try:
                    os.close(os.open(path, flags | os.O_NONBLOCK))
                except OSError:  # no one waits at the other end
                    pass
            for thread in threads:
                thread.join(0.05)
        assert not hung, f"reading {path} blocked: the FIFO was opened more than once"
        assert not any(t.is_alive() for t in threads)
        if "error" in outcome:
            raise outcome["error"]
        return outcome["value"]

    return read_fifo
