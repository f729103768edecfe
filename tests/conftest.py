from pathlib import Path

import pytest

FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture(autouse=True)
def tick_cache_home(tmp_path_factory, monkeypatch):
    """A fresh XDG_CACHE_HOME for every test, so no test reads or fills the
    user's parsed-tick cache; CLI subprocesses inherit it."""
    home = tmp_path_factory.mktemp("xdg-cache")
    monkeypatch.setenv("XDG_CACHE_HOME", str(home))
    return home


@pytest.fixture
def ticks_3day_path():
    return FIXTURES / "ticks_3day.csv"
