import pytest

from passtune.backend import compile_items
from passtune.backend.mini import MiniBackend
from passtune.ircore import normalize
from passtune.minigen import generate_corpus


@pytest.fixture
def private_cache(tmp_path, monkeypatch):
    """The user cache moved under ``tmp_path``: a stub opt's answers stay there."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    return tmp_path / "cache" / "passtune"


@pytest.fixture(scope="session")
def backend():
    return MiniBackend()


@pytest.fixture(scope="session")
def vocab(backend):
    return backend.vocabulary


@pytest.fixture(scope="session")
def corpus20():
    return generate_corpus(20, seed=101)


@pytest.fixture(scope="session")
def apply_flags(backend):
    """Compile raw IR text under the given flags on the mini backend."""

    def _run(text, *flags):
        return compile_items(backend, normalize(text), flags)

    return _run
