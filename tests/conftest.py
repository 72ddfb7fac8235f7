import sys

import pytest


def pytest_terminal_summary(terminalreporter):
    """Echo the one-line acceptance results after the run."""
    for name, module in sys.modules.items():
        if name.rsplit(".", 1)[-1] == "test_acceptance":
            lines = getattr(module, "LINES", None)
            if lines:
                terminalreporter.section("acceptance criteria")
                for line in lines:
                    terminalreporter.write_line(line)


def _clear_memo_tables():
    for name, module in list(sys.modules.items()):
        if name == "compoundbasis" or name.startswith("compoundbasis."):
            for obj in vars(module).values():
                if callable(getattr(obj, "cache_clear", None)):
                    obj.cache_clear()


@pytest.fixture
def cold_memo_tables():
    """Empty every functools.cache table of the loaded compoundbasis modules
    before and after the test, so memoized values neither leak in nor out."""
    _clear_memo_tables()
    yield
    _clear_memo_tables()


@pytest.fixture
def k_table() -> dict[int, int]:
    """The stored reference exponents k_n for |det A_n| = 2^{k_n}."""
    from compoundbasis.golden import golden_data

    return {int(k): v for k, v in golden_data()["k_table"].items()}
