import pytest

from weakspan import fileio, hexgrid

_RESULTS: dict[str, tuple[str, bool]] = {}


@pytest.fixture
def cold_loads():
    """Forget what a process keeps between calls (the rules text loaded
    last and the last hex disk built), for a test that counts the parses,
    plan builds or index tables of a first load, as a fresh process makes
    them."""
    fileio._LAST = None
    hexgrid._dead_disk.cache_clear()


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "acceptance(num, title): marks a test as one numbered acceptance criterion")


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    mark = item.get_closest_marker("acceptance")
    if mark is None:
        return
    num, title = mark.args
    if report.when == "call":
        _RESULTS[num] = (title, report.passed)
    elif report.when == "setup" and report.failed:
        _RESULTS[num] = (title, False)


def pytest_terminal_summary(terminalreporter):
    if not _RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for num in sorted(_RESULTS, key=lambda s: (len(s), s)):
        title, passed = _RESULTS[num]
        verdict = "PASS" if passed else "FAIL"
        terminalreporter.write_line(f"criterion {num} ({title}): {verdict}")
