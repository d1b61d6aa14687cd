"""Shared pytest plumbing.

The acceptance tests register one (number, description, status) tuple per
criterion; this hook prints them after the run so the lines survive
output capture.
"""

import pytest

ACCEPTANCE_RESULTS = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for num, desc, status, detail in sorted(ACCEPTANCE_RESULTS):
        terminalreporter.write_line(f"criterion {num:2d}: {status}  {desc}{detail}")


def pytest_collection_modifyitems(config, items):
    # A file left open fails the test. The filters are marks rather than
    # ini settings so that they cover this directory only.
    for item in items:
        if item.path.is_relative_to(config.rootpath / "tests"):
            item.add_marker(pytest.mark.filterwarnings("error::ResourceWarning"))
            item.add_marker(
                pytest.mark.filterwarnings("error::pytest.PytestUnraisableExceptionWarning")
            )
