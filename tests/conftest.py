import re

import pytest
from golden_host import fingerprint, mismatch_section, pinned

from tramfl import generate_synthetic


@pytest.fixture(scope="session")
def mnist_shaped():
    """10 classes x 6000 samples, the shape of a classic digit benchmark."""
    return generate_synthetic(10, 2, 6000, 1.0, seed=3)


@pytest.fixture(scope="session")
def review_shaped():
    """2 classes x 12500 samples, the shape of a binary review benchmark."""
    return generate_synthetic(2, 1, 12500, 1.0, seed=4)


def pytest_terminal_summary(terminalreporter):
    """Print one pass/fail line per acceptance criterion."""
    outcomes = {}
    for key in ("passed", "failed"):
        for report in terminalreporter.stats.get(key, []):
            if report.when != "call":
                continue
            name = report.nodeid.split("::")[-1]
            match = re.match(r"test_criterion_(\d+)", name)
            if match:
                outcomes[int(match.group(1))] = (name, report.outcome)
    if not outcomes:
        return
    terminalreporter.section("acceptance criteria")
    for num in sorted(outcomes):
        name, outcome = outcomes[num]
        terminalreporter.write_line(f"criterion {num}: {outcome.upper():4s}  ({name})")


def pytest_report_header():
    """The host fingerprint the goldens' bits depend on."""
    return "golden host: " + ", ".join(f"{k}={v}" for k, v in fingerprint().items())


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item):
    """A failing golden test on a host unlike the pinned one says so."""
    report = (yield).get_result()
    if report.failed and item.path.name == "test_goldens.py":
        section = mismatch_section(pinned(), fingerprint())
        if section:
            report.sections.append(("golden host", section))


def pytest_collection_modifyitems(items):
    """Criterion 5 takes most of the suite's time; ``-m "not slow"`` leaves it out."""
    for item in items:
        if item.originalname == "test_criterion_5_directional_transmissions_to_target":
            item.add_marker(pytest.mark.slow)
