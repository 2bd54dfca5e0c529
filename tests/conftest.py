import tempfile
from pathlib import Path

from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

# every run draws the same examples, and writes no example database; what
# hypothesis still caches goes to the temporary directory, not the checkout
settings.register_profile("tier1", derandomize=True, database=None)
settings.load_profile("tier1")
set_hypothesis_home_dir(Path(tempfile.gettempdir()) / "synsim-hypothesis")

ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter):
    # surface the acceptance verdicts even when stdout capture is on
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
