import os

# One BLAS thread, set before anything imports numpy: the suite's matrices
# are small, and extra OpenBLAS threads only burn CPU beside it.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import sys  # noqa: E402


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Echo the acceptance scorecard after the run.

    The per-criterion lines are printed as the tests execute, but default
    fd-level capture swallows them for passing tests; this repeats them
    where they are always visible.
    """
    mod = sys.modules.get("test_acceptance") or sys.modules.get("tests.test_acceptance")
    lines = getattr(mod, "SCORECARD", None) if mod else None
    if not lines:
        return
    terminalreporter.ensure_newline()
    terminalreporter.section("acceptance scorecard", sep="-")
    for line in lines:
        terminalreporter.write_line(line)
