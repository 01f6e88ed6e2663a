# Imported before anything imports numpy, so that the package's one-thread
# BLAS pin takes effect in the test process.
import micas  # noqa: F401

import sys

import pytest


@pytest.fixture
def spy_values_pass(monkeypatch):
    """Watch `autodiff.row_sparse_maxpool`'s values pass.

    spy_values_pass(prefix, record) returns a list that gets record(x) for each
    block that the tape-free values kernel `autodiff._column_max` runs under
    `prefix`, which is how the values pass runs every block, recording or not.
    """
    from micas import autodiff

    def watch(prefix, record):
        calls, real = [], autodiff._column_max

        def spy(store, name, blocks, *args, **kwargs):
            if name == prefix:
                calls.extend(record(x) for x in blocks)
            return real(store, name, blocks, *args, **kwargs)

        monkeypatch.setattr(autodiff, "_column_max", spy)
        return calls

    return watch


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
