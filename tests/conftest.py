def pytest_configure(config):
    """Make every warning an error in these tests only.

    A tier-1 run raises no warning, so one is a regression: a grid window
    that misses its integrand, a leaked file handle. Tests that expect a
    warning catch it themselves; the harness tests (pytest bench) keep the
    default filters.
    """
    config.addinivalue_line("filterwarnings", "error")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Echo the acceptance checklist after the run, outside output capture."""
    try:
        import test_acceptance
    except ImportError:
        return
    lines = getattr(test_acceptance, "REPORTED", [])
    if lines:
        terminalreporter.section("acceptance checklist")
        for line in lines:
            terminalreporter.write_line(line)
