def pytest_configure(config):
    """Make the grid oracle's boundary warning an error in these tests only.

    Every tier-1 call of average_fidelity_grid2d should cover its integrand,
    so a warning there is a regression; the harness tests (pytest bench)
    keep the default filters.
    """
    config.addinivalue_line("filterwarnings", "error::cvteleport.BoundaryMassWarning")


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
