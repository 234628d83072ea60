from hypothesis import settings

# `--hypothesis-profile=ci` gives every property test a much larger budget
settings.register_profile("ci", max_examples=2000, deadline=None)


def pytest_configure(config):
    """Make every warning an error in these tests only.

    A tier-1 run raises no warning, so one is a regression: a grid window
    that misses its integrand, a leaked file handle. Tests that expect a
    warning catch it themselves; the harness tests (pytest bench) keep the
    default filters.

    The one exception: hypothesis's report of a falsifying example touches
    mypy_extensions.TypedDict, whose DeprecationWarning would otherwise end
    the run in an INTERNALERROR before the example is printed.
    """
    config.addinivalue_line("filterwarnings", "error")
    config.addinivalue_line(
        "filterwarnings", "ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning"
    )


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
