import pytest

from vat_game.config import build_parameters


def params_from_preset(name):
    return build_parameters(name, None, None)


@pytest.fixture
def appendix_params():
    return params_from_preset("appendix")


@pytest.fixture
def section6_params():
    return params_from_preset("section6")


def pytest_terminal_summary(terminalreporter):
    try:
        from test_acceptance import VERDICTS
    except ImportError:
        return
    if VERDICTS:
        terminalreporter.section("acceptance criteria")
        for line in VERDICTS:
            terminalreporter.write_line(line)
