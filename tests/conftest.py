import numpy as np
import pytest
from hypothesis import settings

from reldet import checks

settings.register_profile("suite", max_examples=60, deadline=None, derandomize=True)
settings.load_profile("suite")

# acceptance tests append "A# PASS/FAIL ..." lines here; printed in the summary
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def assert_grad_close(analytic, fd, rtol, label=""):
    """|a - f| <= 1e-7 + rtol*max(|a|, |f|) per entry (reldet.checks.grad_excess)."""
    excess = checks.grad_excess(analytic, fd, rtol)
    assert excess <= 0, f"{label}: gradient mismatch, worst excess {excess:.3e}"


def gradcheck(op, x_data, rng, rtol=1e-4, label=""):
    """d(sum(op(x) * r))/dx for a random probe r, from backward seeded with r,
    against central differences (reldet.checks.fd_excess)."""
    excess = checks.fd_excess(op, x_data, rng, rtol)
    assert excess <= 0, f"{label}: gradient mismatch, worst excess {excess:.3e}"


def op_names(tape) -> list[str]:
    """The op name that each tape record carries, in recording order."""
    return [op for op, _, _, _ in tape.records]


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
