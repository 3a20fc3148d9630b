import numpy as np

ACCEPTANCE_VERDICTS: list[str] = []


def levels(q: int) -> np.ndarray:
    """The Q+1 values of a percentile-mapped entry, fl(fl(k / Q) - 1/2) for k = 0..Q:
    the roundings of normalize.map_observation and of dqn.ReplayBuffer's decode."""
    return np.arange(q + 1) / q - 0.5


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_VERDICTS:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_VERDICTS:
            terminalreporter.write_line(line)
