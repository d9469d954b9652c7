from collections import Counter

import pytest

acceptance_lines: list[str] = []


def record_acceptance(line: str) -> None:
    acceptance_lines.append(line)


def kron(a, b):
    """Dense Kronecker product a (x) b: entry (i*len(b) + k, j*len(b[0]) + l)
    is a[i][j]*b[k][l].  The reference that the engine's one-sided
    pair-space contractions (``intlinalg.mul_kron_identity`` and
    ``kron_identity_mul``) are checked against, with b or a an identity;
    a factor without rows gives the product without rows."""
    return [[x * y for x in arow for y in brow] for arow in a for brow in b]


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if acceptance_lines:
        terminalreporter.section("acceptance criteria")
        for line in acceptance_lines:
            terminalreporter.write_line(line)


@pytest.fixture
def count_calls(monkeypatch):
    """``count_calls(owner, *names)`` wraps each ``owner.name`` through
    monkeypatch and returns a new Counter of their calls, by name.

    ``owner`` may be a tuple of owners, each of which holds every name (a
    function and the modules that import it, say); their calls share one
    count per name.
    """
    def wrap(owner, *names):
        counts = Counter()
        for each in owner if isinstance(owner, tuple) else (owner,):
            for name in names:
                def call(*args, _fn=getattr(each, name), _name=name, **kwargs):
                    counts[_name] += 1
                    return _fn(*args, **kwargs)
                monkeypatch.setattr(each, name, call)
        return counts
    return wrap
