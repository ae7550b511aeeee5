"""A case's cost does not depend on which cases ran before it.

Each case's cost is the number of bytecode instructions that its check
executes in the library's own frames (sys.settrace with
f_trace_opcodes).  The values a case needs are computed, untraced and
shared as a run shares them, before its check is counted.  So a memo
kept inside a shared value, which makes the first case that reads it
pay for the rest, shows as a case whose count differs when the cases run
in sweep order, in reverse, or each alone with fresh shared values.
sympy's frames are not counted: its gcd shuffles at random and keeps
caches of its own.
"""

import sys
from pathlib import Path

import pytest

import gsp4verify
from gsp4verify import besselzeta, cli

LIBRARY = str(Path(gsp4verify.__file__).parent)


def instructions(check, *values):
    """The bytecode instructions that check(*values) executes in frames
    of the library's own code."""
    count = 0

    def opcode(frame, event, arg):
        nonlocal count
        if event == "opcode":
            count += 1
        return opcode

    def call(frame, event, arg):
        if frame.f_code.co_filename.startswith(LIBRARY):
            frame.f_trace_lines, frame.f_trace_opcodes = False, True
            return opcode
    sys.settrace(call)
    try:
        check(*values)
    finally:
        sys.settrace(None)
    return count


def case_costs(config, order):
    """{(suite, case_id): instructions} with the cases of config run in
    sweep order, in reverse, or each alone."""
    cases = [(suite, case_id, needs, check) for suite in config.suites
             for case_id, _, needs, check in cli._BUILDERS[suite](config)]
    if order == "reverse":
        cases.reverse()
    values, costs = {}, {}

    def value(key):
        if key not in values:
            values[key] = cli._SHARED[key[0]](value, *key[1:])
        return values[key]
    for suite, case_id, needs, check in cases:
        if order == "alone":
            values.clear()
        costs[suite, case_id] = instructions(check, *map(value, needs))
    return costs


def order_dependent(config):
    """The cases whose count is not the same in the three orders."""
    sweep, reverse, alone = (case_costs(config, order)
                             for order in ("sweep", "reverse", "alone"))
    return sorted(case for case in sweep
                  if not sweep[case] == reverse[case] == alone[case])


CONFIGS = {
    "tame": dict(suites=("tame-norm", "frobrecip"), k_max=1, t_max=2),
    "hecke-bessel": dict(suites=("hecke", "bessel")),
    "gl2": dict(suites=("gl2",), primes=(2,)),
    "branching": dict(suites=("branching",), a_max=1, b_max=2),
    "coset": dict(suites=("wild-norm", "local-data", "parahoric"),
                  primes=(2,), m_max=1, n_max=1, t_max=2),
}


@pytest.mark.parametrize("name", CONFIGS)
def test_case_cost_does_not_depend_on_order(name):
    config = cli.SuiteConfig(**CONFIGS[name])
    config.validate()
    assert order_dependent(config) == []


class Memo:
    """A shared value that keeps what its first reader computed."""

    def __init__(self):
        self.kept = None

    def __call__(self):
        if self.kept is None:
            self.kept = besselzeta.depth_factor(1, (1, 1), (2, 3))
        return self.kept


def test_a_memo_in_a_shared_value_is_order_dependent(monkeypatch):
    # negative control: two cases read one memoising value, so in each
    # order but "alone" only the first of them computes
    def builder(config):
        for i in range(2):
            yield ("memo-%d" % i, {}, (("memo",),),
                   lambda memo: (memo() is not None, None, None))
    monkeypatch.setitem(cli._BUILDERS, "synthetic", builder)
    monkeypatch.setitem(cli._SHARED, "memo", lambda value: Memo())
    config = cli.SuiteConfig(suites=("synthetic",))
    assert order_dependent(config) == [("synthetic", "memo-0"),
                                       ("synthetic", "memo-1")]
