"""Planted R3 violations: direct LinkStateArrays column writes.

Linted (never imported) by ``tests/lint/test_rules.py``; keep line
numbers stable when editing.
"""


def over_reserve(state, index: int, amount: float) -> None:
    state.reserved[index] += amount  # line 9: R3 (column write)


def resize_capacity(state, index: int, value: float) -> None:
    state.capacity[index] = value  # line 13: R3 (column write)


def grow(state, value: float) -> None:
    state.capacity.append(value)  # line 17: R3 (column mutator)


def read_only(state, index: int) -> float:
    return state.capacity[index] - state.reserved[index]  # line 21: R6 only


def bump(state) -> None:
    state.writes += 1  # line 25: R3 (write counter)
