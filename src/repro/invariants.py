"""Runtime invariant sanitizer for the simulation substrate.

The determinism and conservation guarantees the admission-control
results rest on (see CONTRIBUTING.md, "Determinism rules") are cheap
to *check* at runtime but expensive to debug after the fact.  This
module centralizes those checks behind a single module-level switch:

* non-negative reserved totals and available bandwidth on every link;
* agreement between each link's per-flow reservation ledger and its
  column in the shared :class:`~repro.network.link.LinkStateArrays`;
* reserve/release pairing — a flow holds the same bandwidth on every
  link it traverses, never a stale or negative entry;
* monotonically non-decreasing event time in the event loop.

Enable it with the environment variable ``REPRO_CHECK_INVARIANTS=1``
(read once at import, so it reaches worker processes spawned by the
parallel runner), with :func:`set_enabled`, or per-simulator with
``Simulator(check_invariants=True)``.  When disabled the hooks cost a
single module-attribute truth test, so the hot paths are unaffected.

The module imports only the standard library: it sits below every
other ``repro`` module and can be imported from any of them without
creating an import cycle.
"""

from __future__ import annotations

import math
import os
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.network.link import Link
    from repro.network.topology import Network
    from repro.signaling.softstate import LeaseTable

__all__ = [
    "ENV_VAR",
    "InvariantViolation",
    "check_drained",
    "check_link",
    "check_network",
    "check_soft_state",
    "check_time_monotonic",
    "enabled",
    "is_enabled",
    "set_enabled",
]

#: Environment variable that switches the sanitizer on for a whole
#: process tree (``1``/anything truthy enables, ``0``/empty disables).
ENV_VAR = "REPRO_CHECK_INVARIANTS"

#: Mirror of the admission slack in :mod:`repro.network.link`, kept as
#: a literal so this module stays import-cycle-free (stdlib only).
_ADMIT_EPSILON_BPS = 1e-9


def _env_enabled() -> bool:
    return os.environ.get(ENV_VAR, "").strip().lower() not in (
        "",
        "0",
        "false",
        "no",
        "off",
    )


#: The global switch.  Hooks read this directly (``_inv.enabled``) so
#: the disabled cost is one attribute load and a truth test.
enabled: bool = _env_enabled()


class InvariantViolation(AssertionError):
    """A simulation-substrate invariant was broken at runtime."""


def is_enabled() -> bool:
    """Whether the sanitizer is currently on."""
    return enabled


def set_enabled(value: bool) -> None:
    """Switch the sanitizer on or off for this process."""
    global enabled
    enabled = bool(value)


def _tolerance(capacity_bps: float) -> float:
    """Accounting slack: absolute floor plus a capacity-relative term.

    Incremental float accounting drifts by at most a few ulps of the
    capacity magnitude per reserve/release cycle; the link layer snaps
    drift whenever a ledger empties, so the residual stays far below
    this bound.
    """
    return 1e-6 + 1e-9 * abs(capacity_bps)


def check_link(link: "Link") -> None:
    """Verify one link's accounting invariants.

    Raises :class:`InvariantViolation` if the reserved total is
    negative, available bandwidth is below the admission slack, any
    per-flow ledger entry is negative, or the ledger sum disagrees
    with the link's column in the shared state arrays.
    """
    state = link.state
    index = link.index
    capacity = state.capacity[index]
    reserved = state.reserved[index]
    tolerance = _tolerance(capacity)
    if not reserved >= -tolerance:  # NaN also fails this test
        raise InvariantViolation(
            f"link {link.source}->{link.target}: reserved total "
            f"{reserved!r} is negative (or NaN)"
        )
    if not capacity - reserved >= -(_ADMIT_EPSILON_BPS + tolerance):
        raise InvariantViolation(
            f"link {link.source}->{link.target}: reserved {reserved!r} "
            f"exceeds capacity {capacity!r}"
        )
    ledger = link._reservations
    for flow_id, amount in ledger.items():
        if not amount >= 0.0:
            raise InvariantViolation(
                f"link {link.source}->{link.target}: flow {flow_id!r} "
                f"holds a negative reservation {amount!r}"
            )
    total = math.fsum(ledger.values())
    if abs(total - reserved) > tolerance:
        raise InvariantViolation(
            f"link {link.source}->{link.target}: ledger sum {total!r} "
            f"disagrees with reserved column {reserved!r}"
        )


def check_network(network: "Network") -> None:
    """Verify every link of ``network`` plus cross-link flow pairing.

    A flow reserves the same bandwidth on every link of its path, so
    any flow id appearing with two different amounts means a reserve
    or release was torn (applied on some links but not others).
    """
    amounts: dict[Any, float] = {}
    for link in network.links():
        check_link(link)
        for flow_id, amount in link._reservations.items():
            previous = amounts.setdefault(flow_id, amount)
            if previous != amount:
                raise InvariantViolation(
                    f"flow {flow_id!r} holds {amount!r} bps on link "
                    f"{link.source}->{link.target} but {previous!r} bps "
                    f"elsewhere: torn reserve/release"
                )


def check_soft_state(network: "Network", leases: "LeaseTable") -> None:
    """Verify every reservation is covered by a lease.

    The soft-state contract: bandwidth may only be held under a live
    (or pending-collection) lease, so a lost Resv/Tear can orphan a
    reservation for at most one TTL + sweep interval.  A reservation
    with no covering lease would never be collected — a permanent
    bandwidth leak — so the sweep asserts this before collecting.

    Only meaningful when *all* reservations of ``network`` go through
    the lease-tracking signalling layer; the chaos scenario satisfies
    this by construction.
    """
    for link in network.links():
        for flow_id in link._reservations:
            if not leases.covers(flow_id, link):
                raise InvariantViolation(
                    f"link {link.source}->{link.target}: reservation "
                    f"{flow_id!r} has no covering lease (leaked bandwidth)"
                )


def check_drained(network: "Network") -> None:
    """Verify no bandwidth remains reserved after a full drain.

    Called by scenarios that tear every flow down (or let the lease
    collector expire the orphans) and then drain the event calendar:
    any residual reservation means the robustness machinery leaked.
    """
    for link in network.links():
        reserved = link.reserved_bps
        if abs(reserved) > _tolerance(link.capacity_bps):
            raise InvariantViolation(
                f"link {link.source}->{link.target}: {reserved!r} bps "
                f"still reserved after drain ({len(link._reservations)} "
                f"ledger entries)"
            )


def check_time_monotonic(
    previous: float, current: float, context: str
) -> None:
    """Verify event time never moves backwards.

    ``previous`` is the last dispatched/popped timestamp, ``current``
    the one about to be processed.
    """
    if current < previous:
        raise InvariantViolation(
            f"{context}: event time moved backwards "
            f"({current!r} after {previous!r})"
        )
