"""QoS requirements and the delay-to-bandwidth mapping of Section 6.

The paper's admission control reserves *bandwidth*.  Its final remarks
note that in networks with rate-based schedulers (WFQ, Virtual Clock)
an end-to-end delay requirement "can be directly mapped to bandwidth
requirement", so delay QoS reduces to the bandwidth QoS the DAC
procedure already handles.  This module implements that mapping using
the classic WFQ (PGPS) end-to-end delay bound of Parekh & Gallager:

    delay <= sigma / g  +  (H - 1) * L_max / g  +  sum_h L_max / C_h

where ``g`` is the reserved rate, ``sigma`` the token-bucket burst,
``H`` the hop count, ``L_max`` the maximum packet size and ``C_h`` the
raw link speeds.  Solving for ``g`` gives the minimum reservation that
meets a target delay bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence


@dataclass(frozen=True)
class QoSRequirement:
    """QoS demanded by a flow.

    At least a bandwidth requirement must be given; an optional delay
    bound *raises* the effective bandwidth via the WFQ mapping when
    route parameters are attached with :meth:`with_route`.

    Attributes
    ----------
    bandwidth_bps:
        Throughput requirement in bits per second.
    delay_bound_s:
        Optional end-to-end delay bound in seconds.
    burst_bits:
        Token-bucket burst size (sigma) in bits, used by the delay
        mapping.  Defaults to one maximum packet.
    max_packet_bits:
        Maximum packet size (L_max) in bits.
    """

    bandwidth_bps: float
    delay_bound_s: Optional[float] = None
    burst_bits: float = 12_000.0
    max_packet_bits: float = 12_000.0
    _delay_rate_bps: Optional[float] = None

    def __post_init__(self):
        # Written so that NaN fails too.
        if not 0 < self.bandwidth_bps < math.inf:
            raise ValueError(
                "bandwidth requirement must be positive and finite, "
                f"got {self.bandwidth_bps}"
            )
        if self.delay_bound_s is not None and self.delay_bound_s <= 0:
            raise ValueError(
                f"delay bound must be positive, got {self.delay_bound_s}"
            )
        if self.burst_bits < 0 or self.max_packet_bits <= 0:
            raise ValueError("burst must be >= 0 and max packet > 0")

    @property
    def effective_bandwidth_bps(self) -> float:
        """Bandwidth the network must reserve to honour this QoS.

        The larger of the throughput requirement and (when a delay
        bound has been resolved against a concrete route via
        :meth:`with_route`) the WFQ rate needed for the delay bound.
        """
        if self._delay_rate_bps is None:
            return self.bandwidth_bps
        return max(self.bandwidth_bps, self._delay_rate_bps)

    def with_route(
        self, hop_count: int, link_speeds_bps: Sequence[float]
    ) -> "QoSRequirement":
        """Resolve the delay bound against a concrete route.

        Returns a new requirement whose effective bandwidth also
        satisfies the delay bound over a route with ``hop_count`` hops
        and the given raw link speeds.  A no-op if no delay bound was
        requested.

        Raises
        ------
        ValueError
            If the delay bound is infeasible even at full link speed.
        """
        if self.delay_bound_s is None:
            return self
        rate = delay_bound_to_bandwidth_wfq(
            delay_bound_s=self.delay_bound_s,
            burst_bits=self.burst_bits,
            max_packet_bits=self.max_packet_bits,
            hop_count=hop_count,
            link_speeds_bps=link_speeds_bps,
        )
        return QoSRequirement(
            bandwidth_bps=self.bandwidth_bps,
            delay_bound_s=self.delay_bound_s,
            burst_bits=self.burst_bits,
            max_packet_bits=self.max_packet_bits,
            _delay_rate_bps=rate,
        )


def wfq_delay_bound(
    rate_bps: float,
    burst_bits: float,
    max_packet_bits: float,
    hop_count: int,
    link_speeds_bps: Sequence[float],
) -> float:
    """Parekh-Gallager end-to-end delay bound under WFQ (seconds).

    ``delay = sigma/g + (H-1) L/g + sum_h L/C_h`` for a flow reserved
    rate ``g`` over ``H`` hops.
    """
    if rate_bps <= 0:
        raise ValueError(f"rate must be positive, got {rate_bps}")
    if hop_count < 1:
        raise ValueError(f"hop count must be >= 1, got {hop_count}")
    if len(link_speeds_bps) != hop_count:
        raise ValueError(
            f"{hop_count} hops but {len(link_speeds_bps)} link speeds"
        )
    store_forward = sum(max_packet_bits / speed for speed in link_speeds_bps)
    return (
        burst_bits / rate_bps
        + (hop_count - 1) * max_packet_bits / rate_bps
        + store_forward
    )


def delay_bound_to_bandwidth_wfq(
    delay_bound_s: float,
    burst_bits: float,
    max_packet_bits: float,
    hop_count: int,
    link_speeds_bps: Sequence[float],
) -> float:
    """Minimum WFQ rate meeting ``delay_bound_s`` over a route.

    Inverts :func:`wfq_delay_bound` for the rate:

        g >= (sigma + (H-1) L) / (D - sum_h L/C_h)

    Raises
    ------
    ValueError
        If the fixed store-and-forward term alone exceeds the bound
        (no finite rate can help).
    """
    if delay_bound_s <= 0:
        raise ValueError(f"delay bound must be positive, got {delay_bound_s}")
    if hop_count < 1:
        raise ValueError(f"hop count must be >= 1, got {hop_count}")
    if len(link_speeds_bps) != hop_count:
        raise ValueError(
            f"{hop_count} hops but {len(link_speeds_bps)} link speeds"
        )
    store_forward = sum(max_packet_bits / speed for speed in link_speeds_bps)
    slack = delay_bound_s - store_forward
    numerator = burst_bits + (hop_count - 1) * max_packet_bits
    if numerator == 0:
        # A fluid flow with no burst meets any bound beyond store-and-forward.
        if slack <= 0:
            raise ValueError(
                f"delay bound {delay_bound_s}s is infeasible: store-and-forward "
                f"latency alone is {store_forward:.6g}s"
            )
        return 0.0
    if slack <= 0:
        raise ValueError(
            f"delay bound {delay_bound_s}s is infeasible: store-and-forward "
            f"latency alone is {store_forward:.6g}s"
        )
    return numerator / slack
