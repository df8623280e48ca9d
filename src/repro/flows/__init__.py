"""Anycast flow, group, QoS and traffic models (paper Section 3, 5.1).

* :mod:`repro.flows.group` -- anycast groups: an address shared by a
  set of designated recipients.
* :mod:`repro.flows.flow` -- the flow record: one request, from
  arrival to departure.
* :mod:`repro.flows.qos` -- QoS requirements, including the paper's
  Section 6 extension mapping end-to-end delay bounds to bandwidth
  under rate-based schedulers (WFQ / Virtual Clock).
* :mod:`repro.flows.traffic` -- the Poisson arrival / exponential
  lifetime workload of Section 5.1.
"""

from repro.flows.flow import FlowRequest
from repro.flows.group import AnycastGroup
from repro.flows.qos import (
    QoSRequirement,
    delay_bound_to_bandwidth_wfq,
    wfq_delay_bound,
)
from repro.flows.traffic import TrafficModel, WorkloadSpec

__all__ = [
    "AnycastGroup",
    "FlowRequest",
    "QoSRequirement",
    "TrafficModel",
    "WorkloadSpec",
    "delay_bound_to_bandwidth_wfq",
    "wfq_delay_bound",
]
