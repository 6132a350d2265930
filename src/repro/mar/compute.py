"""Execution-delay equations of Section III-B.

The paper constrains an application ``a`` three ways:

1. pure local execution::

       P_local(Rm, f(a), p(a)) < δa                         (Eq. 1)

2. local execution with an external database::

       P_local+externalDB(Rm, f(a), p(a), d(a), o(a),
                          b_mc, l_mc, x) < δa

   where ``x`` is the fraction of virtual objects cached locally;

3. computation offloading::

       P_offloading(Rm, Rc, f(a), p(a), d(a), o(a),
                    b_mc, l_mc, x, y) < δa

   where ``x`` splits p(a) between device and cloud and ``y`` says
   whether data and compute live on the same surrogate (a second
   server hop otherwise).

These are implemented as plain functions over :class:`~repro.mar.
devices.Device` (Rm, Rc) and :class:`~repro.mar.application.
MarApplication` (f, p, d, o, δa) plus an :class:`ExecutionBudget`
describing the network (b_mc as up/down bandwidth, l_mc as one-way
latency).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.mar.application import MarApplication
from repro.mar.devices import Device


@dataclass(frozen=True)
class ExecutionBudget:
    """The network term of the equations: n_mc = (b_mc, l_mc).

    ``bandwidth_up_bps`` / ``bandwidth_down_bps`` — b_mc per direction;
    ``latency`` — one-way delay l_mc in seconds;
    ``server_interlink_latency`` — extra one-way delay between the
    compute surrogate and the data surrogate when they differ (the
    ``y`` parameter's cost).
    """

    bandwidth_up_bps: float
    bandwidth_down_bps: float
    latency: float
    server_interlink_latency: float = 0.010

    @property
    def rtt(self) -> float:
        return 2 * self.latency


def local_delay(device: Device, app: MarApplication) -> float:
    """P_local: per-frame execution time when everything runs on-device."""
    return device.execution_time(app.megacycles_per_frame)


def feasible_locally(device: Device, app: MarApplication) -> bool:
    """Eq. 1: can the device sustain in-time execution by itself?"""
    return local_delay(device, app) < app.deadline


def local_with_db_delay(
    device: Device,
    app: MarApplication,
    budget: ExecutionBudget,
    cache_hit_ratio: float,
) -> float:
    """P_local+externalDB: local compute plus expected object-fetch time.

    ``cache_hit_ratio`` is the x parameter: the fraction of o(a)
    requests served from local storage.  Misses pay one network round
    trip plus the object's transfer time, amortized per frame by the
    request rate d(a)/f(a).
    """
    if not 0.0 <= cache_hit_ratio <= 1.0:
        raise ValueError("cache_hit_ratio must be in [0, 1]")
    compute = local_delay(device, app)
    requests_per_frame = app.db_requests_per_s / app.fps
    miss_rate = 1.0 - cache_hit_ratio
    fetch_time = budget.rtt + app.object_bytes * 8 / budget.bandwidth_down_bps
    return compute + requests_per_frame * miss_rate * fetch_time


def offloading_delay(
    device: Device,
    cloud: Device,
    app: MarApplication,
    budget: ExecutionBudget,
    local_fraction: float = 0.0,
    data_colocated: bool = True,
    cache_hit_ratio: float = 1.0,
    upload_bytes: Optional[int] = None,
    use_features: bool = False,
) -> float:
    """P_offloading: per-frame latency with the pipeline split.

    ``local_fraction`` is the x parameter: the fraction of p(a)
    executed on the device (the rest runs on the cloud surrogate).
    ``data_colocated`` is the y parameter: when False, the compute
    surrogate fetches objects from a second server, paying the
    interlink latency per database request.

    ``upload_bytes`` overrides the uplink payload (defaults to the
    feature payload when ``use_features`` or the device computes the
    extraction stage locally, else the full compressed frame).
    """
    if not 0.0 <= local_fraction <= 1.0:
        raise ValueError("local_fraction must be in [0, 1]")
    local_part = device.execution_time(app.megacycles_per_frame * local_fraction)
    remote_part = cloud.execution_time(app.megacycles_per_frame * (1 - local_fraction))

    if upload_bytes is None:
        extraction_local = use_features or local_fraction > 0.0
        upload_bytes = app.feature_upload_bytes if extraction_local else app.frame_upload_bytes
    upload = upload_bytes * 8 / budget.bandwidth_up_bps
    download = app.result_bytes * 8 / budget.bandwidth_down_bps
    network = budget.rtt + upload + download

    data_penalty = 0.0
    if not data_colocated:
        requests_per_frame = app.db_requests_per_s / app.fps
        miss_rate = 1.0 - cache_hit_ratio
        data_penalty = requests_per_frame * miss_rate * (
            2 * budget.server_interlink_latency
            + app.object_bytes * 8 / budget.bandwidth_down_bps
        )
    return local_part + remote_part + network + data_penalty
