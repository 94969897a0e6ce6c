"""``repro serve``: a live deployment with the query plane attached.

Composes the pieces of :mod:`repro.gateway` over a
:func:`~repro.runtime.cluster.deploy_live` deployment:

* the mesh runs key setup and a continuous periodic-reporting workload
  on the loopback transport;
* the base station's verified readings stream into a
  :class:`~repro.gateway.store.GatewayStateStore` via the delivery
  listener added in :mod:`repro.protocol.base_station`;
* a :class:`~repro.gateway.api.GatewayHttpServer` serves the store and
  the deployment's status/telemetry over HTTP;
* optional :class:`~repro.gateway.federation.FederationPeer` pulls merge
  peer gateways' regions in on a fixed wall-clock period.

Threading model: HTTP handler threads only ever read — store reads take
the store's own lock, and anything touching live protocol objects takes
``run_lock``, which the driver loop holds while it advances the
protocol clock. The driver advances in short bursts (``poll_s`` wall
seconds → ``poll_s * time_scale`` protocol seconds), so the lock is
never held long and queries stay responsive.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.gateway.api import GatewayApp, GatewayHttpServer
from repro.gateway.federation import (
    FederationError,
    FederationPeer,
    derive_federation_key,
)
from repro.gateway.store import GatewayStateStore, parse_region
from repro.workloads import PeriodicReporting

if TYPE_CHECKING:  # pragma: no cover
    from repro.protocol.setup import DeployedProtocol
    from repro.telemetry.registry import MetricsRegistry

__all__ = ["ServeOptions", "LiveGateway"]


@dataclass(frozen=True)
class ServeOptions:
    """Everything ``repro serve`` needs to bring a gateway up."""

    n: int = 60
    density: float = 12.0
    seed: int = 0
    transport: str = "loopback"
    host: str = "127.0.0.1"
    port: int = 8440
    gateway_id: str = "gw0"
    region: str = "all"
    #: Reporting period per source, protocol seconds.
    period_s: float = 5.0
    #: Reports scheduled per source per workload cycle.
    rounds: int = 4
    #: Protocol seconds advanced per wall second by the driver.
    time_scale: float = 20.0
    #: Wall seconds between driver bursts (lock-hold granularity).
    poll_s: float = 0.25
    #: Peer gateway base URLs to pull from (federation).
    peers: tuple[str, ...] = ()
    #: Wall seconds between federation pull rounds.
    federation_period_s: float = 2.0
    #: Pre-shared federation key; ``None`` derives one from the
    #: deployment's master secret (so same-seed gateways agree).
    federation_key: bytes | None = None

    def validate(self) -> None:
        """Raise ``ValueError`` on out-of-range knobs."""
        if self.transport != "loopback":
            raise ValueError(
                f"serve supports the loopback transport, not {self.transport!r}"
            )
        for name, value in (
            ("period_s", self.period_s),
            ("time_scale", self.time_scale),
            ("poll_s", self.poll_s),
            ("federation_period_s", self.federation_period_s),
        ):
            if value <= 0:
                raise ValueError(f"{name} must be positive, got {value}")
        if self.rounds < 1:
            raise ValueError(f"rounds must be >= 1, got {self.rounds}")
        parse_region(self.region)  # raises on a malformed expression


@dataclass
class LiveGateway:
    """One running gateway: deployment + store + HTTP server + peers."""

    options: ServeOptions
    deployed: "DeployedProtocol"
    store: GatewayStateStore
    app: GatewayApp
    server: GatewayHttpServer
    peers: list[FederationPeer]
    run_lock: threading.Lock
    _stop: threading.Event = field(default_factory=threading.Event)
    _sources: list[int] = field(default_factory=list)
    _active_workload: PeriodicReporting | None = None
    _workload_end_s: float = 0.0
    readings_sent: int = 0

    @classmethod
    def build(cls, options: ServeOptions) -> "LiveGateway":
        """Deploy the mesh, run key setup, and wire the query plane.

        The HTTP server is bound but not started; call :meth:`start`
        (or use :meth:`run`, which starts it).
        """
        from repro.runtime.cluster import deploy_live  # local import: avoid cycle

        options.validate()
        deployed, _metrics = deploy_live(
            n=options.n,
            density=options.density,
            seed=options.seed,
            transport=options.transport,
        )
        registry = deployed.network.trace.telemetry.registry
        store = GatewayStateStore(
            options.gateway_id,
            region=parse_region(options.region),
            registry=registry,
        )
        deployed.bs_agent.add_delivery_listener(store.ingest)
        deployed.network.bs.add_receive_listener(
            lambda _sender, _frame: _note_ingress(registry, deployed)
        )
        key = options.federation_key
        if key is None:
            key = derive_federation_key(deployed.registry.kmc.material)
        run_lock = threading.Lock()
        app = GatewayApp(
            store, deployed=deployed, federation_key=key, run_lock=run_lock
        )
        server = GatewayHttpServer(app, host=options.host, port=options.port)
        peers = [FederationPeer(url, key) for url in options.peers]
        gateway = cls(
            options=options,
            deployed=deployed,
            store=store,
            app=app,
            server=server,
            peers=peers,
            run_lock=run_lock,
        )
        gateway._sources = [
            nid for nid, a in deployed.agents.items() if a.state.hops_to_bs > 0
        ]
        return gateway

    @property
    def url(self) -> str:
        """The HTTP server's base URL (valid once built; port resolved)."""
        return self.server.url

    def start(self) -> "LiveGateway":
        """Start serving HTTP and schedule the first workload cycle."""
        self.server.start()
        with self.run_lock:
            self._top_up_workload()
        return self

    def _top_up_workload(self) -> None:
        """Schedule the next reporting cycle (caller holds ``run_lock``)."""
        workload = PeriodicReporting(
            self.deployed,
            self._sources,
            period_s=self.options.period_s,
            rounds=self.options.rounds,
        )
        workload.start()
        self._workload_end_s = self.deployed.now() + workload.duration_s
        self._active_workload = workload

    def _drive_once(self, protocol_step_s: float) -> None:
        """Advance the mesh one burst; refresh the workload if drained."""
        with self.run_lock:
            # run_lock exists to serialize exactly this: the driver
            # steps the protocol clock under it so HTTP readers never
            # observe a half-stepped deployment, and each burst is
            # poll_s-bounded. CONC002's blocking verdict is the call
            # graph's name-keyed over-approximation (run_for resolves
            # to every bare `run`), not this call site.
            self.deployed.run_for(protocol_step_s)  # ldplint: disable=CONC002
            if self.deployed.now() >= self._workload_end_s:
                if self._active_workload is not None:
                    self.readings_sent += len(self._active_workload.sent)
                self._top_up_workload()

    def _federate_once(self) -> None:
        """Pull every peer once; failures count, never crash the driver."""
        for peer in self.peers:
            try:
                peer.pull(self.store)
            except FederationError:
                self.store.registry.inc("gateway.federation.errors")

    def run(self, duration_s: float | None = None) -> None:
        """Drive the gateway until ``duration_s`` wall seconds (or stop()).

        Blocking: this is the foreground loop of ``repro serve``.
        """
        if not self.server.started:
            self.start()
        opts = self.options
        started = time.monotonic()
        next_federation = started + opts.federation_period_s
        try:
            while not self._stop.is_set():
                if duration_s is not None and time.monotonic() - started >= duration_s:
                    break
                self._drive_once(opts.poll_s * opts.time_scale)
                if self.peers and time.monotonic() >= next_federation:
                    self._federate_once()
                    next_federation = time.monotonic() + opts.federation_period_s
                self._stop.wait(opts.poll_s)
        except BaseException:
            # A driver crash must not leak the bound socket and its
            # serving thread; a normal return leaves the server up so
            # callers can keep querying until they stop() themselves.
            self.stop()
            raise

    def stop(self) -> None:
        """Stop the driver loop (if running) and the HTTP server."""
        self._stop.set()
        self.server.stop()


def _note_ingress(registry: "MetricsRegistry", deployed: "DeployedProtocol") -> None:
    """Count one mesh frame arriving at the base-station runtime.

    The ``gateway.ingest.last_frame_s`` gauge is the liveness signal an
    operator reads off ``/metrics``: a stalled mesh stops moving it.
    """
    registry.inc("gateway.ingest.frames")
    registry.gauge("gateway.ingest.last_frame_s", deployed.now())
