"""The control loop that closes observability into actuation.

:class:`FleetAutoscaler` is the subsystem's spine: every
``poll_interval`` seconds it

1. fetches a ``STATS`` snapshot from the broker over the same observer
   channel as ``repro fleet status`` (nothing in-process — the loop works
   against any reachable broker, local or remote);
2. reaps exited worker processes and records their lifetimes;
3. feeds the distilled :class:`~repro.fleet.policy.FleetObservation` to
   its :class:`~repro.fleet.policy.ScalingPolicy`;
4. actuates the decision — spawns through its
   :class:`~repro.fleet.supervisor.WorkerSupervisor`, retires through the
   broker's ``DRAIN`` channel (falling back to SIGTERM for workers the
   broker reports it cannot drain, or when the broker is unreachable).

Every action is recorded twice: as ``fleet.*`` telemetry (counters,
gauges, histograms — live when ``REPRO_TELEMETRY`` is on) and as plain
:class:`FleetEvent` rows in a :class:`FleetReport`, which works with
telemetry disabled so the CLI summary line and the CI assertions never
depend on the telemetry switch.

Determinism note: the autoscaler changes *when and where* tasks run,
never *what* runs — workers execute the unchanged serial trainer path —
so a sweep's results are byte-identical under any scaling schedule.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

from repro import telemetry
from repro.fleet.control import FleetControlError, request_drain
from repro.fleet.policy import (FleetObservation, ScalingDecision,
                                ScalingPolicy, ThresholdPolicy)
from repro.fleet.supervisor import WorkerSupervisor
from repro.telemetry.fleet import FleetStatusError, fetch_fleet_stats
from repro.utils.logging import get_logger

_LOGGER = get_logger("repro.fleet.autoscaler")


@dataclass(frozen=True)
class AutoscaleConfig:
    """Knobs of one autoscaled fleet (CLI flags map onto these 1:1)."""

    min_workers: int = 1          #: safety floor, topped up without cooldown
    max_workers: int = 4          #: hard ceiling on spawned workers
    poll_interval: float = 0.5    #: seconds between control ticks
    high_water: float = 2.0       #: queued/alive ratio that triggers scale-up
    low_water: float = 0.5        #: queued/alive ratio allowing scale-down
    idle_grace_seconds: float = 2.0   #: continuous idle before retirement
    cooldown_seconds: float = 3.0     #: min seconds between scaling actions
    scale_up_step: int = 1        #: workers added per scale-up
    heartbeat_interval: float = 2.0   #: handed to spawned workers

    def build_policy(self) -> ThresholdPolicy:
        return ThresholdPolicy(
            min_workers=self.min_workers, max_workers=self.max_workers,
            high_water=self.high_water, low_water=self.low_water,
            idle_grace_seconds=self.idle_grace_seconds,
            cooldown_seconds=self.cooldown_seconds,
            scale_up_step=self.scale_up_step)


@dataclass(frozen=True)
class FleetEvent:
    """One thing the autoscaler did (or observed), timestamped."""

    elapsed: float                    #: seconds since the autoscaler started
    kind: str                         #: scale_up | drain_requested | worker_exit
    workers: Tuple[str, ...] = ()
    reason: str = ""


@dataclass
class FleetReport:
    """What an autoscaled run did, independent of the telemetry switch."""

    events: List[FleetEvent] = field(default_factory=list)
    scale_ups: int = 0
    workers_spawned: int = 0
    drains_requested: int = 0
    peak_workers: int = 0
    worker_lifetimes: List[float] = field(default_factory=list)
    #: Broker-side truth, filled from the final STATS snapshot (or directly
    #: by the coordinator, which owns the broker): ``drains_completed`` is
    #: the graceful-drain count, ``drain_requeued_tasks`` the lost-lease
    #: count the elastic-fleet contract pins to zero.
    broker_counters: Dict[str, int] = field(default_factory=dict)

    @property
    def graceful_drains(self) -> int:
        return int(self.broker_counters.get("drains_completed", 0))

    @property
    def drain_requeues(self) -> int:
        return int(self.broker_counters.get("drain_requeued_tasks", 0))

    def record(self, event: FleetEvent) -> None:
        self.events.append(event)

    def summary(self) -> str:
        """One grep-friendly line (printed by the CLI, asserted by CI)."""
        lifetimes = (f"{min(self.worker_lifetimes):.1f}-"
                     f"{max(self.worker_lifetimes):.1f}s"
                     if self.worker_lifetimes else "n/a")
        return ("fleet: scale_ups={ups} spawned={spawned} peak={peak} "
                "drains_requested={req} graceful_drains={ok} "
                "drain_requeues={bad} worker_lifetimes={life}").format(
                    ups=self.scale_ups, spawned=self.workers_spawned,
                    peak=self.peak_workers, req=self.drains_requested,
                    ok=self.graceful_drains, bad=self.drain_requeues,
                    life=lifetimes)


class FleetAutoscaler:
    """Poll the broker, decide, actuate; see the module docstring.

    Parameters
    ----------
    host, port:
        Broker address (bound address for in-process brokers).
    config:
        Thresholds and cadence; ignored for the policy when an explicit
        ``policy`` is given (spawn/retire mechanics still use it).
    policy:
        Optional :class:`~repro.fleet.policy.ScalingPolicy` override.
    supervisor:
        Optional :class:`~repro.fleet.supervisor.WorkerSupervisor`
        override (tests inject doubles; the default owns real processes).
    """

    def __init__(self, host: str, port: int, *,
                 config: Optional[AutoscaleConfig] = None,
                 policy: Optional[ScalingPolicy] = None,
                 supervisor: Optional[WorkerSupervisor] = None) -> None:
        self.host = host
        self.port = int(port)
        self.config = config or AutoscaleConfig()
        self.policy = policy if policy is not None else self.config.build_policy()
        self.supervisor = supervisor if supervisor is not None else \
            WorkerSupervisor(host, self.port,
                             heartbeat_interval=self.config.heartbeat_interval)
        self.report = FleetReport()
        self.last_snapshot: Optional[Dict[str, object]] = None
        self._started_at: Optional[float] = None
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    # ------------------------------------------------------------------ lifecycle
    def start(self) -> "FleetAutoscaler":
        """Run the control loop in a daemon thread (first tick immediate)."""
        if self._thread is not None:
            raise RuntimeError("autoscaler already started")
        self._started_at = time.monotonic()
        self._thread = threading.Thread(target=self._loop,
                                        name="fleet-autoscaler", daemon=True)
        self._thread.start()
        return self

    def stop(self, *, retire_fleet: bool = True, timeout: float = 10.0) -> None:
        """Stop polling; optionally retire every remaining owned worker."""
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=max(1.0, timeout))
            self._thread = None
        if retire_fleet:
            alive = self.supervisor.alive_ids()
            if alive:
                # Mark the remaining fleet as draining so even shutdown
                # retirement rides the DRAIN protocol (the broker counts
                # each clean exit in ``drains_completed``).  A gone broker
                # just means stop_all's signal path takes over.
                try:
                    disposition = request_drain(self.host, self.port, alive)
                except (FleetControlError, OSError):
                    pass
                else:
                    marked = disposition.get("marked", [])
                    if marked:
                        self._record_drain_request(tuple(marked),
                                                   "fleet shutdown")
            for worker_id, exitcode, lifetime in \
                    self.supervisor.stop_all(timeout=timeout):
                self._record_exit(worker_id, exitcode, lifetime)
            try:
                # One final snapshot so the summary counts the shutdown
                # drains too; the broker is often already gone — fine,
                # the last mid-run snapshot stands in.
                self.last_snapshot = fetch_fleet_stats(self.host, self.port,
                                                       timeout=2.0)
            except (FleetStatusError, OSError):
                pass
        if self.last_snapshot is not None and not self.report.broker_counters:
            counters = self.last_snapshot.get("counters", {})
            if isinstance(counters, dict):
                self.report.broker_counters = {
                    key: int(counters.get(key, 0))
                    for key in ("drains_requested", "drains_completed",
                                "drain_requeued_tasks", "requeued_tasks")}

    def __enter__(self) -> "FleetAutoscaler":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    # ------------------------------------------------------------------ control
    def _loop(self) -> None:
        while not self._stop.is_set():
            try:
                self.poll_once()
            except Exception:   # pragma: no cover - keep the loop alive
                _LOGGER.warning("autoscaler tick failed", exc_info=True)
                telemetry.count("fleet.tick_errors")
            self._stop.wait(self.config.poll_interval)

    def poll_once(self) -> Optional[ScalingDecision]:
        """One observe → decide → actuate tick; ``None`` if broker is gone.

        An unreachable broker is not an error: the sweep may simply have
        finished and torn the port down between ticks.  The loop keeps
        trying (the sweep's ``finally`` stops it) and tests can call this
        directly for deterministic single-step control.
        """
        for worker_id, exitcode, lifetime in self.supervisor.reap():
            self._record_exit(worker_id, exitcode, lifetime)
        try:
            snapshot = fetch_fleet_stats(self.host, self.port, timeout=5.0)
        except FleetStatusError:
            return None
        self.last_snapshot = snapshot
        observation = FleetObservation.from_snapshot(snapshot)
        telemetry.set_gauge("fleet.alive_workers", len(observation.alive))
        telemetry.set_gauge("fleet.queued_tasks", observation.queued)
        self.report.peak_workers = max(self.report.peak_workers,
                                       len(observation.alive))
        decision = self.policy.decide(observation)
        if decision.spawn:
            # A freshly spawned worker takes a beat (spawn-context
            # interpreter start-up) to register with the broker, during
            # which the policy still sees the old fleet and would keep
            # re-spawning.  Discount workers already launched but not yet
            # visible in the snapshot; the clamp keeps snapshot-alive +
            # pending within the policy's bounds.
            known = {w.worker_id for w in observation.workers}
            pending = sum(1 for worker_id in self.supervisor.alive_ids()
                          if worker_id not in known)
            spawn = max(0, decision.spawn - pending)
            if spawn:
                self._actuate_spawn(replace(decision, spawn=spawn))
        if decision.retire:
            self._actuate_retire(decision)
        return decision

    # ------------------------------------------------------------------ actuation
    def _actuate_spawn(self, decision: ScalingDecision) -> None:
        spawned = self.supervisor.scale_up(decision.spawn)
        if not spawned:
            return
        self.report.scale_ups += 1
        self.report.workers_spawned += len(spawned)
        self.report.record(FleetEvent(self._elapsed(), "scale_up",
                                      tuple(spawned), decision.reason))
        telemetry.count("fleet.scale_ups")
        telemetry.count("fleet.workers_spawned", len(spawned))
        _LOGGER.info("fleet scaled up", workers=spawned,
                     reason=decision.reason)

    def _actuate_retire(self, decision: ScalingDecision) -> None:
        try:
            disposition = request_drain(self.host, self.port, decision.retire)
        except FleetControlError as error:
            if not error.transient:
                raise
            # The broker vanished mid-tick: retire our own processes by
            # signal — the worker loop drains on SIGTERM.
            _LOGGER.warning("broker drain unavailable; falling back to "
                            "SIGTERM", error=str(error))
            signalled = self.supervisor.signal(
                [w for w in decision.retire if self.supervisor.owns(w)])
            if signalled:
                self._record_drain_request(tuple(signalled),
                                           decision.reason + " (via SIGTERM)")
            return
        marked = disposition.get("marked", [])
        if marked:
            self._record_drain_request(tuple(marked), decision.reason)
        # Workers the broker cannot drain (never registered, already gone)
        # but whose processes we still own get the signal path instead.
        undrainable = [w for w in disposition.get("unknown", [])
                       + disposition.get("gone", []) if self.supervisor.owns(w)]
        signalled = self.supervisor.signal(undrainable)
        if signalled:
            self._record_drain_request(tuple(signalled),
                                       decision.reason + " (via SIGTERM)")

    # ------------------------------------------------------------------ recording
    def _elapsed(self) -> float:
        started = self._started_at if self._started_at is not None \
            else time.monotonic()
        return round(time.monotonic() - started, 3)

    def _record_drain_request(self, workers: Tuple[str, ...],
                              reason: str) -> None:
        self.report.drains_requested += len(workers)
        self.report.record(FleetEvent(self._elapsed(), "drain_requested",
                                      workers, reason))
        telemetry.count("fleet.drains_requested", len(workers))
        _LOGGER.info("fleet draining workers", workers=list(workers),
                     reason=reason)

    def _record_exit(self, worker_id: str, exitcode: Optional[int],
                     lifetime: float) -> None:
        self.report.worker_lifetimes.append(lifetime)
        self.report.record(FleetEvent(self._elapsed(), "worker_exit",
                                      (worker_id,),
                                      f"exitcode={exitcode}"))
        telemetry.observe("fleet.worker_lifetime_seconds", lifetime)


__all__ = ["AutoscaleConfig", "FleetAutoscaler", "FleetEvent", "FleetReport"]
