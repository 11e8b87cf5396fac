"""``WeightPushCallback``: stream a live trainer's weights into a server.

The "learn online, serve online" loop the paper's OS-ELM pitch implies:
hook this callback onto a :class:`~repro.training.trainer.Trainer` and
every ``every`` episodes (plus once at the end of training) the trial's
*current* agent is pickled and pushed to a running
:class:`~repro.serving.server.PolicyServer` as a ``SWAP`` frame — requests
already in flight finish on the old weights, everything after serves the
fresh ones.

Lives in :mod:`repro.serving` rather than :mod:`repro.training.callbacks`
because it owns a :class:`~repro.serving.client.PolicyClient`; the training
package stays import-free of the serving stack.
"""

from __future__ import annotations

import time
from typing import Optional, Tuple, Union

from repro.distributed.protocol import parse_address
from repro.serving.client import PolicyClient, ServingError
from repro.telemetry import get_registry
from repro.training.callbacks import Callback
from repro.utils.logging import get_logger
from repro.utils.retry import RetryPolicy

_LOGGER = get_logger("repro.serving.callback")

#: Default backoff for a failing serving endpoint: roughly half a second
#: doubling to half a minute.  ``max_attempts`` is irrelevant here — the
#: callback never gives up, it just stops *trying* more often than this —
#: so it is set high enough to never be the binding constraint.
DEFAULT_PUSH_BACKOFF = RetryPolicy(max_attempts=1000, base_delay=0.5,
                                   multiplier=2.0, max_delay=30.0)


class WeightPushCallback(Callback):
    """Push the in-training agent to a live policy server.

    Parameters
    ----------
    address:
        ``"host:port"``, an ``(host, port)`` tuple, or an already-connected
        :class:`PolicyClient`.  Address forms connect lazily on the first
        push, so constructing the callback before the server is up is fine
        as long as it is listening by then.
    design:
        Design name to swap on the server.  Default: the agent's own
        ``name`` attribute at push time (every built-in design sets one).
    every:
        Push cadence in episodes.  The end-of-training push always happens
        regardless, so a short run still deploys its final weights.
    strict:
        When ``False`` (default) a failed push logs a warning and training
        continues — a serving hiccup must not kill a long run.  ``True``
        re-raises, for tests and deployments where silently diverging
        weights are worse than a dead trainer.
    backoff:
        :class:`~repro.utils.retry.RetryPolicy` shaping how eagerly a
        *failing* server is re-tried, so a dead server does not eat a
        connect timeout per cadence tick: consecutive failures push
        the next attempt out on the policy's (capped exponential) delay
        schedule; pushes falling inside the cool-down are *skipped* (and
        counted), and the first success resets the schedule.  The deadline
        and attempt cap are ignored — the callback never gives up, it only
        spaces its attempts.
    """

    def __init__(self, address: Union[str, Tuple[str, int], PolicyClient], *,
                 design: Optional[str] = None, every: int = 25,
                 strict: bool = False,
                 backoff: RetryPolicy = DEFAULT_PUSH_BACKOFF) -> None:
        if every < 1:
            raise ValueError(f"every must be >= 1, got {every}")
        self.design = design
        self.every = int(every)
        self.strict = strict
        self.backoff = backoff
        self.pushes = 0
        self.failed_pushes = 0
        #: Pushes suppressed by the failure backoff (no connect attempted).
        self.skipped_pushes = 0
        self._failure_streak = 0
        self._retry_at = 0.0            # monotonic; 0 = no cool-down active
        self._client: Optional[PolicyClient] = None
        self._address: Optional[Tuple[str, int]] = None
        if isinstance(address, PolicyClient):
            self._client = address
        elif isinstance(address, str):
            self._address = parse_address(address)
        else:
            host, port = address
            self._address = (str(host), int(port))

    # ------------------------------------------------------------------ hooks
    def on_episode_end(self, trial, record) -> None:
        if record.episode % self.every == 0:
            self._push(trial.agent)

    def on_train_end(self, run, results) -> None:
        for trial in getattr(run, "trials", []):
            self._push(trial.agent)

    # ------------------------------------------------------------------ push
    def _push(self, agent) -> None:
        design = self.design if self.design is not None else getattr(
            agent, "name", None)
        if self._retry_at and time.monotonic() < self._retry_at:
            # Still cooling down from consecutive failures: skip quietly
            # rather than eat a connect timeout on every cadence tick
            # against a server that was down moments ago.
            self.skipped_pushes += 1
            get_registry().counter("serving.weight_push_skips").inc()
            return
        try:
            if design is None:
                raise ServingError(
                    f"agent {type(agent).__name__} has no name attribute; "
                    f"pass design= to WeightPushCallback")
            if self._client is None:
                assert self._address is not None
                self._client = PolicyClient(*self._address, design=design)
            info = self._client.swap(agent, design=design)
        except ServingError as error:
            self.failed_pushes += 1
            get_registry().counter("serving.weight_push_failures").inc()
            if self.strict:
                raise
            delay = self.backoff.delay_for(self._failure_streak)
            self._failure_streak += 1
            self._retry_at = time.monotonic() + delay
            _LOGGER.warning("weight push failed", design=design,
                            error=str(error), retry_in=round(delay, 3))
            # A dead connection is not coming back; reconnect on the next
            # push that survives the cool-down.
            if self._client is not None and self._address is not None:
                self._client.close()
                self._client = None
            return
        self.pushes += 1
        self._failure_streak = 0
        self._retry_at = 0.0
        get_registry().counter("serving.weight_pushes").inc()
        _LOGGER.info("weights pushed", design=design,
                     generation=info.get("generation"))

    def close(self) -> None:
        if self._client is not None and self._address is not None:
            # Only close clients this callback opened itself.
            self._client.close()
            self._client = None


__all__ = ["DEFAULT_PUSH_BACKOFF", "WeightPushCallback"]
