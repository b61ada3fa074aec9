"""The job server's dispatch policy as one pure state machine (sans-I/O).

:class:`Dispatcher` decides which worker runs which sweep point, when a
lost job is retried or the sweep gives up on it, when a straggler gets
a speculative copy, when a flapping worker is quarantined, and when a
silent worker is closed.  It reads no clock, starts no thread and owns
no socket: the caller passes the time with every event and carries out
the actions it returns.  :class:`~repro.orchestrator.backends.server
.JobServer` drives it from real sockets and ``time.monotonic()``; the
chaos suite (``tests/test_chaos.py``) drives the same object with
virtual workers in virtual time, so every fault schedule replays
exactly from its seed.

=========  ===========================================================
events     :class:`Register`, :class:`Heartbeat`, :class:`Result`,
           :class:`Error`, :class:`Disconnect`, :class:`Tick`
actions    :class:`Assign`, :class:`Requeue`, :class:`Speculate`,
           :class:`Quarantine`, :class:`Shutdown`, :class:`Close`,
           :class:`Deliver`, :class:`Fail`
=========  ===========================================================

Every :meth:`Dispatcher.handle` call re-checks every deadline, so no
event stream can starve one; :meth:`Dispatcher.next_wake` names the
earliest time a deadline falls due when no frame arrives.

:class:`Backoff`, the seeded exponential backoff shared by job retries,
worker reconnects and the listener's rebind loop, lives here too; its
RNG and its sleep are passed in.
"""

from __future__ import annotations

from dataclasses import dataclass, field


def backoff_delay(base: float, cap: float, attempt: int, rng,
                  factor: float = 2.0) -> float:
    """``min(cap, base * factor**attempt)`` scaled by a jitter drawn from
    ``rng`` in ``[0.5, 1.5)``, so a fleet of retrying parties never moves
    in lockstep, yet every schedule is reproducible from its seed."""
    return min(cap, base * factor ** attempt) * (0.5 + rng.random())


class Backoff:
    """A seeded exponential-backoff schedule; ``reset()`` restarts it."""

    __slots__ = ("base", "cap", "factor", "attempt", "_rng", "_sleep")

    def __init__(self, base: float, cap: float, *, rng, sleep,
                 factor: float = 2.0):
        if base <= 0 or cap < base or factor < 1.0:
            raise ValueError(
                f"need 0 < base <= cap and factor >= 1, got "
                f"base={base}, cap={cap}, factor={factor}"
            )
        self.base = base
        self.cap = cap
        self.factor = factor
        self.attempt = 0
        self._rng = rng
        self._sleep = sleep

    def next(self) -> float:
        """The next delay in seconds (advances the schedule)."""
        delay = backoff_delay(self.base, self.cap, self.attempt, self._rng,
                              self.factor)
        self.attempt += 1
        return delay

    def sleep(self) -> float:
        """Sleep the next delay with the injected sleep; returns it."""
        delay = self.next()
        self._sleep(delay)
        return delay

    def reset(self) -> None:
        self.attempt = 0


# ----------------------------------------------------------------------
# Events (in)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Register:
    """A worker passed the handshake and may be dealt jobs."""

    worker: int
    label: str


@dataclass(frozen=True)
class Heartbeat:
    worker: int


@dataclass(frozen=True)
class Result:
    worker: int
    index: int
    #: The decoded result; only the winning copy is delivered.
    result: object = field(repr=False, compare=False)


@dataclass(frozen=True)
class Error:
    """The simulation raised on the worker: deterministic, so fatal."""

    worker: int
    index: int
    error: str


@dataclass(frozen=True)
class Disconnect:
    """The connection ended: EOF, reset, or an unreadable frame."""

    worker: int


@dataclass(frozen=True)
class Tick:
    """No frame arrived before :meth:`Dispatcher.next_wake`."""


# ----------------------------------------------------------------------
# Actions (out)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Assign:
    worker: int
    index: int
    #: The job's sweep point, passed through untouched.
    payload: object = field(repr=False, compare=False)


@dataclass(frozen=True)
class Requeue:
    """A lost job's retry (``attempts`` so far); telemetry only."""

    index: int
    attempts: int


@dataclass(frozen=True)
class Speculate:
    index: int


@dataclass(frozen=True)
class Quarantine:
    label: str


@dataclass(frozen=True)
class Shutdown:
    """The sweep is over: say so, then drop the connection."""

    worker: int


@dataclass(frozen=True)
class Close:
    """The worker went silent: drop the connection without a word."""

    worker: int


@dataclass(frozen=True)
class Deliver:
    index: int
    result: object = field(repr=False, compare=False)


@dataclass(frozen=True)
class Fail:
    reason: str
    #: No worker ever registered: the one failure a backend may degrade
    #: from by running every job locally, since nothing was delivered.
    no_workers: bool = False


class _Job:
    __slots__ = ("index", "payload", "attempts", "not_before", "speculated")

    def __init__(self, index: int, payload: object, attempts: int = 0,
                 speculated: bool = False):
        self.index = index
        self.payload = payload
        self.attempts = attempts
        #: Earliest time this copy may be dealt (retry backoff).
        self.not_before = 0.0
        #: True once a speculative copy exists (one per job).
        self.speculated = speculated


class _Worker:
    __slots__ = ("label", "seen", "job", "started")

    def __init__(self, label: str, now: float):
        self.label = label
        #: Time of the worker's last frame (liveness).
        self.seen = now
        self.job: _Job | None = None
        #: When :attr:`job` was assigned (straggler deadline).
        self.started = now


class Dispatcher:
    """One sweep's dispatch policy, fed ``(now, event)``, returning actions.

    A job lost with its worker (disconnect or heartbeat silence) is
    re-queued after a seeded backoff until it fails ``max_retries + 1``
    times.  A job in flight ``job_deadline`` past its assignment gets one
    speculative copy, queued ahead of every job not yet dealt; the first
    result delivers, later copies are dropped.  ``quarantine_threshold`` losses on one worker label inside
    ``quarantine_window`` stop that label being dealt jobs for
    ``quarantine_cooldown``.  With no worker registered for
    ``registration_timeout`` (counted from the start, or from the last
    departure) the sweep fails.
    """

    def __init__(
        self,
        jobs,
        now: float,
        *,
        rng,
        registration_timeout: float,
        heartbeat_timeout: float,
        max_retries: int,
        job_deadline: float | None,
        retry_backoff: tuple[float, float],
        quarantine_threshold: int,
        quarantine_window: float,
        quarantine_cooldown: float,
    ):
        self.registration_timeout = registration_timeout
        self.heartbeat_timeout = heartbeat_timeout
        self.max_retries = max_retries
        self.job_deadline = job_deadline
        self.retry_backoff = retry_backoff
        self.quarantine_threshold = quarantine_threshold
        self.quarantine_window = quarantine_window
        self.quarantine_cooldown = quarantine_cooldown
        self._rng = rng
        self._pending = [_Job(index, payload) for index, payload in jobs]
        self._total = len(self._pending)
        self._delivered: set[int] = set()
        #: Registered workers in registration order (the dealing order).
        self._workers: dict[int, _Worker] = {}
        self._failures: dict[str, list[float]] = {}
        self._quarantine_until: dict[str, float] = {}
        #: When the worker count last dropped to zero (or the start).
        self._idle_since = now
        self._registered = 0
        self.finished = False

    # ------------------------------------------------------------------
    def handle(self, now: float, event) -> list:
        """Apply one event at time ``now``; return the actions it causes."""
        out: list = []
        if self.finished:
            return out
        if isinstance(event, Register):
            self._workers[event.worker] = _Worker(event.label, now)
            self._registered += 1
        elif not isinstance(event, Tick) and event.worker in self._workers:
            # (a frame from a connection already dropped changes nothing)
            worker = self._workers[event.worker]
            worker.seen = now
            if isinstance(event, Result):
                self._result(worker, event, out)
            elif isinstance(event, Error):
                self._finish(out, Fail(
                    f"point {event.index} raised on the worker:\n{event.error}"
                ))
            elif isinstance(event, Disconnect):
                self._lost(event.worker, now, "disconnected", out)
        if not self.finished:
            self._advance(now, out)
        return out

    def next_wake(self, now: float) -> float | None:
        """The earliest time a deadline falls due (``None``: only a frame
        can change anything)."""
        if self.finished:
            return None
        times = [w.seen + self.heartbeat_timeout for w in self._workers.values()]
        if self.job_deadline is not None:
            times += [
                w.started + self.job_deadline
                for w in self._workers.values()
                if self._may_speculate(w.job)
            ]
        times += [job.not_before for job in self._pending if job.not_before > now]
        times += [t for t in self._quarantine_until.values() if t > now]
        if not self._workers:
            times.append(self._idle_since + self.registration_timeout)
        return min(times) if times else None

    # ------------------------------------------------------------------
    def _result(self, worker: _Worker, event: Result, out: list) -> None:
        job = worker.job
        if job is None or job.index != event.index:
            return  # a stale id: the protocol is one job at a time
        worker.job = None
        if job.index not in self._delivered:
            self._delivered.add(job.index)
            out.append(Deliver(job.index, event.result))

    def _lost(self, wid: int, now: float, why: str, out: list) -> None:
        worker = self._workers.pop(wid)
        if not self._workers:
            self._idle_since = now
        job = worker.job
        if job is not None and job.index not in self._delivered:
            self._note_failure(worker.label, now, out)
            self._requeue(job, now, f"{why} on {worker.label}", out)

    def _requeue(self, job: _Job, now: float, why: str, out: list) -> None:
        job.attempts += 1
        out.append(Requeue(job.index, job.attempts))
        if job.attempts > self.max_retries:
            self._finish(out, Fail(
                f"point {job.index} failed {job.attempts} times (last: {why})"
            ))
            return
        base, cap = self.retry_backoff
        job.not_before = now + backoff_delay(base, cap, job.attempts - 1,
                                             self._rng)
        self._pending.append(job)

    def _note_failure(self, label: str, now: float, out: list) -> None:
        cutoff = now - self.quarantine_window
        window = [t for t in self._failures.get(label, []) if t >= cutoff]
        window.append(now)
        if (
            len(window) >= self.quarantine_threshold
            and self._quarantine_until.get(label, 0.0) <= now
        ):
            self._quarantine_until[label] = now + self.quarantine_cooldown
            out.append(Quarantine(label))
            window = []
        self._failures[label] = window

    def _may_speculate(self, job: _Job | None) -> bool:
        return (
            job is not None
            and not job.speculated
            and job.index not in self._delivered
        )

    def _advance(self, now: float, out: list) -> None:
        """Every deadline, then dealing, then the end-of-sweep checks."""
        for wid, worker in list(self._workers.items()):
            if now >= worker.seen + self.heartbeat_timeout:
                out.append(Close(wid))
                self._lost(wid, now, "heartbeat timeout", out)
                if self.finished:
                    return
        if self.job_deadline is not None:
            for worker in self._workers.values():
                job = worker.job
                if (
                    self._may_speculate(job)
                    and now >= worker.started + self.job_deadline
                ):
                    job.speculated = True
                    # At the head: the copy exists to beat a straggler,
                    # so it must not wait behind jobs not yet dealt.
                    copy = _Job(job.index, job.payload, job.attempts, True)
                    self._pending.insert(0, copy)
                    out.append(Speculate(job.index))
        for wid, worker in self._workers.items():
            if worker.job is not None:
                continue
            if self._quarantine_until.get(worker.label, 0.0) > now:
                continue
            job = self._take(now)
            if job is None:
                break
            worker.job, worker.started = job, now
            out.append(Assign(wid, job.index, job.payload))
        if len(self._delivered) == self._total:
            self._finish(out)
        elif (
            not self._workers
            and now >= self._idle_since + self.registration_timeout
        ):
            if self._registered == 0:
                reason = (
                    "no worker registered within "
                    f"{self.registration_timeout:.0f}s"
                )
            else:
                reason = (
                    f"all {self._registered} registered workers left and "
                    f"none returned within {self.registration_timeout:.0f}s;"
                    " jobs remain unfinished"
                )
            self._finish(out, Fail(reason, no_workers=self._registered == 0))

    def _take(self, now: float) -> _Job | None:
        """The first pending copy past its backoff; drops delivered ones."""
        self._pending = [
            job for job in self._pending if job.index not in self._delivered
        ]
        for i, job in enumerate(self._pending):
            if job.not_before <= now:
                return self._pending.pop(i)
        return None

    def _finish(self, out: list, fail: Fail | None = None) -> None:
        out.extend(Shutdown(wid) for wid in self._workers)
        self._workers.clear()
        if fail is not None:
            out.append(fail)
        self.finished = True
