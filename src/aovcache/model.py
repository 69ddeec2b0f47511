"""Shared parameter and state types for the caching solvers and simulator.

Conventions used throughout the package:

* time is continuous (float); queue lengths are nonnegative ints,
* a content's request process is Poisson with rate ``p * beta`` where
  ``beta`` is the aggregate request rate,
* ``tau`` always means "time since the cached copy was last fetched";
  the expected age-of-version of a copy is ``lam * tau``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "CostModel",
    "ContentParams",
    "SystemParams",
    "SingleContentState",
    "CacheSystemState",
    "Diagnostic",
    "zipf_popularity",
    "validate",
]


@dataclass(frozen=True)
class CostModel:
    """Per-content cost rates.

    c_a: ageing cost per unit age-of-version served
    c_f: cost per fetch from the backend
    c_w: waiting cost per queued request per unit time

    The holding cost C_h is not among them: it is the dual variable of
    the capacity constraint, an argument of the solvers.
    """

    c_a: float
    c_f: float
    c_w: float


@dataclass(frozen=True)
class ContentParams:
    """One content: update rate, popularity and its cost rates."""

    lam: float          # server-side update rate (Poisson)
    p: float            # request probability, in (0, 1]
    costs: CostModel


@dataclass(frozen=True)
class SystemParams:
    """Full system: aggregate request rate, contents, cache capacity."""

    beta: float
    contents: tuple[ContentParams, ...]
    M: int

    @property
    def N(self) -> int:
        return len(self.contents)

    def popularity(self) -> np.ndarray:
        return np.array([c.p for c in self.contents])


@dataclass(frozen=True)
class SingleContentState:
    """State of one content as seen by the single-content solvers.

    Q: pending requests, tau: time since last fetch (0 and meaningless
    when not cached), cached/requested: the two status flags.
    """

    Q: int
    tau: float
    cached: bool
    requested: bool

    def __post_init__(self):
        if self.Q < 0:
            raise ValueError("queue length must be nonnegative")
        if not self.cached and self.tau != 0.0:
            raise ValueError("tau must be stored as 0 for uncached states")


@dataclass(frozen=True)
class Diagnostic:
    name: str
    message: str

    def __str__(self) -> str:
        return f"{self.name}: {self.message}"


def zipf_popularity(N: int, alpha: float) -> np.ndarray:
    """Popularity vector p_n proportional to 1/n**alpha, normalized to 1."""
    if N < 1:
        raise ValueError("N must be >= 1")
    if alpha < 0:
        raise ValueError("alpha must be >= 0")
    n = np.arange(1, N + 1, dtype=float)
    w = n ** (-alpha)
    p = w / w.sum()
    # renormalize once more; for N ~ 1e6 the first pass can be off by ~1e-13
    return p / p.sum()


def validate(system: SystemParams) -> list[Diagnostic]:
    """Check every type invariant; returns all violations, not just the first.

    Each check states what a valid value satisfies, so NaN (false in every
    comparison) and infinity fail it.  A per-content violation is reported
    once, with the number of contents it covers and the first of them.
    """
    out: list[Diagnostic] = []
    if not 0 < system.beta < math.inf:
        out.append(Diagnostic("beta", "aggregate request rate must be finite and > 0"))
    if system.N == 0:
        out.append(Diagnostic("contents", "at least one content is required"))
    if not (0 <= system.M < max(system.N, 1)):
        out.append(Diagnostic("capacity", "capacity must be < N and >= 0"))
    psum = 0.0
    bad: dict[tuple[str, str], list[int]] = {}  # (field, message) -> [count, first]
    for i, c in enumerate(system.contents):
        psum += c.p
        cm = c.costs
        for name, ok, what in (
            ("lambda", 0 < c.lam < math.inf, "update rate must be finite and > 0"),
            ("popularity", 0 < c.p <= 1, "p must be in (0, 1]"),
            ("c_a", 0 < cm.c_a < math.inf, "ageing cost must be finite and > 0"),
            ("c_f", 0 < cm.c_f < math.inf, "fetch cost must be finite and > 0"),
            ("c_w", 0 < cm.c_w < math.inf, "waiting cost must be finite and > 0"),
        ):
            if not ok:
                bad.setdefault((name, what), [0, i])[0] += 1
    for (name, what), (count, first) in bad.items():
        where = f"content {first}" if count == 1 else f"{count} contents (first {first})"
        out.append(Diagnostic(name, f"{where}: {what}"))
    if system.N and not abs(psum - 1.0) <= 1e-9:
        out.append(Diagnostic("popularity", f"popularity must sum to 1 (got {psum!r})"))
    return out


class OccupancyError(RuntimeError):
    """Cache set size deviated from the capacity M."""


class CacheSystemState:
    """Mutable state of one simulated cache, confined to a single run.

    Tracks, per content: pending queue Q^n, last fetch time (tau^n is
    ``t - fetch_time[n]``), and the realized age-of-version V^n sampled
    lazily from the update process.  The cache is the set ``cache_set``,
    with exactly M members at every decision epoch once initialized; no
    decision rule depends on the order of its members.  An infinite cache
    is the set of all N contents, at capacity N.
    """

    def __init__(self, n_contents: int, capacity: int, c_w: np.ndarray | list[float]):
        self.N = n_contents
        self.M = capacity
        self.t = 0.0
        self.queue = [0] * n_contents
        self.fetch_time = [0.0] * n_contents
        self.aov = [0] * n_contents          # realized version age, lazily updated
        self.aov_time = [0.0] * n_contents   # time V^n was last synchronized
        self._c_w = [float(x) for x in c_w]
        self.total_queue = 0                 # sum of all Q^n
        self.queue_cost_rate = 0.0           # sum of c_w^n * Q^n
        self.cache_set = set(range(min(capacity, n_contents)))

    def preload(self, ids) -> None:
        """Replace the initial cache fill (e.g. with the top-M popular ids)."""
        ids = set(ids)
        if len(ids) != self.M:
            raise OccupancyError(f"preload with {len(ids)} ids, capacity {self.M}")
        self.cache_set = ids

    def check_occupancy(self) -> None:
        if len(self.cache_set) != self.M:
            raise OccupancyError(
                f"cache holds {len(self.cache_set)} contents, expected {self.M}"
            )

    def tau(self, n: int) -> float:
        return self.t - self.fetch_time[n]

    # -- queue bookkeeping ------------------------------------------------

    def _clear_queue(self, n: int) -> int:
        q = self.queue[n]
        if q:
            self.queue[n] = 0
            self.total_queue -= q
            self.queue_cost_rate -= self._c_w[n] * q
        return q

    # -- action semantics -------------------------------------------------

    def apply_serve(self, n: int) -> int:
        """Serve the cached copy; returns the number of requests served."""
        q = self._clear_queue(n)
        return q + 1

    def apply_wait(self, n: int) -> None:
        self.queue[n] += 1
        self.total_queue += 1
        self.queue_cost_rate += self._c_w[n]

    def apply_fetch(self, n: int, cache: bool, evict: int | None = None) -> int:
        """Fetch a fresh copy and serve; optionally cache it, evicting ``evict``.

        Returns the number of requests served.  tau and the realized
        age reset only here.
        """
        q = self._clear_queue(n)
        was_cached = n in self.cache_set
        if cache or was_cached:
            self.fetch_time[n] = self.t
            self.aov[n] = 0
            self.aov_time[n] = self.t
        if cache and not was_cached:
            if evict is None or evict not in self.cache_set:
                raise OccupancyError("caching a new content requires evicting a cached one")
            self.cache_set.discard(evict)
            self.cache_set.add(n)
        return q + 1

    # -- realized age-of-version ------------------------------------------

    def realized_aov(self, n: int, lam: float, rng) -> int:
        """Synchronize and return V^n at the current time."""
        dt = self.t - self.aov_time[n]
        if dt > 0:
            self.aov[n] += int(rng.poisson(lam * dt))
            self.aov_time[n] = self.t
        return self.aov[n]
