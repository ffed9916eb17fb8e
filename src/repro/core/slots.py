"""Device memory slots and slot allocation (§IV-B.1).

TileAcc keeps a list of device memory pointers, each with a CUDA stream
assigned to it, and the cache list (:attr:`DeviceSlot.bound`) records
which region's data currently occupies each slot (-1 when empty) — the
§IV-B.4 caching structure.

The paper fixes the mapping at ``region_id % n_slots`` (direct-mapped):
two regions that alias the same slot evict each other even while other
slots sit empty.  Here the mapping is *associative*: any region can
occupy any free slot, and a pluggable :class:`EvictionPolicy` decides
which occupant to displace when nothing is free.

Policies:

* ``"lru"`` (default) — evict the least-recently-accessed occupant;
* ``"lookahead"`` — Belady-style: given the traversal schedule a
  :class:`~repro.tida.tile_iterator.TileIterator` knows, evict the
  occupant whose next use lies farthest in the future (never-used-again
  occupants first, most-recently-used among them — the optimal
  tie-break for cyclic sweeps);
* ``"modulo"`` — the paper's fixed ``rid % n_slots`` mapping, kept for
  fidelity experiments.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

from ..cuda.stream import Stream
from ..errors import TileAccError
from ..sim.device import DeviceBuffer

#: Region-location markers for the last-accessed-address-space cache (§III).
HOST = "host"
DEVICE = "device"

#: The cache-list value meaning "no region's data is in this slot" (§IV-B.4).
EMPTY = -1


class DeviceSlot:
    """One device memory pointer + its assigned CUDA stream."""

    __slots__ = ("index", "queue_id", "stream", "buffer", "bound")

    def __init__(self, index: int, queue_id: int, stream: Stream) -> None:
        self.index = index
        self.queue_id = queue_id      # OpenACC async value backing `stream`
        self.stream = stream
        self.buffer: DeviceBuffer | None = None
        self.bound: int = EMPTY       # region id occupying the slot, or EMPTY

    @property
    def is_empty(self) -> bool:
        return self.bound == EMPTY

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DeviceSlot({self.index}, bound={self.bound}, queue={self.queue_id})"


# ---------------------------------------------------------------------------
# Eviction policies
# ---------------------------------------------------------------------------

class EvictionPolicy:
    """Victim selection for an associative slot pool.

    The pool tells the policy about accesses (:meth:`note_access`) and —
    for schedule-aware policies — about the iterator's remaining
    traversal order (:meth:`set_schedule`).  :meth:`choose_victim` picks
    one occupant region id out of ``candidates`` to displace;
    :meth:`prefetch_victim` is the conservative variant used when the
    displacement is speculative (a prefetch, not a demand miss) and may
    return ``None`` to decline.
    """

    name = "base"

    def note_access(self, rid: int) -> None:  # pragma: no cover - trivial default
        pass

    def set_schedule(self, rids: Sequence[int]) -> None:  # pragma: no cover
        pass

    def choose_victim(self, candidates: Sequence[int]) -> int:
        raise NotImplementedError

    def prefetch_victim(self, candidates: Sequence[int], rid: int) -> int | None:
        """Occupant a *prefetch* of ``rid`` may displace (``None``: don't)."""
        return None


class LruPolicy(EvictionPolicy):
    """Least-recently-used: evict the occupant whose last access is oldest."""

    name = "lru"

    def __init__(self) -> None:
        self._tick = 0
        self._last: dict[int, int] = {}

    def note_access(self, rid: int) -> None:
        self._tick += 1
        self._last[rid] = self._tick

    def choose_victim(self, candidates: Sequence[int]) -> int:
        return min(candidates, key=lambda rid: self._last.get(rid, -1))


class LookaheadPolicy(EvictionPolicy):
    """Belady-style eviction, optimal given a known traversal order.

    :meth:`set_schedule` receives the iterator's remaining region order
    (current region first) before every placement decision, so
    ``next use`` is exact within the current sweep.  Occupants absent
    from the schedule count as never-used-again and go first; among
    those, the *most* recently used is evicted — for a cyclic sweep the
    least-recently-used occupant is the one coming back soonest, so MRU
    is the optimal tie-break.
    """

    name = "lookahead"

    def __init__(self) -> None:
        self._tick = 0
        self._last: dict[int, int] = {}
        self._next: dict[int, int] = {}

    def note_access(self, rid: int) -> None:
        self._tick += 1
        self._last[rid] = self._tick

    def set_schedule(self, rids: Sequence[int]) -> None:
        nxt: dict[int, int] = {}
        for i, rid in enumerate(rids):
            if rid not in nxt:
                nxt[rid] = i
        self._next = nxt

    def _next_use(self, rid: int) -> float:
        return self._next.get(rid, float("inf"))

    def choose_victim(self, candidates: Sequence[int]) -> int:
        return max(
            candidates,
            key=lambda rid: (self._next_use(rid), self._last.get(rid, -1)),
        )

    def prefetch_victim(self, candidates: Sequence[int], rid: int) -> int | None:
        victim = self.choose_victim(candidates)
        # only displace data that is needed strictly later than the
        # prefetched region (or never again); otherwise the prefetch
        # would thrash with demand accesses
        if self._next_use(victim) > self._next_use(rid):
            return victim
        return None


class ModuloPolicy(EvictionPolicy):
    """The paper's fixed direct-mapped ``rid % n_slots`` assignment."""

    name = "modulo"

    def choose_victim(self, candidates: Sequence[int]) -> int:  # pragma: no cover
        # never consulted: SlotPool.place short-circuits for modulo
        return candidates[0]


_POLICIES: dict[str, type[EvictionPolicy]] = {
    "lru": LruPolicy,
    "lookahead": LookaheadPolicy,
    "modulo": ModuloPolicy,
}


def make_policy(policy: str | EvictionPolicy) -> EvictionPolicy:
    """Instantiate an eviction policy from its name (or pass one through)."""
    if isinstance(policy, EvictionPolicy):
        return policy
    try:
        cls = _POLICIES[policy]
    except KeyError:
        raise TileAccError(
            f"unknown eviction policy {policy!r}; have {sorted(_POLICIES)}"
        ) from None
    return cls()


# ---------------------------------------------------------------------------
# The associative pool
# ---------------------------------------------------------------------------

class SlotPool:
    """Associative region→slot allocation over a fixed slot list.

    ``slot.bound`` stays the single source of truth for occupancy (the
    paper's cache list); the pool only *decides* placements.  A slot is
    *free* for placement when it is empty or *stale* — bound to a region
    whose current data lives on the host, so displacing it moves no
    data.  ``is_resident(rid)`` supplies that distinction.
    """

    def __init__(
        self,
        slots: Sequence[DeviceSlot],
        policy: EvictionPolicy,
        is_resident: Callable[[int], bool],
    ) -> None:
        self.slots = list(slots)
        self.policy = policy
        self._is_resident = is_resident

    def slot_of(self, rid: int) -> DeviceSlot | None:
        """The slot currently bound to ``rid``, or ``None``."""
        for slot in self.slots:
            if slot.bound == rid:
                return slot
        return None

    def _free_slot(self, rid: int) -> DeviceSlot | None:
        """Bound-to-rid, empty, or stale slot — a placement moving no data."""
        stale = None
        for slot in self.slots:
            if slot.bound == rid:
                return slot
            if slot.bound == EMPTY:
                return slot
            if stale is None and not self._is_resident(slot.bound):
                stale = slot
        return stale

    def place(self, rid: int, *, protect: Iterable[int] = ()) -> DeviceSlot:
        """The slot a demand request for ``rid`` should use.

        Preference order: the slot already bound to ``rid``, an empty
        slot, a stale slot, then the policy's victim.  ``protect`` lists
        region ids that should not be displaced (in-flight prefetches);
        when every occupant is protected the protection is waived —
        demand placement must always succeed.
        """
        if isinstance(self.policy, ModuloPolicy):
            return self.slots[rid % len(self.slots)]
        slot = self._free_slot(rid)
        if slot is not None:
            return slot
        protected = set(protect)
        occupants = [s.bound for s in self.slots]
        candidates = [r for r in occupants if r not in protected] or occupants
        victim = self.policy.choose_victim(candidates)
        slot = self.slot_of(victim)
        assert slot is not None
        return slot

    def place_for_prefetch(
        self, rid: int, *, protect: Iterable[int] = ()
    ) -> DeviceSlot | None:
        """The slot a *speculative* upload of ``rid`` may use, or ``None``.

        Free (empty/stale) slots are always fair game; displacing live
        data is delegated to the policy's :meth:`prefetch_victim`, which
        only schedule-aware policies implement.  Under the modulo policy
        the region's home slot is used only when free — displacing its
        occupant early would thrash with the demand stream.
        """
        protected = set(protect)
        if isinstance(self.policy, ModuloPolicy):
            slot = self.slots[rid % len(self.slots)]
            if slot.bound in (EMPTY, rid) or (
                slot.bound not in protected and not self._is_resident(slot.bound)
            ):
                return slot
            return None
        slot = self._free_slot(rid)
        if slot is not None and slot.bound in (EMPTY, rid):
            return slot
        if slot is not None and slot.bound not in protected:
            return slot
        candidates = [
            s.bound for s in self.slots
            if s.bound not in protected and self._is_resident(s.bound)
        ]
        if not candidates:
            return None
        victim = self.policy.prefetch_victim(candidates, rid)
        return self.slot_of(victim) if victim is not None else None


# ---------------------------------------------------------------------------
# Multi-tenant slot partitioning (repro.service QoS)
# ---------------------------------------------------------------------------

class SlotPartitioner:
    """Fair-share partitioning of a device slot budget across tenants.

    The multi-tenant service hands each admitted job a private
    :class:`SlotPool`, so isolation is structural; what tenants *compete*
    for is the total number of slots the device can back.  The
    partitioner turns fair-share weights into per-tenant slot quotas
    (largest-remainder apportionment, every tenant floored at one slot)
    and tracks live occupancy so admission control can cap a job's plan
    at its tenant's remaining quota and pick shedding victims when a
    priority tenant needs room.

    Occupancy accounting is in *slots*, the same unit
    :class:`~repro.core.tile_acc.TileAcc` sizes its pool in; byte budgets
    stay with admission control, which knows the per-job slot size.
    """

    def __init__(self, total_slots: int) -> None:
        if total_slots < 1:
            raise TileAccError(f"need at least one slot to partition, got {total_slots}")
        self.total_slots = int(total_slots)
        self._weights: dict[str, float] = {}
        self._priority: dict[str, bool] = {}
        self._held: dict[str, int] = {}
        self._quota: dict[str, int] = {}

    def add_tenant(self, tenant: str, weight: float = 1.0, *, priority: bool = False) -> None:
        if weight <= 0:
            raise TileAccError(f"tenant weight must be > 0, got {weight!r}")
        self._weights[tenant] = float(weight)
        self._priority[tenant] = bool(priority)
        self._held.setdefault(tenant, 0)
        self._recompute()

    def _recompute(self) -> None:
        """Largest-remainder apportionment of ``total_slots`` by weight.

        Every tenant gets at least one slot (a zero quota would starve it
        structurally, which QoS must never do); the remainder after the
        floor-of-share pass goes to the largest fractional parts, ties
        broken by registration order for determinism.
        """
        tenants = list(self._weights)
        if not tenants:
            return
        total_w = sum(self._weights.values())
        shares = {
            t: self.total_slots * self._weights[t] / total_w for t in tenants
        }
        quota = {t: max(1, int(shares[t])) for t in tenants}
        spare = self.total_slots - sum(quota.values())
        if spare > 0:
            by_remainder = sorted(
                tenants,
                key=lambda t: (-(shares[t] - int(shares[t])), tenants.index(t)),
            )
            for t in by_remainder[:spare]:
                quota[t] += 1
        self._quota = quota

    def tenants(self) -> tuple[str, ...]:
        return tuple(self._weights)

    def weight(self, tenant: str) -> float:
        return self._weights[tenant]

    def is_priority(self, tenant: str) -> bool:
        return self._priority[tenant]

    def quota(self, tenant: str) -> int:
        """This tenant's fair share of the slot budget, in slots."""
        return self._quota[tenant]

    def held(self, tenant: str) -> int:
        """Slots the tenant's admitted jobs currently occupy."""
        return self._held[tenant]

    def acquire(self, tenant: str, n_slots: int) -> None:
        if tenant not in self._weights:
            raise TileAccError(f"unknown tenant {tenant!r}")
        if n_slots < 0:
            raise TileAccError(f"cannot acquire {n_slots} slots")
        self._held[tenant] += n_slots

    def release(self, tenant: str, n_slots: int) -> None:
        if self._held.get(tenant, 0) < n_slots:
            raise TileAccError(
                f"tenant {tenant!r} releasing {n_slots} slots but holds "
                f"{self._held.get(tenant, 0)}"
            )
        self._held[tenant] -= n_slots

    def headroom(self, tenant: str) -> int:
        """Slots the tenant may still claim inside its quota (>= 0)."""
        return max(0, self._quota[tenant] - self._held[tenant])

    def shed_candidates(self, need: int, *, protect: Iterable[str] = ()) -> list[str]:
        """Best-effort tenants to shed slots from, most over-quota first.

        Returns one entry per slot to shed (a tenant may repeat) until
        ``need`` slots are covered or no best-effort tenant holds more
        than one slot.  Priority tenants and ``protect`` members are
        never shed.
        """
        protected = set(protect)
        held = dict(self._held)
        order: list[str] = []
        for _ in range(max(0, need)):
            victims = [
                t for t in self._weights
                if not self._priority[t] and t not in protected and held[t] > 1
            ]
            if not victims:
                break
            victim = max(
                victims,
                key=lambda t: (
                    held[t] - self._quota[t],
                    held[t],
                    -list(self._weights).index(t),
                ),
            )
            held[victim] -= 1
            order.append(victim)
        return order
