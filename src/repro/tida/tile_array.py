"""tileArray: allocation, partitioning, and host-side ghost exchange (§IV-A).

``TileArray`` allocates one buffer per region (physically separated, as
TiDA requires), partitions the domain, and performs the CPU side of
ghost-cell updates.  In TiDA-acc mode the allocations are CUDA pinned
host memory (``cudaMallocHost``), which §II-C found necessary both for
transfer bandwidth and for stream overlap.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable

import numpy as np

from ..cuda.runtime import CudaRuntime
from ..errors import TidaError
from ..sim.hostmem import HostBuffer
from .boundary import BoundaryCondition, domain_faces
from .box import Box
from .decomposition import Decomposition
from .region import Region
from .tile import Tile


class TileArray:
    """A domain-decomposed array: one allocation per region, plus ghosts.

    Parameters
    ----------
    domain:
        The global index box (or a plain shape tuple).
    region_shape / n_regions:
        Either an explicit region shape (grid decomposition) or a region
        count for slab decomposition along ``axis`` (the paper's setup).
    ghost:
        Ghost width (int or per-axis tuple).
    runtime:
        When given, allocations go through the simulated CUDA runtime —
        pinned (``cudaMallocHost``) if ``pinned=True``, pageable otherwise
        — and host-side ghost exchanges are charged to the virtual clock.
    """

    def __init__(
        self,
        domain: Box | tuple[int, ...],
        *,
        region_shape: tuple[int, ...] | None = None,
        n_regions: int | None = None,
        axis: int = 0,
        ghost: int | tuple[int, ...] = 0,
        dtype: Any = np.float64,
        runtime: CudaRuntime | None = None,
        pinned: bool = True,
        fill: float | None = None,
        label: str = "",
    ) -> None:
        if not isinstance(domain, Box):
            domain = Box.from_shape(tuple(domain))
        if (region_shape is None) == (n_regions is None):
            raise TidaError("give exactly one of region_shape or n_regions")
        if region_shape is not None:
            self.decomposition = Decomposition(domain=domain, region_shape=region_shape)
        else:
            self.decomposition = Decomposition.by_count(domain, n_regions, axis=axis)
        self.domain = domain
        self.dtype = np.dtype(dtype)
        self.runtime = runtime
        self.pinned = bool(pinned)
        self.label = label or "tilearray"
        if isinstance(ghost, int):
            ghost = (ghost,) * domain.ndim
        self.ghost = tuple(int(g) for g in ghost)

        self.regions: list[Region] = []
        #: (rid, what) -> ghost-exchange geometry of one of this array's
        #: regions; domain, decomposition and ghost width never change
        self._geometry_cache: dict[tuple[int, Any], tuple[Any, ...]] = {}
        for rid, box in enumerate(self.decomposition.boxes):
            region = Region(rid, box, self.ghost, data=None, label=f"{self.label}.r{rid}")
            data = self._allocate(region.local_shape, fill, region.label)
            region.data = data
            self.regions.append(region)

    def _allocate(self, shape: tuple[int, ...], fill: float | None, label: str) -> HostBuffer:
        if self.runtime is None:
            return HostBuffer(shape, self.dtype, pinned=self.pinned, fill=fill, label=label)
        if self.pinned:
            return self.runtime.malloc_pinned(shape, self.dtype, fill=fill, label=label)
        return self.runtime.malloc_pageable(shape, self.dtype, fill=fill, label=label)

    # -- basic queries -----------------------------------------------------

    @property
    def n_regions(self) -> int:
        return len(self.regions)

    @property
    def functional(self) -> bool:
        return self.regions[0].data.functional

    def region(self, rid: int) -> Region:
        if not 0 <= rid < self.n_regions:
            raise TidaError(f"region id {rid} out of range [0, {self.n_regions})")
        return self.regions[rid]

    def compatible_with(self, other: "TileArray") -> bool:
        """Same domain, decomposition and ghost (required to iterate together)."""
        return (
            self.domain == other.domain
            and self.decomposition.boxes == other.decomposition.boxes
            and self.ghost == other.ghost
        )

    # -- tiles -----------------------------------------------------------------

    def tiles(self, tile_shape: tuple[int, ...] | None = None) -> list[Tile]:
        """All tiles, region-major.

        Without ``tile_shape`` there is one tile per region — the
        recommended GPU configuration (§V: multiple tiles per region mean
        multiple kernel launches).
        """
        out: list[Tile] = []
        for region in self.regions:
            if tile_shape is None:
                out.append(Tile(region, region.box, self))
                continue
            sub = Decomposition(domain=region.box, region_shape=tile_shape)
            out.extend(Tile(region, b, self) for b in sub.boxes)
        return out

    # -- data movement between arrays -------------------------------------------

    def swap_data(self, other: "TileArray") -> None:
        """Exchange backing buffers with ``other`` (the old/new swap of a
        time-stepping loop). Host-side only; TiDA-acc's TileAcc has its own
        swap that also exchanges device bindings."""
        if not self.compatible_with(other):
            raise TidaError("cannot swap incompatible tile arrays")
        for a, b in zip(self.regions, other.regions):
            a.data, b.data = b.data, a.data

    # -- functional whole-array helpers (tests, examples) -------------------------

    def to_global(self) -> np.ndarray:
        """Gather all region interiors into one global array (functional mode)."""
        out = np.empty(self.domain.shape, dtype=self.dtype)
        for region in self.regions:
            out[region.box.slices(origin=self.domain.lo)] = region.interior
        return out

    def from_global(self, arr: np.ndarray) -> None:
        """Scatter a global array into the region interiors (functional mode)."""
        arr = np.asarray(arr, dtype=self.dtype)
        if tuple(arr.shape) != self.domain.shape:
            raise TidaError(
                f"global array shape {arr.shape} != domain shape {self.domain.shape}"
            )
        for region in self.regions:
            region.interior[...] = arr[region.box.slices(origin=self.domain.lo)]

    def set_all(self, value: float) -> None:
        for region in self.regions:
            region.array.fill(value)

    def apply(self, fn: Callable[[np.ndarray, Region], None]) -> None:
        """Run ``fn(interior_view, region)`` on every region (functional mode)."""
        for region in self.regions:
            fn(region.interior, region)

    # -- ghost exchange (host side) -------------------------------------------------

    def _exchange_pairs(self, region: Region) -> Iterable[tuple[Region, Box, Box]]:
        """(source region, source global box, destination global box) triples
        that fill ``region``'s ghost cells from neighbour interiors,
        including periodic images when the BC is periodic."""
        for nid in self.decomposition.covering(region.grown):
            if nid == region.rid:
                continue
            src = self.regions[nid]
            overlap = region.grown.intersect(src.box)
            if not overlap.is_empty:
                yield src, overlap, overlap

    def _periodic_pairs(self, region: Region) -> Iterable[tuple[Region, Box, Box]]:
        extents = self.domain.shape
        ndim = self.domain.ndim
        shifts: list[tuple[int, ...]] = []

        def build(axis: int, current: tuple[int, ...]) -> None:
            if axis == ndim:
                if any(s != 0 for s in current):
                    shifts.append(current)
                return
            for s in (-extents[axis], 0, extents[axis]):
                build(axis + 1, current + (s,))

        build(0, ())
        for shift in shifts:
            probe = region.grown.shift(shift)
            for nid in self.decomposition.covering(probe):
                src = self.regions[nid]
                overlap = probe.intersect(src.box)
                if not overlap.is_empty:
                    # data at overlap (in src's frame) lands at overlap
                    # shifted back into region's ghost frame
                    yield src, overlap, overlap.shift(tuple(-s for s in shift))

    def _geometry(
        self, region: Region, what: Any, compute: Callable[[], Iterable[Any]]
    ) -> tuple[Any, ...]:
        """``tuple(compute())``, computed once per ``(rid, what)`` for this
        array's own regions (and afresh for any other region)."""
        if not (0 <= region.rid < len(self.regions)
                and self.regions[region.rid] is region):
            return tuple(compute())
        key = (region.rid, what)
        geometry = self._geometry_cache.get(key)
        if geometry is None:
            geometry = self._geometry_cache[key] = tuple(compute())
        return geometry

    def exchange_pairs(
        self, region: Region, *, periodic: bool = False
    ) -> list[tuple[Region, Box, Box]]:
        """All (source, source box, destination box) triples filling
        ``region``'s ghosts, with periodic images when requested.

        The boxes are computed once per region; each call returns a
        fresh list.
        """
        def compute() -> Iterable[tuple[int, Box, Box]]:
            pairs = list(self._exchange_pairs(region))
            if periodic:
                pairs.extend(self._periodic_pairs(region))
            return ((src.rid, src_box, dst_box) for src, src_box, dst_box in pairs)

        regions = self.regions
        return [
            (regions[rid], src_box, dst_box)
            for rid, src_box, dst_box in self._geometry(region, bool(periodic), compute)
        ]

    def fill_region_ghosts(self, region: Region, bc: BoundaryCondition | None = None) -> int:
        """Fill one region's ghosts from neighbour host data; returns bytes
        copied (the caller charges host time).  Used by both the whole-array
        host path and the hybrid updater's per-region fallback."""
        itemsize = self.dtype.itemsize
        functional = self.functional
        bytes_copied = 0
        periodic = bc is not None and bc.is_periodic
        for src, src_box, dst_box in self.exchange_pairs(region, periodic=periodic):
            bytes_copied += src_box.size * itemsize
            if functional:
                region.view(dst_box)[...] = src.view(src_box)
        if bc is not None and not bc.is_periodic:
            faces = self._geometry(
                region, "faces", lambda: domain_faces(region, self.domain)
            )
            for _axis, _side, ghost_box, src_box in faces:
                bytes_copied += ghost_box.size * itemsize
                if functional:
                    bc.fill_face(region.view(ghost_box), region.view(src_box))
        return bytes_copied

    def fill_boundary(self, bc: BoundaryCondition | None = None) -> None:
        """Update every region's ghost cells on the host (plain TiDA path).

        Internal faces copy from neighbour interiors; domain faces apply
        ``bc`` (periodic BCs wrap through shifted neighbour images).
        Charged to the virtual host clock when a runtime is attached.
        """
        if all(g == 0 for g in self.ghost):
            return
        bytes_copied = 0
        for region in self.regions:
            bytes_copied += self.fill_region_ghosts(region, bc)
        if self.runtime is not None and bytes_copied:
            # read + write traffic through the host memory system
            duration = 2 * bytes_copied / self.runtime.machine.cpu.mem_bandwidth
            self.runtime.host_compute(f"fill_boundary:{self.label}", duration, nbytes=bytes_copied)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TileArray({self.label}, domain={self.domain.shape}, "
            f"regions={self.n_regions}, ghost={self.ghost})"
        )
