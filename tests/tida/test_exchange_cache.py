"""TileArray caches its ghost-exchange geometry; the cache must be invisible.

``exchange_pairs`` computes each region's (source, source box,
destination box) triples once per ``(rid, periodic)``.  Every call must
still return what the uncached generators compute, as a fresh list
whose sources are this array's own ``Region`` objects.
"""

import pytest

from repro.tida.boundary import Neumann, domain_faces
from repro.tida.tile_array import TileArray

LAYOUTS = {
    "slab-3d": dict(domain=(12, 6, 5), n_regions=4, ghost=1),
    "slab-uneven": dict(domain=(100, 3), n_regions=7, ghost=(2, 1)),
    "grid-3d": dict(domain=(8, 8, 8), region_shape=(4, 4, 4), ghost=1),
    "grid-2d-edges": dict(domain=(10, 7), region_shape=(4, 3), ghost=2),
    "grid-1-region": dict(domain=(6, 6), region_shape=(6, 6), ghost=1),
    "grid-axis-ghost": dict(domain=(6, 9, 4), region_shape=(3, 3, 4), ghost=(1, 0, 2)),
}


def fresh_pairs(ta, region, periodic):
    pairs = list(ta._exchange_pairs(region))
    if periodic:
        pairs.extend(ta._periodic_pairs(region))
    return pairs


@pytest.fixture(params=sorted(LAYOUTS), ids=sorted(LAYOUTS))
def tile_array(request):
    spec = dict(LAYOUTS[request.param])
    return TileArray(spec.pop("domain"), **spec)


@pytest.mark.parametrize("periodic", [False, True], ids=["open", "periodic"])
def test_cached_pairs_equal_fresh_ones(tile_array, periodic):
    for region in tile_array.regions:
        first = tile_array.exchange_pairs(region, periodic=periodic)
        second = tile_array.exchange_pairs(region, periodic=periodic)
        assert first == fresh_pairs(tile_array, region, periodic)
        assert second == first and second is not first
        for (a, *_), (b, *_) in zip(first, second):
            assert a is b is tile_array.regions[a.rid]


def test_periodic_and_open_are_cached_apart(tile_array):
    for region in tile_array.regions:
        open_ = tile_array.exchange_pairs(region)
        wrapped = tile_array.exchange_pairs(region, periodic=True)
        assert wrapped[:len(open_)] == open_
        assert tile_array.exchange_pairs(region) == open_


def test_mutating_a_returned_list_does_not_leak(tile_array):
    region = tile_array.regions[0]
    pairs = tile_array.exchange_pairs(region, periodic=True)
    expected = list(pairs)
    pairs.clear()
    assert tile_array.exchange_pairs(region, periodic=True) == expected


def test_foreign_region_is_computed_not_cached():
    """A region that is not this array's own gets its own geometry."""
    narrow = TileArray((12, 6), n_regions=3, ghost=1)
    wide = TileArray((12, 6), n_regions=3, ghost=2)
    for region in narrow.regions:
        wide.exchange_pairs(wide.regions[region.rid])     # fill wide's cache
        assert wide.exchange_pairs(region) == fresh_pairs(wide, region, False)
        assert wide.exchange_pairs(region) != wide.exchange_pairs(
            wide.regions[region.rid])


def test_domain_faces_cache_matches_fresh():
    ta = TileArray((8, 6, 6), region_shape=(4, 3, 6), ghost=1, fill=1.0)
    for region in ta.regions:
        faces = ta._geometry(region, "faces", lambda: domain_faces(region, ta.domain))
        assert list(faces) == domain_faces(region, ta.domain)
        expected = 8 * (
            sum(src.size for _r, src, _dst in fresh_pairs(ta, region, False))
            + sum(ghost.size for _a, _s, ghost, _src in domain_faces(region, ta.domain))
        )
        for _ in range(2):      # filling, then hitting the cache
            assert ta.fill_region_ghosts(region, Neumann()) == expected
