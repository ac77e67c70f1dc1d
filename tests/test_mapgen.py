import math

import pytest

from forkfleet import mapgen
from forkfleet.roadnet import dijkstra


class TestWarehouseMap:
    def test_default_shape(self):
        g = mapgen.warehouse_map()
        assert len(g.spots) == 8
        assert g.n_nodes() > 0

    @pytest.mark.parametrize("nx,ny", [(4, 3), (2, 2), (5, 4), (3, 1)])
    def test_strongly_connected(self, nx, ny):
        g = mapgen.warehouse_map(nx=nx, ny=ny, n_spots=2)
        d = dijkstra(g, 0)
        assert all(math.isfinite(x) for x in d)
        # and back to node 0 from everywhere
        for node in range(0, g.n_nodes(), 7):
            assert math.isfinite(dijkstra(g, node)[0])

    def test_spots_off_street(self):
        g = mapgen.warehouse_map()
        street_ys = {j * 20.0 for j in range(4)}
        for spot in g.spots:
            x, y = g.spot_anchor_xy(spot)
            assert y not in street_ys  # anchored on the spur stub, 5 m off

    def test_too_many_spots(self):
        with pytest.raises(ValueError):
            mapgen.warehouse_map(nx=2, ny=1, n_spots=50)

    def test_deterministic(self):
        a = mapgen.warehouse_map()
        b = mapgen.warehouse_map()
        assert [(w.x, w.y) for w in a.waypoints] == [(w.x, w.y) for w in b.waypoints]
        assert [(e.src, e.dst, e.length) for e in a.edges] == \
               [(e.src, e.dst, e.length) for e in b.edges]
