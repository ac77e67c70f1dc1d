"""Span tracing of forkfleet's layers, applied from outside the package.

Each layer is timed by replacing a public function at the module attribute
its callers look up (``density.dijkstra``, ``World.resolve_conflicts``, ...)
with a wrapper that records one span per call: name, start, end, parent
span and run id. Spans stay in compact in-memory arrays until the run ends.
The originals are put back after every traced pass, so untraced passes in
the same process run the unmodified code.
"""

from __future__ import annotations

import time
from array import array

from forkfleet import battery, cli, density, fleet_sim, placement

# (object holding the attribute, attribute name, layer name). A layer wrapped
# at several call sites (dijkstra is imported by density and placement)
# reports under one name.
LAYERS = [
    (cli, "load_roadnet", "roadnet.load_roadnet"),
    (cli, "read_csv", "trajectory.read_csv"),
    (cli, "write_csv", "trajectory.write_csv"),
    (cli, "replay", "fleet_sim.replay"),
    (fleet_sim.World, "run", "fleet_sim.run"),
    (fleet_sim.World, "step", "fleet_sim.step"),
    (fleet_sim.World, "resolve_conflicts", "fleet_sim.resolve_conflicts"),
    (fleet_sim, "astar", "roadnet.astar"),
    (fleet_sim, "nearest_node", "roadnet.nearest_node"),
    (fleet_sim, "sample_at", "trajectory.sample_at"),
    (battery, "segment_energy", "battery.segment_energy"),
    (battery, "integrate_trajectory", "battery.integrate_trajectory"),
    (battery, "calibrate", "battery.calibrate"),
    (density, "density_timeline", "density.density_timeline"),
    (density, "snapshot_from_states", "density.snapshot_from_states"),
    (density, "clusters", "density.clusters"),
    (density, "dijkstra", "roadnet.dijkstra"),
    (density, "nearest_node", "roadnet.nearest_node"),
    (density, "sample_at", "trajectory.sample_at"),
    (placement, "visit_weights", "placement.visit_weights"),
    (placement, "place_chargers", "placement.place_chargers"),
    (placement, "heatmap_for_graph", "placement.heatmap_for_graph"),
    (placement, "dijkstra", "roadnet.dijkstra"),
    (placement, "nearest_node", "roadnet.nearest_node"),
]


class Tracer:
    """Records spans and exact work counters for the passes it is installed in."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self._saved = []
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counters = {}
        self._dijkstra_sources = set()
        self.run_id = 0
        self.missing = [f"{getattr(o, '__name__', o)}.{a}" for o, a, _ in LAYERS
                        if not hasattr(o, a)]

    def reset(self, run_id):
        """Drop the spans and counters of the previous pass. The arrays are
        cleared in place, since the wrappers hold on to them."""
        self.run_id = run_id
        for arr in (self.name, self.parent, self.start, self.end):
            del arr[:]
        del self._stack[1:]
        self.counters.clear()

    def _intern(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _count(self, key, n=1):
        self.counters[key] = self.counters.get(key, 0) + n

    def _wrap(self, name, fn, before=None, after=None):
        """fn inside a span named `name`, whose parent is the innermost span
        open at the call. before(args) and after(result) update counters."""
        nid = self._intern(name)
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        stack = self._stack
        clock = time.perf_counter

        def traced(*a, **k):
            if before is not None:
                before(a)
            i = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                out = fn(*a, **k)
            finally:
                ends[i] = clock()
                stack.pop()
            if after is not None:
                after(out)
            return out
        return traced

    def command(self, name, argv):
        """Run one CLI command as a top-level span."""
        self._dijkstra_sources = set()
        return self._wrap("cli." + name, cli.main)(argv)

    # --- counters taken at the wrapped calls ------------------------------------

    def _pairs(self, a):
        n = len(a[0].vehicles)
        self._count("fleet_sim.resolve_conflicts.pairs", n * (n - 1) // 2)

    def _vehicle_steps(self, a):
        self._count("fleet_sim.vehicle_steps", len(a[0].vehicles))

    def _dijkstra_source(self, a):
        if a[1] in self._dijkstra_sources:
            self._count("roadnet.dijkstra.repeats")
        self._dijkstra_sources.add(a[1])

    def _rows_written(self, a):
        self._count("trajectory.write_csv.rows", len(a[0]))

    def _rows_read(self, out):
        self._count("trajectory.read_csv.rows", len(out))

    def _sweeps(self, out):
        self._count("battery.calibrate.sweeps", out.sweeps)

    def _episodes(self, out):
        self._count("density.episodes", len(out[1]))

    def install(self):
        hooks = {
            "fleet_sim.resolve_conflicts": (self._pairs, None),
            "fleet_sim.step": (self._vehicle_steps, None),
            "roadnet.dijkstra": (self._dijkstra_source, None),
            "trajectory.write_csv": (self._rows_written, None),
            "trajectory.read_csv": (None, self._rows_read),
            "battery.calibrate": (None, self._sweeps),
            "density.density_timeline": (None, self._episodes),
        }
        for obj, attr, name in LAYERS:
            if hasattr(obj, attr):
                fn = getattr(obj, attr)
                self._saved.append((obj, attr, fn))
                setattr(obj, attr, self._wrap(name, fn, *hooks.get(name, (None, None))))

    def uninstall(self):
        while self._saved:
            obj, attr, fn = self._saved.pop()
            setattr(obj, attr, fn)

    # --- aggregation -----------------------------------------------------------

    def aggregate(self):
        """-> (layers, commands) for the spans recorded since the last reset.

        layers: {name: {"calls", "s", "self_s"}} over all spans.
        commands: {command span name: {"wall": s, "self": {name: self_s}}};
        each command's self times sum to its wall time.
        """
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        top = [0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
                top[i] = top[p]
            else:
                top[i] = i
        layers = {}
        commands = {}
        for i in range(n):
            name = self.names[self.name[i]]
            self_s = dur[i] - child[i]
            agg = layers.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            agg["calls"] += 1
            agg["self_s"] += self_s
            agg["s"] += dur[i]
            cmd = commands.setdefault(self.names[self.name[top[i]]],
                                      {"wall": 0.0, "self": {}})
            if i == top[i]:
                cmd["wall"] += dur[i]
            cmd["self"][name] = cmd["self"].get(name, 0.0) + self_s
        return layers, commands

    def write_spans(self, path):
        """Spans of the current pass as CSV: run,span,parent,name,start_s,end_s."""
        t0 = self.start[0] if len(self.start) else 0.0
        with open(path, "w") as f:
            f.write("run,span,parent,name,start_s,end_s\n")
            for i in range(len(self.start)):
                f.write(f"{self.run_id},{i},{self.parent[i]},{self.names[self.name[i]]},"
                        f"{self.start[i] - t0:.9f},{self.end[i] - t0:.9f}\n")

