"""Critical traffic density: dynamic clustering by network distance.

Vehicles are snapped to road-network nodes and form the vertices of a
dynamic graph weighted by directed shortest-path distance. Two vehicles
link when the smaller of the two directed distances is within a threshold;
connected components of that relation are the clusters. A cluster of two
or more vehicles whose mean speed falls below the velocity threshold is
flagged critical. Directed distances stay asymmetric under one-way
sections, which is why both directions are computed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import compress

from . import ConfigError, Infeasible
from .roadnet import RoadGraph, UnionFind, dijkstra, nearest_node
from .trajectory import resample, split_by_vehicle


# A timeline's peak, in entries of 8 bytes: ticks x (vehicles + 1) x this
# (resampled samples, snapshots, clusters; a tick costs about one vehicle of
# its own), fit with tracemalloc for 1 to 256 vehicles. Rows are held once per
# timeline. 10^8 is 800 MB; an hour of 256 vehicles at 1 s is 8.1 x 10^7.
ENTRIES_PER_VEHICLE_TICK = 88
MAX_ENTRIES = 10**8


class EmptyFleet(Infeasible):
    pass


class TooManyTicks(ConfigError):
    pass


@dataclass(frozen=True)
class DensityConfig:
    distance_threshold: float = 15.0   # m
    velocity_threshold: float = 0.5    # m/s
    snapshot_interval: float = 1.0     # s


@dataclass
class Snapshot:
    """Vehicles at one instant. rows maps each occupied node (in a timeline,
    every node occupied so far) to its finite distances {node: d}, cut at
    the limit snapshot_from_states was given."""
    t: float
    vehicle_ids: list
    nodes: list       # snapped NodeId per vehicle
    speeds: list
    positions: list   # (x, y) per vehicle
    rows: dict

    @cached_property
    def dist(self):
        """dist[i][j] = directed network distance i -> j; inf past the rows."""
        return [[self.rows[a].get(b, math.inf) for b in self.nodes] for a in self.nodes]


@dataclass
class Cluster:
    members: list
    mean_speed: float
    critical: bool


@dataclass
class ClusterReport:
    t: float
    clusters: list
    snapshot: Snapshot = None


@dataclass
class CriticalEpisode:
    start: float
    end: float
    peak_size: int
    centroid_node: int


def snapshot_from_states(t: float, states, graph: RoadGraph, rows=None,
                         limit: float = math.inf) -> Snapshot:
    """Build a snapshot from (vehicle_id, x, y, speed) tuples.

    One Dijkstra per distinct occupied node; vehicles sharing a node get
    distance zero regardless of intra-edge offsets. `rows` ({node: {node:
    distance}}) reuses rows computed earlier on the same graph with the same
    `limit`, gains the new ones and becomes the snapshot's rows. A row holds
    no distance above `limit`.
    """
    if not states:
        raise EmptyFleet("snapshot of an empty fleet")
    states = sorted(states, key=lambda s: s[0])
    vids = [s[0] for s in states]
    positions = [(s[1], s[2]) for s in states]
    speeds = [s[3] for s in states]
    nodes = [nearest_node(graph, x, y) for x, y in positions]
    if rows is None:
        rows = {}
    for node in nodes:
        if node not in rows:
            row = dijkstra(graph, node, limit)
            fin = list(map(math.isfinite, row))
            rows[node] = dict(zip(compress(range(len(row)), fin), compress(row, fin)))
    return Snapshot(t, vids, nodes, speeds, positions, rows)


def clusters(s: Snapshot, cfg: DensityConfig):
    """Partition vehicles into clusters of the thresholded link relation:
    member-index lists (indices into the snapshot arrays), each sorted,
    ordered by smallest member; singletons are allowed. Vehicles at one node
    are 0 m apart; occupied nodes a and b link when b is in a's row within
    the threshold, either direction as min() of the directed pair. UnionFind
    roots are smallest members, whatever the order of the unions.
    """
    uf = UnionFind(len(s.vehicle_ids))
    first = {}   # occupied node -> its smallest vehicle index
    for i, node in enumerate(s.nodes):
        uf.union(first.setdefault(node, i), i)
    t = cfg.distance_threshold
    for a, i in first.items():
        row = s.rows[a]
        for b in row.keys() & first.keys():   # walks the smaller side
            if row[b] <= t:
                uf.union(i, first[b])
    groups = {}
    for i in range(len(s.vehicle_ids)):
        groups.setdefault(uf.find(i), []).append(i)
    return [groups[r] for r in sorted(groups)]


def flag_critical(partition, s: Snapshot, cfg: DensityConfig) -> ClusterReport:
    """Mean-speed check per cluster; singletons are never critical."""
    out = []
    for members in partition:
        mean_speed = sum(s.speeds[i] for i in members) / len(members)
        critical = len(members) >= 2 and mean_speed < cfg.velocity_threshold
        out.append(Cluster([s.vehicle_ids[i] for i in members], mean_speed, critical))
    return ClusterReport(s.t, out, s)


def analyze_snapshot(t, states, graph, cfg, rows=None) -> ClusterReport:
    """Cluster and flag one instant over rows (and `rows`) cut at
    distance_threshold, since clustering reads no distance beyond it."""
    s = snapshot_from_states(t, states, graph, rows, cfg.distance_threshold)
    return flag_critical(clusters(s, cfg), s, cfg)


def density_timeline(samples, graph: RoadGraph, cfg: DensityConfig):
    """One ClusterReport per snapshot-interval tick over the trajectory span.

    Returns (reports, episodes). Critical clusters are stitched into
    episodes across consecutive ticks by >= 50% member overlap. The graph
    does not change, so each occupied node's Dijkstra row is computed once
    for the whole timeline, out to distance_threshold, and every report's
    Snapshot.rows is that one cache. A timeline of more than MAX_ENTRIES
    entries raises TooManyTicks before any tick is made.
    """
    per_vehicle = split_by_vehicle(samples)
    if not per_vehicle:
        return [], []
    t0 = min(ss[0].t for ss in per_vehicle.values())
    te = max(ss[-1].t for ss in per_vehicle.values())
    reports = []
    rows = {}
    intervals = (te - t0) / cfg.snapshot_interval + 1e-9
    # an inf or huge count is past the cap whatever the fleet
    n_ticks = math.floor(intervals) + 1 if intervals < MAX_ENTRIES else math.inf
    n = len(per_vehicle)
    if n_ticks * (n + 1) * ENTRIES_PER_VEHICLE_TICK > MAX_ENTRIES:
        raise TooManyTicks(f"density.snapshot_interval {cfg.snapshot_interval!r} over "
                           f"{te - t0:.12g} s makes {n_ticks:.3g} ticks of {n} vehicles, "
                           f"more than {MAX_ENTRIES} entries")
    times = [t0 + k * cfg.snapshot_interval for k in range(n_ticks)]
    vids = sorted(per_vehicle)
    columns = [resample(per_vehicle[vid], times) for vid in vids]
    for t, tick in zip(times, zip(*columns)):
        states = [(vid, smp.x, smp.y, smp.speed)
                  for vid, smp in zip(vids, tick) if smp is not None]
        if not states:
            continue
        reports.append(analyze_snapshot(t, states, graph, cfg, rows))
    return reports, _stitch_episodes(reports, graph)


def _overlap_ok(a, b):
    inter = len(set(a) & set(b))
    return inter >= 0.5 * max(len(a), len(b))


def _centroid_node(members, report, graph):
    idx = [report.snapshot.vehicle_ids.index(v) for v in members]
    cx = sum(report.snapshot.positions[i][0] for i in idx) / len(idx)
    cy = sum(report.snapshot.positions[i][1] for i in idx) / len(idx)
    return nearest_node(graph, cx, cy)


def _stitch_episodes(reports, graph):
    episodes = []
    # active: dicts {members, start, end, peak_size, peak: (members, report)}
    active = []
    for rep in reports:
        crit = [c.members for c in rep.clusters if c.critical]
        next_active = []
        matched_prev = set()
        for members in crit:
            for ai, a in enumerate(active):
                if ai not in matched_prev and _overlap_ok(a["members"], members):
                    matched_prev.add(ai)
                    a["members"] = members
                    a["end"] = rep.t
                    if len(members) > a["peak_size"]:
                        a["peak_size"] = len(members)
                        a["peak"] = (members, rep)
                    next_active.append(a)
                    break
            else:
                next_active.append({"members": members, "start": rep.t, "end": rep.t,
                                    "peak_size": len(members), "peak": (members, rep)})
        episodes += [a for ai, a in enumerate(active) if ai not in matched_prev]
        active = next_active
    episodes.extend(active)
    return [CriticalEpisode(a["start"], a["end"], a["peak_size"],
                            _centroid_node(*a["peak"], graph))
            for a in sorted(episodes, key=lambda e: (e["start"], e["end"]))]


def write_report_csv(reports, fileobj) -> None:
    """CSV: t,cluster_id,member_ids(semicolon-joined),mean_speed,critical."""
    w = fileobj.write
    w("t,cluster_id,member_ids,mean_speed,critical\n")
    for rep in reports:
        for ci, c in enumerate(rep.clusters):
            members = ";".join(str(m) for m in c.members)
            w(f"{rep.t:.12g},{ci},{members},{c.mean_speed:.12g},{1 if c.critical else 0}\n")


def write_episode_summary(episodes, fileobj) -> None:
    w = fileobj.write
    w(f"critical episodes: {len(episodes)}\n")
    for i, e in enumerate(episodes):
        w(f"episode {i}: start={e.start:.12g}s end={e.end:.12g}s "
          f"peak_size={e.peak_size} centroid_node={e.centroid_node}\n")
