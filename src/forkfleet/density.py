"""Critical traffic density: dynamic clustering by network distance.

Vehicles are snapped to road-network nodes and form the vertices of a
dynamic graph weighted by directed shortest-path distance. Two vehicles
link when the smaller of the two directed distances is within a threshold;
connected components of that relation are the clusters. A cluster of two
or more vehicles whose mean speed falls below the velocity threshold is
flagged critical. Directed distances stay asymmetric under one-way
sections, which is why both directions are computed.

A timeline pulls one tick at a time, one resample cursor per vehicle, and
stitches critical clusters into episodes as each tick is made; its reports
hold each tick's time and clusters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import ConfigError, InputError, setting, total
from .roadnet import RoadGraph, UnionFind, nearest_node, nearest_nodes, within
from .trajectory import resample, split_by_vehicle


# The refusal bound, in entries of 8 bytes: a timeline of ticks x (vehicles + 1)
# x this is refused before its first tick. 88 was fit with tracemalloc when the
# timeline held every resampled sample; holding reports and one tick it takes
# about 27, so 88 over-counts, and it stays as the README's documented bound.
# 10^8 is 800 MB; an hour of 256 vehicles at 1 s is 8.1 x 10^7.
ENTRIES_PER_VEHICLE_TICK = 88
MAX_ENTRIES = 10**8


@dataclass(frozen=True)
class DensityConfig:
    distance_threshold: float = setting(15.0, 0)             # m
    velocity_threshold: float = setting(0.5, 0)              # m/s
    snapshot_interval: float = setting(1.0, 0, ends="(]")    # s


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


@dataclass
class Cluster:
    members: list
    mean_speed: float
    critical: bool


@dataclass
class ClusterReport:
    """One instant's clusters."""
    t: float
    clusters: list


@dataclass
class CriticalEpisode:
    start: float
    end: float
    peak_size: int
    centroid_node: int


@dataclass
class _OpenEpisode:
    """An episode while the timeline stitches it: its latest critical
    members (vehicle ids) and the centroid (x, y) of its peak cluster."""
    members: list
    start: float
    end: float
    peak_size: int = 0
    centroid: tuple = None


def snapshot_from_states(t: float, states, graph: RoadGraph, rows, limit: float) -> Snapshot:
    """Build a snapshot from (vehicle_id, x, y, speed) tuples.

    One bounded search, roadnet.within, per distinct occupied node; its
    {node: distance} dict is the node's row, holding only the distances up to
    `limit`. Vehicles sharing a node get distance zero regardless of
    intra-edge offsets. `rows` ({node: {node: distance}}) reuses rows
    computed earlier on the same graph with the same `limit`, gains the new
    ones and becomes the snapshot's rows.
    """
    states = sorted(states, key=lambda s: s[0])
    vids = [s[0] for s in states]
    positions = [(s[1], s[2]) for s in states]
    speeds = [s[3] for s in states]
    nodes = nearest_nodes(graph, positions)
    for node in nodes:
        if node not in rows:
            rows[node] = within(graph, node, limit)
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
        mean_speed = total(s.speeds[i] for i in members) / len(members)
        if not math.isfinite(mean_speed):  # the sum of finite speeds overflowed
            raise InputError(f"t={s.t:.12g}: a cluster's mean speed is not finite")
        critical = len(members) >= 2 and mean_speed < cfg.velocity_threshold
        out.append(Cluster([s.vehicle_ids[i] for i in members], mean_speed, critical))
    return ClusterReport(s.t, out)


def density_timeline(samples, graph: RoadGraph, cfg: DensityConfig):
    """One ClusterReport per snapshot-interval tick over the trajectory span.

    Returns (reports, episodes). Ticks are pulled one at a time, one resample
    cursor per vehicle, and each tick's critical clusters are stitched onto the
    open episodes as it is made: a cluster extends the first unmatched open
    episode it overlaps by >= 50%, or opens one; an open episode that no cluster
    matched closes. Each occupied node's row, a bounded search that labels only
    the nodes within distance_threshold, is computed once for the timeline and
    freed on return. A timeline of more than MAX_ENTRIES entries raises
    ConfigError before any tick is made; a peak cluster whose centroid is not
    finite raises InputError, as nearest_node would snap it to node 0.
    """
    per_vehicle = split_by_vehicle(samples)
    if not per_vehicle:
        return [], []
    t0 = min(ss[0].t for ss in per_vehicle.values())
    te = max(ss[-1].t for ss in per_vehicle.values())
    intervals = (te - t0) / cfg.snapshot_interval + 1e-9
    # math.floor refuses an inf quotient, which is past the cap whatever the fleet
    n_ticks = math.floor(intervals) + 1 if intervals < math.inf else math.inf
    n = len(per_vehicle)
    if n_ticks * (n + 1) * ENTRIES_PER_VEHICLE_TICK > MAX_ENTRIES:
        raise ConfigError(f"density.snapshot_interval {cfg.snapshot_interval!r} over "
                          f"{te - t0:.12g} s makes {n_ticks:.3g} ticks of {n} vehicles, "
                          f"more than {MAX_ENTRIES} entries")
    times = [t0 + k * cfg.snapshot_interval for k in range(n_ticks)]
    vids = sorted(per_vehicle)
    reports, closed, active = [], [], []
    rows = {}
    for t, *tick in zip(times, *[resample(per_vehicle[vid], times) for vid in vids]):
        # a state's x, y and speed are at 2, 3 and 5
        states = [(vid, st[2], st[3], st[5]) for vid, st in zip(vids, tick) if st is not None]
        if not states:
            continue
        s = snapshot_from_states(t, states, graph, rows, cfg.distance_threshold)
        partition = clusters(s, cfg)
        report = flag_critical(partition, s, cfg)
        reports.append(report)
        next_active = []
        matched = set()
        for idx, c in zip(partition, report.clusters):
            if not c.critical:
                continue
            for ai, ep in enumerate(active):
                if ai not in matched and _overlap_ok(ep.members, c.members):
                    matched.add(ai)
                    ep.members, ep.end = c.members, t
                    break
            else:
                ep = _OpenEpisode(c.members, t, t)
            if len(idx) > ep.peak_size:
                ep.peak_size = len(idx)
                ep.centroid = (total(s.positions[i][0] for i in idx) / len(idx),
                               total(s.positions[i][1] for i in idx) / len(idx))
                if not all(map(math.isfinite, ep.centroid)):  # a sum of positions overflowed
                    raise InputError(f"t={t:.12g}: a critical cluster's centroid is not finite")
            next_active.append(ep)
        closed += [ep for ai, ep in enumerate(active) if ai not in matched]
        active = next_active
    closed += active
    closed.sort(key=lambda ep: (ep.start, ep.end))
    return reports, [CriticalEpisode(ep.start, ep.end, ep.peak_size,
                                     nearest_node(graph, *ep.centroid)) for ep in closed]


def _overlap_ok(a, b):
    inter = len(set(a) & set(b))
    return inter >= 0.5 * max(len(a), len(b))


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
