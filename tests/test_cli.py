import hashlib
import io
import math
import os
import re
import stat
import subprocess
import sys

import pytest

import forkfleet
from forkfleet import mapgen
from forkfleet.cli import (EXIT_CONFIG, EXIT_INFEASIBLE, EXIT_INPUT, EXIT_OK, _write_atomic,
                           main)
from forkfleet.roadnet import save_roadnet
from forkfleet.trajectory import read_csv


@pytest.fixture()
def map_file(tmp_path):
    path = tmp_path / "floor.roadnet"
    with open(path, "w") as f:
        save_roadnet(mapgen.warehouse_map(), f)
    return str(path)


def simulate(tmp_path, map_file, *extra):
    out = str(tmp_path / "out")
    code = main(["simulate", "--map", map_file, "--out-dir", out,
                 "--duration", "30", "--vehicles", "2", "--seed", "5", *extra])
    return code, out


class TestSimulate:
    def test_outputs(self, tmp_path, map_file):
        code, out = simulate(tmp_path, map_file)
        assert code == EXIT_OK
        for name in ("trajectory.csv", "soc.csv", "summary.txt"):
            assert os.path.exists(os.path.join(out, name))
        with open(os.path.join(out, "trajectory.csv")) as f:
            first = f.readline()
            assert first.startswith("# forkfleet ")
            assert "seed=5" in first
            f.seek(0)
            samples = read_csv(f)
        assert len(samples) == 2 * 301  # initial + 300 steps, 2 vehicles
        with open(os.path.join(out, "summary.txt")) as f:
            text = f.read()
        assert "vehicle 0:" in text and "band=" in text

    def test_deterministic_bytes(self, tmp_path, map_file):
        _, out1 = simulate(tmp_path / "a", map_file)
        _, out2 = simulate(tmp_path / "b", map_file)
        for name in ("trajectory.csv", "soc.csv", "summary.txt"):
            with open(os.path.join(out1, name), "rb") as f1, \
                 open(os.path.join(out2, name), "rb") as f2:
                assert f1.read() == f2.read()

    def test_provenance_identifies_the_config(self, tmp_path, map_file):
        firsts = []
        for name, dt in (("a", "0.1"), ("b", "0.2")):
            _, out = simulate(tmp_path / name, map_file, "--dt", dt)
            with open(os.path.join(out, "trajectory.csv")) as f:
                firsts.append(f.readline())
        assert firsts[0].startswith("# forkfleet ") and " config=sha256:" in firsts[0]
        assert firsts[0] != firsts[1]

    def test_missing_map(self, tmp_path):
        assert main(["simulate", "--map", str(tmp_path / "nope.roadnet"),
                     "--out-dir", str(tmp_path)]) == EXIT_CONFIG

    def test_bad_set_key(self, tmp_path, map_file):
        code, _ = simulate(tmp_path, map_file, "--set", "kin.warp=1")
        assert code == EXIT_CONFIG

    def test_set_overrides_config_file(self, tmp_path, map_file):
        cfgp = tmp_path / "scenario.cfg"
        cfgp.write_text(f"map = {map_file}\nvehicles = 1\nduration = 10\n")
        out = str(tmp_path / "out")
        code = main(["simulate", "--config", str(cfgp), "--out-dir", out,
                     "--set", "vehicles=2", "--seed", "0"])
        assert code == EXIT_OK
        with open(os.path.join(out, "trajectory.csv")) as f:
            samples = read_csv(f)
        assert len({s.vehicle_id for s in samples}) == 2

    def test_corrupt_map(self, tmp_path):
        bad = tmp_path / "bad.roadnet"
        bad.write_text("roadnet v1\nnode zero 0 0 0\n")
        assert main(["simulate", "--map", str(bad),
                     "--out-dir", str(tmp_path)]) == EXIT_INPUT


CSV_HEADER = "t,vehicle_id,x,y,heading,speed,fork_height,load_mass,soc\n"
# two corridors with no road between them, one parking spot on each
ONE_WAY_CORRIDORS = """roadnet v1
node 0 0 0 0
node 1 10 0 0
node 2 0 20 0
node 3 10 20 0
edge 0 1 10 3 1
edge 2 3 10 3 1
spot 0 0 1 5
spot 1 2 3 5
"""
# one straight two-way road, 50 m
ONE_ROAD_ODR = """<OpenDRIVE>
    <road id="1" length="50">
      <planView><geometry s="0" x="0" y="0" hdg="0" length="50"><line/></geometry></planView>
      <lanes><laneSection s="0">
        <left><lane id="1" type="driving"/></left>
        <right><lane id="-1" type="driving"/></right>
      </laneSection></lanes>
    </road></OpenDRIVE>"""


class TestExitCodes:
    """Bad inputs end in the documented exit code and a one-line message,
    not a traceback. Each row: test id, full argv, exit code, stderr prefix.
    {map} is the demo floor, {out} an output directory, {traj} a valid
    trajectory CSV, {nan_traj} the same with x = nan on one line, {far_traj}
    the same with x = 1e200 (its squared distance to a node overflows),
    {manifest} a calibrate manifest whose energy is nan, {good_manifest} one
    naming {traj} with a finite energy, {dir_manifest} one whose cycle is a
    directory, {dup_spots} the demo floor with spot 1 renamed to 0,
    {corridors} ONE_WAY_CORRIDORS, {nan_heading} the same with node 1's
    heading nan, {no_nodes} a map with no nodes, {odr} ONE_ROAD_ODR and
    {odr_nan}, {odr_inf}, {odr_huge} the same with its length nan, inf or
    1e308, and {dir} a directory."""

    SIM = ["simulate", "--map", "{map}", "--out-dir", "{out}", "--vehicles", "6",
           "--duration", "2"]
    CONFIG, INPUT, INFEASIBLE = "config error: ", "input error: ", "infeasible: "
    ERROR = "error: "
    CASES = [
        ("valid", SIM, EXIT_OK, ""),
        ("--set kin.d_safe=nan", [*SIM, "--set", "kin.d_safe=nan"], EXIT_CONFIG, CONFIG),
        ("--set kin.b_max=0", [*SIM, "--set", "kin.b_max=0"], EXIT_CONFIG, CONFIG),
        ("--set kin.v_max=-1", [*SIM, "--set", "kin.v_max=-1"], EXIT_CONFIG, CONFIG),
        ("--set kin.horizon=0", [*SIM, "--set", "kin.horizon=0"], EXIT_CONFIG, CONFIG),
        ("--set kin.t_deadlock=inf", [*SIM, "--set", "kin.t_deadlock=inf"], EXIT_CONFIG, CONFIG),
        ("--dt 0", [*SIM, "--dt", "0"], EXIT_CONFIG, CONFIG),
        ("--duration nan", [*SIM, "--duration", "nan"], EXIT_CONFIG, CONFIG),
        ("--vehicles 20", [*SIM, "--vehicles", "20"], EXIT_CONFIG, CONFIG),  # 8 spots
        ("--vehicles -1", [*SIM, "--vehicles", "-1"], EXIT_CONFIG, CONFIG),
        ("--set battery.capacity=0", [*SIM, "--set", "battery.capacity=0"], EXIT_CONFIG, CONFIG),
        ("--set battery.eta_drive=nan", [*SIM, "--set", "battery.eta_drive=nan"],
         EXIT_CONFIG, CONFIG),
        ("--set battery.eta_regen=1", [*SIM, "--set", "battery.eta_regen=1"], EXIT_CONFIG, CONFIG),
        ("--set battery.c_rr=nan", [*SIM, "--set", "battery.c_rr=nan"], EXIT_CONFIG, CONFIG),
        ("--set pickup_mass=nan", [*SIM, "--set", "pickup_mass=nan"], EXIT_CONFIG, CONFIG),
        ("--set density.linkage=bogus", [*SIM, "--set", "density.linkage=bogus"],
         EXIT_CONFIG, CONFIG),
        ("--policy fixed:99", [*SIM, "--policy", "fixed:99"], EXIT_CONFIG, CONFIG),
        ("--set battery.g=9.81", [*SIM, "--set", "battery.g=9.81"], EXIT_CONFIG, CONFIG),
        ("place-chargers placement.k=0",
         ["place-chargers", "--map", "{map}", "--out-dir", "{out}", "--set", "placement.k=0",
          "{traj}"], EXIT_CONFIG, CONFIG),
        ("place-chargers placement.cell_size=0",
         ["place-chargers", "--map", "{map}", "--out-dir", "{out}",
          "--set", "placement.cell_size=0", "{traj}"], EXIT_CONFIG, CONFIG),
        ("place-chargers placement.d_scale=0",
         ["place-chargers", "--map", "{map}", "--out-dir", "{out}",
          "--set", "placement.d_scale=0", "{traj}"], EXIT_CONFIG, CONFIG),
        ("heatmap placement.cell_size=-1",
         ["heatmap", "--map", "{map}", "--out-dir", "{out}", "--set", "placement.cell_size=-1",
          "{traj}"], EXIT_CONFIG, CONFIG),
        ("heatmap placement.cell_size=1e-300",
         ["heatmap", "--map", "{map}", "--out-dir", "{out}", "--set", "placement.cell_size=1e-300",
          "{traj}"], EXIT_CONFIG, CONFIG),
        ("place-chargers placement.cell_size=1e-300",
         ["place-chargers", "--map", "{map}", "--out-dir", "{out}",
          "--set", "placement.cell_size=1e-300", "{traj}"], EXIT_CONFIG, CONFIG),
        # 84 x 64 m over 1e-16 m cells: finite, but far more than MAX_CELLS
        ("heatmap placement.cell_size=1e-16",
         ["heatmap", "--map", "{map}", "--out-dir", "{out}", "--set", "placement.cell_size=1e-16",
          "{traj}"], EXIT_CONFIG, CONFIG),
        ("place-chargers placement.cell_size=1e-16",
         ["place-chargers", "--map", "{map}", "--out-dir", "{out}",
          "--set", "placement.cell_size=1e-16", "{traj}"], EXIT_CONFIG, CONFIG),
        # the bounding box over a subnormal cell size is inf cells wide
        ("heatmap placement.cell_size=5e-324",
         ["heatmap", "--map", "{map}", "--out-dir", "{out}", "--set", "placement.cell_size=5e-324",
          "{traj}"], EXIT_CONFIG, CONFIG),
        ("analyze-density density.snapshot_interval=0",
         ["analyze-density", "--map", "{map}", "--out-dir", "{out}",
          "--set", "density.snapshot_interval=0", "{traj}"], EXIT_CONFIG, CONFIG),
        # 1 s of one vehicle over 1e-12 s ticks: 1e12 ticks
        ("analyze-density density.snapshot_interval=1e-12",
         ["analyze-density", "--map", "{map}", "--out-dir", "{out}",
          "--set", "density.snapshot_interval=1e-12", "{traj}"], EXIT_CONFIG, CONFIG),
        # 833,334 ticks of 1 vehicle: 833,334 x 2 x 88 = 1.47e8 entries, more
        # than MAX_ENTRIES
        ("analyze-density density.snapshot_interval=1.2e-6",
         ["analyze-density", "--map", "{map}", "--out-dir", "{out}",
          "--set", "density.snapshot_interval=1.2e-6", "{traj}"], EXIT_CONFIG, CONFIG),
        # 1 s over a subnormal interval is inf ticks, which math.floor refuses
        ("analyze-density density.snapshot_interval=5e-324",
         ["analyze-density", "--map", "{map}", "--out-dir", "{out}",
          "--set", "density.snapshot_interval=5e-324", "{traj}"], EXIT_CONFIG, CONFIG),
        ("replay x=nan", ["replay", "--map", "{map}", "--out-dir", "{out}", "{nan_traj}"],
         EXIT_INPUT, INPUT),
        ("analyze-density x=nan",
         ["analyze-density", "--map", "{map}", "--out-dir", "{out}", "{nan_traj}"],
         EXIT_INPUT, INPUT),
        ("place-chargers x=nan",
         ["place-chargers", "--map", "{map}", "--out-dir", "{out}", "{nan_traj}"],
         EXIT_INPUT, INPUT),
        ("heatmap x=nan", ["heatmap", "--map", "{map}", "--out-dir", "{out}", "{nan_traj}"],
         EXIT_INPUT, INPUT),
        ("analyze-density x=1e200",
         ["analyze-density", "--map", "{map}", "--out-dir", "{out}", "{far_traj}"],
         EXIT_INPUT, INPUT),
        ("place-chargers x=1e200",
         ["place-chargers", "--map", "{map}", "--out-dir", "{out}", "{far_traj}"],
         EXIT_INPUT, INPUT),
        ("calibrate energy=nan",
         ["calibrate", "--out-dir", "{out}", "--free", "c_rr", "{manifest}"], EXIT_INPUT, INPUT),
        ("calibrate --free bogus",
         ["calibrate", "--out-dir", "{out}", "--free", "bogus", "{good_manifest}"],
         EXIT_CONFIG, CONFIG),
        ("simulate two spots with one id",
         ["simulate", "--map", "{dup_spots}", "--out-dir", "{out}", "--duration", "2"],
         EXIT_INPUT, INPUT),
        ("simulate heading=nan",
         ["simulate", "--map", "{nan_heading}", "--out-dir", "{out}", "--duration", "2"],
         EXIT_INPUT, INPUT),
        ("heatmap on a map with no nodes",
         ["heatmap", "--map", "{no_nodes}", "--out-dir", "{out}", "{traj}"], EXIT_INPUT, INPUT),
        ("simulate unreachable spot",
         ["simulate", "--map", "{corridors}", "--out-dir", "{out}", "--vehicles", "1",
          "--duration", "5"], EXIT_INFEASIBLE, INFEASIBLE),
        ("convert --spacing 0", ["convert", "{odr}", "--out", "{out}", "--spacing", "0"],
         EXIT_CONFIG, CONFIG),
        ("convert --spacing nan", ["convert", "{odr}", "--out", "{out}", "--spacing", "nan"],
         EXIT_CONFIG, CONFIG),
        ("convert --spacing -1", ["convert", "{odr}", "--out", "{out}", "--spacing", "-1"],
         EXIT_CONFIG, CONFIG),
        ("convert --spacing inf", ["convert", "{odr}", "--out", "{out}", "--spacing", "inf"],
         EXIT_CONFIG, CONFIG),
        # 50 m at 1e-300 m: 5e301 sample points, more than MAX_POINTS
        ("convert --spacing 1e-300",
         ["convert", "{odr}", "--out", "{out}", "--spacing", "1e-300"], EXIT_CONFIG, CONFIG),
        ("convert length=nan", ["convert", "{odr_nan}", "--out", "{out}"], EXIT_INPUT, INPUT),
        ("convert length=inf", ["convert", "{odr_inf}", "--out", "{out}"], EXIT_INPUT, INPUT),
        ("convert length=1e308", ["convert", "{odr_huge}", "--out", "{out}"],
         EXIT_CONFIG, CONFIG),
        ("simulate --config a directory", [*SIM, "--config", "{dir}"], EXIT_CONFIG, ERROR),
        ("analyze-density --map a directory",
         ["analyze-density", "--map", "{dir}", "--out-dir", "{out}", "{traj}"],
         EXIT_CONFIG, ERROR),
        ("heatmap trajectory a directory",
         ["heatmap", "--map", "{map}", "--out-dir", "{out}", "{dir}"], EXIT_CONFIG, ERROR),
        ("calibrate manifest a directory",
         ["calibrate", "--out-dir", "{out}", "--free", "c_rr", "{dir}"], EXIT_CONFIG, ERROR),
        ("calibrate cycle a directory",
         ["calibrate", "--out-dir", "{out}", "--free", "c_rr", "{dir_manifest}"],
         EXIT_CONFIG, ERROR),
        ("--out-dir a regular file", [*SIM[:3], "--out-dir", "{traj}", *SIM[5:]],
         EXIT_CONFIG, ERROR),
        ("convert --out into a missing directory",
         ["convert", "{odr}", "--out", "{out}/site.roadnet"], EXIT_CONFIG, ERROR),
    ]

    @pytest.fixture()
    def files(self, tmp_path, map_file):
        rows = ["0,0,10,10,0,0,0,0,1\n", "1,0,11,10,0,1,0,0,0.99\n"]
        paths = {"map": map_file, "out": str(tmp_path / "out"), "dir": str(tmp_path)}
        with open(map_file) as f:
            floor = f.read()
        assert "\nspot 1 " in floor
        for name, text in (("traj", CSV_HEADER + "".join(rows)),
                           ("nan_traj", CSV_HEADER + rows[0] + "1,0,nan,10,0,1,0,0,0.99\n"),
                           ("far_traj", CSV_HEADER + rows[0] + "1,0,1e200,10,0,1,0,0,0.99\n"),
                           ("manifest", "traj,nan\n"),
                           ("good_manifest", "traj,1000\n"),
                           ("dir_manifest", ".,1000\n"),
                           ("dup_spots", floor.replace("\nspot 1 ", "\nspot 0 ")),
                           ("corridors", ONE_WAY_CORRIDORS),
                           ("nan_heading",
                            ONE_WAY_CORRIDORS.replace("node 1 10 0 0", "node 1 10 0 nan")),
                           ("no_nodes", "roadnet v1\n"),
                           ("odr", ONE_ROAD_ODR),
                           ("odr_nan", ONE_ROAD_ODR.replace('length="50"', 'length="nan"')),
                           ("odr_inf", ONE_ROAD_ODR.replace('length="50"', 'length="inf"')),
                           ("odr_huge", ONE_ROAD_ODR.replace('length="50"', 'length="1e308"'))):
            paths[name] = str(tmp_path / name)
            with open(paths[name], "w") as f:
                f.write(text)
        return paths

    @pytest.mark.parametrize("argv,code,prefix", [c[1:] for c in CASES],
                             ids=[c[0] for c in CASES])
    def test_exit_code(self, files, argv, code, prefix):
        env = dict(os.environ,
                   PYTHONPATH=os.path.dirname(os.path.dirname(forkfleet.__file__)))
        argv = [a.format(**files) for a in argv]
        proc = subprocess.run([sys.executable, "-m", "forkfleet.cli", *argv],
                              env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == code, proc.stderr
        assert "Traceback" not in proc.stderr
        if code != EXIT_OK:
            assert proc.stderr.startswith(prefix)
            assert proc.stderr.count("\n") == 1


class TestWriteAtomic:
    BODY = "t,x\r\n0,1.5\n"
    TEXT = "# head\n" + BODY

    def test_bytes_and_mode_match_a_plain_write(self, tmp_path):
        path = tmp_path / "out.csv"
        _write_atomic(str(path), "head", lambda f: f.write(self.BODY))
        plain = tmp_path / "plain.csv"
        with open(plain, "w", newline="") as f:
            f.write(self.TEXT)
        assert path.read_bytes() == plain.read_bytes() == self.TEXT.encode()
        assert stat.S_IMODE(path.stat().st_mode) == stat.S_IMODE(plain.stat().st_mode)
        assert sorted(os.listdir(tmp_path)) == ["out.csv", "plain.csv"]

    def test_failed_write_leaves_no_temp_file(self, tmp_path):
        target = tmp_path / "taken"
        target.mkdir()  # renaming a file onto a directory fails
        with pytest.raises(OSError):
            _write_atomic(str(target), "head", lambda f: f.write(self.BODY))
        assert os.listdir(tmp_path) == ["taken"]
        assert os.listdir(target) == []

    def test_failed_render_writes_nothing(self, tmp_path):
        def render(f):
            f.write("partial")
            raise RuntimeError("render failed")
        with pytest.raises(RuntimeError):
            _write_atomic(str(tmp_path / "out.csv"), "head", render)
        assert os.listdir(tmp_path) == []


def sha256_12(path):
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()[:12]


class TestProvenance:
    def test_every_file_starts_with_its_command_line(self, tmp_path, map_file):
        _, sim = simulate(tmp_path, map_file)
        traj = os.path.join(sim, "trajectory.csv")
        odr = tmp_path / "site.xodr"
        odr.write_text(ONE_ROAD_ODR)
        manifest = tmp_path / "cycles.csv"
        manifest.write_text(f"{traj},1000000\n")
        os.makedirs(tmp_path / "convert")
        out = {c: str(tmp_path / c) for c in
               ("replay", "convert", "analyze-density", "place-chargers", "heatmap", "calibrate")}
        runs = [  # command, argv, seed, inputs in provenance order, output dir, files
            ("simulate", None, 5, [map_file], sim,
             ["soc.csv", "summary.txt", "trajectory.csv"]),
            ("replay", ["--map", map_file, traj], 0, [map_file, traj], out["replay"],
             ["replay.csv", "soc.csv"]),
            ("convert", [str(odr), "--out", os.path.join(out["convert"], "site.roadnet")], 0,
             [str(odr)], out["convert"], ["site.roadnet"]),
            ("analyze-density", ["--map", map_file, traj], 0, [map_file, traj],
             out["analyze-density"], ["density.csv", "episodes.txt"]),
            ("place-chargers", ["--map", map_file, traj], 0, [map_file, traj],
             out["place-chargers"], ["heatmap.txt", "heatmap_cells.csv", "placement.csv"]),
            ("heatmap", ["--map", map_file, traj], 0, [map_file, traj], out["heatmap"],
             ["heatmap.txt", "heatmap_cells.csv"]),
            ("calibrate", ["--free", "c_rr", str(manifest)], 0, [str(manifest), traj],
             out["calibrate"], ["fitted_params.cfg", "residuals.txt"]),
        ]
        for command, argv, seed, inputs, out_dir, files in runs:
            if argv is not None:
                if command != "convert":
                    argv = ["--out-dir", out_dir, *argv]
                assert main([command, *argv]) == EXIT_OK, command
            digests = " ".join(f"{os.path.basename(p)}:sha256:{sha256_12(p)}" for p in inputs)
            config = "" if command == "convert" else r" config=sha256:[0-9a-f]{12}"
            line = re.compile(rf"# forkfleet {re.escape(forkfleet.__version__)} seed={seed}"
                              rf"{config} inputs={re.escape(digests)}\n")
            assert sorted(os.listdir(out_dir)) == files, command
            firsts = set()
            for name in files:
                with open(os.path.join(out_dir, name)) as f:
                    firsts.add(f.readline())
                    assert not any(ln.startswith("#") for ln in f), (command, name)
            assert len(firsts) == 1, command
            assert line.fullmatch(firsts.pop()), command


class TestReplay:
    def test_round_trip(self, tmp_path, map_file):
        _, out = simulate(tmp_path, map_file)
        traj = os.path.join(out, "trajectory.csv")
        rout = str(tmp_path / "replayed")
        assert main(["replay", "--map", map_file, "--out-dir", rout, traj]) == EXIT_OK
        with open(os.path.join(rout, "replay.csv")) as f:
            replayed = read_csv(f)
        with open(traj) as f:
            original = read_csv(f)
        assert len(replayed) == len(original)
        for a, b in zip(original, replayed):
            assert math.isclose(a.soc, b.soc, abs_tol=1e-9)

    def test_corrupt_trajectory(self, tmp_path, map_file):
        bad = tmp_path / "bad.csv"
        bad.write_text("t,vehicle_id,x\n")
        assert main(["replay", "--map", map_file, "--out-dir", str(tmp_path),
                     str(bad)]) == EXIT_INPUT


class TestConvert:
    ODR = ONE_ROAD_ODR

    def test_convert(self, tmp_path):
        src = tmp_path / "site.xodr"
        src.write_text(self.ODR)
        dst = tmp_path / "site.roadnet"
        assert main(["convert", str(src), "--out", str(dst), "--spacing", "5"]) == EXIT_OK
        from forkfleet.roadnet import load_roadnet
        with open(dst) as f:
            g = load_roadnet(f)
        assert g.n_nodes() == 22  # 11 per direction at 5 m spacing

    def test_unsupported_geometry(self, tmp_path):
        src = tmp_path / "site.xodr"
        src.write_text(self.ODR.replace("<line/>", '<spiral curvStart="0" curvEnd="1"/>'))
        assert main(["convert", str(src), "--out", str(tmp_path / "x")]) == EXIT_INPUT


class TestAnalyses:
    def test_density_and_placement_and_heatmap(self, tmp_path, map_file):
        _, out = simulate(tmp_path, map_file)
        traj = os.path.join(out, "trajectory.csv")

        dout = str(tmp_path / "dens")
        assert main(["analyze-density", "--map", map_file, "--out-dir", dout,
                     traj]) == EXIT_OK
        assert os.path.exists(os.path.join(dout, "density.csv"))
        with open(os.path.join(dout, "episodes.txt")) as f:
            assert "critical episodes:" in f.read()

        pout = str(tmp_path / "plc")
        assert main(["place-chargers", "--map", map_file, "--out-dir", pout,
                     "--dwell", traj]) == EXIT_OK
        for name in ("placement.csv", "heatmap.txt", "heatmap_cells.csv"):
            assert os.path.exists(os.path.join(pout, name))

        hout = str(tmp_path / "heat")
        assert main(["heatmap", "--map", map_file, "--out-dir", hout, traj]) == EXIT_OK
        with open(os.path.join(hout, "heatmap.txt")) as f:
            lines = [l for l in f if not l.startswith("#")]
        assert lines[0].startswith("heatmap v1 ")


class TestCalibrate:
    def make_manifest(self, tmp_path, map_file, n):
        paths = []
        for i in range(n):
            _, out = simulate(tmp_path / f"c{i}", map_file, "--set", f"seed={i}")
            paths.append(os.path.join(out, "trajectory.csv"))
        # measured energy: net draw under the default parameters
        from forkfleet.battery import BatteryParams, VehicleConstants, integrate_trajectory
        lines = []
        for p in paths:
            with open(p) as f:
                samples = read_csv(f)
            draw, regen, _ = integrate_trajectory(samples, VehicleConstants(),
                                                  BatteryParams(c_rr=0.017))
            lines.append(f"{p},{draw - regen:.6f}")
        manifest = tmp_path / "cycles.csv"
        manifest.write_text("\n".join(lines) + "\n")
        return str(manifest)

    def test_recovers_c_rr(self, tmp_path, map_file):
        manifest = self.make_manifest(tmp_path, map_file, 2)
        out = str(tmp_path / "fit")
        assert main(["calibrate", "--out-dir", out, "--free", "c_rr",
                     manifest]) == EXIT_OK
        with open(os.path.join(out, "fitted_params.cfg")) as f:
            text = f.read()
        fitted = dict(line.split(" = ") for line in text.splitlines()
                      if not line.startswith("#"))
        assert float(fitted["battery.c_rr"]) == pytest.approx(0.017, rel=1e-4)
        assert os.path.exists(os.path.join(out, "residuals.txt"))

    def test_provenance_digests_the_cycle_files(self, tmp_path, map_file):
        manifest = self.make_manifest(tmp_path, map_file, 2)

        def first_line(out):
            assert main(["calibrate", "--out-dir", out, "--free", "c_rr",
                         manifest]) == EXIT_OK
            with open(os.path.join(out, "fitted_params.cfg")) as f:
                return f.readline()

        before = first_line(str(tmp_path / "fit1"))
        with open(manifest) as f:
            cycle = f.readline().rsplit(",", 1)[0]
        with open(cycle) as f:
            lines = f.readlines()
        with open(cycle, "w") as f:
            f.writelines(lines[:len(lines) // 2])
        assert first_line(str(tmp_path / "fit2")) != before

    def test_underdetermined(self, tmp_path, map_file):
        manifest = self.make_manifest(tmp_path, map_file, 1)
        assert main(["calibrate", "--out-dir", str(tmp_path), "--free",
                     "c_rr,eta_drive", manifest]) == EXIT_INFEASIBLE

    def test_bad_manifest(self, tmp_path):
        manifest = tmp_path / "cycles.csv"
        manifest.write_text("only-one-field\n")
        assert main(["calibrate", "--out-dir", str(tmp_path),
                     str(manifest)]) == EXIT_INPUT


class TestParser:
    def test_version(self, capsys):
        assert main(["--version"]) == EXIT_OK
        assert "forkfleet" in capsys.readouterr().out

    def test_unknown_command(self):
        assert main(["frobnicate"]) == EXIT_CONFIG

    def test_no_command(self):
        assert main([]) == EXIT_CONFIG
