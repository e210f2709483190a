"""Measure how cgrkit's geometry scales with mesh size, and how long one
paper-density annotation takes; print one JSON row per measurement.

Rows, by their "probe" key:

- `import`: in a fresh interpreter that has imported numpy, the time of
  `import cgrkit` and then of `import scipy.spatial`, median of 5 child
  processes each, and how many scipy modules `import cgrkit` loaded.
- `voxelize`: `voxelize_mesh` at 5 mm on icospheres of radius 4 cm with
  1,280, 5,120 and 20,480 triangles, median of 5 calls.
- `cgr_grids`: rays/s of each query of `cgr_grids` (`path` "sections" or
  "rays", forced through `cgr._grids`), best of 3 calls, and whether
  `cgr_grids` selects that path (`selected`, from `cgr._by_sections`). The
  points are the CLI-default 48x5 grid on the icospheres and on the meshes of the
  benchmark's `loop` workload, the 16x3 grid of its `scan` workload on the
  `scan` meshes, single-section grids of 4, 12 and 24 rays as coverage
  sampling casts them (4 and 12 rays also on the `scan` meshes), and grids
  of 16 to 64 rays that bracket the crossover. Frames: 40 surface points,
  evenly spaced in voxel order, each crossed with 48 spiral approach
  directions.
- `ray_single`: one `ray_intersect` call, median over 200 random rays
  through the icosphere's box, in microseconds.
- `ray_batch`: one `ray_intersect_batch` call of 20,000 such rays, best of
  3, in microseconds per ray.
- `sample_local_geometries`: ms per call on each of criterion 10's five
  base shapes at its sparse preset with 48 points per patch, 3,000 surface
  samples and 4 cm grasp cells, median of 5 calls, with the patch count.
- `min_chamfer`: ms per probe of `is_covered` at tau = 1 mm and of
  `min_chamfer` without `stop_below`, median of 3 passes over 20 probes.
  The pool is criterion 10's sparse preset (48 points per patch) over its
  five base shapes; the probes are 20 copies of pool patches, all covered,
  and 20 patches of a novel 5x7x9 cm box, none covered (`covered` counts
  them).
- `annotate_cli`: one CLI-default `cgrkit annotate` (5 mm voxels, 300
  approach directions, 48x5 grid) of a 5 cm cube, run in a child process:
  its wall time and its peak RSS from getrusage(RUSAGE_CHILDREN).

BLAS runs on one thread, as in the benchmark. Timings swing from run to run
on a shared machine, so compare two checkouts in alternating runs.

Run from the repo root:  python3 tools/scale_probe.py [--probe NAME]...
"""

import argparse
import json
import os
import resource
import subprocess
import sys
import tempfile
import time

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

import numpy as np  # noqa: E402
from cgrkit import cgr, geometry  # noqa: E402
from cgrkit.annotation import surface_voxel_points  # noqa: E402
from cgrkit.cgr import CgrGridParams  # noqa: E402
from cgrkit.coverage import (  # noqa: E402
    DEFAULT_BOX_DIMS,
    LocalGeometry,
    is_covered,
    min_chamfer,
    sample_local_geometries,
    sparse_params,
)

ICOSPHERES = {f"ico{k}": (lambda k=k: geometry.make_icosphere(0.04, k)) for k in (3, 4, 5)}
MESHES = {
    **ICOSPHERES,
    # the benchmark's loop scene meshes, scan meshes and coverage pool shapes
    "cube": lambda: geometry.make_box((0.05, 0.05, 0.05)),
    "slim": lambda: geometry.make_box((0.03, 0.03, 0.06)),
    "cyl": lambda: geometry.make_cylinder(0.018, 0.055, segments=24),
    "cyl64": lambda: geometry.make_cylinder(0.02, 0.06, segments=64),
    "scan_ico3": lambda: geometry.make_icosphere(0.03, 3),
    "sph": lambda: geometry.make_icosphere(0.03, 2),
}
DEFAULT = CgrGridParams()
SCAN = CgrGridParams(n_angles=16, n_sections=3, section_depths=(0.005, 0.015, 0.03))
# coverage sampling's grid at the default box: one section at half the box's
# depth, reach to its corner
_HALF_BOX = np.asarray(DEFAULT_BOX_DIMS) / 2.0
COVER = {n: CgrGridParams(n_angles=n, n_sections=1, section_depths=(_HALF_BOX[2],),
                          d_max=float(np.linalg.norm(_HALF_BOX))) for n in (4, 12, 24)}
# criterion 10's fast sampling settings and base shapes
COVERAGE_PARAMS = sparse_params(points_per_patch=48, surface_samples=3000, grasp_point_resolution=0.04)
COVERAGE_SHAPES = {
    "cube": lambda: geometry.make_box((0.05, 0.05, 0.05)),
    "boxA": lambda: geometry.make_box((0.04, 0.05, 0.07)),
    "boxB": lambda: geometry.make_box((0.06, 0.06, 0.05)),
    "cyl": lambda: geometry.make_cylinder(0.02, 0.06, segments=24),
    "sph": lambda: geometry.make_icosphere(0.03, 2),
}
GRID_POINTS = [
    *((name, "48x5", DEFAULT) for name in ("ico3", "ico4", "ico5", "cube", "slim", "cyl", "cyl64")),
    *((name, "16x3", SCAN) for name in ("cube", "cyl", "cyl64", "scan_ico3")),
    *((name, f"{n}x1", COVER[n]) for name in ("cube", "cyl", "sph") for n in (4, 12, 24)),
    *((name, f"{n}x1", COVER[n]) for name in ("cyl64", "scan_ico3") for n in (4, 12)),
    *((name, f"{n}x5", CgrGridParams(n_angles=n)) for name in ("cyl", "ico3", "ico4", "ico5") for n in (16, 24, 32)),
    *((name, f"{n}x5", CgrGridParams(n_angles=n)) for name in ("ico4", "ico5") for n in (40, 64)),
]


def _row(**fields):
    print(json.dumps(fields), flush=True)


def _frames(mesh):
    points = surface_voxel_points(mesh, 0.005)
    points = points[np.linspace(0, len(points) - 1, 40).astype(int)]
    return geometry.point_direction_frames(points, geometry.fibonacci_sphere(48))


def _best(fn, repeats=3):
    best = np.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


_IMPORT = """
import json, sys, time
import numpy
t0 = time.perf_counter()
import cgrkit
t1 = time.perf_counter()
loaded = sum(m.split(".")[0] == "scipy" for m in sys.modules)
import scipy.spatial
print(json.dumps([t1 - t0, time.perf_counter() - t1, loaded]))
"""


def probe_import(runs=5):
    env = dict(os.environ, PYTHONPATH=SRC)
    done = [json.loads(subprocess.run([sys.executable, "-c", _IMPORT], env=env, capture_output=True,
                                      text=True, check=True).stdout) for _ in range(runs)]
    _row(probe="import", runs=runs, cgrkit_s=float(np.median([d[0] for d in done])),
         scipy_spatial_s=float(np.median([d[1] for d in done])), scipy_modules=done[0][2])


def probe_geometry(meshes):
    for name in ICOSPHERES:
        mesh = meshes[name]
        times = []
        for _ in range(5):
            t0 = time.perf_counter()
            geometry.voxelize_mesh(mesh, 0.005)
            times.append(time.perf_counter() - t0)
        _row(probe="voxelize", mesh=name, triangles=len(mesh), voxel_m=0.005, s=float(np.median(times)))
    for name, grid_name, grid in GRID_POINTS:
        mesh = meshes[name]
        frames = _frames(mesh)
        rays = len(frames) * grid.n_sections * grid.n_angles
        sections = cgr._by_sections(grid, mesh)
        for path in ("sections", "rays"):
            secs = _best(lambda: cgr._grids(mesh, frames, grid, path == "sections"))
            _row(probe="cgr_grids", mesh=name, triangles=len(mesh), grid=grid_name, path=path,
                 rays_per_s=round(rays / secs), selected=(path == "sections") == sections)
    rng = np.random.default_rng(0)
    for name in ICOSPHERES:
        mesh = meshes[name]
        lo, hi = mesh.bounds()
        origins = rng.uniform(lo - 0.01, hi + 0.01, (20_000, 3))
        dirs = rng.standard_normal((20_000, 3))
        times = []
        for o, d in zip(origins[:200], dirs[:200]):
            t0 = time.perf_counter()
            mesh.ray_intersect(o, d, 1.0)
            times.append(time.perf_counter() - t0)
        _row(probe="ray_single", mesh=name, triangles=len(mesh), us_per_cast=1e6 * float(np.median(times)))
        secs = _best(lambda: mesh.ray_intersect_batch(origins, dirs, 1.0))
        _row(probe="ray_batch", mesh=name, triangles=len(mesh), rays=len(origins), us_per_ray=1e6 * secs / len(origins))


def probe_sampling():
    for name, make in COVERAGE_SHAPES.items():
        mesh = make()
        times = []
        for _ in range(5):
            t0 = time.perf_counter()
            patches = sample_local_geometries(mesh, COVERAGE_PARAMS, 0, name)
            times.append(time.perf_counter() - t0)
        _row(probe="sample_local_geometries", mesh=name, triangles=len(mesh), patches=len(patches),
             ms=1e3 * float(np.median(times)))


def probe_coverage():
    pool = [p for name, make in COVERAGE_SHAPES.items()
            for p in sample_local_geometries(make(), COVERAGE_PARAMS, 0, name)]
    rng = np.random.default_rng(0)
    novel = sample_local_geometries(geometry.make_box((0.05, 0.07, 0.09)), COVERAGE_PARAMS, 0, "novel")
    probes = {
        "copied": [LocalGeometry(pool[i].points.copy(), "copy", None) for i in rng.choice(len(pool), 20, False)],
        "novel": [novel[i] for i in rng.choice(len(novel), 20, False)],
    }
    calls = {"is_covered": lambda q: is_covered(q, pool, 0.001), "unbounded": lambda q: min_chamfer(q, pool) < 0.001}
    for kind, patches in probes.items():
        for call, fn in calls.items():
            times = []
            for _ in range(3):
                t0 = time.perf_counter()
                results = [fn(q) for q in patches]
                times.append(time.perf_counter() - t0)
            _row(probe="min_chamfer", probes=kind, call=call, pool=len(pool), points=COVERAGE_PARAMS.points_per_patch,
                 ms_per_probe=1e3 * float(np.median(times)) / len(patches), covered=sum(results))


def probe_annotate():
    with tempfile.TemporaryDirectory() as tmp:
        geometry.save_obj(geometry.make_box((0.05, 0.05, 0.05)), os.path.join(tmp, "cube.obj"))
        scene = os.path.join(tmp, "cube.scene")
        with open(scene, "w") as f:
            f.write("mesh cube cube.obj\ninstance cube 1 0 0 0 0 0 0.025\ntable 0 0 0 0 0 1\n")
        env = dict(os.environ, PYTHONPATH=SRC)
        cmd = [sys.executable, "-m", "cgrkit.cli", "annotate", "--scene", scene,
               "--out", os.path.join(tmp, "cube.cgrd")]
        t0 = time.perf_counter()
        done = subprocess.run(cmd, env=env, capture_output=True, text=True, check=True)
        wall = time.perf_counter() - t0
    peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss  # Linux: kilobytes
    _row(probe="annotate_cli", mesh="cube", triangles=12, s=wall, peak_rss_mb=peak_kb / 1024,
         out=done.stdout.split(" -> ")[0].strip())


PROBES = {
    "import": probe_import,
    "geometry": lambda: probe_geometry({name: make() for name, make in MESHES.items()}),
    "sampling": probe_sampling,
    "coverage": probe_coverage,
    "annotate": probe_annotate,
}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--probe", action="append", choices=PROBES,
                    help="run only this probe (repeatable; default all, the CLI annotate taking a minute)")
    args = ap.parse_args(argv)
    for name in args.probe or PROBES:
        PROBES[name]()
    return 0


if __name__ == "__main__":
    sys.exit(main())
