"""Span tracer installed from outside cgrkit.

Every public function of the layer modules, and every public plain method of
the classes they define, is replaced by a timing wrapper. A function bound in
several modules (``from .hand import hand_scene_collision`` in ``pipeline``)
is replaced in each of them, so calls through any binding are seen.

Spans (name, start, end, parent, unit id) are kept in flat arrays in memory
and written out by ``write_spans`` after the measured section. The unit id
names the collect trial or evaluate attempt a span belongs to (0 = none).
"""

from __future__ import annotations

import inspect
import os
import sys
import time
from array import array
from collections import Counter, defaultdict
from contextlib import contextmanager

LAYERS = ("geometry", "cgr", "contacts", "hand", "annotation", "model", "coverage", "pipeline")

# (parent span, child span) pairs whose child starts a new trial or attempt
_UNIT_STARTS = {
    ("pipeline.collect", "hand.candidates_from_cgr"),
    ("pipeline.evaluate", "annotation.annotate_scene"),
}

# triangle-count buckets for batched ray-cast rates: "t<N>" holds meshes of
# at most N triangles and more than the previous bound; larger meshes count
# only in the totals
RAY_BUCKETS = (16, 256, 1024, 4096)


def ray_bucket(n_triangles: int) -> str | None:
    for bound in RAY_BUCKETS:
        if n_triangles <= bound:
            return f"t{bound}"
    return None


class CountingCache(dict):
    """Annotation cache that counts membership tests: annotate_scene asks
    ``mesh_id in cache`` once per instance, so these are its hits and misses."""

    def __init__(self, counts: Counter):
        super().__init__()
        self._counts = counts

    def __contains__(self, key):
        found = super().__contains__(key)
        self._counts["annotation.cache_hits" if found else "annotation.cache_misses"] += 1
        return found


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_unit = array("i")
        self.calls = Counter()
        self.busy = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counts = Counter()
        self.values = defaultdict(float)
        self._stack: list[list] = []  # [span index, name, child seconds]
        self._unit = 0
        self._patches: list[tuple[object, str, object]] = []

    # -- spans -----------------------------------------------------------

    def _open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else None
        if parent is not None and (parent[1], name) in _UNIT_STARTS:
            self._unit = len(self.span_start) + 1
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.span_start)
        self.span_name.append(nid)
        self.span_parent.append(parent[0] if parent is not None else -1)
        self.span_unit.append(self._unit)
        self.span_end.append(0.0)
        entry = [idx, name, 0.0]
        self._stack.append(entry)
        self.span_start.append(time.perf_counter())
        return entry

    def _close(self, entry: list) -> float:
        end = time.perf_counter()
        idx, name, child = entry
        self._stack.pop()
        self.span_end[idx] = end
        dur = end - self.span_start[idx]
        self.calls[name] += 1
        self.busy[name] += dur
        self.self_time[name] += dur - child
        if self._stack:
            self._stack[-1][2] += dur
        if name in ("pipeline.collect", "pipeline.evaluate"):
            self._unit = 0
        return dur

    @contextmanager
    def span(self, name: str):
        entry = self._open(name)
        try:
            yield
        finally:
            self._close(entry)

    # -- installation ----------------------------------------------------

    def _wrap(self, fn, name: str):
        observe = _OBSERVERS.get(name)
        tracer = self

        if name == "geometry.TriangleMesh.ray_intersect":

            def wrapped(mesh, *args, **kwargs):
                if mesh._bvh is None and len(mesh):
                    # the first cast on a mesh object builds its BVH
                    entry = tracer._open("geometry.bvh_build")
                    try:
                        mesh._ensure_bvh()
                    finally:
                        tracer._close(entry)
                entry = tracer._open(name)
                try:
                    return fn(mesh, *args, **kwargs)
                finally:
                    tracer._close(entry)

        else:

            def wrapped(*args, **kwargs):
                entry = tracer._open(name)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    dur = tracer._close(entry)
                if observe is not None:
                    observe(tracer, args, kwargs, result, dur)
                return result

        wrapped.__wrapped__ = fn
        wrapped.__name__ = fn.__name__
        return wrapped

    def install(self, package: str = "cgrkit") -> None:
        """Wrap the public functions and methods of ``<package>.<layer>`` and
        rebind them in every loaded module of the package."""
        replacements = {}
        for layer in LAYERS:
            mod = sys.modules[f"{package}.{layer}"]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    replacements[obj] = self._wrap(obj, f"{layer}.{attr}")
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    for mname, member in list(vars(obj).items()):
                        if mname.startswith("_") or not inspect.isfunction(member):
                            continue
                        self._patch(obj, mname, self._wrap(member, f"{layer}.{attr}.{mname}"))
        for name, mod in list(sys.modules.items()):
            if name != package and not name.startswith(package + "."):
                continue
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in replacements:
                    self._patch(mod, attr, replacements[obj])

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- output ----------------------------------------------------------

    def write_spans(self, path: str) -> int:
        """Tab-separated spans, one per line; returns the span count."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        names = self.names
        with open(path, "w") as f:
            f.write("id\tname\tstart_s\tend_s\tparent\tunit\n")
            t0 = self.span_start[0] if len(self.span_start) else 0.0
            for i in range(len(self.span_start)):
                f.write(
                    f"{i}\t{names[self.span_name[i]]}\t{self.span_start[i] - t0:.9f}\t"
                    f"{self.span_end[i] - t0:.9f}\t{self.span_parent[i]}\t{self.span_unit[i]}\n"
                )
        return len(self.span_start)

    def layer_self_seconds(self) -> dict:
        out = dict.fromkeys(LAYERS, 0.0)
        for name, secs in self.self_time.items():
            layer = name.split(".", 1)[0]
            if layer in out:
                out[layer] += secs
        return out


# ---------------------------------------------------------------------------
# Observers: counts taken from arguments and results at the layer boundary


def _obs_ray_batch(tr, args, kwargs, result, dur):
    mesh, origins = args[0], args[1]
    rays = len(origins)
    tris = len(mesh)
    bucket = ray_bucket(tris)
    tr.counts["geometry.ray_batch.rays"] += rays
    tr.counts["geometry.ray_batch.ray_tri_products"] += rays * tris
    if bucket is not None:
        tr.counts[f"geometry.ray_batch.rays.{bucket}"] += rays
        tr.values[f"geometry.ray_batch.busy_s.{bucket}"] += dur


def _obs_compute_cgrs(tr, args, kwargs, result, dur):
    tr.counts["cgr.compute_cgrs.frames"] += len(result)


def _obs_annotate(tr, args, kwargs, result, dur):
    tr.counts["annotation.records"] += len(result.records)
    tr.counts["annotation.valid_records"] += sum(1 for r in result.records if r.valid)


def _obs_approach(tr, args, kwargs, result, dur):
    tr.counts["annotation.approach_filter.rejected"] += bool(result)


def _obs_write_dataset(tr, args, kwargs, result, dur):
    path = args[1] if len(args) > 1 else kwargs["path"]
    tr.counts["annotation.dataset.bytes"] += os.path.getsize(path)


def _obs_collision(tr, args, kwargs, result, dur):
    tr.counts["hand.collision.hits"] += bool(result)
    if tr._stack and tr._stack[-1][1] == "pipeline.collect":
        tr.counts["pipeline.collect.skip_collision"] += bool(result)


def _obs_force_closure(tr, args, kwargs, result, dur):
    tr.counts["contacts.force_closure.feasible"] += bool(result.feasible)


def _obs_forward(tr, args, kwargs, result, dur):
    x = args[1] if len(args) > 1 else kwargs["x"]
    tr.counts["model.forward.rows"] += 1 if getattr(x, "ndim", 1) == 1 else len(x)


def _obs_collect(tr, args, kwargs, result, dur):
    tr.counts["pipeline.collect.trials"] += len(result)


def _obs_oracle(tr, args, kwargs, result, dur):
    tr.counts["pipeline.oracle.successes"] += bool(result[0])


def _obs_evaluate(tr, args, kwargs, result, dur):
    policy = args[0] if args else kwargs["policy"]
    tr.counts["pipeline.evaluate.attempts"] += result.attempts
    tr.counts[f"pipeline.evaluate.{policy}.attempts"] += result.attempts
    tr.counts[f"pipeline.evaluate.{policy}.successes"] += result.successes


def _obs_sample_local(tr, args, kwargs, result, dur):
    tr.counts["coverage.sample_local_geometries.patches"] += len(result)


def _obs_min_chamfer(tr, args, kwargs, result, dur):
    stop = args[2] if len(args) > 2 else kwargs.get("stop_below")
    covered = stop is not None and result < stop
    tr.values["coverage.min_chamfer.covered_busy_s" if covered else "coverage.min_chamfer.uncovered_busy_s"] += dur


def _obs_is_covered(tr, args, kwargs, result, dur):
    tr.counts["coverage.covered_patches"] += bool(result)


_OBSERVERS = {
    "geometry.TriangleMesh.ray_intersect_batch": _obs_ray_batch,
    "cgr.compute_cgrs": _obs_compute_cgrs,
    "annotation.annotate_scene": _obs_annotate,
    "annotation.approach_collision_filter": _obs_approach,
    "annotation.write_dataset": _obs_write_dataset,
    "hand.hand_scene_collision": _obs_collision,
    "contacts.force_closure": _obs_force_closure,
    "model.forward": _obs_forward,
    "pipeline.collect": _obs_collect,
    "pipeline.grasp_oracle": _obs_oracle,
    "pipeline.evaluate": _obs_evaluate,
    "coverage.sample_local_geometries": _obs_sample_local,
    "coverage.min_chamfer": _obs_min_chamfer,
    "coverage.is_covered": _obs_is_covered,
}


def per_layer_metrics(tr: Tracer) -> dict:
    """Per-layer metrics by name -> (value, unit)."""
    c, busy, self_t, calls, v = tr.counts, tr.busy, tr.self_time, tr.calls, tr.values

    def ratio(num, den):
        return num / den if den else 0.0

    m = {}
    m["geometry.ray_batch.rays"] = (c["geometry.ray_batch.rays"], "count")
    m["geometry.ray_batch.busy_s"] = (busy["geometry.TriangleMesh.ray_intersect_batch"], "s")
    m["geometry.ray_batch.ray_tri_products"] = (c["geometry.ray_batch.ray_tri_products"], "count")
    for bound in RAY_BUCKETS:
        b = f"t{bound}"
        m[f"geometry.ray_batch.rays_per_s.{b}"] = (
            ratio(c[f"geometry.ray_batch.rays.{b}"], v[f"geometry.ray_batch.busy_s.{b}"]), "1/s")
    m["geometry.ray_single.calls"] = (calls["geometry.TriangleMesh.ray_intersect"], "count")
    m["geometry.ray_single.busy_s"] = (busy["geometry.TriangleMesh.ray_intersect"], "s")
    m["geometry.bvh_builds"] = (calls["geometry.bvh_build"], "count")
    m["geometry.bvh_build_s"] = (busy["geometry.bvh_build"], "s")
    m["geometry.voxelize.busy_s"] = (busy["geometry.voxelize_mesh"], "s")
    m["geometry.sample_surface.busy_s"] = (busy["geometry.sample_surface_points"], "s")
    m["geometry.compose.calls"] = (calls["geometry.RigidTransform.compose"], "count")
    m["geometry.compose.busy_s"] = (busy["geometry.RigidTransform.compose"], "s")

    m["cgr.compute_cgrs.frames"] = (c["cgr.compute_cgrs.frames"], "count")
    m["cgr.compute_cgrs.self_s"] = (self_t["cgr.compute_cgrs"], "s")
    m["cgr.antipodal_rep.calls"] = (calls["cgr.antipodal_rep"], "count")
    m["cgr.antipodal_rep.busy_s"] = (busy["cgr.antipodal_rep"], "s")

    m["annotation.annotate_scene.calls"] = (calls["annotation.annotate_scene"], "count")
    m["annotation.annotate_scene.self_s"] = (self_t["annotation.annotate_scene"], "s")
    m["annotation.cache_hits"] = (c["annotation.cache_hits"], "count")
    m["annotation.cache_misses"] = (c["annotation.cache_misses"], "count")
    m["annotation.approach_filter.calls"] = (calls["annotation.approach_collision_filter"], "count")
    m["annotation.approach_filter.busy_s"] = (busy["annotation.approach_collision_filter"], "s")
    m["annotation.valid_ratio"] = (ratio(c["annotation.valid_records"], c["annotation.records"]), "ratio")
    m["annotation.merged_mesh.calls"] = (calls["annotation.Scene.merged_mesh"], "count")
    m["annotation.dataset.write_s"] = (busy["annotation.write_dataset"], "s")
    m["annotation.dataset.read_s"] = (busy["annotation.read_dataset"], "s")
    m["annotation.dataset.bytes"] = (c["annotation.dataset.bytes"], "bytes")

    m["hand.collision.calls"] = (calls["hand.hand_scene_collision"], "count")
    m["hand.collision.busy_s"] = (busy["hand.hand_scene_collision"], "s")
    m["hand.collision.hit_ratio"] = (ratio(c["hand.collision.hits"], calls["hand.hand_scene_collision"]), "ratio")
    m["hand.fingertip_contacts.self_s"] = (self_t["hand.fingertip_contacts"], "s")
    m["hand.candidates.busy_s"] = (busy["hand.candidates_from_cgr"], "s")

    m["contacts.force_closure.calls"] = (calls["contacts.force_closure"], "count")
    m["contacts.force_closure.busy_s"] = (busy["contacts.force_closure"], "s")
    m["contacts.force_closure.feasible_ratio"] = (
        ratio(c["contacts.force_closure.feasible"], calls["contacts.force_closure"]), "ratio")

    m["model.gradients.calls"] = (calls["model.gradients"], "count")
    m["model.gradients.busy_s"] = (busy["model.gradients"], "s")
    m["model.train.self_s"] = (self_t["model.train"], "s")
    m["model.forward.rows"] = (c["model.forward.rows"], "count")
    m["model.forward.busy_s"] = (busy["model.forward"], "s")

    m["pipeline.collect.trials"] = (c["pipeline.collect.trials"], "count")
    m["pipeline.collect.skip_collision"] = (c["pipeline.collect.skip_collision"], "count")
    m["pipeline.oracle.calls"] = (calls["pipeline.grasp_oracle"], "count")
    m["pipeline.oracle.success_ratio"] = (
        ratio(c["pipeline.oracle.successes"], calls["pipeline.grasp_oracle"]), "ratio")
    m["pipeline.detect.busy_s"] = (busy["pipeline.detect"] + busy["pipeline.detect_baseline"], "s")
    m["pipeline.evaluate.attempts"] = (c["pipeline.evaluate.attempts"], "count")
    for policy in ("detect", "baseline"):
        m[f"pipeline.evaluate.{policy}_success_ratio"] = (ratio(
            c[f"pipeline.evaluate.{policy}.successes"], c[f"pipeline.evaluate.{policy}.attempts"]), "ratio")
    m["pipeline.trials.write_s"] = (busy["pipeline.write_trials"], "s")
    m["pipeline.trials.read_s"] = (busy["pipeline.read_trials"], "s")

    m["coverage.sample_local_geometries.patches"] = (c["coverage.sample_local_geometries.patches"], "count")
    m["coverage.sample_local_geometries.busy_s"] = (busy["coverage.sample_local_geometries"], "s")
    m["coverage.min_chamfer.calls"] = (calls["coverage.min_chamfer"], "count")
    m["coverage.min_chamfer.covered_busy_s"] = (v["coverage.min_chamfer.covered_busy_s"], "s")
    m["coverage.min_chamfer.uncovered_busy_s"] = (v["coverage.min_chamfer.uncovered_busy_s"], "s")
    m["coverage.covered_patches"] = (c["coverage.covered_patches"], "count")

    for layer, secs in tr.layer_self_seconds().items():
        m[f"{layer}.self_s"] = (secs, "s")
    return m
