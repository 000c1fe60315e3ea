"""Span tracer that wraps the library's public functions from outside.

Each traced function is replaced at every binding that refers to it: its own
module, every module that imported it by name (``from .lattice import
verify_tiling``) and the package namespace.  Lattice methods are replaced on
the class.  A span records (name, start, end, parent); self time is a span's
duration minus the time its child spans cover.  Spans are kept in memory up
to a cap and written out when the run ends; per-name aggregates are always
complete.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from array import array
from collections import Counter

# module -> functions wrapped there; "Class.method" names are patched on the class
TRACED = {
    "exactmath": ["determinant", "hermite_normal_form", "smith_normal_form", "integer_kernel"],
    "chair": ["enumerate_points", "shifted_copies_intersect"],
    "lattice": [
        "Lattice.__init__", "Lattice.canonical", "Lattice.smith", "Lattice.coset_label",
        "Lattice.member", "chair_lattice", "lattice_points_in_box", "verify_packing",
        "verify_tiling", "torus_tiling_oracle",
    ],
    "splitting": [
        "general_chair_splitting", "verify_splitting", "splitting_to_lattice",
        "lattice_to_splitting",
    ],
    "codes": ["perfect_code", "enumerate_sphere", "decode", "exhaustive_perfect_search"],
    "wom": ["build_coloring", "check_write_guarantee", "write_binary"],
    "cli": ["main", "cmd_construct", "cmd_verify", "cmd_decode", "cmd_search", "cmd_wom"],
}

# names whose individual call durations are kept for percentiles
KEEP_DURATIONS = ("codes.decode",)

SPAN_CAP = 100_000


def _detail(verdict) -> dict:
    return dict(getattr(verdict, "detail", ()) or ())


def _count_points(tracer, result, args):
    tracer.counts["chair.enumerate_points.points"] += len(result)


def _count_search(tracer, result, args):
    tracer.counts["codes.exhaustive_perfect_search.examined"] += result.examined
    tracer.counts["codes.exhaustive_perfect_search.found"] += len(result.found)


def _count_torus(tracer, result, args):
    tracer.counts["lattice.torus_tiling_oracle.cells"] += int(_detail(result).get("cells", 0))


def _count_coloring(tracer, result, args):
    tracer.counts["wom.build_coloring.cells"] += len(result.colors)


def _count_anchors(tracer, result, args):
    tracer.counts["wom.check_write_guarantee.anchors"] += int(_detail(result).get("anchors", 0))


HOOKS = {
    "chair.enumerate_points": _count_points,
    "codes.exhaustive_perfect_search": _count_search,
    "lattice.torus_tiling_oracle": _count_torus,
    "wom.build_coloring": _count_coloring,
    "wom.check_write_guarantee": _count_anchors,
}


class Tracer:
    """Collects spans and per-name aggregates while installed."""

    def __init__(self, span_cap: int = SPAN_CAP):
        self.stats: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.root_calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.durations = {name: array("d") for name in KEEP_DURATIONS}
        self.spans: list = []
        self.span_cap = span_cap
        self.dropped = 0
        self._stack: list[list] = []  # frames: [span_id, child_time]
        self._patched: list[tuple[object, str, object]] = []
        self._originals: dict[int, str] = {}

    # -- span bookkeeping -------------------------------------------------
    def _enter(self):
        sid = len(self.spans)
        if sid < self.span_cap:
            self.spans.append(None)
        else:
            sid = -1
            self.dropped += 1
        frame = [sid, 0.0]
        self._stack.append(frame)
        return frame

    def _exit(self, name: str, frame: list, start: float, end: float, call: bool) -> float:
        self._stack.pop()
        d = end - start
        st = self.stats[name]
        if call:
            st[0] += 1
        st[1] += d
        st[2] += d - frame[1]
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[1] += d
        elif call:
            self.root_calls[name] += 1
        if frame[0] >= 0:
            self.spans[frame[0]] = (name, start, end, parent[0] if parent else -1)
        return d

    def _wrap(self, name: str, fn):
        self.stats.setdefault(name, [0, 0.0, 0.0])
        hook = HOOKS.get(name)
        durations = self.durations.get(name)
        clock = time.perf_counter
        tracer = self

        if name == "lattice.lattice_points_in_box":
            @functools.wraps(fn)
            def box_wrapper(*args, **kwargs):
                frame = tracer._enter()
                start = clock()
                try:
                    it = fn(*args, **kwargs)
                finally:
                    tracer._exit(name, frame, start, clock(), True)
                return tracer._consume(name, it)
            return box_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = tracer._enter()
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                d = tracer._exit(name, frame, start, clock(), True)
                if durations is not None:
                    durations.append(d)
            if hook is not None:
                hook(tracer, result, args)
            return result

        if name == "wom.write_binary":
            @functools.wraps(fn)
            def write_wrapper(col, stream):
                pos = stream.tell()
                result = wrapper(col, stream)
                tracer.counts["wom.write_binary.bytes"] += stream.tell() - pos
                return result
            return write_wrapper
        return wrapper

    def _consume(self, name: str, it):
        # time the generator only while its consumer is pulling points from it
        clock = time.perf_counter
        points = 0
        try:
            while True:
                frame = self._enter()
                start = clock()
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self._exit(name, frame, start, clock(), False)
                points += 1
                yield item
        finally:
            self.counts[name + ".points"] += points

    # -- installation -----------------------------------------------------
    def install(self) -> None:
        import chaircodes.cli  # noqa: F401  (every module must be loaded before patching)

        replacements: dict[int, object] = {}
        for mod_name, names in TRACED.items():
            module = sys.modules[f"chaircodes.{mod_name}"]
            for qual in names:
                full = f"{mod_name}.{qual}"
                if "." in qual:
                    cls_name, meth = qual.split(".")
                    cls = getattr(module, cls_name)
                    fn = cls.__dict__[meth]
                    self._set(cls, meth, self._wrap(full, fn))
                else:
                    fn = getattr(module, qual)
                    replacements[id(fn)] = self._wrap(full, fn)
                self._originals[id(fn)] = full
        for module in self._package_modules():
            for attr, value in list(vars(module).items()):
                wrapper = replacements.get(id(value))
                if wrapper is not None:
                    self._set(module, attr, wrapper)
        missed = self.missed_bindings()
        if missed:
            self.uninstall()
            raise RuntimeError(f"tracer missed bindings: {missed}")

    def _set(self, owner, attr: str, value) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    @staticmethod
    def _package_modules():
        return [m for n, m in sorted(sys.modules.items())
                if m is not None and (n == "chaircodes" or n.startswith("chaircodes."))]

    def missed_bindings(self) -> list[str]:
        """Module or class attributes that still refer to an unwrapped original."""
        missed = []
        for module in self._package_modules():
            owners = [module] + [v for v in vars(module).values()
                                 if inspect.isclass(v) and v.__module__ == module.__name__]
            for owner in owners:
                for attr, value in vars(owner).items():
                    if id(value) in self._originals:
                        missed.append(f"{getattr(owner, '__name__', owner)}.{attr}")
        return missed

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- results ----------------------------------------------------------
    def to_json_dict(self) -> dict:
        return {
            "stats": self.stats,
            "root_calls": dict(self.root_calls),
            "counts": dict(self.counts),
            "durations": {k: list(v) for k, v in self.durations.items()},
            "spans": self.spans,
            "dropped": self.dropped,
        }

    def merge(self, data: dict) -> None:
        """Add the aggregates of another tracer, e.g. one in a child process."""
        for name, (calls, total, self_s) in data["stats"].items():
            st = self.stats.setdefault(name, [0, 0.0, 0.0])
            st[0] += calls
            st[1] += total
            st[2] += self_s
        self.root_calls.update(data["root_calls"])
        self.counts.update(data["counts"])
        for name, values in data["durations"].items():
            self.durations.setdefault(name, array("d")).extend(values)
        self.dropped += data["dropped"]

    def write_spans(self, path, extra: list | None = None) -> int:
        """Write spans as JSON lines; extra holds (process, spans) pairs from children."""
        written = 0
        with open(path, "w") as fh:
            for proc, spans in [(0, self.spans)] + (extra or []):
                for sid, span in enumerate(spans):
                    if span is None:
                        continue
                    name, start, end, parent = span
                    fh.write(json.dumps({"proc": proc, "id": sid, "parent": parent, "name": name,
                                         "start": start, "end": end}) + "\n")
                    written += 1
        return written
