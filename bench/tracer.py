"""Layer tracing from outside the library.

The tracer replaces public functions of ``yaoyao`` with timing wrappers at
every place the package binds them (the defining module and each module that
imported the name), so calls made inside the library are seen as well as the
benchmark's own.  Library code is not changed.  ``uninstall`` puts every
original object back.

Per traced name it keeps the call count, inclusive seconds, self seconds
(inclusive minus the traced calls made inside) and, through hooks, the bytes
of new clouds and the median splits by cloud dimension.  A target that no
longer exists is listed in ``absent`` instead of raising, so a later change
that removes or renames a function leaves its metrics missing rather than
the run broken.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from importlib import import_module

PACKAGE = "yaoyao"


def _cloud_bytes(args, kwargs, result, stat):
    cloud = args[0]
    stat.bytes += cloud.points.nbytes + cloud.weights.nbytes + cloud.ids.nbytes


def _split_dimension(args, kwargs, result, stat):
    cloud = args[0] if args else kwargs["cloud"]
    stat.by_dimension[cloud.dimension] += 1


# (metric prefix, module, dotted attribute, hook run after each traced call)
TARGETS = (
    ("measures.cloud_new", "yaoyao.measures", "WeightedPointCloud.__post_init__", _cloud_bytes),
    ("measures.split_at_median", "yaoyao.measures", "split_at_median", _split_dimension),
    ("measures.project_measure", "yaoyao.measures", "project_measure", None),
    ("measures.weighted_quantile", "yaoyao.measures", "weighted_quantile", None),
    ("measures.halfspace_mass", "yaoyao.measures", "halfspace_mass", None),
    ("measures.read_csv", "yaoyao.measures", "read_csv", None),
    ("measures.write_csv", "yaoyao.measures", "write_csv", None),
    ("geometry.membership_tolerance", "yaoyao.geometry", "membership_tolerance", None),
    ("geometry.cone_coefficients", "yaoyao.geometry", "cone_coefficients", None),
    ("geometry.halfspace_contains_region", "yaoyao.geometry", "halfspace_contains_region", None),
    ("partition.locate_points", "yaoyao.partition", "locate_points", None),
    ("partition.witness_region", "yaoyao.partition", "witness_region", None),
    ("partition.regions", "yaoyao.partition", "regions", None),
    ("partition.save", "yaoyao.partition", "save", None),
    ("partition.load", "yaoyao.partition", "load", None),
    ("solver.compute_center_partition", "yaoyao.solver", "compute_center_partition", None),
    ("verify.check_equipartition", "yaoyao.verify", "check_equipartition", None),
    ("verify.check_depth", "yaoyao.verify", "check_depth", None),
    ("verify.check_avoidance", "yaoyao.verify", "check_avoidance", None),
    ("cli.center", "yaoyao.cli", "cmd_center", None),
    ("cli.verify", "yaoyao.cli", "cmd_verify", None),
)


@dataclass
class Stat:
    calls: int = 0
    s: float = 0.0
    self_s: float = 0.0
    bytes: int = 0
    by_dimension: Counter = field(default_factory=Counter)


class Tracer:
    """Installs wrappers for ``targets``; records only inside ``recording()``."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.stats: dict[str, Stat] = {}
        self.absent: list[str] = []
        self._restore: list[tuple[object, str, object]] = []
        self._children: list[list[float]] = []
        self._on = False

    def install(self) -> None:
        for name, module_name, attr, hook in self.targets:
            try:
                owner = import_module(module_name)
                *path, leaf = attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = getattr(owner, leaf)
            except (ImportError, AttributeError):
                self.absent.append(name)
                continue
            self.stats[name] = Stat()
            wrapper = self._wrap(name, original, hook)
            if path:  # a method: one binding, on its class
                self._rebind(owner, leaf, wrapper)
                continue
            for mod_name, mod in list(sys.modules.items()):
                if mod_name != PACKAGE and not mod_name.startswith(PACKAGE + "."):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._rebind(mod, key, wrapper)

    def uninstall(self) -> None:
        while self._restore:
            owner, key, original = self._restore.pop()
            setattr(owner, key, original)

    def _rebind(self, owner, key, wrapper) -> None:
        # read through __dict__ so a class attribute is restored unbound
        self._restore.append((owner, key, vars(owner)[key]))
        setattr(owner, key, wrapper)

    @contextmanager
    def recording(self):
        self._on = True
        try:
            yield
        finally:
            self._on = False

    def _wrap(self, name, fn, hook):
        stat = self.stats[name]
        children = self._children
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self._on:
                return fn(*args, **kwargs)
            inner = [0.0]
            children.append(inner)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                children.pop()
                if children:
                    children[-1][0] += dt
                stat.calls += 1
                stat.s += dt
                stat.self_s += dt - inner[0]
            if hook is not None:
                hook(args, kwargs, result, stat)
            return result

        return traced
