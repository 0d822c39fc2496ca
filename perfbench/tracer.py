"""Outside-in span tracer for wassray.

The tracer times calls into the library's layers without editing the
library: ``install`` replaces every module-level binding of each target
function (``from .ot import solve_ot`` copies the name into ``paths``,
``coray``, ``verify``, ``cli`` and the package, so each copy is patched),
plus function references held in module-level dicts such as
``verify._SUITES``; ``uninstall`` puts the originals back.

Each call becomes one span: (name, parent span, start, end, attrs). Spans
stay in memory until the caller collects them, and ``layer_metrics``
reduces one list of spans to the per-layer numbers the benchmark reports.
A span's self time is its duration minus the durations of its direct
children.
"""

from __future__ import annotations

import json
import sys
import time
from dataclasses import dataclass

import numpy as np

# (module, attribute path, span name).  The span name is the layer and the
# function, so per-layer sums are prefix matches.
TARGETS = (
    ("wassray.ot", "solve_ot", "ot.solve_ot"),
    ("wassray.ot", "wasserstein_distance", "ot.wasserstein_distance"),
    ("wassray.ot", "brute_force_ot", "ot.brute_force_ot"),
    ("wassray.ot", "pairwise_distances", "ot.pairwise_distances"),
    ("wassray.ot", "_solve_lp", "ot._solve_lp"),
    ("wassray.ot", "linprog", "ot.linprog"),
    ("wassray.ot", "Coupling.__post_init__", "ot.Coupling.__post_init__"),
    ("wassray.measures", "merge_atoms", "measures.merge_atoms"),
    ("wassray.measures", "DiscreteMeasure.__post_init__", "measures.DiscreteMeasure.__post_init__"),
    ("wassray.paths", "lift_geodesic", "paths.lift_geodesic"),
    ("wassray.paths", "section", "paths.section"),
    ("wassray.paths", "ray_section", "paths.ray_section"),
    ("wassray.paths", "validate_ray", "paths.validate_ray"),
    ("wassray.busemann", "busemann_value", "busemann.busemann_value"),
    ("wassray.busemann", "lipschitz_check", "busemann.lipschitz_check"),
    ("wassray.coray", "construct_coray", "coray.construct_coray"),
    ("wassray.coray", "coray_gradient_check", "coray.coray_gradient_check"),
    ("wassray.coray", "busemann_subadditivity_check", "coray.busemann_subadditivity_check"),
    ("wassray.coray", "subray_uniqueness_check", "coray.subray_uniqueness_check"),
    ("wassray.coray", "viscosity_check", "coray.viscosity_check"),
    ("wassray.io", "read_measure", "io.read_measure"),
    ("wassray.io", "read_ray", "io.read_ray"),
    ("wassray.io", "write_measure", "io.write_measure"),
    ("wassray.io", "write_ray", "io.write_ray"),
    ("wassray.cli", "main", "cli.main"),
    ("wassray.verify", "ot_checks", "verify.ot_checks"),
    ("wassray.verify", "ray_checks", "verify.ray_checks"),
    ("wassray.verify", "busemann_checks", "verify.busemann_checks"),
    ("wassray.verify", "coray_checks", "verify.coray_checks"),
    ("wassray.verify", "run_suite", "verify.run_suite"),
    # time inside the HiGHS extension, below scipy's linprog wrapper
    ("scipy.optimize._linprog_highs", "_highs_wrapper", "ot.highs"),
)

# Callers that solve_ot counts are broken down by: the innermost traced
# span outside the ``ot`` layer, as seen across the three workloads.
# Anything else lands in ``other``; calls the benchmark makes itself land
# in ``direct``.
SOLVE_CALLERS = (
    "direct",
    "paths.lift_geodesic",
    "paths.validate_ray",
    "busemann.busemann_value",
    "busemann.lipschitz_check",
    "coray.construct_coray",
    "coray.subray_uniqueness_check",
    "coray.viscosity_check",
    "verify.ot_checks",
    "verify.ray_checks",
    "verify.coray_checks",
    "other",
)

VERIFY_SUITES = ("ot", "ray", "busemann", "coray")


def instance_class(mu, nu) -> str:
    """Transport instance class: ``d1``, ``uniform_square`` or ``general``."""
    if mu.dim == 1:
        return "d1"
    if len(mu) == len(nu) and np.ptp(mu.weights) == 0.0 and np.ptp(nu.weights) == 0.0:
        return "uniform_square"
    return "general"


def _attrs_on_call(name, args):
    if name == "ot.solve_ot":
        return {"class": instance_class(args[0], args[1])}
    if name == "ot._solve_lp":
        rows, cols = args[2].shape
        return {"cells": rows * cols}
    return None


def _attrs_on_result(name, result, attrs):
    if name == "ot.linprog":
        attrs = attrs or {}
        attrs["nit"] = int(result.nit)
        attrs["status"] = int(result.status)
    elif name == "busemann.busemann_value":
        attrs = attrs or {}
        attrs["doublings"] = len(result.schedule) - 1
    return attrs


def _resolve(module_name, path):
    module = sys.modules.get(module_name)
    if module is None:
        return None, None, None
    owner = module
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return module, owner, parts[-1]


class Tracer:
    """Records spans around the target functions while installed."""

    def __init__(self):
        self.spans: list[list] = []  # [name, parent, start, end, attrs]
        self._stack: list[int] = []
        self._bindings = None
        self._installed = False

    def _wrap(self, name, fn):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            attrs = _attrs_on_call(name, args)
            index = len(spans)
            span = [name, stack[-1] if stack else -1, 0.0, 0.0, attrs]
            spans.append(span)
            stack.append(index)
            span[2] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[3] = clock()
                span[4] = dict(span[4] or {}, error=type(exc).__name__)
                raise
            finally:
                stack.pop()
            span[3] = clock()
            span[4] = _attrs_on_result(name, result, span[4])
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def _find_bindings(self):
        """(owner, key, original, wrapper, in_dict) for every binding to patch."""
        modules = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "wassray"]
        found = []
        for module_name, path, name in TARGETS:
            module, owner, attr = _resolve(module_name, path)
            if module is None or attr not in vars(owner):
                continue
            original = vars(owner)[attr]
            wrapper = self._wrap(name, original)
            if owner is not module:  # a method: the class is the one binding
                found.append((owner, attr, original, wrapper, False))
                continue
            scope = modules if module_name.startswith("wassray") else [module]
            for mod in scope:
                for key, value in vars(mod).items():
                    if value is original:
                        found.append((mod, key, original, wrapper, False))
                    elif isinstance(value, dict):
                        found += [(value, k, original, wrapper, True)
                                  for k, v in value.items() if v is original]
        return found

    def install(self) -> None:
        if self._installed:
            raise RuntimeError("tracer already installed")
        if self._bindings is None:
            self._bindings = self._find_bindings()
        for owner, key, _, wrapper, in_dict in self._bindings:
            if in_dict:
                owner[key] = wrapper
            else:
                setattr(owner, key, wrapper)
        self._installed = True

    def uninstall(self) -> None:
        for owner, key, original, _, in_dict in self._bindings or ():
            if in_dict:
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._installed = False

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def take(self) -> list[list]:
        """Hand over the recorded spans and start a fresh list."""
        if self._stack:
            raise RuntimeError("spans still open")
        spans = self.spans[:]
        self.spans.clear()
        return spans


def write_spans(spans, path) -> None:
    with open(path, "w") as fh:
        for index, (name, parent, start, end, attrs) in enumerate(spans):
            fh.write(
                json.dumps(
                    {"id": index, "name": name, "parent": parent,
                     "start": start, "end": end, "attrs": attrs or {}}
                )
                + "\n"
            )


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str


COUNT_METRICS = (
    ["ot.solve_calls", "ot.lp_solves", "ot.lp_cells", "ot.highs_iters", "ot.lp_failures"]
    + [f"ot.solves.{caller}" for caller in SOLVE_CALLERS]
    + ["measures.merge_calls", "busemann.calls", "busemann.doublings", "coray.construct_calls"]
)
RATIO_METRICS = ["ot.lp_fraction", "coray.solves_per_construct"]
TIME_METRICS = [
    "ot.solve_s", "ot.lp_s", "ot.linprog_s", "ot.highs_s", "ot.cost_matrix_s",
    "ot.coupling_check_s", "ot.lp_s.d1", "ot.lp_s.uniform_square", "ot.lp_s.general",
    "measures.merge_s", "measures.validate_s", "paths.section_s", "paths.ray_section_s",
    "paths.lift_self_s", "paths.validate_ray_s", "busemann.self_s", "coray.self_s",
    "io.read_s", "io.write_s", "cli.self_s",
] + [f"verify.{suite}_s" for suite in VERIFY_SUITES]

LAYER_METRICS = (
    [Metric(n, "count") for n in COUNT_METRICS]
    + [Metric(n, "ratio") for n in RATIO_METRICS]
    + [Metric(n, "s") for n in TIME_METRICS]
)


def layer_metrics(spans) -> dict[str, float]:
    """Reduce one list of spans to the per-layer metrics, keyed by name."""
    n = len(spans)
    duration = [end - start for _, _, start, end, _ in spans]
    child_time = [0.0] * n
    for i, span in enumerate(spans):
        if span[1] >= 0:
            child_time[span[1]] += duration[i]

    out = {m.name: 0.0 for m in LAYER_METRICS}
    total: dict[str, float] = {}
    calls: dict[str, int] = {}
    self_by_layer: dict[str, float] = {}
    for i, (name, _, _, _, _) in enumerate(spans):
        total[name] = total.get(name, 0.0) + duration[i]
        calls[name] = calls.get(name, 0) + 1
        layer = name.split(".")[0]
        self_by_layer[layer] = self_by_layer.get(layer, 0.0) + duration[i] - child_time[i]

    def ancestor(i, test):
        parent = spans[i][1]
        while parent >= 0:
            if test(spans[parent][0]):
                return parent
            parent = spans[parent][1]
        return -1

    construct_solves = 0
    for i, (name, _, _, _, attrs) in enumerate(spans):
        attrs = attrs or {}
        if name == "ot.solve_ot":
            caller = ancestor(i, lambda s: not s.startswith("ot."))
            caller_name = "direct" if caller < 0 else spans[caller][0]
            if caller_name not in SOLVE_CALLERS:
                caller_name = "other"
            out[f"ot.solves.{caller_name}"] += 1
            if ancestor(i, lambda s: s == "coray.construct_coray") >= 0:
                construct_solves += 1
        elif name == "ot._solve_lp":
            out["ot.lp_cells"] += attrs.get("cells", 0)
            if "error" in attrs:
                out["ot.lp_failures"] += 1
            owner = ancestor(i, lambda s: s == "ot.solve_ot")
            cls = (spans[owner][4] or {}).get("class", "general") if owner >= 0 else "general"
            out[f"ot.lp_s.{cls}"] += duration[i]
        elif name == "ot.linprog":
            out["ot.highs_iters"] += attrs.get("nit", 0)
        elif name == "busemann.busemann_value":
            out["busemann.doublings"] += attrs.get("doublings", 0)
        elif name == "paths.lift_geodesic":
            out["paths.lift_self_s"] += duration[i] - child_time[i]

    out["ot.solve_calls"] = calls.get("ot.solve_ot", 0)
    out["ot.lp_solves"] = calls.get("ot._solve_lp", 0)
    out["ot.lp_fraction"] = out["ot.lp_solves"] / max(out["ot.solve_calls"], 1)
    out["measures.merge_calls"] = calls.get("measures.merge_atoms", 0)
    out["busemann.calls"] = calls.get("busemann.busemann_value", 0)
    out["coray.construct_calls"] = calls.get("coray.construct_coray", 0)
    out["coray.solves_per_construct"] = construct_solves / max(out["coray.construct_calls"], 1)
    sums = {
        "ot.solve_s": "ot.solve_ot",
        "ot.lp_s": "ot._solve_lp",
        "ot.linprog_s": "ot.linprog",
        "ot.highs_s": "ot.highs",
        "ot.cost_matrix_s": "ot.pairwise_distances",
        "ot.coupling_check_s": "ot.Coupling.__post_init__",
        "measures.merge_s": "measures.merge_atoms",
        "measures.validate_s": "measures.DiscreteMeasure.__post_init__",
        "paths.section_s": "paths.section",
        "paths.ray_section_s": "paths.ray_section",
        "paths.validate_ray_s": "paths.validate_ray",
    }
    for metric, span_name in sums.items():
        out[metric] = total.get(span_name, 0.0)
    out["io.read_s"] = total.get("io.read_measure", 0.0) + total.get("io.read_ray", 0.0)
    out["io.write_s"] = total.get("io.write_measure", 0.0) + total.get("io.write_ray", 0.0)
    for layer in ("busemann", "coray", "cli"):
        out[f"{layer}.self_s"] = self_by_layer.get(layer, 0.0)
    for suite in VERIFY_SUITES:
        out[f"verify.{suite}_s"] = total.get(f"verify.{suite}_checks", 0.0)
    return out
