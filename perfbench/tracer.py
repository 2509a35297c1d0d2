"""Per-layer tracing of cqwiretap from outside the package.

The tracer wraps every public function of each library module, and the
public methods of its public classes, in the defining module and in every
``cqwiretap`` module that bound the same object by name (``bounds`` binds
``holevo``, ``mix`` and ``tensor_power`` from ``channels``, ``bri`` binds
``search_step``, and so on).  Nothing inside the package is edited.

Each wrapped call pushes a frame; on return the frame's duration minus the
time covered by its child frames is added to its layer's self time.  Only
spans for the job, the CLI stage and each library call made directly from
them are kept in memory; every deeper call is folded into counters and
self-time sums, so that millions of operator calls cost no memory.

Counters taken at the same boundaries:

* ``<layer>.eig_calls`` / ``<layer>.eig_work``: numpy eigensolver and SVD
  calls made while that layer's code is innermost, with work sum(d^3)
  over the stacked matrices;
* ``operators.validations``: ``operators.check_*`` calls;
* ``channels.searches``: outermost optimizer entries, and the operator
  calls made inside them;
* ``bri.search_nodes``: nodes reported by the table-search kernel;
* ``typicality.strings_scanned`` / ``strings_kept``: candidate strings
  handed to the typical-string mask and those it admitted;
* ``bounds.reports``: ``make_report`` calls;
* ``serialize.bytes_read`` / ``bytes_written``: file sizes through
  ``load_json`` / ``dump_json``.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import os
import time
from collections import Counter

import numpy as np

LAYERS = ("operators", "channels", "bri", "codes", "bounds", "typicality", "serialize", "cli")
SEARCHES = {"adversarial_leakage", "capacity_single_letter", "capacity_lifted"}
EIG_FUNCS = ("eigh", "eigvalsh", "eig", "eigvals", "svd")
KERNELS = ("search_step", "typical_mask")
MAX_SPANS = 200_000


class Tracer:
    """Install with :meth:`install`, remove with :meth:`uninstall`."""

    def __init__(self, package):
        self.package = package
        self.modules = {name: getattr(package, name) for name in LAYERS}
        self.stats = {layer: Counter() for layer in LAYERS}
        self.eig_by_dim = Counter()
        self.stack = []  # frames: [layer, child_time, span_index or None]
        self.spans = []
        self.search_depth = 0
        self._patches = []

    # -- spans ------------------------------------------------------------

    def _open_span(self, name):
        if len(self.spans) >= MAX_SPANS:
            return None
        parent = self.stack[-1][2] if self.stack else None
        self.spans.append({"name": name, "parent": parent, "start": time.perf_counter()})
        return len(self.spans) - 1

    def _close_span(self, index, failed):
        if index is not None:
            span = self.spans[index]
            span["end"] = time.perf_counter()
            if failed:
                span["error"] = True

    def _keeps_span(self):
        # job and CLI-stage frames have layer None or "cli"
        return not self.stack or self.stack[-1][0] in (None, "cli")

    @contextlib.contextmanager
    def job(self, name):
        """One job: the root span of the calls made inside the block."""
        self.stack.append([None, 0.0, self._open_span(name)])
        failed = True
        try:
            yield
            failed = False
        finally:
            frame = self.stack.pop()
            self._close_span(frame[2], failed)

    # -- wrappers ---------------------------------------------------------

    def _wrap(self, layer, qualname, fn):
        stats = self.stats[layer]
        stack = self.stack
        tracer = self
        name = qualname.rsplit(".", 1)[-1]
        is_validation = layer == "operators" and name.startswith("check_")
        is_search = layer == "channels" and name in SEARCHES
        is_make_report = layer == "bounds" and name == "make_report"
        is_load = layer == "serialize" and name == "load_json"
        is_dump = layer == "serialize" and name == "dump_json"
        is_table_search = layer == "bri" and name == "construct_exhaustive"
        span_name = f"{layer}.{qualname}"
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = tracer._open_span(span_name) if tracer._keeps_span() else None
            frame = [layer, 0.0, index]
            stack.append(frame)
            outer_search = is_search and tracer.search_depth == 0
            if is_search:
                tracer.search_depth += 1
            if layer == "operators" and tracer.search_depth:
                tracer.stats["channels"]["search_op_calls"] += 1
            failed = True
            start = clock()
            try:
                result = fn(*args, **kwargs)
                failed = False
                return result
            finally:
                elapsed = clock() - start
                stack.pop()
                stats["calls"] += 1
                stats["self_s"] += elapsed - frame[1]
                if failed:
                    stats["errors"] += 1
                if stack:
                    stack[-1][1] += elapsed
                if is_validation:
                    stats["validations"] += 1
                if is_search:
                    tracer.search_depth -= 1
                    if outer_search:
                        stats["searches"] += 1
                if is_make_report:
                    stats["reports"] += 1
                if is_load and not failed:
                    stats["bytes_read"] += os.path.getsize(args[0] if args else kwargs["path"])
                if is_dump and not failed:
                    stats["bytes_written"] += os.path.getsize(args[1] if len(args) > 1 else kwargs["path"])
                if is_table_search:
                    stats["search_s"] += elapsed
                tracer._close_span(index, failed)

        return wrapper

    def _wrap_eig(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(a, *args, **kwargs):
            shape = np.shape(a)
            d = shape[-1] if shape else 0
            batch = int(np.prod(shape[:-2])) if len(shape) > 2 else 1
            layer = tracer.stack[-1][0] if tracer.stack else None
            stats = tracer.stats.get(layer)
            if stats is not None:
                stats["eig_calls"] += 1
                stats["eig_work"] += batch * d**3
                tracer.eig_by_dim[d] += batch * d**3
            return fn(a, *args, **kwargs)

        return wrapper

    def _wrap_kernel(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            if name == "search_step":
                tracer.stats["bri"]["search_nodes"] += int(result[2])
            else:
                tracer.stats["typicality"]["strings_scanned"] += int(args[0]) ** int(args[1])
                tracer.stats["typicality"]["strings_kept"] += int(np.count_nonzero(result))
            return result

        return wrapper

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self):
        """Wrap every public function and method; idempotent per tracer."""
        if self._patches:
            return
        originals = {}  # id(original function) -> wrapper
        for layer, mod in self.modules.items():
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapper = self._wrap(layer, name, obj)
                    originals[id(obj)] = wrapper
                    self._patch(mod, name, wrapper)
                elif inspect.isclass(obj):
                    for attr, member in list(vars(obj).items()):
                        if inspect.isfunction(member) and (attr == "__init__" or not attr.startswith("_")):
                            self._patch(obj, attr, self._wrap(layer, f"{name}.{attr}", member))
                        elif isinstance(member, classmethod) and not attr.startswith("_"):
                            wrapped = self._wrap(layer, f"{name}.{attr}", member.__func__)
                            self._patch(obj, attr, classmethod(wrapped))
        # rebind names imported from another module (from .channels import holevo)
        kernels = getattr(self.package, "_kernels", None)
        kernel_funcs = {id(getattr(kernels, k)): k for k in KERNELS if hasattr(kernels, k)}
        for mod in vars(self.package).values():
            if not inspect.ismodule(mod) or not mod.__name__.startswith(self.package.__name__):
                continue
            for name, obj in list(vars(mod).items()):
                if id(obj) in originals and getattr(obj, "__module__", None) != mod.__name__:
                    self._patch(mod, name, originals[id(obj)])
                elif id(obj) in kernel_funcs and mod is not kernels:
                    self._patch(mod, name, self._wrap_kernel(kernel_funcs[id(obj)], obj))
        for name in EIG_FUNCS:
            self._patch(np.linalg, name, self._wrap_eig(getattr(np.linalg, name)))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results ----------------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer metrics as ``{name: (value, unit)}``."""
        out = {}
        for layer in LAYERS:
            st = self.stats[layer]
            out[f"{layer}.calls"] = (st["calls"], "count")
            out[f"{layer}.self_s"] = (st["self_s"], "s")
            out[f"{layer}.errors"] = (st["errors"], "count")
            out[f"{layer}.eig_calls"] = (st["eig_calls"], "count")
            out[f"{layer}.eig_work"] = (st["eig_work"], "d3")
        ops, ch, br = self.stats["operators"], self.stats["channels"], self.stats["bri"]
        ty, bo, se = self.stats["typicality"], self.stats["bounds"], self.stats["serialize"]
        out["operators.validations"] = (ops["validations"], "count")
        out["channels.searches"] = (ch["searches"], "count")
        out["channels.op_calls_per_search"] = (
            ch["search_op_calls"] / ch["searches"] if ch["searches"] else 0.0,
            "count",
        )
        out["bri.search_nodes"] = (br["search_nodes"], "count")
        out["bri.nodes_per_s"] = (
            br["search_nodes"] / br["search_s"] if br["search_s"] else 0.0,
            "1/s",
        )
        out["bounds.reports"] = (bo["reports"], "count")
        out["typicality.strings_scanned"] = (ty["strings_scanned"], "count")
        out["typicality.strings_kept"] = (ty["strings_kept"], "count")
        out["typicality.kept_ratio"] = (
            ty["strings_kept"] / ty["strings_scanned"] if ty["strings_scanned"] else 0.0,
            "ratio",
        )
        out["serialize.bytes_read"] = (se["bytes_read"], "B")
        out["serialize.bytes_written"] = (se["bytes_written"], "B")
        total = sum(self.eig_by_dim.values())
        top_d, top_work = max(self.eig_by_dim.items(), key=lambda kv: kv[1], default=(0, 0))
        out["eig.top_d"] = (top_d, "count")
        out["eig.top_d_share"] = (top_work / total if total else 0.0, "ratio")
        return out
