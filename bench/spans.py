"""Span tracing of the program's public functions, installed from outside.

``Tracer.install`` replaces each traced function with a wrapper in every
``latentexplain`` module that holds it (so ``from .x import f`` bindings are
covered too), and wraps the ``_backward`` closure of each tensor a traced
autodiff op returns. Spans (name, start, end, parent, phase) stay in memory
until ``write``. Phase 0 is set-up, phase 1 the timed loop.

Per-layer metrics are per timed unit: totals over the timed loop divided by
the number of units. ``.ms`` is self time (a span minus its traced
children), ``.total_ms`` the whole span. Bytes are computed from array
shapes (file sizes for file hashing), not measured on a bus.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import os
import sys
import threading
import time
from collections import defaultdict

import numpy as np

# (module, function, extra metrics); the module is relative to latentexplain
FUNCTIONS = (
    ("cli", "main", ("total_ms",)),
    ("evalharness", "build_models", ("total_ms",)),
    ("checkpoint", "read_checkpoint", ("bytes",)),
    ("checkpoint", "file_sha256", ("bytes",)),
    ("audio", "wav_read", ()),
    ("audio", "wav_write", ()),
    ("data", "load_dataset", ("total_ms",)),
    ("attribution", "integrated_gradients_latent", ("total_ms",)),
    ("attribution", "integrated_gradients_input", ("total_ms",)),
    ("masking", "select_top", ()),
    ("masking", "apply_mask_keep", ()),
    ("masking", "apply_mask_remove", ()),
    ("masking", "mask_input_space", ()),
    ("masking", "mask_input_space_remove", ()),
    ("classifier", "predict_batch", ()),
    ("classifier", "logits_from_latent", ("total_ms",)),
    ("codec", "encode", ("total_ms",)),
    ("codec", "decode", ("total_ms",)),
    ("codec", "encode_batch", ("total_ms", "clips")),
    ("codec", "train_autoencoder", ("total_ms",)),
    ("classifier", "train_classifier", ("total_ms",)),
)
AUTODIFF_OPS = ("conv1d", "conv1d_transpose", "elu", "matmul", "add", "tmax", "tanh")
BYTES_OPS = ("conv1d", "conv1d_transpose")
METHODS = (("autodiff", "Tensor", "backward"), ("optim", "Adam", "step"))
# set-up phase totals (ms per set-up) of the layers that set-up time is made of
SETUP_SPANS = ("checkpoint.read_checkpoint", "checkpoint.file_sha256", "audio.wav_read",
               "data.load_dataset", "evalharness.build_models", "codec.encode_batch")

_UNITS = {"calls": ("calls/unit", "lower"), "ms": ("ms/unit", "lower"),
          "total_ms": ("ms/unit", "lower"), "fwd_ms": ("ms/unit", "lower"),
          "bwd_ms": ("ms/unit", "lower"), "bytes": ("B/unit", "lower"),
          "clips": ("clips/unit", "lower")}


def metric_specs() -> list:
    """(name, unit, better) of every per-layer metric, in report order."""
    names = []
    for mod, fn, extra in FUNCTIONS:
        names += [f"{mod}.{fn}.{k}" for k in ("calls", "ms") + extra]
    for op in AUTODIFF_OPS:
        names += [f"autodiff.{op}.{k}" for k in ("calls", "fwd_ms", "bwd_ms")]
        if op in BYTES_OPS:
            names.append(f"autodiff.{op}.bytes")
    names += ["autodiff.backward.calls", "autodiff.backward.ms", "autodiff.backward.total_ms",
              "optim.Adam.step.calls", "optim.Adam.step.ms"]
    specs = [(n, *_UNITS[n.rsplit(".", 1)[1]]) for n in names]
    specs += [("evalharness.ig_maps_per_clip", "maps/clip", "lower"),
              ("masking.select_top.sorts_per_map", "sorts/map", "lower"),
              ("setup.import.ms", "ms", "lower"),
              ("setup.warmup.ms", "ms", "lower")]
    specs += [(f"setup.{n}.ms", "ms", "lower") for n in SETUP_SPANS]
    return specs


class Tracer:
    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.rows: list = []  # [name_id, start_ns, end_ns, parent_row, phase]
        self.phase = 0
        self.counts = defaultdict(float)  # (phase, metric) -> value
        self.setup_ms: dict = {}
        self._local = threading.local()
        self._patches: list = []
        # per-unit distinct inputs, for the waste ratios of the timed loop
        self._unit_ig_keys: set = set()
        self._unit_maps: dict = {}
        self.ig_calls = self.ig_keys = self.sorts = self.maps = 0

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _stack(self) -> list:
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def wrap(self, name: str, fn, after=None):
        nid, rows = self._id(name), self.rows

        def traced(*args, **kwargs):
            stack = self._stack()
            row = [nid, 0, 0, stack[-1] if stack else -1, self.phase]
            stack.append(len(rows))
            rows.append(row)
            row[1] = time.perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
            finally:
                row[2] = time.perf_counter_ns()
                stack.pop()
            if after is not None:
                after(args, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def count(self, metric: str, value: float) -> None:
        self.counts[(self.phase, metric)] += value

    # -- counters recorded at the traced boundaries --------------------------------

    def _op_after(self, op: str):
        bwd_name = f"autodiff.{op}.bwd"

        def after(args, out):
            if op in BYTES_OPS:
                self.count(f"autodiff.{op}.bytes",
                           args[0].data.nbytes + args[1].data.nbytes + out.data.nbytes)
            if out._backward is not None:
                out._backward = self.wrap(bwd_name, out._backward)

        return after

    def _ig_after(self, args, out):
        if self.phase:
            first = args[0]
            data = first.values if hasattr(first, "values") else first
            digest = hashlib.blake2b(np.ascontiguousarray(data).tobytes(), digest_size=16).digest()
            self._unit_ig_keys.add((digest, out.target_class))
            self.ig_calls += 1

    def _select_after(self, args, out):
        if self.phase:
            self._unit_maps[id(args[0])] = args[0]
            self.sorts += 1

    def _after_for(self, mod: str, fn: str):
        if (mod, fn) == ("checkpoint", "read_checkpoint"):
            return lambda a, out: self.count("checkpoint.read_checkpoint.bytes",
                                             sum(v.nbytes for v in out.params.values()))
        if (mod, fn) == ("checkpoint", "file_sha256"):
            return lambda a, out: self.count("checkpoint.file_sha256.bytes", os.path.getsize(a[0]))
        if (mod, fn) == ("codec", "encode_batch"):
            return lambda a, out: self.count("codec.encode_batch.clips", len(out))
        if mod == "attribution":
            return self._ig_after
        if (mod, fn) == ("masking", "select_top"):
            return self._select_after
        return None

    def end_unit(self) -> None:
        self.ig_keys += len(self._unit_ig_keys)
        self.maps += len(self._unit_maps)
        self._unit_ig_keys.clear()
        self._unit_maps.clear()

    # -- installation ----------------------------------------------------------------

    def _replace(self, orig, wrapped) -> None:
        for mname, mod in list(sys.modules.items()):
            if mname != "latentexplain" and not mname.startswith("latentexplain."):
                continue
            for key, val in list(vars(mod).items()):
                if val is orig:
                    setattr(mod, key, wrapped)
                    self._patches.append((mod, key, orig))

    def install(self) -> None:
        for mod, fn, _extra in FUNCTIONS:
            orig = getattr(importlib.import_module(f"latentexplain.{mod}"), fn)
            self._replace(orig, self.wrap(f"{mod}.{fn}", orig, self._after_for(mod, fn)))
        ad = importlib.import_module("latentexplain.autodiff")
        for op in AUTODIFF_OPS:
            orig = getattr(ad, op)
            self._replace(orig, self.wrap(f"autodiff.{op}", orig, self._op_after(op)))
        for mod, cls_name, meth in METHODS:
            cls = getattr(importlib.import_module(f"latentexplain.{mod}"), cls_name)
            orig = cls.__dict__[meth]
            name = "autodiff.backward" if meth == "backward" else f"{mod}.{cls_name}.{meth}"
            setattr(cls, meth, self.wrap(name, orig))
            self._patches.append((cls, meth, orig))

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self._patches):
            setattr(owner, key, orig)
        self._patches.clear()

    # -- results ---------------------------------------------------------------------

    def _aggregate(self) -> dict:
        """(phase, name) -> [calls, total_ns, self_ns]."""
        child = [0] * len(self.rows)
        for nid, start, end, parent, _ph in self.rows:
            if parent >= 0:
                child[parent] += end - start
        agg = defaultdict(lambda: [0, 0, 0])
        for i, (nid, start, end, _parent, ph) in enumerate(self.rows):
            a = agg[(ph, self.names[nid])]
            a[0] += 1
            a[1] += end - start
            a[2] += end - start - child[i]
        return agg

    def layer_metrics(self, units: int) -> dict:
        agg = self._aggregate()
        per = 1.0 / max(units, 1)
        out = {}
        for name, _unit, _better in metric_specs():
            head, kind = name.rsplit(".", 1)
            if name.startswith("setup."):
                key = head[len("setup."):]
                out[name] = self.setup_ms.get(key, agg[(0, key)][1] / 1e6)
            elif kind == "calls":
                out[name] = agg[(1, head)][0] * per
            elif kind in ("ms", "fwd_ms"):
                out[name] = agg[(1, head)][2] / 1e6 * per
            elif kind == "bwd_ms":
                out[name] = agg[(1, head + ".bwd")][2] / 1e6 * per
            elif kind == "total_ms":
                out[name] = agg[(1, head)][1] / 1e6 * per
            elif kind in ("bytes", "clips"):
                out[name] = self.counts[(1, name)] * per
        out["evalharness.ig_maps_per_clip"] = self.ig_calls / self.ig_keys if self.ig_keys else 0.0
        out["masking.select_top.sorts_per_map"] = self.sorts / self.maps if self.maps else 0.0
        return out

    def write(self, path) -> None:
        with open(path, "w") as f:
            json.dump({"names": self.names, "fields": ["name", "start_ns", "end_ns", "parent", "phase"],
                       "spans": self.rows}, f, separators=(",", ":"))
