"""Outside-in tracer for the ptgrid modules.

Each traced public function is wrapped under every name a ptgrid module uses
to call it (prelec_weight is called through ptgrid.games, solve_2x2 through
ptgrid.storage and ptgrid.games, and so on), so the program's own modules
stay untouched. Classes are timed through their __init__; replacing the class
object would break classmethods such as MixedProfile.uniform. A name that no
longer exists is skipped and reports 0 calls.

Every call is one span (layer, start, end, parent) kept in memory and written
out by write_spans when the run ends. A layer's self time is its span time
minus the time of the spans it caused.
"""
from __future__ import annotations

import math
import os
import sys
import tracemalloc
from array import array

# metric prefix, defining module, attributes, reported statistics
LAYERS = [
    ("prospects.prelec_weight", "ptgrid.prospects", ("prelec_weight",), ("calls", "self_share", "elems")),
    ("prospects.frame_value", "ptgrid.prospects", ("frame_value",), ("calls", "self_share")),
    ("games.pure_action_values", "ptgrid.games", ("pure_action_values",), ("calls", "self_share")),
    ("games.MixedProfile", "ptgrid.games", ("MixedProfile",), ("inits", "self_share")),
    ("games.solve_fixed_point", "ptgrid.games", ("solve_fixed_point",),
     ("calls", "self_share", "iterations", "converged_ratio")),
    ("games.solve_2x2", "ptgrid.games", ("solve_2x2",), ("calls", "self_share", "certified_ratio")),
    ("games.brentq", "ptgrid.games", ("brentq",), ("calls", "self_share")),
    ("games.equilibrium_residual", "ptgrid.games", ("equilibrium_residual",), ("calls", "self_share")),
    ("games.brute_force_equilibrium", "ptgrid.games", ("brute_force_equilibrium",),
     ("calls", "self_share", "cells")),
    ("games.FiniteGame", "ptgrid.games", ("FiniteGame",), ("inits", "self_share")),
    ("storage.build_storage_game", "ptgrid.storage", ("build_storage_game",), ("calls", "self_share")),
    ("storage.sweep", "ptgrid.storage",
     ("sweep_selling_price", "sweep_company_price", "framing_sweep"), ("self_share",)),
    ("dsm.build_dsm_game", "ptgrid.dsm", ("build_dsm_game",), ("calls", "self_share", "alloc_peak_mb")),
    ("dsm.solve_dsm", "ptgrid.dsm", ("solve_dsm",), ("calls", "self_share")),
    ("dsm.rationality_sweep", "ptgrid.dsm", ("rationality_sweep",), ("self_share",)),
    ("formats.write_csv", "ptgrid.formats", ("write_csv",), ("self_share", "bytes")),
]

# Statistics that must repeat exactly between two traced runs of one input.
COUNT_STATS = ("calls", "inits", "elems", "iterations", "cells", "bytes")


def _arg(args, kwargs, index, name, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[index] if len(args) > index else default


# Per-layer extras, accumulated into stats[2] and stats[3] after each call.
def _elems(st, args, kwargs, result):
    st[2] += getattr(_arg(args, kwargs, 0, "p"), "size", 1)


def _iterations(st, args, kwargs, result):
    st[2] += result.iterations
    st[3] += bool(result.converged)


def _certified(st, args, kwargs, result):
    st[2] += bool(result)


def _cells(st, args, kwargs, result):
    game = _arg(args, kwargs, 0, "game")
    grid = _arg(args, kwargs, 2, "grid", 100)
    st[2] += math.prod(math.comb(grid + a - 1, a - 1) for a in game.action_counts)


def _bytes(st, args, kwargs, result):
    st[2] += os.path.getsize(_arg(args, kwargs, 0, "path"))


EXTRAS = {
    "prospects.prelec_weight": _elems,
    "games.solve_fixed_point": _iterations,
    "games.solve_2x2": _certified,
    "games.brute_force_equilibrium": _cells,
    "formats.write_csv": _bytes,
}
ALLOC_PEAK = {"dsm.build_dsm_game"}


class Tracer:
    """Installs span-recording wrappers; use as a context manager."""

    def __init__(self, clock):
        self.clock = clock
        self.stats = {prefix: [0, 0.0, 0, 0] for prefix, *_ in LAYERS}
        self.layer_ids = {prefix: i for i, (prefix, *_) in enumerate(LAYERS)}
        self.span_layer = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = []  # [span index, seconds spent in child spans]
        self._patches = []  # (owner, attribute, original)

    def __enter__(self):
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "ptgrid" or name.startswith("ptgrid."))]
        for prefix, module_name, attrs, _ in LAYERS:
            home = sys.modules.get(module_name)
            for attr in attrs:
                original = getattr(home, attr, None)
                if original is None:
                    continue
                if isinstance(original, type):
                    init = original.__dict__.get("__init__")
                    if init is not None:
                        self._patch(original, "__init__", self._wrap(init, prefix))
                    continue
                wrapper = self._wrap(original, prefix)
                for module in modules:
                    for name, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, name, wrapper)
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        return False

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _wrap(self, fn, prefix):
        st = self.stats[prefix]
        layer = self.layer_ids[prefix]
        extra = EXTRAS.get(prefix)
        alloc = prefix in ALLOC_PEAK
        clock, stack = self.clock, self._stack
        starts, ends = self.span_start, self.span_end
        layers, parents = self.span_layer, self.span_parent

        def traced(*args, **kwargs):
            t0 = clock()
            index = len(starts)
            starts.append(t0)
            ends.append(t0)
            layers.append(layer)
            parents.append(stack[-1][0] if stack else -1)
            frame = [index, 0.0]
            stack.append(frame)
            if alloc:
                tracemalloc.start()
            try:
                result = fn(*args, **kwargs)
            finally:
                if alloc:
                    st[2] = max(st[2], tracemalloc.get_traced_memory()[1] / 2**20)
                    tracemalloc.stop()
                t1 = clock()
                stack.pop()
                ends[index] = t1
                st[0] += 1
                st[1] += (t1 - t0) - frame[1]
                if stack:
                    stack[-1][1] += t1 - t0
            if extra is not None:
                extra(st, args, kwargs, result)
            return result

        return traced

    def self_seconds(self) -> float:
        return math.fsum(st[1] for st in self.stats.values())

    def metrics(self, pass_seconds: float = 1.0) -> dict:
        """Per-layer metrics; self_share is self time over pass_seconds."""
        out = {}
        for prefix, _, _, reported in LAYERS:
            calls, self_s, x, y = self.stats[prefix]
            values = {
                "calls": calls,
                "inits": calls,
                "self_share": self_s / pass_seconds,
                "elems": x,
                "iterations": x,
                "cells": x,
                "bytes": x,
                "alloc_peak_mb": x,
                "certified_ratio": x / calls if calls else 0.0,
                "converged_ratio": y / calls if calls else 0.0,
            }
            for stat in reported:
                out[f"{prefix}.{stat}"] = values[stat]
        return out

    def counts(self) -> dict:
        return {k: v for k, v in self.metrics().items() if k.rsplit(".", 1)[1] in COUNT_STATS}

    def write_spans(self, path) -> None:
        """One line per span: layer, parent span index, start, end."""
        names = [prefix for prefix, *_ in LAYERS]
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("layer\tparent\tstart\tend\n")
            for layer, parent, start, end in zip(
                self.span_layer, self.span_parent, self.span_start, self.span_end
            ):
                fh.write(f"{names[layer]}\t{parent}\t{start:.9f}\t{end:.9f}\n")
