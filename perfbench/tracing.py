"""Span recording around the public functions of each cuspcensus layer.

Everything here lives in the benchmark: the package itself is not
changed.  ``Tracer.install`` wraps every public function defined in the
six layer modules and swaps the wrapper into every namespace that holds
the original (the package, each module that bound it with
``from .x import y``, and the ``SUITES`` registry), so calls between
layers are seen, not only calls from outside.

Per wrapped function the tracer counts calls, errors and self time (the
call's duration minus the time covered by the wrapped calls it made).  A
call whose caller is in another layer, or is the benchmark itself, is a
layer-boundary span: it is stored in preallocated arrays (name, parent
span, start, end) that are written out only at the end, and resident-set
growth, read from ``/proc/self/statm``, is charged to its layer minus the
growth of the boundary spans nested in it.  ``tracemalloc`` is not used:
it slows the hot loops by more than an order of magnitude.
"""

from __future__ import annotations

import array
import functools
import importlib
import inspect
import json
import os
import time

LAYERS = ("words", "matrices", "compositions", "spectral", "census", "cli")

#: boundary spans per preallocated block (24 bytes each)
SPAN_BLOCK = 1 << 20

_PAGE_MB = os.sysconf("SC_PAGE_SIZE") / 2**20


class _Block:
    """Preallocated, zero-filled span storage, so that storing a span does
    not itself grow the resident set inside a measured call."""

    def __init__(self):
        self.name = array.array("i", bytes(4 * SPAN_BLOCK))
        self.parent = array.array("i", bytes(4 * SPAN_BLOCK))
        self.start = array.array("d", bytes(8 * SPAN_BLOCK))
        self.end = array.array("d", bytes(8 * SPAN_BLOCK))


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.layer_of: list[int] = []
        self.calls: list[int] = []
        self.errors: list[int] = []
        self.self_s: list[float] = []
        self.total_s: list[float] = []
        self.rss_pages = [0] * len(LAYERS)
        self.result_bits = 0
        self.suite_of: dict[str, str] = {}
        self.blocks = [_Block()]
        self.spans = 0
        # frames: [layer, child seconds, boundary span or -1, rss0, child pages]
        self._stack: list[list] = []
        self._boundaries: list[list] = []
        self._patches: list[tuple[dict, str, object]] = []
        self._statm = os.open("/proc/self/statm", os.O_RDONLY)

    def _rss(self) -> int:
        return int(os.pread(self._statm, 64, 0).split()[1])

    def _open_span(self, nid: int, parent: int) -> int:
        index = self.spans
        block, slot = divmod(index, SPAN_BLOCK)
        if block == len(self.blocks):
            self.blocks.append(_Block())
        self.blocks[block].name[slot] = nid
        self.blocks[block].parent[slot] = parent
        self.spans = index + 1
        return index

    def _close_span(self, index: int, start: float, end: float) -> None:
        block, slot = divmod(index, SPAN_BLOCK)
        self.blocks[block].start[slot] = start
        self.blocks[block].end[slot] = end

    def wrap(self, layer: str, fn):
        lid = LAYERS.index(layer)
        nid = len(self.names)
        for table, value in (
            (self.names, f"{layer}.{fn.__name__}"), (self.layer_of, lid),
            (self.calls, 0), (self.errors, 0), (self.self_s, 0.0), (self.total_s, 0.0),
        ):
            table.append(value)
        count_bits = layer == "compositions"
        clock = time.perf_counter
        stack, boundaries = self._stack, self._boundaries

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [lid, 0.0, -1, 0, 0]
            boundary = parent is None or parent[0] != lid
            if boundary:
                frame[2] = self._open_span(nid, boundaries[-1][2] if boundaries else -1)
                boundaries.append(frame)
                frame[3] = self._rss()
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.errors[nid] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                self.calls[nid] += 1
                self.total_s[nid] += duration
                self.self_s[nid] += duration - frame[1]
                if parent is not None:
                    parent[1] += duration
                if boundary:
                    grown = self._rss() - frame[3]
                    boundaries.pop()
                    self.rss_pages[lid] += grown - frame[4]
                    if boundaries:
                        boundaries[-1][4] += grown
                    self._close_span(frame[2], start, end)
            if count_bits and type(result) is int:
                self.result_bits += result.bit_length()
            return result

        return traced

    def install(self) -> None:
        """Wrap every public function of every layer and patch the wrapper
        into each namespace that refers to the original."""
        package = importlib.import_module("cuspcensus")
        modules = [importlib.import_module(f"cuspcensus.{layer}") for layer in LAYERS]
        self.suite_of = {
            f"census.{fn.__name__}": name for name, fn in package.SUITES.items()
        }
        wrapped = {}
        for layer, module in zip(LAYERS, modules):
            for attr, value in vars(module).items():
                if (
                    not attr.startswith("_")
                    and inspect.isfunction(value)
                    and value.__module__ == module.__name__
                ):
                    wrapped[id(value)] = (value, self.wrap(layer, value))
        for namespace in [vars(package), package.SUITES] + [vars(m) for m in modules]:
            for key, value in list(namespace.items()):
                hit = wrapped.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patches.append((namespace, key, value))
                    namespace[key] = hit[1]

    def uninstall(self) -> None:
        for namespace, key, value in reversed(self._patches):
            namespace[key] = value
        self._patches.clear()
        os.close(self._statm)

    def layer_metrics(self) -> dict[str, float]:
        """Aggregates per layer, plus the named per-function figures."""
        out: dict[str, float] = {}
        for lid, layer in enumerate(LAYERS):
            ids = [i for i, of in enumerate(self.layer_of) if of == lid]
            out[f"{layer}.calls"] = sum(self.calls[i] for i in ids)
            out[f"{layer}.errors"] = sum(self.errors[i] for i in ids)
            out[f"{layer}.self_s"] = sum(self.self_s[i] for i in ids)
            out[f"{layer}.rss_growth_mb"] = self.rss_pages[lid] * _PAGE_MB
        index = {name: i for i, name in enumerate(self.names)}

        def figure(name, table):
            return table[index[name]] if name in index else 0

        out["compositions.result_bits"] = self.result_bits
        out["spectral.closed_form_count.self_s"] = figure("spectral.closed_form_count", self.self_s)
        out["spectral.poly_value.calls"] = figure("spectral.poly_value", self.calls)
        out["words.projectivize.calls"] = figure("words.projectivize", self.calls)
        out["words.canonical_cyclic_form.calls"] = figure("words.canonical_cyclic_form", self.calls)
        out["matrices.evaluate.calls"] = figure("matrices.evaluate", self.calls)
        out["census.oracle_census.self_s"] = figure("census.oracle_census", self.self_s)
        for span_name, suite in self.suite_of.items():
            out[f"census.suite.{suite}.wall_s"] = figure(span_name, self.total_s)
        out["trace.spans"] = self.spans
        return out

    def write(self, path: str) -> None:
        """Write the boundary spans: a JSON header line with the span names,
        then the name, parent, start and end arrays in native byte order."""
        with open(path, "wb") as f:
            f.write(json.dumps({"names": self.names, "spans": self.spans}).encode() + b"\n")
            for field in ("name", "parent", "start", "end"):
                left = self.spans
                for block in self.blocks:
                    getattr(block, field)[: min(left, SPAN_BLOCK)].tofile(f)
                    left -= SPAN_BLOCK
                    if left <= 0:
                        break
