"""Span recording around the calls into each qcausal module.

``Tracer.install`` wraps every public function of the seven modules and
puts the wrapper at each name through which the package reaches that
function: the defining module's own global (so calls inside a module are
seen too) and every module that imported it by name (``basis_change``
imports ``cc_pvector_batch``, ``samplers`` imports it too, and so on).
Nothing in the program changes; the wrappers live only in the traced
process.

``cli.main`` is left unwrapped. As the root of every round, its self time
would be all the time that no other span covers, and the sum of self times
would equal the time after set-up by construction.

A span records its function, its parent span, start and end times, the
process's peak RSS (VmHWM) at both ends and, for some functions, a count
of the work done (objects drawn, points evaluated, optimizer starts, CSV
bytes). Spans are kept in memory and written out once, when the process
ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import time

LAYERS = ("qmath", "correlation", "geometry", "samplers", "bounds", "basis_change", "cli")

# Private functions that hold a layer's work on their own: the report's
# encoding and writing happens in ``cli._emit``.
PRIVATE = {"cli": ("_emit",)}
UNWRAPPED = {"cli.main"}

_STATUS = os.open("/proc/self/status", os.O_RDONLY)


def vm_hwm_kb() -> int:
    """This process's peak resident set since its exec, in kB.

    Read from VmHWM, not from getrusage: ``ru_maxrss`` also holds the
    high-water mark of the process that spawned this one, which Linux folds
    into the child at exec (subprocess spawns with vfork).
    """
    status = os.pread(_STATUS, 4096, 0)
    start = status.index(b"VmHWM:") + 6
    return int(status[start:status.index(b"kB", start)])


def _batch_len(single_ndim: int):
    return lambda args, kwargs, result: len(result) if result.ndim > single_ndim else 1


COUNTS = {
    "samplers.sample_real_pure": _batch_len(1),
    "samplers.sample_complex_pure": _batch_len(1),
    "samplers.sample_density": _batch_len(2),
    "samplers.sample_unitary": _batch_len(2),
    "samplers.sample_unitary_params": lambda args, kwargs, result: len(result[0]),
    "samplers.unitaries_from_params": lambda args, kwargs, result: result.size // 4,
    "samplers.sample_in_region_batch": lambda args, kwargs, result: len(result),
    "correlation.cc_pvector_batch": lambda args, kwargs, result: len(result),
    "correlation.cc_pvector_pure_batch": lambda args, kwargs, result: len(result),
    "correlation.dc_pvector_batch": lambda args, kwargs, result: len(result),
    "bounds.multistart_state_extremum": lambda args, kwargs, result: result.starts,
    "bounds.multistart_unitary_extremum": lambda args, kwargs, result: result.starts,
    "cli.run_sample": lambda args, kwargs, result: os.path.getsize(result.parameters["out"]),
}


class Tracer:
    """Holds the spans of one process; ``install`` once, ``dump`` at the end."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list[list] = []
        self._stack = [-1]

    def install(self) -> None:
        import qcausal

        modules = {layer: importlib.import_module(f"qcausal.{layer}") for layer in LAYERS}
        wrapped = {}
        for layer, module in modules.items():
            for name in (*module.__all__, *PRIVATE.get(layer, ())):
                fn = getattr(module, name)
                if (inspect.isfunction(fn) and fn.__module__ == module.__name__
                        and f"{layer}.{name}" not in UNWRAPPED):
                    wrapped[id(fn)] = (fn, self._wrap(fn, f"{layer}.{name}"))
        for module in (qcausal, *modules.values()):
            for attr, value in list(vars(module).items()):
                hit = wrapped.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])

    def _wrap(self, fn, qualname: str):
        fid = len(self.names)
        self.names.append(qualname)
        count_of = COUNTS.get(qualname)
        spans, stack = self.spans, self._stack
        clock, hwm = time.perf_counter, vm_hwm_kb

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [fid, stack[-1], 0.0, 0.0, hwm(), 0, 0]
            stack.append(len(spans))
            spans.append(span)
            span[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
                span[5] = hwm()
            if count_of is not None:
                span[6] = count_of(args, kwargs, result)
            return result

        return wrapper

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"functions": self.names, "spans": self.spans}, fh)
