"""Span tracing of the ``repro`` layers, installed from outside the package.

Each traced boundary is a public function or method of one layer.  The
tracer wraps it in place, everywhere it is bound: a module-level function
is replaced in every loaded ``repro`` module that holds it (so call sites
bound by ``from ... import`` are wrapped too), a method is replaced on its
class.  :meth:`Tracer.uninstall` puts every original object back, and
:func:`patched_attributes_intact` proves it did.

A span records ``(name, start_ns, end_ns, parent, op, aux)``.  ``parent``
is the index of the innermost enclosing span (``-1`` for a root), ``op``
is the id of the benchmark op that caused it, and ``aux`` is a small
count taken at the boundary (messages in a round, words in a message,
flops of a block product, ...).  Spans are kept in memory and summarised
or written out when the run ends.  Calls made outside an op (set-up and
correctness checks) are passed through unrecorded.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

__all__ = ["BOUNDARIES", "Tracer", "original_attributes", "patched_attributes_intact"]


def _message_words(args, result):
    return args[0].words


def _matmul_flops(args, result):
    a, b = args[1], args[2]
    return 2 * a.shape[0] * a.shape[1] * b.shape[1]


def _batch_rows(args, result):
    return (len(result.valid), int(result.valid.sum()))


def _fault_counts(args, result):
    return (result["injected"], result["retries"], result["words_resent"])


#: The traced boundaries: ``(span name, module, attribute path, aux)``.
#: A span's self time is charged to its layer: the span name itself,
#: unless :data:`LAYER_OF` maps it to another.
BOUNDARIES: Tuple[Tuple[str, str, str, Optional[Callable]], ...] = (
    ("algorithms.run", "repro.algorithms.registry", "run_algorithm", None),
    ("algorithms.grid_selection", "repro.algorithms.grid_selection", "select_grid", None),
    ("collectives", "repro.collectives.schedules", "run_schedules", None),
    ("machine.network", "repro.machine.network", "FullyConnectedNetwork.execute_round", None),
    ("machine.message", "repro.machine.message", "Message.__post_init__", _message_words),
    ("machine.backend", "repro.machine.backend", "DataBackend.matmul", _matmul_flops),
    ("machine.backend.symbolic", "repro.machine.backend", "SymbolicBackend.matmul", None),
    ("analysis.plan", "repro.analysis.plan", "plan_batch", None),
    ("analysis.oracle_vec", "repro.analysis.oracle_vec", "predict_batch", _batch_rows),
    ("analysis.oracle", "repro.analysis.oracle", "predict_cost", None),
    ("core.crossover", "repro.core.crossover", "compare_bounds", None),
    ("machine.faults", "repro.machine.faults", "FaultInjector.summary", _fault_counts),
    ("machine.checkpoint", "repro.machine.checkpoint", "CheckpointManager.checkpoint", None),
    ("machine.checkpoint.restore", "repro.machine.checkpoint", "CheckpointManager.restore", None),
    ("analysis.survive", "repro.analysis.survive", "run_survivable", None),
)

#: Span name -> the layer its self time is charged to.
LAYER_OF = {
    "machine.backend.symbolic": "machine.backend",
    "machine.checkpoint.restore": "machine.checkpoint",
}


def _resolve(module_name: str, path: str) -> Tuple[Any, str, Any]:
    """``(owner, attribute, original)`` for a boundary."""
    owner: Any = importlib.import_module(module_name)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr, owner.__dict__[attr]


def original_attributes() -> Dict[str, Any]:
    """Every boundary's current object, keyed by ``module:path``."""
    return {
        f"{module}:{path}": _resolve(module, path)[2]
        for _name, module, path, _aux in BOUNDARIES
    }


def patched_attributes_intact(originals: Dict[str, Any]) -> List[str]:
    """Boundaries whose attribute is no longer the original object.

    Also scans every loaded ``repro`` module for a stray wrapper left
    behind under any name.  An empty list means no wrapper is installed.
    """
    bad = [
        key for key, obj in original_attributes().items()
        if obj is not originals[key]
    ]
    for mod_name, module in list(sys.modules.items()):
        if mod_name == "repro" or mod_name.startswith("repro."):
            for attr, value in list(vars(module).items()):
                if getattr(value, "__perfbench_wrapper__", False):
                    bad.append(f"{mod_name}:{attr}")
    return bad


class Tracer:
    """Installs span wrappers on :data:`BOUNDARIES` and keeps the spans."""

    def __init__(self) -> None:
        self.names = [name for name, _m, _p, _a in BOUNDARIES]
        self.spans: List[Optional[tuple]] = []
        self.stack: List[int] = []
        #: Id of the op being timed, or ``None`` outside ops.
        self.op: Optional[int] = None
        self._restore: List[Tuple[Any, str, Any]] = []

    # -------------------------------------------------------------- #
    # install / uninstall                                            #
    # -------------------------------------------------------------- #

    def install(self) -> None:
        for index, (name, module_name, path, aux) in enumerate(BOUNDARIES):
            owner, attr, original = _resolve(module_name, path)
            if name == "machine.network":
                wrapper = self._wrap_round(index, original)
            else:
                wrapper = self._wrap(index, original, aux)
            if isinstance(owner, type):
                self._restore.append((owner, attr, original))
                setattr(owner, attr, wrapper)
                continue
            # A module-level function: rebind it in every repro module
            # that holds it, whatever name it was imported under.
            for mod_name, module in list(sys.modules.items()):
                if not (mod_name == "repro" or mod_name.startswith("repro.")):
                    continue
                for bound, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, bound, original))
                        setattr(module, bound, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -------------------------------------------------------------- #
    # wrappers                                                       #
    # -------------------------------------------------------------- #

    def _wrap(self, name_id: int, fn: Callable, aux: Optional[Callable]) -> Callable:
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns
        tracer = self

        def wrapper(*args, **kwargs):
            op = tracer.op
            if op is None:
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            done, result = False, None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                done = True
                return result
            finally:
                end = clock()
                stack.pop()
                extra = aux(args, result) if done and aux is not None else 0
                spans[index] = (name_id, start, end, parent, op, extra)

        wrapper.__perfbench_wrapper__ = True
        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_round(self, name_id: int, fn: Callable) -> Callable:
        """``execute_round``: count messages and the words the round charged."""
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns
        tracer = self

        def wrapper(network, messages):
            op = tracer.op
            if op is None:
                return fn(network, messages)
            msgs = list(messages)
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            before = network.critical_words
            start = clock()
            try:
                return fn(network, msgs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (
                    name_id, start, end, parent, op,
                    (len(msgs), network.critical_words - before),
                )

        wrapper.__perfbench_wrapper__ = True
        wrapper.__wrapped__ = fn
        return wrapper

    # -------------------------------------------------------------- #
    # output                                                         #
    # -------------------------------------------------------------- #

    def write(self, path) -> None:
        """Write the spans as one columnar JSON document."""
        done = [s for s in self.spans if s is not None]
        doc = {
            "names": self.names,
            "columns": ["name", "start_ns", "end_ns", "parent", "op", "aux"],
            "spans": [list(col) for col in zip(*done)] if done else [],
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
