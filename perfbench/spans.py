"""Outside-in layer tracing for the traced benchmark run.

Wrappers are installed by rebinding every name, in every loaded gmlattice
module, whose value *is* a target function.  That catches call sites that
imported the function by name (``from .pell import pell_general``) as well
as calls inside the defining module, without changing anything under
``src/``.  The traced run installs them around each traced op only, and
``--trace 0`` never installs them.
"""

import sys
from collections import defaultdict
from functools import wraps
from time import perf_counter


class Tracer:
    """In-memory spans: (span_id, parent_id, op_id, name, start, end, self_s).

    Self time is a span's duration minus the durations of its child spans;
    the benchmark is single-threaded, so children nest strictly inside
    their parent.
    """

    def __init__(self):
        self.spans = []
        self.op_id = -1
        self._stack = []  # open spans: [span_id, child seconds]
        self._next_id = 0
        self.period_terms = 0
        self.k3_found = 0

    def call(self, name, fn, *args, **kwargs):
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else None
        frame = [sid, 0.0]
        self._stack.append(frame)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self._stack.pop()
            if self._stack:
                self._stack[-1][1] += end - start
            self.spans.append((sid, parent, self.op_id, name, start, end, end - start - frame[1]))

    def wrap(self, name, fn):
        hook = _HOOKS.get(name)

        @wraps(fn)
        def wrapper(*args, **kwargs):
            ret = self.call(name, fn, *args, **kwargs)
            if hook is not None:
                hook(self, ret)
            return ret

        return wrapper

    def totals(self):
        """({name: calls}, {name: self seconds}) over all recorded spans."""
        calls = defaultdict(int)
        self_s = defaultdict(float)
        for span in self.spans:
            calls[span[3]] += 1
            self_s[span[3]] += span[6]
        return calls, self_s


def _count_period(tracer, ret):
    try:
        tracer.period_terms += len(ret[1])
    except (TypeError, IndexError):
        pass


def _count_found(tracer, ret):
    if getattr(ret, "status", None) == "found":
        tracer.k3_found += 1


_HOOKS = {"pell.cf_sqrt": _count_period, "oracle.k3_witness": _count_found}


def wrappers(tracer: Tracer, targets) -> tuple[list, list]:
    """Wrappers for each "<module>.<function>" target found under gmlattice.

    Returns (patches, absent): (module, attribute, original, wrapper) for
    every name in every loaded gmlattice module bound to a target, and the
    targets that no longer exist, which are skipped.
    """
    modules = [m for n, m in list(sys.modules.items()) if n == "gmlattice" or n.startswith("gmlattice.")]
    patches, absent = [], []
    for target in targets:
        mod_name, fn_name = target.rsplit(".", 1)
        original = getattr(sys.modules.get(f"gmlattice.{mod_name}"), fn_name, None)
        if not callable(original):
            absent.append(target)
            continue
        wrapper = tracer.wrap(target, original)
        for mod in modules:
            patches += [(mod, attr, original, wrapper) for attr, value in vars(mod).items() if value is original]
    return patches, absent


def apply(patches) -> None:
    for mod, attr, _, wrapper in patches:
        setattr(mod, attr, wrapper)


def restore(patches) -> None:
    for mod, attr, original, _ in patches:
        setattr(mod, attr, original)
