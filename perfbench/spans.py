"""In-memory spans recorded around calls into musel's modules.

The benchmark measures each module from outside: it replaces the
module-level names that callers look up (``musel.estimators.solve_lp``,
``musel.simulate.apply_mask``, ``musel.io.read_matrix``, ...) with wrappers
that record a span per call.  Nothing under ``src/`` is edited; ``restore``
puts the original objects back.

A span is (name, start, end, parent, root).  The parent is the enclosing
span on the same thread; a span opened with no enclosing span is a root
(a replication, a request or a top-level call).  Spans stay in memory; the
run writes them to its sidecar file when it ends.
"""

import functools
import importlib
import threading
import time


class Span:
    __slots__ = ("id", "parent", "root", "name", "start", "end", "attrs")

    def __init__(self, sid, parent, root, name, start):
        self.id = sid
        self.parent = parent
        self.root = root
        self.name = name
        self.start = start
        self.end = None
        self.attrs = {}

    @property
    def dur(self):
        return self.end - self.start

    def to_dict(self):
        return {"id": self.id, "parent": self.parent, "root": self.root,
                "name": self.name, "start": self.start, "end": self.end,
                "attrs": self.attrs}

    @classmethod
    def from_dict(cls, d, id_offset=0):
        def shift(v):
            return None if v is None else v + id_offset
        sp = cls(d["id"] + id_offset, shift(d["parent"]), shift(d["root"]),
                 d["name"], d["start"])
        sp.end = d["end"]
        sp.attrs = d["attrs"]
        return sp


class Tracer:
    """Collects spans; each thread keeps its own stack of open spans."""

    def __init__(self):
        self.spans = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self):
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def open(self, name):
        st = self._stack()
        with self._lock:
            sid = len(self.spans)
            parent = st[-1] if st else None
            sp = Span(sid, None if parent is None else parent.id,
                      sid if parent is None else parent.root, name, 0.0)
            self.spans.append(sp)
        st.append(sp)
        sp.start = time.monotonic()
        return sp

    def close(self, sp):
        sp.end = time.monotonic()
        self._stack().pop()

    def wrapper(self, name, fn, on_return=None):
        """``fn`` wrapped so that each call records a ``name`` span.

        ``on_return(span, args, kwargs, result)`` may attach attributes
        (pivots, status, rows) to the span.
        """
        def traced(*args, **kwargs):
            sp = self.open(name)
            try:
                res = fn(*args, **kwargs)
            finally:
                self.close(sp)
            if on_return is not None:
                on_return(sp, args, kwargs, res)
            return res
        return traced

    def merge(self, dicts):
        """Append spans recorded by another process (their ids are shifted)."""
        with self._lock:
            off = len(self.spans)
            self.spans.extend(Span.from_dict(d, off) for d in dicts)


class Patcher:
    """Replaces module attributes and puts the originals back on ``restore``.

    A missing attribute raises, so a renamed entry point is reported instead
    of silently going unmeasured.
    """

    def __init__(self):
        self._saved = []

    def wrap(self, module, attr, factory):
        mod = importlib.import_module(module)
        orig = getattr(mod, attr)
        setattr(mod, attr, functools.wraps(orig, updated=())(factory(orig)))
        self._saved.append((mod, attr, orig))

    def restore(self):
        while self._saved:
            mod, attr, orig = self._saved.pop()
            setattr(mod, attr, orig)


def self_times(spans, exclude=None):
    """Self time per span: its duration minus its direct children's.

    Children run on the parent's thread and nest inside it, so their
    durations never overlap.  ``exclude(parent, child)`` may keep a child's
    time inside the parent's self time.
    """
    by_id = {sp.id: sp for sp in spans}
    child_time = dict.fromkeys(by_id, 0.0)
    for sp in spans:
        if sp.parent is None or sp.parent not in by_id:
            continue
        parent = by_id[sp.parent]
        if exclude is not None and exclude(parent, sp):
            continue
        child_time[sp.parent] += sp.dur
    return {sid: by_id[sid].dur - child_time[sid] for sid in by_id}


def outermost(spans, prefix):
    """Spans named ``prefix*`` with no ancestor of the same prefix."""
    by_id = {sp.id: sp for sp in spans}
    out = []
    for sp in spans:
        if not sp.name.startswith(prefix):
            continue
        p = sp.parent
        nested = False
        while p is not None and p in by_id:
            if by_id[p].name.startswith(prefix):
                nested = True
                break
            p = by_id[p].parent
        if not nested:
            out.append(sp)
    return out
