"""Per-layer attribution by wrapping each layer's public entry points.

Nothing under ``src/`` is edited.  :class:`LayerTracer` replaces the
entry points named in :data:`ENTRY_POINTS` (class attributes and
module-level function bindings) with timing wrappers, and puts every
original back on :meth:`LayerTracer.uninstall`.  Each wrapped call is a
span: its self time (duration minus the time its child spans cover) is
charged to the span's layer, and its call count and inclusive time are
kept per entry point.  Spans go to a bounded in-memory store and are
written out only when the run ends.

A span that carries a client request -- ``BftClient.invoke``, a
``Request``/``Reply`` handed to ``on_message``, or
``AbstractStateManager.execute`` -- is keyed by ``(client, request id)``;
its child spans inherit that key, so one request's spans can be found
together across client, replicas, wrapper and backend.

Module functions such as ``canonical`` are imported by name into many
modules.  :meth:`LayerTracer.install` rebinds *every* global that is
bound to the original function object in the ``repro`` modules and in
the benchmark's load generator, whatever the local name; the benchmark's
tests compare the traced call counts with cProfile's to catch a binding
this missed.
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

#: The program's layers, then ``reference``: the benchmark's own speed
#: samples (see ``refclock.py``), kept apart so no layer is charged them.
LAYERS = ("sim", "bft", "crypto", "encoding", "base", "service", "backend",
          "workloads", "reference")

#: (layer, "module:Class.attr" or "module:function") for every wrapped
#: entry point.  Backend classes are added per run (see
#: :meth:`LayerTracer.install`).
ENTRY_POINTS: Tuple[Tuple[str, str], ...] = (
    ("sim", "repro.sim.scheduler:Scheduler.run"),
    ("sim", "repro.sim.scheduler:Scheduler.run_until"),
    ("sim", "repro.sim.scheduler:Scheduler.run_until_idle_or"),
    ("sim", "repro.sim.network:Network.send"),
    ("sim", "repro.sim.network:Network.multicast"),
    ("bft", "repro.bft.replica:Replica.on_message"),
    ("bft", "repro.bft.client:BftClient.on_message"),
    ("bft", "repro.bft.client:BftClient.invoke"),
    ("crypto", "repro.crypto.mac:Authenticator.create"),
    ("crypto", "repro.crypto.mac:Authenticator.verify"),
    ("crypto", "repro.crypto.digest:digest"),
    ("crypto", "repro.crypto.digest:digest_many"),
    ("crypto", "repro.crypto.signatures:sign"),
    ("crypto", "repro.crypto.signatures:verify_signature"),
    ("encoding", "repro.encoding.canonical:canonical"),
    ("encoding", "repro.encoding.canonical:decanonical"),
    ("base", "repro.base.state:AbstractStateManager.execute"),
    ("base", "repro.base.state:AbstractStateManager.take_checkpoint"),
    ("base", "repro.base.state:AbstractStateManager.restore_checkpoint"),
    ("base", "repro.base.state:AbstractStateManager.apply_fetched"),
    ("base", "repro.base.state:AbstractStateManager.modify"),
    ("service", "repro.nfs.wrapper:NfsConformanceWrapper.execute"),
    ("service", "repro.nfs.wrapper:NfsConformanceWrapper.get_obj"),
    ("service", "repro.nfs.wrapper:NfsConformanceWrapper.put_objs"),
    ("service", "repro.nfs.wrapper:NfsConformanceWrapper.shutdown"),
    ("service", "repro.nfs.wrapper:NfsConformanceWrapper.restart"),
    ("service", "repro.sql.wrapper:SqlConformanceWrapper.execute"),
    ("service", "repro.sql.wrapper:SqlConformanceWrapper.get_obj"),
    ("service", "repro.sql.wrapper:SqlConformanceWrapper.put_objs"),
    ("service", "repro.sql.wrapper:SqlConformanceWrapper.shutdown"),
    ("service", "repro.sql.wrapper:SqlConformanceWrapper.restart"),
)

#: Every public method of the XDR coder is an encoding entry point.
XDR_CLASSES = ("repro.encoding.xdr:XdrEncoder", "repro.encoding.xdr:XdrDecoder")

#: Modules whose globals are rebound when a module function is wrapped:
#: the program's, and the benchmark's own load generator.
REBIND_PREFIX = "repro."
REBIND_MODULES = ("repro", "basebench.workloads")

#: Span columns kept in memory; a run stores at most this many spans
#: (the first ones) and counts the rest as dropped.
MAX_SPANS = 400_000


def _resolve(spec: str) -> Tuple[Any, str, Any]:
    """``module:Class.attr`` -> (owner, attr, raw attribute)."""
    module_name, _, path = spec.partition(":")
    module = sys.modules.get(module_name)
    if module is None:
        module = __import__(module_name, fromlist=["_"])
    owner: Any = module
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    attr = parts[-1]
    if isinstance(owner, type):
        for klass in owner.__mro__:
            if attr in klass.__dict__:
                return owner, attr, klass.__dict__[attr]
        raise AttributeError(f"{spec}: no such attribute")
    return owner, attr, getattr(owner, attr)


def _request_key(args: tuple) -> Optional[Tuple[str, int]]:
    """(client, request id) of the message in an ``on_message`` call."""
    msg = args[2]
    request_id = getattr(msg, "request_id", None)
    if request_id is None:
        return None
    return getattr(msg, "client_id", None), request_id


class SpanStore:
    """Bounded column store of finished spans."""

    def __init__(self):
        self.limit = MAX_SPANS
        self.ids = array("q")
        self.parents = array("q")
        self.names = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.clients = array("i")
        self.request_ids = array("q")
        self.dropped = 0
        self.client_names: List[str] = []
        self._client_index: Dict[str, int] = {}

    def __len__(self) -> int:
        return len(self.ids)

    def client_index(self, client: Optional[str]) -> int:
        if client is None:
            return -1
        index = self._client_index.get(client)
        if index is None:
            index = self._client_index[client] = len(self.client_names)
            self.client_names.append(client)
        return index

    def write(self, path: Path, names: List[Tuple[str, str]],
              origin: float) -> None:
        """Write ``<path>.bin`` (little-endian columns, in the order the
        header lists them) and ``<path>.json`` (the header)."""
        columns = [("id", self.ids), ("parent", self.parents),
                   ("name", self.names), ("start_s", self.starts),
                   ("end_s", self.ends), ("client", self.clients),
                   ("request_id", self.request_ids)]
        header = {
            "spans": len(self), "dropped": self.dropped,
            "time_origin": origin,
            "columns": [{"name": name, "typecode": col.typecode,
                         "itemsize": col.itemsize} for name, col in columns],
            "span_names": [{"name": n, "layer": layer} for n, layer in names],
            "clients": self.client_names,
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path.with_suffix(".bin"), "wb") as out:
            for _, col in columns:
                if sys.byteorder != "little":
                    col = array(col.typecode, col)
                    col.byteswap()
                col.tofile(out)
        with open(path.with_suffix(".json"), "w") as out:
            json.dump(header, out, indent=1)


class LayerTracer:
    """Wraps the layers' entry points and attributes wall time to them."""

    def __init__(self):
        self.layer_of: List[int] = []          # name id -> layer index
        self.span_names: List[str] = []
        self.calls: List[int] = []             # name id -> calls
        self.inclusive: List[float] = []       # name id -> seconds
        self.self_time = [0.0] * len(LAYERS)   # layer -> seconds
        #: Work counts measured at the boundaries (bytes, MAC tags, ...).
        self.work: Dict[str, int] = {
            "macs": 0, "digest_bytes": 0, "encoded_bytes": 0,
            "put_objs_objects": 0}
        self.spans = SpanStore()
        self.origin = time.perf_counter()
        # Frame per open span: [child seconds, span id, client idx, req id].
        self._stack: List[list] = [[0.0, -1, -1, -1]]
        self._next_id = [0]
        self._patches: List[Tuple[Any, str, Any, bool]] = []
        self._installed = False

    # -- wrapping ---------------------------------------------------------------

    def _name_id(self, name: str, layer: str) -> int:
        self.span_names.append(name)
        self.layer_of.append(LAYERS.index(layer))
        self.calls.append(0)
        self.inclusive.append(0.0)
        return len(self.span_names) - 1

    def wrap(self, fn: Callable, name: str, layer: str,
             key_of: Optional[Callable[[tuple], Any]] = None,
             key_after: Optional[Callable[[tuple, Any], Any]] = None,
             after: Optional[Callable[[tuple, Any], None]] = None,
             before: Optional[Callable[[tuple], tuple]] = None) -> Callable:
        """Return ``fn`` wrapped in a span named ``name``.

        ``key_of(args)`` gives the span's (client, request id) before the
        call, so child spans inherit it; ``key_after(args, result)`` keys
        only the span itself.  ``after(args, result)`` updates work
        counts; ``before(args)`` may rewrite the arguments.
        """
        return self.span_factory(name, layer, key_of, key_after, after,
                                 before)(fn)

    def span_factory(self, name: str, layer: str, key_of=None,
                     key_after=None, after=None, before=None
                     ) -> Callable[[Callable], Callable]:
        """One span name; the result wraps any number of callables."""
        nid = self._name_id(name, layer)
        layer_index = LAYERS.index(layer)
        stack = self._stack
        next_id = self._next_id
        calls = self.calls
        inclusive = self.inclusive
        self_time = self.self_time
        store = self.spans
        ids, parents, names = store.ids, store.parents, store.names
        starts, ends = store.starts, store.ends
        clients, request_ids = store.clients, store.request_ids
        client_index = store.client_index
        limit = store.limit
        clock = time.perf_counter

        def make(fn: Callable) -> Callable:
            def wrapper(*args, **kwargs):
                parent = stack[-1]
                sid = next_id[0]
                next_id[0] = sid + 1
                frame = [0.0, sid, parent[2], parent[3]]
                if before is not None:
                    args = before(args)
                if key_of is not None:
                    key = key_of(args)
                    if key is not None:
                        frame[2] = client_index(key[0])
                        frame[3] = key[1]
                stack.append(frame)
                t0 = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    t1 = clock()
                    stack.pop()
                    duration = t1 - t0
                    parent[0] += duration
                    self_time[layer_index] += duration - frame[0]
                    calls[nid] += 1
                    inclusive[nid] += duration
                if after is not None:
                    after(args, result)
                if key_after is not None:
                    key = key_after(args, result)
                    frame[2] = client_index(key[0])
                    frame[3] = key[1]
                if len(ids) < limit:
                    ids.append(sid)
                    parents.append(parent[1])
                    names.append(nid)
                    starts.append(t0)
                    ends.append(t1)
                    clients.append(frame[2])
                    request_ids.append(frame[3])
                else:
                    store.dropped += 1
                return result

            wrapper.__wrapped__ = fn
            wrapper.basebench_span = name
            wrapper.__name__ = getattr(fn, "__name__", name)
            wrapper.__doc__ = getattr(fn, "__doc__", None)
            return wrapper

        return make

    def reset(self) -> None:
        """Forget everything counted so far (set-up work), keeping the
        wrappers in place: the measured window starts now."""
        self.calls[:] = [0] * len(self.calls)
        self.inclusive[:] = [0.0] * len(self.inclusive)
        self.self_time[:] = [0.0] * len(LAYERS)
        for key in self.work:
            self.work[key] = 0
        store = self.spans
        for column in (store.ids, store.parents, store.names, store.starts,
                       store.ends, store.clients, store.request_ids):
            del column[:]
        store.dropped = 0
        self._next_id[0] = 0
        del self._stack[1:]
        self._stack[0][0] = 0.0
        self.origin = time.perf_counter()

    def _patch(self, owner: Any, attr: str, new: Any) -> None:
        had = attr in vars(owner)
        self._patches.append((owner, attr, vars(owner).get(attr), had))
        setattr(owner, attr, new)

    def _wrap_raw(self, raw: Any, name: str, layer: str, **hooks) -> Any:
        """Wrap a raw class attribute, keeping its descriptor kind."""
        if isinstance(raw, (classmethod, staticmethod)):
            return type(raw)(self.wrap(raw.__func__, name, layer, **hooks))
        if hasattr(raw, "basebench_span"):  # inherited, already wrapped
            raw = raw.__wrapped__
        return self.wrap(raw, name, layer, **hooks)

    def wrap_attribute(self, spec: str, layer: str, **hooks) -> None:
        """Wrap one ``module:Class.method`` or ``module:function``."""
        owner, attr, raw = _resolve(spec)
        name = spec.split(":", 1)[1]
        if isinstance(owner, type):
            self._patch(owner, attr, self._wrap_raw(raw, name, layer,
                                                    **hooks))
            return
        wrapped = self.wrap(raw, name, layer, **hooks)
        for module in list(sys.modules.values()):
            module_name = getattr(module, "__name__", "") or ""
            if not (module_name.startswith(REBIND_PREFIX)
                    or module_name in REBIND_MODULES):
                continue
            for global_name, value in list(vars(module).items()):
                if value is raw:
                    self._patch(module, global_name, wrapped)

    def wrap_public_methods(self, spec: str, layer: str) -> None:
        """Wrap every public method a class defines or inherits (below
        ``object``), on that class."""
        module_name, _, class_name = spec.partition(":")
        owner = getattr(__import__(module_name, fromlist=["_"]), class_name)
        seen = set()
        for klass in owner.__mro__[:-1]:
            for attr, raw in vars(klass).items():
                if attr.startswith("_") or attr in seen:
                    continue
                seen.add(attr)
                if isinstance(raw, (classmethod, staticmethod)) or (
                        callable(raw) and not isinstance(raw, type)):
                    self._patch(owner, attr, self._wrap_raw(
                        raw, f"{class_name}.{attr}", layer))

    def install(self, backend_classes=()) -> None:
        """Wrap every entry point, plus every public method of the given
        backend classes (vendor backends, SQL engines)."""
        if self._installed:
            raise RuntimeError("tracer already installed")
        self._installed = True
        for layer, spec in ENTRY_POINTS:
            self.wrap_attribute(spec, layer, **self._hooks(spec))
        for spec in XDR_CLASSES:
            self.wrap_public_methods(spec, "encoding")
        for cls in backend_classes:
            self.wrap_public_methods(f"{cls.__module__}:{cls.__name__}",
                                     "backend")

    def uninstall(self) -> None:
        for owner, attr, old, had in reversed(self._patches):
            if had:
                setattr(owner, attr, old)
            else:
                delattr(owner, attr)
        self._patches.clear()
        self._installed = False

    def _hooks(self, spec: str) -> Dict[str, Callable]:
        work = self.work
        name = spec.split(":", 1)[1]
        if name.endswith(".on_message"):
            return {"key_of": _request_key}
        if name == "BftClient.invoke":
            # The reply callback is the load generator's code: its own
            # span, under whatever delivered the reply.
            callback_span = self.span_factory("workloads.reply_callback",
                                              "workloads")

            def wrap_callback(args):
                return args[:2] + (callback_span(args[2]),) + args[3:]
            return {"before": wrap_callback,
                    "key_after": lambda args, result: (args[0].node_id,
                                                       result)}
        if name == "AbstractStateManager.execute":
            return {"key_of": lambda args: (args[2], args[3])}
        if name == "Authenticator.create":
            def count_macs(args, result):
                work["macs"] += len(result.tags)
            return {"after": count_macs}
        if name == "digest":
            def count_bytes(args, result):
                work["digest_bytes"] += len(args[0])
            return {"after": count_bytes}
        if name == "digest_many":
            def materialise(args):
                return (list(args[0]),) + tuple(args[1:])

            def count_parts(args, result):
                work["digest_bytes"] += sum(len(p) for p in args[0])
            return {"before": materialise, "after": count_parts}
        if name == "canonical":
            def count_encoded(args, result):
                work["encoded_bytes"] += len(result)
            return {"after": count_encoded}
        if name.endswith(".put_objs"):
            def count_objects(args, result):
                work["put_objs_objects"] += len(args[1])
            return {"after": count_objects}
        return {}

    # -- results -----------------------------------------------------------------

    def calls_of(self, name: str) -> int:
        return sum(c for n, c in zip(self.span_names, self.calls)
                   if n == name)

    def inclusive_of(self, name: str) -> float:
        return sum(t for n, t in zip(self.span_names, self.inclusive)
                   if n == name)

    def calls_in_layer(self, layer: str) -> int:
        index = LAYERS.index(layer)
        return sum(c for c, lay in zip(self.calls, self.layer_of)
                   if lay == index)

    def write_spans(self, path: Path) -> None:
        names = [(n, LAYERS[lay])
                 for n, lay in zip(self.span_names, self.layer_of)]
        self.spans.write(path, names, self.origin)
