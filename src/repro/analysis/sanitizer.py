"""Runtime concurrency sanitizer: a TSan-lite for the serving stack.

The static rules of :mod:`repro.analysis.rules` check the serving
concurrency contracts *lexically* — a write to a ``# guarded-by``
attribute must sit inside a ``with`` on the declared lock, and the
``with``-nesting graph must be acyclic.  That model is deliberately blind
to locks held across function boundaries (``WorkerPool._refresh_exports_locked``
writes under a lock its *caller* holds) and to dynamic acquisition orders.  This
module checks the same contracts **at runtime**, on the real test
workload:

* **Instrumented locks.**  When armed, the factories in
  :mod:`repro.serving.locks` build recording wrappers instead of raw
  primitives.  Each wrapper maintains the per-thread held-lock set and the
  observed acquisition order; disarmed, the factories return raw
  ``threading`` objects and the hot path pays nothing.
* **Guarded-attribute enforcement.**  The ``# guarded-by:`` /
  ``# guarded-by(writes):`` annotations already parsed by
  :mod:`repro.analysis.pragmas` become *dynamic* contracts: a
  ``__setattr__`` hook on each annotated class records a violation when
  the writing thread does not hold the declared lock (in a write-granting
  mode).  Writes during ``__init__`` are exempt — the object is not yet
  published — which is precisely the rule the static checker applies.
* **Lock-order cycle detection.**  Acquisition *attempts* record edges
  ``held-label -> wanted-label`` into a graph; a new edge closing a cycle
  is reported immediately, so an actual deadlock (both threads blocked
  forever) still yields a finding.
* **Watchdog.**  A daemon thread watches blocked acquisitions; one
  stalled past ``REPRO_SANITIZE_STALL`` seconds dumps the wait-for graph
  (who waits for which lock, held by whom) as a finding.
* **Lock leaks.**  A thread that exits still holding an instrumented
  lock is reported at disarm time, anchored at the acquire site.
* **Array-contract validation.**  Functions annotated with ``# array:`` /
  ``# returns:`` contracts are wrapped by
  :mod:`repro.analysis.array_runtime` to check live dtype, shape, and
  contiguity at every call boundary, reported as
  ``runtime-array-contract`` findings.

Events funnel into :mod:`repro.analysis.events` and come out as ordinary
:class:`~repro.analysis.findings.Finding` objects under the
``runtime-*`` rule names registered in :mod:`repro.analysis.rules`, with
the usual pragma suppression (a line pragma naming the runtime rule *or*
its static counterpart suppresses it).

Arming nests: :func:`arm` pushes a :class:`Sanitizer` onto a stack and
events route to the *top* entry, so a test can open a private
:func:`sanitized` scope — its deliberate violations stay out of the
session-wide report an outer ``REPRO_SANITIZE=1`` run is building.
"""

from __future__ import annotations

import ast
import functools
import importlib
import os
import re
import sys
import threading
import time
import weakref
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from types import ModuleType
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple, Union

from ..exceptions import AnalysisError
from ..serving import locks as serving_locks
from ..serving.locks import ReadWriteLock
from . import array_runtime
from .events import RuntimeEvent, SanitizerReport, assemble_report
from .pragmas import GUARD_MODES, PragmaIndex

__all__ = [
    "DEFAULT_MODULES",
    "Sanitizer",
    "active",
    "arm",
    "disarm",
    "enabled_from_env",
    "sanitized",
]

_ENV_FLAG = "REPRO_SANITIZE"
_ENV_STALL = "REPRO_SANITIZE_STALL"

#: Serving modules instrumented by default: every class with guarded
#: attributes, and the lock factories they construct through.
DEFAULT_MODULES: Tuple[str, ...] = (
    "repro.serving.locks",
    "repro.serving.cache",
    "repro.serving.engine",
    "repro.serving.sharding",
)

_SELF_ATTR_RE = re.compile(r"^self\.(\w+)$")

#: How often the watchdog wakes to scan blocked acquisitions (seconds).
_WATCHDOG_INTERVAL = 0.05


def enabled_from_env() -> bool:
    """True when ``REPRO_SANITIZE`` requests arming (any value but 0/off)."""

    return os.environ.get(_ENV_FLAG, "").strip().lower() not in (
        "",
        "0",
        "false",
        "off",
    )


# ---------------------------------------------------------------------------
# Shared instrumentation state (survives nested arm/disarm scopes)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Site:
    """Where an acquisition or write happened (raw interpreter paths)."""

    filename: str
    line: int
    function: str

    def normalised(self) -> Tuple[str, int]:
        return _normalise_path(self.filename), self.line

    def describe(self) -> str:
        path, line = self.normalised()
        return f"{path}:{line}"


@dataclass
class _Held:
    """One entry of a thread's held-lock set."""

    lock: object
    label: str
    mode: str  # "read" | "write" | "exclusive"
    site: _Site
    count: int = 1

    def grants_write(self) -> bool:
        return self.mode != "read"


@dataclass
class _Waiting:
    """A blocked acquisition the watchdog is timing."""

    lock: object
    label: str
    mode: str
    site: _Site
    since: float


class _ThreadState:
    """Per-thread sanitizer bookkeeping, registered globally for the
    watchdog and leak detection.  ``held`` is mutated only by the owning
    thread; other threads take list() snapshots (safe under the GIL)."""

    __slots__ = ("name", "thread_ref", "held", "waiting", "constructing")

    def __init__(self, thread: threading.Thread) -> None:
        self.name = thread.name
        self.thread_ref = weakref.ref(thread)
        self.held: List[_Held] = []
        self.waiting: Optional[_Waiting] = None
        self.constructing: Set[int] = set()

    def alive(self) -> bool:
        thread = self.thread_ref()
        return thread is not None and thread.is_alive()


@dataclass(frozen=True)
class _RuntimeGuard:
    """One ``# guarded-by`` declaration, resolved for runtime checking."""

    attr: str
    lock_attr: str
    mode: str
    decl_path: str
    decl_line: int


@dataclass
class _ClassPatch:
    """Undo record for one instrumented class."""

    cls: type
    own_init: Optional[object]
    own_setattr: Optional[object]


@dataclass(frozen=True)
class _LockInfo:
    label: str
    ref: "weakref.ref"


# Orchestration state.  ``_REGISTRY_MUTEX`` guards arming/disarming and the
# sink stack; the per-thread tables are owner-mutated and snapshot-read.
_REGISTRY_MUTEX = threading.Lock()
_SINKS: List["Sanitizer"] = []
_TLS = threading.local()
_STATE_MUTEX = threading.Lock()
_THREADS: Dict[int, _ThreadState] = {}  # id(state) -> state
_KNOWN: Dict[int, _LockInfo] = {}  # id(wrapper) -> info
_HOLDERS: Dict[int, Dict[int, str]] = {}  # id(wrapper) -> {id(state): mode}
_PATCHED: Dict[type, _ClassPatch] = {}
_WATCHDOG: Optional[threading.Thread] = None
_WATCHDOG_STOP: Optional[threading.Event] = None
_STALLS_REPORTED: Set[Tuple[int, int, float]] = set()

# Frames from these files are sanitizer/locking plumbing, not the code
# whose line a finding should carry.
import contextlib as _contextlib_module

_SKIP_FILES: Set[str] = {
    filename
    for filename in (
        __file__,
        serving_locks.__file__,
        _contextlib_module.__file__,
    )
    if filename
}


def _normalise_path(filename: str) -> str:
    path = Path(filename)
    try:
        return path.relative_to(Path.cwd()).as_posix()
    except ValueError:
        return path.as_posix()


def _caller_site() -> _Site:
    frame = sys._getframe(1)
    while frame is not None and frame.f_code.co_filename in _SKIP_FILES:
        frame = frame.f_back
    if frame is None:  # pragma: no cover - only if the whole stack is plumbing
        return _Site("<unknown>", 0, "<unknown>")
    return _Site(frame.f_code.co_filename, frame.f_lineno, frame.f_code.co_name)


def _thread_state() -> _ThreadState:
    state = getattr(_TLS, "state", None)
    if state is None:
        state = _ThreadState(threading.current_thread())
        _TLS.state = state
    if id(state) not in _THREADS:
        with _STATE_MUTEX:
            _THREADS[id(state)] = state
    return state


def _sink() -> Optional["Sanitizer"]:
    return _SINKS[-1] if _SINKS else None


def _thread_label() -> str:
    return threading.current_thread().name


# ---------------------------------------------------------------------------
# Acquisition bookkeeping (called from the lock wrappers)
# ---------------------------------------------------------------------------


def _note_waiting(lock: object, label: str, mode: str, site: _Site) -> None:
    """Record an acquisition *attempt*: order edges + watchdog timer.

    Edges are recorded before blocking so a genuine deadlock (both threads
    parked forever) still produces the cycle finding.
    """

    if not _SINKS:
        return
    state = _thread_state()
    sink = _sink()
    reentry = any(held.lock is lock for held in state.held)
    if sink is not None and not reentry:
        seen: Set[str] = set()
        for held in state.held:
            if held.label == label:
                # Same terminal label, different instance: hand-over-hand.
                sink.note_edge(label, label, site)
            elif held.label not in seen:
                sink.note_edge(held.label, label, site)
            seen.add(held.label)
    state.waiting = _Waiting(lock, label, mode, site, time.monotonic())


def _clear_waiting() -> None:
    state = getattr(_TLS, "state", None)
    if state is not None:
        state.waiting = None


def _note_acquired(
    lock: object, label: str, mode: str, site: _Site, *, reentrant: bool = False
) -> None:
    if not _SINKS:
        return
    state = _thread_state()
    if reentrant:
        for held in reversed(state.held):
            if held.lock is lock:
                held.count += 1
                return
    state.held.append(_Held(lock, label, mode, site))
    _HOLDERS.setdefault(id(lock), {})[id(state)] = mode


def _note_released(lock: object) -> None:
    state = getattr(_TLS, "state", None)
    if state is None:
        return
    for index in range(len(state.held) - 1, -1, -1):
        held = state.held[index]
        if held.lock is not lock:
            continue
        if held.count > 1:
            held.count -= 1
            return
        del state.held[index]
        if not any(other.lock is lock for other in state.held):
            holders = _HOLDERS.get(id(lock))
            if holders is not None:
                holders.pop(id(state), None)
                if not holders:
                    _HOLDERS.pop(id(lock), None)
        return


def _pop_held(lock: object) -> Optional[_Held]:
    """Temporarily drop a held entry (around ``Condition.wait``)."""

    state = getattr(_TLS, "state", None)
    if state is None:
        return None
    for index in range(len(state.held) - 1, -1, -1):
        if state.held[index].lock is lock:
            entry = state.held.pop(index)
            holders = _HOLDERS.get(id(lock))
            if holders is not None:
                holders.pop(id(state), None)
                if not holders:
                    _HOLDERS.pop(id(lock), None)
            return entry
    return None


def _push_held(entry: _Held) -> None:
    state = _thread_state()
    state.held.append(entry)
    _HOLDERS.setdefault(id(entry.lock), {})[id(state)] = entry.mode


def _register_lock(lock: object, label: str) -> None:
    key = id(lock)

    def _forget(_ref: object, key: int = key) -> None:
        _KNOWN.pop(key, None)

    _KNOWN[key] = _LockInfo(label=label, ref=weakref.ref(lock, _forget))


# ---------------------------------------------------------------------------
# Lock wrappers
# ---------------------------------------------------------------------------


class _SanitizedLock:
    """Recording wrapper over ``threading.Lock`` (exclusive mode)."""

    __slots__ = ("_raw", "_label", "__weakref__")
    _reentrant = False

    def __init__(self, raw: object, label: str) -> None:
        self._raw = raw
        self._label = label
        _register_lock(self, label)

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        site = _caller_site()
        _note_waiting(self, self._label, "exclusive", site)
        try:
            acquired = self._raw.acquire(blocking, timeout)
        finally:
            _clear_waiting()
        if acquired:
            _note_acquired(
                self, self._label, "exclusive", site, reentrant=self._reentrant
            )
        return acquired

    def release(self) -> None:
        self._raw.release()
        _note_released(self)

    def locked(self) -> bool:
        return self._raw.locked()

    def __enter__(self) -> "_SanitizedLock":
        self.acquire()
        return self

    def __exit__(self, *exc_info: object) -> bool:
        self.release()
        return False

    def __repr__(self) -> str:
        return f"<sanitized {type(self).__name__[len('_Sanitized'):].lower()} {self._label!r}>"


class _SanitizedRLock(_SanitizedLock):
    """Recording wrapper over ``threading.RLock`` (re-entrant)."""

    __slots__ = ()
    _reentrant = True

    def locked(self) -> bool:  # RLock grew .locked() only in 3.12
        locked = getattr(self._raw, "locked", None)
        return bool(locked()) if locked is not None else False


class _SanitizedCondition:
    """Recording wrapper over ``threading.Condition``.

    ``wait`` genuinely releases the underlying lock, so the held entry is
    dropped for the duration and restored afterwards; the watchdog sees
    the waiting thread either way.
    """

    __slots__ = ("_cond", "_label", "__weakref__")

    def __init__(self, label: str) -> None:
        self._cond = threading.Condition()
        self._label = label
        _register_lock(self, label)

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        site = _caller_site()
        _note_waiting(self, self._label, "exclusive", site)
        try:
            acquired = self._cond.acquire(blocking, timeout)
        finally:
            _clear_waiting()
        if acquired:
            _note_acquired(self, self._label, "exclusive", site, reentrant=True)
        return acquired

    def release(self) -> None:
        self._cond.release()
        _note_released(self)

    def wait(self, timeout: Optional[float] = None) -> bool:
        site = _caller_site()
        entry = _pop_held(self)
        if _SINKS:
            _thread_state().waiting = _Waiting(
                self, self._label, "wait", site, time.monotonic()
            )
        try:
            return self._cond.wait(timeout)
        finally:
            _clear_waiting()
            if entry is not None:
                _push_held(entry)

    def wait_for(self, predicate, timeout: Optional[float] = None):
        site = _caller_site()
        entry = _pop_held(self)
        if _SINKS:
            _thread_state().waiting = _Waiting(
                self, self._label, "wait", site, time.monotonic()
            )
        try:
            return self._cond.wait_for(predicate, timeout)
        finally:
            _clear_waiting()
            if entry is not None:
                _push_held(entry)

    def notify(self, n: int = 1) -> None:
        self._cond.notify(n)

    def notify_all(self) -> None:
        self._cond.notify_all()

    def __enter__(self) -> "_SanitizedCondition":
        self.acquire()
        return self

    def __exit__(self, *exc_info: object) -> bool:
        self.release()
        return False

    def __repr__(self) -> str:
        return f"<sanitized condition {self._label!r}>"


class _SanitizedReadWriteLock(ReadWriteLock):
    """Recording :class:`ReadWriteLock`: read mode is shared and does not
    grant guarded writes; the inherited ``read()``/``write()`` context
    managers route through the overridden acquire/release pairs."""

    def __init__(self, label: str) -> None:
        super().__init__()
        self._label = label
        _register_lock(self, label)

    def acquire_read(self) -> None:
        site = _caller_site()
        _note_waiting(self, self._label, "read", site)
        try:
            super().acquire_read()
        finally:
            _clear_waiting()
        _note_acquired(self, self._label, "read", site)

    def release_read(self) -> None:
        super().release_read()
        _note_released(self)

    def acquire_write(self) -> None:
        site = _caller_site()
        _note_waiting(self, self._label, "write", site)
        try:
            super().acquire_write()
        finally:
            _clear_waiting()
        _note_acquired(self, self._label, "write", site)

    def release_write(self) -> None:
        super().release_write()
        _note_released(self)


def _lock_factory(kind: str, label: str) -> object:
    if kind == "lock":
        return _SanitizedLock(threading.Lock(), label)
    if kind == "rlock":
        return _SanitizedRLock(threading.RLock(), label)
    if kind == "condition":
        return _SanitizedCondition(label)
    if kind == "rwlock":
        return _SanitizedReadWriteLock(label)
    raise AnalysisError(f"unknown lock kind {kind!r}")


# ---------------------------------------------------------------------------
# Guarded-attribute enforcement
# ---------------------------------------------------------------------------


def _constructing() -> Set[int]:
    state = getattr(_TLS, "state", None)
    if state is None:
        state = _thread_state()
    return state.constructing


def _check_guarded_write(obj: object, guard: _RuntimeGuard) -> None:
    lock = getattr(obj, guard.lock_attr, None)
    if lock is None:
        return
    info = _KNOWN.get(id(lock))
    if info is None or info.ref() is not lock:
        return  # raw (uninstrumented) lock: outside the sanitizer's scope
    state = _thread_state()
    read_only = False
    for held in state.held:
        if held.lock is lock:
            if held.grants_write():
                return
            read_only = True
    sink = _sink()
    if sink is None:
        return
    site = _caller_site()
    path, line = site.normalised()
    detail = (
        f"holds `self.{guard.lock_attr}` for reading only; writes need write mode"
        if read_only
        else f"does not hold `self.{guard.lock_attr}`"
    )
    sink.record(
        "runtime-guarded-write",
        path,
        line,
        f"thread `{_thread_label()}` wrote guarded attribute "
        f"`{type(obj).__name__}.{guard.attr}` but {detail} "
        f"(declared guarded-by at {guard.decl_path}:{guard.decl_line})",
    )


def _load_guard_map(
    module: ModuleType,
) -> Dict[str, Dict[str, _RuntimeGuard]]:
    """Class name -> guarded attributes, parsed from the module's source."""

    filename = getattr(module, "__file__", None)
    if not filename:
        return {}
    try:
        source = Path(filename).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError):
        return {}
    try:
        tree = ast.parse(source)
    except SyntaxError:
        return {}
    decl_path = _normalise_path(filename)
    pragmas = PragmaIndex.from_source(source)
    by_line: Dict[int, Tuple[str, str]] = {}
    for guard in pragmas.guards:
        match = _SELF_ATTR_RE.match(guard.expr)
        if guard.mode in GUARD_MODES and match is not None:
            by_line[guard.line] = (match.group(1), guard.mode)
    result: Dict[str, Dict[str, _RuntimeGuard]] = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        attrs: Dict[str, _RuntimeGuard] = {}
        for method in node.body:
            if not isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for sub in ast.walk(method):
                targets: List[ast.expr] = []
                if isinstance(sub, ast.Assign):
                    targets = list(sub.targets)
                elif isinstance(sub, (ast.AnnAssign, ast.AugAssign)):
                    targets = [sub.target]
                for target in targets:
                    if (
                        isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                        and sub.lineno in by_line
                    ):
                        lock_attr, mode = by_line[sub.lineno]
                        attrs[target.attr] = _RuntimeGuard(
                            attr=target.attr,
                            lock_attr=lock_attr,
                            mode=mode,
                            decl_path=decl_path,
                            decl_line=sub.lineno,
                        )
        if attrs:
            result[node.name] = attrs
    return result


def _patch_class(cls: type, guards: Dict[str, _RuntimeGuard]) -> Optional[_ClassPatch]:
    if cls in _PATCHED:
        return None
    own_init = cls.__dict__.get("__init__")
    own_setattr = cls.__dict__.get("__setattr__")
    resolved_init = cls.__init__
    resolved_setattr = cls.__setattr__

    @functools.wraps(resolved_init)
    def _init(self, *args: object, **kwargs: object):
        constructing = _constructing()
        key = id(self)
        added = key not in constructing
        if added:
            constructing.add(key)
        try:
            return resolved_init(self, *args, **kwargs)
        finally:
            if added:
                constructing.discard(key)

    def _setattr(self, name: str, value: object) -> None:
        guard = guards.get(name)
        if guard is not None and _SINKS and id(self) not in _constructing():
            _check_guarded_write(self, guard)
        resolved_setattr(self, name, value)

    patch = _ClassPatch(cls=cls, own_init=own_init, own_setattr=own_setattr)
    cls.__init__ = _init
    cls.__setattr__ = _setattr
    _PATCHED[cls] = patch
    return patch


def _unpatch_class(patch: _ClassPatch) -> None:
    cls = patch.cls
    if patch.own_init is not None:
        cls.__init__ = patch.own_init
    else:  # pragma: no cover - all instrumented classes define __init__
        del cls.__init__
    if patch.own_setattr is not None:  # pragma: no cover - none define one
        cls.__setattr__ = patch.own_setattr
    else:
        del cls.__setattr__
    _PATCHED.pop(cls, None)


def _resolve_module(module: Union[str, ModuleType]) -> ModuleType:
    if isinstance(module, ModuleType):
        return module
    return importlib.import_module(module)


def _instrument_modules(
    modules: Sequence[Union[str, ModuleType]]
) -> List[_ClassPatch]:
    """Patch guarded classes of ``modules``; returns the patches added by
    this call (classes another scope already patched are skipped).

    Source parsing (file I/O) happens before the registry mutex is taken;
    only the class patching itself runs under it.
    """

    pending: List[Tuple[type, Dict[str, _RuntimeGuard]]] = []
    for entry in modules:
        module = _resolve_module(entry)
        for cls_name, guards in _load_guard_map(module).items():
            cls = getattr(module, cls_name, None)
            if isinstance(cls, type):
                pending.append((cls, guards))
    added: List[_ClassPatch] = []
    with _REGISTRY_MUTEX:
        for cls, guards in pending:
            patch = _patch_class(cls, guards)
            if patch is not None:
                added.append(patch)
    return added


# ---------------------------------------------------------------------------
# Watchdog + leak detection
# ---------------------------------------------------------------------------


def _wait_for_dump() -> str:
    parts: List[str] = []
    with _STATE_MUTEX:
        states = list(_THREADS.values())
    for state in states:
        waiting = state.waiting
        if waiting is None:
            continue
        holders = dict(_HOLDERS.get(id(waiting.lock), {}))
        names = (
            ", ".join(
                f"`{_THREADS[key].name}` ({mode})"
                for key, mode in holders.items()
                if key in _THREADS
            )
            or "nobody"
        )
        held_here = ", ".join(f"`{held.label}`" for held in list(state.held)) or "nothing"
        parts.append(
            f"`{state.name}` holds {held_here} and waits for "
            f"`{waiting.label}` ({waiting.mode}) held by {names}"
        )
    return "; ".join(parts)


def _watchdog_scan() -> None:
    sink = _sink()
    if sink is None:
        return
    now = time.monotonic()
    with _STATE_MUTEX:
        states = list(_THREADS.values())
    for state in states:
        waiting = state.waiting
        if waiting is None:
            continue
        elapsed = now - waiting.since
        if elapsed < sink.stall_timeout:
            continue
        key = (id(state), id(waiting.lock), waiting.since)
        if key in _STALLS_REPORTED:
            continue
        _STALLS_REPORTED.add(key)
        path, line = waiting.site.normalised()
        sink.record(
            "runtime-watchdog",
            path,
            line,
            f"thread `{state.name}` blocked acquiring `{waiting.label}` "
            f"({waiting.mode}) for {elapsed:.2f}s; wait-for graph: "
            f"{_wait_for_dump()}",
        )


def _watchdog_loop(stop: threading.Event) -> None:
    while not stop.wait(_WATCHDOG_INTERVAL):
        _watchdog_scan()


def _start_watchdog() -> None:
    global _WATCHDOG, _WATCHDOG_STOP
    _WATCHDOG_STOP = threading.Event()
    _WATCHDOG = threading.Thread(
        target=_watchdog_loop,
        args=(_WATCHDOG_STOP,),
        name="repro-sanitizer-watchdog",
        daemon=True,
    )
    _WATCHDOG.start()


def _stop_watchdog() -> None:
    global _WATCHDOG, _WATCHDOG_STOP
    if _WATCHDOG_STOP is not None:
        _WATCHDOG_STOP.set()
    if _WATCHDOG is not None:
        _WATCHDOG.join(timeout=5.0)
    _WATCHDOG = None
    _WATCHDOG_STOP = None
    _STALLS_REPORTED.clear()


def _collect_leaks(sink: "Sanitizer") -> None:
    """Report locks still held by dead threads, then purge their state."""

    with _STATE_MUTEX:
        states = list(_THREADS.items())
    for key, state in states:
        if state.alive():
            continue
        for held in list(state.held):
            path, line = held.site.normalised()
            sink.record(
                "runtime-lock-leak",
                path,
                line,
                f"thread `{state.name}` exited still holding `{held.label}` "
                f"({held.mode}, acquired at {held.site.describe()})",
            )
            holders = _HOLDERS.get(id(held.lock))
            if holders is not None:
                holders.pop(id(state), None)
                if not holders:
                    _HOLDERS.pop(id(held.lock), None)
        state.held.clear()
        with _STATE_MUTEX:
            _THREADS.pop(key, None)


# ---------------------------------------------------------------------------
# The sanitizer (event sink) and the arm/disarm stack
# ---------------------------------------------------------------------------


class Sanitizer:
    """One armed scope's event sink: violations, the observed lock-order
    graph, and its configuration.  Thread-safe; shared instrumentation
    state lives at module level so scopes can nest."""

    def __init__(self, *, stall_timeout: Optional[float] = None) -> None:
        self._mutex = threading.Lock()
        self._events: List[RuntimeEvent] = []
        self._counts: Dict[RuntimeEvent, int] = {}
        self._adjacency: Dict[str, Set[str]] = {}
        self._cycles_seen: Set[frozenset] = set()
        self._owned_patches: List[_ClassPatch] = []
        self._owned_contract_patches: List[array_runtime._FunctionPatch] = []
        self._owned_factory = False
        if stall_timeout is None:
            try:
                stall_timeout = float(os.environ.get(_ENV_STALL, "20"))
            except ValueError:
                stall_timeout = 20.0
        self.stall_timeout = stall_timeout

    def record(self, rule: str, path: str, line: int, message: str) -> None:
        event = RuntimeEvent(rule=rule, path=path, line=line, message=message)
        with self._mutex:
            if event in self._counts:
                self._counts[event] += 1
            else:
                self._counts[event] = 1
                self._events.append(event)

    def note_edge(self, source: str, target: str, site: _Site) -> None:
        with self._mutex:
            successors = self._adjacency.setdefault(source, set())
            if target in successors:
                return
            successors.add(target)
            cycle = self._cycle_through(source, target)
            if cycle is None:
                return
            key = frozenset(cycle)
            if key in self._cycles_seen:
                return
            self._cycles_seen.add(key)
            ordering = " -> ".join(cycle + [cycle[0]])
            path, line = site.normalised()
            event = RuntimeEvent(
                rule="runtime-lock-order",
                path=path,
                line=line,
                message=(
                    f"observed lock-acquisition cycle {{{ordering}}}: thread "
                    f"`{_thread_label()}` tried to acquire `{target}` while "
                    f"holding `{source}`; acquire locks in one global order"
                ),
            )
            if event in self._counts:
                self._counts[event] += 1
            else:
                self._counts[event] = 1
                self._events.append(event)

    def _cycle_through(self, source: str, target: str) -> Optional[List[str]]:
        """A label path ``source -> target -> ... -> source`` if the new
        edge closed a cycle, else None."""

        if source == target:
            return [source]
        stack: List[Tuple[str, List[str]]] = [(target, [source, target])]
        visited: Set[str] = {target}
        while stack:
            node, path = stack.pop()
            for successor in self._adjacency.get(node, ()):
                if successor == source:
                    return path
                if successor not in visited:
                    visited.add(successor)
                    stack.append((successor, path + [successor]))
        return None

    @property
    def events_total(self) -> int:
        with self._mutex:
            return sum(self._counts.values())

    def report(self) -> SanitizerReport:
        with self._mutex:
            events = list(self._events)
            counts = dict(self._counts)
        return assemble_report(events, counts)

    def findings(self) -> List:
        return self.report().findings


def active() -> Optional[Sanitizer]:
    """The sanitizer currently receiving events, or None when disarmed."""

    return _sink()


def arm(
    sanitizer: Optional[Sanitizer] = None,
    *,
    modules: Sequence[Union[str, ModuleType]] = DEFAULT_MODULES,
) -> Sanitizer:
    """Arm the sanitizer: install the lock factory, patch the guarded
    classes of ``modules``, start the watchdog, and route events to
    ``sanitizer`` (a fresh one when omitted).  Nested calls push a new
    sink; instrumentation is shared and reference-counted."""

    sink = sanitizer if sanitizer is not None else Sanitizer()
    with _REGISTRY_MUTEX:
        if any(existing is sink for existing in _SINKS):
            raise AnalysisError("this Sanitizer is already armed")
        first = not _SINKS
        if first:
            serving_locks.set_lock_factory(_lock_factory)
            sink._owned_factory = True
            _start_watchdog()
        _SINKS.append(sink)
    # Source parsing happens outside the registry mutex (it reads files);
    # patching itself is idempotent per class.
    sink._owned_patches = _instrument_modules(modules)
    # Array-contract validation covers the annotated serving/spatial stack
    # plus whatever modules this scope asked for (so fixture modules passed
    # through ``sanitized(extra_modules=...)`` are contract-checked too).
    sink._owned_contract_patches = array_runtime.instrument_contracts(
        tuple(modules) + array_runtime.DEFAULT_CONTRACT_MODULES, _sink
    )
    return sink


def disarm(sanitizer: Optional[Sanitizer] = None) -> SanitizerReport:
    """Disarm the most recent :func:`arm` scope and return its report.

    Lock leaks of threads that have since exited are folded into the
    report here.  Passing ``sanitizer`` asserts it is the scope on top of
    the stack (scopes must unwind in order).
    """

    with _REGISTRY_MUTEX:
        if not _SINKS:
            raise AnalysisError("sanitizer is not armed")
        sink = _SINKS[-1]
        if sanitizer is not None and sink is not sanitizer:
            raise AnalysisError(
                "sanitizer scopes must disarm in reverse arming order"
            )
        _SINKS.pop()
        _collect_leaks(sink)
        for patch in sink._owned_patches:
            _unpatch_class(patch)
        sink._owned_patches = []
        array_runtime.remove_contract_patches(sink._owned_contract_patches)
        sink._owned_contract_patches = []
        if not _SINKS:
            serving_locks.set_lock_factory(None)
            _stop_watchdog()
            _KNOWN.clear()
            _HOLDERS.clear()
            with _STATE_MUTEX:
                dead = [
                    key
                    for key, state in _THREADS.items()
                    if not state.alive()
                ]
                for key in dead:
                    _THREADS.pop(key, None)
    return sink.report()


@contextmanager
def sanitized(
    sanitizer: Optional[Sanitizer] = None,
    *,
    modules: Sequence[Union[str, ModuleType]] = DEFAULT_MODULES,
    extra_modules: Sequence[Union[str, ModuleType]] = (),
) -> Iterator[Sanitizer]:
    """Arm for the duration of a block; the yielded sanitizer keeps its
    events after exit, so assertions run on ``scope.report()``.

    Under an outer ``REPRO_SANITIZE=1`` session this opens a *private*
    scope: events inside the block route here and stay out of the
    session-wide report.
    """

    sink = arm(sanitizer, modules=tuple(modules) + tuple(extra_modules))
    try:
        yield sink
    finally:
        disarm(sink)
