"""Fingerprint-keyed cache of compiled specialized modules.

Extends the PR-5 discipline — one compiled artifact per obfuscation-plan
fingerprint, shared across every replay of that plan — from ``CodecPlan``
objects to whole generated modules.  Two levels:

* an in-process LRU keyed ``(fingerprint, specialized, emitter version)``
  mapping to the loaded module object, so every session speaking the same
  dialect executes the exact same compiled code object, and
* an optional on-disk layer (``REPRO_CODEGEN_CACHE`` or an explicit
  directory) where the emitted *source* is stored as ``codec_<fp>.py`` /
  ``codec_<fp>_spec.py``, sharing the emission cost across processes.  Files
  written by an older emitter, and files that cannot be read, are refused
  and transparently regenerated and overwritten.

:func:`cached_module` resolves a miss on the caller's thread;
:func:`module_poll` resolves a specialized miss in one background worker
process, so that an event loop keeps serving while a dialect compiles.

Graphs without a plan fingerprint fall back to the content-derived
:func:`~repro.core.fingerprint.graph_fingerprint`, so unstamped-but-identical
graphs still share a slot.
"""

from __future__ import annotations

import atexit
import marshal
import os
import types
from collections import OrderedDict
from concurrent.futures import Executor, Future
from pathlib import Path
from typing import Callable

from ..core.errors import CodegenError
from ..core.fingerprint import graph_fingerprint
from ..core.graph import FormatGraph
from ..wire.plan import plan_for
from .emitter import EMITTER_VERSION, generate_module
from .loader import compile_source, load_code

#: Loaded modules keyed ``(fingerprint, specialized, emitter version)``,
#: least-recently-used first.  Mirrors the plan cache's bound: rotation-heavy
#: servers cycle through dialects and must not grow the cache without limit.
_MODULE_CACHE: "OrderedDict[tuple[str, bool, str], types.ModuleType]" = OrderedDict()
_MODULE_CACHE_CAPACITY = 64

_CACHE_STATS = {"hits": 0, "misses": 0, "evictions": 0, "disk_hits": 0}

#: Background compiles not yet loaded, keyed like ``_MODULE_CACHE``; like the
#: LRU, touched only on the callers' threads, never from executor callbacks.
_PENDING: "dict[tuple[str, bool, str], Future]" = {}
#: The compile worker: ``None`` until the first background miss starts it,
#: ``False`` once it failed (misses then compile on the caller's thread).
_POOL: Executor | bool | None = None

#: Environment variable naming the shared on-disk module cache directory.
CACHE_DIR_ENV = "REPRO_CODEGEN_CACHE"


def module_fingerprint(graph: FormatGraph) -> str:
    """The cache key of ``graph``: its plan fingerprint, else content hash."""
    stamped = getattr(graph, "plan_fingerprint", None)
    if stamped is not None:
        return stamped
    return graph_fingerprint(graph)


def _disk_dir(cache_dir: str | Path | None) -> Path | None:
    if cache_dir is not None:
        return Path(cache_dir)
    env = os.environ.get(CACHE_DIR_ENV)
    return Path(env) if env else None


def _store_disk(path: Path, source: str) -> None:
    """Atomically write ``source`` to ``path`` (tmp file + rename)."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + f".tmp{os.getpid()}")
    tmp.write_text(source, encoding="utf-8")
    os.replace(tmp, path)


def _resolve(graph: FormatGraph, fingerprint: str, specialize: bool,
             directory: Path | None) -> tuple[types.CodeType, bool]:
    """The compiled code of a missed module, and whether it came from disk:
    a current disk entry, else a fresh emission written back to disk."""
    name = f"codec_{fingerprint}{'_spec' if specialize else ''}"
    filename = f"<generated:{name}>"
    path = directory / f"{name}.py" if directory is not None else None
    if path is not None and path.is_file():
        try:
            code = compile_source(path.read_text(encoding="utf-8"), filename)
            load_code(code, require_version=True)
            return code, True
        except (CodegenError, OSError, ValueError):
            pass  # stale, unstamped or unreadable: regenerate and overwrite
    source = generate_module(graph, specialize=specialize,
                             plan_fingerprint=fingerprint)
    code = compile_source(source, filename)
    if path is not None:
        try:
            _store_disk(path, source)
        except OSError:
            pass  # a read-only cache dir degrades to in-memory caching
    return code, False


def _hit(key: tuple[str, bool, str]) -> types.ModuleType | None:
    module = _MODULE_CACHE.get(key)
    if module is not None:
        _CACHE_STATS["hits"] += 1
        _MODULE_CACHE.move_to_end(key)
    return module


def _insert(key: tuple[str, bool, str], code: types.CodeType,
            disk_hit: bool) -> types.ModuleType:
    """Load ``code`` as the module of ``key``, evicting the oldest if full."""
    module = load_code(code, require_version=True)
    _CACHE_STATS["disk_hits"] += disk_hit
    while len(_MODULE_CACHE) >= _MODULE_CACHE_CAPACITY:
        _MODULE_CACHE.popitem(last=False)
        _CACHE_STATS["evictions"] += 1
    _MODULE_CACHE[key] = module
    return module


def cached_module(graph: FormatGraph, *, specialize: bool = True,
                  cache_dir: str | Path | None = None) -> types.ModuleType:
    """The loaded (specialized) module of ``graph``, emitted at most once.

    Resolution order: in-process LRU → on-disk source (when a cache directory
    is configured) → fresh emission, all on the caller's thread.  Sources
    read back from disk must carry the current emitter version; stale or
    unreadable files are regenerated and overwritten instead of being run.
    """
    fingerprint = module_fingerprint(graph)
    key = (fingerprint, specialize, EMITTER_VERSION)
    module = _hit(key)
    if module is None:
        _CACHE_STATS["misses"] += 1
        module = _insert(key, *_resolve(graph, fingerprint, specialize,
                                        _disk_dir(cache_dir)))
    return module


def module_poll(graph: FormatGraph) -> Callable[[], types.ModuleType | None]:
    """A poll returning the specialized module of ``graph``, or ``None``
    while the background worker compiles it.

    The first poll of a missed key compiles the graph's codec plan, which
    validates it (raising the validator's ``GraphError`` there) and which
    the tiering codec serves from until the module lands.  It then counts
    one miss and submits the key, once; the first poll after the worker
    finishes loads the module into the LRU.  If the worker cannot start, or
    a submit or result fails, the miss compiles on the caller's thread and
    the worker is not used again.
    """
    fingerprint = module_fingerprint(graph)
    key = (fingerprint, True, EMITTER_VERSION)
    directory = _disk_dir(None)

    def poll() -> types.ModuleType | None:
        module = _hit(key)
        if module is not None:
            return module
        future = _PENDING.get(key)
        if future is None:
            plan_for(graph)
            _CACHE_STATS["misses"] += 1
            future = _submit(graph, fingerprint, directory)
            if future is None:
                return _insert(key, *_resolve(graph, fingerprint, True, directory))
            _PENDING[key] = future
            return None
        if not future.done():
            return None
        del _PENDING[key]
        try:
            data, disk_hit = future.result()
            code = marshal.loads(data)
        except Exception:
            # A broken worker, a pickling error or a cancelled job; the
            # compile below raises any error of the job itself again.
            _stop_pool()
            code, disk_hit = _resolve(graph, fingerprint, True, directory)
        return _insert(key, code, disk_hit)

    return poll


def _compile_job(graph: FormatGraph, fingerprint: str,
                 directory: Path | None) -> tuple[bytes, bool]:
    """Run in the worker: the marshalled code of a missed specialized module."""
    code, disk_hit = _resolve(graph, fingerprint, True, directory)
    return marshal.dumps(code), disk_hit


def _submit(graph: FormatGraph, fingerprint: str,
            directory: Path | None) -> Future | None:
    """Queue one compile on the worker, starting it first; ``None`` without one."""
    global _POOL
    try:
        if _POOL is None:
            # Imported here, so a process that never misses does not load
            # multiprocessing (0.7 MB).  spawn, never fork: the caller may be
            # multi-threaded.
            import multiprocessing
            from concurrent.futures import ProcessPoolExecutor

            _POOL = ProcessPoolExecutor(
                max_workers=1, mp_context=multiprocessing.get_context("spawn"))
            atexit.register(_stop_pool)
        if _POOL:
            return _POOL.submit(_compile_job, graph, fingerprint, directory)
    except Exception:  # no process could start, or the pool broke
        _stop_pool()
    return None


def _stop_pool() -> None:
    """Shut the worker down for good: at exit (after ``concurrent.futures``
    joined it, and before teardown could collect it), or once it failed."""
    global _POOL
    pool, _POOL = _POOL, False
    if pool:
        pool.shutdown(wait=False, cancel_futures=True)


def module_cache_stats() -> dict[str, int]:
    """Hit/miss/evict/disk-hit counters of the module cache (a copy)."""
    return dict(_CACHE_STATS)


def clear_module_cache() -> None:
    """Drop every cached module and pending compile and zero the counters
    (test isolation)."""
    _MODULE_CACHE.clear()
    for future in _PENDING.values():
        future.cancel()
    _PENDING.clear()
    for key in _CACHE_STATS:
        _CACHE_STATS[key] = 0
