"""Zero-copy label-store sources: shared memory and mapped artifacts.

A hub labeling is built once and then read forever; the serving tier
wants N worker processes answering queries over *one* copy of the CSR
arrays.  This module provides the two operating-system primitives that
make that free:

* :class:`SharedLabelStore` -- the version-5 artifact envelope
  (:mod:`repro.core.io`) copied once into a
  ``multiprocessing.shared_memory`` segment.  The parent creates and
  owns the segment; each worker attaches by name and builds a
  :class:`~repro.perf.flat.FlatHubLabeling` view straight over the
  shared pages.  ``close`` / ``unlink`` follow the usual
  attach-vs-own split, and attached stores deliberately bypass
  Python's ``resource_tracker`` (the parent is the single owner; a
  tracked attach would double-unlink and warn on worker exit).

* :class:`MappedLabelStore` -- an ``mmap`` view of an artifact file
  (what :class:`~repro.perf.cache.LabelCache` writes, and how it
  serves every hit).  Opening costs a header check, not a
  deserialize: the store's arrays are the page cache's pages, shared
  between every process mapping the same file, so no process holds a
  private copy of the labels.

Both sources defer the envelope CRC (:meth:`verify` runs it on demand
-- the lazy half of the open; ``LabelCache`` runs it before it returns
a hit) and emit the ``shm.*`` metrics:
``shm.attaches`` per store opened (labelled by source), the
``shm.bytes_mapped`` gauge, and ``shm.crc_checks`` per deferred
verification (labelled by outcome).
"""

from __future__ import annotations

import mmap
import os
import secrets
from typing import Optional, Union

from ..core.io import (
    _HEADER_SIZE,
    flat_labeling_to_bytes,
    flat_labeling_view,
    verify_envelope_crc,
)
from ..obs.catalog import SHM_ATTACHES, SHM_BYTES_MAPPED, SHM_CRC_CHECKS
from ..obs.registry import get_registry
from ..runtime.errors import ArtifactCorruptError
from .flat import FlatHubLabeling

__all__ = ["SharedLabelStore", "MappedLabelStore", "SHM_NAME_PREFIX"]

#: Leading characters of every segment this module creates -- the CI
#: leak check greps ``/dev/shm`` for exactly this prefix.
SHM_NAME_PREFIX = "repro_labels_"

#: Tracker-registered names created by this process (or inherited over
#: ``fork``).  Attaches to these share the creator's resource tracker,
#: so the untracked-attach fallback must *not* unregister them -- that
#: would clobber the owner's registration and make the eventual
#: ``unlink`` warn about an unknown resource.
_CREATED_HERE: set = set()


def _record_open(source: str, nbytes: int) -> None:
    registry = get_registry()
    if registry.enabled:
        registry.counter(SHM_ATTACHES, source=source).inc()
        registry.gauge(SHM_BYTES_MAPPED, source=source).set(nbytes)


def _record_crc(outcome: str) -> None:
    registry = get_registry()
    if registry.enabled:
        registry.counter(SHM_CRC_CHECKS, outcome=outcome).inc()


def _checked_verify(buffer) -> None:
    """CRC the envelope, counting the outcome either way."""
    try:
        verify_envelope_crc(_exact_envelope(buffer))
    except ArtifactCorruptError:
        _record_crc("corrupt")
        raise
    _record_crc("ok")


def _exact_envelope(buffer) -> memoryview:
    """Trim page-rounding slack off a shared segment's envelope.

    ``shared_memory`` rounds segment sizes up to a page; the envelope
    header declares the true payload length, so the view is cut to
    exactly header + payload before validation (a short buffer is left
    alone -- the header check reports the truncation properly).
    """
    view = memoryview(buffer)
    if len(view) >= _HEADER_SIZE:
        declared = _HEADER_SIZE + int.from_bytes(view[13:21], "big")
        if len(view) > declared:
            view = view[:declared]
    return view


class SharedLabelStore:
    """One labeling's artifact envelope living in a shared segment.

    Create with :meth:`create` (parent side, owns the segment) or
    :meth:`attach` (worker side, by name).  ``self.flat`` is a
    :class:`FlatHubLabeling` whose arrays view the shared pages
    directly -- no per-process copy exists anywhere.
    """

    def __init__(self, shm, flat: FlatHubLabeling, *, owner: bool) -> None:
        self._shm = shm
        self.flat = flat
        self.owner = owner
        self._closed = False

    # ------------------------------------------------------------------
    @classmethod
    def create(cls, flat: FlatHubLabeling) -> "SharedLabelStore":
        """Copy ``flat``'s envelope into a fresh owned segment.

        The one copy this design ever makes: store bytes -> shared
        pages.  Every subsequent reader (this process included -- the
        returned store's ``flat`` already views the segment) is free.
        """
        from multiprocessing import shared_memory

        blob = flat_labeling_to_bytes(flat)
        name = f"{SHM_NAME_PREFIX}{os.getpid()}_{secrets.token_hex(4)}"
        shm = shared_memory.SharedMemory(
            name=name, create=True, size=len(blob)
        )
        _CREATED_HERE.add(shm._name)
        shm.buf[: len(blob)] = blob
        # SharedMemory may round the size up to a page; the envelope's
        # declared payload length keeps the view exact regardless.
        view = flat_labeling_view(shm.buf[: len(blob)])
        _record_open("shm", len(blob))
        return cls(shm, view, owner=True)

    @classmethod
    def attach(cls, name: str) -> "SharedLabelStore":
        """Attach to an existing segment by name (worker side).

        The attach is *untracked*: the creating process owns the
        segment's lifetime, and letting the worker's resource tracker
        register it would unlink it out from under the fleet (and warn
        about "leaked" memory) when the first worker exits.
        """
        from multiprocessing import shared_memory

        try:
            shm = shared_memory.SharedMemory(name=name, track=False)
        except TypeError:  # Python < 3.13 registers every attach
            shm = shared_memory.SharedMemory(name=name)
            # A forked worker (or a same-process attach) shares the
            # creator's tracker, whose registration the owner's unlink
            # consumes -- unregistering here would double-remove it.
            # Only a genuinely foreign tracker (spawn) needs the fixup.
            if shm._name not in _CREATED_HERE:
                try:
                    from multiprocessing import resource_tracker

                    resource_tracker.unregister(
                        shm._name, "shared_memory"
                    )
                except Exception:  # pragma: no cover - best effort
                    pass
        view = flat_labeling_view(_exact_envelope(shm.buf))
        _record_open("shm", shm.size)
        return cls(shm, view, owner=False)

    # ------------------------------------------------------------------
    @property
    def name(self) -> str:
        return self._shm.name

    @property
    def size(self) -> int:
        return self._shm.size

    def verify(self) -> None:
        """Run the deferred CRC over the shared envelope now."""
        _checked_verify(self._shm.buf)

    def close(self) -> None:
        """Drop this process's mapping; owners also unlink the segment."""
        if self._closed:
            return
        self._closed = True
        # Release the numpy views first: SharedMemory.close() refuses
        # (BufferError) while exported memoryviews are alive.
        self.flat = None
        try:
            self._shm.close()
        except BufferError:  # pragma: no cover - lingering view holders
            pass
        if self.owner:
            try:
                self._shm.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass

    def __enter__(self) -> "SharedLabelStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        role = "owner" if self.owner else "attached"
        return (
            f"SharedLabelStore({self.name!r}, {self.size} bytes, {role})"
        )


class MappedLabelStore:
    """A flat label store served from an mmap'ed artifact file.

    ``path`` must hold a version-5 envelope (what
    :meth:`LabelCache.store <repro.perf.cache.LabelCache.store>` and
    ``repro build --save`` write).  The header is validated eagerly;
    the CRC is deferred to :meth:`verify`; label pages fault in as
    queries touch them.
    """

    def __init__(self, path: Union[str, os.PathLike]) -> None:
        self.path = os.fspath(path)
        with open(self.path, "rb") as handle:
            self._map = mmap.mmap(
                handle.fileno(), 0, access=mmap.ACCESS_READ
            )
        try:
            self.flat: Optional[FlatHubLabeling] = flat_labeling_view(
                self._map
            )
        except Exception:
            try:
                self._map.close()
            except BufferError:
                # The in-flight exception's traceback still references
                # views over the map; GC unmaps once it is released.
                pass
            raise
        _record_open("mmap", len(self._map))
        self._closed = False

    def verify(self) -> None:
        """Run the deferred CRC over the mapped file now."""
        _checked_verify(self._map)

    def close(self) -> None:
        """Unmap; the store's arrays must no longer be in use."""
        if self._closed:
            return
        self._closed = True
        self.flat = None
        try:
            self._map.close()
        except BufferError:  # pragma: no cover - lingering view holders
            pass

    def __enter__(self) -> "MappedLabelStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        return f"MappedLabelStore({self.path!r}, {len(self._map)} bytes)"
