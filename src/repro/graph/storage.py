"""Aligned on-disk CSR container with a memory-mapped ``Graph`` view.

The in-memory :class:`~repro.graph.graph.Graph` assumes its two CSR
arrays fit in RAM, which caps the reproduction at stand-in scale; the
paper's headline numbers come from multi-million-node graphs whose CSR
alone outgrows small machines.  This module stores the same arrays in a
flat binary container that :func:`numpy.memmap` can open lazily:

``bytes 0..7``
    Magic ``b"REPROCSR"``.
``bytes 8..15``
    ``uint32`` little-endian format version, then the byte length of the
    JSON header.
``bytes 16..``
    A JSON header (schema tag, node/arc counts, array dtype, per-array
    byte offsets, content fingerprint), then the raw little-endian
    ``int64`` ``indptr`` / ``degrees`` / ``indices`` arrays, each at a
    64-byte-aligned offset so mapped views are cache-line aligned.

Files are written atomically (unique temp file in the target directory,
fsync, ``os.replace``) like every other artifact the library persists,
so a crashed writer never leaves a truncated container behind.  The
header records the same content fingerprint
:func:`repro.service.keys.graph_fingerprint` would compute — byte for
byte — so a mapped graph joins the service cache and checkpoint keyed
world without ever loading its arrays.

:class:`MemmapGraph` is the read view: a :class:`Graph` subclass whose
CSR arrays are read-only memmaps, interchangeable with an in-memory
graph everywhere (``load_graph`` / ``save_graph``, dataset cache,
operators, spectral analysis).  :class:`CSRWriter` is the streaming
producer used by the ``huge`` dataset tier: it appends ``indices`` in
chunks so the full edge list never materialises in memory.
"""

from __future__ import annotations

import json
import os
import struct
import tempfile
from pathlib import Path
from typing import Optional, Union

import numpy as np

from ..errors import GraphFormatError
from ..obs import OBS
from .graph import Graph

__all__ = [
    "CSR_MAGIC",
    "CSR_SUFFIX",
    "CSRWriter",
    "MemmapGraph",
    "open_csr",
    "save_csr",
    "streaming_graph_fingerprint",
]

PathLike = Union[str, Path]

CSR_MAGIC = b"REPROCSR"
CSR_SUFFIX = ".csr"
_VERSION = 1
_SCHEMA = "repro.graph.csr/v1"
_ALIGN = 64
_DTYPE = "<i8"  # little-endian int64, the Graph CSR dtype
#: Bytes hashed per update in the streaming fingerprint pass — large
#: enough to amortise hashlib call overhead, small enough to stay cache
#: resident.
_HASH_CHUNK = 1 << 22


def _align(offset: int) -> int:
    return (offset + _ALIGN - 1) // _ALIGN * _ALIGN


def streaming_graph_fingerprint(indptr, indices) -> str:
    """``graph_fingerprint`` recomputed in bounded memory.

    Byte-for-byte the digest of
    ``sweep_fingerprint("service.graph", indptr, indices)`` — the key
    the service layer and dataset cache use — but fed in chunks, so a
    memory-mapped graph can be fingerprinted without materialising its
    ``indices`` array.  (A single pass over the file is unavoidable: the
    encoding prefixes each array with its shape, which for a streamed
    write is only known once the last chunk lands.)
    """
    # Imported here: ``repro.graph`` must not import ``repro.core`` at load.
    from ..core.runtime import hash_array_chunks, sweep_hasher

    h = sweep_hasher("service.graph")
    step = max(_HASH_CHUNK // 8, 1)
    for arr in (indptr, indices):
        size = int(arr.shape[0])
        chunks = (arr[lo:lo + step] for lo in range(0, size, step))
        hash_array_chunks(h, _DTYPE, (size,), chunks)
    return h.hexdigest()


def _header_blob(num_nodes: int, num_arcs: int, fingerprint: str) -> tuple:
    """The serialised JSON header and the array offsets it records.

    The fingerprint is always a 64-char sha256 hex string, so building
    the header with a placeholder and later substituting the real digest
    keeps the byte length — and therefore every recorded offset —
    unchanged.  That is what lets :class:`CSRWriter` write the header
    first and patch the digest in place after the streaming pass.
    """
    offsets = {}
    # Layout: indptr, degrees, then indices last so a streaming writer
    # can append arcs without knowing anything beyond indptr up front.
    cursor = None  # filled after we know the header length
    body = {
        "schema": _SCHEMA,
        "version": _VERSION,
        "dtype": _DTYPE,
        "num_nodes": int(num_nodes),
        "num_arcs": int(num_arcs),
        "fingerprint": fingerprint,
        "offsets": {"indptr": 0, "degrees": 0, "indices": 0},
    }
    # Two-pass: serialise once to learn the header size (offset digits
    # are padded to a fixed width so the length cannot drift), then fill
    # in the real offsets.
    probe = json.dumps(body, sort_keys=True, separators=(",", ":")).encode()
    header_end = len(CSR_MAGIC) + 8 + len(probe) + 36  # slack for offset digits
    cursor = _align(header_end)
    offsets["indptr"] = cursor
    cursor = _align(cursor + (num_nodes + 1) * 8)
    offsets["degrees"] = cursor
    cursor = _align(cursor + num_nodes * 8)
    offsets["indices"] = cursor
    total = cursor + num_arcs * 8
    body["offsets"] = {k: int(v) for k, v in offsets.items()}
    blob = json.dumps(body, sort_keys=True, separators=(",", ":")).encode()
    if len(CSR_MAGIC) + 8 + len(blob) > offsets["indptr"]:
        raise AssertionError("CSR header overflowed its reserved slack")
    return blob, offsets, total


def _patch_fingerprint(blob: bytes, placeholder: str, fingerprint: str) -> bytes:
    patched = blob.replace(placeholder.encode(), fingerprint.encode(), 1)
    if len(patched) != len(blob):
        raise AssertionError("fingerprint substitution changed header length")
    return patched


class MemmapGraph(Graph):
    """A :class:`Graph` whose CSR arrays are read-only memory maps.

    Behaves exactly like an in-memory graph (same accessors, equality,
    operators, spectral analysis) but only pages in the parts of
    ``indptr`` / ``indices`` that are actually touched, so graphs larger
    than RAM stay usable.  The container's recorded content fingerprint
    is pre-seeded into the graph memo, so
    :func:`repro.service.keys.graph_fingerprint` never forces a full
    read either.
    """

    __slots__ = ("_path",)

    def __init__(
        self,
        indptr: np.ndarray,
        indices: np.ndarray,
        degrees: np.ndarray,
        *,
        path: Optional[PathLike] = None,
        fingerprint: Optional[str] = None,
    ):
        # Deliberately bypasses Graph.__init__: it would copy the arrays
        # into RAM (ascontiguousarray), defeating the mapping.
        self._indptr = indptr
        self._indices = indices
        self._degrees = degrees
        self._memo = {}
        if fingerprint is not None:
            self._memo["graph_fingerprint"] = fingerprint
        self._path = os.fspath(path) if path is not None else None

    @property
    def is_memmap(self) -> bool:
        return True

    @property
    def path(self) -> Optional[str]:
        """The backing ``.csr`` container, if the graph came from one."""
        return self._path

    @property
    def nbytes(self) -> int:
        """Bytes of CSR payload behind the mapping."""
        return int(self._indptr.nbytes + self._indices.nbytes + self._degrees.nbytes)

    def materialize(self) -> Graph:
        """Copy the mapped arrays into an ordinary in-memory graph."""
        graph = Graph(
            np.array(self._indptr, dtype=np.int64),
            np.array(self._indices, dtype=np.int64),
            validate=False,
        )
        cached = self._memo.get("graph_fingerprint")
        if cached is not None:
            graph._memo["graph_fingerprint"] = cached
        return graph

    def __repr__(self) -> str:
        return f"MemmapGraph(n={self.num_nodes}, m={self.num_edges}, path={self._path!r})"


class CSRWriter:
    """Streaming producer for the on-disk container.

    The writer needs the final ``indptr`` up front (its last entry fixes
    every offset in the header) but accepts ``indices`` in arbitrary
    chunks, so a generator can emit a million-node graph while holding
    only O(n) row-pointer state plus one chunk in memory.  The file is
    assembled in a temp name and renamed into place on :meth:`close`;
    aborting (exception inside the ``with`` block, or :meth:`abort`)
    removes the temp file and leaves the target untouched.
    """

    def __init__(self, path: PathLike, indptr: np.ndarray):
        self._target = Path(path)
        indptr = np.ascontiguousarray(indptr, dtype=np.int64)
        if indptr.ndim != 1 or indptr.size == 0:
            raise GraphFormatError("indptr must be a 1-D array of length n + 1 >= 1")
        if indptr[0] != 0 or np.any(np.diff(indptr) < 0):
            raise GraphFormatError("indptr must be nondecreasing and start at 0")
        self._indptr = indptr
        self._num_nodes = indptr.size - 1
        self._num_arcs = int(indptr[-1])
        self._written = 0
        placeholder = "0" * 64
        blob, offsets, total = _header_blob(self._num_nodes, self._num_arcs, placeholder)
        self._blob = blob
        self._placeholder = placeholder
        self._offsets = offsets
        self._total = total
        fd, self._tmp_name = tempfile.mkstemp(
            prefix=self._target.name + ".", suffix=".tmp", dir=str(self._target.parent)
        )
        self._fh = os.fdopen(fd, "wb")
        try:
            self._fh.write(CSR_MAGIC)
            self._fh.write(struct.pack("<II", _VERSION, len(blob)))
            self._fh.write(blob)
            self._write_at(offsets["indptr"], indptr)
            self._write_at(offsets["degrees"], np.diff(indptr))
            self._fh.seek(offsets["indices"])
        except BaseException:
            self.abort()
            raise

    def _write_at(self, offset: int, arr: np.ndarray) -> None:
        self._fh.seek(offset)
        self._fh.write(np.ascontiguousarray(arr, dtype=np.int64).tobytes())

    def write(self, chunk: np.ndarray) -> None:
        """Append the next run of column indices (row-major CSR order)."""
        chunk = np.ascontiguousarray(chunk, dtype=np.int64)
        if self._written + chunk.size > self._num_arcs:
            raise GraphFormatError(
                f"CSR writer overflow: indptr promises {self._num_arcs} arcs, "
                f"got {self._written + chunk.size}"
            )
        self._fh.write(chunk.tobytes())
        self._written += int(chunk.size)

    def abort(self) -> None:
        """Discard the partially written temp file."""
        if self._fh is not None:
            try:
                self._fh.close()
            finally:
                self._fh = None
                try:
                    os.unlink(self._tmp_name)
                except OSError:
                    pass

    def close(self) -> str:
        """Finalise: fingerprint pass, header patch, fsync, atomic rename.

        Returns the container's content fingerprint.
        """
        if self._fh is None:
            raise GraphFormatError("CSR writer already closed")
        if self._written != self._num_arcs:
            self.abort()
            raise GraphFormatError(
                f"CSR writer closed early: indptr promises {self._num_arcs} arcs, "
                f"only {self._written} written"
            )
        try:
            # Seeking to the aligned indices offset does not by itself
            # grow the file — an edge-free graph (or one whose last
            # aligned gap was never written over) would come up short of
            # the header's promised extent.  ftruncate zero-fills.
            self._fh.truncate(self._offsets["indices"] + self._num_arcs * 8)
            self._fh.flush()
            # Second pass: stream the just-written indices back through
            # the hasher.  The shape prefix in the fingerprint encoding
            # makes a single-pass digest impossible for streamed writes.
            mapped = (
                np.memmap(
                    self._tmp_name,
                    mode="r",
                    dtype=np.int64,
                    shape=(self._num_arcs,),
                    offset=self._offsets["indices"],
                )
                if self._num_arcs
                else np.zeros(0, dtype=np.int64)
            )
            fingerprint = streaming_graph_fingerprint(self._indptr, mapped)
            del mapped
            self._fh.seek(len(CSR_MAGIC) + 8)
            self._fh.write(_patch_fingerprint(self._blob, self._placeholder, fingerprint))
            self._fh.flush()
            os.fsync(self._fh.fileno())
            self._fh.close()
            self._fh = None
            os.replace(self._tmp_name, self._target)
        except BaseException:
            self.abort()
            raise
        if OBS.enabled:
            OBS.add("graph.storage.saves")
            OBS.add("graph.storage.bytes_written", int(self._total))
        return fingerprint

    def __enter__(self) -> "CSRWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None:
            self.abort()
        elif self._fh is not None:
            self.close()


def save_csr(graph: Graph, path: PathLike) -> str:
    """Write a graph to the on-disk container; returns its fingerprint."""
    writer = CSRWriter(path, graph.indptr)
    try:
        indices = graph.indices
        step = max(_HASH_CHUNK // 8, 1)
        for lo in range(0, indices.shape[0], step):
            writer.write(indices[lo:lo + step])
    except BaseException:
        writer.abort()
        raise
    return writer.close()


def _read_header(path: Path) -> dict:
    with open(path, "rb") as fh:
        magic = fh.read(len(CSR_MAGIC))
        if magic != CSR_MAGIC:
            raise GraphFormatError(f"{path}: not a repro CSR container (bad magic)")
        packed = fh.read(8)
        if len(packed) != 8:
            raise GraphFormatError(f"{path}: truncated CSR header")
        version, length = struct.unpack("<II", packed)
        if version != _VERSION:
            raise GraphFormatError(
                f"{path}: unsupported CSR container version {version} "
                f"(this build reads version {_VERSION})"
            )
        blob = fh.read(length)
        if len(blob) != length:
            raise GraphFormatError(f"{path}: truncated CSR header")
    try:
        header = json.loads(blob.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise GraphFormatError(f"{path}: corrupt CSR header ({exc})") from exc
    for key in ("schema", "dtype", "num_nodes", "num_arcs", "offsets", "fingerprint"):
        if key not in header:
            raise GraphFormatError(f"{path}: CSR header missing {key!r}")
    if header["schema"] != _SCHEMA:
        raise GraphFormatError(f"{path}: unknown CSR schema {header['schema']!r}")
    if header["dtype"] != _DTYPE:
        raise GraphFormatError(
            f"{path}: CSR arrays must be little-endian int64 ({_DTYPE}), "
            f"got {header['dtype']!r}"
        )
    return header


def open_csr(path: PathLike, *, verify: bool = False) -> MemmapGraph:
    """Open a container written by :func:`save_csr` / :class:`CSRWriter`.

    Returns a :class:`MemmapGraph` over read-only mappings.  Structural
    metadata (sizes, offsets, file length, indptr endpoints) is always
    checked; ``verify=True`` additionally re-streams the arrays through
    the content fingerprint and compares it to the recorded digest,
    catching bit-level corruption at the cost of one full read.
    Corruption of any kind raises
    :class:`~repro.errors.GraphFormatError`.
    """
    path = Path(path)
    header = _read_header(path)
    n = int(header["num_nodes"])
    num_arcs = int(header["num_arcs"])
    offsets = header["offsets"]
    if n < 0 or num_arcs < 0:
        raise GraphFormatError(f"{path}: negative sizes in CSR header")
    expected_end = int(offsets["indices"]) + num_arcs * 8
    actual = path.stat().st_size
    if actual < expected_end:
        raise GraphFormatError(
            f"{path}: truncated CSR container ({actual} bytes, need {expected_end})"
        )

    def _map(name: str, size: int) -> np.ndarray:
        if size == 0:
            return np.zeros(0, dtype=np.int64)
        arr = np.memmap(
            path, mode="r", dtype=np.dtype(_DTYPE), shape=(size,), offset=int(offsets[name])
        )
        return arr

    indptr = _map("indptr", n + 1)
    degrees = _map("degrees", n)
    indices = _map("indices", num_arcs)
    if int(indptr[0]) != 0 or int(indptr[-1]) != num_arcs:
        raise GraphFormatError(f"{path}: indptr endpoints disagree with header")
    fingerprint = str(header["fingerprint"])
    if verify:
        recomputed = streaming_graph_fingerprint(indptr, indices)
        if recomputed != fingerprint:
            raise GraphFormatError(
                f"{path}: CSR content fingerprint mismatch "
                f"(recorded {fingerprint[:12]}…, recomputed {recomputed[:12]}…)"
            )
    graph = MemmapGraph(
        indptr, indices, degrees, path=path, fingerprint=fingerprint
    )
    if OBS.enabled:
        OBS.add("graph.storage.opens")
        OBS.add("graph.storage.bytes_mapped", graph.nbytes)
    return graph
