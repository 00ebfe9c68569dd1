"""Durable trace journal: the drained event stream, on disk (DESIGN §5.6).

The deferred pipeline (§5.4) already funnels every captured event through
one place — the drain pass, which merges the per-thread rings into a
seqno-sorted batch before dispatch.  :class:`JournalWriter` is a sink at
exactly that point: each drained ``(seqno, event)`` slot is appended to a
schema-versioned, length-prefixed binary log *before* the batch is
evaluated, so the journal holds every event up to and including the one
that produced a verdict.  ``repro.replay`` reads the log back and re-runs
any window of it through any runtime configuration, offline.

Format
======

``MAGIC ‖ version ‖ record*`` where each record is framed as
``u32 length ‖ body ‖ u32 crc32(body)`` (little-endian).  The first body
byte is the record type:

``M``  journal metadata, deterministic JSON (no timestamps — golden
       fixtures byte-compare).
``A``  the recorded assertions, in ``.tesla`` manifest JSON — a journal
       written through :meth:`TeslaRuntime.install_assertions
       <repro.runtime.manager.TeslaRuntime.install_assertions>` is
       self-contained: replay needs no other input.
``E``  one drained event: varint seqno, zigzag-varint thread id, kind and
       assign-op bytes, the dispatch name, then the payload (args,
       retval, target, scope, stack) as tagged values, then the capture
       timestamp as a little-endian f64 (seconds on the runtime's
       monotonic clock — what the timed combinators judge against).
``B``  one drain pass's batch: a varint event count, the varint base
       seqno, then that many events — zigzag-varint thread id, kind and
       assign-op bytes, name, payload, trailing f64 capture timestamp —
       with each event's seqno implicit (base + position; a drain batch
       is always a contiguous ascending seqno range).  Batching
       amortises the frame (length prefix + CRC) and the seqnos across
       the whole drain pass — per-record framing dominates record-mode
       overhead otherwise — at the cost of coarser recovery: a damaged
       batch loses the batch, not one event.  Writers fall back to
       ``E`` records for non-contiguous slots.  The timestamp sits
       outside the cached payload blob: two events differing only in
       capture time still share one cache entry.
``C``  the closing footer with final record/event counts.  Its absence
       marks a journal that was never cleanly closed (a crashed run) —
       reported, never silently dropped.

Values round-trip exactly over the JSON-ish domain (None, bools, ints,
floats, strings, bytes, tuples, lists, dicts).  Anything else — a live
socket, a kernel object — is journalled as an :class:`Opaque` ``repr``
snapshot and counted in ``stats()['opaque_values']``: replay can still
*order and dispatch* such events, it just cannot compare their payloads
by value.

One flat writer, :func:`_write_value`, produces every value's bytes;
event heads and ``object.__repr__`` snapshots are memoised.

Changing any of this encoding requires bumping :data:`JOURNAL_VERSION`;
``tests/unit/runtime/test_journal_schema.py`` pins the golden bytes.
"""

from __future__ import annotations

import json
import struct
import threading
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, BinaryIO, Dict, Iterable, List, Optional, Tuple, Union

from ..core.ast import AssignOp, TemporalAssertion
from ..core.events import EventKind, RuntimeEvent
from ..errors import JournalCorruption, JournalError

__all__ = [
    "JOURNAL_MAGIC",
    "JOURNAL_VERSION",
    "Journal",
    "JournalWriter",
    "Opaque",
    "read_journal",
]

#: File magic; the trailing byte is the schema version so ``file(1)``-style
#: sniffing sees both at a fixed offset.
JOURNAL_MAGIC = b"TSLAJRNL"

#: Bump this whenever the binary encoding below changes shape.  The golden
#: fixture test fails loudly if the bytes change without a bump.
JOURNAL_VERSION = 2

_U32 = struct.Struct("<I")
_F64 = struct.Struct("<d")

_REC_META = 0x4D  # 'M'
_REC_ASSERTIONS = 0x41  # 'A'
_REC_EVENT = 0x45  # 'E'
_REC_BATCH = 0x42  # 'B'
_REC_FOOTER = 0x43  # 'C'

_KINDS: Tuple[EventKind, ...] = (
    EventKind.CALL,
    EventKind.RETURN,
    EventKind.FIELD_ASSIGN,
    EventKind.ASSERTION_SITE,
)
_KIND_INDEX = {kind: index for index, kind in enumerate(_KINDS)}

_OPS: Tuple[AssignOp, ...] = tuple(AssignOp)
_OP_INDEX = {op: index for index, op in enumerate(_OPS)}
_OP_NONE = 0xFF

# Value tags.  Bool tags come before the int test everywhere (bool is a
# subclass of int in Python).
_T_NONE = 0x00
_T_TRUE = 0x01
_T_FALSE = 0x02
_T_INT = 0x03
_T_FLOAT = 0x04
_T_STR = 0x05
_T_BYTES = 0x06
_T_TUPLE = 0x07
_T_LIST = 0x08
_T_DICT = 0x09
_T_OPAQUE = 0x7F


@dataclass(frozen=True)
class Opaque:
    """A journalled value that had no exact binary encoding.

    Holds the ``repr`` snapshot taken at record time; two opaques compare
    equal iff their snapshots do.  Replay treats them as inert tokens —
    good enough to *order* events, not to re-match ``Const`` patterns
    against live objects.
    """

    text: str

    def __repr__(self) -> str:  # pragma: no cover - repr convenience
        return f"Opaque({self.text})"


def _write_uvarint(out: bytearray, value: int) -> None:
    while value >= 0x80:
        out.append((value & 0x7F) | 0x80)
        value >>= 7
    out.append(value)


def _write_svarint(out: bytearray, value: int) -> None:
    # Zigzag: small magnitudes of either sign stay small.
    _write_uvarint(out, (value << 1) if value >= 0 else ((-value) << 1) - 1)


def _write_str(out: bytearray, text: str) -> None:
    data = text.encode("utf-8")
    _write_uvarint(out, len(data))
    out.extend(data)


#: Default-repr snapshots, pre-encoded as opaque values: ``(cls,
#: __module__, __qualname__, __name__, id(obj))`` → tag ‖ length ‖ text.
#: ``object.__repr__`` prints ``module.qualname``, or the bare type name
#: when the module is ``'builtins'``; with a ``str`` module its text is a
#: pure function of that key, so an entry stays exact after a class is
#: renamed, or after its object dies and the id is reused.  Only classes
#: that keep ``object.__repr__`` and a ``str`` ``__module__`` qualify: a
#: custom repr may read mutable state.  Cleared when full.
_REPR_MEMO: Dict[tuple, bytes] = {}
_REPR_MEMO_MAX = 4096
_DEFAULT_REPR = object.__repr__


def _write_value(out: bytearray, value: Any) -> int:
    """Append *value*'s tagged encoding to *out*; returns its opaque count.

    Types are tested exactly, so bool (a subclass of int) and any other
    subclass of a journallable type fall through to the right tag."""
    if value is None:
        out.append(_T_NONE)
        return 0
    if value is True:
        out.append(_T_TRUE)
        return 0
    if value is False:
        out.append(_T_FALSE)
        return 0
    cls = type(value)
    if cls is int:
        out.append(_T_INT)
        _write_svarint(out, value)
        return 0
    if cls is float:
        out.append(_T_FLOAT)
        out += _F64.pack(value)
        return 0
    if cls is str:
        out.append(_T_STR)
        _write_str(out, value)
        return 0
    if cls is bytes:
        out.append(_T_BYTES)
        _write_uvarint(out, len(value))
        out += value
        return 0
    if cls is tuple or cls is list:
        out.append(_T_TUPLE if cls is tuple else _T_LIST)
        _write_uvarint(out, len(value))
        opaque = 0
        for item in value:
            opaque += _write_value(out, item)
        return opaque
    if cls is dict:
        out.append(_T_DICT)
        _write_uvarint(out, len(value))
        opaque = 0
        for key, item in value.items():
            opaque += _write_value(out, key)
            opaque += _write_value(out, item)
        return opaque
    if cls is Opaque:
        # Re-journalling a decoded journal round-trips opaques as-is.
        out.append(_T_OPAQUE)
        _write_str(out, value.text)
        return 0
    module = getattr(cls, "__module__", None)
    if cls.__repr__ is _DEFAULT_REPR and type(module) is str:
        key = (cls, module, cls.__qualname__, cls.__name__, id(value))
        blob = _REPR_MEMO.get(key)
        if blob is None:
            snapshot = bytearray((_T_OPAQUE,))
            _write_str(snapshot, repr(value))
            blob = bytes(snapshot)
            if len(_REPR_MEMO) >= _REPR_MEMO_MAX:
                _REPR_MEMO.clear()
            _REPR_MEMO[key] = blob
        out += blob
    else:
        out.append(_T_OPAQUE)
        _write_str(out, repr(value))
    return 1


#: (thread id, kind, op, name) → encoded thread id ‖ kind ‖ op ‖ name.
_HEAD_CACHE: Dict[tuple, bytes] = {}
_HEAD_CACHE_MAX = 4096

#: Encoded ``()``; the target, scope and stack of an event that has
#: none of them (None, ``{}``, ``()``); and that tail after a None retval.
_EMPTY_TUPLE = bytes((_T_TUPLE, 0))
_EMPTY_TAIL = bytes((_T_NONE, _T_DICT, 0)) + _EMPTY_TUPLE
_NONE_TAIL = bytes((_T_NONE,)) + _EMPTY_TAIL


def _encode_head(key: tuple) -> bytes:
    tid, kind, op, name = key
    kind_index = _KIND_INDEX.get(kind)
    if kind_index is None:
        raise JournalError(f"unjournallable event kind {kind!r}")
    out = bytearray()
    _write_svarint(out, tid)
    out.append(kind_index)
    out.append(_OP_NONE if op is None else _OP_INDEX[op])
    _write_str(out, name)
    if len(_HEAD_CACHE) >= _HEAD_CACHE_MAX:
        _HEAD_CACHE.clear()
    _HEAD_CACHE[key] = head = bytes(out)
    return head


def _write_event(out: bytearray, event: RuntimeEvent) -> int:
    """Append one seqno-less inner event body (thread id, kind, op, name,
    args, retval, target, scope, stack) to *out*; returns its opaque
    count.  The capture timestamp is the caller's to append."""
    d = event.__dict__
    key = (d["thread_id"], d["kind"], d["op"], d["name"])
    out += _HEAD_CACHE.get(key) or _encode_head(key)
    args = d["args"]
    if args:
        opaque = _write_value(
            out, args if type(args) is tuple else tuple(args)
        )
    else:
        out += _EMPTY_TUPLE
        opaque = 0
    retval = d["retval"]
    target = d["target"]
    scope = d["scope"]
    stack = d["stack"]
    if target is None and not scope and not stack:
        if retval is None:
            out += _NONE_TAIL
        else:
            opaque += _write_value(out, retval)
            out += _EMPTY_TAIL
        return opaque
    opaque += _write_value(out, retval)
    opaque += _write_value(out, target)
    opaque += _write_value(out, scope if type(scope) is dict else dict(scope))
    if stack:
        return opaque + _write_value(
            out, stack if type(stack) is tuple else tuple(stack)
        )
    out += _EMPTY_TUPLE
    return opaque


def encode_event(seqno: int, event: RuntimeEvent) -> Tuple[bytes, int]:
    """Encode one slot as an ``E`` record body; returns (body, opaques)."""
    if seqno < 0:
        raise JournalError(f"journal seqnos are non-negative, got {seqno}")
    body = bytearray((_REC_EVENT,))
    _write_uvarint(body, seqno)
    opaque = _write_event(body, event)
    body += _F64.pack(event.timestamp)
    return bytes(body), opaque


def _encode_fallback(
    slots: List[Tuple[int, RuntimeEvent]]
) -> Tuple[bytes, int, int, int]:
    """Frame each slot as its own ``E`` record (non-contiguous seqnos)."""
    pack = _U32.pack
    crc32 = zlib.crc32
    buf = bytearray()
    opaques = 0
    for seqno, event in slots:
        body, opaque = encode_event(seqno, event)
        opaques += opaque
        buf += pack(len(body))
        buf += body
        buf += pack(crc32(body))
    return bytes(buf), len(slots), len(slots), opaques


def encode_batch(
    slots: Iterable[Tuple[int, RuntimeEvent]]
) -> Tuple[bytes, int, int, int]:
    """Encode a drain pass's slots; returns (frame, events, records, opaques).

    A batch whose seqnos form a contiguous ascending range — every
    drain-pass batch does, the merge is seqno-sorted over a gap-free
    counter — becomes one framed ``B`` record: the frame (length prefix
    + CRC) and the base seqno are paid once.  Each event is written
    straight into the record by :func:`_write_event`, with memoised
    heads and default-repr snapshots.  Anything non-contiguous falls
    back to per-event ``E`` records.
    """
    if not isinstance(slots, list):
        slots = list(slots)
    if not slots:
        return b"", 0, 0, 0
    count = len(slots)
    base = slots[0][0]
    if base < 0 or slots[-1][0] - base + 1 != count:
        return _encode_fallback(slots)
    pack = _F64.pack
    body = bytearray((_REC_BATCH,))
    _write_uvarint(body, count)
    _write_uvarint(body, base)
    opaques = 0
    for want, (seqno, event) in enumerate(slots, base):
        if seqno != want:  # not actually contiguous: start over
            return _encode_fallback(slots)
        opaques += _write_event(body, event)
        body += pack(event.timestamp)
    frame = _U32.pack(len(body)) + body + _U32.pack(zlib.crc32(body))
    return frame, count, 1, opaques


class _Decoder:
    __slots__ = ("data", "pos")

    def __init__(self, data: bytes) -> None:
        self.data = data
        self.pos = 0

    def _need(self, count: int) -> None:
        if self.pos + count > len(self.data):
            raise ValueError("record body truncated")

    def byte(self) -> int:
        self._need(1)
        value = self.data[self.pos]
        self.pos += 1
        return value

    def take(self, count: int) -> bytes:
        self._need(count)
        chunk = self.data[self.pos : self.pos + count]
        self.pos += count
        return chunk

    def uvarint(self) -> int:
        shift = 0
        value = 0
        while True:
            byte = self.byte()
            value |= (byte & 0x7F) << shift
            if not byte & 0x80:
                return value
            shift += 7
            # Python ints are arbitrary-precision, so the encoder emits
            # varints of any length; this only guards against a crafted
            # record burning unbounded memory.
            if shift > 1_000_000:
                raise ValueError("varint too long")

    def svarint(self) -> int:
        raw = self.uvarint()
        return (raw >> 1) if not raw & 1 else -((raw + 1) >> 1)

    def string(self) -> str:
        return self.take(self.uvarint()).decode("utf-8")

    def value(self) -> Any:
        tag = self.byte()
        if tag == _T_NONE:
            return None
        if tag == _T_TRUE:
            return True
        if tag == _T_FALSE:
            return False
        if tag == _T_INT:
            return self.svarint()
        if tag == _T_FLOAT:
            return _F64.unpack(self.take(8))[0]
        if tag == _T_STR:
            return self.string()
        if tag == _T_BYTES:
            return self.take(self.uvarint())
        if tag == _T_TUPLE:
            return tuple(self.value() for _ in range(self.uvarint()))
        if tag == _T_LIST:
            return [self.value() for _ in range(self.uvarint())]
        if tag == _T_DICT:
            return {self.value(): self.value() for _ in range(self.uvarint())}
        if tag == _T_OPAQUE:
            return Opaque(self.string())
        raise ValueError(f"unknown value tag {tag:#x}")


def _decode_unseq(dec: _Decoder) -> RuntimeEvent:
    """Decode one seqno-less inner event from *dec*'s current position."""
    thread_id = dec.svarint()
    kind_index = dec.byte()
    if kind_index >= len(_KINDS):
        raise ValueError(f"unknown event kind byte {kind_index:#x}")
    op_index = dec.byte()
    if op_index != _OP_NONE and op_index >= len(_OPS):
        raise ValueError(f"unknown assign-op byte {op_index:#x}")
    name = dec.string()
    args = dec.value()
    retval = dec.value()
    target = dec.value()
    scope = dec.value()
    stack = dec.value()
    timestamp = _F64.unpack(dec.take(8))[0]
    event = RuntimeEvent(
        kind=_KINDS[kind_index],
        name=name,
        args=args,
        retval=retval,
        op=None if op_index == _OP_NONE else _OPS[op_index],
        target=target,
        scope=scope,
        thread_id=thread_id,
        stack=stack,
        timestamp=timestamp,
    )
    return event


def decode_event(body: bytes) -> Tuple[int, RuntimeEvent]:
    """Decode one ``E`` record body back into a ``(seqno, event)`` slot."""
    dec = _Decoder(body)
    if dec.byte() != _REC_EVENT:
        raise ValueError("not an event record")
    seqno = dec.uvarint()
    event = _decode_unseq(dec)
    if dec.pos != len(body):
        raise ValueError("trailing bytes after event record")
    return seqno, event


def decode_batch(body: bytes) -> List[Tuple[int, RuntimeEvent]]:
    """Decode one ``B`` record body back into its ``(seqno, event)`` slots."""
    dec = _Decoder(body)
    if dec.byte() != _REC_BATCH:
        raise ValueError("not a batch record")
    count = dec.uvarint()
    # Each inner event is several bytes; a count beyond the body length
    # is a corrupt (or crafted) header, not a big batch.
    if count > len(body):
        raise ValueError(
            f"batch record claims {count} events in {len(body)} bytes"
        )
    base = dec.uvarint()
    slots = [(base + i, _decode_unseq(dec)) for i in range(count)]
    if dec.pos != len(body):
        raise ValueError("trailing bytes after batch record")
    return slots


# ---------------------------------------------------------------------------
# Writer
# ---------------------------------------------------------------------------


class JournalWriter:
    """Append-only journal sink, installed at the drain boundary.

    ``target`` is a filesystem path or any binary file-like object (tests
    journal into ``BytesIO``).  The header, metadata record and — when the
    runtime installs through ``install_assertions`` — the assertion
    manifest are written up front; drained slots follow in dispatch
    order.  :meth:`close` appends the footer that marks a clean shutdown.

    Appends are serialised by an internal lock (the drain lock already
    serialises drain passes, but ``record_assertions`` can race a
    background drainer).
    """

    def __init__(
        self,
        target: Union[str, Path, BinaryIO],
        meta: Optional[Dict[str, Any]] = None,
    ) -> None:
        if hasattr(target, "write"):
            self.path: Optional[Path] = None
            self._fh: BinaryIO = target  # type: ignore[assignment]
            self._owns_fh = False
        else:
            self.path = Path(target)
            # A wide userspace buffer: record mode appends a ~KB frame
            # per drain pass, and the default 8 KiB buffer would push a
            # syscall (and any filesystem stall) onto the drain path
            # every few batches.
            self._fh = open(self.path, "wb", buffering=1 << 20)
            self._owns_fh = True
        self._lock = threading.Lock()
        self.closed = False
        self.records = 0
        self.events = 0
        self.assertion_count = 0
        self.opaque_values = 0
        self.bytes_written = 0
        header = JOURNAL_MAGIC + bytes((JOURNAL_VERSION,))
        self._fh.write(header)
        self.bytes_written += len(header)
        body = bytearray((_REC_META,))
        payload = {"format": "tesla-journal", "version": JOURNAL_VERSION}
        payload.update(meta or {})
        body.extend(
            json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()
        )
        self._append_record(bytes(body))

    def _append_record(self, body: bytes) -> None:
        frame = _U32.pack(len(body)) + body + _U32.pack(zlib.crc32(body))
        self._fh.write(frame)
        self.bytes_written += len(frame)
        self.records += 1

    def _check_open(self) -> None:
        if self.closed:
            raise JournalError("journal writer is closed")

    def record_assertions(
        self, assertions: Iterable[TemporalAssertion]
    ) -> None:
        """Embed the installed assertions so the journal replays alone."""
        from ..core.manifest import MANIFEST_VERSION, assertion_to_json

        batch = [assertion_to_json(a) for a in assertions]
        if not batch:
            return
        body = bytearray((_REC_ASSERTIONS,))
        body.extend(
            json.dumps(
                {"manifest_version": MANIFEST_VERSION, "assertions": batch},
                sort_keys=True,
                separators=(",", ":"),
            ).encode()
        )
        with self._lock:
            self._check_open()
            self._append_record(bytes(body))
            self.assertion_count += len(batch)

    def append(self, seqno: int, event: RuntimeEvent) -> None:
        """Append one drained slot."""
        body, opaque = encode_event(seqno, event)
        with self._lock:
            self._check_open()
            self._append_record(body)
            self.events += 1
            self.opaque_values += opaque

    def append_batch(self, slots: Iterable[Tuple[int, RuntimeEvent]]) -> None:
        """Append one drain pass's merged batch, in dispatch order.

        The whole batch becomes one framed ``B`` record (via
        :func:`encode_batch`, the cache-assisted hot path) written with
        a single ``write`` call — per-record framing and writes would
        otherwise dominate record-mode overhead.
        """
        frame, count, records, opaques = encode_batch(slots)
        if not count:
            return
        with self._lock:
            self._check_open()
            self._fh.write(frame)
            self.bytes_written += len(frame)
            self.records += records
            self.events += count
            self.opaque_values += opaques

    def flush(self) -> None:
        with self._lock:
            if not self.closed:
                self._fh.flush()

    def close(self) -> None:
        """Write the clean-shutdown footer and release the file."""
        with self._lock:
            if self.closed:
                return
            body = bytearray((_REC_FOOTER,))
            body.extend(
                json.dumps(
                    {"events": self.events, "records": self.records},
                    sort_keys=True,
                    separators=(",", ":"),
                ).encode()
            )
            self._append_record(bytes(body))
            self._fh.flush()
            if self._owns_fh:
                self._fh.close()
            self.closed = True

    def stats(self) -> dict:
        return {
            "path": None if self.path is None else str(self.path),
            "records": self.records,
            "events": self.events,
            "assertions": self.assertion_count,
            "opaque_values": self.opaque_values,
            "bytes": self.bytes_written,
            "closed": self.closed,
        }


# ---------------------------------------------------------------------------
# Reader
# ---------------------------------------------------------------------------


@dataclass
class Journal:
    """One journal, decoded."""

    version: int
    meta: Dict[str, Any]
    #: Drained ``(seqno, event)`` slots, in the order they were dispatched.
    slots: List[Tuple[int, RuntimeEvent]]
    #: Assertions embedded by ``install_assertions`` (may be empty when the
    #: recording runtime installed raw automata).
    assertions: List[TemporalAssertion] = field(default_factory=list)
    #: True when the closing footer was present and consistent.
    clean_close: bool = False
    #: Human-readable description of a tolerated damaged/unterminated tail.
    tail_error: Optional[str] = None
    byte_size: int = 0
    #: Records decoded (all types), for corruption attribution.
    records_read: int = 0

    @property
    def events(self) -> List[RuntimeEvent]:
        return [event for _, event in self.slots]


def read_journal(
    source: Union[str, Path, bytes, bytearray, BinaryIO],
    tolerate_tail: bool = False,
) -> Journal:
    """Decode a journal from a path, bytes, or binary file-like object.

    A damaged record (CRC mismatch, truncated frame, undecodable body)
    raises :class:`~repro.errors.JournalCorruption` carrying how many
    records were recovered before it — or, with ``tolerate_tail=True``,
    returns the recovered prefix with ``tail_error`` set.  A missing
    footer is *not* an exception (a crashed run legitimately never closes)
    but is reported via ``clean_close=False`` / ``tail_error``.
    """
    if isinstance(source, (bytes, bytearray)):
        data = bytes(source)
    elif hasattr(source, "read"):
        if hasattr(source, "seek"):
            source.seek(0)
        data = source.read()  # type: ignore[union-attr]
    else:
        data = Path(source).read_bytes()

    header_len = len(JOURNAL_MAGIC) + 1
    if len(data) < header_len or data[: len(JOURNAL_MAGIC)] != JOURNAL_MAGIC:
        raise JournalCorruption("not a TESLA trace journal", 0, 0)
    version = data[len(JOURNAL_MAGIC)]
    if version != JOURNAL_VERSION:
        raise JournalError(
            f"journal schema version {version} is not supported by this "
            f"build (expected {JOURNAL_VERSION}); replay it with a matching "
            f"checkout, or re-record"
        )

    journal = Journal(
        version=version, meta={}, slots=[], byte_size=len(data)
    )
    offset = header_len
    footer: Optional[Dict[str, Any]] = None

    def damaged(message: str, at: int) -> Journal:
        if not tolerate_tail:
            raise JournalCorruption(message, journal.records_read, at)
        journal.tail_error = (
            f"{message} (at byte {at}; "
            f"{journal.records_read} record(s) recovered)"
        )
        return journal

    while offset < len(data):
        if footer is not None:
            return damaged("records after the closing footer", offset)
        if offset + 4 > len(data):
            return damaged("record length truncated", offset)
        (length,) = _U32.unpack_from(data, offset)
        end = offset + 4 + length + 4
        if length == 0 or end > len(data):
            return damaged("record frame truncated", offset)
        body = data[offset + 4 : offset + 4 + length]
        (crc,) = _U32.unpack_from(data, offset + 4 + length)
        if zlib.crc32(body) != crc:
            return damaged("record CRC mismatch", offset)
        rec_type = body[0]
        try:
            if rec_type == _REC_BATCH:
                journal.slots.extend(decode_batch(body))
            elif rec_type == _REC_EVENT:
                journal.slots.append(decode_event(body))
            elif rec_type == _REC_META:
                journal.meta = json.loads(body[1:])
            elif rec_type == _REC_ASSERTIONS:
                from ..core.manifest import assertion_from_json

                payload = json.loads(body[1:])
                journal.assertions.extend(
                    assertion_from_json(entry)
                    for entry in payload.get("assertions", [])
                )
            elif rec_type == _REC_FOOTER:
                footer = json.loads(body[1:])
            else:
                return damaged(f"unknown record type {rec_type:#x}", offset)
        except JournalCorruption:
            raise
        except Exception as exc:
            return damaged(f"undecodable record ({exc})", offset)
        journal.records_read += 1
        offset = end

    if footer is None:
        journal.tail_error = (
            "journal has no closing footer (recording was interrupted); "
            f"{len(journal.slots)} event(s) recovered"
        )
    elif footer.get("events") != len(journal.slots):
        message = (
            f"footer claims {footer.get('events')} events, "
            f"found {len(journal.slots)}"
        )
        if not tolerate_tail:
            raise JournalCorruption(message, journal.records_read, offset)
        journal.tail_error = message
    else:
        journal.clean_close = True
    return journal
