"""Property tests for the durable trace journal (DESIGN §5.6).

Four families of invariants:

* **Round-trip identity** — encode/decode is the identity over the
  journallable value domain (and degrades to :class:`Opaque` snapshots,
  never silently, outside it).
* **Writer equivalence** — the flat ``_write_value`` produces the same
  bytes and opaque count as the reference encoder kept here, the batch
  path produces the same inner bodies as per-event records, and the
  default-repr memo never serves a stale snapshot.
* **Ordering** — the on-disk record order preserves each producer
  thread's FIFO order and the global seqno order, across ring wraparound
  and overflow flushes.
* **Damage detection** — any truncation or byte flip is *reported*:
  either :class:`~repro.errors.JournalCorruption` is raised, or the
  recovered journal says ``clean_close=False`` with a ``tail_error``.
  There is no cut or flip that yields a silently-shorter "clean" journal.
"""

from __future__ import annotations

import gc
import io
import math
import struct
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.events import (
    EventKind,
    RuntimeEvent,
    assertion_site_event,
    call_event,
    field_assign_event,
    return_event,
)
from repro.errors import JournalCorruption, JournalError
from repro.runtime import journal as journal_mod
from repro.runtime.journal import (
    JOURNAL_MAGIC,
    JournalWriter,
    Opaque,
    _write_value,
    decode_event,
    encode_batch,
    encode_event,
    read_journal,
)
from repro.runtime.manager import TeslaRuntime

# -- value domain --------------------------------------------------------------

_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(allow_nan=False),
    st.text(max_size=20),
    st.binary(max_size=20),
)

_values = st.recursive(
    _scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(_scalars, children, max_size=4),
    ),
    max_leaves=12,
)

_events = st.builds(
    RuntimeEvent,
    kind=st.sampled_from(
        [
            EventKind.CALL,
            EventKind.RETURN,
            EventKind.FIELD_ASSIGN,
            EventKind.ASSERTION_SITE,
        ]
    ),
    name=st.text(max_size=30),
    args=st.lists(_values, max_size=4).map(tuple),
    retval=_values,
    target=_values,
    scope=st.dictionaries(st.text(max_size=10), _values, max_size=4),
    thread_id=st.integers(min_value=-(2**62), max_value=2**62),
    stack=st.lists(st.text(max_size=10), max_size=3).map(tuple),
)


class TestRoundTrip:
    @given(seqno=st.integers(min_value=0, max_value=2**70), event=_events)
    @settings(max_examples=300, deadline=None)
    def test_encode_decode_identity(self, seqno, event):
        body, opaques = encode_event(seqno, event)
        assert opaques == 0, "journallable domain must not degrade to Opaque"
        got_seqno, got = decode_event(body)
        assert got_seqno == seqno
        assert got == event

    @given(event=_events)
    @settings(max_examples=50, deadline=None)
    def test_writer_reader_round_trip(self, event):
        buf = io.BytesIO()
        writer = JournalWriter(buf)
        writer.append(7, event)
        writer.close()
        journal = read_journal(buf)
        assert journal.clean_close
        assert journal.slots == [(7, event)]

    def test_negative_seqno_rejected(self):
        with pytest.raises(JournalError):
            encode_event(-1, call_event("f", ()))

    def test_unencodable_value_becomes_opaque(self):
        token = object()
        event = return_event("f", (token,), None)
        body, opaques = encode_event(3, event)
        assert opaques == 1
        _, got = decode_event(body)
        assert got.args == (Opaque(repr(token)),)
        # Re-journalling the decoded event is exact: the opaque snapshot
        # round-trips as-is and is not re-counted as a degradation.
        body2, opaques2 = encode_event(3, got)
        assert opaques2 == 0
        assert decode_event(body2)[1] == got

    def test_bool_and_int_stay_distinct(self):
        event = return_event("f", (True, 1, False, 0), None)
        _, got = decode_event(encode_event(0, event)[0])
        assert [type(v) for v in got.args] == [bool, int, bool, int]


class TestBatchCache:
    """``encode_batch`` pre-encodes repeated event shapes into a blob
    cache.  The cache keys on value equality, and ``1 == True == 1.0``
    (and ``-0.0 == 0.0``) hash alike — these tests pin that hash-equal
    but distinct payloads never share cached bytes."""

    @given(events=st.lists(_events, min_size=1, max_size=10))
    @settings(max_examples=100, deadline=None)
    def test_batch_round_trip_with_warm_cache(self, events):
        # Each event appears twice: the first occurrence populates the
        # blob cache, the second must round-trip identically off a hit.
        doubled = events + events
        slots = list(enumerate(doubled))
        buf = io.BytesIO()
        writer = JournalWriter(buf)
        writer.append_batch(slots)
        writer.close()
        journal = read_journal(buf)
        assert journal.clean_close
        assert journal.slots == slots

    @staticmethod
    def _fingerprint(event):
        # == is type-blind across numerics (1 == True == 1.0), so the
        # round-trip must be checked on types, not just equality.
        return (
            [type(a) for a in event.args],
            type(event.retval),
            [(type(k), type(v)) for k, v in event.scope.items()],
        )

    def _batch_round_trip(self, events):
        slots = list(enumerate(events))
        buf = io.BytesIO()
        writer = JournalWriter(buf)
        writer.append_batch(slots)
        writer.close()
        journal = read_journal(buf)
        assert journal.slots == slots
        assert [self._fingerprint(e) for _, e in journal.slots] == [
            self._fingerprint(e) for e in events
        ]

    def test_numeric_aliasing_in_args_and_retval(self):
        self._batch_round_trip(
            [
                return_event("f", (1,), 0),
                return_event("f", (True,), 0),
                return_event("f", (1.0,), 0),
                return_event("f", (1,), False),
                return_event("f", (1,), 0.0),
                return_event("f", (1,), 0),
            ]
        )

    def test_numeric_aliasing_in_scope(self):
        self._batch_round_trip(
            [
                assertion_site_event("a", {"v": 1}),
                assertion_site_event("a", {"v": True}),
                assertion_site_event("a", {"v": 1.0}),
                assertion_site_event("a", {"v": 1}),
            ]
        )
        self._batch_round_trip(
            [
                assertion_site_event("a", {1: "x"}),
                assertion_site_event("a", {True: "x"}),
                assertion_site_event("a", {1: "x"}),
            ]
        )

    def test_signed_zero_in_args_and_retval(self):
        # -0.0 == 0.0 with the same type and hash, so no type guard can
        # tell them apart: a cache hit must never serve one for the other.
        events = [
            return_event("f", (0.0,), 0.0),
            return_event("f", (-0.0,), -0.0),
            return_event("f", (0,), 0),
            return_event("f", (-0.0,), -0.0),
            return_event("f", (0.0,), 0.0),
        ]
        slots = list(enumerate(events))
        buf = io.BytesIO()
        writer = JournalWriter(buf)
        writer.append_batch(slots)
        writer.close()
        got = read_journal(buf).events

        def signs(event):
            return [
                (type(v), math.copysign(1.0, v))
                for v in (*event.args, event.retval)
            ]

        assert [signs(e) for e in got] == [signs(e) for e in events]
        for seqno, event in slots:
            assert signs(decode_event(encode_event(seqno, event)[0])[1]) == (
                signs(event)
            )


# -- writer equivalence --------------------------------------------------------


def _uvarint_into(out, n):
    while n >= 0x80:
        out.append((n & 0x7F) | 0x80)
        n >>= 7
    out.append(n)


def _reference_value(value):
    """The recursive encoder ``_write_value`` replaced, kept as the oracle:
    returns (bytes, opaque count) for one value."""
    out = bytearray()
    opaque = 0

    def uvarint(n):
        _uvarint_into(out, n)

    def text(t):
        data = t.encode("utf-8")
        uvarint(len(data))
        out.extend(data)

    def encode(v):
        nonlocal opaque
        if v is None:
            out.append(0x00)
        elif v is True:
            out.append(0x01)
        elif v is False:
            out.append(0x02)
        elif type(v) is int:
            out.append(0x03)
            uvarint((v << 1) if v >= 0 else ((-v) << 1) - 1)
        elif type(v) is float:
            out.append(0x04)
            out.extend(struct.pack("<d", v))
        elif type(v) is str:
            out.append(0x05)
            text(v)
        elif type(v) is bytes:
            out.append(0x06)
            uvarint(len(v))
            out.extend(v)
        elif type(v) is tuple or type(v) is list:
            out.append(0x07 if type(v) is tuple else 0x08)
            uvarint(len(v))
            for item in v:
                encode(item)
        elif type(v) is dict:
            out.append(0x09)
            uvarint(len(v))
            for key, item in v.items():
                encode(key)
                encode(item)
        elif type(v) is Opaque:
            out.append(0x7F)
            text(v.text)
        else:
            opaque += 1
            out.append(0x7F)
            text(repr(v))

    encode(value)
    return bytes(out), opaque


def _written(value):
    out = bytearray()
    opaque = _write_value(out, value)
    return bytes(out), opaque


class _Plain:
    """Keeps ``object.__repr__``: its snapshots go through the memo."""


class _OtherPlain:
    """A second default-repr class, for id-reuse checks."""


class _Custom:
    """A custom repr: never memoised."""

    def __init__(self, n):
        self.n = n

    def __repr__(self):
        return f"_Custom({self.n})"


_leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=2**64, max_value=2**200),
    st.integers(min_value=-(2**200), max_value=-(2**64)),
    st.floats(),
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan]),
    st.text(max_size=12),
    st.binary(max_size=12),
    st.text(max_size=12).map(Opaque),
    st.builds(_Plain),
    st.builds(_OtherPlain),
    st.integers(min_value=-5, max_value=5).map(_Custom),
)

_hashable_leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(allow_nan=False),
    st.text(max_size=8),
    st.builds(_Plain),
)

_mixed_values = st.recursive(
    _leaves,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(_hashable_leaves, children, max_size=4),
    ),
    max_leaves=16,
)


class TestFlatWriter:
    @given(value=_mixed_values)
    @settings(max_examples=300, deadline=None)
    def test_matches_reference_encoder(self, value):
        # Twice: the second pass reads default-repr snapshots back out
        # of the memo the first pass filled.
        assert _written(value) == _reference_value(value)
        assert _written(value) == _reference_value(value)

    def test_id_reuse_across_classes_gives_distinct_bytes(self):
        # CPython usually hands a freed block straight to the next
        # same-sized allocation; retry until an id is reused by an
        # instance of the other class.
        for _ in range(10_000):
            first = _Plain()
            assert _written(first) == _reference_value(first)
            freed_id = id(first)
            del first
            second = _OtherPlain()
            if id(second) == freed_id:
                break
        assert id(second) == freed_id, "allocator never reused an id"
        got = _written(second)
        assert got == _reference_value(second)
        assert b"_OtherPlain object" in got[0]

    def test_repr_patched_after_first_encode_is_honoured(self):
        class Patchable:
            pass

        obj = Patchable()
        assert _written(obj) == (_reference_value(obj)[0], 1)
        Patchable.__repr__ = lambda self: "patched"
        assert _written(obj) == _reference_value(obj)
        assert b"patched" in _written(obj)[0]

    def test_rename_under_builtins_module_is_honoured(self):
        # object.__repr__ prints the bare type name, not the qualname,
        # when the module is 'builtins'.
        class Renamed:
            pass

        Renamed.__module__ = "builtins"
        obj = Renamed()
        assert _written(obj) == _reference_value(obj)
        Renamed.__name__ = "Other"
        got = _written(obj)
        assert got == _reference_value(obj)
        assert b"<Other object" in got[0]

    def test_unhashable_module_is_snapshotted_unmemoised(self):
        class Odd:
            pass

        Odd.__module__ = ["not", "a", "str"]
        obj = Odd()
        before = dict(journal_mod._REPR_MEMO)
        assert _written(obj) == _reference_value(obj)
        assert journal_mod._REPR_MEMO == before

    def test_custom_repr_is_never_memoised(self):
        obj = _Custom(1)
        before = dict(journal_mod._REPR_MEMO)
        _written(obj)
        obj.n = 2
        assert _written(obj) == _reference_value(obj)
        assert journal_mod._REPR_MEMO == before

    def test_repr_memo_stays_within_its_bound(self):
        limit = journal_mod._REPR_MEMO_MAX
        objects = [_Plain() for _ in range(limit + 10)]
        for obj in objects:
            assert _written(obj) == _reference_value(obj)
            assert len(journal_mod._REPR_MEMO) <= limit
        # Entries written before the clear are re-snapshotted exactly.
        assert _written(objects[0]) == _reference_value(objects[0])

    @given(events=st.lists(_events, min_size=1, max_size=10))
    @settings(max_examples=100, deadline=None)
    def test_batch_inner_bodies_equal_event_records(self, events):
        # Each event twice, so the second copy can come off a cache hit.
        slots = list(enumerate(events + events, 5))
        frame, count, records, _ = encode_batch(slots)
        assert (count, records) == (len(slots), 1)
        inner = bytearray()
        for seqno, event in slots:
            body, _ = encode_event(seqno, event)
            prefix = bytearray((0x45,))
            _uvarint_into(prefix, seqno)
            assert body.startswith(prefix)
            inner += body[len(prefix):]
        header = bytearray((0x42,))
        _uvarint_into(header, len(slots))
        _uvarint_into(header, 5)
        assert frame[4:-4] == bytes(header) + bytes(inner)


# -- ordering ------------------------------------------------------------------


def _feed(runtime: TeslaRuntime, thread_id_label: str, count: int) -> None:
    for index in range(count):
        runtime.handle_event(call_event(f"jp_{thread_id_label}", (index,)))


class TestOrdering:
    @given(
        ring_capacity=st.integers(min_value=2, max_value=8),
        count=st.integers(min_value=0, max_value=64),
        drain_every=st.integers(min_value=1, max_value=13),
    )
    @settings(max_examples=40, deadline=None)
    def test_single_thread_file_order_is_seqno_order(
        self, ring_capacity, count, drain_every
    ):
        """Ring wraparound + interleaved manual drains + overflow flushes
        must leave the file in exactly the dispatch (seqno) order."""
        buf = io.BytesIO()
        runtime = TeslaRuntime(
            deferred="manual",
            ring_capacity=ring_capacity,
            journal=buf,
        )
        try:
            for index in range(count):
                runtime.handle_event(call_event("jp_solo", (index,)))
                if index % drain_every == 0:
                    runtime.drain.drain()
            runtime.flush_deferred()
            runtime.close_journal()
        finally:
            runtime.reset()
        journal = read_journal(buf)
        assert journal.clean_close
        seqnos = [seqno for seqno, _ in journal.slots]
        assert seqnos == sorted(seqnos)
        assert len(set(seqnos)) == len(seqnos) == count
        payloads = [event.args[0] for event in journal.events]
        assert payloads == list(range(count))

    def test_multithread_fifo_and_seqno_uniqueness(self):
        """Concurrent producers overflowing tiny rings: the journal holds
        every capture exactly once, per-thread file order is each
        producer's FIFO order, and seqnos are globally unique."""
        n_threads, per_thread = 4, 50
        buf = io.BytesIO()
        runtime = TeslaRuntime(
            deferred="manual", ring_capacity=8, journal=buf
        )
        try:
            barrier = threading.Barrier(n_threads)

            def worker(label: str) -> None:
                barrier.wait()
                _feed(runtime, label, per_thread)

            threads = [
                threading.Thread(target=worker, args=(f"t{i}",))
                for i in range(n_threads)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            runtime.flush_deferred()
            runtime.close_journal()
        finally:
            runtime.reset()
        journal = read_journal(buf)
        assert journal.clean_close
        assert len(journal.slots) == n_threads * per_thread
        seqnos = [seqno for seqno, _ in journal.slots]
        assert len(set(seqnos)) == len(seqnos)
        for i in range(n_threads):
            label = f"jp_t{i}"
            mine = [
                event.args[0]
                for _, event in journal.slots
                if event.name == label
            ]
            assert mine == list(range(per_thread)), (
                f"producer {label} lost FIFO order in the file"
            )
            mine_seqnos = [
                seqno
                for seqno, event in journal.slots
                if event.name == label
            ]
            assert mine_seqnos == sorted(mine_seqnos)


# -- damage detection ----------------------------------------------------------


def _small_journal() -> bytes:
    buf = io.BytesIO()
    writer = JournalWriter(buf)
    writer.append(0, call_event("jp_bound", ()))
    writer.append(1, return_event("jp_check", ("c", 4), 0))
    writer.append(2, assertion_site_event("jp_cls", {"v": 4}))
    writer.append(3, field_assign_event("S", "f", "obj", 9))
    writer.close()
    return buf.getvalue()


class TestDamageDetection:
    @given(data=st.data())
    @settings(max_examples=120, deadline=None)
    def test_any_truncation_is_reported(self, data):
        full = _small_journal()
        cut = data.draw(st.integers(min_value=0, max_value=len(full) - 1))
        truncated = full[:cut]
        header_len = len(JOURNAL_MAGIC) + 1
        if cut < header_len:
            with pytest.raises(JournalError):
                read_journal(truncated)
            return
        try:
            journal = read_journal(truncated)
        except JournalCorruption:
            return
        # Not an exception: then it must still self-report the damage —
        # the footer record is what makes even frame-aligned cuts visible.
        assert not journal.clean_close
        assert journal.tail_error is not None

    @given(data=st.data())
    @settings(max_examples=120, deadline=None)
    def test_any_byte_flip_is_reported(self, data):
        full = bytearray(_small_journal())
        pos = data.draw(st.integers(min_value=0, max_value=len(full) - 1))
        flip = data.draw(st.integers(min_value=1, max_value=255))
        full[pos] ^= flip
        try:
            journal = read_journal(bytes(full))
        except JournalError:
            return  # corruption or version/magic mismatch: reported
        assert not journal.clean_close or journal.slots != read_journal(
            _small_journal()
        ).slots or journal.tail_error is not None

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_tolerate_tail_recovers_prefix(self, data):
        full = _small_journal()
        reference = read_journal(full)
        header_len = len(JOURNAL_MAGIC) + 1
        cut = data.draw(
            st.integers(min_value=header_len, max_value=len(full) - 1)
        )
        journal = read_journal(full[:cut], tolerate_tail=True)
        assert not journal.clean_close
        assert journal.tail_error is not None
        assert journal.slots == reference.slots[: len(journal.slots)]

    def test_unclosed_journal_reports_interrupted_recording(self):
        buf = io.BytesIO()
        writer = JournalWriter(buf)
        writer.append(0, call_event("jp_bound", ()))
        # no close(): a crashed run
        journal = read_journal(buf)
        assert not journal.clean_close
        assert "no closing footer" in journal.tail_error
        assert len(journal.slots) == 1

    def test_crc_flip_names_recovered_count(self):
        full = bytearray(_small_journal())
        # Flip a byte inside the *last* record's body: everything before
        # it must be attributed as recovered.
        with pytest.raises(JournalCorruption) as excinfo:
            damaged = bytearray(full)
            damaged[-6] ^= 0xFF
            read_journal(bytes(damaged))
        assert excinfo.value.recovered >= 1
        assert "recovered" in str(excinfo.value)

    def test_not_a_journal(self):
        with pytest.raises(JournalCorruption):
            read_journal(b"GARBAGE!" + b"\x00" * 16)

    def test_unsupported_version(self):
        full = bytearray(_small_journal())
        full[len(JOURNAL_MAGIC)] = 99
        with pytest.raises(JournalError) as excinfo:
            read_journal(bytes(full))
        assert "version 99" in str(excinfo.value)
