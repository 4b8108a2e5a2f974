"""The binary journal record codec and format-auto-detecting recovery.

``codec="binary"`` writes length-prefixed CRC-checked pickle frames
instead of JSON lines.  Reading always dispatches per frame on the
first byte, so JSON and binary content coexist in one journal — the
migration story is "switch the codec, keep the log".  These tests pin:

* round-trips, including non-JSON-safe bodies stored natively;
* mixed-format journals (JSON log appended to under the binary codec);
* torn-tail healing of binary frames and group-frame atomicity;
* CRC rejection of mid-file corruption;
* the ``binfile:`` backend URL and the ``?codec=`` query.
"""

import os

import pytest

from repro.errors import PersistenceError
from repro.mq.manager import QueueManager
from repro.mq.message import Message
from repro.mq.persistence import (
    BinaryRecordCodec,
    FileJournal,
    JsonLinesCodec,
    journal_for,
)
from repro.sim.clock import SimulatedClock


def record(n, body=None):
    return {"op": "put", "queue": "Q", "message": {"n": n, "body": body}}


def test_binary_round_trip(tmp_path):
    path = str(tmp_path / "j.bin")
    journal = FileJournal(path, codec="binary")
    journal.append(record(1))
    journal.append_many([record(2), record(3)])
    journal.close()
    reopened = FileJournal(path, codec="binary")
    assert [r["message"]["n"] for r in reopened.read_all()] == [1, 2, 3]
    reopened.close()


def test_binary_codec_stores_non_json_bodies_natively(tmp_path):
    # The binary codec pickles frames wholesale, so message bodies that
    # JSON cannot express ride through without a pickle+base64 detour.
    path = str(tmp_path / "j.bin")
    journal = FileJournal(path, codec="binary")
    body = {"blob": b"\x00\xffdata", "pair": (1, 2), "tags": {"a", "b"}}
    journal.append(record(1, body=body))
    journal.close()
    reopened = FileJournal(path, codec="binary")
    assert reopened.read_all()[0]["message"]["body"] == body
    reopened.close()


def test_manager_recovery_round_trips_under_binary_codec(tmp_path):
    path = str(tmp_path / "j.bin")
    journal = FileJournal(path, codec="binary")
    manager = QueueManager("QM.A", SimulatedClock(), journal=journal)
    manager.define_queue("APP.Q")
    manager.put("APP.Q", Message(body={"raw": b"\x01\x02"}))
    manager.put("APP.Q", Message(body="plain"))
    journal.close()
    recovered = QueueManager.recover(
        "QM.A", SimulatedClock(), FileJournal(path, codec="binary")
    )
    assert recovered.depth("APP.Q") == 2
    assert recovered.get("APP.Q").body == {"raw": b"\x01\x02"}
    assert recovered.get("APP.Q").body == "plain"


def test_mixed_json_and_binary_content_in_one_journal(tmp_path):
    # An old JSON log appended to under the binary codec replays whole.
    path = str(tmp_path / "j.log")
    old = FileJournal(path, codec="json")
    old.append(record(1))
    old.close()
    new = FileJournal(path, codec="binary")
    new.append(record(2))
    assert [r["message"]["n"] for r in new.read_all()] == [1, 2]
    new.close()
    # And the other direction: binary log reopened under the JSON codec.
    back = FileJournal(path, codec="json")
    back.append(record(3))
    assert [r["message"]["n"] for r in back.read_all()] == [1, 2, 3]
    back.close()


def test_torn_binary_tail_heals_at_open(tmp_path):
    path = str(tmp_path / "j.bin")
    journal = FileJournal(path, codec="binary")
    journal.append(record(1))
    journal.append(record(2))
    journal.close()
    torn = BinaryRecordCodec().encode_record(record(3))[:-4]
    with open(path, "ab") as handle:
        handle.write(torn)
    healed = FileJournal(path, codec="binary")
    assert healed._healed_trailing_records == 1
    assert [r["message"]["n"] for r in healed.read_all()] == [1, 2]
    healed.append(record(4))  # appends after healing never hit torn bytes
    assert [r["message"]["n"] for r in healed.read_all()] == [1, 2, 4]
    healed.close()


def test_torn_group_frame_drops_the_whole_group(tmp_path):
    # A group is one physical frame: a tear anywhere inside drops every
    # member, never a prefix.
    path = str(tmp_path / "j.bin")
    journal = FileJournal(path, codec="binary")
    journal.append(record(1))
    journal.close()
    codec = BinaryRecordCodec()
    group = codec.wrap_group(
        [codec.encode_record(record(2)), codec.encode_record(record(3))]
    )
    with open(path, "ab") as handle:
        handle.write(group[:-2])
    healed = FileJournal(path, codec="binary")
    assert [r["message"]["n"] for r in healed.read_all()] == [1]
    healed.close()


def test_crc_mismatch_mid_file_is_rejected(tmp_path):
    path = str(tmp_path / "j.bin")
    journal = FileJournal(path, codec="binary")
    journal.append(record(1))
    journal.append(record(2))
    journal.close()
    with open(path, "rb") as handle:
        data = bytearray(handle.read())
    # Flip one payload byte of the FIRST frame: not a torn tail, bit rot.
    data[10] ^= 0xFF
    with open(path, "wb") as handle:
        handle.write(bytes(data))
    with pytest.raises(PersistenceError):
        FileJournal(path, codec="binary").read_all()


def test_binfile_url_and_codec_query(tmp_path):
    bin_path = str(tmp_path / "a.journal")
    journal = journal_for(f"binfile:{bin_path}")
    assert isinstance(journal, FileJournal)
    assert isinstance(journal.codec, BinaryRecordCodec)
    journal.close()

    query_path = str(tmp_path / "b.journal")
    journal = journal_for(f"file:{query_path}?codec=binary")
    assert isinstance(journal.codec, BinaryRecordCodec)
    journal.close()

    plain = journal_for(f"file:{query_path}")
    assert isinstance(plain.codec, JsonLinesCodec)
    plain.close()

    with pytest.raises(PersistenceError):
        journal_for(f"file:{query_path}?codec=nonesuch")


def test_binary_codec_rejects_unpicklable_records(tmp_path):
    path = str(tmp_path / "j.bin")
    journal = FileJournal(path, codec="binary")
    with pytest.raises(PersistenceError):
        journal.append(
            {"op": "put", "queue": "Q", "message": {"bad": lambda: None}}
        )
    journal.close()
    assert os.path.getsize(path) == 0  # nothing was written
