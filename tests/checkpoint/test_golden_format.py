"""Golden fixture for checkpoint format v1 + corrupt-file rejection.

A committed binary ``.ckpt`` fixture (container v1, schema v1) pins the
on-disk format: a build that changes the header layout, the canonical
JSON encoding, or the snapshot schema fails loudly here and must bump
the relevant version (and regenerate) rather than silently emitting
checkpoints old readers mis-parse.  Regenerate after an *intentional*
format change with::

    REPRO_REGEN_GOLDENS=1 python -m pytest tests/checkpoint/test_golden_format.py

The rejection tests mutate copies of the fixture byte-by-byte: every
corruption mode (truncation, bit flips, wrong magic/version/length)
must surface as :class:`~repro.errors.CheckpointError`, never as a
silent restart or a garbage resume.
"""

import json
import os
from pathlib import Path

import pytest

from ckpt_helpers import replay_config, replay_fault_plan, snapshot_at_round
from repro.checkpoint import (
    CheckpointStore,
    read_checkpoint,
    write_checkpoint,
)
from repro.checkpoint.format import (
    CHECKPOINT_MAGIC,
    CONTAINER_VERSION,
    _HEADER,
    dumps_payload,
)
from repro.errors import CheckpointError
from repro.sim.swarm import Swarm

GOLDEN_DIR = Path(__file__).parent / "goldens"
GOLDEN_CKPT = GOLDEN_DIR / "checkpoint_v1.ckpt"
GOLDEN_JSON = GOLDEN_DIR / "checkpoint_v1.json"
REGEN = os.environ.get("REPRO_REGEN_GOLDENS") == "1"

#: The fixture snapshot: round 10 of the replay swarm with the full
#: fault plan attached (fault state exercises every schema section).
GOLDEN_ROUND = 10


def generate_document() -> dict:
    document = snapshot_at_round(
        replay_config(), GOLDEN_ROUND, faults=replay_fault_plan()
    )
    return json.loads(dumps_payload(document).decode("utf-8"))


@pytest.fixture(scope="module")
def golden() -> dict:
    if REGEN:
        GOLDEN_DIR.mkdir(exist_ok=True)
        document = generate_document()
        write_checkpoint(document, GOLDEN_CKPT)
        fingerprint = Swarm.resume(read_checkpoint(GOLDEN_CKPT)).run().fingerprint()
        GOLDEN_JSON.write_text(
            json.dumps(
                {"document": document, "resumed_fingerprint": fingerprint},
                sort_keys=True,
                indent=1,
            )
            + "\n"
        )
    assert GOLDEN_CKPT.exists() and GOLDEN_JSON.exists(), (
        "missing checkpoint golden fixtures; regenerate with "
        "REPRO_REGEN_GOLDENS=1"
    )
    return json.loads(GOLDEN_JSON.read_text())


# ----------------------------------------------------------------------
# Drift detection
# ----------------------------------------------------------------------
def test_container_reads_back_the_committed_document(golden):
    assert read_checkpoint(GOLDEN_CKPT) == golden["document"]


def test_current_schema_matches_committed_v1_document(golden):
    """Schema drift fails loudly.

    The snapshot this build emits for the fixture scenario must equal
    the committed v1 document *exactly* — any added, removed, renamed,
    or reordered field (or behavioural drift in the simulator itself)
    lands here, and the fix is a deliberate SCHEMA_VERSION bump plus
    regeneration, never a silent change.
    """
    assert generate_document() == golden["document"]


def test_committed_container_bytes_are_stable(golden):
    """Re-encoding the committed document reproduces the file's bytes."""
    payload = dumps_payload(golden["document"])
    assert GOLDEN_CKPT.read_bytes()[_HEADER.size:] == payload


def test_resume_from_golden_reproduces_pinned_fingerprint(golden):
    result = Swarm.resume(read_checkpoint(GOLDEN_CKPT)).run()
    assert result.fingerprint() == golden["resumed_fingerprint"]


# ----------------------------------------------------------------------
# Corrupt / truncated / alien files are rejected
# ----------------------------------------------------------------------
def _mutated(tmp_path, mutate) -> Path:
    raw = bytearray(GOLDEN_CKPT.read_bytes())
    out = tmp_path / "mutant.ckpt"
    out.write_bytes(bytes(mutate(raw)))
    return out


def test_missing_file_rejected(tmp_path):
    with pytest.raises(CheckpointError, match="does not exist"):
        read_checkpoint(tmp_path / "nope.ckpt")


def test_truncated_header_rejected(golden, tmp_path):
    path = _mutated(tmp_path, lambda raw: raw[: _HEADER.size - 3])
    with pytest.raises(CheckpointError, match="truncated"):
        read_checkpoint(path)


def test_truncated_payload_rejected(golden, tmp_path):
    path = _mutated(tmp_path, lambda raw: raw[:-10])
    with pytest.raises(CheckpointError):
        read_checkpoint(path)


def test_flipped_payload_byte_fails_crc(golden, tmp_path):
    def flip(raw):
        raw[_HEADER.size + len(raw) // 2] ^= 0xFF
        return raw

    with pytest.raises(CheckpointError, match="CRC"):
        read_checkpoint(_mutated(tmp_path, flip))


def test_alien_magic_rejected(golden, tmp_path):
    def stomp(raw):
        raw[: len(CHECKPOINT_MAGIC)] = b"NOTACKPT"
        return raw

    with pytest.raises(CheckpointError, match="magic"):
        read_checkpoint(_mutated(tmp_path, stomp))


def test_future_container_version_rejected(golden, tmp_path):
    def bump(raw):
        magic, _version, length, crc = _HEADER.unpack_from(raw)
        _HEADER.pack_into(raw, 0, magic, CONTAINER_VERSION + 1, length, crc)
        return raw

    with pytest.raises(CheckpointError, match="container version"):
        read_checkpoint(_mutated(tmp_path, bump))


def test_unsupported_schema_version_rejected(golden, tmp_path):
    document = dict(golden["document"])
    document["schema_version"] = 999
    with pytest.raises(CheckpointError, match="schema version"):
        Swarm.resume(document)


def test_structurally_gutted_document_rejected(golden):
    document = json.loads(json.dumps(golden["document"]))
    del document["engine"]
    with pytest.raises(CheckpointError, match="invalid"):
        Swarm.resume(document)


def test_store_rejects_path_escaping_keys(tmp_path):
    store = CheckpointStore(tmp_path)
    for bad in ("", "../up", "a/b", ".hidden", "-dash-first", "sp ace"):
        with pytest.raises(CheckpointError, match="invalid checkpoint key"):
            store.path_for(bad)
    assert store.path_for("stability-B3").name == "stability-B3.ckpt"


def test_store_lists_and_clears_checkpoints(golden, tmp_path):
    store = CheckpointStore(tmp_path / "fresh")
    assert list(store.keys()) == []
    assert store.clear() == 0  # directory does not even exist yet

    document = golden["document"]
    for key in ("b0-t1", "b0-t0"):
        write_checkpoint(document, store.path_for(key))
    # A stray temp file from a killed writer is swept by clear() too.
    (store.directory / "b0-t0.ckpt.tmp.12345").write_bytes(b"debris")

    assert list(store.keys()) == ["b0-t0", "b0-t1"]  # sorted
    assert store.exists("b0-t0") and not store.exists("b9-t9")
    assert store.clear() == 2
    assert list(store.keys()) == []
    assert not list(store.directory.glob("*.tmp.*"))
