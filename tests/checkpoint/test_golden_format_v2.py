"""Golden fixtures for container v2 (binary columns) + rejection paths.

Two committed v2 files pin the binary layout:

* ``checkpoint_v2_soa.ckpt`` — a soa snapshot with ``num_pieces=70``
  (bit words above ``2**63``), NaN float columns, seeds and
  completed downloads, and an active fault plan;
* ``checkpoint_v2_sharded.ckpt`` — a 2-shard snapshot whose
  coordinator holds in-flight migration rows (``pending_rows``).

Each must re-encode to its exact bytes, match what this build snapshots
for the same scenario, and resume to a pinned fingerprint.  A v1 soa
file written by the JSON-only container (``checkpoint_v1_soa.ckpt``,
frozen: this build no longer writes v1) must still resume exactly.
Regenerate the v2 fixtures after an intentional format change with::

    REPRO_REGEN_GOLDENS=1 python -m pytest tests/checkpoint/test_golden_format_v2.py

Every malformed binary section must raise
:class:`~repro.errors.CheckpointError`, never a numpy ``ValueError``.
"""

import json
import os
import zlib
from pathlib import Path

import numpy as np
import pytest

from ckpt_helpers import replay_config, replay_fault_plan, snapshot_at_round
from repro.checkpoint.format import (
    _HEADER_V2,
    dumps_payload,
    encode_checkpoint,
    read_checkpoint,
    write_checkpoint,
)
from repro.checkpoint.schema import restore_swarm
from repro.errors import CheckpointError
from repro.sim.swarm import Swarm, run_swarm
from test_soa_checkpoint import soa_replay_config, soa_snapshot_at_round

GOLDEN_DIR = Path(__file__).parent / "goldens"
FIXTURES = {
    "soa": GOLDEN_DIR / "checkpoint_v2_soa.ckpt",
    "sharded": GOLDEN_DIR / "checkpoint_v2_sharded.ckpt",
}
PINS = GOLDEN_DIR / "checkpoint_v2.json"
LEGACY_SOA = GOLDEN_DIR / "checkpoint_v1_soa.ckpt"
REGEN = os.environ.get("REPRO_REGEN_GOLDENS") == "1"


def soa_document() -> dict:
    return soa_snapshot_at_round(
        soa_replay_config(seed=61), 22, faults=replay_fault_plan()
    )


def sharded_document() -> dict:
    swarm = Swarm(
        soa_replay_config(seed=67), backend="sharded", shards=2,
        shard_mix=0.2,
    )
    try:
        for _ in range(12):
            assert swarm.step_round()
        return swarm.snapshot()
    finally:
        swarm.close()


GENERATORS = {"soa": soa_document, "sharded": sharded_document}


def encoded(document: dict) -> bytes:
    head, chunks = encode_checkpoint(document)
    return head + b"".join(bytes(chunk) for chunk in chunks)


@pytest.fixture(scope="module")
def pins() -> dict:
    if REGEN:
        fingerprints = {}
        for name, path in FIXTURES.items():
            write_checkpoint(GENERATORS[name](), path)
            fingerprints[name] = (
                restore_swarm(read_checkpoint(path)).run().fingerprint()
            )
        PINS.write_text(json.dumps(fingerprints, indent=1, sort_keys=True)
                        + "\n")
    assert all(path.exists() for path in FIXTURES.values()) and PINS.exists(), (
        "missing v2 checkpoint fixtures; regenerate with REPRO_REGEN_GOLDENS=1"
    )
    return json.loads(PINS.read_text())


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_v2_fixture_reencodes_to_its_bytes(pins, name):
    path = FIXTURES[name]
    assert encoded(read_checkpoint(path)) == path.read_bytes()


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_current_snapshot_matches_v2_fixture(pins, name):
    """Layout or simulator drift fails loudly (bump and regenerate)."""
    assert encoded(GENERATORS[name]()) == FIXTURES[name].read_bytes()


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_v2_fixture_resumes_to_pinned_fingerprint(pins, name):
    result = restore_swarm(read_checkpoint(FIXTURES[name])).run()
    assert result.fingerprint() == pins[name]


def test_v2_fixtures_cover_the_hard_columns(pins):
    soa = read_checkpoint(FIXTURES["soa"])
    store = soa["store"]
    assert store["bits"].dtype == np.uint64
    assert int(store["bits"].max()) >= 2**63
    for name in ("first_piece_at", "shaken_at"):
        missing = np.isnan(store[name])
        assert missing.any() and not missing.all()
    assert soa["metrics"]["completed"]["peer_id"].size > 0

    sharded = read_checkpoint(FIXTURES["sharded"])
    pending = sharded["coordinator"]["pending_rows"]
    assert any(rows is not None and rows["peer_id"].size for rows in pending)
    for shard_doc in sharded["shard_docs"]:
        assert shard_doc["backend"] == "soa"
        assert shard_doc["store"]["bits"].shape[1] == 2


def test_legacy_v1_soa_file_resumes_fingerprint_identical():
    """A JSON-only soa file (lists, None for NaN) restores exactly."""
    raw = LEGACY_SOA.read_bytes()
    assert raw[8:12] == (1).to_bytes(4, "little")
    document = read_checkpoint(LEGACY_SOA)
    assert isinstance(document["store"]["peer_id"], list)
    assert isinstance(document["metrics"]["completed"], list)
    reference = run_swarm(
        soa_replay_config(seed=61), backend="soa", faults=replay_fault_plan()
    )
    result = restore_swarm(document).run()
    assert result.resumed_from_round == 22
    assert result.fingerprint() == reference.fingerprint()


def test_object_documents_have_an_empty_binary_section(tmp_path):
    document = snapshot_at_round(replay_config(), 6)
    path = tmp_path / "object.ckpt"
    write_checkpoint(document, path)
    raw = path.read_bytes()
    _, version, header_len, binary_len, _ = _HEADER_V2.unpack_from(raw)
    assert (version, binary_len) == (2, 0)
    assert json.loads(raw[_HEADER_V2.size:]) == json.loads(
        dumps_payload(document)
    )
    assert read_checkpoint(path) == json.loads(dumps_payload(document))


def test_arrays_of_every_shape_round_trip(tmp_path):
    document = {
        "empty_rows": np.zeros((0, 2), dtype=np.int64),
        "empty": np.zeros(0, dtype=np.float64),
        "flags": np.array([True, False, True]),
        "scalar": np.array(7, dtype=np.int64),
        "words": np.array([[2**64 - 1, 3]], dtype=np.uint64),
        "nested": [{"x": np.arange(5, dtype=np.int64)}, None],
    }
    path = tmp_path / "shapes.ckpt"
    write_checkpoint(document, path)
    back = read_checkpoint(path)
    assert encoded(back) == path.read_bytes()
    for name in ("empty_rows", "empty", "flags", "scalar", "words"):
        assert back[name].dtype == document[name].dtype
        np.testing.assert_array_equal(back[name], document[name])
    np.testing.assert_array_equal(back["nested"][0]["x"], np.arange(5))
    assert back["nested"][1] is None
    back["flags"][0] = False  # decoded arrays are owned and writable


# ----------------------------------------------------------------------
# Malformed binary sections
# ----------------------------------------------------------------------
def _rewritten(tmp_path, mutate_header) -> Path:
    """The soa fixture with an edited header and a *valid* CRC."""
    raw = FIXTURES["soa"].read_bytes()
    magic, version, header_len, binary_len, _ = _HEADER_V2.unpack_from(raw)
    start = _HEADER_V2.size
    header = json.loads(raw[start:start + header_len])
    mutate_header(header)
    text = dumps_payload(header)
    text += b" " * (-len(text) % 8)
    binary = raw[start + header_len:]
    out = tmp_path / "edited.ckpt"
    out.write_bytes(
        _HEADER_V2.pack(magic, version, len(text), len(binary),
                        zlib.crc32(text + binary))
        + text + binary
    )
    return out


def test_rewritten_header_helper_reads_back(pins, tmp_path):
    path = _rewritten(tmp_path, lambda header: None)
    assert encoded(read_checkpoint(path)) == FIXTURES["soa"].read_bytes()


def test_truncated_binary_section_rejected(pins, tmp_path):
    path = tmp_path / "short.ckpt"
    path.write_bytes(FIXTURES["soa"].read_bytes()[:-16])
    with pytest.raises(CheckpointError, match="corrupt"):
        read_checkpoint(path)


def test_flipped_binary_byte_fails_crc(pins, tmp_path):
    raw = bytearray(FIXTURES["soa"].read_bytes())
    raw[-24] ^= 0x40
    path = tmp_path / "flipped.ckpt"
    path.write_bytes(bytes(raw))
    with pytest.raises(CheckpointError, match="CRC"):
        read_checkpoint(path)


def test_array_reference_past_the_end_rejected(pins, tmp_path):
    def past_end(header):
        header["store"]["peer_id"]["offset"] = 1 << 40

    with pytest.raises(CheckpointError, match="runs past"):
        read_checkpoint(_rewritten(tmp_path, past_end))


def test_overlapping_array_references_rejected(pins, tmp_path):
    def overlap(header):
        store = header["store"]
        store["is_seed"]["offset"] = store["peer_id"]["offset"]

    with pytest.raises(CheckpointError, match="overlapping"):
        read_checkpoint(_rewritten(tmp_path, overlap))


@pytest.mark.parametrize("dtype", ["<c16", "|O", ">i8", "int64", "<i4"])
def test_unknown_dtype_rejected(pins, tmp_path, dtype):
    def retype(header):
        header["store"]["counts"]["dtype"] = dtype

    with pytest.raises(CheckpointError, match="unknown dtype"):
        read_checkpoint(_rewritten(tmp_path, retype))


@pytest.mark.parametrize("shape", [[-1], [1.5], "7", [True]])
def test_malformed_shape_rejected(pins, tmp_path, shape):
    def reshape(header):
        header["store"]["counts"]["shape"] = shape

    with pytest.raises(CheckpointError, match="malformed"):
        read_checkpoint(_rewritten(tmp_path, reshape))


def test_writer_refuses_unstorable_leaves(tmp_path):
    for bad in (np.array(["a"], dtype=object), np.arange(3, dtype=np.int32)):
        with pytest.raises(CheckpointError, match="cannot store"):
            write_checkpoint({"x": bad}, tmp_path / "bad.ckpt")
    with pytest.raises(CheckpointError, match="array reference"):
        write_checkpoint({"x": {"dtype": 1, "offset": 2, "shape": 3}},
                         tmp_path / "bad.ckpt")
    with pytest.raises(CheckpointError, match="not checkpointable"):
        write_checkpoint({"x": float("nan")}, tmp_path / "bad.ckpt")
    assert not list(tmp_path.iterdir())
