"""Property tests: the ``.mlog`` binary codec round-trips or refuses.

Two contracts pin the binary tier:

* ``decode_mlog(encode_mlog(log))`` reproduces ``log.to_dict()``
  exactly — for arbitrary logs (empty, single-job, ragged allocations,
  unicode workload names) and for real post-chaos replay logs — and
  re-encoding the decoded log is byte-identical, so payloads are
  content-addressable;
* a damaged payload (truncated anywhere, bit-flipped column data,
  tampered preamble or manifest) raises a clean
  :class:`~repro.sim.records.MlogFormatError` — decode never returns
  partial data.

The same frame carries spilled scan partitions (``mapa-scan``): every
truncation and every CRC-covered bit flip makes the content store's
``get`` refuse the partition, and no damage at all escapes
:meth:`~repro.experiments.spill.ScanSpillStore.load`.
"""

import json
import os
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import run_cluster
from repro.experiments.spill import ScanSpillStore
from repro.experiments.store import ContentStore
from repro.scenarios import DynamicsSpec, FleetSpec, ScenarioSpec
from repro.scoring.memo import ScanCache
from repro.sim.records import (
    MLOG_MAGIC,
    MLOG_VERSION,
    MlogFormatError,
    SimulationLog,
    decode_mlog,
    encode_mlog,
)

_WORKLOADS = ("resnet50", "vgg16", "gpt2-xl", "mixé-β")
_PATTERNS = ("ring", "all-to-all", "serve")
_FINITE = st.floats(allow_nan=False, allow_infinity=False, width=64)


@st.composite
def _logs(draw):
    """An arbitrary log built row-by-row (no simulation run needed)."""
    log = SimulationLog(
        draw(st.sampled_from(["preserve", "balance", "mapa"])),
        draw(st.sampled_from(["dgx1-v100", "dgx2", "fleet"])),
    )
    for i in range(draw(st.integers(0, 12))):
        log.append_fields(
            draw(st.integers(0, 2**31 - 1)),
            draw(st.sampled_from(_WORKLOADS)),
            draw(st.integers(1, 16)),
            draw(st.sampled_from(_PATTERNS)),
            draw(st.booleans()),
            draw(_FINITE),
            draw(_FINITE),
            draw(_FINITE),
            tuple(draw(st.lists(st.integers(0, 63), max_size=8))),
            draw(_FINITE),
            draw(_FINITE),
            draw(_FINITE),
        )
    return log


def _chaos_log():
    """A real replay log that lived through failures and preemptions."""
    fleet = FleetSpec(groups=(("dgx1-v100", 2), ("dgx1-p100", 1)))
    trace = ScenarioSpec(num_jobs=40, seed=7, name="codec-chaos").resolve(
        fleet.min_gpus_per_server()
    ).build()
    dynamics = DynamicsSpec(
        seed=3, horizon=300.0, failures=2, preemptions=3, grows=1
    )
    return run_cluster(fleet.build(), trace, dynamics=dynamics).log


class TestRoundTrip:
    @given(log=_logs())
    @settings(max_examples=50, deadline=None)
    def test_decode_reproduces_to_dict(self, log):
        payload = encode_mlog(log)
        meta, decoded = decode_mlog(payload)
        assert decoded.to_dict() == log.to_dict()
        assert meta == {}

    @given(log=_logs())
    @settings(max_examples=25, deadline=None)
    def test_reencode_is_byte_identical(self, log):
        """Content-addressability: decode → encode is the identity."""
        payload = encode_mlog(log)
        _, decoded = decode_mlog(payload, lazy=True)
        assert encode_mlog(decoded) == payload

    @given(log=_logs())
    @settings(max_examples=25, deadline=None)
    def test_lazy_decode_matches_eager(self, log):
        payload = encode_mlog(log)
        _, eager = decode_mlog(payload)
        _, lazy = decode_mlog(payload, lazy=True)
        assert lazy.to_dict() == eager.to_dict()

    def test_empty_log(self):
        log = SimulationLog("preserve", "dgx1-v100")
        _, decoded = decode_mlog(encode_mlog(log))
        assert len(decoded) == 0
        assert decoded.to_dict() == log.to_dict()

    def test_single_job(self):
        log = SimulationLog("preserve", "dgx1-v100")
        log.append_fields(
            0, "resnet50", 4, "ring", True,
            0.0, 1.5, 9.0, (0, 1, 2, 3), 42.0, 40.0, 39.5,
        )
        _, decoded = decode_mlog(encode_mlog(log))
        assert decoded.to_dict() == log.to_dict()

    def test_meta_round_trips(self):
        log = SimulationLog("preserve", "dgx1-v100")
        meta = {"config_hash": "abc123", "kind": "cell", "n": 3}
        meta_out, _ = decode_mlog(encode_mlog(log, meta=meta))
        assert meta_out == meta

    def test_post_chaos_log_round_trips(self):
        log = _chaos_log()
        assert len(log) > 0
        payload = encode_mlog(log)
        _, decoded = decode_mlog(payload, lazy=True)
        assert decoded.to_dict() == log.to_dict()
        assert encode_mlog(decoded) == payload


def _column_data_positions(payload):
    """Byte ranges actually covered by a column CRC (no padding)."""
    _, _, header_len = struct.unpack_from("<4sIQ", payload, 0)
    header = json.loads(
        bytes(payload[16:16 + header_len]).decode("utf-8")
    )
    data_start = (16 + header_len + 63) // 64 * 64
    return [
        (data_start + col["offset"], col["nbytes"])
        for col in header["columns"]
        if col["nbytes"]
    ]


class TestDamageRefusal:
    @given(log=_logs(), data=st.data())
    @settings(max_examples=50, deadline=None)
    def test_any_truncation_raises_clean_error(self, log, data):
        payload = encode_mlog(log)
        cut = data.draw(st.integers(0, len(payload) - 1))
        with pytest.raises(MlogFormatError):
            decode_mlog(payload[:cut])

    @given(log=_logs(), data=st.data())
    @settings(max_examples=50, deadline=None)
    def test_column_bit_flip_fails_crc(self, log, data):
        payload = bytearray(encode_mlog(log))
        spans = _column_data_positions(payload)
        if not spans:
            return  # empty log: no column bytes to damage
        start, nbytes = data.draw(st.sampled_from(spans))
        offset = start + data.draw(st.integers(0, nbytes - 1))
        payload[offset] ^= 1 << data.draw(st.integers(0, 7))
        with pytest.raises(MlogFormatError):
            decode_mlog(bytes(payload))

    def test_bad_magic_version_and_header(self):
        log = SimulationLog("preserve", "dgx1-v100")
        log.append_fields(
            0, "resnet50", 2, "ring", False,
            0.0, 0.0, 1.0, (0, 1), 1.0, 1.0, 1.0,
        )
        payload = bytearray(encode_mlog(log))
        for damage in (
            lambda p: b"XLOG" + p[4:],                       # magic
            lambda p: p[:4] + struct.pack("<I", MLOG_VERSION + 1) + p[8:],
            lambda p: p[:8] + struct.pack("<Q", 2**32) + p[16:],  # header len
            lambda p: p[:16] + b"not json" + p[24:],          # header body
        ):
            with pytest.raises(MlogFormatError):
                decode_mlog(bytes(damage(bytes(payload))))
        assert MLOG_MAGIC == b"MLOG"

    def test_manifest_name_mismatch_raises(self):
        log = SimulationLog("preserve", "dgx1-v100")
        payload = bytes(encode_mlog(log))
        _, _, header_len = struct.unpack_from("<4sIQ", payload, 0)
        header = json.loads(payload[16:16 + header_len].decode("utf-8"))
        header["columns"][0]["name"] = "intruder"
        body = json.dumps(header, separators=(",", ":")).encode("utf-8")
        body += b" " * (header_len - len(body))  # keep offsets stable
        with pytest.raises(MlogFormatError):
            decode_mlog(payload[:16] + body + payload[16 + header_len:])


# ---------------------------------------------------------------------- #
# the same refusal for a spilled scan partition (a ``mapa-scan`` frame)
# ---------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def scan_frame(tmp_path_factory):
    """``(root, key, frame)``: the smallest partition a replay spills,
    alone in its root (every other partition is removed)."""
    fleet = FleetSpec.parse("dgx1-v100:2")
    trace = ScenarioSpec(num_jobs=30, seed=11, name="codec-scan").resolve(
        fleet.min_gpus_per_server()
    ).build()
    cache = ScanCache()
    run_cluster(fleet.build(), trace, gpu_policy="preserve", scan_cache=cache)
    root = str(tmp_path_factory.mktemp("scan-frame"))
    store = ScanSpillStore(root)
    assert store.spill(cache) > 0
    frames = {}
    for key in store.content.scan("scan"):
        path = store.content.path("scan", key)
        with open(path, "rb") as fh:
            frames[key] = fh.read()
        os.remove(path)
    key = min(frames, key=lambda k: len(frames[k]))
    return root, key, frames[key]


def _plant(root, key, frame):
    """Overwrite the partition file directly (no fsync per example)."""
    content = ContentStore(root)
    with open(content.path("scan", key), "wb") as fh:
        fh.write(frame)
    return content


def _loads_cleanly(root):
    """``ScanSpillStore.load`` on the damaged tier: never raises."""
    store = ScanSpillStore(root)
    cache = ScanCache()
    store.load(cache)
    return store, cache


class TestScanFrameRefusal:
    def test_sound_frame_is_served_and_seeds(self, scan_frame):
        root, key, frame = scan_frame
        header, entries = _plant(root, key, frame).get("scan", key)
        assert (header["format"], len(entries) > 0) == ("mapa-scan", True)
        store, cache = _loads_cleanly(root)
        assert store.stats.corrupt_partitions == 0
        assert len(cache.entries()) > 0

    def test_every_truncation_is_refused(self, scan_frame):
        root, key, frame = scan_frame
        for cut in range(len(frame)):
            content = _plant(root, key, frame[:cut])
            assert content.get("scan", key) is None, cut
        assert content.corrupt["scan"] == 1  # the refusal is counted

    def test_every_crc_covered_bit_flip_is_refused(self, scan_frame):
        root, key, frame = scan_frame
        spans = _column_data_positions(frame)
        assert spans
        for start, nbytes in spans:
            for offset in range(start, start + nbytes):
                for bit in range(8):
                    damaged = bytearray(frame)
                    damaged[offset] ^= 1 << bit
                    content = _plant(root, key, bytes(damaged))
                    assert content.get("scan", key) is None, (offset, bit)

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_no_damage_escapes_load(self, scan_frame, data):
        """Any truncation or flipped bit — header included — loads
        without raising, and a refused frame seeds nothing."""
        root, key, frame = scan_frame
        damaged = bytearray(frame)
        if data.draw(st.booleans()):
            damaged = damaged[: data.draw(st.integers(0, len(frame) - 1))]
        else:
            offset = data.draw(st.integers(0, len(frame) - 1))
            damaged[offset] ^= 1 << data.draw(st.integers(0, 7))
        content = _plant(root, key, bytes(damaged))
        refused = content.get("scan", key) is None
        store, cache = _loads_cleanly(root)
        assert store.stats.corrupt_partitions == int(refused)
        if refused:
            assert len(cache.entries()) == 0
