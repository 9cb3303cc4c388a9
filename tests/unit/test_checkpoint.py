"""Unit tests: checkpoint store format, atomicity, and config surface."""

import hashlib
import json
import os
import pickle

import pytest

from repro.checkpoint import (
    CheckpointConfig,
    CheckpointError,
    RunPreempted,
    discard,
    load_latest,
    peek_header,
    progress_path,
    read_checkpoint,
    read_progress,
    write_checkpoint,
    write_progress,
)
from repro.checkpoint.protocol import Snapshot
from repro.checkpoint.store import (
    CHECKPOINT_MAGIC,
    CHECKPOINT_VERSION,
    PREVIOUS_SUFFIX,
)


def _write(path, world, sim_now_ns=1_000, events=42, config="cfg" * 21):
    return write_checkpoint(str(path), world, config_digest=config,
                            sim_now_ns=sim_now_ns, events_executed=events)


# -- file format ---------------------------------------------------------------

def test_header_line_then_payload(tmp_path):
    path = tmp_path / "run.ckpt"
    header = _write(path, {"state": [1, 2, 3]})
    raw = path.read_bytes()
    line, _, payload = raw.partition(b"\n")
    parsed = json.loads(line)
    assert parsed == header
    assert parsed["checkpoint"] == CHECKPOINT_MAGIC
    assert parsed["version"] == CHECKPOINT_VERSION
    assert parsed["payload_bytes"] == len(payload)
    assert pickle.loads(payload) == {"state": [1, 2, 3]}


def test_read_checkpoint_roundtrip_and_config_check(tmp_path):
    path = tmp_path / "run.ckpt"
    _write(path, ["world"], sim_now_ns=7, events=9, config="a" * 64)
    header, world = read_checkpoint(str(path), expect_config="a" * 64)
    assert world == ["world"]
    assert header["sim_now_ns"] == 7
    assert header["events_executed"] == 9
    with pytest.raises(CheckpointError, match="belongs to config"):
        read_checkpoint(str(path), expect_config="b" * 64)


def test_peek_header_does_not_unpickle(tmp_path):
    path = tmp_path / "run.ckpt"
    _write(path, {"big": list(range(1000))})
    header = peek_header(str(path))
    assert header["checkpoint"] == CHECKPOINT_MAGIC


def test_version_mismatch_rejected(tmp_path):
    path = tmp_path / "run.ckpt"
    _write(path, "x")
    raw = path.read_bytes()
    line, _, payload = raw.partition(b"\n")
    header = json.loads(line)
    header["version"] = CHECKPOINT_VERSION + 1
    path.write_bytes(json.dumps(header).encode() + b"\n" + payload)
    with pytest.raises(CheckpointError, match="version"):
        read_checkpoint(str(path))


def _assert_old_version_refused(tmp_path, version):
    # The payload is not a pickle at all (with a matching digest), so
    # only the header check can produce a version error: the file never
    # reaches pickle.loads.
    path = tmp_path / "run.ckpt"
    payload = b"not a pickle"
    header = {"checkpoint": CHECKPOINT_MAGIC, "version": version,
              "config": "cfg" * 21, "sim_now_ns": 1, "events_executed": 1,
              "payload_bytes": len(payload),
              "sha256": hashlib.sha256(payload).hexdigest()}
    path.write_bytes(json.dumps(header).encode() + b"\n" + payload)
    assert CHECKPOINT_VERSION == 3
    for load in (read_checkpoint, peek_header, load_latest):
        with pytest.raises(CheckpointError,
                           match=f"version {version} is not supported"):
            load(str(path))


def test_version_1_file_refused_by_header_before_unpickling(tmp_path):
    # Version 1 pickled RankQueue as twin heaps.
    _assert_old_version_refused(tmp_path, 1)


def test_version_2_file_refused_by_header_before_unpickling(tmp_path):
    # Version 2 pickled an eager Timer per transport endpoint and a
    # per-flow partial completion callback.
    _assert_old_version_refused(tmp_path, 2)


# -- rotation and corruption fallback ------------------------------------------

def test_write_rotates_previous_generation(tmp_path):
    path = tmp_path / "run.ckpt"
    _write(path, "epoch1", sim_now_ns=1)
    _write(path, "epoch2", sim_now_ns=2)
    assert os.path.exists(str(path) + PREVIOUS_SUFFIX)
    header, world, used = load_latest(str(path))
    assert world == "epoch2" and used == str(path)
    prev_header, prev_world = read_checkpoint(str(path) + PREVIOUS_SUFFIX)
    assert prev_world == "epoch1"


@pytest.mark.parametrize("corruption", ["truncate", "flip", "garbage"])
def test_corrupt_latest_falls_back_to_previous(tmp_path, corruption):
    path = tmp_path / "run.ckpt"
    _write(path, "epoch1", sim_now_ns=1)
    _write(path, "epoch2", sim_now_ns=2)
    raw = path.read_bytes()
    if corruption == "truncate":
        path.write_bytes(raw[:len(raw) // 2])
    elif corruption == "flip":
        path.write_bytes(raw[:-3] + bytes([raw[-3] ^ 0xFF]) + raw[-2:])
    else:
        path.write_bytes(b"not a checkpoint at all\n")
    header, world, used = load_latest(str(path))
    assert world == "epoch1"
    assert used == str(path) + PREVIOUS_SUFFIX


def test_both_generations_corrupt_raises_latest_error(tmp_path):
    path = tmp_path / "run.ckpt"
    _write(path, "epoch1")
    _write(path, "epoch2")
    path.write_bytes(b"garbage\n")
    (tmp_path / ("run.ckpt" + PREVIOUS_SUFFIX)).write_bytes(b"junk\n")
    with pytest.raises(CheckpointError):
        load_latest(str(path))


def test_load_latest_none_when_absent(tmp_path):
    assert load_latest(str(tmp_path / "nope.ckpt")) is None


def test_discard_removes_all_artifacts(tmp_path):
    path = tmp_path / "run.ckpt"
    _write(path, "epoch1")
    _write(path, "epoch2")
    write_progress(str(path), sim_now_ns=1, events_executed=2,
                   sim_time_ns=10)
    discard(str(path))
    assert list(tmp_path.iterdir()) == []


# -- progress sidecar ----------------------------------------------------------

def test_progress_roundtrip(tmp_path):
    path = str(tmp_path / "run.ckpt")
    assert read_progress(path) is None
    write_progress(path, sim_now_ns=5_000_000, events_executed=123,
                   sim_time_ns=10_000_000)
    record = read_progress(path)
    assert record == {"sim_now_ns": 5_000_000, "events_executed": 123,
                      "sim_time_ns": 10_000_000}
    assert os.path.exists(progress_path(path))


def test_corrupt_progress_reads_as_none(tmp_path):
    path = str(tmp_path / "run.ckpt")
    with open(progress_path(path), "w") as fh:
        fh.write("{not json")
    assert read_progress(path) is None


# -- RunPreempted --------------------------------------------------------------

def test_run_preempted_pickles_across_processes():
    exc = RunPreempted("/tmp/x.ckpt", 5_000_000)
    clone = pickle.loads(pickle.dumps(exc))
    assert clone.path == "/tmp/x.ckpt"
    assert clone.sim_now_ns == 5_000_000
    assert "5000000" in str(clone)


# -- CheckpointConfig ----------------------------------------------------------

def test_checkpoint_config_validation():
    with pytest.raises(ValueError):
        CheckpointConfig(every_ns=0)
    with pytest.raises(ValueError):
        CheckpointConfig(every_ns=1, path="a", directory="b")
    with pytest.raises(ValueError):
        CheckpointConfig.every_ms(0)


def test_checkpoint_config_resolve_path():
    explicit = CheckpointConfig(every_ns=1, path="here.ckpt")
    assert explicit.resolve_path("d" * 64) == "here.ckpt"
    managed = CheckpointConfig(every_ns=1, directory="ckpts")
    assert managed.resolve_path("d" * 64) == os.path.join("ckpts",
                                                          "d" * 16 + ".ckpt")
    default = CheckpointConfig.every_ms(5)
    assert default.every_ns == 5_000_000
    assert ".repro-checkpoints" in default.resolve_path("e" * 64)


def test_checkpoint_config_stays_out_of_config_digest():
    from repro.experiments.config import ExperimentConfig
    from repro.experiments.digest import config_digest
    plain = ExperimentConfig.bench_profile(seed=3)
    ticked = ExperimentConfig.bench_profile(seed=3)
    ticked.checkpoint = CheckpointConfig.every_ms(5)
    assert config_digest(plain) == config_digest(ticked)


# -- Snapshot protocol ---------------------------------------------------------

class _Base(Snapshot):
    SNAPSHOT_ATTRS = ("a",)

    def __init__(self):
        self.a = 1


class _Derived(_Base):
    SNAPSHOT_ATTRS = _Base.SNAPSHOT_ATTRS + ("b",)

    def __init__(self):
        super().__init__()
        self.b = 2
        self.transient = "not captured"


def test_snapshot_state_covers_declared_attrs_only():
    obj = _Derived()
    state = obj.snapshot_state()
    assert state == {"a": 1, "b": 2}
    clone = pickle.loads(pickle.dumps(obj))
    assert clone.a == 1 and clone.b == 2
    assert not hasattr(clone, "transient")


def test_restore_state_sets_declared_attrs():
    obj = _Derived()
    obj.restore_state({"a": 10, "b": 20})
    assert (obj.a, obj.b) == (10, 20)
