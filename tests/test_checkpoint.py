import numpy as np
import pytest

from fxppo.checkpoint import CheckpointError, file_sha256, load_container, save_container


def test_round_trip(tmp_path):
    path = tmp_path / "model.bin"
    blocks = {
        "enc.w": np.arange(12, dtype=np.float64).reshape(3, 4),
        "enc.b": np.array([1.5, -2.5, 3.5]),
        "adam.m.enc.w": np.zeros((3, 4)),
        "scalar_ish": np.array([7.0]),
    }
    meta = {"seed": 30, "kind": "test", "nested": {"lr": 0.001}}
    save_container(path, meta, blocks)
    meta2, blocks2 = load_container(path)
    assert meta2 == meta
    assert set(blocks2) == set(blocks)
    for name, arr in blocks.items():
        got = blocks2[name]
        assert got.dtype == np.float64
        assert got.shape == arr.shape
        assert np.array_equal(got, arr)


def test_round_trip_is_byte_stable(tmp_path):
    blocks = {"w": np.linspace(-1, 1, 10).reshape(2, 5)}
    p1 = tmp_path / "a.bin"
    p2 = tmp_path / "b.bin"
    save_container(p1, {"x": 1}, blocks)
    save_container(p2, {"x": 1}, blocks)
    assert file_sha256(p1) == file_sha256(p2)


def test_bad_magic(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"NOTMAGIC" + b"\x00" * 32)
    with pytest.raises(CheckpointError, match="magic"):
        load_container(path)


def test_bad_version(tmp_path):
    path = tmp_path / "model.bin"
    save_container(path, {}, {"w": np.zeros(2)})
    raw = bytearray(path.read_bytes())
    raw[8] = 99
    path.write_bytes(bytes(raw))
    with pytest.raises(CheckpointError, match="version"):
        load_container(path)


def test_truncated_file(tmp_path):
    path = tmp_path / "model.bin"
    save_container(path, {}, {"w": np.arange(100, dtype=np.float64)})
    raw = path.read_bytes()
    path.write_bytes(raw[: len(raw) - 40])
    with pytest.raises(CheckpointError):
        load_container(path)


def test_rejects_non_2d_meta_types(tmp_path):
    path = tmp_path / "model.bin"
    save_container(path, {"list": [1, 2, 3]}, {"w": np.ones((2, 2, 2))})
    meta, blocks = load_container(path)
    assert meta["list"] == [1, 2, 3]
    assert blocks["w"].shape == (2, 2, 2)


def test_every_prefix_and_trailing_byte_rejected(tmp_path):
    path = tmp_path / "model.bin"
    save_container(path, {"kind": "test"}, {"w": np.arange(3.0), "s": np.array(2.5).reshape(())})
    raw = path.read_bytes()
    damaged = [raw[:n] for n in range(len(raw))] + [raw + b"\x00"]
    for data in damaged:
        path.write_bytes(data)
        with pytest.raises(CheckpointError):
            load_container(path)
