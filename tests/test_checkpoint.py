import ast
import hashlib
import json
import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import fxppo
from fxppo.agent import PPOConfig, PolicyNetwork, save_policy
from fxppo.checkpoint import (
    CheckpointError,
    file_sha256,
    load_container,
    save_container,
    write_artifact,
)
from fxppo.labeler import Autoencoder, AutoencoderConfig, save_autoencoder
from fxppo.nn import Adam, split_flat


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


def joined_container(meta, blocks):
    """The container's bytes made as one ``b"".join`` of ``tobytes()``
    copies: the oracle for `save_container`'s streamed parts."""
    meta_bytes = json.dumps(meta, sort_keys=True).encode("utf-8")
    parts = [b"FXPPOBIN", struct.pack("<II", 1, len(meta_bytes)), meta_bytes,
             struct.pack("<I", len(blocks))]
    for name, arr in blocks.items():
        arr = np.asarray(arr, dtype=np.float64)
        name_bytes = name.encode("utf-8")
        parts += [struct.pack("<H", len(name_bytes)), name_bytes,
                  struct.pack(f"<B{arr.ndim}I", arr.ndim, *arr.shape),
                  arr.astype("<f8").tobytes()]
    return b"".join(parts)


def test_save_container_matches_joined_bytes(tmp_path):
    rng = np.random.default_rng(4)
    blocks = {
        "w": rng.normal(size=(7, 5)),
        "strided": rng.normal(size=(6, 8))[::2, 1::3],
        "transposed": rng.normal(size=(3, 4)).T,
        "big_endian": rng.normal(size=9).astype(">f8"),
        "single": rng.normal(size=4).astype(np.float32),
        "ints": np.arange(5),
        "empty": np.zeros((0, 3)),
        "scalar": np.array(2.5),
        "caf\u00e9": np.full(2, -0.0),
    }
    meta = {"kind": "test", "seed": 7, "note": "\u00e9"}
    path = tmp_path / "model.bin"
    save_container(path, meta, blocks)
    assert path.read_bytes() == joined_container(meta, blocks)
    model = Autoencoder(AutoencoderConfig(), rng)
    save_autoencoder(path, model)
    meta, _ = load_container(path)
    assert path.read_bytes() == joined_container(meta, model.param_blocks())


def test_container_bytes_pinned(tmp_path):
    # the layout in the module docstring, byte for byte
    path = tmp_path / "model.bin"
    blocks = {"w": np.arange(6.0).reshape(2, 3), "b": np.array([-0.5, 1e-300]),
              "s": np.array(2.5).reshape(())}
    save_container(path, {"kind": "test", "seed": 30}, blocks)
    pinned = "c4d91d4f2fb3acc161fb1d3d18c32e5dae1e2d5f87e82df4deaedd5dc02015ab"
    assert file_sha256(path) == pinned


# a policy with input 5, hidden 3 and trunk (2, 4, 6), block by block
POLICY_LAYOUT = [
    ("lstm.wx", (5, 12)), ("lstm.wh", (3, 12)), ("lstm.b", (12,)),
    ("fc1.w", (3, 2)), ("fc1.b", (2,)), ("fc2.w", (2, 4)), ("fc2.b", (4,)),
    ("fc3.w", (4, 6)), ("fc3.b", (6,)), ("heads.w", (6, 16)), ("heads.b", (16,)),
]
# the default 80-128-64-32-12 autoencoder
AUTOENCODER_LAYOUT = [
    ("enc0.w", (80, 128)), ("enc0.b", (128,)), ("enc1.w", (128, 64)), ("enc1.b", (64,)),
    ("enc2.w", (64, 32)), ("enc2.b", (32,)), ("enc3.w", (32, 12)), ("enc3.b", (12,)),
    ("dec0.w", (12, 32)), ("dec0.b", (32,)), ("dec1.w", (32, 64)), ("dec1.b", (64,)),
    ("dec2.w", (64, 128)), ("dec2.b", (128,)), ("dec3.w", (128, 80)), ("dec3.b", (80,)),
]


def test_policy_checkpoint_layout_pinned(tmp_path):
    # changing a block name, shape or order breaks every saved policy
    net = PolicyNetwork(5, 3, (2, 4, 6), rng=np.random.default_rng(0))
    opt = Adam(net.params, 1e-3)
    net.grads[:] = np.random.default_rng(1).normal(size=net.grads.shape)
    opt.step(net.grads)
    save_policy(tmp_path / "p.bin", net, opt, PPOConfig(), 0, 0)
    _, blocks = load_container(tmp_path / "p.bin")
    adam = [(f"adam.{moment}.{name}", shape)
            for name, shape in POLICY_LAYOUT for moment in ("m", "v")]
    assert [(name, b.shape) for name, b in blocks.items()] == POLICY_LAYOUT + adam
    grads = split_flat(net.grads, [blocks[name] for name, _ in POLICY_LAYOUT])
    for (name, _), g in zip(POLICY_LAYOUT, grads):
        assert np.array_equal(blocks[name], net.param_blocks()[name])
        assert np.array_equal(blocks[f"adam.m.{name}"], g * (1.0 - opt.BETA1))
        assert np.array_equal(blocks[f"adam.v.{name}"], g * g * (1.0 - opt.BETA2))


def test_autoencoder_checkpoint_layout_pinned(tmp_path):
    model = Autoencoder(AutoencoderConfig(), np.random.default_rng(0))
    save_autoencoder(tmp_path / "ae.bin", model)
    _, blocks = load_container(tmp_path / "ae.bin")
    assert [(name, b.shape) for name, b in blocks.items()] == AUTOENCODER_LAYOUT
    assert np.array_equal(np.concatenate([b.ravel() for b in blocks.values()]), model.params)


@pytest.mark.parametrize("exc", [KeyboardInterrupt, OSError])
def test_write_artifact_whole_or_absent(tmp_path, cut_writes, exc):
    fresh = tmp_path / "fresh.csv"
    earlier = tmp_path / "earlier.csv"
    write_artifact(earlier, "step,reward\n0,0.5\n")
    cut_writes(".csv", exc)
    for path in (fresh, earlier):
        with pytest.raises(exc):
            write_artifact(path, "step,reward\n" + "0,0.25\n" * 100)
    assert not fresh.exists()
    assert earlier.read_text() == "step,reward\n0,0.5\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["earlier.csv"]


def test_write_artifact_makes_directories_and_keeps_bytes(tmp_path):
    arr = np.linspace(-1.0, 1.0, 24).reshape(4, 6)[:, ::2]
    np.save(tmp_path / "reference.npy", arr)
    path = tmp_path / "a" / "b" / "windows.npy"
    digest = write_artifact(str(path), arr)
    assert path.read_bytes() == (tmp_path / "reference.npy").read_bytes()
    assert digest == hashlib.sha256(path.read_bytes()).hexdigest()
    text = tmp_path / "c" / "note.txt"
    assert write_artifact(text, "caf\u00e9\n") == hashlib.sha256("caf\u00e9\n".encode()).hexdigest()
    assert text.read_bytes() == b"caf\xc3\xa9\n"
    assert write_artifact(text, b"\x00\x01") == file_sha256(text)
    assert text.read_bytes() == b"\x00\x01"


@pytest.mark.parametrize("data", [
    "step,reward\n0,0.5\ncaf\u00e9\n",
    b"\x00\x01\xff",
    b"",
    [b"FXPPOBIN", b"", np.arange(5.0).view(np.uint8), bytearray(b"tail")],
    np.linspace(-1.0, 1.0, 24).reshape(4, 6),
    np.asfortranarray(np.arange(12.0).reshape(3, 4)),
    np.linspace(-1.0, 1.0, 24).reshape(4, 6)[:, ::2],
    np.arange(7, dtype=np.int64),
    np.array(2.5),
    np.zeros((0, 3)),
], ids=["str", "bytes", "empty", "parts", "array", "fortran", "strided", "ints", "0-d", "no-rows"])
def test_write_artifact_returns_the_sha256_of_its_bytes(tmp_path, data):
    # the digest is made from the data as it is written, not read back
    path = tmp_path / "artifact"
    assert write_artifact(str(path), data) == file_sha256(path)
    if isinstance(data, np.ndarray):
        np.save(tmp_path / "reference.npy", data)
        assert path.read_bytes() == (tmp_path / "reference.npy").read_bytes()


block_names = st.text(st.characters(codec="utf-8", exclude_categories=["Cs"]), min_size=1, max_size=6)
block_dims = st.lists(st.integers(0, 4), min_size=0, max_size=3)


@given(
    blocks=st.dictionaries(block_names, block_dims, max_size=5),
    meta=st.dictionaries(st.text(max_size=4), st.integers() | st.text(max_size=4), max_size=3),
    keep=st.lists(st.booleans(), min_size=5, max_size=5),
    damage=st.sampled_from(["none", "cut", "pad"]),
    where=st.floats(0.0, 1.0, exclude_max=True),
    pad=st.binary(min_size=1, max_size=16),
    selected=st.booleans(),
)
@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_streamed_reader_reads_back_exactly_or_raises(
        tmp_path, blocks, meta, keep, damage, where, pad, selected):
    # a whole container reads back exactly, only the selected blocks when
    # there is a selection; a cut or padded one raises CheckpointError,
    # whether the damaged bytes lie in a block it builds or one it skips
    rng = np.random.default_rng(len(blocks))
    arrays = {name: rng.normal(size=dims) for name, dims in blocks.items()}
    path = tmp_path / "c.bin"
    save_container(path, meta, arrays)
    raw = path.read_bytes()
    if damage == "cut":
        path.write_bytes(raw[: int(where * len(raw))])
    elif damage == "pad":
        path.write_bytes(raw + pad)
    wanted = [name for name, k in zip(arrays, keep) if k]
    seen = []

    def select(got_meta):
        seen.append(got_meta)
        return set(wanted)

    if damage != "none":
        message = "truncated" if damage == "cut" else "trailing"
        with pytest.raises(CheckpointError, match=message):
            load_container(path, select if selected else None)
        return
    got_meta, got = load_container(path, select if selected else None)
    assert got_meta == meta
    assert seen == ([meta] if selected else [])
    assert list(got) == (wanted if selected else list(arrays))
    for name, a in got.items():
        assert a.dtype == np.float64 and a.shape == arrays[name].shape
        assert a.tobytes() == arrays[name].tobytes()


# (module, function, call): the only places in the package that write files
WRITERS = [
    ("checkpoint.py", "write_artifact", "np.save"),
    ("checkpoint.py", "write_artifact", "open"),
    ("checkpoint.py", "write_artifact", "os.makedirs"),
]


def file_writes(tree, module):
    """(module, enclosing function, call) for every call in ``tree`` that
    creates a file or directory."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Call):
                call = ast.unparse(child.func)
                if call == "open":
                    mode = child.args[1] if len(child.args) > 1 else next(
                        (k.value for k in child.keywords if k.arg == "mode"), None)
                    writes = mode is not None and not (
                        isinstance(mode, ast.Constant) and set(mode.value) <= set("rbt"))
                else:
                    writes = call in (
                        "np.save", "np.savez", "np.savetxt", "os.makedirs", "os.mkdir",
                    ) or call.endswith((".write_text", ".write_bytes", ".tofile"))
                if writes:
                    found.append((module, scope, call))
            visit(child, scope)

    visit(tree, "<module>")
    return found


def test_one_artifact_writer():
    found = []
    for path in sorted(Path(fxppo.__file__).parent.glob("*.py")):
        found += file_writes(ast.parse(path.read_text(encoding="utf-8")), path.name)
    assert sorted(found) == WRITERS
