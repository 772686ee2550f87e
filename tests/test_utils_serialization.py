"""Tests for repro.utils.serialization."""

import dataclasses

import numpy as np
import pytest

from repro.utils.serialization import (
    load_arrays,
    load_json,
    save_arrays,
    save_json,
    to_jsonable,
)


@dataclasses.dataclass
class _Sample:
    name: str
    values: np.ndarray


class TestToJsonable:
    def test_passthrough_builtins(self):
        for value in (None, True, 3, 2.5, "s"):
            assert to_jsonable(value) == value

    def test_numpy_scalars(self):
        assert to_jsonable(np.int32(4)) == 4
        assert to_jsonable(np.float64(0.5)) == 0.5
        assert to_jsonable(np.bool_(True)) is True

    def test_numpy_arrays(self):
        assert to_jsonable(np.arange(3)) == [0, 1, 2]

    def test_dataclass(self):
        out = to_jsonable(_Sample(name="x", values=np.ones(2)))
        assert out == {"name": "x", "values": [1.0, 1.0]}

    def test_nested_containers(self):
        out = to_jsonable({"k": (1, {2, 3})})
        assert out["k"][0] == 1
        assert sorted(out["k"][1]) == [2, 3]

    def test_unknown_type_raises(self):
        with pytest.raises(TypeError):
            to_jsonable(object())


class TestJsonRoundTrip:
    def test_round_trip(self, tmp_path):
        path = save_json(tmp_path / "out.json", {"a": np.float32(1.5)})
        assert load_json(path) == {"a": 1.5}

    def test_creates_parent_dirs(self, tmp_path):
        path = save_json(tmp_path / "deep" / "dir" / "f.json", [1, 2])
        assert path.exists()


class TestArraysRoundTrip:
    def test_round_trip(self, tmp_path):
        arrays = {"x": np.arange(5, dtype=np.float32), "y": np.eye(3)}
        path = save_arrays(tmp_path / "arrs.npz", arrays)
        back = load_arrays(path)
        assert set(back) == {"x", "y"}
        assert np.array_equal(back["x"], arrays["x"])
        assert np.array_equal(back["y"], arrays["y"])


class TestPathHandling:
    def test_path_becomes_string(self, tmp_path):
        import pathlib

        p = tmp_path / "model.snapshot.npz"
        assert to_jsonable(p) == str(p)
        assert to_jsonable(pathlib.PurePosixPath("a/b")) == "a/b"

    def test_path_inside_containers(self, tmp_path):
        out = to_jsonable({"arrays": tmp_path, "k": [tmp_path]})
        assert out == {"arrays": str(tmp_path), "k": [str(tmp_path)]}

    def test_save_json_with_path_values(self, tmp_path):
        path = save_json(tmp_path / "hdr.json", {"npz": tmp_path / "m.npz"})
        assert load_json(path) == {"npz": str(tmp_path / "m.npz")}


class TestNonFiniteRejection:
    @pytest.mark.parametrize("bad", [
        float("nan"), float("inf"), float("-inf"),
        np.float32("nan"), np.float64("inf"),
    ])
    def test_non_finite_floats_rejected(self, bad):
        with pytest.raises(ValueError, match="non-finite"):
            to_jsonable(bad)

    def test_non_finite_inside_array_rejected(self):
        with pytest.raises(ValueError):
            to_jsonable(np.array([1.0, np.nan]))

    def test_non_finite_nested_rejected(self):
        with pytest.raises(ValueError):
            to_jsonable({"metrics": {"loss": float("inf")}})

    def test_save_json_refuses_nan(self, tmp_path):
        with pytest.raises(ValueError):
            save_json(tmp_path / "bad.json", {"x": float("nan")})

    def test_finite_floats_still_pass(self):
        assert to_jsonable(np.float32(2.5)) == 2.5
        assert to_jsonable([0.0, -1e300]) == [0.0, -1e300]


def _trace():
    from repro.harness.traces import TracePoint, TrainingTrace

    trace = TrainingTrace(algorithm="A", dataset="d", n_devices=2)
    trace.record_point(TracePoint(
        time_s=0.0, epochs=0.0, updates=0, samples=0, accuracy=0.1, loss=1.0,
    ))
    return trace


def _snapshot():
    from repro.serve.snapshot import ModelSnapshot
    from repro.sparse.mlp import MLPArchitecture, SparseMLP

    arch = MLPArchitecture(8, 6, hidden=(4,))
    return ModelSnapshot(arch=arch, state=SparseMLP(arch).init_state(seed=0))


def _trace_json(tmp_path):
    from repro.harness.store import load_trace, save_trace

    save_trace(_trace(), tmp_path / "run")
    return tmp_path / "run.json", lambda: load_trace(tmp_path / "run")


def _result_set_index(tmp_path):
    from repro.harness.store import load_result_set, save_result_set

    save_result_set({("A", 2): _trace()}, tmp_path)
    return tmp_path / "index.json", lambda: load_result_set(tmp_path)


def _snapshot_header(tmp_path):
    from repro.serve.snapshot import ModelSnapshot

    header = _snapshot().save(tmp_path / "model")
    return header, lambda: ModelSnapshot.load(tmp_path / "model")


def _store_manifest(tmp_path):
    from repro.serve.store import MANIFEST_NAME, SnapshotStore

    SnapshotStore(tmp_path / "store").publish(_snapshot(), published_s=0.0)
    return (
        tmp_path / "store" / MANIFEST_NAME,
        lambda: SnapshotStore(tmp_path / "store", create=False),
    )


class TestCorruptArtifacts:
    """Every JSON artifact loader fails with a typed error on bad bytes."""

    @pytest.mark.parametrize("artifact", [
        _trace_json, _result_set_index, _snapshot_header, _store_manifest,
    ], ids=["trace", "result-set-index", "snapshot-header", "store-manifest"])
    @pytest.mark.parametrize("corrupt", [
        lambda raw: raw[: len(raw) // 2],
        lambda raw: b"",
        lambda raw: b"\x80\xfe" + raw,
    ], ids=["truncated", "empty", "non-utf8"])
    def test_loader_raises_repro_error(self, tmp_path, artifact, corrupt):
        from repro.exceptions import ReproError

        path, load = artifact(tmp_path)
        path.write_bytes(corrupt(path.read_bytes()))
        with pytest.raises(ReproError):
            load()
