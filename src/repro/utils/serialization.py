"""Serialization of experiment artifacts (traces, configs, results).

Artifacts are saved as JSON for metadata plus ``.npz`` for bulk arrays, so
results survive library-version changes and can be inspected with standard
tools. NumPy scalars/arrays are converted to built-in types on the way out.
"""

from __future__ import annotations

import dataclasses
import json
import math
from pathlib import Path, PurePath
from typing import Any, Dict, Mapping, Union

import numpy as np

from repro.exceptions import DataFormatError

__all__ = ["to_jsonable", "save_json", "load_json", "save_arrays", "load_arrays"]

PathLike = Union[str, Path]


def to_jsonable(obj: Any) -> Any:
    """Recursively convert ``obj`` into JSON-serializable built-ins.

    Handles dataclasses, numpy scalars/arrays, paths, mappings, sets, and
    sequences. Unknown objects raise ``TypeError`` — silent stringification
    would let corrupted artifacts pass unnoticed. Non-finite floats raise
    ``ValueError``: bare ``NaN``/``Infinity`` tokens are invalid JSON, so an
    artifact header carrying one would not round-trip through a strict
    parser (the telemetry exporters deep-clean them to ``null``; artifact
    metadata must instead be cleaned — or dropped — at the call site).
    """
    if isinstance(obj, float):
        if not math.isfinite(obj):
            raise ValueError(
                f"non-finite float {obj!r} is not strict-JSON serializable; "
                "replace it with None (or drop the field) before saving"
            )
        return obj
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return to_jsonable(float(obj))
    if isinstance(obj, np.ndarray):
        return to_jsonable(obj.tolist())
    if isinstance(obj, PurePath):
        return str(obj)
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {
            f.name: to_jsonable(getattr(obj, f.name))
            for f in dataclasses.fields(obj)
        }
    if isinstance(obj, Mapping):
        return {str(k): to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, set, frozenset)):
        return [to_jsonable(v) for v in obj]
    raise TypeError(f"cannot serialize object of type {type(obj).__name__}: {obj!r}")


def save_json(path: PathLike, obj: Any, *, indent: int = 2) -> Path:
    """Write ``obj`` (converted via :func:`to_jsonable`) to ``path``."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        json.dumps(to_jsonable(obj), indent=indent, allow_nan=False) + "\n"
    )
    return path


def load_json(path: PathLike) -> Any:
    """Read JSON from ``path``.

    Truncated, empty or non-UTF-8 content raises :class:`DataFormatError`.
    """
    path = Path(path)
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError
        raise DataFormatError(f"{path} is not valid JSON: {exc}") from exc


def save_arrays(path: PathLike, arrays: Dict[str, np.ndarray]) -> Path:
    """Save named arrays to a compressed ``.npz`` at ``path``."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    np.savez_compressed(path, **arrays)
    return path


def load_arrays(path: PathLike) -> Dict[str, np.ndarray]:
    """Load a ``.npz`` produced by :func:`save_arrays` into a dict."""
    with np.load(Path(path)) as data:
        return {key: data[key] for key in data.files}
