"""Flat binary tensor layout with JSON headers, written atomically.

Tensors are serialized path-major (then node, then component) as little-endian
float64; the sidecar .json header records shape, dtype and provenance so the
artifact is byte-stable across runs of the same config.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path

import numpy as np

from .engine import BrownianBundle, PathBundle
from .errors import InvalidArgument
from .solvers import BsdeSolution


def _atomic_write(path: Path, data):
    """Write the bytes-like `data` to `path` through a temporary file."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _json_coerce(obj):
    """Map numpy scalars/arrays to plain Python for canonical serialization."""
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj).__name__}")


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"),
                      default=_json_coerce)


def save_tensor(base: Path, array: np.ndarray, header: dict) -> dict:
    """Write base.bin + base.json; returns the header actually written."""
    base = Path(base)
    arr = np.ascontiguousarray(array, dtype="<f8")
    full = dict(header)
    full["shape"] = list(arr.shape)
    full["dtype"] = "<f8"
    full["layout"] = "path-major"
    # the array's own buffer as bytes: no second copy of the tensor
    _atomic_write(base.with_suffix(".bin"), arr.reshape(-1).view(np.uint8))
    _atomic_write(base.with_suffix(".json"),
                  canonical_json(full).encode())
    return full


def load_tensor(base: Path) -> tuple[np.ndarray, dict]:
    base = Path(base)
    header = json.loads(base.with_suffix(".json").read_text())
    arr = np.frombuffer(base.with_suffix(".bin").read_bytes(), dtype="<f8")
    return arr.reshape(header["shape"]), header


def save_bundle(base: Path, paths: PathBundle) -> dict:
    return save_tensor(base, paths.states, {
        "kind": "path-bundle",
        "seed": paths.noise.seed,
        "grid": [float(t) for t in paths.grid.nodes],
    })


def save_brownian(base: Path, noise: BrownianBundle) -> dict:
    return save_tensor(base, noise.increments, {
        "kind": "brownian-bundle",
        "seed": noise.seed,
        "grid": [float(t) for t in noise.grid.nodes],
    })


def save_solution(base: Path, sol: BsdeSolution) -> dict:
    base = Path(base)
    meta = {
        "kind": "bsde-solution",
        "method": sol.method,
        "grid": [float(t) for t in sol.grid.nodes],
        "trunc_level": sol.trunc_level,
        "picard_iterations": sol.picard_iterations,
        "residual": sol.residual,
        "rank_deficient_nodes": list(sol.rank_deficient_nodes),
        "se_nodes": sol.se_nodes,  # an array is written as a list
    }
    save_tensor(Path(str(base) + "_Y"), sol.Y, dict(meta, tensor="Y"))
    save_tensor(Path(str(base) + "_Z"), sol.Z, dict(meta, tensor="Z"))
    return meta


def load_solution(base: Path, bundle: PathBundle) -> BsdeSolution:
    """The saved solution on `bundle`, which must have the header's grid; a
    bundle of another path count fails BsdeSolution's shape check."""
    Y, meta = load_tensor(Path(str(base) + "_Y"))
    if not np.array_equal(meta["grid"], bundle.grid.nodes):
        raise InvalidArgument(f"{base} was saved on another grid")
    Z, _ = load_tensor(Path(str(base) + "_Z"))
    return BsdeSolution(bundle, Y, Z, meta["method"],
                        trunc_level=meta.get("trunc_level"),
                        picard_iterations=meta.get("picard_iterations", 0),
                        residual=meta.get("residual", 0.0),
                        rank_deficient_nodes=tuple(
                            meta.get("rank_deficient_nodes", ())),
                        se_nodes=None if meta.get("se_nodes") is None
                        else np.asarray(meta["se_nodes"], float))
