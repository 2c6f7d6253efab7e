"""Flat binary tensor layout with JSON headers, written atomically.

A tensor is node-major in memory and path-major on file, as little-endian
float64: save_tensor and load_tensor swap the first two axes, and no other
module knows the file's layout. save_tensor streams the swapped view's
C-order bytes through numpy's buffered iterator, one SAVE_CHUNK_BYTES buffer
at a time. The sidecar .json header records the file's shape, dtype and
provenance so the artifact is byte-stable across runs of the same config.
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

# bytes numpy's buffered iterator gathers per write: a save holds this, not
# a second copy of the tensor (the oracle's six 25k-path tensors, median of
# 15 saves on a 2-vCPU VM: 107-109 ms at 48 kB, 114-123 ms at 32 kB)
SAVE_CHUNK_BYTES = 49152


def _atomic_write(path: Path, chunks):
    """Write the bytes-like `chunks` to `path` through a temporary file."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".")
    try:
        with os.fdopen(fd, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
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


def _swap_major(a: np.ndarray) -> np.ndarray:
    """`a` with its first two axes swapped (a view); one axis stays."""
    return np.swapaxes(a, 0, 1) if a.ndim > 1 else a


def save_tensor(base: Path, array: np.ndarray, header: dict) -> dict:
    """Write the node-major `array` path-major to base.bin, and base.json;
    returns the header actually written."""
    base = Path(base)
    on_file = _swap_major(np.asarray(array, dtype="<f8"))
    full = dict(header)
    full["shape"] = list(on_file.shape)
    full["dtype"] = "<f8"
    full["layout"] = "path-major"
    chunks = np.nditer(on_file, ("buffered", "external_loop", "zerosize_ok"),
                       order="C", buffersize=SAVE_CHUNK_BYTES // 8)
    _atomic_write(base.with_suffix(".bin"), chunks)
    _atomic_write(base.with_suffix(".json"),
                  [canonical_json(full).encode()])
    return full


def load_tensor(base: Path) -> tuple[np.ndarray, dict]:
    """The node-major tensor at base.bin, C-contiguous, and its header."""
    base = Path(base)
    header = json.loads(base.with_suffix(".json").read_text())
    arr = np.frombuffer(base.with_suffix(".bin").read_bytes(), dtype="<f8")
    return (np.ascontiguousarray(_swap_major(arr.reshape(header["shape"]))),
            header)


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
