"""Binary + JSON-header artifact round trips and canonical JSON."""

import json

import numpy as np
import pytest

from qbsde import (
    BsdeSolution,
    GeneratorSpec,
    InvalidArgument,
    make_grid,
    polynomial_basis,
    sample_brownian,
    simulate_forward,
    solve_lsmc,
    uniqueness_probe,
)
from qbsde.serialization import (
    canonical_json,
    load_solution,
    load_tensor,
    save_brownian,
    save_bundle,
    save_solution,
    save_tensor,
)


def test_tensor_round_trip(tmp_path):
    arr = np.arange(24, dtype=float).reshape(2, 3, 4)
    save_tensor(tmp_path / "t", arr, {"kind": "test"})
    back, header = load_tensor(tmp_path / "t")
    np.testing.assert_array_equal(back, arr)
    assert header["shape"] == [2, 3, 4]
    assert header["dtype"] == "<f8"
    assert header["layout"] == "path-major"
    assert header["kind"] == "test"


def test_bundle_and_noise_round_trip(tmp_path, bm_paths, noise25):
    save_bundle(tmp_path / "paths", bm_paths)
    save_brownian(tmp_path / "noise", noise25)
    states, h = load_tensor(tmp_path / "paths")
    np.testing.assert_array_equal(states, bm_paths.states)
    inc, hn = load_tensor(tmp_path / "noise")
    np.testing.assert_array_equal(inc, noise25.increments)
    assert hn["seed"] == noise25.seed


def test_solution_round_trip(tmp_path, bm_paths):
    spec = GeneratorSpec(h=lambda p: 0.2 * p.terminal[:, 0])
    sol = solve_lsmc(spec, bm_paths, polynomial_basis(2, 1))
    save_solution(tmp_path / "sol", sol)
    back = load_solution(tmp_path / "sol", bm_paths)
    assert back.bundle is bm_paths
    np.testing.assert_array_equal(back.Y, sol.Y)
    np.testing.assert_array_equal(back.Z, sol.Z)
    assert back.method == sol.method
    np.testing.assert_array_equal(back.grid.nodes, sol.grid.nodes)
    # node 0 of X = W is the constant x0, so only it is rank-deficient
    assert sol.rank_deficient_nodes == (0,)
    assert back.rank_deficient_nodes == sol.rank_deficient_nodes


def test_solution_round_trip_keeps_the_standard_errors(tmp_path, bm_paths):
    # se_nodes used to be dropped: a loaded solution read y0_se 0 and the
    # probe's default budget fell to scheme_tol
    spec = GeneratorSpec(h=lambda p: p.terminal[:, 0])
    sol = solve_lsmc(spec, bm_paths, polynomial_basis(2, 1))
    save_solution(tmp_path / "sol", sol)
    back = load_solution(tmp_path / "sol", bm_paths)
    assert sol.y0_se > 0 and back.y0_se == sol.y0_se
    assert back.se_nodes.tobytes() == sol.se_nodes.tobytes()
    assert (uniqueness_probe(back, back).budget
            == uniqueness_probe(sol, sol).budget > 2e-2)
    # a solution without standard errors reads none back
    bare = BsdeSolution(bm_paths, sol.Y, sol.Z, "bare")
    save_solution(tmp_path / "bare", bare)
    assert load_tensor(tmp_path / "bare_Y")[1]["se_nodes"] is None
    assert load_solution(tmp_path / "bare", bm_paths).se_nodes is None


@pytest.mark.parametrize("other", ["grid", "paths"])
def test_load_solution_refuses_another_grid_or_path_count(tmp_path, bm_model,
                                                          bm_paths, other):
    # the header is read from disk: a bundle of another grid or path count
    # is refused, not paired with the saved Y and Z
    sol = solve_lsmc(GeneratorSpec(h=lambda p: 0.2 * p.terminal[:, 0]),
                     bm_paths, polynomial_basis(2, 1))
    save_solution(tmp_path / "sol", sol)
    grid = make_grid(2.0, 25) if other == "grid" else bm_paths.grid
    P = bm_paths.n_paths // (1 if other == "grid" else 2)
    bundle = simulate_forward(bm_model, sample_brownian(grid, 1, P, seed=7))
    with pytest.raises(InvalidArgument, match="another grid|bundle's shape"):
        load_solution(tmp_path / "sol", bundle)


def test_canonical_json_key_order_independent():
    a = canonical_json({"b": 1, "a": {"y": 2, "x": 3}})
    b = canonical_json({"a": {"x": 3, "y": 2}, "b": 1})
    assert a == b


def test_canonical_json_coerces_numpy_scalars():
    s = canonical_json({"flag": np.bool_(True), "n": np.int64(2),
                        "x": np.float64(0.5), "v": np.arange(3)})
    assert json.loads(s) == {"flag": True, "n": 2, "x": 0.5, "v": [0, 1, 2]}


def test_canonical_json_rejects_unknown_types():
    with pytest.raises(TypeError):
        canonical_json({"bad": object()})


def test_atomic_write_no_partial_file(tmp_path):
    from qbsde.serialization import _atomic_write
    target = tmp_path / "out.json"
    _atomic_write(target, b"{}")
    assert target.read_bytes() == b"{}"
    assert list(tmp_path.iterdir()) == [target]  # no temp residue
