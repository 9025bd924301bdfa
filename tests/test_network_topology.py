"""Unit tests for the mesh topology."""

import pytest

from repro.network import MeshTopology


def test_square_grid_for_64():
    mesh = MeshTopology(64)
    assert mesh.rows * mesh.cols >= 64
    assert mesh.rows == 8 and mesh.cols == 8


def test_rectangular_grid_for_32():
    mesh = MeshTopology(32)
    assert mesh.rows * mesh.cols >= 32
    assert {mesh.rows, mesh.cols} == {8, 4}


def test_single_node():
    mesh = MeshTopology(1)
    assert mesh.hops(0, 0) == 0


def test_two_nodes_one_hop():
    mesh = MeshTopology(2)
    assert mesh.hops(0, 1) == 1


def test_hops_is_manhattan_distance():
    mesh = MeshTopology(16)  # 4x4
    assert mesh.cols == 4
    assert mesh.hops(0, 3) == 3       # same row
    assert mesh.hops(0, 12) == 3      # same column
    assert mesh.hops(0, 15) == 6      # opposite corner
    assert mesh.hops(5, 5) == 0


def test_hops_symmetric():
    mesh = MeshTopology(16)
    for a in range(16):
        for b in range(16):
            assert mesh.hops(a, b) == mesh.hops(b, a)


def test_out_of_range_node_rejected():
    mesh = MeshTopology(4)
    with pytest.raises(ValueError):
        mesh.hops(0, 4)
    with pytest.raises(ValueError):
        mesh.hops(-1, 0)


def test_zero_nodes_rejected():
    with pytest.raises(ValueError):
        MeshTopology(0)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 7, 8, 12, 16, 24, 32, 48, 64, 100])
def test_all_nodes_fit_in_grid(n):
    mesh = MeshTopology(n)
    assert mesh.rows * mesh.cols >= n
    for node in range(n):
        row, col = divmod(node, mesh.cols)
        assert 0 <= row < mesh.rows
        assert 0 <= col < mesh.cols
