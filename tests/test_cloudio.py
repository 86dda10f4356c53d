"""Cloud file IO tests: text and binary round trips, parse errors."""
import numpy as np
import pytest

from octoplan.cloudio import read_binary, read_xyz, write_binary, write_xyz
from octoplan.errors import CloudParseError
from octoplan.geometry import PointCloud


def random_cloud(rng, n, d):
    return PointCloud(rng.uniform(-50.0, 50.0, size=(n, d)))


def test_xyz_round_trip_is_bit_exact_3d(tmp_path):
    cloud = random_cloud(np.random.default_rng(1), 200, 3)
    path = tmp_path / "pts.xyz"
    write_xyz(cloud, path)
    back = read_xyz(path)
    assert back.dim == 3
    assert np.array_equal(back.points, cloud.points)


def test_xyz_round_trip_2d_infers_dim(tmp_path):
    cloud = random_cloud(np.random.default_rng(2), 150, 2)
    path = tmp_path / "pts.xyz"
    write_xyz(cloud, path)
    back = read_xyz(path)
    assert back.dim == 2
    assert np.array_equal(back.points, cloud.points)


def test_xyz_dim_override(tmp_path):
    cloud = random_cloud(np.random.default_rng(3), 20, 2)
    path = tmp_path / "pts.xyz"
    write_xyz(cloud, path)
    back = read_xyz(path, dim=3)
    assert back.dim == 3
    assert np.array_equal(back.points[:, :2], cloud.points)
    assert not back.points[:, 2].any()


# Coordinates whose repr is easy to get wrong: signed zero, the smallest
# subnormal, the largest float and integral values.
AWKWARD = np.array([[-0.0, 5e-324, 1.7976931348623157e308],
                    [3.0, -2.0, 0.0],
                    [-1.7976931348623157e308, -5e-324, 1e16],
                    [0.1, 123456789.0, -7.25]])


def row_at_a_time(pts):
    """The xyz text written one row at a time, z = 0.0 for a 2-D cloud."""
    return "".join(f"{r[0]!r} {r[1]!r} {r[2] if len(r) == 3 else 0.0!r}\n"
                   for r in pts.tolist())


@pytest.mark.parametrize("pts", [AWKWARD, AWKWARD[:, :2],
                                 np.asfortranarray(AWKWARD)],
                         ids=["3d", "2d", "fortran"])
def test_xyz_text_equals_row_at_a_time_text(tmp_path, pts):
    path = tmp_path / "pts.xyz"
    write_xyz(PointCloud(pts), path)
    assert path.read_bytes() == row_at_a_time(pts).encode()
    assert read_xyz(path).points.tobytes() == pts.tobytes()


def test_xyz_skips_blank_lines(tmp_path):
    path = tmp_path / "pts.xyz"
    path.write_text("1.0 2.0 3.0\n\n   \n4.0 5.0 6.0\n")
    back = read_xyz(path)
    assert len(back) == 2


def test_xyz_empty_round_trip(tmp_path):
    path = tmp_path / "pts.xyz"
    write_xyz(PointCloud.empty(3), path)
    assert len(read_xyz(path)) == 0
    assert read_xyz(path, dim=2).dim == 2


def test_xyz_parse_error_names_line(tmp_path):
    path = tmp_path / "bad.xyz"
    path.write_text("1.0 2.0 3.0\n1.0 2.0\n")
    with pytest.raises(CloudParseError) as err:
        read_xyz(path)
    assert err.value.line == 2
    assert f"{path}:2:" in str(err.value)


def test_xyz_parse_error_on_non_numeric(tmp_path):
    path = tmp_path / "bad.xyz"
    path.write_text("1.0 2.0 3.0\n1.0 spam 3.0\n")
    with pytest.raises(CloudParseError) as err:
        read_xyz(path)
    assert err.value.line == 2


def test_xyz_rejects_nonzero_third_column_in_2d_read(tmp_path):
    path = tmp_path / "pts.xyz"
    path.write_text("1.0 2.0 3.0\n")
    with pytest.raises(CloudParseError):
        read_xyz(path, dim=2)


def test_binary_round_trip_is_bit_exact(tmp_path):
    for d in (2, 3):
        cloud = random_cloud(np.random.default_rng(4 + d), 300, d)
        path = tmp_path / f"pts{d}.bin"
        write_binary(cloud, path)
        back = read_binary(path)
        assert back.dim == d
        assert np.array_equal(back.points, cloud.points)


def test_binary_empty_round_trip(tmp_path):
    path = tmp_path / "pts.bin"
    write_binary(PointCloud.empty(2), path)
    assert len(read_binary(path)) == 0


def test_binary_truncated_header(tmp_path):
    path = tmp_path / "pts.bin"
    path.write_bytes(b"\x01\x02")
    with pytest.raises(CloudParseError):
        read_binary(path)


def test_binary_payload_size_mismatch(tmp_path):
    path = tmp_path / "pts.bin"
    path.write_bytes((5).to_bytes(8, "little") + b"\x00" * 16)
    with pytest.raises(CloudParseError) as err:
        read_binary(path)
    assert "120" in str(err.value)


def test_xyz_non_finite_names_row(tmp_path):
    path = tmp_path / "pts.xyz"
    path.write_text("1 2 0\n\n4 5 0\n4 inf 0\n")
    with pytest.raises(CloudParseError) as err:
        read_xyz(path)
    assert err.value.line == 3


def test_binary_non_finite_names_row(tmp_path):
    pts = np.array([[0.0, 1.0, 2.0], [np.nan, 1.0, 2.0]])
    path = tmp_path / "pts.bin"
    path.write_bytes((2).to_bytes(8, "little") + pts.astype("<f8").tobytes())
    with pytest.raises(CloudParseError) as err:
        read_binary(path)
    assert err.value.line == 2
