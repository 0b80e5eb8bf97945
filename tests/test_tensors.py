"""Tests for rotations, grids, projection, tensor file I/O and the CSV
table format."""

import math
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import sfn
from fixtures import blob_volume
from oracles import _reference_box, brute_force_projection, quaternion, reference_rotate_volume, rotation_angle
from sfn.errors import ArgumentError, ShapeError
from sfn.tensors import (
    Rotation,
    RotationGrid,
    RotationPlan,
    as_tensor,
    box_index,
    project_volume,
    read_meta,
    read_table,
    read_tensor,
    rotate_volume,
    sample_rotation_grid,
    table_text,
    wrapped_slices,
    write_meta,
    write_table,
    write_tensor,
)


def _pcc(a, b):
    a = a.ravel() - a.mean()
    b = b.ravel() - b.mean()
    return float(a @ b / (np.linalg.norm(a) * np.linalg.norm(b)))


class TestRotation:
    def test_identity_matrix(self):
        np.testing.assert_allclose(Rotation.identity().as_matrix(), np.eye(3), atol=1e-15)

    def test_axis_angle_quarter_turn(self):
        """90 degrees about z maps x-axis onto y-axis."""
        r = Rotation.from_axis_angle([0, 0, 1], np.pi / 2)
        np.testing.assert_allclose(r.as_matrix() @ [1, 0, 0], [0, 1, 0], atol=1e-15)

    def test_compose_matches_matrix_product(self):
        r1 = Rotation.from_axis_angle([1, 2, 0.5], 0.7)
        r2 = Rotation.from_axis_angle([-0.3, 1, 2], 1.9)
        np.testing.assert_allclose(
            r2.compose(r1).as_matrix(), r2.as_matrix() @ r1.as_matrix(), atol=1e-12
        )

    def test_inverse_matrix_is_transpose(self):
        r = Rotation.from_axis_angle([3, -1, 2], 2.2)
        np.testing.assert_allclose(r.inverse().as_matrix(), r.as_matrix().T, atol=1e-12)

    def test_angle_between(self):
        r1 = Rotation.from_axis_angle([0, 1, 0], 0.4)
        r2 = Rotation.from_axis_angle([0, 1, 0], 1.1)
        np.testing.assert_allclose(rotation_angle(r1, r2), 0.7, atol=1e-12)
        # sign flip of the quaternion is the same rotation
        flipped = Rotation.from_quaternion(-quaternion(r1))
        assert rotation_angle(r1, flipped) <= 1e-12

    def test_rejects_non_unit_quaternion(self):
        with pytest.raises(ArgumentError):
            Rotation(1.0, 1.0, 0.0, 0.0)


class TestRotateVolume:
    def test_identity_is_exact(self):
        v = blob_volume(12)
        np.testing.assert_allclose(rotate_volume(v, Rotation.identity()), v, atol=1e-12)

    def test_center_is_fixed_point_trilinear(self):
        n = 9
        v = np.zeros((n, n, n))
        v[4, 4, 4] = 1.0
        r = sample_rotation_grid(1, 42)[0]
        out = rotate_volume(v, r)
        np.testing.assert_allclose(out[4, 4, 4], 1.0, atol=1e-9)

    def test_composition(self):
        """Rotating twice matches the composed rotation up to resampling."""
        v = blob_volume(24)
        r1 = Rotation.from_axis_angle([1, 0.2, -0.5], 0.9)
        r2 = Rotation.from_axis_angle([0.1, 1, 0.4], -1.3)
        twice = rotate_volume(rotate_volume(v, r1), r2)
        once = rotate_volume(v, r2.compose(r1))
        assert _pcc(twice, once) >= 0.98

    def test_norm_roughly_preserved(self):
        """Frobenius norm of a smooth centered blob survives within 2%."""
        v = blob_volume(24, centers=[(0.5, 0.5, 0.5)], widths=[0.12], weights=[1.0])
        for seed in (1, 2, 3):
            r = sample_rotation_grid(1, seed)[0]
            out = rotate_volume(v, r)
            assert abs(np.linalg.norm(out) - np.linalg.norm(v)) <= 0.02 * np.linalg.norm(v)

    def test_round_trip_correlation(self):
        v = blob_volume(24)
        r = sample_rotation_grid(1, 7)[0]
        back = rotate_volume(rotate_volume(v, r), r.inverse())
        assert _pcc(back, v) >= 0.97

    def test_rejects_non_cubic(self):
        with pytest.raises(ShapeError):
            rotate_volume(np.zeros((4, 4, 5)), Rotation.identity())


def _turns():
    """Identity, quarter and half turns about each axis: their source
    coordinates are integers, landing exactly on 0 and n - 1."""
    turns = [Rotation.identity()]
    for axis in np.eye(3):
        turns += [Rotation.from_axis_angle(axis, angle) for angle in (np.pi / 2, np.pi, -np.pi / 2)]
    return turns


class TestRotationPlan:
    """``RotationPlan`` reproduces ``scipy.ndimage.affine_transform``
    (``oracles.reference_rotate_volume``) byte for byte. ``interp`` names
    the reference's interpolation, the trilinear one the plan has."""

    SIDES = [1, 8, 15, 16, 24]

    @staticmethod
    def _reference(volumes, rotations, interp):
        return np.stack(
            [reference_rotate_volume(v, r, interp) for v, r in zip(volumes, rotations)]
        )

    @pytest.mark.parametrize("n", SIDES)
    @pytest.mark.parametrize("interp", ["trilinear"])
    @pytest.mark.parametrize("count, seed", [(12, 1), (20, 2)])
    def test_random_grid(self, n, interp, count, seed):
        rotations = list(sample_rotation_grid(count, seed))
        v = np.random.default_rng(seed).standard_normal((n, n, n))
        out = RotationPlan(n, rotations).apply(v)
        assert out.tobytes() == self._reference([v] * count, rotations, interp).tobytes()

    @pytest.mark.parametrize("n", SIDES)
    @pytest.mark.parametrize("interp", ["trilinear"])
    def test_identity_quarter_and_half_turns(self, n, interp):
        rotations = _turns()
        v = np.random.default_rng(n).standard_normal((n, n, n))
        out = RotationPlan(n, rotations).apply(v)
        assert out.tobytes() == self._reference([v] * len(rotations), rotations, interp).tobytes()
        assert out[0].tobytes() == (v + 0.0).tobytes()

    @pytest.mark.parametrize("interp", ["trilinear"])
    def test_stacked_input(self, interp):
        """Volume r of a stack turns under rotation r, as in the M-step's
        back-rotation."""
        rotations = [r.inverse() for r in sample_rotation_grid(12, 3)] + _turns()
        stack = np.random.default_rng(4).standard_normal((len(rotations), 16, 16, 16))
        out = RotationPlan(16, rotations).apply(stack)
        assert out.tobytes() == self._reference(stack, rotations, interp).tobytes()

    @pytest.mark.parametrize("interp", ["trilinear"])
    def test_non_contiguous_input(self, interp):
        rotations = list(sample_rotation_grid(5, 5))
        base = np.random.default_rng(5).standard_normal((30, 15, 16))
        v = base[::2, :, ::-1][:, :, :15].transpose(2, 0, 1)
        assert not v.flags.c_contiguous
        out = RotationPlan(15, rotations).apply(v)
        assert out.tobytes() == self._reference([v] * 5, rotations, interp).tobytes()

    @pytest.mark.parametrize("interp", ["trilinear"])
    @pytest.mark.parametrize("zero", [0.0, -0.0])
    def test_zero_volume(self, interp, zero):
        """A zero volume of either sign rotates to +0.0 everywhere, as the
        reference's sum that starts at 0.0 gives."""
        rotations = list(sample_rotation_grid(6, 6)) + _turns()
        v = np.full((8, 8, 8), zero)
        out = RotationPlan(8, rotations).apply(v)
        assert out.tobytes() == self._reference([v] * len(rotations), rotations, interp).tobytes()
        assert out.tobytes() == np.zeros(out.shape).tobytes()

    @pytest.mark.parametrize("n", [8, 15])
    @pytest.mark.parametrize("interp", ["trilinear"])
    @pytest.mark.parametrize("kind", ["minus_one", "signed_zeros"])
    def test_outside_voxels_are_positive_zero(self, n, interp, kind):
        """Volumes of -1.0, and volumes holding -0.0, single and stacked
        (volume r scaled by r + 1): the bytes of the reference, and +0.0 at
        every voxel whose source point falls outside the volume."""
        rotations = list(sample_rotation_grid(12, 9)) + _turns()
        if kind == "minus_one":
            v = np.full((n, n, n), -1.0)
        else:
            v = np.random.default_rng(n).standard_normal((n, n, n))
            v[::2] = -0.0
            v[1::3] = 0.0
        stack = np.stack([v * (r + 1) for r in range(len(rotations))])
        plan = RotationPlan(n, rotations)
        ones = np.ones((n, n, n))
        outside = np.stack([reference_rotate_volume(ones, r, interp) == 0.0 for r in rotations])
        assert outside.any() and not outside.all()
        for volumes, out in (([v] * len(rotations), plan.apply(v)), (stack, plan.apply(stack))):
            assert out.tobytes() == self._reference(volumes, rotations, interp).tobytes()
            assert not np.signbit(out[outside]).any()

    @pytest.mark.parametrize("interp", ["trilinear"])
    def test_rotate_volume_is_a_one_rotation_plan(self, interp):
        v = blob_volume(16)
        for r in list(sample_rotation_grid(4, 7)) + _turns():
            assert rotate_volume(v, r).tobytes() == reference_rotate_volume(v, r, interp).tobytes()

    def test_rejects_other_shapes(self):
        plan = RotationPlan(4, list(sample_rotation_grid(3, 8)))
        for shape in [(4, 4, 5), (2, 4, 4, 4), (4, 4)]:
            with pytest.raises(ShapeError):
                plan.apply(np.zeros(shape))


class TestProjectVolume:
    def test_matches_brute_force(self):
        rng = np.random.default_rng(3)
        v = rng.standard_normal((7, 7, 7))
        np.testing.assert_allclose(project_volume(v), brute_force_projection(v), atol=1e-9)

    def test_output_axes_are_first_two(self):
        v = np.zeros((5, 5, 5))
        v[1, 3, :] = 2.0
        out = project_volume(v)
        assert out.shape == (5, 5)
        assert out[1, 3] == 10.0
        assert out.sum() == 10.0

    def test_rejects_2d(self):
        with pytest.raises(ShapeError):
            project_volume(np.zeros((5, 5)))


class TestRotationGrid:
    def test_deterministic_per_seed(self):
        a = sample_rotation_grid(32, 11)
        b = sample_rotation_grid(32, 11)
        c = sample_rotation_grid(32, 12)
        np.testing.assert_array_equal(a.quaternions, b.quaternions)
        assert not np.array_equal(a.quaternions, c.quaternions)

    def test_mean_pairwise_angle_is_uniform(self):
        """Uniform rotations average ~126.48 degrees apart (pi/2 + 2/pi)."""
        grid = sample_rotation_grid(10_000, 5)
        q = grid.quaternions
        total = 0.0
        pairs = 0
        block = 1000
        for start in range(0, len(q), block):
            rows = q[start : start + block]
            dots = np.abs(rows @ q.T)
            np.clip(dots, 0.0, 1.0, out=dots)
            angles = 2.0 * np.arccos(dots)
            mask = np.zeros_like(angles, dtype=bool)
            for i in range(len(rows)):
                mask[i, start + i + 1 :] = True
            total += angles[mask].sum()
            pairs += mask.sum()
        mean_deg = np.degrees(total / pairs)
        assert abs(mean_deg - 126.476) <= 1.0

    def test_rejects_duplicate_rotations(self):
        r = Rotation.from_axis_angle([1, 0, 0], 0.5)
        with pytest.raises(ArgumentError):
            RotationGrid(np.stack([quaternion(r), quaternion(r)]), seed=-1)

    def test_identity_grid(self):
        grid = RotationGrid.identity()
        assert len(grid) == 1
        np.testing.assert_allclose(grid[0].as_matrix(), np.eye(3), atol=1e-15)


class TestBoxIndex:
    @pytest.mark.parametrize("dims", [(9, 12), (7, 8, 10)])
    @pytest.mark.parametrize("side", [1, 2, 3, 4, 7])
    def test_matches_reference_boxes(self, dims, side):
        """Every gathered box equals the reference box of its centre,
        including centres at 0 and at dim - 1 whose boxes wrap."""
        canvas = np.random.default_rng(60).standard_normal(dims)
        rng = np.random.default_rng(61)
        centres = np.concatenate(
            [
                np.zeros((1, len(dims)), dtype=np.int64),
                np.array([dims]) - 1,
                rng.integers(0, dims, size=(5, len(dims))),
            ]
        )
        boxes = canvas[box_index(centres, side, dims)]
        assert boxes.shape == (len(centres),) + (side,) * len(dims)
        for centre, box in zip(centres, boxes):
            np.testing.assert_array_equal(box, canvas[_reference_box(centre, side, dims)])

    def test_one_centre_as_a_tuple(self):
        canvas = np.arange(48.0).reshape(6, 8)
        box = canvas[box_index((5, 0), 3, canvas.shape)]
        np.testing.assert_array_equal(box[0], canvas[_reference_box((5, 0), 3, canvas.shape)])

    @pytest.mark.parametrize("dims", [(9, 12), (7, 8, 10)])
    def test_zero_centres(self, dims):
        canvas = np.zeros(dims)
        centres = np.empty((0, len(dims)), dtype=np.int64)
        assert canvas[box_index(centres, 4, dims)].shape == (0,) + (4,) * len(dims)
        assert canvas[box_index([], 4, dims)].shape == (0,) + (4,) * len(dims)

    def test_writes_through_the_index(self):
        canvas = np.zeros((6, 6))
        canvas[box_index([(0, 0)], 3, canvas.shape)] += 1.0
        expected = np.zeros((6, 6))
        expected[_reference_box((0, 0), 3, (6, 6))] = 1.0
        np.testing.assert_array_equal(canvas, expected)


@st.composite
def _wrapped_boxes(draw):
    """A 2D or 3D canvas shape, a box side (up to three times the smallest
    axis), and a low corner anywhere within three canvas widths of it."""
    dims = tuple(draw(st.lists(st.integers(1, 7), min_size=2, max_size=3)))
    side = draw(st.integers(1, 3 * min(dims)))
    start = tuple(draw(st.integers(-3 * dim, 3 * dim)) for dim in dims)
    return dims, side, start


class TestWrappedSlices:
    """``wrapped_slices`` reads and writes exactly the elements that
    ``box_index`` does for the box centred ``side // 2`` past its corner."""

    @settings(max_examples=300, deadline=None, derandomize=True, suppress_health_check=[HealthCheck.too_slow])
    @given(box=_wrapped_boxes())
    def test_same_elements_as_box_index(self, box):
        dims, side, start = box
        canvas = np.arange(float(np.prod(dims))).reshape(dims)
        index = box_index([k + side // 2 for k in start], side, dims)
        pairs = wrapped_slices(start, side, dims)
        if side <= min(dims):
            assert len(pairs) <= 2 ** len(dims)
        # reads: every box element is written once, from the element box_index reads
        read = np.zeros((side,) * len(dims))
        covered = np.zeros(read.shape, dtype=int)
        for destination, source in pairs:
            read[destination] = canvas[source]
            covered[destination] += 1
        assert (covered == 1).all()
        assert read.tobytes() == canvas[index][0].tobytes()
        # writes: the canvas elements reached are the ones box_index reaches
        written, expected = np.zeros(dims, dtype=bool), np.zeros(dims, dtype=bool)
        for _, source in pairs:
            written[source] = True
        expected[index] = True
        assert written.tobytes() == expected.tobytes()

    def test_one_pair_inside_the_canvas(self):
        pairs = wrapped_slices((2, 3), 4, (9, 12))
        assert pairs == [((slice(0, 4), slice(0, 4)), (slice(2, 6), slice(3, 7)))]


class TestTensorIO:
    @pytest.mark.parametrize(
        "values",
        [
            np.arange(23.0),
            np.arange(35.0).reshape(5, 7) / 3.0,
            np.arange(120.0).reshape(2, 3, 4, 5) - 60.0,
            (np.arange(60.0).reshape(3, 4, 5) / 7.0).transpose(2, 0, 1),
        ],
    )
    def test_payload_is_the_float64_bytes(self, tmp_path, values):
        """The payload is the little-endian float64 bytes of the whole
        array, non-contiguous input included."""
        path = write_tensor(tmp_path / "t.sfn", values)
        payload = path.read_bytes()[5 + 4 * values.ndim :]
        assert payload == np.ascontiguousarray(values, dtype="<f8").tobytes()

    def test_writing_adds_at_most_a_quarter_of_the_stack(self, tmp_path):
        """A 1000 x 16^3 float64 stack (31 MiB) is written from its own
        buffer, not from a copy of it."""
        stack = np.random.default_rng(62).standard_normal((1000, 16, 16, 16))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            write_tensor(tmp_path / "stack.sfn", stack)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - before < stack.nbytes / 4
        np.testing.assert_array_equal(read_tensor(tmp_path / "stack.sfn"), stack)

    def test_round_trip(self, tmp_path):
        """Every value reads back bit for bit, the sign of zero, subnormals
        and the extremes of the float64 range included."""
        rng = np.random.default_rng(9)
        arr = rng.standard_normal((5, 7, 3))
        arr.flat[:5] = [-0.0, 5e-324, -2.2250738585072014e-309, 1e308, -1e308]
        path = tmp_path / "v.sfn"
        write_tensor(path, arr)
        back = read_tensor(path)
        np.testing.assert_array_equal(back, arr)
        assert back.dtype == np.float64
        assert back.tobytes() == arr.tobytes()

    def test_stack_round_trip(self, tmp_path):
        rng = np.random.default_rng(10)
        stack = rng.standard_normal((6, 4, 4, 4))
        path = tmp_path / "stack.sfn"
        write_tensor(path, stack)
        assert read_tensor(path).shape == (6, 4, 4, 4)

    def test_header_layout(self, tmp_path):
        path = tmp_path / "t.sfn"
        write_tensor(path, np.arange(6.0).reshape(2, 3))
        blob = path.read_bytes()
        assert blob[:4] == b"SFN2"
        assert blob[4] == 2
        assert np.frombuffer(blob[5:13], dtype="<u4").tolist() == [2, 3]
        assert blob[13:] == np.arange(6, dtype="<f8").tobytes()

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.sfn"
        path.write_bytes(b"NOPE" + bytes(10))
        with pytest.raises(ArgumentError):
            read_tensor(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "short.sfn"
        write_tensor(path, np.ones((4, 4)))
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(ArgumentError):
            read_tensor(path)

    @pytest.mark.parametrize("change, size", [(-1, 127), (1, 129)])
    def test_payload_one_byte_off(self, tmp_path, change, size):
        """A payload one byte short or one byte long is rejected."""
        path = write_tensor(tmp_path / "off.sfn", np.ones((4, 4)))
        blob = path.read_bytes()
        path.write_bytes(blob[:change] if change < 0 else blob + b"\x00")
        with pytest.raises(ArgumentError, match=f"payload holds {size} bytes, expected 128"):
            read_tensor(path)

    def test_rejects_non_finite(self, tmp_path):
        with pytest.raises(ArgumentError):
            write_tensor(tmp_path / "nan.sfn", np.array([np.nan, 1.0]))

    @pytest.mark.parametrize("shape", [(0,), (0, 4), (3, 0, 2), (2, 2, 2, 0)])
    def test_rejects_an_empty_axis_and_leaves_no_file(self, tmp_path, shape):
        """``read_tensor`` rejects a zero dim, so such a file is never written."""
        path = tmp_path / "empty.sfn"
        with pytest.raises(ShapeError):
            write_tensor(path, np.empty(shape))
        assert not path.exists()

    def test_as_tensor_guards(self):
        with pytest.raises(ShapeError):
            as_tensor(np.zeros((2, 2, 2, 2)))
        with pytest.raises(ArgumentError):
            as_tensor(np.array([np.inf]))


_EDGE_FLOATS = [math.inf, -math.inf, 5e-324, -2.2250738585072014e-308, 1e308, -1e308, -0.0]
_CELLS = st.one_of(
    st.floats(allow_nan=False),
    st.sampled_from(_EDGE_FLOATS),
    st.floats(allow_nan=False).map(np.float64),
    st.integers(min_value=-(2 ** 63), max_value=2 ** 63 - 1).map(np.int64),
    st.integers(),
    st.booleans(),
    st.text(alphabet=st.sampled_from(' ,"\'ab;x0.-'), max_size=8),
    st.text(alphabet=st.characters(min_codepoint=32, max_codepoint=126), max_size=12),
)
_TABLE = settings(
    max_examples=300,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)


def _assert_same_cell(text, value):
    """``text`` as read back is the cell that was written."""
    if isinstance(value, (bool, np.bool_)):
        assert text == str(value)
    elif isinstance(value, (float, np.floating)):
        back = float(text)
        assert back == value and math.copysign(1.0, back) == math.copysign(1.0, value)
    elif isinstance(value, (int, np.integer)):
        assert int(text) == value
    else:
        assert text == value


class TestTableFormat:
    @_TABLE
    @given(rows=st.lists(st.lists(_CELLS, min_size=3, max_size=3), max_size=6))
    def test_table_round_trip(self, rows):
        header = ["a", "b,c", 'd"e']
        with tempfile.TemporaryDirectory() as directory:
            path = write_table(Path(directory) / "t.csv", header, rows)
            assert Path(path).read_bytes() == table_text(header, rows).encode()
            read_header, read_rows = read_table(path, header)
        assert read_header == header
        assert len(read_rows) == len(rows)
        for row, read in zip(rows, read_rows):
            for column, value in zip(header, row):
                _assert_same_cell(read[column], value)

    @_TABLE
    @given(values=st.lists(_CELLS, min_size=1, max_size=6))
    def test_meta_round_trip(self, values):
        items = [(f"key{i}", value) for i, value in enumerate(values)]
        with tempfile.TemporaryDirectory() as directory:
            path = write_meta(Path(directory) / "m.csv", items)
            meta = read_meta(path, [key for key, _ in items])
        for key, value in items:
            _assert_same_cell(meta[key], value)

    def test_floats_written_with_seventeen_digits(self):
        text = table_text(["x", "y", "z"], [(0.1, np.float32(0.1), np.int64(3)), (-0.0, math.inf, True)])
        assert text == "x,y,z\r\n0.10000000000000001,0.10000000149011612,3\r\n-0,inf,True\r\n"

    def test_only_tensors_writes_csv(self):
        """Every CSV artifact goes through ``write_table``: no other module
        makes a ``csv.writer``."""
        package = Path(sfn.__file__).parent
        writers = sorted(
            path.name for path in package.glob("*.py") if "csv.writer(" in path.read_text()
        )
        assert writers == ["tensors.py"]
