import json

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from interfero import csd, harness, io, linalg
from interfero.errors import ParseError


def test_matrix_round_trip(tmp_path):
    u = linalg.haar_random_unitary(4, seed=1)
    path = tmp_path / "u.json"
    io.write_matrix(u, path)
    back = io.read_matrix(path)
    assert np.array_equal(back, u)


def test_matrix_json_schema_fields():
    obj = io.matrix_to_json(np.eye(2))
    assert obj["schema"] == "v1"
    assert obj["rows"] == 2 and obj["cols"] == 2
    assert obj["re"] == [1.0, 0.0, 0.0, 1.0]
    assert obj["im"] == [0.0, 0.0, 0.0, 0.0]


def test_matrix_json_errors(tmp_path):
    with pytest.raises(ParseError):
        io.matrix_from_json({"schema": "v2", "rows": 1, "cols": 1,
                             "re": [1.0], "im": [0.0]})
    with pytest.raises(ParseError):
        io.matrix_from_json({"schema": "v1", "rows": 2, "cols": 2,
                             "re": [1.0], "im": [0.0]})
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ParseError):
        io.load_json(bad)


def test_plan_round_trip(tmp_path):
    u = linalg.haar_random_unitary(6, seed=2)
    plan = csd.decompose(u, 3, 2)
    path = tmp_path / "plan.json"
    io.write_plan(plan, path)
    back = io.read_plan(path)
    assert back.n_s == 3 and back.n_p == 2
    assert back.census() == plan.census()
    assert linalg.trace_distance(csd.reconstruct(back), u) < 1e-12


def test_bundle_round_trip(tmp_path):
    u = linalg.haar_random_unitary(3, seed=3)
    ds = harness.simulate_dataset(u, 0.95, seed=9)
    io.write_bundle(ds, tmp_path / "bundle", seed=9)
    back = io.read_bundle(tmp_path / "bundle")
    assert back.m == ds.m and back.n_blocks == ds.n_blocks
    assert np.array_equal(back.single_counts, ds.single_counts)
    assert set(back.coincidence) == set(ds.coincidence)
    for key in ds.coincidence:
        assert np.array_equal(back.coincidence[key][1],
                              ds.coincidence[key][1])
    assert np.array_equal(back.calibration_single, ds.calibration_single)
    assert np.array_equal(back.calibration_curve[1],
                          ds.calibration_curve[1])
    for s1, s2 in zip(back.spectra, ds.spectra):
        assert np.max(np.abs(s1.values - s2.values)) < 1e-12


def test_bundle_column_errors_name_the_first_bad_token(tmp_path):
    # a bad token anywhere in a column raises that token's error; the first
    # bad token wins, and the tau column is read before the count column
    u = linalg.haar_random_unitary(3, seed=3)
    io.write_bundle(harness.simulate_dataset(u, 0.95, seed=9),
                    tmp_path / "bundle", seed=9)
    path = tmp_path / "bundle" / "coincidence" / "1_2_1_2.csv"
    header, *rows = path.read_text().splitlines(True)
    edits = [({20: "{tau},-3.0\n"}, "negative count '-3.0'"),
             ({20: "{tau},inf\n", 25: "{tau},-3.0\n"},
              "not a finite number: 'inf'"),
             ({10: "{tau},-3.0\n", 30: "soon,{count}\n"},
              "not a number: 'soon'")]
    for edit, message in edits:
        lines = list(rows)
        for k, text in edit.items():
            tau, count = lines[k].rstrip("\n").split(",")
            lines[k] = text.format(tau=tau, count=count)
        path.write_text(header + "".join(lines))
        with pytest.raises(ParseError) as exc:
            io.read_bundle(tmp_path / "bundle")
        assert str(exc.value) == f"{message} in {path}"
    path.write_text(header + "".join(rows))
    back = io.read_bundle(tmp_path / "bundle")
    tau, count = back.coincidence[(1, 2, 1, 2)]
    assert tau.dtype == count.dtype == np.float64
    assert [repr(float(x)) for x in tau] == [r.split(",")[0] for r in rows]


def test_bundle_without_calibration(tmp_path):
    u = linalg.haar_random_unitary(3, seed=4)
    ds = harness.simulate_dataset(u, 1.0, seed=1, include_calibration=False)
    io.write_bundle(ds, tmp_path / "b", seed=1)
    back = io.read_bundle(tmp_path / "b")
    assert back.calibration_single is None
    assert back.calibration_curve is None


def test_json_output_is_deterministic(tmp_path):
    obj = {"b": 1, "a": [1.5, 2.25], "schema": "v1"}
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    io.dump_json(obj, p1)
    io.dump_json(obj, p2)
    assert p1.read_bytes() == p2.read_bytes()
    assert p1.read_bytes().endswith(b"\n")


def test_plot_csv(tmp_path):
    path = tmp_path / "p.csv"
    io.write_plot_csv([(0, 1.5, "full"), (1, 2.5, "full")], path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "x,y,series"
    assert lines[1] == "0.0,1.5,full"


# ---------------------------------------------------------------------------
# round-trip properties
# ---------------------------------------------------------------------------
@st.composite
def complex_matrices(draw):
    """(rows, cols, parts): interleaved real and imaginary finite floats."""
    rows, cols = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    finite = st.floats(allow_nan=False, allow_infinity=False)
    return rows, cols, draw(st.lists(finite, min_size=2 * rows * cols,
                                     max_size=2 * rows * cols))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(complex_matrices())
# signed zeros, the smallest subnormal and the largest finite float
@example((1, 4, [0.0, -0.0, 5e-324, -5e-324, 1.7976931348623157e308,
                 -1.7976931348623157e308, -0.0, 0.0]))
def test_matrix_json_round_trip_is_bit_exact(matrix):
    rows, cols, parts = matrix
    m = np.empty((rows, cols), dtype=complex)
    m.real = np.reshape(parts[0::2], (rows, cols))
    m.imag = np.reshape(parts[1::2], (rows, cols))
    back = io.matrix_from_json(json.loads(io.json_text(io.matrix_to_json(m))))
    assert back.shape == m.shape
    assert back.tobytes() == m.tobytes()


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(n_s=st.integers(1, 4), n_p=st.integers(1, 3),
       seed=st.integers(0, 2 ** 32 - 1))
def test_plan_json_round_trip_reconstructs_bitwise(n_s, n_p, seed):
    u = linalg.haar_random_unitary(n_s * n_p, seed=seed)
    plan = csd.decompose(u, n_s, n_p)
    back = io.plan_from_json(json.loads(io.json_text(io.plan_to_json(plan))))
    assert (back.n_s, back.n_p) == (n_s, n_p)
    assert back.census() == plan.census()
    assert csd.reconstruct(back).tobytes() == csd.reconstruct(plan).tobytes()
