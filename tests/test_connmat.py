import numpy as np
import pytest

from locus.connmat import (ConnectivityDataset, edge_count, edge_labels,
                           fisher_z, load_dataset, nodes_from_edge_count,
                           read_csv, save_dataset, triu_indices, unvectorize,
                           vectorize)
from locus.errors import DimensionError, ValidationError


class TestEdgeIndexMap:
    """The map between edge index k and node pair (u, v) that
    ``triu_indices`` defines: row-major over the upper triangle."""

    def test_enumeration_order_matches_row_major_upper_triangle(self):
        rows, cols = triu_indices(4)
        expected = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
        assert list(zip(rows.tolist(), cols.tolist())) == expected

    def test_forward_inverse_identity(self):
        # vectorize is the forward map (u, v) -> k, triu_indices the inverse
        rows, cols = triu_indices(9)
        for k in range(edge_count(9)):
            m = np.zeros((9, 9))
            m[rows[k], cols[k]] = m[cols[k], rows[k]] = 1.0
            assert np.flatnonzero(vectorize(m)).tolist() == [k]

    def test_bijection_hits_every_index_once(self):
        rows, cols = triu_indices(7)
        pairs = list(zip(rows.tolist(), cols.tolist()))
        assert len(pairs) == edge_count(7)
        assert sorted(pairs) == [(u, v) for u in range(7) for v in range(u + 1, 7)]


class TestVectorize:
    def test_three_node_example(self):
        m = np.array([[0, 1, 2], [1, 0, 3], [2, 3, 0]], dtype=float)
        assert vectorize(m).tolist() == [1, 2, 3]

    def test_two_node_single_edge(self):
        m = np.array([[5.0, 7.0], [7.0, 5.0]])
        assert vectorize(m).tolist() == [7.0]

    def test_random_matrix_matches_index_map(self):
        rng = np.random.default_rng(7)
        a = rng.standard_normal((4, 4))
        m = a + a.T
        rows, cols = triu_indices(4)
        s = vectorize(m)
        for k, (u, v) in enumerate(zip(rows, cols)):
            assert s[k] == m[u, v]

    def test_asymmetric_rejected_with_worst_pair_named(self):
        m = np.array([[0, 1.0, 2], [1, 0, 3], [2, 3.5, 0]])
        with pytest.raises(ValidationError, match=r"\(2, 3\)|\(3, 2\)"):
            vectorize(m)

    def test_tiny_asymmetry_symmetrized(self):
        m = np.array([[0.0, 1.0], [1.0 + 1e-13, 0.0]])
        assert vectorize(m).tolist() == [(1.0 + (1.0 + 1e-13)) / 2]

    def test_non_square_rejected(self):
        with pytest.raises(ValidationError):
            vectorize(np.zeros((2, 3)))


class TestUnvectorize:
    def test_inverse_of_example(self):
        m = unvectorize(np.array([1.0, 2.0, 3.0]), 3)
        assert m.tolist() == [[0, 1, 2], [1, 0, 3], [2, 3, 0]]

    def test_zero_vector(self):
        assert not unvectorize(np.zeros(10), 5).any()

    def test_round_trip_bit_identical(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            s = rng.standard_normal(45)
            assert np.array_equal(vectorize(unvectorize(s, 10)), s)

    def test_length_mismatch(self):
        with pytest.raises(DimensionError):
            unvectorize(np.zeros(5), 4)


class TestDataset:
    def test_p_v_mismatch_rejected(self):
        with pytest.raises(DimensionError):
            ConnectivityDataset(data=np.zeros((3, 7)), node_count=4)

    def test_fewer_than_two_nodes_rejected(self):
        with pytest.raises(DimensionError):
            ConnectivityDataset(data=np.zeros((3, 0)), node_count=1)

    def test_non_finite_rejected(self):
        data = np.zeros((2, 6))
        data[1, 3] = np.nan
        with pytest.raises(ValidationError, match="non_finite"):
            ConnectivityDataset(data=data, node_count=4)

    def test_immutable_after_construction(self):
        ds = ConnectivityDataset(data=np.zeros((2, 6)), node_count=4)
        with pytest.raises(ValueError):
            ds.data[0, 0] = 1.0

    def test_read_only_owned_array_adopted_without_copy(self):
        arr = np.ones((2, 6))
        arr.setflags(write=False)
        assert ConnectivityDataset(data=arr, node_count=4).data is arr

    def test_other_inputs_copied(self):
        writable = np.arange(12.0).reshape(2, 6)
        ds = ConnectivityDataset(data=writable, node_count=4)
        assert ds.data is not writable and writable.flags.writeable
        writable[0, 0] = 99.0
        assert ds.data[0, 0] == 0.0
        # a read-only view does not own its memory
        view = np.arange(24.0).reshape(4, 6)[::2]
        view.setflags(write=False)
        assert ConnectivityDataset(data=view, node_count=4).data is not view

    def test_nodes_from_edge_count_rejects_non_triangular(self):
        assert nodes_from_edge_count(6) == 4
        with pytest.raises(DimensionError):
            nodes_from_edge_count(7)


class TestFisherZ:
    def test_closed_form(self):
        assert abs(fisher_z(np.array([0.5]))[0] - np.arctanh(0.5)) < 1e-12

    def test_domain_violation(self):
        with pytest.raises(ValidationError, match="fisher_z_domain"):
            fisher_z(np.array([0.2, 1.0]))


class TestReadCsv:
    TABLE = "1,2,3\n4.5,-6,7e-3\n8,9,10\n"

    @pytest.mark.parametrize("text", [
        TABLE,
        TABLE.replace("\n", "\r\n"),
        TABLE.replace("\n", "\r"),
        TABLE.rstrip("\n"),
        "\n1,2,3\n\n4.5,-6,7e-3\n\n\n8,9,10\n\n",
        "# a comment line\n1,2,3\n4.5,-6,7e-3\n# another\n8,9,10",
        "1,2,3\r\n4.5,-6,7e-3\r8,9,10\n",
    ], ids=["lf", "crlf", "cr", "no_final_newline", "blank_lines",
            "comments", "mixed"])
    @pytest.mark.parametrize("skiprows", [0, 1])
    def test_equals_loadtxt(self, tmp_path, text, skiprows):
        path = tmp_path / "t.csv"
        path.write_bytes(text.encode())
        expected = np.loadtxt(path, delimiter=",", skiprows=skiprows, ndmin=2)
        got = read_csv(str(path), skiprows=skiprows)
        assert got.shape == expected.shape
        assert np.array_equal(got, expected)

    def test_crlf_split_across_read_chunks(self, tmp_path):
        # the first read ends on the \r of a \r\n pair
        path = tmp_path / "t.csv"
        path.write_bytes(b"0" * ((1 << 20) - 1) + b"\r\n5\r\n")
        assert read_csv(str(path)).tolist() == [[0.0], [5.0]]

    @pytest.mark.parametrize("text", ["1_2,1_3,2_3\n", "1_2,1_3,2_3",
                                      "1_2,1_3,2_3\n\n"])
    def test_no_data_rows_is_empty(self, tmp_path, text):
        path = tmp_path / "edges.csv"
        path.write_text(text)
        with pytest.raises(ValidationError) as err:
            load_dataset(str(path))
        assert err.value.code == "empty"
        assert str(err.value) == f"[empty] {path}: no data rows"


class TestLoadSave:
    def test_square_directory(self, tmp_path):
        rng = np.random.default_rng(3)
        mats = {}
        for name in ("s2", "s10", "s1"):
            a = rng.standard_normal((4, 4))
            mats[name] = a + a.T
            np.savetxt(tmp_path / f"{name}.csv", mats[name], delimiter=",",
                       fmt="%.17g")
        ds = load_dataset(str(tmp_path))
        assert ds.n_subjects == 3
        assert ds.node_count == 4
        assert ds.n_edges == 6
        # rows follow sorted file names: "s10.csv" before "s2.csv"
        assert np.array_equal(ds.data, np.vstack(
            [vectorize(mats[name]) for name in ("s1", "s10", "s2")]))

    @pytest.mark.parametrize("square", [False, True])
    def test_unparsable_csv_is_bad_csv(self, tmp_path, square):
        if square:
            np.savetxt(tmp_path / "a.csv", np.eye(3), delimiter=",")
            bad, path = tmp_path / "b.csv", tmp_path
            bad.write_text("0,1,2\n1,0,x\n2,3,0\n")
        else:
            bad = path = tmp_path / "edges.csv"
            bad.write_text("1_2,1_3,2_3\n0.1,0.2,0.3\n0.4,abc,0.6\n")
        with pytest.raises(ValidationError, match="bad_csv") as err:
            load_dataset(str(path))
        assert err.value.code == "bad_csv"
        assert str(bad) in str(err.value)

    def test_square_directory_errors_name_the_code_once(self, tmp_path):
        (tmp_path / "a.csv").write_text("")
        with pytest.raises(ValidationError) as err:
            load_dataset(str(tmp_path))
        assert str(err.value).count(f"[{err.value.code}]") == 1
        (tmp_path / "a.csv").write_text("0,1\n2,0\n")
        with pytest.raises(ValidationError) as err:
            load_dataset(str(tmp_path))
        assert str(err.value).startswith(
            "[asymmetric] a.csv: matrix asymmetric at entry")
        (tmp_path / "a.csv").write_text("5\n")
        with pytest.raises(DimensionError,
                           match=r"^\[dimension_mismatch\] a.csv: need at least"):
            load_dataset(str(tmp_path))

    def test_square_directory_fills_one_array(self, tmp_path):
        for name in ("a", "b"):
            np.savetxt(tmp_path / f"{name}.csv", np.ones((3, 3)), delimiter=",")
        ds = load_dataset(str(tmp_path))
        assert ds.data.base is None and not ds.data.flags.writeable

    def test_non_finite_file_named(self, tmp_path):
        path = tmp_path / "edges.csv"
        path.write_text("1_2,1_3,2_3\n0.1,nan,0.3\n")
        with pytest.raises(ValidationError) as err:
            load_dataset(str(path))
        assert str(err.value) == f"[non_finite] {str(path)!r} contains NaN or Inf values"
        # the check precedes the Fisher-Z transform, so Inf is non_finite too
        path.write_text("1_2,1_3,2_3\n0.1,inf,0.3\n")
        with pytest.raises(ValidationError, match="non_finite"):
            load_dataset(str(path), fisher=True)

    def test_edge_csv_header_infers_nodes(self, tmp_path):
        path = tmp_path / "edges.csv"
        path.write_text("1_2,1_3,2_3\n0.1,0.2,0.3\n0.4,0.5,0.6\n")
        ds = load_dataset(str(path))
        assert ds.n_subjects == 2
        assert ds.node_count == 3

    def test_bad_header_order_rejected(self, tmp_path):
        path = tmp_path / "edges.csv"
        path.write_text("1_3,1_2,2_3\n0.1,0.2,0.3\n")
        with pytest.raises(ValidationError, match="bad_header"):
            load_dataset(str(path))

    def test_asymmetric_subject_rejected(self, tmp_path):
        m = np.array([[0, 1.0], [2.0, 0]])
        np.savetxt(tmp_path / "bad.csv", m, delimiter=",")
        with pytest.raises(ValidationError, match="asymmetric"):
            load_dataset(str(tmp_path))

    def test_inconsistent_dimensions_rejected(self, tmp_path):
        np.savetxt(tmp_path / "a.csv", np.zeros((3, 3)), delimiter=",")
        np.savetxt(tmp_path / "b.csv", np.zeros((4, 4)), delimiter=",")
        with pytest.raises(DimensionError):
            load_dataset(str(tmp_path))

    def test_fisher_z_opt_in(self, tmp_path):
        path = tmp_path / "edges.csv"
        path.write_text("1_2,1_3,2_3\n0.5,0.0,-0.5\n")
        plain = load_dataset(str(path))
        assert plain.data[0, 0] == 0.5
        transformed = load_dataset(str(path), fisher=True)
        assert abs(transformed.data[0, 0] - np.arctanh(0.5)) < 1e-12

    def test_fisher_z_domain_error(self, tmp_path):
        path = tmp_path / "edges.csv"
        path.write_text("1_2,1_3,2_3\n0.5,1.0,-0.5\n")
        with pytest.raises(ValidationError, match="fisher_z_domain"):
            load_dataset(str(path), fisher=True)

    def test_round_trip_preserves_data(self, tmp_path):
        rng = np.random.default_rng(5)
        ds = ConnectivityDataset(data=rng.standard_normal((4, 15)), node_count=6)
        out = tmp_path / "out.csv"
        save_dataset(ds, str(out))
        back = load_dataset(str(out))
        assert np.allclose(back.data, ds.data, rtol=1e-12, atol=0)
        save_dataset(back, str(tmp_path / "again.csv"))
        assert (tmp_path / "again.csv").read_text() == out.read_text()

    def test_edge_labels_one_based(self):
        assert edge_labels(3) == ["1_2", "1_3", "2_3"]
