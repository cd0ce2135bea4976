import numpy as np
import pytest

from unbcount.datasets import (
    Dataset,
    covariate_summary,
    frequency_table,
    load_csv,
    load_nmes,
    summarize,
    write_csv,
)
from unbcount.errors import DataError


def write_file(path, text):
    path.write_text(text, encoding="utf-8")
    return path


class TestLoadCsv:
    def test_well_formed(self, tmp_path):
        f = write_file(tmp_path / "d.csv", "y,a\n0,1.5\n2,0.25\n1,-3\n")
        data = load_csv(f, "y", ["a"])
        assert data.n == 3
        assert list(data.columns["y"]) == [0.0, 2.0, 1.0]
        assert list(data.columns["a"]) == [1.5, 0.25, -3.0]

    def test_negative_response_names_row(self, tmp_path):
        f = write_file(tmp_path / "d.csv", "y\n0\n-1\n2\n")
        with pytest.raises(DataError, match="row 3"):
            load_csv(f, "y")

    def test_bad_response_names_its_file_line(self, tmp_path):
        # the dropped NA row shifts the kept rows: -1 is the third kept row
        # but sits on line 4 of the file
        f = write_file(tmp_path / "d.csv", "y,a\n0,NA\n1,1\n-1,2\n")
        with pytest.raises(DataError, match=r"row 4: response 'y' value -1\.0 is not"):
            load_csv(f, "y", ["a"])

    def test_non_integer_response(self, tmp_path):
        f = write_file(tmp_path / "d.csv", "y\n0\n1.5\n")
        with pytest.raises(DataError, match="non-negative integer"):
            load_csv(f, "y")

    def test_parse_error_names_line(self, tmp_path):
        f = write_file(tmp_path / "d.csv", "y,a\n0,1\n1,zork\n")
        with pytest.raises(DataError, match="line 3"):
            load_csv(f, "y", ["a"])

    def test_missing_column(self, tmp_path):
        f = write_file(tmp_path / "d.csv", "y,a\n0,1\n")
        with pytest.raises(DataError, match="'b'"):
            load_csv(f, "y", ["b"])

    def test_missing_values_dropped_with_diagnostics(self, tmp_path):
        f = write_file(tmp_path / "d.csv", "y,a\n0,1\n1,\n2,3\nNA,4\n")
        data = load_csv(f, "y", ["a"])
        assert data.n == 2
        assert data.dropped_rows == ((3, "a"), (5, "y"))

    def test_unselected_columns_missing_ok(self, tmp_path):
        f = write_file(tmp_path / "d.csv", "y,a,b\n0,1,\n1,2,5\n")
        data = load_csv(f, "y", ["a"])
        assert data.n == 2

    def test_unselected_text_column_not_parsed(self, tmp_path):
        f = write_file(tmp_path / "d.csv", "id,y,a\nalice,0,1\nbob,2,NA\ncarol,1,3\n")
        data = load_csv(f, "y", ["a"])
        assert data.column_names == ("y", "a") and set(data.columns) == {"y", "a"}
        assert data.n == 2 and data.dropped_rows == ((3, "a"),)

    def test_empty_file(self, tmp_path):
        f = write_file(tmp_path / "d.csv", "")
        with pytest.raises(DataError, match="empty"):
            load_csv(f, "y")

    def test_header_only(self, tmp_path):
        f = write_file(tmp_path / "d.csv", "y\n")
        with pytest.raises(DataError, match="no usable data"):
            load_csv(f, "y")

    def test_duplicate_header(self, tmp_path):
        f = write_file(tmp_path / "d.csv", "y,y\n0,1\n")
        with pytest.raises(DataError, match="duplicate"):
            load_csv(f, "y")

    def test_ragged_row(self, tmp_path):
        f = write_file(tmp_path / "d.csv", "y,a\n0,1\n1\n")
        with pytest.raises(DataError, match="line 3"):
            load_csv(f, "y", ["a"])

    def test_semicolon_delimiter(self, tmp_path):
        f = write_file(tmp_path / "d.csv", "y;a\n0;1\n2;3\n")
        data = load_csv(f, "y", ["a"], delimiter=";")
        assert data.n == 2

    def test_round_trip(self, tmp_path):
        f = write_file(tmp_path / "d.csv", "y,a\n0,1.25\n2,-0.5\n7,3e-4\n")
        data = load_csv(f, "y", ["a"])
        out = tmp_path / "out.csv"
        write_csv(data, out)
        again = load_csv(out, "y", ["a"])
        for name in data.column_names:
            assert np.array_equal(data.columns[name], again.columns[name])


class TestSummarize:
    def test_hand_computed(self, tmp_path):
        f = write_file(tmp_path / "d.csv", "y\n0\n0\n1\n2\n5\n")
        data = load_csv(f, "y")
        (s,) = summarize(data, "y")
        assert s.n == 5 and s.max == 5 and s.min == 0
        assert s.mean == pytest.approx(1.6)
        assert s.variance == pytest.approx(np.var([0, 0, 1, 2, 5], ddof=1))
        assert s.zero_proportion == pytest.approx(0.4)
        assert s.dispersion_index == pytest.approx(s.variance / s.mean)

    def test_grouped_binary(self, tmp_path):
        f = write_file(tmp_path / "d.csv", "y,g\n0,1\n2,1\n1,0\n3,0\n4,0\n")
        data = load_csv(f, "y", ["g"])
        groups = summarize(data, "y", "g")
        assert [g.group_label for g in groups] == ["g=1", "g=0"]
        assert groups[0].n == 2 and groups[1].n == 3
        assert groups[0].mean == pytest.approx(1.0)
        assert sum(g.n for g in groups) == data.n

    def test_non_binary_group_rejected(self, tmp_path):
        f = write_file(tmp_path / "d.csv", "y,g\n0,1\n2,2\n")
        data = load_csv(f, "y", ["g"])
        with pytest.raises(DataError, match="binary"):
            summarize(data, "y", "g")

    def test_constant_column_dispersion_absent(self):
        data = Dataset(column_names=("y",),
                       columns={"y": np.array([2.0, 2.0, 2.0])}, n=3)
        (s,) = summarize(data, "y")
        assert s.variance == 0.0
        assert s.dispersion_index == pytest.approx(0.0)

    def test_all_zero_dispersion_none(self):
        data = Dataset(column_names=("y",),
                       columns={"y": np.zeros(4)}, n=4)
        (s,) = summarize(data, "y")
        assert s.dispersion_index is None

    def test_unknown_column(self, tmp_path):
        f = write_file(tmp_path / "d.csv", "y\n0\n")
        data = load_csv(f, "y")
        with pytest.raises(DataError):
            summarize(data, "nope")


class TestFrequencyTable:
    def test_sums_to_one(self, tmp_path):
        f = write_file(tmp_path / "d.csv", "y\n0\n0\n1\n2\n2\n2\n")
        data = load_csv(f, "y")
        rows = frequency_table(data, "y")
        assert [(v, c) for v, c, _ in rows] == [(0, 2), (1, 1), (2, 3)]
        assert sum(r for _, _, r in rows) == pytest.approx(1.0)


class TestCovariateSummary:
    def test_values(self, tmp_path):
        f = write_file(tmp_path / "d.csv", "y,a,z\n0,1,0\n1,2,0\n2,3,0\n")
        data = load_csv(f, "y", ["a", "z"])
        summ = covariate_summary(data, ["a", "z"])
        assert summ["a"][0] == pytest.approx(2.0)
        assert summ["a"][1] == pytest.approx(1.0)
        assert summ["z"] == (0.0, 0.0)

    def test_unknown_column(self, tmp_path):
        f = write_file(tmp_path / "d.csv", "y\n0\n")
        data = load_csv(f, "y")
        with pytest.raises(DataError):
            covariate_summary(data, ["a"])


class TestNmesLoader:
    def test_canonical_columns_pass_through(self, tmp_path):
        rows = "\n".join(["1,0,0,2,6.9,1,1,2.5,0,1,0", "0,1,0,0,7.4,0,0,1.0,1,0,1"])
        f = write_file(tmp_path / "nmes.csv",
                       "HOSP,EXCELHLTH,POORHLTH,NUMCHRON,AGE,MALE,MARRIED,"
                       "FAMINC,EMPLOYED,PRIVINS,MEDICAID\n" + rows + "\n")
        data = load_nmes(f)
        assert data.n == 2
        assert list(data.columns["HOSP"]) == [1.0, 0.0]
        assert list(data.columns["MALE"]) == [1.0, 0.0]

    def test_r_export_recoded(self, tmp_path):
        # pscl::DebTrivedi-style export with factor columns
        header = ("ofp,hosp,health,numchron,adldiff,region,age,black,gender,"
                  "married,school,faminc,employed,privins,medicaid")
        rows = [
            "5,1,average,2,0,other,6.9,no,male,yes,12,2.5,no,yes,no",
            "2,0,poor,0,0,other,7.4,no,female,no,10,1.0,yes,no,yes",
            "1,3,excellent,1,0,west,8.1,yes,female,yes,8,0.5,no,yes,no",
        ]
        f = write_file(tmp_path / "export.csv", header + "\n" + "\n".join(rows) + "\n")
        data = load_nmes(f)
        assert data.n == 3
        assert list(data.columns["HOSP"]) == [1.0, 0.0, 3.0]
        assert list(data.columns["POORHLTH"]) == [0.0, 1.0, 0.0]
        assert list(data.columns["EXCELHLTH"]) == [0.0, 0.0, 1.0]
        assert list(data.columns["MALE"]) == [1.0, 0.0, 0.0]
        assert list(data.columns["MARRIED"]) == [1.0, 0.0, 1.0]
        assert list(data.columns["EMPLOYED"]) == [0.0, 1.0, 0.0]
        assert list(data.columns["PRIVINS"]) == [1.0, 0.0, 1.0]
        assert list(data.columns["MEDICAID"]) == [0.0, 1.0, 0.0]
        assert list(data.columns["FAMINC"]) == [2.5, 1.0, 0.5]

    def test_missing_source_column(self, tmp_path):
        f = write_file(tmp_path / "broken.csv", "hosp\n1\n0\n")
        with pytest.raises(DataError, match="mapping"):
            load_nmes(f)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="no such file"):
            load_nmes(tmp_path / "absent.csv")


class TestNmesConditional:
    def test_row_count(self, nmes_dataset):
        assert nmes_dataset.n == 4406

    def test_gender_partition(self, nmes_dataset):
        groups = summarize(nmes_dataset, "HOSP", "MALE")
        assert sum(g.n for g in groups) == 4406

    def test_covariate_summary_published_values(self, nmes_dataset):
        summ = covariate_summary(nmes_dataset, ["NUMCHRON", "AGE"])
        assert round(summ["NUMCHRON"][0], 3) == 1.542
        assert round(summ["NUMCHRON"][1], 2) == 1.35
        assert round(summ["AGE"][0], 3) == 7.402
        assert round(summ["AGE"][1], 3) == 0.633

    def test_overall_dispersion_recomputed(self, nmes_dataset):
        # the headline response dispersion (1.875) and zero share (80%)
        (s,) = summarize(nmes_dataset, "HOSP")
        assert round(s.dispersion_index, 3) == 1.875
        assert round(s.zero_proportion, 2) == 0.80
