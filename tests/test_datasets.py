import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from unbcount.datasets import (
    Dataset,
    _rounded_counts,
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


FETCH_NMES = Path(__file__).resolve().parent.parent / "scripts" / "fetch_nmes.py"


def convert_export(tmp_path, text):
    """Run scripts/fetch_nmes.py --from-csv on the export ``text``, into
    ``tmp_path / "out"``; the completed process."""
    export = write_file(tmp_path / "export.csv", text)
    return subprocess.run([sys.executable, str(FETCH_NMES), "--from-csv", str(export),
                           "--dest", str(tmp_path / "out")],
                          capture_output=True, text=True, timeout=120)


def test_count_check_rounds_within_1e_9_and_flags_the_rest():
    # 2**63 - 1024 is the largest float below 2**63, where int64 ends
    values = [0.0, 2.9999999999, -1e-12, 2.0 ** 63 - 1024, 3.5, -1.0, np.nan, np.inf,
              2.0 ** 63, 1e20]
    ints, bad = _rounded_counts(values)
    assert bad.tolist() == [False] * 4 + [True] * 6
    assert ints[:3].tolist() == [0.0, 3.0, 0.0]


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
        assert data.columns["HOSP"].dtype == np.int64
        assert list(data.columns["MALE"]) == [1.0, 0.0]

    # A pscl::DebTrivedi-style export with factor columns
    _EXPORT = ("ofp,hosp,health,numchron,adldiff,region,age,black,gender,"
               "married,school,faminc,employed,privins,medicaid\n"
               "5,1,average,2,0,other,6.9,no,male,yes,12,2.5,no,yes,no\n"
               "2,0,poor,0,0,other,7.4,no,female,no,10,1.0,yes,no,yes\n"
               "1,3,excellent,1,0,west,8.1,yes,female,yes,8,0.5,no,yes,no\n")

    def test_r_export_recoded(self, tmp_path):
        run = convert_export(tmp_path, self._EXPORT)
        assert run.returncode == 0, run.stderr
        data = load_nmes(tmp_path / "out")
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

    def test_export_values_read_back_exactly(self, tmp_path):
        run = convert_export(tmp_path, self._EXPORT.replace(",2.5,", ",12.34567,"))
        assert run.returncode == 0, run.stderr
        assert load_nmes(tmp_path / "out").columns["FAMINC"][0] == 12.34567

    def test_missing_source_column(self, tmp_path):
        f = write_file(tmp_path / "broken.csv", "HOSP\n1\n0\n")
        with pytest.raises(DataError, match=r"broken\.csv: column 'EXCELHLTH' not found"):
            load_nmes(f)
        run = convert_export(tmp_path, "hosp\n1\n0\n")
        assert run.returncode == 1
        assert "no column for EXCELHLTH (looked for EXCELHLTH," in run.stderr

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="no such file"):
            load_nmes(tmp_path / "absent.csv")

    _CANONICAL = ("HOSP,EXCELHLTH,POORHLTH,NUMCHRON,AGE,MALE,MARRIED,FAMINC,"
                  "EMPLOYED,PRIVINS,MEDICAID\n1,0,0,2,6.9,1,1,2.5,0,1,0\n"
                  "0,1,0,0,7.4,0,0,1.0,1,0,1\n")

    def test_byte_order_mark(self, tmp_path):
        f = tmp_path / "bom.csv"
        f.write_bytes(b"\xef\xbb\xbf" + self._CANONICAL.encode())
        data = load_nmes(f)
        assert data.n == 2
        assert list(data.columns["HOSP"]) == [1.0, 0.0]

    def test_not_utf8_is_a_data_error(self, tmp_path):
        f = tmp_path / "latin1.csv"
        f.write_bytes(self._CANONICAL.replace("6.9", "6.9\xe9").encode("latin-1"))
        with pytest.raises(DataError, match=r"latin1\.csv: not UTF-8 text \("):
            load_nmes(f)

    def test_empty_file_is_a_data_error(self, tmp_path):
        f = write_file(tmp_path / "empty.csv", "")
        with pytest.raises(DataError, match=r"empty\.csv: file is empty, expected a header row"):
            load_nmes(f)

    def test_short_row_names_its_line(self, tmp_path):
        f = write_file(tmp_path / "short.csv", self._CANONICAL + "\n1,0,0\n")
        with pytest.raises(DataError, match=r"short\.csv: line 5: expected 11 fields, got 3"):
            load_nmes(f)

    def test_long_row_names_its_line(self, tmp_path):
        f = write_file(tmp_path / "long.csv", self._CANONICAL + "1,0,0,2,6.9,1,1,2.5,0,1,0,7\n")
        with pytest.raises(DataError, match=r"long\.csv: line 4: expected 11 fields, got 12"):
            load_nmes(f)

    @pytest.mark.parametrize("column", ["HOSP", "AGE"])
    @pytest.mark.parametrize("missing", ["", "NA", "nan"])
    def test_missing_cell_drops_its_row(self, tmp_path, column, missing):
        header, first, second = self._CANONICAL.splitlines()
        cells = second.split(",")
        cells[header.split(",").index(column)] = missing
        f = write_file(tmp_path / "nmes.csv", f"{header}\n{first}\n{','.join(cells)}\n")
        data = load_nmes(f)
        assert data.n == 1 and data.dropped_rows == ((3, column),)

    @pytest.mark.parametrize("value", ["-1", "1.5", "inf"])
    def test_response_not_a_count_names_its_row(self, tmp_path, value):
        f = write_file(tmp_path / "nmes.csv", self._CANONICAL.replace("\n0,1,0", f"\n{value},1,0"))
        with pytest.raises(DataError, match=rf"nmes\.csv: row 3: response 'HOSP' value "
                                            rf"{float(value)} is not a non-negative integer"):
            load_nmes(f)


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
