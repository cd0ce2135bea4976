"""Counts are checked once.  ``load_csv`` stores the response as int64, so
the CLI runs the float count check once per CSV run; every other count
check (fits, designs, summaries) takes the column's integer path, and
names its input in one message.  A bare count file is a CSV without a
header row: ``load_csv`` checks its counts row by row, as it checks a
CSV's response."""

import numpy as np
import pytest

from unbcount import cli
from unbcount import datasets as ds
from unbcount import estimation as est
from unbcount.errors import DataError
from unbcount.regression import unb_reg_loglik

# A response with NA, a decimal point and an exponent; its 48 rows fit
# quickly under every model.
RESPONSE = ["3", "0", "NA", "2.0", "1e1", "1", "0", "5", "2", "0", "1", "4"] * 4


def write_table(tmp_path):
    path = tmp_path / "t.csv"
    rows = [f"{y},{i % 3 * 0.5},{i % 2}" for i, y in enumerate(RESPONSE)]
    path.write_text("y,x,g\n" + "\n".join(rows) + "\n", encoding="utf-8")
    return path


def test_load_csv_stores_the_response_as_int64(tmp_path):
    data = ds.load_csv(write_table(tmp_path), "y", ("x",))
    y = data.columns["y"]
    # The values the float column held, NA rows dropped
    want = np.array([float(v) for v in RESPONSE if v != "NA"])
    assert y.dtype == np.int64 and np.array_equal(y, want)
    assert data.columns["x"].dtype == np.float64
    assert ds.response_counts(data, "y") is y


def float_checks(monkeypatch):
    """The calls of the count check that take its float path."""
    real, calls = ds._rounded_counts, []

    def spy(values):
        calls.append(np.asarray(values).dtype.kind not in "iu")
        return real(values)

    monkeypatch.setattr(ds, "_rounded_counts", spy)
    return calls


@pytest.mark.parametrize("argv", [
    ["summarize", "--group-by", "g"],
    ["fit", "--models", "unb,nb,up,geometric"],
    ["compare", "--models", "unb,nb"],
    ["compare", "--models", "unb,nb", "--covariates", "x"],
])
def test_csv_runs_check_the_float_response_once(tmp_path, capsys, monkeypatch, argv):
    path = write_table(tmp_path)
    calls = float_checks(monkeypatch)
    code = cli.main([*argv, "--input", str(path), "--response", "y", "--format", "json"])
    assert code in (cli.EXIT_OK, cli.EXIT_CONVERGENCE), capsys.readouterr().err
    assert calls.count(True) == 1


def test_count_file_dataset_holds_int64(tmp_path):
    path = tmp_path / "c.txt"
    path.write_bytes(b"3\r\n\r\n0\r\n1\r\n")
    data = ds.load_csv(path)
    assert data.column_names == ("count",) and data.dropped_rows == ()
    assert data.columns["count"].dtype == np.int64
    assert data.columns["count"].tolist() == [3, 0, 1]


def test_csv_file_is_declined_at_its_first_line(tmp_path, monkeypatch):
    # A CSV file's header is not a count, so with no response named it is
    # an error naming the file, raised before the body is read.
    monkeypatch.setattr(ds, "_field_rows", None)
    monkeypatch.setattr(ds, "_csv_rows", None)
    path = write_table(tmp_path)
    with pytest.raises(DataError) as exc:
        ds.load_csv(path)
    assert str(exc.value) == (f"{path}: a response column is required: "
                              "line 1 is a header row, not a count")


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("fitter", [est.fit_mle, est.fit_geometric, est.sample_moments])
def test_non_finite_data_are_not_counts(fitter, value):
    with pytest.raises(DataError, match="^data must be non-negative integers$"):
        fitter(np.array([1.0, value, 3.0]))


def test_one_message_per_input():
    with pytest.raises(DataError, match="^response must be non-negative integers$"):
        unb_reg_loglik([0.0], 1.0, np.ones((2, 1)), [1, -1])
    data = ds.Dataset(column_names=("y",), columns={"y": np.array([1.0, 0.5])}, n=2)
    with pytest.raises(DataError, match="^column 'y' must be non-negative integers$"):
        ds.response_counts(data, "y")


# A second line of a count file, and the error it gives (None: the row is
# dropped, as a CSV's missing cell is).
BAD_LINES = {
    "-1": "{path}: row 2: response 'count' value -1.0 is not a non-negative integer",
    "2.5": "{path}: row 2: response 'count' value 2.5 is not a non-negative integer",
    "NA": None,
    "x": "{path}: line 2: cannot parse 'x' in column 'count' as a number",
}


@pytest.mark.parametrize("line", BAD_LINES)
def test_bare_count_file_with_a_bad_line_says_so(tmp_path, capsys, line):
    # With --response count too: the file is never read again as a CSV.
    path = tmp_path / "c.txt"
    path.write_text(f"1\n{line}\n3\n", encoding="utf-8")
    want = BAD_LINES[line]
    for response in ([], ["--response", "count"]):
        code = cli.main(["fit", "--input", str(path), "--models", "geometric",
                         *response])
        out, err = capsys.readouterr()
        if want is None:
            assert code == cli.EXIT_OK and err == ""
            assert "response=count n=2" in out
        else:
            assert code == cli.EXIT_DATA
            assert err == f"error: {want.format(path=path)}\n"


def test_count_file_na_line_is_dropped(tmp_path):
    path = tmp_path / "c.txt"
    path.write_text("1\nNA\n3\n", encoding="utf-8")
    data = ds.load_csv(path)
    assert data.columns["count"].tolist() == [1, 3]
    assert data.dropped_rows == ((2, "count"),)


@pytest.mark.parametrize("token", ["NA", "NULL"])
def test_count_file_missing_first_line_is_dropped(tmp_path, capsys, token):
    # A missing value on line 1 is a data line, not a header: the file is a
    # bare count file, with or without --response.
    path = tmp_path / "c.txt"
    path.write_text(f"{token}\n1\n2\n", encoding="utf-8")
    data = ds.load_csv(path)
    assert data.columns["count"].tolist() == [1, 2]
    assert data.dropped_rows == ((1, "count"),)
    for response in ([], ["--response", "count"]):
        code = cli.main(["fit", "--input", str(path), "--models", "geometric",
                         *response])
        out, err = capsys.readouterr()
        assert code == cli.EXIT_OK and err == ""
        assert "response=count n=2" in out


@pytest.mark.parametrize("command", ["fit", "compare", "summarize"])
def test_directory_input_cannot_be_read(tmp_path, capsys, command):
    assert cli.main([command, "--input", str(tmp_path)]) == cli.EXIT_DATA
    assert capsys.readouterr().err.startswith(f"error: {tmp_path}: cannot read (")
