import numpy as np

from plasmon_cqed.output import write_csv


def _fmt(value) -> str:
    """Per-value formatting that the CSV row templates must reproduce."""
    if isinstance(value, str):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return str(value)
    return f"{float(value):.12g}"


def test_row_templates_write_the_bytes_of_per_value_formatting(tmp_path):
    rows = [
        [1, True, np.int64(7), np.float64(0.1) + 0.2, "key", float("nan")],
        [10**15, False, np.int32(-3), 1.0 / 3.0, "", float("inf")],
        # same column, other types: each row takes its own template
        ["text", 2.5, np.float32(0.1), -0.0, 7, -float("inf")],
        (np.bool_(True), 123456789012345, 1e-300, np.nan, "x,y", 0),
    ]
    path = tmp_path / "rows.csv"
    write_csv(path, ["a", "b", "c", "d", "e", "f"], rows, comments=["note"])
    expected = "# note\na,b,c,d,e,f\n" + "".join(
        ",".join(_fmt(v) for v in row) + "\n" for row in rows)
    assert path.read_bytes() == expected.encode("utf-8")
