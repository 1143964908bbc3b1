import json
import os

import numpy as np
import pytest

from plasmon_cqed.output import (
    RunWriter,
    sha256_file,
    validate_manifest,
    write_csv,
    write_json,
)


def _fmt(value) -> str:
    """Per-value formatting that the CSV row templates must reproduce."""
    if isinstance(value, str):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return str(value)
    return f"{float(value):.12g}"


def test_row_templates_write_the_bytes_of_per_value_formatting(tmp_path):
    # the first row fixes each column as str or number; a number of any type
    # is written at %.12g, which writes an integer below 1e12 exactly
    rows = [
        [1, True, np.int64(7), np.float64(0.1) + 0.2, "key", float("nan")],
        [999999999999, False, np.int32(-3), 1.0 / 3.0, "", float("inf")],
        [-5, np.bool_(True), np.float32(0.1), -0.0, "x,y", -float("inf")],
        (0, 2.5, np.int64(123456789012), 1e-300, "text", 0),
    ]
    path = tmp_path / "rows.csv"
    write_csv(path, ["a", "b", "c", "d", "e", "f"], rows, comments=["note"])
    expected = "# note\na,b,c,d,e,f\n" + "".join(
        ",".join(_fmt(v) for v in row) + "\n" for row in rows)
    assert path.read_bytes() == expected.encode("utf-8")


@pytest.mark.parametrize("columns", [[], ["a", "b"]], ids=["no-columns", "columns"])
def test_zero_row_list_writes_the_header_alone(tmp_path, columns):
    write_csv(tmp_path / "empty.csv", columns, [], comments=["note"])
    assert (tmp_path / "empty.csv").read_bytes() == \
        ("# note\n" + ",".join(columns) + "\n").encode("utf-8")


def test_str_in_a_number_column_raises_and_writes_nothing(tmp_path):
    with pytest.raises(TypeError):
        write_csv(tmp_path / "mixed.csv", ["n", "x"], [[1, 0.5], ["a", 0.25]])
    assert not (tmp_path / "mixed.csv").exists()


SPECIAL_VALUES = [float("nan"), float("inf"), -float("inf"), -0.0, 0.0,
                  1e-300, 1e300, 5e-324, 0.1 + 0.2, -1.0 / 3.0, 123456789012345.0]


@pytest.mark.parametrize("shape", [(11, 1), (1, 11), (0, 3), (0, 1)],
                         ids=["one-column", "one-row", "zero-rows",
                              "zero-rows-one-column"])
def test_float_array_writes_the_bytes_of_its_row_tuples(tmp_path, shape):
    values = np.resize(np.array(SPECIAL_VALUES), shape)
    columns = [f"c{j}" for j in range(shape[1])]
    write_csv(tmp_path / "array.csv", columns, values, comments=["note"])
    write_csv(tmp_path / "rows.csv", columns,
              [tuple(float(v) for v in row) for row in values],
              comments=["note"])
    data = (tmp_path / "array.csv").read_bytes()
    assert data == (tmp_path / "rows.csv").read_bytes()
    expected = "# note\n" + ",".join(columns) + "\n" + "".join(
        ",".join(_fmt(v) for v in row) + "\n" for row in values.tolist())
    assert data == expected.encode("utf-8")


def test_int_array_keeps_its_per_row_format(tmp_path):
    # numpy integers are no Python int, so per-row formatting writes them
    # at %.12g, which stays exact below 1e12
    values = np.array([[1, -2], [10**11, 0]])
    write_csv(tmp_path / "ints.csv", ["a", "b"], values)
    assert (tmp_path / "ints.csv").read_bytes() == b"a,b\n1,-2\n100000000000,0\n"


def test_writers_return_the_digest_of_the_file_on_disk(tmp_path):
    payload = {"b": [1.0, float("inf")], "a": "\u03c9"}
    digests = {
        "rows.csv": write_csv(tmp_path / "rows.csv", ["n", "x"],
                              [[1, 0.5], [2, float("nan")]], ["c"]),
        "array.csv": write_csv(tmp_path / "array.csv", ["x", "y"],
                               np.eye(3)[:, :2]),
        "t.json": write_json(tmp_path / "t.json", payload),
    }
    assert digests == {name: sha256_file(tmp_path / name) for name in digests}
    # the text json.dump streams, plus the newline
    with open(tmp_path / "streamed.json", "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, allow_nan=True)
        fh.write("\n")
    assert (tmp_path / "t.json").read_bytes() == \
        (tmp_path / "streamed.json").read_bytes()


def test_manifest_records_the_digests_of_the_bytes_written(tmp_path):
    writer = RunWriter(str(tmp_path))
    writer.csv("a.csv", ["x"], np.linspace(0.0, 1.0, 5)[:, None])
    writer.json("b.json", {"k": 1})
    with open(writer.manifest({}, "v", 0.0), encoding="utf-8") as fh:
        manifest = json.load(fh)
    assert manifest["outputs"] == {
        name: sha256_file(tmp_path / name) for name in ("a.csv", "b.json")}
    assert validate_manifest(str(tmp_path)) == []
    writer.discard_all()
    assert sorted(os.listdir(tmp_path)) == ["run_manifest.json"]
    assert not writer.files


def test_manifest_names_a_deleted_output(tmp_path):
    writer = RunWriter(str(tmp_path))
    writer.csv("a.csv", ["x"], np.linspace(0.0, 1.0, 5)[:, None])
    writer.json("b.json", {"k": 1})
    writer.manifest({}, "v", 0.0)
    os.unlink(tmp_path / "a.csv")
    assert validate_manifest(str(tmp_path)) == ["a.csv"]
