"""The one CSV dialect of the three input files: the spline law, the tracking
target and the correction tables all read through csvio.read_csv."""
import codecs
import re

import numpy as np
import pytest

from magtopt.cell_problems import (CorrectionTable, PerturbationCase, load_table,
                                   save_table)
from magtopt.csvio import read_csv
from magtopt.material import SplineCurve
from magtopt.problem_setup import load_target_csv

#: per reader: its metadata comment, header, rows and the loaded values
READERS = {
    "spline": ("", "s,nu", ["0,1000", "1,2000", "2,3000", "3,4000"],
               SplineCurve.from_csv, lambda c: np.column_stack([c.s, c.values])),
    "target": ("", "theta,b_d", ["0,0.25", "3,0.5"], load_target_csv,
               lambda f: f(np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, -0.1]]))),
    "table": ("# case=I radius=100 h0=0.3 curve=x\n", "t,j2_e1,j2_e2",
              ["0,0,0", "1,0.5,0", "2,0.75,0"], load_table,
              lambda t: np.column_stack([t.t, t.j2_e1])),
}


def write(tmp_path, text, name="input.csv"):
    p = tmp_path / name
    p.write_text(text)
    return p


@pytest.mark.parametrize("kind", READERS)
def test_blank_line_before_header_and_inline_comments_accepted(tmp_path, kind):
    meta, header, rows, load, values = READERS[kind]
    plain = write(tmp_path, meta + header + "\n" + "\n".join(rows) + "\n", "plain.csv")
    noted = write(tmp_path, "\n" + meta + "\n" + header + "  # columns\n"
                  + "".join(f"{r}  # note\n\n" for r in rows), "noted.csv")
    np.testing.assert_array_equal(values(load(noted)), values(load(plain)))


@pytest.mark.parametrize("kind", READERS)
def test_byte_order_mark_accepted(tmp_path, kind):
    # as a spreadsheet's "CSV UTF-8" save writes it, before the first line
    meta, header, rows, load, values = READERS[kind]
    text = (meta + header + "\n" + "\n".join(rows) + "\n").encode()
    plain, marked = tmp_path / "plain.csv", tmp_path / "bom.csv"
    plain.write_bytes(text)
    marked.write_bytes(codecs.BOM_UTF8 + text)
    np.testing.assert_array_equal(values(load(marked)), values(load(plain)))


@pytest.mark.parametrize("kind", READERS)
def test_metadata_key_given_twice_names_both_lines(tmp_path, kind):
    meta, header, rows, load, _ = READERS[kind]
    p = write(tmp_path, "# source=a\n" + meta + "#\n# note source=b\n"
              + header + "\n" + "\n".join(rows) + "\n")
    line = 4 if meta else 3
    with pytest.raises(ValueError, match=f"^{re.escape(str(p))}: line {line}: "
                       "key 'source' already set on line 1$"):
        load(p)


@pytest.mark.parametrize("kind", READERS)
def test_extra_column_refused(tmp_path, kind):
    # no reader drops a column it does not know, as the spline reader did
    meta, header, rows, load, _ = READERS[kind]
    p = write(tmp_path, meta + header + ",extra\n"
              + "\n".join(r + ",7" for r in rows) + "\n")
    line = 2 if meta else 1
    with pytest.raises(ValueError, match=f"^{re.escape(str(p))}: line {line}: "
                       f"expected header '{header}'$"):
        load(p)


def test_comment_after_the_header_is_not_metadata(tmp_path):
    # a case-I table with `# case=II` appended stays case I, so it cannot
    # pass as a case-II table
    table = CorrectionTable(PerturbationCase.AIR_IN_FERRO, [0.0, 1.0], [0.0, 0.5],
                            100.0, 0.3, "x")
    p = tmp_path / "table.csv"
    save_table(p, table, config_hash="deadbeef")
    with open(p, "a") as f:
        f.write("# case=II\n")
    assert load_table(p).case is PerturbationCase.AIR_IN_FERRO


def test_read_csv_metadata_header_and_rows(tmp_path):
    p = write(tmp_path, "# measured by=lab at 20 C\n# rig=2\n\n T , NU \n"
              "# case=II after the header\n0.5 , 1e3\n1,2 # inline\n")
    meta, rows = read_csv(p, ("t", "nu"))
    assert meta == {"by": "lab", "rig": "2"}
    np.testing.assert_array_equal(rows, [[0.5, 1000.0], [1.0, 2.0]])


@pytest.mark.parametrize("text, message", [
    ("", "line 1: expected header 'a,b'"),
    ("# only a comment\n\n", "line 3: expected header 'a,b'"),
    ("a,b\n1,2,\n", r"line 2: bad row \['1', '2', ''\]"),
], ids=["empty", "comments_only", "trailing_comma"])
def test_read_csv_errors_name_file_and_line(tmp_path, text, message):
    p = write(tmp_path, text)
    with pytest.raises(ValueError, match=f"^{re.escape(str(p))}: {message}$"):
        read_csv(p, ("a", "b"))
