import json
import math
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from g2cone.reporting import dump_json, fmt_float, write_csv, write_svg_plot


def test_csv_mixed_cells_bytes(tmp_path):
    rows = [[0.1, True, None, 3, float("nan"), np.float64(2.5), np.bool_(False)],
            [np.nan, False, 1e-300, -7, 1.0, np.float64("nan"), np.bool_(True)],
            [1.0 / 3.0, True, 2.0, 10**20, None, -0.0, np.bool_(True)]]
    write_csv(tmp_path / "t.csv", list("abcdefg"), rows)
    assert (tmp_path / "t.csv").read_bytes() == (
        b"a,b,c,d,e,f,g\n"
        b"0.10000000000000001,true,,3,,2.5,false\n"
        b",false,1e-300,-7,1,,true\n"
        b"0.33333333333333331,true,2,100000000000000000000,,-0,true\n")


def test_json_escapes_control_characters():
    text = "a\tb\r\x1f"
    assert json.loads(dump_json({"s": text, "q": '"\\\n'})) == {"s": text, "q": '"\\\n'}


def test_csv_float_table_matches_cellwise_format(tmp_path):
    rng = np.random.default_rng(7)
    table = rng.standard_normal((50, 6)) * 10.0 ** rng.integers(-300, 300, (50, 6))
    table[rng.random((50, 6)) < 0.1] = np.nan
    table[0, :4] = (-0.0, np.inf, 5e-324, 1e16)
    write_csv(tmp_path / "t.csv", list("uvwxyz"), table)
    want = "".join(",".join("" if math.isnan(v) else fmt_float(v) for v in row) + "\n"
                   for row in table)
    assert (tmp_path / "t.csv").read_text() == "u,v,w,x,y,z\n" + want
    write_csv(tmp_path / "empty.csv", ["a", "b"], np.empty((0, 2)))
    assert (tmp_path / "empty.csv").read_bytes() == b"a,b\n"


def test_svg_nan_samples_break_the_polyline(tmp_path):
    nan = float("nan")
    write_svg_plot(tmp_path / "gap.svg", [([0, 1, 2, 3, 4], [0.0, 1.0, nan, 3.0, 4.0], "y")],
                   "t", "x", "y")
    assert (tmp_path / "gap.svg").read_text().count("<polyline") == 2
    # a lone finite sample between NaNs draws no polyline
    write_svg_plot(tmp_path / "lone.svg", [([0, 1, 2], [nan, 1.0, nan], "y")], "t", "x", "y")
    assert "<polyline" not in (tmp_path / "lone.svg").read_text()
    with pytest.raises(ValueError, match="nothing to plot"):
        write_svg_plot(tmp_path / "none.svg", [([0, 1], [nan, nan], "y")], "t", "x", "y")
    assert not (tmp_path / "none.svg").exists()


@pytest.mark.parametrize("bad", [math.inf, -math.inf, np.float64(np.inf)])
def test_json_refuses_infinity(bad):
    with pytest.raises(ValueError, match="refusing to serialize infinity"):
        dump_json({"x": [1.0, bad]})


def test_json_refuses_an_unknown_type():
    with pytest.raises(TypeError, match="cannot serialize"):
        dump_json({"x": {1.0}})


@pytest.mark.parametrize("x", [[1.0, 1.0 + 2**-52], [2.0**53, 2.0**53], [-2.0**60],
                               [0.0, 5e-324]])
def test_svg_axis_of_a_few_ulps(tmp_path, x):
    """An axis one ulp wide, where a tick loop of v += step never moved v, a constant
    at |x| >= 2**53, where widening by 1.0 left a zero width and the ticks repeated one
    value, and a subnormal span, whose tick step underflowed to 0, write a well-formed
    SVG with finite coordinates and distinct ticks on each axis."""
    path = tmp_path / "ulps.svg"
    write_svg_plot(path, [(x, x, "y")], "t", "x", "y")
    root = ET.parse(path).getroot()
    lines = root.findall("{http://www.w3.org/2000/svg}line")
    coords = [[float(e.get(k)) for k in ("x1", "y1", "x2", "y2")] for e in lines]
    assert all(math.isfinite(c) for line in coords for c in line)
    assert 1 + 2 <= len(lines) <= 1 + 2 * 12  # the legend's, and at most 2n + 2 ticks an axis
    xticks = [x1 for x1, y1, x2, y2 in coords if x1 == x2]
    yticks = [y1 for x1, y1, x2, y2 in coords if y1 == y2 and x2 - x1 == 5.0]
    assert xticks and yticks
    assert len(set(xticks)) == len(xticks) and len(set(yticks)) == len(yticks)


@pytest.mark.parametrize("axis, x, y", [("x", [-1e308, 1e308], [0.0, 1.0]),
                                        ("y", [0.0, 1.0], [-8.5e307, 8.5e307])])
def test_svg_axis_past_the_float_range(tmp_path, axis, x, y):
    """A span that overflows, on the y axis once padded by 5 %, raises ValueError naming
    its axis before any file is written."""
    with pytest.raises(ValueError, match=f"the {axis} axis"):
        write_svg_plot(tmp_path / "wide.svg", [(x, y, "y")], "t", "x", "y")
    assert not (tmp_path / "wide.svg").exists()
