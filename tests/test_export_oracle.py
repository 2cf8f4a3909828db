"""The whole-series export formatters against their per-point originals.

plotting._polyline formats all points of a polyline with one %-format over
the interleaved coordinates, and harness.export_csv formats a joint's whole
(n, 5) table with one %-format. The per-point and per-row versions they
replaced are kept below, unchanged, as the oracle: both must give the same
text on any float64 input, including nan, +-inf, -0.0, subnormals and
magnitudes up to the largest double. A written CSV must also reload bit for
bit.
"""
import tempfile

import numpy as np
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from shouldersim import JointSeries, SimResult, export_csv, load_series_csv
from shouldersim.plotting import _polyline

HEADER = ("t", "theta_d", "theta_meas", "u", "e")
SPECIAL = [float("nan"), float("inf"), float("-inf"), -0.0, 0.0, 5e-324, -2.2250738585072014e-308, 1e308, -1e308]


def oracle_polyline(xs, ys, color, width=1.3, dash=None):
    pts = " ".join(f"{x:.2f},{y:.2f}" for x, y in zip(xs, ys))
    extra = f' stroke-dasharray="{dash}"' if dash else ""
    return f'<polyline fill="none" stroke="{color}" stroke-width="{width}"{extra} points="{pts}"/>'


def oracle_csv_text(series):
    row_format = ",".join(["%r"] * len(HEADER)) + "\n"
    columns = (getattr(series, name).tolist() for name in HEADER)
    rows = (row_format % row for row in zip(*columns))
    return "".join([",".join(HEADER) + "\n", *rows])


def _doubles(finite):
    if finite:
        return st.one_of(st.floats(allow_nan=False, allow_infinity=False), st.sampled_from([-0.0, 5e-324, 1e308]))
    return st.one_of(st.floats(), st.sampled_from(SPECIAL))


def _columns(finite):
    return st.integers(0, 50).flatmap(lambda n: arrays(np.float64, (len(HEADER), n), elements=_doubles(finite)))


def _written_csv(table):
    """(series, written text, reloaded series) of one joint whose columns are table's rows."""
    series = JointSeries(*table)
    with tempfile.TemporaryDirectory() as out_dir:
        (path,) = export_csv(SimResult(series={"abad": series}, metrics={}), out_dir)
        return series, path.read_text(), load_series_csv(path)


@settings(max_examples=200, deadline=None)
@given(xy=st.integers(0, 50).flatmap(lambda n: arrays(np.float64, (2, n), elements=_doubles(finite=False))))
@example(xy=np.array([SPECIAL, SPECIAL[::-1]]))
def test_polyline_matches_per_point_format(xy):
    xs, ys = xy
    for dash in (None, "6,4"):
        assert _polyline(xs, ys, "#123456", dash=dash) == oracle_polyline(xs, ys, "#123456", dash=dash)


@settings(max_examples=100, deadline=None)
@given(table=_columns(finite=False))
@example(table=np.array([SPECIAL] * len(HEADER)))
def test_csv_text_matches_per_row_format(table):
    series, text, _ = _written_csv(table)
    assert text == oracle_csv_text(series)


@settings(max_examples=100, deadline=None)
@given(table=_columns(finite=True))
@example(table=np.array([[-0.0, 5e-324, 1e308, -1e308, 0.1]] * len(HEADER)))
def test_csv_reloads_finite_series_bit_for_bit(table):
    series, _, back = _written_csv(table)
    for name in HEADER:
        assert getattr(back, name).tobytes() == getattr(series, name).tobytes(), name
