import csv
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vip import cli
from vip.data import (
    Dataset,
    Stats,
    apply_stats,
    compute_stats,
    destandardize_moments,
    interp_split,
    load_csv,
    load_table,
    split,
    standardize,
    synth_toy,
    toy_fn,
    toy_grid,
)
from vip.errors import ParameterError, ParseError


class TestLoadCsv:
    def test_two_by_two(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("1,2\n3,4\n")
        ds = load_csv(str(p))
        np.testing.assert_array_equal(ds.x, [[1.0], [3.0]])
        np.testing.assert_array_equal(ds.y, [2.0, 4.0])

    def test_header_skipped(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("a,b\n1,2\n")
        ds = load_csv(str(p), has_header=True)
        assert ds.n == 1 and ds.d == 1
        assert ds.y[0] == 2.0

    def test_non_numeric_cites_row_col(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("1,2\na,4\n")
        with pytest.raises(ParseError) as e:
            load_csv(str(p))
        assert e.value.row == 2 and e.value.col == 1

    def test_header_counts_toward_row_numbers(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("h1,h2\n1,2\n3,oops\n")
        with pytest.raises(ParseError) as e:
            load_csv(str(p), has_header=True)
        assert e.value.row == 3 and e.value.col == 2

    @pytest.mark.parametrize("header", ["h1,h2,h3", "h1"])
    def test_header_width_must_match_the_rows(self, tmp_path, header):
        p = tmp_path / "t.csv"
        p.write_text(f"{header}\n1,2\n3,4\n")
        with pytest.raises(ParseError) as e:
            load_csv(str(p), has_header=True)
        assert e.value.row == 1

    @pytest.mark.parametrize("cell", ["nan", "inf", "-Infinity"])
    def test_non_finite_cites_row_col(self, tmp_path, cell):
        p = tmp_path / "t.csv"
        p.write_text(f"1,2\n3,4\n5,{cell}\n")
        with pytest.raises(ParseError) as e:
            load_csv(str(p))
        assert e.value.row == 3 and e.value.col == 2

    def test_ragged_row_rejected(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("1,2\n3,4,5\n")
        with pytest.raises(ParseError) as e:
            load_csv(str(p))
        assert e.value.row == 2

    def test_ragged_rows_with_the_right_total_cell_count_exit_3(self, tmp_path, capsys):
        # 3 + 2 + 4 + 3 cells: the total of four rows of width 3
        p = tmp_path / "t.csv"
        p.write_text("1,2,3\n4,5\n6,7,8,9\n1,2,3\n")
        rc = cli.main(["train", "--data", str(p), "--model-out", str(tmp_path / "m.json")])
        assert rc == 3
        assert "expected 3 cells, found 2 at row 2, column 1" in capsys.readouterr().err

    def test_empty_file_rejected(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("")
        with pytest.raises(ParseError):
            load_csv(str(p))

    def test_single_column_rejected(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("1\n2\n")
        with pytest.raises(ParseError):
            load_csv(str(p))

    def test_blank_trailing_line_ok(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("1,2\n3,4\n\n")
        assert load_csv(str(p)).n == 2

    def test_whitespace_around_cells(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text(" 1 , 2\n")
        ds = load_csv(str(p))
        assert ds.x[0, 0] == 1.0 and ds.y[0] == 2.0


def _load_table_per_cell(path, has_header=False, min_width=1):
    """The parser load_table replaced: one float(cell.strip()) per cell."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    header = [c.strip() for c in rows[0]] if has_header and rows else None
    start = 1 if has_header else 0
    data_rows = [(i + 1, r) for i, r in enumerate(rows) if i >= start and r]
    if not data_rows:
        raise ParseError(f"{path}: no data rows")
    width = len(data_rows[0][1])
    if width < min_width:
        raise ParseError(
            f"{path}: need at least {min_width} columns, found {width}",
            row=data_rows[0][0],
            col=1,
        )
    if header is not None and len(header) != width:
        raise ParseError(
            f"{path}: header has {len(header)} cells, data rows have {width}", row=1, col=1
        )
    out = np.empty((len(data_rows), width))
    for i, (ln, cells) in enumerate(data_rows):
        if len(cells) != width:
            raise ParseError(
                f"{path}: expected {width} cells, found {len(cells)}", row=ln, col=1
            )
        for j, cell in enumerate(cells):
            try:
                out[i, j] = float(cell.strip())
            except ValueError:
                raise ParseError(
                    f"{path}: non-numeric cell {cell.strip()!r}", row=ln, col=j + 1
                ) from None
    bad = np.argwhere(~np.isfinite(out))
    if bad.size:
        i, j = bad[0].tolist()
        ln, cells = data_rows[i]
        raise ParseError(f"{path}: non-finite cell {cells[j].strip()!r}", row=ln, col=j + 1)
    return header, out


def _outcome(parse, path, has_header, min_width):
    try:
        header, table = parse(path, has_header, min_width)
    except ParseError as e:
        return "error", str(e), e.row, e.col
    return "ok", header, table.shape, table.tobytes()


_NUMBER = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.floats(-1e6, 1e6).map(lambda v: f"{v:.3e}"),
    st.integers(-10**6, 10**6).map(str),
    st.sampled_from(["-0", ".5", "5.", "+1", "1_000", "1E3", "5e-324"]),
)
_BAD = st.sampled_from(
    ["nan", "inf", "-Infinity", "1e400", "abc", "", "1,5", "--1", "0x10", "1 2"]
)
# float() strips the first five but not U+001C..U+001F; str.strip() strips all
_PAD = st.sampled_from(["", " ", "  ", "\t", "\x0b", "\xa0", "\u2003", "\x1c", "\x1f"])


@st.composite
def _cell(draw):
    text = draw(st.one_of(_NUMBER, _NUMBER, _NUMBER, _BAD))
    text = draw(_PAD) + text + draw(_PAD)
    if draw(st.booleans()) or "," in text:
        text = f'"{text}"'
    return text


@st.composite
def _csv_text(draw):
    width = draw(st.integers(1, 4))
    n_lines = draw(st.integers(1, 7))
    kinds = [draw(st.sampled_from(["row"] * 6 + ["blank", "ragged"])) for _ in range(n_lines)]
    cell = _cell()
    if width > 1 and draw(st.booleans()):
        # a short and a long row after the first line: together they hold as
        # many cells as two full rows, so only a per-row width check sees them;
        # half of these files hold well-formed numbers only, which a one-pass
        # conversion would accept
        if draw(st.booleans()):
            cell = _NUMBER
        for kind in draw(st.permutations(["short", "long"])):
            kinds.insert(draw(st.integers(1, len(kinds))), kind)
    lines = []
    for kind in kinds:
        if kind == "blank":
            lines.append("")
            continue
        n = {"row": width, "short": width - 1, "long": width + 1}.get(kind)
        if n is None:
            n = draw(st.sampled_from([width - 1, width + 1]))
        lines.append(",".join(draw(cell) for _ in range(max(n, 1))))
    if draw(st.booleans()):
        lines.insert(0, ",".join(f"c{j}" for j in range(draw(st.integers(width - 1, width)))))
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    return eol.join(lines) + draw(st.sampled_from(["", eol]))


class TestLoadTableProperty:
    @settings(max_examples=300, deadline=None)
    @given(text=_csv_text(), has_header=st.booleans(), min_width=st.integers(1, 2))
    def test_matches_the_per_cell_parser(self, tmp_path_factory, text, has_header, min_width):
        path = tmp_path_factory.getbasetemp() / "t.csv"
        path.write_text(text, encoding="utf-8", newline="")
        assert _outcome(load_table, str(path), has_header, min_width) == _outcome(
            _load_table_per_cell, str(path), has_header, min_width
        )

    def test_first_bad_cell_in_row_order_is_named(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("1,2,3\n4,x,y\nz,5,6\n")
        with pytest.raises(ParseError) as e:
            load_table(str(p))
        assert (e.value.row, e.value.col) == (2, 2) and "'x'" in str(e.value)

    def test_cells_padded_with_separators_parse(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("\x1c1.5,2\x1f\n")
        _, table = load_table(str(p))
        np.testing.assert_array_equal(table, [[1.5, 2.0]])


class TestStandardize:
    def _data(self, seed=0, n=40, d=3):
        rng = np.random.default_rng(seed)
        return Dataset(rng.standard_normal((n, d)) * 3 + 1, rng.standard_normal(n) * 5)

    def test_columns_centered_and_scaled(self):
        ds = standardize(self._data())
        np.testing.assert_allclose(ds.x.mean(axis=0), 0.0, atol=1e-10)
        np.testing.assert_allclose(ds.x.std(axis=0), 1.0, atol=1e-10)
        assert abs(ds.y.mean()) <= 1e-10
        assert abs(ds.y.std() - 1.0) <= 1e-10

    def test_round_trip(self):
        raw = self._data(1)
        ds = standardize(raw)
        y, var = destandardize_moments(ds.y, np.ones(ds.n), ds.stats)
        np.testing.assert_allclose(y, raw.y, atol=1e-12)
        np.testing.assert_allclose(var, np.full(ds.n, raw.y.var()), rtol=1e-12)
        mean_out, var_out = destandardize_moments(ds.y, var, None)
        assert mean_out is ds.y and var_out is var

    def test_constant_feature_rejected(self):
        x = np.ones((10, 2))
        x[:, 0] = np.arange(10)
        with pytest.raises(ParseError):
            compute_stats(Dataset(x, np.arange(10.0)))

    def test_constant_target_rejected(self):
        with pytest.raises(ParseError):
            compute_stats(Dataset(np.arange(10.0).reshape(-1, 1), np.ones(10)))

    def test_apply_training_stats_to_test(self):
        tr, te = self._data(2, n=50), self._data(3, n=20)
        stats = compute_stats(tr)
        out = apply_stats(te, stats)
        np.testing.assert_allclose(
            out.x, (te.x - stats.feature_means) / stats.feature_stds, atol=1e-14
        )
        # test-set columns are not expected to be centered
        assert abs(out.y.mean()) > 1e-6

    def test_stats_round_trip_dict(self):
        s = compute_stats(self._data(4))
        s2 = Stats.from_dict(s.to_dict())
        np.testing.assert_array_equal(s.feature_means, s2.feature_means)
        assert s.target_std == s2.target_std


class TestSplit:
    def test_sizes_and_disjoint(self):
        ds = Dataset(np.arange(100.0).reshape(-1, 1), np.arange(100.0))
        tr, te = split(ds, 0.9, seed=7)
        assert tr.n == 90 and te.n == 10
        assert not set(tr.y) & set(te.y)
        assert set(tr.y) | set(te.y) == set(range(100))

    def test_deterministic(self):
        ds = Dataset(np.arange(30.0).reshape(-1, 1), np.arange(30.0))
        a = split(ds, 0.8, seed=3)
        b = split(ds, 0.8, seed=3)
        np.testing.assert_array_equal(a[0].y, b[0].y)
        np.testing.assert_array_equal(a[1].y, b[1].y)
        c = split(ds, 0.8, seed=4)
        assert not np.array_equal(a[1].y, c[1].y)

    def test_near_one_frac_leaves_single_test_row(self):
        ds = Dataset(np.arange(10.0).reshape(-1, 1), np.arange(10.0))
        tr, te = split(ds, 0.9999, seed=0)
        assert te.n == 1 and tr.n == 9

    def test_tiny_frac_keeps_one_train_row(self):
        ds = Dataset(np.arange(10.0).reshape(-1, 1), np.arange(10.0))
        tr, te = split(ds, 1e-6, seed=0)
        assert tr.n == 1

    def test_frac_bounds(self):
        ds = Dataset(np.arange(4.0).reshape(-1, 1), np.arange(4.0))
        for bad in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(ParameterError):
                split(ds, bad, seed=0)

    def test_rows_keep_original_order(self):
        ds = Dataset(np.arange(50.0).reshape(-1, 1), np.arange(50.0))
        tr, te = split(ds, 0.7, seed=11)
        assert np.all(np.diff(tr.y) > 0)
        assert np.all(np.diff(te.y) > 0)


class TestInterpSplit:
    def test_five_segments_of_twenty_from_600(self):
        ds = Dataset(np.arange(600.0).reshape(-1, 1), np.arange(600.0))
        tr, te = interp_split(ds, 5, 20, seed=1)
        assert te.n == 100 and tr.n == 500

    def test_segments_contiguous_and_disjoint(self):
        ds = Dataset(np.arange(200.0).reshape(-1, 1), np.arange(200.0))
        for seed in range(20):
            _, te = interp_split(ds, 4, 10, seed=seed)
            idx = te.y.astype(int)
            assert len(set(idx)) == 40
            # adjacent segments may abut into a longer run; every run must
            # still be a whole number of segments
            runs = np.split(idx, np.nonzero(np.diff(idx) > 1)[0] + 1)
            assert 1 <= len(runs) <= 4
            for r in runs:
                assert len(r) % 10 == 0
                assert np.all(np.diff(r) == 1)

    def test_deterministic(self):
        ds = Dataset(np.arange(100.0).reshape(-1, 1), np.arange(100.0))
        a = interp_split(ds, 3, 5, seed=9)[1].y
        b = interp_split(ds, 3, 5, seed=9)[1].y
        np.testing.assert_array_equal(a, b)

    def test_overflow_rejected(self):
        ds = Dataset(np.arange(30.0).reshape(-1, 1), np.arange(30.0))
        with pytest.raises(ParameterError):
            interp_split(ds, 3, 10, seed=0)  # would leave no training rows
        with pytest.raises(ParameterError):
            interp_split(ds, 4, 10, seed=0)

    def test_segments_can_reach_both_ends(self):
        ds = Dataset(np.arange(12.0).reshape(-1, 1), np.arange(12.0))
        seen_first = seen_last = False
        for seed in range(200):
            _, te = interp_split(ds, 2, 3, seed=seed)
            idx = te.y.astype(int)
            seen_first |= 0 in idx
            seen_last |= 11 in idx
        assert seen_first and seen_last


class TestToy:
    def test_fn_values(self):
        assert toy_fn(np.array([0.0]))[0] == 1.0
        x = math.pi / 5
        assert toy_fn(np.array([x]))[0] == pytest.approx(-1.0 / (1.0 + x), rel=1e-12)

    def test_counts_and_determinism(self):
        a = synth_toy(300, seed=5)
        b = synth_toy(300, seed=5)
        assert a.n == 300 and a.d == 1
        np.testing.assert_array_equal(a.x, b.x)
        np.testing.assert_array_equal(a.y, b.y)

    def test_noise_modes_share_inputs(self):
        v = synth_toy(500, seed=2, noise="var")
        s = synth_toy(500, seed=2, noise="std")
        z = synth_toy(500, seed=2, noise="none")
        np.testing.assert_array_equal(v.x, s.x)
        np.testing.assert_array_equal(v.x, z.x)
        np.testing.assert_allclose(z.y, toy_fn(z.x[:, 0]), atol=1e-15)
        rv = v.y - toy_fn(v.x[:, 0])
        rs = s.y - toy_fn(s.x[:, 0])
        # residual spread matches the declared reading of the noise level
        assert rv.std() == pytest.approx(math.sqrt(0.1), rel=0.15)
        assert rs.std() == pytest.approx(0.1, rel=0.15)

    def test_bad_args(self):
        with pytest.raises(ParameterError):
            synth_toy(0, seed=1)
        with pytest.raises(ParameterError):
            synth_toy(10, seed=1, noise="loud")

    def test_grid(self):
        g = toy_grid(1000)
        assert g.n == 1000
        assert g.x[0, 0] == -3.0 and g.x[-1, 0] == 3.0
        np.testing.assert_allclose(g.y, toy_fn(g.x[:, 0]), atol=1e-15)
