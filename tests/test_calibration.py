import logging
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from probevolume.calibration import fit_through_origin, read_pairs_csv
from probevolume.estimator import finite, positive

from test_footprint_data import _FIELD_LIMIT, _numbers, _oracle_csv_rows


def _pairs(rows):
    """The float64 (m_hat, known_volume, weight) columns of rows
    (m_hat, known_volume[, weight]), a missing weight being 1."""
    return tuple(np.array([(*row, 1.0)[:3] for row in rows]).reshape(-1, 3).T)


class TestFit:
    def test_single_pair(self):
        model = fit_through_origin(*_pairs([(2.0, 100.0)]), "ols")
        assert model.beta == 50.0

    def test_collinear_weight_invariant(self):
        for weights in ((1.0, 1.0), (5.0, 0.25), (0.01, 9.0)):
            model = fit_through_origin(
                *_pairs([(1.0, 50.0, weights[0]), (2.0, 100.0, weights[1])]), "wls"
            )
            assert model.beta == pytest.approx(50.0, rel=1e-12)

    def test_hand_weighted_normal_equation(self):
        ols = fit_through_origin(*_pairs([(1.0, 60.0), (2.0, 100.0)]), "ols")
        assert ols.beta == pytest.approx(52.0, rel=1e-12)
        wls = fit_through_origin(*_pairs([(1.0, 60.0, 4.0), (2.0, 100.0, 1.0)]), "wls")
        assert wls.beta == pytest.approx(55.0, rel=1e-12)

    def test_zero_m_hat_pairs_do_not_constrain(self):
        base = fit_through_origin(*_pairs([(2.0, 100.0)]), "ols")
        padded = fit_through_origin(*_pairs([(2.0, 100.0), (0.0, 37.0)]), "ols")
        assert padded.beta == base.beta

    def test_all_zero_fails(self):
        with pytest.raises(ValueError, match="m_hat = 0"):
            fit_through_origin(*_pairs([(0.0, 10.0), (0.0, 20.0)]), "ols")

    @pytest.mark.parametrize(
        "rows",
        [[(1.0, 60.0), (1e200, 100.0)], [(1e154, 1e154), (1e154, 1e154)]],
        ids=["sxx-inf", "fsum-intermediate-overflow"],
    )
    def test_overflow_fails(self, rows):
        # unchecked, the first gives beta = 0 and the second an OverflowError from fsum
        with pytest.raises(ValueError, match="overflowed"):
            fit_through_origin(*_pairs(rows), "ols")

    def test_underflow_fails(self):
        # each w * m_hat^2 is about 1e-340, below the smallest subnormal
        with pytest.raises(ValueError, match="underflowed"):
            fit_through_origin(*_pairs([(1e-170, 50.0), (2e-170, 100.0)]), "ols")

    def test_method_is_ols_or_wls(self):
        assert fit_through_origin(*_pairs([(2.0, 100.0, 3.0)]), "ols").method == "ols"
        with pytest.raises(ValueError, match="'ols' or 'wls'"):
            fit_through_origin(*_pairs([(2.0, 100.0)]), "gls")

    def test_empty_fails(self):
        with pytest.raises(ValueError):
            fit_through_origin([], [], [], "ols")

    def test_pair_validation(self):
        with pytest.raises(ValueError):
            fit_through_origin(*_pairs([(1.0, 0.0)]), "ols")
        with pytest.raises(ValueError):
            fit_through_origin(*_pairs([(1.0, 10.0, 0.0)]), "wls")

    @pytest.mark.parametrize(
        "columns",
        [([1.0, 2.0], [60.0], [1.0, 1.0]), ([1.0], [60.0], [1.0, 1.0]),
         (1.0, 60.0, 1.0), (np.ones((2, 1)), np.ones((2, 1)), np.ones((2, 1)))],
        ids=["known_volume-short", "weight-long", "scalars", "2-d"],
    )
    def test_columns_of_one_length(self, columns):
        with pytest.raises(ValueError, match="1-D columns of one length"):
            fit_through_origin(*columns, "ols")

    @pytest.mark.parametrize("m_hat", [[], [0.0]], ids=["empty", "all-zero"])
    def test_method_is_checked_first(self, caplog, m_hat):
        caplog.set_level(logging.WARNING, logger="probevolume.calibration")
        with pytest.raises(ValueError, match="got 'gls'"):
            fit_through_origin(m_hat, [10.0] * len(m_hat), [1.0] * len(m_hat), "gls")
        assert caplog.records == []


class TestProperties:
    @given(
        st.lists(
            st.tuples(
                st.one_of(st.just(0.0), st.floats(1e-3, 100.0)),
                st.floats(1.0, 1000.0),
                st.floats(0.01, 100.0),
            ),
            min_size=1,
            max_size=8,
        ).filter(lambda rows: any(r[0] > 0.0 for r in rows)),
        st.floats(0.1, 50.0),
    )
    def test_scale_equivariance(self, rows, c):
        base = fit_through_origin(*_pairs(rows), "wls")
        scaled = fit_through_origin(*_pairs([(x, c * y, w) for x, y, w in rows]), "wls")
        assert scaled.beta == pytest.approx(c * base.beta, rel=1e-9)

    @given(
        st.lists(
            st.tuples(
                st.floats(0.1, 100.0),
                st.floats(1.0, 1000.0),
                st.floats(0.01, 100.0),
            ),
            min_size=1,
            max_size=8,
        ),
        st.floats(0.01, 100.0),
    )
    def test_weight_scale_invariance(self, rows, c):
        base = fit_through_origin(*_pairs(rows), "wls")
        scaled = fit_through_origin(*_pairs([(x, y, c * w) for x, y, w in rows]), "wls")
        assert scaled.beta == pytest.approx(base.beta, rel=1e-12)

    @given(
        st.lists(st.floats(0.1, 100.0), min_size=2, max_size=6),
    )
    def test_ols_equals_uniformly_weighted_wls(self, xs):
        rows = [(x, 3.0 * x + 1.0) for x in xs]
        plain = fit_through_origin(*_pairs(rows), "ols")
        weighted = fit_through_origin(*_pairs([(x, y, 7.5) for x, y in rows]), "wls")
        assert weighted.beta == pytest.approx(plain.beta, rel=1e-12)

    @given(
        st.lists(
            st.tuples(
                st.one_of(st.just(0.0), st.floats(-1e300, 1e300)),
                st.floats(1e-300, 1e300),
                st.floats(1e-300, 1e300),
            ),
            min_size=1,
            max_size=12,
        )
    )
    def test_beta_is_the_per_pair_sums(self, rows):
        # the column products are the per-pair ones, w * x * y, in that order
        try:
            sxy = math.fsum(w * x * y for x, y, w in rows)
            sxx = math.fsum(w * x * x for x, y, w in rows)
            expected = sxy / sxx if sxx and math.isfinite(sxx) else None
        except (OverflowError, ValueError, ZeroDivisionError):
            expected = None
        if expected is None or not math.isfinite(expected):
            with pytest.raises(ValueError, match="cannot fit"):
                fit_through_origin(*_pairs(rows), "wls")
        else:
            assert fit_through_origin(*_pairs(rows), "wls").beta.hex() == expected.hex()


# -- oracle: one checked pair per row, the reference the reader's columns must match


def _oracle_pairs(path, weighted):
    """The (m_hat, adt, weight) lists of the file's pairs; a row is parsed
    weight, m_hat, adt and checked m_hat, known_volume, weight."""

    def bad(msg, exc):
        raise ValueError(msg) from exc

    rows = _oracle_csv_rows(path, ("m_hat", "adt", "weight"), bad)
    has_weight = next(rows, False)
    if weighted and not has_weight:
        raise ValueError("wls calibration needs a weight column")
    pairs = []
    for lineno, row in rows:
        try:
            weight = float(row[2]) if weighted else 1.0
            m_hat = float(row[0])
            adt = float(row[1])
            pairs.append((finite(m_hat, "m_hat"), positive(adt, "known_volume"),
                          positive(weight, "weight")))
        except (IndexError, ValueError) as exc:
            bad(f"{path}:{lineno}: bad row {row!r} ({exc})", exc)
    return [[pair[i] for pair in pairs] for i in range(3)]


_good = st.floats(1e-3, 1e4).map(repr)
# a row with more than one bad cell shows which is parsed or checked first
_cells = st.one_of(_numbers, st.sampled_from(["x", "", "nan", "inf", "0", "-1"]))
_pair_rows = st.one_of(
    st.tuples(_good, _good, _good).map(",".join),
    st.tuples(_cells, _cells).map(",".join),
    st.tuples(_cells, _cells, _cells).map(",".join),
    st.tuples(_cells, _cells, _cells, _cells).map(",".join),  # extra column
    _cells,  # adt column missing
    st.sampled_from(["", " ", ",", ",,", '""', '"', f"{_FIELD_LIMIT},5"]),
)
_pair_headers = st.sampled_from(["m_hat,adt", "m_hat,adt,weight", " m_hat , adt , weight ",
                                 "m_hat,adt,x", "adt,m_hat"])


class TestReaderOracle:
    @given(header=_pair_headers, rows=st.lists(_pair_rows, max_size=25),
           endings=st.lists(st.sampled_from(["\n", "\r\n", "\r"]), min_size=1),
           final=st.booleans(), weighted=st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_same_columns_and_first_error(self, tmp_path_factory, header, rows, endings,
                                          final, weighted):
        lines = [header, *rows]
        text = "".join(line + endings[i % len(endings)] for i, line in enumerate(lines))
        path = tmp_path_factory.getbasetemp() / "pairs-oracle.csv"
        path.write_text(text if final else text.rstrip("\r\n"), encoding="utf-8",
                        newline="")
        try:
            expected = _oracle_pairs(path, weighted)
        except ValueError as exc:
            with pytest.raises(ValueError) as raised:
                read_pairs_csv(path, weighted)
            assert str(raised.value) == str(exc)
            return
        got = read_pairs_csv(path, weighted)
        assert [c.dtype for c in got] == [np.float64] * 3
        assert [c.tobytes() for c in got] == [np.array(c, dtype=np.float64).tobytes()
                                              for c in expected]


@given(header=_pair_headers, rows=st.lists(_pair_rows, max_size=12), weighted=st.booleans())
@settings(max_examples=100, deadline=None)
def test_byte_order_mark_reads_as_no_mark(tmp_path_factory, header, rows, weighted):
    # spreadsheet exports start the file with a UTF-8 byte-order mark
    path = tmp_path_factory.getbasetemp() / "pairs-bom.csv"
    text = "".join(line + "\r\n" for line in [header, *rows])
    seen = []
    for bom in ("", "\ufeff"):
        path.write_text(bom + text, encoding="utf-8", newline="")
        try:
            seen.append([c.tobytes() for c in read_pairs_csv(path, weighted)])
        except ValueError as exc:
            seen.append(str(exc))
    assert seen[0] == seen[1]
