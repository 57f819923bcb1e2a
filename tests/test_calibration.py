import pytest
from hypothesis import given
from hypothesis import strategies as st

from probevolume.calibration import CalibrationPair, fit_through_origin


def _pairs(rows):
    return [CalibrationPair(*row) for row in rows]


class TestFit:
    def test_single_pair(self):
        model = fit_through_origin(_pairs([(2.0, 100.0)]), "ols")
        assert model.beta == 50.0

    def test_collinear_weight_invariant(self):
        for weights in ((1.0, 1.0), (5.0, 0.25), (0.01, 9.0)):
            model = fit_through_origin(
                _pairs([(1.0, 50.0, weights[0]), (2.0, 100.0, weights[1])]), "wls"
            )
            assert model.beta == pytest.approx(50.0, rel=1e-12)

    def test_hand_weighted_normal_equation(self):
        ols = fit_through_origin(_pairs([(1.0, 60.0), (2.0, 100.0)]), "ols")
        assert ols.beta == pytest.approx(52.0, rel=1e-12)
        wls = fit_through_origin(_pairs([(1.0, 60.0, 4.0), (2.0, 100.0, 1.0)]), "wls")
        assert wls.beta == pytest.approx(55.0, rel=1e-12)

    def test_zero_m_hat_pairs_do_not_constrain(self):
        base = fit_through_origin(_pairs([(2.0, 100.0)]), "ols")
        padded = fit_through_origin(_pairs([(2.0, 100.0), (0.0, 37.0)]), "ols")
        assert padded.beta == base.beta

    def test_all_zero_fails(self):
        with pytest.raises(ValueError, match="m_hat = 0"):
            fit_through_origin(_pairs([(0.0, 10.0), (0.0, 20.0)]), "ols")

    @pytest.mark.parametrize(
        "rows",
        [[(1.0, 60.0), (1e200, 100.0)], [(1e154, 1e154), (1e154, 1e154)]],
        ids=["sxx-inf", "fsum-intermediate-overflow"],
    )
    def test_overflow_fails(self, rows):
        # unchecked, the first gives beta = 0 and the second an OverflowError from fsum
        with pytest.raises(ValueError, match="overflowed"):
            fit_through_origin(_pairs(rows), "ols")

    def test_underflow_fails(self):
        # each w * m_hat^2 is about 1e-340, below the smallest subnormal
        with pytest.raises(ValueError, match="underflowed"):
            fit_through_origin(_pairs([(1e-170, 50.0), (2e-170, 100.0)]), "ols")

    def test_method_is_ols_or_wls(self):
        assert fit_through_origin(_pairs([(2.0, 100.0, 3.0)]), "ols").method == "ols"
        with pytest.raises(ValueError, match="'ols' or 'wls'"):
            fit_through_origin(_pairs([(2.0, 100.0)]), "gls")

    def test_empty_fails(self):
        with pytest.raises(ValueError):
            fit_through_origin([], "ols")

    def test_pair_validation(self):
        with pytest.raises(ValueError):
            CalibrationPair(1.0, 0.0)
        with pytest.raises(ValueError):
            CalibrationPair(1.0, 10.0, weight=0.0)


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
        base = fit_through_origin(_pairs(rows), "wls")
        scaled = fit_through_origin(_pairs([(x, c * y, w) for x, y, w in rows]), "wls")
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
        base = fit_through_origin(_pairs(rows), "wls")
        scaled = fit_through_origin(_pairs([(x, y, c * w) for x, y, w in rows]), "wls")
        assert scaled.beta == pytest.approx(base.beta, rel=1e-12)

    @given(
        st.lists(st.floats(0.1, 100.0), min_size=2, max_size=6),
    )
    def test_ols_equals_uniformly_weighted_wls(self, xs):
        rows = [(x, 3.0 * x + 1.0) for x in xs]
        plain = fit_through_origin(_pairs(rows), "ols")
        weighted = fit_through_origin(_pairs([(x, y, 7.5) for x, y in rows]), "wls")
        assert weighted.beta == pytest.approx(plain.beta, rel=1e-12)
