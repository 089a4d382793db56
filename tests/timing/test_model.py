"""Tests for the Section 2.2 round-cost model."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.timing.model import RoundCost, crossover_d, timing_series


class TestRoundCost:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            RoundCost(D=0, d=1)
        with pytest.raises(ConfigurationError):
            RoundCost(D=1, d=-1)
        with pytest.raises(ConfigurationError):
            RoundCost(D=1, d=0).crw_time(-1)
        with pytest.raises(ConfigurationError):
            RoundCost(D=1, d=0).ffd_time(0, -1.0)

    def test_paper_formulas(self):
        cost = RoundCost(D=100.0, d=5.0)
        assert cost.crw_time(0) == 105.0  # 1 round
        assert cost.crw_time(2) == 3 * 105.0
        assert cost.early_stopping_time(0) == 200.0  # f+2 rounds
        assert cost.early_stopping_time(3, t=2) == 300.0  # min(f+2, t+1)
        assert cost.floodset_time(4) == 500.0
        assert cost.ffd_time(2, d_fd=1.0) == 100.0 + 2.0 + 1.0

    def test_extended_wins_when_d_small(self):
        cost = RoundCost(D=100.0, d=1.0)
        for f in range(6):
            assert cost.extended_wins(f)

    def test_extended_loses_when_d_huge(self):
        cost = RoundCost(D=100.0, d=120.0)
        assert not cost.extended_wins(0)  # 220 > 200

    @given(
        D=st.floats(min_value=1.0, max_value=1e4),
        frac=st.floats(min_value=0.0, max_value=2.0),
        f=st.integers(0, 30),
    )
    def test_closed_forms_and_win_margin(self, D, frac, f):
        cost = RoundCost(D=D, d=frac * D)
        assert cost.crw_time(f) == pytest.approx((f + 1) * (D + frac * D))
        assert cost.early_stopping_time(f) == pytest.approx((f + 2) * D)
        margin = cost.early_stopping_time(f) - cost.crw_time(f)
        assert cost.extended_wins(f) == (margin > 0)

    def test_crossover_boundary_exact(self):
        # d == D/(f+1) is the tie: strictly "wins" must be False.
        D, f = 100.0, 3
        cost = RoundCost(D=D, d=crossover_d(D, f))
        assert not cost.extended_wins(f)
        cost_eps = RoundCost(D=D, d=crossover_d(D, f) - 1e-9)
        assert cost_eps.extended_wins(f)


class TestCrossover:
    def test_formula(self):
        assert crossover_d(100.0, 0) == 100.0
        assert crossover_d(100.0, 1) == 50.0
        assert crossover_d(100.0, 4) == 20.0

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            crossover_d(0.0, 1)
        with pytest.raises(ConfigurationError):
            crossover_d(1.0, -1)

    def test_fraction_of_D_is_reciprocal_of_f_plus_one(self):
        # As a share of D the crossover is 1/(f+1), whatever D is.
        for f in range(10):
            assert crossover_d(77.0, f) / 77.0 == pytest.approx(1 / (f + 1))

    @given(st.floats(min_value=0.1, max_value=1e6), st.integers(0, 50))
    def test_crossover_consistent_with_extended_wins(self, D, f):
        threshold = crossover_d(D, f)
        below = RoundCost(D=D, d=threshold * 0.99)
        above = RoundCost(D=D, d=threshold * 1.01)
        assert below.extended_wins(f)
        assert not above.extended_wins(f)


class TestSeries:
    def test_shape(self):
        series = timing_series(100.0, f_values=(0, 1), d_fractions=(0.0, 0.5, 1.5))
        assert len(series) == 6

    def test_winner_flips_along_d_axis(self):
        series = [p for p in timing_series(100.0, f_values=(1,)) if p.f == 1]
        wins = [p.extended_wins for p in series]
        # Starts winning at d=0, eventually loses: exactly one flip.
        assert wins[0] is True
        assert wins[-1] is False
        flips = sum(1 for a, b in zip(wins, wins[1:]) if a != b)
        assert flips == 1

    def test_win_region_is_a_prefix_of_the_d_axis(self):
        # For fixed f, extended wins from d = 0 up to the crossover and
        # never again: at most one flip along a fine d/D axis.
        fracs = tuple(k / 100 for k in range(201))
        f_values = (0, 1, 2, 4, 8)
        series = timing_series(100.0, f_values=f_values, d_fractions=fracs)
        for f in f_values:
            wins = [p.extended_wins for p in series if p.f == f]
            assert wins[0] is True
            assert sum(1 for a, b in zip(wins, wins[1:]) if a != b) <= 1

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            timing_series(0.0)
        with pytest.raises(ConfigurationError):
            timing_series(1.0, d_fractions=(-0.1,))
        with pytest.raises(ConfigurationError):
            timing_series(1.0, f_values=(-1,))

    @given(
        D=st.floats(min_value=1.0, max_value=1e4),
        frac=st.floats(min_value=0.0, max_value=2.0),
        f=st.integers(0, 30),
    )
    def test_points_match_scalar_model(self, D, frac, f):
        (point,) = timing_series(D, f_values=(f,), d_fractions=(frac,))
        cost = RoundCost(D=D, d=frac * D)
        assert (point.f, point.d_over_D) == (f, frac)
        assert point.crw == cost.crw_time(f)
        assert point.early_stopping == cost.early_stopping_time(f)
        assert point.extended_wins == cost.extended_wins(f)

    def test_margin_sign_agrees_with_wins(self):
        fracs = tuple(k / 20 for k in range(31))
        for p in timing_series(50.0, f_values=(0, 3), d_fractions=fracs):
            assert p.extended_wins == (p.early_stopping - p.crw > 0)

    @pytest.mark.parametrize("f", [0, 1, 2, 4])
    def test_flip_happens_just_below_crossover(self, f):
        # The last winning d/D on a 0.001-step axis sits within one step
        # below 1/(f+1); every later point loses.
        fracs = tuple(k / 1000 for k in range(2001))
        wins = [p.extended_wins
                for p in timing_series(100.0, f_values=(f,), d_fractions=fracs)]
        last_win = max(k for k, w in enumerate(wins) if w)
        threshold = 1 / (f + 1)
        assert threshold - 2e-3 <= fracs[last_win] < threshold
        assert not any(wins[last_win + 1:])

    def test_f0_crossover_at_d_equals_D(self):
        # For f=0: 1*(D+d) vs 2D -> tie exactly at d = D.
        pts = {p.d_over_D: p for p in timing_series(100.0, f_values=(0,))}
        assert pts[0.75].extended_wins
        assert not pts[1.0].extended_wins  # tie is not a win
        assert not pts[1.25].extended_wins
