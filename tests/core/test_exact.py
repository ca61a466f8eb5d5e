"""Tests for exact transient analysis (cross-checked against Monte Carlo)."""

import numpy as np
import pytest

from repro.core.chain import DownloadChain
from repro.core.exact import (
    _exact_potential_ratio_impl,
    _propagate_distribution_impl,
)
from repro.core.parameters import ModelParameters
from repro.core.timeline import (
    expected_download_time_exact,
    _mean_timeline_impl,
    potential_ratio_by_pieces,
)
from repro.errors import ParameterError


@pytest.fixture(scope="module")
def tiny_chain():
    return DownloadChain(ModelParameters(num_pieces=8, max_conns=2, ns_size=4))


@pytest.fixture(scope="module")
def transient(tiny_chain):
    return _propagate_distribution_impl(tiny_chain, horizon=200)


class TestPropagation:
    def test_cdf_monotone_to_one(self, transient):
        cdf = transient.completion_cdf
        assert (np.diff(cdf) >= -1e-12).all()
        assert cdf[-1] == pytest.approx(1.0, abs=1e-6)

    def test_pmf_non_negative(self, transient):
        assert (transient.completion_pmf >= 0).all()

    def test_mean_matches_hitting_time_solve(self, tiny_chain, transient):
        exact = expected_download_time_exact(tiny_chain)
        assert transient.mean_download_time() == pytest.approx(exact, rel=1e-3)

    def test_mean_matches_monte_carlo(self, tiny_chain, transient):
        mc = _mean_timeline_impl(tiny_chain, runs=500, seed=1).total_download_time()
        assert transient.mean_download_time() == pytest.approx(mc, rel=0.08)

    def test_expected_pieces_monotone(self, transient):
        assert (np.diff(transient.expected_pieces) >= -1e-9).all()

    def test_expected_pieces_converges_to_b(self, transient):
        assert transient.expected_pieces[-1] == pytest.approx(8.0, abs=1e-3)

    def test_pruned_mass_negligible(self, transient):
        assert transient.pruned_mass < 1e-6

    def test_short_horizon_mean_rejected(self, tiny_chain):
        short = _propagate_distribution_impl(tiny_chain, horizon=3)
        with pytest.raises(ParameterError):
            short.mean_download_time()

    def test_validation(self, tiny_chain):
        with pytest.raises(ParameterError):
            _propagate_distribution_impl(tiny_chain, horizon=0)
        with pytest.raises(ParameterError):
            _propagate_distribution_impl(tiny_chain, horizon=10, prune=0.01)


class TestExactPotentialRatio:
    def test_matches_monte_carlo(self, tiny_chain):
        exact = _exact_potential_ratio_impl(tiny_chain).ratio
        mc = potential_ratio_by_pieces(tiny_chain, runs=2000, seed=2).ratio
        for b in range(1, 8):
            if np.isfinite(exact[b]) and np.isfinite(mc[b]):
                assert exact[b] == pytest.approx(mc[b], abs=0.05), f"b={b}"

    def test_bounds(self, tiny_chain):
        exact = _exact_potential_ratio_impl(tiny_chain).ratio
        finite = exact[np.isfinite(exact)]
        assert (finite >= 0).all()
        assert (finite <= 1).all()

    def test_completion_entry_zero(self, tiny_chain):
        assert _exact_potential_ratio_impl(tiny_chain).ratio[-1] == 0.0
