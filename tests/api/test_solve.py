"""Tests for the unified `repro.api.solve` front door.

Covers the quantity/method vocabulary, ``auto`` resolution, option
validation, the JSON view, and bit-identical results between the engine
behind each retired entry point (the ``_*_impl`` functions) and the
`solve()` call that replaces it.
"""

import json

import numpy as np
import pytest

import repro
from repro.api import DownloadTimeResult, ModelParams, Quantity, Query, solve
from repro.core.exact import (
    PotentialRatioExact,
    TransientResult,
    _exact_potential_ratio_impl,
    _propagate_distribution_impl,
)
from repro.core.methods import Method
from repro.core.sparse import _solve_fundamental_impl
from repro.core.timeline import (
    PhaseStatistics,
    TimelineResult,
    _mean_timeline_impl,
    phase_duration_statistics,
)
from repro.errors import ParameterError
from repro.runtime.cache import KernelCache


@pytest.fixture
def params():
    return ModelParams(num_pieces=10, max_conns=3, ns_size=6)


@pytest.fixture
def cache():
    return KernelCache()


class TestVocabulary:
    @pytest.mark.parametrize(
        "alias, quantity",
        [
            ("ratio", Quantity.POTENTIAL_RATIO),
            ("fig1a", Quantity.POTENTIAL_RATIO),
            ("first_passage", Quantity.TIMELINE),
            ("mean_download_time", Quantity.DOWNLOAD_TIME),
            ("TTD", Quantity.DOWNLOAD_TIME),
            ("phase_durations", Quantity.PHASES),
            ("distribution", Quantity.TRANSIENT),
        ],
    )
    def test_quantity_aliases(self, alias, quantity):
        assert Quantity.parse(alias) is quantity

    def test_unknown_quantity_lists_choices(self, params):
        with pytest.raises(ParameterError) as excinfo:
            solve(params, "magic")
        message = str(excinfo.value)
        assert "unknown quantity 'magic'" in message
        assert "'potential_ratio'" in message
        assert "aliases" in message

    def test_non_string_quantity_rejected(self, params):
        with pytest.raises(ParameterError, match="quantity must be a string"):
            solve(params, 7)

    def test_disallowed_method_lists_choices(self, params):
        with pytest.raises(ParameterError) as excinfo:
            solve(params, "timeline", method="dict")
        message = str(excinfo.value)
        assert "method 'dict' is not valid here" in message
        assert "'exact'" in message and "'batch'" in message

    def test_unknown_option_lists_accepted(self, params):
        with pytest.raises(ParameterError) as excinfo:
            solve(params, "timeline", method="exact", runs=8)
        message = str(excinfo.value)
        assert "unknown option(s) ['runs']" in message
        assert "drop_tol" in message


class TestAutoResolution:
    def test_small_space_goes_exact(self, params):
        assert Query.make(params, "timeline").method is Method.EXACT

    def test_large_space_goes_batch(self):
        big = ModelParams(num_pieces=500, max_conns=20, ns_size=50)
        assert Query.make(big, "timeline").method is Method.BATCH

    def test_max_states_option_steers_auto(self, params):
        # params has 280 transient states: over a cap of 100 but within
        # the 8x batch band, so auto lands on the sampler.
        query = Query.make(params, "download_time", max_states=100)
        assert query.method is Method.BATCH

    def test_transient_auto_is_exact(self):
        big = ModelParams(num_pieces=500, max_conns=20, ns_size=50)
        assert Query.make(big, "transient", horizon=5).method is Method.EXACT


class TestQueryCacheKey:
    def test_identical_queries_share_a_key(self, params):
        a = Query.make(params, "download_time", "exact")
        b = Query.make(params, "download_time", "exact")
        assert a.cache_key() == b.cache_key()

    def test_pinned_value(self, params):
        assert Query.make(params, "download_time", "exact").cache_key() == (
            "cd6fb9fec63159dd3cd62f3498ffac79bdc9eb75d1c53ed1f10410e27282c623"
        )

    def test_method_quantity_and_options_distinguish(self, params):
        base = Query.make(params, "timeline", "batch", runs=8, seed=0)
        assert (
            Query.make(params, "timeline", "serial", runs=8, seed=0).cache_key()
            != base.cache_key()
        )
        assert (
            Query.make(params, "timeline", "batch", runs=9, seed=0).cache_key()
            != base.cache_key()
        )
        assert (
            Query.make(params, "phases", "batch", runs=8, seed=0).cache_key()
            != base.cache_key()
        )

    def test_option_order_is_canonical(self, params):
        a = Query.make(params, "timeline", "batch", runs=8, seed=0)
        b = Query.make(params, "timeline", "batch", seed=0, runs=8)
        assert a.options == b.options
        assert a.cache_key() == b.cache_key()


class TestDispatch:
    def test_potential_ratio_payload_types(self, params, cache):
        exact = solve(params, "potential_ratio", "exact", cache=cache)
        assert isinstance(exact.payload, PotentialRatioExact)
        assert exact.stats["transient_states"] > 0
        sampled = solve(
            params, "potential_ratio", "batch", cache=cache, runs=4, seed=0
        )
        assert sampled.payload.observations.shape[0] > 0

    def test_timeline_payload(self, params, cache):
        result = solve(params, "timeline", "exact", cache=cache)
        assert isinstance(result.payload, TimelineResult)
        assert result.payload.runs == 0
        assert result.payload.mean_steps.shape == (params.num_pieces + 1,)

    def test_download_time_payload(self, params, cache):
        result = solve(params, "download_time", "exact", cache=cache)
        assert isinstance(result.payload, DownloadTimeResult)
        assert result.payload.runs == 0
        assert result.payload.mean > 0

    def test_phases_payload(self, params, cache):
        result = solve(params, "phases", "exact", cache=cache)
        assert isinstance(result.payload, PhaseStatistics)

    def test_transient_payload(self, params, cache):
        result = solve(params, "transient", cache=cache, horizon=5)
        assert isinstance(result.payload, TransientResult)
        assert result.stats == {"horizon": 5}

    def test_transient_requires_horizon(self, params, cache):
        with pytest.raises(ParameterError, match="needs a 'horizon' option"):
            solve(params, "transient", cache=cache)

    def test_result_to_dict_is_json_ready(self, params, cache):
        for quantity, options in [
            ("potential_ratio", {}),
            ("timeline", {}),
            ("download_time", {}),
            ("phases", {}),
            ("transient", {"horizon": 4}),
        ]:
            view = solve(params, quantity, cache=cache, **options).to_dict()
            encoded = json.loads(json.dumps(view))
            assert encoded["quantity"] == quantity
            assert encoded["params"]["num_pieces"] == params.num_pieces

    def test_top_level_export(self, params):
        assert repro.solve is solve
        assert repro.ModelParams is ModelParams


class TestShimEquivalence:
    """The engines the retired entry points forwarded to (the
    ``_*_impl`` functions) must match `solve()` bit-for-bit — the
    promise that lets historical callers migrate without re-validating
    their numbers."""

    def test_exact_potential_ratio_sparse(self, params, cache):
        old = _exact_potential_ratio_impl(cache.chain(params))
        new = solve(params, "potential_ratio", "exact", cache=cache).payload
        assert np.array_equal(old.ratio, new.ratio, equal_nan=True)
        assert np.array_equal(old.occupancy, new.occupancy)
        assert old.pruned_mass == new.pruned_mass

    def test_exact_potential_ratio_dict(self, params, cache):
        old = _exact_potential_ratio_impl(
            cache.chain(params), method="dict", horizon=40
        )
        new = solve(
            params, "potential_ratio", "dict", cache=cache, horizon=40
        ).payload
        assert np.array_equal(old.ratio, new.ratio, equal_nan=True)
        assert old.pruned_mass == new.pruned_mass

    def test_propagate_distribution(self, params, cache):
        old = _propagate_distribution_impl(cache.chain(params), 6)
        new = solve(params, "transient", cache=cache, horizon=6).payload
        assert np.array_equal(old.completion_pmf, new.completion_pmf)
        assert np.array_equal(old.expected_pieces, new.expected_pieces)
        assert old.pruned_mass == new.pruned_mass

    @pytest.mark.parametrize("method, batch", [("batch", True), ("serial", False)])
    def test_mean_timeline(self, params, cache, method, batch):
        old = _mean_timeline_impl(
            cache.chain(params), runs=8, seed=3, batch=batch
        )
        new = solve(
            params, "timeline", method, cache=cache, runs=8, seed=3
        ).payload
        assert np.array_equal(old.mean_steps, new.mean_steps, equal_nan=True)
        assert np.array_equal(old.std_steps, new.std_steps, equal_nan=True)
        assert old.runs == new.runs

    def test_solve_fundamental_moments(self, params, cache):
        old = _solve_fundamental_impl(cache.chain(params))
        new = solve(params, "download_time", "exact", cache=cache).payload
        assert old.mean_download_time == new.mean
        assert old.variance_download_time == new.variance
        timeline = solve(params, "timeline", "exact", cache=cache).payload
        assert np.array_equal(old.timeline, timeline.mean_steps)

    def test_phases_matches_direct_call(self, params, cache):
        direct = phase_duration_statistics(
            cache.chain(params), method=Method.EXACT
        )
        via_solve = solve(params, "phases", "exact", cache=cache).payload
        assert direct.mean == via_solve.mean
        assert direct.occupancy == via_solve.occupancy
