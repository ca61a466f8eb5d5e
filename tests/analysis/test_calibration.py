"""Tests for trace-driven parameter calibration.

Ground truth comes from the model itself: traces are rendered from
chain trajectories with known parameters, and the estimators must
recover them.
"""

import math

import pytest

from repro.analysis.calibration import (
    calibrate_parameters,
    estimate_alpha,
    estimate_gamma,
    estimate_survival,
)
from repro.core.chain import DownloadChain
from repro.core.parameters import ModelParameters
from repro.errors import ParameterError
from repro.traces.schema import ClientTrace, TraceSample
from repro.traces.synthetic import trace_from_chain

TRUE_ALPHA = 0.25
TRUE_GAMMA = 0.15


@pytest.fixture(scope="module")
def model_traces():
    # Small neighbor set + small p_init: bootstrap and last-phase stalls
    # occur frequently, giving the estimators plenty of evidence.
    params = ModelParameters(
        num_pieces=30, max_conns=2, ns_size=3,
        p_init=0.2, alpha=TRUE_ALPHA, gamma=TRUE_GAMMA,
        p_reenc=0.6, p_new=0.6,
    )
    chain = DownloadChain(params)
    return [trace_from_chain(chain, seed=s) for s in range(120)]


class TestTraceFromChain:
    def test_valid_and_complete(self):
        chain = DownloadChain(ModelParameters(num_pieces=10, max_conns=2, ns_size=4))
        trace = trace_from_chain(chain, seed=0)
        trace.validate()
        assert trace.is_complete
        assert trace.completed_at is not None

    def test_bytes_track_pieces(self):
        chain = DownloadChain(ModelParameters(num_pieces=10, max_conns=2, ns_size=4))
        trace = trace_from_chain(chain, seed=1, piece_size_bytes=100)
        assert trace.bytes_series()[-1] == 1000


class TestEstimators:
    def test_alpha_recovered(self, model_traces):
        alpha, rounds, escapes = estimate_alpha(model_traces)
        assert rounds > 50, "fixture must generate bootstrap stalls"
        assert alpha == pytest.approx(TRUE_ALPHA, abs=0.08)

    def test_gamma_recovered(self, model_traces):
        gamma, rounds, _escapes = estimate_gamma(model_traces)
        assert rounds > 50, "fixture must generate last-phase stalls"
        assert gamma == pytest.approx(TRUE_GAMMA, abs=0.08)

    def test_survival_overestimates_but_tracks(self, model_traces):
        p_reenc, conn_rounds, drops = estimate_survival(model_traces)
        assert conn_rounds > 0
        # Moment estimator over-estimates (simultaneous drop+formation
        # cancel in the aggregate count) but must stay in range and
        # above the truth minus noise.
        assert 0.6 - 0.1 <= p_reenc <= 1.0

    def test_no_observations_gives_nan(self):
        trace = ClientTrace("c", "s", 10, 100, 0.0)
        trace.append(TraceSample(0.0, 500, 5, 2))
        alpha, rounds, _ = estimate_alpha([trace])
        assert rounds == 0
        assert math.isnan(alpha)


class TestCalibrateParameters:
    def test_round_trip(self, model_traces):
        params, result = calibrate_parameters(
            model_traces, max_conns=2, ns_size=3
        )
        assert params.num_pieces == 30
        assert params.alpha == pytest.approx(TRUE_ALPHA, abs=0.08)
        assert params.gamma == pytest.approx(TRUE_GAMMA, abs=0.08)
        assert result.bootstrap_escapes > 0

    def test_fallbacks_used_without_evidence(self):
        trace = ClientTrace("c", "s", 10, 100, 0.0)
        trace.append(TraceSample(0.0, 500, 5, 2))
        trace.append(TraceSample(1.0, 600, 5, 2))
        params, result = calibrate_parameters(
            [trace], max_conns=2, ns_size=4,
            fallback_alpha=0.33, fallback_gamma=0.44,
        )
        assert params.alpha == 0.33
        assert params.gamma == 0.44
        assert math.isnan(result.alpha)

    def test_empty_rejected(self):
        with pytest.raises(ParameterError):
            calibrate_parameters([], max_conns=2, ns_size=4)

    def test_inconsistent_files_rejected(self):
        a = ClientTrace("a", "s", 10, 100, 0.0)
        b = ClientTrace("b", "s", 12, 100, 0.0)
        with pytest.raises(ParameterError):
            calibrate_parameters([a, b], max_conns=2, ns_size=4)

    def test_calibrated_model_reproduces_timeline(self, model_traces):
        """End-to-end: fit on traces, predict download times."""
        import numpy as np

        from repro.core.timeline import _mean_timeline_impl

        params, _ = calibrate_parameters(model_traces, max_conns=2, ns_size=3)
        chain = DownloadChain(params)
        predicted = _mean_timeline_impl(chain, runs=60, seed=9).total_download_time()
        observed = np.mean([t.duration() for t in model_traces])
        assert predicted == pytest.approx(observed, rel=0.35)