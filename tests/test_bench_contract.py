"""The benchmark's workloads still run on the package API.

``bench/workloads.py`` calls the package the way the benchmark measures it;
one untraced pass of each workload must finish with no failed item, so an
API change that breaks the benchmark fails here first.  The stream and live
passes must also read every capture's direction right, and the protocol
pass (whose checks include that every reloaded model predicts as it did
before saving) must test on 100 captures, and its dataset file must hold
its features as base64 bytes: at most 4/3 of the raw float64 features plus
512 bytes per line, which float text is far above.
"""

import sys
from pathlib import Path

import pytest

from whiskerlab.events import DetectorConfig
from whiskerlab.sim import WhiskerArraySpec

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture(scope="module")
def bench():
    sys.path.insert(0, str(BENCH))
    try:
        import spans
        import workloads

        yield workloads, spans.NullTracer()
    finally:
        sys.path.remove(str(BENCH))


@pytest.mark.parametrize("name", ["Stream", "Live", "Protocol"])
def test_one_pass_has_no_failed_item(bench, name, tmp_path):
    workloads, tracer = bench
    workload = workloads.Protocol(tmp_path) if name == "Protocol" else getattr(workloads, name)()
    state, _ = workload.setup(1, tracer)
    res = workload.run_pass(state, tracer)
    assert res.slides > 0 and res.failed == 0, res.errors
    if name == "Protocol":
        assert res.counts["learn.dataset.n_test"] == 100
        lines, array = res.counts["learn.dataset.slides"], WhiskerArraySpec()
        raw = lines * (array.rows + array.cols) * DetectorConfig().sample_frames * 8
        assert res.counts["learn.dataset.jsonl_bytes"] <= raw * 4 / 3 + 512 * lines
    else:
        assert res.counts["analysis.indeterminate"] == 0
        assert res.counts["analysis.direction_right"] == res.counts["events.captures"] > 0
