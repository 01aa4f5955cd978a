"""The surrogate CLI's exact engine serves the reference summary.

Regression: ``repro surrogate project`` answered low-confidence queries
through an engine built on an argmin-only explorer, whose summaries put
``search_width: 1`` on every kernel while the engine's own
``candidates_explored`` counter reported the true width.
"""

import pytest

from repro import cli
from repro.service.engine import ProjectionEngine
from repro.surrogate.store import save_model

from tests.surrogate.conftest import request_for


@pytest.fixture()
def serving(model, tmp_path):
    """(SurrogateEngine, exact ProjectionEngine) as the CLI builds them."""
    return cli._surrogate_serving(save_model(model, tmp_path / "m.npz"), 2013)


@pytest.mark.parametrize("workload", ["HotSpot", "SRAD", "CFD"])
def test_exact_summary_equals_reference(serving, workload):
    surrogate, engine = serving
    request = request_for(workload)
    reference = ProjectionEngine(
        arch=engine.arch,
        bus=engine.bus,
        space=engine.space,
        explorer="reference",
    ).project(request)
    served = surrogate.project(request, mode="exact")
    assert served.path == "exact"
    assert served.response.summary == reference.summary
    assert engine.project(request).summary == reference.summary
    widths = [k.search_width for k in reference.summary.kernels]
    assert widths == [len(engine.space)] * len(widths)
    assert engine.metrics.counter("candidates_explored") == sum(widths)
