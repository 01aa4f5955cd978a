"""Shared fixtures: one small trained surrogate, built once per session.

Three workloads x 12 sizes/kernel keeps generation under 100 ms while
still exercising multiple kernels, classes, and a non-trivial
calibration split.
"""

import pytest

from repro.gpu.arch import quadro_fx_5600
from repro.pcie.presets import pcie_gen1_bus
from repro.service.engine import ProjectionEngine, ProjectionRequest
from repro.surrogate.dataset import generate_training_set
from repro.surrogate.engine import SurrogateEngine
from repro.surrogate.model import train_surrogate
from repro.transform.space import TransformationSpace
from repro.workloads.registry import get_workload

TRAIN_WORKLOADS = ("HotSpot", "VectorAdd", "SRAD")


@pytest.fixture(scope="session")
def arch():
    return quadro_fx_5600()


@pytest.fixture(scope="session")
def space():
    return TransformationSpace.default()


@pytest.fixture(scope="session")
def training(arch, space):
    return generate_training_set(
        arch,
        space,
        workloads=tuple(get_workload(name) for name in TRAIN_WORKLOADS),
        sizes_per_kernel=12,
    )


@pytest.fixture(scope="session")
def model(training, arch, space):
    return train_surrogate(training, arch, space)


@pytest.fixture()
def exact_engine(arch, space):
    return ProjectionEngine(arch=arch, bus=pcie_gen1_bus(), space=space)


@pytest.fixture()
def surrogate(model, exact_engine):
    return SurrogateEngine(model, exact_engine)


def request_for(workload_name, dataset_label=None, **kwargs):
    workload = get_workload(workload_name)
    datasets = list(workload.datasets())
    if dataset_label is None:
        dataset = min(datasets, key=lambda d: d.size)
    else:
        dataset = next(d for d in datasets if d.label == dataset_label)
    return ProjectionRequest(
        program=workload.skeleton(dataset),
        hints=workload.hints(dataset),
        request_id=f"{workload.name}/{dataset.label}",
        **kwargs,
    )
