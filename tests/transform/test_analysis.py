"""Tests for the per-kernel analysis precompute (the fused path's core).

``KernelAnalysis`` walks the skeleton once; ``characteristics(config)``
must then reproduce ``synthesize_characteristics`` exactly — same
values, same rejections — for every mapping in the space.
"""

import pytest

from repro.skeleton import ArrayDecl, ArrayKind, DType, KernelBuilder
from repro.transform.analysis import KernelAnalysis, analyze_kernel
from repro.transform.space import MappingConfig, TransformationSpace
from repro.transform.synthesize import synthesize_characteristics
from repro.workloads.registry import all_workloads


def stencil_kernel(n=256):
    kb = KernelBuilder("stencil")
    kb.parallel_loop("i", n - 1, 1).parallel_loop("j", n - 1, 1)
    kb.load("src", "i", "j")
    kb.load("src", ("i", 1, -1), "j")
    kb.load("src", ("i", 1, 1), "j")
    kb.load("src", "i", ("j", 1, -1))
    kb.load("src", "i", ("j", 1, 1))
    kb.store("dst", "i", "j")
    kb.statement(flops=5)
    return kb.build()


def arrays(n=256):
    return {
        "src": ArrayDecl("src", (n, n)),
        "dst": ArrayDecl("dst", (n, n)),
        "sp": ArrayDecl("sp", (n,), DType.float32, ArrayKind.SPARSE),
    }


class TestAnalysisMatchesSynthesis:
    @pytest.mark.parametrize("strict", [True, False])
    def test_stencil_whole_wide_space(self, strict):
        analysis = KernelAnalysis(stencil_kernel(), arrays(), strict)
        for config in TransformationSpace.wide():
            ref = synthesize_characteristics(
                stencil_kernel(), arrays(), config, strict_coalescing=strict
            )
            fast = analysis.characteristics(config)
            assert fast == ref, config.label()

    @pytest.mark.parametrize("strict", [True, False])
    def test_all_registered_workloads(self, strict):
        """Field-exact agreement on every real kernel in the registry."""
        for workload in all_workloads():
            dataset = workload.datasets()[0]
            program = workload.skeleton(dataset)
            for kernel in program.kernels:
                analysis = analyze_kernel(kernel, program.array_map, strict)
                for config in TransformationSpace.default():
                    ref = synthesize_characteristics(
                        kernel, program.array_map, config,
                        strict_coalescing=strict,
                    )
                    fast = analysis.characteristics(config)
                    assert fast == ref, (workload.name, kernel.name)


class TestAnalysisRejections:
    def test_no_parallel_loop_raises_at_analysis_time(self):
        kb = KernelBuilder("serial_only")
        kb.loop("k", 64)
        kb.load("src", "k", 0).statement(flops=1)
        with pytest.raises(ValueError, match="no parallel loop"):
            analyze_kernel(kb.build(), arrays())

    def test_same_message_as_synthesis(self):
        kb = KernelBuilder("serial_only")
        kb.loop("k", 64)
        kb.load("src", "k", 0).statement(flops=1)
        kernel = kb.build()
        with pytest.raises(ValueError) as ref_err:
            synthesize_characteristics(kernel, arrays(), MappingConfig())
        with pytest.raises(ValueError) as fast_err:
            analyze_kernel(kernel, arrays())
        assert str(fast_err.value) == str(ref_err.value)


class TestProfileCaching:
    def test_profiles_shared_across_configs(self):
        """Configs with equal (smem, tile) reuse one cached profile."""
        analysis = analyze_kernel(stencil_kernel(), arrays())
        for config in TransformationSpace.wide():
            analysis.characteristics(config)
        # At most 8 tile dims x 2 smem options; far fewer profiles than
        # the 144 configs scored.
        assert len(analysis._profiles) <= 2 * 8
        assert len(analysis._profiles) < len(list(TransformationSpace.wide()))

    def test_characteristics_is_deterministic(self):
        analysis = analyze_kernel(stencil_kernel(), arrays())
        config = MappingConfig(128, use_shared_memory=True, unroll=2)
        assert analysis.characteristics(config) == analysis.characteristics(
            config
        )


def _column_rows(analysis, configs, iterations):
    """``config_columns`` at ``iterations`` as {config index: fields}."""
    columns, index_map, errors = analysis.config_columns(
        configs, iterations
    )
    rows = {
        int(index): {field: col[r].item() for field, col in columns.items()}
        for r, index in enumerate(index_map)
    }
    return rows, errors


def _fields(chars, names):
    return {name: getattr(chars, name) for name in names}


class TestCharacteristicsGrid:
    """The batched columns at an injected work-item count (the sweep
    engine's grid) must equal cell-by-cell ``characteristics_at``."""

    ITERATIONS = (1_000, 65_025, 65_536, 250_000)

    def test_grid_matches_characteristics_at(self):
        analysis = analyze_kernel(stencil_kernel(), arrays())
        configs = list(TransformationSpace.default())
        for iterations in self.ITERATIONS:
            rows, errors = _column_rows(analysis, configs, iterations)
            assert not errors
            assert len(rows) == len(configs)
            for index, config in enumerate(configs):
                cell = rows[index]
                assert cell == _fields(
                    analysis.characteristics_at(config, iterations), cell
                ), (config.label(), iterations)

    def test_grid_matches_on_registered_kernels(self):
        configs = list(TransformationSpace.default())
        for workload in all_workloads():
            dataset = workload.datasets()[0]
            program = workload.skeleton(dataset)
            for kernel in program.kernels:
                analysis = analyze_kernel(kernel, program.array_map, True)
                for iterations in (kernel.parallel_iterations, 123_457):
                    rows, errors = _column_rows(
                        analysis, configs, iterations
                    )
                    for index, config in enumerate(configs):
                        if index in errors:
                            assert index not in rows
                            with pytest.raises(ValueError):
                                analysis.characteristics_at(
                                    config, iterations
                                )
                        else:
                            cell = rows[index]
                            assert cell == _fields(
                                analysis.characteristics_at(
                                    config, iterations
                                ),
                                cell,
                            ), (workload.name, kernel.name)

    def test_synthesis_errors_reported_once_per_config(self):
        """Failing configs surface by position with the same message the
        per-cell path raises."""
        analysis = analyze_kernel(stencil_kernel(), arrays())
        configs = list(TransformationSpace.default())
        _, errors = _column_rows(analysis, configs, 1_000)
        for index, message in errors.items():
            with pytest.raises(ValueError) as err:
                analysis.characteristics_at(configs[index], 1_000)
            assert str(err.value) == message
