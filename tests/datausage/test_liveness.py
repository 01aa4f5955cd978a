"""Tests for inter-kernel dependence analysis."""

from repro.datausage.liveness import DependenceKind, kernel_dependences
from repro.skeleton import KernelBuilder, ProgramBuilder


def chain_program():
    pb = ProgramBuilder("chain")
    n = 64
    pb.array("a", (n,)).array("b", (n,)).array("c", (n,))
    k1 = KernelBuilder("k1").parallel_loop("i", n)
    k1.load("a", "i").store("b", "i").statement(flops=1)
    k2 = KernelBuilder("k2").parallel_loop("i", n)
    k2.load("b", "i").store("c", "i").statement(flops=1)
    return pb.kernel(k1).kernel(k2).build()


def independent_program():
    pb = ProgramBuilder("indep")
    n = 64
    pb.array("a", (n,)).array("b", (n,)).array("c", (n,)).array("d", (n,))
    k1 = KernelBuilder("k1").parallel_loop("i", n)
    k1.load("a", "i").store("b", "i").statement(flops=1)
    k2 = KernelBuilder("k2").parallel_loop("i", n)
    k2.load("c", "i").store("d", "i").statement(flops=1)
    return pb.kernel(k1).kernel(k2).build()


class TestKernelDependences:
    def test_flow_dependence_detected(self):
        deps = kernel_dependences(chain_program())
        flows = [d for d in deps if d.kind is DependenceKind.FLOW]
        assert len(flows) == 1
        assert flows[0].producer == "k1"
        assert flows[0].consumer == "k2"
        assert flows[0].array == "b"

    def test_independent_kernels_have_no_deps(self):
        assert kernel_dependences(independent_program()) == []

    def test_anti_dependence(self):
        pb = ProgramBuilder("anti")
        n = 32
        pb.array("a", (n,)).array("b", (n,))
        k1 = KernelBuilder("reader").parallel_loop("i", n)
        k1.load("a", "i").store("b", "i").statement(flops=1)
        k2 = KernelBuilder("writer").parallel_loop("i", n)
        k2.load("b", "i").store("a", "i").statement(flops=1)
        prog = pb.kernel(k1).kernel(k2).build()
        kinds = {(d.kind, d.array) for d in kernel_dependences(prog)}
        assert (DependenceKind.ANTI, "a") in kinds
        assert (DependenceKind.FLOW, "b") in kinds

    def test_output_dependence(self):
        pb = ProgramBuilder("out")
        n = 32
        pb.array("a", (n,)).array("x", (n,))
        k1 = KernelBuilder("w1").parallel_loop("i", n)
        k1.load("x", "i").store("a", "i").statement(flops=1)
        k2 = KernelBuilder("w2").parallel_loop("i", n)
        k2.load("x", "i").store("a", "i").statement(flops=1)
        prog = pb.kernel(k1).kernel(k2).build()
        kinds = {d.kind for d in kernel_dependences(prog)}
        assert DependenceKind.OUTPUT in kinds

    def test_disjoint_sections_no_dependence(self):
        # k1 writes the first half, k2 reads the second half: no overlap.
        pb = ProgramBuilder("halves")
        pb.array("a", (100,)).array("o", (100,))
        k1 = KernelBuilder("k1").parallel_loop("i", 50)
        k1.load("o", "i").store("a", "i").statement(flops=1)
        k2 = KernelBuilder("k2").parallel_loop("i", 50)
        k2.load("a", ("i", 1, 50)).store("o", ("i", 1, 50)).statement(flops=1)
        prog = pb.kernel(k1).kernel(k2).build()
        flows = [
            d
            for d in kernel_dependences(prog)
            if d.kind is DependenceKind.FLOW and d.array == "a"
        ]
        assert flows == []

