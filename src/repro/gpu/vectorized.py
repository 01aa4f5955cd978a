"""Vectorized MWP/CWP scoring of a whole candidate grid.

:func:`fused_seconds` replays :meth:`GpuPerformanceModel.breakdown` —
occupancy included — over a structure-of-arrays candidate grid (the
:meth:`~repro.transform.analysis.KernelAnalysis.config_columns` layout)
in one NumPy pass over reused :class:`ScoreArena` buffers.  Every
elementwise operation mirrors the scalar model's operation *and order*,
so legal rows' ``seconds`` are bitwise-equal to the reference (IEEE-754
binary64 arithmetic is deterministic; only re-association could
diverge, and nothing here re-associates).  The scalar model stays the
only source of full :class:`~repro.gpu.model.GpuTimingBreakdown`
records: callers materialize just the rows they keep.
"""

from __future__ import annotations

import numpy as np

from repro.gpu.model import GpuPerformanceModel


class ScoreArena:
    """Reusable per-dtype scratch buffers for the fused scoring pass.

    The fused pass needs ~30 intermediate arrays per grid; allocating
    them anew for every kernel is a measurable share of the hot path.
    The arena hands out named slices of buffers that grow to the largest
    grid ever seen and are reused verbatim afterwards — zero allocations
    in steady state.

    Views returned by :meth:`take` (and therefore the ``seconds`` array
    :func:`fused_seconds` returns) are INVALIDATED by the next pass that
    uses the same arena: consume or copy them first.  Not thread-safe;
    use one arena per thread.
    """

    def __init__(self) -> None:
        self._buffers: dict[str, np.ndarray] = {}

    def take(self, name: str, count: int, dtype: type) -> np.ndarray:
        buffer = self._buffers.get(name)
        if buffer is None or buffer.size < count:
            size = max(count, buffer.size * 2 if buffer is not None else count)
            buffer = np.empty(size, dtype=dtype)
            self._buffers[name] = buffer
        return buffer[:count]

    def nbytes(self) -> int:
        return sum(buffer.nbytes for buffer in self._buffers.values())


def fused_seconds(
    model: GpuPerformanceModel,
    columns: dict[str, np.ndarray],
    arena: ScoreArena,
) -> tuple[np.ndarray, int]:
    """Occupancy + MWP/CWP + repetitions fused into one arena pass.

    Scores every row of ``columns`` (one array per
    :class:`~repro.gpu.characteristics.KernelCharacteristics` field) and
    returns ``(seconds, legal_count)`` where illegal rows carry ``+inf``.
    Every elementwise operation below replays the expression
    :meth:`GpuPerformanceModel.breakdown` and
    :func:`~repro.gpu.occupancy.occupancy` evaluate, in the same order,
    with ``out=`` aimed at arena buffers —
    IEEE-754 binary64 arithmetic is deterministic per operation, so legal
    rows are bitwise-equal to the reference model while the pass touches
    no fresh allocations and materializes no dataclasses.

    The returned ``seconds`` is a view into ``arena``; it is overwritten
    by the next pass using the same arena.
    """
    arch = model.arch
    block = columns["block_size"]
    regs = columns["registers_per_thread"]
    smem = columns["shared_mem_per_block"]
    threads = columns["threads"]
    bpa = columns["bytes_per_access"]
    mi = columns["mem_insts_per_thread"]
    ci = columns["comp_insts_per_thread"]
    f_coal = columns["coalesced_fraction"]
    syncs = columns["syncs_per_thread"]
    n = int(block.shape[0])
    if n == 0:
        return arena.take("seconds", 0, np.float64), 0

    ftmp = arena.take("ftmp", n, np.float64)

    # --- Occupancy (mirrors repro.gpu.occupancy.occupancy) -------------
    # nb = ceil(threads / block) as int64.
    np.divide(threads, block, out=ftmp)
    np.ceil(ftmp, out=ftmp)
    nb = arena.take("nb", n, np.int64)
    np.copyto(nb, ftmp, casting="unsafe")
    # warps_per_block = -(-block // warp_size)
    wpb = arena.take("wpb", n, np.int64)
    np.negative(block, out=wpb)
    np.floor_divide(wpb, arch.warp_size, out=wpb)
    np.negative(wpb, out=wpb)
    rpb = arena.take("rpb", n, np.int64)
    np.multiply(regs, block, out=rpb)
    # Running elementwise min over the five limits (min of ints is exact
    # in any order).
    raw = arena.take("raw", n, np.int64)
    np.floor_divide(arch.max_threads_per_sm, block, out=raw)
    np.minimum(raw, arch.max_blocks_per_sm, out=raw)
    ilim = arena.take("ilim", n, np.int64)
    np.floor_divide(arch.max_warps_per_sm, wpb, out=ilim)
    np.minimum(raw, ilim, out=raw)
    np.maximum(rpb, 1, out=ilim)
    np.floor_divide(arch.registers_per_sm, ilim, out=ilim)
    np.minimum(raw, ilim, out=raw)
    big = np.iinfo(np.int64).max
    np.maximum(smem, 1, out=ilim)
    np.floor_divide(arch.shared_mem_per_sm, ilim, out=ilim)
    btmp = arena.take("btmp", n, np.bool_)
    np.less_equal(smem, 0, out=btmp)
    np.copyto(ilim, big, where=btmp)
    np.minimum(raw, ilim, out=raw)

    legal = arena.take("legal", n, np.bool_)
    np.less_equal(block, arch.max_threads_per_sm, out=legal)
    np.less_equal(rpb, arch.registers_per_sm, out=btmp)
    np.logical_and(legal, btmp, out=legal)
    np.less_equal(smem, arch.shared_mem_per_sm, out=btmp)
    np.logical_and(legal, btmp, out=legal)
    np.greater_equal(raw, 1, out=btmp)
    np.logical_and(legal, btmp, out=legal)

    # blocks_per_sm = min(where(legal, raw, 1), max(1, ceil(nb/num_sms)))
    np.divide(nb, arch.num_sms, out=ftmp)
    np.ceil(ftmp, out=ftmp)
    np.copyto(ilim, ftmp, casting="unsafe")
    np.maximum(ilim, 1, out=ilim)
    bps = arena.take("bps", n, np.int64)
    np.copyto(bps, raw)
    np.logical_not(legal, out=btmp)
    np.copyto(bps, 1, where=btmp)
    np.minimum(bps, ilim, out=bps)
    # n_warps = max(1, blocks_per_sm * warps_per_block); n_f = float64.
    nw = arena.take("nw", n, np.int64)
    np.multiply(bps, wpb, out=nw)
    np.maximum(nw, 1, out=nw)
    nf = arena.take("nf", n, np.float64)
    np.copyto(nf, nw, casting="unsafe")

    # --- Timing terms (mirrors GpuPerformanceModel.breakdown) ----------
    fu = arena.take("fu", n, np.float64)
    np.subtract(1.0, f_coal, out=fu)
    uncoal_trans = arch.uncoal_transactions_per_warp
    dep_uncoal = arch.departure_del_uncoal * uncoal_trans
    dd = arena.take("dd", n, np.float64)
    np.multiply(f_coal, arch.departure_del_coal, out=dd)
    np.multiply(fu, dep_uncoal, out=ftmp)
    np.add(dd, ftmp, out=dd)
    mem_l_uncoal = (
        arch.mem_latency_cycles + (uncoal_trans - 1) * arch.departure_del_uncoal
    )
    ml = arena.take("ml", n, np.float64)
    np.multiply(f_coal, arch.mem_latency_cycles, out=ml)
    np.multiply(fu, mem_l_uncoal, out=ftmp)
    np.add(ml, ftmp, out=ml)
    mc = arena.take("mc", n, np.float64)
    np.multiply(ml, mi, out=mc)
    cc = arena.take("cc", n, np.float64)
    np.add(ci, mi, out=cc)
    np.multiply(cc, arch.issue_cycles, out=cc)
    np.maximum(cc, arch.issue_cycles, out=cc)
    asms = arena.take("asms", n, np.int64)
    np.minimum(arch.num_sms, nb, out=asms)
    # repetitions = max(1, ceil(nb / (blocks_per_sm * active_sms)))
    np.multiply(bps, asms, out=ilim)
    np.divide(nb, ilim, out=ftmp)
    np.ceil(ftmp, out=ftmp)
    rep = arena.take("rep", n, np.int64)
    np.copyto(rep, ftmp, casting="unsafe")
    np.maximum(rep, 1, out=rep)
    st = arena.take("st", n, np.float64)
    np.multiply(syncs, arch.sync_cycles, out=st)
    np.multiply(st, nf, out=st)

    # --- Regime selection + exec cycles (mirrors breakdown) ------------
    payload = arena.take("payload", n, np.int64)
    np.multiply(bpa, arch.warp_size, out=payload)
    waste = arena.take("waste", n, np.float64)
    np.divide(GpuPerformanceModel.MIN_TRANSACTION_BYTES, bpa, out=waste)
    np.maximum(waste, 1.0, out=waste)
    cons = arena.take("cons", n, np.float64)
    np.multiply(fu, waste, out=cons)
    np.add(f_coal, cons, out=cons)
    np.multiply(payload, cons, out=cons)
    bw = arena.take("bw", n, np.float64)
    np.multiply(cons, arch.clock_hz, out=bw)
    np.divide(bw, ml, out=bw)
    peak = arena.take("peak", n, np.float64)
    np.multiply(bw, asms, out=peak)
    np.divide(arch.mem_bandwidth, peak, out=peak)
    mwp = arena.take("mwp", n, np.float64)
    np.divide(ml, dd, out=mwp)
    np.minimum(mwp, peak, out=mwp)
    np.minimum(mwp, nf, out=mwp)
    np.maximum(mwp, 1.0, out=mwp)
    cwp = arena.take("cwp", n, np.float64)
    np.add(mc, cc, out=cwp)
    np.divide(cwp, cc, out=cwp)
    np.less_equal(mi, 0, out=btmp)
    np.copyto(cwp, 1.0, where=btmp)
    np.minimum(cwp, nf, out=cwp)
    mpic = arena.take("mpic", n, np.float64)
    np.copyto(mpic, 0.0)
    np.not_equal(mi, 0, out=btmp)
    np.divide(cc, mi, out=mpic, where=btmp)

    m0 = arena.take("m0", n, np.bool_)
    np.equal(mi, 0, out=m0)
    # m1 = ~m0 & isclose(mwp, nf) & isclose(cwp, nf)
    t1 = arena.take("t1", n, np.float64)
    t2 = arena.take("t2", n, np.float64)
    t3 = arena.take("t3", n, np.float64)
    not0 = arena.take("not0", n, np.bool_)
    np.logical_not(m0, out=not0)
    m1 = arena.take("m1", n, np.bool_)
    np.copyto(m1, not0)
    for value in (mwp, cwp):
        np.subtract(value, nf, out=t1)
        np.abs(t1, out=t1)
        np.abs(value, out=t2)
        np.abs(nf, out=t3)
        np.maximum(t2, t3, out=t2)
        np.multiply(t2, 1e-9, out=t2)
        np.less_equal(t1, t2, out=btmp)
        np.logical_and(m1, btmp, out=m1)
    # m2 = ~m0 & ~m1 & (cwp >= mwp)
    m2 = arena.take("m2", n, np.bool_)
    np.logical_not(m1, out=m2)
    np.logical_and(not0, m2, out=m2)
    np.greater_equal(cwp, mwp, out=btmp)
    np.logical_and(m2, btmp, out=m2)

    # The three regime expressions + default, then first-match select
    # (masks are disjoint, so reverse-order overwrite == np.select).
    e0 = arena.take("e0", n, np.float64)
    np.multiply(cc, nf, out=e0)
    np.subtract(mwp, 1.0, out=t1)
    np.multiply(mpic, t1, out=t1)  # mpic * (mwp - 1), shared by m1/m2
    e1 = arena.take("e1", n, np.float64)
    np.add(mc, cc, out=e1)
    np.add(e1, t1, out=e1)
    np.divide(nf, mwp, out=t2)
    np.multiply(mc, t2, out=t2)
    np.add(t2, t1, out=t2)  # mc * (nf / mwp) + mpic * (mwp - 1)
    ex = arena.take("ex", n, np.float64)
    np.add(ml, e0, out=ex)  # default: mem_l + cc * nf
    np.copyto(ex, t2, where=m2)
    np.copyto(ex, e1, where=m1)
    np.copyto(ex, e0, where=m0)
    # exec += sync_term where syncs != 0
    np.add(ex, st, out=t1)
    np.not_equal(syncs, 0.0, out=btmp)
    np.copyto(ex, t1, where=btmp)
    # seconds = exec * repetitions / clock_hz + launch_overhead
    np.multiply(ex, rep, out=ex)
    np.divide(ex, arch.clock_hz, out=ex)
    np.add(ex, model.launch_overhead, out=ex)
    np.logical_not(legal, out=btmp)
    np.copyto(ex, np.inf, where=btmp)
    return ex, int(np.count_nonzero(legal))


def fused_argmin(
    model: GpuPerformanceModel,
    columns: dict[str, np.ndarray],
    arena: ScoreArena,
) -> tuple[int, float, int]:
    """:func:`fused_seconds` reduced to ``(argmin, seconds, legal_count)``.

    ``argmin`` is the first minimum in row order (NumPy's argmin picks
    the first occurrence, matching the explorer's ``min()`` tie-break),
    or ``-1`` with ``seconds = inf`` when no row is legal.
    """
    seconds, legal_count = fused_seconds(model, columns, arena)
    if legal_count == 0:
        return -1, float("inf"), 0
    best = int(np.argmin(seconds))
    return best, float(seconds[best]), legal_count
