"""Vectorized functional cache pass: the one fast kernel behind both
:func:`repro.cache.hierarchy.simulate_hierarchy` and the streaming
pipeline in :mod:`repro.cache.streaming`.

Produces a :class:`~repro.cpu.trace.MissTrace` **bit-identical** to the
scalar reference loop in :mod:`repro.cache.hierarchy` — every float in
``gap_cycles``/``total_compute_cycles`` is built from the same IEEE-754
operations in the same order — while doing the per-reference work in
numpy and C-level bulk operations wherever the cache state allows it.

The kernel is a resumable machine, :class:`StreamingHierarchyPass`.  All loop
state lives on the object: the L1 timestamp-LRU state, the L2 sets, the
global reference position (which keeps LRU stamps monotone across
steps), the instruction counter, the warm-up flag, the event counters
and the cycle accumulator of the open inter-miss segment.  The machine
advances in *steps* of at most :data:`DEFAULT_CHUNK_REFS` references;
each step compresses runs, classifies and rebuilds the request stream
for its own references only, so the transient working set is bounded by
the step, not by the caller's chunk or trace.  Splitting a trace into
steps anywhere changes no output bit: a run cut by a step boundary
continues as a guaranteed L1 hit, and the carried accumulator becomes
the first term of the next step's first left-to-right segment sum.
``hierarchy_pass_vectorized`` is "feed the whole trace, then finish";
the streaming path feeds bounded chunks as they are decoded.

Within a step the kernel exploits three structural facts:

1. **Same-line runs are guaranteed L1 hits.**  Consecutive references to
   one cache line cannot miss after the first (nothing else touches the
   set in between), so the step is run-compressed up front with array
   ops and only *run heads* enter the state machine.  The trailing
   references of a run contribute one boolean OR (the run's dirty bit,
   precomputed per run with ``np.logical_or.reduceat``).

2. **L1 membership is constant between L1 misses.**  Hits reorder the
   LRU stack and merge dirty bits but never change *which* lines are
   resident.  The kernel therefore scans ahead with a vectorized
   membership test (``np.searchsorted`` against a sorted snapshot of the
   ≤ sets*ways resident lines) and commits whole hit prefixes at C speed:
   LRU positions via one ``dict.update`` (timestamp LRU, see below) and
   dirty bits via one bulk update of the stored lines.  Only the first
   non-member — a true L1 miss — drops to the scalar slow path, which
   runs the exact reference eviction/back-invalidation machinery.  After
   a miss the snapshot is stale, so the rest of the window steps through
   a lean scalar loop before the next vectorized scan; the window size
   adapts so miss-dense phases spend no time on doomed vector scans.

3. **Insertion-order LRU ≡ timestamp LRU.**  The reference models each
   set as an insertion-ordered dict whose first key is the victim.  A
   key's position in that order is exactly the index of its last touch,
   so keeping ``line -> last-touch index`` and evicting the resident
   line of the set with the smallest timestamp selects the identical
   victim.  Timestamps are what make bulk hit commits possible: a single
   ``dict.update`` with "last write wins" reproduces any sequence of
   move-to-MRU operations.

The cycle/instruction accounting is reconstructed after the fact from
the per-reference outcome levels: interleaving ``gap * cpi`` and
per-level hit costs into one array and summing each inter-miss segment
left-to-right (``np.cumsum`` is a sequential recurrence, and builtin
``sum`` over a list slice is a sequential C loop — both bit-identical to
the reference's running ``+=``; ``np.add.reduce``/``reduceat`` are
pairwise and are deliberately **not** used).

The L2 side keeps the reference's insertion-ordered dicts verbatim: every
L2 access is already a rare scalar event (an L1 miss), so there is
nothing to vectorize there.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat

import numpy as np

from repro.cache.hierarchy import PAPER_HIERARCHY
from repro.cpu.core import DEFAULT_CORE, CoreModel
from repro.cpu.trace import EnergyEvents, MemoryTrace, MissTrace
from repro.util.bitops import floor_lg

#: References per machine step.  Bounds the numpy temporaries and the
#: per-step Python lists of one step, so a feed's transient memory does
#: not grow with the size of the chunk it is handed.
DEFAULT_CHUNK_REFS = 1 << 14

#: Adaptive window bounds for the vectorized membership scan (in run
#: heads).  The window doubles after a fully-hit scan and halves after a
#: scan that dies early, so miss-dense phases degrade to the scalar loop
#: without paying for vector scans that cannot run ahead.
_WINDOW_MIN = 128
_WINDOW_MAX = 1 << 16
#: Scalar-mode burst bounds (in run heads).  Bursts double while the
#: observed hit rate stays below the vector-mode re-entry threshold.
_SCALAR_BURST_MIN = 256
_SCALAR_BURST_MAX = 1 << 14
#: Rebuild the membership snapshot after this many installs/removals;
#: below it, the removed-lines correction is cheaper than a rebuild.
_SNAPSHOT_DRIFT_MAX = 64
#: Hit ranges shorter than this step through the scalar loop — a
#: dict.update round-trip costs more than a few inline hits.
_BULK_RANGE_MIN = 16

#: The ``(gap_cycles, is_blocking, instruction_index)`` of no requests.
NO_REQUESTS = (
    np.empty(0, dtype=np.float64),
    np.empty(0, dtype=bool),
    np.empty(0, dtype=np.int64),
)


@dataclass
class MissChunk:
    """The request stream emitted while consuming one input chunk.

    May be empty (every reference hit on chip) and carries no trace-level
    totals — those arrive from :meth:`StreamingHierarchyPass.finish`.
    """

    gap_cycles: np.ndarray
    is_blocking: np.ndarray
    instruction_index: np.ndarray

    def __len__(self) -> int:
        return len(self.gap_cycles)


@dataclass
class FunctionalSummary:
    """Trace-level totals, valid once the whole trace has been fed."""

    total_compute_cycles: float
    n_instructions: int
    energy: EnergyEvents
    source_name: str
    source_input: str


def hierarchy_pass_vectorized(
    trace: MemoryTrace,
    config,
    core: CoreModel,
    warmup_instructions: int = 0,
    chunk_refs: int = DEFAULT_CHUNK_REFS,
) -> MissTrace:
    """Run the vectorized hierarchy pass; bit-identical to the reference.

    Parameters mirror :func:`repro.cache.hierarchy.simulate_hierarchy`;
    ``chunk_refs`` is the machine's step size in references.
    """
    if chunk_refs <= 0:
        raise ValueError(f"chunk_refs must be positive, got {chunk_refs}")
    machine = StreamingHierarchyPass(trace, config, core, warmup_instructions)
    requests = machine._advance(
        trace.addresses, trace.is_store, trace.gap_instructions, chunk_refs
    )
    return assemble_miss_trace(requests, machine._summary())


def concat_requests(pieces) -> tuple:
    """Join ``(gap_cycles, is_blocking, instruction_index)`` request arrays.

    Empty pieces are dropped; no pieces at all give :data:`NO_REQUESTS`.
    """
    pieces = [piece for piece in pieces if len(piece[0])]
    if not pieces:
        return NO_REQUESTS
    if len(pieces) == 1:
        return pieces[0]
    return tuple(np.concatenate(column) for column in zip(*pieces))


def assemble_miss_trace(requests, summary: FunctionalSummary) -> MissTrace:
    """A :class:`MissTrace` from request arrays plus the pass's totals."""
    gap_cycles, is_blocking, instruction_index = requests
    return MissTrace(
        gap_cycles=gap_cycles,
        is_blocking=is_blocking,
        instruction_index=instruction_index,
        total_compute_cycles=summary.total_compute_cycles,
        n_instructions=summary.n_instructions,
        energy=summary.energy,
        source_name=summary.source_name,
        source_input=summary.source_input,
    )


class StreamingHierarchyPass:
    """Resumable functional cache pass (state carried across chunks).

    ``header`` is anything carrying the trace-level metadata of a
    :class:`~repro.cpu.trace.MemoryTrace` (a ``MemoryTrace`` itself or
    an ingest ``TraceHeader``).  :meth:`feed` advances the pass over one
    chunk of reference arrays and returns that chunk's requests;
    :meth:`finish` closes the pass and returns the trace-level totals.
    """

    def __init__(
        self,
        header,
        config=None,
        core: CoreModel | None = None,
        warmup_instructions: int = 0,
    ) -> None:
        config = config if config is not None else PAPER_HIERARCHY
        core = core if core is not None else DEFAULT_CORE
        self.header = header
        self.config = config
        self.warmup_instructions = warmup_instructions

        self._line_shift = np.uint64(floor_lg(config.line_bytes))
        l1_sets_count = config.l1d_bytes // config.line_bytes // config.l1d_ways
        l2_sets_count = config.l2_bytes // config.line_bytes // config.l2_ways
        self._l1_mask = l1_sets_count - 1
        self._l2_mask = l2_sets_count - 1
        self._l2_bits = floor_lg(l2_sets_count)
        self._l1_ways = config.l1d_ways
        self._l2_ways = config.l2_ways

        l1_hit_cycles = core.load_hit_cycles(1)
        self._level_costs = np.array([
            l1_hit_cycles, core.load_hit_cycles(2), core.load_miss_onchip_cycles()
        ])
        self._store_issue = core.store_issue_cycles
        local_fraction = header.local_ref_fraction
        self._cpi = (
            (1.0 - local_fraction) * core.nonmem_cpi(header.mix)
            + local_fraction * l1_hit_cycles
        )

        # L1: timestamp LRU keyed by line number.  Membership == key in
        # _stamp; victim of a set == resident line with the smallest
        # stamp.  _l1_dirty holds only *dirty* lines (absence == clean).
        self._stamp: dict[int, int] = {}
        self._l1_dirty: dict[int, bool] = {}
        self._l1_rows: list[list[int]] = [[] for _ in range(l1_sets_count)]
        # L2: the reference's insertion-ordered dicts, tag -> dirty.
        self._l2_sets: list[dict[int, bool]] = [dict() for _ in range(l2_sets_count)]

        # Adaptive scan state: affects speed only, never the output.
        # Start in scalar mode: a cheap probe burst decides whether the
        # trace is hit-dense enough for vector scans to pay for
        # themselves.  Hit-heavy workloads promote after one burst;
        # pathological all-miss traces (mcf) never pay for a doomed scan.
        self._snapshot = np.empty(0, dtype=np.int64)
        #: Lines removed from L1 since the last snapshot rebuild.  The
        #: snapshot may be arbitrarily stale and classification stays
        #: exact: a snapshot member is resident unless it appears here
        #: (checked with one vectorized isin per window), and a non-member
        #: head always re-checks live state before being treated as a miss.
        self._removed_log: list[int] = []
        self._snapshot_drift = 0
        self._window = 1024
        self._vector_mode = False
        self._vector_fails = 0
        self._scalar_burst = _SCALAR_BURST_MIN

        self._n_refs = 0  # references consumed; the LRU stamp base
        self._instructions = 0  # instructions consumed, warm-up included
        self._base = 0  # instruction count at the warm-up crossover
        self._warm = warmup_instructions <= 0
        self._acc = 0.0  # cycles of the open inter-miss segment
        self._n_counted = 0
        self._l2_hits = 0
        self._llc_misses = 0
        self._writebacks = 0
        self._finished = False

    def feed(self, chunk) -> MissChunk:
        """Advance the pass over one chunk; emit its request stream."""
        if self._finished:
            raise RuntimeError("feed() after finish()")
        return MissChunk(*self._advance(
            chunk.addresses, chunk.is_store, chunk.gap_instructions,
            DEFAULT_CHUNK_REFS,
        ))

    def finish(self) -> FunctionalSummary:
        """Close the pass and compute the trace-level totals."""
        if self._finished:
            raise RuntimeError("finish() called twice")
        self._finished = True
        return self._summary()

    def _summary(self) -> FunctionalSummary:
        # Before the warm-up crossover the reference never resets its
        # counters, so an all-warm-up trace reports every instruction
        # and every gap cycle; _base and _acc encode exactly that.
        n_instructions = self._instructions - self._base
        l1_misses = self._llc_misses + self._l2_hits
        header = self.header
        return FunctionalSummary(
            total_compute_cycles=self._acc,
            n_instructions=n_instructions,
            energy=_energy_events(
                header, self.config, n_instructions, self._n_refs,
                header.local_ref_fraction,
                l1d_hits=self._n_counted - l1_misses, l1d_refills=l1_misses,
                l2_hits=self._l2_hits, l2_refills=self._llc_misses,
                llc_misses=self._llc_misses, writebacks=self._writebacks,
            ),
            source_name=header.name,
            source_input=header.input_name,
        )

    def _advance(self, addresses, stores, gaps, step_refs: int):
        """Run references through the machine in steps of ``step_refs``.

        Returns the concatenated ``(gap_cycles, is_blocking,
        instruction_index)`` request arrays of all steps.
        """
        return concat_requests(
            self._step(
                addresses[lo:lo + step_refs],
                stores[lo:lo + step_refs],
                gaps[lo:lo + step_refs],
            )
            for lo in range(0, len(addresses), step_refs)
        )

    def _step(self, addresses, stores_np, gaps_np):
        """Advance over one non-empty step; return its request arrays."""
        n_refs = len(addresses)
        pos0 = self._n_refs
        cum_instr = np.cumsum(gaps_np + 1)
        cum_instr += self._instructions
        self._n_refs = pos0 + n_refs
        self._instructions = int(cum_instr[-1])
        gap_costs = gaps_np.astype(np.float64) * self._cpi

        crossing = False
        if self._warm:
            i_warm = 0
        else:
            i_warm = int(np.searchsorted(
                cum_instr, self.warmup_instructions, side="left"
            ))
            if i_warm < n_refs:
                crossing = True
                self._warm = True
                self._base = int(cum_instr[i_warm])

        l2_hit_refs, miss_refs, miss_wb, writebacks = self._run_caches(
            addresses, stores_np, pos0, pos0 + i_warm
        )
        if i_warm >= n_refs:
            # Warm-up only: the caches warmed, and the reference's
            # accumulator keeps adding gap cycles (it is reset at the
            # crossover, or is the total if the crossover never comes).
            self._acc = float(np.cumsum(np.concatenate(([self._acc], gap_costs)))[-1])
            return NO_REQUESTS

        # ------------------------------------------------------------------
        # Vectorized reconstruction of the request stream and accounting
        # ------------------------------------------------------------------
        n_counted = n_refs - i_warm
        counted_base = pos0 + i_warm
        miss_arr = np.asarray(miss_refs, dtype=np.int64) - counted_base
        l2h_arr = np.asarray(l2_hit_refs, dtype=np.int64) - counted_base
        wb_arr = np.asarray(miss_wb, dtype=bool)
        n_miss = len(miss_arr)
        self._n_counted += n_counted
        self._l2_hits += len(l2h_arr)
        self._llc_misses += n_miss
        self._writebacks += writebacks

        # Per-reference cost terms, interleaved exactly as the reference
        # accumulates them: gap cycles first, then the level-dependent
        # cost.  Slot 0 carries the open segment's accumulator, so the
        # step's first segment continues the previous step's sum.
        stores = stores_np[i_warm:]
        levels = np.zeros(n_counted, dtype=np.int64)
        levels[l2h_arr] = 1
        levels[miss_arr] = 2
        op_cost = np.where(stores, self._store_issue, self._level_costs[levels])
        inter = np.empty(2 * n_counted + 1)
        inter[0] = self._acc
        inter[1::2] = gap_costs[i_warm:]
        inter[2::2] = op_cost
        if crossing:
            # The reference resets its accumulator right after adding
            # the first post-warm-up reference's gap cycles, discarding
            # both.
            inter[0] = 0.0
            inter[1] = 0.0
        seg_sums, self._acc = _segment_sums(inter, 2 * miss_arr + 3)
        if not n_miss:
            return NO_REQUESTS

        # Interleave miss requests with their writebacks (gap 0.0, non-
        # blocking, same instruction index).
        counts = 1 + wb_arr.astype(np.int64)
        slots = np.cumsum(counts) - counts
        n_out = int(counts.sum())
        gap_out = np.zeros(n_out)
        gap_out[slots] = seg_sums
        blocking_out = np.zeros(n_out, dtype=bool)
        blocking_out[slots] = ~stores[miss_arr]
        inst_out = np.repeat(cum_instr[i_warm:][miss_arr] - self._base, counts)
        return gap_out, blocking_out, inst_out

    def _run_caches(self, addresses, stores_np, pos0: int, i_warm: int):
        """The cache state machine over one step.

        References are numbered globally from ``pos0``; those before
        ``i_warm`` only warm the caches.  Returns the counted outcome
        event streams in reference order: L2-hit positions, LLC-miss
        positions, each miss's writeback flag, and the writeback count.
        """
        lines_np = (addresses >> self._line_shift).astype(np.int64)
        # Run compression: a head is any reference whose line differs
        # from its predecessor's.  Non-head references are guaranteed L1
        # hits (so is a step's first reference when it continues the
        # previous step's run: its line was the last one touched).
        head_mask = np.empty(len(lines_np), dtype=bool)
        head_mask[0] = True
        np.not_equal(lines_np[1:], lines_np[:-1], out=head_mask[1:])
        head_idx = np.flatnonzero(head_mask)
        # Dirty contribution of each run: OR of its references' store
        # flags (boolean reduceat is exact; order is irrelevant for OR).
        run_any_store = np.logical_or.reduceat(stores_np, head_idx)
        head_lines_np = lines_np[head_idx]

        l1_mask = self._l1_mask
        l2_mask = self._l2_mask
        l2_bits = self._l2_bits
        l1_ways = self._l1_ways
        l2_ways = self._l2_ways
        stamp = self._stamp
        l1_dirty = self._l1_dirty
        l1_rows = self._l1_rows
        l2_sets = self._l2_sets
        removed_log = self._removed_log
        removed_append = removed_log.append
        snapshot = self._snapshot
        snapshot_drift = self._snapshot_drift
        window = self._window
        vector_mode = self._vector_mode
        vector_fails = self._vector_fails
        scalar_burst = self._scalar_burst

        # Outcome event streams (counted region only), in head order.
        l2_hit_refs: list[int] = []
        miss_refs: list[int] = []
        miss_wb: list[bool] = []
        writebacks = 0
        l2h_append = l2_hit_refs.append
        miss_append = miss_refs.append
        wb_append = miss_wb.append

        def process_miss(line: int, ref_i: int, dirty_in: bool) -> None:
            """One L1 miss through the exact reference machinery.

            ``dirty_in`` is the run's OR of store flags — the dirty bit
            the install leaves behind (head store, then run-hit ORs).
            """
            nonlocal writebacks, snapshot_drift
            snapshot_drift += 1
            counted = ref_i >= i_warm
            l2_set = l2_sets[line & l2_mask]
            l2_tag = line >> l2_bits
            if l2_tag in l2_set:
                l2_set[l2_tag] = l2_set.pop(l2_tag)
                if counted:
                    l2h_append(ref_i)
            else:
                if counted:
                    miss_append(ref_i)
                if len(l2_set) >= l2_ways:
                    victim_tag = next(iter(l2_set))
                    victim_dirty = l2_set.pop(victim_tag)
                    victim_line = (victim_tag << l2_bits) | (line & l2_mask)
                    # Inclusive hierarchy: back-invalidate L1.
                    if victim_line in stamp:
                        del stamp[victim_line]
                        l1_rows[victim_line & l1_mask].remove(victim_line)
                        removed_append(victim_line)
                        if l1_dirty.pop(victim_line, False):
                            victim_dirty = True
                    if counted:
                        if victim_dirty:
                            writebacks += 1
                            wb_append(True)
                        else:
                            wb_append(False)
                elif counted:
                    wb_append(False)
                l2_set[l2_tag] = False
            # ---- Fill L1 ----
            row = l1_rows[line & l1_mask]
            if len(row) >= l1_ways:
                victim_line = row[0]
                best = stamp[victim_line]
                for cand in row:
                    cand_stamp = stamp[cand]
                    if cand_stamp < best:
                        best = cand_stamp
                        victim_line = cand
                row.remove(victim_line)
                del stamp[victim_line]
                removed_append(victim_line)
                if l1_dirty.pop(victim_line, False) and counted:
                    # Dirty L1 victim writes back into L2 (on-chip).  The
                    # reference's warm-up replay drops the dirty bit instead.
                    wb_l2_set = l2_sets[victim_line & l2_mask]
                    wb_l2_tag = victim_line >> l2_bits
                    if wb_l2_tag in wb_l2_set:
                        wb_l2_set[wb_l2_tag] = True
            row.append(line)
            stamp[line] = ref_i
            if dirty_in:
                l1_dirty[line] = True
            else:
                l1_dirty.pop(line, None)

        def commit_hits(lo: int, hi: int, seg_lo: int, seg_hi: int, seg) -> None:
            """Bulk-commit the hit heads [lo, hi)."""
            stamp.update(zip(c_lines[lo:hi], c_pos[lo:hi]))
            stored = seg[seg_lo:seg_hi][run_any_store[lo:hi]]
            if len(stored):
                l1_dirty.update(zip(stored.tolist(), repeat(True)))

        # Python lists for bulk commits and the scalar loop.
        c_lines = head_lines_np.tolist()
        c_pos = (head_idx + pos0).tolist()
        c_store = run_any_store.tolist()
        c_len = len(c_lines)
        j = 0
        while j < c_len:
            if not vector_mode:
                # ---- scalar mode: miss-dense phases ----
                # The miss path is inlined (a function call per miss is
                # what made the all-miss pointer chase slower than the
                # reference) and skips removal logging: the snapshot is
                # rebuilt wholesale at vector re-entry, so the removed
                # log has nothing to correct.
                burst_end = min(j + scalar_burst, c_len)
                burst_len = burst_end - j
                hits = 0
                while j < burst_end:
                    line = c_lines[j]
                    if line in stamp:
                        stamp[line] = c_pos[j]
                        if c_store[j]:
                            l1_dirty[line] = True
                        hits += 1
                        j += 1
                        continue
                    pos_j = c_pos[j]
                    counted = pos_j >= i_warm
                    l2_set = l2_sets[line & l2_mask]
                    l2_tag = line >> l2_bits
                    if l2_tag in l2_set:
                        l2_set[l2_tag] = l2_set.pop(l2_tag)
                        if counted:
                            l2h_append(pos_j)
                    else:
                        if counted:
                            miss_append(pos_j)
                        if len(l2_set) >= l2_ways:
                            victim_tag = next(iter(l2_set))
                            victim_dirty = l2_set.pop(victim_tag)
                            victim_line = (victim_tag << l2_bits) | (line & l2_mask)
                            # Inclusive hierarchy: back-invalidate L1.
                            if victim_line in stamp:
                                del stamp[victim_line]
                                l1_rows[victim_line & l1_mask].remove(victim_line)
                                if l1_dirty.pop(victim_line, False):
                                    victim_dirty = True
                            if counted:
                                if victim_dirty:
                                    writebacks += 1
                                    wb_append(True)
                                else:
                                    wb_append(False)
                        elif counted:
                            wb_append(False)
                        l2_set[l2_tag] = False
                    # ---- Fill L1 ----
                    row = l1_rows[line & l1_mask]
                    if len(row) >= l1_ways:
                        victim_line = row[0]
                        best = stamp[victim_line]
                        for cand in row:
                            cand_stamp = stamp[cand]
                            if cand_stamp < best:
                                best = cand_stamp
                                victim_line = cand
                        row.remove(victim_line)
                        del stamp[victim_line]
                        if l1_dirty.pop(victim_line, False) and counted:
                            # Dirty L1 victim writes back into L2 (on-chip).
                            wb_l2_set = l2_sets[victim_line & l2_mask]
                            wb_l2_tag = victim_line >> l2_bits
                            if wb_l2_tag in wb_l2_set:
                                wb_l2_set[wb_l2_tag] = True
                    row.append(line)
                    stamp[line] = pos_j
                    if c_store[j]:
                        l1_dirty[line] = True
                    else:
                        l1_dirty.pop(line, None)
                    j += 1
                if hits * 32 >= burst_len * 31:  # >= ~97% hits
                    vector_mode = True
                    vector_fails = 0
                    window = 1024
                    # Scalar-mode misses skip the removal log, so the
                    # membership snapshot must be rebuilt from live
                    # state before the next vectorized scan.
                    snapshot_drift = _SNAPSHOT_DRIFT_MAX + 1
                else:
                    scalar_burst = min(scalar_burst * 2, _SCALAR_BURST_MAX)
                continue

            # ---- vector mode: membership scan over a window of heads ----
            if snapshot_drift > _SNAPSHOT_DRIFT_MAX:
                if stamp:
                    snapshot = np.sort(np.fromiter(
                        stamp.keys(), dtype=np.int64, count=len(stamp)
                    ))
                else:
                    snapshot = np.empty(0, dtype=np.int64)
                removed_log.clear()
                snapshot_drift = 0
            w_end = min(j + window, c_len)
            w_len = w_end - j
            seg = head_lines_np[j:w_end]
            if len(snapshot):
                pos = np.searchsorted(snapshot, seg)
                member = snapshot[np.minimum(pos, len(snapshot) - 1)] == seg
                if removed_log:
                    # A snapshot member removed since the rebuild would be
                    # a false hit: route it through the scalar path, which
                    # consults live state and classifies exactly.
                    member &= ~np.isin(
                        seg, np.asarray(removed_log, dtype=np.int64)
                    )
                scalar_pos = np.flatnonzero(~member)
            else:
                scalar_pos = np.arange(w_len)

            if not len(scalar_pos):
                # Fully-hit window: one bulk commit.  Last-write-wins
                # timestamps reproduce any move-to-MRU sequence; dirty
                # bits OR in each stored run.
                commit_hits(j, w_end, 0, w_len, seg)
                j = w_end
                if window < _WINDOW_MAX:
                    window <<= 1
                vector_fails = 0
                continue

            # Mixed window: bulk-commit the guaranteed-hit ranges between
            # scalar positions; step everything else through live state.
            # Short ranges go scalar too — a dict.update round-trip costs
            # more than a few inline hits.  Misses processed *inside* this
            # window evict lines the top-of-window mask knows nothing
            # about, so once the removed log grows, later ranges are
            # validated against the delta before committing.
            win_removed = len(removed_log)
            delta: set[int] = set()
            prev = 0
            n_scalar = len(scalar_pos)
            for sp in scalar_pos.tolist():
                if sp - prev >= _BULK_RANGE_MIN:
                    if len(removed_log) != win_removed:
                        delta.update(removed_log[win_removed:])
                        win_removed = len(removed_log)
                    if not delta or delta.isdisjoint(c_lines[j + prev:j + sp]):
                        commit_hits(j + prev, j + sp, prev, sp, seg)
                        prev = sp
                for k in range(j + prev, j + sp + 1):
                    line = c_lines[k]
                    if line in stamp:
                        stamp[line] = c_pos[k]
                        if c_store[k]:
                            l1_dirty[line] = True
                    else:
                        process_miss(line, c_pos[k], c_store[k])
                prev = sp + 1
            # Trailing hit range after the last scalar position.
            if prev < w_len:
                bulk = w_len - prev >= _BULK_RANGE_MIN
                if bulk and len(removed_log) != win_removed:
                    delta.update(removed_log[win_removed:])
                    win_removed = len(removed_log)
                if bulk and (not delta or delta.isdisjoint(c_lines[j + prev:w_end])):
                    commit_hits(j + prev, w_end, prev, w_len, seg)
                else:
                    for k in range(j + prev, w_end):
                        line = c_lines[k]
                        if line in stamp:
                            stamp[line] = c_pos[k]
                            if c_store[k]:
                                l1_dirty[line] = True
                        else:
                            process_miss(line, c_pos[k], c_store[k])
            j = w_end
            # Adapt: shrink on missy windows, drop to scalar mode when
            # vector scans stop paying for themselves.
            if n_scalar * 8 >= w_len:  # >= 12.5% scalar heads
                vector_fails += 1
                if window > _WINDOW_MIN:
                    window >>= 1
                if vector_fails >= 2:
                    vector_mode = False
                    scalar_burst = _SCALAR_BURST_MIN
            else:
                vector_fails = 0

        self._snapshot = snapshot
        self._snapshot_drift = snapshot_drift
        self._window = window
        self._vector_mode = vector_mode
        self._vector_fails = vector_fails
        self._scalar_burst = scalar_burst
        return l2_hit_refs, miss_refs, miss_wb, writebacks


def _segment_sums(inter: np.ndarray, seg_ends: np.ndarray) -> tuple[object, float]:
    """Left-to-right sums of ``inter`` split before each of ``seg_ends``.

    Returns the per-segment sums and the sum of the open tail after the
    last segment.  Long segments go through np.cumsum (a sequential
    recurrence — bit-identical to the running +=); many short segments
    are grouped by length and summed with one strictly left-to-right
    vectorized add per element position (the first operand carries no
    0.0 seed, which is exact anyway); the remainder goes through builtin
    sum on list slices (a sequential C loop).  None of these is the
    pairwise np.add.reduce.
    """
    n_miss = len(seg_ends)
    if n_miss == 0 or len(inter) // n_miss > 512:
        seg_sums = []
        append_seg = seg_sums.append
        prev = 0
        for end in seg_ends.tolist():
            append_seg(float(np.cumsum(inter[prev:end])[-1]))
            prev = end
        tail = inter[prev:]
        return seg_sums, float(np.cumsum(tail)[-1]) if len(tail) else 0.0
    starts = np.empty(n_miss, dtype=np.int64)
    starts[0] = 0
    starts[1:] = seg_ends[:-1]
    lengths = seg_ends - starts
    if n_miss >= 1024 and int(lengths.max()) <= 64:
        # Miss-dense step: the segments are short and of few distinct
        # lengths, so each length class sums with ``length`` sequential
        # elementwise adds.
        sums = np.empty(n_miss)
        for length in np.unique(lengths).tolist():
            rows = np.flatnonzero(lengths == length)
            row_starts = starts[rows]
            acc = inter[row_starts]
            for offset in range(1, length):
                acc = acc + inter[row_starts + offset]
            sums[rows] = acc
        return sums, float(sum(inter[int(seg_ends[-1]):].tolist()))
    seg_sums = []
    append_seg = seg_sums.append
    inter_list = inter.tolist()
    prev = 0
    for end in seg_ends.tolist():
        append_seg(sum(inter_list[prev:end]))
        prev = end
    # float() keeps the empty-tail case a float like the reference's
    # accumulator (sum of an empty slice is int 0).
    return seg_sums, float(sum(inter_list[prev:]))


def _energy_events(
    trace, config, n_instructions, n_refs, local_fraction,
    l1d_hits, l1d_refills, l2_hits, l2_refills, llc_misses, writebacks,
) -> EnergyEvents:
    """The reference's energy bookkeeping, verbatim.

    Note ``n_refs`` is the *total* reference count (warm-up included):
    the reference mixes it with the post-warm-up instruction count, and
    byte-equivalence means reproducing that accounting exactly.
    """
    energy = EnergyEvents()
    n_gap_instructions = n_instructions - n_refs
    implicit_l1_refs = int(n_gap_instructions * local_fraction)
    n_nonmem = n_gap_instructions - implicit_l1_refs
    energy.n_instructions = n_instructions
    energy.n_memory_refs = n_refs + implicit_l1_refs
    energy.alu_fpu_ops = n_nonmem
    fp_fraction = trace.mix.fp_fraction
    energy.regfile_fp_ops = int(n_nonmem * fp_fraction)
    energy.regfile_int_ops = n_nonmem - energy.regfile_fp_ops + energy.n_memory_refs
    energy.fetch_buffer_accesses = n_instructions // 8
    energy.l1i_hits = n_instructions // (config.line_bytes // 4)
    energy.l1i_refills = trace.n_phases * (
        trace.icache_footprint_bytes // config.line_bytes
    )
    energy.l1d_hits = l1d_hits + implicit_l1_refs
    energy.l1d_refills = l1d_refills
    energy.l2_hits = l2_hits + energy.l1i_refills
    energy.l2_refills = l2_refills
    energy.llc_misses = llc_misses
    energy.writebacks = writebacks
    return energy
