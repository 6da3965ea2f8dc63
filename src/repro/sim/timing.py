"""Event-driven timing simulation of one benchmark under one scheme.

Replays a :class:`~repro.cpu.trace.MissTrace` (produced once per benchmark
by the functional cache pass) against a memory controller built by a
scheme.  The machine model:

* the in-order core executes compute between LLC requests (the precomputed
  ``gap_cycles``), so the core timeline only interacts with memory at
  request points;
* **blocking** requests (load misses) stall the core until the response;
* **non-blocking** requests (store-miss fills, dirty writebacks) enter the
  8-entry write buffer and drain in the background; the core stalls only
  when the buffer is full (Table 1, Section 9.1.2 — this is what creates
  the Req 3 multiple-outstanding pattern of Figure 4);
* the memory controller is one of
  :class:`~repro.core.controller.FlatDramController` (base_dram),
  :class:`~repro.core.controller.UnprotectedController` (base_oram), or
  :class:`~repro.core.controller.TimingProtectedController`
  (static/dynamic) — the latter inserts dummy accesses and rate waits.

Two replay kernels produce **bit-identical** :class:`SimResult`\\ s:

* ``mode="reference"`` — the original scalar loop calling
  ``controller.serve`` once per request (and, for slot controllers, once
  per *dummy slot* inside ``_advance``).
* ``mode="fast"`` (default) — per-controller kernels that do the same
  arithmetic in bulk.  ``base_dram`` replays as a handful of numpy array
  ops (the interleaved gap/latency ``np.cumsum`` reproduces the scalar
  ``+=`` chain exactly, because cumsum is a sequential recurrence) with a
  vectorized write-buffer-stall check and a reference fallback on the
  rare full-buffer stall.  Slot controllers (static and dynamic alike)
  run the one scalar slot loop, :func:`_slot_feed`: a per-request loop
  that replaces the per-dummy-slot ``_advance`` iteration with
  closed-form integer slot arithmetic per idle window — the controller
  timeline never depends on fractional arrival times, only on
  comparisons against them, so the whole slot/dummy/epoch state machine
  runs on exact Python integers whose float images match the
  reference's accumulated floats bit for bit.  :class:`_SlotMachine`
  makes that loop resumable: the in-memory replay is one feed of the
  whole trace, and :mod:`repro.sim.streaming` feeds it chunks.

``record_observable_trace`` runs always use the reference kernel: the
adversary-view trace wants one append per access, which is exactly the
per-event work the fast kernels eliminate.

A third entry point batches the *configuration* axis:
:func:`run_timing_batch` replays one miss trace under many schemes —
the frontier sweep's workhorse, bit-identical per config to
``run_timing`` (the per-scheme replay stays the oracle, enforced by
``tests/sim/test_batch_equivalence.py``).  Its slot-controller state
lives in ``(n_configs,)`` arrays advanced at two grains: certified
lockstep runs in closed form where every config is dummy-free and
boundary-free (dense traces), and the scalar slot loop per config for
everything else (sparse or rate-mixed batches), so a batch never costs
much more than replaying its schemes one by one.  The batched kernel
assumes the usual trace regime (non-negative gaps, timelines below
2**53 so integer-valued doubles stay exact), which every generated
workload satisfies.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from repro.cache.write_buffer import WriteBuffer
from repro.core.controller import (
    EpochRecord,
    FlatDramController,
    TimingProtectedController,
    UnprotectedController,
)
from repro.cpu.trace import MissTrace
from repro.power.coefficients import PAPER_COEFFICIENTS
from repro.power.model import (
    build_breakdown,
    dram_memory_energy_nj,
    oram_memory_energy_nj,
)
from repro.sim.result import SimResult


def run_timing(
    miss_trace: MissTrace,
    scheme,
    write_buffer_entries: int = 8,
    record_requests: bool = True,
    record_observable_trace: bool = False,
    mode: str = "fast",
) -> SimResult:
    """Replay ``miss_trace`` under ``scheme``; return the full result.

    ``scheme`` is any object from :mod:`repro.core.scheme` exposing
    ``build_controller()``, ``name`` and ``is_oram``.

    With ``record_observable_trace``, the result carries the start time of
    every memory access an adversary can observe — including dummies for
    slot-enforced schemes (the Section 4.2 capability).

    ``mode`` selects the replay kernel (``"fast"``/``"reference"``); both
    are bit-identical, enforced by
    ``tests/sim/test_timing_equivalence.py``.
    """
    if mode not in ("fast", "reference"):
        raise ValueError(f"mode must be 'fast' or 'reference', got {mode!r}")
    controller = scheme.build_controller()
    controller.record_trace = record_observable_trace
    return _replay(
        miss_trace, scheme, controller, write_buffer_entries,
        record_requests, record_observable_trace, mode,
    )


def run_timing_batch(
    miss_trace: MissTrace,
    schemes,
    write_buffer_entries: int = 8,
    record_requests: bool = True,
    mode: str = "fast",
) -> list:
    """Replay one miss trace under many schemes with one batched kernel.

    The frontier sweep's workhorse: a design-space grid replays the
    *same* arrival stream under every configuration, so the slot
    controllers share one kernel whose state carries the configuration
    axis as ``(n_configs,)`` lanes.  Stretches where every config
    certifies replay in lockstep closed form; everything else steps
    per config through the scalar slot loop (see
    :func:`_replay_slotted_batch`).

    Returns one :class:`SimResult` per scheme, in order, each
    **bit-identical** to ``run_timing(miss_trace, scheme, ...)`` — the
    per-scheme replay stays the oracle, same contract pattern as the
    cache and ORAM kernel pairs (enforced by
    ``tests/sim/test_batch_equivalence.py``).  Schemes without a slot
    controller (``base_dram``/``base_oram``) replay through their
    single-config kernels; ``mode="reference"`` delegates every scheme
    to the scalar reference loop.
    """
    if mode not in ("fast", "reference"):
        raise ValueError(f"mode must be 'fast' or 'reference', got {mode!r}")
    schemes = list(schemes)
    results: list = [None] * len(schemes)
    slotted: list[int] = []
    controllers = []
    for index, scheme in enumerate(schemes):
        controller = scheme.build_controller()
        if mode == "fast" and type(controller) is TimingProtectedController:
            slotted.append(index)
            controllers.append(controller)
        else:
            results[index] = _replay(
                miss_trace, scheme, controller, write_buffer_entries,
                record_requests, False, mode,
            )
    if slotted:
        batch = _replay_slotted_batch(
            miss_trace, controllers, write_buffer_entries, record_requests
        )
        for index, controller, (end_time, completions) in zip(
            slotted, controllers, batch
        ):
            results[index] = _finish(
                miss_trace, schemes[index], controller, end_time, completions
            )
    return results


def _replay(
    miss_trace, scheme, controller, entries,
    record_requests, record_observable_trace, mode,
) -> SimResult:
    """Replay on a freshly built controller with the kernel ``mode`` picks."""
    if mode == "fast" and not record_observable_trace:
        if type(controller) is FlatDramController:
            replay = _replay_flat_dram(
                miss_trace, controller, entries, record_requests
            )
            if replay is not None:
                return _finish(miss_trace, scheme, controller, *replay)
            # Rare full-buffer stall: fall through to the reference loop.
        elif type(controller) is UnprotectedController:
            replay = _replay_unprotected(
                miss_trace, controller, entries, record_requests
            )
            return _finish(miss_trace, scheme, controller, *replay)
        elif type(controller) is TimingProtectedController:
            machine = _SlotMachine(controller, entries)
            completions = [] if record_requests else None
            machine.feed(miss_trace, completions)
            end_time = machine.finish(miss_trace)
            if completions is not None:
                completions = np.array(completions, dtype=np.float64)
            return _finish(miss_trace, scheme, controller, end_time, completions)
        # Unknown controller types replay through the reference loop.
    return _replay_reference(
        miss_trace, scheme, controller, entries,
        record_requests, record_observable_trace,
    )


# ----------------------------------------------------------------------
# Reference kernel
# ----------------------------------------------------------------------

def _replay_reference(
    miss_trace, scheme, controller, write_buffer_entries,
    record_requests, record_observable_trace,
) -> SimResult:
    """The original scalar replay: one ``serve`` call per request."""
    buffer = WriteBuffer(entries=write_buffer_entries)

    gaps = miss_trace.gap_cycles
    blocking = miss_trace.is_blocking
    n_requests = len(gaps)

    completions = np.zeros(n_requests, dtype=np.float64) if record_requests else None

    core_time = 0.0
    serve = controller.serve
    admit = buffer.admit

    for index in range(n_requests):
        issue = core_time + gaps[index]
        completion = serve(issue)
        if blocking[index]:
            core_time = completion
        else:
            core_time = admit(issue, completion)
        if completions is not None:
            completions[index] = completion

    # Tail: the core's final compute and any still-draining stores.
    end_time = core_time + miss_trace.total_compute_cycles
    end_time = max(end_time, buffer.drain_all())
    controller.finalize(end_time)

    return _build_result(
        miss_trace, scheme, controller, end_time, completions,
        record_requests, record_observable_trace,
    )


# ----------------------------------------------------------------------
# Fast kernels
# ----------------------------------------------------------------------

def _replay_flat_dram(miss_trace, controller, entries, record_requests):
    """Vectorized base_dram replay; ``None`` if the write buffer stalls.

    The scalar recurrence is ``core += gap`` then, for blocking requests,
    ``core += latency`` (the admit path returns ``now`` when the buffer
    never fills).  Interleaving those terms and taking ``np.cumsum`` —
    a sequential recurrence — reproduces the float chain exactly.
    """
    gaps = miss_trace.gap_cycles
    blocking = miss_trace.is_blocking
    n = len(gaps)
    latency = controller.latency
    if n == 0:
        controller.stats.real_accesses = 0
        end_time = 0.0 + miss_trace.total_compute_cycles
        end_time = max(end_time, 0.0)
        return end_time, (np.zeros(0) if record_requests else None)

    inter = np.empty(2 * n)
    inter[0::2] = gaps
    inter[1::2] = np.where(blocking, float(latency), 0.0)
    prefix = np.cumsum(inter)
    issues = prefix[0::2]
    core_after = prefix[1::2]
    completions = issues + latency

    nb = completions[~blocking]
    if len(nb) > entries:
        # k-th non-blocking admit stalls iff the (k - entries)-th is
        # still in flight at its issue time.
        if (nb[:-entries] > issues[~blocking][entries:]).any():
            return None  # reference fallback

    controller.stats.real_accesses = n
    core_end = float(core_after[-1])
    end_time = core_end + miss_trace.total_compute_cycles
    drain = float(nb[-1]) if len(nb) else 0.0
    end_time = max(end_time, drain)
    return end_time, (completions if record_requests else None)


def _replay_unprotected(miss_trace, controller, entries, record_requests):
    """Lean base_oram replay: single-ported ORAM, no slots, no dummies."""
    gaps = miss_trace.gap_cycles.tolist()
    blocking = miss_trace.is_blocking.tolist()
    n = len(gaps)
    latency = controller.latency
    completions = np.zeros(n, dtype=np.float64) if record_requests else None

    core = 0.0
    prev = 0.0
    real = 0
    buffer: deque = deque()
    buf_pop = buffer.popleft
    buf_push = buffer.append

    for i in range(n):
        issue = core + gaps[i]
        start = issue if issue > prev else prev
        completion = start + latency
        prev = completion
        real += 1
        if blocking[i]:
            core = completion
        else:
            while buffer and buffer[0] <= issue:
                buf_pop()
            proceed = issue
            while len(buffer) >= entries:
                oldest = buf_pop()
                if oldest > proceed:
                    proceed = oldest
            buf_push(completion)
            core = proceed
        if completions is not None:
            completions[i] = completion

    controller.stats.real_accesses = real
    end_time = core + miss_trace.total_compute_cycles
    drain = buffer[-1] if buffer else 0.0
    end_time = max(end_time, drain)
    return float(end_time), completions


# ----------------------------------------------------------------------
# The scalar slot machine
# ----------------------------------------------------------------------

#: Epoch boundary of a static slot controller.  Timelines stay below
#: 2**53, so the boundary is never due and static and dynamic schemes
#: share one loop (and one int64 lane in the batched kernel).
_NO_EPOCH = 1 << 62


def _slot_state(controller) -> tuple:
    """A slot controller's initial scalar state (see :func:`_slot_feed`)."""
    schedule = controller.schedule
    epoch_end = _NO_EPOCH if schedule is None else schedule.epoch_length(0)
    return (0, controller.rate, epoch_end, 0, 0, 0, 0.0, 0.0, 0.0, False)


def _slot_feed(controller, state, buffer, entries, gaps, blocking, lo, hi, out):
    """Replay requests ``lo..hi-1`` on one slot controller: the scalar loop.

    ``state`` is ``(prev, rate, epoch_end, epoch_index, epoch_access,
    dummies, epoch_waste, total_waste, core, last_was_real)``; the new
    state is returned.  ``buffer`` (a deque of in-flight write-buffer
    completions) is updated in place, and each completion is appended
    to ``out`` unless it is ``None``.

    The controller timeline (slots, dummies, epochs) is integer-valued:
    every quantity is a sum of ``rate``/``latency`` integers, and arrival
    times only enter *comparisons*, never the arithmetic.  Keeping it in
    exact Python integers therefore reproduces the reference's float
    timeline bit for bit, while an idle window of k dummy slots costs
    O(1) arithmetic (:func:`_slot_advance`) instead of k iterations.
    The common request, arriving inside the current slot window with no
    boundary due, costs a handful of local operations.
    """
    (prev, rate, epoch_end, epoch_index, epoch_access, dummies,
     epoch_waste, total_waste, core, last_was_real) = state
    latency = controller.latency
    rate_f = float(rate)
    buf_pop = buffer.popleft
    buf_push = buffer.append
    record = out.append if out is not None else None
    # The epoch's access count is kept as an offset from the loop index
    # (request i is the epoch's access number base + i).
    base = epoch_access - lo
    for i in range(lo, hi):
        arrival = core + gaps[i]
        slot = prev + rate
        if slot < arrival or prev >= epoch_end:
            (prev, rate, epoch_end, epoch_index, epoch_access, epoch_waste,
             fired) = _slot_advance(
                controller, prev, rate, epoch_end, epoch_index,
                base + i, epoch_waste, arrival,
            )
            base = epoch_access - i
            if fired:
                dummies += fired
                last_was_real = False
            rate_f = float(rate)
            slot = prev + rate
        if arrival <= prev and last_was_real:
            waste = rate_f  # Req 3: queued behind real work
        else:
            waste = slot - arrival  # Req 1/2: idle wait or dummy remainder
        epoch_waste += waste
        total_waste += waste
        prev = completion = slot + latency
        last_was_real = True
        # ---- core/write-buffer reaction ----
        if blocking[i]:
            core = completion
        else:
            while buffer and buffer[0] <= arrival:
                buf_pop()
            proceed = arrival
            while len(buffer) >= entries:
                oldest = buf_pop()
                if oldest > proceed:
                    proceed = oldest
            buf_push(completion)
            core = proceed
        if record is not None:
            record(completion)
    return (prev, rate, epoch_end, epoch_index, base + hi, dummies,
            epoch_waste, total_waste, core, last_was_real)


def _slot_advance(controller, prev, rate, epoch_end, epoch_index,
                  epoch_access, epoch_waste, until):
    """Fire every dummy slot that starts strictly before ``until``.

    The count of dummy slots in an idle window is estimated with float
    division and pinned by exact integer/float comparisons, then capped
    at the epoch boundary, where a learner transition may change the
    rate.  Returns the updated epoch state and the number fired.
    """
    latency = controller.latency
    fired = 0
    while True:
        while prev >= epoch_end:
            rate, epoch_index, epoch_end = _epoch_transition(
                controller, epoch_index, epoch_end, epoch_access, epoch_waste
            )
            epoch_access = 0
            epoch_waste = 0.0
        if prev + rate >= until:
            return (prev, rate, epoch_end, epoch_index, epoch_access,
                    epoch_waste, fired)
        # Dummy slots j in [0, k) with prev + j*step + rate < until.
        step = rate + latency
        k = int((until - prev - rate) // step) + 1
        if k < 1:
            k = 1
        while k > 0 and prev + (k - 1) * step + rate >= until:
            k -= 1
        while prev + k * step + rate < until:
            k += 1
        # Dummies may only fire while prev stays inside the epoch.
        span = -(-(epoch_end - prev) // step)
        if span < k:
            k = span
        prev += k * step
        fired += k


def _epoch_transition(controller, epoch_index, epoch_end, access, waste):
    """One learner decision at the boundary ``epoch_end``.

    Returns the next epoch's ``(rate, epoch_index, epoch_end)`` and
    appends its :class:`EpochRecord` to the controller.
    """
    schedule = controller.schedule
    counters = controller.counters
    counters.access_count = access
    counters.oram_cycles = float(access * controller.latency)
    counters.waste = waste
    decision = controller.learner.decide(
        counters, float(schedule.epoch_length(epoch_index))
    )
    counters.reset()
    epoch_index += 1
    rate = decision.chosen_rate
    controller.epochs.append(
        EpochRecord(
            index=epoch_index,
            start_cycle=float(epoch_end),
            rate=rate,
            raw_estimate=decision.raw_estimate,
        )
    )
    return rate, epoch_index, epoch_end + schedule.epoch_length(epoch_index)


def _slot_finish(controller, state, buffer, n_requests, total_compute_cycles):
    """Fire the trailing dummies, publish the final state, return end time.

    The epoch counters are published as the controller would hold them
    (a static scheme never resets them, so they equal the run totals;
    ``oram_cycles`` is ``access_count`` exact additions of ``latency``).
    """
    (prev, rate, epoch_end, epoch_index, epoch_access, dummies,
     epoch_waste, total_waste, core, _) = state
    end_time = core + total_compute_cycles
    drain = buffer[-1] if buffer else 0.0
    end_time = float(max(end_time, drain))
    prev, rate, epoch_end, epoch_index, epoch_access, epoch_waste, fired = (
        _slot_advance(
            controller, prev, rate, epoch_end, epoch_index,
            epoch_access, epoch_waste, end_time,
        )
    )
    controller.rate = rate
    counters = controller.counters
    counters.access_count = epoch_access
    counters.oram_cycles = float(epoch_access * controller.latency)
    counters.waste = epoch_waste
    controller.stats.real_accesses = n_requests
    controller.stats.dummy_accesses = dummies + fired
    controller.stats.total_waste = total_waste
    return end_time


class _SlotMachine:
    """The scalar slot loop as a resumable machine.

    ``feed`` takes anything with ``gap_cycles``/``is_blocking`` arrays
    (a :class:`~repro.cpu.trace.MissTrace` or a streamed chunk) and
    ``finish`` anything with ``total_compute_cycles``; the in-memory
    replay is one feed of the whole trace.
    """

    def __init__(self, controller, entries: int) -> None:
        self.controller = controller
        self.entries = entries
        self.state = _slot_state(controller)
        self.buffer: deque = deque()
        self.n = 0

    def feed(self, chunk, completions: list | None = None) -> None:
        gaps = chunk.gap_cycles.tolist()
        self.state = _slot_feed(
            self.controller, self.state, self.buffer, self.entries,
            gaps, chunk.is_blocking.tolist(), 0, len(gaps), completions,
        )
        self.n += len(gaps)

    def finish(self, summary) -> float:
        return _slot_finish(
            self.controller, self.state, self.buffer, self.n,
            summary.total_compute_cycles,
        )


# ----------------------------------------------------------------------
# Config-batched slotted kernel
# ----------------------------------------------------------------------

#: Lockstep window bounds (requests per attempt): the shortest run
#: worth attempting never drops below ``_RUN_MIN``, and ``_RUN_MAX``
#: bounds the (window, n_configs) matrices.
_RUN_MIN = 4
_RUN_MAX = 256

#: The lockstep cost model, in *cells* — one config stepping one
#: request through the scalar loop (about 0.35 us on the reference
#: host).  An attempt costs about ``_ATTEMPT_CELLS`` plus one
#: ``_LOCKSTEP_SHARE``-th of a cell per (config, request) in its window,
#: and saves every cell it certifies.
_ATTEMPT_CELLS = 256
_LOCKSTEP_SHARE = 16


def _replay_slotted_batch(miss_trace, controllers, entries, record_requests):
    """Replay one arrival stream on many slot controllers.

    Two execution grains share one canonical state, the scalar state of
    :func:`_slot_feed` held as per-config rows of an int64 matrix
    (``prev, rate, epoch_end, epoch_index, epoch_access, dummies``, and
    the write-buffer fill) and a float64 one (``epoch_waste,
    total_waste, core``, and the write-buffer ring):

    * **lockstep runs** (``try_run``) replay a stretch of requests for
      every config at once in closed form, wherever every config
      certifies every request;
    * **per-config stepping** runs the scalar slot loop itself for
      whatever lockstep cannot certify: at a truncation column only the
      configs that failed it, and between attempts every config.

    When to attempt lockstep comes only from what the kernel observes
    in its input, through one cost model counted in scalar
    config-request *cells*:

    * a skip-ahead steps scalar over every stretch the input dooms —
      between two requests no run can certify (a gap wider than the
      fastest rate after a blocking request, a store that would pop)
      fewer requests than a run needs to pay for its attempt — and
      otherwise ends the attempt's window at the dooming request;
    * a column-0 gate rejects the attempt outright while any config has
      a dummy or an epoch boundary due, or a store arrives before the
      buffer it inherits has drained; the request then steps scalar.

    Rows convert to scalar state in bulk at each switch.

    The write buffer is a per-config ring of the last ``entries``
    non-blocking completions, the newest ``fill`` of them in flight;
    completions are strictly increasing, so the ring and the scalar
    loop's deque hold the same entries.

    Returns ``[(end_time, completions-or-None), ...]`` in controller
    order, with final rate/counter/stat state published back onto each
    controller (same contract as the single-config replay).
    """
    n_cfg = len(controllers)
    # MissTrace.__post_init__ canonicalizes (contiguous float64/bool).
    gaps_np = miss_trace.gap_cycles
    blocking_np = miss_trace.is_blocking
    gaps = gaps_np.tolist()
    blocking = blocking_np.tolist()
    n = len(gaps)

    ints = np.zeros((n_cfg, 7), dtype=np.int64)
    floats = np.zeros((n_cfg, 3 + entries))
    for row, controller in enumerate(controllers):
        state = _slot_state(controller)
        ints[row, :6] = state[:6]
        floats[row, :3] = state[6:9]
    prev, rate, epoch_end, epoch_index, epoch_access, dummies, fill = ints.T
    epoch_waste, total_waste, core = floats[:, 0], floats[:, 1], floats[:, 2]
    ring = floats[:, 3:]
    lat = np.array([c.latency for c in controllers], dtype=np.int64)
    lat_f = lat.astype(np.float64)
    completions_out = np.zeros((n_cfg, n)) if record_requests else None
    every = np.arange(n_cfg)
    ring_cols = np.arange(entries)

    def step_scalar(sel, lo: int, hi: int) -> None:
        """Replay requests ``lo..hi-1`` on configs ``sel`` (scalar loop).

        A stretch without stores leaves the write buffer alone, so its
        ring columns are not converted at all.
        """
        real = lo > 0
        stores = False in blocking[lo:hi]
        width = 3 + entries if stores else 3
        irows = ints[sel].tolist()
        frows = floats[sel, :width].tolist()
        outs = [] if completions_out is not None else None
        out = None
        for c, irow, frow in zip(sel.tolist(), irows, frows):
            count = irow[6]
            buffer = deque(frow[width - count:] if stores and count else ())
            if outs is not None:
                out = []
                outs.append(out)
            state = _slot_feed(
                controllers[c],
                (irow[0], irow[1], irow[2], irow[3], irow[4], irow[5],
                 frow[0], frow[1], frow[2], real),
                buffer, entries, gaps, blocking, lo, hi, out,
            )
            irow[:6] = state[:6]
            frow[:3] = state[6:9]
            if stores:
                irow[6] = count = len(buffer)
                frow[width - count:] = buffer
        ints[sel] = irows
        floats[sel, :width] = frows
        if outs is not None:
            completions_out[sel, lo:hi] = outs

    # Per-trace stretch structure: each request's position in its run
    # of consecutive stores (-1 for a blocking request) and the stores
    # whose position would make them pop.
    index = np.arange(n)
    stretch_pos = index - np.maximum.accumulate(np.where(blocking_np, index, -1)) - 1
    pops = np.flatnonzero(stretch_pos >= entries)
    col_offsets = np.arange(float(_RUN_MAX))
    col_index = np.arange(_RUN_MAX)
    # The shortest run that pays for its attempt twice over.
    run_min = min(max(_RUN_MIN, -(-2 * _ATTEMPT_CELLS // n_cfg)), _RUN_MAX)
    dooms: dict[int, tuple] = {}

    def dooms_for(fastest: int) -> tuple:
        """The doom-free stretches while ``fastest`` is the fastest rate.

        No run can certify a request after a blocking one whose gap is
        wider than the fastest rate (that config's slot lies behind the
        arrival: a dummy is due), nor a store at stretch position
        ``entries`` (it pops the buffer).  Returns ``(starts, ends)``:
        the bounds of every stretch between two such requests that is
        at least ``run_min`` long, each end being the dooming request
        (or ``n``).
        """
        entry = dooms.get(fastest)
        if entry is None:
            wide = np.flatnonzero(blocking_np[:-1] & (gaps_np[1:] > fastest)) + 1
            bounds = np.concatenate(([-1], np.union1d(wide, pops), [n]))
            long_runs = np.flatnonzero(np.diff(bounds) > run_min)
            entry = dooms[fastest] = (
                bounds[long_runs] + 1, bounds[long_runs + 1]
            )
        return entry

    def try_run(start: int, stop: int) -> int:
        """Replay requests ``start..stop-1`` as one closed form, or a prefix.

        In a stretch where no config fires a dummy or crosses an epoch
        boundary, the controller timeline of *every* request — blocking
        or not — is affine: ``prev + j*step`` per config, exactly (all
        integer-valued).  The core's position is then determined too: a
        blocking serve locks it to the (affine) completion, and in the
        controller-bound regime a non-blocking serve drains the whole
        write buffer (the arrival has passed every older completion)
        without popping, leaving ``core = arrival``.  Arrivals chain
        from the nearest completion anchor — one float rounding per
        request, evaluated matrix-wise in chain-depth passes, exactly
        as the scalar replay rounds them.  Matrices are (request,
        config), so per-request rows are contiguous.

        Every assumption is *certified* per (config, request) cell with
        the same comparisons the scalar replay would make — no dummy
        pending (``arrival <= slot``), no boundary due
        (``prev < epoch_end``), stores fully draining at each stretch
        start and not draining inside one — and the run is truncated at
        the first request where any config fails.  The configs that
        certify the truncation request take it in closed form too, and
        so do those whose only failure is a pending dummy that leaves
        them inside their epoch (:func:`_slot_advance`'s count, applied
        lane-wise); the rest take it through the scalar loop.  The
        per-config waste accumulators are threaded through a seeded
        ``np.add.accumulate`` (a sequential recurrence), so float
        addition order matches the scalar replay bit for bit.

        The caller ends the window at the request that dooms its
        stretch (see ``dooms_for``), which becomes the truncation
        column.  A near epoch boundary that cuts the window too short
        for the attempt to pay sends the window, truncation column
        included, through the scalar loop without building any matrix.
        Returns the number of requests every config has now replayed.
        """
        step = rate + lat
        m = stop - start
        # Boundary pre-bound: columns below int(margin) are boundary-
        # free for every config by a float-slack argument (the
        # quotient's error is << 1); the (at most two) columns from
        # there on take the exact comparison, so the column where the
        # first boundary falls due is a truncation column, not the
        # next attempt's column 0.
        margin = float(((epoch_end - prev) / step).min())
        exact_from = m
        if margin < m:
            exact_from = int(margin)
            m = min(m, exact_from + 2)
            stop = start + m
        if m * n_cfg < _ATTEMPT_CELLS + m * n_cfg // _LOCKSTEP_SHARE:
            step_scalar(every, start, stop)
            return m
        g_row = gaps_np[start:stop]
        blk_row = blocking_np[start:stop]
        idx_row = col_index[:m]
        # Window-local stretch positions (a stretch that began before
        # the window counts from column 0) and chain depths: the
        # distance back to the column after the nearest blocking one.
        pos_row = np.minimum(stretch_pos[start:stop], idx_row)
        depth_row = np.zeros(m, dtype=np.int64)
        depth_row[1:] = np.minimum(pos_row[:-1] + 1, idx_row[1:])

        slot_mat = np.multiply.outer(col_offsets[:m], step.astype(np.float64))
        slot_mat += (prev + rate).astype(np.float64)
        comp_mat = slot_mat + lat_f

        # Arrival chains: a column whose predecessor was *blocking* is
        # anchored on that completion; a column whose predecessor was
        # non-blocking continues from its arrival.  Pass d resolves
        # every depth-d column (sorted by depth once) from its already
        # resolved left neighbour.
        arrival = np.empty((m, n_cfg))
        np.add(core, g_row[0], out=arrival[0])
        if m > 1:
            np.add(comp_mat[:-1], g_row[1:, None], out=arrival[1:])
        chained = np.flatnonzero(depth_row)
        if len(chained):
            order = chained[np.argsort(depth_row[chained], kind="stable")]
            ends = np.cumsum(np.bincount(depth_row[order])).tolist()
            g_chain = g_row[order, None]
            for lo, hi in zip(ends[:-1], ends[1:]):
                cols = order[lo:hi]
                arrival[cols] = arrival[cols - 1] + g_chain[lo:hi]

        # Certification, folded to one per-column flag: every config's
        # slot headroom must be non-negative (no dummy pending).  Gap
        # sign is what makes stretch-start stores drain the whole buffer
        # automatically (arrival >= newest completion >= every older).
        diff = slot_mat - arrival
        col_ok = (diff >= 0.0).all(axis=1)
        col_ok &= g_row >= 0.0
        due = None
        if exact_from < m:
            due = (
                prev + np.multiply.outer(idx_row[exact_from:], step)
                >= epoch_end
            )
            col_ok[exact_from:] &= ~due.any(axis=1)
        head_live = None
        nb_cols = np.flatnonzero(~blk_row)
        if len(nb_cols):
            # Store stretches.  Position `entries` would pop — break
            # there; positions inside a stretch must not drain (their
            # arrival stays below the stretch-start completion); a
            # stretch-start store at the run head must drain every
            # carried live entry.
            pos_nb = pos_row[nb_cols]
            col_ok[nb_cols[pos_nb >= entries]] = False
            stretch_mask = (pos_nb > 0) & (pos_nb < entries)
            inside = nb_cols[stretch_mask]
            if len(inside):
                col_ok[inside] &= (
                    comp_mat[inside - pos_nb[stretch_mask]] > arrival[inside]
                ).all(axis=1)
            if not blk_row[0]:
                live = ring_cols >= (entries - fill)[:, None]
                head_live = (~live | (ring <= arrival[0][:, None])).all(axis=1)
                col_ok[0] &= bool(head_live.all())
        certified = m if col_ok.all() else int(np.argmin(col_ok))

        # The truncation column, certified per config with the same
        # comparisons.
        width = certified
        passed = None
        if certified < m:
            j = certified
            width = j + 1
            passed = diff[j] >= 0.0
            if not g_row[j] >= 0.0:
                passed[:] = False
            if due is not None and j >= exact_from:
                passed &= ~due[j - exact_from]
            if not blk_row[j]:
                pos = int(pos_row[j])
                if pos >= entries:
                    passed[:] = False
                elif pos > 0:
                    passed &= comp_mat[j - pos] > arrival[j]
                elif j == 0:
                    passed &= head_live

        # The failed configs whose only trouble is a pending dummy take
        # the truncation column in closed form as well: k dummy slots,
        # the least k with prev + k*step + rate >= arrival, provided
        # they leave the config inside its epoch (no learner decision).
        # Its arrival lies past every completion, so a store drains the
        # whole buffer.
        lane = None
        if passed is not None:
            scalar = ~passed
            j = width - 1
            cand = np.flatnonzero(scalar & (diff[j] < 0.0))
            if len(cand):
                prev_j = prev[cand] + j * step[cand]
                step_c = step[cand]
                rate_c = rate[cand]
                arr = arrival[j, cand]
                k = np.floor((arr - (prev_j + rate_c)) / step_c).astype(np.int64) + 1
                np.maximum(k, 1, out=k)
                while True:
                    over = (k > 0) & (prev_j + (k - 1) * step_c + rate_c >= arr)
                    if not over.any():
                        break
                    k -= over
                while True:
                    under = prev_j + k * step_c + rate_c < arr
                    if not under.any():
                        break
                    k += under
                prev_j += k * step_c
                stays = prev_j < epoch_end[cand]
                if stays.any():
                    lane = cand[stays]
                    k = k[stays]
                    slot = prev_j[stays] + rate_c[stays]
                    lane_waste = slot - arr[stays]
                    lane_done = slot + lat[lane]
                    scalar[lane] = False

        # waste = rate when the request queued behind real work (Req 3,
        # arrival <= prev, i.e. diff >= rate up to a value-preserving
        # rounding tie), else the wait for the next slot (Req 1/2).
        # Row 0 seeds the epoch and run accumulators side by side.
        seeded = np.empty((width + 1, 2, n_cfg))
        np.minimum(diff[:width, None], rate.astype(np.float64), out=seeded[1:])
        advanced_by = width
        if passed is not None:
            seeded[width, :, ~passed] = 0.0  # served below
            if lane is not None:
                seeded[width][:, lane] = lane_waste
            advanced_by = width - ~passed
        seeded[0, 0] = epoch_waste
        seeded[0, 1] = total_waste
        epoch_waste[:], total_waste[:] = np.add.accumulate(seeded, axis=0)[-1]
        if completions_out is not None:
            completions_out[:, start:start + width] = comp_mat[:width].T

        # Post-run state: the core sits at the last completion (blocking
        # tail) or the last arrival (store tail); the buffer holds
        # exactly the trailing store stretch's completions.
        def core_after(cols: int):
            if cols == 0:
                return core.copy()
            last = cols - 1
            return comp_mat[last] if blk_row[last] else arrival[last]

        def ring_after(cols: int):
            tail = cols - 1
            while tail >= 0 and blk_row[tail]:
                tail -= 1
            if tail < 0:
                return ring.copy(), fill.copy()
            q = int(pos_row[tail]) + 1
            after = np.zeros((n_cfg, entries))
            after[:, entries - q:] = comp_mat[tail - q + 1:tail + 1].T
            return after, q

        if passed is None or not passed.any():
            cols = width if passed is None else width - 1
            new_core = core_after(cols)
            new_ring, new_fill = ring_after(cols)
        else:
            new_core = np.where(passed, core_after(width), core_after(width - 1))
            new_ring, new_fill = ring_after(width)
            if not blk_row[width - 1]:
                fail_ring, fail_fill = ring_after(width - 1)
                new_ring = np.where(passed[:, None], new_ring, fail_ring)
                new_fill = np.where(passed, new_fill, fail_fill)
        core[:] = new_core
        ring[:] = new_ring
        fill[:] = new_fill
        prev[:] += advanced_by * step
        epoch_access[:] += advanced_by
        if lane is not None:
            prev[lane] = lane_done
            epoch_access[lane] += 1
            dummies[lane] += k
            if blk_row[width - 1]:
                core[lane] = lane_done
            else:
                core[lane] = arrival[width - 1, lane]
                ring[lane, -1] = lane_done
                fill[lane] = 1
            if completions_out is not None:
                completions_out[lane, start + width - 1] = lane_done
        if passed is not None and scalar.any():
            step_scalar(every[scalar], start + width - 1, start + width)
        return width

    i = 0
    while i < n:
        # Skip ahead, stepping scalar, to the next stretch the input
        # leaves long enough for a run to pay.
        starts, ends = dooms_for(int(rate.min()))
        k = int(np.searchsorted(ends, i + run_min))
        ahead = n if k == len(ends) else max(int(starts[k]), i)
        if ahead > i:
            step_scalar(every, i, ahead)
            i = ahead
            continue
        # Column-0 gate: a pending dummy or boundary anywhere, or a
        # store that cannot drain the buffer it inherits, means the
        # attempt could not certify a single column.
        arrival = core + gaps[i]
        if (
            (prev + rate >= arrival).all()
            and (prev < epoch_end).all()
            and (blocking[i] or not (
                (ring_cols >= (entries - fill)[:, None]) & (ring > arrival[:, None])
            ).any())
        ):
            # The window ends at the request that dooms this stretch.
            i += try_run(i, min(i + _RUN_MAX, int(ends[k]) + 1, n))
        else:
            step_scalar(every, i, i + 1)
            i += 1

    # Finalize each config: trailing dummies and state publication.
    out = []
    for c, (irow, frow) in enumerate(zip(ints.tolist(), floats.tolist())):
        buffer = deque(frow[len(frow) - irow[6]:] if irow[6] else ())
        end_time = _slot_finish(
            controllers[c], (*irow[:6], *frow[:3], True), buffer, n,
            miss_trace.total_compute_cycles,
        )
        out.append((
            end_time,
            completions_out[c].copy() if completions_out is not None else None,
        ))
    return out


# ----------------------------------------------------------------------
# Shared result assembly
# ----------------------------------------------------------------------

def _finish(miss_trace, scheme, controller, end_time, completions):
    return _build_result(
        miss_trace, scheme, controller, end_time, completions,
        record_requests=completions is not None,
        record_observable_trace=False,
    )


def _build_result(
    miss_trace, scheme, controller, end_time, completions,
    record_requests, record_observable_trace,
) -> SimResult:
    cycles = float(max(end_time, 1.0))
    if scheme.is_oram:
        memory_nj = oram_memory_energy_nj(
            controller.stats.total_accesses, coefficients=PAPER_COEFFICIENTS
        )
    else:
        memory_nj = dram_memory_energy_nj(
            controller.stats.total_accesses, coefficients=PAPER_COEFFICIENTS
        )
    breakdown = build_breakdown(miss_trace.energy, cycles, memory_nj)

    return SimResult(
        scheme_name=scheme.name,
        benchmark=f"{miss_trace.source_name}/{miss_trace.source_input}",
        cycles=cycles,
        n_instructions=miss_trace.n_instructions,
        controller=controller.stats,
        epochs=controller.rate_history,
        energy=miss_trace.energy,
        breakdown=breakdown,
        request_completion_times=(
            completions if completions is not None else np.empty(0)
        ),
        request_instruction_index=(
            miss_trace.instruction_index if record_requests else np.empty(0, dtype=np.int64)
        ),
        blocking_mask=(
            miss_trace.is_blocking if record_requests else np.empty(0, dtype=bool)
        ),
        observable_access_times=(
            np.asarray(controller.trace, dtype=np.float64)
            if record_observable_trace
            else np.empty(0)
        ),
    )
