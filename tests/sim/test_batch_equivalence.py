"""Property-based equivalence: config-batched replay vs per-scheme replay.

For any miss trace and any mix of schemes, ``run_timing_batch`` must
return, per config, a SimResult element-wise identical to the per-scheme
``run_timing`` oracle: same cycles, same controller counters (including
the float waste accumulator), same epoch records (rates, start cycles,
raw learner estimates — the leakage-bit accounting derives from these),
and byte-identical per-request completion arrays.  Degenerate batches of
size one and batches mixing static/dynamic/baseline schemes are part of
the property space, as are small epoch schedules (many transitions) and
a 1-entry write buffer (store stretches pop immediately).

The batched kernel switches between two grains — certified lockstep
runs and per-config scalar stepping — so the long-trace property builds
traces from dense bursts (where lockstep certifies), idle stretches
(dummy windows that only the scalar loop serves) and store stretches
(write-buffer state carried across the switch).
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.api.figures import FIG5_RATES, FIG6_SCHEMES
from repro.core.epochs import EpochSchedule
from repro.core.scheme import (
    BaseDramScheme,
    BaseOramScheme,
    DynamicScheme,
    StaticScheme,
    dynamic,
    scheme_from_spec,
)
from repro.cpu.trace import EnergyEvents, MissTrace
from repro.sim.simulator import SecureProcessorSim, SimConfig
from repro.sim.timing import _replay_slotted_batch, run_timing, run_timing_batch

#: A schedule with tiny epochs so short runs cross many transitions.
FAST_EPOCHS = EpochSchedule(first_epoch_cycles=1 << 10, growth=2, tmax_cycles=1 << 40)

#: The scheme pool batches draw from: baselines, statics, and dynamics
#: with both learners at several (|R|, growth) lattice points.
SCHEME_POOL = [
    BaseDramScheme(),
    BaseOramScheme(oram_latency=37),
    StaticScheme(rate=19, oram_latency=37),
    StaticScheme(rate=300, oram_latency=1488),
    StaticScheme(rate=1300, oram_latency=1488),
    DynamicScheme(schedule=FAST_EPOCHS, initial_rate=25, oram_latency=37),
    DynamicScheme(
        schedule=FAST_EPOCHS, initial_rate=25, oram_latency=37,
        learner_kind="threshold",
    ),
    dynamic(4, 4),
    dynamic(2, 2, learner_kind="threshold"),
    dynamic(8, 9),
    DynamicScheme(
        schedule=FAST_EPOCHS, initial_rate=40, oram_latency=11,
        log_discretize=False,
    ),
    DynamicScheme(
        schedule=FAST_EPOCHS, initial_rate=40, oram_latency=11,
        exact_divide=True,
    ),
]


#: Figure 5's static-rate ladder (64 ... 131072 cycles), one scheme per rate.
FIG5_LADDER = [scheme_from_spec(f"static:{rate}") for rate in FIG5_RATES]


def make_miss_trace(gaps, blocking, tail=123.5):
    n = len(gaps)
    return MissTrace(
        gap_cycles=np.asarray(gaps, dtype=np.float64),
        is_blocking=np.asarray(blocking[:n], dtype=bool),
        instruction_index=np.arange(1, n + 1, dtype=np.int64) * 7,
        total_compute_cycles=tail,
        n_instructions=max(1, n * 10),
        energy=EnergyEvents(n_instructions=max(1, n * 10), n_memory_refs=n),
        source_name="prop",
        source_input="x",
    )


def assert_batch_identical(
    miss_trace, schemes, entries=8, record_requests=True, oracle_mode="fast"
):
    """run_timing_batch == [run_timing(...)] element-wise, per config.

    ``oracle_mode="reference"`` checks against the scalar reference loop,
    which shares no code with the batched kernel's scalar grain (the
    fast per-scheme replay runs the same slot loop that grain does).
    """
    batch = run_timing_batch(
        miss_trace, schemes, write_buffer_entries=entries,
        record_requests=record_requests,
    )
    assert len(batch) == len(schemes)
    for scheme, got in zip(schemes, batch):
        want = run_timing(
            miss_trace, scheme, write_buffer_entries=entries,
            record_requests=record_requests, mode=oracle_mode,
        )
        assert got.scheme_name == want.scheme_name
        assert got.cycles == want.cycles
        assert got.n_instructions == want.n_instructions
        assert got.controller.real_accesses == want.controller.real_accesses
        assert got.controller.dummy_accesses == want.controller.dummy_accesses
        assert got.controller.total_waste == want.controller.total_waste
        assert got.epochs == want.epochs
        assert (
            np.asarray(got.request_completion_times, dtype=np.float64).tobytes()
            == np.asarray(want.request_completion_times, dtype=np.float64).tobytes()
        )
        assert got.power_watts == want.power_watts
    return batch


class TestPropertyEquivalence:
    @given(
        gaps=st.lists(
            st.one_of(
                st.floats(0.0, 5000.0, allow_nan=False),
                st.just(0.0),
                st.integers(0, 100_000).map(float),
            ),
            min_size=0, max_size=100,
        ),
        blocking=st.lists(st.booleans(), min_size=100, max_size=100),
        scheme_indices=st.lists(
            st.integers(0, len(SCHEME_POOL) - 1),
            min_size=1, max_size=6,
        ),
        entries=st.sampled_from([1, 2, 8]),
        record=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_any_trace_any_batch(
        self, gaps, blocking, scheme_indices, entries, record
    ):
        miss_trace = make_miss_trace(gaps, blocking)
        schemes = [SCHEME_POOL[i] for i in scheme_indices]
        assert_batch_identical(
            miss_trace, schemes, entries=entries, record_requests=record
        )


#: One trace segment: (kind, length, seed).  ``burst`` is dense traffic
#: (gaps 0-50 cycles, mixed blocking), ``idle`` a run of long gaps
#: (10^4-10^6 cycles: dummy windows, epoch boundaries), ``stores`` a
#: store stretch (mostly non-blocking, short gaps).
SEGMENT = st.tuples(
    st.sampled_from(["burst", "idle", "stores"]),
    st.integers(1, 600),
    st.integers(0, 2**32 - 1),
)


def segmented_trace(segments, n_requests):
    """Cycle through generated segments until ``n_requests`` requests."""
    gaps: list[np.ndarray] = []
    blocking: list[np.ndarray] = []
    total = 0
    k = 0
    while total < n_requests:
        kind, length, seed = segments[k % len(segments)]
        k += 1
        rng = np.random.default_rng(seed + k)
        if kind == "burst":
            gap = rng.integers(0, 51, length).astype(np.float64)
            gap[rng.random(length) < 0.3] += 0.5
            block = rng.random(length) < 0.7
        elif kind == "idle":
            length = min(length, 20)
            gap = np.floor(10.0 ** rng.uniform(4, 6, length))
            block = rng.random(length) < 0.8
        else:
            gap = rng.integers(0, 30, length).astype(np.float64)
            block = rng.random(length) < 0.1
        gaps.append(gap)
        blocking.append(block)
        total += length
    return make_miss_trace(
        np.concatenate(gaps)[:n_requests].tolist(),
        np.concatenate(blocking)[:n_requests].tolist(),
        tail=5_000.0,
    )


class TestGrainSwitches:
    @given(
        segments=st.lists(SEGMENT, min_size=1, max_size=12),
        n_requests=st.integers(200, 3000),
        rungs=st.lists(
            st.integers(0, len(FIG5_LADDER) - 1), min_size=0, max_size=6,
        ),
        pool_indices=st.lists(
            st.integers(0, len(SCHEME_POOL) - 1), min_size=0, max_size=3,
        ),
        entries=st.sampled_from([1, 8]),
        record=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_long_segmented_trace_any_batch(
        self, segments, n_requests, rungs, pool_indices, entries, record
    ):
        """Ladder rungs and the pool's paper-scale schemes stay slot-bound
        through a dense burst, so lockstep certifies there; idle and
        store stretches, the pool's fast-rate schemes and its tiny
        epochs force the scalar grain in between."""
        miss_trace = segmented_trace(segments, n_requests)
        assert miss_trace.n_requests == n_requests
        schemes = [FIG5_LADDER[i] for i in rungs]
        schemes += [SCHEME_POOL[i] for i in pool_indices]
        if not schemes:
            schemes = [FIG5_LADDER[0]]
        assert_batch_identical(
            miss_trace, schemes, entries=entries, record_requests=record,
            oracle_mode="reference",
        )

    def test_dense_bursts_between_idle_and_store_stretches(self):
        """Lockstep runs over the bursts resume the state the scalar
        grain left: waste, write buffer, epoch boundaries."""
        segments = [
            ("idle", 10, 1), ("burst", 600, 2), ("stores", 40, 3),
            ("burst", 600, 4), ("idle", 5, 5), ("burst", 600, 6),
        ]
        miss_trace = segmented_trace(segments, 1855)
        schemes = FIG5_LADDER[:6] + [dynamic(4, 4), dynamic(8, 9)]
        for entries in (1, 8):
            assert_batch_identical(
                miss_trace, schemes, entries=entries, oracle_mode="reference"
            )

    @pytest.mark.parametrize("entries", [1, 8])
    def test_dummy_window_at_truncation_column(self, entries):
        """A lockstep run ends at an idle request, where every config has
        dummies pending.  The dynamic config's dummy window crosses its
        epoch boundary at the first idle request (a learner decision:
        scalar grain); the statics take the column lane-wise.  At the
        idle store the buffer they leave must hold its completion: the
        next store (1-entry buffer) stalls behind it, which moves the
        arrival, hence the waste, of the request after."""
        burst = [10.0] * 200  # one lockstep window, up to the idle request
        gaps = (
            burst + [1_000_000.0, 5.0, 2_000.0] + burst[1:]
            + [1_000_000.0] + burst
        )
        blocking = (
            [True] * 200 + [False, False] + [True] * 200 + [True]
            + [True] * 200
        )
        miss_trace = make_miss_trace(gaps, blocking)
        schemes = [
            StaticScheme(rate=300),
            StaticScheme(rate=1300),
            DynamicScheme(
                schedule=EpochSchedule(
                    first_epoch_cycles=1 << 20, growth=2, tmax_cycles=1 << 40
                ),
                initial_rate=300,
            ),
        ]
        results = assert_batch_identical(
            miss_trace, schemes, entries=entries, oracle_mode="reference"
        )
        assert len(results[2].epochs) > 1

    @pytest.mark.parametrize(
        "workload, schemes",
        [
            ("mcf", ["base_dram"] + [f"static:{rate}" for rate in FIG5_RATES]),
            ("gobmk", list(FIG6_SCHEMES)),
        ],
        ids=["figure5-mcf", "figure6-gobmk"],
    )
    def test_paper_figure_batches(self, workload, schemes):
        """The real Figure 5/6 batches at 200k instructions, per config."""
        sim = SecureProcessorSim(SimConfig(n_instructions=200_000, seed=0))
        miss_trace = sim.miss_trace(workload)
        assert miss_trace.n_requests > 200
        assert_batch_identical(
            miss_trace, [scheme_from_spec(spec) for spec in schemes],
            oracle_mode="reference",
        )


class TestBatchShapes:
    def test_singleton_batch(self):
        """A degenerate batch of one slot scheme matches its oracle."""
        miss_trace = make_miss_trace([100.0, 3.5, 0.0, 9000.0], [True] * 4)
        assert_batch_identical(miss_trace, [StaticScheme(rate=300)])

    def test_singleton_batch_through_batched_kernel(self):
        """The batched kernel itself is exact at n_configs == 1."""
        miss_trace = make_miss_trace(
            [50.0] * 30 + [100_000.0] + [10.0] * 30,
            ([True, True, False] * 21)[:61],
        )
        scheme = DynamicScheme(schedule=FAST_EPOCHS, initial_rate=25, oram_latency=37)
        controller = scheme.build_controller()
        end_time, completions = _replay_slotted_batch(
            miss_trace, [controller], entries=8, record_requests=True
        )[0]
        want = run_timing(miss_trace, scheme)
        assert end_time == pytest.approx(want.cycles, abs=0)
        assert completions.tobytes() == want.request_completion_times.tobytes()
        assert controller.stats.dummy_accesses == want.controller.dummy_accesses
        assert controller.stats.total_waste == want.controller.total_waste
        assert controller.rate_history == want.epochs

    def test_mixed_static_dynamic_and_baselines(self):
        miss_trace = make_miss_trace(
            [120.0, 0.25, 44.0, 3000.5, 7.0] * 12, [True, False] * 30
        )
        schemes = [
            scheme_from_spec(spec)
            for spec in (
                "base_dram", "base_oram", "static:300",
                "dynamic:4x4", "dynamic:2x2:threshold", "static:1300",
            )
        ]
        assert_batch_identical(miss_trace, schemes)

    def test_duplicate_schemes_get_independent_controllers(self):
        miss_trace = make_miss_trace([75.0] * 40, [True] * 40)
        results = assert_batch_identical(
            miss_trace, [StaticScheme(rate=100), StaticScheme(rate=100)]
        )
        assert results[0].controller is not results[1].controller

    def test_empty_trace_batch(self):
        miss_trace = make_miss_trace([], [], tail=50_000.0)
        results = assert_batch_identical(
            miss_trace,
            [StaticScheme(rate=64, oram_latency=16), dynamic(4, 4)],
        )
        assert results[0].controller.dummy_accesses > 100

    def test_empty_scheme_list(self):
        miss_trace = make_miss_trace([1.0], [True])
        assert run_timing_batch(miss_trace, []) == []

    def test_store_stretches_exercise_buffer_paths(self):
        """Long store stretches pop the 1-entry buffer immediately."""
        miss_trace = make_miss_trace(
            [5.0] * 60, ([True] + [False] * 5) * 10
        )
        assert_batch_identical(
            miss_trace,
            [StaticScheme(rate=11, oram_latency=7), dynamic(2, 2)],
            entries=1,
        )

    def test_leakage_accounting_matches_per_scheme(self):
        """Expended leakage bits derive from identical epoch counts."""
        miss_trace = make_miss_trace([200.0] * 80, [True] * 80)
        schemes = [
            DynamicScheme(schedule=FAST_EPOCHS, initial_rate=25, oram_latency=37),
            DynamicScheme(
                schedule=FAST_EPOCHS, initial_rate=25, oram_latency=37,
                learner_kind="threshold",
            ),
        ]
        batch = run_timing_batch(miss_trace, schemes)
        for scheme, got in zip(schemes, batch):
            want = run_timing(miss_trace, scheme)
            assert len(got.epochs) == len(want.epochs)
            assert scheme.expended_leakage_bits(len(got.epochs)) == (
                scheme.expended_leakage_bits(len(want.epochs))
            )

    def test_reference_mode_delegates_to_oracle(self):
        miss_trace = make_miss_trace([10.0, 2000.0, 5.0], [True, False, True])
        schemes = [StaticScheme(rate=100, oram_latency=50), dynamic(4, 4)]
        batch = run_timing_batch(miss_trace, schemes, mode="reference")
        for scheme, got in zip(schemes, batch):
            want = run_timing(miss_trace, scheme, mode="reference")
            assert got.cycles == want.cycles
            assert got.controller.dummy_accesses == want.controller.dummy_accesses

    def test_invalid_mode_rejected(self):
        miss_trace = make_miss_trace([1.0], [True])
        with pytest.raises(ValueError, match="mode"):
            run_timing_batch(miss_trace, [StaticScheme(rate=10)], mode="warp")
