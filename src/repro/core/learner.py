"""Rate learners: predict the next epoch's ORAM rate (Section 7).

The baseline predictor is Equation 1's averaging statistic

    NewIntRaw = (EpochCycles - Waste - ORAMCycles) / AccessCount

i.e. the average idle gap the program *offered* between ORAM requests,
with rate-attributable waste removed.  The hardware implementation
(Algorithm 1) avoids a divider: AccessCount is rounded up to the next
power of two (strictly — even when already a power of two) and the
division becomes a shift loop.  The rounding biases the rate underset by
at most 2x, which compensates for bursty workloads (Section 7.3).

``ThresholdLearner`` reconstructs the "more sophisticated predictor" the
paper describes and then omits for space (Section 7.3): it estimates the
performance overhead each candidate rate would have produced this epoch
and picks the slowest rate whose overhead stays within a sharpness
threshold of the best — trading power against performance explicitly.

Crucially for security, *which* learner runs and *which* rate it picks
never affects the leakage bound: leakage depends only on |R| and |E|
(Section 2.2.2).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.counters import PerfCounters
from repro.core.rates import RateSet
from repro.util.bitops import strict_next_power_of_two


@dataclass(frozen=True)
class RateDecision:
    """A learner's output at one epoch transition."""

    raw_estimate: float
    chosen_rate: int


class AveragingLearner:
    """Equation 1 + Algorithm 1: the paper's deployed predictor.

    Args:
        rates: Candidate rate set R.
        exact_divide: Use exact division instead of the shift-based
            hardware divider (ablation knob; the paper ships the shifter).
        log_discretize: Discretize in log space instead of the paper's
            linear nearest-candidate rule (ablation knob).
    """

    def __init__(
        self,
        rates: RateSet,
        exact_divide: bool = False,
        log_discretize: bool = False,
    ) -> None:
        self.rates = rates
        self.exact_divide = exact_divide
        self.log_discretize = log_discretize

    def decide(self, counters: PerfCounters, epoch_cycles: float) -> RateDecision:
        """Pick the next epoch's rate from this epoch's counters.

        With zero real accesses the offered load is unobservable; the
        learner chooses the slowest candidate (the program clearly is not
        using ORAM), which also minimizes dummy-access energy.
        """
        if epoch_cycles <= 0:
            raise ValueError(f"epoch_cycles must be positive, got {epoch_cycles}")
        if counters.access_count == 0:
            return RateDecision(raw_estimate=float("inf"), chosen_rate=self.rates.slowest)
        numerator = max(0.0, epoch_cycles - counters.waste - counters.oram_cycles)
        if self.exact_divide:
            raw = numerator / counters.access_count
        else:
            raw = self._shift_divide(int(numerator), counters.access_count)
        if self.log_discretize:
            chosen = self.rates.nearest_log(raw)
        else:
            chosen = self.rates.nearest(raw)
        return RateDecision(raw_estimate=raw, chosen_rate=chosen)

    @staticmethod
    def _shift_divide(numerator: int, access_count: int) -> float:
        """Algorithm 1: divide by AccessCount rounded up to a power of two.

        Implemented exactly as the hardware would: right-shift the
        numerator once per halving of the rounded count.  Worst case takes
        bit-width-of-AccessCount iterations, which the controller hides by
        starting before the epoch boundary (Section 7.2).  The strict
        rounding (even exact powers of two round up) biases the rate
        underset by at most 2x:

        >>> AveragingLearner._shift_divide(4096, 3)   # /4, not /3
        1024.0
        >>> AveragingLearner._shift_divide(4096, 4)   # /8, not /4 (strict)
        512.0
        """
        if numerator < 0:
            raise ValueError(f"numerator must be >= 0, got {numerator}")
        if access_count <= 0:
            raise ValueError(f"access_count must be positive, got {access_count}")
        rounded = strict_next_power_of_two(access_count)
        result = numerator
        while rounded > 1:
            result >>= 1
            rounded >>= 1
        return float(result)


class ThresholdLearner:
    """Reconstruction of the Section 7.3 'sophisticated' predictor.

    For each candidate rate ``r`` the learner projects the per-access
    stall a program with this epoch's offered load would suffer:
    requests arrive on average every ``gap`` idle cycles, and a slot
    machine at rate ``r`` makes them wait roughly ``(r - gap) / 2``
    when overset plus the residual dummy ride-out when underset.  The
    projected performance overhead of ``r`` is stall time relative to the
    no-protection service time.  The learner then picks the *slowest*
    rate whose projected overhead is within ``sharpness`` of the best
    candidate's — "if the performance loss of a slower rate is small, we
    should choose the slower rate to save power".
    """

    def __init__(
        self,
        rates: RateSet,
        oram_latency_cycles: int,
        sharpness: float = 0.30,
    ) -> None:
        if oram_latency_cycles <= 0:
            raise ValueError(
                f"oram_latency_cycles must be positive, got {oram_latency_cycles}"
            )
        if sharpness < 0:
            raise ValueError(f"sharpness must be >= 0, got {sharpness}")
        self.rates = rates
        self.latency = oram_latency_cycles
        self.sharpness = sharpness

    def decide(self, counters: PerfCounters, epoch_cycles: float) -> RateDecision:
        """Pick the slowest rate within ``sharpness`` of the best overhead."""
        if epoch_cycles <= 0:
            raise ValueError(f"epoch_cycles must be positive, got {epoch_cycles}")
        if counters.access_count == 0:
            return RateDecision(raw_estimate=float("inf"), chosen_rate=self.rates.slowest)
        gap = max(
            0.0, epoch_cycles - counters.waste - counters.oram_cycles
        ) / counters.access_count
        overheads = {rate: self._projected_overhead(gap, rate) for rate in self.rates}
        best = min(overheads.values())
        chosen = self.rates.fastest
        for rate in self.rates:  # ascending: the last qualifying rate wins
            if overheads[rate] <= best + self.sharpness:
                chosen = rate
        return RateDecision(raw_estimate=gap, chosen_rate=chosen)

    def _projected_overhead(self, gap: float, rate: int) -> float:
        """Projected fractional slowdown of running at ``rate``."""
        ideal = gap + self.latency
        if rate >= gap:
            # Overset: expected wait for the next slot.
            stall = (rate - gap) / 2.0 + self.latency * (gap / max(rate, 1.0)) * 0.5
        else:
            # Underset: requests often land during a dummy access.
            dummy_fraction = 1.0 - rate / max(gap, 1.0)
            stall = dummy_fraction * self.latency / 2.0 + rate / 2.0
        return stall / ideal
