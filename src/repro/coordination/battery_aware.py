"""In-flight battery-aware adaptation (UAV use cases).

Following the energy-aware planning/scheduling of Seewald et al. (IROS'22),
the manager periodically re-evaluates whether the remaining battery charge is
sufficient to finish the mission with the current software configuration; if
not, it degrades to a lower-power configuration (a cheaper task version,
lower frame rate), and it upgrades again when margin allows.  Mechanical
power dominates on a fixed-wing UAV (≈28 W at cruise vs 2–11 W of computing),
so the adaptation mainly buys flight time by trimming the computing payload.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import SchedulingError
from repro.hw.battery import Battery


@dataclass(frozen=True)
class MissionPhase:
    """A stretch of the mission with constant mechanical power draw."""

    name: str
    duration_s: float
    mechanical_power_w: float

    def __post_init__(self):
        if self.duration_s <= 0:
            raise SchedulingError("mission phases must have positive duration")
        if self.mechanical_power_w < 0:
            raise SchedulingError("mechanical power cannot be negative")


@dataclass(frozen=True)
class SoftwareMode:
    """One software configuration the payload can run in."""

    name: str
    power_w: float
    #: Relative mission quality (e.g. detections per second); higher is better.
    quality: float


@dataclass
class AdaptationStep:
    """One decision point in the simulated mission."""

    time_s: float
    phase: str
    mode: str
    state_of_charge: float
    power_w: float


@dataclass
class MissionOutcome:
    """Result of simulating a mission with battery-aware adaptation."""

    completed: bool
    flight_time_s: float
    quality_integral: float
    steps: List[AdaptationStep] = field(default_factory=list)
    final_state_of_charge: float = 0.0


class BatteryAwareManager:
    """Selects the software mode so the mission fits the remaining charge."""

    def __init__(self, battery: Battery, modes: Sequence[SoftwareMode],
                 reserve_fraction: float = 0.1,
                 decision_interval_s: float = 30.0):
        if not modes:
            raise SchedulingError("at least one software mode is required")
        if not 0 <= reserve_fraction < 1:
            raise SchedulingError("reserve fraction must be in [0, 1)")
        self.battery = battery
        #: Modes ordered by quality, best first.
        self.modes = sorted(modes, key=lambda m: -m.quality)
        self.reserve_fraction = reserve_fraction
        self.decision_interval_s = decision_interval_s

    # -- decision logic -----------------------------------------------------------
    def select_mode(self, remaining_mission: Sequence[MissionPhase]) -> SoftwareMode:
        """The highest-quality mode whose energy need fits the usable charge."""
        available = self.battery.remaining_j * (1.0 - self.reserve_fraction)
        mechanical = sum(p.mechanical_power_w * p.duration_s
                         for p in remaining_mission)
        remaining_time = sum(p.duration_s for p in remaining_mission)
        for mode in self.modes:
            needed = mechanical + mode.power_w * remaining_time
            if needed <= available:
                return mode
        return self.modes[-1]

    # -- simulation ----------------------------------------------------------------
    def simulate_mission(self, mission: Sequence[MissionPhase]) -> MissionOutcome:
        """Fly the mission, re-deciding the mode at every decision interval."""
        steps: List[AdaptationStep] = []
        time_s = 0.0
        quality_integral = 0.0

        remaining: List[Tuple[MissionPhase, float]] = [
            (phase, phase.duration_s) for phase in mission]

        while remaining:
            phase, left = remaining[0]
            remaining_phases = ([MissionPhase(phase.name, left,
                                              phase.mechanical_power_w)]
                                + [p for p, _ in remaining[1:]])
            mode = self.select_mode(remaining_phases)
            step = min(self.decision_interval_s, left)
            power = phase.mechanical_power_w + mode.power_w
            needed = power * step
            drawn = self.battery.discharge(needed)
            flown = drawn / power if power > 0 else step
            time_s += flown
            quality_integral += mode.quality * flown
            steps.append(AdaptationStep(
                time_s=time_s, phase=phase.name, mode=mode.name,
                state_of_charge=self.battery.state_of_charge, power_w=power))
            if drawn < needed - 1e-9:
                # Battery depleted mid-phase: the mission ends here.
                return MissionOutcome(
                    completed=False, flight_time_s=time_s,
                    quality_integral=quality_integral, steps=steps,
                    final_state_of_charge=self.battery.state_of_charge)
            if step >= left:
                remaining.pop(0)
            else:
                remaining[0] = (phase, left - step)

        return MissionOutcome(
            completed=True, flight_time_s=time_s,
            quality_integral=quality_integral, steps=steps,
            final_state_of_charge=self.battery.state_of_charge)

    def endurance_s(self, mechanical_power_w: float,
                    mode: Optional[SoftwareMode] = None) -> float:
        """Flight time at constant power with a fixed software mode."""
        mode = mode or self.modes[0]
        return self.battery.endurance_s(mechanical_power_w + mode.power_w)
