"""Alert Back-Off (ABO) protocol state machine.

PRAC's ABO protocol lets the DRAM ask the memory controller for mitigation
time (paper Section II-D, Table I):

1. The DRAM asserts ``Alert_n`` when a tracked activation count reaches the
   Back-Off threshold N_BO.
2. The Alert is **non-blocking**: the controller may issue up to
   ``ABO_ACT`` further activations (bounded by a 180 ns window) before it
   must respond.  This window is the root cause of the Panopticon attacks.
3. The controller then issues ``N_mit`` RFM commands; the DRAM mitigates.
4. The next Alert may only be asserted after ``ABO_Delay`` further
   activations have been serviced.

This class tracks the protocol state at *activation granularity*, in
activation slots rather than nanoseconds, and only the wave-attack
security model (:mod:`repro.security.wave_sim`) runs it.  The simulation
engines do not: both run :func:`repro.controller.memctrl.raise_alert`,
whose window is ``prac.abo_window_ns`` nanoseconds long, whose RFM hooks
fire at the Alert itself, and whose ABO_Delay counts the rank's ACTs
from the Alert (here it counts activations after the RFMs).
"""

from __future__ import annotations

from enum import Enum

from repro.errors import ProtocolError
from repro.params import PRACParams


class AboState(Enum):
    """Protocol phases of one Alert cycle."""

    IDLE = "idle"
    #: Alert asserted; controller may still issue up to ABO_ACT activations.
    ALERTED = "alerted"
    #: RFMs serviced; waiting for ABO_Delay activations before re-arming.
    DELAY = "delay"


class AboProtocol:
    """One bank-group's (in practice: one rank's) ABO protocol instance."""

    def __init__(self, params: PRACParams) -> None:
        self._params = params
        self._state = AboState.IDLE
        self._acts_in_window = 0
        self._delay_remaining = 0
        # Lifetime statistics.
        self.alerts_raised = 0
        self.rfms_serviced = 0
        self.window_acts_total = 0

    @property
    def state(self) -> AboState:
        return self._state

    @property
    def params(self) -> PRACParams:
        return self._params

    @property
    def acts_in_window(self) -> int:
        """Activations issued since the current Alert was asserted."""
        return self._acts_in_window

    def can_raise_alert(self) -> bool:
        """True when a new Alert may be asserted (idle, delay elapsed)."""
        return self._state is AboState.IDLE

    def can_issue_activation(self) -> bool:
        """True when the controller may legally issue one more activation.

        In the ALERTED state the controller has ``ABO_ACT`` activations of
        headroom; afterwards it must service the Alert with RFMs first.
        """
        if self._state is AboState.ALERTED:
            return self._acts_in_window < self._params.abo_act
        return True

    def raise_alert(self) -> None:
        """DRAM asserts Alert_n."""
        if self._state is not AboState.IDLE:
            raise ProtocolError(
                f"alert asserted while protocol in state {self._state.value}"
            )
        self._state = AboState.ALERTED
        self._acts_in_window = 0
        self.alerts_raised += 1

    def on_activation(self) -> None:
        """Record one serviced activation; advances window/delay bookkeeping."""
        if self._state is AboState.ALERTED:
            if self._acts_in_window >= self._params.abo_act:
                raise ProtocolError(
                    "controller issued more than ABO_ACT activations "
                    "during an Alert window"
                )
            self._acts_in_window += 1
            self.window_acts_total += 1
        elif self._state is AboState.DELAY:
            self._delay_remaining -= 1
            if self._delay_remaining <= 0:
                self._state = AboState.IDLE

    def service_rfms(self) -> int:
        """Controller issues the N_mit RFMs; protocol enters the delay phase.

        Returns the number of RFMs to issue (``N_mit``).
        """
        if self._state is not AboState.ALERTED:
            raise ProtocolError(
                f"RFMs serviced while protocol in state {self._state.value}"
            )
        n_mit = self._params.n_mit
        self.rfms_serviced += n_mit
        assert self._params.abo_delay is not None
        if self._params.abo_delay > 0:
            self._state = AboState.DELAY
            self._delay_remaining = self._params.abo_delay
        else:
            self._state = AboState.IDLE
        return n_mit

    def reset(self) -> None:
        """Return to IDLE discarding any in-flight Alert (tests only)."""
        self._state = AboState.IDLE
        self._acts_in_window = 0
        self._delay_remaining = 0
