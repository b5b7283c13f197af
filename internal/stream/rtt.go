package stream

import "time"

// rttEstimator maintains the smoothed round-trip estimate and the
// retransmission timeout per RFC 6298: SRTT/RTTVAR from clean samples
// (Karn's algorithm — the engine never samples retransmitted data),
// RTO = SRTT + 4*RTTVAR clamped to [minRTO, maxRTO].
type rttEstimator struct {
	srtt   time.Duration
	rttvar time.Duration
	valid  bool
}

// Sample folds one clean round-trip measurement into the estimate.
func (e *rttEstimator) Sample(s time.Duration) {
	if s < 0 {
		return
	}
	if !e.valid {
		e.srtt = s
		e.rttvar = s / 2
		e.valid = true
		return
	}
	// RFC 6298 §2.3: RTTVAR <- 3/4 RTTVAR + 1/4 |SRTT-R'|,
	// SRTT <- 7/8 SRTT + 1/8 R'.
	d := e.srtt - s
	if d < 0 {
		d = -d
	}
	e.rttvar = (3*e.rttvar + d) / 4
	e.srtt = (7*e.srtt + s) / 8
}

// RTT returns the smoothed estimate (zero before the first sample).
func (e *rttEstimator) RTT() time.Duration {
	if !e.valid {
		return 0
	}
	return e.srtt
}

// RTO returns the current retransmission timeout.
func (e *rttEstimator) RTO() time.Duration {
	if !e.valid {
		return clamp(initialRTO)
	}
	return clamp(e.srtt + 4*e.rttvar)
}

func clamp(d time.Duration) time.Duration {
	return min(max(d, minRTO), maxRTO)
}
