package simnet

import (
	"fmt"
	"time"
)

// This file grows the four fixed Table 2 operating points into a named
// scenario library. The paper asks "would this hold at scale, on other
// networks?"; the library answers by parameterizing the same three knobs
// Mahimahi emulates — rate, propagation delay, and queue depth, plus random
// loss — into profiles well outside the original grid. Scenario networks
// feed the population-scale experiments (internal/population); the paper's
// own artifacts keep using Networks() untouched.

// Scenario is one named profile of the library: a NetworkConfig plus the
// story of the access link it models.
type Scenario struct {
	Cfg         NetworkConfig
	Description string
}

// The library profiles. Each is derived from public access-network
// measurements in the same spirit as Table 2's German median DSL/LTE rows.
var scenarioLibrary = []Scenario{
	{
		Cfg: NetworkConfig{
			Name:        "fast-fiber",
			UplinkBps:   40_000_000,
			DownlinkBps: 150_000_000,
			MinRTT:      8 * time.Millisecond,
			LossRate:    0,
			QueueDelay:  10 * time.Millisecond,
		},
		Description: "FTTH access: the paper's 'if networks get faster' extrapolation",
	},
	{
		Cfg: NetworkConfig{
			Name:        "congested-wifi",
			UplinkBps:   3_000_000,
			DownlinkBps: 12_000_000,
			MinRTT:      40 * time.Millisecond,
			LossRate:    0.012,
			QueueDelay:  300 * time.Millisecond,
		},
		Description: "shared apartment WiFi: moderate rate, light loss, bufferbloat",
	},
	{
		Cfg: NetworkConfig{
			Name:        "lossy-satellite",
			UplinkBps:   5_000_000,
			DownlinkBps: 20_000_000,
			MinRTT:      600 * time.Millisecond,
			LossRate:    0.02,
			QueueDelay:  200 * time.Millisecond,
		},
		Description: "GEO broadband: more rate than MSS but the same punishing RTT",
	},
	{
		Cfg: NetworkConfig{
			Name:        "throttled-3g",
			UplinkBps:   384_000,
			DownlinkBps: 780_000,
			MinRTT:      180 * time.Millisecond,
			LossRate:    0.005,
			QueueDelay:  250 * time.Millisecond,
		},
		Description: "post-cap mobile throttling: a DA2GC-class rate on a terrestrial RTT",
	},
}

// Scenarios lists the library profiles (beyond Table 2) in canonical order.
func Scenarios() []Scenario {
	return append([]Scenario(nil), scenarioLibrary...)
}

// ScenarioNetworks returns the library profiles' network configurations in
// canonical order.
func ScenarioNetworks() []NetworkConfig {
	out := make([]NetworkConfig, len(scenarioLibrary))
	for i, s := range scenarioLibrary {
		out[i] = s.Cfg
	}
	return out
}

// AllNetworks returns the Table 2 networks followed by the scenario library:
// the full space a population study can draw from.
func AllNetworks() []NetworkConfig {
	return append(Networks(), ScenarioNetworks()...)
}

// ScenarioByName resolves a name against the whole space (Table 2 rows
// first, then the library).
func ScenarioByName(name string) (NetworkConfig, error) {
	for _, n := range AllNetworks() {
		if n.Name == name {
			return n, nil
		}
	}
	return NetworkConfig{}, fmt.Errorf("simnet: unknown scenario %q", name)
}

// Scaled derives a "same shape, different speed" variant: bandwidth
// multiplied and RTT divided by factor — the joint axis along which the
// paper's four operating points already differ, and the knob the
// noticeability-crossover sweep turns.
func (c NetworkConfig) Scaled(factor float64) NetworkConfig {
	if factor <= 0 {
		panic(fmt.Sprintf("simnet: invalid scale factor %g", factor))
	}
	out := c
	out.UplinkBps = int64(float64(c.UplinkBps) * factor)
	out.DownlinkBps = int64(float64(c.DownlinkBps) * factor)
	out.MinRTT = time.Duration(float64(c.MinRTT) / factor)
	out.Name = fmt.Sprintf("%s@x%g", c.Name, factor)
	return out
}
