package simnet

import (
	"fmt"
	"time"
)

// NetworkConfig reproduces one row of the paper's Table 2: the emulated
// access networks the videos were recorded under.
type NetworkConfig struct {
	Name        string
	UplinkBps   int64         // client -> server rate
	DownlinkBps int64         // server -> client rate
	MinRTT      time.Duration // base two-way propagation delay
	LossRate    float64       // independent random loss, each direction
	QueueDelay  time.Duration // droptail queue depth expressed in time
}

func (c NetworkConfig) String() string {
	return fmt.Sprintf("%s up=%.3fMbps down=%.3fMbps rtt=%s loss=%.1f%% queue=%s",
		c.Name, float64(c.UplinkBps)/1e6, float64(c.DownlinkBps)/1e6,
		c.MinRTT, c.LossRate*100, c.QueueDelay)
}

// BDPBytes returns the bandwidth-delay product of the downlink, the quantity
// the paper sizes the tuned TCP buffers with ("we enlarge the send and
// receive buffers according to the bandwidth-delay product").
func (c NetworkConfig) BDPBytes() int {
	return int(float64(c.DownlinkBps) / 8 * c.MinRTT.Seconds())
}

// Table 2 of the paper, verbatim. DSL and LTE are German median fixed/mobile
// access; DA2GC and MSS are the two "bad" in-flight WiFi networks from Rula
// et al. (air-to-ground cellular and satellite).
var (
	DSL = NetworkConfig{
		Name:        "DSL",
		UplinkBps:   5_000_000,
		DownlinkBps: 25_000_000,
		MinRTT:      24 * time.Millisecond,
		LossRate:    0,
		QueueDelay:  12 * time.Millisecond,
	}
	LTE = NetworkConfig{
		Name:        "LTE",
		UplinkBps:   2_800_000,
		DownlinkBps: 10_500_000,
		MinRTT:      74 * time.Millisecond,
		LossRate:    0,
		QueueDelay:  200 * time.Millisecond,
	}
	DA2GC = NetworkConfig{
		Name:        "DA2GC",
		UplinkBps:   468_000,
		DownlinkBps: 468_000,
		MinRTT:      262 * time.Millisecond,
		LossRate:    0.033,
		QueueDelay:  200 * time.Millisecond,
	}
	MSS = NetworkConfig{
		Name:        "MSS",
		UplinkBps:   1_890_000,
		DownlinkBps: 1_890_000,
		MinRTT:      760 * time.Millisecond,
		LossRate:    0.06,
		QueueDelay:  200 * time.Millisecond,
	}
)

// Networks lists the Table 2 configurations in paper order.
func Networks() []NetworkConfig {
	return []NetworkConfig{DSL, LTE, DA2GC, MSS}
}

// NetworkByName returns the named Table 2 configuration.
func NetworkByName(name string) (NetworkConfig, error) {
	for _, n := range Networks() {
		if n.Name == name {
			return n, nil
		}
	}
	return NetworkConfig{}, fmt.Errorf("simnet: unknown network %q", name)
}

// Path is a duplex client<->server network built from two Links according to
// a NetworkConfig. The propagation delay is split evenly across both
// directions so that an empty path yields exactly MinRTT of round trip.
type Path struct {
	Up   *Link // client -> server
	Down *Link // server -> client
	Cfg  NetworkConfig
}

// Loss-stream labels of a path's two links, so uplink and downlink losses
// are uncorrelated.
const (
	uplinkLabel   = 0x75706c696e6b // "uplink"
	downlinkLabel = 0x646f776e     // "down"
)

// linkConfigs splits cfg into the path's uplink and downlink.
func linkConfigs(cfg NetworkConfig) (up, down LinkConfig) {
	up = LinkConfig{
		BandwidthBps:  cfg.UplinkBps,
		PropDelay:     cfg.MinRTT / 2,
		QueueCapBytes: QueueCapForDelay(cfg.UplinkBps, cfg.QueueDelay),
		LossRate:      cfg.LossRate,
	}
	down = LinkConfig{
		BandwidthBps:  cfg.DownlinkBps,
		PropDelay:     cfg.MinRTT / 2,
		QueueCapBytes: QueueCapForDelay(cfg.DownlinkBps, cfg.QueueDelay),
		LossRate:      cfg.LossRate,
	}
	return up, down
}

// NewPath wires a duplex path on the simulator. deliverUp is invoked for
// frames arriving at the server; deliverDown for frames arriving at the
// client.
func NewPath(sim *Simulator, cfg NetworkConfig, deliverUp, deliverDown func(Frame)) *Path {
	upCfg, downCfg := linkConfigs(cfg)
	up := NewLink(sim, upCfg, uplinkLabel)
	down := NewLink(sim, downCfg, downlinkLabel)
	up.Deliver = deliverUp
	down.Deliver = deliverDown
	return &Path{Up: up, Down: down, Cfg: cfg}
}

// Reset rebuilds the path for cfg on its simulator, which the caller has
// just Reset: both links end up as NewPath would build them, with their
// loss streams drawn in NewPath's order, and the frames still in flight go
// to each link's Drop. The delivery and drop hooks stay wired.
func (p *Path) Reset(cfg NetworkConfig) {
	upCfg, downCfg := linkConfigs(cfg)
	p.Up.reset(upCfg, uplinkLabel)
	p.Down.reset(downCfg, downlinkLabel)
	p.Cfg = cfg
}
