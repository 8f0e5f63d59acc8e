package transport

import "repro/internal/congestion"

// Stack is one protocol stack under test: the tunables Table 1 varies —
// congestion controller, initial window, pacing, slow start after idle and
// receive buffer — over the delivery semantics of TCP or QUIC. Both halves
// of a connection run the same stack.
type Stack struct {
	// Name labels the stack in outputs ("TCP", "TCP+", "QUIC+BBR", ...).
	Name string
	// CC selects the congestion controller: "cubic" or "bbr".
	CC string
	// IWSegments is the initial congestion window in segments.
	IWSegments int
	// Pacing enables the fq-style pacer.
	Pacing bool
	// SlowStartAfterIdle restores the initial window after idle periods.
	SlowStartAfterIdle bool
	// RecvBuf is each half's receive buffer (flow-control budget) in bytes.
	RecvBuf int64
	// Sem is the TCP or QUIC delivery semantics, handshake script included.
	Sem Semantics
}

// NewConnPair creates both halves of one connection of this stack on the
// network. The server half sends responses, so it carries the full data
// path; the client half mirrors it for the request direction.
func (s Stack) NewConnPair(n *Network) (client, server *Conn) {
	clientCfg := s.config()
	serverCfg := s.config()
	return n.NewConnPair(clientCfg, serverCfg)
}

// config builds one half's configuration with its own controller.
func (s Stack) config() Config {
	cc := congestion.New(s.CC, congestion.Config{
		InitialWindowSegments: s.IWSegments,
		MSS:                   congestion.DefaultMSS,
		SlowStartAfterIdle:    s.SlowStartAfterIdle,
	})
	if cub, ok := cc.(*congestion.Cubic); ok && s.Pacing {
		cub.EnablePacing()
	}
	return Config{MSS: congestion.DefaultMSS, CC: cc, Pacing: s.Pacing, RecvBuf: s.RecvBuf, Sem: s.Sem}
}
