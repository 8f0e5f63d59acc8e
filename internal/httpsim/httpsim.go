// Package httpsim is the application layer of the testbed: HTTP/2-style
// request/response multiplexing over the TCP model and the equivalent
// object-per-stream mapping over the QUIC model (what HTTP/3 standardized
// from gQUIC's HTTP layer). It provides per-host connections, Chromium-like
// resource priorities, a frame-interleaving response scheduler with
// backpressure, and a small server processing model — the NGINX/gQUIC
// server role of the paper's Mahimahi testbed.
package httpsim

import (
	"fmt"
	"time"

	"repro/internal/simnet"
	"repro/internal/transport"
)

const (
	// requestBytes approximates a GET request with headers.
	requestBytes = 450
	// responseHeaderBytes is added to every response body.
	responseHeaderBytes = 250
	// frameBytes is the response interleaving granularity (HTTP/2 default
	// frame ceiling).
	frameBytes = 16 << 10
	// framesPerRefill bounds how much one scheduler pass hands the
	// transport before waiting for the next send-space signal.
	framesPerRefill = 4
	// serverThink is the per-request processing delay of the replay server.
	serverThink = 2 * time.Millisecond
)

// Fetch is one in-flight object request.
type Fetch struct {
	StreamID int
	Host     int
	Size     int64 // response body bytes
	Priority int   // lower is more urgent

	// OnProgress receives cumulative delivered body bytes.
	OnProgress func(delivered int64)
	// OnComplete fires once when the full body arrived.
	OnComplete func()

	headerRemaining int64
	done            bool
}

// response is the server-side transmission state of one Fetch.
type response struct {
	streamID  int
	remaining int64
	priority  int
}

// hostConn owns the single connection to one host (H2 and QUIC both use one
// multiplexed connection per origin).
type hostConn struct {
	client *transport.Conn
	server *transport.Conn

	established bool
	nextStream  int
	fetches     map[int]*Fetch
	waiting     []*Fetch // discovered before the handshake finished

	// Active responses, fed frame-by-frame: strict priority buckets with
	// round-robin inside each bucket.
	active  []*response
	rrIndex int
}

// Client is the browser-side HTTP engine for one page load.
type Client struct {
	sim   *simnet.Simulator
	net   *transport.Network
	stack transport.Stack
	hosts map[int]*hostConn

	// Stats aggregated across all host connections.
	stats struct {
		requests uint64
	}
}

// NewClient builds an HTTP client whose host connections run stack over net.
func NewClient(sim *simnet.Simulator, net *transport.Network, stack transport.Stack) *Client {
	return &Client{sim: sim, net: net, stack: stack, hosts: make(map[int]*hostConn)}
}

// Requests returns the number of issued requests.
func (c *Client) Requests() uint64 { return c.stats.requests }

// Retransmissions sums data retransmissions over all server halves — the
// quantity the paper reports when explaining the DA2GC inversion.
func (c *Client) Retransmissions() uint64 {
	var n uint64
	for _, hc := range c.hosts {
		n += hc.server.Stats.Retransmissions + hc.client.Stats.Retransmissions
	}
	return n
}

// RTOs sums retransmission timeouts over all connections.
func (c *Client) RTOs() uint64 {
	var n uint64
	for _, hc := range c.hosts {
		n += hc.server.Stats.RTOs + hc.client.Stats.RTOs
	}
	return n
}

// Conns returns the number of host connections opened.
func (c *Client) Conns() int { return len(c.hosts) }

// Fetch requests size response-body bytes from the given host at the given
// priority. Callbacks fire as body bytes are delivered in order.
func (c *Client) Fetch(host int, size int64, priority int, onProgress func(int64), onComplete func()) *Fetch {
	if size <= 0 {
		panic(fmt.Sprintf("httpsim: fetch of %d bytes", size))
	}
	hc := c.hostConn(host)
	f := &Fetch{
		Host:            host,
		Size:            size,
		Priority:        priority,
		OnProgress:      onProgress,
		OnComplete:      onComplete,
		headerRemaining: responseHeaderBytes,
	}
	if hc.established {
		c.issue(hc, f)
	} else {
		hc.waiting = append(hc.waiting, f)
	}
	return f
}

func (c *Client) issue(hc *hostConn, f *Fetch) {
	f.StreamID = hc.nextStream
	hc.nextStream++
	hc.fetches[f.StreamID] = f
	c.stats.requests++
	hc.client.WriteStream(f.StreamID, requestBytes, true)
}

// hostConn returns (or dials) the connection for a host index.
func (c *Client) hostConn(host int) *hostConn {
	if hc, ok := c.hosts[host]; ok {
		return hc
	}
	hc := &hostConn{fetches: make(map[int]*Fetch), nextStream: 1}
	hc.client, hc.server = c.stack.NewConnPair(c.net)
	c.hosts[host] = hc

	hc.client.OnEstablished = func() {
		hc.established = true
		pending := hc.waiting
		hc.waiting = nil
		for _, f := range pending {
			c.issue(hc, f)
		}
	}
	hc.client.OnStreamData = func(streamID int, total int64, fin bool) {
		f := hc.fetches[streamID]
		if f == nil || f.done {
			return
		}
		body := total - responseHeaderBytes
		if body < 0 {
			body = 0
		}
		if f.OnProgress != nil && body > 0 {
			f.OnProgress(body)
		}
		if body >= f.Size {
			f.done = true
			delete(hc.fetches, streamID)
			if f.OnComplete != nil {
				f.OnComplete()
			}
		}
	}

	// Server side: receive requests, think, then enqueue the response for
	// frame-interleaved transmission.
	hc.server.OnStreamData = func(streamID int, total int64, fin bool) {
		if !fin {
			return
		}
		c.sim.Schedule(serverThink, func() {
			f := hc.fetches[streamID]
			prio := 3
			var size int64 = 1024
			if f != nil {
				prio = f.Priority
				size = f.Size
			}
			hc.active = append(hc.active, &response{
				streamID:  streamID,
				remaining: size + responseHeaderBytes,
				priority:  prio,
			})
			hc.feed()
		})
	}
	hc.server.OnSendSpace = func() { hc.feed() }

	hc.client.Start()
	hc.server.Start()
	return hc
}

// feed hands the transport up to framesPerRefill response frames, strict
// priority first, round-robin within the winning priority bucket.
func (hc *hostConn) feed() {
	for n := 0; n < framesPerRefill; n++ {
		r := hc.pickResponse()
		if r == nil {
			return
		}
		frame := r.remaining
		if frame > frameBytes {
			frame = frameBytes
		}
		r.remaining -= frame
		hc.server.WriteStream(r.streamID, frame, r.remaining == 0)
		if r.remaining == 0 {
			hc.removeResponse(r)
		}
	}
}

func (hc *hostConn) pickResponse() *response {
	if len(hc.active) == 0 {
		return nil
	}
	best := hc.active[0].priority
	for _, r := range hc.active {
		if r.priority < best {
			best = r.priority
		}
	}
	// Round-robin among responses at the best priority.
	for i := 0; i < len(hc.active); i++ {
		r := hc.active[(hc.rrIndex+i)%len(hc.active)]
		if r.priority == best {
			hc.rrIndex = (hc.rrIndex + i + 1) % len(hc.active)
			return r
		}
	}
	return nil
}

func (hc *hostConn) removeResponse(r *response) {
	for i, x := range hc.active {
		if x == r {
			hc.active = append(hc.active[:i], hc.active[i+1:]...)
			if hc.rrIndex > i {
				hc.rrIndex--
			}
			if len(hc.active) > 0 {
				hc.rrIndex %= len(hc.active)
			} else {
				hc.rrIndex = 0
			}
			return
		}
	}
}
