package transport

import (
	"repro/internal/simnet"
)

// Network multiplexes many connections over one duplex simnet.Path — the
// shape of the paper's testbed, where all of a website's servers sit behind
// the client's single emulated access link, so connections to different
// hosts share (and compete for) the same bottleneck.
type Network struct {
	Sim  *simnet.Simulator
	Path *simnet.Path

	// clients and servers hold the two halves of each connection, indexed
	// by ConnID.
	clients []*Conn
	servers []*Conn
	// spare holds the conns of the last run, for NewConnPair to reuse.
	spare freeList[Conn]
	// sendUp and sendDown transmit onto the path; conns share them.
	sendUp, sendDown func(simnet.Frame)

	// pool recycles packets and sent records across all connections on
	// this network: a packet is drawn by the sending half and returned here
	// after the receiving half consumed it or the link discarded it.
	pool packetPool
}

// NewNetwork builds the shared path for the given Table 2 network
// configuration.
func NewNetwork(sim *simnet.Simulator, cfg simnet.NetworkConfig) *Network {
	n := &Network{Sim: sim}
	n.Path = simnet.NewPath(sim, cfg, n.deliverUp, n.deliverDown)
	n.Path.Up.Drop = n.recycle
	n.Path.Down.Drop = n.recycle
	n.sendUp = n.Path.Up.Send
	n.sendDown = n.Path.Down.Send
	return n
}

// Reset readies the network for a new run on its simulator, which the
// caller has just Reset with the run's seed. The path is rebuilt for cfg
// exactly as NewNetwork builds it, the packets still riding it and the
// conns' outstanding sent records go back to the pool, and the conns wait
// for NewConnPair to reuse them; so the run that follows matches one on a
// new network. The pools and the spare conns keep what the last run needed
// at its peak and let the rest go.
func (n *Network) Reset(cfg simnet.NetworkConfig) {
	n.Path.Reset(cfg)
	for id := range n.clients {
		for _, c := range [2]*Conn{n.clients[id], n.servers[id]} {
			for _, sp := range c.sent.live() {
				n.pool.PutSent(sp)
			}
			n.spare.put(c) // init empties its sent list on reuse
		}
		n.clients[id], n.servers[id] = nil, nil
	}
	n.clients, n.servers = n.clients[:0], n.servers[:0]
	n.spare.trim()
	n.pool.trim()
}

func (n *Network) deliverUp(f simnet.Frame) {
	pkt := f.Payload.(*Packet)
	n.servers[pkt.ConnID].Receive(pkt)
	n.pool.Put(pkt) // Receive keeps no reference to the packet
}

func (n *Network) deliverDown(f simnet.Frame) {
	pkt := f.Payload.(*Packet)
	n.clients[pkt.ConnID].Receive(pkt)
	n.pool.Put(pkt)
}

// recycle takes back the packet of a frame the path discarded.
func (n *Network) recycle(f simnet.Frame) { n.pool.Put(f.Payload.(*Packet)) }

// NewConnPair creates both halves of a connection attached to the shared
// path. The ConnID fields of the configs are assigned by the network.
func (n *Network) NewConnPair(clientCfg, serverCfg Config) (client, server *Conn) {
	id := len(n.clients)
	clientCfg.ConnID = id
	clientCfg.Role = RoleClient
	serverCfg.ConnID = id
	serverCfg.Role = RoleServer

	client = n.conn(clientCfg, n.sendUp)
	server = n.conn(serverCfg, n.sendDown)
	client.SetPeerRecvBuf(serverCfg.RecvBuf)
	server.SetPeerRecvBuf(clientCfg.RecvBuf)
	n.clients = append(n.clients, client)
	n.servers = append(n.servers, server)
	return client, server
}

// conn sets up a spare conn, or a new one, as a connection half.
func (n *Network) conn(cfg Config, out func(simnet.Frame)) *Conn {
	c := n.spare.get()
	if c == nil {
		c = new(Conn)
	}
	c.init(n.Sim, cfg, out, &n.pool)
	return c
}

// Conns returns the number of connection pairs attached.
func (n *Network) Conns() int { return len(n.clients) }
