// Package browser simulates the Chromium page-load process the paper
// automates with Browsertime: incremental HTML parsing with subresource
// discovery, per-host connections, Chromium-like fetch priorities,
// render-blocking stylesheets and synchronous scripts, and a paint model
// that emits the visual-progress trace a recording of the browser window
// would show. Every load starts from a fresh "browser" with an empty cache,
// matching the paper's fresh-Chromium methodology (§3).
package browser

import (
	"sync"
	"time"

	"repro/internal/httpsim"
	"repro/internal/metrics"
	"repro/internal/simnet"
	"repro/internal/transport"
	"repro/internal/webpage"
)

// Config parameterizes one page load.
type Config struct {
	// Network is the Table 2 row to emulate.
	Network simnet.NetworkConfig
	// Proto is the protocol stack: a Table 1 row or a variant of one.
	Proto transport.Stack
	// Seed drives all stochastic elements (loss draws) of this load.
	Seed int64
	// MaxLoadTime aborts pathological loads; 0 means the 5-minute default.
	MaxLoadTime time.Duration
}

// Result is the outcome of one page load: the visual trace (the "video")
// plus technical counters.
type Result struct {
	Trace   metrics.Trace
	Report  metrics.Report
	Objects int // objects fully loaded
	// Retransmissions and RTOs aggregate transport behaviour across all
	// host connections, for the DA2GC-inversion analysis.
	Retransmissions uint64
	RTOs            uint64
	Conns           int
}

// objState tracks one resource through discovery, fetch and render.
type objState struct {
	discovered bool
	requested  bool
	delivered  int64
	complete   bool
	completeAt time.Duration
	painted    bool
}

type loader struct {
	sim    *simnet.Simulator
	client *httpsim.Client
	site   *webpage.Site
	objs   []objState

	firstPaintAt  time.Duration
	firstPainted  bool
	vc            float64
	points        []metrics.Point
	completeCount int
	finishedAt    time.Duration
	finished      bool
}

// world is what a page load runs on: the simulator, the path and the
// transport network with its packet, sent-record and conn pools. Building
// one per load would throw away every pool a load grows, so loads take a
// world from worlds and Reset it instead. A reset world replays exactly
// what a new one would — same clock, sequence numbers and random streams,
// no event, frame or conn state left over — so every load still starts
// from a fresh browser; only the capacity is kept.
type world struct {
	sim *simnet.Simulator
	net *transport.Network
}

func newWorld() *world {
	sim := simnet.New(0)
	return &world{sim: sim, net: transport.NewNetwork(sim, simnet.NetworkConfig{})}
}

// worlds holds the idle worlds; the pool lets them go when loads stop.
var worlds = sync.Pool{New: func() any { return newWorld() }}

// Load performs one page visit and returns its visual trace and metrics.
func Load(site *webpage.Site, cfg Config) Result {
	w := worlds.Get().(*world)
	res := w.load(site, cfg)
	worlds.Put(w)
	return res
}

// load resets the world for cfg and performs the visit on it.
func (w *world) load(site *webpage.Site, cfg Config) Result {
	if cfg.MaxLoadTime <= 0 {
		cfg.MaxLoadTime = 5 * time.Minute
	}
	sim, net := w.sim, w.net
	sim.Reset(cfg.Seed)
	net.Reset(cfg.Network)
	ld := &loader{
		sim:    sim,
		client: httpsim.NewClient(sim, net, cfg.Proto),
		site:   site,
		objs:   make([]objState, len(site.Objects)),
	}
	ld.discover(0)
	sim.RunUntil(cfg.MaxLoadTime)

	trace := metrics.Trace{
		Points:    ld.points,
		Completed: ld.finished,
	}
	if ld.finished {
		trace.PLT = ld.finishedAt
	} else {
		trace.PLT = cfg.MaxLoadTime
	}
	return Result{
		Trace:           trace,
		Report:          metrics.Compute(&trace),
		Objects:         ld.completeCount,
		Retransmissions: ld.client.Retransmissions(),
		RTOs:            ld.client.RTOs(),
		Conns:           ld.client.Conns(),
	}
}

// discover marks an object found and issues its fetch.
func (ld *loader) discover(id int) {
	st := &ld.objs[id]
	if st.discovered {
		return
	}
	st.discovered = true
	obj := &ld.site.Objects[id]
	issue := func() {
		st.requested = true
		ld.client.Fetch(obj.Host, obj.Bytes, obj.Type.Priority(),
			func(delivered int64) { ld.onProgress(id, delivered) },
			func() { ld.onComplete(id) },
		)
	}
	if obj.ExecDelay > 0 {
		ld.sim.Schedule(obj.ExecDelay, issue)
		return
	}
	issue()
}

func (ld *loader) onProgress(id int, delivered int64) {
	st := &ld.objs[id]
	if delivered <= st.delivered {
		return
	}
	st.delivered = delivered
	obj := &ld.site.Objects[id]
	if obj.Type == webpage.HTML {
		// Incremental parsing: children whose discovery fraction has been
		// reached become visible to the preload scanner.
		frac := float64(delivered) / float64(obj.Bytes)
		for cid := range ld.site.Objects {
			child := &ld.site.Objects[cid]
			if child.Parent == id && !ld.objs[cid].discovered && frac >= child.DiscoverFrac {
				ld.discover(cid)
			}
		}
	}
	ld.maybeFirstPaint()
}

func (ld *loader) onComplete(id int) {
	st := &ld.objs[id]
	if st.complete {
		return
	}
	st.complete = true
	st.completeAt = ld.sim.Now()
	ld.completeCount++

	// Completion discovers all remaining children (CSS->fonts, JS->XHR,
	// and any HTML children not yet hit by the scanner).
	for cid := range ld.site.Objects {
		child := &ld.site.Objects[cid]
		if child.Parent == id && !ld.objs[cid].discovered {
			ld.discover(cid)
		}
	}

	ld.maybeFirstPaint()
	ld.maybePaint(id)
	ld.maybeFinish()
}

// maybeFirstPaint fires the first paint when enough of the document has
// arrived and every so-far-discovered render-blocking resource finished —
// the Chromium rendering pipeline's gating rule.
func (ld *loader) maybeFirstPaint() {
	if ld.firstPainted {
		return
	}
	html := &ld.site.Objects[0]
	if float64(ld.objs[0].delivered) < 0.5*float64(html.Bytes) {
		return
	}
	for id := range ld.site.Objects {
		obj := &ld.site.Objects[id]
		if obj.RenderBlocking && ld.objs[id].discovered && !ld.objs[id].complete {
			return
		}
	}
	ld.firstPainted = true
	ld.firstPaintAt = ld.sim.Now()
	// The document text paints, plus anything visual that completed while
	// blocked (e.g. a fast hero image waiting on a stylesheet).
	ld.addVC(0, ld.site.Objects[0].RenderWeight)
	ld.objs[0].painted = true
	for id := range ld.site.Objects {
		if id != 0 && ld.objs[id].complete {
			ld.maybePaint(id)
		}
	}
}

// maybePaint applies an object's visual contribution once the page has had
// its first paint.
func (ld *loader) maybePaint(id int) {
	if !ld.firstPainted {
		return
	}
	st := &ld.objs[id]
	if st.painted || !st.complete {
		return
	}
	w := ld.site.Objects[id].RenderWeight
	st.painted = true
	if w > 0 {
		ld.addVC(id, w)
	}
}

func (ld *loader) addVC(id int, w float64) {
	ld.vc += w
	if ld.vc > 1 {
		ld.vc = 1
	}
	ld.points = append(ld.points, metrics.Point{T: ld.sim.Now(), VC: ld.vc})
}

// maybeFinish declares PLT when every discovered object has completed (the
// onload / network-idle condition — discovery cascades, so nothing more can
// appear).
func (ld *loader) maybeFinish() {
	if ld.finished {
		return
	}
	for id := range ld.objs {
		if ld.objs[id].discovered && !ld.objs[id].complete {
			return
		}
	}
	ld.finished = true
	ld.finishedAt = ld.sim.Now()
}
