package browser

import "repro/internal/webpage"

// NewWorld and (*world).Load open the world to the external tests, which take
// their stacks from core's preset table (core imports browser).
var NewWorld = newWorld

func (w *world) Load(site *webpage.Site, cfg Config) Result { return w.load(site, cfg) }
