package webpage

import (
	"reflect"
	"slices"
	"testing"
)

func TestCorpusSize(t *testing.T) {
	sites := Corpus()
	if len(sites) != 36 {
		t.Fatalf("corpus = %d sites, want 36", len(sites))
	}
}

func TestCorpusAllValid(t *testing.T) {
	for _, s := range Corpus() {
		if err := s.Validate(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestLabCorpusFiveSites(t *testing.T) {
	lab := LabCorpus()
	if len(lab) != 5 {
		t.Fatalf("lab corpus = %d, want 5", len(lab))
	}
	want := map[string]bool{
		"wikipedia.org": true, "gov.uk": true, "etsy.com": true,
		"demorgen.be": true, "nytimes.com": true,
	}
	for _, s := range lab {
		if !want[s.Name] {
			t.Fatalf("unexpected lab site %s", s.Name)
		}
	}
}

// TestCorpusDeterministic regenerates every site and compares it with the
// shared corpus object for object.
func TestCorpusDeterministic(t *testing.T) {
	for i, a := range Corpus() {
		b := generate(profiles[i], CorpusSeed)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("site %s differs across generations", a.Name)
		}
	}
}

// TestCorpusSharedSitesFreshSlices: every call returns the same generated
// sites, each in its own slice, so a caller that edits its slice cannot
// change the next caller's.
func TestCorpusSharedSitesFreshSlices(t *testing.T) {
	for name, get := range map[string]func() []*Site{"Corpus": Corpus, "LabCorpus": LabCorpus} {
		a, b := get(), get()
		if !slices.Equal(a, b) {
			t.Fatalf("%s: two calls returned different sites", name)
		}
		a[0] = nil
		if b[0] == nil {
			t.Fatalf("%s: two calls share one slice", name)
		}
	}
	if ByName("gov.uk") != LabCorpus()[1] {
		t.Fatal("ByName and LabCorpus return different gov.uk sites")
	}
}

func TestCorpusVariation(t *testing.T) {
	sites := Corpus()
	var minBytes, maxBytes int64 = 1 << 62, 0
	minHosts, maxHosts := 1<<30, 0
	for _, s := range sites {
		if tb := s.TotalBytes(); tb < minBytes {
			minBytes = tb
		} else if tb > maxBytes {
			maxBytes = tb
		}
		if h := s.HostCount(); h < minHosts {
			minHosts = h
		} else if h > maxHosts {
			maxHosts = h
		}
	}
	// The paper's selection spans roughly an order of magnitude in size and
	// host fan-out.
	if maxBytes < 8*minBytes {
		t.Fatalf("size variation too small: %d..%d", minBytes, maxBytes)
	}
	if maxHosts < 10*minHosts {
		t.Fatalf("host variation too small: %d..%d", minHosts, maxHosts)
	}
}

func TestByName(t *testing.T) {
	if s := ByName("spotify.com"); s == nil {
		t.Fatal("spotify.com missing")
	} else if s.HostCount() < 20 {
		// The paper: "The website is small, but the browser has to contact
		// many hosts."
		t.Fatalf("spotify should contact many hosts, got %d", s.HostCount())
	}
	if ByName("nonexistent.example") != nil {
		t.Fatal("unknown site should be nil")
	}
}

func TestDemorgenHasBanner(t *testing.T) {
	s := ByName("demorgen.be")
	found := false
	for _, o := range s.Objects {
		if o.Type == Banner {
			found = true
			if o.RenderWeight <= 0.1 {
				t.Fatalf("banner weight too small: %f", o.RenderWeight)
			}
			parent := s.Objects[o.Parent]
			if parent.DiscoverFrac < 0.9 {
				t.Fatalf("banner script should be discovered late, frac=%f", parent.DiscoverFrac)
			}
		}
	}
	if !found {
		t.Fatal("demorgen.be must carry the late banner")
	}
}

func TestRenderBlockingExists(t *testing.T) {
	for _, s := range Corpus() {
		blocking := 0
		for _, o := range s.Objects {
			if o.RenderBlocking {
				blocking++
			}
		}
		if blocking == 0 {
			t.Fatalf("site %s has no render-blocking resources", s.Name)
		}
	}
}

func TestPriorityOrdering(t *testing.T) {
	if HTML.Priority() > JS.Priority() || CSS.Priority() > Image.Priority() {
		t.Fatal("priority buckets out of order")
	}
	for _, typ := range []ObjectType{HTML, CSS, JS, Image, Font, XHR, Banner, ObjectType(99)} {
		_ = typ.String()
	}
}
