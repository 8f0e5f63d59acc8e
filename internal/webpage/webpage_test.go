package webpage

import (
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

func TestCorpusDeterministic(t *testing.T) {
	a := Corpus()
	b := Corpus()
	for i := range a {
		if a[i].Name != b[i].Name || len(a[i].Objects) != len(b[i].Objects) {
			t.Fatal("corpus not deterministic in structure")
		}
		for j := range a[i].Objects {
			if a[i].Objects[j] != b[i].Objects[j] {
				t.Fatalf("site %s object %d differs across generations", a[i].Name, j)
			}
		}
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
