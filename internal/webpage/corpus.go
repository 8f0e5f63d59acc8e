package webpage

// CorpusSeed pins the deterministic site generator; changing it regenerates
// a structurally different (but statistically similar) corpus.
const CorpusSeed = 0x5045524345495645 // "PERCEIVE"

// profiles lists the 36 sites with their published-scale characteristics:
// object counts from ~15 to ~180, page weights from ~0.3 MB to ~6 MB, host
// fan-out from 2 to 32 — the "high variation in size as well as contacted
// IP addresses" the selection was made for. The five lab sites are flagged
// (wikipedia.org, gov.uk, etsy.com, demorgen.be, nytimes.com), and the
// paper's per-site observations are encoded where given: spotify.com is
// small with many hosts, apache.org / wordpress.com / w3.org are small with
// few hosts, demorgen.be pops a late welcome banner.
var profiles = []profile{
	{name: "wikipedia.org", objects: 22, totalKB: 450, hosts: 3, lab: true, heroFrac: 0.25},
	{name: "gov.uk", objects: 18, totalKB: 380, hosts: 2, lab: true, heroFrac: 0.2},
	{name: "etsy.com", objects: 110, totalKB: 2400, hosts: 18, lab: true, heroFrac: 0.3},
	{name: "demorgen.be", objects: 95, totalKB: 2800, hosts: 22, lab: true, banner: true, heroFrac: 0.3},
	{name: "nytimes.com", objects: 160, totalKB: 4200, hosts: 28, lab: true, heroFrac: 0.25},
	{name: "google.com", objects: 16, totalKB: 420, hosts: 2, heroFrac: 0.5},
	{name: "youtube.com", objects: 75, totalKB: 2100, hosts: 8, heroFrac: 0.35},
	{name: "facebook.com", objects: 60, totalKB: 1800, hosts: 6, heroFrac: 0.3},
	{name: "amazon.com", objects: 140, totalKB: 3600, hosts: 20, heroFrac: 0.35},
	{name: "reddit.com", objects: 90, totalKB: 1900, hosts: 14, heroFrac: 0.25},
	{name: "ebay.com", objects: 120, totalKB: 2900, hosts: 24, heroFrac: 0.4},
	{name: "bing.com", objects: 20, totalKB: 900, hosts: 3, heroFrac: 0.7},
	{name: "linkedin.com", objects: 55, totalKB: 1500, hosts: 10, heroFrac: 0.3},
	{name: "instagram.com", objects: 45, totalKB: 1600, hosts: 5, heroFrac: 0.4},
	{name: "twitter.com", objects: 50, totalKB: 1400, hosts: 7, heroFrac: 0.3},
	{name: "apple.com", objects: 65, totalKB: 2600, hosts: 6, heroFrac: 0.55},
	{name: "microsoft.com", objects: 70, totalKB: 2200, hosts: 12, heroFrac: 0.4},
	{name: "wordpress.com", objects: 24, totalKB: 700, hosts: 5, heroFrac: 0.35},
	{name: "spotify.com", objects: 35, totalKB: 850, hosts: 26, heroFrac: 0.4},
	{name: "apache.org", objects: 15, totalKB: 320, hosts: 3, heroFrac: 0.3},
	{name: "nature.com", objects: 85, totalKB: 2300, hosts: 16, heroFrac: 0.3},
	{name: "w3.org", objects: 17, totalKB: 350, hosts: 2, heroFrac: 0.2},
	{name: "gravatar.com", objects: 19, totalKB: 500, hosts: 6, heroFrac: 0.45},
	{name: "imdb.com", objects: 130, totalKB: 3400, hosts: 19, heroFrac: 0.35},
	{name: "cnn.com", objects: 180, totalKB: 5800, hosts: 32, heroFrac: 0.25},
	{name: "bbc.com", objects: 120, totalKB: 3100, hosts: 21, heroFrac: 0.3},
	{name: "stackoverflow.com", objects: 40, totalKB: 1100, hosts: 8, heroFrac: 0.2},
	{name: "github.com", objects: 38, totalKB: 1300, hosts: 4, heroFrac: 0.25},
	{name: "mozilla.org", objects: 30, totalKB: 950, hosts: 4, heroFrac: 0.4},
	{name: "adobe.com", objects: 88, totalKB: 2700, hosts: 15, heroFrac: 0.45},
	{name: "paypal.com", objects: 42, totalKB: 1200, hosts: 9, heroFrac: 0.35},
	{name: "netflix.com", objects: 52, totalKB: 2000, hosts: 7, heroFrac: 0.6},
	{name: "pinterest.com", objects: 98, totalKB: 2500, hosts: 11, heroFrac: 0.3},
	{name: "tumblr.com", objects: 80, totalKB: 2100, hosts: 17, heroFrac: 0.35},
	{name: "yahoo.com", objects: 150, totalKB: 4600, hosts: 30, heroFrac: 0.25},
	{name: "vimeo.com", objects: 48, totalKB: 1700, hosts: 9, heroFrac: 0.55},
}

// Corpus returns the 36-site study corpus, generated deterministically.
func Corpus() []*Site {
	sites := make([]*Site, 0, len(profiles))
	for _, p := range profiles {
		sites = append(sites, generate(p, CorpusSeed))
	}
	return sites
}

// LabCorpus returns only the five sites shown in the controlled lab study.
func LabCorpus() []*Site {
	var out []*Site
	for _, s := range Corpus() {
		if s.Lab {
			out = append(out, s)
		}
	}
	return out
}

// ByName returns the named site from the corpus, or nil.
func ByName(name string) *Site {
	for _, s := range Corpus() {
		if s.Name == name {
			return s
		}
	}
	return nil
}
