package video

import (
	"testing"
	"time"

	"repro/internal/httpsim"
	"repro/internal/metrics"
	"repro/internal/quicsim"
	"repro/internal/simnet"
	"repro/internal/tcpsim"
	"repro/internal/webpage"
)

func record(t *testing.T, n int) []Recording {
	t.Helper()
	site := webpage.ByName("gov.uk")
	recs := Record(site, simnet.LTE, httpsim.QUICStack{Opts: quicsim.Stock()}, n, 1000)
	if len(recs) != n {
		t.Fatalf("recorded %d, want %d", len(recs), n)
	}
	return recs
}

func TestRecordBasics(t *testing.T) {
	recs := record(t, 5)
	for i, r := range recs {
		if !r.Report.Complete {
			t.Fatalf("rec %d incomplete", i)
		}
		if r.Site != "gov.uk" || r.Network != "LTE" || r.Protocol != "QUIC" {
			t.Fatalf("rec %d metadata: %+v", i, r)
		}
		if r.Frame != Red && r.Frame != Green && r.Frame != Blue {
			t.Fatalf("rec %d frame colour invalid", i)
		}
	}
}

func TestRecordDistinctSeeds(t *testing.T) {
	recs := record(t, 3)
	if recs[0].Seed == recs[1].Seed {
		t.Fatal("seeds must differ per repetition")
	}
}

func TestSelectTypical(t *testing.T) {
	recs := record(t, 7)
	typ, err := SelectTypical(recs)
	if err != nil {
		t.Fatal(err)
	}
	// The typical recording minimizes distance to the mean PLT.
	var mean float64
	for _, r := range recs {
		mean += r.Report.PLT.Seconds()
	}
	mean /= float64(len(recs))
	for _, r := range recs {
		dTyp := typ.Report.PLT.Seconds() - mean
		if dTyp < 0 {
			dTyp = -dTyp
		}
		dR := r.Report.PLT.Seconds() - mean
		if dR < 0 {
			dR = -dR
		}
		if dR < dTyp-1e-12 {
			t.Fatalf("recording closer to mean than the typical one: %v < %v", dR, dTyp)
		}
	}
}

func TestSelectTypicalSkipsIncomplete(t *testing.T) {
	recs := record(t, 3)
	bad := recs[0]
	bad.Report.Complete = false
	bad.Report.PLT = time.Hour // would dominate the mean if not excluded
	all := append([]Recording{bad}, recs...)
	typ, err := SelectTypical(all)
	if err != nil {
		t.Fatal(err)
	}
	if typ.Report.PLT == time.Hour {
		t.Fatal("incomplete recording selected")
	}
	if _, err := SelectTypical([]Recording{bad}); err == nil {
		t.Fatal("all-incomplete should error")
	}
}

func TestNewABVideoValidation(t *testing.T) {
	recs := record(t, 2)
	if _, err := NewABVideo(recs[0], recs[1]); err != nil {
		t.Fatal(err)
	}
	other := recs[1]
	other.Network = "DSL"
	if _, err := NewABVideo(recs[0], other); err == nil {
		t.Fatal("mismatched networks must be rejected")
	}
}

func TestABVideoDuration(t *testing.T) {
	recs := record(t, 2)
	v, _ := NewABVideo(recs[0], recs[1])
	min := recs[0].Report.PLT
	if recs[1].Report.PLT > min {
		min = recs[1].Report.PLT
	}
	if v.Duration() <= min {
		t.Fatal("duration must cover the slower side plus margin")
	}
}

func TestRecordTCPvsQUICTypicalOrdering(t *testing.T) {
	// On LTE the typical QUIC video should show an earlier FVC than the
	// typical stock-TCP video (the Fig. 4 LTE majority).
	site := webpage.ByName("wikipedia.org")
	tcp := Record(site, simnet.LTE, httpsim.TCPStack{Opts: tcpsim.Stock()}, 5, 77)
	quic := Record(site, simnet.LTE, httpsim.QUICStack{Opts: quicsim.Stock()}, 5, 77)
	tTyp, err := SelectTypical(tcp)
	if err != nil {
		t.Fatal(err)
	}
	qTyp, err := SelectTypical(quic)
	if err != nil {
		t.Fatal(err)
	}
	if qTyp.Report.FVC >= tTyp.Report.FVC {
		t.Fatalf("QUIC FVC %v should beat TCP FVC %v", qTyp.Report.FVC, tTyp.Report.FVC)
	}
	_ = metrics.Names()
}

func TestFrameColorString(t *testing.T) {
	for _, c := range []FrameColor{Red, Green, Blue, FrameColor(9)} {
		_ = c.String()
	}
}
