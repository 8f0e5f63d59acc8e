package video_test

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/simnet"
	"repro/internal/video"
	"repro/internal/webpage"
)

func record(t *testing.T, n int) []video.Recording {
	t.Helper()
	site := webpage.ByName("gov.uk")
	recs := video.Record(site, simnet.LTE, core.MustProtocol("QUIC", simnet.LTE), n, 1000)
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
		if r.Frame != video.Red && r.Frame != video.Green && r.Frame != video.Blue {
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
	typ, err := video.SelectTypical(recs)
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
	all := append([]video.Recording{bad}, recs...)
	typ, err := video.SelectTypical(all)
	if err != nil {
		t.Fatal(err)
	}
	if typ.Report.PLT == time.Hour {
		t.Fatal("incomplete recording selected")
	}
	if _, err := video.SelectTypical([]video.Recording{bad}); err == nil {
		t.Fatal("all-incomplete should error")
	}
}

func TestNewABVideoValidation(t *testing.T) {
	recs := record(t, 2)
	if _, err := video.NewABVideo(recs[0], recs[1]); err != nil {
		t.Fatal(err)
	}
	other := recs[1]
	other.Network = "DSL"
	if _, err := video.NewABVideo(recs[0], other); err == nil {
		t.Fatal("mismatched networks must be rejected")
	}
}

func TestABVideoDuration(t *testing.T) {
	recs := record(t, 2)
	v, _ := video.NewABVideo(recs[0], recs[1])
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
	tcp := video.Record(site, simnet.LTE, core.MustProtocol("TCP", simnet.LTE), 5, 77)
	quic := video.Record(site, simnet.LTE, core.MustProtocol("QUIC", simnet.LTE), 5, 77)
	tTyp, err := video.SelectTypical(tcp)
	if err != nil {
		t.Fatal(err)
	}
	qTyp, err := video.SelectTypical(quic)
	if err != nil {
		t.Fatal(err)
	}
	if qTyp.Report.FVC >= tTyp.Report.FVC {
		t.Fatalf("QUIC FVC %v should beat TCP FVC %v", qTyp.Report.FVC, tTyp.Report.FVC)
	}
	_ = metrics.Names()
}

func TestFrameColorString(t *testing.T) {
	for _, c := range []video.FrameColor{video.Red, video.Green, video.Blue, video.FrameColor(9)} {
		_ = c.String()
	}
}
