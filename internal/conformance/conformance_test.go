package conformance

import (
	"testing"
	"time"

	"repro/internal/study"
)

// goodSession returns a session passing all rules.
func goodSession() *Session {
	return &Session{
		Group:           study.Lab,
		Kind:            AB,
		AllVideosPlayed: true,
		AnyVideoStalled: false,
		MaxFocusLoss:    2 * time.Second,
		VotedBeforeFVC:  false,
		TotalDuration:   10 * time.Minute,
		MaxQuestionTime: 30 * time.Second,
		ControlVideoOK:  true,
		ControlAnswerOK: true,
	}
}

func TestFilterKeepsGoodSessions(t *testing.T) {
	sessions := []*Session{goodSession(), goodSession(), goodSession()}
	kept, f := Filter(sessions)
	if len(kept) != 3 || f.Final() != 3 || f.Start != 3 {
		t.Fatalf("kept=%d funnel=%v", len(kept), f)
	}
	for _, a := range f.After {
		if a != 3 {
			t.Fatalf("funnel should stay at 3: %v", f.After)
		}
	}
}

func TestEachRuleFilters(t *testing.T) {
	mutations := []func(*Session){
		func(s *Session) { s.AllVideosPlayed = false },
		func(s *Session) { s.AnyVideoStalled = true },
		func(s *Session) { s.MaxFocusLoss = 11 * time.Second },
		func(s *Session) { s.VotedBeforeFVC = true },
		func(s *Session) { s.TotalDuration = 26 * time.Minute },
		func(s *Session) { s.ControlVideoOK = false },
		func(s *Session) { s.ControlAnswerOK = false },
	}
	for rule, mutate := range mutations {
		bad := goodSession()
		mutate(bad)
		kept, f := Filter([]*Session{goodSession(), bad})
		if len(kept) != 1 {
			t.Fatalf("rule %d: kept %d, want 1", rule+1, len(kept))
		}
		// The drop must happen exactly at this rule.
		for i, a := range f.After {
			want := 2
			if i >= rule {
				want = 1
			}
			if a != want {
				t.Fatalf("rule %d: funnel %v", rule+1, f.After)
			}
		}
	}
}

func TestRuleFiveQuestionTime(t *testing.T) {
	s := goodSession()
	s.MaxQuestionTime = 3 * time.Minute
	kept, _ := Filter([]*Session{s})
	if len(kept) != 0 {
		t.Fatal("long question time must trigger R5")
	}
}

func TestFocusLossBoundaryExactlyTenSeconds(t *testing.T) {
	s := goodSession()
	s.MaxFocusLoss = 10 * time.Second // "longer than 10 sec" -> exactly 10 is OK
	kept, _ := Filter([]*Session{s})
	if len(kept) != 1 {
		t.Fatal("exactly 10 s focus loss should pass")
	}
}

func TestFunnelMetadata(t *testing.T) {
	s := goodSession()
	s.Group = study.Microworker
	s.Kind = Rating
	_, f := Filter([]*Session{s})
	if f.Group != study.Microworker || f.Kind != Rating {
		t.Fatalf("funnel metadata: %v %v", f.Group, f.Kind)
	}
	if f.String() == "" {
		t.Fatal("empty funnel string")
	}
	_ = AB.String()
	_ = Rating.String()
}

func TestFilterEmpty(t *testing.T) {
	kept, f := Filter(nil)
	if len(kept) != 0 || f.Start != 0 || f.Final() != 0 {
		t.Fatal("empty filter should be a no-op")
	}
}
