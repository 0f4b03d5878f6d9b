package ofwire

import (
	"testing"
	"time"

	"hermes/internal/classifier"
	"hermes/internal/core"
)

func testRule(i int) classifier.Rule {
	return classifier.Rule{
		ID:       classifier.RuleID(i + 1),
		Match:    classifier.DstMatch(classifier.NewPrefix(uint32(i)<<12|0x0A000000, 28)),
		Priority: int32(i%17 + 1),
		Action:   classifier.Action{Type: classifier.ActionForward, Port: i % 48},
	}
}

// TestDumpRulesEndToEnd: rules inserted over the wire come back from
// DumpRules byte-for-byte, sorted by ID, and multi-page dumps stitch
// together without loss or duplication.
func TestDumpRulesEndToEnd(t *testing.T) {
	srv, addr := startServer(t, core.Config{DisableRateLimit: true})
	c, err := Dial(addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const n = 40
	want := make([]classifier.Rule, n)
	for i := 0; i < n; i++ {
		want[i] = testRule(i)
		if _, err := c.Insert(want[i]); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}

	check := func(got []classifier.Rule, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != n {
			t.Fatalf("dump returned %d rules, want %d", len(got), n)
		}
		for i, r := range got {
			if r != want[i] {
				t.Fatalf("rule %d mismatch:\n got %+v\nwant %+v", i, r, want[i])
			}
		}
	}
	// Single page (agent-chosen frame-bound page size).
	check(c.DumpRules())
	// Forced multi-page dump: 7-entry pages over 40 rules.
	check(c.dumpRulesPaged(7))

	// The dump reflects deletions.
	if _, err := c.Delete(want[3].ID); err != nil {
		t.Fatal(err)
	}
	got, err := c.DumpRules()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != n-1 {
		t.Fatalf("post-delete dump returned %d rules, want %d", len(got), n-1)
	}
	for _, r := range got {
		if r.ID == want[3].ID {
			t.Fatalf("deleted rule %d still in dump", r.ID)
		}
	}
	_ = srv
}

// TestDumpRulesEmpty: a fresh agent dumps an empty, non-erroring rule set.
func TestDumpRulesEmpty(t *testing.T) {
	_, addr := startServer(t, core.Config{DisableRateLimit: true})
	c, err := Dial(addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	got, err := c.DumpRules()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("empty agent dumped %d rules", len(got))
	}
}

// TestDoRulesPagination: the server-side pager honors cursors and Max,
// never repeats an ID, and flags continuation exactly when entries remain.
func TestDoRulesPagination(t *testing.T) {
	srv, addr := startServer(t, core.Config{DisableRateLimit: true})
	c, err := Dial(addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const n = 25
	for i := 0; i < n; i++ {
		if _, err := c.Insert(testRule(i)); err != nil {
			t.Fatal(err)
		}
	}
	var after uint64
	seen := map[uint64]bool{}
	pages := 0
	for {
		resp := srv.doRules(&Message{
			Header:       Header{Type: TypeRulesRequest},
			RulesRequest: &RulesRequest{After: after, Max: 10},
		})
		if resp.RulesReply == nil {
			t.Fatalf("page %d: no rules reply: %+v", pages, resp)
		}
		rr := resp.RulesReply
		if len(rr.Rules) > 10 {
			t.Fatalf("page %d: %d entries above Max", pages, len(rr.Rules))
		}
		for _, e := range rr.Rules {
			if e.RuleID <= after {
				t.Fatalf("page %d: entry %d at or below cursor %d", pages, e.RuleID, after)
			}
			if seen[e.RuleID] {
				t.Fatalf("page %d: duplicate entry %d", pages, e.RuleID)
			}
			seen[e.RuleID] = true
			after = e.RuleID
		}
		pages++
		if !rr.More {
			break
		}
	}
	if len(seen) != n {
		t.Fatalf("pagination returned %d unique rules, want %d", len(seen), n)
	}
	if want := (n + 9) / 10; pages != want {
		t.Fatalf("dump took %d pages, want %d", pages, want)
	}
}
