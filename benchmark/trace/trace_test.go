package trace

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// fixed builds spans with hand-set clocks: a 100ns root with two
// children that overlap each other and one that sticks out past the
// root's end, plus a grandchild.
func fixed() []Span {
	return []Span{
		{ID: 0, Parent: -1, Op: 1, Name: "op", Start: 0, End: 100},
		{ID: 1, Parent: 0, Op: 1, Name: "a", Start: 10, End: 40},
		{ID: 2, Parent: 0, Op: 1, Name: "b", Start: 30, End: 60},  // overlaps a by 10
		{ID: 3, Parent: 0, Op: 1, Name: "a", Start: 90, End: 120}, // 20 past the root
		{ID: 4, Parent: 1, Op: 1, Name: "c", Start: 15, End: 25},
		{ID: 5, Parent: -1, Op: 2, Name: "setup", Start: 200, End: 260},
	}
}

func TestSelfTimes(t *testing.T) {
	got := make(map[string]Self)
	for _, s := range SelfTimes(fixed()) {
		got[s.Name] = s
	}
	for _, want := range []Self{
		// Children cover [10,60] and [90,100] of the root: 60 of 100.
		{Name: "op", Calls: 1, Total: 100, Self: 40},
		// Two calls of 30; the first has a 10ns child.
		{Name: "a", Calls: 2, Total: 60, Self: 50},
		{Name: "b", Calls: 1, Total: 30, Self: 30},
		{Name: "c", Calls: 1, Total: 10, Self: 10},
		{Name: "setup", Calls: 1, Total: 60, Self: 60},
	} {
		if got[want.Name] != want {
			t.Errorf("%s: got %+v, want %+v", want.Name, got[want.Name], want)
		}
	}
}

func TestCover(t *testing.T) {
	// Direct children of the "op" roots sum to 30+30+30 over 100; the
	// grandchild and the other root do not count.
	if got := Cover(fixed(), "op"); got != 0.9 {
		t.Errorf("Cover = %v, want 0.9", got)
	}
	if got := Cover(fixed(), "absent"); got != 0 {
		t.Errorf("Cover of a name with no roots = %v, want 0", got)
	}
}

func TestRecorder(t *testing.T) {
	var none *Recorder
	if id := none.Start("x", -1, 0); id != -1 || none.End(id) != 0 || none.Spans() != nil {
		t.Error("a nil recorder must record nothing")
	}
	r := New()
	root := r.Start("op", -1, 7)
	child := r.Start("layer", root, 7)
	time.Sleep(time.Millisecond)
	if d := r.End(child); d < time.Millisecond {
		t.Errorf("child lasted %v, want at least the 1ms slept", d)
	}
	r.End(root)
	spans := r.Spans()
	if len(spans) != 2 || spans[1].Parent != root || spans[1].Op != 7 || spans[0].End < spans[1].End {
		t.Fatalf("spans = %+v", spans)
	}
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := WriteJSON(path, spans); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var back []Span
	if err := json.Unmarshal(data, &back); err != nil || len(back) != 2 || back[1] != spans[1] {
		t.Errorf("round trip: %v %+v", err, back)
	}
}
