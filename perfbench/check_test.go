package main

import (
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"

	"repro/internal/durable"
	"repro/internal/serve"
)

// obs is one answer: connection (or -1), key, seq.
type obs struct {
	conn, key int32
	seq       uint64
}

func goodAnswers() []obs {
	// Two connections interleaving on key 1; key 2 on one connection.
	return []obs{{0, 1, 1}, {1, 1, 2}, {0, 2, 1}, {0, 1, 3}, {0, 2, 2}, {1, 1, 4}}
}

func track(answers []obs) (map[int32]uint64, []string) {
	tr := newSeqTracker()
	for _, a := range answers {
		tr.observe(a.conn, a.key, a.seq)
	}
	return tr.finish()
}

func TestSeqTrackerAcceptsValid(t *testing.T) {
	last, errs := track(goodAnswers())
	if len(errs) != 0 {
		t.Fatalf("valid answers rejected: %v", errs)
	}
	if last[1] != 4 || last[2] != 2 {
		t.Errorf("last acknowledged = %v, want 1:4 2:2", last)
	}
}

func TestSeqTrackerRejects(t *testing.T) {
	cases := map[string]func([]obs) []obs{
		"reorder on a connection": func(a []obs) []obs {
			a[0].seq, a[3].seq = 3, 1 // conn 0 sees key 1 go 3 then 1
			return a
		},
		"duplicate": func(a []obs) []obs {
			a[5].seq = 3 // key 1 answered seq 3 twice (on different connections)
			return a
		},
		"lost update": func(a []obs) []obs {
			a[4].seq = 3 // key 2 jumps from 1 to 3
			return a
		},
		"lost update in process": func(a []obs) []obs {
			for i := range a {
				a[i].conn = -1
			}
			return append(a[:1], a[2:]...) // key 1's seq 2 never answered
		},
	}
	for name, mutate := range cases {
		if _, errs := track(mutate(goodAnswers())); len(errs) == 0 {
			t.Errorf("%s: not detected", name)
		}
	}
}

func TestParseSeq(t *testing.T) {
	if n, ok := parseSeq("key=k00001 seq=42\n"); !ok || n != 42 {
		t.Errorf("parseSeq = %d, %v", n, ok)
	}
	if _, ok := parseSeq("queue full\n"); ok {
		t.Error("parseSeq accepted an error body")
	}
}

func TestCheckBankRejects(t *testing.T) {
	log := []bankOp{{a: 0, amt: 5}, {a: 1, b: 0, amt: 3, transfer: true}, {a: 1, amt: -2}}
	want := make([]int64, bankAccounts)
	for i := range want {
		want[i] = bankInitial
	}
	want[0] += 5 + 3
	want[1] += -3 - 2
	if err := checkBank(slices.Clone(want), want, log); err != nil {
		t.Fatalf("valid balances rejected: %v", err)
	}
	lost := slices.Clone(want)
	lost[0] -= 5 // a deposit was lost: the total is off
	if checkBank(lost, want, log) == nil {
		t.Error("lost update not detected")
	}
	moved := slices.Clone(want)
	moved[0], moved[1] = moved[0]-3, moved[1]+3 // a transfer undone: total kept
	if checkBank(moved, want, log) == nil {
		t.Error("conserving corruption not detected")
	}
}

func TestCheckSortedRejects(t *testing.T) {
	sorted := []int32{1, 2, 2, 5, 9}
	if err := checkSorted(slices.Clone(sorted), sorted); err != nil {
		t.Fatalf("sorted input rejected: %v", err)
	}
	reorder := []int32{1, 2, 5, 2, 9}
	dup := []int32{1, 2, 2, 9, 9}
	lost := []int32{1, 2, 2, 5}
	for name, got := range map[string][]int32{"reorder": reorder, "duplicate": dup, "lost": lost} {
		if checkSorted(got, sorted) == nil {
			t.Errorf("%s not detected", name)
		}
	}
}

func TestQuicksortSorts(t *testing.T) {
	in := genSortInput(3)[:1<<16]
	want := slices.Clone(in)
	slices.Sort(want)
	runSort(in, false)
	if err := checkSorted(in, want); err != nil {
		t.Fatal(err)
	}
}

// After Drain, recovery from the state directory returns each key's last
// acknowledged seq.
func TestRecoveredSeqs(t *testing.T) {
	dir := t.TempDir()
	fs, err := durable.NewDirFS(dir)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := newServer(serve.Config{StateFS: fs, Fsync: durable.FsyncRotation}, nil)
	if err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()
	for i, key := range []int32{7, 7, 9, 7} {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/bump?key="+serveKey(key), nil))
		if w.Code != http.StatusOK || !strings.Contains(w.Body.String(), "seq=") {
			t.Fatalf("request %d: %d %q", i, w.Code, w.Body.String())
		}
	}
	if err := srv.Drain(); err != nil {
		t.Fatal(err)
	}
	got, err := recoveredSeqs(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got[serveKey(7)] != 3 || got[serveKey(9)] != 1 {
		t.Errorf("recovered %v, want k00007:3 k00009:1", got)
	}
}
