package main

import (
	"testing"
	"time"
)

// A server that stalls a synchronous sender also stalls the pacer. The
// requests due during the stall must still be sent, and their latency,
// measured from their due time, must include the stall: nothing is
// omitted and nothing is timed from its late release.
func TestPaceChargesStallToDueTime(t *testing.T) {
	const (
		interval = time.Millisecond
		dur      = 40 * time.Millisecond
		stall    = 30 * time.Millisecond
	)
	lat := map[int]time.Duration{}
	start := time.Now()
	n := pace(start, interval, dur, func(i int, due time.Time) {
		if i == 5 {
			time.Sleep(stall) // the server holds this request
		}
		lat[i] = time.Since(due)
	})
	if n != 40 || len(lat) != 40 {
		t.Fatalf("sent %d requests (%d answered), want 40", n, len(lat))
	}
	// Request 6 was due 1 ms after request 5 but could only be sent when
	// the stall ended, about 29 ms after its due time.
	if lat[6] < stall-2*interval {
		t.Errorf("request 6 latency %v does not include the %v stall", lat[6], stall)
	}
	if lat[5] < stall {
		t.Errorf("stalled request latency %v < %v", lat[5], stall)
	}
}

func TestPaceKeepsSchedule(t *testing.T) {
	start := time.Now()
	var dues []time.Time
	n := pace(start, 2*time.Millisecond, 20*time.Millisecond, func(i int, due time.Time) {
		dues = append(dues, due)
		if time.Now().Before(due) {
			t.Errorf("request %d released before it was due", i)
		}
	})
	if n != 10 {
		t.Fatalf("sent %d, want 10", n)
	}
	for i, d := range dues {
		if want := start.Add(time.Duration(i) * 2 * time.Millisecond); !d.Equal(want) {
			t.Errorf("request %d due %v, want %v", i, d.Sub(start), want.Sub(start))
		}
	}
}
