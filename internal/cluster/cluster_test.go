package cluster

import (
	"errors"
	"testing"
)

func TestNewValidation(t *testing.T) {
	cases := []struct {
		name    string
		workers []Worker
	}{
		{"empty", nil},
		{"empty ID", []Worker{{ID: "", Slots: 4, CPU: 4, IOBandwidth: 1, NetBandwidth: 1}}},
		{"dup ID", []Worker{
			{ID: "a", Slots: 4, CPU: 4, IOBandwidth: 1, NetBandwidth: 1},
			{ID: "a", Slots: 4, CPU: 4, IOBandwidth: 1, NetBandwidth: 1},
		}},
		{"zero slots", []Worker{{ID: "a", Slots: 0, CPU: 4, IOBandwidth: 1, NetBandwidth: 1}}},
		{"zero cpu", []Worker{{ID: "a", Slots: 4, CPU: 0, IOBandwidth: 1, NetBandwidth: 1}}},
		{"zero io", []Worker{{ID: "a", Slots: 4, CPU: 4, IOBandwidth: 0, NetBandwidth: 1}}},
		{"zero net", []Worker{{ID: "a", Slots: 4, CPU: 4, IOBandwidth: 1, NetBandwidth: 0}}},
	}
	for _, tc := range cases {
		if _, err := New(tc.workers); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

// TestNewRejectsBadWorkerIDs: an empty, repeated or dotted ID is refused
// with ErrWorkerID; an ID is a metric label, so its case and dashes are free.
func TestNewRejectsBadWorkerIDs(t *testing.T) {
	w := func(id string) Worker { return Worker{ID: id, Slots: 4, CPU: 4, IOBandwidth: 1, NetBandwidth: 1} }
	for _, ids := range [][]string{{""}, {"a", "a"}, {"x.Y"}, {"w0", "w.1"}, {"10.0.0.1"}} {
		var ws []Worker
		for _, id := range ids {
			ws = append(ws, w(id))
		}
		if _, err := New(ws); !errors.Is(err, ErrWorkerID) {
			t.Errorf("IDs %q: error %v, want ErrWorkerID", ids, err)
		}
	}
	if _, err := New([]Worker{w("tm-3"), w("W1")}); err != nil {
		t.Errorf("valid IDs refused: %v", err)
	}
}

func TestHomogeneous(t *testing.T) {
	c, err := Homogeneous(4, 4, 4.0, 100e6, 1.25e9)
	if err != nil {
		t.Fatal(err)
	}
	if c.NumWorkers() != 4 {
		t.Errorf("NumWorkers = %d", c.NumWorkers())
	}
	if c.TotalSlots() != 16 {
		t.Errorf("TotalSlots = %d", c.TotalSlots())
	}
	s, err := c.SlotsPerWorker()
	if err != nil || s != 4 {
		t.Errorf("SlotsPerWorker = %d, %v", s, err)
	}
	if !c.IsHomogeneous() {
		t.Error("homogeneous cluster reported heterogeneous")
	}
	if !c.Fits(16) || c.Fits(17) {
		t.Error("Fits wrong")
	}
	if c.Worker(2).ID != "w2" {
		t.Errorf("Worker(2).ID = %q", c.Worker(2).ID)
	}
	if len(c.Workers()) != 4 {
		t.Error("Workers() length wrong")
	}
	if _, err := Homogeneous(0, 4, 1, 1, 1); err == nil {
		t.Error("zero workers accepted")
	}
}

func TestHeterogeneousSlots(t *testing.T) {
	c, err := New([]Worker{
		{ID: "a", Slots: 4, CPU: 4, IOBandwidth: 1, NetBandwidth: 1},
		{ID: "b", Slots: 8, CPU: 4, IOBandwidth: 1, NetBandwidth: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.SlotsPerWorker(); err == nil {
		t.Error("heterogeneous slots not detected")
	}
	if c.IsHomogeneous() {
		t.Error("IsHomogeneous true for heterogeneous cluster")
	}
}

func TestSubset(t *testing.T) {
	c, _ := Homogeneous(6, 4, 4, 1, 1)
	sub, err := c.Subset(3)
	if err != nil {
		t.Fatal(err)
	}
	if sub.NumWorkers() != 3 || sub.Worker(0).ID != "w0" {
		t.Errorf("Subset wrong: %d workers", sub.NumWorkers())
	}
	if _, err := c.Subset(0); err == nil {
		t.Error("Subset(0) accepted")
	}
	if _, err := c.Subset(7); err == nil {
		t.Error("oversized subset accepted")
	}
}
