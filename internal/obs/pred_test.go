package obs

import (
	"bytes"
	"reflect"
	"testing"
)

func TestFlattenPredAndDropped(t *testing.T) {
	s := buildSnapshot()
	m := s.Flatten()
	checks := map[string]float64{
		"pred.tp_objects":                3,
		"pred.fp_objects":                1,
		"pred.threshold_bytes":           32768,
		"pred.threshold_bytes.max":       32768,
		"pred.lifetime_pred_short.count": 1,
		"pred.lifetime_pred_short.sum":   100,
		"obs.dropped_events":             0,
	}
	for name, want := range checks {
		got, ok := m[name]
		if !ok {
			t.Errorf("Flatten missing %q", name)
			continue
		}
		if got != want {
			t.Errorf("Flatten[%q] = %g, want %g", name, got, want)
		}
	}
}

func TestDroppedEventsSurfaced(t *testing.T) {
	c := NewCollector(Options{Label: "tiny"})
	for i := 0; i < DefaultEventCap-1; i++ {
		c.Emit(EvHeapGrow, int64(i))
	}
	c.Emit(EvCoalesce, 1)
	c.Emit(EvCoalesce, 2)
	s := c.Snapshot()
	if s.Events.Dropped != 1 {
		t.Errorf("Dropped = %d, want 1", s.Events.Dropped)
	}
	if got := s.Flatten()["obs.dropped_events"]; got != 1 {
		t.Errorf("Flatten[obs.dropped_events] = %g, want 1", got)
	}
	// Per-kind totals stay exact even when the raw window overflows.
	if s.Events.Counts["heap_grow"] != DefaultEventCap-1 || s.Events.Counts["coalesce"] != 2 {
		t.Errorf("exact counts perturbed by window overflow: %v", s.Events.Counts)
	}
}

func TestSetPredSites(t *testing.T) {
	var nilC *Collector
	nilC.SetPredSites([]PredSite{{Site: "x"}}) // must not panic

	c := NewCollector(Options{})
	if got := c.Snapshot().PredSites; got != nil {
		t.Errorf("PredSites before SetPredSites = %v, want nil", got)
	}
	want := []PredSite{
		{Site: "a", FPObjects: 1, FPBytes: 10, FPCost: 500},
		{Site: "b", FNObjects: 2, FNBytes: 20},
	}
	c.SetPredSites(want)
	got := c.Snapshot().PredSites
	if !reflect.DeepEqual(got, want) {
		t.Errorf("PredSites = %+v, want %+v", got, want)
	}
	// JSON round-trips the attribution exactly.
	var buf bytes.Buffer
	if err := WriteJSON(&buf, c.Snapshot()); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	back, err := ReadJSON(&buf)
	if err != nil {
		t.Fatalf("ReadJSON: %v", err)
	}
	if !reflect.DeepEqual(back.PredSites, want) {
		t.Errorf("PredSites after JSON = %+v, want %+v", back.PredSites, want)
	}
}
