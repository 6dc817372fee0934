package obs

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
)

// WriteJSON writes a snapshot as indented JSON (the `lpsim -obs` format),
// stamping the current schema version when the snapshot carries none.
func WriteJSON(w io.Writer, s *Snapshot) error {
	if s == nil {
		return fmt.Errorf("obs: nil snapshot")
	}
	if s.Schema == 0 {
		s.Schema = SnapshotSchema
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// ReadJSON reads a snapshot written by WriteJSON. Snapshots without a
// schema version, or with one this build does not understand, are
// rejected outright rather than decoded into zero values.
func ReadJSON(r io.Reader) (*Snapshot, error) {
	var s Snapshot
	dec := json.NewDecoder(r)
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("obs: decoding snapshot: %w", err)
	}
	if s.Schema == 0 {
		return nil, fmt.Errorf("obs: snapshot has no schema version (written by an older tool?); re-export it with this tool suite")
	}
	if s.Schema > SnapshotSchema {
		return nil, fmt.Errorf("obs: snapshot schema version %d is newer than this tool's %d; upgrade the tool suite", s.Schema, SnapshotSchema)
	}
	return &s, nil
}

var timelineHeader = []string{
	"clock", "live_bytes", "live_objects", "heap_bytes", "arena_occupancy",
	"pred_decided_objects", "pred_correct_objects",
	"pred_decided_bytes", "pred_correct_bytes",
	"heap_live_payload", "heap_header_bytes", "heap_internal_frag",
	"heap_external_frag", "heap_hole_bytes", "heap_free_spans",
	"heap_largest_free_span",
}

// WriteTimelineCSV writes the snapshot's timeline as CSV with a header
// row, one sample per line. An empty timeline yields a header-only file,
// not an error, so downstream plotting scripts see a well-formed (if
// empty) table.
func WriteTimelineCSV(w io.Writer, s *Snapshot) error {
	if s == nil {
		return fmt.Errorf("obs: nil snapshot")
	}
	cw := csv.NewWriter(w)
	if err := cw.Write(timelineHeader); err != nil {
		return err
	}
	for _, sm := range s.Timeline {
		rec := []string{
			strconv.FormatInt(sm.Clock, 10),
			strconv.FormatInt(sm.LiveBytes, 10),
			strconv.FormatInt(sm.LiveObjects, 10),
			strconv.FormatInt(sm.HeapBytes, 10),
			strconv.FormatFloat(sm.ArenaOccupancy, 'g', -1, 64),
			strconv.FormatInt(sm.PredDecidedObjects, 10),
			strconv.FormatInt(sm.PredCorrectObjects, 10),
			strconv.FormatInt(sm.PredDecidedBytes, 10),
			strconv.FormatInt(sm.PredCorrectBytes, 10),
			strconv.FormatInt(sm.HeapLivePayload, 10),
			strconv.FormatInt(sm.HeapHeaderBytes, 10),
			strconv.FormatInt(sm.HeapInternalFrag, 10),
			strconv.FormatInt(sm.HeapExternalFrag, 10),
			strconv.FormatInt(sm.HeapHoleBytes, 10),
			strconv.FormatInt(sm.HeapFreeSpans, 10),
			strconv.FormatInt(sm.HeapLargestFreeSpan, 10),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadTimelineCSV reads samples written by WriteTimelineCSV.
func ReadTimelineCSV(r io.Reader) ([]Sample, error) {
	cr := csv.NewReader(r)
	recs, err := cr.ReadAll()
	if err != nil {
		return nil, fmt.Errorf("obs: reading timeline CSV: %w", err)
	}
	if len(recs) == 0 {
		return nil, fmt.Errorf("obs: timeline CSV missing header")
	}
	if len(recs[0]) != len(timelineHeader) || recs[0][0] != timelineHeader[0] {
		return nil, fmt.Errorf("obs: unexpected timeline CSV header %v", recs[0])
	}
	out := make([]Sample, 0, len(recs)-1)
	for i, rec := range recs[1:] {
		var sm Sample
		var err error
		ints := []*int64{
			&sm.Clock, &sm.LiveBytes, &sm.LiveObjects, &sm.HeapBytes, nil,
			&sm.PredDecidedObjects, &sm.PredCorrectObjects,
			&sm.PredDecidedBytes, &sm.PredCorrectBytes,
			&sm.HeapLivePayload, &sm.HeapHeaderBytes, &sm.HeapInternalFrag,
			&sm.HeapExternalFrag, &sm.HeapHoleBytes, &sm.HeapFreeSpans,
			&sm.HeapLargestFreeSpan,
		}
		for col, dst := range ints {
			if dst == nil {
				sm.ArenaOccupancy, err = strconv.ParseFloat(rec[col], 64)
			} else {
				*dst, err = strconv.ParseInt(rec[col], 10, 64)
			}
			if err != nil {
				return nil, fmt.Errorf("obs: timeline CSV row %d: %w", i+2, err)
			}
		}
		out = append(out, sm)
	}
	return out, nil
}

// WriteHeatmapCSV writes the snapshot's address-space occupancy heatmap
// as CSV: a header row (clock, extent, then one column per bin), one row
// per sampled timeline point, each bin cell holding the live-block bytes
// that fall in it. A nil or empty heatmap yields a header-only file —
// matching the timeline-CSV convention — so "no rows" and "malformed
// file" stay distinguishable downstream.
func WriteHeatmapCSV(w io.Writer, s *Snapshot) error {
	if s == nil {
		return fmt.Errorf("obs: nil snapshot")
	}
	bins := 0
	if s.Heatmap != nil {
		bins = s.Heatmap.Bins
	}
	header := make([]string, 0, 2+bins)
	header = append(header, "clock", "extent")
	for i := 0; i < bins; i++ {
		header = append(header, "bin"+strconv.Itoa(i))
	}
	cw := csv.NewWriter(w)
	if err := cw.Write(header); err != nil {
		return err
	}
	if s.Heatmap != nil {
		for _, row := range s.Heatmap.Rows {
			rec := make([]string, 0, 2+bins)
			rec = append(rec,
				strconv.FormatInt(row.Clock, 10),
				strconv.FormatInt(row.Extent, 10))
			for i := 0; i < bins; i++ {
				var c int64
				if i < len(row.Cells) {
					c = row.Cells[i]
				}
				rec = append(rec, strconv.FormatInt(c, 10))
			}
			if err := cw.Write(rec); err != nil {
				return err
			}
		}
	}
	cw.Flush()
	return cw.Error()
}
