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

// WriteHeatmapCSV writes the snapshot's address-space occupancy heatmap
// as CSV: a header row (clock, extent, then one column per bin), one row
// per sampled timeline point, each bin cell holding the live-block bytes
// that fall in it. A nil or empty heatmap yields a header-only file, so
// "no rows" and "malformed file" stay distinguishable downstream.
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
