package check

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"io"

	"repro/internal/trace"
)

// shrinkBudget bounds the number of candidate replays one Shrink call
// may perform, so shrinking a pathological case still terminates fast.
const shrinkBudget = 4000

// Shrink minimizes a failing trace by deterministic delta debugging:
// it repeatedly removes chunks of events (repairing legality, so a
// removed allocation takes its free with it), halving the chunk size
// down to single events, then shrinks the surviving allocation sizes.
// fails must report a non-nil error for the original trace; the returned
// trace still fails and is usually drastically smaller. The predicate is
// called on candidate traces only — never mutated shared state — so any
// replay-based checker is safe to pass.
func Shrink(tr *trace.Trace, fails func(*trace.Trace) error) *trace.Trace {
	cur := tr.Events
	budget := shrinkBudget
	attempt := func(events []trace.Event) bool {
		if budget <= 0 {
			return false
		}
		budget--
		return fails(withEvents(tr, events)) != nil
	}

	// ddmin over event subsets: try removing a window; on success stay
	// at the same offset (new content slid under it), on failure slide
	// on. A pass with no removal halves the window; convergence is a
	// removal-free pass at window 1.
	chunk := max(1, len(cur)/2)
	for budget > 0 {
		removed := false
		for start := 0; start < len(cur) && budget > 0; {
			end := min(start+chunk, len(cur))
			cand := repair(append(append([]trace.Event(nil), cur[:start]...), cur[end:]...))
			if len(cand) < len(cur) && attempt(cand) {
				cur = cand
				removed = true
			} else {
				start += chunk
			}
		}
		if !removed {
			if chunk == 1 {
				break
			}
			chunk = max(1, chunk/2)
		}
	}

	// Size minimization: try 1, then halvings, for each allocation.
	for i := range cur {
		if cur[i].Kind != trace.KindAlloc {
			continue
		}
		for _, smaller := range []int64{1, cur[i].Size / 16, cur[i].Size / 2} {
			if smaller <= 0 || smaller >= cur[i].Size {
				continue
			}
			cand := append([]trace.Event(nil), cur...)
			cand[i].Size = smaller
			if attempt(cand) {
				cur = cand
				break
			}
		}
	}
	return withEvents(tr, cur)
}

// withEvents returns a shallow trace copy holding the given events.
func withEvents(tr *trace.Trace, events []trace.Event) *trace.Trace {
	out := *tr
	out.Events = events
	return &out
}

// repair drops events that lost their partner: a free whose allocation
// was removed (or which became a double free) is dropped, as is any
// duplicate allocation. The result is always a legal trace if the input
// events came from one.
func repair(events []trace.Event) []trace.Event {
	out := events[:0]
	live := make(map[trace.ObjectID]bool)
	born := make(map[trace.ObjectID]bool)
	for _, ev := range events {
		switch ev.Kind {
		case trace.KindAlloc:
			if born[ev.Obj] {
				continue
			}
			born[ev.Obj] = true
			live[ev.Obj] = true
		case trace.KindFree:
			if !live[ev.Obj] {
				continue
			}
			live[ev.Obj] = false
		}
		out = append(out, ev)
	}
	return out
}

// Violation is a minimized conformance failure with everything needed to
// reproduce it without regenerating: the shrunk trace, the seed and case
// index that produced the original, and the underlying error.
type Violation struct {
	Err    error
	Seed   uint64
	Case   int
	Trace  *trace.Trace // shrunk
	Events int          // event count of the original failing trace
}

func (v *Violation) Error() string {
	return fmt.Sprintf("case %d (seed %d): %v (shrunk to %d of %d events)",
		v.Case, v.Seed, v.Err, len(v.Trace.Events), v.Events)
}

// WriteRepro renders a violation as a replayable artifact: the shrunk
// trace in the text format (save it and re-run with `lpcheck -repro
// FILE`) and the equivalent LPTRACE2 bytes hex-encoded, so the repro
// survives channels that mangle whitespace.
func (v *Violation) WriteRepro(w io.Writer) error {
	fmt.Fprintf(w, "violation: %v\n", v.Err)
	fmt.Fprintf(w, "seed %d case %d: shrunk repro, %d events (original %d)\n",
		v.Seed, v.Case, len(v.Trace.Events), v.Events)
	fmt.Fprintf(w, "replay: save the trace between the markers and run: lpcheck -repro FILE\n")
	fmt.Fprintf(w, "--- repro.trc ---\n")
	if err := trace.WriteText(w, v.Trace); err != nil {
		return err
	}
	fmt.Fprintf(w, "--- lptrace2 hex ---\n")
	var bin bytes.Buffer
	if err := trace.WriteBinary(&bin, v.Trace); err != nil {
		return err
	}
	fmt.Fprintf(w, "%s\n", hex.EncodeToString(bin.Bytes()))
	return nil
}
