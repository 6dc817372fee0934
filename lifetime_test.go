package lifetime_test

import (
	"bytes"
	"math"
	"testing"

	lifetime "repro"
)

// TestPublicWorkflow exercises the documented quick-start path end to end
// through the public facade only.
func TestPublicWorkflow(t *testing.T) {
	m := lifetime.ModelByName("gawk")
	if m == nil {
		t.Fatal("gawk model missing")
	}
	train, err := lifetime.GenerateTrace(m, lifetime.TrainInput, 1, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	test, err := lifetime.GenerateTrace(m, lifetime.TestInput, 2, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	pred, err := lifetime.Train(train, lifetime.DefaultProfileConfig())
	if err != nil {
		t.Fatal(err)
	}
	ev, err := lifetime.Evaluate(test, pred)
	if err != nil {
		t.Fatal(err)
	}
	if ev.PredictedShortPct() < 90 {
		t.Fatalf("gawk true prediction %.1f%%, want ~99%%", ev.PredictedShortPct())
	}
	res, err := lifetime.Simulate(test, lifetime.NewArenaAllocator(), pred)
	if err != nil {
		t.Fatal(err)
	}
	if res.ArenaBytePct < 80 {
		t.Fatalf("gawk arena bytes %.1f%%", res.ArenaBytePct)
	}
	if res.MaxHeap < 64<<10 {
		t.Fatalf("arena heap %d below arena area", res.MaxHeap)
	}
}

func TestPublicModels(t *testing.T) {
	ms := lifetime.Models()
	if len(ms) != 5 {
		t.Fatalf("Models() returned %d models", len(ms))
	}
	if lifetime.ModelByName("nope") != nil {
		t.Fatal("unknown model resolved")
	}
}

func TestPublicTraceIO(t *testing.T) {
	m := lifetime.ModelByName("perl")
	tr, err := lifetime.GenerateTrace(m, lifetime.TrainInput, 3, 0.002)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := lifetime.WriteTrace(&buf, tr); err != nil {
		t.Fatal(err)
	}
	got, err := lifetime.ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Events) != len(tr.Events) {
		t.Fatalf("round trip lost events: %d vs %d", len(got.Events), len(tr.Events))
	}
	var tbuf bytes.Buffer
	if err := lifetime.WriteTraceText(&tbuf, tr); err != nil {
		t.Fatal(err)
	}
	got2, err := lifetime.ReadTraceText(&tbuf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got2.Events) != len(tr.Events) {
		t.Fatal("text round trip lost events")
	}
}

func TestPublicRecorderToPredictor(t *testing.T) {
	// Record a tiny program, train on it, and check the hot site is
	// predicted while the immortal one is not.
	run := func(input string, n int) *lifetime.Trace {
		rec := lifetime.NewRecorder("toy", input)
		main := rec.Enter("main")
		for i := 0; i < n; i++ {
			loop := rec.Enter("loop")
			id := rec.Malloc(16)
			if err := rec.Free(id); err != nil {
				t.Fatal(err)
			}
			rec.Exit(loop)
			if i%10 == 0 {
				g := rec.Enter("global")
				rec.Malloc(64) // never freed
				rec.Exit(g)
			}
		}
		rec.Exit(main)
		tr := rec.Trace()
		// Push total volume well past the 32KB threshold so the
		// immortal site is observably long-lived.
		pad := rec.Enter("main")
		_ = pad
		return tr
	}
	train := run("train", 5000)
	pred, err := lifetime.Train(train, lifetime.DefaultProfileConfig())
	if err != nil {
		t.Fatal(err)
	}
	test := run("test", 3000)
	ev, err := lifetime.Evaluate(test, pred)
	if err != nil {
		t.Fatal(err)
	}
	if ev.PredictedShortPct() < 50 {
		t.Fatalf("hot loop site not predicted: %.1f%%", ev.PredictedShortPct())
	}
	if ev.ErrorPct() != 0 {
		t.Fatalf("unexpected error bytes: %.2f%%", ev.ErrorPct())
	}
}

func TestPublicQuantiles(t *testing.T) {
	m := lifetime.ModelByName("cfrac")
	tr, err := lifetime.GenerateTrace(m, lifetime.TrainInput, 5, 0.005)
	if err != nil {
		t.Fatal(err)
	}
	objs, err := lifetime.Annotate(tr)
	if err != nil {
		t.Fatal(err)
	}
	qs := lifetime.LifetimeQuantiles(objs, []float64{0.25, 0.5, 0.75}, true)
	for i := 1; i < len(qs); i++ {
		if qs[i] < qs[i-1] || math.IsNaN(qs[i]) {
			t.Fatalf("bad quantiles %v", qs)
		}
	}
	st, err := lifetime.ComputeStats(tr)
	if err != nil {
		t.Fatal(err)
	}
	if st.TotalObjects != int64(len(objs)) {
		t.Fatal("stats/annotate disagree")
	}
}

func TestPublicCostModel(t *testing.T) {
	m := lifetime.ModelByName("gawk")
	tr, err := lifetime.GenerateTrace(m, lifetime.TestInput, 7, 0.005)
	if err != nil {
		t.Fatal(err)
	}
	pred, err := lifetime.Train(tr, lifetime.DefaultProfileConfig())
	if err != nil {
		t.Fatal(err)
	}
	res, err := lifetime.Simulate(tr, lifetime.NewArenaAllocator(), pred)
	if err != nil {
		t.Fatal(err)
	}
	len4 := lifetime.CostArenaLen4(res.Counts)
	cce := lifetime.CostArenaCCE(res.Counts, m.CallsPerAlloc)
	if len4.Alloc <= 18 {
		t.Fatalf("len4 alloc cost %.1f must exceed the 18-instruction check", len4.Alloc)
	}
	if cce.Free != len4.Free {
		t.Fatal("prediction scheme must not change free cost")
	}
}

func TestPublicMergeTraces(t *testing.T) {
	mk := func(fn string) *lifetime.Trace {
		rec := lifetime.NewRecorder("sharded", "train")
		f := rec.Enter(fn)
		for i := 0; i < 50; i++ {
			id := rec.Malloc(16)
			if err := rec.Free(id); err != nil {
				t.Fatal(err)
			}
		}
		rec.Exit(f)
		return rec.Trace()
	}
	merged, err := lifetime.MergeTraces([]*lifetime.Trace{mk("worker1"), mk("worker2")})
	if err != nil {
		t.Fatal(err)
	}
	st, err := lifetime.ComputeStats(merged)
	if err != nil {
		t.Fatal(err)
	}
	if st.TotalObjects != 100 {
		t.Fatalf("merged objects = %d", st.TotalObjects)
	}
	// The merged trace trains like any other.
	if _, err := lifetime.Train(merged, lifetime.DefaultProfileConfig()); err != nil {
		t.Fatal(err)
	}
}
