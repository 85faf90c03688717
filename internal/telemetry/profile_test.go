package telemetry

import (
	"testing"
)

func TestBandProfilerNilSafety(t *testing.T) {
	if p := NewBandProfiler(nil); p != nil {
		t.Fatal("profiler over a nil registry should be nil")
	}
	var p *BandProfiler
	b := p.Band("physics")
	if b != nil {
		t.Fatal("nil profiler handed out a band")
	}
	b.Begin() // all no-ops
	if w, a := b.End(); w != 0 || a != 0 {
		t.Fatalf("nil band returned deltas: %d, %d", w, a)
	}
}

func TestBandProfilerRecordsSpans(t *testing.T) {
	reg := NewRegistry()
	p := NewBandProfiler(reg)
	b := p.Band("physics")

	var sink []byte
	for i := 0; i < 10; i++ {
		b.Begin()
		// Do measurable work: allocate ~64 KiB.
		sink = make([]byte, 64<<10)
		wall, _ := b.End()
		if wall == 0 {
			t.Fatal("zero wall delta for non-empty span")
		}
	}
	_ = sink

	if got := reg.Counter("band_spans_physics").Value(); got != 10 {
		t.Fatalf("band_spans_physics = %d, want 10", got)
	}
	if reg.Counter("band_wall_ns_physics").Value() == 0 {
		t.Fatal("no wall time recorded")
	}
	// 10 spans each allocating 64 KiB must show at least that much.
	if got := reg.Counter("band_alloc_bytes_physics").Value(); got < 10*64<<10 {
		t.Fatalf("band_alloc_bytes_physics = %d, want >= %d", got, 10*64<<10)
	}
	// Self-overhead was accounted and is separate from the band bill.
	if reg.Counter("profiler_self_ns").Value() == 0 {
		t.Fatal("no self-overhead recorded")
	}
}

func TestBandEndWithoutBegin(t *testing.T) {
	reg := NewRegistry()
	b := NewBandProfiler(reg).Band("fault")
	if w, a := b.End(); w != 0 || a != 0 {
		t.Fatalf("End without Begin returned deltas: %d, %d", w, a)
	}
	if reg.Counter("band_spans_fault").Value() != 0 {
		t.Fatal("span counted without Begin")
	}
	// Begin/End/End: the second End is a no-op.
	b.Begin()
	b.End()
	b.End()
	if got := reg.Counter("band_spans_fault").Value(); got != 1 {
		t.Fatalf("band_spans_fault = %d, want 1", got)
	}
}

// The zero Band times spans without profiling: End reports the wall
// delta since Begin, no allocation, and touches no registry.
func TestZeroBandTimesOnly(t *testing.T) {
	var b Band
	t0 := b.Begin()
	sink := make([]byte, 64<<10)
	_ = sink
	wall, alloc := b.End()
	if t0.IsZero() {
		t.Fatal("Begin returned the zero time")
	}
	if wall == 0 || alloc != 0 {
		t.Fatalf("zero band End = (%d, %d), want (>0, 0)", wall, alloc)
	}
	if w, a := b.End(); w != 0 || a != 0 {
		t.Fatalf("second End returned deltas: %d, %d", w, a)
	}
}
