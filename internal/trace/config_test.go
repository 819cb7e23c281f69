package trace

import (
	"bytes"
	"fmt"
	"testing"
)

// emitWorkload records a fixed event mix: multiple ops (so sampling has
// something to drop), args, spans and instants.
func emitWorkload(t *Tracer) {
	for i := 0; i < 50; i++ {
		op := t.NewOpID()
		sid := t.NewSpanID()
		ctx := Ctx{Op: op}
		t.SpanCtx(ctx, sid, "rpc", "call", fmt.Sprintf("srv%d", i%4),
			int64(i)*1000, int64(i)*1000+500,
			I("bytes", int64(i)), S("peer", "c0"))
		t.InstantCtx(Ctx{Op: op, Parent: sid}, "token", "grant", "mgr", int64(i)*1000+100)
	}
	t.Instant("engine", "sample", "engine", 99, I("fired", 12))
}

// export renders a tracer's retained state for comparison.
func export(t *testing.T, tr *Tracer) string {
	t.Helper()
	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil {
		t.Fatalf("WriteJSONL: %v", err)
	}
	return buf.String()
}

// TestConfigureModes: each retention/sampling mode set through Configure
// behaves as documented against a plain buffering tracer fed the same
// workload. (bounded_test.go covers each mode in depth.)
func TestConfigureModes(t *testing.T) {
	full := New()
	emitWorkload(full)
	want := export(t, full)

	t.Run("buffer", func(t *testing.T) {
		b := New()
		b.Configure(Config{SampleOneIn: 1})
		emitWorkload(b)
		if export(t, b) != want {
			t.Fatal("SampleOneIn 1 export differs from an unsampled one")
		}
	})

	t.Run("sampled", func(t *testing.T) {
		a, b := New(), New()
		a.Configure(Config{SampleOneIn: 4})
		b.Configure(Config{SampleOneIn: 4})
		emitWorkload(a)
		emitWorkload(b)
		if export(t, a) != export(t, b) {
			t.Fatal("identically sampled exports differ")
		}
		if a.TotalEmitted() != b.TotalEmitted() || a.TotalEmitted() >= full.TotalEmitted() {
			t.Fatalf("emitted %d and %d of %d", a.TotalEmitted(), b.TotalEmitted(), full.TotalEmitted())
		}
	})

	t.Run("stream", func(t *testing.T) {
		var w bytes.Buffer
		b := New()
		b.Configure(Config{Stream: &w})
		emitWorkload(b)
		if err := b.FlushStream(); err != nil {
			t.Fatal(err)
		}
		if w.String() != want {
			t.Fatal("streamed bytes differ from the buffered export")
		}
	})

	t.Run("ring", func(t *testing.T) {
		b := New()
		b.Configure(Config{Ring: 16})
		emitWorkload(b)
		if n := len(b.Events()); n != 16 {
			t.Fatalf("ring retained %d, want 16", n)
		}
	})

	t.Run("discard+observer", func(t *testing.T) {
		var n uint64
		b := New()
		b.Configure(Config{Discard: true, Observer: func(e Event, args []Arg) { n++ }})
		emitWorkload(b)
		if n != full.TotalEmitted() || n == 0 {
			t.Fatalf("observer saw %d events, want %d", n, full.TotalEmitted())
		}
		if b.Len() != 0 {
			t.Fatal("discard mode retained events")
		}
	})
}

// TestConfigureReplaces: Configure sets the whole configuration, so a
// second call with the zero Config drops the earlier sampling, observer
// and ring.
func TestConfigureReplaces(t *testing.T) {
	var seen int
	tr := New()
	tr.Configure(Config{SampleOneIn: 4, Ring: 8, Observer: func(e Event, args []Arg) { seen++ }})
	tr.Configure(Config{})
	emitWorkload(tr)
	full := New()
	emitWorkload(full)
	if export(t, tr) != export(t, full) {
		t.Fatal("zero Config did not restore the buffer-everything tracer")
	}
	if seen != 0 || tr.SampleOneIn() != 0 {
		t.Fatalf("observer saw %d events, sampling %d after reconfigure", seen, tr.SampleOneIn())
	}
}

// TestConfigPrecedence: stream wins over ring wins over discard, matching
// the documented resolution order.
func TestConfigPrecedence(t *testing.T) {
	var w bytes.Buffer
	tr := New()
	tr.Configure(Config{Stream: &w, Ring: 8, Discard: true})
	emitWorkload(tr)
	if err := tr.FlushStream(); err != nil {
		t.Fatal(err)
	}
	if w.Len() == 0 {
		t.Fatal("stream did not win precedence")
	}
	if tr.Len() != 0 {
		t.Fatal("stream mode retained events")
	}

	tr2 := New()
	tr2.Configure(Config{Ring: 8, Discard: true})
	emitWorkload(tr2)
	if n := len(tr2.Events()); n != 8 {
		t.Fatalf("ring did not win precedence over discard: %d events", n)
	}
}
