package serve

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"subsim/internal/obs"
	"subsim/internal/obs/timeline"
)

// timelinePlane builds a plane over a tracer whose timeline runs on a
// fake clock. The clock must be installed before EnableTimeline — the
// timeline captures it by value.
func timelinePlane() (*Plane, *obs.Tracer) {
	tr := obs.NewTracer()
	clock := int64(0)
	tr.SetClock(func() int64 { clock += 100; return clock })
	tl := tr.EnableTimeline(16)

	run := tr.Span("opimc")
	samp := run.Child("sampling")
	samp.End()

	tl.Worker(0).Record(timeline.PhaseGenerate, 0, 1000)
	tl.Worker(1).Record(timeline.PhaseGenerate, 100, 900)
	tl.Worker(0).Record(timeline.PhaseReduce, 1000, 1200)

	p := NewWithOptions(tr, Options{})
	return p, tr
}

func TestTimelineEndpoint(t *testing.T) {
	p, _ := timelinePlane()
	rec := get(t, p, "/timeline")
	if rec.Code != http.StatusOK {
		t.Fatalf("/timeline = %d: %s", rec.Code, rec.Body.String())
	}
	var sum timeline.Summary
	if err := json.Unmarshal(rec.Body.Bytes(), &sum); err != nil {
		t.Fatal(err)
	}
	if sum.Schema != timeline.SummarySchema || sum.SchemaVersion != timeline.SummarySchemaVersion {
		t.Errorf("summary not schema-stamped: %+v", sum)
	}
	if sum.Workers != 2 || sum.Records != 3 {
		t.Errorf("summary = %+v", sum)
	}
	if len(sum.Phases) != 2 || sum.Phases[0].Phase != "generate" || sum.Phases[1].Phase != "reduce" {
		t.Errorf("phases = %+v", sum.Phases)
	}
}

func TestTraceEndpoint(t *testing.T) {
	p, _ := timelinePlane()
	rec := get(t, p, "/trace")
	if rec.Code != http.StatusOK {
		t.Fatalf("/trace = %d: %s", rec.Code, rec.Body.String())
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("Content-Type = %q", ct)
	}
	if cd := rec.Header().Get("Content-Disposition"); !strings.Contains(cd, "subsim.trace.json") {
		t.Errorf("Content-Disposition = %q", cd)
	}

	var doc struct {
		DisplayTimeUnit string `json:"displayTimeUnit"`
		TraceEvents     []struct {
			Ph   string `json:"ph"`
			Tid  int    `json:"tid"`
			Name string `json:"name"`
			Args struct {
				Name string `json:"name"`
			} `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		t.Fatalf("/trace not valid JSON: %v", err)
	}
	// One coherent track per worker plus the phase-span track: thread
	// names for tid 1 (phases) and tids 2,3 (workers), span "X" events on
	// tid 1 (from the tracer's live span tree), record "X" events on the
	// worker tids.
	threads := map[int]string{}
	spanEvents, workerEvents := 0, 0
	for _, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "M":
			if ev.Name == "thread_name" {
				threads[ev.Tid] = ev.Args.Name
			}
		case "X":
			if ev.Tid == 1 {
				spanEvents++
			} else {
				workerEvents++
			}
		}
	}
	if threads[1] != "phases" || threads[2] != "worker 0" || threads[3] != "worker 1" {
		t.Errorf("thread names = %v", threads)
	}
	// The tracer has the root span and one child; both flatten to tid 1.
	if spanEvents != 2 {
		t.Errorf("span-track events = %d, want 2", spanEvents)
	}
	if workerEvents != 3 {
		t.Errorf("worker-track events = %d, want 3", workerEvents)
	}
}

// TestTimelineEndpointsWithoutTimeline pins the 404 contract: a tracer
// without EnableTimeline (and a nil tracer) yields 404, not 500.
func TestTimelineEndpointsWithoutTimeline(t *testing.T) {
	for name, p := range map[string]*Plane{
		"tracer-no-timeline": NewWithOptions(obs.NewTracer(), Options{}),
		"nil-tracer":         NewWithOptions(nil, Options{}),
	} {
		for _, path := range []string{"/timeline", "/trace"} {
			rec := get(t, p, path)
			if rec.Code != http.StatusNotFound {
				t.Errorf("%s %s = %d, want 404", name, path, rec.Code)
			}
		}
	}
}

// TestTraceDuringLiveRun scrapes /trace while workers are still
// recording, mirroring the mid-run scrape the plane exists for.
func TestTraceDuringLiveRun(t *testing.T) {
	p, tr := timelinePlane()
	tl := tr.Timeline()
	done := make(chan struct{})
	go func() {
		defer close(done)
		r := tl.Worker(2)
		for i := 0; i < 5000; i++ {
			base := int64(i) * 10
			r.Record(timeline.PhaseGenerate, base, base+5)
		}
	}()
	for i := 0; i < 20; i++ {
		rec := get(t, p, "/trace")
		if rec.Code != http.StatusOK {
			t.Fatalf("/trace mid-run = %d", rec.Code)
		}
		if !json.Valid(rec.Body.Bytes()) {
			t.Fatal("mid-run /trace not valid JSON")
		}
	}
	<-done
}
