package timeline

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestWriteTraceGolden pins the exact bytes of the trace-event export
// for a fake-clock timeline: metadata first, then phase-track spans,
// then per-worker records, with fixed field order and fixed-precision
// microsecond timestamps. Regenerate with -update after intentional
// format changes.
func TestWriteTraceGolden(t *testing.T) {
	tl := New(16, fakeClock())
	w0, w1 := tl.Worker(0), tl.Worker(1)
	w0.Record(PhaseGenerate, 0, 1500)
	w0.Record(PhaseGenerate, 1500, 2250)
	w1.Record(PhaseGenerate, 100, 1900)
	w0.Record(PhaseReduce, 2300, 2400)
	w1.Record(PhaseReduce, 2300, 2450)
	w0.Record(PhaseIndexBuild, 2500, 3000)
	w0.Record(PhaseSelect, 3100, 4000)
	spans := []Span{
		{Name: "generate", StartNS: 0, EndNS: 2250},
		{Name: "reduce", StartNS: 2300, EndNS: 2450},
		{Name: "select", StartNS: 2500, EndNS: 4000},
	}

	var buf bytes.Buffer
	if err := WriteTrace(&buf, tl.Snapshot(), spans); err != nil {
		t.Fatal(err)
	}
	got := buf.Bytes()

	golden := filepath.Join("testdata", "trace.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("trace output diverged from golden:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// TestWriteTraceStructure parses the export as JSON and checks the
// Perfetto-facing invariants: loadable document, named process and
// per-worker threads, every record on its worker's track.
func TestWriteTraceStructure(t *testing.T) {
	tl := New(16, fakeClock())
	tl.Worker(0).Record(PhaseGenerate, 0, 1000)
	tl.Worker(1).Record(PhaseReduce, 1000, 2000)
	var buf bytes.Buffer
	if err := WriteTrace(&buf, tl.Snapshot(), []Span{{Name: "run", StartNS: 0, EndNS: 2000}}); err != nil {
		t.Fatal(err)
	}

	var doc struct {
		DisplayTimeUnit string `json:"displayTimeUnit"`
		TraceEvents     []struct {
			Ph   string  `json:"ph"`
			Pid  int     `json:"pid"`
			Tid  int     `json:"tid"`
			Name string  `json:"name"`
			Ts   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
			Args struct {
				Name string `json:"name"`
			} `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	if doc.DisplayTimeUnit != "ns" {
		t.Errorf("displayTimeUnit = %q", doc.DisplayTimeUnit)
	}
	threads := map[int]string{}
	var complete int
	for _, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "M":
			if ev.Name == "thread_name" {
				threads[ev.Tid] = ev.Args.Name
			}
		case "X":
			complete++
			if ev.Dur < 0 {
				t.Errorf("negative duration on %q", ev.Name)
			}
		default:
			t.Errorf("unexpected event type %q", ev.Ph)
		}
	}
	// tid 1 = phases track, tids 2,3 = the two workers.
	if threads[spanTrackTID] != "phases" {
		t.Errorf("tid 1 named %q", threads[spanTrackTID])
	}
	for w := 0; w < 2; w++ {
		want := "worker " + string(rune('0'+w))
		if got := threads[workerTIDOff+w]; got != want {
			t.Errorf("tid %d named %q, want %q", workerTIDOff+w, got, want)
		}
	}
	if complete != 3 { // 1 span + 2 records
		t.Errorf("got %d complete events, want 3", complete)
	}
}

func TestMicroString(t *testing.T) {
	cases := map[int64]string{
		0:          "0.000",
		1:          "0.001",
		999:        "0.999",
		1000:       "1.000",
		1500:       "1.500",
		12345678:   "12345.678",
		-1500:      "-1.500",
		1000000000: "1000000.000",
	}
	for ns, want := range cases {
		if got := microString(ns); got != want {
			t.Errorf("microString(%d) = %q, want %q", ns, got, want)
		}
	}
}

func TestWriteTraceEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteTrace(&buf, Snapshot{}, nil); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Fatalf("empty export invalid JSON: %s", buf.String())
	}
	if !strings.Contains(buf.String(), `"process_name"`) {
		t.Error("empty export lost the process metadata")
	}
}
