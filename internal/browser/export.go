package browser

import (
	"encoding/json"
	"io"

	"mobileqoe/internal/trace"
)

// Trace export — the simulated analogue of saving a DevTools/WProf trace,
// so external tooling (plotting, trace viewers) can consume load waterfalls.

// jsonActivity is the export schema for one activity.
type jsonActivity struct {
	ID         int     `json:"id"`
	Kind       string  `json:"kind"`
	Name       string  `json:"name"`
	Resource   int     `json:"resource"`
	StartMs    float64 `json:"start_ms"`
	EndMs      float64 `json:"end_ms"`
	Cycles     float64 `json:"cycles,omitempty"`
	Bytes      int64   `json:"bytes,omitempty"`
	MainThread bool    `json:"main_thread"`
	Deps       []int   `json:"deps,omitempty"`
}

type jsonTrace struct {
	Page       string         `json:"page"`
	PLTMs      float64        `json:"plt_ms"`
	Activities []jsonActivity `json:"activities"`
}

// WriteJSON emits the full trace as a single JSON document.
func (r Result) WriteJSON(w io.Writer) error {
	t := jsonTrace{PLTMs: float64(r.PLT) / 1e6}
	if r.Page != nil {
		t.Page = r.Page.Name
	}
	for _, a := range r.Activities {
		t.Activities = append(t.Activities, jsonActivity{
			ID: a.ID, Kind: string(a.Kind), Name: a.Name, Resource: a.Resource,
			StartMs: float64(a.Start) / 1e6, EndMs: float64(a.End) / 1e6,
			Cycles: a.Cycles, Bytes: int64(a.Bytes), MainThread: a.MainThread,
			Deps: a.Deps,
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(t)
}

// EmitTraceWith replays the recorded activity waterfall into tr under pid as
// spans in category "browser": main-thread activities on a "browser:main"
// lane, image decodes on "browser:raster", fetches on "browser:net", plus a
// "load-event" instant at PLT. Activities are already complete when this
// runs, so the load itself pays no tracing cost. A nil tracer is a no-op.
//
// Note the replayed spans cover [exec request, completion], so they include
// queueing behind other work on the same simulated thread — which is why
// spans on browser:* lanes may legitimately overlap (the trace invariant
// checker exempts them from the serialization rule).
//
// critMs maps activity IDs to their critical-path segment in milliseconds
// (see wprof.PathStats.Segments), emitted as a "crit_ms" span annotation.
// Because segments telescope, the crit_ms values of one load sum exactly to
// its PLT — the property the differential trace profiler relies on to
// attribute an ePLT gap activity by activity. A nil critMs emits no
// annotations.
func (r Result) EmitTraceWith(tr *trace.Tracer, pid int, critMs map[int]float64) {
	if tr == nil || len(r.Activities) == 0 {
		return
	}
	main := tr.Thread(pid, "browser:main")
	raster := tr.Thread(pid, "browser:raster")
	net := tr.Thread(pid, "browser:net")
	for _, a := range r.Activities {
		tid := net
		switch {
		case a.MainThread:
			tid = main
		case a.Kind.IsCompute():
			tid = raster
		}
		var args []trace.Arg
		if a.Cycles > 0 {
			args = append(args, trace.Arg{Key: "cycles", Val: a.Cycles})
		}
		if a.Bytes > 0 {
			args = append(args, trace.Arg{Key: "bytes", Val: float64(a.Bytes)})
		}
		if c, ok := critMs[a.ID]; ok {
			args = append(args, trace.Arg{Key: "crit_ms", Val: c})
		}
		if a.Failed {
			// Per-resource failure span: the abandoned fetch's whole
			// retry window, flagged for trace consumers (tracediff shows
			// exactly which resources a degraded load gave up on).
			args = append(args, trace.Arg{Key: "failed", Val: 1})
		}
		tr.Span("browser", a.Name, pid, tid, a.Start, a.End, args...)
	}
	loadArgs := []trace.Arg{{Key: "plt_ms", Val: float64(r.PLT) / 1e6}}
	if r.Degraded {
		loadArgs = append(loadArgs, trace.Arg{Key: "degraded", Val: 1})
	}
	tr.Instant("browser", "load-event", pid, main, r.StartedAt+r.PLT, loadArgs...)
}
