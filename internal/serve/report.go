package serve

// GET /v1/report: the full paper evaluation — Tables 6-1 through 6-3 and
// Figures 6-2 through 6-4 — as one text document, byte-identical to spdbench
// stdout for the same configuration. The CI serve-smoke job byte-diffs the
// two; determinism across tiers, caches and recovered faults is the repo's
// core invariant and this endpoint is where a service client observes it.
//
// A report is one admission slot like any eval (it is the most expensive
// request the daemon serves), runs on the request context — a disconnected
// client cancels the sweep and the scheduler skips its queued cells — and
// is rendered into a buffer first so a mid-sweep failure is a typed error,
// never a truncated 200.

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"strings"

	"specdis/internal/bench"
	"specdis/internal/exper"
	"specdis/internal/resilience"
	"specdis/internal/sim"
)

// handleReport serves GET /v1/report. Query parameters:
//
//   - bench: restrict to one suite benchmark (default: the full suite);
//   - only: emit a single section (table61, table62, table63, fig62, fig63,
//     fig64; default: all six in spdbench order);
//   - exec: execution tier (native, bcode, tree; default: the server's).
func (s *Server) handleReport(w http.ResponseWriter, r *http.Request) {
	s.met.requests.Add(1)
	done, ok := s.begin(w)
	if !ok {
		return
	}
	defer done()
	s.met.reports.Add(1)

	q := r.URL.Query()
	benches := bench.All()
	if name := q.Get("bench"); name != "" {
		b := bench.ByName(name)
		if b == nil {
			writeError(w, badRequest(fmt.Sprintf("unknown benchmark %q", name)))
			return
		}
		benches = []*bench.Benchmark{b}
	}
	// The sections are exper's reports that are not extras, in print order.
	only := q.Get("only")
	var sections []exper.Report
	var names []string
	for _, rep := range exper.Reports {
		if rep.Extra {
			continue
		}
		names = append(names, rep.Name)
		if only == "" || only == rep.Name {
			sections = append(sections, rep)
		}
	}
	if len(sections) == 0 {
		last := len(names) - 1
		writeError(w, badRequest(fmt.Sprintf("unknown section %q (want %s or %s)", only, strings.Join(names[:last], ", "), names[last])))
		return
	}
	exec := s.exec
	if name := q.Get("exec"); name != "" {
		mode, ok := sim.ParseExecMode(name)
		if !ok {
			writeError(w, badRequest(fmt.Sprintf("unknown exec tier %q (want native, bcode or tree)", name)))
			return
		}
		exec = mode
	}

	// The report shares the eval path's budgets: the server's fuel cap and
	// deadline cap bound the sweep, and the client's disconnect cancels it.
	if apiErr := s.adm.acquire(r.Context()); apiErr != nil {
		if apiErr.Status == http.StatusTooManyRequests {
			s.met.admissionRejections.Add(1)
		}
		writeError(w, apiErr)
		return
	}
	defer s.adm.release()

	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.DeadlineCap)
	defer cancel()
	eng := s.runner(ctx, exec, s.cfg.FuelCap, benches...)

	var buf bytes.Buffer
	var err error
	for _, rep := range sections {
		if err = render(eng, rep, &buf); err != nil {
			break
		}
		fmt.Fprintln(&buf)
	}
	st := eng.Stats()
	st.Resilience.Add(unregistered(err))
	s.met.absorb(st)
	if err != nil {
		s.met.evalErrors.Add(1)
		writeError(w, errorFor(err))
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	_, _ = w.Write(buf.Bytes())
}

// render writes one section under the report's last-resort recover, as in
// evaluate: a panic that escaped the engine's cell boundaries fails the
// report as a panic of the section, named report/SECTION/m0.
func render(eng *exper.Runner, rep exper.Report, buf *bytes.Buffer) (err error) {
	defer resilience.Recover(&err, "report", rep.Name, 0, serveStage)
	return rep.Render(eng, buf)
}
