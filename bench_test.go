// Benchmarks regenerating the paper's evaluation numbers (§5.3, Fig. 5).
// Each benchmark corresponds to an experiment in DESIGN.md's index:
//
//	BenchmarkPageGeneration   E2  (paper: 158 ms → 180 ms, +14%)
//	BenchmarkEventLatency     E3  (paper: 73 ms → 84 ms, +15%)
//	BenchmarkThroughput       E6  (paper: 4455 → 3817 events/s, −17%)
//	BenchmarkFrontendPhases   E4  (Fig. 5 frontend break-down, reported
//	                               as ns/op metrics per phase)
//	BenchmarkBackendPhases    E5  (Fig. 5 backend break-down)
//
// The remaining ablation benchmarks isolate the mechanisms the paper's
// design discussion calls out: label operations, selector matching, STOMP
// framing, taint propagation and template rendering.
package safeweb_test

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"regexp"
	"testing"

	"safeweb/internal/bench"
	"safeweb/internal/label"
	"safeweb/internal/maindb"
	"safeweb/internal/mdt"
	"safeweb/internal/selector"
	"safeweb/internal/taint"
	"safeweb/internal/template"
)

// benchWorkload is a reduced workload so `go test -bench=.` completes in
// minutes; cmd/safeweb-bench runs the paper-sized versions.
func benchWorkload() bench.Workload {
	return bench.Workload{Patients: 60, Requests: 100, AuthWork: 500, Seed: 7}
}

// deployFrontBench builds a deployment and returns a front-page request
// runner.
func deployFrontBench(b *testing.B, tracking bool) func() {
	b.Helper()
	d, err := mdt.Deploy(mdt.DeployConfig{
		Registry:        maindb.Config{Seed: 7, Patients: 60},
		DisableTracking: !tracking,
		AuthWork:        500,
	})
	if err != nil {
		b.Fatalf("Deploy: %v", err)
	}
	b.Cleanup(d.Stop)
	if err := d.ImportAll(); err != nil {
		b.Fatalf("ImportAll: %v", err)
	}
	user := ""
	for _, m := range d.Registry.MDTs() {
		if docs, _ := d.DMZDB.Query(mdt.ViewRecordsByMDT, m.ID); len(docs) > 0 {
			user = m.ID
			break
		}
	}
	if user == "" {
		b.Fatal("no records")
	}
	req := httptest.NewRequest(http.MethodGet, "/", nil)
	req.SetBasicAuth(user, d.Creds[user])
	return func() {
		rec := httptest.NewRecorder()
		d.Frontend.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			b.Fatalf("front page: %d", rec.Code)
		}
	}
}

// BenchmarkPageGeneration is E2: MDT front-page generation time with and
// without the taint-tracking library.
func BenchmarkPageGeneration(b *testing.B) {
	for _, mode := range []struct {
		name     string
		tracking bool
	}{{"baseline", false}, {"safeweb", true}} {
		b.Run(mode.name, func(b *testing.B) {
			run := deployFrontBench(b, mode.tracking)
			run() // warm
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				run()
			}
		})
	}
}

// BenchmarkEventLatency is E3: per-event producer→storage latency.
func BenchmarkEventLatency(b *testing.B) {
	for _, mode := range []struct {
		name     string
		tracking bool
	}{{"baseline", false}, {"safeweb", true}} {
		b.Run(mode.name, func(b *testing.B) {
			p, done, err := bench.NewPipelineForBench(false)
			if err != nil {
				b.Fatalf("pipeline: %v", err)
			}
			defer p.Stop()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := p.Publish(i, mode.tracking); err != nil {
					b.Fatalf("publish: %v", err)
				}
				<-done
			}
		})
	}
}

// BenchmarkThroughput is E6: maximum-rate producer→consumer throughput;
// events/s is reported as a metric.
func BenchmarkThroughput(b *testing.B) {
	for _, mode := range []struct {
		name     string
		tracking bool
	}{{"baseline", false}, {"safeweb", true}} {
		b.Run(mode.name, func(b *testing.B) {
			p, done, err := bench.NewPipelineForBench(false)
			if err != nil {
				b.Fatalf("pipeline: %v", err)
			}
			defer p.Stop()
			b.ResetTimer()
			go func() {
				for i := 0; i < b.N; i++ {
					_ = p.Publish(i, mode.tracking)
				}
			}()
			for i := 0; i < b.N; i++ {
				<-done
			}
			b.StopTimer()
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "events/s")
		})
	}
}

// BenchmarkFrontendPhases is E4: the Fig. 5 frontend break-down, reported
// as per-phase metrics.
func BenchmarkFrontendPhases(b *testing.B) {
	fb, err := bench.MeasureFrontendBreakdown(benchWorkload())
	if err != nil {
		b.Fatalf("breakdown: %v", err)
	}
	b.ReportMetric(float64(fb.Auth.Nanoseconds()), "auth-ns")
	b.ReportMetric(float64(fb.PrivFetch.Nanoseconds()), "privfetch-ns")
	b.ReportMetric(float64(fb.Template.Nanoseconds()), "template-ns")
	b.ReportMetric(float64(fb.LabelPropagation.Nanoseconds()), "labelprop-ns")
	b.ReportMetric(float64(fb.Other.Nanoseconds()), "other-ns")
}

// BenchmarkBackendPhases is E5: the Fig. 5 backend break-down.
func BenchmarkBackendPhases(b *testing.B) {
	bb, err := bench.MeasureBackendBreakdown(benchWorkload())
	if err != nil {
		b.Fatalf("breakdown: %v", err)
	}
	b.ReportMetric(float64(bb.Processing.Nanoseconds()), "processing-ns")
	b.ReportMetric(float64(bb.Serialisation.Nanoseconds()), "serialisation-ns")
	b.ReportMetric(float64(bb.LabelManagement.Nanoseconds()), "labelmgmt-ns")
}

// ---- ablation micro-benchmarks ----

// BenchmarkLabelDerive isolates sticky/fragile label composition.
func BenchmarkLabelDerive(b *testing.B) {
	a := label.NewSet(label.Conf("a"), label.Conf("b"), label.Int("i"))
	c := label.NewSet(label.Conf("b"), label.Conf("c"), label.Int("i"))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = label.Derive(a, c)
	}
}

// BenchmarkLabelSetParse isolates wire-format label parsing.
func BenchmarkLabelSetParse(b *testing.B) {
	wire := label.NewSet(
		label.Conf("ecric.org.uk/mdt/7"),
		label.Conf("ecric.org.uk/patient/33812769"),
		label.Int("ecric.org.uk/mdt"),
	).String()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := label.ParseSet(wire); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkClearanceCheck isolates the broker's per-delivery privilege
// check.
func BenchmarkClearanceCheck(b *testing.B) {
	privs := label.NewPrivileges().
		Grant(label.Clearance, label.MustParsePattern("label:conf:ecric.org.uk/*"))
	set := label.NewSet(label.Conf("ecric.org.uk/mdt/7"), label.Conf("ecric.org.uk/patient/1"))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if !privs.HasAll(label.Clearance, set) {
			b.Fatal("denied")
		}
	}
}

// BenchmarkSelectorMatch isolates content-based subscription matching.
func BenchmarkSelectorMatch(b *testing.B) {
	sel, err := selector.Parse("type = 'cancer' AND stage BETWEEN 1 AND 3 AND hospital LIKE 'hospital-%'")
	if err != nil {
		b.Fatal(err)
	}
	attrs := map[string]string{"type": "cancer", "stage": "2", "hospital": "hospital-1"}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if !sel.MatchesAttrs(attrs) {
			b.Fatal("no match")
		}
	}
}

// BenchmarkSelectorParse isolates selector compilation.
func BenchmarkSelectorParse(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := selector.Parse("type = 'cancer' AND stage > 1 OR site IN ('C50.9', 'C18.2')"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStompRoundTrip isolates wire framing.
func BenchmarkStompRoundTrip(b *testing.B) {
	res := bench.StompRoundTripForBench(b.N)
	if res != nil {
		b.Fatal(res)
	}
}

// BenchmarkTaintConcat isolates label propagation through string
// concatenation (the paper's canonical taint operation).
func BenchmarkTaintConcat(b *testing.B) {
	x := taint.NewString("patient: ", label.Conf("a"))
	y := taint.NewString("John Smith", label.Conf("b"))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = x.Concat(y)
	}
}

// BenchmarkTaintRegexp isolates labelled submatch extraction.
func BenchmarkTaintRegexp(b *testing.B) {
	re := regexp.MustCompile(`(C\d+)\.(\d)`)
	subject := taint.NewString("diagnosis C50.9 confirmed", label.Conf("a"))
	for i := 0; i < b.N; i++ {
		if _, ok := taint.MatchRegexp(re, subject); !ok {
			b.Fatal("no match")
		}
	}
}

// BenchmarkTemplateRender isolates label-propagating page rendering on a
// realistic record table.
func BenchmarkTemplateRender(b *testing.B) {
	tmpl := template.MustParse("bench", `<table>
<% for r in records %><tr><td><%= r.id %></td><td><%= r.name %></td></tr><% end %>
</table>`)
	records := make([]taint.Doc, 50)
	for i := range records {
		records[i] = taint.Doc{
			"id":   taint.NewString(fmt.Sprint(i), label.Conf("mdt/7")),
			"name": taint.NewString("Patient Name", label.Conf("mdt/7")),
		}
	}
	ctx := template.Context{"records": records}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tmpl.Render(ctx); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDocWrap isolates the frontend's per-request document wrapping
// (Fig. 3 step 2).
func BenchmarkDocWrap(b *testing.B) {
	raw := []byte(`{"patient_id":"1","name":"John Smith","sites":["C50.9"],"max_stage":2,"completeness":0.87}`)
	labels := label.NewSet(label.Conf("mdt/7"))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := taint.WrapJSON(raw, labels); err != nil {
			b.Fatal(err)
		}
	}
}
