// The run bundle: every artifact a finished machine yields, collected by
// one function and laid out on disk by one writer under fixed names.
// Collect asks the machine which observers ran rather than reading any
// configuration, so the torus workloads, the soak campaigns and netpipe's
// single-curve runs record the same files for the same observers.
package experiments

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"

	"portals3/internal/machine"
	"portals3/internal/sim"
	"portals3/internal/telemetry"
)

// Bundle is one finished run's artifacts. StatsText is always present;
// every other field is empty when its observer was off.
type Bundle struct {
	StatsText     string // machine counter table
	TelemetryJSON []byte // merged telemetry export (telemetry on)
	TraceBytes    []byte // merged Chrome trace (tracing on)
	DumpBytes     []byte // end-of-run flight-recorder dump (recorder on)

	// ReportDumps holds the at-detection dump of every failure report that
	// carried one (recorder on), named report-I-KIND after the report's
	// index and kind.
	ReportDumps []NamedDump

	// HostProfile is the host-execution profile (profiler on). Wall-clock
	// is nondeterministic, so no digest reads it.
	HostProfile *machine.HostProfile

	// tel is the merged telemetry the JSON export came from, snapshotted
	// at now. Write encodes telemetry.prom from it, so only a bundle that
	// is written pays for the Prometheus text.
	tel *telemetry.Telemetry
	now sim.Time
}

// NamedDump is one encoded flight-recorder dump and its bundle name.
type NamedDump struct {
	Name  string
	Bytes []byte
}

// Collect encodes the artifacts of a finished machine. Call it after Run,
// from the driver goroutine. Every artifact is deterministic except the
// host profile: a same-seed rerun yields identical bytes.
func Collect(m *machine.Machine) Bundle {
	now := m.S.Now()
	b := Bundle{StatsText: m.Stats().String(), HostProfile: m.HostProfile()}
	if tel := m.Telemetry(); tel != nil {
		var js bytes.Buffer
		if err := tel.WriteJSON(&js, now); err != nil {
			panic(err)
		}
		b.TelemetryJSON, b.tel, b.now = js.Bytes(), tel, now
	}
	if tr := m.Trace(); tr != nil {
		var tb bytes.Buffer
		if err := tr.WriteChrome(&tb); err != nil {
			panic(err)
		}
		b.TraceBytes = tb.Bytes()
	}
	if m.FlightRecorder() != nil {
		for i, r := range m.Reports() {
			if r.Dump != nil {
				b.ReportDumps = append(b.ReportDumps,
					NamedDump{fmt.Sprintf("report-%d-%s", i, r.Kind), r.Dump.Bytes()})
			}
		}
		b.DumpBytes = m.TakeDump("end of run").Bytes()
	}
	return b
}

// Write lays the bundle out under dir, creating it if needed, and returns
// the paths written in a fixed order. Each file name is prefix followed by
// its fixed name: stats.txt, telemetry.json, telemetry.prom, trace.json,
// run.p3dump, one REPORT.p3dump per failure dump, and hostprof.json.
// Absent artifacts write no file.
func (b Bundle) Write(dir, prefix string) ([]string, error) {
	type file struct {
		name string
		data []byte
	}
	var prom bytes.Buffer
	if err := b.tel.WritePrometheus(&prom, b.now); err != nil {
		return nil, err
	}
	files := []file{
		{"stats.txt", []byte(b.StatsText)},
		{"telemetry.json", b.TelemetryJSON},
		{"telemetry.prom", prom.Bytes()},
		{"trace.json", b.TraceBytes},
		{"run.p3dump", b.DumpBytes},
	}
	for _, d := range b.ReportDumps {
		files = append(files, file{d.Name + ".p3dump", d.Bytes})
	}
	if b.HostProfile != nil {
		js, err := b.HostProfile.JSON()
		if err != nil {
			return nil, err
		}
		files = append(files, file{"hostprof.json", js})
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	var paths []string
	for _, f := range files {
		if len(f.data) == 0 {
			continue
		}
		path := filepath.Join(dir, prefix+f.name)
		if err := os.WriteFile(path, f.data, 0o644); err != nil {
			return paths, err
		}
		paths = append(paths, path)
	}
	return paths, nil
}
