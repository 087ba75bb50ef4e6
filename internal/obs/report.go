package obs

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"
)

// Report is the -metrics-out file every command writes: a run stamp plus
// the telemetry Dump (absent when collection is off). A command with more
// to say embeds it and adds its own keys.
type Report struct {
	GeneratedAt time.Time `json:"generated_at"`
	GoVersion   string    `json:"go_version"`
	GOMAXPROCS  int       `json:"gomaxprocs"`
	Metrics     *Dump     `json:"metrics,omitempty"`
}

// NewReport stamps a Report with the current telemetry snapshot.
func NewReport() Report {
	r := Report{GeneratedAt: time.Now().UTC(), GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0)}
	if Enabled() {
		r.Metrics = Snapshot()
	}
	return r
}

// WriteReport writes doc — a Report, or a struct embedding one — to path as
// indented JSON. The write is atomic (a temp file beside path, then a
// rename), so a scraper tailing path never reads a torn or empty report.
func WriteReport(path string, doc any) error {
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, append(data, '\n'), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// DumpEvery rewrites path with a fresh Report every period. The returned
// stop ends the loop and writes one final report (the daemons' shutdown
// dump). Write failures are logged to stderr, not fatal: telemetry never
// takes the server down.
func DumpEvery(path string, period time.Duration) (stop func()) {
	write := func() {
		if err := WriteReport(path, NewReport()); err != nil {
			fmt.Fprintf(os.Stderr, "obs: metrics-out: %v\n", err)
		}
	}
	stopLoop := every(period, write)
	return func() {
		stopLoop()
		write()
	}
}
