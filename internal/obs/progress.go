// The periodic progress reporter: a background goroutine that snapshots
// the registry on an interval and prints one compact line of everything
// that moved, with per-second rates — the heartbeat that makes a long
// sweep observable from a terminal while it runs.
package obs

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"time"
)

// Reporter periodically prints changed metrics to a writer.
type Reporter struct {
	reg      *Registry
	w        io.Writer
	interval time.Duration

	started  bool
	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}
}

// NewReporter creates a reporter over the registry. A nil registry or a
// non-positive interval yields an inert reporter whose Start/Stop no-op.
func NewReporter(reg *Registry, w io.Writer, interval time.Duration) *Reporter {
	return &Reporter{reg: reg, w: w, interval: interval,
		stop: make(chan struct{}), done: make(chan struct{})}
}

// Start launches the reporting goroutine. Safe to call on an inert
// reporter (it does nothing).
func (p *Reporter) Start() {
	if p == nil || p.reg == nil || p.interval <= 0 {
		return
	}
	p.started = true
	go p.run()
}

// Stop halts reporting after printing one final line; it blocks until the
// goroutine exits. Idempotent.
func (p *Reporter) Stop() {
	if p == nil || !p.started {
		return
	}
	p.stopOnce.Do(func() { close(p.stop) })
	<-p.done
}

func (p *Reporter) run() {
	defer close(p.done)
	t := time.NewTicker(p.interval)
	defer t.Stop()
	start := time.Now()
	prev := map[string]float64{}
	prevT := start
	for {
		select {
		case <-t.C:
		case <-p.stop:
			p.report(start, prev, prevT, true)
			return
		}
		prevT = p.report(start, prev, prevT, false)
	}
}

// report prints one progress line and returns the sample time. prev is
// updated in place.
func (p *Reporter) report(start time.Time, prev map[string]float64, prevT time.Time, final bool) time.Time {
	now := time.Now()
	dt := now.Sub(prevT).Seconds()
	var parts []string
	for _, s := range p.reg.Snapshot() {
		if s.Kind == "histogram" {
			continue // the count rides along via funcs/counters if wanted
		}
		delta := s.Value - prev[s.Name]
		if delta == 0 && !final {
			continue
		}
		if s.Kind == "counter" && dt > 0 {
			parts = append(parts, fmt.Sprintf("%s=%s(+%s/s)", s.Name, human(s.Value), human(delta/dt)))
		} else {
			parts = append(parts, fmt.Sprintf("%s=%s", s.Name, human(s.Value)))
		}
		prev[s.Name] = s.Value
	}
	if len(parts) == 0 {
		return now
	}
	sort.Strings(parts)
	const maxParts = 12
	if len(parts) > maxParts {
		parts = append(parts[:maxParts], fmt.Sprintf("(+%d more)", len(parts)-maxParts))
	}
	tag := "progress"
	if final {
		tag = "final"
	}
	fmt.Fprintf(p.w, "[obs %s %s] %s\n",
		tag, now.Sub(start).Truncate(time.Second), strings.Join(parts, " "))
	return now
}

// human renders a float compactly with k/M/G suffixes.
func human(v float64) string {
	neg := ""
	if v < 0 {
		neg, v = "-", -v
	}
	switch {
	case v >= 1e9:
		return fmt.Sprintf("%s%.2fG", neg, v/1e9)
	case v >= 1e6:
		return fmt.Sprintf("%s%.2fM", neg, v/1e6)
	case v >= 1e4:
		return fmt.Sprintf("%s%.1fk", neg, v/1e3)
	case v == float64(int64(v)):
		return fmt.Sprintf("%s%d", neg, int64(v))
	default:
		return fmt.Sprintf("%s%.3f", neg, v)
	}
}
