package obs

import (
	"fmt"
	"io"
	"sync"
	"time"
)

// progressPeriod is how often a Progress writes its status line.
const progressPeriod = time.Second

// Progress periodically reports a counter's rate (matches/sec). It reads
// the counter's merged value from its own goroutine — the workers feeding
// the counter are never slowed or synchronized by reporting.
type Progress struct {
	w     io.Writer
	label string
	c     *Counter
	start time.Time
	base  uint64 // counter value when reporting started

	stop chan struct{}
	once sync.Once
	wg   sync.WaitGroup
}

// StartProgress begins reporting counter c to w every second under the
// given label. Returns nil (inert) when w or c is nil.
func StartProgress(w io.Writer, label string, c *Counter) *Progress {
	if w == nil || c == nil {
		return nil
	}
	p := &Progress{
		w:     w,
		label: label,
		c:     c,
		start: time.Now(),
		base:  c.Value(),
		stop:  make(chan struct{}),
	}
	p.wg.Add(1)
	go p.loop()
	return p
}

func (p *Progress) loop() {
	defer p.wg.Done()
	tick := time.NewTicker(progressPeriod)
	defer tick.Stop()
	for {
		select {
		case <-p.stop:
			return
		case <-tick.C:
			p.report(false)
		}
	}
}

// report writes one status line. final switches from carriage-return
// overwriting to a terminating newline.
func (p *Progress) report(final bool) {
	done := p.c.Value() - p.base
	elapsed := time.Since(p.start)
	rate := float64(done) / elapsed.Seconds()
	line := fmt.Sprintf("%s: %d matches  %.0f/s  %s", p.label, done, rate, elapsed.Round(time.Second))
	if final {
		fmt.Fprintf(p.w, "\r%s\n", line)
	} else {
		fmt.Fprintf(p.w, "\r%s", line)
	}
}

// Stop halts reporting and writes a final status line. Safe on a nil
// receiver and safe to call more than once.
func (p *Progress) Stop() {
	if p == nil {
		return
	}
	p.once.Do(func() {
		close(p.stop)
		p.wg.Wait()
		p.report(true)
	})
}
