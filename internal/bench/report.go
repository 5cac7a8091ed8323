package bench

import (
	"fmt"
	"sync/atomic"
	"time"
)

// RunStats records the cost of regenerating one experiment. Virtual events
// count every discrete-event execution across all of the experiment's runs —
// deterministic for a scale and seed, so the goldens pin them exactly;
// events-per-wall-second is the harness's throughput on this machine.
type RunStats struct {
	ID            string
	WallSeconds   float64
	VirtualEvents uint64
	EventsPerSec  float64
}

// Measure runs the experiment registered under id and reports both its table
// and its wall-clock/virtual-event stats.
func Measure(id string, o Options) (*Table, RunStats, error) {
	e, ok := Get(id)
	if !ok {
		return nil, RunStats{}, fmt.Errorf("bench: unknown experiment %q", id)
	}
	var events atomic.Uint64
	o.events = &events
	start := time.Now()
	table, err := e.Run(o)
	if err != nil {
		return nil, RunStats{}, err
	}
	wall := time.Since(start).Seconds()
	s := RunStats{ID: id, WallSeconds: wall, VirtualEvents: events.Load()}
	if wall > 0 {
		s.EventsPerSec = float64(s.VirtualEvents) / wall
	}
	return table, s, nil
}
