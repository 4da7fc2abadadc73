package mem

import (
	"math/rand"
	"testing"

	"awgsim/internal/event"
)

// contextTrafficPerLine is the per-line reference for ContextTraffic: line
// i goes to channel i mod channels and queues behind that channel's
// previous occupant. ContextTraffic must agree with it exactly, on the
// returned completion time and on every channel's next free cycle.
func contextTrafficPerLine(cfg Config, now event.Cycle, chanFree []event.Cycle, bytes int) event.Cycle {
	if bytes <= 0 {
		return now
	}
	lines := (bytes + cfg.LineSize - 1) / cfg.LineSize
	doneAt := now
	for i := 0; i < lines; i++ {
		ch := i % len(chanFree)
		start := now + cfg.L2Latency + cfg.DRAMLatency
		if chanFree[ch] > start {
			start = chanFree[ch]
		}
		end := start + cfg.DRAMService
		chanFree[ch] = end
		if end > doneAt {
			doneAt = end
		}
	}
	return doneAt
}

func TestContextTrafficMatchesPerLineOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, chans := range []int{1, 2, 3, 4, 5, 8, 16} {
		for trial := 0; trial < 200; trial++ {
			cfg := DefaultConfig()
			cfg.DRAMChannels = chans
			cfg.DRAMService = event.Cycle(rng.Intn(48))
			eng := event.New()
			s, err := NewSystem(cfg, eng, 1)
			if err != nil {
				t.Fatal(err)
			}
			// Advance the clock so base times and channel states straddle.
			eng.At(event.Cycle(rng.Intn(5000)), func() {})
			eng.Run()
			ref := make([]event.Cycle, chans)
			for c := range ref {
				if rng.Intn(3) > 0 {
					ref[c] = eng.Now() + event.Cycle(rng.Intn(2000))
				} else {
					ref[c] = event.Cycle(rng.Intn(int(eng.Now()) + 1))
				}
			}
			copy(s.chanFree, ref)
			// Back-to-back transfers queue behind one another's lines.
			for call := 0; call < 1+rng.Intn(3); call++ {
				var bytes int
				switch rng.Intn(4) {
				case 0:
					bytes = rng.Intn(2) - 1 // 0 or negative: no traffic
				case 1:
					bytes = 1 + rng.Intn(chans*cfg.LineSize) // at most one line per channel
				default:
					bytes = 1 + rng.Intn(64<<10)
				}
				want := contextTrafficPerLine(cfg, eng.Now(), ref, bytes)
				if got := s.ContextTraffic(bytes); got != want {
					t.Fatalf("%d channels, %d bytes, service %d: done at %d, per-line oracle %d",
						chans, bytes, cfg.DRAMService, got, want)
				}
				for c := range ref {
					if s.chanFree[c] != ref[c] {
						t.Fatalf("%d channels, %d bytes: channel %d free at %d, per-line oracle %d",
							chans, bytes, c, s.chanFree[c], ref[c])
					}
				}
			}
		}
	}
}
