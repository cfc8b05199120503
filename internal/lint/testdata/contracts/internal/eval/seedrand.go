// seedrand: all entropy must flow from explicit seeds and wall clock
// must be waived.

package eval

import (
	"math/rand"
	"time"
)

type config struct {
	Seed int64
}

// --- flagged ---

func globalStream(n int) int {
	return rand.Intn(n) // want `rand.Intn draws from the process-global stream`
}

func globalShuffle(xs []int) {
	rand.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] }) // want `rand.Shuffle draws from the process-global stream`
}

func clockSeeded() rand.Source {
	return rand.NewSource(time.Now().UnixNano()) // want `rand.NewSource argument is not derived from a seed` `time.Now in deterministic package disco/internal/eval`
}

func opaqueSeeded(x int64) rand.Source {
	return rand.NewSource(x) // want `rand.NewSource argument is not derived from a seed`
}

func bareClock() time.Time {
	return time.Now() // want `time.Now in deterministic package disco/internal/eval`
}

func elapsed(t0 time.Time) time.Duration {
	return time.Since(t0) // want `time.Since in deterministic package disco/internal/eval`
}

// --- allowed ---

func explicitSeed(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed))
}

func derivedSeed(c config, task int64) rand.Source {
	return rand.NewSource(c.Seed ^ task<<1)
}

func seedCallee(taskSeed func(int) int64, task int) rand.Source {
	return rand.NewSource(taskSeed(task))
}

func constantSeed() rand.Source {
	return rand.NewSource(42)
}

// --- waived ---

func measured() time.Time {
	//disco:measured latency sample for the qps report, never in figure data
	return time.Now()
}

func measuredSameLine(t0 time.Time) time.Duration {
	return time.Since(t0) //disco:measured wall-clock aside in the progress log
}
