// Sensornet: the wireless-sensor-network scenario that motivated S4 [34],
// on a geometric random graph where link cost is physical distance (radio
// latency). Sensors are named by device IDs (flat names, MAC-style), a
// sink collects readings, and we measure what compact routing costs in
// stretch on a latency-weighted network — the setting of the paper's
// Fig. 5, where stretch is not masked by unit hop counts.
//
// The run also sweeps the vicinity size, the protocol's one state/stretch
// knob (DESIGN.md ablation): bigger vicinities cost linearly more state
// and buy shorter first-packet routes.
package main

import (
	"fmt"
	"log"
	"math"
	"math/rand"

	"disco"
)

func main() {
	const n = 1500
	base := rand.New(rand.NewSource(99))

	build := func(vicSize int) *disco.Network {
		b := disco.GeometricGraph(n, 8, 99)
		// MAC-style flat device names.
		for i := 0; i < n; i++ {
			b.SetName(i, fmt.Sprintf("02:ab:%02x:%02x:%02x:%02x",
				(i>>24)&0xff, (i>>16)&0xff, (i>>8)&0xff, i&0xff))
		}
		nw, err := b.Build(disco.Config{Seed: 99, VicinitySize: vicSize})
		if err != nil {
			log.Fatal(err)
		}
		return nw
	}

	sinkName := "02:ab:00:00:00:00" // node 0 acts as the data sink

	meanStretch := func(nw *disco.Network, later bool) float64 {
		seed := base.Int63()
		rng := rand.New(rand.NewSource(seed))
		total, count := 0.0, 0
		for i := 0; i < 300; i++ {
			src := rng.Intn(n)
			if src == 0 {
				continue
			}
			var r disco.Route
			var err error
			if later {
				r, err = nw.RouteLater(nw.NameOf(src), sinkName)
			} else {
				r, err = nw.RouteFirst(nw.NameOf(src), sinkName)
			}
			if err != nil {
				log.Fatal(err)
			}
			total += r.Stretch
			count++
		}
		return total / float64(count)
	}

	fmt.Printf("sensornet: %d sensors reporting to sink %s\n\n", n, sinkName)
	defaultK := int(math.Ceil(math.Sqrt(float64(n) * math.Log2(float64(n)))))
	fmt.Printf("%10s %12s %14s %14s\n", "vicinity", "max state", "first stretch", "later stretch")
	for _, k := range []int{defaultK / 2, defaultK, 2 * defaultK} {
		nw := build(k)
		fmt.Printf("%10d %12d %14.3f %14.3f\n",
			k, nw.MaxState(), meanStretch(nw, false), meanStretch(nw, true))
	}
	fmt.Printf("\n(default vicinity sqrt(n log n) = %d; halving it trades stretch for state)\n", defaultK)
}
