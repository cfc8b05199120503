// Command topogen generates and summarizes the evaluation topologies:
// node/edge counts, degree distribution, landmark statistics, and a
// sampled diameter estimate.
//
// Usage:
//
//	topogen -topo geometric -n 4096 -seed 1
//	topogen -topo routerlike -n 8192 -deg
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"

	"disco/internal/eval"
	"disco/internal/graph"
	"disco/internal/static"
	"disco/internal/vicinity"
)

func main() {
	topo := flag.String("topo", "gnm", "topology: gnm | geometric | aslike | routerlike")
	n := flag.Int("n", 1024, "node count")
	seed := flag.Int64("seed", 1, "random seed")
	deg := flag.Bool("deg", false, "print the degree distribution")
	flag.Parse()

	g := eval.BuildTopo(eval.TopoKind(*topo), *n, *seed)
	fmt.Printf("topology %s: n=%d m=%d avg-degree=%.2f max-degree=%d connected=%v\n",
		*topo, g.N(), g.M(), g.AvgDegree(), g.MaxDegree(), g.Connected())

	// Sampled eccentricity -> diameter lower bound.
	s := graph.NewSSSP(g)
	rng := rand.New(rand.NewSource(*seed))
	maxEcc, maxHops := 0.0, 0
	for i := 0; i < 8; i++ {
		src := graph.NodeID(rng.Intn(g.N()))
		s.Run(src)
		for v := 0; v < g.N(); v++ {
			if d := s.Dist(graph.NodeID(v)); d > maxEcc && d < 1e17 {
				maxEcc = d
			}
			if p := s.PathTo(graph.NodeID(v)); len(p)-1 > maxHops {
				maxHops = len(p) - 1
			}
		}
	}
	fmt.Printf("sampled max distance=%.3f max hops=%d\n", maxEcc, maxHops)

	env := static.NewEnv(g, *seed)
	fmt.Printf("landmarks=%d (%.2f%% of nodes), vicinity size K=%d\n",
		len(env.Landmarks), 100*float64(len(env.Landmarks))/float64(g.N()),
		vicinity.DefaultK(g.N()))
	mean, p95, max := env.AddrSizeStats()
	fmt.Printf("address explicit-route sizes: mean=%.2fB p95=%.2fB max=%.3fB\n", mean, p95, max)

	if *deg {
		hist := make([]int, g.MaxDegree()+1)
		for v := 0; v < g.N(); v++ {
			hist[g.Degree(graph.NodeID(v))]++
		}
		fmt.Println("degree distribution:")
		for d, c := range hist {
			if c > 0 {
				fmt.Printf("  %5d %6d\n", d, c)
			}
		}
	}
	os.Exit(0)
}
