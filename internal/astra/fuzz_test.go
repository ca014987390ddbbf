package astra

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/config"
	"repro/internal/graph"
	"repro/internal/network"
	"repro/internal/simtime"
)

// fuzzShape is the structure of the iterations FuzzConvertExecute
// draws: the Params fields a graph's shape is made of.
type fuzzShape struct {
	topo      network.Topology
	layers    int
	placement graph.AttentionPlacement
	mono      bool
	repeat    bool
	reqs      int
	pages     []graph.MemOp // devices and directions; bytes drawn per iteration
}

// params draws one iteration of the shape with fresh durations, payloads
// and request IDs.
func (s fuzzShape) params(rng *rand.Rand) graph.Params {
	dur := func(max int) simtime.Duration { return simtime.Duration(rng.Intn(max)) * simtime.Microsecond }
	p := graph.Params{
		Topo:            s.topo,
		Layers:          s.layers,
		EmbedDur:        dur(20),
		HeadDur:         dur(40),
		ActBytes:        int64(1+rng.Intn(64)) << 14,
		HeadGatherBytes: int64(1+rng.Intn(4)) << 12,
		Placement:       s.placement,
		RepeatBlocks:    s.repeat,
		Block:           graph.BlockWork{Pre: dur(50), Post: dur(80)},
		ReqBytes:        map[int]int64{},
	}
	if s.mono {
		p.Block.Monolithic = 1 + dur(300)
	} else {
		p.Block.Attn, p.Block.PIMAttn = map[int]simtime.Duration{}, map[int]simtime.Duration{}
		for r := range s.reqs {
			id := 3*r + rng.Intn(3)
			p.Block.Attn[id] = dur(60)
			p.Block.PIMAttn[id] = dur(90)
			p.ReqBytes[id] = int64(1+rng.Intn(16)) << 12
		}
	}
	for _, m := range s.pages {
		m.Bytes = int64(1+rng.Intn(256)) << 16
		p.MemOps = append(p.MemOps, m)
	}
	return p
}

// FuzzConvertExecute is the compiled path's differential contract:
// consecutive iterations converted into one held graph and run on one
// held executor, through shape hits and rebuilds, plan hits and
// compiles, and repeated values, each execute exactly as a fresh
// conversion on a fresh executor does, and exactly as a held executor
// forced onto the event loop does.
//
// The inputs pick the topology (tensor, pipeline or hybrid, with an
// optional PIM pool), the placement, a monolithic or split block,
// repeat spans on or off, the request count, the paging ops and 2-4
// iterations. flags bit 5 alternates the request count between
// iterations (which flips whether PIM-pool blocks repeat), bit 6 moves
// the first paging op every other iteration, and bit 7 repeats the
// first iteration's values throughout.
func FuzzConvertExecute(f *testing.F) {
	f.Add(uint8(2), uint8(3), uint8(1), uint8(0), uint8(31), uint8(5), uint8(0), uint8(0x04|0x08), int64(1)) // the paper's TP4 x PP2 monolithic shape
	f.Add(uint8(0), uint8(1), uint8(0), uint8(2), uint8(11), uint8(3), uint8(2), uint8(0x02|0x08|0x10|0x20), int64(2))
	f.Add(uint8(1), uint8(2), uint8(0), uint8(0), uint8(7), uint8(2), uint8(3), uint8(0x01|0x08|0x20|0x40), int64(3))
	f.Add(uint8(2), uint8(1), uint8(1), uint8(3), uint8(15), uint8(4), uint8(1), uint8(0x02|0x08|0x30), int64(4))
	f.Add(uint8(0), uint8(3), uint8(0), uint8(0), uint8(3), uint8(1), uint8(0), uint8(0x00|0x30|0x80), int64(5))
	f.Add(uint8(2), uint8(3), uint8(1), uint8(1), uint8(24), uint8(7), uint8(4), uint8(0x02|0x08|0x10|0x20|0x40), int64(6))
	f.Fuzz(func(t *testing.T, mode, npus, groups, pool, layers, reqs, pages, flags uint8, seed int64) {
		par := network.Parallelism(mode % 3)
		nGroups := 1
		if par == network.Hybrid {
			nGroups = 1 + int(groups)%3
		}
		topo, err := network.Build(par, nGroups*(1+int(npus)%4), nGroups, config.DefaultLink(), config.DefaultLink())
		if err != nil {
			t.Fatal(err)
		}
		s := fuzzShape{
			topo:      topo,
			layers:    1 + int(layers)%40,
			placement: graph.AttentionPlacement(flags % 3),
			mono:      flags&0x04 != 0,
			repeat:    flags&0x08 != 0,
			reqs:      1 + int(reqs)%12,
		}
		s.topo.PIMPool = int(pool) % 4
		if s.placement == graph.PIMPool && s.topo.PIMPool == 0 {
			s.topo.PIMPool = 1
		}
		shapeRng := rand.New(rand.NewSource(seed))
		for range int(pages) % 6 {
			s.pages = append(s.pages, graph.MemOp{Device: shapeRng.Intn(topo.NPUNodes()), Load: shapeRng.Intn(2) == 0})
		}
		iters := 2 + int(flags>>4)%3

		held := graph.New()
		var e, ref Executor
		for i := range iters {
			it := s
			if flags&0x20 != 0 && i%2 == 1 {
				it.reqs++
			}
			if flags&0x40 != 0 && i%2 == 1 && len(it.pages) > 0 {
				it.pages = append([]graph.MemOp(nil), it.pages...)
				it.pages[0].Device = (it.pages[0].Device + 1) % topo.NPUNodes()
			}
			valSeed := seed + int64(i)
			if flags&0x80 != 0 {
				valSeed = seed
			}
			p := it.params(rand.New(rand.NewSource(valSeed)))

			fresh, err := graph.Convert(p)
			if err != nil {
				t.Fatal(err)
			}
			want, err := execute(fresh)
			if err != nil {
				t.Fatal(err)
			}
			if err := graph.ConvertInto(held, p); err != nil {
				t.Fatal(err)
			}
			got, _ := executeBothWays(t, fmt.Sprintf("iteration %d held", i), &e, &ref, held)
			sameResult(t, fmt.Sprintf("iteration %d held against fresh", i), got, want)
		}
	})
}
