package coll

import (
	"fmt"
	"testing"

	"binetrees/internal/core"
	"binetrees/internal/fabric"
)

// TestRegistryAllAlgorithmsCorrect executes every registered algorithm on
// several rank counts and verifies its output against locally computed
// expected results.
func TestRegistryAllAlgorithmsCorrect(t *testing.T) {
	algos := Registry()
	if len(algos) < 30 {
		t.Fatalf("registry has only %d algorithms", len(algos))
	}
	for _, algo := range algos {
		counts := []int{2, 4, 16}
		if !algo.Pow2Only {
			counts = append(counts, 6, 12)
		}
		for _, p := range counts {
			bs := 2
			n := p * bs
			root := p / 3
			run, err := algo.Make(p, root)
			if err != nil {
				t.Fatalf("%v/%s p=%d: %v", algo.Coll, algo.Name, p, err)
			}
			full := make([]int32, n)
			for r := 0; r < p; r++ {
				copy(full[r*bs:], input(r, bs))
			}
			wantRed := expectedReduce(p, n, OpSum)
			tag := fmt.Sprintf("%v/%s p=%d", algo.Coll, algo.Name, p)
			runRanks(t, p, func(c fabric.Comm) error {
				r := c.Rank()
				inLen, outLen := algo.Coll.InOutLens(p, n)
				in := make([]int32, inLen)
				var out []int32
				if outLen > 0 {
					out = make([]int32, outLen)
				}
				switch algo.Coll {
				case CBcast:
					if r == root {
						copy(in, input(root, n))
					}
				case CGather, CAllgather:
					copy(in, input(r, bs))
				default:
					copy(in, input(r, n))
				}
				if err := run(c, root, in, out, OpSum); err != nil {
					return err
				}
				switch algo.Coll {
				case CBcast:
					return eq(t, tag, in, input(root, n))
				case CReduce:
					if r == root {
						return eq(t, tag, out, wantRed)
					}
				case CGather:
					if r == root {
						return eq(t, tag, out, full)
					}
				case CScatter:
					return eq(t, tag, out, input(root, n)[r*bs:(r+1)*bs])
				case CReduceScatter:
					return eq(t, tag, out, wantRed[r*bs:(r+1)*bs])
				case CAllgather:
					return eq(t, tag, out, full)
				case CAllreduce:
					return eq(t, tag, in, wantRed)
				case CAlltoall:
					return eq(t, tag, out, alltoallExpected(p, bs, r))
				}
				return nil
			})
		}
	}
}

// TestRegistryScatterInput fixes the scatter convention: the root's input is
// the full vector.
func TestRegistryScatterInput(t *testing.T) {
	algos := Registry()
	for _, name := range []string{"bine-tree", "binomial-dd", "linear"} {
		algo, ok := Find(algos, CScatter, name)
		if !ok {
			t.Fatalf("scatter/%s not registered", name)
		}
		p, bs := 8, 3
		root := 2
		run, err := algo.Make(p, root)
		if err != nil {
			t.Fatal(err)
		}
		fullIn := input(root, p*bs)
		runRanks(t, p, func(c fabric.Comm) error {
			in := make([]int32, p*bs)
			if c.Rank() == root {
				copy(in, fullIn)
			}
			out := make([]int32, bs)
			if err := run(c, root, in, out, OpSum); err != nil {
				return err
			}
			return eq(t, name, out, fullIn[c.Rank()*bs:(c.Rank()+1)*bs])
		})
	}
}

// TestRegistryCoverage checks every collective has at least one Bine
// algorithm and one binomial baseline, as the paper's tables require.
func TestRegistryCoverage(t *testing.T) {
	algos := Registry()
	for _, c := range Collectives {
		perColl := ByCollective(algos, c)
		var bine, binomial int
		for _, a := range perColl {
			if a.Bine {
				bine++
			}
			if a.Binomial {
				binomial++
			}
			if a.Bine && a.Binomial {
				t.Errorf("%v/%s marked both bine and binomial", c, a.Name)
			}
		}
		if bine == 0 {
			t.Errorf("%v has no Bine algorithm", c)
		}
		if binomial == 0 {
			t.Errorf("%v has no binomial baseline", c)
		}
	}
	if _, ok := Find(algos, CAllreduce, "swing"); !ok {
		t.Error("swing allreduce missing")
	}
	if _, ok := Find(algos, CAllreduce, "no-such"); ok {
		t.Error("phantom algorithm found")
	}
}

// TestTreeAlgoKindsDiffer pins the Fig. 1 distinction: the two binomial
// broadcast baselines produce different traffic patterns.
func TestTreeAlgoKindsDiffer(t *testing.T) {
	dd := core.MustTree(core.BinomialDD, 8, 0)
	dh := core.MustTree(core.BinomialDH, 8, 0)
	if dd.Parent[1] == dh.Parent[1] && dd.JoinStep[4] == dh.JoinStep[4] {
		t.Error("distance-doubling and distance-halving trees coincide")
	}
}

// TestBruckAlltoallCounts checks the closed-form per-step item counts of
// bruckAlltoallPattern against a global simulation of item positions: every
// rank starts with one item per destination, and at hop length k an item
// moves when its remaining ring displacement has bit k set.
func TestBruckAlltoallCounts(t *testing.T) {
	for p := 2; p <= 69; p++ {
		s, err := bruckAlltoallPattern(p, 0, p)
		if err != nil {
			t.Fatal(err)
		}
		got := s.(*bruckPattern).moved
		held := make([][]int, p) // held[r] = destinations of the items at r
		for r := range held {
			for d := 0; d < p; d++ {
				held[r] = append(held[r], d)
			}
		}
		step := 0
		for k := 1; k < p; k, step = k<<1, step+1 {
			next := make([][]int, p)
			for r := 0; r < p; r++ {
				moved := 0
				for _, d := range held[r] {
					if (mod(d-r, p)/k)%2 == 1 {
						moved++
						next[(r+k)%p] = append(next[(r+k)%p], d)
					} else {
						next[r] = append(next[r], d)
					}
				}
				if step >= len(got) || got[step] != moved {
					t.Fatalf("p=%d step %d rank %d: simulation moves %d items, closed form %v", p, step, r, moved, got)
				}
			}
			held = next
		}
		if step != len(got) {
			t.Fatalf("p=%d: closed form has %d steps, simulation %d", p, len(got), step)
		}
	}
}
