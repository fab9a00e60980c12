package coll

import (
	"fmt"

	"binetrees/internal/core"
	"binetrees/internal/fabric"
)

// Composite large-vector collectives (Sec. 4.5): broadcast as scatter +
// allgather and reduce as reduce-scatter + gather, in both Bine and
// binomial flavours. Composites run on a rotated communicator so the
// tree/butterfly root is always logical rank 0; block order is preserved
// end to end.

// rotated returns a view of c in which global rank root becomes rank 0.
func rotated(c fabric.Comm, root int) (fabric.Comm, error) {
	p := c.Size()
	ranks := make([]int, p)
	for i := range ranks {
		ranks[i] = (root + i) % p
	}
	return Group(c, ranks)
}

// checkRotatedTree rejects a composite tree not rooted at the rotated
// communicator's rank 0.
func checkRotatedTree(tree *core.Tree) error {
	if tree.Root != 0 {
		return fmt.Errorf("coll: composite tree rooted at %d, want 0", tree.Root)
	}
	return nil
}

// BcastScatterAllgather is the large-vector broadcast: scatter down a tree,
// then allgather over a butterfly (Sec. 4.5 for Bine; the MPICH
// scatter+allgather broadcast when given binomial kinds). The tree must be
// rooted at 0, because the collective runs on a communicator rotated to
// root. The vector length must be a multiple of the rank count.
func BcastScatterAllgather(c fabric.Comm, tree *core.Tree, bfly *core.Butterfly, strat Strategy, root int, buf []int32) error {
	p := c.Size()
	if len(buf)%p != 0 || len(buf) == 0 {
		return fmt.Errorf("coll: vector of %d elements not divisible into %d blocks", len(buf), p)
	}
	if err := checkRotatedTree(tree); err != nil {
		return err
	}
	rc, err := rotated(c, root)
	if err != nil {
		return err
	}
	bs := len(buf) / p
	own := make([]int32, bs)
	if err := Scatter(rc, tree, buf, own); err != nil {
		return err
	}
	return Allgather(Offset(rc, phaseStride), bfly, strat, own, buf)
}

// ReduceRsGather is the large-vector reduce: butterfly reduce-scatter, then
// tree gather to the root (Sec. 4.5). The tree must be rooted at 0, as for
// BcastScatterAllgather. in is unmodified; out is the fully reduced vector
// at the root.
func ReduceRsGather(c fabric.Comm, bfly *core.Butterfly, tree *core.Tree, strat Strategy, root int, in, out []int32, op Op) error {
	p := c.Size()
	if len(in)%p != 0 || len(in) == 0 {
		return fmt.Errorf("coll: vector of %d elements not divisible into %d blocks", len(in), p)
	}
	if err := checkRotatedTree(tree); err != nil {
		return err
	}
	rc, err := rotated(c, root)
	if err != nil {
		return err
	}
	bs := len(in) / p
	own := make([]int32, bs)
	if err := ReduceScatter(rc, bfly, strat, in, own, op); err != nil {
		return err
	}
	return Gather(Offset(rc, phaseStride), tree, own, out)
}

// HierarchicalAllreduce is the Sec. 6.2 multi-GPU schedule: an intra-node
// reduce-scatter among the ranksPerNode ranks of each node, an inter-node
// Bine allreduce among ranks with equal local id, and an intra-node
// allgather. Node membership is contiguous: node i owns ranks
// [i·ranksPerNode, (i+1)·ranksPerNode).
func HierarchicalAllreduce(c fabric.Comm, ranksPerNode int, bflyKind core.ButterflyKind, buf []int32, op Op) error {
	p := c.Size()
	if ranksPerNode <= 0 || p%ranksPerNode != 0 {
		return fmt.Errorf("coll: %d ranks not divisible into nodes of %d", p, ranksPerNode)
	}
	nodes := p / ranksPerNode
	if len(buf)%ranksPerNode != 0 || len(buf) == 0 {
		return fmt.Errorf("coll: vector of %d elements not divisible into %d node blocks", len(buf), ranksPerNode)
	}
	r := c.Rank()
	node, local := r/ranksPerNode, r%ranksPerNode
	nodeRanks := make([]int, ranksPerNode)
	for i := range nodeRanks {
		nodeRanks[i] = node*ranksPerNode + i
	}
	peerRanks := make([]int, nodes)
	for i := range peerRanks {
		peerRanks[i] = i*ranksPerNode + local
	}
	intra, err := Group(c, nodeRanks)
	if err != nil {
		return err
	}
	inter, err := Group(Offset(c, phaseStride), peerRanks)
	if err != nil {
		return err
	}
	intraBfly, err := core.NewButterfly(core.BflyBinomialDH, ranksPerNode)
	if err != nil {
		return err
	}
	// Phase 1: intra-node reduce-scatter (GPUs are fully connected, so the
	// classic halving butterfly is already optimal locally).
	bs := len(buf) / ranksPerNode
	slice := make([]int32, bs)
	if err := ReduceScatter(intra, intraBfly, Permute, buf, slice, op); err != nil {
		return err
	}
	// Phase 2: inter-node Bine allreduce on the owned slice.
	if nodes > 1 {
		interBfly, err := core.NewButterfly(bflyKind, nodes)
		if err != nil {
			return err
		}
		if bs%nodes == 0 {
			if err := AllreduceRsAg(inter, interBfly, slice, op); err != nil {
				return err
			}
		} else if err := AllreduceRecDoubling(inter, interBfly, slice, op); err != nil {
			return err
		}
	}
	// Phase 3: intra-node allgather reassembles the full vector.
	return Allgather(Offset(intra, 2*phaseStride), intraBfly, Permute, slice, buf)
}

// AllreduceReduceBcast is the naive baseline: reduce to the tree's root,
// then broadcast from it.
func AllreduceReduceBcast(c fabric.Comm, tree *core.Tree, buf []int32, op Op) error {
	out := buf
	if c.Rank() == tree.Root {
		out = make([]int32, len(buf))
	}
	if err := Reduce(c, tree, buf, out, op); err != nil {
		return err
	}
	if c.Rank() == tree.Root {
		copy(buf, out)
	}
	return Bcast(Offset(c, phaseStride), tree, buf)
}
